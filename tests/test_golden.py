"""Certificates pinned byte for byte to files under ``tests/data``.

Two runs of one commit writing the same ``certificate.json`` cannot show
bits that move between commits; these files can. CI's console-script step
compares the same two runs against them with ``cmp``. The affine map's
images are BLAS matvecs, so its file holds where the matvec rounds as
OpenBLAS does on x86-64.
"""

from pathlib import Path

import pytest

from enrichedfp import cli

DATA = Path(__file__).parent / "data"

# certify's arguments, files under tests/data, and the certificate they write
RUNS = {
    # the reflection on the default 201-point sample of [0, 1]
    "reflection": (["--input", "reflection.json"], "reflection_certificate.json"),
    # a 5-D affine map on the default 2000-point sample of [-1, 1]^5
    "affine5": (["--input", "affine5.json", "--config", "box5.json"], "affine5_certificate.json"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_certify_writes_the_pinned_certificate(tmp_path, capsys, name):
    args, expected = RUNS[name]
    argv = [arg if arg.startswith("--") else str(DATA / arg) for arg in args]
    out = tmp_path / "out"
    assert cli.main(["certify", *argv, "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert (out / "certificate.json").read_bytes() == (DATA / expected).read_bytes()
