"""Certificates and traces pinned byte for byte to files under ``tests/data``.

Two runs of one commit writing the same ``certificate.json`` cannot show
bits that move between commits; these files can. CI's console-script step
compares the same runs against them with ``cmp``. The affine map's
images are BLAS matvecs, so its file holds where the matvec rounds as
OpenBLAS does on x86-64.
"""

import hashlib
import json
from pathlib import Path

import pytest

from enrichedfp import catalog, cli, serialize

DATA = Path(__file__).parent / "data"

# a command, its arguments (files under tests/data), and the certificate it writes
RUNS = {
    # the reflection on the default 201-point sample of [0, 1]
    "reflection": ("certify", ["--input", "reflection.json"], "reflection_certificate.json"),
    # a 5-D affine map on the default 2000-point sample of [-1, 1]^5
    "affine5": (
        "certify", ["--input", "affine5.json", "--config", "box5.json"], "affine5_certificate.json"
    ),
    # the catalog SFP instance (tests/data/standard_sfp.json is what CI writes
    # from catalog.standard_sfp()): an orbit certificate, whose sample starts
    # with the newest iterates
    "standard_sfp": ("sfp", ["--input", "standard_sfp.json"], "standard_sfp_certificate.json"),
    # the catalog VIP instance (tests/data/vip_line.json, written the same way
    # from catalog.vip_line()): its orbit certificate is infeasible
    "vip_line": ("vip", ["--input", "vip_line.json"], "vip_line_certificate.json"),
}

# the solves whose trace.csv is pinned too, every iterate's bits
TRACES = {"standard_sfp": "standard_sfp_trace.csv", "vip_line": "vip_line_trace.csv"}

# a 5-D map of two rotations and a -0.5 scaling, solved at lambda 0.5 to an
# a posteriori bound of 1e-13: 2891 rows, several blocks of the vectorised
# trace writer, with zeros and bounds below 1e-11 that FLOAT_FMT prints.
# Its trace.csv is pinned by its sha256, as CI's console-script step checks it.
LONG_SOLVE = "rotation5_solve.json"
LONG_TRACE_SHA256 = "a69b501d508689e7f274c782b3a5ac0139a9ba345232ac0170f445d627381c8e"


def _run(tmp_path, capsys, name):
    """The directory ``RUNS[name]`` writes to."""
    command, args, _ = RUNS[name]
    argv = [arg if arg.startswith("--") else str(DATA / arg) for arg in args]
    out = tmp_path / "out"
    assert cli.main([command, *argv, "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_certify_writes_the_pinned_certificate(tmp_path, capsys, name):
    out = _run(tmp_path, capsys, name)
    assert (out / "certificate.json").read_bytes() == (DATA / RUNS[name][2]).read_bytes()


@pytest.mark.parametrize("name", sorted(TRACES))
def test_a_solve_writes_the_pinned_trace(tmp_path, capsys, name):
    out = _run(tmp_path, capsys, name)
    assert (out / "trace.csv").read_bytes() == (DATA / TRACES[name]).read_bytes()


def test_a_long_solve_writes_the_pinned_trace(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(DATA / LONG_SOLVE), "--out", str(out)]) == cli.EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest() == LONG_TRACE_SHA256


def test_the_sfp_input_is_the_catalog_instance():
    written = serialize.instance_to_dict(catalog.standard_sfp())
    assert json.loads((DATA / "standard_sfp.json").read_text()) == written


def test_the_vip_input_is_the_catalog_instance():
    written = serialize.instance_to_dict(catalog.vip_line())
    assert json.loads((DATA / "vip_line.json").read_text()) == written
