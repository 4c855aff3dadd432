"""Time set-up in a fresh interpreter: import enrichedfp, then build inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SIZE WORKDIR

Prints one JSON object: ``import_s`` (the package import, numpy included)
and ``setup_s`` (import plus building the workload's inputs). ``run.py``
starts it several times per run and reports the medians.
"""

import time

T0 = time.perf_counter()

import enrichedfp  # noqa: E402,F401  (timed: the import is what is measured)

T1 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv):
    name, seed, size, workdir = argv
    workloads.WORKLOADS[name].build(int(seed), size, workdir)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": T1 - T0, "setup_s": t2 - T0}))


if __name__ == "__main__":
    main(sys.argv[1:])
