#!/usr/bin/env python3
"""enrichedfp benchmark: one workload per run, closed loop, one call at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify_5d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the run times passes untraced for ``--seconds`` seconds
and reports the end-to-end metrics. With ``--trace 1`` it times one
untraced pass, then traced passes, and reports the per-layer metrics. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

import os

# Pinned before numpy is imported, here and in every probe this run starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("certify_5d", "solve_rotation_20d", "apps_30d", "cli_catalog")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def _environment(enrichedfp):
    import numpy

    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "enrichedfp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "enrichedfp": enrichedfp.__version__,
        "have_numba": enrichedfp._kernels.HAVE_NUMBA,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class SetupProbes:
    """Import and set-up time in fresh interpreters, spread over the run.

    The host's speed drifts over seconds to minutes, so the probes are
    started at evenly spaced times between the timed passes, not in one
    burst, and their median is reported.
    """

    def __init__(self, args, workdir, start, seconds):
        self.args = args
        self.workdir = workdir
        self.start = start
        self.seconds = seconds
        self.results = []

    def _probe(self):
        probe_dir = self.workdir / f"probe{len(self.results)}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), self.args.workload,
             str(self.args.seed), self.args.size, str(probe_dir)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        self.results.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def run_due(self):
        while len(self.results) < SETUP_PROBES and time.perf_counter() >= (
            self.start + len(self.results) * self.seconds / SETUP_PROBES
        ):
            self._probe()

    def medians(self):
        while len(self.results) < SETUP_PROBES:
            self._probe()
        return {k: statistics.median(r[k] for r in self.results) for k in ("import_s", "setup_s")}


class Loop:
    """Closed-loop passes with correctness checks and failure counts."""

    def __init__(self, workload, inputs, workdir):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.walls = []
        self.op_walls = []
        self.iterations = []

    def one_pass(self, run=None):
        """Run, time and check one pass."""
        run = run or self.workload.run
        outdir = self.workdir / f"pass{self.passes}"
        outdir.mkdir()
        self.passes += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            outputs = run(self.inputs, outdir)
            wall = time.perf_counter() - t0
            results = self.workload.check(self.inputs, outputs)
        except Exception:  # noqa: BLE001 - an unexpected raise fails the whole pass
            traceback.print_exc()
            results = [["raised"]] * len(self.workload.ops)
        else:
            self.walls.append(wall)
            self.op_walls.append(outputs["op_s"])
            self.iterations.append(self.workload.iterations(outputs))
        self.attempted += len(results)
        for op, fails in zip(self.workload.ops, results):
            if fails:
                self.failed += 1
                print(f"FAILED {self.workload.name} pass {self.passes} {op}: {fails}", file=sys.stderr)
        shutil.rmtree(outdir)

    def until(self, deadline, run=None, between=None):
        """At least one pass, then passes until the next would end after
        ``deadline``; ``between`` runs after each pass."""
        while True:
            start = time.perf_counter()
            self.one_pass(run)
            if between is not None:
                between()
            if 2 * time.perf_counter() - start > deadline:
                return


def _best_pass(loop):
    """Each operation's fastest time in the run, summed over a pass.

    On a shared host whose speed swings by tens of percent for seconds to
    a minute at a time, this moved 4-5% between runs where the median pass
    moved 13-30% (README)."""
    return sum(min(times) for times in zip(*loop.op_walls)) if loop.op_walls else float("nan")


def _timed(loop, args, workdir):
    start = time.perf_counter()
    probes = SetupProbes(args, workdir, start, args.seconds)
    probes.run_due()
    loop.until(start + args.seconds, between=probes.run_due)
    return {
        "setup_s": probes.medians()["setup_s"],
        "wall_s": _best_pass(loop),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(loop, args, workdir):
    """Untraced passes for half the time, then traced ones, then one more
    traced pass that only measures the kernels' allocation peak."""
    import tracing

    setup = SetupProbes(args, workdir, 0.0, 0.0).medians()
    start = time.perf_counter()
    loop.until(start + args.seconds / 2)
    untraced = min(loop.walls)
    per_pass = []
    tracer = None

    def traced_run(inputs, outdir, alloc=False):
        nonlocal tracer
        tracer = tracing.Tracer(alloc=alloc)
        with tracer.installed():
            with tracer.root("setup"):
                traced_inputs = loop.workload.build(args.seed, args.size, workdir / f"build{loop.passes}")
            with tracer.root("pass"):
                outputs = loop.workload.run(traced_inputs, outdir)
        per_pass.append(tracing.per_layer_metrics(tracer.spans))
        return outputs

    loop.until(start + args.seconds, traced_run)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "run_id", "counts", "alloc"],
                   "spans": tracer.spans}, fh)
    loop.one_pass(lambda inputs, outdir: traced_run(inputs, outdir, alloc=True))
    alloc_metrics, _ = per_pass.pop()
    metrics = {
        name: statistics.median(m[name] for m, _ in per_pass) for name in per_pass[0][0]
    }
    metrics["kernels.peak_alloc_mb"] = alloc_metrics["kernels.peak_alloc_mb"]
    metrics["trace.overhead_frac"] = min(w for _, w in per_pass) / untraced - 1.0
    metrics["setup.import_s"] = setup["import_s"]
    return metrics


def _units(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def _check_split(name, metrics):
    """The per-layer split the benchmark's README predicts, checked."""
    k = metrics["kernels.self_frac"]
    if name == "certify_5d":
        return [("kernels.self_frac >= 0.90", k >= 0.90, k)]
    if name == "solve_rotation_20d":
        share = sum(metrics[f"{layer}.self_frac"] for layer in ("serialize", "solve", "mappings"))
        return [
            ("kernels.pairs == 0", metrics["kernels.pairs"] == 0, metrics["kernels.pairs"]),
            ("serialize+solve+mappings self_frac > 0.5", share > 0.5, share),
        ]
    return []


def run_one(args):
    if not (SRC / "enrichedfp" / "__init__.py").is_file():
        print(f"error: no enrichedfp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import enrichedfp

    if Path(enrichedfp.__file__).resolve().parent != SRC / "enrichedfp":
        print(f"error: imported enrichedfp from {enrichedfp.__file__}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    units = _units(args)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        print("env " + json.dumps(_environment(enrichedfp), sort_keys=True))
        inputs = workload.build(args.seed, args.size, workdir / "inputs")
        loop = Loop(workload, inputs, workdir)
        if args.trace:
            metrics = _traced(loop, args, workdir)
        else:
            metrics = _timed(loop, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = sorted(loop.walls)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace} "
          f"passes {loop.passes}, pass walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
    if loop.op_walls:
        print(f"  fastest pass {walls[0]:.4f} s, median pass {statistics.median(walls):.4f} s, "
              f"sum of fastest operations {_best_pass(loop):.4f} s")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {units.get(name, '')}")
    its = loop.iterations[0] if loop.iterations else None
    print(f"  {'iterations':<34} {its if its is not None else 'n/a':>14} count (per pass)")
    print(f"  {'fail_frac':<34} {loop.failed / max(loop.attempted, 1):>14.6g} "
          f"failed/attempted ({loop.failed}/{loop.attempted})")
    if args.trace:
        for claim, holds, value in _check_split(args.workload, metrics):
            print(f"  split {claim}: {'holds' if holds else 'CONTRADICTED'} ({value:.4g})")
    result = {
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None):
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
