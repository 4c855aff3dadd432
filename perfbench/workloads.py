"""The four benchmark workloads: seeded inputs, one timed pass, and checks.

Each workload is a ``Workload`` with three steps:

* ``build(seed, size, workdir)`` makes the inputs. They are a pure function
  of ``(workload, seed, size)``; the library receives only these inputs.
* ``run(inputs, outdir)`` is one pass: the library calls a user would make,
  and nothing else. Only this step is timed, as a whole and per operation
  (``outputs["op_s"]``).
* ``check(inputs, outputs)`` returns one list of failure messages per
  operation of the pass. The checks recompute what they can in plain numpy
  from the generating matrices, so they do not trust the code under test.

``size`` is ``"full"`` for measurement and ``"small"`` for the benchmark's
own tests, which run every workload on a second seed at reduced cost.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from enrichedfp import apps, catalog, certify, cli, convex, serialize, solve
from enrichedfp.mappings import AffineMap

EPS = float(np.finfo(np.float64).eps)
# Same allowance per pair as the certifier uses: a sampled pair may exceed
# the certified rate by a few ulp of the magnitudes involved.
GUARD_EPS = 8.0 * EPS


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class OpClock:
    """Calls a function and records its wall time, one entry per operation."""

    def __init__(self):
        self.times = []

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.times.append(time.perf_counter() - t0)
        return result


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[str, ...]  # operation names, one per check result
    build: Callable
    run: Callable
    check: Callable
    iterations: Callable  # solver iterations in a pass's outputs, or None


# --- certify_5d -------------------------------------------------------------

CERT_EIGS = (-1.0, -0.9, -0.8, -0.7, -0.6)


def build_certify(seed, size, workdir):
    rng = _rng(seed, 1)
    d = len(CERT_EIGS)
    q = _orthogonal(rng, d)
    matrix = q @ np.diag(CERT_EIGS) @ q.T
    offset = rng.uniform(-0.5, 0.5, d)
    bounds = [(-1.0, 1.0)] * d
    if size == "full":
        sample = certify.default_sample(bounds, seed=seed)
    else:
        sample = certify.random_sample(bounds, 300, seed)
    return {
        "seed": seed,
        "matrix": matrix,
        "offset": offset,
        "mapping": AffineMap(matrix=matrix, offset=offset),
        "sample": sample,
    }


def run_certify(inputs, outdir):
    mapping, sample = inputs["mapping"], inputs["sample"]
    clock = OpClock()
    kannan = clock(certify.estimate_kannan_constants, mapping, sample, certify.DEFAULT_K_GRID)
    bianchini = clock(certify.estimate_bianchini_constants, mapping, sample, certify.DEFAULT_K_GRID)
    return {"kannan": kannan, "bianchini": bianchini, "op_s": clock.times}


def _pair_ratio_parts(x, tx, y, ty, k):
    num = math.sqrt(float(np.sum((k * (x - y) + (tx - ty)) ** 2)))
    dx = math.sqrt(float(np.sum((x - tx) ** 2)))
    dy = math.sqrt(float(np.sum((y - ty) ** 2)))
    return num, dx, dy


def _check_estimate(cert, inputs, combine, seed, require_enriched):
    fails = []
    points = np.asarray(inputs["sample"].points)
    images = points @ inputs["matrix"].T + inputs["offset"]
    if not cert.feasible:
        return [f"{cert.class_tag}: infeasible ({cert})"]
    if require_enriched and not cert.k > 0.0:
        fails.append(f"{cert.class_tag}: k={cert.k}, expected k > 0 (Picard fails here)")
    if not cert.max_violation <= 0.0:
        fails.append(f"{cert.class_tag}: max_violation {cert.max_violation} > 0")
    if cert.witness is None:
        return fails + [f"{cert.class_tag}: no witness pair"]
    x, y = (np.asarray(w, dtype=np.float64) for w in cert.witness)
    mat, off = inputs["matrix"], inputs["offset"]
    num, dx, dy = _pair_ratio_parts(x, mat @ x + off, y, mat @ y + off, cert.k)
    ratio = num / combine(dx, dy)
    # the recomputation sums in its own order, so allow a few ulp
    if not abs(ratio - cert.rate) <= 4.0 * EPS * max(1.0, abs(cert.rate)):
        fails.append(f"{cert.class_tag}: witness ratio {ratio!r} != rate {cert.rate!r}")
    rng = _rng(seed, 11)
    n = points.shape[0]
    i = rng.integers(0, n, 4000)
    j = rng.integers(0, n, 4000)
    keep = i != j
    i, j = i[keep], j[keep]
    num = np.sqrt(np.sum((cert.k * (points[i] - points[j]) + (images[i] - images[j])) ** 2, axis=1))
    disp = np.sqrt(np.sum((points - images) ** 2, axis=1))
    rhs = cert.rate * combine(disp[i], disp[j])
    scale = (
        num + rhs
        + np.linalg.norm(points[i], axis=1) + np.linalg.norm(points[j], axis=1)
        + np.linalg.norm(images[i], axis=1) + np.linalg.norm(images[j], axis=1)
    )
    excess = (num - rhs) - GUARD_EPS * scale
    if np.any(excess > 0.0):
        worst = int(np.argmax(excess))
        fails.append(
            f"{cert.class_tag}: sampled pair ({i[worst]}, {j[worst]}) exceeds "
            f"rate {cert.rate!r} by {excess[worst]:.3e}"
        )
    return fails


def check_certify(inputs, outputs):
    seed = inputs["seed"]
    return [
        _check_estimate(outputs["kannan"], inputs, lambda u, v: u + v, seed, True),
        _check_estimate(outputs["bianchini"], inputs, np.maximum, seed, False),
    ]


# --- solve_rotation_20d -----------------------------------------------------


def build_rotation(seed, size, workdir):
    rng = _rng(seed, 2)
    d = 20
    # the smallest angle is pinned: it alone sets the rate and the step count
    lo, tol = (0.09, 1e-10) if size == "full" else (0.5, 1e-8)
    thetas = np.concatenate([[lo], rng.uniform(lo, 1.0, d // 2 - 1)])
    blocks = np.zeros((d, d))
    for p, th in enumerate(thetas):
        c, s = math.cos(th), math.sin(th)
        blocks[2 * p : 2 * p + 2, 2 * p : 2 * p + 2] = [[c, -s], [s, c]]
    q = _orthogonal(rng, d)
    matrix = q @ blocks @ q.T
    offset = rng.uniform(-1.0, 1.0, d)
    rate = float(np.max(np.abs(0.5 + 0.5 * np.exp(1j * thetas))))
    return {
        "matrix": matrix,
        "offset": offset,
        "mapping": AffineMap(matrix=matrix, offset=offset),
        "x0": np.zeros(d),
        "cfg": solve.SolveConfig(lam=0.5, tol=tol, max_iter=10**6, rate=rate),
    }


def run_rotation(inputs, outdir):
    clock = OpClock()
    trace = clock(solve.krasnoselskij, inputs["mapping"], inputs["x0"], inputs["cfg"])
    csv_path = Path(outdir) / "trace.csv"
    json_path = Path(outdir) / "summary.json"
    clock(serialize.write_trace_csv, trace, csv_path)
    clock(lambda: serialize.write_json(json_path, serialize.trace_summary(trace)))
    return {"trace": trace, "csv": csv_path, "json": json_path, "op_s": clock.times}


def check_rotation(inputs, outputs):
    trace = outputs["trace"]
    solve_fails, csv_fails, json_fails = [], [], []
    if not trace.converged:
        solve_fails.append(f"status {trace.status} after {trace.iterations} steps")
    else:
        d = inputs["offset"].shape[0]
        fixed = np.linalg.solve(np.eye(d) - inputs["matrix"], inputs["offset"])
        err = float(np.linalg.norm(trace.final - fixed))
        bound = trace.aposteriori[-1]
        if not err <= bound:
            solve_fails.append(f"distance to fixed point {err:.3e} > a posteriori bound {bound:.3e}")
    with open(outputs["csv"], newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != trace.iterations + 1:
        csv_fails.append(f"trace.csv has {len(rows)} rows, expected {trace.iterations + 1}")
    else:
        for n, (row, point) in enumerate(zip(rows, trace.iterates)):
            try:
                same = int(row[0]) == n and np.array_equal(
                    [float(v) for v in row[1].split(";")], point
                )
            except (IndexError, ValueError):
                same = False
            if not same:
                csv_fails.append(f"trace.csv row {n} differs from iterate {n}")
                break
    with open(outputs["json"]) as fh:
        summary = json.load(fh)
    if summary.get("iterations") != trace.iterations or summary.get("status") != trace.status:
        json_fails.append(f"summary.json disagrees with the trace: {summary.get('iterations')}")
    return [solve_fails, csv_fails, json_fails]


# --- apps_30d ---------------------------------------------------------------


def build_apps(seed, size, workdir):
    rng = _rng(seed, 3)
    d, slow = (30, 0.38) if size == "full" else (8, 0.8)
    # A has a fixed spectrum whose smallest singular value is repeated d/2
    # times, so the slow phase of the solve (and with it the orbit sample
    # the certificate sweeps) has nearly the same length for every seed.
    spectrum = np.concatenate([np.full(d // 2, slow), np.linspace(0.8, 1.9, d - d // 2)])
    a = _orthogonal(rng, d) @ np.diag(spectrum) @ _orthogonal(rng, d).T
    target = rng.uniform(-0.3, 0.3, d)
    u = rng.standard_normal(d)
    box = convex.Box(lower=-np.ones(d), upper=np.ones(d))
    sfp = apps.SfpInstance(
        c_set=box, q_set=convex.Ball(center=a @ target, radius=0.2), matrix=a, gamma="auto"
    )
    b = rng.standard_normal((d, d)) / math.sqrt(d)
    g_matrix = np.eye(d) + 0.3 * (b - b.T)
    g_offset = rng.uniform(-1.5, 1.5, d)
    vip = apps.VipInstance(
        c_set=box, operator=AffineMap(matrix=g_matrix, offset=g_offset), gamma=0.2
    )
    cfg = solve.SolveConfig(lam=0.5, tol=1e-10, max_iter=10**5, stop_rule=solve.STOP_STEP_NORM)
    return {
        "seed": seed,
        "sfp": sfp,
        "sfp_x0": target + 2.5 * u / np.linalg.norm(u),
        "vip": vip,
        "vip_x0": np.zeros(d),
        "cfg": cfg,
        "a": a,
        "q_center": a @ target,
        "q_radius": 0.2,
        "g_matrix": g_matrix,
        "g_offset": g_offset,
    }


def run_apps(inputs, outdir):
    seed = inputs["seed"]
    clock = OpClock()
    sfp = clock(apps.solve_sfp, inputs["sfp"], inputs["cfg"], inputs["sfp_x0"], cert_seed=seed)
    vip = clock(apps.solve_vip, inputs["vip"], inputs["cfg"], inputs["vip_x0"], seed=seed)
    return {"sfp": sfp, "vip": vip, "op_s": clock.times}


FEAS_TOL = 1e-8


def check_apps(inputs, outputs):
    sfp, vip = outputs["sfp"], outputs["vip"]
    sfp_fails, vip_fails = [], []
    x = sfp.point
    res_c = float(np.linalg.norm(x - np.clip(x, -1.0, 1.0)))
    res_q = max(0.0, float(np.linalg.norm(inputs["a"] @ x - inputs["q_center"])) - inputs["q_radius"])
    if not (sfp.trace.converged and sfp.feasible):
        sfp_fails.append(f"sfp: status {sfp.trace.status}, feasible={sfp.feasible}")
    if not (res_c <= FEAS_TOL and res_q <= FEAS_TOL):
        sfp_fails.append(f"sfp: residuals ({res_c:.3e}, {res_q:.3e}) above {FEAS_TOL}")
    z = vip.point
    gamma = inputs["vip"].gamma
    g_at = inputs["g_matrix"] @ z + inputs["g_offset"]
    natural = float(np.linalg.norm(z - np.clip(z - gamma * g_at, -1.0, 1.0)))
    if not (vip.trace.converged and vip.vi_ok):
        vip_fails.append(f"vip: status {vip.trace.status}, vi_ok={vip.vi_ok}")
    if vip.monotone_certificate is None or not vip.monotone_certificate.satisfied:
        vip_fails.append(f"vip: monotone certificate not satisfied: {vip.monotone_certificate}")
    if not natural <= FEAS_TOL:
        vip_fails.append(f"vip: natural residual {natural:.3e} above {FEAS_TOL}")
    return [sfp_fails, vip_fails]


# --- cli_catalog ------------------------------------------------------------

CLI_OPS = (
    "demo",
    "certify reflection",
    "certify spiral_affine",
    "solve reflection",
    "solve spiral_affine",
    "sfp standard_sfp",
    "vip vip_line",
    "bench reflection",
)


def build_cli(seed, size, workdir):
    inp = Path(workdir) / "cli_inputs"
    inp.mkdir(parents=True, exist_ok=True)
    reflection = catalog.catalog_entry("reflection")
    spiral = catalog.catalog_entry("spiral_affine")
    files = {
        "reflection": inp / "reflection.json",
        "spiral_map": inp / "spiral_affine.json",
        "spiral": inp / "spiral_config.json",
        "sfp": inp / "standard_sfp.json",
        "vip": inp / "vip_line.json",
    }
    serialize.write_json(files["reflection"], serialize.mapping_to_dict(reflection.mapping))
    serialize.write_json(files["spiral_map"], serialize.mapping_to_dict(spiral.mapping))
    serialize.write_json(
        files["spiral"],
        {
            "input_path": str(files["spiral_map"]),
            "sample": {"bounds": [list(b) for b in spiral.bounds]},
            "x0": list(spiral.x0),
        },
    )
    serialize.write_json(files["sfp"], serialize.instance_to_dict(catalog.standard_sfp()))
    serialize.write_json(files["vip"], serialize.instance_to_dict(catalog.vip_line()))
    common = ["--seed", str(seed)]
    argvs = [
        ["demo"],
        ["certify", "--input", str(files["reflection"])],
        ["certify", "--config", str(files["spiral"])],
        ["solve", "--lambda", "auto", "--input", str(files["reflection"])],
        ["solve", "--lambda", "auto", "--config", str(files["spiral"])],
        ["sfp", "--lambda", "auto", "--input", str(files["sfp"])],
        ["vip", "--input", str(files["vip"])],
        ["bench", "--input", str(files["reflection"])],
    ]
    m, b = spiral.mapping.matrix, spiral.mapping.offset
    return {
        "argvs": [argv + common for argv in argvs],
        "fixed_points": {
            3: np.array([0.5]),
            4: np.linalg.solve(np.eye(2) - m, b),
        },
        "reference": {},
    }


def run_cli(inputs, outdir):
    codes = []
    sink = io.StringIO()
    clock = OpClock()
    for n, argv in enumerate(inputs["argvs"]):
        out = Path(outdir) / f"cmd{n}"
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes.append(clock(cli.main, argv + ["--out", str(out)]))
    return {"codes": codes, "outdir": Path(outdir), "op_s": clock.times}


def _snapshot(directory: Path) -> dict:
    """Every output file's bytes, with summary.json's timestamp dropped."""
    files = {}
    for path in sorted(directory.iterdir()):
        if path.name == "summary.json":
            payload = json.loads(path.read_text())
            payload.pop("timestamp", None)
            files[path.name] = json.dumps(payload, sort_keys=True)
        else:
            files[path.name] = path.read_bytes()
    return files


def _summed_iterations(node):
    if isinstance(node, dict):
        return sum(
            value if key == "iterations" else _summed_iterations(value)
            for key, value in node.items()
        )
    return 0


def cli_iterations(outputs):
    return sum(
        _summed_iterations(json.loads(path.read_text()))
        for path in outputs["outdir"].glob("cmd*/summary.json")
    )


def check_cli(inputs, outputs):
    results = []
    reference = inputs["reference"]
    for n, code in enumerate(outputs["codes"]):
        fails = []
        if code != cli.EXIT_OK:
            fails.append(f"{CLI_OPS[n]}: exit code {code}, expected {cli.EXIT_OK}")
        outdir = outputs["outdir"] / f"cmd{n}"
        snap = _snapshot(outdir) if (outdir / "summary.json").exists() else None
        if snap is None:
            fails.append(f"{CLI_OPS[n]}: no summary.json")
        elif reference.setdefault(n, snap) != snap:
            changed = sorted(k for k in snap if snap[k] != reference[n].get(k))
            fails.append(f"{CLI_OPS[n]}: outputs differ from the first pass: {changed}")
        elif n in inputs["fixed_points"]:
            summary = json.loads((outdir / "summary.json").read_text())
            final = np.asarray(summary["final_point"])
            err = float(np.linalg.norm(final - inputs["fixed_points"][n]))
            if summary["status"] != solve.STATUS_CONVERGED or not err <= 1e-8:
                fails.append(f"{CLI_OPS[n]}: {summary['status']}, {err:.3e} from the fixed point")
        results.append(fails)
    return results


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify_5d",
            ("estimate_kannan", "estimate_bianchini"),
            build_certify,
            run_certify,
            check_certify,
            lambda outputs: None,
        ),
        Workload(
            "solve_rotation_20d",
            ("krasnoselskij", "write_trace_csv", "write_json"),
            build_rotation,
            run_rotation,
            check_rotation,
            lambda outputs: outputs["trace"].iterations,
        ),
        Workload(
            "apps_30d",
            ("solve_sfp", "solve_vip"),
            build_apps,
            run_apps,
            check_apps,
            lambda outputs: outputs["sfp"].trace.iterations + outputs["vip"].trace.iterations,
        ),
        Workload(
            "cli_catalog",
            CLI_OPS,
            build_cli,
            run_cli,
            check_cli,
            cli_iterations,
        ),
    )
}
