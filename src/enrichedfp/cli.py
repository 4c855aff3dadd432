"""Configuration-driven command line entry point.

Commands
--------
certify   estimate displacement-sum and max-displacement constants for a
          mapping over a sampled box, write certificate.json
solve     run the averaged iteration on a mapping, write trace.csv
sfp       solve a split feasibility instance
vip       solve a variational inequality instance
demo      end-to-end walkthrough on the 1-D reflection map, including the
          non-convergent plain-iteration comparison
bench     sweep the averaging factor and record iterations-to-tolerance

Exit codes: 0 success, 1 bad configuration/input, 2 iteration cap reached,
3 divergence, 4 certification infeasible (including refused auto lambda),
5 split-feasibility instance flagged infeasible, 6 inequality residual
check failed. All randomness flows from the single --seed value, and
rerunning an identical configuration reproduces output files byte for byte
(the summary isolates its timestamp in a dedicated field).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import apps, certify, convex, serialize, solve
from .exceptions import AutoLambdaError, ConfigError, EnrichedFPError
from .mappings import Mapping, Reflection1D

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_DIVERGED = 3
EXIT_CERT_INFEASIBLE = 4
EXIT_SFP_INFEASIBLE = 5
EXIT_VI_RESIDUAL = 6

_STATUS_EXIT = {
    solve.STATUS_CONVERGED: EXIT_OK,
    solve.STATUS_MAX_ITER: EXIT_MAX_ITER,
    solve.STATUS_DIVERGED: EXIT_DIVERGED,
}

DEMO_K_GRID = (0.0, 0.25, 0.5, 0.75)
BENCH_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated floats, got '{text}'") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enrichedfp",
        description="fixed-point toolkit: certify contraction constants, run "
        "averaged iteration, solve split-feasibility and variational-"
        "inequality instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("certify", "solve", "sfp", "vip", "demo", "bench"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON run configuration")
        cmd.add_argument("--input", help="mapping/instance JSON (overrides config input_path)")
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--seed", type=int, help="seed for all randomized sampling")
        cmd.add_argument("--tol", type=float, help="stopping tolerance")
        cmd.add_argument("--max-iter", type=int, dest="max_iter")
        cmd.add_argument("--lambda", dest="lam", help="averaging factor in (0,1] or 'auto'")
        cmd.add_argument("--x0", help="start point, comma-separated")
        cmd.add_argument("--gamma", help="projection step length or 'auto'")
        cmd.add_argument("--k-grid", dest="k_grid", help="enrichment grid, comma-separated")
        cmd.add_argument("--stop-rule", dest="stop_rule", choices=[solve.STOP_AUTO, solve.STOP_APOSTERIORI, solve.STOP_STEP_NORM])
        cmd.add_argument("--lambdas", help="bench sweep values, comma-separated")
    return parser


class _Settings:
    """Flag > config-file > default resolution for one run."""

    def __init__(self, args):
        self.args = args
        self.config = serialize.load_json(args.config) if args.config else {}
        if not isinstance(self.config, dict):
            raise ConfigError(f"{args.config}: top level must be an object")

    def get(self, flag_name, config_path, default=None):
        value = getattr(self.args, flag_name, None)
        return self.config_value(config_path, default) if value is None else value

    def config_value(self, config_path, default=None):
        """Value at a dotted config path, or ``default`` when it is absent."""
        node = self.config
        for part in config_path.split("."):
            if not isinstance(node, dict) or part not in node:
                return default
            node = node[part]
        return node

    @property
    def out_dir(self) -> Path:
        out = Path(self.get("out", "output_dir", "out"))
        out.mkdir(parents=True, exist_ok=True)
        return out

    @property
    def seed(self) -> int:
        return int(self.get("seed", "sample.seed", 0))

    @property
    def tol(self) -> float:
        return float(self.get("tol", "solver.tol", 1e-10))

    @property
    def max_iter(self) -> int:
        return int(self.get("max_iter", "solver.max_iter", 1000))

    def lam_or(self, default):
        """Averaging factor: flag/config when given, else the command default."""
        value = self.get("lam", "solver.lambda", default)
        if isinstance(value, str) and value != solve.AUTO:
            value = float(value)
        return value

    @property
    def stop_rule(self) -> str:
        return self.get("stop_rule", "solver.stop_rule", solve.STOP_AUTO)

    @property
    def rate(self):
        value = self.config_value("solver.rate")
        return None if value is None else float(value)

    @property
    def k_grid(self) -> tuple:
        value = self.get("k_grid", "k_grid", None)
        if value is None:
            return certify.DEFAULT_K_GRID
        if isinstance(value, str):
            value = _parse_floats(value)
        return tuple(float(v) for v in value)

    @property
    def grid_points(self) -> int:
        return int(self.config_value("sample.grid_points", 101))

    @property
    def random_points(self) -> int:
        return int(self.config_value("sample.random_points", 100))

    @property
    def bounds(self):
        return self.config_value("sample.bounds")

    @property
    def x0(self):
        value = self.get("x0", "x0", None)
        if isinstance(value, str):
            value = _parse_floats(value)
        return value

    def input_payload(self, kind: str) -> dict:
        path = self.get("input", "input_path", None)
        if path is None:
            inline = self.config.get(kind)
            if inline is None:
                raise ConfigError(
                    f"no input: pass --input or set input_path/{kind} in the config"
                )
            return inline
        return serialize.load_json(path)


def _mapping_bounds(settings: _Settings, mapping: Mapping):
    bounds = settings.bounds
    if bounds is not None:
        return [(float(lo), float(hi)) for lo, hi in bounds]
    if mapping.domain is not None:
        lo, hi = mapping.domain
        return list(zip(lo.tolist(), hi.tolist()))
    raise ConfigError(
        "mapping has an unbounded domain; set sample.bounds in the config"
    )


def _sample_for(settings: _Settings, mapping: Mapping) -> certify.SampleSet:
    return certify.default_sample(
        _mapping_bounds(settings, mapping),
        grid_points=settings.grid_points,
        random_points=settings.random_points,
        seed=settings.seed,
    )


def _default_x0(settings: _Settings, dim: int, mapping: Mapping | None = None) -> np.ndarray:
    value = settings.x0
    if value is not None:
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != (dim,):
            raise ConfigError(f"x0 has dim {arr.shape}, expected ({dim},)")
        return arr
    if mapping is not None and mapping.domain is not None:
        lo, hi = mapping.domain
        return (lo + hi) / 2.0
    return np.zeros(dim)


def _write_summary(settings: _Settings, payload: dict) -> None:
    payload = dict(payload)
    payload["timestamp"] = time.time()
    serialize.write_json(settings.out_dir / "summary.json", payload)


def cmd_certify(settings: _Settings) -> int:
    mapping = serialize.mapping_from_dict(settings.input_payload("mapping"))
    sample = _sample_for(settings, mapping)
    kannan = certify.estimate_kannan_constants(mapping, sample, settings.k_grid)
    bianchini = certify.estimate_bianchini_constants(mapping, sample, settings.k_grid)
    serialize.write_json(
        settings.out_dir / "certificate.json",
        {
            "kannan": serialize.certificate_to_dict(kannan),
            "bianchini": serialize.certificate_to_dict(bianchini),
        },
    )
    _write_summary(
        settings,
        {
            "command": "certify",
            "seed": settings.seed,
            "sample": sample.description,
            "kannan_feasible": kannan.feasible,
            "kannan_k": kannan.k,
            "kannan_rate": serialize._finite_or_none(kannan.rate),
            "bianchini_feasible": bianchini.feasible,
            "bianchini_k": bianchini.k,
            "bianchini_rate": serialize._finite_or_none(bianchini.rate),
        },
    )
    print(f"displacement-sum estimate: {kannan}")
    print(f"max-displacement estimate: {bianchini}")
    return EXIT_OK if (kannan.feasible or bianchini.feasible) else EXIT_CERT_INFEASIBLE


def _solve_config(settings: _Settings, default_lam, estimators, auto_target):
    """Solver settings for one run; an 'auto' averaging factor certifies first.

    ``auto_target()`` returns the ``(mapping, sample)`` pair to certify, and
    is called only when lambda is 'auto'. ``solve.certify_for_auto`` tries
    ``estimators`` in order; ``krasnoselskij`` then derives lambda and rate
    from the certificate.
    """
    lam = settings.lam_or(default_lam)
    cert = None
    if lam == solve.AUTO:
        mapping, sample = auto_target()
        cert = solve.certify_for_auto(mapping, sample, settings.k_grid, estimators)
    return solve.SolveConfig(
        lam=lam,
        tol=settings.tol,
        max_iter=settings.max_iter,
        stop_rule=settings.stop_rule,
        rate=settings.rate,
        certificate=cert,
    )


def _c_sample(settings: _Settings, c_set: convex.ConvexSet) -> certify.SampleSet:
    """The 200 seeded points in C that auto lambda certifies sfp and vip on."""
    sample = certify.distinct_sample(
        convex.sample_points(c_set, 200, settings.seed),
        f"200 seeded pts in C (seed {settings.seed})",
        settings.seed,
    )
    if sample is None:
        raise AutoLambdaError("auto lambda refused: C collapses to a single point")
    return sample


def cmd_solve(settings: _Settings) -> int:
    mapping = serialize.mapping_from_dict(settings.input_payload("mapping"))
    cfg = _solve_config(
        settings,
        solve.AUTO,
        (certify.estimate_kannan_constants, certify.estimate_bianchini_constants),
        lambda: (mapping, _sample_for(settings, mapping)),
    )
    cert = cfg.certificate
    x0 = _default_x0(settings, mapping.dim, mapping)
    trace = solve.krasnoselskij(mapping, x0, cfg)
    serialize.write_trace_csv(trace, settings.out_dir / "trace.csv")
    if cert is not None:
        serialize.write_json(
            settings.out_dir / "certificate.json", serialize.certificate_to_dict(cert)
        )
    _write_summary(
        settings,
        {
            "command": "solve",
            "seed": settings.seed,
            **serialize.trace_summary(trace),
            "certificate": None if cert is None else serialize.certificate_to_dict(cert),
        },
    )
    print(
        f"status={trace.status} iterations={trace.iterations} "
        f"final={trace.final.tolist()}"
    )
    return _STATUS_EXIT[trace.status]


def cmd_sfp(settings: _Settings) -> int:
    instance = serialize.sfp_instance_from_dict(settings.input_payload("instance"))
    if settings.args.gamma is not None:
        gamma = settings.args.gamma if settings.args.gamma == "auto" else float(settings.args.gamma)
        instance = apps.SfpInstance(
            c_set=instance.c_set, q_set=instance.q_set, matrix=instance.matrix, gamma=gamma
        )
    cfg = _solve_config(
        settings,
        0.5,
        (certify.estimate_kannan_constants, certify.estimate_bianchini_constants),
        lambda: (apps.sfp_operator(instance), _c_sample(settings, instance.c_set)),
    )
    x0 = _default_x0(settings, instance.c_set.dim)
    result = apps.solve_sfp(instance, cfg, x0, cert_seed=settings.seed, k_grid=settings.k_grid)
    serialize.write_trace_csv(result.trace, settings.out_dir / "trace.csv")
    if result.certificate is not None:
        serialize.write_json(
            settings.out_dir / "certificate.json",
            serialize.certificate_to_dict(result.certificate),
        )
    _write_summary(
        settings,
        {
            "command": "sfp",
            "seed": settings.seed,
            **serialize.trace_summary(result.trace),
            "residual_c": result.residual_c,
            "residual_q": result.residual_q,
            "feasible": result.feasible,
            "gamma": result.gamma,
            "rho": result.rho,
            "certificate_note": result.certificate_note,
        },
    )
    print(
        f"status={result.trace.status} point={result.point.tolist()} "
        f"residuals=({result.residual_c:.3e}, {result.residual_q:.3e}) "
        f"feasible={result.feasible} [{result.certificate_note}]"
    )
    if result.trace.status != solve.STATUS_CONVERGED:
        return _STATUS_EXIT[result.trace.status]
    return EXIT_OK if result.feasible else EXIT_SFP_INFEASIBLE


def cmd_vip(settings: _Settings) -> int:
    instance = serialize.vip_instance_from_dict(settings.input_payload("instance"))
    cfg = _solve_config(
        settings,
        1.0,
        (certify.estimate_bianchini_constants, certify.estimate_kannan_constants),
        lambda: (apps.vip_operator(instance), _c_sample(settings, instance.c_set)),
    )
    x0 = _default_x0(settings, instance.c_set.dim)
    result = apps.solve_vip(instance, cfg, x0, seed=settings.seed, k_grid=settings.k_grid)
    serialize.write_trace_csv(result.trace, settings.out_dir / "trace.csv")
    payload = {
        "command": "vip",
        "seed": settings.seed,
        **serialize.trace_summary(result.trace),
        "vi_residual": result.vi_residual,
        "vi_ok": result.vi_ok,
        "gamma": result.gamma,
        "certificate_note": result.certificate_note,
        "monotone_satisfied": None
        if result.monotone_certificate is None
        else result.monotone_certificate.satisfied,
    }
    if result.certificate is not None:
        serialize.write_json(
            settings.out_dir / "certificate.json",
            serialize.certificate_to_dict(result.certificate),
        )
    _write_summary(settings, payload)
    print(
        f"status={result.trace.status} point={result.point.tolist()} "
        f"vi_residual={result.vi_residual:.3e} vi_ok={result.vi_ok} "
        f"[{result.certificate_note}]"
    )
    if result.trace.status != solve.STATUS_CONVERGED:
        return _STATUS_EXIT[result.trace.status]
    return EXIT_OK if result.vi_ok else EXIT_VI_RESIDUAL


def cmd_demo(settings: _Settings) -> int:
    """Reflection-map walkthrough: certify, auto-average, bound check, and
    the plain-iteration comparison that motivates averaging.
    """
    mapping = Reflection1D()
    sample = certify.default_sample(
        [(0.0, 1.0)],
        grid_points=settings.grid_points,
        random_points=settings.random_points,
        seed=settings.seed,
    )

    per_k = {}
    for k in DEMO_K_GRID:
        cert_k = certify.estimate_kannan_constants(mapping, sample, (k,))
        per_k[k] = cert_k
        flag = "feasible" if cert_k.feasible else "infeasible"
        print(f"k={k:4.2f}: minimal displacement-sum rate {cert_k.rate:.6f} ({flag})")

    paper_pair = certify.check_enriched_kannan(mapping, k=0.5, a=0.25, sample=sample)
    print(f"pinned constants: {paper_pair}")
    dual_a = 0.25
    dual_small = certify.check_enriched_bianchini(mapping, 1.0 - 2.0 * dual_a, 2.0 * dual_a, sample)
    dual_large = certify.check_enriched_bianchini(mapping, 2.0 * (1.0 - dual_a), 2.0 * dual_a, sample)
    print(f"max-displacement, k=1-2a: {dual_small}")
    print(f"max-displacement, k=2(1-a): {dual_large}")

    lam = solve.auto_lambda(paper_pair.k)
    rate = solve.contraction_rate_kannan(paper_pair.rate)
    cfg = solve.SolveConfig(lam=lam, tol=settings.tol, max_iter=settings.max_iter, rate=rate)
    averaged_trace = solve.krasnoselskij(mapping, [0.0], cfg)

    ref_cfg = solve.SolveConfig(lam=lam, tol=1e-13, max_iter=10 * settings.max_iter, rate=rate)
    reference = solve.krasnoselskij(mapping, [0.0], ref_cfg).final
    worst_excess = -np.inf
    for n in range(1, averaged_trace.iterations + 1):
        err = float(np.linalg.norm(averaged_trace.iterates[n] - reference))
        worst_excess = max(
            worst_excess,
            err - averaged_trace.apriori[n - 1],
            err - averaged_trace.aposteriori[n - 1],
        )

    picard_cfg = solve.SolveConfig(
        lam=1.0, tol=settings.tol, max_iter=100, stop_rule=solve.STOP_STEP_NORM
    )
    picard_trace = solve.krasnoselskij(mapping, [0.0], picard_cfg)
    orbit = sorted({float(p[0]) for p in picard_trace.iterates})

    print(
        f"averaged lam={lam:.6f}: {averaged_trace.status} in "
        f"{averaged_trace.iterations} iterations, final={averaged_trace.final[0]!r}, "
        f"worst bound excess={worst_excess:.3e}"
    )
    print(
        f"plain lam=1: {picard_trace.status} after {picard_trace.iterations} "
        f"iterations, orbit values={orbit}"
    )

    serialize.write_trace_csv(averaged_trace, settings.out_dir / "trace.csv")
    serialize.write_trace_csv(picard_trace, settings.out_dir / "trace_picard.csv")
    serialize.write_json(
        settings.out_dir / "certificate.json", serialize.certificate_to_dict(paper_pair)
    )
    _write_summary(
        settings,
        {
            "command": "demo",
            "seed": settings.seed,
            "estimates_per_k": {
                str(k): serialize._finite_or_none(c.rate) for k, c in per_k.items()
            },
            "pinned_check_max_violation": paper_pair.max_violation,
            "dual_max_displacement": {
                "k_small": dual_small.max_violation,
                "k_large": dual_large.max_violation,
            },
            "averaged": serialize.trace_summary(averaged_trace),
            "worst_bound_excess": worst_excess,
            "picard": serialize.trace_summary(picard_trace),
            "picard_orbit": orbit,
        },
    )

    demo_ok = (
        paper_pair.satisfied
        and averaged_trace.converged
        and averaged_trace.iterations <= 25
        and picard_trace.status == solve.STATUS_MAX_ITER
        and orbit == [0.0, 1.0]
    )
    return EXIT_OK if demo_ok else EXIT_CONFIG_ERROR


def cmd_bench(settings: _Settings) -> int:
    """Sweep the averaging factor; count iterations until the true error
    (against a reference fixed point) drops to tol.
    """
    mapping = serialize.mapping_from_dict(settings.input_payload("mapping"))
    lambdas = settings.get("lambdas", "lambdas", None)
    if lambdas is None:
        lambdas = BENCH_LAMBDAS
    elif isinstance(lambdas, str):
        lambdas = _parse_floats(lambdas)
    lambdas = sorted(float(v) for v in lambdas)
    if any(not (0.0 < v <= 1.0) for v in lambdas):
        raise ConfigError(f"sweep values must lie in (0, 1]: {lambdas}")

    x0 = _default_x0(settings, mapping.dim, mapping)
    fixed_point = settings.config_value("fixed_point")
    if fixed_point is not None:
        reference = np.asarray(fixed_point, dtype=np.float64)
    else:
        ref_settings_lam = settings.config_value("reference_lambda", solve.AUTO)
        ref_cfg = solve.SolveConfig(
            lam=ref_settings_lam if ref_settings_lam == solve.AUTO else float(ref_settings_lam),
            tol=1e-13,
            max_iter=max(100000, settings.max_iter),
        )
        reference = solve.krasnoselskij(mapping, x0, ref_cfg).final

    rows = []
    for lam in lambdas:
        iterations, converged = _iterations_to_tol(
            mapping, x0, lam, reference, settings.tol, settings.max_iter
        )
        rows.append((lam, iterations, converged))

    bench_path = settings.out_dir / "bench.csv"
    with open(bench_path, "w") as fh:
        fh.write("lambda,iterations,converged\n")
        for lam, iterations, converged in rows:
            fh.write(f"{lam:.17g},{iterations},{int(converged)}\n")

    convergent = [(it, lam) for lam, it, ok in rows if ok]
    fastest = min(convergent)[1] if convergent else None
    _write_summary(
        settings,
        {
            "command": "bench",
            "seed": settings.seed,
            "tol": settings.tol,
            "reference_point": reference.tolist(),
            "fastest_lambda": fastest,
            "non_convergent": [lam for lam, _, ok in rows if not ok],
        },
    )
    for lam, iterations, converged in rows:
        marker = "" if converged else "  [did not converge]"
        print(f"lambda={lam:4.2f}: {iterations} iterations{marker}")
    return EXIT_OK


def _iterations_to_tol(mapping, x0, lam, reference, tol, max_iter):
    x = np.asarray(x0, dtype=np.float64)
    if float(np.linalg.norm(x - reference)) <= tol:
        return 0, True
    for n in range(1, max_iter + 1):
        x = (1.0 - lam) * x + lam * mapping.apply(x)
        if float(np.linalg.norm(x - reference)) <= tol:
            return n, True
    return max_iter, False


_HANDLERS = {
    "certify": cmd_certify,
    "solve": cmd_solve,
    "sfp": cmd_sfp,
    "vip": cmd_vip,
    "demo": cmd_demo,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        settings = _Settings(args)
        return _HANDLERS[args.command](settings)
    except AutoLambdaError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CERT_INFEASIBLE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except EnrichedFPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
