"""Configuration-driven command line entry point.

Usage::

    enrichedfp <command> [--config cfg.json] [--input obj.json] [--out DIR]
               [--seed N] [--tol F] [--max-iter N] [--lambda F|auto]
               [--x0 F,F,...] [--gamma F|auto] [--k-grid F,F,...]
               [--stop-rule auto|aposteriori_bound|step_norm]
               [--lambdas F,F,...]

Commands (each takes --config, --out and --seed, plus the flags listed)
-----------------------------------------------------------------------
certify   --input --k-grid
          estimate displacement-sum and max-displacement constants for a
          mapping over a sampled box, write certificate.json
solve     --input --tol --max-iter --lambda --x0 --k-grid --stop-rule
          run the averaged iteration on a mapping, write trace.csv
sfp       the solve flags and --gamma
          solve a split feasibility instance
vip       the solve flags
          solve a variational inequality instance
demo      --tol --max-iter
          end-to-end walkthrough on the 1-D reflection map, including the
          non-convergent plain-iteration comparison
bench     --input --tol --max-iter --x0 --lambdas
          sweep the averaging factor and record iterations-to-tolerance

Flags override config keys (input_path, output_dir, x0, solver.{lambda,
tol,max_iter,stop_rule,rate}, sample.{grid_points,random_points,seed,
bounds}, k_grid, lambdas, fixed_point, reference_lambda). A flag or config
value that does not convert, and an unknown, abbreviated or untaken flag,
is a configuration error naming the flag or the dotted config path.

Exit codes: 0 success, 1 bad configuration/input, 2 iteration cap reached,
3 divergence, 4 certification infeasible (including refused auto lambda),
5 split-feasibility instance flagged infeasible, 6 inequality residual
check failed. All randomness flows from the single --seed value (a
non-negative integer), and rerunning an identical configuration reproduces
output files byte for byte (the summary isolates its timestamp in a
dedicated field).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import apps, certify, serialize, solve
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
    solve.STATUS_MAX_ITER: EXIT_MAX_ITER,
    solve.STATUS_DIVERGED: EXIT_DIVERGED,
}

DEMO_K_GRID = (0.0, 0.25, 0.5, 0.75)
BENCH_LAMBDAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

_FLAGS = {
    "--config": {"help": "JSON run configuration"},
    "--input": {"help": "mapping/instance JSON (overrides config input_path)"},
    "--out": {"help": "output directory"},
    "--seed": {"help": "seed for all randomized sampling"},
    "--tol": {"help": "stopping tolerance"},
    "--max-iter": {"help": "iteration cap"},
    "--lambda": {"help": "averaging factor in (0,1] or 'auto'"},
    "--x0": {"help": "start point, comma-separated"},
    "--gamma": {"help": "projection step length or 'auto'"},
    "--k-grid": {"help": "enrichment grid, comma-separated"},
    "--stop-rule": {"help": "auto, aposteriori_bound or step_norm"},
    "--lambdas": {"help": "bench sweep values, comma-separated"},
}
_RUN_FLAGS = ("--config", "--out", "--seed")
_SOLVE_FLAGS = (
    *_RUN_FLAGS, "--input", "--tol", "--max-iter", "--lambda", "--x0", "--k-grid", "--stop-rule",
)


def _float_or_auto(value):
    return value if value == solve.AUTO else float(value)


def _floats(value) -> tuple:
    """Comma-separated text or a JSON list, as a tuple of floats."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip() != ""]
    return tuple(float(v) for v in value)


def _int(value) -> int:
    """An integer from text or a JSON number; a number with a fraction,
    which ``int`` would truncate, is refused."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    seed = _int(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {seed}")
    return seed


def _bounds(value) -> list:
    return [(float(lo), float(hi)) for lo, hi in value]


def _point(dim: int):
    """Converter to a float64 point of dimension ``dim`` (text or list)."""

    def convert(value) -> np.ndarray:
        arr = np.asarray(_floats(value), dtype=np.float64)
        if arr.shape != (dim,):
            raise ValueError(f"has dim {arr.shape}, expected ({dim},)")
        return arr

    return convert


def _holds_bool(value) -> bool:
    """Whether a JSON value is ``true`` or ``false``, or an array holding one."""
    if isinstance(value, bool):
        return True
    return isinstance(value, list) and any(_holds_bool(item) for item in value)


def _stop_rule(value) -> str:
    rules = (solve.STOP_AUTO, solve.STOP_APOSTERIORI, solve.STOP_STEP_NORM)
    if value not in rules:
        raise ValueError(f"unknown stop rule {value!r}, expected one of {', '.join(rules)}")
    return value


class _Settings:
    """Flag > config-file > default resolution for one run."""

    def __init__(self, args):
        self.args = args
        self.config = serialize.load_json(args.config) if args.config else {}
        if not isinstance(self.config, dict):
            raise ConfigError(f"{args.config}: top level must be an object")
        # every command records the seed, so a bad one is refused before any work
        self.seed = self.get("--seed", "sample.seed", 0, _seed)

    def get(self, flag, config_path, default=None, convert=None):
        """The value of ``flag``, else of the dotted ``config_path``, else
        ``default`` (returned as is); either source may be None.

        ``convert`` turns a given value into its type. A value it rejects,
        and a JSON boolean anywhere in the value (no setting is one, and
        ``float`` and ``int`` would read ``true`` as 1), raises
        ``ConfigError`` naming the flag or the config path.
        """
        source, value = flag, None
        if flag is not None:
            value = getattr(self.args, flag[2:].replace("-", "_"), None)
        if value is None and config_path is not None:
            source, value = config_path, self.config
            for part in config_path.split("."):
                if not isinstance(value, dict) or part not in value:
                    value = None
                    break
                value = value[part]
        if value is None:
            return default
        if convert is None:
            return value
        if _holds_bool(value):
            raise ConfigError(f"{source}: expected no boolean, got {value!r}")
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: {exc}") from exc

    @property
    def out_dir(self) -> Path:
        out = self.get("--out", "output_dir", Path("out"), Path)
        out.mkdir(parents=True, exist_ok=True)
        return out

    @property
    def tol(self) -> float:
        return self.get("--tol", "solver.tol", 1e-10, float)

    @property
    def max_iter(self) -> int:
        return self.get("--max-iter", "solver.max_iter", 1000, _int)

    @property
    def k_grid(self) -> tuple:
        return self.get("--k-grid", "k_grid", certify.DEFAULT_K_GRID, _floats)

    def input_payload(self, kind: str) -> dict:
        path = self.get("--input", "input_path")
        if path is not None:
            return serialize.load_json(path)
        inline = self.get(None, kind)
        if inline is None:
            raise ConfigError(f"no input: pass --input or set input_path/{kind} in the config")
        return inline


def _mapping_bounds(settings: _Settings, mapping: Mapping):
    bounds = settings.get(None, "sample.bounds", None, _bounds)
    if bounds is not None:
        return bounds
    if mapping.domain is not None:
        lo, hi = mapping.domain
        return list(zip(lo.tolist(), hi.tolist()))
    raise ConfigError(
        "mapping has an unbounded domain; set sample.bounds in the config"
    )


def _box_sample(settings: _Settings, bounds) -> certify.SampleSet:
    return certify.default_sample(
        bounds,
        grid_points=settings.get(None, "sample.grid_points", 101, _int),
        random_points=settings.get(None, "sample.random_points", 100, _int),
        seed=settings.seed,
    )


def _default_x0(settings: _Settings, dim: int, mapping: Mapping | None = None) -> np.ndarray:
    value = settings.get("--x0", "x0", None, _point(dim))
    if value is not None:
        return value
    if mapping is not None and mapping.domain is not None:
        lo, hi = mapping.domain
        return (lo + hi) / 2.0
    return np.zeros(dim)


def _write_summary(settings: _Settings, command: str, payload: dict) -> None:
    serialize.write_json(
        settings.out_dir / "summary.json",
        {"command": command, "seed": settings.seed, **payload, "timestamp": time.time()},
    )


def _solve_config(settings: _Settings, default_lam, auto_certificate=None):
    """Solver settings for solve, sfp and vip.

    With lambda 'auto', ``auto_certificate()`` (when given) supplies the
    certificate ``krasnoselskij`` derives lambda and rate from; sfp and vip
    pass none, and ``apps.solve_sfp``/``solve_vip`` certify on C.
    """
    lam = settings.get("--lambda", "solver.lambda", default_lam, _float_or_auto)
    cert = auto_certificate() if lam == solve.AUTO and auto_certificate else None
    return solve.SolveConfig(
        lam=lam,
        tol=settings.tol,
        max_iter=settings.max_iter,
        stop_rule=settings.get("--stop-rule", "solver.stop_rule", solve.STOP_AUTO, _stop_rule),
        rate=settings.get(None, "solver.rate", None, float),
        certificate=cert,
    )


def _report(settings, command, trace, certificate, fields, detail, check_exit=EXIT_OK) -> int:
    """Write trace.csv, certificate.json (if any) and summary.json (the trace
    summary plus ``fields``) for solve, sfp and vip; print the status line,
    which ends in the orbit audit when the trace has a rate.

    Returns the code of an unconverged trace's status, else ``check_exit``,
    the verdict of the command's own check.
    """
    serialize.write_trace_csv(trace, settings.out_dir / "trace.csv")
    if certificate is not None:
        serialize.write_json(
            settings.out_dir / "certificate.json", serialize.certificate_to_dict(certificate)
        )
    summary = serialize.trace_summary(trace)
    _write_summary(settings, command, {**summary, **fields})
    if trace.rate is not None:  # the orbit audit: whether the run kept its rate
        for key, form in (("rate_breaks", "%d"), ("max_ratio", "%.6g"), ("required_iterations", "%d")):
            value = summary[key]
            detail += f" {key}={'null' if value is None else form % value}"
    print(f"status={trace.status} {detail}")
    return check_exit if trace.converged else _STATUS_EXIT[trace.status]


def cmd_certify(settings: _Settings) -> int:
    mapping = serialize.mapping_from_dict(settings.input_payload("mapping"))
    sample = _box_sample(settings, _mapping_bounds(settings, mapping))
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
        "certify",
        {
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


def cmd_solve(settings: _Settings) -> int:
    mapping = serialize.mapping_from_dict(settings.input_payload("mapping"))
    # a bad start point is refused before --lambda auto sweeps its sample
    x0 = _default_x0(settings, mapping.dim, mapping)
    cfg = _solve_config(
        settings,
        solve.AUTO,
        lambda: solve.certify_for_auto(
            mapping,
            _box_sample(settings, _mapping_bounds(settings, mapping)),
            settings.k_grid,
            (certify.estimate_kannan_constants, certify.estimate_bianchini_constants),
        ),
    )
    cert = cfg.certificate
    trace = solve.krasnoselskij(mapping, x0, cfg)
    return _report(
        settings,
        "solve",
        trace,
        cert,
        {"certificate": None if cert is None else serialize.certificate_to_dict(cert)},
        f"iterations={trace.iterations} final={trace.final.tolist()}",
    )


def cmd_sfp(settings: _Settings) -> int:
    instance = serialize.sfp_instance_from_dict(settings.input_payload("instance"))
    gamma = settings.get("--gamma", None, None, _float_or_auto)
    if gamma is not None:
        instance = dataclasses.replace(instance, gamma=gamma)
    cfg = _solve_config(settings, 0.5)
    x0 = _default_x0(settings, instance.c_set.dim)
    result = apps.solve_sfp(instance, cfg, x0, cert_seed=settings.seed, k_grid=settings.k_grid)
    return _report(
        settings,
        "sfp",
        result.trace,
        result.certificate,
        {
            "residual_c": result.residual_c,
            "residual_q": result.residual_q,
            "feasible": result.feasible,
            "gamma": result.gamma,
            "rho": result.rho,
            "certificate_note": result.certificate_note,
        },
        f"point={result.point.tolist()} "
        f"residuals=({result.residual_c:.3e}, {result.residual_q:.3e}) "
        f"feasible={result.feasible} [{result.certificate_note}]",
        EXIT_OK if result.feasible else EXIT_SFP_INFEASIBLE,
    )


def cmd_vip(settings: _Settings) -> int:
    instance = serialize.vip_instance_from_dict(settings.input_payload("instance"))
    cfg = _solve_config(settings, 1.0)
    x0 = _default_x0(settings, instance.c_set.dim)
    result = apps.solve_vip(instance, cfg, x0, seed=settings.seed, k_grid=settings.k_grid)
    return _report(
        settings,
        "vip",
        result.trace,
        result.certificate,
        {
            "vi_residual": result.vi_residual,
            "vi_ok": result.vi_ok,
            "gamma": result.gamma,
            "certificate_note": result.certificate_note,
            "monotone_satisfied": None
            if result.monotone_certificate is None
            else result.monotone_certificate.satisfied,
        },
        f"point={result.point.tolist()} vi_residual={result.vi_residual:.3e} "
        f"vi_ok={result.vi_ok} [{result.certificate_note}]",
        EXIT_OK if result.vi_ok else EXIT_VI_RESIDUAL,
    )


def cmd_demo(settings: _Settings) -> int:
    """Reflection-map walkthrough: certify, auto-average, bound check, and
    the plain-iteration comparison that motivates averaging.
    """
    mapping = Reflection1D()
    sample = _box_sample(settings, [(0.0, 1.0)])

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

    cfg = solve.SolveConfig(tol=settings.tol, max_iter=settings.max_iter, certificate=paper_pair)
    averaged_trace = solve.krasnoselskij(mapping, [0.0], cfg)

    ref_cfg = solve.SolveConfig(tol=1e-13, max_iter=10 * settings.max_iter, certificate=paper_pair)
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
        f"averaged lam={averaged_trace.lam:.6f}: {averaged_trace.status} in "
        f"{averaged_trace.iterations} iterations, final={float(averaged_trace.final[0])!r}, "
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
        "demo",
        {
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
    lambdas = sorted(settings.get("--lambdas", "lambdas", BENCH_LAMBDAS, _floats))
    if any(not (0.0 < v <= 1.0) for v in lambdas):
        raise ConfigError(f"sweep values must lie in (0, 1]: {lambdas}")

    x0 = _default_x0(settings, mapping.dim, mapping)
    reference = settings.get(None, "fixed_point", None, _point(mapping.dim))
    if reference is None:
        ref_cfg = solve.SolveConfig(
            lam=settings.get(None, "reference_lambda", solve.AUTO, _float_or_auto),
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
        "bench",
        {
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
    def error(x):
        # np.linalg.norm of the new, contiguous difference, bit for bit
        diff = x - reference
        return math.sqrt(diff.dot(diff))

    x = np.asarray(x0, dtype=np.float64)
    if error(x) <= tol:
        return 0, True
    for n in range(1, max_iter + 1):
        x = (1.0 - lam) * x + lam * mapping.apply(x)
        if error(x) <= tol:
            return n, True
    return max_iter, False


# each command's handler and the flags it reads; no other flag is accepted
_COMMANDS = {
    "certify": (cmd_certify, (*_RUN_FLAGS, "--input", "--k-grid")),
    "solve": (cmd_solve, _SOLVE_FLAGS),
    "sfp": (cmd_sfp, (*_SOLVE_FLAGS, "--gamma")),
    "vip": (cmd_vip, _SOLVE_FLAGS),
    "demo": (cmd_demo, (*_RUN_FLAGS, "--tol", "--max-iter")),
    "bench": (cmd_bench, (*_RUN_FLAGS, "--input", "--tol", "--max-iter", "--x0", "--lambdas")),
}


class _Parser(argparse.ArgumentParser):
    """Raises ``ConfigError`` on a parse error: argparse's own exit 2 is the
    iteration-cap code here.
    """

    def error(self, message):
        raise ConfigError(message)


def _build_parser(argv=None) -> _Parser:
    """The parser of the command ``argv`` starts with, since a run parses one.

    When ``argv`` starts with no command (help, an unknown command) every
    command is added, so that help and the error list all six, and only
    the commands named in ``argv`` get their flags; with ``argv`` None,
    every command gets them.
    """
    parser = _Parser(
        prog="enrichedfp",
        description="fixed-point toolkit: certify contraction constants, run "
        "averaged iteration, solve split-feasibility and variational-"
        "inequality instances",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = _COMMANDS.keys() if argv is None else set(argv)
    for name in [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS:
        cmd = sub.add_parser(name, allow_abbrev=False)
        if name in named:
            for flag in _COMMANDS[name][1]:
                cmd.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(argv)
        return _COMMANDS[args.command][0](_Settings(args))
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
