"""JSON descriptions of mappings/sets/instances and file export helpers.

Mapping and convex-set objects round-trip through plain dicts keyed by a
``variant`` field; problem instances use a ``type`` field ("sfp"/"vip").
Matrices are row-major lists of lists. CSV trace exports print floats with
17 significant digits so values round-trip exactly; JSON files are written
with sorted keys so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import apps, convex, solve
from .certify import ContractionCertificate
from .exceptions import ConfigError, EnrichedFPError
from .mappings import (
    AffineMap,
    AveragedMap,
    Mapping,
    PiecewiseTable,
    Reflection1D,
    Scale1D,
)

FLOAT_FMT = "%.17g"


def _listify(arr) -> Any:
    return np.asarray(arr, dtype=np.float64).tolist()


def mapping_to_dict(mapping: Mapping) -> dict:
    if isinstance(mapping, Reflection1D):
        return {"variant": "reflection_1d"}
    if isinstance(mapping, Scale1D):
        out = {"variant": "scale_1d", "c": float(mapping.c)}
        if mapping.bounds is not None:
            out["domain"] = [float(mapping.bounds[0]), float(mapping.bounds[1])]
        return out
    if isinstance(mapping, AffineMap):
        return {
            "variant": "affine",
            "matrix": _listify(mapping.matrix),
            "offset": _listify(mapping.offset),
        }
    if isinstance(mapping, AveragedMap):
        return {
            "variant": "averaged",
            "inner": mapping_to_dict(mapping.inner),
            "lambda": float(mapping.lam),
        }
    if isinstance(mapping, PiecewiseTable):
        return {
            "variant": "piecewise_table",
            "breakpoints": _listify(mapping.breakpoints),
            "slopes": _listify(mapping.slopes),
            "intercepts": _listify(mapping.intercepts),
        }
    if isinstance(mapping, apps.SfpOperator):
        return {
            "variant": "sfp_operator",
            **instance_to_dict(mapping.instance),
        }
    if isinstance(mapping, apps.VipOperator):
        return {
            "variant": "vip_operator",
            **instance_to_dict(mapping.instance),
        }
    raise ConfigError(f"mapping {type(mapping).__name__} has no JSON form")


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ConfigError(f"missing field '{key}'", context=context)
    return data[key]


def _matrix(data, context: str) -> np.ndarray:
    if isinstance(data, list):
        lengths = sorted({len(r) for r in data if isinstance(r, (list, tuple))})
        if len(lengths) > 1:
            raise ConfigError(
                f"matrix rows have inconsistent lengths {lengths}", context=context
            )
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a numeric matrix: {exc}", context=context) from exc
    if arr.ndim != 2:
        raise ConfigError(
            f"expected a 2-D matrix, got shape {arr.shape}", context=context
        )
    return arr


def mapping_from_dict(data: dict, context: str = "mapping") -> Mapping:
    if not isinstance(data, dict):
        raise ConfigError("expected an object", context=context)
    variant = _require(data, "variant", context)
    try:
        if variant == "reflection_1d":
            return Reflection1D()
        if variant == "scale_1d":
            domain = data.get("domain")
            return Scale1D(
                c=float(_require(data, "c", context)),
                bounds=None if domain is None else (float(domain[0]), float(domain[1])),
            )
        if variant == "affine":
            return AffineMap(
                matrix=_matrix(_require(data, "matrix", context), f"{context}.matrix"),
                offset=np.asarray(_require(data, "offset", context), dtype=np.float64),
            )
        if variant == "averaged":
            return AveragedMap(
                inner=mapping_from_dict(_require(data, "inner", context), f"{context}.inner"),
                lam=float(_require(data, "lambda", context)),
            )
        if variant == "piecewise_table":
            return PiecewiseTable(
                breakpoints=np.asarray(_require(data, "breakpoints", context), dtype=np.float64),
                slopes=np.asarray(_require(data, "slopes", context), dtype=np.float64),
                intercepts=np.asarray(_require(data, "intercepts", context), dtype=np.float64),
            )
        if variant == "sfp_operator":
            return apps.sfp_operator(sfp_instance_from_dict(data, context))
        if variant == "vip_operator":
            return apps.vip_operator(vip_instance_from_dict(data, context))
    except ConfigError:
        raise
    except (EnrichedFPError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), context=context) from exc
    raise ConfigError(f"unknown mapping variant '{variant}'", context=context)


def convex_to_dict(convex_set: convex.ConvexSet) -> dict:
    if isinstance(convex_set, convex.Box):
        return {
            "variant": "box",
            "lower": _listify(convex_set.lower),
            "upper": _listify(convex_set.upper),
        }
    if isinstance(convex_set, convex.Ball):
        return {
            "variant": "ball",
            "center": _listify(convex_set.center),
            "radius": float(convex_set.radius),
        }
    if isinstance(convex_set, convex.Halfspace):
        return {
            "variant": "halfspace",
            "normal": _listify(convex_set.normal),
            "offset": float(convex_set.offset),
        }
    if isinstance(convex_set, convex.Hyperplane):
        return {
            "variant": "hyperplane",
            "normal": _listify(convex_set.normal),
            "offset": float(convex_set.offset),
        }
    raise ConfigError(f"convex set {type(convex_set).__name__} has no JSON form")


def convex_from_dict(data: dict, context: str = "set") -> convex.ConvexSet:
    if not isinstance(data, dict):
        raise ConfigError("expected an object", context=context)
    variant = _require(data, "variant", context)
    try:
        if variant == "box":
            return convex.Box(
                lower=np.asarray(_require(data, "lower", context), dtype=np.float64),
                upper=np.asarray(_require(data, "upper", context), dtype=np.float64),
            )
        if variant == "ball":
            return convex.Ball(
                center=np.asarray(_require(data, "center", context), dtype=np.float64),
                radius=float(_require(data, "radius", context)),
            )
        if variant == "halfspace":
            return convex.Halfspace(
                normal=np.asarray(_require(data, "normal", context), dtype=np.float64),
                offset=float(_require(data, "offset", context)),
            )
        if variant == "hyperplane":
            return convex.Hyperplane(
                normal=np.asarray(_require(data, "normal", context), dtype=np.float64),
                offset=float(_require(data, "offset", context)),
            )
    except ConfigError:
        raise
    except (EnrichedFPError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), context=context) from exc
    raise ConfigError(f"unknown set variant '{variant}'", context=context)


def instance_to_dict(instance) -> dict:
    if isinstance(instance, apps.SfpInstance):
        return {
            "type": "sfp",
            "C": convex_to_dict(instance.c_set),
            "Q": convex_to_dict(instance.q_set),
            "A": _listify(instance.matrix),
            "gamma": instance.gamma if instance.gamma == "auto" else float(instance.gamma),
        }
    if isinstance(instance, apps.VipInstance):
        return {
            "type": "vip",
            "C": convex_to_dict(instance.c_set),
            "G": mapping_to_dict(instance.operator),
            "gamma": float(instance.gamma),
        }
    raise ConfigError(f"instance {type(instance).__name__} has no JSON form")


def sfp_instance_from_dict(data: dict, context: str = "instance") -> apps.SfpInstance:
    try:
        return apps.SfpInstance(
            c_set=convex_from_dict(_require(data, "C", context), f"{context}.C"),
            q_set=convex_from_dict(_require(data, "Q", context), f"{context}.Q"),
            matrix=_matrix(_require(data, "A", context), f"{context}.A"),
            gamma=data.get("gamma", "auto"),
        )
    except ConfigError:
        raise
    except (EnrichedFPError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), context=context) from exc


def vip_instance_from_dict(data: dict, context: str = "instance") -> apps.VipInstance:
    try:
        return apps.VipInstance(
            c_set=convex_from_dict(_require(data, "C", context), f"{context}.C"),
            operator=mapping_from_dict(_require(data, "G", context), f"{context}.G"),
            gamma=float(_require(data, "gamma", context)),
        )
    except ConfigError:
        raise
    except (EnrichedFPError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), context=context) from exc


def instance_from_dict(data: dict, context: str = "instance"):
    kind = _require(data, "type", context)
    if kind == "sfp":
        return sfp_instance_from_dict(data, context)
    if kind == "vip":
        return vip_instance_from_dict(data, context)
    raise ConfigError(f"unknown instance type '{kind}'", context=context)


def certificate_to_dict(cert: ContractionCertificate) -> dict:
    witness = None
    if cert.witness is not None:
        witness = [_listify(cert.witness[0]), _listify(cert.witness[1])]
    return {
        "class_tag": cert.class_tag,
        "k": float(cert.k),
        "rate": None if cert.rate is None else float(cert.rate),
        "max_violation": float(cert.max_violation),
        "satisfied": bool(cert.satisfied),
        "feasible": bool(cert.feasible),
        "witness_pair": witness,
        "sample": {
            "description": cert.sample.description,
            "seed": cert.sample.seed,
            "size": cert.sample.size,
            "dim": cert.sample.dim,
        },
    }


def _finite_or_none(value):
    if value is None or not np.isfinite(value):
        return None
    return float(value)


def trace_summary(trace: solve.IterationTrace) -> dict:
    last = trace.iterations - 1
    return {
        "status": trace.status,
        "iterations": trace.iterations,
        "final_point": _listify(trace.final),
        "final_step_norm": _finite_or_none(trace.step_norms[last]) if last >= 0 else None,
        "final_ratio": _finite_or_none(trace.ratios[last]) if last >= 0 else None,
        "final_apriori": _finite_or_none(trace.apriori[last]) if trace.apriori else None,
        "final_aposteriori": _finite_or_none(trace.aposteriori[last]) if trace.aposteriori else None,
        "lambda": trace.lam,
        "rate": trace.rate,
        "stop_rule": trace.stop_rule,
        "tol": trace.tol,
    }


def write_trace_csv(trace: solve.IterationTrace, path) -> None:
    """Write one row per iterate: iter, components, step_norm, ratio, bounds.

    Rows end in "\r\n" as in the csv module's default dialect; no cell ever
    needs quoting. Each row is one %-template, so a missing value (the first
    row, a ratio of None, bounds without a rate) is an empty cell.
    """
    blank = [None] * len(trace.iterates)
    rows = zip(
        trace.iterates,
        [None, *trace.step_norms],
        [None, *trace.ratios],
        [None, *trace.apriori] if trace.apriori else blank,
        [None, *trace.aposteriori] if trace.aposteriori else blank,
    )
    with open(path, "w", newline="") as fh:
        fh.write("iter,components,step_norm,ratio,apriori,aposteriori\r\n")
        for n, (point, *cells) in enumerate(rows):
            values = point.tolist()
            template = ",".join(
                ["%d", ";".join([FLOAT_FMT] * len(values))]
                + ["" if c is None else FLOAT_FMT for c in cells]
            )
            fh.write((template + "\r\n") % (n, *values, *[c for c in cells if c is not None]))


def write_json(path, payload: dict) -> None:
    """Deterministic JSON dump: sorted keys, fixed separators."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
