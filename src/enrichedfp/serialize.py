"""JSON descriptions of mappings/sets/instances and file export helpers.

Mapping and convex-set objects round-trip through plain dicts keyed by a
``variant`` field; problem instances use a ``type`` field ("sfp"/"vip").
Each JSON form is one row of a table (``_MAPPINGS``, ``_SETS``,
``_INSTANCES``): its class and, per field, the JSON key, the attribute and
the reader. One reader (``_read``) and one writer (``_write``) serve every
row. A key may be absent only where the class gives its attribute a
default. The ``sfp_operator``/``vip_operator`` mapping variants carry their
instance's fields inline (``_OPERATORS``). Matrices are row-major lists of
lists. CSV trace exports print floats with 17 significant digits so values
round-trip exactly; JSON files are written with sorted keys so identical
runs produce byte-identical files.

``write_trace_csv`` prints each float as ``FLOAT_FMT % v`` does, in numpy
(``_format``): a finite, normal value with 1e-11 <= |v| < 2**51 (decimal
exponent in [-11, 15], binary exponent leaving a right shift of 1 to 63
bits) gets its 17 digits from exact 128-bit integer arithmetic in uint64;
zero, subnormals, inf, nan and every other value fall back to
``FLOAT_FMT % v``.
"""

from __future__ import annotations

import dataclasses
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


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ConfigError(f"missing field '{key}'", context=context)
    return data[key]


def _optional(cls) -> set:
    """The attributes ``cls`` gives a default: their JSON keys may be absent."""
    return {f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _object(data, context: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigError("expected an object", context=context)
    return data


def _tag(data, key: str, tags, family: str, context: str) -> str:
    tag = _require(_object(data, context), key, context)
    if isinstance(tag, str) and tag in tags:
        return tag
    raise ConfigError(f"unknown {family} '{tag}'", context=context)


def _read(row, data, context: str, make=None):
    """Build ``row``'s class from ``data`` (then ``make`` of it, if given).

    Each reader gets its value and the context ``context.key``; any other
    failure becomes a ``ConfigError`` naming ``context``.
    """
    cls, fields = row
    optional = _optional(cls)
    _object(data, context)
    try:
        obj = cls(**{
            attr: reader(_require(data, key, context), f"{context}.{key}")
            for key, attr, reader in fields
            if attr not in optional or key in data
        })
        return obj if make is None else make(obj)
    except ConfigError:
        raise
    except (EnrichedFPError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc), context=context) from exc


def _write(table: dict, key: str, obj, family: str) -> dict:
    """``obj`` by the first row whose class it is; a defaulted ``None`` is left out."""
    for tag, (cls, fields) in table.items():
        if isinstance(obj, cls):
            optional = _optional(cls)
            out = {key: tag}
            for name, attr, _ in fields:
                value = getattr(obj, attr)
                if value is not None or attr not in optional:
                    out[name] = _to_json(value)
            return out
    raise ConfigError(f"{family} {type(obj).__name__} has no JSON form")


def _to_json(value) -> Any:
    if isinstance(value, (np.ndarray, tuple, list)):
        return _listify(value)
    if isinstance(value, Mapping):
        return mapping_to_dict(value)
    if isinstance(value, convex.ConvexSet):
        return convex_to_dict(value)
    return value if value == solve.AUTO else float(value)


def _float(value, context: str, expected: str = "a number") -> float:
    """A JSON number as a float; ``true``, a string or any other value is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected {expected}, got {value!r}", context=context)
    return float(value)


def _numbers(value, context: str):
    """``value`` if it is a JSON number or nested arrays of them; ``true``,
    a string or any other entry is refused, as ``_float`` refuses it."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, (list, tuple)):
            items.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigError(f"expected numbers, got {item!r}", context=context)
    return value


def _array(value, context: str) -> np.ndarray:
    return np.asarray(_numbers(value, context), dtype=np.float64)


def _gamma(value, context: str):
    """A step size: a number, or ``"auto"``."""
    if value == solve.AUTO:
        return value
    return _float(value, context, f"a number or '{solve.AUTO}'")


def _interval(value, context: str):
    """A ``[lo, hi]`` array as a pair of floats; ``null`` is no interval."""
    if value is None:
        return None
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"expected [lo, hi], got {value!r}", context=context)
    return _float(value[0], context), _float(value[1], context)


def _matrix(data, context: str) -> np.ndarray:
    if isinstance(data, list):
        lengths = sorted({len(r) for r in data if isinstance(r, (list, tuple))})
        if len(lengths) > 1:
            raise ConfigError(
                f"matrix rows have inconsistent lengths {lengths}", context=context
            )
    _numbers(data, context)
    try:
        arr = np.asarray(data, dtype=np.float64)
    except ValueError as exc:  # rows of different depths
        raise ConfigError(f"not a numeric matrix: {exc}", context=context) from exc
    if arr.ndim != 2:
        raise ConfigError(
            f"expected a 2-D matrix, got shape {arr.shape}", context=context
        )
    return arr


def mapping_to_dict(mapping: Mapping) -> dict:
    for variant, (cls, _, _) in _OPERATORS.items():
        if isinstance(mapping, cls):
            return {"variant": variant, **instance_to_dict(mapping.instance)}
    return _write(_MAPPINGS, "variant", mapping, "mapping")


def mapping_from_dict(data: dict, context: str = "mapping") -> Mapping:
    variant = _tag(data, "variant", _MAPPINGS.keys() | _OPERATORS.keys(), "mapping variant", context)
    if variant in _OPERATORS:
        _, kind, make = _OPERATORS[variant]
        return _read(_INSTANCES[kind], data, context, make)
    return _read(_MAPPINGS[variant], data, context)


def convex_to_dict(convex_set: convex.ConvexSet) -> dict:
    return _write(_SETS, "variant", convex_set, "convex set")


def convex_from_dict(data: dict, context: str = "set") -> convex.ConvexSet:
    return _read(_SETS[_tag(data, "variant", _SETS, "set variant", context)], data, context)


def instance_to_dict(instance) -> dict:
    return _write(_INSTANCES, "type", instance, "instance")


def sfp_instance_from_dict(data: dict, context: str = "instance") -> apps.SfpInstance:
    return _read(_INSTANCES["sfp"], data, context)


def vip_instance_from_dict(data: dict, context: str = "instance") -> apps.VipInstance:
    return _read(_INSTANCES["vip"], data, context)


def instance_from_dict(data: dict, context: str = "instance"):
    return _read(_INSTANCES[_tag(data, "type", _INSTANCES, "instance type", context)], data, context)


# tag -> (class, fields); a field is (JSON key, attribute, reader), in order.
_MAPPINGS = {
    "reflection_1d": (Reflection1D, ()),
    "scale_1d": (Scale1D, (("c", "c", _float), ("domain", "bounds", _interval))),
    "affine": (AffineMap, (("matrix", "matrix", _matrix), ("offset", "offset", _array))),
    "averaged": (AveragedMap, (("inner", "inner", mapping_from_dict), ("lambda", "lam", _float))),
    "piecewise_table": (PiecewiseTable, tuple((k, k, _array) for k in ("breakpoints", "slopes", "intercepts"))),
}
_SETS = {
    "box": (convex.Box, (("lower", "lower", _array), ("upper", "upper", _array))),
    "ball": (convex.Ball, (("center", "center", _array), ("radius", "radius", _float))),
    "halfspace": (convex.Halfspace, (("normal", "normal", _array), ("offset", "offset", _float))),
    "hyperplane": (convex.Hyperplane, (("normal", "normal", _array), ("offset", "offset", _float))),
}
_INSTANCES = {
    "sfp": (apps.SfpInstance, (("C", "c_set", convex_from_dict), ("Q", "q_set", convex_from_dict),
                               ("A", "matrix", _matrix), ("gamma", "gamma", _gamma))),
    "vip": (apps.VipInstance, (("C", "c_set", convex_from_dict), ("G", "operator", mapping_from_dict),
                               ("gamma", "gamma", _float))),
}
# The operator variants inline their instance's row, "type" included:
# variant -> (class, instance type, operator from the instance).
_OPERATORS = {
    "sfp_operator": (apps.SfpOperator, "sfp", apps.sfp_operator),
    "vip_operator": (apps.VipOperator, "vip", apps.vip_operator),
}


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


# rows of cells per block of arrays is _CHUNK_CELLS // (cells per row)
_CHUNK_CELLS = 4096


def write_trace_csv(trace: solve.IterationTrace, path) -> None:
    """Write one row per iterate: iter, components, step_norm, ratio, bounds.

    Rows end in "\r\n" as in the csv module's default dialect; no cell ever
    needs quoting. A missing value (the first row, a ratio of None, bounds
    without a rate) is an empty cell. Every number is printed as
    ``FLOAT_FMT % v`` prints it (the iteration count as a float, which is
    the same text as ``%d``). Rows are formatted in blocks of about
    ``_CHUNK_CELLS`` cells by exact integer arithmetic in numpy for finite,
    normal values with 1e-11 <= |v| < 2**51, and by ``FLOAT_FMT`` itself for
    zero, subnormals, inf, nan and any other magnitude.
    """
    from ._format import format_rows  # loaded by the first trace written

    with open(path, "wb") as fh:
        fh.write(b"iter,components,step_norm,ratio,apriori,aposteriori\r\n")
        rows = len(trace.iterates)
        if not rows:
            return
        d = len(trace.iterates[0])
        seps = [","] + [";"] * (d - 1) + [","] * 4 + ["\r\n"]
        columns = (trace.step_norms, trace.ratios, trace.apriori, trace.aposteriori)
        step = max(1, _CHUNK_CELLS // len(seps))
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            values = np.zeros((stop - start, len(seps)))
            blank = np.zeros(values.shape, dtype=bool)
            values[:, 0] = np.arange(start, stop)
            values[:, 1 : d + 1] = trace.iterates[start:stop]
            for j, column in enumerate(columns, d + 1):
                if not column:
                    blank[:, j] = True
                    continue
                cells = column[max(start - 1, 0) : stop - 1]
                if start == 0:
                    cells = [None, *cells]
                blank[:, j] = [c is None for c in cells]
                values[:, j] = cells
            fh.write(format_rows(values, blank, seps))


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
