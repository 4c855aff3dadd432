"""Span tracing of enrichedfp from outside the package.

``Tracer.installed()`` replaces the public entry points of each module (the
layers) with wrappers that record a span per call: name, start, end, parent
span and run id. Module functions are patched as module attributes, which
also catches calls made inside the package because it looks them up through
the module (``_kernels.ratio_sup``, ``certify.evaluate_on``, ...). Methods
are patched on the base class that defines them (``Mapping.apply``,
``ConvexSet.project``), which covers every subclass. Spans stay in memory;
``per_layer_metrics`` turns one traced pass into the per-layer numbers.
Layers are named after the modules, except that ``_kernels`` is labelled
``kernels`` because metric names must start with a letter or digit.

With ``alloc=True`` each kernel call also runs under ``tracemalloc`` to
record its peak allocation. That slows the kernels' Python-level loops, so
such a pass gives the allocation peak and nothing else.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import tracemalloc
from collections import defaultdict

from enrichedfp import _kernels, apps, certify, cli, convex, serialize, solve
from enrichedfp.convex import ConvexSet
from enrichedfp.mappings import Mapping

KERNELS = ("ratio_sup", "violation_max", "inner_min")
ESTIMATES = ("certify.estimate_kannan_constants", "certify.estimate_bianchini_constants")
CLI_COMMANDS = ("demo", "certify", "solve", "sfp", "vip", "bench")
LAYERS = ("kernels", "certify", "mappings", "solve", "serialize", "apps", "convex", "cli")


def _pairs(args, kwargs, result):
    n = len(args[0])
    return (n * (n - 1),)


def _csv(args, kwargs, result):
    return os.path.getsize(args[1]), len(args[0].iterates)


# (layer, owner, attribute, function extracting counts from a call)
TRACED = (
    *(("kernels", _kernels, name, _pairs) for name in KERNELS),
    *(
        ("certify", certify, name, None)
        for name in (
            "default_sample",
            "grid_sample",
            "random_sample",
            "evaluate_on",
            "estimate_kannan_constants",
            "estimate_bianchini_constants",
            "check_enriched_kannan",
            "check_enriched_bianchini",
            "check_banach",
            "check_monotone",
        )
    ),
    ("mappings", Mapping, "apply", None),
    ("solve", solve, "krasnoselskij", lambda a, k, r: (r.iterations,)),
    ("serialize", serialize, "write_trace_csv", _csv),
    ("serialize", serialize, "write_json", lambda a, k, r: (os.path.getsize(a[0]),)),
    *(
        ("serialize", serialize, name, None)
        for name in (
            "load_json",
            "mapping_from_dict",
            "sfp_instance_from_dict",
            "vip_instance_from_dict",
            "certificate_to_dict",
            "trace_summary",
        )
    ),
    ("apps", apps, "power_iteration", lambda a, k, r: (r[3],)),
    ("apps", apps, "_attempt_certificate", lambda a, k, r: (0 if r[0] is None else r[0].sample.size,)),
    *(("apps", apps, name, None) for name in ("spectral_radius_ata", "sfp_operator", "solve_sfp", "solve_vip")),
    ("convex", ConvexSet, "project", None),
    *(("convex", convex, name, None) for name in ("distance", "contains", "sample_points")),
    ("cli", cli, "main", None),
)


class Tracer:
    """Records spans as ``[name, start, end, parent, run_id, counts, alloc]``."""

    def __init__(self, alloc=False):
        self.spans: list[list] = []
        self.run_id = None
        self.alloc = alloc
        self._stack: list[int] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.run_id, None, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    @contextlib.contextmanager
    def root(self, run_id):
        """A top-level span around one phase of a pass: "setup" or "pass"."""
        self.run_id = run_id
        span = self._open(run_id)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count, alloc):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            if alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if alloc:
                    span[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            if name == "cli.main":
                span[0] = f"cli.{args[0][0]}"
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point for the duration of the block."""
        saved = []
        try:
            for layer, owner, attr, count in TRACED:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                name = f"{layer}.{attr.lstrip('_')}"
                alloc = self.alloc and layer == "kernels"
                setattr(owner, attr, self._wrap(name, original, count, alloc))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def per_layer_metrics(spans):
    """Per-layer numbers of one traced pass.

    Times ending in ``.s`` include nested calls; ``self_s`` and ``self_frac``
    exclude them. Sampling time also counts the pass's own input build,
    because that is where certify_5d draws its sample.
    """
    child_time = defaultdict(float)
    for _, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(lambda: [0, 0])
    layer_self = defaultdict(float)
    peak_alloc = 0
    sweeps = 0
    pass_wall = 0.0
    sample_s = 0.0
    for idx, (name, t0, t1, parent, run_id, count, alloc) in enumerate(spans):
        dur = t1 - t0
        if run_id == "setup":
            if name == "certify.default_sample":
                sample_s += dur
            continue
        own = dur - child_time[idx]
        if parent < 0:
            pass_wall = dur
            layer_self["pass"] += own
            continue
        calls[name] += 1
        total[name] += dur
        self_s[name] += own
        for field, value in enumerate(count or ()):
            counts[name][field] += value
        layer_self[name.split(".")[0]] += own
        if alloc is not None:
            peak_alloc = max(peak_alloc, alloc)
        if name.startswith("kernels.") and spans[parent][0] in ESTIMATES:
            sweeps += 1

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for k in KERNELS:
        m[f"kernels.{k}.calls"] = calls[f"kernels.{k}"]
        m[f"kernels.{k}.s"] = total[f"kernels.{k}"]
    pairs = sum(counts[f"kernels.{k}"][0] for k in KERNELS)
    m["kernels.pairs"] = pairs
    m["kernels.ns_per_pair"] = per(sum(total[f"kernels.{k}"] for k in KERNELS), pairs, 1e9)
    m["kernels.peak_alloc_mb"] = peak_alloc / 2**20
    estimates = sum(calls[e] for e in ESTIMATES)
    m["certify.default_sample.s"] = sample_s + total["certify.default_sample"]
    m["certify.evaluate_on.calls"] = calls["certify.evaluate_on"]
    m["certify.evaluate_on.s"] = total["certify.evaluate_on"]
    m["certify.estimate.calls"] = estimates
    m["certify.estimate.self_s"] = sum(self_s[e] for e in ESTIMATES)
    m["certify.sweeps_per_estimate"] = per(sweeps, estimates)
    m["mappings.apply.calls"] = calls["mappings.apply"]
    m["mappings.apply.us_per_call"] = per(layer_self["mappings"], calls["mappings.apply"], 1e6)
    steps = counts["solve.krasnoselskij"][0]
    m["solve.krasnoselskij.calls"] = calls["solve.krasnoselskij"]
    m["solve.krasnoselskij.self_s"] = self_s["solve.krasnoselskij"]
    m["solve.iterations"] = steps
    m["solve.us_per_step"] = per(total["solve.krasnoselskij"], steps, 1e6)
    csv_bytes, csv_rows = counts["serialize.write_trace_csv"]
    m["serialize.write_trace_csv.s"] = total["serialize.write_trace_csv"]
    m["serialize.write_trace_csv.bytes"] = csv_bytes
    m["serialize.us_per_row"] = per(total["serialize.write_trace_csv"], csv_rows, 1e6)
    m["serialize.write_json.s"] = total["serialize.write_json"]
    m["serialize.write_json.bytes"] = counts["serialize.write_json"][0]
    m["apps.power_iteration.s"] = total["apps.power_iteration"]
    m["apps.power_iteration.iterations"] = counts["apps.power_iteration"][0]
    m["apps.solve_sfp.s"] = total["apps.solve_sfp"]
    m["apps.solve_vip.s"] = total["apps.solve_vip"]
    m["apps.cert_attempt.s"] = total["apps.attempt_certificate"]
    m["apps.orbit_sample_n"] = counts["apps.attempt_certificate"][0]
    m["convex.project.calls"] = calls["convex.project"]
    m["convex.project.s"] = total["convex.project"]
    m["convex.sample_points.s"] = total["convex.sample_points"]
    for c in CLI_COMMANDS:
        m[f"cli.{c}.s"] = total[f"cli.{c}"]
    m["cli.self_s"] = layer_self["cli"]
    for layer in (*LAYERS, "pass"):
        m[f"{layer}.self_frac"] = per(layer_self[layer], pass_wall)
    m["trace.spans"] = sum(calls.values())
    return m, pass_wall
