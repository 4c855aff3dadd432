import csv
from dataclasses import dataclass

import numpy as np
import pytest

from enrichedfp import catalog, certify, serialize, solve
from enrichedfp.apps import SfpOperator, VipOperator
from enrichedfp.convex import Ball, Box, Halfspace, Hyperplane
from enrichedfp.exceptions import ConfigError
from enrichedfp.mappings import (
    AffineMap,
    AveragedMap,
    Mapping,
    PiecewiseTable,
    Reflection1D,
    Scale1D,
)


def mapping_examples():
    return [
        Reflection1D(),
        Scale1D(c=0.5),
        Scale1D(c=1.0 / 3.0, bounds=(0.0, 1.0)),
        AffineMap(matrix=np.array([[0.1, 0.2], [0.3, 0.4]]), offset=np.array([1.0, -1.0])),
        AveragedMap(inner=Reflection1D(), lam=0.5),
        PiecewiseTable(
            breakpoints=np.array([0.0, 0.5, 1.0]),
            slopes=np.array([0.25, 0.2]),
            intercepts=np.array([0.0, 0.0]),
        ),
    ]


class TestMappingRoundTrip:
    @pytest.mark.parametrize("mapping", mapping_examples(), ids=lambda m: type(m).__name__)
    def test_round_trip(self, mapping):
        data = serialize.mapping_to_dict(mapping)
        rebuilt = serialize.mapping_from_dict(data)
        assert serialize.mapping_to_dict(rebuilt) == data
        x = np.full(mapping.dim, 0.25)
        assert np.array_equal(mapping.apply(x), rebuilt.apply(x))

    def test_operator_variants(self):
        for inst, cls in [(catalog.standard_sfp(), SfpOperator), (catalog.vip_line(), VipOperator)]:
            data = serialize.instance_to_dict(inst)
            data["variant"] = f"{data['type']}_operator"
            op = serialize.mapping_from_dict(data)
            assert isinstance(op, cls)
            assert serialize.mapping_to_dict(op)["type"] == data["type"]

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown mapping variant"):
            serialize.mapping_from_dict({"variant": "spline"})

    def test_missing_field_names_context(self):
        with pytest.raises(ConfigError, match="mapping.*missing field 'c'"):
            serialize.mapping_from_dict({"variant": "scale_1d"})

    def test_ragged_matrix_reports_field(self):
        with pytest.raises(ConfigError, match="mapping.matrix"):
            serialize.mapping_from_dict(
                {"variant": "affine", "matrix": [[1.0, 2.0], [3.0]], "offset": [0.0, 0.0]}
            )


class TestConvexRoundTrip:
    @pytest.mark.parametrize(
        "cs",
        [
            Box(lower=np.zeros(2), upper=np.ones(2)),
            Ball(center=np.array([1.0, 2.0]), radius=3.0),
            Halfspace(normal=np.array([1.0, -1.0]), offset=0.5),
            Hyperplane(normal=np.array([0.0, 2.0]), offset=1.0),
        ],
        ids=lambda s: type(s).__name__,
    )
    def test_round_trip(self, cs):
        data = serialize.convex_to_dict(cs)
        rebuilt = serialize.convex_from_dict(data)
        assert serialize.convex_to_dict(rebuilt) == data
        x = np.array([0.3, -0.7])
        assert np.array_equal(cs.project(x), rebuilt.project(x))


class TestInstanceRoundTrip:
    def test_sfp(self):
        inst = catalog.standard_sfp()
        data = serialize.instance_to_dict(inst)
        rebuilt = serialize.instance_from_dict(data)
        assert serialize.instance_to_dict(rebuilt) == data

    def test_vip(self):
        inst = catalog.vip_plane()
        data = serialize.instance_to_dict(inst)
        rebuilt = serialize.instance_from_dict(data)
        assert serialize.instance_to_dict(rebuilt) == data

    def test_unknown_type(self):
        with pytest.raises(ConfigError, match="unknown instance type"):
            serialize.instance_from_dict({"type": "lp"})


class TestCertificateDict:
    def test_fields(self, unit_sample, reflection):
        cert = certify.check_enriched_kannan(reflection, 0.5, 0.25, unit_sample)
        data = serialize.certificate_to_dict(cert)
        assert data["class_tag"] == "enriched_kannan"
        assert data["k"] == 0.5
        assert data["rate"] == 0.25
        assert data["satisfied"] is True
        assert data["feasible"] is True
        assert len(data["witness_pair"]) == 2
        assert data["sample"]["size"] == 201
        assert data["sample"]["seed"] == 0


class TestTraceCsv:
    def test_structure_and_precision(self, tmp_path):
        cfg = solve.SolveConfig(lam=2.0 / 3.0, tol=1e-10, max_iter=50, rate=1.0 / 3.0)
        trace = solve.krasnoselskij(Reflection1D(), [0.0], cfg)
        path = tmp_path / "trace.csv"
        serialize.write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,components,step_norm,ratio,apriori,aposteriori"
        assert len(lines) == trace.iterations + 2  # header + x_0 row + steps
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == ""
        second = lines[2].split(",")
        # 17 significant digits round-trip exactly
        assert float(second[2]) == trace.step_norms[0]
        assert second[3] == ""  # no ratio at the first step
        third = lines[3].split(",")
        assert float(third[3]) == trace.ratios[1]

    def test_rateless_trace_leaves_bounds_blank(self, tmp_path):
        cfg = solve.SolveConfig(lam=0.5, tol=1e-8, max_iter=50, stop_rule=solve.STOP_STEP_NORM)
        trace = solve.krasnoselskij(Scale1D(c=0.5), [1.0], cfg)
        path = tmp_path / "trace.csv"
        serialize.write_trace_csv(trace, path)
        row = path.read_text().strip().splitlines()[2].split(",")
        assert row[4] == "" and row[5] == ""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: _run(Reflection1D(), [0.0], lam=2.0 / 3.0, rate=1.0 / 3.0), id="rate"),
            pytest.param(lambda: _run(Scale1D(c=0.5), [1.0], lam=0.5), id="no_rate"),
            # every step after one below RATIO_MIN_STEP has no ratio
            pytest.param(lambda: _run(Scale1D(c=1e-20), [1.0], tol=1e-300), id="none_ratios"),
            pytest.param(lambda: _run(AffineMap(matrix=-np.eye(3), offset=np.zeros(3)), [-0.0, 0.0, 1.0], lam=0.5),
                         id="negative_zero"),
            pytest.param(lambda: _run(_Blowup(bad=np.nan), [1.0], rate=0.5), id="nan"),
            pytest.param(lambda: _run(_Blowup(bad=np.inf), [1.0], rate=0.5), id="inf"),
            pytest.param(lambda: _run(AffineMap(matrix=2.0 * np.eye(1), offset=np.zeros(1)), [1.0], max_iter=100),
                         id="step_limit"),
            pytest.param(lambda: _run(_rotation(20), np.zeros(20), lam=0.5, rate=0.99, max_iter=300), id="d20"),
            pytest.param(lambda: solve.IterationTrace(iterates=[np.array([0.25, -0.0])]), id="x0_only"),
            pytest.param(
                lambda: solve.IterationTrace(iterates=[np.array([0.5])], apriori=[], aposteriori=[], rate=0.5),
                id="x0_only_with_rate",
            ),
        ],
    )
    def test_bytes_match_csv_module_writer(self, tmp_path, build):
        trace = build()
        serialize.write_trace_csv(trace, tmp_path / "got.csv")
        reference_write_trace_csv(trace, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == len(trace.iterates) + 1


def reference_write_trace_csv(trace, path):
    """The trace writer as it was when it used ``csv.writer``."""

    def cell(value):
        return "" if value is None else serialize.FLOAT_FMT % value

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "components", "step_norm", "ratio", "apriori", "aposteriori"])
        for n, point in enumerate(trace.iterates):
            components = ";".join(serialize.FLOAT_FMT % c for c in point)
            if n == 0:
                writer.writerow([0, components, "", "", "", ""])
                continue
            i = n - 1
            writer.writerow(
                [
                    n,
                    components,
                    cell(trace.step_norms[i]),
                    cell(trace.ratios[i]),
                    cell(trace.apriori[i]) if trace.apriori else "",
                    cell(trace.aposteriori[i]) if trace.aposteriori else "",
                ]
            )


def _run(mapping, x0, lam=1.0, rate=None, tol=1e-10, max_iter=200):
    stop_rule = solve.STOP_AUTO if rate is not None else solve.STOP_STEP_NORM
    cfg = solve.SolveConfig(lam=lam, tol=tol, max_iter=max_iter, stop_rule=stop_rule, rate=rate)
    return solve.krasnoselskij(mapping, x0, cfg)


@dataclass(frozen=True, eq=False)
class _Blowup(Mapping):
    """x -> 3x on R^1 until |x| passes 10, then ``bad``."""

    bad: float

    @property
    def dim(self):
        return 1

    def _apply(self, point):
        return np.array([self.bad]) if abs(point[0]) > 10.0 else 3.0 * point


def _rotation(d):
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    return AffineMap(matrix=q, offset=np.linspace(-1.0, 1.0, d))
