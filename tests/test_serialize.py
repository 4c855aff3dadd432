import copy
import csv
from dataclasses import dataclass, fields, replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp import _format, apps, catalog, certify, serialize, solve
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

    @pytest.mark.parametrize("domain", [[0], [0, 1, 2], {"lo": 0}], ids=["short", "long", "object"])
    def test_domain_of_the_wrong_shape(self, domain):
        with pytest.raises(ConfigError, match=r"^mapping\.domain: expected \[lo, hi\], got "):
            serialize.mapping_from_dict({"variant": "scale_1d", "c": 0.5, "domain": domain})

    def test_null_domain_is_no_domain(self):
        mapping = serialize.mapping_from_dict({"variant": "scale_1d", "c": 0.5, "domain": None})
        assert mapping.bounds is None


# one example per row of serialize's tables; a row without one fails below
TABLE_EXAMPLES = {
    "mapping": {
        "reflection_1d": Reflection1D(),
        "scale_1d": Scale1D(c=1.0 / 3.0, bounds=(0.0, 1.0)),
        "affine": AffineMap(matrix=np.array([[0.1, 0.2], [0.3, 0.4]]), offset=np.array([1.0, -1.0])),
        "averaged": AveragedMap(inner=Scale1D(c=0.5), lam=0.5),
        "piecewise_table": mapping_examples()[-1],
        "sfp_operator": apps.sfp_operator(catalog.standard_sfp()),
        "vip_operator": apps.vip_operator(catalog.vip_line()),
    },
    "set": {
        "box": Box(lower=np.zeros(2), upper=np.ones(2)),
        "ball": Ball(center=np.array([1.0, 2.0]), radius=3.0),
        "halfspace": Halfspace(normal=np.array([1.0, -1.0]), offset=0.5),
        "hyperplane": Hyperplane(normal=np.array([0.0, 2.0]), offset=1.0),
    },
    "instance": {
        "sfp": replace(catalog.standard_sfp(), gamma=0.2),
        "vip": catalog.vip_plane(),
    },
}
FAMILIES = {
    "mapping": (serialize.mapping_to_dict, serialize.mapping_from_dict, "variant"),
    "set": (serialize.convex_to_dict, serialize.convex_from_dict, "variant"),
    "instance": (serialize.instance_to_dict, serialize.instance_from_dict, "type"),
}


def table_rows(optional_only=False):
    """(family, tag, row) for every row; an operator variant has its instance's row."""
    rows = [("mapping", tag, row) for tag, row in serialize._MAPPINGS.items()]
    rows += [("mapping", tag, serialize._INSTANCES[kind]) for tag, (_, kind, _) in serialize._OPERATORS.items()]
    rows += [("set", tag, row) for tag, row in serialize._SETS.items()]
    rows += [("instance", tag, row) for tag, row in serialize._INSTANCES.items()]
    return [
        pytest.param(*r, id=f"{r[0]}-{r[1]}") for r in rows if not optional_only or _fields(r[2], True)
    ]


def _fields(row, optional):
    cls, row_fields = row
    defaults = serialize._optional(cls)
    return [(key, attr) for key, attr, _ in row_fields if (attr in defaults) == optional]


class TestEveryTableRow:
    @pytest.mark.parametrize("family, tag, row", table_rows())
    def test_round_trip(self, family, tag, row):
        to_dict, from_dict, tag_key = FAMILIES[family]
        data = to_dict(TABLE_EXAMPLES[family][tag])
        assert to_dict(from_dict(data)) == data
        assert data[tag_key] == tag
        assert {key for key, _, _ in row[1]} <= data.keys()

    @pytest.mark.parametrize("family, tag, row", table_rows())
    def test_each_required_key_is_named_when_missing(self, family, tag, row):
        to_dict, from_dict, _ = FAMILIES[family]
        for key, _ in _fields(row, optional=False):
            data = to_dict(TABLE_EXAMPLES[family][tag])
            del data[key]
            with pytest.raises(ConfigError) as info:
                from_dict(data)
            assert str(info.value) == f"{family}: missing field '{key}'"

    @pytest.mark.parametrize("family, tag, row", table_rows(optional_only=True))
    def test_optional_keys_may_be_absent(self, family, tag, row):
        to_dict, from_dict, _ = FAMILIES[family]
        data = to_dict(TABLE_EXAMPLES[family][tag])
        optional = _fields(row, optional=True)
        for key, _ in optional:
            del data[key]
        rebuilt = from_dict(data)
        target = getattr(rebuilt, "instance", rebuilt)
        defaults = {f.name: f.default for f in fields(type(target))}
        for _, attr in optional:
            assert getattr(target, attr) == defaults[attr]


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

    @pytest.mark.parametrize("data", [5, "Cat", [1, 2], None], ids=["int", "str", "list", "null"])
    @pytest.mark.parametrize("read", [serialize.sfp_instance_from_dict, serialize.vip_instance_from_dict])
    def test_a_non_object_is_refused(self, read, data):
        with pytest.raises(ConfigError) as info:
            read(data)
        assert str(info.value) == "instance: expected an object"

    @pytest.mark.parametrize("gamma", [None, True, "0.5", [0.5]], ids=["null", "true", "string", "list"])
    def test_sfp_gamma_is_a_number_or_auto(self, gamma):
        data = serialize.instance_to_dict(catalog.standard_sfp())
        data["gamma"] = gamma
        with pytest.raises(ConfigError) as info:
            serialize.sfp_instance_from_dict(data)
        assert str(info.value) == f"instance.gamma: expected a number or 'auto', got {gamma!r}"

    @pytest.mark.parametrize("gamma, read", [(1, 1.0), (0.25, 0.25), ("auto", "auto")])
    def test_sfp_gamma_reads_a_number_as_a_float(self, gamma, read):
        data = serialize.instance_to_dict(catalog.standard_sfp())
        data["gamma"] = gamma
        got = serialize.sfp_instance_from_dict(data).gamma
        assert got == read and type(got) is type(read)


SFP_BALL_Q = {
    "type": "sfp",
    "C": {"variant": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "Q": {"variant": "ball", "center": [2.0, 2.0], "radius": 0.5},
    "A": [[2.0, 0.0], [0.0, 2.0]],
    "gamma": 0.25,
}

# (reader, a valid input, the path to one of its float fields, that field's context)
FLOAT_FIELDS = [
    (serialize.mapping_from_dict, {"variant": "scale_1d", "c": 0.5, "domain": [0.0, 1.0]}, ("c",), "mapping.c"),
    (serialize.mapping_from_dict, {"variant": "scale_1d", "c": 0.5, "domain": [0.0, 1.0]},
     ("domain", 1), "mapping.domain"),
    (serialize.mapping_from_dict, {"variant": "averaged", "inner": {"variant": "reflection_1d"}, "lambda": 0.5},
     ("lambda",), "mapping.lambda"),
    (serialize.convex_from_dict, {"variant": "ball", "center": [0.0, 0.0], "radius": 1.0}, ("radius",), "set.radius"),
    (serialize.convex_from_dict, {"variant": "halfspace", "normal": [1.0, 0.0], "offset": 0.5},
     ("offset",), "set.offset"),
    (serialize.instance_from_dict, serialize.instance_to_dict(catalog.vip_line()), ("gamma",), "instance.gamma"),
    (serialize.instance_from_dict, SFP_BALL_Q, ("Q", "radius"), "instance.Q.radius"),
]


def _with(data, path, value):
    """A deep copy of ``data`` with the entry at ``path`` set to ``value``."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


class TestNumberOnlyFloats:
    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]], ids=["true", "false", "string", "null", "list"])
    @pytest.mark.parametrize("read, data, path, context", FLOAT_FIELDS, ids=[f[3] for f in FLOAT_FIELDS])
    def test_a_float_field_takes_only_a_number(self, read, data, path, context, value):
        read(data)
        with pytest.raises(ConfigError) as info:
            read(_with(data, path, value))
        assert str(info.value) == f"{context}: expected a number, got {value!r}"

    @pytest.mark.parametrize("value", [1, 0.5, np.float64(0.5)])
    def test_a_number_reads_as_a_float(self, value):
        got = serialize._float(value, "field")
        assert got == value and type(got) is float


# (reader, a valid input, the path to one entry of an array field, that field's context)
ARRAY_FIELDS = [
    (serialize.convex_from_dict, {"variant": "box", "lower": [0, 0], "upper": [1, 2]}, ("lower", 1), "set.lower"),
    (serialize.convex_from_dict, {"variant": "ball", "center": [0.0, 0.0], "radius": 1.0},
     ("center", 0), "set.center"),
    (serialize.mapping_from_dict, {"variant": "affine", "matrix": [[0.5]], "offset": [0.0]},
     ("matrix", 0, 0), "mapping.matrix"),
    (serialize.mapping_from_dict, {"variant": "affine", "matrix": [[0.5]], "offset": [0.0]},
     ("offset", 0), "mapping.offset"),
    (serialize.mapping_from_dict,
     {"variant": "piecewise_table", "breakpoints": [0.0, 0.5, 1.0], "slopes": [0.5, 0.25], "intercepts": [0.0, 0.125]},
     ("slopes", 1), "mapping.slopes"),
    (serialize.instance_from_dict, SFP_BALL_Q, ("A", 1, 1), "instance.A"),
]


class TestNumberOnlyArrays:
    @pytest.mark.parametrize("value", [True, False, "0", None, {}], ids=["true", "false", "string", "null", "object"])
    @pytest.mark.parametrize("read, data, path, context", ARRAY_FIELDS, ids=[f[3] for f in ARRAY_FIELDS])
    def test_an_array_field_takes_only_numbers(self, read, data, path, context, value):
        read(data)
        with pytest.raises(ConfigError) as info:
            read(_with(data, path, value))
        assert str(info.value) == f"{context}: expected numbers, got {value!r}"

    @pytest.mark.parametrize("value", [True, "1"], ids=["true", "string"])
    def test_a_whole_array_field_that_is_not_an_array(self, value):
        with pytest.raises(ConfigError) as info:
            serialize.convex_from_dict({"variant": "box", "lower": value, "upper": [1.0]})
        assert str(info.value) == f"set.lower: expected numbers, got {value!r}"

    def test_a_box_of_strings_and_booleans_is_refused(self):
        # this read as Box(lower=[0., 1.]) when array fields took any value numpy converts
        with pytest.raises(ConfigError, match="set.lower: expected numbers"):
            serialize.convex_from_dict({"variant": "box", "lower": ["0", True], "upper": [1, 2]})

    def test_integers_and_floats_read_as_floats(self):
        box = serialize.convex_from_dict({"variant": "box", "lower": [0, -1.5], "upper": [1, 2]})
        assert box.lower.dtype == np.float64 and box.lower.tolist() == [0.0, -1.5]


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
            pytest.param(solve.IterationTrace, id="no_iterates"),
            # block boundaries of the writer (d = 3: 8 cells a row)
            pytest.param(lambda: _rotation_rows(_CHUNK_ROWS - 1), id="chunk_minus_1"),
            pytest.param(lambda: _rotation_rows(_CHUNK_ROWS), id="chunk"),
            pytest.param(lambda: _rotation_rows(_CHUNK_ROWS + 1), id="chunk_plus_1"),
            pytest.param(lambda: _rotation_rows(3 * _CHUNK_ROWS + 17), id="several_chunks"),
            # cells FLOAT_FMT prints inside blocks: a priori bounds
            # (rate 0.5) through 1e-300, subnormals and 0, then a NaN, an inf or a
            # step above 1e17 in the last row of several blocks
            pytest.param(lambda: _run(_Blowup(bad=np.nan, dim=3, growth=1.001), [1.0, -2.0, 0.5], rate=0.5,
                                      max_iter=5000), id="nan_after_chunks"),
            pytest.param(lambda: _run(_Blowup(bad=-np.inf, dim=3, growth=1.001), [1.0, -2.0, 0.5], rate=0.5,
                                      max_iter=5000), id="inf_after_chunks"),
            pytest.param(lambda: _run(_Blowup(bad=1e18, dim=3, growth=1.001), [1.0, -2.0, 0.5], rate=0.5,
                                      max_iter=5000), id="step_above_1e17"),
            pytest.param(lambda: _negative_zeros(_rotation_rows(_CHUNK_ROWS + 1)), id="negative_zero_chunks"),
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
    """x -> growth * x on R^dim until |x_0| passes 10, then ``bad`` everywhere."""

    bad: float
    dim: int = 1
    growth: float = 3.0

    def _apply(self, point):
        return np.full(self.dim, self.bad) if abs(point[0]) > 10.0 else self.growth * point


def _rotation(d):
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    return AffineMap(matrix=q, offset=np.linspace(-1.0, 1.0, d))


_CHUNK_ROWS = serialize._CHUNK_CELLS // 8


def _rotation_rows(rows):
    """A 3-D rotation solve of exactly ``rows`` rows."""
    trace = _run(_rotation(3), np.zeros(3), lam=0.5, rate=0.99, tol=1e-300, max_iter=rows - 1)
    assert len(trace.iterates) == rows
    return trace


def _negative_zeros(trace):
    """``trace`` with -0.0 as the first component of every other iterate."""
    for point in trace.iterates[::2]:
        point[0] = -0.0
    return trace


def _formatted(values):
    """``values`` as ``_format.format_rows`` prints them, one a line."""
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, 1)
    out = _format.format_rows(values, np.zeros(values.shape, dtype=bool), ["\n"])
    return out.tobytes().decode().split("\n")[:-1]


def _ties():
    """Dyadic values exactly halfway between two 17-digit decimals: an odd
    m / 2**(17 - x) in [10**x, 10**(x + 1)) has 18 digits, the last a 5."""
    rng = np.random.default_rng(17)
    ties = []
    for x in range(-4, 14):
        k = 17 - x
        lo, hi = int(10.0**x * 2**k) + 1, int(10.0 ** (x + 1) * 2**k)
        ties += [(2 * int(m) + 1) / 2.0**k for m in rng.integers(lo // 2, hi // 2, 8)]
    return ties


def _edges():
    values = []
    for e in range(-20, 21):
        ten = float(f"1e{e}")
        below = float(f"9.9999999999999995e{e - 1}")  # the double nearest ten's 17-digit tie
        values += [ten, np.nextafter(ten, 0.0), np.nextafter(ten, np.inf), below, np.nextafter(below, 0.0)]
    values += [
        1.0000000000000001e-05, 1e-05, 9.9999999999999991e-06, 1e-4, np.nextafter(1e-4, 0.0),  # x = -5 / -4
        1e16, np.nextafter(1e16, 0.0), 1e17, np.nextafter(1e17, 0.0),  # x = 16 / 17
        2.0**51, 2.0**52, 2.0**53, 1e-11, np.nextafter(1e-11, 0.0),  # ends of the integer path
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
        -1e-100, 1.5e200, 1.7976931348623157e308,  # three-digit exponents
    ]
    return values + [-v for v in values] + _ties()


@pytest.mark.filterwarnings("error")
class TestCellFormat:
    """The cells of trace.csv as ``format_rows`` prints them, against ``FLOAT_FMT % v``."""

    def test_ties_cover_both_directions(self):
        digits = [Decimal(v).as_tuple().digits for v in _ties()]
        assert all(len(d) == 18 and d[-1] == 5 for d in digits)
        # an even 17th digit stays, an odd one rounds up
        assert {d[-2] % 2 for d in digits} == {0, 1}

    def test_edges(self):
        values = _edges()
        assert _formatted(values) == [serialize.FLOAT_FMT % v for v in values]

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20191)
        for _ in range(16):
            values = rng.integers(0, 2**64, size=2**16, dtype=np.uint64).view(np.float64)
            assert _formatted(values) == [serialize.FLOAT_FMT % v for v in values.tolist()]

    def test_values_of_the_integer_path(self):
        rng = np.random.default_rng(5)
        values = rng.choice([-1.0, 1.0], 2**16) * 10.0 ** rng.uniform(-12.0, 17.0, 2**16)
        assert _formatted(values) == [serialize.FLOAT_FMT % v for v in values.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
    def test_hypothesis_floats(self, values):
        assert _formatted(values) == [serialize.FLOAT_FMT % v for v in values]
