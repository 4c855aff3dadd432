import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from enrichedfp import apps, catalog, cli, convex, serialize, solve

RUN = [sys.executable, "-m", "enrichedfp.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, cwd=cwd)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def reflection_json(tmp_path):
    return write_json(tmp_path / "reflection.json", {"variant": "reflection_1d"})


@pytest.fixture
def scale_third_json(tmp_path):
    return write_json(
        tmp_path / "scale3.json",
        {"variant": "scale_1d", "c": 1.0 / 3.0, "domain": [0.0, 1.0]},
    )


@pytest.fixture
def sfp_json(tmp_path):
    return write_json(
        tmp_path / "sfp.json",
        {
            "type": "sfp",
            "C": {"variant": "box", "lower": [0, 0], "upper": [1, 1]},
            "Q": {"variant": "box", "lower": [2, 2], "upper": [3, 3]},
            "A": [[2, 0], [0, 2]],
            "gamma": 0.25,
        },
    )


class TestDemo:
    def test_demo_runs_clean(self, tmp_path):
        out = tmp_path / "demo"
        result = run_cli("demo", "--out", str(out), "--seed", "0")
        assert result.returncode == cli.EXIT_OK, result.stderr
        for name in ("trace.csv", "trace_picard.csv", "summary.json", "certificate.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["averaged"]["status"] == "converged"
        assert summary["averaged"]["iterations"] <= 25
        assert summary["picard"]["status"] == "max_iter_reached"
        assert summary["picard_orbit"] == [0.0, 1.0]
        assert summary["worst_bound_excess"] <= 0.0
        assert "plain lam=1" in result.stdout


class TestCertify:
    def test_scale_third_separation(self, tmp_path, scale_third_json):
        out = tmp_path / "cert"
        result = run_cli(
            "certify", "--input", scale_third_json, "--out", str(out), "--seed", "0",
            "--k-grid", "0",
        )
        assert result.returncode == cli.EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["kannan"]["feasible"] is False
        assert cert["kannan"]["rate"] >= 0.5
        assert cert["bianchini"]["feasible"] is True
        assert abs(cert["bianchini"]["rate"] - 0.5) <= 1e-12

    def test_uncertifiable_map_exits_4(self, tmp_path):
        mapping = write_json(
            tmp_path / "half.json",
            {"variant": "scale_1d", "c": 0.5, "domain": [0.0, 1.0]},
        )
        result = run_cli("certify", "--input", mapping, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CERT_INFEASIBLE

    @pytest.mark.parametrize("mapping", [
        {"variant": "scale_1d", "c": 1e308},
        {"variant": "affine", "matrix": [[1e308]], "offset": [0.0]},
    ], ids=["scale_1d", "affine"])
    def test_a_map_whose_images_overflow_exits_4_under_w_error(self, tmp_path, mapping):
        # images of 1e308 x on [-10, 10] overflow to inf; the checks fail
        # closed on them, and evaluating the map warns of nothing
        config = write_json(tmp_path / "box10.json", {"sample": {"bounds": [[-10, 10]]}})
        out = tmp_path / "o"
        result = subprocess.run(
            [sys.executable, "-W", "error", *RUN[1:], "certify",
             "--input", write_json(tmp_path / "map.json", mapping), "--config", config, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert result.returncode == cli.EXIT_CERT_INFEASIBLE, result.stderr
        assert result.stderr == ""
        cert = json.loads((out / "certificate.json").read_text())
        for name in ("kannan", "bianchini"):
            assert cert[name]["feasible"] is False
            assert cert[name]["max_violation"] == math.inf


class TestSolve:
    def test_auto_lambda_converges(self, tmp_path, reflection_json):
        out = tmp_path / "solve"
        result = run_cli(
            "solve", "--input", reflection_json, "--out", str(out),
            "--lambda", "auto", "--x0", "0.1", "--tol", "1e-10",
        )
        assert result.returncode == cli.EXIT_OK, result.stderr
        assert (out / "certificate.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert abs(summary["final_point"][0] - 0.5) <= 1e-9

    def test_max_iter_exit_code(self, tmp_path, reflection_json):
        result = run_cli(
            "solve", "--input", reflection_json, "--out", str(tmp_path / "o"),
            "--lambda", "1.0", "--x0", "0", "--max-iter", "50",
            "--stop-rule", "step_norm",
        )
        assert result.returncode == cli.EXIT_MAX_ITER

    def test_diverged_exit_code(self, tmp_path):
        mapping = write_json(tmp_path / "double.json", {"variant": "scale_1d", "c": 2.0})
        result = run_cli(
            "solve", "--input", mapping, "--out", str(tmp_path / "o"),
            "--lambda", "1.0", "--x0", "1.0", "--max-iter", "100000",
            "--stop-rule", "step_norm",
        )
        assert result.returncode == cli.EXIT_DIVERGED

    def test_the_status_line_ends_in_the_orbit_audit(self, tmp_path, capsys):
        # the map of test_serialize.TestOrbitAudit: T = 0.3 x + 0.35 but for a V
        # dipping to 0.4853 at 0.5025, between the default sample's points. It
        # certifies on its sample but breaks its rate once; the run still
        # converges and exits 0
        mapping = write_json(tmp_path / "dip.json", {
            "variant": "piecewise_table", "breakpoints": [0, 0.501, 0.5025, 0.504, 1],
            "slopes": [0.3, -10, 10.6, 0.3], "intercepts": [0.35, 5.5103, -4.84135, 0.35],
        })
        argv = ["solve", "--input", mapping, "--lambda", "auto", "--x0", "0.51", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == cli.EXIT_OK
        line = capsys.readouterr().out
        assert line.startswith("status=converged iterations=19 ")
        assert line.endswith(" rate_breaks=1 max_ratio=1.79286 required_iterations=68\n")

    def test_the_audit_of_a_rate_kept_up_to_rounding(self, tmp_path, capsys):
        config = str(Path(__file__).parent / "data" / "rotation5_solve.json")
        assert cli.main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith(" rate_breaks=0 max_ratio=1.0644 required_iterations=2934\n")

    def test_an_audit_without_ratios_prints_null(self, tmp_path, reflection_json, capsys):
        # from the fixed point: one step of 0, so no ratio and no a priori count
        argv = ["solve", "--input", reflection_json, "--lambda", "auto", "--x0", "0.5", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith(" rate_breaks=0 max_ratio=null required_iterations=null\n")

    def test_no_audit_without_a_rate(self, tmp_path, reflection_json, capsys):
        argv = ["solve", "--input", reflection_json, "--lambda", "0.5", "--x0", "0.1", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == cli.EXIT_OK
        line = capsys.readouterr().out
        assert line.startswith("status=converged ") and "rate_breaks" not in line

    def test_auto_refused_exit_code(self, tmp_path):
        mapping = write_json(
            tmp_path / "half.json", {"variant": "scale_1d", "c": 0.5, "domain": [0.0, 1.0]}
        )
        result = run_cli(
            "solve", "--input", mapping, "--out", str(tmp_path / "o"), "--lambda", "auto",
        )
        assert result.returncode == cli.EXIT_CERT_INFEASIBLE


class TestSfpVip:
    def test_sfp_standard(self, tmp_path, sfp_json):
        out = tmp_path / "sfp"
        result = run_cli(
            "sfp", "--input", sfp_json, "--out", str(out),
            "--lambda", "0.5", "--x0", "0,0", "--tol", "1e-10", "--max-iter", "500",
        )
        assert result.returncode == cli.EXIT_OK, result.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["feasible"] is True
        assert summary["residual_q"] <= 1e-8
        assert np.allclose(summary["final_point"], [1.0, 1.0], atol=1e-8)

    def test_sfp_infeasible_exit_code(self, tmp_path):
        instance = write_json(
            tmp_path / "degenerate.json",
            {
                "type": "sfp",
                "C": {"variant": "box", "lower": [0], "upper": [0]},
                "Q": {"variant": "box", "lower": [1], "upper": [1]},
                "A": [[1]],
                "gamma": 0.5,
            },
        )
        result = run_cli(
            "sfp", "--input", instance, "--out", str(tmp_path / "o"),
            "--lambda", "0.5", "--x0", "0",
        )
        assert result.returncode == cli.EXIT_SFP_INFEASIBLE
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["feasible"] is False

    def test_sfp_auto_lambda_certifies_over_c(self, tmp_path, sfp_json):
        # the projection operator is constant on C, so estimation certifies
        # (k=0, rate=0) and auto mode runs plain iteration to the solution
        out = tmp_path / "sfp_auto"
        result = run_cli(
            "sfp", "--input", sfp_json, "--out", str(out),
            "--lambda", "auto", "--x0", "0,0",
        )
        assert result.returncode == cli.EXIT_OK, result.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["lambda"] == 1.0
        assert np.allclose(summary["final_point"], [1.0, 1.0], atol=1e-8)

    def test_sfp_auto_lambda_refused_on_single_point_c(self, tmp_path):
        instance = write_json(
            tmp_path / "degenerate.json",
            {
                "type": "sfp",
                "C": {"variant": "box", "lower": [0], "upper": [0]},
                "Q": {"variant": "box", "lower": [1], "upper": [1]},
                "A": [[1]],
                "gamma": 0.5,
            },
        )
        result = run_cli(
            "sfp", "--input", instance, "--out", str(tmp_path / "o"), "--lambda", "auto",
        )
        assert result.returncode == cli.EXIT_CERT_INFEASIBLE
        assert "collapses" in result.stderr

    def test_vip_auto_lambda_refused_when_uncertifiable(self, tmp_path):
        instance = write_json(
            tmp_path / "vip.json",
            {
                "type": "vip",
                "C": {"variant": "box", "lower": [0], "upper": [2]},
                "G": {"variant": "affine", "matrix": [[1]], "offset": [-1]},
                "gamma": 0.5,
            },
        )
        result = run_cli(
            "vip", "--input", instance, "--out", str(tmp_path / "o"),
            "--lambda", "auto", "--x0", "0",
        )
        assert result.returncode == cli.EXIT_CERT_INFEASIBLE
        assert "refused" in result.stderr

    def test_vip_loose_tolerance_fails_residual_check(self, tmp_path):
        # a crude solve tolerance leaves the iterate ~1e-2 from the solution,
        # so the sampled inequality residual falls below -1e-8: distinct exit
        instance = write_json(
            tmp_path / "vip.json",
            {
                "type": "vip",
                "C": {"variant": "box", "lower": [0], "upper": [2]},
                "G": {"variant": "affine", "matrix": [[1]], "offset": [-1]},
                "gamma": 0.5,
            },
        )
        result = run_cli(
            "vip", "--input", instance, "--out", str(tmp_path / "o"),
            "--lambda", "1.0", "--x0", "0", "--tol", "1e-2",
        )
        assert result.returncode == cli.EXIT_VI_RESIDUAL
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["vi_ok"] is False

    def test_vip_line(self, tmp_path):
        instance = write_json(
            tmp_path / "vip.json",
            {
                "type": "vip",
                "C": {"variant": "box", "lower": [0], "upper": [2]},
                "G": {"variant": "affine", "matrix": [[1]], "offset": [-1]},
                "gamma": 0.5,
            },
        )
        out = tmp_path / "vip_out"
        result = run_cli(
            "vip", "--input", instance, "--out", str(out),
            "--lambda", "1.0", "--x0", "0", "--tol", "1e-10",
        )
        assert result.returncode == cli.EXIT_OK, result.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["final_point"][0] - 1.0) <= 1e-8
        assert summary["vi_ok"] is True
        assert summary["monotone_satisfied"] is True

    @pytest.mark.parametrize("name", ["reflection", "scale_third", "scale_quarter", "kannan_jump", "averaged_reflection"])
    def test_vip_on_a_g_with_a_bounded_domain(self, tmp_path, capsys, name):
        # C = [0, 1] and G a catalog map on [0, 1]: the orbit certificate
        # samples inside G's domain, so the run writes its outputs and exits 0
        instance = apps.VipInstance(
            c_set=convex.Box(lower=np.zeros(1), upper=np.ones(1)),
            operator=catalog.catalog_entry(name).mapping,
            gamma=0.5,
        )
        path = tmp_path / "vip.json"
        serialize.write_json(path, serialize.instance_to_dict(instance))
        out = tmp_path / "o"
        assert cli.main(["vip", "--input", str(path), "--out", str(out)]) == cli.EXIT_OK
        assert "error" not in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["certificate_note"] in ("certified", "certification infeasible on sample")
        assert (out / "certificate.json").exists()

    def test_vip_that_overflows_exits_diverged_with_its_outputs(self, tmp_path):
        # G(x) = -1e200 x over the halfspace x <= 1 from x0 = -1: the first
        # step's norm overflows. The run ends diverged, skips the orbit
        # certificate, writes summary.json and trace.csv, and warns of nothing
        instance = write_json(
            tmp_path / "vip.json",
            {
                "type": "vip",
                "C": {"variant": "halfspace", "normal": [1.0], "offset": 1.0},
                "G": {"variant": "affine", "matrix": [[-1e200]], "offset": [0.0]},
                "gamma": 1.0,
            },
        )
        out = tmp_path / "o"
        result = run_cli("vip", "--input", instance, "--out", str(out), "--lambda", "1", "--x0=-1")
        assert result.returncode == cli.EXIT_DIVERGED
        assert result.stderr == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "diverged"
        assert summary["certificate_note"] == "certification skipped: the iteration diverged"
        # G overflows at the point the run ends on: an infinite residual holds nothing
        assert summary["vi_residual"] == math.inf and summary["vi_ok"] is False
        assert "vi_ok=False" in result.stdout
        assert (out / "trace.csv").read_text().splitlines()[-1].startswith("1,")


class TestErrors:
    def test_ragged_matrix_rows_field_message(self, tmp_path):
        instance = write_json(
            tmp_path / "bad.json",
            {
                "type": "sfp",
                "C": {"variant": "box", "lower": [0, 0], "upper": [1, 1]},
                "Q": {"variant": "box", "lower": [2, 2], "upper": [3, 3]},
                "A": [[2, 0], [0]],
                "gamma": 0.25,
            },
        )
        result = run_cli("sfp", "--input", instance, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert "instance.A" in result.stderr
        assert "inconsistent lengths" in result.stderr

    @pytest.mark.parametrize("domain", [[0], [0, 1, 2], {"lo": 0}], ids=["short", "long", "object"])
    def test_bad_scale_domain_is_a_configuration_error(self, tmp_path, domain):
        mapping = write_json(tmp_path / "scale.json", {"variant": "scale_1d", "c": 0.5, "domain": domain})
        result = run_cli("certify", "--input", mapping, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert "mapping.domain: expected [lo, hi]" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("value", [True, "0.5"], ids=["true", "string"])
    @pytest.mark.parametrize(
        "command, payload, named",
        [
            ("certify", {"variant": "scale_1d", "domain": [0, 1]}, "mapping.c"),
            ("vip", {"type": "vip", "C": {"variant": "box", "lower": [0], "upper": [2]},
                     "G": {"variant": "reflection_1d"}}, "instance.gamma"),
            ("sfp", {"type": "sfp", "C": {"variant": "box", "lower": [0, 0], "upper": [1, 1]},
                     "Q": {"variant": "ball", "center": [2, 2]}, "A": [[2, 0], [0, 2]], "gamma": 0.25},
             "instance.Q.radius"),
        ],
        ids=["scale_c", "vip_gamma", "ball_radius"],
    )
    def test_a_float_field_that_is_not_a_number_exits_1(self, tmp_path, command, payload, named, value):
        # ``named`` is the field's path below the file's top level, which sets ``value``
        *parents, field = named.split(".")[1:]
        payload = json.loads(json.dumps(payload))
        node = payload
        for key in parents:
            node = node[key]
        node[field] = value
        path = write_json(tmp_path / "input.json", payload)
        result = run_cli(command, "--input", path, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert f"{named}: expected a number, got {value!r}" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("value", [True, "0.5"], ids=["true", "string"])
    @pytest.mark.parametrize(
        "command, payload, path, named",
        [
            ("certify", {"variant": "affine", "matrix": [[0.5]], "offset": [0.0]}, ("offset", 0), "mapping.offset"),
            ("certify", {"variant": "affine", "matrix": [[0.5]], "offset": [0.0]},
             ("matrix", 0, 0), "mapping.matrix"),
            ("vip", {"type": "vip", "C": {"variant": "box", "lower": [0], "upper": [2]},
                     "G": {"variant": "reflection_1d"}, "gamma": 0.5}, ("C", "lower", 0), "instance.C.lower"),
        ],
        ids=["affine_offset", "affine_matrix", "box_lower"],
    )
    def test_an_array_field_that_is_not_numbers_exits_1(self, tmp_path, command, payload, path, named, value):
        payload = json.loads(json.dumps(payload))
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        data = write_json(tmp_path / "input.json", payload)
        result = run_cli(command, "--input", data, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert f"{named}: expected numbers, got {value!r}" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "field, value", [("breakpoints", [0, float("nan"), 1]), ("slopes", [float("nan"), 0.5])]
    )
    def test_a_piecewise_table_with_a_nan_entry_exits_1(self, tmp_path, field, value):
        # json writes and reads NaN; the table refuses it as AffineMap refuses
        # a non-finite entry
        payload = {"variant": "piecewise_table", "breakpoints": [0, 0.5, 1], "slopes": [0.5, 0.5],
                   "intercepts": [0, 0]}
        payload[field] = value
        mapping = write_json(tmp_path / "table.json", payload)
        result = run_cli("certify", "--input", mapping, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert "piecewise table entries must be finite" in result.stderr
        assert "Traceback" not in result.stderr

    def test_sample_bounds_without_an_axis_exit_1(self, tmp_path, reflection_json):
        config = write_json(tmp_path / "config.json", {"sample": {"bounds": []}})
        result = run_cli(
            "certify", "--input", reflection_json, "--config", config, "--out", str(tmp_path / "o")
        )
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert "at least one axis" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["sfp", "vip"])
    def test_an_instance_that_is_not_an_object_exits_1(self, tmp_path, command):
        five = write_json(tmp_path / "five.json", 5)
        result = run_cli(command, "--input", five, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert "instance: expected an object" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_input(self, tmp_path):
        result = run_cli("solve", "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert "no input" in result.stderr

    def test_malformed_json_reports_path(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        result = run_cli("solve", "--input", str(bad), "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert "broken.json" in result.stderr


class TestBench:
    def test_reflection_sweep(self, tmp_path, reflection_json):
        out = tmp_path / "bench"
        result = run_cli(
            "bench", "--input", reflection_json, "--out", str(out),
            "--x0", "0.0", "--tol", "1e-8", "--max-iter", "500",
        )
        assert result.returncode == cli.EXIT_OK, result.stderr
        rows = (out / "bench.csv").read_text().strip().splitlines()[1:]
        parsed = [row.split(",") for row in rows]
        lambdas = [float(r[0]) for r in parsed]
        assert lambdas == sorted(lambdas)
        summary = json.loads((out / "summary.json").read_text())
        # the error factor |1 - 2 lam| vanishes at lam = 0.5: one step
        assert summary["fastest_lambda"] == 0.5
        by_lambda = {float(r[0]): (int(r[1]), bool(int(r[2]))) for r in parsed}
        assert by_lambda[0.5] == (1, True)
        assert by_lambda[1.0][1] is False  # period-2 orbit never converges
        assert summary["non_convergent"] == [1.0]

    def test_scale_half_prefers_full_step(self, tmp_path):
        mapping = write_json(
            tmp_path / "half.json", {"variant": "scale_1d", "c": 0.5, "domain": [0.0, 1.0]}
        )
        config = write_json(
            tmp_path / "bench.json",
            {"fixed_point": [0.0], "x0": [1.0], "solver": {"tol": 1e-8, "max_iter": 500}},
        )
        out = tmp_path / "bench_out"
        result = run_cli("bench", "--input", mapping, "--config", config, "--out", str(out))
        assert result.returncode == cli.EXIT_OK, result.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fastest_lambda"] == 1.0
        assert summary["non_convergent"] == []

    def test_refused_reference_solve_exits_4(self, tmp_path):
        # without a fixed_point the reference solve runs auto lambda, which
        # factor-1/2 scaling cannot certify
        mapping = write_json(
            tmp_path / "half.json", {"variant": "scale_1d", "c": 0.5, "domain": [0.0, 1.0]}
        )
        result = run_cli("bench", "--input", mapping, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CERT_INFEASIBLE
        assert "refused" in result.stderr

    def test_loose_tolerance_zero_iterations(self, tmp_path, reflection_json):
        out = tmp_path / "bench0"
        result = run_cli(
            "bench", "--input", reflection_json, "--out", str(out),
            "--x0", "0.4", "--tol", "10.0",
        )
        assert result.returncode == cli.EXIT_OK
        rows = (out / "bench.csv").read_text().strip().splitlines()[1:]
        assert all(int(row.split(",")[1]) == 0 for row in rows)


class TestDeterminism:
    def test_solve_outputs_byte_identical(self, tmp_path, reflection_json):
        config = write_json(
            tmp_path / "run.json",
            {
                "x0": [0.0],
                "solver": {"lambda": 2.0 / 3.0, "tol": 1e-10, "max_iter": 100, "rate": 1.0 / 3.0},
                "sample": {"seed": 0},
            },
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            result = run_cli(
                "solve", "--input", reflection_json, "--config", config, "--out", str(out)
            )
            assert result.returncode == cli.EXIT_OK
            outs.append(out)
        a, b = outs
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        assert "timestamp" in sa
        sa.pop("timestamp")
        sb.pop("timestamp")
        assert json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True)

    def test_sfp_outputs_byte_identical(self, tmp_path, sfp_json):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            result = run_cli(
                "sfp", "--input", sfp_json, "--out", str(out),
                "--lambda", "0.5", "--x0", "0,0", "--seed", "7",
            )
            assert result.returncode == cli.EXIT_OK
            outs.append(out)
        a, b = outs
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "certificate.json").read_bytes() == (b / "certificate.json").read_bytes()
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        sa.pop("timestamp")
        sb.pop("timestamp")
        assert json.dumps(sa, sort_keys=True) == json.dumps(sb, sort_keys=True)


SOLVE_FLAGS = {
    "--config", "--input", "--out", "--seed", "--tol", "--max-iter",
    "--lambda", "--x0", "--k-grid", "--stop-rule",
}
COMMAND_FLAGS = {
    "certify": {"--config", "--input", "--out", "--seed", "--k-grid"},
    "solve": SOLVE_FLAGS,
    "sfp": SOLVE_FLAGS | {"--gamma"},
    "vip": SOLVE_FLAGS,
    "demo": {"--config", "--out", "--seed", "--tol", "--max-iter"},
    "bench": {"--config", "--input", "--out", "--seed", "--tol", "--max-iter", "--x0", "--lambdas"},
}


class TestFlagsAndValues:
    def test_each_command_takes_exactly_its_flags(self):
        (subparsers,) = [
            action for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        taken = {
            name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert taken == COMMAND_FLAGS
        assert sum(len(flags) for flags in taken.values()) == 49

    @pytest.mark.parametrize(
        "argv, commands",
        [
            (["sfp", "--gamma", "1"], {"sfp": COMMAND_FLAGS["sfp"]}),
            (["sfp", "solve"], {"sfp": COMMAND_FLAGS["sfp"]}),
            # no command first: every command, with flags for those named
            (["--help"], {name: set() for name in COMMAND_FLAGS}),
            (["bogus", "solve"], {name: COMMAND_FLAGS["solve"] if name == "solve" else set() for name in COMMAND_FLAGS}),
        ],
    )
    def test_the_first_command_alone_gets_a_parser(self, argv, commands):
        (subparsers,) = [
            action for action in cli._build_parser(argv)._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        taken = {
            name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert taken == commands
        assert list(taken) == [name for name in cli._COMMANDS if name in commands]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            *([command, "--help"] for command in COMMAND_FLAGS),
            [],
            ["nosuch"],
            ["bogus", "solve"],
            ["solve", "--nosuch", "1"],
            ["certify", "--gamma", "1"],
            ["solve", "--tol"],
            ["--", "solve", "--tol", "1e-3"],
            ["solve", "--", "--tol", "1e-3"],
        ],
    )
    def test_the_parser_of_the_named_commands_answers_as_the_full_one(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        # stdout, stderr and the exit code, byte for byte; no command runs
        # far enough to write output, since none has an input
        monkeypatch.chdir(tmp_path)

        def outcome():
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            out, err = capsys.readouterr()
            return code, out, err

        lazy = outcome()
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv=None: build())
        assert outcome() == lazy
        assert lazy[0] in (("exit", 0), cli.EXIT_CONFIG_ERROR)
        assert "Traceback" not in lazy[2]

    @pytest.mark.parametrize(
        "command, flags, config, named",
        [
            ("sfp", ["--lambda", "abc"], None, "--lambda"),
            ("sfp", ["--gamma", "abc"], None, "--gamma"),
            ("solve", ["--tol", "abc"], None, "--tol"),
            ("solve", ["--seed", "x"], None, "--seed"),
            ("solve", ["--k-grid", "0,a"], None, "--k-grid"),
            ("solve", [], {"solver": {"max_iter": "x"}}, "solver.max_iter"),
            ("certify", [], {"sample": {"bounds": [["a", 1]]}}, "sample.bounds"),
            ("solve", ["--lambda", "0.5"], {"solver": {"rate": "x"}}, "solver.rate"),
            ("bench", [], {"lambdas": ["a"]}, "lambdas"),
            ("solve", [], {"solver": {"stop_rule": "aposteriori"}}, "solver.stop_rule"),
            ("solve", ["--stop-rule", "aposteriori"], None, "--stop-rule"),
            ("solve", ["--x0", "0,0"], None, "--x0"),
            ("bench", [], {"x0": [0.5, 7.0]}, "x0"),
            ("bench", [], {"fixed_point": [0.5, 7.0]}, "fixed_point"),
        ],
    )
    def test_bad_value_is_a_configuration_error(
        self, tmp_path, reflection_json, sfp_json, command, flags, config, named
    ):
        argv = [command, "--input", sfp_json if command == "sfp" else reflection_json, *flags]
        if config is not None:
            argv += ["--config", write_json(tmp_path / "cfg.json", config)]
        result = run_cli(*argv, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert result.stderr.startswith(f"configuration error: {named}: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "command, config, named",
        [
            ("solve", {"solver": {"tol": True, "max_iter": True}}, "solver.tol"),
            ("solve", {"solver": {"max_iter": True}}, "solver.max_iter"),
            ("solve", {"solver": {"lambda": True}}, "solver.lambda"),
            ("solve", {"solver": {"lambda": 0.5, "rate": False}}, "solver.rate"),
            ("solve", {"sample": {"seed": False}}, "sample.seed"),
            ("solve", {"k_grid": [0.5, True]}, "k_grid"),
            ("solve", {"x0": [True]}, "x0"),
            ("certify", {"sample": {"bounds": [[0, True]]}}, "sample.bounds"),
            ("certify", {"sample": {"grid_points": True}}, "sample.grid_points"),
            ("bench", {"lambdas": [True, 0.5]}, "lambdas"),
        ],
    )
    def test_a_boolean_setting_is_a_configuration_error(
        self, tmp_path, reflection_json, capsys, command, config, named
    ):
        # float(True) and int(True) are 1: a config of {"solver": {"tol": true,
        # "max_iter": true}} ran solve with tol 1.0 and 1 iteration, and exited 0
        out = tmp_path / "o"
        argv = [command, "--input", reflection_json, "--config", write_json(tmp_path / "cfg.json", config)]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"configuration error: {named}: expected no boolean, got ")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "command, config, named",
        [
            ("solve", {"sample": {"seed": 1.9}}, "sample.seed"),
            ("solve", {"sample": {"seed": float("inf")}}, "sample.seed"),
            ("solve", {"solver": {"max_iter": 10.5}}, "solver.max_iter"),
            ("certify", {"sample": {"grid_points": 101.5}}, "sample.grid_points"),
            ("certify", {"sample": {"random_points": 0.5}}, "sample.random_points"),
        ],
    )
    def test_a_fractional_integer_setting_is_a_configuration_error(
        self, tmp_path, reflection_json, capsys, command, config, named
    ):
        # int() truncates: {"sample": {"seed": 1.9}} ran with seed 1, and
        # summary.json recorded "seed": 1
        out = tmp_path / "o"
        argv = [command, "--input", reflection_json, "--config", write_json(tmp_path / "cfg.json", config)]
        assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith(f"configuration error: {named}: expected an integer, got ")
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["certify", "solve", "sfp", "vip", "demo", "bench"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_a_negative_seed_is_a_configuration_error(
        self, tmp_path, reflection_json, sfp_json, capsys, command, where
    ):
        # numpy refused it with a traceback; bench ran and recorded "seed": -1
        vip = {"type": "vip", "C": {"variant": "box", "lower": [0], "upper": [2]},
               "G": {"variant": "affine", "matrix": [[1]], "offset": [-1]}, "gamma": 0.5}
        inputs = {"sfp": sfp_json, "vip": write_json(tmp_path / "vip.json", vip)}
        argv = [command, "--out", str(tmp_path / "o")]
        if command != "demo":
            argv += ["--input", inputs.get(command, reflection_json)]
        if command == "solve":
            argv += ["--lambda", "auto"]
        if where == "flag":
            argv += ["--seed", "-1"]
            named = "--seed"
        else:
            argv += ["--config", write_json(tmp_path / "cfg.json", {"sample": {"seed": -1}})]
            named = "sample.seed"
        assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == f"configuration error: {named}: expected a non-negative integer, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_a_negative_seed_exits_1_without_a_traceback(self, tmp_path, reflection_json):
        result = run_cli("certify", "--input", reflection_json, "--seed", "-1", "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert result.stderr == "configuration error: --seed: expected a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "sample, message",
        [
            ({"grid_points": -1, "bounds": [[0, 1], [0, 1]]}, "grid_points must be >= 0, got -1"),
            ({"random_points": -3, "bounds": [[0, 1], [0, 1]]}, "random_points must be >= 0, got -3"),
        ],
    )
    def test_a_negative_sample_count_exits_1(self, tmp_path, sample, message):
        # grid_points -1 raised a TypeError on (-1) ** 0.5; random_points -3
        # ran and described its sample as "+ -3 random pts"
        mapping = write_json(tmp_path / "affine.json", {"variant": "affine", "matrix": [[0.5, 0], [0, 0.5]], "offset": [0, 0]})
        config = write_json(tmp_path / "cfg.json", {"sample": sample})
        result = run_cli("certify", "--input", mapping, "--config", config, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert result.stderr == f"error: {message}\n"

    def test_sfp_auto_lambda_on_a_30d_ball_never_fails_to_sample(self, tmp_path, capsys):
        # the ball's share of its bounding box is about 2e-14: the sample in C
        # for auto lambda used to raise "rejection sampling failed to fill"
        d = 30
        instance = {
            "type": "sfp",
            "C": {"variant": "ball", "center": [0.0] * d, "radius": 1.0},
            "Q": {"variant": "ball", "center": [0.1] * d, "radius": 0.5},
            "A": np.eye(d).tolist(),
        }
        argv = ["sfp", "--input", write_json(tmp_path / "sfp30.json", instance), "--lambda", "auto",
                "--x0", ",".join(["1"] * d), "--seed", "2", "--out", str(tmp_path / "o")]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_CERT_INFEASIBLE), err
        if code == cli.EXIT_CERT_INFEASIBLE:
            assert err == "auto lambda refused: no feasible certificate on 200 seeded pts in C (seed 2)\n"
        else:
            assert (tmp_path / "o" / "certificate.json").exists()

    def test_an_integral_number_is_an_integer_setting(self, tmp_path, reflection_json):
        out = tmp_path / "o"
        config = write_json(tmp_path / "cfg.json", {"sample": {"seed": 3.0}, "solver": {"max_iter": 50.0}})
        assert cli.main(["solve", "--input", reflection_json, "--config", config, "--out", str(out)]) == cli.EXIT_OK
        assert json.loads((out / "summary.json").read_text())["seed"] == 3

    @pytest.mark.parametrize(
        "argv",
        [["demo", "--gamma", "7"], ["certify", "--tol", "1"], ["bench", "--lambda", "0.3"],
         ["solve", "--bogus", "1"], ["solve", "--max", "5"]],
    )
    def test_untaken_or_abbreviated_flag_exits_1(self, tmp_path, reflection_json, argv):
        result = run_cli(*argv, "--input", reflection_json, "--out", str(tmp_path / "o"))
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert result.stderr.startswith(
            f"configuration error: unrecognized arguments: {' '.join(argv[1:])}"
        )
        assert not (tmp_path / "o").exists()

    def test_missing_command_exits_1_and_help_exits_0(self):
        assert run_cli().returncode == cli.EXIT_CONFIG_ERROR
        result = run_cli("sfp", "--help")
        assert result.returncode == cli.EXIT_OK
        assert "--gamma" in result.stdout

    def test_help_and_an_unknown_command_list_every_command(self):
        # the parser then adds all six commands, in their order, as the full one does
        listed = "{" + ",".join(cli._COMMANDS) + "}"
        result = run_cli("--help")
        assert result.returncode == cli.EXIT_OK and listed in result.stdout
        result = run_cli("bogus", "solve")
        assert result.returncode == cli.EXIT_CONFIG_ERROR
        assert result.stderr.startswith("configuration error: argument command: invalid choice: 'bogus'")
        assert all(f"'{name}'" in result.stderr for name in cli._COMMANDS)
        assert "Traceback" not in result.stderr

    def test_bad_value_returns_1_in_process(self, tmp_path, sfp_json, capsys):
        argv = ["sfp", "--input", sfp_json, "--out", str(tmp_path / "o"), "--lambda", "abc"]
        assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("configuration error: --lambda: ")

    def test_bad_x0_is_refused_before_auto_lambda_certifies(
        self, tmp_path, reflection_json, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(solve, "certify_for_auto", lambda *a, **kw: calls.append(a))
        argv = ["solve", "--input", reflection_json, "--out", str(tmp_path / "o"),
                "--x0", "0,0", "--lambda", "auto"]
        assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("configuration error: --x0: ")
        assert calls == []

    def test_sfp_auto_lambda_runs_power_iteration_once(self, tmp_path, sfp_json, monkeypatch):
        calls = []
        real = apps.power_iteration
        monkeypatch.setattr(apps, "power_iteration", lambda *a, **kw: calls.append(a) or real(*a, **kw))
        argv = ["sfp", "--input", sfp_json, "--out", str(tmp_path / "o"), "--lambda", "auto", "--x0", "0,0"]
        assert cli.main(argv) == cli.EXIT_OK
        assert len(calls) == 1
