import json
import math
import os
import subprocess
import sys

import pytest

import khab
from khab.cli import _build_parser, _emit_json, main
from khab.counterexample import CounterexampleSpec, verify
from khab.quad import QuadResult
from khab.transition import bridge_integral, build_transition

T0 = 0.6**0.25


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def child_env() -> dict:
    """The environment of a ``python -m khab.cli`` process on this khab."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(khab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestTransitionCommand:
    def test_headline_values(self, capsys):
        code, out, _ = run(capsys, ["transition", "--n", "2", "--alpha", "2", "--t", "1"])
        assert code == 0
        assert "phi(1) = 4" in out
        assert "0.8801117368" in out

    def test_order_zero(self, capsys):
        code, out, _ = run(capsys, ["transition", "--n", "1", "--alpha", "1", "--t", "1"])
        assert code == 0
        assert "phi(1) = 1" in out
        assert "none" in out  # no sign boundary

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["transition", "--n", "2", "--alpha", "2", "--t", "1", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["p_coeffs"] == [-3.0, 5.0]
        assert data["values"][0]["phi"] == pytest.approx(4.0)

    def test_tol_refused(self, capsys):
        # the sign boundaries are located to a fixed 1e-13 relative accuracy,
        # so a tolerance would be read by nothing
        argv = ["transition", "--n", "7", "--alpha", "3", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(json.loads(out)["boundaries"]) == 5
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--tol", "1e-15"])
        assert excinfo.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_usage_error_on_bad_alpha(self, capsys):
        for alpha in ("-1", "inf", "nan"):
            with pytest.raises(SystemExit) as excinfo:
                main(["transition", "--alpha", alpha])
            assert excinfo.value.code == 2
            assert "--alpha must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_t_not_finite_is_usage_error(self, capsys, t):
        # JSON has no token for inf or nan: the value must stop at the parser
        with pytest.raises(SystemExit) as excinfo:
            main(["transition", "--t", t, "--format", "json"])
        assert excinfo.value.code == 2
        assert "--t must be finite and > 0" in capsys.readouterr().err


class TestConstantsCommand:
    def test_headline_pair(self, capsys):
        code, out, _ = run(capsys, ["constants", "--n", "2", "--alpha", "2"])
        assert code == 0
        assert "19.65507202" in out
        # C and the negative part carry their rounding bound
        lines = out.splitlines()
        assert lines[0].startswith("C(2, 2) = 19.65507202 (+/- ")
        assert lines[2].startswith("negative-part integral   = -0.805516099 (+/- ")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, ["constants", "--n", "2", "--alpha", "2", "--format", "json"]
        )
        data = json.loads(out)
        assert data["c_upper"] == pytest.approx(19.65507202, abs=1e-6)

    def test_n_below_one_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["constants", "--n", "0"])
        assert excinfo.value.code == 2
        assert "--n must be >= 1" in capsys.readouterr().err

    def test_residual_case_exits_zero(self, capsys):
        # once refused with a spurious decomposition residual
        code, out, _ = run(
            capsys, ["constants", "--n", "5", "--alpha", "0.6731", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["m_minus_integral"] <= 0.0

    def test_once_refused_case_returns_the_reference(self, capsys):
        # refused while d was summed from rounded terms; the reference is
        # the tests' constants_cosine_mp(60, 3.0), 50 digits from the exact P
        code, out, _ = run(
            capsys, ["constants", "--n", "60", "--alpha", "3", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["c_upper"] - 2.282822654561148e19) <= 1e-14 * data["c_upper"]
        assert data["c_upper_error"] <= 1e-11 * data["c_upper"]

    def test_huge_alpha_returns_the_reference(self, capsys):
        # once 9.90e94 with exit 0, from boundaries rounded to t ~ 1; the
        # reference is the tests' constants_cosine_mp(6, 1e16)
        code, out, _ = run(
            capsys, ["constants", "--n", "6", "--alpha", "1e16", "--format", "json"]
        )
        assert code == 0
        c = json.loads(out)["c_upper"]
        assert abs(c - 3.98537866186487e95) <= 1e-14 * c


class TestOutOfRange:
    # past the supported order, or where P leaves the float range, a CLI
    # process fails at once with an error line and no traceback
    @pytest.mark.parametrize("argv", [
        ["constants", "--n", "200", "--alpha", "3"],
        ["transition", "--n", "400"],
        ["constants", "--n", "3", "--alpha", "1e300"],
        ["transition", "--n", "3", "--alpha", "1e300", "--format", "json"],
        # C overflows a float: once an OverflowError traceback from fsum,
        # "-inf + inf in fsum", or "C(1, 1e+308) = nan"
        ["constants", "--n", "2", "--alpha", "6e153"],
        ["constants", "--n", "2", "--alpha", "1e154"],
        ["constants", "--n", "2", "--alpha", "2e154"],
        ["constants", "--n", "2", "--alpha", "1e300"],
        ["constants", "--n", "1", "--alpha", "1e308"],
        ["identity", "--n", "172"],
        # once -831.8 at y = 0.25 with exit 0; the panel budget runs out there
        ["identity", "--n", "2", "--alpha", "300"],
        ["identity", "--n", "3", "--alpha", "1e300"],
    ])
    def test_exits_one_without_traceback(self, argv):
        done = subprocess.run([sys.executable, "-m", "khab.cli", *argv],
                              env=child_env(), capture_output=True, text=True,
                              timeout=5)
        assert done.returncode == 1
        assert done.stderr.startswith(("error: ", "quadrature failure: "))
        assert len(done.stderr.splitlines()) == 1
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["--n", "172", "--inverse"], "n <= 171"),
        (["--n", "2000", "--direct", "--t", "2"], "n <= 171"),
        (["--n", "26", "--direct", "--t", "3"], "n <= 25"),
        (["--n", "60", "--direct", "--t", "3"], "n <= 25"),
    ])
    def test_convert_order_beyond_range(self, tmp_path, argv, message):
        # once, an OverflowError traceback from (n - 1)! or C(n, k); and at
        # n = 60, g(3) = -0.114 against a true 1.2e-3 from cancelling terms
        q_file = tmp_path / "q.json"
        q_file.write_text(json.dumps({"breakpoints": [], "pieces": [[0, 0, 1]]}))
        done = subprocess.run(
            [sys.executable, "-m", "khab.cli", "convert", *argv, "--input", str(q_file)],
            env=child_env(), capture_output=True, text=True, timeout=5,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error:")
        assert message in done.stderr and "Traceback" not in done.stderr
        assert len(done.stderr.splitlines()) == 1 and done.stdout == ""

    @pytest.mark.parametrize("q, argv, message", [
        # once an OverflowError traceback from b ** (j + k + 1)
        ({"breakpoints": [1e300], "pieces": [[0, 1], [1e300, 1e300]]},
         ["--n", "3", "--t", "1e308"], "overflows a float"),
        # once g(1000) = inf with exit 0; the true value is about 6e327
        ({"breakpoints": [], "pieces": [[0] * 10 + [1e300]]},
         ["--n", "5", "--t", "1000"], "not a finite float"),
    ])
    def test_convert_direct_beyond_float_range(self, tmp_path, q, argv, message):
        q_file = tmp_path / "q.json"
        q_file.write_text(json.dumps(q))
        done = subprocess.run(
            [sys.executable, "-m", "khab.cli", "convert", "--direct", *argv,
             "--input", str(q_file)],
            env=child_env(), capture_output=True, text=True, timeout=5,
        )
        assert done.returncode == 1 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.startswith("error:") and message in line

    def test_help_states_n_range(self, capsys):
        with pytest.raises(SystemExit):
            main(["constants", "--help"])
        assert "1 <= n <= 171" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["convert", "--help"])
        assert "1 <= n <= 171" in capsys.readouterr().out


class TestCounterexampleCommand:
    def test_full_deformation_verifies(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--epsilon", "1"])
        assert code == 0
        assert "CONJECTURE VIOLATED" in out
        assert "18.86255036" in out
        assert "0.01299443" in out

    def test_equality_case(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--epsilon", "0"])
        assert code == 0
        assert "equality case, no violation" in out

    def test_json_round_trips_bit_exactly(self, capsys):
        code, out, _ = run(
            capsys, ["counterexample", "--epsilon", "1", "--format", "json"]
        )
        assert code == 0
        parsed = json.loads(out)
        report = verify(CounterexampleSpec(1.0), 1e-9)
        assert parsed["lhs"]["value"] == report.lhs_integral.value
        assert parsed["delta_I"]["value"] == report.delta_I.value
        assert parsed["c_upper"] == report.c_upper
        assert parsed["violation_margin"] == report.violation_margin
        assert parsed["rhs_conjecture"] == report.rhs_conjecture

    def test_kink_crossing_eps_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--epsilon", "0.145"])
        assert code == 0
        assert "premise holds: True" in out

    def test_epsilon_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["counterexample", "--epsilon", "2"])
        assert excinfo.value.code == 2


class TestVerificationFailureExit:
    def test_uncertifiable_violation_exits_one(self, capsys):
        # coarse tolerance swamps the tiny excess (1.3e-9 against an lhs
        # error of 6.9e-9), so nothing is certified; eps = 1e-6 (1.3e-8) is
        # certified since the lhs takes its part beyond t0 in closed form
        code, out, _ = run(
            capsys, ["counterexample", "--epsilon", "1e-7", "--tol", "1e-3"]
        )
        assert code == 1
        assert "no violation detected" in out
        # an excess of 1.3e-5 stands clear of the same error
        code, _, _ = run(
            capsys, ["counterexample", "--epsilon", "0.001", "--tol", "1e-3"]
        )
        assert code == 0

    def test_quadrature_failure_exits_one(self, capsys):
        code, _, err = run(
            capsys,
            ["identity", "--n", "2", "--alpha", "2", "--y", "1", "--tol", "1e-16"],
        )
        assert code == 1
        assert "quadrature failure" in err

    @pytest.mark.parametrize("alpha", ["1e-5", "0.01", "0.015"])
    def test_mass_beyond_float_range_is_integrated(self, capsys, alpha):
        # the integrand's mass lies near t = DBL_MAX and beyond, where a
        # half-line map in t once refused a panel; in theta it sits near pi/4
        code, out, _ = run(capsys, ["identity", "--n", "1", "--alpha", alpha,
                                    "--y", "1", "--format", "json"])
        assert code == 0
        residual = json.loads(out)["rows"][0]["residual"]
        est = bridge_integral(build_transition(0, float(alpha)), 1.0, 1e-9)
        assert abs(residual) <= est.abs_error_estimate

    def test_counterexample_stage_failure_is_not_a_verdict(self, capsys):
        # the tolerance cannot be met: verify raises at the first stage that
        # fails, so no report with NaN values or a bound verdict is printed
        code, out, err = run(capsys, ["counterexample", "--tol", "1e-16"])
        assert code == 1
        assert "quadrature failure: panel budget" in err
        assert "exceeds C(n, alpha)" not in out
        assert "nan" not in out


class TestReportCommand:
    def test_defaults_to_json(self, capsys):
        code, out, _ = run(capsys, ["report", "--epsilon", "1"])
        assert code == 0
        data = json.loads(out)
        assert set(data) >= {
            "params",
            "premise",
            "lhs",
            "rhs_conjecture",
            "delta_I",
            "c_upper",
            "violation_margin",
            "bound_ok",
        }
        assert data["bound_ok"] is True


class TestIdentityCommand:
    def test_single_point(self, capsys):
        code, out, _ = run(
            capsys, ["identity", "--n", "2", "--alpha", "2", "--y", "1"]
        )
        assert code == 0
        assert "0.6931471806" in out

    def test_json_residuals_small(self, capsys):
        code, out, _ = run(
            capsys,
            ["identity", "--n", "1", "--alpha", "1", "--y", "2", "--format", "json"],
        )
        data = json.loads(out)
        row = data["rows"][0]
        assert row["target"] == pytest.approx(math.log(1.25), rel=1e-12)
        assert abs(row["residual"]) <= 1e-8

    def test_ln3_case(self, capsys):
        code, out, _ = run(
            capsys,
            ["identity", "--n", "3", "--alpha", "0.5", "--y", "0.5", "--format", "json"],
        )
        row = json.loads(out)["rows"][0]
        assert row["target"] == pytest.approx(math.log(3.0), rel=1e-12)
        assert abs(row["residual"]) <= 1e-8

    @pytest.mark.parametrize("n", ["40", "171"])
    @pytest.mark.parametrize("alpha", ["0.3", "1"])
    def test_high_order(self, capsys, n, alpha):
        # orders where a kernel that cancels exhausts the panel budget
        code, out, _ = run(capsys, ["identity", "--n", n, "--alpha", alpha,
                                    "--format", "json"])
        assert code == 0
        assert max(abs(row["residual"]) for row in json.loads(out)["rows"]) <= 1e-9

    def test_gross_residual_names_y_residual_and_estimate(self, capsys, monkeypatch):
        # no input is known to trip the refusal in theta, so the integral is
        # replaced by one 1e-3 off with an estimate of 1e-10
        import khab.cli as cli

        def gross(tf, y, tol):
            return QuadResult(bridge_integral(tf, y, tol).value + 1e-3, 1e-10, 1)

        monkeypatch.setattr(cli, "bridge_integral", gross)
        code, out, err = run(capsys, ["identity", "--n", "2", "--alpha", "3"])
        assert code == 1 and out == ""
        assert err.startswith("error: identity at y = 0.25: residual 1.000e-03 ")
        assert "quadrature error estimate 1.000e-10" in err

    @pytest.mark.parametrize("alpha", ["1e-6", "3e4"])
    def test_extreme_alpha_within_tol(self, capsys, alpha):
        # once -ln 2 and 4.8e-107 against ln 2, in one accepted panel
        code, out, _ = run(capsys, ["identity", "--n", "1", "--alpha", alpha,
                                    "--y", "1", "--format", "json"])
        assert code == 0
        assert abs(json.loads(out)["rows"][0]["residual"]) <= 1e-9

    # 63 cases over alpha from 1e-6 to 3e4: 27 exited 0 in a half-line map
    # in t; in theta all but four exit 0 within the gate, and those four run
    # out of panels
    _BUDGET = {(3, "300", "0.5"), (8, "300", "0.5"), (3, "3e4", "0.5"), (8, "3e4", "0.5")}

    @pytest.mark.parametrize("alpha", ["1e-6", "1e-3", "0.01", "0.3", "3", "300", "3e4"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_wide_alpha_grid(self, capsys, n, alpha):
        for y in ("0.5", "1", "4"):
            code, out, err = run(capsys, ["identity", "--n", str(n), "--alpha", alpha,
                                          "--y", y, "--format", "json"])
            if (n, alpha, y) in self._BUDGET:
                assert code == 1 and out == ""
                assert err.count("\n") == 1
                assert err.startswith("quadrature failure: panel budget")
                continue
            assert code == 0, err
            row = json.loads(out)["rows"][0]
            assert abs(row["residual"]) <= 1e-10 * max(1.0, abs(row["target"]))

    @pytest.mark.parametrize("y", ["0.25", "0.5", "1", "2", "4"])
    def test_few_panels_at_small_alpha(self, capsys, monkeypatch, y):
        # a half-line map in t once took 113 GK15 panels per y here
        import khab.quad as quad

        calls = []
        gk15 = quad._gk15

        def counting(f, a, b):
            calls.append((a, b))
            return gk15(f, a, b)

        monkeypatch.setattr(quad, "_gk15", counting)
        code, _, _ = run(capsys, ["identity", "--n", "1", "--alpha", "0.3", "--y", y])
        assert code == 0
        assert len(calls) < 80

    @pytest.mark.parametrize("y", ["inf", "nan"])
    def test_y_not_finite_is_usage_error(self, capsys, y):
        with pytest.raises(SystemExit) as excinfo:
            main(["identity", "--y", y])
        assert excinfo.value.code == 2
        assert "--y must be finite and > 0" in capsys.readouterr().err


class TestConvertCommand:
    def test_inverse_then_direct(self, capsys, tmp_path):
        g_file = tmp_path / "g.json"
        g_file.write_text(json.dumps({"breakpoints": [], "pieces": [[0, 0, 1]]}))
        code, out, _ = run(capsys, ["convert", "--inverse", "--n", "2", "--input", str(g_file)])
        assert code == 0
        q = json.loads(out)
        assert q["pieces"] == [[0.0, 12.0]]

        q_file = tmp_path / "q.json"
        q_file.write_text(out)
        code, out, _ = run(
            capsys,
            ["convert", "--direct", "--n", "2", "--input", str(q_file),
             "--t", "2", "--format", "json"],
        )
        assert code == 0
        values = json.loads(out)["values"]
        assert values[0]["g"] == pytest.approx(4.0, abs=1e-8)

    def test_direct_without_t_is_usage_error(self, capsys, tmp_path):
        q_file = tmp_path / "q.json"
        q_file.write_text(json.dumps({"breakpoints": [], "pieces": [[0, 12]]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["convert", "--direct", "--n", "2", "--input", str(q_file)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("t", ["inf", "0", "nan", "-1"])
    def test_direct_t_not_finite_positive_is_usage_error(self, capsys, tmp_path, t):
        q_file = tmp_path / "q.json"
        q_file.write_text(json.dumps({"breakpoints": [], "pieces": [[0, 12]]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["convert", "--direct", "--n", "2", "--input", str(q_file), "--t", t])
        assert excinfo.value.code == 2
        assert "--t must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("text, fault", [
        ('{"breakpoints": []}', "'pieces'"),
        ('{"pieces": [[1]]}', "'breakpoints'"),
        ("[1, 2]", "must be an object"),
        ('{"breakpoints": [], "pieces": [1]}', "piece 0 must be a list"),
        ('{"breakpoints": [NaN], "pieces": [[1], [1]]}', "breakpoints must hold finite"),
        ('{"breakpoints": [Infinity], "pieces": [[1], [1]]}', "breakpoints must hold finite"),
        ('{"breakpoints": [], "pieces": [[NaN]]}', "piece 0 must hold finite"),
        ('{"breakpoints": [], "pieces": [["1"]]}', "piece 0 must hold finite"),
        ('{"breakpoints": [], "pieces": [[1e400]]}', "piece 0 must hold finite"),
        # an integer too large for a float, not a float literal that parses to inf
        ('{"breakpoints": [], "pieces": [[1' + "0" * 400 + ']]}', "piece 0 must hold finite"),
    ])
    @pytest.mark.parametrize("direction", [["--inverse"], ["--direct", "--t", "2"]])
    def test_malformed_input_is_one_error_line(self, capsys, tmp_path, text, fault,
                                               direction):
        # once, these ended in a KeyError or TypeError traceback, or printed
        # g(2) = 1 or nan with exit 0
        q_file = tmp_path / "q.json"
        q_file.write_text(text)
        code, out, err = run(capsys, ["convert", *direction, "--input", str(q_file)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert fault in err

    @pytest.mark.parametrize("flag", [["--t", "3"], ["--format", "text"], ["--format", "json"]])
    def test_inverse_refuses_what_it_does_not_read(self, capsys, flag):
        # --inverse evaluates nowhere and always prints JSON
        with pytest.raises(SystemExit) as excinfo:
            main(["convert", "--inverse", "--input", "g.json", *flag])
        assert excinfo.value.code == 2
        assert f"{flag[0]} is not read by convert --inverse" in capsys.readouterr().err

    def test_missing_file_is_runtime_error(self, capsys):
        code, _, err = run(
            capsys, ["convert", "--inverse", "--n", "2", "--input", "/nonexistent.json"]
        )
        assert code == 1
        assert "error" in err


class TestPlotdataCommand:
    @pytest.mark.parametrize("kind", ["R3", "h", "g", "q"])
    def test_sample_not_finite_exits_1(self, capsys, kind):
        # once, plotdata --kind q --to 1e308 printed 5e+307,inf with exit 0
        code, out, err = run(capsys, ["plotdata", "--kind", kind, "--to", "1e308",
                                      "--points", "3"])
        assert code == 1
        assert err == f"error: {kind}(5e+307) is not a finite float\n"
        assert "inf" not in out

    @pytest.mark.parametrize("bound", ["--from=-inf", "--to=inf", "--to=nan"])
    def test_range_not_finite_is_usage_error(self, capsys, bound):
        with pytest.raises(SystemExit) as excinfo:
            main(["plotdata", "--kind", "R3", bound])
        assert excinfo.value.code == 2
        assert "--from and --to must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "R3", "--points", "-1"], "--points must be >= 0"),
        (["--kind", "R3", "--from", "1", "--to", "0"], "--to must be >= --from"),
        (["--kind", "transition", "--from", "0"], "--from must be > 0"),
        (["--kind", "g", "--epsilon", "0.5", "--from", "-1", "--to", "1"],
         "--from must be >= 0 for kind=g"),
        (["--kind", "q", "--from", "-1", "--to", "0"], "--from must be >= 0 for kind=q"),
    ])
    def test_bad_sampling_is_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(["plotdata", *argv])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--kind", "R3", "--n", "9", "--alpha", "7", "--epsilon", "0.3"], "--n"),
        (["--kind", "R3", "--alpha", "7"], "--alpha"),
        (["--kind", "R3", "--epsilon", "0.3"], "--epsilon"),
        (["--kind", "h", "--n", "2"], "--n"),
        (["--kind", "g", "--alpha", "2"], "--alpha"),
        (["--kind", "q", "--n", "3"], "--n"),
        (["--kind", "transition", "--epsilon", "1"], "--epsilon"),
    ])
    def test_unread_flag_is_usage_error(self, capsys, argv, flag):
        # --n and --alpha shape only the transition curve, --epsilon only
        # g and q; given to another kind, even at its default, they are refused
        with pytest.raises(SystemExit) as excinfo:
            main(["plotdata", *argv])
        assert excinfo.value.code == 2
        assert f"{flag} is not read by plotdata --kind {argv[1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, flags, other", [
        ("g", ["--epsilon", "1"], ["--epsilon", "0.5"]),
        ("q", ["--epsilon", "1"], ["--epsilon", "0.5"]),
        ("transition", ["--n", "2", "--alpha", "2"], ["--n", "3", "--alpha", "1"]),
    ])
    def test_read_flags_default_and_take_effect(self, capsys, kind, flags, other):
        base = ["plotdata", "--kind", kind, "--points", "5"]
        default = run(capsys, base)
        assert default[0] == 0
        assert run(capsys, base + flags) == default
        assert run(capsys, base + other)[1] != default[1]

    def test_r3_curve(self, capsys):
        code, out, _ = run(
            capsys,
            ["plotdata", "--kind", "R3", "--from", "0", "--to", "1", "--points", "101"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 102
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == -2.0
        assert float(last[1]) == 1.0

    def test_transition_sign_change_visible(self, capsys):
        code, out, _ = run(
            capsys, ["plotdata", "--kind", "transition", "--n", "2", "--alpha", "2"]
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        crossings = [
            (float(a[0]), float(b[0]))
            for a, b in zip(rows, rows[1:])
            if (float(a[1]) < 0) != (float(b[1]) < 0)
        ]
        assert len(crossings) == 1
        lo, hi = crossings[0]
        assert lo <= T0 <= hi

    @pytest.mark.parametrize("kind, lo, hi", [
        ("h", "0", "1.5e308"),
        ("R3", "-1.7e308", "1.7976931348623157e308"),
    ])
    def test_samples_stay_in_range_when_width_overflows(
        self, capsys, monkeypatch, kind, lo, hi
    ):
        # --to minus --from is beyond the float range; once inf and nan x.
        # R3 and h overflow there, so a bounded curve stands in for them
        monkeypatch.setattr("khab.cli._R3", math.atan)
        monkeypatch.setattr("khab.cli.build_h", lambda: math.atan)
        code, out, _ = run(capsys, ["plotdata", "--kind", kind, f"--from={lo}",
                                    f"--to={hi}", "--points", "4"])
        xs = [float(line.split(",")[0]) for line in out.strip().splitlines()[1:]]
        assert code == 0
        assert xs[0] == float(lo) and xs[-1] == float(hi)
        assert xs == sorted(xs) and len(set(xs)) == 4

    def test_zero_points_is_header_only(self, capsys):
        code, out, _ = run(
            capsys,
            ["plotdata", "--kind", "R3", "--from", "0", "--to", "1", "--points", "0"],
        )
        assert code == 0
        assert out.strip() == "x,value"

    def test_closed_pipe_exits_141_silently(self):
        # a reader that stops early, as `| head -2` does, is no error
        proc = subprocess.Popen(
            [sys.executable, "-m", "khab.cli", "plotdata", "--kind", "transition",
             "--points", "100000"],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"x,value\n"
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_csv_values_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            ["plotdata", "--kind", "h", "--from", "0", "--to", str(T0), "--points", "3"],
        )
        lines = out.strip().splitlines()[1:]
        assert float(lines[0].split(",")[1]) == pytest.approx(1.0, rel=1e-15)


class TestFormatChoices:
    @pytest.mark.parametrize(
        "argv",
        [
            ["transition"],
            ["constants"],
            ["counterexample"],
            ["report"],
            ["convert", "--direct", "--input", "q.json", "--t", "1"],
            ["plotdata", "--kind", "R3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_not_printed_is_usage_error(self, capsys, argv):
        # csv is printed by identity only; a format a subcommand would
        # silently ignore is refused
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--format", "csv"])
        assert excinfo.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_identity_csv(self, capsys):
        code, out, _ = run(capsys, ["identity", "--n", "1", "--alpha", "1", "--y", "2",
                                    "--format", "csv"])
        assert code == 0
        header, row = out.splitlines()
        assert header == "y,integral,target,residual"
        assert float(row.split(",")[2]) == pytest.approx(math.log(1.25), rel=1e-12)

    def test_report_and_counterexample_share_one_handler(self, capsys):
        # the two differ only in their default format
        assert run(capsys, ["report", "--format", "text"]) == run(capsys, ["counterexample"])
        assert run(capsys, ["counterexample", "--format", "json"]) == run(capsys, ["report"])


class TestTolerancePlumbing:
    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample"],
            ["report"],
            ["identity"],
            ["convert", "--inverse", "--input", "g.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_default_tol(self, argv):
        # the subcommands that take --tol default it to 1e-9
        parser = _build_parser()
        assert parser.parse_args(argv).tol == 1e-9
        assert parser.parse_args(argv + ["--tol", "1e-6"]).tol == 1e-6

    @pytest.mark.parametrize(
        "argv",
        [["transition"], ["constants"], ["plotdata", "--kind", "q"]],
        ids=lambda argv: argv[0],
    )
    def test_tol_refused_where_unread(self, capsys, argv):
        # these compute in closed form: a tolerance would be read by nothing
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--tol", "1e-6"])
        assert excinfo.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["identity", "--n", "2", "--alpha", "2"],
            ["counterexample"],
            ["report"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_environment_sets_no_tol(self, capsys, monkeypatch, argv):
        # --tol is the one source of the tolerance: a KHAB_TOL below
        # rounding, which no quadrature can meet, is not read
        monkeypatch.delenv("KHAB_TOL", raising=False)
        want = run(capsys, argv)
        monkeypatch.setenv("KHAB_TOL", "1e-16")
        code, out, err = run(capsys, argv)
        assert code == 0
        assert err == ""
        assert (code, out, err) == want

    def test_bad_tol_flag_is_usage_error(self, capsys):
        for command, tol in (
            ("identity", "0"),
            ("report", "nan"),
            ("counterexample", "inf"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--tol", tol])
            assert excinfo.value.code == 2
            assert "--tol must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_json_output_refuses_non_finite(value):
    with pytest.raises(ValueError):
        _emit_json({"t": value})
