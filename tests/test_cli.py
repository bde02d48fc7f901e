"""Command-line behaviour: outputs, formats, exit codes, configuration."""

import gc
import io
import json
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner

from arczeta.branch import BranchSpec, characteristic_sequence, p_ar
from arczeta.cli import main
from arczeta.ratseries import rs_equal, rs_from_json
from arczeta.verifier import VerificationPlan
from helpers import read_count_report, report_counts


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, b in {
        "cusp": BranchSpec.make(2, {3: 1}),
        "line": BranchSpec.make(1, {}),
        "std4": BranchSpec.make(4, {6: 1, 7: 1}),
    }.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(b.to_json()))
        paths[name] = str(f)
    paths["dir"] = tmp_path
    return paths


def message(result):
    try:
        return result.output + result.stderr
    except (ValueError, AttributeError):
        return result.output


class TestBranchCommand:
    def test_text_output(self, runner, files):
        r = runner.invoke(main, ["branch", "--input", files["cusp"]])
        assert r.exit_code == 0
        assert "beta: [2; 3]" in r.output
        assert "poles in (-1,0): -1/3" in r.output
        assert "recovered exponents: [3]" in r.output

    def test_normalized_smooth_series(self, runner, files):
        r = runner.invoke(main, ["branch", "--input", files["line"], "--normalize"])
        assert r.exit_code == 0
        assert r.output.count("1 / [(1 - L*T)]") == 2

    def test_json_round_trips(self, runner, files):
        r = runner.invoke(main, ["branch", "--input", files["std4"], "--format", "json"])
        assert r.exit_code == 0
        payload = json.loads(r.output)
        assert payload["beta"] == [4, 6, 7]
        assert payload["e"] == [4, 2, 1] and payload["N"] == [1, 2, 4]
        assert set(payload["poles"]) == {"-1/3", "-3/7"}
        assert payload["recovered_exponents"] == [6, 7]
        expect = p_ar(characteristic_sequence(BranchSpec.make(4, {6: 1, 7: 1})))
        assert rs_equal(rs_from_json(payload["p_ar"]), expect)

    def test_latex_format(self, runner, files):
        r = runner.invoke(main, ["branch", "--input", files["cusp"], "--format", "latex"])
        assert r.exit_code == 0
        assert "\\frac" in r.output

    def test_malformed_json_exits_1(self, runner, files):
        bad = files["dir"] / "bad.json"
        bad.write_text("{ not json")
        r = runner.invoke(main, ["branch", "--input", str(bad)])
        assert r.exit_code == 1

    def test_missing_file_exits_1(self, runner, files):
        r = runner.invoke(main, ["branch", "--input", str(files["dir"] / "absent.json")])
        assert r.exit_code == 1

    def test_float_coefficient_exits_1(self, runner, files):
        # 1e-400 parses as the float 0.0; read as a coefficient it would turn (2;3) into (2;5)
        bad = files["dir"] / "float.json"
        bad.write_text('{"m": 2, "coeffs": [[3, 1e-400], [5, 1]]}')
        r = runner.invoke(main, ["branch", "--input", str(bad)])
        assert r.exit_code == 1
        assert "coefficient a_3 must be a string or an integer" in message(r)
        assert "beta" not in r.output


class TestCountCommand:
    def test_branch_csv_nine_rows(self, runner, files):
        r = runner.invoke(main, ["count", "--branch", files["std4"], "-p", "5", "--n-max", "8", "--format", "csv"])
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()
        assert lines[0] == "n,count,method,seconds"
        assert len(lines) == 10
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == [1, 1, 1, 1, 2, 6, 51, 501, 2502]

    def test_prime_beyond_modulus_table(self, runner, files):
        r = runner.invoke(main, ["count", "--branch", files["std4"], "-p", "17", "--n-max", "5", "--format", "csv"])
        assert r.exit_code == 0, message(r)
        assert [int(line.split(",")[1]) for line in r.output.strip().splitlines()[1:]] == [1, 1, 1, 1, 5, 69]

    def test_n_max_zero_single_row(self, runner, files):
        r = runner.invoke(main, ["count", "--branch", files["line"], "-p", "3", "--n-max", "0", "--format", "csv"])
        assert r.exit_code == 0
        assert len(r.output.strip().splitlines()) == 2

    def test_json_round_trips(self, runner, files):
        r = runner.invoke(main, ["count", "--branch", files["cusp"], "-p", "7", "--n-max", "3", "--format", "json"])
        assert r.exit_code == 0
        report = read_count_report(json.loads(r.output))
        assert report_counts(report) == {0: 1, 1: 1, 2: 4, 3: 43}

    def test_poly_mode_fixed_depth(self, runner, files):
        r = runner.invoke(
            main,
            ["count", "--poly", "x1^2 - x2^3", "--origin", "-p", "7", "--n-max", "4", "--depth", "6", "--format", "csv"],
        )
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()[1:]
        counts = [int(line.split(",")[1]) for line in lines]
        methods = [line.split(",")[2] for line in lines]
        assert counts == [1, 1, 4, 43, 301]
        assert methods[:4] == ["hensel-certified"] * 4
        assert methods[4] == "stabilized-uncertified"

    def test_poly_mode_default_depth_certifies(self, runner, files):
        r = runner.invoke(main, ["count", "--poly", "x^2 - y^3", "--origin", "-p", "7", "--n-max", "4", "--format", "csv"])
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()[1:]
        assert [int(line.split(",")[1]) for line in lines] == [1, 1, 4, 43, 298]
        assert all(line.split(",")[2] == "hensel-certified" for line in lines)

    def test_poly_parse_error_exits_1_with_position(self, runner):
        r = runner.invoke(main, ["count", "--poly", "x^", "--origin", "-p", "3", "--n-max", "1"])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error: ")
        assert "(at position 2)" in r.stderr

    def test_named_variable_sets_the_width(self, runner):
        # x2^0 - 1 is the zero polynomial in x1, x2: every residue pair solves it
        r = runner.invoke(main, ["count", "--poly", "x2^0 - 1", "-p", "3", "--n-max", "1"])
        assert r.exit_code == 0
        assert [int(line.split(",")[1]) for line in r.stdout.strip().splitlines()[1:]] == [9, 81]

    @pytest.mark.parametrize("prime", ["0", "1", "4", "-3"])
    def test_poly_mode_non_prime_exits_1(self, runner, prime):
        r = runner.invoke(main, ["count", "--poly", "x^2 - y^3", "--origin", "-p", prime, "--n-max", "2"])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == f"error: p = {prime} is not prime\n"

    def test_deterministic_output(self, runner, files):
        args = ["count", "--branch", files["cusp"], "-p", "7", "--n-max", "4", "--format", "json"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_input_validation(self, runner, files):
        assert runner.invoke(main, ["count", "-p", "5"]).exit_code == 1  # neither input
        r = runner.invoke(main, ["count", "--branch", files["cusp"], "--poly", "x", "-p", "5"])
        assert r.exit_code == 1  # both inputs
        assert runner.invoke(main, ["count", "--branch", files["cusp"]]).exit_code == 1  # no prime
        r = runner.invoke(main, ["count", "--branch", files["cusp"], "-p", "4"])
        assert r.exit_code == 1  # not a prime

    @pytest.mark.parametrize(
        "args,error",
        [
            (["--branch", "CUSP", "--depth", "3", "--locus", "x", "--origin"], "--depth, --locus, --origin\n"),
            (["--branch", "CUSP", "--depth", "6"], "--branch counts do not read --depth\n"),
            (["--poly", "x^2 - y^3", "--ext-degree", "2", "--no-window"], "--ext-degree, --no-window\n"),
            (["--poly", "x^2 - y^3", "--origin", "--no-window"], "--poly counts do not read --no-window\n"),
        ],
    )
    def test_flag_its_mode_never_reads_exits_1(self, runner, files, args, error):
        args = [files["cusp"] if a == "CUSP" else a for a in args]
        r = runner.invoke(main, ["count", *args, "-p", "7", "--n-max", "2"])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and error in r.stderr

    def test_flags_at_their_defaults_are_accepted_in_either_mode(self, runner, files):
        base = ["count", "--branch", files["cusp"], "-p", "7", "--n-max", "3"]
        assert runner.invoke(main, [*base, "--window", "--ext-degree", "1"]).output == runner.invoke(main, base).output
        base = ["count", "--poly", "x^2 - y^3", "--origin", "-p", "7", "--n-max", "3"]
        r = runner.invoke(main, [*base, "--window", "--ext-degree", "1"])
        assert r.exit_code == 0 and r.output == runner.invoke(main, base).output

    def test_lifting_front_end_is_budgeted(self, runner):
        # the power is raised by squaring, and the 6 000 001 Hasse derivatives are refused before any is taken
        t0 = time.perf_counter()
        r = runner.invoke(main, ["count", "--poly", "x^3000000 - y", "-p", "7", "--n-max", "0"])
        assert time.perf_counter() - t0 < 1
        assert r.exit_code == 1
        assert r.stderr == "error: 6000001 Hasse derivatives exceed budget 4000000\n"

    def test_timings_put_the_enumeration_on_the_top_row(self, runner, files):
        # a branch count enumerates once and a poly count walks its cell tree once, for all 8 rows
        for source in (["--branch", files["std4"]], ["--poly", "x^2 - y^3", "--origin"]):
            args = ["count", *source, "-p", "5", "--n-max", "7", "--format", "json"]
            plain, timed = (json.loads(runner.invoke(main, [*args, *extra]).output) for extra in ([], ["--timings"]))
            assert [row[3] for row in plain["rows"]] == [0.0] * 8
            assert [row[3] for row in timed["rows"][:-1]] == [0.0] * 7 and timed["rows"][-1][3] > 0
            assert [row[:3] for row in timed["rows"]] == [row[:3] for row in plain["rows"]]

    def test_over_budget_names_the_top_level_stratum(self, runner, files):
        r = runner.invoke(main, ["count", "--branch", files["std4"], "-p", "13", "--n-max", "8", "--budget", "10000"])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == "error: stratum ell=1 needs 12*13^4 arcs > budget 10000\n"

    def test_budget_exhaustion_is_input_error(self, runner, files):
        r = runner.invoke(
            main,
            ["count", "--branch", files["std4"], "-p", "13", "--n-max", "8", "--no-window", "--budget", "1000"],
        )
        assert r.exit_code == 1
        assert "budget" in message(r)

    # sizes of thousands of decimal digits, past Python's int-to-string limit, written as powers
    @pytest.mark.parametrize(
        "args,error",
        [
            (
                ["--branch", "cusp", "-p", "5", "--n-max", "7000", "--no-window"],
                "exhaustive enumeration needs 5^7000 arcs > budget 4000000",
            ),
            (["--branch", "cusp", "-p", "5", "--n-max", "14000"], "stratum ell=1 needs 4*5^13998 arcs > budget 4000000"),
            (["--poly", "x20000-1", "-p", "2", "--n-max", "0"], "root enumeration p^m = 2^20000 exceeds budget 4000000"),
        ],
        ids=["exhaustive", "window", "poly"],
    )
    def test_budget_error_writes_a_huge_size_as_a_power(self, runner, files, args, error):
        args = [files.get(a, a) for a in args]
        r = runner.invoke(main, ["count", *args])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == f"error: {error}\n"


class TestPresburgerCommand:
    def test_qe(self, runner):
        r = runner.invoke(main, ["presburger", "qe", "E y. x = 2*y"])
        assert r.exit_code == 0
        assert r.output.strip() == "x == 0 mod 2"

    def test_qe_json(self, runner):
        r = runner.invoke(main, ["presburger", "qe", "E y. x = 2*y", "--format", "json"])
        assert json.loads(r.output)["result"] == "x == 0 mod 2"

    def test_qe_syntax_error(self, runner):
        assert runner.invoke(main, ["presburger", "qe", "x >="]).exit_code == 1

    def test_qe_undeclared_variable(self, runner):
        r = runner.invoke(main, ["presburger", "qe", "x + y >= 0", "--var", "x"])
        assert r.exit_code == 1

    def test_sum(self, runner):
        r = runner.invoke(main, ["presburger", "sum", "--set", "n >= 4 & n == 0 mod 4", "--tweight", "n"])
        assert r.exit_code == 0
        assert r.output.strip() == "T^4 / [(1 - T^4)]"

    def test_sum_with_lweight(self, runner):
        r = runner.invoke(
            main,
            ["presburger", "sum", "--set", "l >= 1", "--tweight", "6*l", "--lweight", "2*l - 2"],
        )
        assert r.exit_code == 0
        assert "T^6" in r.output

    def test_sum_divergent_exits_1(self, runner):
        r = runner.invoke(main, ["presburger", "sum", "--set", "n >= 0", "--tweight", "0"])
        assert r.exit_code == 1

    @pytest.mark.parametrize("weight", ["n*n", "n n", "", "n@", "n mod 2"])
    def test_sum_malformed_weight_exits_1(self, runner, weight):
        for flag in ("--tweight", "--lweight"):
            args = ["presburger", "sum", "--set", "n >= 1", "--tweight", "n", flag, weight]
            r = runner.invoke(main, args)
            assert r.exit_code == 1
            assert r.stdout == ""
            assert r.stderr.startswith("error: ") and "(at position " in r.stderr

    def test_sum_weights_use_the_formula_grammar(self, runner):
        def out(tweight):
            r = runner.invoke(main, ["presburger", "sum", "--set", "n >= 1", "--tweight", tweight])
            assert r.exit_code == 0
            return r.stdout

        assert out("2n") == out("2*n") == out("(n) + n") == "T^2 / [(1 - T^2)]\n"

    def test_sum_weight_variable_outside_the_set_exits_1(self, runner):
        for tweight in ("n + m", "m"):
            r = runner.invoke(main, ["presburger", "sum", "--set", "n >= 1", "--tweight", tweight])
            assert r.exit_code == 1 and r.stdout == ""
            assert r.stderr == "error: weights use variables outside the order: ['m']\n"

    def test_check(self, runner):
        assert runner.invoke(main, ["presburger", "check", "E y. x = 2*y", "--point", "x=6"]).output.strip() == "true"
        assert runner.invoke(main, ["presburger", "check", "E y. x = 2*y", "--point", "x=7"]).output.strip() == "false"

    def test_check_missing_assignment(self, runner):
        r = runner.invoke(main, ["presburger", "check", "x + y >= 0", "--point", "x=1"])
        assert r.exit_code == 1

    def test_check_bad_point_syntax(self, runner):
        r = runner.invoke(main, ["presburger", "check", "x >= 0", "--point", "x:1"])
        assert r.exit_code == 1


class TestIgusaCommand:
    def test_series_only(self, runner):
        r = runner.invoke(main, ["igusa", "-k", "1", "-k", "1"])
        assert r.exit_code == 0
        assert "L^-1" in r.output

    def test_checked_at_prime(self, runner):
        r = runner.invoke(main, ["igusa", "-k", "2", "-p", "5", "--n-max", "4"])
        assert r.exit_code == 0
        assert "summary: pass" in r.output

    def test_bad_exponent(self, runner):
        assert runner.invoke(main, ["igusa", "-k", "0"]).exit_code == 1

    @pytest.mark.parametrize(
        "args,error",
        [
            (["--n-max", "3"], "error: igusa series without -p do not read --n-max\n"),
            (["-p", "5", "--format", "latex"], "error: igusa -p verdicts do not read --format latex\n"),
        ],
    )
    def test_flag_its_mode_never_reads_exits_1(self, runner, args, error):
        r = runner.invoke(main, ["igusa", "-k", "1", *args])
        assert r.exit_code == 1
        assert (r.stdout, r.stderr) == ("", error)

    def test_flags_at_their_defaults_are_accepted(self, runner):
        r = runner.invoke(main, ["igusa", "-k", "1", "--n-max", "6"])
        assert r.exit_code == 0 and r.output == runner.invoke(main, ["igusa", "-k", "1"]).output


class TestVerifyCommand:
    def plan_file(self, tmp_path, plan, name="plan.json"):
        f = tmp_path / name
        f.write_text(json.dumps(plan.to_json()))
        return str(f)

    def test_passing_plan_writes_verdict(self, runner, tmp_path):
        plan = VerificationPlan(
            target="branch-par", branch=BranchSpec.make(4, {6: 1, 7: 1}), primes=(5,), n_max=6
        )
        path = self.plan_file(tmp_path, plan)
        out = tmp_path / "verdict.json"
        r = runner.invoke(main, ["verify", "--plan", path, "--out", str(out)])
        assert r.exit_code == 0
        verdict = json.loads(out.read_text())
        assert verdict["summary"] == "pass"
        r2 = runner.invoke(main, ["verify", "--plan", path, "--out", str(out)])
        assert r2.output == r.output and json.loads(out.read_text()) == verdict

    def test_failing_plan_exits_2(self, runner, tmp_path):
        plan = VerificationPlan(
            target="branch-par",
            branch=BranchSpec.make(4, {6: 1, 7: 1}),
            primes=(7,),
            n_max=4,
            force_primes=True,
        )
        r = runner.invoke(main, ["verify", "--plan", self.plan_file(tmp_path, plan)])
        assert r.exit_code == 2
        assert "fail" in r.output

    def test_uncertified_plan_exits_3(self, runner, tmp_path):
        plan = VerificationPlan(
            target="cusp-cross-method", branch=BranchSpec.make(2, {3: 1}), primes=(7,), n_max=3, depth=0
        )
        r = runner.invoke(main, ["verify", "--plan", self.plan_file(tmp_path, plan)])
        assert r.exit_code == 3
        assert "uncertified" in r.output

    def test_non_cusp_plan_without_poly_exits_1(self, runner, tmp_path):
        plan = VerificationPlan(
            target="cusp-cross-method", branch=BranchSpec.make(3, {4: 1}), primes=(7,), n_max=2
        )
        r = runner.invoke(main, ["verify", "--plan", self.plan_file(tmp_path, plan)])
        assert r.exit_code == 1
        assert "needs poly" in message(r)

    @pytest.mark.parametrize(
        "plan,error",
        [
            ({"target": "branch-par", "perturb": [3, 1]}, "unknown plan fields: ['perturb']"),
            ({"target": "branch-par", "depth": 4}, "branch-par plans do not read ['depth']"),
            ({"target": "branch-pgeom", "window": False}, "branch-pgeom plans do not read ['window']"),
        ],
    )
    def test_plan_field_its_target_never_reads_exits_1(self, runner, tmp_path, plan, error):
        f = tmp_path / "plan.json"
        f.write_text(json.dumps({**plan, "branch": BranchSpec.make(4, {6: 1, 7: 1}).to_json(), "primes": [5], "n_max": 3}))
        r = runner.invoke(main, ["verify", "--plan", str(f)])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert error in r.stderr

    @pytest.mark.parametrize(
        "series,error",
        [
            ({"numerator": [[0, [[0, "1"]]]], "denomGeom": [[0, 1, -2]]}, "multiplicity -2 < 1"),
            ({"numerator": [[0, [[0, "1"]]], [0, [[0, "2"]]]]}, "lists T^0 twice"),
            ({"numerator": [[2, [[0, "1"]]], [-1, [[0, "5"]]]]}, "exponents must be >= 0"),
            ({"numerator": [[0, [[0, "1"], [0, "2"]]]]}, "lists L^0 twice"),
            ({"numerator": [[0, [[0, "1"]]]], "denomGeom": [[0, 1, 1.5]]}, "multiplicity must be an integer, got 1.5"),
            (5, "series JSON must be an object, got 5"),
            ({"numerator": 5}, "numerator must be a list, got 5"),
            ({"numerator": [5]}, "each numerator entry must be a list of 2 values, got 5"),
            ({"numerator": [[0, 5]]}, "L-coefficient must be a list, got 5"),
            ({"denomGeom": 3}, "denomGeom must be a list, got 3"),
        ],
    )
    def test_malformed_expect_series_exits_1(self, runner, tmp_path, series, error):
        f = tmp_path / "plan.json"
        branch = BranchSpec.make(2, {3: 1}).to_json()
        f.write_text(json.dumps({"target": "branch-par", "branch": branch, "primes": [5], "n_max": 2, "expect_series": series}))
        r = runner.invoke(main, ["verify", "--plan", str(f)])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert error in r.stderr

    @pytest.mark.parametrize(
        "fields,error",
        [
            ({"force_primes": "false"}, "force_primes must be true or false, got 'false'"),
            ({"window": "false"}, "window must be true or false, got 'false'"),
            ({"n_max": 2.9}, "n_max must be an integer, got 2.9"),
            ({"branch": {"m": 4.5, "coeffs": [[6, "1"], [7, "1"]]}}, "m must be an integer, got 4.5"),
            ({"branch": {"m": 4, "coeffs": [[6.7, "1"], [7, "1"]]}}, "coefficient index must be an integer, got 6.7"),
        ],
    )
    def test_malformed_plan_value_exits_1(self, runner, tmp_path, fields, error):
        f = tmp_path / "plan.json"
        branch = BranchSpec.make(4, {6: 1, 7: 1}).to_json()
        f.write_text(json.dumps({"target": "branch-par", "branch": branch, "primes": [5], "n_max": 2, **fields}))
        r = runner.invoke(main, ["verify", "--plan", str(f)])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert error in r.stderr

    @pytest.mark.parametrize(
        "fields,error",
        [
            ({"locus": "xy"}, "locus must be a list, got 'xy'"),
            ({"poly": "x"}, "poly must be a list, got 'x'"),
            ({"poly": ["x^2 - y^3", 7]}, "poly entry must be a string, got 7"),
        ],
    )
    def test_plan_polynomials_must_be_lists_of_strings(self, runner, tmp_path, fields, error):
        f = tmp_path / "plan.json"
        branch = BranchSpec.make(2, {3: 1}).to_json()
        f.write_text(json.dumps({"target": "cusp-cross-method", "branch": branch, "primes": [5], "n_max": 2, **fields}))
        r = runner.invoke(main, ["verify", "--plan", str(f)])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == f"error: {error}\n"

    def test_bad_plan_exits_1(self, runner, tmp_path):
        f = tmp_path / "plan.json"
        f.write_text(json.dumps({"target": "bogus"}))
        assert runner.invoke(main, ["verify", "--plan", str(f)]).exit_code == 1
        assert runner.invoke(main, ["verify", "--plan", str(tmp_path / "no.json")]).exit_code == 1


class TestConfiguration:
    def test_threads_flag(self, runner, files):
        # the worker count is derived from the work, so there is no flag for it
        args = ["count", "--branch", files["std4"], "-p", "5", "--n-max", "6", "--format", "csv"]
        r = runner.invoke(main, args)
        assert r.exit_code == 0
        assert [int(line.split(",")[1]) for line in r.output.strip().splitlines()[1:]] == [1, 1, 1, 1, 2, 6, 51]
        r = runner.invoke(main, [*args, "--threads", "2"])
        assert r.exit_code == 1
        assert "No such option '--threads'" in message(r)

    @pytest.mark.parametrize(
        "args,error",
        [
            (["--config", "f", "count"], "No such option '--config'"),
            (["count", "-p", "3", "--n-max", "6.9"], "'6.9' is not a valid integer"),
            (["count", "-p", "3", "--n-max", "many"], "'many' is not a valid integer"),
            (["count", "--n-max", "2"], "Missing option '-p'"),
            (["count", "-p", "3", "--format", "latex"], "'latex' is not one of"),
            (["count", "-p", "3", "--n-max", "-1"], "-1 is not in the range x>=0"),
            (["count", "-p", "3", "--budget", "0"], "0 is not in the range x>=1"),
            (["igusa", "-k", "1", "-p", "3", "--n-max", "-1"], "-1 is not in the range x>=0"),
        ],
    )
    def test_bad_flag_is_usage_error(self, runner, files, args, error):
        branch = ["--branch", files["line"]] if "count" in args else []
        r = runner.invoke(main, [*args, *branch])
        assert r.exit_code == 1
        assert error in message(r)

    def test_unknown_option_is_usage_error(self, runner):
        r = runner.invoke(main, ["igusa", "--bogus"])
        assert r.exit_code != 0


def test_in_process_requests_release_their_buffers(files):
    """A caller that redirects the standard streams per request must get the
    buffers back: the CLI may keep no reference to them."""
    refs = []
    for args in (
        ["branch", "--input", files["cusp"]],
        ["branch", "--input", files["dir"] / "absent.json"],
        ["--help"],
        ["count", "--help"],
        ["presburger", "qe", "--help"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main.main([str(a) for a in args], prog_name="arczeta", standalone_mode=False)
            except SystemExit:
                pass
        assert out.getvalue() or err.getvalue()
        refs += [weakref.ref(out), weakref.ref(err)]
        del out, err
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
