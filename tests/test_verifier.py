"""Verification plans, prime admissibility, and verdict semantics."""

import json
import re
from fractions import Fraction

import pytest

from arczeta.branch import BranchSpec, characteristic_sequence, p_ar
from arczeta.ratseries import rs_to_json
from arczeta.verifier import (
    CompRow,
    NoAdmissiblePrime,
    Verdict,
    VerificationPlan,
    admissible_primes,
    run_plan,
    verify_branch_par,
    verify_branch_pgeom,
    verify_cross_method,
    verify_igusa,
)
from helpers import read_verdict

STD4 = BranchSpec.make(4, {6: 1, 7: 1})
SMOOTH = BranchSpec.make(1, {})
CUSP = BranchSpec.make(2, {3: 1})
Y3X4 = BranchSpec.make(3, {4: 1})  # x = w^3, y = w^4: y^3 = x^4
THIRD = BranchSpec.make(1, {2: Fraction(1, 3)})


class TestPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            VerificationPlan(target="nope", branch=STD4, primes=(5,))
        with pytest.raises(ValueError):
            VerificationPlan(target="branch-par", branch=STD4, primes=())
        with pytest.raises(ValueError):
            VerificationPlan(target="igusa-monomial", primes=(3,))
        with pytest.raises(ValueError):
            VerificationPlan(target="branch-par", primes=(5,))
        with pytest.raises(ValueError):
            VerificationPlan(target="branch-par", branch=STD4, primes=(5,), n_max=-1)
        with pytest.raises(ValueError):
            VerificationPlan(target="cusp-cross-method", branch=CUSP, primes=(7,), depth=-1)

    def test_json_roundtrip(self):
        plan = VerificationPlan(
            target="cusp-cross-method",
            branch=CUSP,
            poly=("x^2 - y^3",),
            locus=("x", "y"),
            primes=(7, 11),
            n_max=5,
            depth=6,
        )
        again = VerificationPlan.from_json(plan.to_json())
        assert again == plan
        assert VerificationPlan.from_json(json.dumps(plan.to_json())) == plan

    @pytest.mark.parametrize(
        "target,extra,unread",
        [
            ("branch-par", {"depth": 3}, ["depth"]),
            ("branch-par", {"poly": ("x^2 - y^3",), "locus": ("x",)}, ["poly", "locus"]),
            ("branch-pgeom", {"depth": 3}, ["depth"]),
            ("branch-pgeom", {"window": False}, ["window"]),
            ("cusp-cross-method", {"expect_series": {}}, ["expect_series"]),
            ("igusa-monomial", {"branch": CUSP, "budget": 10, "force_primes": True}, ["branch", "budget", "force_primes"]),
        ],
    )
    def test_unread_fields_rejected(self, target, extra, unread):
        base = {"exponents": (1,)} if target == "igusa-monomial" else {"branch": CUSP}
        fields = {"target": target, "primes": (7,), **base, **extra}
        with pytest.raises(ValueError, match=re.escape(f"{target} plans do not read {unread}")):
            VerificationPlan(**fields)
        obj = {**fields, "branch": CUSP.to_json()} if "branch" in fields else fields
        with pytest.raises(ValueError, match=re.escape(f"{target} plans do not read {unread}")):
            VerificationPlan.from_json(json.loads(json.dumps(obj)))

    def test_defaults_count_as_unset(self):
        plan = VerificationPlan(target="igusa-monomial", exponents=(1,), primes=(3,), window=True, depth=None)
        assert VerificationPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize(
        "field,value",
        [
            ("force_primes", "false"),
            ("window", "false"),
            ("window", 0),
            ("n_max", 2.9),
            ("n_max", True),
            ("budget", "100"),
            ("depth", 1.5),
            ("primes", [5.0]),
        ],
    )
    def test_from_json_rejects_non_json_type(self, field, value):
        obj = {"target": "cusp-cross-method", "branch": CUSP.to_json(), "primes": [7], field: value}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            VerificationPlan.from_json(obj)

    def test_unknown_field_rejected(self):
        obj = VerificationPlan(target="igusa-monomial", exponents=(1,), primes=(3,)).to_json()
        obj["tolerance"] = 0.1
        with pytest.raises(ValueError, match="tolerance"):
            VerificationPlan.from_json(obj)


class TestAdmissiblePrimes:
    def test_congruence_and_size_filter(self):
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(2, 3, 5, 7, 13))
        assert admissible_primes(plan) == (
            [5, 13],
            [
                "p=2 excluded: 2 <= multiplicity 4",
                "p=3 excluded: 3 <= multiplicity 4",
                "p=7 excluded: 7 != 1 mod 4",
            ],
        )

    def test_denominator_filter(self):
        plan = VerificationPlan(target="branch-par", branch=THIRD, primes=(2, 3, 5))
        assert admissible_primes(plan) == ([2, 5], ["p=3 excluded: 3 divides a coefficient denominator"])

    def test_m1_accepts_all_primes(self):
        plan = VerificationPlan(target="branch-par", branch=SMOOTH, primes=(2, 3, 5, 7, 11, 13))
        assert admissible_primes(plan) == ([2, 3, 5, 7, 11, 13], [])

    def test_force_skips_filter(self):
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(7,), force_primes=True)
        assert admissible_primes(plan) == ([7], [])

    def test_nonprime_is_input_error(self):
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(9,))
        with pytest.raises(ValueError, match="not prime"):
            admissible_primes(plan)

    def test_exhausted_list_reports_reasons(self):
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(3, 7))
        with pytest.raises(NoAdmissiblePrime, match="7 != 1 mod 4"):
            admissible_primes(plan)


class TestBranchPar:
    def test_passes_with_frozen_values(self):
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(5,), n_max=6)
        v = verify_branch_par(plan)
        assert v.summary == "pass" and v.detail == ""
        vals = {r.n: r.counted for r in v.rows}
        assert (vals[3], vals[4], vals[6]) == (1, 2, 51)
        assert all(r.certified for r in v.rows)
        # (6;8,9): P_ar has numerator degree 24 over a denominator of T-degree 25
        plan = VerificationPlan(target="branch-par", branch=BranchSpec.make(6, {8: 1, 9: 1}), primes=(7,), n_max=9)
        v = verify_branch_par(plan)
        assert v.summary == "pass" and v.assumptions == ()
        assert [r.counted for r in v.rows] == [1, 1, 1, 1, 1, 1, 2, 8, 148, 2059]

    def test_excluded_prime_is_named_in_the_verdict(self):
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(5, 7, 13), n_max=4)
        v = verify_branch_par(plan)
        assert v.summary == "pass"
        assert sorted({r.p for r in v.rows}) == [5, 13]
        assert v.assumptions == ("p=7 excluded: 7 != 1 mod 4",)
        assert "assumption: p=7 excluded: 7 != 1 mod 4" in v.to_text()

    def test_every_verification_names_excluded_primes(self):
        note = "p=2 excluded: 2 <= multiplicity 2"
        plan = VerificationPlan(target="branch-pgeom", branch=CUSP, primes=(2, 7), n_max=3)
        assert note in verify_branch_pgeom(plan).assumptions
        plan = VerificationPlan(target="cusp-cross-method", branch=CUSP, primes=(2, 7), n_max=2)
        assert verify_cross_method(plan).assumptions == (note,)

    def test_smooth_counts_are_powers(self):
        plan = VerificationPlan(target="branch-par", branch=SMOOTH, primes=(2, 13), n_max=10)
        v = verify_branch_par(plan)
        assert v.summary == "pass"
        assert all(r.counted == r.p**r.n for r in v.rows)

    @pytest.mark.parametrize("p,num", [(3, Fraction(3, 2)), (7, Fraction(5, 2))])
    def test_inadmissible_prime_witness(self, p, num):
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(p,), n_max=4, force_primes=True)
        v = verify_branch_par(plan)
        assert v.summary == "fail"
        assert f"p={p}, n=4" in v.detail and str(num) in v.detail

    def test_expected_series_check(self):
        good = rs_to_json(p_ar(characteristic_sequence(STD4)))
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(5,), n_max=3, expect_series=good)
        assert verify_branch_par(plan).summary == "pass"
        bad = json.loads(json.dumps(good))
        bad["numerator"][0][1][0][1] = "2"  # constant term 1 -> 2
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(5,), n_max=3, expect_series=bad)
        v = verify_branch_par(plan)
        assert v.summary == "fail" and "expected series" in v.detail

    def test_wrong_target_rejected(self):
        plan = VerificationPlan(target="igusa-monomial", exponents=(1,), primes=(3,))
        with pytest.raises(ValueError):
            verify_branch_par(plan)


class TestIgusa:
    def test_single_exponent(self):
        plan = VerificationPlan(target="igusa-monomial", exponents=(1,), primes=(3,), n_max=6)
        v = verify_igusa(plan)
        assert v.summary == "pass"
        assert all(r.symbolic == Fraction(2, 3) / 3**r.n for r in v.rows)

    def test_square_has_zero_odd_coefficients(self):
        plan = VerificationPlan(target="igusa-monomial", exponents=(2,), primes=(5,), n_max=6)
        v = verify_igusa(plan)
        assert v.summary == "pass"
        assert all(r.symbolic == 0 == r.counted for r in v.rows if r.n % 2 == 1)

    def test_two_variables(self):
        plan = VerificationPlan(target="igusa-monomial", exponents=(1, 1), primes=(3,), n_max=4)
        assert verify_igusa(plan).summary == "pass"


class TestCrossMethod:
    def test_cusp_certified_agreement(self):
        plan = VerificationPlan(target="cusp-cross-method", branch=CUSP, primes=(7, 11), n_max=4)
        v = verify_cross_method(plan)
        assert v.summary == "pass"
        assert all(r.certified and r.counted == r.counted_alt == r.symbolic for r in v.rows)

    def test_depth_zero_is_uncertified(self):
        plan = VerificationPlan(target="cusp-cross-method", branch=CUSP, primes=(7,), n_max=4, depth=0)
        v = verify_cross_method(plan)
        assert v.summary == "uncertified"
        assert "no certificate" in v.detail

    def test_smooth_line_in_plane(self):
        plan = VerificationPlan(
            target="cusp-cross-method",
            branch=SMOOTH,
            poly=("x",),
            locus=("x", "y"),
            primes=(5,),
            n_max=3,
        )
        v = verify_cross_method(plan)
        assert v.summary == "pass"
        assert all(r.counted == r.p**r.n for r in v.rows)

    def test_non_cusp_branch_needs_poly(self):
        # the default poly x^2 - y^3 is not this branch's curve: a count would be a wrong fail
        plan = VerificationPlan(target="cusp-cross-method", branch=Y3X4, primes=(7,), n_max=2)
        with pytest.raises(ValueError, match=r"needs poly.*\[3, 4\]"):
            verify_cross_method(plan)

    def test_non_cusp_branch_with_its_poly(self):
        plan = VerificationPlan(
            target="cusp-cross-method", branch=Y3X4, poly=("y^3 - x^4",), primes=(7,), n_max=2
        )
        v = verify_cross_method(plan)
        assert v.summary == "pass"
        assert [(r.symbolic, r.counted, r.counted_alt, r.certified) for r in v.rows] == [(1, 1, 1, True)] * 3


class TestPgeom:
    def test_heuristic_never_passes(self):
        plan = VerificationPlan(target="branch-pgeom", branch=CUSP, primes=(3, 5), n_max=5)
        v = verify_branch_pgeom(plan)
        assert v.summary == "uncertified"
        assert all(r.equal for r in v.rows)
        assert any("heuristic" in a for a in v.assumptions)


class TestRationalShape:
    """The retired rational-shape fit took a ``perturb`` argument; plans never did."""

    def test_perturb_is_rational_shape_only(self):
        with pytest.raises(TypeError):
            VerificationPlan(target="branch-par", branch=STD4, primes=(5,), n_max=3, perturb=(3, 1))
        obj = {**VerificationPlan(target="branch-par", branch=STD4, primes=(5,), n_max=3).to_json(), "perturb": [3, 1]}
        with pytest.raises(ValueError, match=re.escape("unknown plan fields: ['perturb']")):
            VerificationPlan.from_json(obj)


class TestVerdict:
    def test_json_roundtrip_and_determinism(self):
        plan = VerificationPlan(target="branch-par", branch=STD4, primes=(5,), n_max=4)
        v1, v2 = verify_branch_par(plan), verify_branch_par(plan)
        blob1 = json.dumps(v1.to_json(), sort_keys=True)
        blob2 = json.dumps(v2.to_json(), sort_keys=True)
        assert blob1 == blob2
        assert read_verdict(v1.to_json()) == v1

    def test_text_rendering(self):
        plan = VerificationPlan(target="igusa-monomial", exponents=(1,), primes=(3,), n_max=2)
        text = verify_igusa(plan).to_text()
        assert "summary: pass" in text and "p=3 n=2" in text

    def test_certified_mismatch_beats_uncertified_row(self):
        rows = [
            CompRow(5, 0, Fraction(1), Fraction(1), certified=False),
            CompRow(5, 1, Fraction(2), Fraction(3), certified=True),
        ]
        assert Verdict.from_rows("branch-par", rows).summary == "fail"

    def test_certified_mismatch_at_n_0_fails(self):
        rows = [CompRow(5, 0, Fraction(1), Fraction(2), certified=True), CompRow(5, 1, Fraction(5), Fraction(5))]
        v = Verdict.from_rows("branch-par", rows)
        assert (v.summary, v.detail) == ("fail", "first mismatch at p=5, n=0: symbolic 1 != counted 2")

    def test_fractional_values_survive_roundtrip(self):
        rows = [CompRow(3, 4, Fraction(3, 2), Fraction(2), certified=True)]
        v = Verdict.from_rows("branch-par", rows)
        assert v.summary == "fail"
        again = read_verdict(json.dumps(v.to_json()))
        assert again.rows[0].symbolic == Fraction(3, 2)


class TestRunPlan:
    def test_dispatch(self):
        cases = [
            VerificationPlan(target="branch-par", branch=SMOOTH, primes=(3,), n_max=3),
            VerificationPlan(target="branch-pgeom", branch=SMOOTH, primes=(3,), n_max=3),
            VerificationPlan(target="igusa-monomial", exponents=(1,), primes=(3,), n_max=3),
            VerificationPlan(target="cusp-cross-method", branch=CUSP, primes=(7,), n_max=2),
        ]
        summaries = [run_plan(p).summary for p in cases]
        assert summaries == ["pass", "uncertified", "pass", "pass"]
