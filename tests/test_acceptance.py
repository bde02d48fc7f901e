"""Release acceptance gate: eight numbered end-to-end criteria (1-6, 8, 9).

Criterion 7, a denominator-guided rational fit, was retired: its enumerated
rows (p = 5, n <= 8) are criterion 2's too, and its fit ran mostly on
closed-form values, so it compared the closed form with itself.  Criteria 8
and 9 keep their numbers.

Each test prints exactly one ``criterion N: PASS/FAIL -- <title>`` line on the
terminal (controlled by the ``criterion`` context manager below), checks its
values exactly -- no tolerances anywhere -- and enforces the stated wall-clock
budget.  The criteria deliberately cut across module boundaries: closed-form
series against hand-built right-hand sides, symbolic specializations against
exhaustive and windowed jet enumeration, certified lift counts against two
independent counters, quantifier elimination against windowed brute-force
semantics, and a pinned negative witness showing the congruence hypothesis on
the prime is load-bearing.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from arczeta.branch import (
    BranchSpec,
    characteristic_sequence,
    order_gap,
    p_ar,
    p_geom,
    puiseux_from_poles,
)
from arczeta.counting import count_branch_image, measure_ord_locus
from arczeta.presburger import (
    LinTerm,
    eliminate_quantifiers,
    free_vars,
    is_quantifier_free,
    membership,
    parse_presburger,
)
from arczeta.ranges import to_iterated_ranges, weighted_sum
from arczeta.ratseries import (
    RatSeries,
    rs_add,
    rs_equal,
    rs_expand,
    rs_mul,
    rs_normalize,
    rs_poles_in_L,
    rs_scale,
)
from arczeta.verifier import (
    NoAdmissiblePrime,
    VerificationPlan,
    admissible_primes,
    run_plan,
)

import pytest

from helpers import RefTate, brute_eval, direct_weighted_sum, quantifier_window, ref_count_images
from test_presburger import QE_CORPUS
from test_ranges import SUM_CORPUS

SMOOTH = BranchSpec.make(1, {})
CUSP = BranchSpec.make(2, {3: 1})
STD4 = BranchSpec.make(4, {6: 1, 7: 1})  # x = w^4, y = w^6 + w^7


@contextmanager
def criterion(capsys, num, title):
    """Print one PASS/FAIL line per criterion, visible through pytest capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num}: FAIL -- {title}")
        raise
    with capsys.disabled():
        print(f"criterion {num}: PASS -- {title}")


# ---------------------------------------------------------------------------
# 1. closed forms for the m=4 model branch
# ---------------------------------------------------------------------------


def _rhs_series_m4():
    """Both closed forms for x = w^4, y = w^6 + w^7, assembled term by term.

    Constants are written out literally (m=4, contact exponents 6 and 7,
    gcd chain 4, 2, 1, index jumps 2-1 and 4-2) so this build shares no code
    path with the general recurrence in ``arczeta.branch``.
    """
    head = RatSeries.geometric(0, 1)  # 1/(1-T)
    unit = RefTate.L(1) - RefTate.one()  # L - 1
    lead = rs_scale(RatSeries.geometric(1, 1), unit)  # (L-1)/(1-L*T)
    t4_block = rs_mul(RatSeries({4: 1}), RatSeries.geometric(0, 4))  # T^4/(1-T^4)
    geom_rhs = rs_add(head, rs_mul(lead, t4_block))

    bracket = rs_scale(t4_block, Fraction(1, 4))
    for beta, jump in ((6, 2 - 1), (7, 4 - 2)):
        # L^(beta-4) T^beta / (1 - L^(beta-4) T^beta), weighted jump/4
        block = rs_mul(
            RatSeries({beta: RefTate.L(beta - 4)}),
            RatSeries.geometric(beta - 4, beta),
        )
        bracket = rs_add(bracket, rs_scale(block, Fraction(jump, 4)))
    ar_rhs = rs_add(head, rs_mul(lead, bracket))
    return geom_rhs, ar_rhs


def test_criterion_1_closed_forms_and_poles(capsys):
    with criterion(capsys, 1, "closed-form series and poles for the m=4 model branch"):
        start = time.perf_counter()
        c = characteristic_sequence(STD4)
        assert c.g == 2
        assert c.beta == (4, 6, 7)
        assert c.e == (4, 2, 1)
        assert c.N == (1, 2, 4)

        geom_rhs, ar_rhs = _rhs_series_m4()
        assert rs_equal(p_geom(c), geom_rhs)
        assert rs_equal(p_ar(c), ar_rhs)

        poles = sorted(a for a in rs_poles_in_L(p_ar(c)) if -1 < a < 0)
        assert poles == [Fraction(-3, 7), Fraction(-1, 3)]
        # each pole is L^(4/beta - 1); inverting them recovers the exponents
        assert puiseux_from_poles(poles, 4) == [6, 7]
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. specialization against jet enumeration
# ---------------------------------------------------------------------------


def test_criterion_2_specialization_matches_enumeration(capsys):
    with criterion(capsys, 2, "specialized coefficients match jet enumeration (p=5, 13)"):
        start = time.perf_counter()
        counted = {}
        for p in (5, 13):
            plan = VerificationPlan(target="branch-par", branch=STD4, primes=(p,), n_max=8)
            verdict = run_plan(plan)
            assert verdict.summary == "pass", verdict.detail
            assert len(verdict.rows) == 9
            for row in verdict.rows:
                assert row.certified and row.equal, (row.p, row.n)
                counted[(row.p, row.n)] = row.counted
        window_elapsed = time.perf_counter() - start
        assert counted[(5, 3)] == 1
        assert counted[(5, 4)] == 2
        assert counted[(5, 6)] == 51
        assert window_elapsed <= 10.0

        # exhaustive mode at the largest point, and the images of all 5^8 arcs
        # with w_0 = 0 by untruncated products, with no windowing or strata
        exhaustive = count_branch_image(STD4, 5, 1, 8, window=False)
        assert exhaustive == ref_count_images(STD4, 5, 1, 8) == counted[(5, 8)] == 2502
        assert time.perf_counter() - start <= 60.0


# ---------------------------------------------------------------------------
# 3. smooth branch identity
# ---------------------------------------------------------------------------


def test_criterion_3_smooth_branch_identity(capsys):
    with criterion(capsys, 3, "smooth branch collapses to 1/(1-LT) and counts p^n"):
        c = characteristic_sequence(SMOOTH)
        target = RatSeries.geometric(1, 1)
        assert rs_normalize(p_ar(c)) == target
        assert rs_normalize(p_geom(c)) == target
        assert rs_equal(p_ar(c), p_geom(c))
        for p in (2, 3, 5, 7, 11, 13):
            for n in range(11):
                assert count_branch_image(SMOOTH, p, 1, n) == p**n, (p, n)


# ---------------------------------------------------------------------------
# 4. two independent counters against the series
# ---------------------------------------------------------------------------


def test_criterion_4_cusp_cross_method(capsys):
    with criterion(capsys, 4, "cusp: lift counts = image counts = series coefficients"):
        start = time.perf_counter()
        plan = VerificationPlan(target="cusp-cross-method", branch=CUSP, primes=(7, 11), n_max=5)
        verdict = run_plan(plan)
        assert verdict.summary == "pass", verdict.detail
        for row in verdict.rows:
            assert row.certified, (row.p, row.n)
            assert row.symbolic == row.counted == row.counted_alt, (row.p, row.n)
        by_prime = {
            p: [int(r.counted) for r in sorted(verdict.rows, key=lambda r: r.n) if r.p == p]
            for p in (7, 11)
        }
        assert by_prime[7] == [1, 1, 4, 43, 298, 2080]
        assert by_prime[11] == [1, 1, 6, 111, 1216, 13366]
        assert time.perf_counter() - start <= 120.0


# ---------------------------------------------------------------------------
# 5. monomial measures
# ---------------------------------------------------------------------------


def test_criterion_5_monomial_measures(capsys):
    with criterion(capsys, 5, "monomial measures match residue counting"):
        start = time.perf_counter()
        # the one-variable, exponent-1, depth-0 volume is immediate: 1 - 1/p
        for p in (3, 5):
            assert measure_ord_locus((1,), p, 0) == 1 - Fraction(1, p)
        for exponents in ((1,), (2,), (1, 1)):
            plan = VerificationPlan(
                target="igusa-monomial", exponents=exponents, primes=(3, 5), n_max=6
            )
            verdict = run_plan(plan)
            assert verdict.summary == "pass", (exponents, verdict.detail)
            assert len(verdict.rows) == 14
            assert all(row.equal for row in verdict.rows)
        assert time.perf_counter() - start <= 5.0


# ---------------------------------------------------------------------------
# 6. quantifier elimination and weighted sums against brute force
# ---------------------------------------------------------------------------


def test_criterion_6_formula_suite_against_brute_force(capsys):
    with criterion(capsys, 6, "quantifier elimination and weighted sums vs brute force"):
        start = time.perf_counter()
        assert len(QE_CORPUS) >= 20
        for text in QE_CORPUS:
            f = parse_presburger(text)
            g = eliminate_quantifiers(f)
            assert is_quantifier_free(g)
            assert free_vars(g) <= free_vars(f)
            window = quantifier_window(f)
            fv = sorted(free_vars(f))
            for pt in product(range(-30, 31), repeat=len(fv)):
                env = dict(zip(fv, pt))
                assert membership(g, env) == brute_eval(f, env, window), (text, env)
        for text, order, lw, tw in SUM_CORPUS:
            system = to_iterated_ranges(parse_presburger(text), order)
            lweight, tweight = LinTerm.make(lw), LinTerm.make(tw)
            expanded = rs_expand(weighted_sum(system, lweight, tweight), 40)
            assert expanded.coeffs == direct_weighted_sum(system, lweight, tweight, 40), text
        assert time.perf_counter() - start <= 30.0


# ---------------------------------------------------------------------------
# 8. root-of-unity contact orders
# ---------------------------------------------------------------------------

GAP_GRID = [
    # branch, primes with all m-th roots of unity (p = 1 mod m)
    (BranchSpec.make(2, {3: 1}), (3, 7)),
    (BranchSpec.make(4, {6: 1, 7: 1}), (5, 13)),
    (BranchSpec.make(6, {8: 1, 9: 1}), (7, 13)),
    (BranchSpec.make(12, {18: 1, 20: 1, 21: 1}), (13,)),
]


def _expected_gap(c, p, zeta):
    """Contact exponent predicted from the gcd chain alone.

    zeta of order dividing e_{i-1} but not e_i must produce a gap at the i-th
    exponent; the identity root produces no gap at all.
    """
    hits = [
        i
        for i in range(1, c.g + 1)
        if pow(zeta, c.e[i - 1], p) == 1 and pow(zeta, c.e[i], p) != 1
    ]
    if not hits:
        assert zeta == 1
        return math.inf
    assert len(hits) == 1
    return c.beta[hits[0]]


def test_criterion_8_contact_order_grid(capsys):
    with criterion(capsys, 8, "root-of-unity contact orders on the exponent grid"):
        for branch, primes in GAP_GRID:
            c = characteristic_sequence(branch)
            m = c.m
            for p in primes:
                assert (p - 1) % m == 0
                roots = [z for z in range(1, p) if pow(z, m, p) == 1]
                assert len(roots) == m
                gaps = {zeta: order_gap(branch, p, zeta) for zeta in roots}
                for zeta, gap in gaps.items():
                    assert gap == _expected_gap(c, p, zeta), (m, p, zeta)
                # layer sizes: e_{i-1} - e_i roots hit exponent beta_i,
                # and only the identity root gives no gap
                for i in range(1, c.g + 1):
                    layer = sum(1 for gap in gaps.values() if gap == c.beta[i])
                    assert layer == c.e[i - 1] - c.e[i], (m, p, i)
                assert sum(1 for gap in gaps.values() if gap == math.inf) == 1


# ---------------------------------------------------------------------------
# 9. the congruence hypothesis on the prime is necessary
# ---------------------------------------------------------------------------


def test_criterion_9_inadmissible_prime_witness(capsys):
    with criterion(capsys, 9, "inadmissible prime produces a pinned mismatch"):
        # 7 = 3 mod 4, so the admissibility filter rejects it for m=4 ...
        with pytest.raises(NoAdmissiblePrime):
            admissible_primes(
                VerificationPlan(target="branch-par", branch=STD4, primes=(7,))
            )
        # ... and forcing it through produces a real, pinned mismatch
        pinned = {(7, Fraction(5, 2), 4), (3, Fraction(3, 2), 2)}
        for p, symbolic, count in sorted(pinned):
            plan = VerificationPlan(
                target="branch-par", branch=STD4, primes=(p,), n_max=4, force_primes=True
            )
            verdict = run_plan(plan)
            assert verdict.summary == "fail", (p, verdict.detail)
            row = next(r for r in verdict.rows if r.n == 4)
            assert row.symbolic == symbolic and row.counted == count, (p, row)
            assert f"p={p}, n=4" in verdict.detail
