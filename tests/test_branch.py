"""Characteristic sequences, closed-form Poincare series, and root-of-unity gaps.

The two series produced by `branch` are cross-checked coefficient-by-coefficient
against the stratum classes from `chi_c_arc_class` (an independent finite sum),
and pole locations are round-tripped back to the characteristic exponents.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from arczeta.branch import (
    BadRoot,
    BranchSpec,
    CharSeq,
    NotAPuiseuxPole,
    OutOfRange,
    TruncationTooShort,
    characteristic_sequence,
    chi_c_arc_class,
    order_gap,
    p_ar,
    p_geom,
    puiseux_from_poles,
)
from arczeta.ratseries import (
    RatSeries,
    rs_equal,
    rs_expand,
    rs_normalize,
    rs_poles_in_L,
    rs_specialize,
)
from arczeta.tate import TatePoly
from helpers import RefTate, ref_y_coeff

SMOOTH = BranchSpec.make(1, {})
CUSP = BranchSpec.make(2, {3: 1})
STD4 = BranchSpec.make(4, {6: 1, 7: 1})  # x = w^4, y = w^6 + w^7


# ---------------------------------------------------------------------------
# BranchSpec and characteristic sequences
# ---------------------------------------------------------------------------


def test_branch_json_round_trip():
    b = BranchSpec.from_json({"m": 4, "coeffs": [[6, "1"], [7, "1"]]})
    assert b == STD4
    assert b.to_json() == {"m": 4, "coeffs": [[6, "1"], [7, "1"]], "truncation": 7}
    again = BranchSpec.from_json(b.to_json())
    assert again == b


def test_branch_json_rational_strings():
    b = BranchSpec.from_json('{"m": 2, "coeffs": [[3, "1/2"], [5, "-7/3"]]}')
    assert ref_y_coeff(b, 3) == Fraction(1, 2)
    assert ref_y_coeff(b, 5) == Fraction(-7, 3)
    assert ref_y_coeff(b, 4) == 0


@pytest.mark.parametrize(
    "obj",
    [
        {"coeffs": []},
        {"m": "x", "coeffs": []},
        {"m": 2, "coeffs": [[3, "1/0"]]},
        {"m": 2, "coeffs": "nope"},
        [],
    ],
)
def test_branch_json_malformed(obj):
    with pytest.raises(ValueError):
        BranchSpec.from_json(obj)


@pytest.mark.parametrize(
    "obj,error",
    [
        ({"m": 4.5, "coeffs": [[6, "1"]]}, "m must be an integer, got 4.5"),
        ({"m": True, "coeffs": []}, "m must be an integer, got True"),
        ({"m": 4, "coeffs": [[6.7, "1"]]}, "coefficient index must be an integer, got 6.7"),
        ({"m": 4, "coeffs": [[6, "1"], [6, "2"]]}, "a_6 given twice"),
        ({"m": 4, "coeffs": [[6, "1"]], "truncation": "9"}, "truncation must be an integer"),
    ],
)
def test_branch_json_names_bad_field(obj, error):
    with pytest.raises(ValueError, match=error):
        BranchSpec.from_json(obj)


@pytest.mark.parametrize(
    "text,error",
    [
        ('{"m": 2, "coeffs": [[3, 1e-400], [5, 1]]}', "coefficient a_3 must be a string or an integer, got 0.0"),
        ('{"m": 2, "coeffs": [[3, 1.0000000000000001]]}', "coefficient a_3 must be a string or an integer, got 1.0"),
        ('{"m": 2, "coeffs": [[3, 0.5]]}', "coefficient a_3 must be a string or an integer, got 0.5"),
        ('{"m": 2, "coeffs": [[3, true]]}', "coefficient a_3 must be a string or an integer, got True"),
    ],
)
def test_branch_json_rejects_inexact_coefficients(text, error):
    # read as a float, 1e-400 would be 0.0 and the branch silently (2;5) instead of (2;3)
    with pytest.raises(ValueError, match=error):
        BranchSpec.from_json(text)


def test_branch_json_reads_integer_and_exact_string_coefficients():
    b = BranchSpec.from_json('{"m": 2, "coeffs": [[3, "1e-400"], [5, 1]]}')
    assert b.coeffs == {3: Fraction(1, 10**400), 5: Fraction(1)}
    assert characteristic_sequence(b).beta == (2, 3)


def test_branch_rejects_exponent_below_multiplicity():
    with pytest.raises(ValueError):
        BranchSpec.make(4, {3: 1})


def test_charseq_smooth():
    c = characteristic_sequence(SMOOTH)
    assert (c.g, c.beta, c.e, c.n, c.N) == (0, (1,), (1,), (), (1,))


def test_charseq_cusp():
    c = characteristic_sequence(CUSP)
    assert (c.g, c.beta, c.e, c.n, c.N) == (1, (2, 3), (2, 1), (2,), (1, 2))


def test_charseq_std4():
    c = characteristic_sequence(STD4)
    assert c.g == 2
    assert c.beta == (4, 6, 7)
    assert c.e == (4, 2, 1)
    assert c.n == (2, 2)
    assert c.N == (1, 2, 4)


def test_charseq_ignores_tame_exponents():
    # exponents divisible by the running gcd never become characteristic
    b = BranchSpec.make(4, {8: 5, 12: Fraction(1, 3), 6: 1, 7: 2, 10: 9})
    c = characteristic_sequence(b)
    assert c.beta == (4, 6, 7)


def test_truncation_too_short():
    with pytest.raises(TruncationTooShort):
        characteristic_sequence(BranchSpec.make(2, {}))
    with pytest.raises(TruncationTooShort):
        characteristic_sequence(BranchSpec.make(4, {6: 1}))  # stalls at e=2
    # an explicit zero does not help
    with pytest.raises(TruncationTooShort):
        characteristic_sequence(BranchSpec.make(4, {6: 1, 7: 0}))


def _random_branch(rng: random.Random) -> BranchSpec:
    m = rng.randint(1, 12)
    coeffs: dict[int, Fraction] = {}
    for _ in range(rng.randint(0, 3)):
        j = rng.randint(m, m + 24)
        coeffs[j] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    # force the gcd chain down to 1 so the sequence is certified
    e, j = m, m
    while e > 1:
        j += rng.randint(1, 6)
        if j % e != 0:
            if coeffs.get(j, 0) == 0:
                coeffs[j] = Fraction(1)
            e = math.gcd(e, j)
    return BranchSpec.make(m, coeffs)


def test_charseq_structural_invariants_random():
    rng = random.Random(9041)
    for _ in range(200):
        c = characteristic_sequence(_random_branch(rng))
        assert c.e[0] == c.beta[0] == c.m
        assert c.e[-1] == 1
        for i in range(1, c.g + 1):
            assert c.e[i] == math.gcd(c.e[i - 1], c.beta[i])
            assert c.e[i] < c.e[i - 1]
            assert c.e[i - 1] == c.n[i - 1] * c.e[i]
            assert c.N[i] * c.e[i] == c.m
            assert c.beta[i] > c.beta[i - 1]
        assert c.N[0] == 1


# ---------------------------------------------------------------------------
# Closed-form series
# ---------------------------------------------------------------------------


def test_p_geom_smooth_normalizes_to_single_factor():
    s = p_geom(characteristic_sequence(SMOOTH))
    assert rs_equal(s, RatSeries.geometric(1, 1))
    assert rs_normalize(s) == RatSeries.geometric(1, 1)


def test_p_ar_smooth_normalizes_to_single_factor():
    s = p_ar(characteristic_sequence(SMOOTH))
    assert rs_equal(s, RatSeries.geometric(1, 1))
    assert rs_normalize(s) == RatSeries.geometric(1, 1)


def test_p_geom_std4_coefficients():
    exp = rs_expand(p_geom(characteristic_sequence(STD4)), 8)
    for n in range(4):
        assert exp[n] == RefTate.one()
    # T^5: 1 + (L-1)L = L^2 - L + 1
    assert exp[5] == TatePoly({2: 1, 1: -1, 0: 1})


def test_p_ar_std4_displayed_denominator():
    s = p_ar(characteristic_sequence(STD4))
    assert s.geom == ((0, 1), (1, 1), (0, 4), (2, 6), (3, 7))
    assert s.cyclo == ()


def test_p_ar_std4_t6_coefficient():
    exp = rs_expand(p_ar(characteristic_sequence(STD4)), 8)
    for n in range(4):
        assert exp[n] == RefTate.one()
    # 1 + (1/4)(L-1)L^2 + (1/4)(L-1)L^2
    expected = RefTate.one() + (RefTate.L(1) - RefTate.one()).shift(2) * RefTate.const(Fraction(1, 2))
    assert exp[6] == expected


def test_p_ar_std4_specializes_to_counts_at_5():
    f = rs_specialize(p_ar(characteristic_sequence(STD4)), 5)
    coeffs = f.taylor(8)
    assert coeffs[3] == 1
    assert coeffs[4] == 2
    assert coeffs[6] == 51
    assert all(c.denominator == 1 for c in coeffs)


def test_p_ar_integer_coefficients_at_admissible_primes():
    # L = p with p = 1 mod m must clear every denominator in the expansion
    c = characteristic_sequence(STD4)
    for p in (5, 13):
        coeffs = rs_specialize(p_ar(c), p).taylor(12)
        assert all(x.denominator == 1 for x in coeffs)


# ---------------------------------------------------------------------------
# Stratum classes and the assembly identity
# ---------------------------------------------------------------------------


def test_chi_c_examples():
    c = characteristic_sequence(STD4)
    unit = RefTate.L(1) - RefTate.one()
    geo, ar = chi_c_arc_class(c, 6, 1)
    assert geo == unit.shift(2)
    assert ar == unit.shift(2) * RefTate.const(Fraction(2, 4))
    geo, ar = chi_c_arc_class(c, 4, 1)
    assert geo == unit
    assert ar == unit * RefTate.const(Fraction(1, 4))
    # geometric part never depends on the index i
    geo8, _ = chi_c_arc_class(c, 8, 2)
    assert geo8 == unit.shift(0)


def test_chi_c_out_of_range():
    c = characteristic_sequence(STD4)
    with pytest.raises(OutOfRange):
        chi_c_arc_class(c, 6, 0)
    with pytest.raises(OutOfRange):
        chi_c_arc_class(c, 6, 2)  # 2*4 > 6


def _assembled_coefficient(c: CharSeq, n: int, which: int) -> RefTate:
    total = RefTate.one()
    for ell in range(1, n // c.m + 1):
        total = total + chi_c_arc_class(c, n, ell)[which]
    return total


def test_series_assembly_identity_random_branches():
    """Coefficient of T^n equals 1 + sum of stratum classes, for both series."""
    rng = random.Random(77002)
    branches = [SMOOTH, CUSP, STD4] + [_random_branch(rng) for _ in range(50)]
    for b in branches:
        c = characteristic_sequence(b)
        geo = rs_expand(p_geom(c), 25)
        ar = rs_expand(p_ar(c), 25)
        for n in range(26):
            assert geo[n] == _assembled_coefficient(c, n, 0), (b, n)
            assert ar[n] == _assembled_coefficient(c, n, 1), (b, n)


# ---------------------------------------------------------------------------
# Poles and Puiseux recovery
# ---------------------------------------------------------------------------


def test_puiseux_from_poles_examples():
    assert puiseux_from_poles([Fraction(-1, 3), Fraction(-3, 7)], 4) == [6, 7]
    assert puiseux_from_poles([Fraction(-1, 3)], 2) == [3]
    with pytest.raises(NotAPuiseuxPole):
        puiseux_from_poles([Fraction(-1)], 2)
    with pytest.raises(NotAPuiseuxPole):
        puiseux_from_poles([Fraction(1, 3)], 2)
    with pytest.raises(NotAPuiseuxPole):
        puiseux_from_poles([Fraction(-2, 5)], 4)  # 4/(3/5) = 20/3


def test_std4_pole_locations():
    poles = rs_poles_in_L(p_ar(characteristic_sequence(STD4)))
    assert {a for a in poles if -1 < a < 0} == {Fraction(-1, 3), Fraction(-3, 7)}


def test_pole_round_trip_random_branches():
    rng = random.Random(3314)
    branches = [SMOOTH, CUSP, STD4] + [_random_branch(rng) for _ in range(25)]
    for b in branches:
        c = characteristic_sequence(b)
        poles = rs_poles_in_L(p_ar(c))
        window = sorted(a for a in poles if -1 < a < 0)
        assert puiseux_from_poles(window, c.m) == list(c.beta[1:]), b


# ---------------------------------------------------------------------------
# Order gaps at roots of unity
# ---------------------------------------------------------------------------


def test_order_gap_examples():
    assert order_gap(STD4, 5, 2) == 6  # order of 2 mod 5 is 4
    assert order_gap(STD4, 5, 3) == 6  # order 4 as well
    assert order_gap(STD4, 5, 4) == 7  # order 2
    assert order_gap(STD4, 5, 1) == math.inf


def test_order_gap_bad_inputs():
    with pytest.raises(BadRoot):
        order_gap(CUSP, 5, 2)  # 2^2 = 4 != 1 mod 5
    with pytest.raises(BadRoot):
        order_gap(STD4, 5, 0)
    with pytest.raises(ValueError):
        order_gap(STD4, 7, 1)  # 7 != 1 mod 4
    with pytest.raises(ValueError):
        order_gap(STD4, 9, 1)  # not prime
    with pytest.raises(ValueError):
        order_gap(BranchSpec.make(2, {3: Fraction(1, 5)}), 5, 4)  # p | denominator


def _mult_order(z: int, p: int) -> int:
    k, acc = 1, z % p
    while acc != 1:
        acc = acc * z % p
        k += 1
    return k


WK_BRANCHES = {
    2: CUSP,
    4: STD4,
    6: BranchSpec.make(6, {9: 1, 10: 1}),  # e = (6, 3, 1)
    12: BranchSpec.make(12, {18: 1, 21: 1, 22: 1}),  # e = (12, 6, 3, 1)
}


@pytest.mark.parametrize(
    "p,m",
    [(5, 2), (5, 4), (13, 2), (13, 4), (13, 6), (13, 12)],
)
def test_order_gap_matches_root_filtration(p, m):
    """gap = beta_i exactly when ord(zeta) divides e_{i-1} but not e_i."""
    b = WK_BRANCHES[m]
    c = characteristic_sequence(b)
    roots = [z for z in range(1, p) if pow(z, m, p) == 1]
    assert len(roots) == m  # p = 1 mod m gives the full group
    for z in roots:
        gap = order_gap(b, p, z)
        d = _mult_order(z, p)
        if d == 1:
            assert gap == math.inf
        else:
            (i,) = [i for i in range(1, c.g + 1) if c.e[i - 1] % d == 0 and c.e[i] % d != 0]
            assert gap == c.beta[i], (z, d)
