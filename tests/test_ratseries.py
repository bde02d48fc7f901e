import json
import random
from fractions import Fraction
from math import gcd

import pytest
from functools import reduce
from operator import mul

from hypothesis import example, given, settings
from hypothesis import strategies as st

from arczeta import branch, ratseries
from arczeta.fq import is_prime, poly_mul
from arczeta.ratseries import (
    RatFunc,
    RatSeries,
    SpecializationPole,
    rs_add,
    rs_equal,
    rs_expand,
    rs_from_json,
    rs_latex,
    rs_mul,
    rs_normalize,
    rs_poles_in_L,
    rs_scale,
    rs_specialize,
    rs_text,
    rs_to_json,
)
from arczeta.branch import BranchSpec, characteristic_sequence, chi_c_arc_class, p_ar, p_geom
from arczeta.tate import NonPolynomialCoefficient, TatePoly
from helpers import (
    RefSeries,
    RefTate,
    cyclotomic_unit,
    ref_add,
    ref_equal,
    ref_expand,
    ref_latex,
    ref_mul,
    ref_nested,
    ref_normalize,
    ref_poles_in_L,
    ref_scale,
    ref_specialize,
    ref_specialize_truncated,
    ref_tate_eval,
    ref_tate_text,
    ref_taylor,
    ref_text,
    ref_to_json,
)

L = RefTate.L
ONE = RefTate.one()


def geom(a, b):
    return RatSeries.geometric(a, b)


def test_expand_geometric():
    # 1/(1 - L T^2) = 1 + L T^2 + L^2 T^4 + ...
    s = rs_expand(geom(1, 2), 5)
    assert s.coeffs == [ONE, RefTate.zero(), L(1), RefTate.zero(), L(2), RefTate.zero()]


def test_expand_with_cyclotomic_division():
    # (L^2 - 1)/(L - 1) / (1 - T) should expand with coefficient L + 1
    x = RatSeries({0: TatePoly({2: 1, 0: -1})}, geom=[(0, 1)], cyclo=[1])
    s = rs_expand(x, 3)
    assert all(c == L(1) + 1 for c in s.coeffs)


def test_expand_cyclotomic_failure():
    # 1/(L-1) alone has no polynomial coefficients
    x = RatSeries({0: ONE}, cyclo=[1])
    with pytest.raises(NonPolynomialCoefficient):
        rs_expand(x, 2)


def test_add_merges_denominators():
    # 1/(1-T) + 1/(1-T) = 2/(1-T), denominators must not duplicate
    x = rs_add(geom(0, 1), geom(0, 1))
    assert x.geom == ((0, 1),)
    assert (x.num, x.den) == ({(0, 0): 2}, 1)


def test_add_and_mul_against_expansion():
    x = geom(1, 1)  # 1/(1-LT)
    y = geom(0, 2)  # 1/(1-T^2)
    n = 8
    ex, ey = ([RefTate(c.c) for c in rs_expand(z, n).coeffs] for z in (x, y))
    s = rs_expand(rs_add(x, y), n)
    p = rs_expand(rs_mul(x, y), n)
    for k in range(n + 1):
        assert s.coeffs[k] == ex[k] + ey[k]
        conv = RefTate.zero()
        for j in range(k + 1):
            conv = conv + ex[j] * ey[k - j]
        assert p.coeffs[k] == conv


def test_equality_cross_multiplied():
    # 1/(1-T) * (1 - T) == 1
    x = RatSeries({0: ONE, 1: -1 * ONE}, geom=[(0, 1)])
    assert rs_equal(x, RatSeries.one())
    assert x == RatSeries.one()
    assert not rs_equal(geom(0, 1), geom(1, 1))


def test_normalize_cancels_common_factor():
    # (1 - L T) / [(1 - L T)(1 - T)] -> 1/(1 - T)
    num = {0: ONE, 1: -1 * L(1)}
    x = RatSeries(num, geom=[(1, 1), (0, 1)])
    y = rs_normalize(x)
    assert y.geom == ((0, 1),)
    assert (y.num, y.den) == ({(0, 0): 1}, 1)
    assert rs_equal(x, y)


def test_normalize_cancels_cyclotomic_content():
    x = RatSeries({0: TatePoly({3: 1, 0: -1})}, cyclo=[3])
    y = rs_normalize(x)
    assert y.cyclo == ()
    assert (y.num, y.den) == ({(0, 0): 1}, 1)


def test_specialize_reduced():
    # (1-T)/[(1-T)^2] has the coefficients of 1/(1-T) at any q; the quotient
    # keeps both factors
    x = RatSeries({0: ONE, 1: -1 * ONE}, geom=[(0, 1), (0, 1)])
    f = rs_specialize(x, 5)
    assert f.taylor(6) == ref_taylor(ref_specialize(x, 5), 6) == [1] * 7
    assert len(f.den) - 1 == 2


def test_specialize_cyclo_and_taylor():
    # (L - 1)/[(L^2 - 1)(1 - L T)] at L = 3: (1/4) * 1/(1 - 3T)
    x = RatSeries({0: L(1) - 1}, geom=[(1, 1)], cyclo=[2])
    f = rs_specialize(x, 3)
    assert f.taylor(3) == [Fraction(1, 4), Fraction(3, 4), Fraction(9, 4), Fraction(27, 4)]


def test_specialize_guard():
    x = RatSeries({0: ONE}, cyclo=[2])
    for q in (0, 1, -1):
        with pytest.raises(SpecializationPole):
            rs_specialize(x, q)


def _binomials(pairs):
    """The series prod (1 - L^a T^b) over ``pairs`` = [(a, b), ...]."""
    return reduce(rs_mul, (RatSeries({0: ONE, b: -1 * L(a)}) for a, b in pairs), RatSeries.one())


def _over(num, pairs):
    """The series num / prod (1 - L^a T^b) over ``pairs``."""
    return rs_mul(num, RatSeries({0: ONE}, geom=pairs))


def _binomial_product(factors):
    """prod (1 - c T^b) over ``factors`` = [(c, b), ...], expanded in Q[T]."""
    den = [Fraction(1)]
    for c, b in factors:
        den = poly_mul(den, [Fraction(1)] + [Fraction(0)] * (b - 1) + [-Fraction(c)])
    return den


def _same_coefficients(x, reduced, q, order=16):
    """x and a hand-reduced form of it have the reference's coefficients at L = q."""
    got = rs_specialize(x, q).taylor(order)
    assert got == ref_taylor(ref_specialize(x, q), order) == rs_specialize(reduced, q).taylor(order)
    return got


def test_binomials_partial_cancellation():
    # (1 + L T) / (1 - L^2 T^2) = 1 / (1 - L T): a proper factor of the binomial cancels
    x = RatSeries({0: ONE, 1: L(1)}, geom=[(2, 2)])
    assert _same_coefficients(x, geom(1, 1), 3) == [3**n for n in range(17)]
    # (1 + T^2) / [(1 - T^4)(1 - T)] = 1 / [(1 - T^2)(1 - T)]
    x = RatSeries({0: ONE, 2: ONE}, geom=[(0, 4), (0, 1)])
    _same_coefficients(x, RatSeries({0: ONE}, geom=[(0, 2), (0, 1)]), 2)
    assert len(rs_specialize(x, 2).den) - 1 == 5


def test_binomials_repeated_factors():
    # (1 - L T)^2 / [(1 - L T)^3 (1 - L^2 T^2)] = 1 / [(1 - L T)^2 (1 + L T)]
    x = _over(_binomials([(1, 1), (1, 1)]), [(1, 1)] * 3 + [(2, 2)])
    reduced = _over(_binomials([(1, 1)]), [(1, 1), (1, 1), (2, 2)])
    for q in (2, Fraction(-1, 3)):
        _same_coefficients(x, reduced, q)


def test_binomials_zero_numerator_and_unit_factor():
    # the zero series over binomials: zero coefficients, the denominator kept whole
    for q in (2, Fraction(3, 5)):
        f = rs_specialize(RatSeries({}, geom=[(1, 1), (2, 2), (2, 2)]), q)
        assert f.num == () and len(f.den) - 1 == 5 and f.taylor(6) == [0] * 7
    # no geometric factor: the polynomial itself, over den = (1,)
    f = rs_specialize(RatSeries({0: 5, 1: L(1)}), 3)
    assert f.den == (1,) and f.taylor(3) == [5, 3, 0, 0]


def test_binomials_reject_degree_zero():
    # a geometric factor needs b >= 1, from the constructor and from plan JSON
    with pytest.raises(ValueError, match="b >= 1"):
        RatSeries({0: 1}, geom=[(2, 0)])
    for row in ([2, 0, 1], [2, -1, 1]):
        with pytest.raises(ValueError, match="b >= 1"):
            rs_from_json({"numerator": [[0, [[0, "1"]]]], "denomGeom": [row]})


def test_specialize_cyclotomic_scalars_match_full_gcd():
    # rational numerator coefficients from 1/[(q - 1)(q^2 - 1)^2], with a
    # (1 - L T) in numerator and denominator, which stays in the quotient
    x = rs_mul(
        RatSeries({0: ONE, 1: L(1), 2: L(2) - 1}, geom=[(1, 1), (2, 2), (0, 3)], cyclo=[1, 2, 2]),
        RatSeries({0: ONE, 1: -1 * L(1)}),
    )
    reduced = RatSeries({0: ONE, 1: L(1), 2: L(2) - 1}, geom=[(2, 2), (0, 3)], cyclo=[1, 2, 2])
    for q in (2, 3, Fraction(1, 3), 7):
        f = rs_specialize(x, q)
        scalar = (Fraction(q) - 1) * (Fraction(q) ** 2 - 1) ** 2
        nested = ref_nested(x).num
        num = [ref_tate_eval(nested.get(n, RefTate.zero()), q) / scalar for n in range(max(nested) + 1)]
        want = ref_taylor(RatFunc(tuple(num), tuple(_binomial_product([(Fraction(q) ** a, b) for a, b in x.geom]))), 12)
        assert f.taylor(12) == want == rs_specialize(reduced, q).taylor(12)
        assert len(f.den) - 1 == 6


geometric_factors = st.lists(st.tuples(st.integers(-2, 3), st.integers(1, 4)), max_size=5)


@settings(max_examples=150)
@given(
    geometric_factors,
    geometric_factors,
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4),
    st.sampled_from([2, -2, 3, Fraction(1, 2), Fraction(-2, 3)]),
)
def test_binomials_equal_full_gcd(shared, den_only, cofactor, q):
    # numerator = cofactor * (some binomials that may also sit in the denominator)
    x = _over(rs_mul(RatSeries(enumerate(cofactor)), _binomials(shared)), den_only + shared[::2])
    reduced = _over(rs_mul(RatSeries(enumerate(cofactor)), _binomials(shared[1::2])), den_only)
    _same_coefficients(x, reduced, q)
    assert len(rs_specialize(x, q).den) - 1 == sum(b for _, b in x.geom)


def test_p_ar_large_denominator_at_17():
    # P_ar of (8; 12, 14, 15): product denominator of T-degree 51, kept whole
    c = characteristic_sequence(BranchSpec.make(8, {12: 1, 14: 1, 15: 1}))
    assert (c.beta, c.e) == ((8, 12, 14, 15), (8, 4, 2, 1))
    series = p_ar(c)
    assert sum(b for _, b in series.geom) == 51
    f = rs_specialize(series, 17)
    assert len(f.den) - 1 == 51
    strata = [
        1 + sum(ref_tate_eval(chi_c_arc_class(c, n, ell)[1], 17) for ell in range(1, n // c.m + 1))
        for n in range(25)
    ]
    assert f.taylor(24) == strata == ref_taylor(ref_specialize(series, 17), 24)


def test_poles_candidate_filtering():
    # 1/[(1 - L T)(1 - T^2)] has poles at alpha = -1 only
    x = RatSeries({0: ONE}, geom=[(1, 1), (0, 2)])
    assert rs_poles_in_L(x) == {Fraction(-1)}


def test_poles_cancellation_detected():
    # [(1 - LT) + (L - 1)T] / (1 - LT) = (1 - T)/(1 - LT): pole at -1 stays,
    # but numerator (1 - T) kills nothing at T = L^-1, so alpha = -1 is real;
    # compare with numerator exactly (1 - LT): alpha disappears.
    live = RatSeries({0: ONE, 1: -1 * ONE}, geom=[(1, 1)])
    assert rs_poles_in_L(live) == {Fraction(-1)}
    dead = RatSeries({0: ONE, 1: -1 * L(1)}, geom=[(1, 1)])
    assert rs_poles_in_L(dead) == set()


def test_poles_fractional_exponent():
    # 1/(1 - L^2 T^3): pole at alpha = -2/3
    assert rs_poles_in_L(geom(2, 3)) == {Fraction(-2, 3)}


def test_poles_multiplicity_vs_vanishing():
    # (1 - LT)/[(1 - LT)^2] still has a simple pole at alpha = -1
    x = RatSeries({0: ONE, 1: -1 * L(1)}, geom=[(1, 1), (1, 1)])
    assert rs_poles_in_L(x) == {Fraction(-1)}


def test_text_render():
    x = RatSeries({0: ONE, 4: L(1) - 1}, geom=[(1, 1), (0, 4)], cyclo=[2])
    s = rs_text(x)
    assert s == "(1 + (L - 1)*T^4) / [(1 - L*T) (1 - T^4) (L^2 - 1)]"


def test_latex_render_mentions_lefschetz():
    x = RatSeries({0: L(1) - 1}, geom=[(2, 3)])
    s = rs_latex(x)
    assert "\\mathbb{L}" in s and "\\frac" in s


def test_json_round_trip():
    x = RatSeries(
        {0: ONE, 2: TatePoly({1: Fraction(1, 3), -2: -2})},
        geom=[(1, 1), (1, 1), (0, 2)],
        cyclo=[2, 2, 5],
    )
    j = rs_to_json(x)
    y = rs_from_json(j)
    assert (y.num, y.den, y.geom, y.cyclo) == (x.num, x.den, x.geom, x.cyclo)
    assert j["denomGeom"] == [[1, 1, 2], [0, 2, 1]]
    assert j["denomCyclo"] == [[2, 2], [5, 1]]


def test_denominator_factors_render_in_stored_order():
    # geom is stored sorted by (b, a) and cyclo ascending, whatever the input order
    x = RatSeries({0: ONE}, geom=[(0, 2), (3, 1), (0, 1), (0, 2)], cyclo=[5, 2, 5])
    assert rs_to_json(x)["denomGeom"] == [[0, 1, 1], [3, 1, 1], [0, 2, 2]]
    assert rs_to_json(x)["denomCyclo"] == [[2, 1], [5, 2]]
    assert rs_text(x) == "1 / [(1 - T) (1 - L^3*T) (1 - T^2)^2 (L^2 - 1) (L^5 - 1)^2]"
    assert rs_latex(x).index("L}^{3}") < rs_latex(x).index("T^{2}")


# Signed rational coefficients, multi-term coefficients at every T-power
# (the constant one included), a = 0 factors, and repeated geometric and
# cyclotomic factors.
small_series = st.builds(
    RatSeries,
    st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.dictionaries(
            st.integers(min_value=-3, max_value=3),
            st.fractions(max_denominator=9),
            max_size=3,
        ).map(TatePoly),
        max_size=3,
    ),
    st.lists(
        st.tuples(st.integers(min_value=-2, max_value=2), st.integers(min_value=1, max_value=3)),
        max_size=3,
    ),
    st.lists(st.integers(min_value=1, max_value=3), max_size=3),
)

# One of each shape small_series covers, as an explicit example.
MIXED = RatSeries(
    {0: TatePoly({1: 2, 0: Fraction(-1, 3)}), 1: L(2), 2: TatePoly({-1: Fraction(-5, 2)}), 3: TatePoly({0: 4})},
    geom=[(0, 1), (0, 1), (-2, 3)],
    cyclo=[2, 2, 3],
)


@settings(max_examples=60)
@given(small_series, small_series, st.integers(min_value=2, max_value=5))
def test_ring_ops_commute_with_specialization(x, y, q):
    n = 6
    fs = rs_specialize(rs_add(x, y), q).taylor(n)
    xs = rs_specialize(x, q).taylor(n)
    ys = rs_specialize(y, q).taylor(n)
    assert fs == [a + b for a, b in zip(xs, ys)]
    fp = rs_specialize(rs_mul(x, y), q).taylor(n)
    conv = [sum((xs[j] * ys[k - j] for j in range(k + 1)), Fraction(0)) for k in range(n + 1)]
    assert fp == conv


def _cleared(x: RatSeries) -> RatSeries:
    """x scaled by its (L^i - 1) factors, so that every expanded coefficient divides."""
    return rs_scale(x, reduce(mul, map(cyclotomic_unit, x.cyclo), RefTate.one()))


@settings(max_examples=60)
@given(small_series, st.integers(min_value=2, max_value=5))
def test_expand_commutes_with_specialization(x, q):
    x = _cleared(x)
    n = 6
    expanded = ref_specialize_truncated(rs_expand(x, n), q)
    assert expanded == rs_specialize(x, q).taylor(n)


@settings(max_examples=40)
@given(small_series)
def test_normalize_preserves_value(x):
    assert rs_equal(x, rs_normalize(x))


# Factors (1 - L^a T^b) / (1 - L^a T^b) and (L^i - 1) / (L^i - 1): series of
# value 1 whose product with x is x with another denominator.
unit_series = st.one_of(
    st.builds(lambda a, b: RatSeries({0: ONE, b: -1 * L(a)}, geom=[(a, b)]), st.integers(-2, 2), st.integers(1, 3)),
    st.builds(lambda i: RatSeries({0: cyclotomic_unit(i)}, cyclo=[i]), st.integers(1, 3)),
)


@settings(max_examples=200)
@given(small_series, small_series, unit_series)
@example(MIXED, MIXED, RatSeries({0: cyclotomic_unit(2)}, cyclo=[2]))
def test_equal_matches_cross_multiplication(x, y, unit):
    assert rs_equal(x, y) == ref_equal(x, y)
    assert rs_equal(x, rs_mul(x, unit)) and ref_equal(x, rs_mul(x, unit))
    z = rs_add(x, rs_mul(y, unit))
    assert rs_equal(z, rs_add(x, y))
    assert rs_equal(z, x) == ref_equal(z, x) == y.is_zero()


@settings(max_examples=300)
@given(small_series)
@example(MIXED)
def test_render_matches_reference_walks(x):
    assert rs_text(x) == ref_text(x)
    assert rs_latex(x) == ref_latex(x)
    assert all(str(c) == ref_tate_text(c) for c in ref_nested(x).num.values())


@pytest.mark.parametrize(
    "obj,error",
    [
        ({"numerator": [[0, [[0, "1"]]]], "denomGeom": [[0, 1, -2]]}, "multiplicity -2 < 1"),
        ({"numerator": [[0, [[0, "1"]]]], "denomGeom": [[0, 1, 0]]}, "multiplicity 0 < 1"),
        ({"numerator": [[0, [[0, "1"]]]], "denomCyclo": [[2, 0]]}, "multiplicity 0 < 1"),
        ({"numerator": [[0, [[0, "1"]]], [0, [[0, "2"]]]]}, "T\\^0 twice"),
        ({"numerator": [[2, [[0, "1"]]], [-1, [[0, "5"]]]]}, "exponents must be >= 0"),
        ({"numerator": [[0, [[0, "1"], [0, "2"]]]]}, "L\\^0 twice"),
        ({"numerator": [[0, [[0, "1"]]]], "denomGeom": [[0, 1, 1.5]]}, "denomGeom multiplicity must be an integer"),
        ({"numerator": [[0, [[0, "1"]]]], "denomCyclo": [[2, 1.5]]}, "denomCyclo multiplicity must be an integer"),
        ({"numerator": [[0, [[0, "1"]]]], "denomGeom": [[0.5, 1, 1]]}, "denomGeom entry must be an integer"),
        ({"numerator": [[1.0, [[0, "1"]]]]}, "T-exponent must be an integer"),
    ],
)
def test_from_json_rejects_malformed_series(obj, error):
    with pytest.raises(ValueError, match=error):
        rs_from_json(obj)


def test_numerator_is_a_polynomial_in_t():
    with pytest.raises(ValueError, match="exponents must be >= 0"):
        RatSeries({-1: ONE})


def test_mixed_series_renders_as_before():
    assert rs_text(MIXED) == (
        "((2*L - 1/3) + L^2*T + (-(5/2)*L^-1)*T^2 + 4*T^3) / [(1 - T)^2 (1 - L^-2*T^3) (L^2 - 1)^2 (L^3 - 1)]"
    )
    assert rs_latex(MIXED) == (
        "\\frac{\\left(2 \\mathbb{L} - \\tfrac{1}{3}\\right) + \\mathbb{L}^{2} T - \\tfrac{5}{2} \\mathbb{L}^{-1} T^{2}"
        " + 4 T^{3}}{\\left(1 - T\\right)^{2} \\left(1 - \\mathbb{L}^{-2} T^{3}\\right) \\left(\\mathbb{L}^{2} - 1\\right)^{2}"
        " \\left(\\mathbb{L}^{3} - 1\\right)}"
    )


rational_coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=6)


@settings(max_examples=150)
@given(
    rational_coeffs,
    rational_coeffs,
    st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool),
    st.integers(0, 12),
)
def test_taylor_equals_fraction_recurrence(num, den_tail, d0, order):
    # den(0) any nonzero rational, negative and non-unit included
    f = RatFunc(tuple(num), (d0, *den_tail))
    assert f.taylor(order) == ref_taylor(f, order)


def test_taylor_integer_and_unnormalized_inputs():
    f = RatFunc((3, 1), (-2, 0, 4))
    want = ref_taylor(f, 8)
    assert f.taylor(8) == want and all(type(v) is Fraction for v in f.taylor(8))
    assert want[:3] == [Fraction(-3, 2), Fraction(-1, 2), Fraction(-3)]
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), (0, 1)).taylor(3)


laurent_coeff = st.dictionaries(
    st.integers(min_value=-3, max_value=3), st.fractions(max_denominator=9), max_size=3
).map(TatePoly)


@st.composite
def series_with_geometric_content(draw):
    # M (1 - L^a T^b) over a denominator that may hold (1 - L^a T^b), a < 0 allowed
    m = draw(st.dictionaries(st.integers(0, 4), laurent_coeff, max_size=3))
    content = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=2))
    product = RatSeries(m)
    for a, b in content:
        product = rs_mul(product, RatSeries({0: ONE, b: -1 * L(a)}))
    others = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=2))
    cyclo = draw(st.lists(st.integers(1, 3), max_size=2))
    return RatSeries(ref_nested(product).num, content[: draw(st.integers(0, len(content)))] + others, cyclo)


@settings(max_examples=150)
@given(st.one_of(small_series, series_with_geometric_content()))
def test_normalize_equals_trial_division(x):
    y = rs_normalize(x)
    assert ref_nested(y) == ref_normalize(x)
    assert y.den > 0 and gcd(y.den, *y.num.values()) == 1


def test_normalize_divides_when_p_divides_a_denominator(monkeypatch):
    # coefficients 1/P for the prime P = 2^61 - 1: every long division runs,
    # and the quotient keeps den = P
    P = (1 << 61) - 1
    divisions = []
    real = ratseries._div_binomial
    monkeypatch.setattr(ratseries, "_div_binomial", lambda *a: divisions.append(a[1:]) or real(*a))
    inv = Fraction(1, P)
    x = RatSeries({0: RefTate.const(inv), 1: L(1, -inv)}, geom=[(0, 1), (1, 1)])
    y = rs_normalize(x)
    assert divisions == [(0, 1), (1, 1)]
    assert y.geom == ((0, 1),) and (y.num, y.den) == ({(0, 0): 1}, P)


def test_constructor_coerces_scalar_coefficients():
    assert rs_text(RatSeries({0: 1})) == "1" and RatSeries({0: 1}) == RatSeries.one()
    x = RatSeries([(0, Fraction(1, 2)), (2, -3)], geom=[(0, 1)])
    assert (x.num, x.den) == ({(0, 0): 1, (2, 0): -6}, 2)
    assert rs_text(x) == ref_text(x) == "(1/2 + (-3)*T^2) / [(1 - T)]"
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            RatSeries({0: bad})


# The flat integer numerator against the nested {T-exponent: RefTate} model
# it replaced (tests/helpers.py): every operation gives the same series.


@settings(max_examples=150)
@given(small_series, small_series, laurent_coeff)
@example(MIXED, MIXED, TatePoly({1: Fraction(-2, 3), 0: 5}))
@example(RatSeries({0: Fraction(1, 2)}), RatSeries({0: Fraction(1, 2)}), RefTate.const(Fraction(2, 3)))
def test_flat_arithmetic_equals_nested_reference(x, y, c):
    results = [rs_add(x, y), rs_mul(x, y), rs_scale(x, c), x - y]
    assert [ref_nested(z) for z in results] == [ref_add(x, y), ref_mul(x, y), ref_scale(x, c), ref_add(x, ref_scale(y, -1))]
    assert all(z.den > 0 and gcd(z.den, *z.num.values()) == 1 for z in [x, y, *results])


@settings(max_examples=200)
@given(st.one_of(small_series, small_series.map(_cleared), series_with_geometric_content()))
@example(MIXED)
@example(_cleared(MIXED))
def test_flat_expansion_equals_nested_reference(x):
    # the same coefficients at every order, or NonPolynomialCoefficient from both
    for order in range(13):
        try:
            want = ref_expand(x, order).coeffs
        except NonPolynomialCoefficient:
            with pytest.raises(NonPolynomialCoefficient):
                rs_expand(x, order)
        else:
            assert rs_expand(x, order).coeffs == want


@settings(max_examples=100)
@given(st.one_of(small_series, series_with_geometric_content()), st.sampled_from([2, 3, 5, Fraction(2, 3), -7]))
@example(MIXED, 2)
def test_flat_poles_and_specialization_equal_nested_reference(x, q):
    assert rs_poles_in_L(x) == ref_poles_in_L(x)
    assert rs_specialize(x, q).taylor(8) == ref_taylor(ref_specialize(x, q), 8)


def _random_branches(seed: int, count: int):
    """Seeded branches with m <= 12 and rational coefficients; each characteristic
    exponent is a multiple of a proper divisor of the running gcd, so g runs up to 3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.randint(1, 12)
        coeffs, e, j = {}, m, m
        while e > 1:
            d = rng.choice([d for d in range(1, e) if e % d == 0])
            j = (j // d + 1 + rng.randint(0, 2)) * d
            j += d if j % e == 0 else 0
            coeffs[j] = Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 6))
            e = gcd(e, j)
        out.append(characteristic_sequence(BranchSpec.make(m, coeffs)))
    return out


def test_branch_series_render_as_the_nested_reference(monkeypatch):
    branches = _random_branches(22, 60)
    flat = [(p_ar(c), p_geom(c)) for c in branches]
    # the same closed forms, built on the nested model
    monkeypatch.setattr(branch, "RatSeries", RefSeries)
    monkeypatch.setattr(branch, "rs_add", ref_add)
    monkeypatch.setattr(branch, "rs_mul", ref_mul)
    nested = [(p_ar(c), p_geom(c)) for c in branches]
    assert {c.g for c in branches} == {0, 1, 2, 3}
    for pair, ref_pair in zip(flat, nested):
        for x, ref in zip(pair, ref_pair):
            assert isinstance(ref, RefSeries)
            for got, want in ((x, ref), (rs_normalize(x), ref_normalize(ref))):
                assert rs_text(got) == ref_text(want)
                assert rs_latex(got) == ref_latex(want)
                assert rs_to_json(got) == ref_to_json(want)
                assert json.dumps(rs_to_json(got)) == json.dumps(ref_to_json(want))


# The characteristic exponents of the 14 branch shapes the series benchmark
# draws on, from (2; 3) to (10; 15, 17).
SHAPES = [
    (2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6, 7), (4, 6, 9), (6, 8, 9),
    (6, 9, 10), (8, 10, 13), (8, 12, 14, 15), (9, 12, 14), (10, 14, 15), (10, 15, 17),
]


def _shape_series():
    """(m, p_ar) and (m, p_geom) of each shape with seeded rational
    characteristic coefficients, seeds 1-5 (the closed forms read only the
    characteristic sequence, so the seeds vary the branch, not the series)."""
    for beta in SHAPES:
        for seed in range(1, 6):
            rng = random.Random(seed)
            coeffs = {b: Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 6)) for b in beta[1:]}
            c = characteristic_sequence(BranchSpec.make(beta[0], coeffs))
            assert c.beta == beta
            yield c.m, p_ar(c)
            yield c.m, p_geom(c)


def test_specialize_sweep_equals_unreduced_reference():
    # the quotient keeps every binomial: T-degree of den = sum of the b
    for m, x in _shape_series():
        p = next(p for p in range(m + 1, 100) if is_prime(p) and (p - 1) % m == 0)  # admissible
        for q in (p, p**2, Fraction(1, p), Fraction(2, 3), -7):
            f = rs_specialize(x, q)
            assert f.taylor(40) == ref_taylor(ref_specialize(x, q), 40)
            assert len(f.den) - 1 == sum(b for _, b in x.geom)
