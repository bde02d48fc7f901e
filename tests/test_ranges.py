from fractions import Fraction
from itertools import product

import pytest

from arczeta import ranges
from arczeta.presburger import LinTerm, parse_presburger
from arczeta.ranges import (
    DivergentSum,
    IteratedRangeSystem,
    Piece,
    RangeVar,
    UnsupportedShape,
    to_iterated_ranges,
    weighted_sum,
)
from arczeta.ratseries import RatSeries, rs_equal, rs_expand
from helpers import RefTate, direct_weighted_sum, enumerate_solutions, ref_contains

L = RefTate.L
A = LinTerm.make


def ranges_of(text, order):
    return to_iterated_ranges(parse_presburger(text), order)


def check_against_oracle(text, order, box):
    f = parse_presburger(text)
    sys = to_iterated_ranges(f, order)
    oracle = enumerate_solutions(f, order, box)
    got = set()
    for pt in product(box, repeat=len(order)):
        env = dict(zip(order, pt))
        hits = sum(1 for p in sys.pieces if _contains_one(p, env))
        assert hits <= 1, f"pieces overlap at {env}"
        if hits:
            got.add(pt)
    assert got == oracle, text
    return sys


def _contains_one(piece, env):
    return ref_contains(IteratedRangeSystem(tuple(env), (piece,)), env)


# --- decomposition ----------------------------------------------------------


def test_single_progression():
    sys = ranges_of("n >= 4 & n == 0 mod 4", ["n"])
    assert len(sys.pieces) == 1
    (rv,) = sys.pieces[0].ranges
    assert rv.step == 4 and rv.cap is None
    assert rv.base == LinTerm.of_const(4)


def test_stratum_shape():
    # one piece: l >= 1 free, n >= 4*l
    sys = check_against_oracle("n >= 4*l & l >= 1", ["l", "n"], range(0, 41))
    assert len(sys.pieces) == 1
    rl, rn = sys.pieces[0].ranges
    assert (rl.var, rn.var) == ("l", "n")
    assert rl.base == LinTerm.of_const(1) and rl.step == 1
    assert rn.base == A({"l": 4}) and rn.step == 1


def test_between_consecutive_multiples():
    check_against_oracle("4*l < n & n < 4*l + 4 & l >= 0", ["l", "n"], range(0, 41))


def test_tight_double_inequality_unbounded_is_rejected():
    with pytest.raises(UnsupportedShape):
        ranges_of("2*l <= 3*n & 3*n <= 2*l + 1", ["n", "l"])


def test_tight_double_inequality_bounded():
    check_against_oracle(
        "2*l <= 3*n & 3*n <= 2*l + 1 & n >= 0 & l >= 0", ["n", "l"], range(0, 61)
    )


def test_triangle_with_congruence():
    check_against_oracle(
        "0 <= a & a <= n & n == 1 mod 3", ["n", "a"], range(0, 41)
    )


def test_disjunction_pieces_disjoint():
    check_against_oracle(
        "(n >= 2 & n == 0 mod 2) | (n >= 3 & n == 0 mod 3)", ["n"], range(0, 41)
    )


def test_equality_collapses_range():
    sys = check_against_oracle("n = 2*l + 1 & l >= 0", ["l", "n"], range(0, 41))
    for piece in sys.pieces:
        rn = piece.ranges[1]
        assert rn.cap is not None  # pinned above and below


def test_negated_congruence():
    check_against_oracle("!(n == 0 mod 4) & n >= 1", ["n"], range(0, 41))


@pytest.mark.parametrize(
    "text,order",
    [
        ("!(a = n) & 0 <= a & a <= n & n <= 12", ["n", "a"]),
        ("!(n <= 3 | !(n == 1 mod 2)) & n <= 30", ["n"]),
        ("!!(n >= 2) & !(n > 9) & !(2*n = 3*l) & l >= 0 & l <= 6", ["l", "n"]),
    ],
)
def test_negated_comparisons(text, order):
    check_against_oracle(text, order, range(0, 41))


def test_mixed_coefficients():
    check_against_oracle("2*n >= 3*l & l >= 1 & n <= 20", ["l", "n"], range(0, 41))


def test_unbounded_below_rejected():
    with pytest.raises(UnsupportedShape):
        ranges_of("n <= 5", ["n"])


def test_unconstrained_variable_rejected():
    with pytest.raises(UnsupportedShape):
        ranges_of("n >= 0", ["n", "m"])


def test_formula_variable_outside_order():
    with pytest.raises(ValueError):
        ranges_of("n >= m", ["n"])


# --- weighted summation -----------------------------------------------------


def test_sum_single_progression_matches_geometric_term():
    # sum over {4 + 4s} of T^n = T^4 / (1 - T^4)
    sys = ranges_of("n >= 4 & n == 0 mod 4", ["n"])
    got = weighted_sum(sys, A({}), A({"n": 1}))
    want = RatSeries({4: RefTate.one()}, geom=[(0, 4)])
    assert rs_equal(got, want)


def test_sum_cyclic_cover_term():
    # sum over l >= 1 of L^(2l) T^(6l) = L^2 T^6 / (1 - L^2 T^6)
    sys = ranges_of("l >= 1", ["l"])
    got = weighted_sum(sys, A({"l": -2}), A({"l": 6}))
    want = RatSeries({6: L(2)}, geom=[(2, 6)])
    assert rs_equal(got, want)


def test_sum_empty_system_is_zero():
    sys = IteratedRangeSystem(("n",), ())
    assert weighted_sum(sys, A({}), A({"n": 1})).is_zero()


def test_sum_triangle_counts():
    # sum over 0 <= a <= n of T^n = sum (n+1) T^n = 1/(1-T)^2
    sys = ranges_of("0 <= a & a <= n & n >= 0", ["n", "a"])
    got = weighted_sum(sys, A({}), A({"n": 1}))
    want = RatSeries({0: RefTate.one()}, geom=[(0, 1), (0, 1)])
    assert rs_equal(got, want)


def test_sum_reversed_index():
    # tweight 2n - a on the triangle: coefficient of T^m is floor(m/2) + 1,
    # the series 1 / ((1 - T)(1 - T^2)); the inner index must be reversed
    sys = ranges_of("0 <= a & a <= n & n >= 0", ["n", "a"])
    got = weighted_sum(sys, A({}), A({"n": 2, "a": -1}))
    want = RatSeries({0: RefTate.one()}, geom=[(0, 1), (0, 2)])
    assert rs_equal(got, want)


def test_sum_pure_L_direction_gives_cyclotomic():
    # sum over a >= 0 of L^(-a) = L/(L - 1)
    sys = ranges_of("a >= 0", ["a"])
    got = weighted_sum(sys, A({"a": 1}), A({}))
    want = RatSeries({0: L(1)}, cyclo=[1])
    assert rs_equal(got, want)


def test_sum_divergent_without_weights():
    sys = ranges_of("n >= 0", ["n"])
    with pytest.raises(DivergentSum):
        weighted_sum(sys, A({}), A({}))
    with pytest.raises(DivergentSum):
        weighted_sum(sys, A({"n": -1}), A({}))  # L-exponent grows


def test_sum_divergent_constant_T_fiber():
    # fixing a = n makes tweight n - a constant zero along an unbounded ray
    sys = ranges_of("0 <= a & a <= n & n >= 0", ["n", "a"])
    with pytest.raises(DivergentSum):
        weighted_sum(sys, A({}), A({"n": 1, "a": -1}))


SUM_CORPUS = [
    # (formula, order, lweight, tweight)
    ("n >= 4 & n == 0 mod 4", ["n"], {}, {"n": 1}),
    ("n >= 1", ["n"], {"n": -2}, {"n": 6}),
    ("n >= 0", ["n"], {"n": 3}, {"n": 1}),
    ("n >= 2 & n == 1 mod 3", ["n"], {"n": 1}, {"n": 2}),
    ("0 <= a & a <= n & n >= 0", ["n", "a"], {}, {"n": 1}),
    ("0 <= a & a <= n & n >= 0", ["n", "a"], {"a": 1}, {"n": 1}),
    ("0 <= a & a <= n & n >= 0", ["n", "a"], {"a": -1, "n": 2}, {"n": 2, "a": -1}),
    ("0 <= a & a <= 2*n & n >= 0 & a == 0 mod 2", ["n", "a"], {"a": 2}, {"n": 1, "a": 1}),
    ("n >= 4*l & l >= 1", ["l", "n"], {"l": -1}, {"n": 1}),
    ("4*l <= n & n < 4*l + 4 & l >= 1", ["l", "n"], {"l": 4, "n": -1}, {"n": 1}),
    ("n = 2*l + 1 & l >= 0", ["l", "n"], {"l": 1}, {"n": 1}),
    ("(n >= 2 & n == 0 mod 2) | (n >= 3 & n == 0 mod 3)", ["n"], {}, {"n": 1}),
    ("2*l <= 3*n & 3*n <= 2*l + 1 & n >= 0 & l >= 0", ["n", "l"], {"l": 1}, {"n": 3}),
]


@pytest.mark.parametrize("text,order,lw,tw", SUM_CORPUS)
def test_sum_matches_direct_enumeration(text, order, lw, tw):
    sys = ranges_of(text, order)
    lweight, tweight = A(lw), A(tw)
    got = weighted_sum(sys, lweight, tweight)
    tmax = 40
    expanded = rs_expand(got, tmax)
    direct = direct_weighted_sum(sys, lweight, tweight, tmax)
    assert expanded.coeffs == direct, text


CHAIN3 = "0 <= b & b <= a & a <= n & n >= 0"
CHAIN4 = "0 <= c & c <= b & b <= a & a <= n & n >= 0"


@pytest.mark.parametrize(
    "text,order,lw,tw,reached",
    [
        # (sign, gamma): -1 reverses a capped index, +1 subtracts a capped tail
        (CHAIN3, ["n", "a", "b"], {"a": 1}, {"n": 3, "a": -1}, {(-1, 1), (1, 1)}),
        (CHAIN3, ["n", "a", "b"], {}, {"n": 2, "a": 1}, {(1, 1)}),
        (CHAIN4, ["n", "a", "b", "c"], {}, {"n": 2, "a": 1}, {(1, 2)}),
    ],
)
def test_capped_sums_with_polynomial_weights(monkeypatch, text, order, lw, tw, reached):
    # the index substitution of a capped sum expands (shift +- s)^gamma with gamma >= 1
    seen = set()
    substituted = ranges._substituted

    def spy(t, s, gamma, shift, sign):
        seen.add((sign, gamma))
        return substituted(t, s, gamma, shift, sign)

    monkeypatch.setattr(ranges, "_substituted", spy)
    sys = ranges_of(text, order)
    got = weighted_sum(sys, A(lw), A(tw))
    assert rs_expand(got, 24).coeffs == direct_weighted_sum(sys, A(lw), A(tw), 24, clip=24)
    assert reached <= seen


def test_affine_form_string_and_eval():
    form = A({"x": Fraction(1, 2), "y": -1}, Fraction(3, 2))
    assert str(form) == "1/2*x - y + 3/2"
    assert form.eval({"x": 3, "y": 1}) == 2
    assert form.eval({"x": 2, "y": 1}) == Fraction(3, 2)
    assert form.denominator_lcm() == 2 and A({"x": 3}, -1).denominator_lcm() == 1
    assert form.shift(Fraction(-3, 2)) == A({"x": Fraction(1, 2), "y": -1})
    assert LinTerm.of_const(Fraction(5, 3)).is_const() and not form.is_const()
    # subst replaces the variables env names and keeps the others
    assert form.subst({"x": A({"s": 2}, 1)}) == A({"s": 1, "y": -1}, 2)
    # rational and integer coefficients of equal value make equal terms
    assert A({"x": Fraction(4, 2)}, Fraction(0)) == A({"x": 2})


def test_weights_outside_the_order_are_rejected():
    sys = ranges_of("n >= 1", ["n"])
    with pytest.raises(ValueError, match=r"outside the order: \['m'\]"):
        weighted_sum(sys, A({}), A({"n": 1, "m": 1}))
    with pytest.raises(ValueError, match=r"outside the order: \['k', 'm'\]"):
        weighted_sum(sys, A({"k": 1}), A({"m": 1}))
    # an empty system does not excuse a stray weight variable
    with pytest.raises(ValueError, match="outside the order"):
        weighted_sum(IteratedRangeSystem(("n",), ()), A({}), A({"m": 1}))


def test_hand_built_piece_sum():
    # a hand-built capped piece: n in {0 + 1*s} up to 5, weight T^n
    piece = Piece((RangeVar("n", LinTerm.of_const(0), 1, LinTerm.of_const(5)),))
    sys = IteratedRangeSystem(("n",), (piece,))
    got = weighted_sum(sys, A({}), A({"n": 1}))
    coeffs = rs_expand(got, 8).coeffs
    assert coeffs == [RefTate.one()] * 6 + [RefTate.zero()] * 3
