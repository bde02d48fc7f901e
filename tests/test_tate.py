from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arczeta.tate import NonPolynomialCoefficient, TatePoly
from helpers import RefTate, cyclotomic_unit, ref_tate_eval

# the ring on TatePoly is the tests' reference model, helpers.RefTate
L = RefTate.L


def test_construction_drops_zeros():
    p = TatePoly({3: 0, 1: 2, 0: Fraction(1, 2)})
    assert p.c == {1: Fraction(2), 0: Fraction(1, 2)}
    assert RefTate({2: 1, -2: -1}) + RefTate({-2: 1, 2: -1}) == TatePoly()


def test_basic_arithmetic():
    p = L(1) - 1  # L - 1
    q = L(1) + 1
    assert p * q == L(2) - 1
    assert p * p == L(2) - 2 * L(1) + 1
    assert (p - p).is_zero()
    assert L(-2, 3) * L(5) == L(3, 3)


def test_exact_div_cyclotomic():
    # L^6 - 1 = (L^2 - 1)(L^4 + L^2 + 1)
    num = cyclotomic_unit(6)
    q = num.exact_div(cyclotomic_unit(2))
    assert q == L(4) + L(2) + 1
    with pytest.raises(NonPolynomialCoefficient):
        cyclotomic_unit(5).exact_div(cyclotomic_unit(2))


def test_exact_div_laurent_shift():
    # (L - 1) * L^-3 divided by (L - 1) recovers the shift
    p = (L(1) - 1) * L(-3)
    assert p.exact_div(L(1) - 1) == L(-3)
    assert p.exact_div(L(-3)) == L(1) - 1


def test_str_forms():
    assert str(TatePoly()) == "0"
    assert str(L(1) - 1) == "L - 1"
    assert str(L(-2, Fraction(1, 3))) == "(1/3)*L^-2"
    assert str(-2 * L(1) + 1) == "-2*L + 1"


def test_json_round_trip():
    p = 2 * L(5) - L(-1, Fraction(3, 7)) + 1
    assert TatePoly.from_json(p.to_json()) == p


@pytest.mark.parametrize(
    "data,error",
    [
        ([[0.5, "1"]], "L-exponent must be an integer, got 0.5"),
        ([[True, "1"]], "L-exponent must be an integer, got True"),
        ([[0, "1"], [0, "2"]], "lists L\\^0 twice"),
    ],
)
def test_from_json_rejects_malformed_exponent(data, error):
    with pytest.raises(ValueError, match=error):
        TatePoly.from_json(data)


@pytest.mark.parametrize(
    "data,error",
    [
        (5, "L-coefficient must be a list, got 5"),
        ([5], "each L-coefficient entry must be a list of 2 values, got 5"),
        ([[0, "1", 2]], "each L-coefficient entry must be a list of 2 values"),
    ],
)
def test_from_json_rejects_malformed_shape(data, error):
    with pytest.raises(ValueError, match=error):
        TatePoly.from_json(data)


@pytest.mark.parametrize(
    "data,error",
    [
        ([[3, 1e-400]], "coefficient of L\\^3 must be a string or an integer, got 0.0"),
        ([[0, 1.0000000000000001]], "coefficient of L\\^0 must be a string or an integer, got 1.0"),
        ([[0, 0.5]], "coefficient of L\\^0 must be a string or an integer, got 0.5"),
        ([[1, True]], "coefficient of L\\^1 must be a string or an integer, got True"),
        ([[1, "1/0"]], "coefficient of L\\^1 must be a rational, got '1/0'"),
        ([[1, "x"]], "coefficient of L\\^1 must be a rational, got 'x'"),
    ],
)
def test_from_json_rejects_inexact_coefficients(data, error):
    # a JSON float is already rounded (1e-400 reads as 0.0): reading it would drop or change a term
    with pytest.raises(ValueError, match=error):
        TatePoly.from_json(data)


def test_from_json_reads_integers_and_exact_strings():
    assert TatePoly.from_json([[0, 2], [1, "-3/4"], [2, "1e-400"]]) == TatePoly({0: 2, 1: Fraction(-3, 4), 2: Fraction(1, 10**400)})


coeffs = st.fractions(max_denominator=20)
exps = st.integers(min_value=-6, max_value=6)
polys = st.dictionaries(exps, coeffs, max_size=5).map(RefTate)


@given(polys, polys, st.fractions(max_denominator=7).filter(lambda q: q != 0))
def test_eval_is_ring_morphism(p, q, x):
    assert ref_tate_eval(p * q, x) == ref_tate_eval(p, x) * ref_tate_eval(q, x)
    assert ref_tate_eval(p + q, x) == ref_tate_eval(p, x) + ref_tate_eval(q, x)


@given(polys, polys)
def test_exact_div_inverts_mul(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p
