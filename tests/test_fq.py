"""Finite-field tower and truncated-series arithmetic."""

import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta.fq import Fq, is_prime, modulus, poly_gcd, poly_rem
from helpers import RefFq, TruncPow


class TestIsPrime:
    def test_small_range_matches_sympy(self):
        for n in range(-3, 2000):
            assert is_prime(n) == sympy.isprime(n), n

    def test_large_values(self):
        for n in [2**31 - 1, 2**61 - 1, 10**18 + 9, 10**18 + 7, (2**31 - 1) * (2**13 - 1)]:
            assert is_prime(n) == sympy.isprime(n), n


# The extension moduli as they were once tabulated, for p <= 13 and
# 2 <= d <= 12: (c_0, ..., c_{d-1}) of u^d + c_{d-1}u^{d-1} + ... + c_0.
FORMER_TABLE = {
    (2, 2): (1, 1),
    (2, 3): (1, 1, 0),
    (2, 4): (1, 1, 0, 0),
    (2, 5): (1, 0, 1, 0, 0),
    (2, 6): (1, 1, 0, 0, 0, 0),
    (2, 7): (1, 1, 0, 0, 0, 0, 0),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 2): (1, 0),
    (3, 3): (1, 2, 0),
    (3, 4): (2, 1, 0, 0),
    (3, 5): (1, 2, 0, 0, 0),
    (3, 6): (2, 1, 0, 0, 0, 0),
    (3, 7): (2, 0, 1, 0, 0, 0, 0),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0),
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0),
    (3, 10): (1, 0, 2, 0, 0, 0, 0, 0, 0, 0),
    (3, 11): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (3, 12): (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (5, 2): (2, 0),
    (5, 3): (1, 1, 0),
    (5, 4): (2, 0, 0, 0),
    (5, 5): (1, 4, 0, 0, 0),
    (5, 6): (2, 1, 0, 0, 0, 0),
    (5, 7): (1, 1, 0, 0, 0, 0, 0),
    (5, 8): (2, 0, 0, 0, 0, 0, 0, 0),
    (5, 9): (3, 2, 1, 0, 0, 0, 0, 0, 0),
    (5, 10): (3, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (5, 11): (1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (5, 12): (4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (7, 2): (1, 0),
    (7, 3): (2, 0, 0),
    (7, 4): (1, 1, 0, 0),
    (7, 5): (3, 1, 0, 0, 0),
    (7, 6): (2, 0, 0, 0, 0, 0),
    (7, 7): (1, 6, 0, 0, 0, 0, 0),
    (7, 8): (3, 1, 0, 0, 0, 0, 0, 0),
    (7, 9): (2, 0, 0, 0, 0, 0, 0, 0, 0),
    (7, 10): (3, 2, 0, 0, 0, 0, 0, 0, 0, 0),
    (7, 11): (3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (7, 12): (2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (11, 2): (1, 0),
    (11, 3): (4, 1, 0),
    (11, 4): (2, 1, 0, 0),
    (11, 5): (2, 0, 0, 0, 0),
    (11, 6): (2, 1, 0, 0, 0, 0),
    (11, 7): (4, 1, 0, 0, 0, 0, 0),
    (11, 8): (4, 1, 0, 0, 0, 0, 0, 0),
    (11, 9): (5, 1, 0, 0, 0, 0, 0, 0, 0),
    (11, 10): (3, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (11, 11): (1, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (11, 12): (7, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (13, 2): (2, 0),
    (13, 3): (2, 0, 0),
    (13, 4): (2, 0, 0, 0),
    (13, 5): (2, 4, 0, 0, 0),
    (13, 6): (2, 0, 0, 0, 0, 0),
    (13, 7): (2, 3, 0, 0, 0, 0, 0),
    (13, 8): (2, 0, 0, 0, 0, 0, 0, 0),
    (13, 9): (2, 0, 0, 0, 0, 0, 0, 0, 0),
    (13, 10): (9, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (13, 11): (5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (13, 12): (2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
}

x = sympy.Symbol("x")


def sympy_poly(coeffs, p):
    """The ascending coefficient list as a sympy polynomial over GF(p)."""
    return sympy.Poly(sum(c * x**i for i, c in enumerate(coeffs)), x, modulus=p)


def from_sympy(f, p):
    coeffs = [int(c) % p for c in reversed(f.all_coeffs())]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


class TestModulusTable:
    def test_derived_moduli_equal_former_table(self):
        assert {key: modulus(*key) for key in FORMER_TABLE} == FORMER_TABLE
        for p in (2, 3, 13, 17, 257):
            assert modulus(p, 1) == Fq(p).modulus == (1,)
            assert Fq(p).reduction == ((p - 1,),)

    def test_every_entry_irreducible(self):
        for p, d in FORMER_TABLE:
            assert sympy_poly([*modulus(p, d), 1], p).is_irreducible, (p, d)

    @pytest.mark.parametrize(
        "p,d",
        [(2, d) for d in range(2, 7)]
        + [(3, d) for d in range(2, 5)]
        + [(5, 2), (5, 3), (17, 2), (17, 3), (19, 2), (19, 3), (257, 2)],
    )
    def test_first_irreducible_in_counting_order(self, p, d):
        tail = modulus(p, d)
        assert sympy_poly([*tail, 1], p).is_irreducible
        for k in range(sum(c * p**i for i, c in enumerate(tail))):
            earlier = [k // p**i % p for i in range(d)]
            assert not sympy_poly([*earlier, 1], p).is_irreducible, (p, d, earlier)

    def test_constant_terms_nonzero(self):
        for p, d in [*FORMER_TABLE, (17, 2), (19, 2), (3, 13)]:
            assert modulus(p, d)[0] % p != 0, (p, d)

    @pytest.mark.parametrize("p,d", [(2, 5), (13, 12), (17, 2), (3, 13)])
    def test_reduction_rows_are_powers_mod_modulus(self, p, d):
        F = Fq(p, d)
        f = sympy_poly([*F.modulus, 1], p)
        assert len(F.reduction) == d - 1
        for k, row in enumerate(F.reduction):
            r = from_sympy(sympy_poly([0] * (d + k) + [1], p).rem(f), p)
            assert row == tuple(r + [0] * (d - len(r))), (p, d, k)

    def test_fields_beyond_former_table_build_and_non_primes_are_rejected(self):
        assert (Fq(17, 2).q, Fq(3, 13).q) == (289, 3**13)
        with pytest.raises(ValueError):
            Fq(9, 1)
        with pytest.raises(ValueError):
            Fq(5, 0)


def poly_lists(p):
    """Dense ascending integer lists, read mod p."""
    return st.lists(st.integers(-2 * p, 2 * p), max_size=9)


def divisors(p):
    """Lists with a leading coefficient nonzero mod p: dense ones, and
    binomials v + u T^k, monic (u = 1) or not."""
    unit = st.one_of(st.just(1), st.integers(1, p - 1))
    dense = st.tuples(poly_lists(p), unit).map(lambda bu: bu[0] + [bu[1]])
    binomial = st.tuples(st.integers(0, p - 1), unit, st.integers(1, 6)).map(
        lambda vuk: [vuk[0]] + [0] * (vuk[2] - 1) + [vuk[1]]
    )
    return st.one_of(dense, binomial)


class TestPolynomialsModP:
    @settings(max_examples=200)
    @given(st.data())
    def test_rem_and_gcd_match_sympy(self, data):
        p = data.draw(st.sampled_from([2, 5, 2**61 - 1]))
        a, b = data.draw(poly_lists(p)), data.draw(divisors(p))
        A, B = sympy_poly(a, p), sympy_poly(b, p)
        assert poly_rem([v % p for v in a], [v % p for v in b], p) == from_sympy(A.rem(B), p)
        g = poly_gcd(a, b, p)  # defined up to a unit: compare the monic forms
        assert [v * pow(g[-1], -1, p) % p for v in g] == from_sympy(A.gcd(B), p)


class TestFieldArithmetic:
    """Field axioms of the reference arithmetic, which reduces with the
    modulus and reduction table that `Fq` builds."""

    @pytest.mark.parametrize("p,d", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1), (13, 2), (3, 4), (17, 1)])
    def test_axioms_exhaustive_or_sampled(self, p, d):
        F = RefFq(p, d)
        els = list(F.elements())
        assert len(els) == F.q == p**d
        rng = random.Random(20260814)
        triples = (
            list(itertools.product(els, repeat=3))
            if F.q <= 9
            else [(rng.choice(els), rng.choice(els), rng.choice(els)) for _ in range(300)]
        )
        for a, b, c in triples:
            assert F.mul(a, b) == F.mul(b, a)
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == F.zero
            assert F.sub(a, b) == F.add(a, F.neg(b))

    @pytest.mark.parametrize("p,d", [(3, 2), (5, 3), (2, 4)])
    def test_inverses_and_group_order(self, p, d):
        F = RefFq(p, d)
        for a in F.elements():
            if a == F.zero:
                with pytest.raises(ZeroDivisionError):
                    F.inv(a)
                continue
            assert F.mul(a, F.inv(a)) == F.one
            assert F.pow(a, F.q - 1) == F.one
            assert F.pow(a, -1) == F.inv(a)

    @pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (5, 2)])
    def test_frobenius_is_additive_and_fixes_prime_field(self, p, d):
        F = RefFq(p, d)
        for a in F.elements():
            for b in F.elements():
                assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))
        for c in range(p):
            assert F.pow(F.scalar(c), p) == F.scalar(c)
        # x^q = x characterizes membership of the whole field
        for a in F.elements():
            assert F.pow(a, F.q) == a

    def test_encode_decode_roundtrip(self):
        F = RefFq(5, 3)
        for code in range(F.q):
            assert F.encode(F.decode(code)) == code

    def test_prime_field_detection(self):
        F = RefFq(7, 2)
        assert F.in_prime_field(F.scalar(4))
        assert not F.in_prime_field(F.decode(7))  # u itself


class TestTruncPow:
    def setup_method(self):
        self.F = RefFq(5, 1)

    def test_mul_matches_poly_mult(self):
        t = TruncPow.from_scalars(self.F, [0, 1], 4)
        a = TruncPow.from_scalars(self.F, [1, 2, 3], 4)
        prod = a * a
        # (1 + 2t + 3t^2)^2 = 1 + 4t + 10t^2 + 12t^3 + 9t^4
        assert prod == TruncPow.from_scalars(self.F, [1, 4, 0, 2, 4], 4)
        assert (t * t * t).order() == 3

    def test_pow_matches_repeated_mul(self):
        w = TruncPow.from_scalars(self.F, [0, 2, 1, 4], 5)
        acc = TruncPow.from_scalars(self.F, [1], 5)
        for e in range(6):
            assert w**e == acc
            acc = acc * w

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            TruncPow.from_scalars(self.F, [1, 1], 3) ** -1

    def test_order_of_zero(self):
        assert TruncPow.zero(self.F, 3).order() == float("inf")

    def test_mixed_operands_rejected(self):
        with pytest.raises(ValueError):
            TruncPow.zero(self.F, 3) + TruncPow.zero(self.F, 4)
        with pytest.raises(ValueError):
            TruncPow.zero(RefFq(3, 1), 3) + TruncPow.zero(self.F, 3)

    @settings(max_examples=60)
    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=5),
        st.lists(st.integers(0, 8), min_size=1, max_size=5),
        st.lists(st.integers(0, 8), min_size=1, max_size=5),
    )
    def test_ring_axioms(self, xs, ys, zs):
        F = RefFq(3, 2)
        n = 4
        a = TruncPow(F, tuple((F.decode(c % F.q)) for c in (xs * 5)[: n + 1]))
        b = TruncPow(F, tuple((F.decode(c % F.q)) for c in (ys * 5)[: n + 1]))
        c = TruncPow(F, tuple((F.decode(c % F.q)) for c in (zs * 5)[: n + 1]))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_order_is_additive_under_mul(self):
        F = RefFq(3, 1)
        a = TruncPow.from_scalars(F, [0, 0, 1, 2], 6)
        b = TruncPow.from_scalars(F, [0, 2, 1], 6)
        assert (a * b).order() == a.order() + b.order() == 3
