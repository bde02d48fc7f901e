"""Finite-field tower and truncated-series arithmetic."""

import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta.fq import IRREDUCIBLE, Fq, is_prime
from helpers import RefFq, TruncPow


class TestIsPrime:
    def test_small_range_matches_sympy(self):
        for n in range(-3, 2000):
            assert is_prime(n) == sympy.isprime(n), n

    def test_large_values(self):
        for n in [2**31 - 1, 2**61 - 1, 10**18 + 9, 10**18 + 7, (2**31 - 1) * (2**13 - 1)]:
            assert is_prime(n) == sympy.isprime(n), n


class TestModulusTable:
    def test_every_entry_irreducible(self):
        x = sympy.Symbol("x")
        for (p, d), tail in IRREDUCIBLE.items():
            poly = sympy.Poly(x**d + sum(c * x**i for i, c in enumerate(tail)), x, modulus=p)
            assert poly.is_irreducible, (p, d)

    def test_table_covers_declared_range(self):
        assert set(IRREDUCIBLE) == {(p, d) for p in (2, 3, 5, 7, 11, 13) for d in range(1, 13)}

    def test_constant_terms_nonzero(self):
        for (p, d), tail in IRREDUCIBLE.items():
            assert tail[0] % p != 0, (p, d)

    def test_untabulated_field_rejected(self):
        with pytest.raises(ValueError):
            Fq(17, 2)
        with pytest.raises(ValueError):
            Fq(3, 13)
        with pytest.raises(ValueError):
            Fq(9, 1)


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
