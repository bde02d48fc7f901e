"""Finite fields F_{p^d} and the arithmetic mod p that the other layers share.

Elements of F_{p^d} are coefficient vectors (c_0, ..., c_{d-1}) of residues
mod p, the coordinates with respect to the basis 1, u, ..., u^{d-1} where u is
a root of the field's modulus.  `modulus(p, d)` derives that modulus by one
rule, the first irreducible in a fixed counting order (Ben-Or's test decides
irreducibility), so element encodings, and therefore every enumeration and
report downstream, are the same on every run and machine, for every p and d.

`Fq` holds the field's parameters and the reduction table of u^d, ...,
u^{2d-2}; the arithmetic itself runs vectorized over numpy arrays of such
vectors (see :mod:`arczeta.grid`).  `residue`, `poly_mul`, `poly_rem`
and `poly_gcd` are the one copy of rational residues and polynomial
remainders and gcds mod p; the series layer takes `poly_mul` alone, for the
product of its denominator binomials.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Sequence

__all__ = ["is_prime", "Fq", "modulus", "residue", "poly_mul", "poly_rem", "poly_gcd"]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def residue(a: Fraction, p: int) -> int | None:
    """a mod p for a rational a; None when p divides its denominator."""
    if a.denominator % p == 0:
        return None
    return a.numerator * pow(a.denominator, -1, p) % p


# Polynomials are dense ascending lists of ints, coefficient k at index k;
# over F_p they are trimmed (no zero top coefficient).


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b over Z (nonempty operands)."""
    out = [0] * (len(a) + len(b) - 1)
    for j, bv in enumerate(b):
        if bv:
            for i, av in enumerate(a):
                out[i + j] += av * bv
    return out


def _trim(r: list) -> list:
    """r without its zero top coefficients, trimmed in place."""
    while r and not r[-1]:
        r.pop()
    return r


def poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """a mod b over F_p, trimmed; a and b must be reduced mod p, b trimmed.

    The lower terms of b are scaled by -1/lc(b) once, and each step adds a
    multiple of the nonzero ones only, so folding by a monic binomial
    T^k - w costs one multiply-add per coefficient and no inverse.
    """
    r = list(a)
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    tail = [(j - db, -c * inv % p) for j, c in enumerate(b[:db]) if c]
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            for j, bj in tail:
                r[i + j] = (r[i + j] + c * bj) % p
    del r[db:]
    return _trim(r)


def poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """A gcd of a and b over F_p, trimmed, unique up to a unit factor; []
    when both vanish mod p.  Its degree is what callers read."""
    a, b = [v % p for v in a], _trim([v % p for v in b])
    while b:
        a, b = b, poly_rem(a, b, p)
    return _trim(a)


def _irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test for monic f of degree d >= 1 over F_p: irreducible iff
    gcd(f, u^(p^i) - u) = 1 for every i <= d/2 (Ben-Or, 1981)."""

    def mulmod(x: list[int], y: list[int]) -> list[int]:
        return poly_rem([v % p for v in poly_mul(x, y)], f, p)

    power = [0, 1]  # u^(p^i) mod f
    for _ in range((len(f) - 1) // 2):
        acc = [1]
        for bit in bin(p)[2:]:  # power^p, by the bits of p from the top
            acc = mulmod(acc, acc)
            if bit == "1":
                acc = mulmod(acc, power)
        power = acc
        diff = power + [0] * (2 - len(power))
        diff[1] -= 1
        if len(poly_gcd(f, diff, p)) != 1:
            return False
    return True


@functools.cache
def modulus(p: int, d: int) -> tuple[int, ...]:
    """(c_0, ..., c_{d-1}) of the modulus u^d + c_{d-1}u^{d-1} + ... + c_0 of F_{p^d}.

    It is the first irreducible in the base-p counting order of the
    coefficient vector, c_0 least significant; for d = 1 it is u + 1.
    """
    if d == 1:
        return (1,)
    candidates = (high_first[::-1] for high_first in itertools.product(range(p), repeat=d))
    return next(tail for tail in candidates if _irreducible([*tail, 1], p))


class Fq:
    """F_{p^d} = F_p[u]/(modulus): p, d, q = p^d, the modulus and its reduction table."""

    def __init__(self, p: int, d: int = 1):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = modulus(p, d)
        # reduction[k][j]: coefficient of u^j in u^(d+k) mod modulus, k = 0..max(d-2, 0)
        f = [*self.modulus, 1]
        rows = (poly_rem([0] * (d + k) + [1], f, p) for k in range(max(d - 1, 1)))
        self.reduction = tuple(tuple(r + [0] * (d - len(r))) for r in rows)

    def __repr__(self) -> str:
        return f"Fq({self.p}, {self.d})"
