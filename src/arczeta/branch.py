"""Plane curve branches x = w^m, y = sum a_j w^j and their Poincare series.

A branch is stored by its multiplicity ``m`` and finitely many Puiseux
coefficients ``a_j``.  From the vanishing pattern of the ``a_j`` we extract
the characteristic sequence (beta_i, e_i, N_i) and assemble, in closed form,
the geometric and arithmetic Poincare series

    P_geom(T) = 1/(1-T) + (L-1)/(1-L*T) * T^m/(1-T^m)

    P_ar(T)   = 1/(1-T) + (L-1)/(1-L*T) * [ (1/m) * T^m/(1-T^m)
                + sum_i ((N_i - N_{i-1})/m) * U_i/(1-U_i) ],
                U_i = L^{beta_i-m} T^{beta_i}.

Both are returned as unnormalized :class:`~arczeta.ratseries.RatSeries`
(common denominator, no cancellation) so the factor structure used for pole
analysis stays visible; ``rs_normalize`` is the explicit cleanup step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .fq import is_prime, residue
from .ratseries import RatSeries, _geom_order, _series, rs_add, rs_mul
from .tate import TatePoly, json_rational, json_value

__all__ = [
    "TruncationTooShort",
    "OutOfRange",
    "NotAPuiseuxPole",
    "BadRoot",
    "BranchSpec",
    "CharSeq",
    "characteristic_sequence",
    "p_geom",
    "p_ar",
    "chi_c_arc_class",
    "puiseux_from_poles",
    "order_gap",
]


class TruncationTooShort(ValueError):
    """The stored coefficients do not determine the characteristic sequence."""


class OutOfRange(ValueError):
    """Stratum index outside 1 <= l <= n/m."""


class NotAPuiseuxPole(ValueError):
    """A candidate pole exponent is not of the form m/beta - 1."""


class BadRoot(ValueError):
    """zeta is not an m-th root of unity in F_p."""


@dataclass(frozen=True)
class BranchSpec:
    """y = sum_{j>=m} a_j w^j with x = w^m, truncated at order ``truncation``."""

    m: int
    coeffs: Mapping[int, Fraction]
    truncation: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("multiplicity m must be >= 1")
        cleaned = {}
        for j, a in self.coeffs.items():
            a = Fraction(a)
            if j < self.m:
                raise ValueError(f"coefficient index {j} below multiplicity {self.m}")
            if j > self.truncation:
                raise ValueError(f"coefficient index {j} beyond truncation {self.truncation}")
            if a != 0:
                cleaned[j] = a
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def make(cls, m: int, coeffs: Mapping[int, Fraction | int | str], truncation: int | None = None) -> BranchSpec:
        cmap = {int(j): Fraction(a) for j, a in coeffs.items()}
        if truncation is None:
            truncation = max(cmap, default=m)
        return cls(m, cmap, truncation)

    @classmethod
    def from_json(cls, obj: Mapping | str) -> BranchSpec:
        """Parse ``{"m": 4, "coeffs": [[6, "1"], [7, "1"]]}`` (rationals as strings or integers, never floats)."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, Mapping):
            raise ValueError("branch JSON must be an object")
        try:
            m = json_value(obj["m"], int, "m")
            coeffs: dict[int, Fraction] = {}
            for j, a in obj["coeffs"]:
                if json_value(j, int, "coefficient index") in coeffs:
                    raise ValueError(f"coefficient a_{j} given twice")
                coeffs[j] = json_rational(a, f"coefficient a_{j}")
            trunc = json_value(obj["truncation"], int, "truncation") if "truncation" in obj else None
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed branch JSON: {exc}") from exc
        return cls.make(m, coeffs, trunc)

    def to_json(self) -> dict:
        coeffs = [[j, str(self.coeffs[j])] for j in sorted(self.coeffs)]
        return {"m": self.m, "coeffs": coeffs, "truncation": self.truncation}


@dataclass(frozen=True)
class CharSeq:
    """Characteristic data: beta = [m, beta_1..beta_g], e, n, N (see module doc)."""

    g: int
    beta: tuple[int, ...]
    e: tuple[int, ...]
    n: tuple[int, ...]
    N: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.beta[0]

    def __str__(self) -> str:
        inner = "; ".join([str(self.beta[0]), ", ".join(map(str, self.beta[1:]))]) if self.g else str(self.beta[0])
        return f"beta: [{inner}]  e: {list(self.e)}  N: {list(self.N)}"


def characteristic_sequence(b: BranchSpec) -> CharSeq:
    """Run the gcd recurrence e_i = gcd(e_{i-1}, beta_i) down to e_g = 1.

    beta_i is the smallest j with a_j != 0 and e_{i-1} does not divide j.
    Raises :class:`TruncationTooShort` when e has not reached 1 but no further
    qualifying exponent exists within the truncation order: the stored
    coefficients then genuinely underdetermine the singularity.
    """
    beta = [b.m]
    e = [b.m]
    n: list[int] = []
    N = [1]
    support = sorted(b.coeffs)
    while e[-1] > 1:
        nxt = next((j for j in support if j % e[-1] != 0), None)
        if nxt is None:
            raise TruncationTooShort(
                f"e = {e[-1]} > 1 but no characteristic exponent up to truncation {b.truncation}"
            )
        beta.append(nxt)
        ei = math.gcd(e[-1], nxt)
        n.append(e[-1] // ei)
        e.append(ei)
        N.append(N[-1] * n[-1])
    return CharSeq(g=len(beta) - 1, beta=tuple(beta), e=tuple(e), n=tuple(n), N=tuple(N))


def _term(num: dict[tuple[int, int], int], den: int, *geom: tuple[int, int]) -> RatSeries:
    """num / den / prod (1 - L^a T^b), num a flat numerator {(T-exponent, L-exponent): nonzero int}."""
    return _series(num, den, tuple(sorted(geom, key=_geom_order)), ())


def p_geom(c: CharSeq) -> RatSeries:
    """1/(1-T) + (L-1)/(1-L*T) * T^m/(1-T^m), kept unnormalized."""
    tail = _term({(c.m, 1): 1, (c.m, 0): -1}, 1, (1, 1), (0, c.m))
    return rs_add(_term({(0, 0): 1}, 1, (0, 1)), tail)


def p_ar(c: CharSeq) -> RatSeries:
    """The arithmetic Poincare series in the closed form quoted in the module doc."""
    m = c.m
    bracket = _term({(m, 0): 1}, m, (0, m))
    for i in range(1, c.g + 1):
        bi = c.beta[i]
        term = _term({(bi, bi - m): c.N[i] - c.N[i - 1]}, m, (bi - m, bi))
        bracket = rs_add(bracket, term)
    tail = rs_mul(_term({(0, 1): 1, (0, 0): -1}, 1, (1, 1)), bracket)
    return rs_add(_term({(0, 0): 1}, 1, (0, 1)), tail)


def chi_c_arc_class(c: CharSeq, n: int, ell: int) -> tuple[TatePoly, TatePoly]:
    """Classes of the stratum of n-jets coming from arcs of contact order l.

    Returns ``(geometric, arithmetic)`` where geometric = (L-1) L^{n-l*m} and
    arithmetic = (N_i/m) (L-1) L^{n-l*m} with i the unique index satisfying
    n/beta_{i+1} < l <= n/beta_i (beta_{g+1} = infinity).
    """
    m = c.m
    if ell < 1 or ell * m > n:
        raise OutOfRange(f"need 1 <= l <= n/m, got l={ell}, n={n}, m={m}")
    i = max(k for k in range(c.g + 1) if ell * c.beta[k] <= n)
    e, w = n - ell * m, Fraction(c.N[i], m)
    return TatePoly({e + 1: 1, e: -1}), TatePoly({e + 1: w, e: -w})


def puiseux_from_poles(alphas: Sequence[Fraction], m: int) -> list[int]:
    """Invert alpha = m/beta - 1: recover the characteristic exponents.

    Each candidate must lie strictly in (-1, 0) with m/(alpha+1) an integer.
    """
    betas = []
    for alpha in alphas:
        alpha = Fraction(alpha)
        if not (-1 < alpha < 0):
            raise NotAPuiseuxPole(f"alpha = {alpha} not in (-1, 0)")
        beta = m / (alpha + 1)
        if beta.denominator != 1:
            raise NotAPuiseuxPole(f"m/(alpha+1) = {beta} is not an integer")
        betas.append(int(beta))
    return sorted(betas)


def order_gap(b: BranchSpec, p: int, zeta: int) -> int | float:
    """ord_w of y(w) - y(zeta*w) over F_p; ``math.inf`` if zero up to truncation.

    The difference is sum_j a_j (1 - zeta^j) w^j, so the answer is the least j
    with a_j (1 - zeta^j) nonzero mod p.  Requires p prime with all m-th roots
    of unity rational (p = 1 mod m) and zeta an explicit such root.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p % b.m != 1 % b.m:
        raise ValueError(f"p = {p} is not 1 mod m = {b.m}")
    zeta %= p
    if pow(zeta, b.m, p) != 1:
        raise BadRoot(f"zeta = {zeta} is not an m-th root of unity mod {p}")
    for j in sorted(b.coeffs):
        aj = residue(b.coeffs[j], p)
        if aj is None:
            raise ValueError(f"p = {p} divides the denominator of a_{j}")
        if aj * (1 - pow(zeta, j, p)) % p != 0:
            return j
    return math.inf
