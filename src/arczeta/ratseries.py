"""Rational power series in T over Q[L, L^-1, (L^i - 1)^-1].

A `RatSeries` is num / den / prod (1 - L^a T^b) / prod (L^i - 1), a in Z,
b >= 1, i >= 1.  The numerator is one flat dict {(T-exponent, L-exponent):
nonzero int} over one positive integer `den`, kept primitive:
gcd(den, *coefficients) = 1, Gauss's primitive part.  All arithmetic is exact
and on plain ints, through the sparse kernel of `arczeta.tate` keyed by
exponent pairs; `rs_add` works over the least common denominator, and
equality is `(x - y).is_zero()`.  `tate.TatePoly` is only the type in
which a coefficient enters or leaves: the public constructor takes
{T-exponent: TatePoly or constant} and checks every factor, and
`rs_expand` returns TatePolys; every series operation in between runs on the
flat numerator, and the arithmetic builds its results with `_series`, which
trusts factor tuples that are already valid and sorted.  The outputs write
each coefficient as Fraction(v, den), `rs_to_json` straight from the pair;
`rs_text` and `rs_latex` are one walk (`_render`) over two token tables,
which groups the numerator by T-power.

`_div_binomial` is the one exact division: by (1 - L^a T^b), whose leading
coefficient -L^a is a unit, and, with b = 0, of each T-coefficient by
1 - L^i; both are exact over Z when they are exact over Q, and it returns
None when they are not.  `rs_normalize` cancels each factor it divides
exactly, and `rs_expand` divides each expanded coefficient by (L^i - 1)
with it.

Specialization at q = u/v (`rs_specialize`) makes the numerator an integer
polynomial in T times one scalar and the denominator the product of the
integer binomials v' - u' T^b, one for each factor 1 - q^a T^b with
q^a = u'/v'.  The quotient is not reduced: every consumer reads its Taylor
coefficients, the N_{n,p} of the paper's claim, and `RatFunc.taylor` expands
it by an integer recurrence with one division per coefficient.  `rs_expand`
truncates the series over Q[L, L^-1] on the flat numerator, and
`rs_poles_in_L` locates the poles in the T = L^alpha scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .fq import poly_mul
from .tate import (
    _LATEX,
    _TEXT,
    NonPolynomialCoefficient,
    Scalar,
    TatePoly,
    _coerce,
    _sparse_add,
    _sparse_mul,
    json_rows,
    json_value,
)


class SpecializationPole(ZeroDivisionError):
    """The counting specialization hit a vanishing denominator factor."""


Num = dict[tuple[int, int], int]  # numerator: (T-exponent, L-exponent) -> nonzero int, over `den`

# ---------------------------------------------------------------------------
# numerator helpers


def _add_keys(k1: tuple[int, int], k2: tuple[int, int]) -> tuple[int, int]:
    """The exponent pair of a product of two monomials T^n L^e."""
    return k1[0] + k2[0], k1[1] + k2[1]


def _laurent(c: TatePoly | Scalar) -> Mapping[int, Fraction]:
    """The terms {L-exponent: nonzero Fraction} of an input coefficient; an
    int or Fraction is a constant, anything else a TypeError."""
    if isinstance(c, TatePoly):
        return c.c
    v = _coerce(c)
    return {0: v} if v else {}


def _flatten(coeffs: Mapping[int, Mapping[int, Fraction]]) -> tuple[Num, int]:
    """{T-exponent: {L-exponent: Fraction}} as a numerator over the lcm of its denominators (primitive already)."""
    den = lcm(*(v.denominator for c in coeffs.values() for v in c.values()))
    num = {(n, e): v.numerator * (den // v.denominator) for n, c in coeffs.items() for e, v in c.items()}
    return num, den


def _by_t_power(num: Num, den: int) -> dict[int, dict[int, Fraction]]:
    """The inverse of `_flatten`: {T-exponent: {L-exponent: Fraction(v, den)}}, as the outputs write coefficients."""
    rows: dict[int, dict[int, Fraction]] = {}
    for (n, e), v in num.items():
        rows.setdefault(n, {})[e] = Fraction(v, den)
    return rows


def _div_binomial(x: Num, a: int, b: int) -> Num | None:
    """x / (1 - L^a T^b), or None when the division is inexact; b >= 1, or
    b = 0 and a >= 1 (the division of each T-coefficient by 1 - L^a).

    Write x = q (1 - M), M = L^a T^b.  The exponent pairs fall into chains
    k, k + (b, a), ... from T-exponent n mod b (L-exponent e mod a if b = 0),
    and along one, q a step below a point is minus the sum of x from there up.
    x mod (1 - M) sends each chain to its start, so the division is exact
    exactly when every chain sums to zero, and q is then integral.
    """
    chains: dict[tuple[int, int], dict[int, int]] = {}
    for (n, e), v in x.items():
        j = n // b if b else e // a
        chains.setdefault((n - j * b, e - j * a), {})[j] = v
    q: Num = {}
    for (n, e), chain in chains.items():
        acc = 0
        for j in range(max(chain), min(chain) - 1, -1):
            acc += chain.get(j, 0)
            if acc:
                q[(n + (j - 1) * b, e + (j - 1) * a)] = -acc
        if acc:
            return None
    return q


def _geom_order(ab: tuple[int, int]) -> tuple[int, int]:
    """Geometric factors are stored sorted by (b, a)."""
    return ab[1], ab[0]


# ---------------------------------------------------------------------------
# the series type


class RatSeries:
    """Finite expression num(L, T) / den / prod (1 - L^a T^b) / prod (L^i - 1)."""

    __slots__ = ("num", "den", "geom", "cyclo")

    def __init__(self, num: Mapping | Iterable, geom: Iterable[tuple[int, int]] = (), cyclo: Iterable[int] = ()):
        """sum_n num[n] T^n / factors, from {n: TatePoly} or its items; an int
        or Fraction coefficient reads as a constant, anything else is a TypeError."""
        items = num.items() if isinstance(num, Mapping) else num
        coeffs = {int(n): c for n, c in ((n, _laurent(c)) for n, c in items) if c}
        if any(n < 0 for n in coeffs):
            raise ValueError("the numerator is a polynomial in T: exponents must be >= 0")
        g = []
        for a, b in geom:
            if b < 1:
                raise ValueError(f"geometric factor needs b >= 1, got b = {b}")
            g.append((int(a), int(b)))
        c = [int(i) for i in cyclo]
        if any(i < 1 for i in c):
            raise ValueError("cyclotomic factor index must be >= 1")
        self.num, self.den = _flatten(coeffs)
        self.geom: tuple[tuple[int, int], ...] = tuple(sorted(g, key=_geom_order))
        self.cyclo: tuple[int, ...] = tuple(sorted(c))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> RatSeries:
        return cls({})

    @classmethod
    def one(cls) -> RatSeries:
        return cls({0: 1})

    @classmethod
    def geometric(cls, a: int, b: int) -> RatSeries:
        """1 / (1 - L^a T^b)."""
        return cls({0: 1}, geom=[(a, b)])

    def is_zero(self) -> bool:
        return not self.num

    # -- operators ------------------------------------------------------------

    def __add__(self, other: RatSeries) -> RatSeries:
        return rs_add(self, other)

    def __sub__(self, other: RatSeries) -> RatSeries:
        return rs_add(self, rs_scale(other, -1))

    def __mul__(self, other: RatSeries) -> RatSeries:
        return rs_mul(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatSeries):
            return NotImplemented
        return rs_equal(self, other)

    def __repr__(self) -> str:
        return f"RatSeries({rs_text(self)!r})"

    def __str__(self) -> str:
        return rs_text(self)


def _series(num: Num, den: int, geom: tuple[tuple[int, int], ...], cyclo: tuple[int, ...]) -> RatSeries:
    """num / den / factors, made primitive; the factor tuples must already be
    valid and sorted as the public constructor stores them."""
    out = RatSeries.__new__(RatSeries)
    g = gcd(den, *num.values())
    out.num = {k: v // g for k, v in num.items()} if g > 1 else num
    out.den = den // g
    out.geom, out.cyclo = geom, cyclo
    return out


# ---------------------------------------------------------------------------
# arithmetic


def rs_scale(x: RatSeries, c: TatePoly | Scalar) -> RatSeries:
    num, den = _flatten({0: _laurent(c)})
    return _series(_sparse_mul(x.num, num, _add_keys), x.den * den, x.geom, x.cyclo)


def _missing(have: tuple, want: tuple) -> list:
    """The factors of the multiset ``want`` beyond those in ``have``."""
    rest = list(have)
    out = []
    for f in want:
        if f in rest:
            rest.remove(f)
        else:
            out.append(f)
    return out


def rs_add(x: RatSeries, y: RatSeries) -> RatSeries:
    """Sum over the least common denominator of the two factor multisets."""
    gx, cx = _missing(x.geom, y.geom), _missing(x.cyclo, y.cyclo)  # what x's numerator lacks
    gy, cy = _missing(y.geom, x.geom), _missing(y.cyclo, x.cyclo)
    den = lcm(x.den, y.den)
    nums = []
    for z, geom, cyclo in ((x, gx, cx), (y, gy, cy)):
        num = z.num
        for a, b in geom:
            num = _sparse_add(num, {(n + b, e + a): -v for (n, e), v in num.items()})  # times 1 - L^a T^b
        for i in cyclo:
            num = _sparse_mul(num, {(0, i): 1, (0, 0): -1}, _add_keys)  # times L^i - 1
        scale = den // z.den
        nums.append({k: v * scale for k, v in num.items()} if scale > 1 else num)
    geom = tuple(sorted(x.geom + tuple(gx), key=_geom_order))
    return _series(_sparse_add(*nums), den, geom, tuple(sorted(x.cyclo + tuple(cx))))


def rs_mul(x: RatSeries, y: RatSeries) -> RatSeries:
    geom = tuple(sorted(x.geom + y.geom, key=_geom_order))
    return _series(_sparse_mul(x.num, y.num, _add_keys), x.den * y.den, geom, tuple(sorted(x.cyclo + y.cyclo)))


def rs_equal(x: RatSeries, y: RatSeries) -> bool:
    """Exact equality: x - y, over the least common denominator, is zero."""
    return (x - y).is_zero()


def rs_normalize(x: RatSeries) -> RatSeries:
    """Cancel denominator factors that divide the numerator exactly.

    Value-preserving: only common factors are removed, in their sorted order,
    each by one `_div_binomial`, which returns None when it is inexact.
    """
    num = x.num
    geom: list[tuple[int, int]] = []
    for a, b in x.geom:
        if num:
            q = _div_binomial(num, a, b)
            if q is not None:
                num = q
                continue
        geom.append((a, b))
    cyclo: list[int] = []
    for i in x.cyclo:
        if num:
            q = _div_binomial(num, i, 0)  # by 1 - L^i = -(L^i - 1)
            if q is not None:
                num = {k: -v for k, v in q.items()}
                continue
        cyclo.append(i)
    if not num:
        return RatSeries.zero()
    return _series(num, x.den, tuple(geom), tuple(cyclo))


# ---------------------------------------------------------------------------
# expansion


@dataclass
class TruncatedSeries:
    """Coefficients c_0..c_order of a series in T, each a TatePoly."""

    coeffs: list[TatePoly]
    order: int

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order + 1 coefficients")

    def __getitem__(self, n: int) -> TatePoly:
        return self.coeffs[n]


def rs_expand(x: RatSeries, order: int) -> TruncatedSeries:
    """Truncated expansion c_0..c_order with coefficients in Q[L, L^-1].

    On the numerator, truncated at T^order: each geometric factor multiplies
    it by sum_s L^(a s) T^(b s) up to T^order; each (L^i - 1) denominator
    factor must then divide every T-coefficient exactly (`_div_binomial` by
    1 - L^i, negated), else `tate.NonPolynomialCoefficient`.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    num = {k: v for k, v in x.num.items() if k[0] <= order}
    for a, b in x.geom:
        series = {(b * s, a * s): 1 for s in range(order // b + 1)}
        num = {k: v for k, v in _sparse_mul(num, series, _add_keys).items() if k[0] <= order}
    for i in x.cyclo:
        q = _div_binomial(num, i, 0)  # by 1 - L^i = -(L^i - 1)
        if q is None:
            raise NonPolynomialCoefficient(f"{_TEXT.power('L', i)} - 1 does not divide every coefficient up to T^{order}")
        num = {k: -v for k, v in q.items()}
    rows = _by_t_power(num, x.den)
    return TruncatedSeries([TatePoly(rows.get(n, {})) for n in range(order + 1)], order)


# ---------------------------------------------------------------------------
# rational functions over Q (the specialized side)


def _zscale(p: Sequence[Scalar]) -> tuple[list[int], int]:
    """(s p, s) for s the lcm of the coefficient denominators."""
    s = lcm(*(v.denominator for v in p))
    return [v.numerator * (s // v.denominator) for v in p], s


@dataclass
class RatFunc:
    """Rational function num/den in Q(T) with den(0) != 0, not reduced: what
    `rs_specialize` returns, read through `taylor`."""

    num: tuple[Scalar, ...]
    den: tuple[Scalar, ...]

    def taylor(self, order: int) -> list[Fraction]:
        """Series coefficients c_0..c_order (requires den(0) != 0).

        With num = N / s and den = E / t over Z, c_n = t y_n / (s e_0^(n+1))
        for the integer recurrence
        y_n = e_0^n N_n - sum_k e_k e_0^(k-1) y_(n-k).
        """
        if not self.den or not self.den[0]:
            raise ZeroDivisionError("denominator vanishes at T = 0")
        n, s = _zscale(self.num)
        e, t = _zscale(self.den)
        e0 = e[0]
        steps = [(k, ek * e0 ** (k - 1)) for k, ek in enumerate(e) if k and ek]
        y: list[int] = []
        out: list[Fraction] = []
        power = 1  # e_0^n
        for i in range(order + 1):
            acc = power * n[i] if i < len(n) else 0
            for k, w in steps:
                if k > i:
                    break
                acc -= w * y[i - k]
            y.append(acc)
            power *= e0
            out.append(Fraction(t * acc, s * power))
        return out


def rs_specialize(x: RatSeries, q: Scalar) -> RatFunc:
    """Counting specialization L -> q, as a rational function of T, not reduced.

    At q = u/v with L-exponents lo..hi in the numerator, q^e is
    u^(e - lo) v^(hi - e) q^lo / v^(hi - lo): the numerator is an integer
    polynomial in T times one scalar, which also takes den and the (q^i - 1).
    Each factor 1 - q^a T^b, q^a = u'/v', enters the denominator as the
    integer binomial v' - u' T^b, and its v' enters the scalar.

    Requires q not in {0, 1, -1}: those values kill a cyclotomic factor
    (q^i - 1) or the locus L = 0, and the specialization is not defined.
    """
    q = Fraction(q)
    if q in (0, 1, -1):
        raise SpecializationPole(f"specialization undefined at q = {q}")
    scalar = Fraction(x.den)
    for i in x.cyclo:
        scalar *= q**i - 1
    den = [1]
    for a, b in x.geom:
        c = q**a
        scalar /= c.denominator
        den = poly_mul(den, [c.denominator] + [0] * (b - 1) + [-c.numerator])
    if not x.num:
        return RatFunc((), tuple(den))
    u, v = q.numerator, q.denominator
    exps = {e for _, e in x.num}
    lo, hi = min(exps), max(exps)
    power = {e: u ** (e - lo) * v ** (hi - e) for e in exps}
    num = [0] * (max(n for n, _ in x.num) + 1)
    for (n, e), c in x.num.items():
        num[n] += c * power[e]
    scale = q**lo / (v ** (hi - lo) * scalar)
    return RatFunc(tuple(c * scale for c in num), tuple(den))


# ---------------------------------------------------------------------------
# poles in the T = L^alpha scale


def rs_poles_in_L(x: RatSeries) -> set[Fraction]:
    """Exponents alpha = -a/b of actual poles at T = L^alpha.

    Candidates come from denominator factors (1 - L^a T^b) with a != 0.  A
    candidate survives if the total multiplicity of vanishing denominator
    factors at T = L^alpha exceeds the vanishing order of the numerator
    there, computed exactly over Z[L^(1/s)] with s the reduced denominator
    of alpha (den, a nonzero scalar, does not change a vanishing order).
    """
    candidates = sorted({Fraction(-a, b) for a, b in x.geom if a != 0})
    poles: set[Fraction] = set()
    for alpha in candidates:
        p0, s = alpha.numerator, alpha.denominator
        mult = sum(1 for a, b in x.geom if a * s + b * p0 == 0)
        # Vanishing order of the numerator at T = L^alpha: substitute into
        # successive T-derivatives over the ring Z[M, M^-1], M = L^(1/s).
        order = 0
        num = x.num
        while order < mult:
            sub: dict[int, int] = {}
            for (n, e), v in num.items():
                k = s * e + p0 * n
                sub[k] = sub.get(k, 0) + v
            if any(sub.values()):
                break
            num = {(n - 1, e): v * n for (n, e), v in num.items() if n >= 1}
            order += 1
        if order < mult:
            poles.add(alpha)
    return poles


# ---------------------------------------------------------------------------
# rendering and serialization


def _bare(c: Mapping[int, Fraction]) -> bool:
    """The coefficient c is one positive term read without grouping: an integer or a power of L."""
    ((e, v),) = c.items()
    return v > 0 and v.denominator == 1 and (e == 0 or v == 1)


def _render(x: RatSeries, latex: bool) -> str:
    """The one walk over numerator and denominator factors, in either format."""
    style = _LATEX if latex else _TEXT
    if not x.num:
        return "0"
    rows = _by_t_power(x.num, x.den)
    parts = []
    for n in sorted(rows):
        c = rows[n]
        body = style.laurent(c)
        if len(c) > 1 or (n and style.inline and not _bare(c)):
            body = style.group(body)
        if n == 0:
            parts.append(body)
        elif c == {0: 1}:
            parts.append(style.power("T", n))
        else:
            parts.append(body + style.times + style.power("T", n))
    # a lone negative coefficient reads as a difference
    num_s = parts[0] + "".join(f" - {s[1:]}" if s[0] == "-" else f" + {s}" for s in parts[1:])
    dens = []
    for (a, b), mult in Counter(x.geom).items():
        lpow = style.power(style.L, a) + style.times if a else ""
        dens.append(style.power(style.group(f"1 - {lpow}{style.power('T', b)}"), mult))
    for i, mult in Counter(x.cyclo).items():
        dens.append(style.power(style.group(f"{style.power(style.L, i)} - 1"), mult))
    if not dens:
        return num_s
    if style.inline and len(parts) > 1:
        num_s = style.group(num_s)
    return style.frac.format(num_s, " ".join(dens))


def rs_text(x: RatSeries) -> str:
    """Plain-text rendering, stable across runs."""
    return _render(x, latex=False)


def rs_latex(x: RatSeries) -> str:
    """LaTeX rendering with L typeset as \\mathbb{L}."""
    return _render(x, latex=True)


def rs_to_json(x: RatSeries) -> dict:
    """JSON object with keys numerator, denomGeom, denomCyclo; a coefficient v / den
    is written as its reduced "num/den" string, or the integer's digits, as
    `TatePoly.to_json` writes a Fraction."""
    rows: dict[int, list[list]] = {}
    for (n, e), v in sorted(x.num.items()):
        g = gcd(v, x.den)
        rows.setdefault(n, []).append([e, str(v // g) if g == x.den else f"{v // g}/{x.den // g}"])
    return {
        "numerator": [[n, row] for n, row in rows.items()],
        "denomGeom": [[a, b, mult] for (a, b), mult in Counter(x.geom).items()],
        "denomCyclo": [[i, mult] for i, mult in Counter(x.cyclo).items()],
    }


def rs_from_json(obj: Mapping) -> RatSeries:
    """Inverse of `rs_to_json`; ValueError on a non-object, a field not a list
    of rows of its width, a non-integer exponent, factor entry or multiplicity,
    a repeated T- or L-exponent, or a multiplicity below 1."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"series JSON must be an object, got {obj!r}")
    num: dict[int, TatePoly] = {}
    for n, c in json_rows(obj.get("numerator", []), 2, "numerator"):
        if json_value(n, int, "T-exponent") in num:
            raise ValueError(f"numerator lists T^{n} twice")
        num[n] = TatePoly.from_json(c)

    def factors(key: str, width: int) -> Iterable[tuple[int, ...]]:
        for *factor, mult in json_rows(obj.get(key, []), width, key):
            if json_value(mult, int, f"{key} multiplicity") < 1:
                raise ValueError(f"{key} factor {factor} has multiplicity {mult} < 1")
            yield from [tuple(json_value(v, int, f"{key} entry") for v in factor)] * mult

    return RatSeries(num, factors("denomGeom", 3), [i for (i,) in factors("denomCyclo", 2)])
