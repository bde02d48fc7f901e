"""Shared brute-force oracles used across test modules.

These deliberately avoid the library's own fast paths: quantifiers are
evaluated by windowed enumeration, sums by direct truncated accumulation,
and image counts by plain python sets over all arcs.  Slower, independent,
easy to audit.

Reference models of code the library only runs vectorized or specialised:
:class:`RefFq` is scalar element arithmetic of F_q over the library's own
modulus and reduction table, :class:`TruncPow` builds F_q[t]/t^{n+1} on it
(the counting grid is checked against it digit by digit, and against
:func:`ref_branch_images`, the row kernel it replaced: one row of digits
per arc, each power u^j built by chained truncated :func:`ref_series_mul`;
:func:`ref_count_images` counts the images of all q^n arcs with untruncated
powers, the reference for window and exhaustive counts, and
:func:`ref_level_strata` enumerates the strata at each level apart, the
reference for reading lower levels off the top level's keys),
:func:`ref_taylor` expands a
`RatFunc` by the recurrence in Fractions (the reference for the integer
recurrence of `RatFunc.taylor`), :class:`RefTate` is the ring Q[L, L^-1]
on `TatePoly` (sum, product, shift, exact division by
:func:`cyclotomic_unit` and the like, which the library no longer runs),
:class:`RefSeries` is a series with the nested numerator {T-exponent:
RefTate} and :func:`ref_add`, :func:`ref_mul`, :func:`ref_scale`,
:func:`ref_normalize` (which tries the long division by every denominator
factor), :func:`ref_expand` (termwise geometric sums, then one exact
division per coefficient), :func:`ref_poles_in_L`, :func:`ref_specialize`
(coefficients by :func:`ref_tate_eval` over the expanded product of the
denominator binomials, not reduced) and
:func:`ref_to_json` are the arithmetic on it (the reference for the flat
integer numerator of `RatSeries`), :func:`ref_equal` cross-multiplies by
every denominator factor (the reference for `rs_equal`, which subtracts over
the least common denominator), :func:`ref_text`, :func:`ref_latex` and
:func:`ref_tate_text` render by separate text and LaTeX walks (the reference
for the one renderer behind `rs_text`, `rs_latex` and `str(TatePoly)`),
:func:`ref_cell_horizon` with :func:`ref_surviving_children` filter the
children of a lifting cell point by point over Z, and :func:`ref_flat_children`
reads their gradients there (the reference for the F_p child test of
`liftable` and its flat flags), and :func:`ref_count_liftable` walks the unpruned cell tree with direct
`IntPoly.eval` and a Hensel bound from the p-orders of the Jacobian minors
(the reference for `count_liftable`); :func:`ref_certified_cells` walks that
tree to the cells the cell certificate counts, and :func:`ref_lifts` lifts a
residue digit by digit (the references for the cell certificate).

Small readers of library objects that only tests need:
:func:`ref_y_coeff`, :func:`ref_contains`, :func:`ref_iter_points`,
:func:`ref_specialize_truncated`, :func:`read_count_report` with
:func:`report_counts`, and :func:`read_verdict` (the JSON forms are written
by the library and read back only here).
"""

from __future__ import annotations

import functools
from collections import Counter
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import inf, lcm
from operator import add, mul
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from arczeta import grid
from arczeta import presburger as pb
from arczeta.branch import BranchSpec
from arczeta.counting import BudgetExceeded, CountReport, CountRow
from arczeta.fq import Fq, poly_mul
from arczeta.liftable import IntPoly, LiftResult
from arczeta.ranges import IteratedRangeSystem, Piece
from arczeta.ratseries import RatFunc, RatSeries, TruncatedSeries
from arczeta.tate import NonPolynomialCoefficient, Scalar, TatePoly, _sparse_add, _sparse_mul
from arczeta.verifier import CompRow, Verdict


def quantifier_window(f: pb.Formula, free_box: int = 30) -> int:
    """Window W for brute-force quantifier semantics.

    Any atom sum(c_i x_i) + c crossing zero inside the free box [-30, 30]^v
    has its bound variables within B = max_atoms(|c| + sum|c_i| * 30); adding
    the congruence period D = lcm(moduli) and slack 60 makes the windowed
    semantics agree with Z-semantics for every corpus formula (cross-checked
    against QE output, which is exact).
    """
    bound = 1
    moduli = [1]

    def walk(g: pb.Formula) -> None:
        nonlocal bound
        if isinstance(g, (pb.Cmp, pb.Cong)):
            t = g.term
            bound = max(bound, abs(t.const) + sum(abs(c) for _, c in t.coeffs) * free_box)
            if isinstance(g, pb.Cong):
                moduli.append(g.modulus)
        elif isinstance(g, pb.Not):
            walk(g.arg)
        elif isinstance(g, (pb.And, pb.Or)):
            for a in g.args:
                walk(a)
        elif isinstance(g, (pb.Exists, pb.Forall)):
            walk(g.body)

    walk(f)
    return bound + lcm(*moduli) + 60


def brute_eval(f: pb.Formula, point: dict[str, int], window: int) -> bool:
    """Evaluate with quantified variables ranging over [-window, window].

    The formula is compiled to closures once per (formula, window); each
    quantifier binds its variable in one environment dict that is reused
    across the whole evaluation and restored when the quantifier returns.
    """
    return _compiled(f, window)(dict(point))


_Eval = Callable[[dict[str, int]], bool]
# v REL 0, as C-level tests of v: v <= 0 is 0 >= v, and so on
_REL = {"<=": (0).__ge__, "<": (0).__gt__, "=": (0).__eq__, ">=": (0).__le__, ">": (0).__lt__}
_UNBOUND = object()


def _atom(t: pb.LinTerm, test: Callable[[int], bool]) -> _Eval:
    """test(value of t) under the env."""
    const = t.const
    names = [v for v, _ in t.coeffs]
    coeffs = [c for _, c in t.coeffs]
    return lambda env: test(const + sum(map(mul, coeffs, map(env.__getitem__, names))))


def _both(a: _Eval, b: _Eval) -> _Eval:
    return lambda env: a(env) and b(env)


def _either(a: _Eval, b: _Eval) -> _Eval:
    return lambda env: a(env) or b(env)


def _quantifier(var: str, body: _Eval, values: range, want: bool) -> _Eval:
    """Exists (want=True) or Forall (want=False) over `values`."""

    def ev(env: dict[str, int]) -> bool:
        saved = env.get(var, _UNBOUND)
        try:
            for v in values:
                env[var] = v
                if body(env) == want:
                    return want
            return not want
        finally:
            if saved is _UNBOUND:
                del env[var]
            else:
                env[var] = saved

    return ev


@functools.lru_cache(maxsize=64)
def _compiled(f: pb.Formula, window: int) -> _Eval:
    if isinstance(f, pb.BoolConst):
        value = f.value
        return lambda env: value
    if isinstance(f, pb.Cmp):
        return _atom(f.term, _REL[f.rel])
    if isinstance(f, pb.Cong):
        modulus = f.modulus
        return _atom(f.term, lambda v: v % modulus == 0)
    if isinstance(f, pb.Not):
        arg = _compiled(f.arg, window)
        return lambda env: not arg(env)
    if isinstance(f, (pb.And, pb.Or)):
        is_and = isinstance(f, pb.And)
        # an empty And is true and an empty Or false, as all() and any() say
        args = [_compiled(a, window) for a in f.args] or [lambda env: is_and]
        return functools.reduce(_both if is_and else _either, args)
    if isinstance(f, (pb.Exists, pb.Forall)):
        body = _compiled(f.body, window)
        return _quantifier(f.var, body, range(-window, window + 1), isinstance(f, pb.Exists))
    raise TypeError(f"not a formula: {f!r}")


def enumerate_solutions(f: pb.Formula, order: list[str], box: range) -> set[tuple[int, ...]]:
    """All solutions of a quantifier-free formula within box^len(order)."""
    out = set()
    for pt in product(box, repeat=len(order)):
        if pb.membership(f, dict(zip(order, pt))):
            out.add(pt)
    return out


def direct_weighted_sum(sys, lweight, tweight, tmax: int, clip: int = 400):
    """Truncated sum of L^(-lweight) T^tweight over the system's points.

    Only valid when every point with tweight <= tmax has coordinates <= clip;
    pick corpora accordingly (tweight coefficient >= 1 on unbounded
    variables).  A weight that is not an integer at a point raises
    ValueError.
    """
    coeffs = [RefTate.zero() for _ in range(tmax + 1)]
    for pt in ref_iter_points(sys, {v: clip for v in sys.order}):
        n = _int_value(tweight, pt)
        if 0 <= n <= tmax:
            e = _int_value(lweight, pt)
            coeffs[n] = coeffs[n] + RefTate.L(-e)
    return coeffs


def _int_value(term: pb.LinTerm, pt: dict[str, int]) -> int:
    value = term.eval(pt)
    if value.denominator != 1:
        raise ValueError(f"weight {term} is not integral at {pt}")
    return value.numerator


def ref_taylor(f: RatFunc, order: int) -> list[Fraction]:
    """c_0..c_order of f.num / f.den from c_n = (num_n - sum_k den_k c_(n-k)) / den_0."""
    if not f.den or not f.den[0]:
        raise ZeroDivisionError("denominator vanishes at T = 0")
    d0 = Fraction(f.den[0])
    out: list[Fraction] = []
    for n in range(order + 1):
        acc = Fraction(f.num[n]) if n < len(f.num) else Fraction(0)
        for k in range(1, min(n, len(f.den) - 1) + 1):
            acc -= f.den[k] * out[n - k]
        out.append(acc / d0)
    return out


class RefTate(TatePoly):
    """`TatePoly` with the ring Q[L, L^-1]: sum, difference, product, shift by
    a power of L and exact division.  The library computes every series on
    its flat integer numerator and keeps TatePoly as an input and output type;
    this arithmetic is the nested series model's (below) and the tests'."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> RefTate:
        return cls()

    @classmethod
    def one(cls) -> RefTate:
        return cls({0: 1})

    @classmethod
    def const(cls, value: Scalar) -> RefTate:
        return cls({0: value})

    @classmethod
    def L(cls, exponent: int = 1, coeff: Scalar = 1) -> RefTate:
        """The monomial coeff * L^exponent."""
        return cls({exponent: coeff})

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == {0: 1}

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    def __add__(self, other: TatePoly | Scalar) -> RefTate:
        return _ref_wrap(_sparse_add(self.c, ref_tate(other).c))

    __radd__ = __add__

    def __neg__(self) -> RefTate:
        return _ref_wrap({e: -v for e, v in self.c.items()})

    def __sub__(self, other: TatePoly | Scalar) -> RefTate:
        return self + (-ref_tate(other))

    def __mul__(self, other: TatePoly | Scalar) -> RefTate:
        return _ref_wrap(_sparse_mul(self.c, ref_tate(other).c, add))

    __rmul__ = __mul__

    def shift(self, k: int) -> RefTate:
        """Multiply by L^k."""
        return _ref_wrap({e + k: v for e, v in self.c.items()})

    def exact_div(self, other: TatePoly) -> RefTate:
        """Exact quotient self / other in Q[L, L^-1].

        Raises NonPolynomialCoefficient if other is zero or does not divide
        self.  Laurent division reduces to ordinary polynomial division after
        shifting both operands to valuation 0.
        """
        if not other.c:
            raise NonPolynomialCoefficient("division by zero polynomial")
        if not self.c:
            return RefTate.zero()
        sv, ov = min(self.c), min(other.c)
        r, d = _dense(self, sv), _dense(other, ov)
        q = [Fraction(0)] * max(0, len(r) - len(d) + 1)
        for i in range(len(q) - 1, -1, -1):  # long division; d[-1] != 0
            q[i] = r[i + len(d) - 1] / d[-1]
            for j, dv in enumerate(d):
                r[i + j] -= q[i] * dv
        if any(r):
            raise NonPolynomialCoefficient(f"{other} does not divide {self}")
        return RefTate((i + sv - ov, v) for i, v in enumerate(q) if v)


def _ref_wrap(c: dict[int, Fraction]) -> RefTate:
    """A RefTate on c, which must already hold only nonzero Fractions."""
    out = RefTate.__new__(RefTate)
    out.c = c
    return out


def ref_tate(value: TatePoly | Scalar) -> RefTate:
    """A TatePoly (a library output, say) or a constant as a RefTate."""
    if isinstance(value, RefTate):
        return value
    return _ref_wrap(dict(value.c)) if isinstance(value, TatePoly) else RefTate.const(value)


def _dense(p: TatePoly, base: int) -> list[Fraction]:
    out = [Fraction(0)] * (max(p.c) - base + 1)
    for e, v in p.c.items():
        out[e - base] = v
    return out


def cyclotomic_unit(i: int) -> RefTate:
    """The denominator factor L^i - 1 (i >= 1)."""
    if i < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return RefTate({i: 1, 0: -1})


def ref_tate_eval(c: TatePoly, q: Scalar) -> Fraction:
    """c at L = q, term by term in Fractions (the reference for the integer
    power table of `rs_specialize`)."""
    return sum((v * Fraction(q) ** e for e, v in c.c.items()), Fraction(0))


# The nested series model: the numerator as {T-exponent: RefTate}, the layout
# `RatSeries` had before its flat integer numerator, with the arithmetic it
# ran on that layout.  `branch.p_ar` and `branch.p_geom` build a RefSeries
# when `RatSeries`, `rs_add` and `rs_mul` in `arczeta.branch` are replaced by
# RefSeries, `ref_add` and `ref_mul`.


class RefSeries:
    """num / prod (1 - L^a T^b) / prod (L^i - 1) with num {T-exponent: RefTate};
    built like `RatSeries(num, geom, cyclo)`: constants coerce, zero
    coefficients drop, factors sort.  Equality is structural."""

    def __init__(self, num, geom=(), cyclo=()):
        items = num.items() if isinstance(num, Mapping) else num
        coeffs = {n: ref_tate(c) for n, c in items}
        self.num = {n: c for n, c in coeffs.items() if c}
        self.geom = tuple(sorted(geom, key=lambda ab: (ab[1], ab[0])))
        self.cyclo = tuple(sorted(cyclo))

    @classmethod
    def geometric(cls, a: int, b: int) -> RefSeries:
        return cls({0: RefTate.one()}, [(a, b)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RefSeries) and (self.num, self.geom, self.cyclo) == (other.num, other.geom, other.cyclo)

    def __repr__(self) -> str:
        return f"RefSeries({self.num!r}, {self.geom!r}, {self.cyclo!r})"


def ref_nested(x: RatSeries | RefSeries) -> RefSeries:
    """The nested form of a series, each coefficient Fraction(v, den)."""
    if isinstance(x, RefSeries):
        return x
    num: dict[int, dict[int, Fraction]] = {}
    for (n, e), v in x.num.items():
        num.setdefault(n, {})[e] = Fraction(v, x.den)
    return RefSeries({n: RefTate(c) for n, c in num.items()}, x.geom, x.cyclo)


def _ref_tnum_add(x: dict[int, RefTate], y: dict[int, RefTate]) -> dict[int, RefTate]:
    out = dict(x)
    for n, c in y.items():
        s = out.get(n, RefTate.zero()) + c
        if s.is_zero():
            out.pop(n, None)
        else:
            out[n] = s
    return out


def _ref_tnum_mul(x: dict[int, RefTate], y: dict[int, RefTate]) -> dict[int, RefTate]:
    out: dict[int, RefTate] = {}
    for n1, c1 in x.items():
        out = _ref_tnum_add(out, {n1 + n2: c1 * c2 for n2, c2 in y.items()})
    return out


def _ref_tnum_scale(x: dict[int, RefTate], c: RefTate) -> dict[int, RefTate]:
    return {n: v * c for n, v in x.items()} if c else {}


def _ref_tnum_mul_geom(x: dict[int, RefTate], a: int, b: int) -> dict[int, RefTate]:
    """x * (1 - L^a T^b), term by term."""
    return _ref_tnum_add(x, {n + b: -c.shift(a) for n, c in x.items()})


def _ref_tnum_divmod_geom(x: dict[int, RefTate], a: int, b: int) -> tuple[dict[int, RefTate], bool]:
    """Divide by (1 - L^a T^b) from the top T-degree down; returns (quotient, exact)."""
    r = dict(x)
    q: dict[int, RefTate] = {}
    while r:
        n = max(r)
        if n < b:
            return q, False
        shifted = r.pop(n).shift(-a)
        q[n - b] = -shifted
        s = r.get(n - b, RefTate.zero()) + shifted
        if s.is_zero():
            r.pop(n - b, None)
        else:
            r[n - b] = s
    return q, True


def _ref_tnum_div_cyclo(x: dict[int, RefTate], i: int) -> tuple[dict[int, RefTate], bool]:
    """Divide every coefficient by (L^i - 1); returns (quotient, exact)."""
    out: dict[int, RefTate] = {}
    for n, c in x.items():
        try:
            out[n] = c.exact_div(cyclotomic_unit(i))
        except NonPolynomialCoefficient:
            return {}, False
    return out, True


def ref_add(x: RatSeries | RefSeries, y: RatSeries | RefSeries) -> RefSeries:
    """x + y over the least common denominator, each numerator multiplied by
    the factors the other has beyond its own."""
    x, y = ref_nested(x), ref_nested(y)
    gl = Counter(x.geom) | Counter(y.geom)
    cl = Counter(x.cyclo) | Counter(y.cyclo)
    nums = []
    for z in (x, y):
        num = z.num
        for a, b in sorted((gl - Counter(z.geom)).elements()):
            num = _ref_tnum_mul_geom(num, a, b)
        for i, mult in sorted((cl - Counter(z.cyclo)).items()):
            unit = RefTate.one()
            for _ in range(mult):
                unit = unit * cyclotomic_unit(i)
            num = _ref_tnum_scale(num, unit)
        nums.append(num)
    return RefSeries(_ref_tnum_add(*nums), gl.elements(), cl.elements())


def ref_mul(x: RatSeries | RefSeries, y: RatSeries | RefSeries) -> RefSeries:
    x, y = ref_nested(x), ref_nested(y)
    return RefSeries(_ref_tnum_mul(x.num, y.num), x.geom + y.geom, x.cyclo + y.cyclo)


def ref_scale(x: RatSeries | RefSeries, c: TatePoly | Scalar) -> RefSeries:
    x = ref_nested(x)
    return RefSeries(_ref_tnum_scale(x.num, ref_tate(c)), x.geom, x.cyclo)


def ref_expand(x: RatSeries | RefSeries, order: int) -> TruncatedSeries:
    """Truncated expansion c_0..c_order in RefTate arithmetic on the nested
    numerator (the reference for `rs_expand`, which runs on the flat one).

    Geometric factors expand termwise; each (L^i - 1) denominator factor must
    then divide every coefficient exactly, else `tate.NonPolynomialCoefficient`.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    nested = ref_nested(x).num
    coeffs = [nested.get(n, RefTate.zero()) for n in range(order + 1)]
    for a, b in x.geom:
        # multiply the truncated series by sum_{s>=0} L^(a s) T^(b s)
        out = [RefTate.zero()] * (order + 1)
        for n in range(order + 1):
            acc = RefTate.zero()
            s = 0
            while b * s <= n:
                c = coeffs[n - b * s]
                if not c.is_zero():
                    acc = acc + c.shift(a * s)
                s += 1
            out[n] = acc
        coeffs = out
    for i in x.cyclo:
        unit = cyclotomic_unit(i)
        coeffs = [c.exact_div(unit) for c in coeffs]
    return TruncatedSeries(coeffs, order)


def ref_normalize(x: RatSeries | RefSeries) -> RefSeries:
    """Cancel each denominator factor whose exact division of the numerator
    succeeds, trying the long division for every factor (the reference for
    `rs_normalize`, which skips the divisions a residue mod a prime proves
    inexact)."""
    x = ref_nested(x)
    num = x.num
    geom: list[tuple[int, int]] = []
    for a, b in x.geom:
        if num:
            q, exact = _ref_tnum_divmod_geom(num, a, b)
            if exact:
                num = q
                continue
        geom.append((a, b))
    cyclo: list[int] = []
    for i in x.cyclo:
        if num:
            q, exact = _ref_tnum_div_cyclo(num, i)
            if exact:
                num = q
                continue
        cyclo.append(i)
    if not num:
        return RefSeries({})
    return RefSeries(num, geom, cyclo)


def ref_poles_in_L(x: RatSeries | RefSeries) -> set[Fraction]:
    """Poles at T = L^alpha from successive T-derivatives of the nested
    numerator, substituted coefficient by coefficient in Fractions."""
    x = ref_nested(x)
    poles = set()
    for alpha in sorted({Fraction(-a, b) for a, b in x.geom if a != 0}):
        p0, s = alpha.numerator, alpha.denominator
        mult = sum(1 for a, b in x.geom if a * s + b * p0 == 0)
        order, num = 0, x.num
        while order < mult:
            sub: dict[int, Fraction] = {}
            for n, c in num.items():
                for e, v in c.c.items():
                    sub[s * e + p0 * n] = sub.get(s * e + p0 * n, Fraction(0)) + v
            if any(sub.values()):
                break
            num = {n - 1: c * RefTate.const(n) for n, c in num.items() if n >= 1}
            order += 1
        if order < mult:
            poles.add(alpha)
    return poles


def ref_specialize(x: RatSeries | RefSeries, q: Scalar) -> RatFunc:
    """x at L = q: every coefficient evaluated in Fractions over the expanded
    product of the (1 - q^a T^b), not reduced (the reference for
    `rs_specialize`, compared through the Taylor coefficients)."""
    x, q = ref_nested(x), Fraction(q)
    scalar = Fraction(1)
    for i in x.cyclo:
        scalar *= q**i - 1
    num = [ref_tate_eval(x.num.get(n, RefTate.zero()), q) / scalar for n in range(max(x.num, default=0) + 1)]
    den = [Fraction(1)]
    for a, b in x.geom:
        den = poly_mul(den, [Fraction(1)] + [Fraction(0)] * (b - 1) + [-(q**a)])
    return RatFunc(tuple(num), tuple(den))


def ref_to_json(x: RatSeries | RefSeries) -> dict:
    """The JSON form of a nested series (the reference for `rs_to_json`)."""
    x = ref_nested(x)
    return {
        "numerator": [[n, x.num[n].to_json()] for n in sorted(x.num)],
        "denomGeom": [[a, b, mult] for (a, b), mult in Counter(x.geom).items()],
        "denomCyclo": [[i, mult] for i, mult in Counter(x.cyclo).items()],
    }


Elem = tuple[int, ...]


def ref_equal(x: RatSeries | RefSeries, y: RatSeries | RefSeries) -> bool:
    """Equality by cross-multiplication: x.num den(y) - y.num den(x) is zero
    (the reference for `rs_equal`, which subtracts over the least common
    denominator)."""
    x, y = ref_nested(x), ref_nested(y)
    nx, ny = x.num, y.num
    for a, b in y.geom:
        nx = _ref_tnum_mul_geom(nx, a, b)
    for a, b in x.geom:
        ny = _ref_tnum_mul_geom(ny, a, b)
    scale_x = RefTate.one()
    for i in y.cyclo:
        scale_x = scale_x * cyclotomic_unit(i)
    scale_y = RefTate.one()
    for i in x.cyclo:
        scale_y = scale_y * cyclotomic_unit(i)
    nx = {n: c * scale_x for n, c in nx.items()}
    ny = {n: -c * scale_y for n, c in ny.items()}
    return _ref_tnum_add(nx, ny) == {}


def ref_tate_text(c: TatePoly) -> str:
    """Plain text of a Laurent polynomial, highest power first (the reference
    for `str(TatePoly)`)."""
    if not c.c:
        return "0"
    parts: list[str] = []
    for e, v in sorted(c.c.items(), reverse=True):
        mag = -v if v < 0 else v
        if e == 0:
            body = str(mag)
        else:
            lpow = "L" if e == 1 else f"L^{e}"
            if mag == 1:
                body = lpow
            elif mag.denominator == 1:
                body = f"{mag}*{lpow}"
            else:
                body = f"({mag})*{lpow}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts)


def _ref_coeff_text(c: TatePoly) -> str:
    s = ref_tate_text(c)
    simple = len(c.c) == 1 and next(iter(c.c.values())) > 0
    return s if simple and "*" not in s and "/" not in s else f"({s})"


def ref_text(x: RatSeries | RefSeries) -> str:
    """Plain text of a series (the reference for `rs_text`)."""
    x = ref_nested(x)
    if not x.num:
        return "0"
    parts = []
    for n in sorted(x.num):
        c = x.num[n]
        if n == 0:
            parts.append(ref_tate_text(c) if len(c.c) == 1 else f"({ref_tate_text(c)})")
            continue
        tpow = "T" if n == 1 else f"T^{n}"
        if c.is_one():
            parts.append(tpow)
        else:
            parts.append(f"{_ref_coeff_text(c)}*{tpow}")
    num_s = " + ".join(parts)
    dens = []
    for (a, b), mult in Counter(x.geom).items():
        tpow = "T" if b == 1 else f"T^{b}"
        if a == 0:
            body = f"(1 - {tpow})"
        else:
            lpow = "L" if a == 1 else f"L^{a}"
            body = f"(1 - {lpow}*{tpow})"
        dens.append(body if mult == 1 else f"{body}^{mult}")
    for i, mult in Counter(x.cyclo).items():
        lpow = "L" if i == 1 else f"L^{i}"
        body = f"({lpow} - 1)"
        dens.append(body if mult == 1 else f"{body}^{mult}")
    if not dens:
        return num_s
    den_s = " ".join(dens)
    if len(parts) > 1:
        num_s = f"({num_s})"
    return f"{num_s} / [{den_s}]"


def _ref_coeff_latex(c: TatePoly) -> str:
    if not c.c:
        return "0"
    parts = []
    for e, v in sorted(c.c.items(), reverse=True):
        mag = -v if v < 0 else v
        if e == 0:
            body = str(mag) if mag.denominator == 1 else f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
        else:
            lpow = "\\mathbb{L}" if e == 1 else f"\\mathbb{{L}}^{{{e}}}"
            if mag == 1:
                body = lpow
            elif mag.denominator == 1:
                body = f"{mag} {lpow}"
            else:
                body = f"\\tfrac{{{mag.numerator}}}{{{mag.denominator}}} {lpow}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts)


def ref_latex(x: RatSeries | RefSeries) -> str:
    """LaTeX of a series (the reference for `rs_latex`)."""
    x = ref_nested(x)
    if not x.num:
        return "0"
    parts = []
    for n in sorted(x.num):
        c = x.num[n]
        if n == 0:
            parts.append(_ref_coeff_latex(c) if len(c.c) == 1 else f"\\left({_ref_coeff_latex(c)}\\right)")
            continue
        tpow = "T" if n == 1 else f"T^{{{n}}}"
        if c.is_one():
            parts.append(tpow)
        elif len(c.c) == 1:
            parts.append(f"{_ref_coeff_latex(c)} {tpow}")
        else:
            parts.append(f"\\left({_ref_coeff_latex(c)}\\right) {tpow}")
    num_s = parts[0]
    for part in parts[1:]:
        num_s += f" - {part.removeprefix('-')}" if part.startswith("-") else f" + {part}"
    dens = []
    for (a, b), mult in Counter(x.geom).items():
        tpow = "T" if b == 1 else f"T^{{{b}}}"
        if a == 0:
            body = f"\\left(1 - {tpow}\\right)"
        else:
            lpow = "\\mathbb{L}" if a == 1 else f"\\mathbb{{L}}^{{{a}}}"
            body = f"\\left(1 - {lpow} {tpow}\\right)"
        dens.append(body if mult == 1 else f"{body}^{{{mult}}}")
    for i, mult in Counter(x.cyclo).items():
        lpow = "\\mathbb{L}" if i == 1 else f"\\mathbb{{L}}^{{{i}}}"
        body = f"\\left({lpow} - 1\\right)"
        dens.append(body if mult == 1 else f"{body}^{{{mult}}}")
    if not dens:
        return num_s
    return f"\\frac{{{num_s}}}{{{' '.join(dens)}}}"


class RefFq(Fq):
    """An `Fq` with scalar element arithmetic on length-d coefficient tuples."""

    @property
    def zero(self) -> Elem:
        return (0,) * self.d

    @property
    def one(self) -> Elem:
        return (1,) + (0,) * (self.d - 1)

    def scalar(self, c: int) -> Elem:
        return (c % self.p,) + (0,) * (self.d - 1)

    def elements(self) -> Iterator[Elem]:
        """All q elements, in base-p counting order of the coefficient vector."""
        for code in range(self.q):
            yield self.decode(code)

    def encode(self, a: Elem) -> int:
        code = 0
        for c in reversed(a):
            code = code * self.p + c
        return code

    def decode(self, code: int) -> Elem:
        out = []
        for _ in range(self.d):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def add(self, a: Elem, b: Elem) -> Elem:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: Elem, b: Elem) -> Elem:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: Elem) -> Elem:
        return tuple((-x) % self.p for x in a)

    def mul(self, a: Elem, b: Elem) -> Elem:
        d, p = self.d, self.p
        full = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    full[i + j] += x * y
        out = [c % p for c in full[:d]]
        for k in range(d, 2 * d - 1):
            c = full[k] % p
            if c:
                row = self.reduction[k - d]
                for j in range(d):
                    out[j] = (out[j] + c * row[j]) % p
        return tuple(out)

    def pow(self, a: Elem, e: int) -> Elem:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result, base = self.one, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: Elem) -> Elem:
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero in Fq")
        return self.pow(a, self.q - 2)

    def in_prime_field(self, a: Elem) -> bool:
        return all(c == 0 for c in a[1:])


@dataclass(frozen=True)
class TruncPow:
    """An element of F_q[t]/t^{n+1}: coefficient tuple of length n+1 over Fq."""

    field: RefFq
    coeffs: tuple[Elem, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, field: RefFq, n: int) -> TruncPow:
        return cls(field, (field.zero,) * (n + 1))

    @classmethod
    def from_scalars(cls, field: RefFq, scalars: list[int], n: int) -> TruncPow:
        cs = [field.scalar(c) for c in scalars[: n + 1]]
        cs += [field.zero] * (n + 1 - len(cs))
        return cls(field, tuple(cs))

    def __add__(self, other: TruncPow) -> TruncPow:
        self._check(other)
        return TruncPow(self.field, tuple(self.field.add(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: TruncPow) -> TruncPow:
        self._check(other)
        F, n = self.field, self.n
        out = [F.zero] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == F.zero:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != F.zero:
                    out[i + j] = F.add(out[i + j], F.mul(a, b))
        return TruncPow(F, tuple(out))

    def scale(self, c: Elem) -> TruncPow:
        return TruncPow(self.field, tuple(self.field.mul(c, a) for a in self.coeffs))

    def __pow__(self, e: int) -> TruncPow:
        if e < 0:
            raise ValueError("negative power of a truncated series")
        result = TruncPow.from_scalars(self.field, [1], self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def order(self) -> int | float:
        for i, c in enumerate(self.coeffs):
            if c != self.field.zero:
                return i
        return float("inf")

    def _check(self, other: TruncPow) -> None:
        if self.field.p != other.field.p or self.field.d != other.field.d or self.n != other.n:
            raise ValueError("mixed truncation orders or fields")


def ref_series_mul(A: np.ndarray, B: np.ndarray, fld: Fq, L: int) -> np.ndarray:
    """Product of digit arrays (rows, *, d) truncated to L positions, shape (rows, L, d).

    Only the first L positions of each operand are read; shorter operands
    count as zero above their last position.
    """
    p = fld.p
    rows, _, d = A.shape
    acc = np.zeros((rows, L, 2 * d - 1), dtype=np.int64)
    for i in range(min(L, A.shape[1])):
        for j in range(min(L - i, B.shape[1])):
            for a in range(d):
                for b in range(d):
                    acc[:, i + j, a + b] += A[:, i, a].astype(np.int64) * B[:, j, b]
    out = acc[:, :, :d]
    for k in range(d, 2 * d - 1):
        extra = acc[:, :, k] % p
        for jj, r in enumerate(fld.reduction[k - d]):
            if r:
                out[:, :, jj] += extra * r
    return out % p


def ref_branch_images(u: np.ndarray, ell: int, n: int, b: BranchSpec, fld: Fq) -> np.ndarray:
    """Digits of the images (w^m, sum a_j w^j) of the arcs w = t^ell u, shape (rows, 2, n+1, d).

    u is a (rows, *, d) array of units, one row per arc.  The term
    w^j = t^(j*ell) u^j needs only u^j mod t^(n+1-j*ell); that length falls
    as j grows, so every power on the way to j is truncated to it.
    """
    p = fld.p
    coeff = {j: a.numerator * pow(a.denominator, -1, p) % p for j, a in b.coeffs.items()}
    out = np.zeros((u.shape[0], 2, n + 1, u.shape[2]), dtype=np.int64)
    power, e = u, 1
    for target in sorted({b.m, *coeff}):
        L = n + 1 - target * ell
        if L <= 0:
            break
        while e < target:
            power = ref_series_mul(power, u, fld, L)
            e += 1
        term = power[:, :L]
        at = slice(target * ell, target * ell + term.shape[1])
        if target == b.m:
            out[:, 0, at] = term
        out[:, 1, at] = (out[:, 1, at] + coeff.get(target, 0) * term) % p
    return out


def ref_count_images(b: BranchSpec, p: int, d: int, n: int) -> int:
    """Distinct images (w^m, sum a_j w^j) mod t^(n+1) of all q^n arcs w = w_1 t + ... + w_n t^n.

    No contact-order split, digit window or truncated power: every arc is one
    row, each power w^j is the full product mod t^(n+1) by
    :func:`ref_series_mul`, and distinct images are distinct rows.
    """
    fld = Fq(p, d)
    q = fld.q
    idx = np.arange(q**n)
    w = np.zeros((q**n, n + 1, d), dtype=np.int64)
    for k in range(1, n + 1):
        for e in range(d):
            w[:, k, e] = idx // q ** (k - 1) // p**e % p
    coeff = {j: a.numerator * pow(a.denominator, -1, p) % p for j, a in b.coeffs.items()}
    x = y = np.zeros_like(w)
    power = w
    for j in range(1, max([b.m, *coeff]) + 1):
        if j > 1:
            power = ref_series_mul(power, w, fld, n + 1)
        if j == b.m:
            x = power
        y = (y + coeff.get(j, 0) * power) % p
    images = np.stack([x, y], axis=1).reshape(q**n, -1).astype(np.min_scalar_type(p))
    return len(np.unique(images, axis=0))


def ref_level_strata(b: BranchSpec, p: int, d: int, n: int, window: bool = True) -> tuple[int, dict[int, int]]:
    """The image count at level n and its per-stratum counts, enumerated at level n itself.

    The per-level path the counting routes ran before they read every level
    off one top-level enumeration: one `grid._stratum_keys` call per stratum
    at this n, window strata summed with the zero arc, exhaustive strata
    merged with the zero key (their per-stratum dict is empty).
    """
    fld = Fq(p, d)
    coeff = {j: a.numerator * pow(a.denominator, -1, p) % p for j, a in b.coeffs.items()}
    budget = 2**40
    if not window:
        keys = [grid._stratum_keys(b, coeff, fld, n, ell, n - ell, budget) for ell in range(1, n + 1)]
        return len(grid._distinct([grid._pack([], p), *keys])), {}
    strata = {
        ell: len(grid._stratum_keys(b, coeff, fld, n, ell, n - ell * b.m, budget)) for ell in range(1, n // b.m + 1)
    }
    return 1 + sum(strata.values()), strata


def _ref_ordp(value: int, p: int) -> int | float:
    if value == 0:
        return inf
    k = 0
    while value % p == 0:
        value //= p
        k += 1
    return k


def ref_cell_horizon(polys: Sequence[IntPoly], p: int, b: tuple[int, ...], S: int) -> int | float:
    """H: min over f_i and a != 0 of ord D^[a]f_i(b) + S|a| on the cell b + p^S Z^m."""
    best: int | float = inf
    for poly in polys:
        for alpha in product(*(range(e + 1) for e in poly.max_exponents())):
            if any(alpha):
                order = _ref_ordp(poly.hasse_deriv(alpha).eval(b), p) + S * sum(alpha)
                best = min(best, order)
    return best


def ref_surviving_children(
    polys: Sequence[IntPoly], p: int, K: int, b: tuple[int, ...], S: int
) -> list[tuple[int, ...]]:
    """Children b + p^S v, v in [0, p)^m in lexicographic order, whose values
    reach the child threshold: min_i min(ord f_i, K) >= min(H + 1, K)."""
    threshold = min(ref_cell_horizon(polys, p, b, S) + 1, K)
    out = []
    for v in product(range(p), repeat=len(b)):
        child = tuple(x + p**S * d for x, d in zip(b, v))
        if min([min(_ref_ordp(poly.eval(child), p), K) for poly in polys] + [K]) >= threshold:
            out.append(child)
    return out


def ref_flat_children(
    polys: Sequence[IntPoly], p: int, K: int, b: tuple[int, ...], S: int
) -> list[bool]:
    """For each child of :func:`ref_surviving_children`, whether every
    p^S D^[e_k]f_i(child) is 0 mod p^{H+1}, H the cell's horizon: the flat
    flag, evaluated over Z."""
    mod = p ** (ref_cell_horizon(polys, p, b, S) + 1)
    return [
        all(p**S * d.eval(child) % mod == 0 for poly in polys for d in ref_gradient(poly))
        for child in ref_surviving_children(polys, p, K, b, S)
    ]


def ref_gradient(poly: IntPoly) -> list[IntPoly]:
    """The first-order Hasse derivatives D^[e_j] poly, j = 1..nvars."""
    units = [tuple(int(j == i) for j in range(poly.nvars)) for i in range(poly.nvars)]
    return [poly.hasse_deriv(u) for u in units]


def ref_hensel_bound(jacobian: Sequence[Sequence[IntPoly]], nvars: int, p: int, b: tuple[int, ...]) -> int | float:
    """Minimal p-order over the maximal minors of the Jacobian at b (r = #polys <= 3, else inf)."""
    r = len(jacobian)
    if r == 0 or r > nvars or r > 3:
        return inf
    rows = [[g.eval(b) for g in grad] for grad in jacobian]
    best: int | float = inf
    for cols in combinations(range(nvars), r):
        sub = [[rows[i][j] for j in cols] for i in range(r)]
        if r == 1:
            det = sub[0][0]
        elif r == 2:
            det = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
        else:
            det = (
                sub[0][0] * (sub[1][1] * sub[2][2] - sub[1][2] * sub[2][1])
                - sub[0][1] * (sub[1][0] * sub[2][2] - sub[1][2] * sub[2][0])
                + sub[0][2] * (sub[1][0] * sub[2][1] - sub[1][1] * sub[2][0])
            )
        best = min(best, _ref_ordp(det, p))
    return best


def ref_count_liftable(
    f: Sequence[IntPoly], W: Sequence[IntPoly], p: int, n: int, max_depth: int, budget: int
) -> LiftResult:
    """The cell tree of `count_liftable` without the owner prune, on polynomials of one width.

    Every popped cell is evaluated in full: f_i(b) by `IntPoly.eval`, the
    Hensel bound v from the p-orders of the Jacobian minors (certify when
    ord f(b) > 2v and ord f(b) - v >= n+1), the horizon by
    :func:`ref_cell_horizon` and the children by :func:`ref_surviving_children`.
    """
    nvars = max([poly.nvars for poly in [*f, *W]] + [1])
    jacobian = [ref_gradient(poly) for poly in f]
    K = n + 1 + max_depth
    owner_mod = p ** (n + 1)
    stack = [
        (b, 1)
        for b in product(range(p), repeat=nvars)
        if all(poly.eval(b) % p == 0 for poly in [*W, *f])
    ]
    owners: dict[tuple[int, ...], bool] = {}
    bulk_count, bulk_certified, charge = 0, True, 0
    while stack:
        b, S = stack.pop()
        charge += 1
        if charge > budget:
            raise BudgetExceeded(f"cell tree exceeded budget of {budget} nodes")
        F0 = min([_ref_ordp(poly.eval(b), p) for poly in f], default=inf)
        single = S >= n + 1
        if single:
            owner = tuple(x % owner_mod for x in b)
            v = ref_hensel_bound(jacobian, nvars, p, b)
            if F0 == inf or (v != inf and F0 > 2 * v and F0 - v >= n + 1):
                owners[owner] = True
                continue
        H = ref_cell_horizon(f, p, b, S)
        if min(F0, H) >= K:
            if single:
                owners.setdefault(owner, False)
            else:
                bulk_count += p ** ((n + 1 - S) * nvars)
                bulk_certified = bulk_certified and F0 == inf and H == inf
            continue
        if F0 < H:
            continue
        charge += p**nvars
        if charge > budget:
            raise BudgetExceeded(f"cell tree exceeded budget of {budget} nodes")
        stack.extend((child, S + 1) for child in ref_surviving_children(f, p, K, b, S))
    certified = (bulk_count == 0 or bulk_certified) and all(owners.values())
    return LiftResult(count=bulk_count + len(owners), certified=certified, nodes=charge)


def ref_certified_cells(
    f: IntPoly, W: Sequence[IntPoly], p: int, n: int, max_depth: int
) -> list[tuple[tuple[int, ...], int]]:
    """The cells b + p^S Z^m that the cell certificate counts for one equation f.

    Walks the tree of :func:`ref_count_liftable` down to level n and keeps the
    branching cells (ord f(b) >= H, H < K) with H < 2S and H - S <= max_depth,
    not searching below them.
    """
    K = n + 1 + max_depth
    stack = [
        (b, 1) for b in product(range(p), repeat=f.nvars) if all(poly.eval(b) % p == 0 for poly in [*W, f])
    ]
    cells = []
    while stack:
        b, S = stack.pop()
        if S > n:
            continue
        F0, H = _ref_ordp(f.eval(b), p), ref_cell_horizon([f], p, b, S)
        if min(F0, H) >= K or F0 < H:
            continue
        if H < 2 * S and H - S <= max_depth:
            cells.append((b, S))
        else:
            stack.extend((child, S + 1) for child in ref_surviving_children([f], p, K, b, S))
    return cells


def ref_lifts(f: IntPoly, p: int, x: tuple[int, ...], level: int, K: int) -> bool:
    """Whether x mod p^level is the residue of a solution of f mod p^K, K >= level.

    Depth-first over the p^m digit vectors of each further level.
    """
    if f.eval(x) % p**level:
        return False
    if level >= K:
        return True
    step = p**level
    return any(
        ref_lifts(f, p, tuple(c + step * d for c, d in zip(x, digits)), level + 1, K)
        for digits in product(range(p), repeat=len(x))
    )


def ref_y_coeff(b: BranchSpec, j: int) -> Fraction:
    """The coefficient a_j of w^j in y, 0 when absent."""
    return b.coeffs.get(j, Fraction(0))


def ref_specialize_truncated(series: TruncatedSeries, q: Scalar) -> list[Fraction]:
    """The coefficients c_0..c_order of a truncated expansion at L = q."""
    return [ref_tate_eval(c, q) for c in series.coeffs]


def read_count_report(obj: Mapping | str) -> CountReport:
    """A `CountReport` from its `to_json` form (or that form as a string)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    rows = [CountRow(int(n), int(c), str(m), float(s)) for n, c, m, s in obj["rows"]]
    return CountReport(str(obj["name"]), int(obj["p"]), int(obj["d"]), rows, [str(a) for a in obj.get("assumptions", [])])


def report_counts(report: CountReport) -> dict[int, int]:
    """The counted value of each row of a report, by n."""
    return {r.n: r.count for r in report.rows}


def read_verdict(obj: Mapping | str) -> Verdict:
    """A `Verdict` from its `to_json` form (or that form as a string)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    rows = tuple(
        CompRow(
            p=int(r["p"]),
            n=int(r["n"]),
            symbolic=Fraction(r["symbolic"]),
            counted=Fraction(r["counted"]),
            counted_alt=None if r.get("counted_alt") is None else Fraction(r["counted_alt"]),
            certified=bool(r["certified"]),
        )
        for r in obj["rows"]
    )
    return Verdict(
        target=str(obj["target"]),
        rows=rows,
        summary=str(obj["summary"]),
        detail=str(obj.get("detail", "")),
        assumptions=tuple(obj.get("assumptions", ())),
    )


def ref_contains(sys: IteratedRangeSystem, point: Mapping[str, int]) -> bool:
    """Membership of an integer point in some piece of the system."""
    return any(_ref_piece_contains(piece, point) for piece in sys.pieces)


def _ref_piece_contains(piece: Piece, point: Mapping[str, int]) -> bool:
    env: dict[str, int] = {}
    for r in piece.ranges:
        v = point[r.var]
        base = r.base.eval(env)
        if base.denominator != 1:
            return False
        base = base.numerator
        if v < base or (v - base) % r.step:
            return False
        if r.cap is not None and Fraction(v) > r.cap.eval(env):
            return False
        env[r.var] = v
    return True


def ref_iter_points(sys: IteratedRangeSystem, tmax: Mapping[str, int]) -> Iterator[dict[str, int]]:
    """The points of the system with each variable clipped to tmax[var]."""
    for piece in sys.pieces:
        yield from _ref_piece_points(piece, 0, {}, tmax)


def _ref_piece_points(
    piece: Piece, i: int, env: dict[str, int], tmax: Mapping[str, int]
) -> Iterator[dict[str, int]]:
    if i == len(piece.ranges):
        yield dict(env)
        return
    r = piece.ranges[i]
    base = r.base.eval(env)
    if base.denominator != 1:
        raise ValueError(f"non-integral base {r.base} at {env}")
    v = base.numerator
    hi = Fraction(tmax[r.var])
    if r.cap is not None:
        hi = min(hi, r.cap.eval(env))
    while v <= hi:
        env[r.var] = v
        yield from _ref_piece_points(piece, i + 1, env, tmax)
        del env[r.var]
        v += r.step
