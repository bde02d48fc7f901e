"""Iterated arithmetic-progression form of Presburger sets, and weighted sums.

`to_iterated_ranges` rewrites a quantifier-free formula into finitely many
disjoint pieces: it splits on the truth of one atom at a time, folding the
formula with `presburger._fold` and reading each comparison through
`presburger._le_forms`.  The constraints it carries are presburger atoms,
`Cmp(t, "<=")` and `Cong(t, n)`; the module defines no constraint type of
its own (`tests/test_source_rules.py` checks it).  In a piece, each variable
(in a fixed elimination order) ranges over an arithmetic progression
{base + step*s : s >= 0}, optionally capped, whose base/cap are affine in
the outer variables; `_extremes` is the one choice of the largest lower or
smallest upper bound.  Bases and caps are `presburger.LinTerm`s that may
carry rational coefficients but are integer-valued on every admissible outer
point (the decomposition introduces the congruences that guarantee it).
`_lin_from_affine` and `_affine_congruence` are the one place that scales
such a term back to integer coefficients.

`weighted_sum` then evaluates sum over all points of L^(-lweight) T^tweight
(LinTerm weights over the variables of the order) in closed form, one
variable at a time, using the geometric identity
sum_{s>=0} x^(A+sB) = x^A/(1-x^B) and its finite-difference refinement for
sum s^g y^s.  `_substituted` is the one reindexing: a capped sum whose step
diverges is reversed (s -> cnt-1-s), and a convergent one is the full sum
minus its tail (s -> cnt+s).  The result is a RatSeries; factors (1 - L^a)
without T become (L^a - 1) denominator units.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm
from typing import Iterator, Sequence

from . import presburger as pb
from .presburger import _NEGATE, LinTerm, _atoms, _fold, _le_forms
from .ratseries import RatSeries, _geom_order, _series, rs_add
from .tate import _sparse_add, _sparse_mul


class UnsupportedShape(ValueError):
    """The formula needs a range shape the normalizer does not produce."""


class DivergentSum(ArithmeticError):
    """The requested weighted sum does not converge."""


# ---------------------------------------------------------------------------
# the range system


@dataclass(frozen=True)
class RangeVar:
    """var runs over {base + step*s : s >= 0}, optionally capped above."""

    var: str
    base: LinTerm  # over outer variables
    step: int
    cap: LinTerm | None = None  # aligned: cap - base == 0 mod step on the piece


@dataclass(frozen=True)
class Piece:
    ranges: tuple[RangeVar, ...]  # ordered outermost first


@dataclass(frozen=True)
class IteratedRangeSystem:
    order: tuple[str, ...]
    pieces: tuple[Piece, ...]


# ---------------------------------------------------------------------------
# decomposition: quantifier-free formula -> disjoint pieces
#
# constraints are presburger atoms with integer coefficients:
#   Cmp(t, "<="): t <= 0        Cong(t, n): t == 0 mod n

_Constraint = pb.Cmp | pb.Cong


def _atom_constraints(atom: pb.Formula, value: bool) -> list[list[_Constraint]]:
    """Disjoint alternatives of positive constraints expressing atom == value."""
    if isinstance(atom, pb.Cong):
        if value:
            return [[atom]]
        return [[pb.Cong(atom.term.shift(r), atom.modulus)] for r in range(1, atom.modulus)]
    rel = atom.rel if value else _NEGATE[atom.rel]
    return [[pb.Cmp(t, "<=") for t in alt] for alt in _le_forms(atom.term, rel)]


def _disjoint_conjunctions(f: pb.Formula) -> Iterator[list[_Constraint]]:
    """Yield constraint conjunctions whose solution sets partition that of f.

    Sign-pattern expansion over atoms in first-occurrence order: assigning an
    atom both ways gives disjoint branches, and negated atoms expand into
    disjoint alternatives (residues / strict sides).
    """

    def go(g: pb.Formula, acc: list) -> Iterator[list]:
        # g is folded: no atom assigned so far occurs in it
        if isinstance(g, pb.BoolConst):
            if g.value:
                yield list(acc)
            return
        atom = next(_atoms(g))
        for value in (pb.TRUE, pb.FALSE):
            rest = _fold(g, lambda a: value if a == atom else a)
            for alt in _atom_constraints(atom, value.value):
                yield from go(rest, acc + alt)

    yield from go(_fold(f, lambda a: a), [])


def _lin_from_affine(form: LinTerm, shift: int = 0) -> LinTerm:
    """Integer LinTerm equal to a positive multiple of (form + shift).

    The multiple is form.denominator_lcm(), which an integer shift keeps.
    """
    form = form.shift(shift)
    scaled = form.scale(form.denominator_lcm())
    return LinTerm.make({v: c.numerator for v, c in scaled.coeffs}, scaled.const.numerator)


def _affine_congruence(form: LinTerm, residue: int, modulus: int) -> pb.Cong:
    """Constraint: form == residue (mod modulus), scaled to integer coeffs."""
    return pb.Cong(_lin_from_affine(form, -residue), modulus * form.denominator_lcm())


def to_iterated_ranges(f: pb.Formula, order: Sequence[str]) -> IteratedRangeSystem:
    """Disjoint iterated-progression decomposition of a quantifier-free set.

    Variables are processed innermost (last in `order`) first.  Every
    variable must acquire a lower bound; sets unbounded below in some
    variable raise UnsupportedShape.  Non-unit coefficients and congruences
    are handled by residue case-splits that push congruence conditions onto
    the outer variables.
    """
    if not pb.is_quantifier_free(f):
        raise ValueError("to_iterated_ranges needs a quantifier-free formula")
    names = list(order)
    if len(set(names)) != len(names):
        raise ValueError("duplicate variable in order")
    extra = pb.free_vars(f) - set(names)
    if extra:
        raise ValueError(f"formula uses variables outside the order: {sorted(extra)}")

    pieces = [
        Piece(tuple(assignment[v] for v in names))
        for conj in _disjoint_conjunctions(f)
        for assignment in _solve_vars(conj, names)
    ]
    return IteratedRangeSystem(tuple(names), tuple(pieces))


def _solve_vars(constraints: list[_Constraint], names: list[str]) -> Iterator[dict[str, RangeVar]]:
    """Assign a RangeVar to every name, innermost first, splitting as needed."""
    if not names:
        # only variable-free constraints may remain
        for c in constraints:
            if c.term.coeffs:
                shape = "<= 0" if isinstance(c, pb.Cmp) else f"== 0 mod {c.modulus}"
                raise UnsupportedShape(f"constraint {c.term} {shape} left unresolved")
            if not pb.membership(c, {}):
                return  # constant false: dead piece
        yield {}
        return

    var = names[-1]
    outer = names[:-1]
    mine = [c for c in constraints if c.term.coeff(var)]
    rest = [c for c in constraints if not c.term.coeff(var)]

    for step, residue, extra1 in _congruence_split(mine, var):
        ineqs = [c for c in mine if isinstance(c, pb.Cmp)]
        for lowers, uppers, extra2 in _bound_split(ineqs, var):
            for base, extra3 in _pick_base(lowers, step, residue):
                for cap, extra4 in _pick_cap(uppers, base, step):
                    carried = rest + extra1 + extra2 + extra3 + extra4
                    rv = RangeVar(var, base, step, cap)
                    for inner in _solve_vars(carried, outer):
                        yield {**inner, var: rv}


def _congruence_split(mine: list[_Constraint], var: str) -> Iterator[tuple[int, int, list[pb.Cong]]]:
    """Split on var's residue: yields (step, residue, outer conditions)."""
    congs = [c for c in mine if isinstance(c, pb.Cong)]
    if not congs:
        yield 1, 0, []
        return
    step = lcm(*(c.modulus for c in congs))
    for rho in range(step):
        conds = []
        for c in congs:
            shifted = c.term.drop_var(var).shift(c.term.coeff(var) * rho)
            if shifted.coeffs:
                conds.append(pb.Cong(shifted, c.modulus))
            elif shifted.const % c.modulus:
                break  # this residue solves no congruence
        else:
            yield step, rho, conds


def _bound_split(
    ineqs: list[pb.Cmp], var: str
) -> Iterator[tuple[list[LinTerm], list[LinTerm], list[pb.Cong]]]:
    """Turn c*var + t <= 0 atoms into exact affine lower/upper bounds.

    Non-unit |c| needs the value of t mod |c|; each residue choice adds a
    congruence condition on the outer variables (disjoint alternatives, the
    first atom's varying slowest).
    """
    alternatives = []  # per atom: (is_lower, bound, conditions) choices
    for c in ineqs:
        coef = c.term.coeff(var)
        t = c.term.drop_var(var)
        lower = coef < 0
        u, d = (t, -coef) if lower else (t.scale(-1), coef)  # var >=/<= u/d
        if d == 1:
            alternatives.append([(lower, u, [])])
            continue
        # u == r (mod d); lower: ceil(u/d) = (u - r)/d + (1 if r else 0)
        alternatives.append([
            (lower, u.shift(-r).scale(Fraction(1, d)).shift(1 if lower and r else 0), [_affine_congruence(u, r, d)])
            for r in range(d)
        ])
    for choice in product(*alternatives):
        yield (
            [bound for lower, bound, _ in choice if lower],
            [bound for lower, bound, _ in choice if not lower],
            [cond for _, _, conds in choice for cond in conds],
        )


def _extremes(bounds: list[LinTerm], sign: int) -> Iterator[tuple[LinTerm, list[pb.Cmp]]]:
    """Disjoint cases of which bound is the largest (sign 1) or the smallest
    (sign -1): it is strictly beyond the earlier bounds and at least the later ones."""
    for i, b in enumerate(bounds):
        yield b, [
            pb.Cmp(_lin_from_affine(other.sub(b).scale(sign), 1 if j < i else 0), "<=")
            for j, other in enumerate(bounds)
            if j != i
        ]


def _pick_base(
    lowers: list[LinTerm], step: int, residue: int
) -> Iterator[tuple[LinTerm, list[_Constraint]]]:
    """Choose the max lower bound (disjoint case split), then align it to the
    residue class; alignment needs the bound's value mod step."""
    if not lowers:
        raise UnsupportedShape("variable has no lower bound")
    for b, conds in _extremes(lowers, 1):
        if step == 1:
            yield b, conds
            continue
        for sigma in range(step):
            yield b.shift((residue - sigma) % step), conds + [_affine_congruence(b, sigma, step)]


def _pick_cap(
    uppers: list[LinTerm], base: LinTerm, step: int
) -> Iterator[tuple[LinTerm | None, list[_Constraint]]]:
    """Choose the min upper bound (disjoint split), align it to the
    progression, and keep only the branch where the range is nonempty."""
    if not uppers:
        yield None, []
        return
    for u, conds in _extremes(uppers, -1):
        if step == 1:
            yield u, conds + [pb.Cmp(_lin_from_affine(base.sub(u)), "<=")]  # nonempty: base <= u
            continue
        for tau in range(step):
            cap = u.shift(-tau)
            nonempty = pb.Cmp(_lin_from_affine(base.sub(cap)), "<=")
            yield cap, conds + [_affine_congruence(u.sub(base), tau, step), nonempty]


# ---------------------------------------------------------------------------
# weighted geometric summation


@dataclass
class _Term:
    coef: Fraction
    mono: dict[str, int]  # powers of progression indices still to be summed
    lexp: LinTerm
    texp: LinTerm
    denom: Counter = field(default_factory=Counter)  # (a, b) -> mult of (1 - L^a T^b)


def _finite_diffs(gamma: int) -> list[int]:
    """a_i = i-th forward difference of s^gamma at 0, so that
    s^gamma = sum_i a_i * C(s, i)."""
    vals = [s**gamma for s in range(gamma + 1)]
    out = []
    while vals:
        out.append(vals[0])
        vals = [vals[k + 1] - vals[k] for k in range(len(vals) - 1)]
    return out


_Poly = dict[tuple[tuple[str, int], ...], Fraction]  # monomials in index vars


def _poly_from_affine(form: LinTerm) -> _Poly:
    out: _Poly = {}
    if form.const:
        out[()] = form.const
    for v, c in form.coeffs:
        out[((v, 1),)] = c
    return out


def _mono_mul(m1: tuple[tuple[str, int], ...], m2: tuple[tuple[str, int], ...]) -> tuple[tuple[str, int], ...]:
    """The product of two monomials, each a sorted tuple of (variable, power) pairs."""
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _poly_pow(a: _Poly, e: int) -> _Poly:
    out: _Poly = {(): Fraction(1)}
    for _ in range(e):
        out = _sparse_mul(out, a, _mono_mul)
    return out


def _binom_poly(form: LinTerm, k: int) -> _Poly:
    """C(form, k) = form (form-1) ... (form-k+1) / k! as a polynomial."""
    out: _Poly = {(): Fraction(1)}
    for j in range(k):
        out = _sparse_mul(out, _poly_from_affine(form.shift(-j)), _mono_mul)
    return {m: c / Fraction(factorial(k)) for m, c in out.items()}


def _int_coeff(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise UnsupportedShape(f"non-integer {what} coefficient {x}")
    return x.numerator


def _sum_one_var(terms: list[_Term], s: str, cnt: LinTerm | None) -> list[_Term]:
    """Replace each term by its closed-form sum over s = 0..(cnt-1) (or all
    s >= 0 when cnt is None)."""
    out: list[_Term] = []
    for t in terms:
        gamma = t.mono.pop(s, 0)
        bl = _int_coeff(t.lexp.coeff(s), "L-exponent")
        bt = _int_coeff(t.texp.coeff(s), "T-exponent")
        base = _Term(t.coef, dict(t.mono), t.lexp.drop_var(s), t.texp.drop_var(s), Counter(t.denom))
        if bl == 0 and bt == 0:
            if cnt is None:
                raise DivergentSum(f"index {s} does not move the weights")
            # pure counting: sum_{s=0}^{cnt-1} s^gamma
            for mono, c in _power_sum_poly(gamma, cnt).items():
                out.append(_with_poly(base, mono, c))
            continue
        convergent = bt > 0 or (bt == 0 and bl < 0)
        if not convergent:
            if cnt is None:
                raise DivergentSum(f"sum over {s} diverges: step exponent T^{bt} L^{bl}")
            # reverse the index, s -> (cnt-1) - s, making the step convergent
            out.extend(_sum_one_var(_substituted(t, s, gamma, cnt.shift(-1), -1), s, cnt))
            continue
        out.extend(_open_sum(base, gamma, bl, bt))
        if cnt is not None:
            # a capped sum is the full sum minus the tail s -> cnt + s
            out.extend(_sum_one_var(_substituted(replace(t, coef=-t.coef), s, gamma, cnt, 1), s, None))
    return out


def _substituted(t: _Term, s: str, gamma: int, shift: LinTerm, sign: int) -> list[_Term]:
    """t times s^gamma with shift + sign*s in place of s, one term per power
    of s and monomial of the binomial expansion of (shift + sign*s)^gamma."""
    repl = {s: shift.add(LinTerm.make({s: sign}))}
    lexp, texp = t.lexp.subst(repl), t.texp.subst(repl)
    out = []
    for j in range(gamma + 1):
        head = _Term(t.coef * comb(gamma, j) * sign**j, {**t.mono, s: j}, lexp, texp, t.denom)
        out.extend(_with_poly(head, mono, c) for mono, c in _poly_pow(_poly_from_affine(shift), gamma - j).items())
    return out


def _with_poly(t: _Term, mono: tuple[tuple[str, int], ...], c: Fraction) -> _Term:
    nt = _Term(t.coef * c, dict(t.mono), t.lexp, t.texp, Counter(t.denom))
    for v, e in mono:
        nt.mono[v] = nt.mono.get(v, 0) + e
    return nt


def _power_sum_poly(gamma: int, cnt: LinTerm) -> _Poly:
    """sum_{s=0}^{cnt-1} s^gamma as a polynomial in the outer indices."""
    out: _Poly = {}
    for i, a in enumerate(_finite_diffs(gamma)):
        if a:
            # sum_{s=0}^{S} C(s, i) = C(S+1, i+1) with S+1 = cnt
            out = _sparse_add(out, {m: a * c for m, c in _binom_poly(cnt, i + 1).items()})
    return out


def _open_sum(t: _Term, gamma: int, bl: int, bt: int) -> list[_Term]:
    """sum_{s>=0} s^gamma x^(A + sB) = sum_i a_i x^(A+iB) / (1-x^B)^(i+1)."""
    out = []
    for i, a in enumerate(_finite_diffs(gamma)):
        if not a:
            continue
        nt = _Term(
            t.coef * a,
            dict(t.mono),
            t.lexp.shift(i * bl),
            t.texp.shift(i * bt),
            Counter(t.denom),
        )
        nt.denom[(bl, bt)] += i + 1
        out.append(nt)
    return out


def weighted_sum(
    sys: IteratedRangeSystem, lweight: LinTerm, tweight: LinTerm
) -> RatSeries:
    """Closed form of sum over sys of L^(-lweight(x)) * T^(tweight(x)).

    Convergence: along every uncapped direction the T-weight must strictly
    increase, or failing that the L-weight must strictly increase (the sum
    then converges through (L^i - 1)^-1 denominators); otherwise DivergentSum.
    The weights may use only the variables of sys.order; others raise
    ValueError.
    """
    stray = (lweight.vars() | tweight.vars()) - set(sys.order)
    if stray:
        raise ValueError(f"weights use variables outside the order: {sorted(stray)}")
    total = RatSeries.zero()
    for piece in sys.pieces:
        # express each original variable affinely in the progression indices
        env: dict[str, LinTerm] = {}
        caps: list[tuple[str, LinTerm | None]] = []
        for r in piece.ranges:
            idx = f"s_{r.var}"
            base = r.base.subst(env)
            env[r.var] = base.add(LinTerm.make({idx: r.step}))
            for v, c in env[r.var].coeffs:
                _int_coeff(c, f"progression for {r.var}")
            if r.cap is None:
                caps.append((idx, None))
            else:
                span = r.cap.subst(env).sub(base)
                cnt = span.scale(Fraction(1, r.step)).shift(1)  # S + 1 terms
                for v, c in cnt.coeffs:
                    _int_coeff(c, f"cap for {r.var}")
                _int_coeff(cnt.const, f"cap for {r.var}")
                caps.append((idx, cnt))
        terms = [
            _Term(
                Fraction(1),
                {},
                lweight.subst(env).scale(-1),
                tweight.subst(env),
            )
        ]
        for idx, cnt in reversed(caps):
            terms = _sum_one_var(terms, idx, cnt)
        for t in terms:
            if t.mono:
                raise UnsupportedShape(f"unsummed indices {sorted(t.mono)} remain")
            total = rs_add(total, _term_to_series(t))
    return total


def _term_to_series(t: _Term) -> RatSeries:
    if not t.lexp.is_const() or not t.texp.is_const():
        raise UnsupportedShape("weights did not reduce to constants")
    lexp = _int_coeff(t.lexp.const, "L-exponent")
    texp = _int_coeff(t.texp.const, "T-exponent")
    coef = t.coef
    geom: list[tuple[int, int]] = []
    cyclo: list[int] = []
    for (a, b), mult in sorted(t.denom.items()):
        if b < 0:
            raise UnsupportedShape(f"negative T-step in factor (1 - L^{a} T^{b})")
        if b > 0:
            geom.extend([(a, b)] * mult)
            continue
        # T-free factor (1 - L^a): convergence guaranteed a < 0; rewrite
        # 1/(1 - L^a) = L^-a / (L^-a - 1)
        if a >= 0:
            raise DivergentSum(f"factor (1 - L^{a}) is not invertible here")
        lexp += -a * mult
        cyclo.extend([-a] * mult)
    if texp < 0:
        raise UnsupportedShape(f"negative T-exponent {texp}")
    num = {(texp, lexp): coef.numerator} if coef else {}
    return _series(num, coef.denominator, tuple(sorted(geom, key=_geom_order)), tuple(sorted(cyclo)))
