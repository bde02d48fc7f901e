"""Presburger formulas over Z: parsing, evaluation, and quantifier elimination.

Formulas are immutable ASTs with linear-comparison and congruence atoms over
integer variables.  The surface grammar:

    formula  := ("E" var "." | "A" var ".") formula | disjunction
    disj     := conj ("|" conj)*
    conj     := unary ("&" unary)*
    unary    := "!" unary | "(" formula ")" | atom
    atom     := linear REL linear | linear ("==" | "≡") linear "mod" INT
    REL      := "<=" | "<" | "=" | ">=" | ">"
    linear   := integer-linear combinations with "+", "-", "*", parentheses
                (juxtaposition "2n" reads as "2*n")

Variables match [a-z][a-z0-9_]*.  Quantifiers scope to the end of the
enclosing formula or parenthesized group.  `parse_linear` reads a lone
`linear` (the weights of ``arczeta presburger sum``).

`LinTerm` is the one affine-term type of the package: formula atoms, the
range bounds of `arczeta.ranges` (rational coefficients) and the weights.

Each basic fact is stated once, for this module and `arczeta.ranges`:
`_le_forms` says how term REL 0 reads over Z as disjoint conjunctions of
t <= 0 (for the gcd tightening of `simplify`, the strict atoms of Cooper
elimination and the range constraints); `_fold` is the one constant folder
(`simplify` passes it the atom normaliser, the range decomposition a truth
assignment, `membership` the truth of each atom at its point);
`_nnf_strict` is the one negation normal form.

Quantifier elimination is Cooper's algorithm: divisibility-aware, works
directly on the boolean structure without a prior disjunctive normal form.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterator, Mapping, Sequence, Union


class FormulaSyntaxError(ValueError):
    """Malformed formula text; `position` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredVariable(ValueError):
    """A free variable is not in the declared-variable list."""


class ArityMismatch(ValueError):
    """A point does not assign exactly the free variables."""


# ---------------------------------------------------------------------------
# relations: every atom reads  term REL 0

# -t FLIP[REL] 0 says what t REL 0 says
_FLIP = {"<=": ">=", "<": ">", "=": "=", ">=": "<=", ">": "<"}
# t NEGATE[REL] 0 is the negation of t REL 0
_NEGATE = {"<=": ">", "<": ">=", "=": "!=", ">=": "<", ">": "<="}
_COMPARE = {
    "<=": operator.le, "<": operator.lt, "=": operator.eq,
    ">=": operator.ge, ">": operator.gt, "!=": operator.ne,
}


def _holds(v: int, rel: str) -> bool:
    """Truth of v REL 0."""
    return _COMPARE[rel](v, 0)


def _le_forms(t: LinTerm, rel: str) -> list[list[LinTerm]]:
    """t REL 0 over Z as disjoint alternatives, each a conjunction of u <= 0.

    The one statement of how every relation, "!=" included, reads in the
    non-strict form; REL is one of <=, <, =, >=, >, !=.
    """
    if rel == "=":
        return [[t, t.scale(-1)]]
    if rel == "!=":
        return _le_forms(t, "<") + _le_forms(t, ">")
    if rel in (">=", ">"):
        t, rel = t.scale(-1), _FLIP[rel]
    if rel == "<=":
        return [[t]]
    if rel == "<":
        return [[t.shift(1)]]
    raise ValueError(f"unknown relation {rel!r}")


# ---------------------------------------------------------------------------
# linear terms: sum of c_i * x_i plus a constant

Coeff = Union[int, Fraction]


@dataclass(frozen=True)
class LinTerm:
    """sum c_i * x_i + const over named integer variables.

    Formula atoms keep integer coefficients; the range bounds of
    `arczeta.ranges` carry rational ones.
    """

    coeffs: tuple[tuple[str, Coeff], ...]  # sorted by variable, zero coeffs dropped
    const: Coeff

    @classmethod
    def make(cls, coeffs: Mapping[str, Coeff], const: Coeff = 0) -> LinTerm:
        return cls(tuple(sorted((v, c) for v, c in coeffs.items() if c)), const)

    @classmethod
    def of_const(cls, c: Coeff) -> LinTerm:
        return cls((), c)

    @classmethod
    def of_var(cls, v: str) -> LinTerm:
        return cls(((v, 1),), 0)

    def as_dict(self) -> dict[str, Coeff]:
        return dict(self.coeffs)

    def vars(self) -> set[str]:
        return {v for v, _ in self.coeffs}

    def is_const(self) -> bool:
        return not self.coeffs

    def coeff(self, var: str) -> Coeff:
        return self.as_dict().get(var, 0)

    def add(self, other: LinTerm) -> LinTerm:
        d = self.as_dict()
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return LinTerm.make(d, self.const + other.const)

    def scale(self, k: Coeff) -> LinTerm:
        return LinTerm.make({v: k * c for v, c in self.coeffs}, k * self.const)

    def sub(self, other: LinTerm) -> LinTerm:
        return self.add(other.scale(-1))

    def shift(self, c: Coeff) -> LinTerm:
        return LinTerm(self.coeffs, self.const + c)

    def drop_var(self, var: str) -> LinTerm:
        return LinTerm.make({v: c for v, c in self.coeffs if v != var}, self.const)

    def subst(self, env: Mapping[str, LinTerm]) -> LinTerm:
        """Replace every variable that env names by its term."""
        out = LinTerm.of_const(self.const)
        for v, c in self.coeffs:
            repl = env.get(v)
            out = out.add(repl.scale(c) if repl is not None else LinTerm(((v, c),), 0))
        return out

    def denominator_lcm(self) -> int:
        """Least k > 0 that makes every coefficient and the constant of k * self integral."""
        return lcm(self.const.denominator, *(c.denominator for _, c in self.coeffs))

    def eval(self, point: Mapping[str, int]) -> Coeff:
        return self.const + sum(c * point[v] for v, c in self.coeffs)

    def __str__(self) -> str:
        parts: list[str] = []
        for v, c in self.coeffs:
            if not parts:
                if c == 1:
                    parts.append(v)
                elif c == -1:
                    parts.append(f"-{v}")
                else:
                    parts.append(f"{c}*{v}")
            else:
                sign, mag = ("+", c) if c > 0 else ("-", -c)
                parts.append(f"{sign} {v}" if mag == 1 else f"{sign} {mag}*{v}")
        if self.const or not parts:
            if not parts:
                parts.append(str(self.const))
            else:
                sign, mag = ("+", self.const) if self.const > 0 else ("-", -self.const)
                parts.append(f"{sign} {mag}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# AST nodes


@dataclass(frozen=True)
class BoolConst:
    value: bool


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Cmp:
    """term REL 0 with REL in {<=, <, =, >=, >} (constant folded into term)."""

    term: LinTerm
    rel: str  # one of "<=", "<", "=", ">=", ">"


@dataclass(frozen=True)
class Cong:
    """term == 0 mod modulus, modulus >= 2 after normalization."""

    term: LinTerm
    modulus: int


@dataclass(frozen=True)
class Not:
    arg: Formula


@dataclass(frozen=True)
class And:
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Or:
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Exists:
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall:
    var: str
    body: Formula


Formula = Union[BoolConst, Cmp, Cong, Not, And, Or, Exists, Forall]


def free_vars(f: Formula) -> set[str]:
    if isinstance(f, BoolConst):
        return set()
    if isinstance(f, Cmp):
        return f.term.vars()
    if isinstance(f, Cong):
        return f.term.vars()
    if isinstance(f, Not):
        return free_vars(f.arg)
    if isinstance(f, (And, Or)):
        out: set[str] = set()
        for a in f.args:
            out |= free_vars(a)
        return out
    return free_vars(f.body) - {f.var}


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, (BoolConst, Cmp, Cong)):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.arg)
    if isinstance(f, (And, Or)):
        return all(is_quantifier_free(a) for a in f.args)
    return False


# ---------------------------------------------------------------------------
# parser


# also the tokens of the polynomial text of `arczeta.liftable`, which alone reads "^"
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<quant>[EA])\b|(?P<var>[a-z][a-z0-9_]*)"
    r"|(?P<op><=|>=|==|≡|[<>=&|!().+\-*^])|(?P<bad>\S))"
)

_KEYWORD_MOD = "mod"


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        for m in _TOKEN.finditer(text):
            if m.lastgroup == "bad":
                raise FormulaSyntaxError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
            kind = m.lastgroup
            self.toks.append((kind, m.group(kind), m.start(kind)))
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        if self.i < len(self.toks):
            return self.toks[self.i]
        return ("eof", "", len(self.text))

    def next(self) -> tuple[str, str, int]:
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        k, v, pos = self.peek()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise FormulaSyntaxError(f"expected {want!r}, found {v or 'end of input'!r}", pos)
        return self.next()


def _parse_linear(ts: _Tokens) -> LinTerm:
    term = _parse_product(ts)
    while True:
        k, v, _ = ts.peek()
        if k == "op" and v in "+-":
            ts.next()
            rhs = _parse_product(ts)
            term = term.add(rhs if v == "+" else rhs.scale(-1))
        else:
            return term


def _parse_product(ts: _Tokens) -> LinTerm:
    term = _parse_factor(ts)
    while True:
        k, v, pos = ts.peek()
        if k == "op" and v == "*":
            ts.next()
            rhs = _parse_factor(ts)
            if term.coeffs and rhs.coeffs:
                raise FormulaSyntaxError("nonlinear product of variables", pos)
            if rhs.coeffs:
                term, rhs = rhs, term
            term = term.scale(rhs.const)
        elif k == "var" and v != _KEYWORD_MOD and not term.coeffs:
            # juxtaposition like "2x"
            rhs = _parse_factor(ts)
            term = rhs.scale(term.const)
        else:
            return term


def _parse_factor(ts: _Tokens) -> LinTerm:
    k, v, pos = ts.peek()
    if k == "num":
        ts.next()
        return LinTerm.of_const(int(v))
    if k == "var":
        if v == _KEYWORD_MOD:
            raise FormulaSyntaxError("'mod' outside a congruence", pos)
        ts.next()
        return LinTerm.of_var(v)
    if k == "op" and v == "-":
        ts.next()
        return _parse_factor(ts).scale(-1)
    if k == "op" and v == "+":
        ts.next()
        return _parse_factor(ts)
    if k == "op" and v == "(":
        ts.next()
        term = _parse_linear(ts)
        ts.expect("op", ")")
        return term
    raise FormulaSyntaxError(f"expected a term, found {v or 'end of input'!r}", pos)


def _parse_atom(ts: _Tokens) -> Formula:
    lhs = _parse_linear(ts)
    k, v, pos = ts.peek()
    if k == "op" and v in _FLIP:
        ts.next()
        rhs = _parse_linear(ts)
        term = lhs.sub(rhs)
        # orient so that not every coefficient is negative (matches printing)
        if term.coeffs and all(c < 0 for _, c in term.coeffs):
            term = term.scale(-1)
            v = _FLIP[v]
        return Cmp(term, v)
    if k == "op" and v in ("==", "≡"):
        ts.next()
        rhs = _parse_linear(ts)
        kw = ts.expect("var")
        if kw[1] != _KEYWORD_MOD:
            raise FormulaSyntaxError("expected 'mod'", kw[2])
        _, n, npos = ts.expect("num")
        modulus = int(n)
        if modulus < 1:
            raise FormulaSyntaxError("modulus must be positive", npos)
        return _make_cong(lhs.sub(rhs), modulus)
    raise FormulaSyntaxError("expected a relation", pos)


def _parse_unary(ts: _Tokens) -> Formula:
    k, v, _ = ts.peek()
    if k == "op" and v == "!":
        ts.next()
        return Not(_parse_unary(ts))
    if k == "quant":
        return _parse_quant(ts)
    if k == "op" and v == "(":
        # could be a parenthesized formula or a parenthesized linear term;
        # try formula first, fall back to atom parsing
        save = ts.i
        ts.next()
        try:
            inner = _parse_formula(ts)
            ts.expect("op", ")")
            return inner
        except FormulaSyntaxError:
            ts.i = save
            return _parse_atom(ts)
    return _parse_atom(ts)


def _parse_quant(ts: _Tokens) -> Formula:
    _, q, _ = ts.next()
    _, var, _ = ts.expect("var")
    ts.expect("op", ".")
    body = _parse_formula(ts)
    return Exists(var, body) if q == "E" else Forall(var, body)


def _parse_conj(ts: _Tokens) -> Formula:
    args = [_parse_unary(ts)]
    while ts.peek()[:2] == ("op", "&"):
        ts.next()
        args.append(_parse_unary(ts))
    return args[0] if len(args) == 1 else And(tuple(args))


def _parse_formula(ts: _Tokens) -> Formula:
    if ts.peek()[0] == "quant":
        return _parse_quant(ts)
    args = [_parse_conj(ts)]
    while ts.peek()[:2] == ("op", "|"):
        ts.next()
        args.append(_parse_conj(ts))
    return args[0] if len(args) == 1 else Or(tuple(args))


def _expect_end(ts: _Tokens) -> None:
    k, v, pos = ts.peek()
    if k != "eof":
        raise FormulaSyntaxError(f"trailing input {v!r}", pos)


def parse_linear(text: str) -> LinTerm:
    """Parse a linear term of the formula grammar, e.g. '2*n - l + 3' or '2n'."""
    ts = _Tokens(text)
    term = _parse_linear(ts)
    _expect_end(ts)
    return term


def parse_presburger(text: str, declared: Sequence[str] | None = None) -> Formula:
    """Parse formula text; optionally check free variables against `declared`."""
    ts = _Tokens(text)
    f = _parse_formula(ts)
    _expect_end(ts)
    if declared is not None:
        extra = free_vars(f) - set(declared)
        if extra:
            raise UndeclaredVariable(f"undeclared variable(s): {', '.join(sorted(extra))}")
    return f


# ---------------------------------------------------------------------------
# printing


def _cong_str(a: Cong) -> str:
    r = (-a.term.const) % a.modulus
    return f"{LinTerm(a.term.coeffs, 0)} == {r} mod {a.modulus}"


def to_text(f: Formula, parent: str = "") -> str:
    """Render back to the surface grammar.

    parse . to_text is the identity up to AST equality, except on BoolConst,
    which prints as "0 = 0" or "0 = 1" and parses back as a Cmp.
    """
    if isinstance(f, BoolConst):
        return "0 = 0" if f.value else "0 = 1"
    if isinstance(f, Cmp):
        lhs = LinTerm(f.term.coeffs, 0)
        rhs = -f.term.const
        if f.term.coeffs and all(c < 0 for _, c in f.term.coeffs):
            return f"{lhs.scale(-1)} {_FLIP[f.rel]} {-rhs}"
        return f"{lhs} {f.rel} {rhs}"
    if isinstance(f, Cong):
        return _cong_str(f)
    if isinstance(f, Not):
        inner = to_text(f.arg, "!")
        return f"!{inner}"
    if isinstance(f, (And, Or)):
        op = " & " if isinstance(f, And) else " | "
        me = "&" if isinstance(f, And) else "|"
        body = op.join(to_text(a, me) for a in f.args)
        # "&" binds tighter than "|"; quantifier bodies scope to the end
        if parent == "!" or (parent == "&" and isinstance(f, Or)):
            return f"({body})"
        return body
    q = "E" if isinstance(f, Exists) else "A"
    return f"{q} {f.var}. {to_text(f.body, 'Q')}"


# ---------------------------------------------------------------------------
# evaluation


def membership(f: Formula, point: Mapping[str, int] | Sequence[int]) -> bool:
    """Evaluate a quantifier-free formula at an integer point.

    `point` is a mapping from variable names, or a vector matching the sorted
    free-variable list.  Raises ArityMismatch on missing/extra assignments.
    """
    if not is_quantifier_free(f):
        raise ValueError("membership requires a quantifier-free formula")
    fv = sorted(free_vars(f))
    if not isinstance(point, Mapping):
        if len(point) != len(fv):
            raise ArityMismatch(f"formula has {len(fv)} free variables, point has {len(point)}")
        point = dict(zip(fv, point))
    else:
        missing = set(fv) - set(point)
        if missing:
            raise ArityMismatch(f"missing assignment for: {', '.join(sorted(missing))}")

    def truth(a: Cmp | Cong) -> BoolConst:
        v = a.term.eval(point)
        return BoolConst(_holds(v, a.rel) if isinstance(a, Cmp) else v % a.modulus == 0)

    return _fold(f, truth).value


# ---------------------------------------------------------------------------
# simplification (keeps QE output readable; purely equivalence-preserving)


def _make_cong(term: LinTerm, modulus: int) -> Formula:
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    coeffs = {v: c % modulus for v, c in term.coeffs}
    coeffs = {v: c for v, c in coeffs.items() if c}
    const = term.const % modulus
    if not coeffs:
        return TRUE if const == 0 else FALSE
    g = gcd(*coeffs.values(), modulus)
    if const % g:
        return FALSE  # the left side only takes multiples of g mod modulus
    if g > 1:
        coeffs = {v: c // g for v, c in coeffs.items()}
        const //= g
        modulus //= g
    if modulus == 1:
        return TRUE
    return Cong(LinTerm.make(coeffs, const), modulus)


def _make_cmp(term: LinTerm, rel: str) -> Formula:
    if not term.coeffs:
        return BoolConst(_holds(term.const, rel))
    if rel == "=":
        g = gcd(*(abs(c) for _, c in term.coeffs))
        if term.const % g:
            return FALSE
        return Cmp(LinTerm.make({v: c // g for v, c in term.coeffs}, term.const // g), "=")
    # an inequality is one t <= 0; tighten it by the coefficient gcd
    ((t,),) = _le_forms(term, rel)
    g = gcd(*(abs(c) for _, c in t.coeffs))
    if g > 1:
        # sum(g b_i x_i) <= -c  =>  sum(b_i x_i) <= floor(-c/g)
        coeffs = {v: c // g for v, c in t.coeffs}
        t = LinTerm.make(coeffs, -((-t.const) // g))
    return Cmp(t, "<=")


def _normalize_atom(a: Cmp | Cong) -> Formula:
    if isinstance(a, Cmp):
        return _make_cmp(a.term, a.rel)
    return _make_cong(a.term, a.modulus)


def simplify(f: Formula) -> Formula:
    """Flatten, constant-fold, deduplicate; result is equivalent to f."""
    return _fold(f, _normalize_atom)


def _fold(f: Formula, atom: Callable[[Cmp | Cong], Formula]) -> Formula:
    """Map every atom through `atom`, then flatten, constant-fold and
    deduplicate (first occurrence kept) and drop quantifiers whose variable
    is not free."""
    if isinstance(f, BoolConst):
        return f
    if isinstance(f, (Cmp, Cong)):
        return atom(f)
    if isinstance(f, Not):
        a = _fold(f.arg, atom)
        if isinstance(a, BoolConst):
            return BoolConst(not a.value)
        if isinstance(a, Not):
            return a.arg
        return Not(a)
    if isinstance(f, (And, Or)):
        is_and = isinstance(f, And)
        absorb, neutral = (FALSE, TRUE) if is_and else (TRUE, FALSE)
        flat: list[Formula] = []
        for a in f.args:
            a = _fold(a, atom)
            if a == absorb:
                return absorb
            if a == neutral:
                continue
            if isinstance(a, And if is_and else Or):
                flat.extend(a.args)
            else:
                flat.append(a)
        seen: list[Formula] = []
        for a in flat:
            if a not in seen:
                seen.append(a)
        if not seen:
            return neutral
        if len(seen) == 1:
            return seen[0]
        return And(tuple(seen)) if is_and else Or(tuple(seen))
    if isinstance(f, (Exists, Forall)):
        body = _fold(f.body, atom)
        if f.var not in free_vars(body):
            return body
        return type(f)(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Cooper's quantifier elimination
#
# Internal atom forms during elimination: Cmp with rel "<" only, Cong, and
# BoolConst, combined with And/Or (negation-free after NNF).


def _strictify(term: LinTerm, rel: str) -> Formula:
    """Express term REL 0 using only strict < atoms: t <= 0 as t - 1 < 0."""
    alts = [[Cmp(t.shift(-1), "<") for t in alt] for alt in _le_forms(term, rel)]
    conj = [alt[0] if len(alt) == 1 else And(tuple(alt)) for alt in alts]
    return conj[0] if len(conj) == 1 else Or(tuple(conj))


def _map_atoms(f: Formula, fn) -> Formula:
    if isinstance(f, (Cmp, Cong)):
        return fn(f)
    if isinstance(f, And):
        return And(tuple(_map_atoms(a, fn) for a in f.args))
    if isinstance(f, Or):
        return Or(tuple(_map_atoms(a, fn) for a in f.args))
    return f


def _atoms(f: Formula) -> Iterator[Formula]:
    """The atoms of a quantifier-free f, in first-occurrence order."""
    if isinstance(f, (Cmp, Cong)):
        yield f
    elif isinstance(f, Not):
        yield from _atoms(f.arg)
    elif isinstance(f, (And, Or)):
        for a in f.args:
            yield from _atoms(a)


def _eliminate_exists(var: str, body: Formula) -> Formula:
    """Cooper elimination of E var. body, body quantifier-free in NNF with
    strict < atoms only."""
    body = _nnf_strict(simplify(body))  # simplify folds constants but emits <=
    if isinstance(body, BoolConst) or var not in free_vars(body):
        return body

    # 1. uniformize |coefficient| of var to delta, then set y := delta * var
    delta = 1
    for a in _atoms(body):
        c = a.term.coeff(var)
        if c:
            delta = lcm(delta, abs(c))

    def unit(a: Formula) -> Formula:
        # scale by k = delta/|c| > 0 (a strict inequality keeps its sense, a
        # congruence its modulus times k), so var's coefficient is +-delta;
        # then write y = delta*var and keep the name
        c = a.term.coeff(var)
        if not c:
            return a
        k = delta // abs(c)
        coeffs = {v: k * cc for v, cc in a.term.coeffs}
        coeffs[var] = 1 if c > 0 else -1
        t = LinTerm.make(coeffs, k * a.term.const)
        return Cmp(t, "<") if isinstance(a, Cmp) else Cong(t, a.modulus * k)

    body = _map_atoms(body, unit)
    y = var  # y = delta*var: the added divisibility carries the semantics
    if delta > 1:
        body = And((body, Cong(LinTerm.of_var(y), delta)))

    # 2. collect lower bounds (-y + t < 0), upper bounds (y + t < 0), moduli
    lowers: list[LinTerm] = []
    uppers: list[LinTerm] = []
    bigd = 1
    for a in _atoms(body):
        c = a.term.coeff(y)
        if isinstance(a, Cong) and c:
            bigd = lcm(bigd, a.modulus)
        elif isinstance(a, Cmp) and c == -1:
            lowers.append(a.term.drop_var(y))  # y > t
        elif isinstance(a, Cmp) and c == 1:
            uppers.append(a.term.drop_var(y).scale(-1))  # y < -t

    def subst_y(g: Formula, repl: LinTerm) -> Formula:
        def fn(a: Formula) -> Formula:
            c = a.term.coeff(y)
            if not c:
                return a
            t = a.term.drop_var(y).add(repl.scale(c))
            return _make_cmp(t, "<") if isinstance(a, Cmp) else _make_cong(t, a.modulus)
        return _map_atoms(g, fn)

    def limit_version(g: Formula, low: bool) -> Formula:
        # low: y -> -infinity kills lower bounds, satisfies upper bounds
        def fn(a: Formula) -> Formula:
            c = a.term.coeff(y)
            if not c:
                return a
            if isinstance(a, Cong):
                return a  # handled by substituting j only
            return FALSE if (c == -1) == low else TRUE
        return _map_atoms(g, fn)

    disjuncts: list[Formula] = []
    # choose the side with fewer boundary terms (deterministic: lowers on tie)
    use_lowers = len(lowers) <= len(uppers)
    if use_lowers:
        minus_inf = limit_version(body, low=True)
        for j in range(1, bigd + 1):
            disjuncts.append(simplify(subst_y(minus_inf, LinTerm.of_const(j))))
            for b in lowers:
                # y := b + j  (b is the value y must exceed)
                disjuncts.append(simplify(subst_y(body, b.shift(j))))
    else:
        plus_inf = limit_version(body, low=False)
        for j in range(1, bigd + 1):
            disjuncts.append(simplify(subst_y(plus_inf, LinTerm.of_const(-j))))
            for b in uppers:
                # upper stored as -t where atom was y < -t: y := (-t) - j
                disjuncts.append(simplify(subst_y(body, b.shift(-j))))
    return simplify(Or(tuple(disjuncts)))


def eliminate_quantifiers(f: Formula) -> Formula:
    """Equivalent quantifier-free formula over Z (Cooper's algorithm)."""

    def go(g: Formula) -> Formula:
        if isinstance(g, (BoolConst, Cmp, Cong)):
            return g
        if isinstance(g, Not):
            return simplify(Not(go(g.arg)))
        if isinstance(g, And):
            return simplify(And(tuple(go(a) for a in g.args)))
        if isinstance(g, Or):
            return simplify(Or(tuple(go(a) for a in g.args)))
        if isinstance(g, Exists):
            return _eliminate_exists(g.var, _nnf_strict(go(g.body)))
        if isinstance(g, Forall):
            # A x. g  is  !E x. !g
            return simplify(Not(_eliminate_exists(g.var, _nnf_strict(go(g.body), negate=True))))
        raise TypeError(f"not a formula: {g!r}")

    return simplify(go(f))


def _nnf_strict(f: Formula, negate: bool = False) -> Formula:
    """Negation-free form of f (of !f when negate) whose comparisons are all
    strict <."""
    if isinstance(f, BoolConst):
        return BoolConst(f.value != negate)
    if isinstance(f, Cmp):
        return _strictify(f.term, _NEGATE[f.rel] if negate else f.rel)
    if isinstance(f, Cong):
        if not negate:
            return f
        return Or(tuple(_make_cong(f.term.shift(r), f.modulus) for r in range(1, f.modulus)))
    if isinstance(f, Not):
        return _nnf_strict(f.arg, not negate)
    if isinstance(f, (And, Or)):
        op = type(f) if not negate else (Or if isinstance(f, And) else And)
        return op(tuple(_nnf_strict(a, negate) for a in f.args))
    raise ValueError("quantifier encountered in quantifier-free context")
