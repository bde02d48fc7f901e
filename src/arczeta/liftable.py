"""Certified counting of liftable residues of polynomial systems over Z/p^{n+1}.

``count_liftable`` counts residues a mod p^{n+1} with f(a) = 0 mod p^{n+1}
(and reducing into the locus W mod p) that admit a lift solving f modulo
p^{n+1+maxDepth}, maxDepth being ``default_depth(n)`` unless given.  Text is
read by `IntPoly.parse` on the tokenizer of `arczeta.presburger` (malformed
text is a positioned `FormulaSyntaxError`), and `IntPoly.widen` brings the
system to one width.  The search subdivides Z_p^m into cells b + p^S Z^m and
decides whole cells at once:

* Over a cell, f_i equals f_i(b) modulo p^H where H is the minimal p-order of
  the scaled Hasse-derivative jets  jet_a = D^[a]f_i(b) * p^{S|a|}, a != 0.
  If some f_i(b) has order F0 < H, every point of the cell has order exactly
  F0 -- the cell is dead past level F0 and all residues inside are excluded
  with proof.  If min(F0, H) >= K = n+1+maxDepth, every point of the cell
  solves f mod p^K and all residues inside are counted.
* Otherwise F0 >= H and H < K, and the cell splits into p^m children
  b + p^S v at scale S+1.  A child where some f_i has order exactly H is dead
  outright, because child jets always gain at least one order per scale
  (D^[a]f(b+u) expands in parent jets of index >= a, each scaled by p^{|a|}
  more); so the child threshold min(H+1, K) is always H+1.  Every Taylor term
  f_i(b) and jet_a * v^a has order >= H, so f_i(b + p^S v) / p^H mod p is a
  polynomial over F_p in v with coefficients f_i(b) / p^H and jet_a / p^H
  mod p: one product with the table of monomials v^a mod p decides all p^m
  children at once.  The surviving offsets v depend on nothing but that
  coefficient vector, and few distinct vectors occur in one count (3 over
  the 113 branching cells of x^2 - y^3 at p = 7, n = 5), so each vector is
  evaluated once and looked up after that.  The first evaluation builds the
  tables, the only use of numpy in this module, and imports it then.

Certificates upgrade counted residues to proven members of the projection of
the exact solution set: an exact integer zero, or Hensel's criterion on a
maximal minor of the Jacobian (order v): if ord f(b) > 2v and
ord f(b) - v >= n+1, Newton iteration converges to a true zero agreeing with
b mod p^{n+1}.  A run is certified when every counted residue carries a
certificate; exclusions are always proof-backed.

Cell certificate.  A system of one equation f also certifies a whole
branching cell b + p^S Z_p^m with S <= n: when H < 2S and H - S <= maxDepth,
the cell holds exactly p^{(m-1)(n+1-S)} residues mod p^{n+1} of Z_p-points
of f = 0, and the same residues are the ones the descent below it would
count and certify, so it is counted without descent.  This is Hensel's lemma
on a ball (Denef, Invent. Math. 77, 1984; Igusa, An Introduction to the
Theory of Local Zeta Functions, 2000).  Proof.  Jets with |a| >= 2 have
scaled order >= 2S > H, so H = S + v with v = min_j ord d_j f(b) < S,
attained at a pivot coordinate k.  Write x = b + p^S y, N = n+1-S, and
v <= maxDepth as K - v >= n+1 (which with v < S <= n also gives K > 2v).

* On the cell d_j f(x) = d_j f(b) mod p^S, so (i) d_k f has order exactly v,
  (ii) every d_j f has order >= v, and (iii) f(x) = f(b) mod p^{S+v} has
  order >= S+v, as a branching cell has ord f(b) = F0 >= H = S+v.  (In jet
  form: every jet term of d_k f past d_k f(b) is > v, of d_j f >= v, and of
  f with a_k = 0 >= S+v; beyond the first order these hold because v < S.)
* Fix the other coordinates y' and let h(t) = f(x) at y_k = t.  By (i)
  h'(s) = p^S d_k f has order S+v, and the Taylor terms h^[i](s) (t-s)^i,
  i >= 2, carry p^{iS}, so ord(h(t) - h(s)) = S+v + ord(t-s) for all s, t
  in Z_p.  By (iii) h maps Z_p into p^{S+v}Z_p, so t -> h(t) mod p^{S+v+r}
  is injective, hence bijective, from Z/p^r onto p^{S+v}Z/p^{S+v+r} for
  every r: h has exactly one zero t*(y') in Z_p.
* If y'_1 = y'_2 mod p^N, then by (ii) f at (y'_2, t*(y'_1)) has order
  >= S+v+N (first-order terms p^S d_j f * p^N, higher ones >= 2S+2N), so
  t*(y'_1) = t*(y'_2) mod p^N: the zeros meet exactly p^{(m-1)N} residues.
* A point of the cell with ord f(x) >= K lies within p^{K-v}, a fortiori
  p^{n+1}, of the zero on its line, so exactly these residues hold a
  solution mod p^K.  The tree would certify each: its Hensel test at any
  single cell below sees gradient order v and, wherever f stabilizes,
  F0 >= K > 2v and F0 - v >= n+1; and no cell below at S' <= n stabilizes
  in bulk, since its horizon is at most S'+v < K.

Systems of two or more equations keep the descent.

Two shortcuts keep the per-node work small without changing any count or
certificate:

* Owner prune.  Once S >= n+1 every point of a cell, and of every cell below
  it, is b mod p^{n+1}: its owner.  A cell whose owner is already certified
  is popped (and charged as a node) but not evaluated, since nothing below it
  can change the count or the certificates.
* Hensel by one minor order.  With F0 = ord f(b) finite, the criterion
  reads v <= vmax = min((F0-1)//2, F0-n-1), v the minimal p-order of the
  maximal minors, which is the order of their gcd.  v is read once per
  node, and not at all when every level open there has vmax < 0.  The
  minors' entries are the first-order jets, which the horizon H then reuses,
  so each Hasse derivative is evaluated at most once per node.

One walk for every level.  ``count_liftable(..., n)`` counts the levels
0..n in one walk and returns the lower ones in ``below``.  A stack entry
carries the levels still open at its cell.  The cell's f_i(b), F0, minor
order and horizon do not depend on the level, so each is evaluated at most
once, and so are its children, which depend on nothing but b, S, the f_i(b),
H and the jets.  What does depend on the level is kept per level: the owner
prune and the owners, vmax, K = n+1+maxDepth(n), the cell certificate
S <= n, the bulk counts and the node charge with its budget check.  A child
carries only the levels that branched at its parent.  Proof that each level
gets exactly the count, certificate and node charge of a walk of that level
alone: restricted to the entries carrying n, the stack is at every step the
stack of that walk.  By induction, the top entry carrying n is the one that
walk pops next, since only entries carrying n push entries carrying n, and
they push them on top, the same children in the same order.  So the cells
carrying n are exactly those of its own walk (a subtree of the union tree,
closed under parents), and level n meets them in the same order, with the
same owners already decided at each.  The call raises when any of its levels
exceeds the node budget.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Sequence

from .counting import BudgetExceeded
from .fq import is_prime
from .presburger import FormulaSyntaxError, _expect_end, _Tokens

__all__ = ["IntPoly", "LiftResult", "count_liftable", "default_depth", "DEFAULT_NODE_BUDGET", "DEPTH_POLICY"]

DEFAULT_NODE_BUDGET = 10_000_000
_INF = math.inf


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPoly:
    """Polynomial over Z in variables x1..x{nvars}, sparse exponent-vector form."""

    nvars: int
    terms: tuple[tuple[tuple[int, ...], int], ...]  # sorted ((e1..em), coeff), coeff != 0

    @classmethod
    def make(cls, nvars: int, terms: Mapping[tuple[int, ...], int]) -> IntPoly:
        clean = {tuple(e): int(c) for e, c in terms.items() if c}
        for e in clean:
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e} for {nvars} variables")
        return cls(nvars, tuple(sorted(clean.items())))

    @classmethod
    def parse(cls, text: str) -> IntPoly:
        """Read polynomial text with the tokenizer of the formula grammar:
        expr := term (("+" | "-") term)*;  term := factor ("*" factor)*;
        factor := "-" factor | atom ("^" INT)?;  atom := INT | VAR | "(" expr ")",
        VAR one of x1, x2, ... or the aliases x, y, z, w of x1..x4.  ``nvars`` is
        the highest index named (1 when none is), even in terms that cancel.
        Malformed text raises `FormulaSyntaxError` with its position.
        """
        ts = _Tokens(text)
        nvars = max([_variable(v, pos) for kind, v, pos in ts.toks if kind == "var"] + [1])
        terms = _sum(ts, nvars)
        _expect_end(ts)
        return cls.make(nvars, terms)

    def widen(self, nvars: int) -> IntPoly:
        """The same polynomial in nvars >= self.nvars variables, the added ones absent."""
        if nvars < self.nvars:
            raise ValueError(f"cannot narrow a polynomial in {self.nvars} variables to {nvars}")
        pad = (0,) * (nvars - self.nvars)
        return IntPoly(nvars, tuple((e + pad, c) for e, c in self.terms))

    def eval(self, point: Sequence[int]) -> int:
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = 0
        for expo, coeff in self.terms:
            v = coeff
            for x, e in zip(point, expo):
                if e:
                    v *= x**e
            total += v
        return total

    def hasse_deriv(self, alpha: Sequence[int]) -> IntPoly:
        """Divided-power derivative: D^[alpha] x^e = C(e, alpha) x^{e-alpha}."""
        out: dict[tuple[int, ...], int] = {}
        for expo, coeff in self.terms:
            if any(a > e for a, e in zip(alpha, expo)):
                continue
            c = coeff
            for a, e in zip(alpha, expo):
                c *= comb(e, a)
            key = tuple(e - a for a, e in zip(alpha, expo))
            out[key] = out.get(key, 0) + c
        return IntPoly.make(self.nvars, out)

    def max_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.nvars
        return tuple(max(e[i] for e, _ in self.terms) for i in range(self.nvars))

    def is_zero(self) -> bool:
        return not self.terms


_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}


def _variable(name: str, pos: int) -> int:
    """Index of a variable token: x1, x2, ... or an alias."""
    if name in _ALIASES:
        return _ALIASES[name]
    if name[0] == "x" and name[1:].isdigit():
        if int(name[1:]) < 1:
            raise FormulaSyntaxError("variables are numbered from x1", pos)
        return int(name[1:])
    raise FormulaSyntaxError(f"unknown variable {name!r}", pos)


def _mul(a: Counter, b: Counter) -> Counter:
    out: Counter = Counter()
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[tuple([x + y for x, y in zip(ea, eb)])] += ca * cb
    return out


def _sum(ts: _Tokens, nvars: int) -> Counter:
    acc = _product(ts, nvars)
    while ts.peek()[0] == "op" and ts.peek()[1] in ("+", "-"):
        (acc.update if ts.next()[1] == "+" else acc.subtract)(_product(ts, nvars))
    return acc


def _product(ts: _Tokens, nvars: int) -> Counter:
    acc = _factor(ts, nvars)
    while ts.peek()[:2] == ("op", "*"):
        ts.next()
        acc = _mul(acc, _factor(ts, nvars))
    return acc


def _factor(ts: _Tokens, nvars: int) -> Counter:
    if ts.peek()[:2] == ("op", "-"):
        ts.next()
        return Counter({e: -c for e, c in _factor(ts, nvars).items()})
    kind, value, pos = ts.next()
    if kind == "num":
        base = Counter({(0,) * nvars: int(value)})
    elif kind == "var":
        i = _variable(value, pos) - 1
        base = Counter({(0,) * i + (1,) + (0,) * (nvars - 1 - i): 1})
    elif (kind, value) == ("op", "("):
        base = _sum(ts, nvars)
        ts.expect("op", ")")
    else:
        raise FormulaSyntaxError(f"expected a term, found {value or 'end of input'!r}", pos)
    if ts.peek()[:2] != ("op", "^"):
        return base
    ts.next()
    e = int(ts.expect("num")[1])
    power = Counter({(0,) * nvars: 1})
    while e:  # by squaring
        if e & 1:
            power = _mul(power, base)
        e >>= 1
        if e:
            base = _mul(base, base)
    return power


# ---------------------------------------------------------------------------
# modular helpers
# ---------------------------------------------------------------------------


def _ordp(value: int, p: int) -> float | int:
    if value % p:
        return 0
    if value == 0:
        return _INF
    k = 0
    while value % p == 0:
        value //= p
        k += 1
    return k


# a polynomial as ((coeff, ((variable, exponent), ...)), ...), zero exponents left out
_Sparse = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def _sparse(poly: IntPoly) -> _Sparse:
    return tuple(
        (coeff, tuple((i, e) for i, e in enumerate(expo) if e)) for expo, coeff in poly.terms
    )


def _eval(form: _Sparse, point: Sequence[int]) -> int:
    total = 0
    for coeff, factors in form:
        for i, e in factors:
            coeff *= point[i] ** e
        total += coeff
    return total


# ---------------------------------------------------------------------------
# the cell tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftResult:
    count: int
    certified: bool
    nodes: int
    below: tuple[LiftResult, ...] = ()  # the levels 0..n-1 of the same walk

    @property
    def method(self) -> str:
        return "hensel-certified" if self.certified else "stabilized-uncertified"


class _System:
    def __init__(self, polys: list[IntPoly], p: int, nvars: int):
        self.p = p
        self.nvars = nvars
        self.forms = [_sparse(poly) for poly in polys]
        # nonzero Hasse derivatives D^[a]f_i, a != 0, grouped by f_i with the
        # first-order ones (the gradient) leading, as (column of v^a in the
        # monomial table, |a|, sparse form of D^[a]f_i)
        columns: dict[tuple[int, ...], int] = {}
        self.jets: list[list[tuple[int, int, _Sparse]]] = []
        # the variable of each first-order jet of f_i: its Jacobian column
        self.gradient_vars: list[list[int]] = []
        for poly in polys:
            group = []
            for alpha in itertools.product(*(range(e + 1) for e in poly.max_exponents())):
                if sum(alpha) == 0:
                    continue
                dp = poly.hasse_deriv(alpha)
                if not dp.is_zero():
                    col = columns.setdefault(alpha, len(columns) + 1)
                    group.append((sum(alpha), alpha, col, _sparse(dp)))
            group.sort(key=lambda jet: jet[0])
            self.jets.append([(col, weight, form) for weight, _, col, form in group])
            self.gradient_vars.append([alpha.index(1) for weight, alpha, _, _ in group if weight == 1])
        # column sets of the maximal minors of the Jacobian; Hensel's test runs for r <= 3 polys
        r = len(polys)
        self.minors = list(itertools.combinations(range(nvars), r)) if r <= 3 else []
        # a row of the child test sums len(columns) + 1 products of residues mod p
        if (len(columns) + 1) * (p - 1) ** 2 >= 1 << 63:
            raise ValueError(f"{len(columns)} jets at p = {p} overflow the int64 child test")
        self.columns = columns
        # the surviving child offsets v of each coefficient vector mod p seen so far
        self.survivors: dict[tuple[int, ...], list[list[int]]] = {}

    @functools.cached_property
    def tables(self) -> tuple:
        """The p^m child offsets v and the monomials v^a mod p of each (column 0 is v^0 = 1), as
        int64 arrays; built on the first coefficient vector the child test has not seen."""
        import numpy as np

        p = self.p
        offsets = np.array(list(itertools.product(range(p), repeat=self.nvars)), dtype=np.int64)
        monomials = np.ones((len(offsets), len(self.columns) + 1), dtype=np.int64)
        for alpha, col in self.columns.items():
            for i, e in enumerate(alpha):
                powers = np.array([pow(x, e, p) for x in range(p)], dtype=np.int64)
                monomials[:, col] = monomials[:, col] * powers[offsets[:, i]] % p
        return offsets, monomials

    def values(self, b: tuple[int, ...]) -> list[int]:
        return [_eval(form, b) for form in self.forms]

    def hensel(self, b: tuple[int, ...]) -> tuple[float | int, list[list[int]] | None]:
        """v = the minimal p-order of the maximal minors of the Jacobian at b (inf with none to test).

        Hensel's criterion at a level n holds when F0 > 2v and F0 - v >= n+1,
        F0 the minimal order of the f_i(b).  Also returns the Jacobian rows,
        the first-order jets by f_i in the order of ``jets`` (None when there
        are no minors to test).
        """
        if not self.minors:
            return _INF, None
        grad = [
            [_eval(form, b) for _, _, form in group[: len(cols)]]
            for group, cols in zip(self.jets, self.gradient_vars)
        ]
        if len(grad) == 1:  # the 1 x 1 minors are the gradient entries
            dets = grad[0]
        else:
            rows = [[0] * self.nvars for _ in grad]
            for row, cols, values in zip(rows, self.gradient_vars, grad):
                for j, value in zip(cols, values):
                    row[j] = value
            dets = []
            for cols in self.minors:
                sub = [[row[j] for j in cols] for row in rows]
                if len(cols) == 2:
                    dets.append(sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0])
                else:
                    dets.append(
                        sub[0][0] * (sub[1][1] * sub[2][2] - sub[1][2] * sub[2][1])
                        - sub[0][1] * (sub[1][0] * sub[2][2] - sub[1][2] * sub[2][0])
                        + sub[0][2] * (sub[1][0] * sub[2][1] - sub[1][1] * sub[2][0])
                    )
        return _ordp(math.gcd(*dets), self.p), grad  # the order of a gcd is the least order

    def horizon(
        self, b: tuple[int, ...], S: int, grad: list[list[int]] | None = None
    ) -> tuple[float | int, list[list[int]]]:
        """H = min p-order of the scaled jets D^[a]f_i(b) * p^{S|a|}, and the unscaled D^[a]f_i(b) by f_i.

        ``grad`` holds the first-order jets that ``hensel`` already evaluated at b.
        """
        p = self.p
        h: float | int = _INF
        out = []
        for i, group in enumerate(self.jets):
            row = list(grad[i]) if grad else []
            for _, _, form in group[len(row) :]:
                row.append(_eval(form, b))
            for (_, weight, _), value in zip(group, row):
                o = S * weight
                if o < h and value % p == 0:
                    o += _ordp(value, p)
                if o < h:
                    h = o
            out.append(row)
        return h, out

    def surviving_children(
        self, b: tuple[int, ...], S: int, values: list[int], H: int, jets: list[list[int]]
    ) -> list[tuple[int, ...]]:
        """Children b + p^S v of a branching cell (F0 >= H, H < K) where every f_i has order > H.

        ``values`` are the f_i(b) and ``jets`` the unscaled jets of ``horizon``.
        Every Taylor term of f_i(b + p^S v) = f_i(b) + sum_a D^[a]f_i(b) p^{S|a|} v^a
        has order >= H, so f_i(b + p^S v) / p^H mod p is the F_p polynomial in v
        with coefficients f_i(b) / p^H and D^[a]f_i(b) / p^{H - S|a|} mod p,
        the latter 0 when S|a| > H.  The surviving offsets v of each such
        coefficient vector are evaluated once and kept in ``survivors``.
        """
        p, r = self.p, len(values)
        # coefficient of v^a (column col) in f_i at position col * r + i
        coeffs = [0] * ((len(self.columns) + 1) * r)
        for i, (value, group, row) in enumerate(zip(values, self.jets, jets)):
            coeffs[i] = value // p**H % p
            for (col, weight, _), jet in zip(group, row):
                if S * weight <= H:
                    coeffs[col * r + i] = jet // p ** (H - S * weight) % p
        key = tuple(coeffs)
        survivors = self.survivors.get(key)
        if survivors is None:
            import numpy as np

            offsets, monomials = self.tables
            forms = monomials @ np.array(coeffs, dtype=np.int64).reshape(-1, r) % p
            survivors = self.survivors[key] = offsets[~forms.any(axis=1)].tolist()
        step = p**S
        return [tuple([x + step * v for x, v in zip(b, off)]) for off in survivors]


class _Level:
    """What one level n of the walk keeps apart: its K and depth, owners, bulk count and node charge."""

    __slots__ = ("n", "depth", "K", "budget", "owners", "bulk_count", "bulk_certified", "nodes")

    def __init__(self, n: int, depth: int, budget: int):
        self.n = n
        self.depth = depth
        self.K = n + 1 + depth
        self.budget = budget
        self.owners: dict[tuple[int, ...], bool] = {}
        self.bulk_count = 0
        self.bulk_certified = True
        self.nodes = 0

    def charge(self, nodes: int) -> None:
        self.nodes += nodes
        if self.nodes > self.budget:
            raise BudgetExceeded(f"cell tree exceeded budget of {self.budget} nodes")

    def result(self, below: tuple[LiftResult, ...] = ()) -> LiftResult:
        certified = self.bulk_certified and all(self.owners.values())
        return LiftResult(count=self.bulk_count + len(self.owners), certified=certified, nodes=self.nodes, below=below)


DEPTH_POLICY = "max(6, 2n)"


def default_depth(n: int) -> int:
    """Lifting depth at level n when none is given (``DEPTH_POLICY``).

    Deep enough for the tail zones of the cusp x^2 - y^3 to certify.
    """
    return max(6, 2 * n)


def count_liftable(
    f: Sequence[IntPoly | str],
    W: Sequence[IntPoly | str],
    p: int,
    n: int,
    max_depth: int | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> LiftResult:
    """Count residues mod p^{n+1} solving f, inside W mod p, liftable to depth max_depth (default ``default_depth(n)``).

    One walk of the cell tree counts every level 0..n; the result's ``below``
    holds the levels 0..n-1, each as a call at that level alone returns it.
    Each level is charged its own nodes against ``budget``, and the call
    raises if any of its levels exceeds it.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if n < 0 or (max_depth is not None and max_depth < 0):
        raise ValueError("n and max_depth must be >= 0")
    polys = [poly if isinstance(poly, IntPoly) else IntPoly.parse(poly) for poly in [*f, *W]]
    nvars = max([poly.nvars for poly in polys] + [1])
    polys = [poly.widen(nvars) for poly in polys]
    fp = polys[: len(f)]

    # _System takes prod(e_i + 1) - 1 Hasse derivatives of each equation
    derivatives = sum(math.prod(e + 1 for e in poly.max_exponents()) - 1 for poly in fp)
    if derivatives > budget:
        raise BudgetExceeded(f"{derivatives} Hasse derivatives exceed budget {budget}")
    if p**nvars > budget:
        raise BudgetExceeded(f"root enumeration p^m = {p}^{nvars} exceeds budget {budget}")
    sys = _System(fp, p, nvars)
    roots = [
        b
        for b in itertools.product(range(p), repeat=nvars)
        if all(poly.eval(b) % p == 0 for poly in polys)
    ]
    levels = tuple(_Level(k, default_depth(k) if max_depth is None else max_depth, budget) for k in range(n + 1))

    stack: list[tuple[tuple[int, ...], int, tuple[_Level, ...]]] = [(b, 1, levels) for b in roots]
    while stack:
        b, S, open_levels = stack.pop()
        # what does not depend on the level is read once, by the first level that needs it; levels
        # come by ascending n, so vmax falls and the minor order, if read, comes before the horizon
        values = v = H = None
        branching = []
        for level in open_levels:
            level.charge(1)
            single = S > level.n
            if single:
                # every point of the cell, and so of every descendant, is b mod p^{n+1}
                mod = p ** (level.n + 1)
                owner = tuple([x % mod for x in b])
                if level.owners.get(owner):
                    continue
            if values is None:
                values = sys.values(b)
                F0 = min([_ordp(value, p) for value in values], default=_INF)
                grad = None
            if single:
                if F0 == _INF:  # every f_i(b) == 0: an exact integer zero
                    level.owners[owner] = True
                    continue
                vmax = min((F0 - 1) // 2, F0 - level.n - 1)
                if vmax >= 0:
                    if v is None:
                        v, grad = sys.hensel(b)
                    if v <= vmax:
                        level.owners[owner] = True
                        continue
            if H is None:
                H, jets = sys.horizon(b, S, grad)
            if min(F0, H) >= level.K:
                if single:
                    level.owners.setdefault(owner, False)
                else:
                    level.bulk_count += p ** ((level.n + 1 - S) * nvars)
                    level.bulk_certified = level.bulk_certified and F0 == _INF and H == _INF
            elif F0 < H:
                pass  # f has order exactly F0 < K on the whole cell: dead
            elif len(fp) == 1 and S <= level.n and H < 2 * S and H - S <= level.depth:
                # a cell certificate: p^{(m-1)(n+1-S)} residues, each of a Z_p-point
                level.bulk_count += p ** ((level.n + 1 - S) * (nvars - 1))
            else:
                # branch (F0 >= H, H < K), keeping the children where every f_i has order > H
                level.charge(p**nvars)
                branching.append(level)
        if branching:
            branched = tuple(branching)
            stack.extend((child, S + 1, branched) for child in sys.surviving_children(b, S, values, H, jets))

    return levels[-1].result(tuple(level.result() for level in levels[:-1]))
