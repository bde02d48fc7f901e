"""Brute-force counting: branch-arc images over F_q[t]/t^{n+1} and p-adic volumes.

These counters are the experimental side of the project: they know nothing
about closed-form series and obtain every number by enumerating or summing
residues.  The symbolic layer is checked against them, never the reverse.

Every counting mode runs one enumerator, `arczeta.grid._stratum_keys`, over
the arcs w = t^ell u with units u = w_ell + ... + w_{ell+c} t^c, w_ell != 0;
the modes differ only in ell, c and whether images must lie over F_p.  The
enumerator evaluates a stratum on its digit grid with numpy and returns its
distinct image keys; this module imports `arczeta.grid` only in the entry
points that enumerate, so a process that never counts arcs (a closed form,
an Igusa series, a Presburger sum) never loads numpy.  `measure_ord_locus`
and `igusa_monomial` work on plain ints and series.

Image counts at n = 0..n_max come from one enumeration per stratum, at
n_max (`_level_counts`): the image mod t^(n+1) is the truncation of the
image mod t^(n_max+1), and a key holds the digits of y and of x keyed by
its leading digit (x_t / x_(ell*m) past t^(ell*m), see `arczeta.grid`) at
t-positions m..n_max, most significant first.  Each digit at t reads the
image at positions <= t only, so truncating to level n is dividing the key
by p^(2d(n_max - n)).  The division keeps sorted keys sorted, and a
level's count is the number of distinct quotients.  Only the
geometric count enumerates each level apart, because its filter, images
over F_p, reads every digit up to the level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .branch import BranchSpec
from .fq import Fq, residue
from .ratseries import RatSeries, _series, rs_mul

__all__ = [
    "BadPrime",
    "BudgetExceeded",
    "CountRow",
    "CountReport",
    "DEFAULT_BUDGET",
    "count_branch_image",
    "count_branch_strata",
    "count_branch_report",
    "count_branch_image_geometric",
    "measure_ord_locus",
    "igusa_monomial",
]

DEFAULT_BUDGET = 4_000_000


class BadPrime(ValueError):
    """p divides the denominator of a branch coefficient."""


class BudgetExceeded(RuntimeError):
    """The requested enumeration or search is larger than the configured budget."""


@dataclass(frozen=True)
class CountRow:
    n: int
    count: int
    method: str  # exhaustive | truncated-window | hensel-certified | stabilized-uncertified
    seconds: float


@dataclass
class CountReport:
    name: str
    p: int
    d: int
    rows: list[CountRow] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "p": self.p,
            "d": self.d,
            "rows": [[r.n, r.count, r.method, r.seconds] for r in self.rows],
            "assumptions": list(self.assumptions),
        }

    def to_csv(self) -> str:
        lines = ["n,count,method,seconds"]
        for r in self.rows:
            lines.append(f"{r.n},{r.count},{r.method},{r.seconds:.3f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# image counting
# ---------------------------------------------------------------------------


def _checked(b: BranchSpec, p: int, d: int, n: int) -> tuple[Fq, dict[int, int]]:
    """F_{p^d} and the residues a_j mod p, after the entry checks every counter shares.

    The checks: p prime, n >= 0, and p dividing no denominator of an a_j.
    """
    fld = Fq(p, d)
    coeff = {j: residue(a, p) for j, a in b.coeffs.items()}
    for j, a in coeff.items():
        if a is None:
            raise BadPrime(f"p = {p} divides the denominator of a_{j} = {b.coeffs[j]}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return fld, coeff


def _level_counts(
    b: BranchSpec, coeff: dict[int, int], fld: Fq, n_max: int, window: bool, budget: int
) -> tuple[list[int], list[dict[int, int]]]:
    """Image counts at every level n = 0..n_max, each stratum enumerated once, at n_max.

    Returns the count at each level and, in window mode, each level's count
    per contact order ell <= n/m (exhaustive mode merges the strata, so its
    rows are empty).  A key holds, at each t-position m..n_max, the digits
    of x keyed by its leading digit and of y, each read off the image at
    positions <= t, so a level-n key is the top-level key divided by
    p^(2d(n_max - n)), or by p^width, giving 0, below m; a level's count is
    the number of distinct quotients.  Window mode adds to the zero arc's
    image the quotients of each stratum ell <= n/m, and drops a stratum's
    keys once its levels are read; exhaustive mode merges the keys of all
    q^(n_max) arcs with w_0 = 0 and the zero key once.  The top level is
    checked against the budget and the key width before any stratum is
    enumerated.
    """
    q, m, levels = fld.q, b.m, range(n_max + 1)
    if window and m == 1:
        # x = w recovers the arc, so every stratum maps injectively
        return [q**n for n in levels], [{ell: (q - 1) * q ** (n - ell) for ell in range(1, n + 1)} for n in levels]
    from . import grid

    top = max(0, n_max + 1 - m)  # t-positions in a top-level key
    drop = [2 * fld.d * (top - max(0, n + 1 - m)) for n in levels]  # base-p digits a level-n key lacks
    step = m if window else 1  # the unit of stratum ell has n_max - ell*step digits after its first
    ells = range(1, n_max // step + 1)

    def keys(ell: int):
        return grid._stratum_keys(b, coeff, fld, n_max, ell, n_max - ell * step, budget)

    if not window and q**n_max > budget:
        raise BudgetExceeded(f"exhaustive enumeration needs {q}^{n_max} arcs > budget {budget}")
    if ells:
        grid._admit(b, fld, n_max, 1, n_max - step, budget)  # stratum ell = 1 is the largest
    strata: list[dict[int, int]] = [{} for _ in levels]
    if window:
        for ell in ells:
            for n, count in enumerate(grid._quotient_counts(keys(ell), fld.p, drop[ell * m :]), ell * m):
                strata[n][ell] = count
        return [1 + sum(row.values()) for row in strata], strata
    zero = grid._pack([], fld.p)  # the zero arc's image: every digit 0, the key 0
    return grid._quotient_counts(grid._distinct([zero, *map(keys, ells)]), fld.p, drop), strata


def count_branch_image(
    b: BranchSpec,
    p: int,
    d: int,
    n: int,
    window: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Number of distinct origin-centred pairs (w^m, sum a_j w^j) in (F_q[t]/t^{n+1})^2.

    In a field x_0 = w_0^m vanishes exactly when w_0 = 0, so the centred
    images are those of the q^n arcs with w_0 = 0.  Exhaustive mode
    enumerates all of them, contact order ell = 1..n in turn, plus the zero
    arc, and merges their images by key; window mode enumerates each contact
    order ell <= n/m only over the coefficients w_ell .. w_{ell+c},
    c = n - ell*m, which provably determine the truncated image, sums the
    strata and adds the zero arc.  This is the top row of
    `count_branch_report` at n_max = n.
    """
    fld, coeff = _checked(b, p, d, n)
    return _level_counts(b, coeff, fld, n, window, budget)[0][-1]


def count_branch_strata(
    b: BranchSpec,
    p: int,
    d: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> dict[int, int]:
    """Distinct image count per contact order ell = ord_t(w), 1 <= ell <= n/m.

    Strata are disjoint (the image determines ell through ord x = ell*m) and
    together with the zero arc exhaust the image.
    """
    fld, coeff = _checked(b, p, d, n)
    return _level_counts(b, coeff, fld, n, True, budget)[1][-1]


def count_branch_report(
    b: BranchSpec,
    p: int,
    d: int,
    n_max: int,
    window: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> CountReport:
    """`count_branch_image` at every n = 0..n_max, from one enumeration of each stratum at n_max.

    The image of an arc mod t^(n+1) is the truncation of its image mod
    t^(n_max+1), and a key holds the digits of y and of x keyed by its
    leading digit at t-positions m..n_max, most significant first, each read
    off the image at positions <= t: the key of the truncation to level n
    is the top-level key divided by p^(2d(n_max - n)).  So every lower
    level is read off the top level's sorted keys by that division, and a
    report over budget at its top level raises before it enumerates
    anything.  The enumeration is timed as a whole: the top row's
    ``seconds`` carries it and the lower rows read 0.
    """
    fld, coeff = _checked(b, p, d, n_max)
    report = CountReport(name="branch-image", p=p, d=d)
    if b.m == 1 and window:
        report.assumptions.append(
            "m=1 strata counted without enumeration: x = w makes the parametrization injective"
        )
    t0 = time.perf_counter()
    counts, _ = _level_counts(b, coeff, fld, n_max, window, budget)
    seconds = time.perf_counter() - t0
    method = "truncated-window" if window else "exhaustive"
    report.rows = [CountRow(n, c, method, seconds if n == n_max else 0.0) for n, c in enumerate(counts)]
    return report


def count_branch_image_geometric(
    b: BranchSpec,
    p: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Images with both coordinates in F_p[t]/t^{n+1}, w ranging over all F_{p^d}, d <= m.

    The degree bound d <= m is a heuristic (each image point's parameter w
    satisfies w^m = x over F_p((t)) up to truncation); callers should label
    results accordingly.
    """
    fld, coeff = _checked(b, p, 1, n)
    if b.m == 1:
        # x = w, so an image over F_p comes from an arc over F_p
        return p**n
    from . import grid

    total = 1  # zero arc
    for ell in range(1, n // b.m + 1):
        c = n - ell * b.m
        keys = [grid._stratum_keys(b, coeff, Fq(p, d), n, ell, c, budget, rational=True) for d in range(1, b.m + 1)]
        total += len(grid._distinct(keys))
    return total


# ---------------------------------------------------------------------------
# monomial order loci
# ---------------------------------------------------------------------------


def measure_ord_locus(exponents: Sequence[int], p: int, n: int) -> Fraction:
    """Exact Haar volume of {x in Z_p^m : ord(x_1^{k_1} ... x_m^{k_m}) = n}.

    Counts residues mod p^{n+1}: the order of the monomial only depends on the
    per-coordinate orders, which a residue determines whenever they are <= n,
    and coordinates with order > n overshoot the target.  The residue count per
    coordinate-order vector (v_i) is prod (p-1) p^{n-v_i}.
    """
    ks = [int(k) for k in exponents]
    if any(k < 1 for k in ks):
        raise ValueError("monomial exponents must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    # DP over coordinates: residue-count generating polynomial in s^(k_i * v_i)
    acc = {0: 1}
    for k in ks:
        nxt: dict[int, int] = {}
        for r, ways in acc.items():
            for v in range(0, (n - r) // k + 1):
                nxt[r + k * v] = nxt.get(r + k * v, 0) + ways * (p - 1) * p ** (n - v)
        acc = nxt
    count = acc.get(n, 0)
    return Fraction(count, p ** (len(ks) * (n + 1)))


def igusa_monomial(exponents: Sequence[int]) -> RatSeries:
    """The series prod_i (1 - L^{-1}) / (1 - L^{-1} T^{k_i})."""
    ks = [int(k) for k in exponents]
    if not ks or any(k < 1 for k in ks):
        raise ValueError("monomial exponents must be >= 1")
    out = RatSeries.one()
    unit = _series({(0, 0): 1, (0, -1): -1}, 1, (), ())  # 1 - L^-1
    for k in ks:
        out = rs_mul(out, rs_mul(RatSeries.geometric(-1, k), unit))
    return out
