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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .branch import BranchSpec
from .fq import Fq, residue
from .ratseries import RatSeries, rs_mul, rs_scale
from .tate import TatePoly

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


def _strata(b: BranchSpec, coeff: dict[int, int], fld: Fq, n: int, budget: int) -> dict[int, int]:
    """`count_branch_strata` once the entry checks have passed."""
    if b.m == 1:
        # x = w recovers the arc, so every stratum maps injectively
        return {ell: (fld.q - 1) * fld.q ** (n - ell) for ell in range(1, n + 1)}
    from . import grid

    return {
        ell: len(grid._stratum_keys(b, coeff, fld, n, ell, n - ell * b.m, budget)) for ell in range(1, n // b.m + 1)
    }


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
    strata and adds the zero arc.
    """
    fld, coeff = _checked(b, p, d, n)
    if window:
        return 1 + sum(_strata(b, coeff, fld, n, budget).values())
    total = fld.q**n
    if total > budget:
        raise BudgetExceeded(f"exhaustive enumeration needs {total} arcs > budget {budget}")
    from . import grid

    strata = [grid._stratum_keys(b, coeff, fld, n, ell, n - ell, budget) for ell in range(1, n + 1)]
    zero = grid._pack([], p)  # the zero arc's image: every digit 0, the key 0
    return len(grid._distinct([zero, *strata]))


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
    return _strata(b, coeff, fld, n, budget)


def count_branch_report(
    b: BranchSpec,
    p: int,
    d: int,
    n_max: int,
    window: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> CountReport:
    report = CountReport(name="branch-image", p=p, d=d)
    if b.m == 1 and window:
        report.assumptions.append(
            "m=1 strata counted without enumeration: x = w makes the parametrization injective"
        )
    for n in range(n_max + 1):
        t0 = time.perf_counter()
        c = count_branch_image(b, p, d, n, window=window, budget=budget)
        report.rows.append(CountRow(n, c, "truncated-window" if window else "exhaustive", time.perf_counter() - t0))
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
        return 1 + sum(_strata(b, coeff, fld, n, budget).values())
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
    unit = TatePoly.one() - TatePoly.L(-1)
    for k in ks:
        out = rs_mul(out, rs_scale(RatSeries.geometric(-1, k), unit))
    return out
