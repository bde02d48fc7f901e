"""Brute-force counting: branch-arc images over F_q[t]/t^{n+1} and p-adic volumes.

These counters are the experimental side of the project: they know nothing
about closed-form series and obtain every number by enumerating or summing
residues.  The symbolic layer is checked against them, never the reverse.

Every counting mode runs one enumerator, `_stratum_keys`, over the arcs
w = t^ell u with units u = w_ell + ... + w_{ell+c} t^c, w_ell != 0; the modes
differ only in ell, c and whether images must lie over F_p.  The arcs of
a stratum form the digit grid F_q^* x F_q^c, one numpy axis per digit of u,
each digit a vector of d base-p coordinates.  Coefficient k of u^j depends
on u_0..u_k only, so it is an array over the first k+1 axes, built once per
digit prefix: coef_k(u^j) = sum_i u_i coef_(k-i)(u^(j-1)) by broadcasting,
with products in F_q reduced through the modulus of :class:`~arczeta.fq.Fq`.
The term w^j = t^(j*ell) u^j only needs u^j mod t^(n+1-j*ell), so every
power is truncated to those positions.  Such an arc has w_0 = 0, so x and y
vanish below t^m; only the digits of x and y at t-positions m..n and their
key, all of them packed into one int64, reach the full grid, and distinct
images are distinct keys (`_distinct`, a sort).  A wider key would need a
stratum of more than 2^30 arcs and is refused as over budget.  The worker
count follows from the work: a stratum of more than `_CHUNK_ROWS` arcs is
split into ranges of leading-digit prefixes that run on up to one thread
per CPU, and a smaller one runs inline; no caller sets it.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

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
_CHUNK_ROWS = 1 << 18


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
# the digit grid
# ---------------------------------------------------------------------------


def _units(idx: np.ndarray, h: int, c: int, fld: Fq) -> list[np.ndarray]:
    """Digit arrays of u_0, ..., u_c over a grid of units u = u_0 + ... + u_c t^c, u_0 != 0.

    Grid axis 0 runs over the prefixes numbered idx of the first h digits:
    u_0 = 1 + idx // q^(h-1), and u_1, ..., u_(h-1) are the base-q digits of
    idx mod q^(h-1), least significant first.  Axis i - h + 1 runs over all q
    values of u_i, i >= h.  Each array has shape (*grid, d), of length 1 on
    the axes its digit does not depend on.
    """
    q, p, d = fld.q, fld.p, fld.d
    rank = c + 2 - h
    lead, rest = np.divmod(idx, q ** (h - 1))
    prefix = [lead + 1, *(rest // q**i % q for i in range(h - 1))]
    codes = [v.reshape((-1,) + (1,) * (rank - 1)) for v in prefix]
    codes += [np.arange(q).reshape([q if a == axis else 1 for a in range(rank)]) for axis in range(1, rank)]
    return [v[..., None] // p ** np.arange(d) % p for v in codes]


def _images(
    units: list[np.ndarray], ell: int, n: int, m: int, coeff: dict[int, int], fld: Fq
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Digit arrays of x_t and y_t, t = 0..n, of the images (w^m, sum a_j w^j) of the arcs w = t^ell u.

    ``coeff`` maps each exponent j to the residue of a_j mod p.

    Coefficient k of u^j depends on u_0..u_k only, so it is an array over the
    grid axes of those digits: coef_k(u^j) = sum_i u_i coef_(k-i)(u^(j-1)),
    summing the terms i = 1..k, which miss an axis each, before the term
    i = 0.  Digit vectors multiply through the table of u_i * u^s, s < d,
    that the field's reduction rows give.  The term w^j = t^(j*ell) u^j needs
    only u^j mod t^(n+1-j*ell); that length falls as j grows, so every power
    on the way to j is truncated to it, and terms from j*ell > n on vanish.
    """
    p, d = fld.p, fld.d
    # a coefficient sums at most n+1 products of digit vectors, each d products of two digits
    if (n + 2) * d * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"digit sums at p = {p} do not fit a 64-bit integer")
    basis = [*np.eye(d, dtype=np.int64), *np.array(fld.reduction, dtype=np.int64)]
    table = np.array([basis[a : a + d] for a in range(d)])  # table[a, s]: digits of u^(a+s)
    mul = [np.tensordot(u, table, axes=(-1, 0)) % p for u in units]

    def coef(power: list[np.ndarray], k: int) -> np.ndarray:
        terms = [i for i in [*range(1, k + 1), 0] if i < len(mul) and k - i < len(power)]
        products = (mul[i][..., s, :] * power[k - i][..., s, None] for i in terms for s in range(d))
        return functools.reduce(np.add, products) % p

    x = [np.zeros(d, dtype=np.int64)] * (n + 1)
    y = list(x)
    power, e = units, 1
    for target in sorted({m, *coeff}):
        L = n + 1 - target * ell
        if L <= 0:
            break
        while e < target:
            power = [coef(power, k) for k in range(min(L, len(power) + len(mul) - 1))]
            e += 1
        for t, v in enumerate(power[:L], target * ell):
            if target == m:
                x[t] = v
            if coeff.get(target):
                y[t] = y[t] + coeff[target] * v
    return x, [v % p for v in y]


# ---------------------------------------------------------------------------
# image keys
# ---------------------------------------------------------------------------


def _pack(digits: Iterable[np.ndarray], p: int) -> np.ndarray:
    """The int64 keys sum digit_i p^(W-1-i) of W broadcast base-p digit arrays; p^W <= 2^63."""
    return functools.reduce(lambda key, digit: key * p + digit, digits, np.zeros((), dtype=np.int64))


def _distinct(parts: list[np.ndarray]) -> np.ndarray:
    """Distinct keys of the key arrays, in sorted order (a sort and a neighbour compare)."""
    keys = np.sort(np.concatenate([np.ravel(v) for v in parts]))
    fresh = np.ones(keys.shape, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return keys[fresh]


def _stratum_keys(
    b: BranchSpec,
    coeff: dict[int, int],
    fld: Fq,
    n: int,
    ell: int,
    c: int,
    budget: int,
    rational: bool = False,
) -> np.ndarray:
    """Distinct image keys of the arcs t^ell (w_ell + ... + w_{ell+c} t^c), w_ell != 0.

    Such an arc has w_0 = 0, so x and y vanish below t^m: a key packs the
    base-p digits of x and y at t-positions m..n into one int64.  With
    ``rational`` only images whose digits all lie in F_p are kept, keyed by
    their F_p digits.  ``coeff`` holds the residues a_j mod p.  Digits
    w_(ell+k) with k > n - ell*m never reach the image, so the keys have
    length 1 on their axes: arcs that differ only there share one key.

    A grid of more than `_CHUNK_ROWS` units is cut into the fewest equal
    ranges of leading-digit prefixes whose grids hold at most `_CHUNK_ROWS`;
    each range is one job that returns its distinct keys, and one
    `_distinct` merges the jobs.  The jobs run on min(chunks, CPU count)
    threads, inline when that is one: numpy releases the interpreter lock in
    the array work, and each extra worker holds one more chunk's arrays.
    """
    q, p = fld.q, fld.p
    total = (q - 1) * q**c
    if total > budget:
        raise BudgetExceeded(f"stratum ell={ell} needs {total} arcs > budget {budget}")
    width = 2 * max(0, n + 1 - b.m) * (1 if rational else fld.d)
    if p**width > 2**63:
        raise BudgetExceeded(f"image keys of {width} base-{p} digits do not fit one int64 word")
    h = next(h for h in range(1, c + 2) if q ** (c + 1 - h) <= _CHUNK_ROWS)
    prefixes = (q - 1) * q ** (h - 1)
    chunks = -(-prefixes // (_CHUNK_ROWS // q ** (c + 1 - h)))
    bounds = [k * prefixes // chunks for k in range(chunks + 1)]

    def keys(lo: int, hi: int) -> np.ndarray:
        x, y = _images(_units(np.arange(lo, hi), h, c, fld), ell, n, b.m, coeff, fld)
        digits = [v for t in range(b.m, n + 1) for v in (x[t], y[t])]
        if rational:
            keep = functools.reduce(np.logical_and, [(v[..., 1:] == 0).all(-1) for v in digits], True)
            digits = [v[..., :1] for v in digits]
        key = _pack((v[..., e] for v in digits for e in range(v.shape[-1])), p)
        return _distinct([key[keep] if rational else key])

    workers = min(chunks, os.cpu_count() or 1)
    if workers == 1:
        parts = list(map(keys, bounds, bounds[1:]))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(keys, bounds, bounds[1:]))
    return parts[0] if chunks == 1 else _distinct(parts)


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
    out: dict[int, int] = {}
    for ell in range(1, n // b.m + 1):
        if b.m == 1:
            # x = w recovers the arc, so the stratum maps injectively
            out[ell] = (fld.q - 1) * fld.q ** (n - ell)
        else:
            out[ell] = len(_stratum_keys(b, coeff, fld, n, ell, n - ell * b.m, budget))
    return out


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
    zero = np.zeros(1, dtype=np.int64)
    strata = [_stratum_keys(b, coeff, fld, n, ell, n - ell, budget) for ell in range(1, n + 1)]
    return len(_distinct([zero, *strata]))


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
    total = 1  # zero arc
    for ell in range(1, n // b.m + 1):
        c = n - ell * b.m
        keys = [_stratum_keys(b, coeff, Fq(p, d), n, ell, c, budget, rational=True) for d in range(1, b.m + 1)]
        total += len(_distinct(keys))
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
