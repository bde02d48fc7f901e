"""Brute-force counting: branch-arc images over F_q[t]/t^{n+1} and p-adic volumes.

These counters are the experimental side of the project: they know nothing
about closed-form series and obtain every number by enumerating or summing
residues.  The symbolic layer is checked against them, never the reverse.

Enumeration layout: a batch of arcs w = t^ell u over F_{p^d} is given by
its units u = w_ell + ... + w_{ell+c} t^c, a numpy array of shape
(rows, c+1, d) holding base-p coordinate digits.  Truncated series
multiplication is a (t, u)-convolution followed by reduction of the
u-powers via the fixed modulus of :class:`~arczeta.fq.Fq`.  The term
w^j = t^{j*ell} u^j only needs u^j mod t^{n+1-j*ell}, so every product is
truncated to those n+1-j*ell positions; the images (x, y) = (w^m,
sum a_j w^j) of a batch are a (rows, 2, n+1, d) digit array.

Every counting mode runs one enumerator, `_stratum_keys`, over the arcs
t^ell (w_ell + ... + w_{ell+c} t^c) with w_ell != 0; the modes differ only in
ell, c and whether images must lie over F_p.  Such an arc has w_0 = 0, so x
and y vanish below t^m, and an image is keyed by the base-p digits of x and
y at t-positions m..n, packed as many per int64 word as fit (wider keys take
several words).  Distinct images are distinct key rows (`_distinct`).
The worker count follows from the work: a stratum of more than
`_CHUNK_ROWS` arcs is split into chunks that run on up to one thread per
CPU, and a smaller one runs inline; no caller sets it.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

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
# batched arithmetic in F_q[t]/t^{n+1}
# ---------------------------------------------------------------------------


def _int_dtype(bound: int, floor: type) -> np.dtype:
    """Narrowest signed integer dtype, at least `floor`, that holds 0..bound."""
    dtype = np.promote_types(np.min_scalar_type(-bound - 1), floor)
    if dtype.kind != "i":
        raise ValueError(f"values up to {bound} do not fit a 64-bit integer")
    return dtype


def _arc_dtype(p: int) -> np.dtype:
    """Dtype of arc and power digit arrays (int16 for p <= 2^15)."""
    return _int_dtype(p - 1, np.int16)


def _series_mul(A: np.ndarray, B: np.ndarray, fld: Fq, L: int) -> np.ndarray:
    """Product of digit arrays (rows, *, d) truncated to L positions, shape (rows, L, d).

    Only the first L positions of each operand are read; shorter operands
    count as zero above their last position.
    """
    p = fld.p
    rows, _, d = A.shape
    # each entry sums at most L*d products of two digits, plus d reduction terms
    work = _int_dtype((L + 1) * d * (p - 1) ** 2, np.int32)
    acc = np.zeros((rows, L, 2 * d - 1), dtype=work)
    Aw = A[:, :L].astype(work, copy=False)
    Bw = B[:, :L].astype(work, copy=False)
    for i in range(Aw.shape[1]):
        for j in range(min(L - i, Bw.shape[1])):
            for a in range(d):
                for b in range(d):
                    acc[:, i + j, a + b] += Aw[:, i, a] * Bw[:, j, b]
    out = acc[:, :, :d]
    for k in range(d, 2 * d - 1):
        extra = acc[:, :, k] % p
        for jj, r in enumerate(fld.reduction[k - d]):
            if r:
                out[:, :, jj] += extra * r
    return (out % p).astype(_arc_dtype(p))


def _branch_images(u: np.ndarray, ell: int, n: int, b: BranchSpec, fld: Fq) -> np.ndarray:
    """Digits of the images (w^m, sum a_j w^j) of the arcs w = t^ell u, shape (rows, 2, n+1, d).

    u is a (rows, *, d) batch of units.  The term w^j = t^(j*ell) u^j needs
    only u^j mod t^(n+1-j*ell); that length falls as j grows, so every power
    on the way to j is truncated to it, and terms from j*ell > n on vanish.
    """
    p = fld.p
    coeff_mod = {j: _coeff_mod_p(b, j, p) for j in sorted(b.coeffs)}
    out = np.zeros((u.shape[0], 2, n + 1, u.shape[2]), dtype=_arc_dtype(p))
    power = u
    e = 1
    for target in sorted({b.m, *coeff_mod}):
        L = n + 1 - target * ell
        if L <= 0:
            break
        while e < target:
            power = _series_mul(power, u, fld, L)
            e += 1
        term = power[:, :L]
        at = slice(target * ell, target * ell + term.shape[1])
        if target == b.m:
            out[:, 0, at] = term
        c = coeff_mod.get(target)
        if c:
            y = out[:, 1, at] + c * term.astype(_int_dtype(p * (p - 1), np.int32))
            out[:, 1, at] = y % p
    return out


def _coeff_mod_p(b: BranchSpec, j: int, p: int) -> int:
    a = residue(b.coeffs[j], p)
    if a is None:
        raise BadPrime(f"p = {p} divides the denominator of a_{j} = {b.coeffs[j]}")
    return a


def _decode_arcs(idx: np.ndarray, c: int, fld: Fq) -> np.ndarray:
    """Digit array (rows, c+1, d) of the units u = w_ell + ... + w_{ell+c} t^c numbered idx.

    w_ell = 1 + idx // q^c is never zero; the base-q digits of idx mod q^c are
    w_{ell+1}, ..., w_{ell+c}.
    """
    q, p, d = fld.q, fld.p, fld.d
    u = np.zeros((idx.shape[0], c + 1, d), dtype=_arc_dtype(p))
    lead, rest = np.divmod(idx, q**c)
    for k, digit_q in enumerate([lead + 1] + [rest // q**i % q for i in range(c)]):
        for e in range(d):
            u[:, k, e] = digit_q // p**e % p
    return u


# ---------------------------------------------------------------------------
# image keys
# ---------------------------------------------------------------------------


def _pack(digits: np.ndarray, p: int) -> np.ndarray:
    """Pack rows of base-p digits into int64 key words, as many digits per word as fit."""
    per = 1
    while p ** (per + 1) <= 2**63:
        per += 1
    rows, width = digits.shape
    keys = np.zeros((rows, max(1, -(-width // per))), dtype=np.int64)
    for i in range(width):
        keys[:, i // per] *= p
        keys[:, i // per] += digits[:, i]
    return keys


def _distinct(parts: list[np.ndarray]) -> np.ndarray:
    """Distinct rows of the stacked (rows, words) key arrays, in sorted order."""
    keys = np.concatenate(parts)
    keys = keys[np.lexsort(keys.T[::-1])]
    fresh = np.ones(keys.shape[0], dtype=bool)
    fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return keys[fresh]


def _stratum_keys(
    b: BranchSpec,
    fld: Fq,
    n: int,
    ell: int,
    c: int,
    budget: int,
    rational: bool = False,
) -> np.ndarray:
    """Distinct image keys of the arcs t^ell (w_ell + ... + w_{ell+c} t^c), w_ell != 0.

    Such an arc has w_0 = 0, so x and y vanish below t^m: a key packs the
    base-p digits of x and y at t-positions m..n.  With ``rational`` only
    images whose digits all lie in F_p are kept, keyed by their F_p digits.

    The arcs are cut into the fewest equal chunks of at most `_CHUNK_ROWS`;
    each chunk is one job that returns its distinct keys, and one
    `_distinct` merges the jobs.  The jobs run on min(chunks, CPU count)
    threads, inline when that is one: numpy releases the interpreter lock in
    the array work, and each extra worker holds one more chunk's arrays.
    """
    total = (fld.q - 1) * fld.q**c
    if total > budget:
        raise BudgetExceeded(f"stratum ell={ell} needs {total} arcs > budget {budget}")

    def keys(lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo, hi, dtype=np.int64)
        img = _branch_images(_decode_arcs(idx, c, fld), ell, n, b, fld)[:, :, b.m :]
        if rational:
            img = img[(img[..., 1:] == 0).all(axis=(1, 2, 3))][..., :1]
        digits = img.reshape(img.shape[0], math.prod(img.shape[1:]))
        return _distinct([_pack(digits, fld.p)])

    chunks = -(-total // _CHUNK_ROWS)
    bounds = [k * total // chunks for k in range(chunks + 1)]
    workers = min(chunks, os.cpu_count() or 1)
    if workers == 1:
        return _distinct(list(map(keys, bounds, bounds[1:])))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _distinct(list(pool.map(keys, bounds, bounds[1:])))


# ---------------------------------------------------------------------------
# image counting
# ---------------------------------------------------------------------------


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
    arc; window mode enumerates each contact order ell <= n/m only over the
    coefficients w_ell .. w_{ell+c}, c = n - ell*m, which provably determine
    the truncated image, and adds the zero arc.
    """
    fld = Fq(p, d)
    for j in b.coeffs:
        _coeff_mod_p(b, j, p)
    if n < 0:
        raise ValueError("n must be >= 0")
    if window:
        return 1 + sum(count_branch_strata(b, p, d, n, budget).values())
    total = fld.q**n
    if total > budget:
        raise BudgetExceeded(f"exhaustive enumeration needs {total} arcs > budget {budget}")
    zero = _pack(np.zeros((1, 2 * max(0, n + 1 - b.m) * d), dtype=np.int64), p)
    strata = [_stratum_keys(b, fld, n, ell, n - ell, budget) for ell in range(1, n + 1)]
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
    fld = Fq(p, d)
    out: dict[int, int] = {}
    for ell in range(1, n // b.m + 1):
        if b.m == 1:
            # x = w recovers the arc, so the stratum maps injectively
            out[ell] = (fld.q - 1) * fld.q ** (n - ell)
        else:
            out[ell] = len(_stratum_keys(b, fld, n, ell, n - ell * b.m, budget))
    return out


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
    if b.m == 1:
        # x = w, so an image over F_p comes from an arc over F_p
        return count_branch_image(b, p, 1, n, budget=budget)
    total = 1  # zero arc
    for ell in range(1, n // b.m + 1):
        c = n - ell * b.m
        keys = [_stratum_keys(b, Fq(p, d), n, ell, c, budget, rational=True) for d in range(1, b.m + 1)]
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
