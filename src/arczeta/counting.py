"""Brute-force counting: branch-arc images over F_q[t]/t^{n+1} and p-adic volumes.

These counters are the experimental side of the project: they know nothing
about closed-form series and obtain every number by enumerating or summing
residues.  The symbolic layer is checked against them, never the reverse.

Enumeration layout: a batch of arcs w = w_0 + w_1 t + ... + w_n t^n over
F_{p^d} is a numpy array of shape (rows, n+1, d) holding base-p coordinate
digits.  Truncated series multiplication is a (t, u)-convolution followed by
reduction of the u-powers via the fixed modulus of :class:`~arczeta.fq.Fq`.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .branch import BranchSpec
from .fq import Fq
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

    @classmethod
    def from_json(cls, obj: dict | str) -> CountReport:
        if isinstance(obj, str):
            obj = json.loads(obj)
        rows = [CountRow(int(n), int(c), str(m), float(s)) for n, c, m, s in obj["rows"]]
        return cls(str(obj["name"]), int(obj["p"]), int(obj["d"]), rows, [str(a) for a in obj.get("assumptions", [])])

    def to_csv(self) -> str:
        lines = ["n,count,method,seconds"]
        for r in self.rows:
            lines.append(f"{r.n},{r.count},{r.method},{r.seconds:.3f}")
        return "\n".join(lines) + "\n"

    def counts(self) -> dict[int, int]:
        return {r.n: r.count for r in self.rows}


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


def _series_mul(A: np.ndarray, B: np.ndarray, p: int, reduction: np.ndarray) -> np.ndarray:
    """Truncated product of digit arrays of shape (rows, L, d)."""
    rows, L, d = A.shape
    # each entry sums at most L*d products of two digits, plus d reduction terms
    work = _int_dtype((L + 1) * d * (p - 1) ** 2, np.int32)
    acc = np.zeros((rows, L, 2 * d - 1), dtype=work)
    Aw = A.astype(work, copy=False)
    Bw = B.astype(work, copy=False)
    for i in range(L):
        for j in range(L - i):
            for a in range(d):
                for b in range(d):
                    acc[:, i + j, a + b] += Aw[:, i, a] * Bw[:, j, b]
    out = acc[:, :, :d]
    for k in range(d, 2 * d - 1):
        extra = acc[:, :, k] % p
        for jj in range(d):
            if reduction[k - d, jj]:
                out[:, :, jj] += extra * int(reduction[k - d, jj])
    return (out % p).astype(_arc_dtype(p))


def _branch_images(w: np.ndarray, b: BranchSpec, fld: Fq, reduction: np.ndarray) -> np.ndarray:
    """Image rows (x digits | y digits) for a batch of arcs, origin-centred only."""
    p = fld.p
    rows, L, d = w.shape
    coeff_mod = {j: _coeff_mod_p(b, j, p) for j in sorted(b.coeffs)}
    need = sorted({b.m, *coeff_mod})
    x = None
    y = np.zeros_like(w)
    power = w
    e = 1
    for target in need:
        while e < target:
            power = _series_mul(power, w, p, reduction)
            e += 1
        if target == b.m:
            x = power
        c = coeff_mod.get(target)
        if c:
            y = (y + c * power.astype(_int_dtype(p * (p - 1), np.int32))) % p
            y = y.astype(_arc_dtype(p))
    assert x is not None
    centred = (x[:, 0, :] == 0).all(axis=1) & (y[:, 0, :] == 0).all(axis=1)
    flat = np.concatenate([x.reshape(rows, L * d), y.reshape(rows, L * d)], axis=1).astype(_int_dtype(p - 1, np.int8))
    return flat[centred]


def _coeff_mod_p(b: BranchSpec, j: int, p: int) -> int:
    a = b.coeffs[j]
    if a.denominator % p == 0:
        raise BadPrime(f"p = {p} divides the denominator of a_{j} = {a}")
    return a.numerator * pow(a.denominator, -1, p) % p


def _decode_arcs(codes: np.ndarray, positions: Sequence[int], L: int, fld: Fq) -> np.ndarray:
    """Base-q digit expansion of arc codes into a (rows, L, d) digit array."""
    q, p, d = fld.q, fld.p, fld.d
    w = np.zeros((codes.shape[0], L, d), dtype=_arc_dtype(p))
    for k, pos in enumerate(positions):
        digit_q = (codes // q**k) % q
        for e in range(d):
            w[:, pos, e] = (digit_q // p**e) % p
    return w


def _unique_rows(parts: list[np.ndarray]) -> np.ndarray:
    stacked = np.concatenate([x for x in parts if x.shape[0]], axis=0) if any(x.shape[0] for x in parts) else None
    if stacked is None:
        return np.zeros((0, 0), dtype=np.int8)
    return np.unique(stacked, axis=0)


def _image_set(
    b: BranchSpec,
    fld: Fq,
    n: int,
    positions: Sequence[int],
    code_lo: int,
    code_hi: int,
    stride_rule,
) -> np.ndarray:
    """Unique origin-centred image rows for arc codes in [code_lo, code_hi)."""
    reduction = np.array(fld.reduction, dtype=np.int32).reshape(max(fld.d - 1, 0), fld.d) if fld.d > 1 else np.zeros((0, 1), np.int32)
    parts = []
    for lo in range(code_lo, code_hi, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, code_hi)
        codes = stride_rule(np.arange(lo, hi, dtype=np.int64))
        w = _decode_arcs(codes, positions, n + 1, fld)
        img = _branch_images(w, b, fld, reduction)
        if img.shape[0]:
            parts.append(np.unique(img, axis=0))
    return _unique_rows(parts)


def _run_partitions(tasks: list, threads: int) -> list[np.ndarray]:
    if threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda f: f(), tasks))
    return [f() for f in tasks]


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
    threads: int = 1,
) -> int:
    """Number of distinct origin-centred pairs (w^m, sum a_j w^j) in (F_q[t]/t^{n+1})^2.

    Exhaustive mode ranges w over all of F_q[t]/t^{n+1}; window mode enumerates
    each contact order ell separately over the coefficients w_ell .. w_{ell+c},
    c = max(0, n - ell*m), which provably determine the truncated image, and
    adds the zero arc.
    """
    fld = Fq(p, d)
    for j in b.coeffs:
        _coeff_mod_p(b, j, p)
    if n < 0:
        raise ValueError("n must be >= 0")
    if window:
        return 1 + sum(count_branch_strata(b, p, d, n, budget, threads).values())
    total = fld.q ** (n + 1)
    if total > budget:
        raise BudgetExceeded(f"exhaustive enumeration needs {total} arcs > budget {budget}")
    positions = list(range(n + 1))
    bounds = [(k * total) // max(threads, 1) for k in range(max(threads, 1) + 1)]
    tasks = [
        (lambda lo=lo, hi=hi: _image_set(b, fld, n, positions, lo, hi, lambda idx: idx))
        for lo, hi in zip(bounds, bounds[1:])
        if lo < hi
    ]
    return int(_unique_rows(_run_partitions(tasks, threads)).shape[0])


def count_branch_strata(
    b: BranchSpec,
    p: int,
    d: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> dict[int, int]:
    """Distinct image count per contact order ell = ord_t(w), 1 <= ell <= n/m.

    Strata are disjoint (the image determines ell through ord x = ell*m) and
    together with the zero arc exhaust the image.
    """
    fld = Fq(p, d)
    q = fld.q
    out: dict[int, int] = {}
    for ell in range(1, n // b.m + 1):
        if b.m == 1:
            # x = w recovers the arc, so the stratum maps injectively
            out[ell] = (q - 1) * q ** (n - ell)
            continue
        c = n - ell * b.m
        total = (q - 1) * q**c
        if total > budget:
            raise BudgetExceeded(f"stratum ell={ell} needs {total} arcs > budget {budget}")
        # high digit (nonzero by the stride) is w_ell, lower digits fill w_{ell+1}..
        positions = list(range(ell + c, ell - 1, -1))

        def stride(idx: np.ndarray, c=c) -> np.ndarray:
            return (idx // q**c + 1) * q**c + idx % q**c

        bounds = [(k * total) // max(threads, 1) for k in range(max(threads, 1) + 1)]
        tasks = [
            (lambda lo=lo, hi=hi, positions=tuple(positions), stride=stride: _image_set(
                b, fld, n, positions, lo, hi, stride
            ))
            for lo, hi in zip(bounds, bounds[1:])
            if lo < hi
        ]
        out[ell] = int(_unique_rows(_run_partitions(tasks, threads)).shape[0])
    return out


def count_branch_report(
    b: BranchSpec,
    p: int,
    d: int,
    n_max: int,
    window: bool = True,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    name: str = "branch-image",
) -> CountReport:
    report = CountReport(name=name, p=p, d=d)
    if b.m == 1 and window:
        report.assumptions.append(
            "m=1 strata counted without enumeration: x = w makes the parametrization injective"
        )
    for n in range(n_max + 1):
        t0 = time.perf_counter()
        c = count_branch_image(b, p, d, n, window=window, budget=budget, threads=threads)
        report.rows.append(CountRow(n, c, "truncated-window" if window else "exhaustive", time.perf_counter() - t0))
    return report


def count_branch_image_geometric(
    b: BranchSpec,
    p: int,
    n: int,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> int:
    """Images with both coordinates in F_p[t]/t^{n+1}, w ranging over all F_{p^d}, d <= m.

    The degree bound d <= m is a heuristic (each image point's parameter w
    satisfies w^m = x over F_p((t)) up to truncation); callers should label
    results accordingly.
    """
    total = 1  # zero arc
    for ell in range(1, n // b.m + 1):
        per_d: list[np.ndarray] = []
        for d in range(1, b.m + 1):
            fld = Fq(p, d)
            for j in b.coeffs:
                _coeff_mod_p(b, j, p)
            q = fld.q
            if b.m == 1:
                per_d.append(np.zeros((0, 0), np.int8))
                total += (q - 1) * q ** (n - ell) if d == 1 else 0
                continue
            c = n - ell * b.m
            work = (q - 1) * q**c
            if work > budget:
                raise BudgetExceeded(f"geometric stratum ell={ell}, d={d} needs {work} arcs > budget {budget}")
            positions = list(range(ell + c, ell - 1, -1))

            def stride(idx: np.ndarray, c=c, q=q) -> np.ndarray:
                return (idx // q**c + 1) * q**c + idx % q**c

            rows = _image_set(b, fld, n, positions, 0, work, stride)
            if rows.shape[0]:
                L = n + 1
                digits = rows.reshape(rows.shape[0], 2, L, d)
                rational = (digits[:, :, :, 1:] == 0).all(axis=(1, 2, 3))
                per_d.append(np.ascontiguousarray(digits[rational][:, :, :, 0].reshape(-1, 2 * L)))
        if b.m > 1:
            merged = _unique_rows(per_d)
            total += int(merged.shape[0])
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
