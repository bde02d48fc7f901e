"""The digit-grid kernel of `arczeta.counting`: distinct images of one stratum of arcs.

`_stratum_keys` enumerates the arcs w = t^ell u with units
u = w_ell + ... + w_{ell+c} t^c, w_ell != 0.  They form the digit grid
F_q^* x F_q^c, one numpy axis per digit of u, each digit a vector of d
base-p coordinates (`_units`).  Coefficient k of u^j depends on u_0..u_k
only, so it is an array over the first k+1 axes, built once per digit
prefix: coef_k(u^j) = sum_i u_i coef_(k-i)(u^(j-1)) by broadcasting, with
products in F_q reduced through the modulus of :class:`~arczeta.fq.Fq`
(`_images`).  The term w^j = t^(j*ell) u^j only needs u^j mod
t^(n+1-j*ell), so every power is truncated to those positions.  Such an arc
has w_0 = 0, so x and y vanish below t^m; only the digits of x and y at
t-positions m..n and their key, all of them packed into one int64 (`_pack`),
reach the full grid, and distinct images are distinct keys (`_distinct`, a
sort).  A wider key would need a stratum of more than 2^30 arcs and is
refused as over budget (`_admit`, which callers also run before they
enumerate).  Digits are packed most significant first, so dividing a key
by p^e drops its last e digits and keeps sorted keys sorted: the counts of
truncated images are read off one stratum's keys (`_quotient_counts`).
The worker count follows from the work: a stratum of more than
`_CHUNK_ROWS` arcs is split into ranges of leading-digit prefixes that run
on up to one thread per CPU, and a smaller one runs inline; no caller sets
it.

This is the one module of the package that imports numpy when it is
loaded; `arczeta.counting` imports it only when a count enumerates, so the
symbolic requests never pay for numpy.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

import numpy as np

from .branch import BranchSpec
from .counting import BudgetExceeded
from .fq import Fq

_CHUNK_ROWS = 1 << 18


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


def _quotient_counts(keys: np.ndarray, p: int, exponents: Iterable[int]) -> list[int]:
    """Number of distinct keys // p^e for each e, from nonempty sorted distinct keys.

    Division by p^e drops the last e base-p digits and keeps the keys
    sorted, so equal quotients are neighbours.
    """
    counts = []
    for e in exponents:
        quot = keys // p**e if e else keys
        counts.append(1 + int(np.count_nonzero(quot[1:] != quot[:-1])))
    return counts


def _admit(b: BranchSpec, fld: Fq, n: int, ell: int, c: int, budget: int, rational: bool = False) -> None:
    """Raise BudgetExceeded unless the stratum of `_stratum_keys` fits the budget and its keys one int64."""
    q, p = fld.q, fld.p
    total = (q - 1) * q**c
    if total > budget:
        raise BudgetExceeded(f"stratum ell={ell} needs {q - 1}*{q}^{c} arcs > budget {budget}")
    width = 2 * max(0, n + 1 - b.m) * (1 if rational else fld.d)
    if p**width > 2**63:
        raise BudgetExceeded(f"image keys of {width} base-{p} digits do not fit one int64 word")


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
    _admit(b, fld, n, ell, c, budget, rational)
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
