"""The digit-grid kernel of `arczeta.counting`: distinct images of one stratum of arcs.

`_stratum_keys` enumerates the arcs w = t^ell u with units
u = w_ell + ... + w_{ell+c} t^c, w_ell != 0.  They form the digit grid
F_q^* x F_q^c, one numpy axis per digit, each digit a vector of d base-p
coordinates (`_units`).  A grid point (u_0, v_1, ..., v_c) stands for the
unit u = u_0 V with V = 1 + v_1 t + ... + v_c t^c, a bijection onto the
units, so a stratum has the same arcs and images as with the digits of u.
Every coefficient of u^j is u_0^j times one of V^j, and coefficient k of
V^j depends on v_1..v_k only, so it is an array over the axes of those
digits, built once per digit prefix and never over the (q-1)-fold u_0
axis: coef_k(V^j) = sum_i v_i coef_(k-i)(V^(j-1)), v_0 = 1, by
broadcasting, with products in F_q reduced through the modulus of
:class:`~arczeta.fq.Fq` (`_images`).  The term w^j = t^(j*ell) u_0^j V^j
only needs V^j mod t^(n+1-j*ell), so every power is truncated to those
positions.  Such an arc has w_0 = 0, so x and y vanish below t^m; y_t sums
a_j u_0^j coef_(t-j*ell)(V^j), and x is kept divided by its leading digit
x_(ell*m) = u_0^m, which is coef_(t-ell*m)(V^m) past it, so x never
multiplies on the full grid.  The digits of x and y at t-positions m..n and
their key, all of them packed into one int64 (`_pack`), reach the full
grid, and distinct keys are distinct images (`_distinct`, a sort): the
digit of x at t reads x at positions <= t only, so keying x by its leading
digit is a bijection of the truncated images at every level.  A wider key
would need a stratum of more than 2^30 arcs and is refused as over budget
(`_admit`, which callers also run before they enumerate).  Digits are
packed most significant first, so dividing a key by p^e drops its last e
digits and keeps sorted keys sorted: the counts of truncated images are
read off one stratum's keys (`_quotient_counts`).  The worker count
follows from the work: a stratum of more than `_CHUNK_ROWS` arcs is split
into ranges of leading-digit prefixes that run on up to one thread per
CPU, and a smaller one runs inline; no caller sets it.

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
    """Digit arrays of u_0, v_1, ..., v_c over a grid of points of F_q^* x F_q^c (the units u_0 V, `_images`).

    Grid axis 0 runs over the prefixes numbered idx of the first h digits:
    u_0 = 1 + idx // q^(h-1), and v_1, ..., v_(h-1) are the base-q digits of
    idx mod q^(h-1), least significant first.  Axis i - h + 1 runs over all q
    values of v_i, i >= h.  Each array has shape (*grid, d), of length 1 on
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
    """Digit arrays of x_t and y_t, t = 0..n, of the images of the arcs w = t^ell u_0 V, x by its leading digit.

    A grid point (u_0, v_1, ..., v_c) of ``units`` stands for the unit
    u_0 V, V = 1 + v_1 t + ... + v_c t^c: a bijection of F_q^* x F_q^c onto
    the units, so a stratum has the same arcs and images as with the digits
    of u.  The image is (w^m, sum a_j w^j); ``coeff`` maps each exponent j
    to the residue of a_j mod p.  Coefficient k of V^j depends on v_1..v_k
    only, so it is an array over the grid axes of those digits, never over
    the u_0 axis once the prefix axis holds u_0 alone:
    coef_k(V^j) = sum_i v_i coef_(k-i)(V^(j-1)), where v_0 = coef_0 = 1 make
    the terms i = 0 and i = k adds.  The term w^j = t^(j*ell) u_0^j V^j
    needs only V^j mod t^(n+1-j*ell); that length falls as j grows, so every
    power on the way to j is truncated to it, and terms from j*ell > n on
    vanish.  So y_t = sum_j a_j u_0^j coef_(t-j*ell)(V^j), with a_j u_0^j on
    the u_0 axis alone.  Digit vectors multiply through the table of
    a * u^s, s < d, that the field's reduction rows give.

    x is returned keyed by its leading digit: x_(ell*m) = u_0^m itself, and
    x_t / x_(ell*m) = coef_(t-ell*m)(V^m) for t > ell*m, so x never
    multiplies on the full grid.  The divided digit at t reads x at
    positions <= t only, so the map is a bijection of the truncated x at
    every level; the positions below ell*m stay 0, so strata stay apart, and
    x lies over F_p exactly when x_(ell*m) and the divided digits do.

    Every digit is reduced mod p before it multiplies.  A product of two
    digit vectors sums d products of two digits, a digit of V^j sums at most
    n such products and two digits, and y_t at most n+1 of them, one per j:
    every sum stays below (n+2)*d*(p-1)^2, which the guard keeps in int64.
    """
    p, d = fld.p, fld.d
    if (n + 2) * d * (p - 1) ** 2 >= 2**63:
        raise ValueError(f"digit sums at p = {p} do not fit a 64-bit integer")
    basis = [*np.eye(d, dtype=np.int64), *np.array(fld.reduction, dtype=np.int64)]
    table = np.array([np.concatenate(basis[a : a + d]) for a in range(d)])  # row a: digits of u^(a+s), s < d

    def times(a: np.ndarray) -> np.ndarray:
        """Digits of a * u^s, s < d, on the last two axes."""
        return (a @ table).reshape(*a.shape[:-1], d, d) % p

    def product(ma: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Digits of a * b, unreduced, from ma = times(a)."""
        return functools.reduce(np.add, (ma[..., s, :] * b[..., s, None] for s in range(d)))

    one, v = basis[0], units[1:]
    mul_u0, mul = times(units[0]), [times(vi) for vi in v]

    def coef(power: list[np.ndarray], k: int) -> np.ndarray:
        # the products i = 1..k-1, then the adds i = k (v_k) and i = 0 (coef_k of the power)
        terms = [product(mul[i - 1], power[k - i]) for i in range(max(1, k + 1 - len(power)), min(k, len(v) + 1))]
        return functools.reduce(np.add, [*terms, *v[k - 1 : k], *power[k : k + 1]]) % p

    x = [np.zeros(d, dtype=np.int64)] * (n + 1)
    y = list(x)
    power, e, lead = [one, *v], 1, units[0]  # V^e and u_0^e
    for target in sorted({m, *coeff}):
        L = n + 1 - target * ell
        if L <= 0:
            break
        while e < target:
            power = [one, *(coef(power, k) for k in range(1, min(L, len(power) + len(v))))]
            lead = product(mul_u0, lead) % p
            e += 1
        at = target * ell
        if target == m:
            x[at] = lead
            for t, v_k in enumerate(power[1:L], at + 1):
                x[t] = v_k
        if coeff.get(target):
            scale = coeff[target] * lead % p
            mul_scale = times(scale)
            y[at] = y[at] + scale
            for t, v_k in enumerate(power[1:L], at + 1):
                y[t] = y[t] + product(mul_scale, v_k)
    return x, [digit % p for digit in y]


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
    base-p digits of x keyed by its leading digit (`_images`) and of y at
    t-positions m..n into one int64.  With ``rational`` only images whose
    digits all lie in F_p are kept, keyed by their F_p digits.  ``coeff``
    holds the residues a_j mod p.  Grid digits v_k with k > n - ell*m never
    reach the image, so the keys have length 1 on their axes: arcs that
    differ only there share one key.

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
