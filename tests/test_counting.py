"""Brute-force counting against an independent scalar-arithmetic oracle."""

import itertools
import math
import re
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta import counting, grid
from arczeta.branch import BranchSpec, characteristic_sequence, chi_c_arc_class, p_ar, p_geom
from arczeta.counting import (
    BadPrime,
    BudgetExceeded,
    CountRow,
    count_branch_image,
    count_branch_image_geometric,
    count_branch_report,
    count_branch_strata,
    igusa_monomial,
    measure_ord_locus,
)
from arczeta.fq import Fq, residue
from arczeta.grid import _distinct, _pack
from arczeta.ratseries import rs_expand, rs_specialize
from arczeta.verifier import VerificationPlan, run_plan
from helpers import (
    RefFq,
    RefTate,
    TruncPow,
    read_count_report,
    ref_branch_images,
    ref_count_images,
    ref_level_strata,
    ref_series_mul,
    ref_tate_eval,
    report_counts,
)

SMOOTH = BranchSpec.make(1, {})
LINE2 = BranchSpec.make(1, {2: Fraction(1, 3), 3: 2})
CUSP = BranchSpec.make(2, {3: 1})
STD4 = BranchSpec.make(4, {6: 1, 7: 1})
M3 = BranchSpec.make(3, {4: 2, 5: 1})
C34 = BranchSpec.make(3, {4: 1})
# rational coefficients on the characteristic exponents 6, 7 and a filler term a_9
RAT4 = BranchSpec.make(4, {6: Fraction(1, 2), 7: Fraction(-3, 4), 9: Fraction(2, 3)})


def naive_image_count(b: BranchSpec, p: int, d: int, n: int) -> int:
    """Reference count: scalar TruncPow arithmetic over every arc, no numpy."""
    F = RefFq(p, d)
    amod = {
        j: F.scalar(a.numerator * pow(a.denominator, -1, p) % p)
        for j, a in b.coeffs.items()
    }
    images = set()
    for codes in itertools.product(range(F.q), repeat=n + 1):
        w = TruncPow(F, tuple(F.decode(c) for c in codes))
        x = w**b.m
        y = TruncPow.zero(F, n)
        for j, aj in amod.items():
            y = y + (w**j).scale(aj)
        if x.coeffs[0] == F.zero and y.coeffs[0] == F.zero:
            images.add((x.coeffs, y.coeffs))
    return len(images)


class TestAgainstNaiveOracle:
    @pytest.mark.parametrize(
        "b,p,d,n",
        [
            (SMOOTH, 2, 1, 3),
            (SMOOTH, 5, 1, 2),
            (LINE2, 7, 1, 3),
            (LINE2, 2, 2, 2),
            (CUSP, 3, 1, 5),
            (CUSP, 5, 1, 4),
            (CUSP, 7, 1, 3),
            (CUSP, 3, 2, 3),
            (CUSP, 2, 2, 3),
            (STD4, 5, 1, 5),
            (STD4, 3, 1, 6),
            (STD4, 13, 1, 2),
            (M3, 7, 1, 4),
            (M3, 2, 1, 6),
        ],
    )
    def test_window_and_exhaustive_match_oracle(self, b, p, d, n):
        expect = naive_image_count(b, p, d, n)
        assert count_branch_image(b, p, d, n, window=False) == expect
        assert count_branch_image(b, p, d, n, window=True) == expect


def _series(F: RefFq, digits, n: int) -> TruncPow:
    """The (positions, d) digit array as an element of F_q[t]/t^{n+1}."""
    coeffs = [tuple(int(v) for v in c) for c in digits[: n + 1]]
    return TruncPow(F, tuple(coeffs) + (F.zero,) * (n + 1 - len(coeffs)))


def _on_grid(arrays: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Digit arrays broadcast to the grid (*axes, d) and stacked, shape (grid points, len(arrays), d)."""
    return np.stack([np.broadcast_to(v, shape) for v in arrays], axis=-2).reshape(-1, len(arrays), shape[-1])


def _by_leading_digit(images: np.ndarray, lead: int, F: RefFq) -> np.ndarray:
    """Image digit rows (rows, 2, n+1, d) with each x_t, t > lead, divided by x_lead through RefFq inverses."""
    out = images.copy()
    if lead + 1 < images.shape[2]:
        inverse = np.array([F.zero, *(F.inv(F.decode(code)) for code in range(1, F.q))])
        x_lead = inverse[images[:, 0, lead] @ F.p ** np.arange(F.d)]
        out[:, 0, lead + 1 :] = ref_series_mul(x_lead[:, None], images[:, 0, lead + 1 :], F, images.shape[2] - lead - 1)
    return out


class TestKernelAgainstTruncPow:
    """The digit grid digit for digit against the row kernel it replaced and scalar TruncPow arithmetic.

    The grid only holds arcs w = t^ell u_0 V, u_0 != 0 and V = 1 + v_1 t +
    ... + v_c t^c (every arc the stratum enumerator builds), so the inputs
    are every arc of such strata, for every ell = 1..n and every unit length
    c + 1 small enough: large ell leaves x = 0 (m*ell > n) or only the lower
    y terms in range.  A grid whose first h digits share the prefix axis is
    the one a chunk holds.  The kernel returns x divided by its leading
    digit x_(ell*m) past t^(ell*m), so the reference's x is divided likewise.
    """

    ROWS = [
        (STD4, 5, 1, 7),
        (LINE2, 5, 1, 5),
        (M3, 3, 2, 6),
        (CUSP, 3, 2, 5),
        (STD4, 5, 3, 5),
        (M3, 5, 3, 4),
        (CUSP, 257, 1, 5),
        (STD4, 257, 1, 6),
    ]

    @pytest.mark.parametrize("b,p,d,n", ROWS)
    def test_branch_images_match_truncpow(self, b, p, d, n):
        F = RefFq(p, d)
        coeff = {j: a.numerator * pow(a.denominator, -1, p) % p for j, a in b.coeffs.items()}
        amod = {j: F.scalar(a) for j, a in coeff.items()}
        for ell in range(1, n + 1):
            lead = ell * b.m
            for c in range(n + 1):
                arcs = (F.q - 1) * F.q**c
                if arcs > 70_000:
                    break
                for h in sorted({1, min(2, c + 1), c + 1}):
                    units = grid._units(np.arange(arcs // F.q ** (c + 1 - h)), h, c, F)
                    x, y = grid._images(units, ell, n, b.m, coeff, F)
                    shape = np.broadcast_shapes(*(u.shape for u in units))
                    points = _on_grid(units, shape)  # (u_0, v_1, ..., v_c) per grid point
                    ones = np.concatenate([np.broadcast_to(F.one, points[:, :1].shape), points[:, 1:]], axis=1)
                    rows = ref_series_mul(points[:, :1], ones, F, c + 1)  # the unit u_0 V
                    images = _on_grid(x + y, shape).reshape(len(rows), 2, n + 1, d)
                    expect = _by_leading_digit(ref_branch_images(rows, ell, n, b, F), lead, F)
                    assert (images == expect).all(), (ell, c, h)
                if arcs > 256:  # scalar arithmetic only on the small strata
                    continue
                for row, unit in zip(images, rows):
                    w = _series(F, [(0,) * d] * ell + list(unit), n)
                    expect_x = (w**b.m).coeffs
                    if lead < n:
                        inverse = F.inv(expect_x[lead])
                        expect_x = expect_x[: lead + 1] + tuple(F.mul(inverse, a) for a in expect_x[lead + 1 :])
                    expect_y = TruncPow.zero(F, n)
                    for j, aj in amod.items():
                        expect_y = expect_y + (w**j).scale(aj)
                    assert _series(F, row[0], n).coeffs == expect_x, (ell, c)
                    assert _series(F, row[1], n) == expect_y, (ell, c)

    @pytest.mark.parametrize("b,p,d,n", ROWS)
    def test_divided_x_never_spans_the_leading_digit_axis(self, b, p, d, n):
        # with u_0 alone on the prefix axis (h = 1), the powers of V and so the
        # digits of x past its leading digit lie on the axes of v_1..v_c only
        F = Fq(p, d)
        coeff = {j: a.numerator * pow(a.denominator, -1, p) % p for j, a in b.coeffs.items()}
        for ell in range(1, n // b.m + 1):
            lead = ell * b.m
            for c in range(n + 1 - lead):
                if (F.q - 1) * F.q**c > 70_000:
                    break
                x, _ = grid._images(grid._units(np.arange(F.q - 1), 1, c, F), ell, n, b.m, coeff, F)
                # axis 0 of each digit array once broadcast to the grid's c + 1 axes and the digit axis
                lengths = [((1,) * (c + 2 - v.ndim) + v.shape)[0] for v in x]
                assert lengths[lead] == F.q - 1, (ell, c)
                assert lengths[lead + 1 :] == [1] * (n - lead), (ell, c)

    @pytest.mark.parametrize("p,d", sorted({(p, d) for _, p, d, _ in ROWS}))
    def test_series_mul_matches_truncpow(self, p, d):
        F = RefFq(p, d)
        rng = np.random.default_rng(p * 10 + d)
        for la, lb, L in [(4, 4, 7), (3, 6, 5), (6, 2, 3), (5, 5, 9), (1, 4, 4), (4, 4, 1)]:
            A = rng.integers(0, p, size=(5, la, d))
            B = rng.integers(0, p, size=(5, lb, d))
            prod = ref_series_mul(A, B, F, L)
            assert prod.shape == (5, L, d)
            N = max(la, lb, L) - 1
            for row, a, bb in zip(prod, A, B):
                expect = (_series(F, a, N) * _series(F, bb, N)).coeffs[:L]
                assert _series(F, row, L - 1).coeffs == expect, (la, lb, L)


def _all_units(F: Fq, c: int) -> np.ndarray:
    """Every unit u_0 + u_1 t + ... + u_c t^c, u_0 != 0, one row of digits each: shape ((q-1) q^c, c+1, d)."""
    q = F.q
    idx = np.arange((q - 1) * q**c)
    codes = np.stack([1 + idx % (q - 1), *(idx // (q - 1) // q**i % q for i in range(c))], axis=1)
    return codes[..., None] // F.p ** np.arange(F.d) % F.p


def _distinct_rows(images: np.ndarray, n: int) -> int:
    """Number of distinct image digit rows (rows, 2, *, d) truncated to t-positions 0..n."""
    return len(np.unique(images[:, :, : n + 1].reshape(len(images), -1), axis=0))


class TestKeysAgainstTrueImages:
    """Counts read off the image keys, level by level, against the distinct true images of the same arcs.

    The keys of each stratum are enumerated once at the top level and every
    level is read off them by `_quotient_counts`, as the counting routes do;
    the reference truncates each arc's image from `ref_branch_images` to the
    level and counts distinct digit rows.  Window strata are counted one by
    one, exhaustive strata merged with the zero key, and the F_p filter on
    the union over the fields F_(p^d) of a prime, at each level apart, as
    the geometric count enumerates it.  A chunk of 40 arcs puts several
    digits on the prefix axis and cuts every grid into several chunks.
    """

    FIELDS = {2: (1, 2, 3), 3: (1, 2), 5: (1, 2), 257: (1,)}  # F_2, F_4, F_8, F_3, F_9, F_5, F_25, F_257
    ARCS = {2: 3000, 3: 3000, 5: 3000, 257: 70_000}  # 256 * 257 arcs reach a unit digit past u_0

    @staticmethod
    def _branches(p: int) -> list[BranchSpec]:
        rng = random.Random(p)
        out = []
        for m in (2, 3, 4):
            exponents = rng.sample(range(m, 3 * m + 2), rng.randint(1, 3))
            dens = [k for k in (1, 2, 3, 4) if k % p]
            out.append(BranchSpec.make(m, {j: Fraction(rng.randint(-9, 9), rng.choice(dens)) for j in exponents}))
        return out

    @staticmethod
    def _n_max(b: BranchSpec, F: Fq, window: bool) -> int:
        """The largest n whose first stratum (window) or arc set (exhaustive) has at most ARCS[p] arcs."""
        q, n = F.q, 0
        while ((q - 1) * q ** (n + 1 - b.m) if window else q ** (n + 1)) <= TestKeysAgainstTrueImages.ARCS[F.p]:
            n += 1
        return n

    @pytest.fixture(params=[grid._CHUNK_ROWS, 40], ids=["one-chunk", "chunked"])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(grid, "_CHUNK_ROWS", request.param)

    @pytest.mark.parametrize("p", sorted(FIELDS))
    def test_window_and_exhaustive_levels(self, p, chunk):
        for b in self._branches(p):
            coeff = {j: residue(a, p) for j, a in b.coeffs.items()}
            for d in self.FIELDS[p]:
                F = Fq(p, d)
                for window in (True, False):
                    n_max = self._n_max(b, F, window)
                    levels = range(n_max + 1)
                    kept = [2 * d * max(0, n + 1 - b.m) for n in levels]  # base-p digits of a level-n key
                    drop = [kept[-1] - k for k in kept]
                    step = b.m if window else 1
                    strata = {}
                    for ell in range(1, n_max // step + 1):
                        c = n_max - ell * step
                        keys = grid._stratum_keys(b, coeff, F, n_max, ell, c, budget=10**6)
                        strata[ell] = (keys, ref_branch_images(_all_units(F, c), ell, n_max, b, F))
                    where = (b, p, d, window)
                    if window:
                        for ell, (keys, images) in strata.items():
                            counts = grid._quotient_counts(keys, p, drop[ell * b.m :])
                            assert counts == [_distinct_rows(images, n) for n in levels[ell * b.m :]], (*where, ell)
                        continue
                    keys = grid._distinct([grid._pack([], p), *(k for k, _ in strata.values())])
                    zero = np.zeros((1, 2, n_max + 1, d), dtype=np.int64)  # the zero arc's image
                    images = np.concatenate([zero, *(i for _, i in strata.values())])
                    assert grid._quotient_counts(keys, p, drop) == [_distinct_rows(images, n) for n in levels], where

    @pytest.mark.parametrize("p", sorted(FIELDS))
    def test_rational_keys_over_every_field(self, p, chunk):
        for b in self._branches(p):
            coeff = {j: residue(a, p) for j, a in b.coeffs.items()}
            fields = [Fq(p, d) for d in self.FIELDS[p]]
            for n in range(self._n_max(b, fields[-1], True) + 1):
                for ell in range(1, n // b.m + 1):
                    c = n - ell * b.m
                    keys, rows = [], []
                    for F in fields:
                        keys.append(grid._stratum_keys(b, coeff, F, n, ell, c, budget=10**6, rational=True))
                        images = ref_branch_images(_all_units(F, c), ell, n, b, F)
                        over_p = images[(images[..., 1:] == 0).all(axis=(1, 2, 3))][..., :1]
                        assert len(keys[-1]) == _distinct_rows(over_p, n), (b, F.q, n, ell)
                        rows.append(over_p)
                    assert len(grid._distinct(keys)) == _distinct_rows(np.concatenate(rows), n), (b, p, n, ell)


class TestImageKeys:
    @settings(max_examples=60)
    @given(p=st.sampled_from([2, 5, 257]), data=st.data())
    def test_packed_keys_dedupe_like_rows(self, p, data):
        per = max(k for k in range(1, 64) if p**k <= 2**63)
        width = data.draw(st.integers(1, per))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # rows near one base row, so many differ in a single digit
        pool = np.tile(rng.integers(0, p, width), (8, 1))
        for row in pool[1:]:
            row[rng.integers(0, width, rng.integers(1, 3))] = rng.integers(0, p)
        rows = pool[rng.integers(0, len(pool), data.draw(st.integers(1, 40)))]
        keys = _pack(rows.T, p)
        assert keys.shape == (len(rows),)
        halves = [keys[: len(keys) // 2], keys[len(keys) // 2 :]]
        assert len(_distinct([keys])) == len(_distinct(halves)) == len(np.unique(rows, axis=0))

    def test_keys_wider_than_one_word_exceed_the_budget(self):
        # the cusp at n = 5 has keys of 2 * 4 digits, and 257^8 > 2^63; its
        # ell = 1 stratum has 256 * 257^3 arcs, so only a huge budget reaches the width
        with pytest.raises(BudgetExceeded, match="8 base-257 digits"):
            grid._stratum_keys(CUSP, {3: 1}, Fq(257), 5, 1, 3, budget=2**40)


class TestFrozenValues:
    def test_std4_p5(self):
        for n, expect in [(0, 1), (3, 1), (4, 2), (5, 6), (6, 51), (7, 501), (8, 2502)]:
            assert count_branch_image(STD4, 5, 1, n) == expect, n

    def test_counts_equal_arithmetic_series_at_p5(self):
        tay = rs_specialize(p_ar(characteristic_sequence(STD4)), 5).taylor(9)
        for n in range(9):
            assert tay[n] == count_branch_image(STD4, 5, 1, n), n


class TestWindowSoundness:
    BRANCH_POOL = [SMOOTH, LINE2, CUSP, STD4, M3, BranchSpec.make(2, {5: 2, 6: 1})]
    FIELD_POOL = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (11, 1), (13, 1)]

    @settings(max_examples=40)
    @given(st.data())
    def test_window_equals_exhaustive(self, data):
        b = data.draw(st.sampled_from(self.BRANCH_POOL))
        p, d = data.draw(st.sampled_from(self.FIELD_POOL))
        q = p**d
        n_hi = 0
        while q ** (n_hi + 2) <= 100_000:
            n_hi += 1
        n = data.draw(st.integers(0, n_hi))
        if any(a.denominator % p == 0 for a in b.coeffs.values()):
            return
        # both modes against every arc's image by untruncated products
        window = count_branch_image(b, p, d, n, window=True)
        assert window == count_branch_image(b, p, d, n, window=False) == ref_count_images(b, p, d, n)

    def test_pooled_chunks_do_not_change_counts(self, monkeypatch):
        # window and exhaustive mode, d = 1 and 2, and the rational filter of
        # the geometric count; every case has a stratum of over 2000 arcs
        cases = [
            lambda: count_branch_image(STD4, 5, 1, 8, window=True),
            lambda: count_branch_image(STD4, 5, 1, 6, window=False),
            lambda: count_branch_image(STD4, 5, 2, 6, window=True),
            lambda: count_branch_image(CUSP, 3, 2, 4, window=False),
            lambda: count_branch_image_geometric(CUSP, 7, 4),
        ]
        inline = [case() for case in cases]
        pools = []

        class Pool(grid.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(grid, "_CHUNK_ROWS", 1000)
        monkeypatch.setattr(grid.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(grid, "ThreadPoolExecutor", Pool)
        assert [case() for case in cases] == inline
        assert set(pools) == {3}


def _levels(b: BranchSpec, p: int, d: int, n_max: int, window: bool) -> tuple[list[int], list[dict[int, int]]]:
    """Counts and per-stratum counts at every level, from one enumeration at n_max."""
    fld, coeff = counting._checked(b, p, d, n_max)
    return counting._level_counts(b, coeff, fld, n_max, window, counting.DEFAULT_BUDGET)


class TestLevelsFromTopLevel:
    """Every level read off the top level's keys, against counts made at that level alone."""

    # F_5, F_7, F_13, F_8, F_25, F_125; every n_max reaches past the levels below m
    BRUTE = [
        (CUSP, 5, 1, 6),
        (STD4, 5, 1, 7),
        (RAT4, 5, 1, 7),
        (C34, 7, 1, 5),
        (RAT4, 7, 1, 5),
        (CUSP, 13, 1, 4),
        (C34, 13, 1, 4),
        (CUSP, 2, 3, 5),
        (C34, 2, 3, 4),
        (CUSP, 5, 2, 3),
        (C34, 5, 2, 3),
        (CUSP, 5, 3, 2),
    ]

    @pytest.mark.parametrize("b,p,d,n_max", BRUTE)
    def test_every_level_matches_all_arcs(self, b, p, d, n_max):
        expect = [ref_count_images(b, p, d, n) for n in range(n_max + 1)]
        for window in (True, False):
            rep = count_branch_report(b, p, d, n_max, window=window)
            assert [r.n for r in rep.rows] == list(range(n_max + 1))
            assert [r.count for r in rep.rows] == expect, window

    # the widest key the default budget admits at p = 257: the cusp at n = 3 packs
    # 4 digits (n = 4 would need 256 * 257^2 arcs in its first stratum)
    WIDE = [(CUSP, 257, 1, 3, True), (C34, 257, 1, 4, True), (CUSP, 257, 1, 2, False)]

    @staticmethod
    def _sweep(seed: int, cases: int) -> list[tuple[BranchSpec, int, int, int, bool]]:
        """Seeded branches with m <= 5 and up to three terms, over fields up to F_13 and F_9,
        at the largest n_max whose first stratum (window) or arc set (exhaustive) stays small."""
        rng = random.Random(seed)
        fields = [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (3, 2), (2, 3)]
        out = []
        while len(out) < cases:
            m = rng.randint(1, 5)
            p, d = rng.choice(fields)
            exponents = rng.sample(range(m, m + 9), rng.randint(0, 3))
            coeffs = {j: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4))) for j in exponents}
            if any(a.denominator % p == 0 for a in coeffs.values()):
                continue
            window = rng.random() < 0.6
            q, n_max = p**d, 0
            while (q - 1) * q ** (n_max + 1 - (m if window else 1)) <= 20_000:
                n_max += 1
            out.append((BranchSpec.make(m, coeffs), p, d, n_max, window))
        return out

    @pytest.mark.parametrize("b,p,d,n_max,window", WIDE + _sweep(24, 40))
    def test_every_level_matches_per_level_enumeration(self, b, p, d, n_max, window):
        counts, strata = _levels(b, p, d, n_max, window)
        for n in range(n_max + 1):
            count, by_stratum = ref_level_strata(b, p, d, n, window)
            assert counts[n] == count, n
            if window:
                assert strata[n] == by_stratum, n
        if window:
            assert count_branch_strata(b, p, d, n_max) == strata[-1]
        assert count_branch_image(b, p, d, n_max, window=window) == counts[-1]


class TestTopLevelBudget:
    """A report or plan over budget at its top level enumerates no stratum."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        made = []
        enumerate_stratum = grid._stratum_keys

        def counted(*args, **kwargs):
            made.append(args[4])
            return enumerate_stratum(*args, **kwargs)

        monkeypatch.setattr(grid, "_stratum_keys", counted)
        return made

    CASES = {
        # the first stratum at n_max = 8, 12 * 13^4 arcs; n = 7 alone would need 12 * 13^3
        "window-arcs": (lambda: count_branch_report(STD4, 13, 1, 8, budget=10**4), "stratum ell=1 needs 12*13^4 "),
        "exhaustive-arcs": (
            lambda: count_branch_report(STD4, 13, 1, 8, window=False, budget=10**6),
            "exhaustive enumeration needs 13^8 ",
        ),
        # 2 * 4 digits of 257 at n_max = 5; the levels up to 4 would fit
        "window-width": (lambda: count_branch_report(CUSP, 257, 1, 5, budget=2**40), "8 base-257 digits"),
        "exhaustive-width": (
            lambda: count_branch_report(CUSP, 257, 1, 5, window=False, budget=2**48),
            "8 base-257 digits",
        ),
        "branch-par": (
            lambda: run_plan(VerificationPlan("branch-par", branch=STD4, primes=(13,), n_max=8, budget=10**4)),
            "stratum ell=1 needs 12*13^4 ",
        ),
        "cusp-cross-method": (
            lambda: run_plan(VerificationPlan("cusp-cross-method", branch=CUSP, primes=(13,), n_max=7, budget=10**5)),
            "stratum ell=1 needs 12*13^5 ",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_raises_before_any_stratum(self, calls, case):
        run, message = self.CASES[case]
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            run()
        assert calls == []

    def test_one_enumeration_per_stratum_per_prime(self, calls):
        count_branch_report(STD4, 13, 1, 8)
        assert calls == [1, 2]
        calls.clear()
        run_plan(VerificationPlan("branch-par", branch=STD4, primes=(5, 13), n_max=8))
        assert calls == [1, 2, 1, 2]
        calls.clear()
        count_branch_report(CUSP, 5, 1, 6, window=False)
        assert calls == [1, 2, 3, 4, 5, 6]


class TestFiberIdentity:
    @pytest.mark.parametrize("p,n", [(5, 5), (5, 7), (5, 8), (13, 4), (13, 6)])
    def test_stratum_counts_match_formula(self, p, n):
        # p = 1 mod 4: each stratum has (N_i/m)(p-1)p^(n-l*m) distinct images
        c = characteristic_sequence(STD4)
        strata = count_branch_strata(STD4, p, 1, n)
        for ell, got in strata.items():
            i = max(k for k in range(c.g + 1) if ell * c.beta[k] <= n)
            expect = c.N[i] * (p - 1) * p ** (n - ell * c.m) // c.m
            assert got == expect, (ell, got, expect)

    @pytest.mark.parametrize(
        "b,p,n_max",
        [
            (STD4, 17, 7),  # beyond p = 13, where extension moduli were once tabulated
            (CUSP, 257, 3),  # digit 256 does not fit int8: image rows must widen
        ],
    )
    def test_prime_beyond_modulus_table(self, b, p, n_max):
        c = characteristic_sequence(b)
        for n in range(n_max + 1):
            strata = sum(ref_tate_eval(chi_c_arc_class(c, n, ell)[1], p) for ell in range(1, n // c.m + 1))
            assert count_branch_image(b, p, 1, n) == 1 + strata, n

    @pytest.mark.parametrize("b,n,expect", [(CUSP, 2, 32769), (M3, 3, 65537)])
    def test_window_counts_where_digit_products_overflow_int32(self, b, n, expect):
        # at p = 65537 a product of two digits reaches (p-1)^2 = 2^32
        assert count_branch_image(b, 65537, 1, n) == expect

    def test_strata_cover_image(self):
        for n in range(7):
            strata = count_branch_strata(CUSP, 7, 1, n)
            assert 1 + sum(strata.values()) == count_branch_image(CUSP, 7, 1, n)


class TestDerivedExtensions:
    """Fields whose modulus is derived beyond the range once tabulated (p <= 13)."""

    CASES = [
        (CUSP, 17, [1, 1, 145, 83233]),
        (CUSP, 19, [1, 1, 181, 129961]),
        (STD4, 17, [1, 1, 1, 1, 73, 20809]),
    ]

    @pytest.mark.parametrize("b,p,expect", CASES)
    def test_window_counts_equal_specialised_series(self, b, p, expect):
        tay = rs_specialize(p_ar(characteristic_sequence(b)), p**2).taylor(len(expect) - 1)
        assert tay == expect
        assert [count_branch_image(b, p, 2, n) for n in range(len(expect))] == expect

    @pytest.mark.parametrize("b,p,expect", CASES)
    def test_exhaustive_equals_window(self, b, p, expect):
        assert [count_branch_image(b, p, 2, n, window=False) for n in range(3)] == expect[:3]


class TestGeometricHeuristic:
    @pytest.mark.parametrize("p", [3, 5])
    def test_cusp_matches_geometric_series(self, p):
        tay = rs_specialize(p_geom(characteristic_sequence(CUSP)), p).taylor(5)
        for n in range(5):
            assert count_branch_image_geometric(CUSP, p, n) == tay[n], n

    def test_smooth_matches_geometric_series(self):
        for n in range(5):
            assert count_branch_image_geometric(SMOOTH, 7, n) == 7**n


class TestErrors:
    def test_bad_prime(self):
        with pytest.raises(BadPrime):
            count_branch_image(LINE2, 3, 1, 2)  # a_2 = 1/3

    def test_budget_exhaustive(self):
        with pytest.raises(BudgetExceeded):
            count_branch_image(STD4, 13, 1, 8, window=False, budget=10**6)

    def test_budget_stratum(self):
        with pytest.raises(BudgetExceeded):
            count_branch_image(STD4, 13, 1, 8, window=True, budget=10**4)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            count_branch_image(CUSP, 5, 1, -1)

    COUNTERS = {
        "image": lambda b, p, n: count_branch_image(b, p, 1, n),
        "strata": lambda b, p, n: count_branch_strata(b, p, 1, n),
        "report": lambda b, p, n: count_branch_report(b, p, 1, n),
        "geometric": count_branch_image_geometric,
    }

    @pytest.mark.parametrize("counter", COUNTERS)
    def test_every_counter_rejects_a_bad_prime(self, counter):
        # at n = 1 < m no stratum is enumerated, so only the entry check sees a_3 = 1/5
        with pytest.raises(BadPrime):
            self.COUNTERS[counter](BranchSpec.make(2, {3: Fraction(1, 5)}), 5, 1)

    @pytest.mark.parametrize("counter", COUNTERS)
    def test_every_counter_rejects_negative_n(self, counter):
        with pytest.raises(ValueError, match="n must be >= 0"):
            self.COUNTERS[counter](CUSP, 5, -3)


class TestCountReport:
    def test_report_roundtrip_and_csv(self):
        rep = count_branch_report(STD4, 5, 1, 4)
        assert rep.name == "branch-image"
        assert [r.count for r in rep.rows] == [1, 1, 1, 1, 2]
        assert all(r.method == "truncated-window" for r in rep.rows)
        again = read_count_report(json.dumps(rep.to_json()))
        assert report_counts(again) == report_counts(rep)
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "n,count,method,seconds"
        assert len(csv.splitlines()) == 6

    def test_m1_shortcut_recorded(self):
        rep = count_branch_report(SMOOTH, 13, 1, 3)
        assert report_counts(rep) == {0: 1, 1: 13, 2: 169, 3: 13**3}
        assert any("injective" in a for a in rep.assumptions)

    @pytest.mark.parametrize("b", [SMOOTH, LINE2])
    def test_m1_shortcut_past_n_10(self, b):
        # the injective strata at n = 11, 12 against the P_ar coefficient and all 2^n arcs
        tay = rs_specialize(p_ar(characteristic_sequence(b)), 2).taylor(12)
        for n in (11, 12):
            assert count_branch_image(b, 2, 1, n) == tay[n] == ref_count_images(b, 2, 1, n) == 2**n

    def test_exhaustive_method_label(self):
        rep = count_branch_report(CUSP, 3, 1, 3, window=False)
        assert all(r.method == "exhaustive" for r in rep.rows)


class TestMeasure:
    def test_units(self):
        for p in (2, 3, 5, 13):
            assert measure_ord_locus([1], p, 0) == Fraction(p - 1, p)

    def test_single_coordinate(self):
        assert measure_ord_locus([1], 3, 3) == Fraction(2, 81)
        assert measure_ord_locus([2], 5, 3) == 0
        assert measure_ord_locus([2], 5, 4) == Fraction(4, 5) * Fraction(1, 25)

    def test_volume_sum_partitions_unit_mass(self):
        for p in (2, 5):
            total = sum(measure_ord_locus([1], p, n) for n in range(0, 12))
            assert total == 1 - Fraction(1, p**12)

    def test_two_coordinates_convolve(self):
        for n in range(6):
            conv = sum(
                measure_ord_locus([1], 3, a) * measure_ord_locus([1], 3, n - a)
                for a in range(n + 1)
            )
            assert measure_ord_locus([1, 1], 3, n) == conv

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            measure_ord_locus([0], 3, 1)
        with pytest.raises(ValueError):
            measure_ord_locus([1], 3, -1)


class TestIgusa:
    def test_t0_coefficient(self):
        for ks in [(1,), (2,), (1, 1), (2, 3, 1)]:
            coeff = rs_expand(igusa_monomial(ks), 1)[0]
            assert coeff == math.prod([RefTate.one() - RefTate.L(-1)] * len(ks), start=RefTate.one())

    def test_square_of_single(self):
        from arczeta.ratseries import rs_equal, rs_mul

        single = igusa_monomial([1])
        assert rs_equal(rs_mul(single, single), igusa_monomial([1, 1]))

    @pytest.mark.parametrize("ks", [(1,), (2,), (1, 1), (3, 2)])
    @pytest.mark.parametrize("p", [3, 5])
    def test_coefficients_specialize_to_measures(self, ks, p):
        tay = rs_specialize(igusa_monomial(ks), p).taylor(7)
        for n in range(7):
            assert tay[n] == measure_ord_locus(ks, p, n), (ks, p, n)

    def test_odd_coefficients_vanish_for_square(self):
        coeffs = rs_expand(igusa_monomial([2]), 6)
        for n in (1, 3, 5):
            assert not coeffs[n]

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            igusa_monomial([])
        with pytest.raises(ValueError):
            igusa_monomial([1, 0])
