"""Cell-tree lifting counter against exhaustive enumeration and cross-method oracles."""

import dataclasses
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from arczeta.branch import BranchSpec
from arczeta.counting import BudgetExceeded, count_branch_image
from arczeta.liftable import IntPoly, _Level, _ordp, _System, count_liftable, default_depth
from arczeta.presburger import FormulaSyntaxError

from helpers import (
    ref_cell_horizon,
    ref_certified_cells,
    ref_count_liftable,
    ref_flat_children,
    ref_gradient,
    ref_hensel_bound,
    ref_lifts,
    ref_surviving_children,
)


class TestPolyParser:
    def test_basic_grammar(self):
        p = IntPoly.parse("x1^2 - x2^3")
        assert p.eval((3, 2)) == 1
        assert p.eval((0, 0)) == 0
        assert p.nvars == 2

    def test_aliases_match_numbered_vars(self):
        assert IntPoly.parse("x^2 - y^3").terms == IntPoly.parse("x1^2 - x2^3").terms

    def test_products_parentheses_constants(self):
        assert IntPoly.parse("(x + 1)*(x - 1) - x^2").eval((9,)) == -1
        assert IntPoly.parse("2*x1*x2 + 7").eval((3, 4)) == 31
        assert IntPoly.parse("-x^2 + 3").eval((2,)) == -1
        assert IntPoly.parse("x*x*x").terms == IntPoly.parse("x^3").terms

    def test_powers_by_squaring(self):
        assert IntPoly.parse("x^200000") == IntPoly.make(1, {(200000,): 1})
        assert IntPoly.parse("(x - 2*y)^13") == IntPoly.make(
            2, {(13 - k, k): math.comb(13, k) * (-2) ** k for k in range(14)}
        )
        assert IntPoly.parse("(x + 1)^0") == IntPoly.make(1, {(0,): 1})

    def test_whitespace_insensitive(self):
        assert IntPoly.parse(" x1 ^2-x2^ 3 ").terms == IntPoly.parse("x1^2-x2^3").terms

    # malformed text -> the position its error names
    MALFORMED = {
        "x1 +": 4,
        "q^2": 0,
        "x0": 0,
        "(x": 2,
        "x^": 2,
        "3 3": 2,
        "x1^-2": 3,
        "": 0,
        "x 1": 2,
        "2x": 1,
        "x$": 1,
        "x^2 = y": 4,
    }

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_malformed_rejected(self, bad):
        with pytest.raises(FormulaSyntaxError) as info:
            IntPoly.parse(bad)
        assert info.value.position == self.MALFORMED[bad]
        assert str(info.value).endswith(f"(at position {self.MALFORMED[bad]})")

    def test_named_variables_set_the_width(self):
        # x2 is named, so x2^0 - 1 is the zero polynomial in two variables
        assert IntPoly.parse("x2^0 - 1") == IntPoly.make(2, {})
        assert IntPoly.parse("x3 - x3 + x1") == IntPoly.make(3, {(1, 0, 0): 1})
        assert IntPoly.parse("7") == IntPoly.make(1, {(0,): 7})

    @settings(max_examples=200)
    @given(st.data())
    def test_round_trip_of_mixed_spellings(self, data):
        nvars = data.draw(st.integers(1, 4), label="nvars")
        terms = data.draw(
            st.dictionaries(
                st.tuples(*[st.integers(0, 4)] * nvars), st.integers(-20, 20).filter(bool), max_size=5
            ),
            label="terms",
        )
        named: set[int] = set()

        def space() -> str:
            return data.draw(st.sampled_from(["", " ", "  "]))

        def var(i: int) -> str:
            named.add(i)
            return data.draw(st.sampled_from(["xyzw"[i - 1], f"x{i}"]))

        def power(i: int, e: int) -> list[str]:
            if e == 0:
                return [f"{var(i)}^0"] if data.draw(st.booleans()) else []
            if data.draw(st.booleans()):
                return [f"{var(i)}{space()}^{space()}{e}"]
            return [var(i) for _ in range(e)]

        def term(expo: tuple[int, ...], c: int) -> str:
            factors = [f for i, e in enumerate(expo, 1) for f in power(i, e)]
            factors = data.draw(st.permutations(factors))
            if abs(c) != 1 or not factors or data.draw(st.booleans()):
                factors = [str(abs(c)), *factors]
            return f"{space()}*{space()}".join(factors)

        groups: list[str] = []
        items = list(terms.items())
        while items:
            size = data.draw(st.integers(1, len(items)))
            chunk, items = items[:size], items[size:]
            text = ""
            for k, (expo, c) in enumerate(chunk):
                body = term(expo, c)
                if k == 0:
                    text = f"-{body}" if c < 0 else body
                elif c < 0 and data.draw(st.booleans()):
                    text += f"{space()}+{space()}-{body}"
                else:
                    text += f"{space()}{'-' if c < 0 else '+'}{space()}{body}"
            groups.append(f"({space()}{text}{space()})" if data.draw(st.booleans()) else text)
        text = f"{space()}+{space()}".join(groups) or "0"

        parsed = IntPoly.parse(text)
        assert parsed.nvars == max(named, default=1)
        assert parsed.widen(nvars) == IntPoly.make(nvars, terms)

    def test_nvars_widening(self):
        p = IntPoly.parse("x1 + 1").widen(3)
        assert p.nvars == 3
        assert p.eval((4, 9, 9)) == 5
        assert p == IntPoly.make(3, {(1, 0, 0): 1, (0, 0, 0): 1})
        assert p.widen(3) == p
        with pytest.raises(ValueError, match="cannot narrow a polynomial in 3 variables to 2"):
            IntPoly.parse("x3").widen(2)


class TestHasseDerivatives:
    def test_examples(self):
        f = IntPoly.parse("x^3")
        assert f.hasse_deriv((1,)).eval((2,)) == 12  # 3x^2
        assert f.hasse_deriv((2,)).eval((2,)) == 6  # C(3,2) x = 3x
        assert f.hasse_deriv((3,)).eval((5,)) == 1
        assert f.hasse_deriv((4,)).is_zero()

    @settings(max_examples=50)
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5)), max_size=5),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
    )
    def test_taylor_identity(self, raw_terms, a1, a2, b1, b2):
        # f(a + b) = sum_alpha D^[alpha]f(a) * b^alpha, exactly over Z
        terms = {}
        for e1, e2, c in raw_terms:
            terms[(e1, e2)] = terms.get((e1, e2), 0) + c
        f = IntPoly.make(2, terms)
        hull = f.max_exponents()
        total = 0
        for alpha in itertools.product(range(hull[0] + 1), range(hull[1] + 1)):
            total += f.hasse_deriv(alpha).eval((a1, a2)) * b1 ** alpha[0] * b2 ** alpha[1]
        assert total == f.eval((a1 + b1, a2 + b2))

    def test_gradient_is_first_order(self):
        f = IntPoly.parse("x^2*y + 5*y^3")
        gx, gy = ref_gradient(f)
        assert gx.eval((3, 2)) == 12  # 2xy
        assert gy.eval((3, 2)) == 9 + 60  # x^2 + 15y^2


def naive_liftable(f, W, p, n, depth):
    """Exhaustive reference: all residues mod p^K, project owners mod p^{n+1}."""
    fp = [IntPoly.parse(s) if isinstance(s, str) else s for s in f]
    wp = [IntPoly.parse(s) if isinstance(s, str) else s for s in W]
    m = max([q.nvars for q in fp + wp] + [1])
    fp = [q.widen(m) for q in fp]
    wp = [q.widen(m) for q in wp]
    K = n + 1 + depth
    big, small = p**K, p ** (n + 1)
    owners = set()
    for z in itertools.product(range(big), repeat=m):
        if all(q.eval(z) % big == 0 for q in fp) and all(q.eval(z) % p == 0 for q in wp):
            owners.add(tuple(x % small for x in z))
    return len(owners)


class TestAgainstExhaustiveOracle:
    @pytest.mark.parametrize(
        "f,W,p,n,depth",
        [
            (["x^2 - y^3"], ["x", "y"], 3, 1, 2),
            (["x^2 - y^3"], ["x", "y"], 3, 2, 2),
            (["x^2 - y^3"], ["x", "y"], 2, 2, 3),
            (["x^2 - y^2"], ["x", "y"], 3, 1, 2),
            (["x - y"], [], 3, 1, 2),
            (["x*y"], ["x", "y"], 3, 1, 2),
            (["x^2 + y^2"], ["x", "y"], 3, 1, 2),
            (["x^3 - y^2"], ["x", "y"], 2, 2, 3),
            ([], ["x"], 5, 1, 2),
            (["x^2"], [], 3, 2, 2),
        ],
    )
    def test_counts_match(self, f, W, p, n, depth):
        expect = naive_liftable(f, W, p, n, depth)
        got = count_liftable(f, W, p, n, depth)
        assert got.count == expect, (got.count, expect)


class TestSpecialSystems:
    def test_single_coordinate(self):
        for n in (0, 2, 5):
            r = count_liftable(["x1"], [], 7, n, 4)
            assert (r.count, r.certified) == (1, True)
            assert r.method == "hensel-certified"

    def test_empty_system(self):
        for p in (3, 7):
            r = count_liftable([], [], p, 2, 3)
            assert (r.count, r.certified) == (p**3, True)

    def test_result_fields(self):
        r = count_liftable(["x1"], [], 5, 1, 3)
        assert r.count == 1 and r.certified is True

    def test_smooth_point_certifies_immediately(self):
        # unit derivative at the root: Hensel applies at once
        r = count_liftable(["x - y^2"], ["x", "y"], 5, 3, 4)
        assert r.certified
        assert r.count == count_liftable(["x - y^2"], ["x", "y"], 5, 3, 10).count


class TestOrdp:
    @pytest.mark.parametrize(
        "value,p,order",
        [
            (0, 2, math.inf),
            (0, 7, math.inf),
            (1, 2, 0),
            (-1, 3, 0),
            (12, 2, 2),
            (-12, 2, 2),
            (-12, 3, 1),
            (-343, 7, 3),
            (2**64, 2, 64),
            (-(2**64), 2, 64),
            (3 * 5**40, 5, 40),
            (-(7**100) * 6, 7, 100),
            (7**100 + 1, 7, 0),
        ],
    )
    def test_values(self, value, p, order):
        assert _ordp(value, p) == order


def _shifted(nvars: int, terms: dict, s: tuple[int, ...]) -> IntPoly:
    """The polynomial sum c * prod (x_i - s_i)^e_i over terms {e: c}, expanded."""
    out: dict = {}
    for e, c in terms.items():
        for k in itertools.product(*(range(ei + 1) for ei in e)):
            coeff = c
            for ei, ki, si in zip(e, k, s):
                coeff *= math.comb(ei, ki) * (-si) ** (ei - ki)
            out[k] = out.get(k, 0) + coeff
    return IntPoly.make(nvars, out)


@st.composite
def singular_points(draw):
    """The curve u X^2 + v Y^5 at n = 2, its singular point moved to a drawn integer point.

    X = x - s1 and Y = y - s2; u, v are units mod p, and an optional term
    c X^i Y^j above the Newton edge (5i + 2j > 10) keeps the singularity's
    type.  The locus is the singular point mod p.  At p = 3 and 5 the tree
    splits the owners near the point below level n+1, and several of their
    cells reach the Hensel test, so once one certifies the rest are pruned.
    """
    p = draw(st.sampled_from([3, 5]))
    units = [c for c in (1, -1, 2, -2) if c % p]
    terms = {(2, 0): draw(st.sampled_from(units)), (0, 5): draw(st.sampled_from(units))}
    if draw(st.booleans()):
        i, j = draw(st.sampled_from([(i, j) for i in range(4) for j in range(4) if 5 * i + 2 * j > 10]))
        terms[(i, j)] = terms.get((i, j), 0) + draw(st.sampled_from([1, -1, p, -p]))
    s = (draw(st.integers(-20, 20)), draw(st.integers(-20, 20)))
    polys = [_shifted(2, terms, s)]
    locus = [_shifted(2, {(1, 0): 1}, s), _shifted(2, {(0, 1): 1}, s)]
    return polys, locus, p, 2, draw(st.integers(8, 10))


class TestAgainstReferenceTree:
    """`count_liftable` against the unpruned tree with direct evaluation and the p-order Hensel bound."""

    @settings(max_examples=100)
    @given(st.data())
    def test_matches_reference(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
        nvars = data.draw(st.integers(1, 3), label="nvars")
        n = data.draw(st.integers(0, 3), label="n")
        depth = data.draw(st.integers(0, 6), label="depth")
        polys = []
        for _ in range(data.draw(st.integers(1, 2), label="polys")):
            terms = {}
            if data.draw(st.booleans(), label="binomial"):
                # c1 x_i^a + c2 x_j^b, singular at the origin, plus terms divisible by p
                for c in (data.draw(st.sampled_from([1, -1, 2])), data.draw(st.sampled_from([1, -1, 3]))):
                    expo = [0] * nvars
                    expo[data.draw(st.integers(0, nvars - 1))] = data.draw(st.integers(2, 4))
                    terms[tuple(expo)] = c
            for _ in range(data.draw(st.integers(0 if terms else 1, 3))):
                expo = tuple(data.draw(st.integers(0, 3)) for _ in range(nvars))
                terms[expo] = data.draw(st.integers(-4, 4)) * p ** data.draw(st.integers(0, 2))
            polys.append(IntPoly.make(nvars, terms))
        locus = [IntPoly.make(nvars, {(1,) + (0,) * (nvars - 1): 1})] if data.draw(st.booleans()) else []
        budget = 4000
        try:
            want = ref_count_liftable(polys, locus, p, n, depth, budget)
        except BudgetExceeded:
            assume(False)
        got = count_liftable(polys, locus, p, n, depth, budget=budget)
        assert (got.count, got.certified) == (want.count, want.certified)
        assert got.nodes <= want.nodes

    @pytest.mark.parametrize(
        "f,p,n,depth",
        [("x^2 - y^3", 3, 4, 10), ("y^3 - x^4", 2, 4, 10), ("y^3 - x^4", 5, 3, 10)],
    )
    def test_owner_prune_matches_reference(self, f, p, n, depth):
        polys = [IntPoly.parse(f)]
        want = ref_count_liftable(polys, [IntPoly.parse("x").widen(2), IntPoly.parse("y")], p, n, depth, 10**5)
        got = count_liftable(polys, ["x", "y"], p, n, depth)
        assert (got.count, got.certified) == (want.count, want.certified)
        assert got.nodes < want.nodes  # the prune skipped cells of certified owners

    # no shrinking: each case of the batch costs up to a second
    @settings(max_examples=2, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(st.lists(singular_points(), min_size=10, max_size=10))
    def test_owner_prune_at_singular_points(self, cases):
        fewer = 0
        for polys, locus, p, n, depth in cases:
            want = ref_count_liftable(polys, locus, p, n, depth, 10**5)
            got = count_liftable(polys, locus, p, n, depth)
            assert (got.count, got.certified) == (want.count, want.certified)
            fewer += got.nodes < want.nodes
        assert 2 * fewer > len(cases)  # the prune fired on most of them

    def test_uncertified_owner_is_not_pruned(self):
        # a residue first reached by a stabilized, uncertified cell is certified by a later one
        polys = [IntPoly.parse("-18*x2^2 - 18*x1^2*x2^3 + x1^3 + 3*x1^4")]
        want = ref_count_liftable(polys, [], 3, 2, 5, 10**5)
        got = count_liftable(polys, [], 3, 2, 5)
        assert (got.count, got.certified) == (want.count, want.certified) == (3, True)


def _random_system(rng: random.Random, p: int, nvars: int, equations: int) -> list[IntPoly]:
    """Equations with terms of p-power coefficients, any constant term divisible by p.

    Half carry a diagonal part c_i x_i^{a_i}, singular at the origin; most carry
    a linear term p^j x_i, j <= 2, so the gradient has positive order on cells.
    """
    polys = []
    for _ in range(equations):
        terms = {}
        if rng.random() < 0.5:
            for i in range(nvars):
                terms[tuple(rng.randint(2, 4) * (j == i) for j in range(nvars))] = rng.choice([1, -1, 2, 3])
        if rng.random() < 0.7:
            i = rng.randrange(nvars)
            terms[tuple(int(j == i) for j in range(nvars))] = rng.choice([1, -1]) * p ** rng.choice([0, 0, 1, 2])
        for _ in range(rng.randint(1, 3)):
            expo = tuple(rng.randint(0, 2) for _ in range(nvars))
            terms[expo] = terms.get(expo, 0) + rng.choice([1, -1, 2]) * p ** rng.randint(not any(expo), 2)
        polys.append(IntPoly.make(nvars, terms))
    return polys


def _variables(nvars: int, k: int) -> list[IntPoly]:
    """x_1 .. x_k in nvars variables: the locus of their common zero mod p."""
    return [IntPoly.make(nvars, {tuple(int(i == j) for i in range(nvars)): 1}) for j in range(k)]


def _seeded_sweep(p: int):
    """The seeded systems of the cell-certificate sweep at p, as (polys, locus, n, depth, reference
    result); a system whose reference tree needs more than 10 000 nodes is left out."""
    for nvars in (2, 3):
        rng = random.Random(100 * p + nvars)
        small = p**nvars < 400  # else one level and a line as locus keep the reference tree small
        for _ in range(12):
            polys = _random_system(rng, p, nvars, rng.choice([1, 1, 2]))
            locus = _variables(nvars, rng.choice([0, 1, nvars]) if small else nvars - 1)
            n, depth = rng.randint(1, 3 if small else 1), rng.randint(0, 5)
            try:
                want = ref_count_liftable(polys, locus, p, n, depth, 10_000)
            except BudgetExceeded:
                continue
            yield polys, locus, n, depth, want


class TestCellCertificate:
    """Counting a smooth cell's residues at once, against the tree without it and a brute-force lift."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_seeded_sweep_matches_reference(self, p):
        fired = compared = 0
        for polys, locus, n, depth, want in _seeded_sweep(p):
            got = count_liftable(polys, locus, p, n, depth)
            assert (got.count, got.certified) == (want.count, want.certified), (polys, locus, n, depth)
            compared += 1
            # the reference branches where a certificate stops, so firing saves nodes
            if len(polys) == 1 and ref_certified_cells(polys[0], locus, p, n, depth):
                fired += 1
                assert got.nodes < want.nodes
            else:
                assert got.nodes <= want.nodes
        assert compared >= 10 and fired >= 3, (compared, fired)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_sampled_residues_of_certified_cells_lift(self, p):
        """Each residue y' of the non-pivot coordinates of a certified cell has exactly one pivot residue that lifts."""
        rng = random.Random(p)
        checked = 0
        while checked < 12:
            nvars = rng.choice([2, 3])
            f = _random_system(rng, p, nvars, 1)[0]
            n, depth = rng.randint(1, 3), rng.randint(0, 3)
            cells = ref_certified_cells(f, [], p, n, depth)
            for b, S in rng.sample(cells, min(2, len(cells))):
                N = n + 1 - S
                gradient = [_ordp(d.eval(b), p) for d in ref_gradient(f)]
                k = gradient.index(min(gradient))
                for _ in range(2):
                    rest = [rng.randrange(p**N) for _ in range(nvars - 1)]
                    lifting = []
                    for t in range(p**N):
                        y = rest[:k] + [t] + rest[k:]
                        x = tuple(c + p**S * d for c, d in zip(b, y))
                        if ref_lifts(f, p, x, n + 1, n + 1 + depth):
                            lifting.append(t)
                    assert len(lifting) == 1, (f, b, S, n, depth, rest, lifting)
                    checked += 1


class TestOneWalk:
    """Every level of one call against the reference tree of that level alone."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_seeded_sweep_rows_match_reference(self, p):
        compared = Counter()
        for nvars in (2, 3):
            rng = random.Random(1000 * p + nvars)
            small = p**nvars < 400  # else n = 1 and, with a locus, a line
            for equations, fixed, with_locus in itertools.product((1, 2, 3), (False, True), (False, True)):
                polys = _random_system(rng, p, nvars, equations)
                locus = _variables(nvars, (rng.choice([1, nvars]) if small else nvars - 1) if with_locus else 0)
                n = rng.randint(1, 3) if small else 1
                depth = rng.randint(0, 5) if fixed else None
                try:
                    top = count_liftable(polys, locus, p, n, depth, budget=10_000)
                    want = [
                        ref_count_liftable(polys, locus, p, k, default_depth(k) if depth is None else depth, 10_000)
                        for k in range(n + 1)
                    ]
                except BudgetExceeded:
                    continue
                rows = [*top.below, top]
                assert [(r.count, r.certified) for r in rows] == [(w.count, w.certified) for w in want], (
                    polys, locus, n, depth
                )
                assert all(r.below == () for r in top.below)
                assert rows[-2] == dataclasses.replace(count_liftable(polys, locus, p, n - 1, depth), below=())
                compared[equations, fixed, with_locus] += 1
        for i, kinds in enumerate([{1, 2, 3}, {False, True}, {False, True}]):  # equations, fixed depth, locus
            assert {key[i] for key in compared} == kinds, compared
        assert sum(compared.values()) >= 8, compared


class TestDeadChildSkip:
    """Flat children of order exactly H+1, charged at their parent and never pushed: each is dead at
    every level that branched at the parent, by direct evaluation over Z."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_every_skipped_child_is_dead(self, p, monkeypatch):
        child_test, charge = _System.surviving_children, _Level.charge
        parent = None  # (b, S, H) of the cell whose children the walk is taking
        child = None  # the child the walk is deciding
        skipped: dict = {}  # (child, S + 1) -> (H, the levels it was charged to)

        def children(system, b, S, values, H, jets):
            nonlocal parent, child
            parent = (b, S, H)
            for child, flat in child_test(system, b, S, values, H, jets):
                yield child, flat
            child = None

        def charged(level, nodes):
            if child is not None:  # a charge while a child is decided: the walk skipped it
                assert nodes == 1
                skipped.setdefault((child, parent[1] + 1), (parent[2], []))[1].append(level.n)
            charge(level, nodes)

        monkeypatch.setattr(_System, "surviving_children", children)
        monkeypatch.setattr(_Level, "charge", charged)
        checked = 0
        for nvars in (2, 3):
            rng = random.Random(7000 * p + nvars)
            for _ in range(12):
                # a diagonal singularity sum c_i X_i^{a_i}, a_i >= 2, plus terms divisible by p, at a
                # drawn point s (X = x - s), sometimes with a second equation; the locus is s mod p
                terms = {}
                for i in range(nvars):
                    terms[tuple(rng.randint(2, 4) * (j == i) for j in range(nvars))] = rng.choice([1, -1, 2, 3])
                for _ in range(rng.randint(0, 2)):
                    expo = tuple(rng.randint(0, 3) for _ in range(nvars))
                    terms[expo] = terms.get(expo, 0) + rng.choice([1, -1]) * p ** rng.randint(1, 2)
                s = tuple(rng.randint(-9, 9) for _ in range(nvars))
                polys = [_shifted(nvars, terms, s)] + _random_system(rng, p, nvars, int(rng.random() < 0.3))
                units = [tuple(int(i == j) for i in range(nvars)) for j in range(rng.choice([0, 1, nvars]))]
                locus = [_shifted(nvars, {unit: 1}, s) for unit in units]
                n, depth = rng.randint(1, 3 if p**nvars < 400 else 1), rng.choice([None, rng.randint(0, 5)])
                skipped.clear()
                try:
                    count_liftable(polys, locus, p, n, depth, budget=20_000)
                except BudgetExceeded:
                    continue
                jacobian = [ref_gradient(poly) for poly in polys]
                for (b, S), (H, levels) in skipped.items():
                    F0 = min(_ordp(poly.eval(b), p) for poly in polys)
                    assert F0 == H + 1 < ref_cell_horizon(polys, p, b, S), (polys, b, S)
                    assert F0 <= 2 * ref_hensel_bound(jacobian, nvars, p, b)  # Hensel fails at every level
                    for k in levels:
                        assert F0 < k + 1 + (default_depth(k) if depth is None else depth)
                    checked += 1
        assert checked >= 10, checked

    def test_cusp_work(self, monkeypatch):
        """The cusp at p = 7, n = 5, depth 12 reads the horizon of 155 cells (497 when every child is
        popped), and its node rows stay those of the full walk."""
        horizon, calls = _System.horizon, 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return horizon(*args)

        monkeypatch.setattr(_System, "horizon", counted)
        top = count_liftable(["x^2 - y^3"], ["x", "y"], 7, 5, 12)
        assert [(r.count, r.certified, r.nodes) for r in [*top.below, top]] == TestCuspCrossMethod.TREE[7]
        assert calls <= 160, calls


class TestHensel:
    """The minimal order of the Jacobian minors, and the Jacobian it is read from, against the reference."""

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_minor_orders(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]), label="p")
        nvars = data.draw(st.integers(1, 3), label="nvars")
        b = tuple(data.draw(st.integers(0, p**4 - 1)) for _ in range(nvars))
        polys = []
        for _ in range(data.draw(st.integers(1, 4), label="polys")):
            terms = {}
            for _ in range(data.draw(st.integers(1, 3))):
                expo = tuple(data.draw(st.integers(0, 2)) for _ in range(nvars))
                terms[expo] = data.draw(st.sampled_from([1, -1, 2])) * p ** data.draw(st.integers(0, 3))
            polys.append(IntPoly.make(nvars, terms))
        v = ref_hensel_bound([ref_gradient(poly) for poly in polys], nvars, p, b)
        # the derivative cut at K keeps the gradient even at K = 1
        system = _System(polys, p, nvars, data.draw(st.integers(1, 4), label="K"))
        got, grad = system.hensel(b)
        assert got == v
        if grad is not None:  # the Jacobian at b, entry by entry
            rows = [[0] * nvars for _ in polys]
            for row, cols, values in zip(rows, system.gradient_vars, grad):
                for j, value in zip(cols, values):
                    row[j] = value
            assert rows == [[d.eval(b) for d in ref_gradient(poly)] for poly in polys]


class TestCuspCrossMethod:
    CUSP = BranchSpec.make(2, {3: 1})

    # (count, certified, nodes) of x^2 = y^3 at depth 12, the cusp-cross-method plans
    TREE = {
        7: [(1, True, 1), (1, True, 57), (4, True, 449), (43, True, 841), (298, True, 2451), (2080, True, 6329)],
        11: [(1, True, 1), (1, True, 133), (6, True, 1585), (111, True, 3037), (1216, True, 11859)],
    }

    @pytest.mark.parametrize("p", [7, 11])
    def test_depth_12_tree_is_pinned(self, p):
        # every level from the one walk at n_max, each exactly as the walk of that level alone
        top = count_liftable(["x^2 - y^3"], ["x", "y"], p, len(self.TREE[p]) - 1, 12)
        assert [(r.count, r.certified, r.nodes) for r in [*top.below, top]] == self.TREE[p]

    @pytest.mark.parametrize("p", [7, 11])
    def test_matches_branch_image_certified(self, p):
        for n in range(6):
            r = count_liftable(["x^2 - y^3"], ["x", "y"], p, n, max(6, 2 * n))
            assert r.certified, (p, n)
            assert r.count == count_branch_image(self.CUSP, p, 1, n), (p, n)

    def test_depth_zero_counts_plain_solutions(self):
        r = count_liftable(["x^2 - y^3"], ["x", "y"], 7, 2, 0)
        assert r.count == 343  # every (x,y) = (pX, p^2..) residue solves mod p^3
        assert not r.certified
        assert r.method == "stabilized-uncertified"

    def test_monotone_stabilization(self):
        counts = []
        stable_from = None
        for depth in range(9):
            r = count_liftable(["x^2 - y^3"], ["x", "y"], 7, 2, depth)
            counts.append(r.count)
            if r.certified and stable_from is None:
                stable_from = depth
        assert counts == sorted(counts, reverse=True)
        assert stable_from is not None
        assert len(set(counts[stable_from:])) == 1


class TestBudget:
    def test_tree_budget(self):
        with pytest.raises(BudgetExceeded):
            count_liftable(["x^2 - y^3"], ["x", "y"], 11, 5, 10, budget=1000)

    def test_each_level_is_charged_its_own_nodes(self):
        # the cusp at p = 7, depth 12 takes 1, 57, 449, 841, 2451 and 6329 nodes at n = 0..5
        with pytest.raises(BudgetExceeded, match="^cell tree exceeded budget of 3000 nodes$"):
            count_liftable(["x^2 - y^3"], ["x", "y"], 7, 5, 12, budget=3000)
        # levels 0..4 fit one by one, though together they take 3799 nodes
        top = count_liftable(["x^2 - y^3"], ["x", "y"], 7, 4, 12, budget=3000)
        assert [r.nodes for r in [*top.below, top]] == [1, 57, 449, 841, 2451]

    def test_derivative_budget(self):
        # (2 + 1)(3 + 1) - 1 = 11 derivatives of x^2 y^3, 7 of x^7: 18 in all, charged before any is taken
        with pytest.raises(BudgetExceeded, match="^18 Hasse derivatives exceed budget 17$"):
            count_liftable(["x^2 * y^3", "x^7"], [], 2, 0, 0, budget=17)
        assert count_liftable(["x^2 * y^3", "x^7"], [], 2, 0, 0, budget=18).count == 2  # x = 0, any y

    def test_high_degree_takes_only_the_jets_below_K(self):
        # 40 001 Hasse derivatives of x^20000 are within the budget; only the 7 with |a| < K = 7 are taken
        r = count_liftable(["x^20000 - y"], [], 7, 0)
        assert (r.count, r.certified, r.nodes) == (7, True, 7)

    @pytest.mark.parametrize("f,p,n,depth", [("x^10", 2, 1, 1), ("x^4 - 4*y^6", 3, 1, 0), ("x^5*y^4", 3, 1, 0)])
    def test_dropped_jets_do_not_certify_a_stabilized_cell(self, f, p, n, depth):
        # the cells stabilize with every kept jet 0; only an all-zero system makes that exact
        polys = [IntPoly.parse(f).widen(2)]
        want = ref_count_liftable(polys, [], p, n, depth, 10**5)
        got = count_liftable(polys, [], p, n, depth)
        assert (got.count, got.certified) == (want.count, want.certified)
        assert not got.certified

    def test_root_budget(self):
        with pytest.raises(BudgetExceeded):
            count_liftable(["x1 + x2 + x3 + x4"], [], 13, 1, 1, budget=20_000)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            count_liftable(["x"], [], 5, -1, 3)
        with pytest.raises(ValueError):
            count_liftable(["x"], [], 5, 1, -1)

    def test_child_test_overflow_is_rejected(self):
        # (1 + 2 jets) * (p - 1)^2 >= 2^63 for this prime above 2^32: refused before any table is built
        with pytest.raises(ValueError, match="overflow the int64 child test"):
            count_liftable(["x^2"], [], 4294967311, 0, 1, budget=10**11)

    @pytest.mark.parametrize("p", [0, 1, 4, -3])
    def test_non_prime_is_rejected(self, p):
        with pytest.raises(ValueError, match=f"^p = {p} is not prime$"):
            count_liftable(["x^2 - y^3"], ["x", "y"], p, 2, 3)


class TestChildTest:
    """The F_p child test of a branching cell and its flat flags against the point-by-point filter
    and gradients over Z."""

    @settings(max_examples=300)
    @given(st.data())
    def test_matches_pointwise_filter(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7, 13]), label="p")
        nvars = data.draw(st.integers(1, 3), label="nvars")
        if data.draw(st.booleans(), label="p^K >= 2^61"):
            K = data.draw(st.integers(math.ceil(61 / math.log2(p)), 70), label="K")
        else:
            K = data.draw(st.integers(2, 10), label="K")
        S = data.draw(st.integers(1, min(K - 1, 4)), label="S")
        b = tuple(data.draw(st.integers(0, p**S - 1)) for _ in range(nvars))
        polys = []
        for _ in range(data.draw(st.integers(1, 3))):
            terms = {}
            for _ in range(data.draw(st.integers(1, 4))):
                expo = tuple(data.draw(st.integers(0, 3)) for _ in range(nvars))
                coeff = data.draw(st.integers(-6, 6)) * p ** data.draw(st.integers(0, 3))
                terms[expo] = coeff
            # the constant term puts f(b) at a drawn order (or makes it 0) so the cell can branch
            origin = (0,) * nvars
            terms.pop(origin, None)
            rest = IntPoly.make(nvars, terms).eval(b)
            e = data.draw(st.one_of(st.none(), st.integers(S, K + 1)))
            target = 0 if e is None else data.draw(st.sampled_from([-1, 1, 2, p - 1])) * p**e
            terms[origin] = target - rest
            polys.append(IntPoly.make(nvars, terms))
        system = _System(polys, p, nvars, K)
        values = system.values(b)
        H, jets = system.horizon(b, S)
        # the jets of order |a| >= K are not taken; they have scaled order >= K
        assert min(H, K) == min(ref_cell_horizon(polys, p, b, S), K)
        assume(H <= min(_ordp(v, p) for v in values) and H < K)  # the cell branches
        got = system.surviving_children(b, S, values, H, jets)
        assert got == list(zip(ref_surviving_children(polys, p, K, b, S), ref_flat_children(polys, p, K, b, S)))


class TestChildTestMemo:
    """The child test and its flat flags, looked up by coefficient vector mod p after their first
    evaluation, against the point-by-point filter on every branching cell of the seeded sweep."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_memo_matches_pointwise_filter_on_the_seeded_sweep(self, p, monkeypatch):
        child_test = _System.surviving_children
        systems: dict[int, _System] = {}
        cells = flat = 0

        def checked(system, b, S, values, H, jets):
            nonlocal cells, flat
            got = child_test(system, b, S, values, H, jets)
            K = n + 1 + depth
            want = list(zip(ref_surviving_children(polys, p, K, b, S), ref_flat_children(polys, p, K, b, S)))
            assert got == want, (polys, b, S)
            systems[id(system)] = system
            cells += 1
            flat += sum(is_flat for _, is_flat in got)
            return got

        monkeypatch.setattr(_System, "surviving_children", checked)
        for polys, locus, n, depth, want in _seeded_sweep(p):
            got = count_liftable(polys, locus, p, n, depth)
            assert (got.count, got.certified) == (want.count, want.certified)
        vectors = sum(len(system.survivors) for system in systems.values())
        assert 0 < vectors < cells, (vectors, cells)  # some cells were answered from the memo
        assert flat > 0, cells
