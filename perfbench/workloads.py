"""Seeded workloads: the fixed list of operations one round runs, with checks.

A workload is a list of :class:`Op`.  ``run`` is the timed call into the
program; ``check`` compares its output with values from :mod:`oracle`,
computed apart from the program.  Every round replays the same list, so a
round always attempts the same operations.

The seed draws coefficient values, primes among equal-cost choices, formula
constants and the order of requests.  The shapes that set the cost of an
operation (multiplicities, characteristic exponents, primes of the
enumerations, truncation orders) are fixed, so runs with different seeds
measure the same amount of work.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import oracle

from arczeta import cli, counting, verifier
from arczeta import branch as branch_mod
from arczeta import ratseries

def invoke_cli(args: list[str]) -> tuple[int, str]:
    """One CLI request in this process: (exit code, standard output)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args, prog_name="arczeta", standalone_mode=False)
            code = 0
        except SystemExit as exc:  # sys.exit(None) means success, a message means failure
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


# The benchmark's own bindings of the program's entry points.  The traced
# run wraps these attributes, like the bindings inside the package.
lib = SimpleNamespace(
    cli=invoke_cli,
    run_plan=verifier.run_plan,
    characteristic_sequence=branch_mod.characteristic_sequence,
    p_ar=branch_mod.p_ar,
    p_geom=branch_mod.p_geom,
    rs_specialize=ratseries.rs_specialize,
    count_branch_image=counting.count_branch_image,
    count_branch_report=counting.count_branch_report,
)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    key: Callable[[Any], Any] = lambda out: out


# ---------------------------------------------------------------------------
# branches

# (beta, e, N), chosen first; characteristic_sequence must return exactly these.
SHAPES = {
    "2;3": ((2, 3), (2, 1), (1, 2)),
    "2;5": ((2, 5), (2, 1), (1, 2)),
    "3;4": ((3, 4), (3, 1), (1, 3)),
    "3;5": ((3, 5), (3, 1), (1, 3)),
    "4;5": ((4, 5), (4, 1), (1, 4)),
    "4;6,7": ((4, 6, 7), (4, 2, 1), (1, 2, 4)),
    "4;6,9": ((4, 6, 9), (4, 2, 1), (1, 2, 4)),
    "6;8,9": ((6, 8, 9), (6, 2, 1), (1, 3, 6)),
    "6;9,10": ((6, 9, 10), (6, 3, 1), (1, 2, 6)),
    "8;10,13": ((8, 10, 13), (8, 2, 1), (1, 4, 8)),
    "8;12,14,15": ((8, 12, 14, 15), (8, 4, 2, 1), (1, 2, 4, 8)),
    "9;12,14": ((9, 12, 14), (9, 3, 1), (1, 3, 9)),
    "10;14,15": ((10, 14, 15), (10, 2, 1), (1, 5, 10)),
    "10;15,17": ((10, 15, 17), (10, 5, 1), (1, 2, 10)),
}

# Values whose prime factors are 2 and 3 only: nonzero modulo every prime the
# enumerations use, so a seeded value never changes the branch mod p.
_INTS = (1, 2, 3, 4, 6, 8, 9)


def _value(rng: random.Random, rational: bool) -> Fraction:
    num = rng.choice(_INTS) * rng.choice((1, -1))
    return Fraction(num, rng.choice((2, 3, 4, 8, 9))) if rational else Fraction(num)


@dataclass(frozen=True)
class Branch:
    beta: tuple[int, ...]
    e: tuple[int, ...]
    N: tuple[int, ...]
    coeffs: tuple[tuple[int, Fraction], ...]

    @property
    def m(self) -> int:
        return self.beta[0]

    def spec(self):
        return branch_mod.BranchSpec.make(self.m, dict(self.coeffs))

    def to_json(self) -> dict:
        return {"m": self.m, "coeffs": [[j, str(a)] for j, a in self.coeffs]}


def make_branch(rng: random.Random, name: str, rational: bool = False, fillers: int = 0) -> Branch:
    """Characteristic terms with seeded values, plus ``fillers`` terms that
    keep the characteristic sequence (exponents divisible by the running e)."""
    beta, e, N = SHAPES[name]
    coeffs = {b: _value(rng, rational) for b in beta[1:]}
    allowed = [
        j
        for j in range(beta[0] + 1, beta[-1] + 6)
        if j not in coeffs and j % e[sum(1 for b in beta[1:] if b < j)] == 0
    ]
    for j in rng.sample(allowed, min(fillers, len(allowed))):
        coeffs[j] = _value(rng, rational)
    return Branch(beta, e, N, tuple(sorted(coeffs.items())))


def _branch_json_ok(br: Branch, payload: dict, q: int, order: int) -> bool:
    if (tuple(payload["beta"]), tuple(payload["e"]), tuple(payload["N"])) != (br.beta, br.e, br.N):
        return False
    if payload["recovered_exponents"] != list(br.beta[1:]):
        return False
    poles = sorted(Fraction(br.m, b) - 1 for b in br.beta[1:])
    if [Fraction(a) for a in payload["poles"]] != poles:
        return False
    for key in ("p_ar", "p_geom"):
        back = ratseries.rs_from_json(payload[key])
        again = ratseries.rs_to_json(back)
        if again != payload[key] or not ratseries.rs_equal(back, ratseries.rs_from_json(again)):
            return False
    par = oracle.series_json_coeffs(payload["p_ar"], q, order)
    geom = oracle.series_json_coeffs(payload["p_geom"], q, order)
    return all(
        par[n] == oracle.par_coeff(br.beta, br.N, q, n) and geom[n] == oracle.pgeom_coeff(br.m, q, n)
        for n in range(order + 1)
    )


def _ok_json(code_out: tuple[int, str]):
    """The JSON a CLI request printed, or None when it exited with an error."""
    code, text = code_out
    return json.loads(text) if code == 0 else None


# ---------------------------------------------------------------------------
# series-queries


def _branch_request(br: Branch, path: Path, normalize: bool) -> Op:
    args = ["branch", "--input", str(path), "--format", "json"] + (["--normalize"] if normalize else [])
    # the smallest admissible prime: p = 1 mod m, p > m
    q = next(p for p in (3, 5, 7, 11, 13, 17, 19, 29, 31, 37, 41, 61) if p > br.m and (p - 1) % br.m == 0)

    def check(out) -> bool:
        payload = _ok_json(out)
        return payload is not None and _branch_json_ok(br, payload, q, 3 * br.m + 4)

    return Op("branch", lambda: lib.cli(args), check)


def _specialize_request(br: Branch, which: str, p: int, order: int) -> Op:
    spec = br.spec()

    def run():
        c = lib.characteristic_sequence(spec)
        series = lib.p_ar(c) if which == "p_ar" else lib.p_geom(c)
        return tuple(lib.rs_specialize(series, p).taylor(order))

    def check(out) -> bool:
        if which == "p_ar":
            want = [oracle.par_coeff(br.beta, br.N, p, n) for n in range(order + 1)]
        else:
            want = [oracle.pgeom_coeff(br.m, p, n) for n in range(order + 1)]
        return list(out) == want

    return Op("specialize", run, check)


def _igusa_request(ks: tuple[int, ...], p: int, verdict: bool, n_max: int) -> Op:
    args = ["igusa", *[a for k in ks for a in ("-k", str(k))], "--format", "json"]
    if verdict:
        args += ["-p", str(p), "--n-max", str(n_max)]

    def check(out) -> bool:
        payload = _ok_json(out)
        if payload is None:
            return False
        want = [oracle.igusa_coeff(ks, p, n) for n in range(n_max + 1)]
        if not verdict:
            return oracle.series_json_coeffs(payload, p, n_max) == want
        rows = payload["rows"]
        return (
            payload["summary"] == "pass"
            and [r["n"] for r in rows] == list(range(n_max + 1))
            and all(Fraction(r["symbolic"]) == Fraction(r["counted"]) == want[r["n"]] for r in rows)
        )

    return Op("igusa", lambda: lib.cli(args), check)


def _qe_request(f) -> Op:
    text = oracle.to_text(f)
    args = ["presburger", "qe", text, "--format", "json"]
    box = 10

    def check(out) -> bool:
        payload = _ok_json(out)
        if payload is None:
            return False
        try:
            g = oracle.parse_qf(payload["result"])
        except oracle.NotQuantifierFree:
            return False
        fv = sorted(oracle.free_vars(f))
        if not oracle.free_vars(g) <= set(fv):
            return False
        window = oracle.quantifier_window(f, box)
        for pt in _box_points(len(fv), box):
            env = dict(zip(fv, pt))
            if oracle.holds(g, env, window) != oracle.holds(f, env, window):
                return False
        return True

    return Op("presburger", lambda: lib.cli(args), check)


def _box_points(k: int, box: int):
    return product(range(-box, box + 1), repeat=k)


def _sum_request(f, order: list[str], lweight: dict[str, int], tweight: dict[str, int], tmax: int = 30) -> Op:
    args = [
        "presburger", "sum",
        "--set", oracle.to_text(f),
        "--order", ",".join(order),
        "--lweight", oracle.lin_text(lweight, 0),
        "--tweight", oracle.lin_text(tweight, 0),
        "--format", "json",
    ]

    def check(out) -> bool:
        payload = _ok_json(out)
        if payload is None:
            return False
        # every point with T-weight <= tmax has coordinates in [0, tmax]: the
        # templates keep variables >= 0 and give each a T-weight >= 1
        want: list[dict[int, int]] = [{} for _ in range(tmax + 1)]
        for pt in _box_points(len(order), tmax):
            env = dict(zip(order, pt))
            if min(pt) < 0 or not oracle.holds(f, env, 0):
                continue
            n = sum(c * env[v] for v, c in tweight.items())
            if n <= tmax:
                e = -sum(c * env[v] for v, c in lweight.items())
                want[n][e] = want[n].get(e, 0) + 1
        got = ratseries.rs_expand(ratseries.rs_from_json(payload), tmax).coeffs
        return all(
            g.to_json() == [[e, str(c)] for e, c in sorted(w.items())] for g, w in zip(got, want)
        )

    return Op("presburger", lambda: lib.cli(args), check)


def _cmp(coeffs, const, rel):
    return ("cmp", coeffs, const, rel)


def _qe_formulas(rng: random.Random) -> list:
    """Templates in the style of the test corpus with seeded constants.

    Each template keeps its witnesses inside the evaluator's window, and
    Cooper elimination stays in milliseconds on all of them.
    """
    r = rng.randint
    a, b = rng.choice(((2, 3), (3, 4), (2, 5), (3, 5)))
    M, K = rng.choice((3, 4, 5)), rng.choice((2, 3))
    return [
        ("E", "y", ("and", [_cmp({"x": 1, "y": -r(2, 5)}, -r(0, 4), "="), _cmp({"y": 1}, -r(-3, 3), ">=")])),
        ("E", "y", ("and", [_cmp({"y": a, "x": -1}, 0, "<="), _cmp({"y": b, "x": -1}, 0, ">=")])),
        ("E", "y", ("and", [
            ("cong", {"x": 1, "y": 1}, -r(0, M - 1), M),
            ("cong", {"y": 1}, -r(0, K - 1), K),
            _cmp({"y": 1}, 0, ">="),
            _cmp({"y": 1}, -r(8, 20), "<="),
        ])),
        ("A", "y", ("or", [_cmp({"y": 1, "x": -1}, 0, "<"), _cmp({"y": 1, "x": -1}, r(3, 12), ">")])),
        ("E", "y", ("and", [_cmp({"y": a, "x": -1}, 0, "<"), _cmp({"x": 1, "y": -a}, -a, "<")])),
        ("E", "z", ("E", "y", ("and", [
            _cmp({"z": 1}, 0, ">="), _cmp({"y": 1}, 0, ">="), _cmp({"x": 1, "y": -a, "z": -b}, 0, "="),
        ]))),
        ("E", "y", ("or", [
            ("and", [_cmp({"y": 1}, 0, ">="), _cmp({"x": 1, "y": -a}, 0, "=")]),
            ("and", [_cmp({"y": 1}, 0, "<"), _cmp({"x": 1, "y": -b}, 0, "=")]),
        ])),
        ("A", "z", ("or", [
            _cmp({"z": 1, "x": -1}, 0, "<"),
            ("cong", {"x": 1, "z": 1}, -r(0, M - 1), M),
            _cmp({"z": 1, "x": -1}, -r(4, 9), ">"),
        ])),
        ("and", [_cmp({"x": 1}, -r(-6, 0), ">="), _cmp({"x": 1}, -r(1, 9), "<="), ("cong", {"x": 1}, -r(0, K - 1), K)]),
        ("E", "y", ("and", [("cong", {"y": a * K}, -K, M * K), _cmp({"x": 1, "y": -1}, -r(0, 3), "=")])),
        ("E", "y", ("and", [("cong", {"x": 1, "y": -r(2, 7)}, -r(0, M - 1), M), _cmp({"x": 1, "y": -1}, 0, ">")])),
        ("E", "y", ("and", [
            _cmp({"x": 1, "y": -a, "z": -1}, 0, "="), _cmp({"y": 1}, 0, ">="),
            _cmp({"z": 1}, 0, ">="), _cmp({"z": 1}, -b, "<"),
        ])),
    ]


def _sum_templates(rng: random.Random) -> list:
    r = rng.randint
    k = rng.choice((2, 3, 4))
    c = rng.choice((2, 3))
    return [
        (("and", [_cmp({"n": 1}, -k, ">="), ("cong", {"n": 1}, 0, k)]), ["n"], {}, {"n": 1}),
        (_cmp({"n": 1}, -1, ">="), ["n"], {"n": -r(1, 3)}, {"n": r(2, 6)}),
        (("and", [_cmp({"a": 1}, 0, ">="), _cmp({"a": 1, "n": -1}, 0, "<="), _cmp({"n": 1}, 0, ">=")]),
         ["n", "a"], {"a": r(1, 2)}, {"n": 1}),
        (("and", [_cmp({"n": 1, "l": -k}, 0, ">="), _cmp({"l": 1}, -1, ">=")]), ["l", "n"], {"l": -1}, {"n": 1}),
        (("and", [_cmp({"l": k, "n": -1}, 0, "<="), _cmp({"n": 1, "l": -k}, -k, "<"), _cmp({"l": 1}, -1, ">=")]),
         ["l", "n"], {"l": k, "n": -1}, {"n": 1}),
        (("and", [_cmp({"n": 1, "l": -c}, -r(0, c - 1), "="), _cmp({"l": 1}, 0, ">=")]), ["l", "n"], {"l": 1}, {"n": 1}),
        (("or", [("and", [_cmp({"n": 1}, -2, ">="), ("cong", {"n": 1}, 0, c)]),
                 ("and", [_cmp({"n": 1}, -3, ">="), ("cong", {"n": 1}, 0, c + 1)])]), ["n"], {}, {"n": 1}),
    ]


# Specialization mix: (shape, series, prime choices of similar cost, requests per round).
_SPECIALIZE = [
    ("2;3", "p_ar", (7, 11, 13), 8),
    ("4;6,7", "p_ar", (13, 17), 8),
    ("3;4", "p_ar", (7, 13), 6),
    ("6;8,9", "p_ar", (13, 19), 5),
    ("2;5", "p_ar", (11, 13), 3),
    ("3;5", "p_ar", (13, 19), 3),
    ("4;6,9", "p_ar", (13, 17), 3),
    ("4;5", "p_ar", (5, 13), 2),
    ("6;9,10", "p_ar", (7, 13), 2),
    ("2;3", "p_geom", (7, 11, 13), 4),
    ("4;6,7", "p_geom", (5, 13), 4),
    ("8;12,14,15", "p_geom", (17, 41), 3),
    ("10;14,15", "p_geom", (11, 31), 2),
    ("8;10,13", "p_ar", (17,), 4),
    ("9;12,14", "p_ar", (19,), 4),
    ("10;14,15", "p_ar", (11,), 4),
    ("10;15,17", "p_ar", (11,), 2),
]

# CLI branch requests per shape (popular shapes repeat).
_BRANCH_POPULARITY = [
    ("4;6,7", 14), ("2;3", 10), ("3;4", 8), ("6;8,9", 7), ("2;5", 6), ("4;6,9", 5), ("3;5", 4),
    ("4;5", 4), ("6;9,10", 3), ("9;12,14", 3), ("8;10,13", 2), ("10;14,15", 2), ("10;15,17", 1),
    ("8;12,14,15", 1),
]

_IGUSA = [((1,), 8), ((2,), 6), ((1, 1), 6), ((1, 2), 5), ((2, 3), 5), ((1, 1, 2), 4), ((3,), 3), ((1, 3), 3)]


def series_queries(rng: random.Random, tmp: Path) -> tuple[list[Op], Op]:
    branches = {
        name: make_branch(rng, name, rational=rng.random() < 0.4, fillers=rng.randint(0, 2)) for name in SHAPES
    }
    paths = {}
    for i, (name, br) in enumerate(sorted(branches.items())):
        paths[name] = tmp / f"branch-{i}.json"
        paths[name].write_text(json.dumps(br.to_json()))
    # a repeated request is the same Op object, so its output is checked once
    ops: list[Op] = []
    for name, count in _BRANCH_POPULARITY:
        br = branches[name]
        plain, norm = (_branch_request(br, paths[name], normalize) for normalize in (False, True))
        ops += [norm if k % 3 == 2 else plain for k in range(count)]
    for name, which, primes, count in _SPECIALIZE:
        ops += [_specialize_request(branches[name], which, rng.choice(primes), 24)] * count
    for ks, count in _IGUSA:
        p = rng.choice((3, 5, 7))
        series, verdict = (_igusa_request(ks, p, verdict, n_max=6) for verdict in (False, True))
        ops += [verdict if k % 2 else series for k in range(count)]
    qe = [_qe_request(f) for f in _qe_formulas(rng)]
    ops += [qe[i % len(qe)] for i in range(20)]
    sums = [_sum_request(*t) for t in _sum_templates(rng)]
    ops += [sums[i % len(sums)] for i in range(10)]
    rng.shuffle(ops)
    warm = _branch_request(branches["2;3"], paths["2;3"], normalize=True)
    return ops, warm


# ---------------------------------------------------------------------------
# enumeration and lifting


def _plan(target: str, br: Branch, p: int, n_max: int, **extra):
    return verifier.VerificationPlan(target=target, branch=br.spec(), primes=(p,), n_max=n_max, **extra)


def _plan_op(plan, br: Branch, p: int, expect: str) -> Op:
    """A plan whose every row must equal the stratum sum at q = p."""

    def want(n: int) -> Fraction:
        if plan.target == "branch-pgeom":
            return Fraction(oracle.pgeom_coeff(br.m, p, n))
        return oracle.par_coeff(br.beta, br.N, p, n)

    def check(verdict) -> bool:
        rows = verdict.rows
        if verdict.summary != expect or [r.n for r in rows] != list(range(plan.n_max + 1)):
            return False
        for r in rows:
            if not r.equal or r.symbolic != want(r.n) or r.counted != want(r.n):
                return False
            if r.counted_alt is not None and r.counted_alt != want(r.n):
                return False
            if plan.target == "cusp-cross-method" and not r.certified:
                return False
        return True

    return Op(plan.target, lambda: lib.run_plan(plan), check, key=lambda v: json.dumps(v.to_json(), sort_keys=True))


def _count_op(br: Branch, p: int, d: int, n: int, window: bool) -> Op:
    spec = br.spec()
    want = oracle.par_coeff(br.beta, br.N, p**d, n)
    return Op(
        "count",
        lambda: lib.count_branch_image(spec, p, d, n, window=window),
        lambda out: out == want,
    )


def _report_op(br: Branch, p: int, d: int, n_max: int) -> Op:
    spec = br.spec()
    want = tuple(oracle.par_coeff(br.beta, br.N, p**d, n) for n in range(n_max + 1))
    return Op(
        "report",
        lambda: lib.count_branch_report(spec, p, d, n_max),
        lambda out: tuple(r.count for r in out.rows) == want and [r.n for r in out.rows] == list(range(n_max + 1)),
        key=lambda rep: tuple((r.n, r.count) for r in rep.rows),
    )


def enum_window(rng: random.Random, tmp: Path) -> tuple[list[Op], Op]:
    def par(name, p, n_max, rational=False):
        br = make_branch(rng, name, rational=rational)
        return _plan_op(_plan("branch-par", br, p, n_max), br, p, "pass")

    ops = [
        par("4;6,7", 5, 10),
        par("4;6,7", 13, 7),
        par("6;8,9", 7, 10),
        par("6;8,9", 13, 9),
        par("2;3", 11, 5),
        par("3;4", 7, 7),
        par("4;6,7", 13, 7, rational=True),
    ]
    rng.shuffle(ops)
    return ops, par("2;3", 5, 3)


def _cross_op(br: Branch, poly: str, p: int, n_max: int) -> Op:
    """Lift counts at depth 12 (certifies to n = 4 for y^3 = x^4 at p = 7)."""
    plan = _plan("cusp-cross-method", br, p, n_max, poly=(poly,), depth=12)
    return _plan_op(plan, br, p, "pass")


def enum_ext(rng: random.Random, tmp: Path) -> tuple[list[Op], Op]:
    std4, cusp = (make_branch(rng, name) for name in ("4;6,7", "2;3"))

    def pgeom(br, p, n_max):
        return _plan_op(_plan("branch-pgeom", br, p, n_max), br, p, "uncertified")

    ops = [
        _count_op(std4, 5, 1, 7, window=False),
        _count_op(std4, 5, 1, 6, window=False),
        _count_op(cusp, 7, 1, 5, window=False),
        _report_op(std4, 5, 2, 6),
        _report_op(std4, 5, 3, 5),
        _report_op(cusp, 5, 3, 3),
        pgeom(cusp, 7, 4),
        pgeom(std4, 5, 4),
        _cross_op(cusp, "x^2 - y^3", 7, 5),
        _cross_op(cusp, "x^2 - y^3", 11, 4),
    ]
    rng.shuffle(ops)
    return ops, _report_op(cusp, 5, 2, 2)


WORKLOADS: dict[str, Callable[[random.Random, Path], tuple[list[Op], Op]]] = {
    "series-queries": series_queries,
    "enum-window": enum_window,
    "enum-ext": enum_ext,
}
