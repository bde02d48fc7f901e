"""Byte-exact CLI output against a recording.

``golden_cli.json`` maps each case name to its exit code, its stdout and, for
``verify --out``, the verdict file.  The bytes were recorded once and are not
regenerated: the verifier, count, igusa and presburger cases before the
verifier's four comparison loops became one, the ``branch`` cases before
specialisation and ``rs_normalize`` moved to integer arithmetic, the ``qe``,
``check`` and further ``sum`` cases before the Presburger layer merged its
relation tables, formula folds and negation normal forms (the two
``qe-coeff`` cases were recorded again when ``_make_cong`` began to fold a
congruence whose coefficient gcd does not divide its constant to false), the
``count-poly3`` and ``cusp34-cross-method`` cases before polynomial text moved
to the formula tokenizer, the ``p17`` cases when extension moduli began to be
derived instead of tabulated.  The four ``branch-*-latex`` cases were recorded
again when a lone negative numerator coefficient began to print as a
difference (``1 - \\mathbb{L} T``, not ``1 + -\\mathbb{L} T``).  A refactor must
reproduce them exactly.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from arczeta.branch import BranchSpec
from arczeta.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

CUSP = BranchSpec.make(2, {3: 1}).to_json()
STD4 = BranchSpec.make(4, {6: 1, 7: 1}).to_json()
CUSP34 = BranchSpec.make(3, {4: 1}).to_json()
# g = 3 with a rational coefficient: --normalize cancels a denominator factor
G3 = BranchSpec.make(8, {12: 1, 14: Fraction(1, 2), 15: 1}).to_json()

PLANS = {
    "branch-par": {"target": "branch-par", "branch": STD4, "primes": [3, 5, 7], "n_max": 4},
    "branch-par-fail": {"target": "branch-par", "branch": STD4, "primes": [7], "n_max": 4, "force_primes": True},
    "branch-pgeom": {"target": "branch-pgeom", "branch": CUSP, "primes": [3], "n_max": 3},
    # F_{17^2}: a field whose modulus is derived, not read from a table
    "branch-pgeom-p17": {"target": "branch-pgeom", "branch": CUSP, "primes": [17], "n_max": 3},
    "igusa-monomial": {"target": "igusa-monomial", "exponents": [1, 2], "primes": [3], "n_max": 3},
    "cusp-cross-method": {"target": "cusp-cross-method", "branch": CUSP, "primes": [5, 7], "n_max": 3},
    "cusp34-cross-method": {
        "target": "cusp-cross-method",
        "branch": CUSP34,
        "poly": ["y^3 - x^4"],
        "depth": 12,
        "primes": [7],
        "n_max": 4,
    },
}

POLY = ["--poly", "x^2 - y^3", "--origin", "-p", "5", "--n-max", "3"]
# numbered variables, a power of a parenthesised sum and an explicit locus
POLY3 = ["--poly", "(x1 + 2*x2)^2 - x3*x1^3", "--locus", "x1", "--locus", "x2", "-p", "3", "--n-max", "3"]

# qe inputs: each relation, a negated comparison and congruence, A, a
# non-unit coefficient and nested E
QE = {
    "le": "E y. x <= 2*y & y <= 3",
    "lt": "E y. x < 3*y & y < 2",
    "eq": "E y. x = 2*y + 1 & y >= 0",
    "gt": "E y. y > x & 2*y < x + 7",
    "not-cmp": "E y. !(x <= 2*y) & y >= 1",
    "not-cong": "E y. x = y + 1 & !(y == 0 mod 3)",
    "forall": "A y. !(2*y = x) | y >= 3",
    "coeff": "E y. 2*y <= x & 3*y >= x",
    "nested": "E z. E y. x = 2*y + 3*z & y >= 0 & z >= 0",
}

# the first set in every format, the others as text
SUMS = {
    "": ["--set", "n >= 2 & n == 0 mod 2 & l <= n & l >= 0", "--tweight", "n", "--lweight", "l"],
    "-or": ["--set", "(n >= 2 & n == 0 mod 2) | (n >= 3 & n == 0 mod 3)", "--tweight", "n"],
    "-eq": ["--set", "n = 2*l + 1 & l >= 0 & 3*l <= n + 4", "--tweight", "n", "--lweight", "l", "--order", "l,n"],
}

# name -> (argv with {plan}/{branch}/{out} placeholders, writes --out)
CASES = {
    **{
        f"verify-{name}-{fmt}": (["verify", "--plan", "{plan}", "--format", fmt, "--out", "{out}"], name)
        for name in PLANS
        for fmt in ("text", "json")
    },
    **{
        f"count-branch-{fmt}": (["count", "--branch", "{branch}", "-p", "5", "--n-max", "4", "--format", fmt], None)
        for fmt in ("csv", "json", "text")
    },
    "count-cusp-p17-d2-csv": (["count", "--branch", "{cusp}", "-p", "17", "--ext-degree", "2", "--n-max", "3"], None),
    **{f"count-poly-{fmt}": (["count", *POLY, "--format", fmt], None) for fmt in ("csv", "json", "text")},
    **{
        f"count-poly-shallow-{fmt}": (["count", *POLY, "--depth", "1", "--format", fmt], None)
        for fmt in ("csv", "json", "text")
    },
    "count-poly3-csv": (["count", *POLY3], None),
    **{
        f"branch-{name}{'-normalize' if norm else ''}-{fmt}": (
            ["branch", "--input", "{%s}" % name, "--format", fmt, *(["--normalize"] if norm else [])],
            None,
        )
        for name in ("std4", "g3")
        for norm in (False, True)
        for fmt in ("text", "json", "latex")
    },
    **{f"igusa-{fmt}": (["igusa", "-k", "1", "-k", "2", "--format", fmt], None) for fmt in ("text", "json", "latex")},
    **{f"igusa-p-{fmt}": (["igusa", "-k", "2", "-p", "3", "--n-max", "3", "--format", fmt], None) for fmt in ("text", "json")},
    **{
        f"presburger-sum{name}-{fmt}": (["presburger", "sum", *args, "--format", fmt], None)
        for name, args in SUMS.items()
        for fmt in ("text", "json", "latex")
        if not name or fmt == "text"
    },
    **{
        f"presburger-qe-{name}-{fmt}": (["presburger", "qe", formula, "--format", fmt], None)
        for name, formula in QE.items()
        for fmt in ("text", "json")
    },
    **{
        f"presburger-check-{x}": (["presburger", "check", "E y. x = 2*y + 3 & y >= 0", "--point", f"x={x}"], None)
        for x in (5, 4)
    },
}


def run_case(name: str, tmp_path: Path) -> dict:
    argv, plan_name = CASES[name]
    branch = tmp_path / "branch.json"
    branch.write_text(json.dumps(STD4))
    g3 = tmp_path / "g3.json"
    g3.write_text(json.dumps(G3))
    cusp = tmp_path / "cusp.json"
    cusp.write_text(json.dumps(CUSP))
    plan = tmp_path / "plan.json"
    out = tmp_path / "verdict.json"
    if plan_name is not None:
        plan.write_text(json.dumps(PLANS[plan_name]))
    argv = [a.format(plan=plan, branch=branch, std4=branch, g3=g3, cusp=cusp, out=out) for a in argv]
    r = CliRunner().invoke(main, argv)
    return {
        "exit": r.exit_code,
        "stdout": r.stdout,
        "out": out.read_text() if plan_name is not None else None,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_recording(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, tmp_path) == want


def test_every_recording_has_a_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)
