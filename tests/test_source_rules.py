"""Rules about the package source that a reader checks by hand otherwise.

No code in ``src/`` that only tests call: every public module-level function
and class of ``arczeta`` must be used somewhere else in ``src/`` or in
``perfbench/``.  A use is a name or attribute reference outside the name's
own definition; imports and ``__all__`` entries do not count.  Click commands
are reached through the command group and are skipped.

One stratum enumerator by rule: ``grid._stratum_keys`` is called in exactly
two places, ``counting._level_counts`` (every level of an image count, from
one enumeration per stratum at the top level) and
``counting.count_branch_image_geometric`` (whose F_p filter depends on the
level).

One series representation: every series is built and computed on the flat
integer numerator of ``RatSeries``, so ``TatePoly`` is only the type in which
a coefficient enters or leaves; only ``tate`` (which defines it),
``ratseries`` (which reads and writes it) and ``branch`` (whose stratum
classes are TatePolys) may name it.

No polynomial gcd in the series layer: ``arczeta.ratseries`` imports only
``poly_mul`` from ``arczeta.fq``.  Specialization returns the unreduced
quotient and every consumer reads its Taylor coefficients, so no gcd or F_P
certificate has work there.

One constraint vocabulary: the range decomposition carries presburger atoms
(``Cmp`` and ``Cong``) as its constraints, so the classes ``arczeta.ranges``
defines are exactly its errors, its range system and its summation term.

numpy only where arcs are enumerated: ``arczeta.grid`` is the one module
that imports numpy or ``concurrent.futures`` when it is loaded, so a fresh
process that only asks for series, Igusa forms or Presburger sums never
loads them; a count that enumerates loads them on first use.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from arczeta.branch import BranchSpec

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arczeta"

# module.name -> why it may stay in src/ without a caller there
EXCEPTIONS = {
    "branch.chi_c_arc_class": "the stratum-set derivation of P_ar (ROADMAP direction 4) gives it a caller",
    "branch.order_gap": "the contact orders of acceptance criterion 8",
    "counting.count_branch_strata": "the per-stratum counts whose sum is the window count; it reads the top"
    " level of `_level_counts`, the routine behind count_branch_image, so it adds no second code path",
}


def _references(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _is_click_command(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _uncalled() -> set[str]:
    """module.name of every public definition with no use outside itself."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses += _references(tree)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        uses += _references(ast.parse(path.read_text()))
    uncalled = set()
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef) and _is_click_command(node):
                continue
            if uses[node.name] - _references(node)[node.name] == 0:
                uncalled.add(f"{path.stem}.{node.name}")
    return uncalled


def test_public_code_in_src_has_a_caller_outside_tests():
    assert _uncalled() - set(EXCEPTIONS) == set()


def test_every_exception_still_lacks_a_caller():
    # an exception that gains a caller leaves the list
    assert set(EXCEPTIONS) <= _uncalled()


def _call_sites(name: str) -> Counter:
    """The calls of ``name`` (as a function or a method) in the package, by enclosing top-level definition."""
    sites = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = f"{path.stem}.{top.name}" if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else path.stem
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                    sites[where] += callee == name
    return +sites


def test_stratum_keys_has_two_call_sites():
    assert _call_sites("_stratum_keys") == Counter(
        {"counting._level_counts": 1, "counting.count_branch_image_geometric": 1}
    )


def test_one_cell_tree_walk():
    """Children are taken at one place only, so every level of a lift comes from the one walk."""
    assert _call_sites("surviving_children") == Counter({"liftable.count_liftable": 1})


def test_only_the_series_input_and_output_names_tatepoly():
    """Every series is built on the flat numerator: a module that imports or
    names TatePoly besides these three would be computing on the nested form."""
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
            names += [node.id] if isinstance(node, ast.Name) else [node.attr] if isinstance(node, ast.Attribute) else []
            if "TatePoly" in names:
                naming.add(path.stem)
    assert naming <= {"tate", "ratseries", "branch"}
    assert {"ratseries", "branch"} <= naming


def test_series_layer_takes_only_poly_mul_from_fq():
    taken = set()
    for node in ast.walk(ast.parse((PACKAGE / "ratseries.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "fq":
            taken |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # the module fq itself
            taken |= {"fq" for alias in node.names if alias.name.split(".")[-1] == "fq"}
    assert taken == {"poly_mul"}


def test_ranges_defines_no_constraint_type_of_its_own():
    tree = ast.parse((PACKAGE / "ranges.py").read_text())
    classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    assert classes == {"UnsupportedShape", "DivergentSum", "RangeVar", "Piece", "IteratedRangeSystem", "_Term"}


# modules that only the enumeration kernels need; arczeta.grid alone may load them
HEAVY = ("numpy", "concurrent.futures")


def _load_time_imports(tree: ast.Module) -> set[str]:
    """Every module an import statement outside function bodies names, with each
    ``from a import b`` also read as ``a.b``."""
    names = set()
    todo: list[ast.AST] = [tree]
    while todo:
        for node in ast.iter_child_nodes(todo.pop()):
            if isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names |= {module, *(f"{module}.{alias.name}" for alias in node.names)}
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                todo.append(node)
    return names


def test_only_the_grid_kernel_imports_numpy_at_load_time():
    heavy = {
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _load_time_imports(ast.parse(path.read_text()))
        if any(name == h or name.startswith(h + ".") for h in HEAVY)
    }
    assert heavy == {"grid"}


# one fresh interpreter: the symbolic requests first, then an enumerating count
_FRESH = """
import json, sys
from click.testing import CliRunner
import arczeta.cli, arczeta.counting, arczeta.verifier
from arczeta.branch import BranchSpec, characteristic_sequence, p_ar
from arczeta.ratseries import rs_specialize

branch = sys.argv[1]
symbolic = [
    ["branch", "--input", branch, "--format", "json"],
    ["igusa", "-k", "1", "-k", "2"],
    ["igusa", "-k", "2", "-p", "3", "--n-max", "3"],
    ["presburger", "qe", "E y. x = 2*y + 1 & y >= 0"],
    ["presburger", "sum", "--set", "n >= 2 & n == 0 mod 2 & l <= n & l >= 0", "--tweight", "n", "--lweight", "l"],
]
exits = [CliRunner().invoke(arczeta.cli.main, argv).exit_code for argv in symbolic]
rs_specialize(p_ar(characteristic_sequence(BranchSpec.make(4, {6: 1, 7: 1}))), 5).taylor(6)
before = "numpy" in sys.modules
count = CliRunner().invoke(arczeta.cli.main, ["count", "--branch", branch, "-p", "5", "--n-max", "6"])
after = "numpy" in sys.modules
print(json.dumps({"exits": exits, "numpy_before": before, "count": count.stdout, "numpy_after": after}))
"""


def test_fresh_process_loads_numpy_only_to_enumerate(tmp_path):
    branch = tmp_path / "std4.json"
    branch.write_text(json.dumps(BranchSpec.make(4, {6: 1, 7: 1}).to_json()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, str(branch)], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["exits"] == [0] * 5
    assert not got["numpy_before"]
    # the frozen counts of (4; 6, 7) at p = 5 (tests/test_counting.py), through the digit grid
    assert [row.split(",")[:3] for row in got["count"].splitlines()[1:]] == [
        [str(n), str(c), "truncated-window"] for n, c in enumerate([1, 1, 1, 1, 2, 6, 51])
    ]
    assert got["numpy_after"]
