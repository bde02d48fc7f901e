"""Rules about the package source that a reader checks by hand otherwise.

No code in ``src/`` that only tests call: every public module-level function
and class of ``arczeta`` must be used somewhere else in ``src/`` or in
``perfbench/``.  A use is a name or attribute reference outside the name's
own definition; imports and ``__all__`` entries do not count.  Click commands
are reached through the command group and are skipped.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arczeta"

# module.name -> why it may stay in src/ without a caller there
EXCEPTIONS = {
    "branch.chi_c_arc_class": "the stratum-set derivation of P_ar (ROADMAP direction 2) gives it a caller",
    "branch.order_gap": "the contact orders of acceptance criterion 8",
    "counting.count_branch_strata": "the per-stratum counts whose sum is the window count; its body is the"
    " `_strata` that count_branch_image runs, so it adds no second code path",
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
