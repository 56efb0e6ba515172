"""Every public function of the package is used by the package itself,
and every name a module exports in ``__all__`` exists.

A function that only tests call belongs in the tests, as a reference;
one that nothing calls belongs nowhere.
"""

import ast
import importlib
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ellgt"


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in SOURCE.glob("*.py")}


def public_functions(trees):
    """(module file, name) of every public top-level function."""
    return [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
    ]


def referenced_names(trees):
    """Every name read, imported or taken as an attribute in the package."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_has_a_caller_in_the_package():
    trees = _trees()
    used = referenced_names(trees)
    unused = [
        f"{module}:{name}"
        for module, name in public_functions(trees)
        if name not in used
    ]
    assert unused == []


def test_the_scan_sees_the_whole_package():
    trees = _trees()
    found = {name for _, name in public_functions(trees)}
    assert {"apply_rbar", "gate_plan", "sector_plan", "main"} <= found
    assert "run_suites" in referenced_names(trees)


def test_every_exported_name_exists():
    # `from module import *` raises on a name __all__ lists but the module lacks.
    for path in SOURCE.glob("*.py"):
        module = importlib.import_module(f"ellgt.{path.stem}".removesuffix(".__init__"))
        exported = getattr(module, "__all__", ())
        missing = [name for name in exported if not hasattr(module, name)]
        assert missing == [], path.name
