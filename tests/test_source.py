"""Checks on the shipped source itself."""

import ast
from pathlib import Path

import floerchains

SOURCES = sorted(Path(floerchains.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    assert "cli.py" in {path.name for path in SOURCES}
    # ``python -O`` strips asserts; an invariant must raise to survive it
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _module_aliases(tree):
    """Names a module binds to sibling modules (``from . import covers``)."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }


def test_exports_have_a_shipping_caller():
    # a public name that only tests call belongs in tests/oracles.py, whether
    # or not the package exports it
    exported = set(floerchains.__all__)
    used = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        exported.update(
            f"{path.stem}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        )
        if path.name == "__init__.py":
            continue
        # a definition's references to its own name do not count as callers
        own = {
            id(inner)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            for inner in ast.walk(node)
            if getattr(inner, "id", getattr(inner, "attr", None)) == node.name
        }
        modules = _module_aliases(tree)
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                used.add(node.attr)
    unused = {name for name in exported if name.rpartition(".")[2] not in used}
    assert sorted(unused) == []
