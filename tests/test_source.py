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
