"""Checks on the shipped source itself."""

import ast
import builtins
import re
import subprocess
import sys
from pathlib import Path

import floerchains

SOURCES = sorted(Path(floerchains.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_no_fractions_import():
    # the package computes in integers; Fraction-based routes are test oracles
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Import)
        and any(alias.name.partition(".")[0] == "fractions" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").partition(".")[0] == "fractions"
    ]
    assert found == []


def test_cli_reads_no_private_attributes():
    # the CLI finds its subparsers in the map build_parser records, not in
    # argparse internals such as ``_actions`` or ``_name_parser_map``
    path = SOURCES[0].with_name("cli.py")
    found = [
        f"{node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
    ]
    assert found == []


def _domain_errors():
    """Names of the DomainError subclasses in errors.py."""
    tree = ast.parse(SOURCES[0].with_name("errors.py").read_text(encoding="utf-8"))
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", None) == "DomainError" for base in node.bases)
    }


def test_every_domain_error_is_raised():
    # the CLI prints these names verbatim, so a refactor that moves raise
    # sites must not leave one behind with no way to reach it
    errors = _domain_errors()
    assert "UnsupportedFiberCountError" in errors
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert sorted(errors - raised) == []


def test_readme_names_the_error_classes():
    # the CLI prints error class names, and README documents them: a name
    # README gives must exist, and every DomainError subclass must be named
    named = set(re.findall(r"\b\w+Error\b", README.read_text(encoding="utf-8")))
    errors = _domain_errors()
    assert "UnsupportedFiberCountError" in named & errors
    unknown = {
        name
        for name in named - errors - {"DomainError"}
        if not isinstance(getattr(builtins, name, None), type)
    }
    assert sorted(unknown) == []
    assert sorted(errors - named) == []


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


def _record_fields(tree):
    """Qualified field names of the record types in a module: the annotated
    body of each ``NamedTuple`` class and the field names of each
    ``namedtuple(name, fields)`` call, whether it is assigned or a class base."""
    fields = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple" for base in node.bases
        ):
            fields.update(
                f"{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            )
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "namedtuple"
        ):
            name, names = (ast.literal_eval(arg) for arg in node.args[:2])
            fields.update(f"{name}.{field}" for field in names.replace(",", " ").split())
    return fields


def test_record_type_fields_are_read():
    # a field nothing in the package reads is dead weight on every instance;
    # LatticeCounts.k2 is exempt because perfbench/layers.py reads it to
    # size the lens window
    exempt = {"LatticeCounts.k2"}
    fields = set()
    read = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        fields |= _record_fields(tree)
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    # the rule has something to check: every record type of the package
    assert {name.partition(".")[0] for name in fields} == {
        "ChainRanks",
        "GradedGenerators",
        "LatticeCounts",
        "LinkComplex",
        "SeifertData",
    }
    unread = {name for name in fields if name.rpartition(".")[2] not in read}
    assert sorted(unread - exempt) == []


# dataclasses loads inspect, which loads ast, dis and tokenize: about a
# third of the import time every CLI invocation pays
SLOW_IMPORTS = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

IMPORT_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import floerchains.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_skips_slow_modules():
    src = str(Path(floerchains.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(done.stdout.split())
    assert "floerchains.cli" in loaded
    assert sorted(loaded & SLOW_IMPORTS) == []
