"""Every name a package module imports is used in that module, every
module-level private function or class is used somewhere in the package,
and every docstring example in the package runs."""

import ast
import doctest
import importlib
from pathlib import Path

import liecohom

MODULES = sorted(p for p in Path(liecohom.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_and_used(source):
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def test_every_imported_name_is_used():
    assert {p.name for p in MODULES} >= {"field_arith.py", "lie_core.py", "ce_complex.py"}
    unused = []
    for path in MODULES:
        imported, used = imported_and_used(path.read_text(encoding="utf-8"))
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_detects_an_unused_import():
    imported, used = imported_and_used("import os\nfrom math import comb, lcm\nlcm(2, 3)\n")
    assert [name for name in imported if name not in used] == ["os", "comb"]


def private_defs_and_references(source):
    """(module-level private functions and classes by name -> line, names
    referenced outside the definition that binds them)."""
    tree = ast.parse(source)
    defined, referenced = {}, set()
    for node in tree.body:
        own = None
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = node.name
            if own.startswith("_") and not own.startswith("__"):
                defined[own] = node.lineno
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            elif isinstance(sub, ast.alias):
                name = sub.name
            else:
                continue
            if name != own:
                referenced.add(name)
    return defined, referenced


def test_every_private_helper_is_used():
    defined, referenced = {}, set()
    for path in MODULES + [Path(liecohom.__file__)]:
        names, refs = private_defs_and_references(path.read_text(encoding="utf-8"))
        defined.update(("%s:%d %s" % (path.name, line, name), name)
                       for name, line in names.items())
        referenced |= refs
    assert sorted(where for where, name in defined.items() if name not in referenced) == []


def test_detects_a_dead_private_helper():
    defined, referenced = private_defs_and_references(
        "def _dead(n):\n    return _dead(n - 1)\n\n"
        "def _used():\n    pass\n\n"
        "class _Kept:\n    pass\n\n"
        "def public():\n    return _used(), _Kept\n")
    assert [name for name in defined if name not in referenced] == ["_dead"]


def test_docstring_examples_run():
    failed = attempted = 0
    for name in ["liecohom"] + ["liecohom." + p.stem for p in MODULES]:
        result = doctest.testmod(importlib.import_module(name))
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 1
