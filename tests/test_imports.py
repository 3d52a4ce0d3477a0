"""Every name a library module imports is used in that module, and every
private module-level helper is used somewhere in the library."""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "defcalc"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nprint(os.sep, loads)\n")
    assert unused_imports(tree) == [(2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def dead_helpers(trees):
    """Module-level _-prefixed functions and classes of the trees that no
    code in them uses outside the helper's own definition."""
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
                if owner.startswith("_"):
                    defined.add(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.asname or sub.name
                else:
                    continue
                if name != owner:
                    used.add(name)
    return sorted(defined - used)


def test_the_scan_finds_a_dead_helper():
    trees = [
        ast.parse("def _used():\n    pass\n\ndef _loop():\n    return _loop()\n"),
        ast.parse("from m import _used\n\nclass _Alone:\n    pass\n\nx = _used()\n"),
    ]
    assert dead_helpers(trees) == ["_Alone", "_loop"]


def test_no_dead_helpers():
    sources = sorted(SOURCE.glob("*.py"))
    assert dead_helpers([ast.parse(p.read_text(encoding="utf-8")) for p in sources]) == []
