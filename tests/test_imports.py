"""Every name a library module imports is used in that module, every
private module-level helper is used somewhere in the library, every
public module-level function or class is used in the library, exported
from defcalc, or named by the benchmark under bench/, every definition
and private method is referenced in the library or exported save a short
list kept on purpose, the sparse vector arithmetic is defined by one class
only, and no functools cache outlives a call."""

import ast
import pathlib
import re

import pytest

import defcalc

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "defcalc"
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


def unreferenced_definitions(trees):
    """Qualified names of the module-level functions and classes and of the
    private methods (one leading underscore, not dunder) of the trees
    {module: tree}, in order, that no name or attribute in the trees spells
    outside the definition itself."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name.startswith("_") and not item.name.endswith("__")
                ]
    spelled = {}
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                spelled.setdefault(sub.id, []).append(sub)
            elif isinstance(sub, ast.Attribute):
                spelled.setdefault(sub.attr, []).append(sub)
            elif isinstance(sub, ast.alias):
                spelled.setdefault(sub.asname or sub.name, []).append(sub)
    found = []
    for qualified, node in defined:
        inside = set(map(id, ast.walk(node)))
        if all(id(sub) in inside for sub in spelled.get(node.name, [])):
            found.append(qualified)
    return found


def unused_definitions(trees, private):
    """Module-level functions and classes of the trees, _-prefixed ones or
    public ones, that no code in them uses outside the definition itself."""
    found = [name.split(".") for name in unreferenced_definitions(dict(enumerate(trees)))]
    return sorted(
        parts[1] for parts in found if len(parts) == 2 and parts[1].startswith("_") == private
    )


def uncalled_public(trees, exported, other_text):
    """Public module-level names of the trees that nothing in them uses,
    that are not in exported and that other_text never names."""
    return [
        name for name in unused_definitions(trees, private=False)
        if name not in exported and not re.search(rf"\b{name}\b", other_text)
    ]


def test_the_scan_finds_a_dead_helper():
    trees = [
        ast.parse("def _used():\n    pass\n\ndef _loop():\n    return _loop()\n"),
        ast.parse("from m import _used\n\nclass _Alone:\n    pass\n\nx = _used()\n"),
    ]
    assert unused_definitions(trees, private=True) == ["_Alone", "_loop"]


def test_no_dead_helpers():
    sources = sorted(SOURCE.glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sources]
    assert unused_definitions(trees, private=True) == []


def test_the_scan_finds_an_uncalled_public_function():
    trees = [
        ast.parse("def used():\n    pass\n\ndef alone():\n    pass\n\nclass Shown:\n    pass\n"),
        ast.parse("def benched():\n    pass\n\ndef exported():\n    pass\n\nx = used()\n"),
    ]
    assert uncalled_public(trees, {"exported"}, "lib.benched(1)\nShown_x = 2\n") == [
        "Shown", "alone"
    ]


def test_no_uncalled_public_functions():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
    assert uncalled_public(trees, set(defcalc.__all__), bench) == []


def test_the_scan_finds_an_unreferenced_definition():
    trees = {
        "a": ast.parse(
            "def used():\n    pass\n\ndef _loop():\n    return _loop()\n\n"
            "class K:\n    def _kept(self):\n        return self._gone\n\n"
            "    def _gone(self):\n        return self._gone()\n\n"
            "    def _alone(self):\n        pass\n\n    def __len__(self):\n        return 0\n"
        ),
        "b": ast.parse("from a import used, K\n\nx = used() or K()._kept()\n"),
    }
    assert unreferenced_definitions(trees) == ["a._loop", "a.K._alone"]


# Definitions that nothing in src/ references, each kept on purpose.  The
# scan matches by name only, so it cannot see that linalg.rank and
# linalg.solve have no caller in src/ either: other names share them (the
# PreparedSolve.solve method, and rank as a local or an attribute).
UNREFERENCED_ON_PURPOSE = {
    "cli.emit_document": "the canonical text of a parsed document; the tests "
    "and the benchmark's fixpoint check call it",
    "linalg.extend_independent": "the benchmark's tracer wraps it by name, "
    "and tests/test_linalg.py checks it against an oracle",
}


def test_every_definition_is_referenced_in_src_or_exported():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SOURCE.glob("*.py"))}
    found = [
        name for name in unreferenced_definitions(trees)
        if name.rsplit(".", 1)[-1] not in defcalc.__all__
    ]
    assert sorted(found) == sorted(UNREFERENCED_ON_PURPOSE)


VECTOR_ARITHMETIC = {"__add__", "__sub__", "__neg__", "scale", "from_nonzero"}


def repeated_methods(trees, names):
    """{method: [classes]} for each of names that more than one class of
    the trees defines."""
    owners = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in names:
                        owners.setdefault(item.name, []).append(node.name)
    return {name: classes for name, classes in sorted(owners.items()) if len(classes) > 1}


def test_the_scan_finds_a_repeated_method():
    trees = [
        ast.parse("class A:\n    def scale(self):\n        pass\n\n    def __add__(self, o):\n"
                  "        pass\n"),
        ast.parse("class B:\n    def scale(self):\n        pass\n\ndef __add__(a, b):\n    pass\n"),
    ]
    assert repeated_methods(trees, {"scale", "__add__"}) == {"scale": ["A", "B"]}


def test_vector_arithmetic_is_defined_once():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SOURCE.glob("*.py"))]
    assert repeated_methods(trees, VECTOR_ARITHMETIC) == {}


PROCESS_CACHES = {"lru_cache", "cache"}


def process_caches(tree):
    """Lines that apply a functools cache outside every function body: a
    decorator or a call at module or class level, whose cache lives as long
    as the process."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names if a.name in PROCESS_CACHES}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    in_bodies = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                in_bodies.update(map(id, ast.walk(stmt)))
        elif isinstance(node, ast.Lambda):
            in_bodies.update(map(id, ast.walk(node.body)))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if id(node) not in in_bodies and (
            isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in PROCESS_CACHES
            and isinstance(node.value, ast.Name) and node.value.id in modules
        )
    )


def test_the_scan_finds_a_process_wide_cache():
    tree = ast.parse(
        "import functools as ft\n"
        "from functools import lru_cache, cache as memo\n"
        "@lru_cache(maxsize=None)\n"
        "def a(n):\n"
        "    return n\n"
        "class B:\n"
        "    @ft.cache\n"
        "    def b(self):\n"
        "        return 1\n"
        "c = memo(len)\n"
        "def per_call(xs):\n"
        "    return ft.lru_cache(None)(len)(xs) + memo(len)(xs)\n"
    )
    assert process_caches(tree) == [3, 7, 10]


def test_no_process_wide_caches():
    found = {
        p.name: process_caches(ast.parse(p.read_text(encoding="utf-8")))
        for p in sorted(SOURCE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
