"""Every top-level function and class of the package is read by some package
module other than `__init__`, apart from its own definition, and every public
method or property of a package class is read as an attribute there.  Tests
and `__init__` re-exports do not count as readers: package code that only
tests read belongs in the tests.  A name counts as read where it appears
(`name`, `module.name`) or is imported.  And every name a package module
other than `__init__` imports is read in that module."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "choimetric"
TESTS = ROOT / "tests"

# The one exemption.  `oracles` holds the reference implementations that do
# not use the SDP path, and tests compare the solver against them.  A record
# that called an oracle would change the record count that
# `benchmarks/references.json` pins, so only tests read them.
EXEMPT_MODULES = {"oracles.py"}


def _used_names(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.split(".")[-1]] += 1
    return names


def _trees(root: Path, skip=()) -> dict:
    return {path: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))
            if path.name not in skip}


def _test_readers(tests: dict, name: str) -> str:
    readers = [path.name for path, tree in tests.items() if _used_names(tree)[name]]
    return f", read only by {', '.join(readers)}" if readers else ""


def unused_definitions(package: Path = PACKAGE, tests: Path = TESTS) -> list[str]:
    """Top-level definitions that no package module reads, each with the
    test modules under `tests` that read it."""
    modules = _trees(package, skip={"__init__.py"})
    used = Counter()
    for tree in modules.values():
        used.update(_used_names(tree))
    test_trees = _trees(tests)
    unused = []
    for path, tree in modules.items():
        if path.name in EXEMPT_MODULES:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # uses inside its own definition (recursion) do not count
                if used[node.name] - _used_names(node)[node.name] == 0:
                    unused.append(f"{path.name}:{node.lineno} {node.name}"
                                  + _test_readers(test_trees, node.name))
    return unused


def test_no_unused_top_level_definitions():
    assert unused_definitions() == []


def unused_methods(package: Path = PACKAGE, tests: Path = TESTS) -> list[str]:
    """Public methods and properties that no package module reads, each with
    the test modules under `tests` that read it."""
    modules = _trees(package, skip={"__init__.py"})
    read = {sub.attr for tree in modules.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)}
    test_trees = _trees(tests)
    unused = []
    for path, tree in modules.items():
        if path.name in EXEMPT_MODULES:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_") and node.name not in read):
                    unused.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}"
                                  + _test_readers(test_trees, node.name))
    return unused


def test_no_unused_public_methods():
    assert unused_methods() == []


def test_the_checker_names_what_only_tests_and_reexports_read(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "__init__.py").write_text("from .core import Thing, helper, used\n")
    (package / "core.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def helper():\n    return used()\n\n\n"
        "class Thing:\n    def size(self):\n        return 2\n\n"
        "    def method(self):\n        return 3\n")
    (package / "cli.py").write_text(
        "from .core import Thing, used\n\n\n"
        "def main():\n    return used() + Thing().size()\n")
    (tests / "test_core.py").write_text(
        "from pkg import Thing, helper, main\n\n\n"
        "def test_core():\n    assert helper() + Thing().method() + main() == 7\n")
    assert unused_definitions(package, tests) == [
        "cli.py:4 main, read only by test_core.py",
        "core.py:5 helper, read only by test_core.py"]
    assert unused_methods(package, tests) == [
        "core.py:13 Thing.method, read only by test_core.py"]


def unused_imports() -> list[str]:
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def test_no_unused_imports():
    assert unused_imports() == []
