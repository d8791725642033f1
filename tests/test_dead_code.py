"""Every top-level function and class of the package is used somewhere in
the package or its tests, apart from its own definition.  A name counts as
used where it is read (`name`, `module.name`) or imported, so a re-export in
`__init__` is a use.  Every public method or property of a package class
is read as an attribute somewhere in the package or its tests.  And every name a package module other than `__init__` imports
is read in that module."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "choimetric"


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


def unused_definitions() -> list[str]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    used = Counter()
    for tree in trees.values():
        used.update(_used_names(tree))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # uses inside its own definition (recursion) do not count
                if used[node.name] - _used_names(node)[node.name] == 0:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_no_unused_top_level_definitions():
    assert unused_definitions() == []


def unused_methods() -> list[str]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)}
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_") and node.name not in read):
                    unused.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}")
    return unused


def test_no_unused_public_methods():
    assert unused_methods() == []


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
