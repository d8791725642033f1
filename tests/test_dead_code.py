"""Every top-level function and class of the package is read by some package
module other than `__init__`, apart from its own definition, and every public
method or property of a package class, and every field of a package
dataclass, is read as an attribute there.  Tests and `__init__` re-exports
do not count as readers: package code that only tests read belongs in the
tests.  A name counts as read where it appears (`name`, `module.name`) or is
imported; an attribute of an imported module (`np.linalg.norm`) does not
read a method of the same name, and an assignment (`obj.field = x`) does
not read a field.  Reads are matched by name, so a field is read wherever
any class's attribute of that name is.  No package class defines an
operator: the only special methods are `__init__`, `__post_init__` and
`__repr__`, since package code applies functionals, channels and seminorms
through their arrays.  Every name a package module other than `__init__`
imports is read in that module.  No package module holds an `assert`
statement, which `python -O` deletes: a check the package relies on
raises.  And no package module imports scipy, at module level or inside a
function: numpy is the one runtime dependency."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "choimetric"
TESTS = ROOT / "tests"

# The one field exemption.  `SDPResult` is the solver's whole report: its
# rel_gap, primal_infeas, primal_value and reason say how a solve ended, and
# the package does not surface them yet (ROADMAP items 1 and 5).
EXEMPT_FIELDS = {"SDPResult"}


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


def _test_readers(tests: dict, name: str, reads=_used_names) -> str:
    readers = [path.name for path, tree in tests.items() if name in reads(tree)]
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
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # uses inside its own definition (recursion) do not count
                if used[node.name] - _used_names(node)[node.name] == 0:
                    unused.append(f"{path.name}:{node.lineno} {node.name}"
                                  + _test_readers(test_trees, node.name))
    return unused


def test_no_unused_top_level_definitions():
    assert unused_definitions() == []


def _module_names(tree) -> set[str]:
    """Names a module binds to imported modules: `import m`, `import m as n`
    and `from . import m`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names.update(a.asname or a.name for a in node.names)
    return names


def _attributes_read(tree) -> set[str]:
    """Attribute names read (not assigned) in a module, leaving out
    attributes of its imported modules such as `np.linalg.norm`."""
    modules = _module_names(tree)
    read = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            root = sub.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in modules):
                read.add(sub.attr)
    return read


def unused_methods(package: Path = PACKAGE, tests: Path = TESTS) -> list[str]:
    """Public methods and properties that no package module reads, each with
    the test modules under `tests` that read it."""
    modules = _trees(package, skip={"__init__.py"})
    read = set().union(*(_attributes_read(tree) for tree in modules.values()))
    test_trees = _trees(tests)
    unused = []
    for path, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_") and node.name not in read):
                    unused.append(f"{path.name}:{node.lineno} {cls.name}.{node.name}"
                                  + _test_readers(test_trees, node.name, _attributes_read))
    return unused


def test_no_unused_public_methods():
    assert unused_methods() == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return True
    return False


def unused_fields(package: Path = PACKAGE, tests: Path = TESTS) -> list[str]:
    """Fields of package dataclasses that no package module reads, each
    with the test modules under `tests` that read it."""
    modules = _trees(package, skip={"__init__.py"})
    read = set().union(*(_attributes_read(tree) for tree in modules.values()))
    test_trees = _trees(tests)
    unused = []
    for path, tree in modules.items():
        for cls in tree.body:
            if (not isinstance(cls, ast.ClassDef) or not _is_dataclass(cls)
                    or cls.name in EXEMPT_FIELDS):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and node.target.id not in read):
                    name = node.target.id
                    unused.append(f"{path.name}:{node.lineno} {cls.name}.{name}"
                                  + _test_readers(test_trees, name, _attributes_read))
    return unused


def test_no_unused_dataclass_fields():
    assert unused_fields() == []


ALLOWED_SPECIAL = {"__init__", "__post_init__", "__repr__"}


def operator_methods(package: Path = PACKAGE) -> list[str]:
    """Special methods of package classes other than ALLOWED_SPECIAL, defined
    or assigned (`__rmul__ = __mul__`) in the class body."""
    found = []
    for path, tree in _trees(package).items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {cls.name}.{name}" for name in names
                          if name.startswith("__") and name.endswith("__")
                          and name not in ALLOWED_SPECIAL]
    return found


def test_no_operator_methods():
    assert operator_methods() == []


def test_the_checker_names_what_only_tests_and_reexports_read(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "__init__.py").write_text("from .core import Thing, helper, used\n")
    (package / "core.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def helper():\n    return used()\n\n\n"
        "class Thing:\n    def __init__(self):\n        self.n = 2\n\n"
        "    def size(self):\n        return self.n\n\n"
        "    def method(self):\n        return 3\n\n"
        "    def norm(self):\n        return 4\n\n"
        "    def __add__(self, other):\n        return self.n + other.n\n\n"
        "    __radd__ = __add__\n")
    (package / "cli.py").write_text(
        "import numpy as np\n\n"
        "from .core import Thing, used\n\n\n"
        "def main():\n    return used() + Thing().size() + np.linalg.norm([0.0])\n")
    (tests / "test_core.py").write_text(
        "from pkg import Thing, helper, main\n\n\n"
        "def test_core():\n"
        "    assert helper() + Thing().method() + main() + Thing().norm() == 11\n")
    assert unused_definitions(package, tests) == [
        "cli.py:6 main, read only by test_core.py",
        "core.py:5 helper, read only by test_core.py"]
    assert unused_methods(package, tests) == [
        "core.py:16 Thing.method, read only by test_core.py",
        "core.py:19 Thing.norm, read only by test_core.py"]
    assert operator_methods(package) == [
        "core.py:22 Thing.__add__", "core.py:25 Thing.__radd__"]


def test_the_field_check_names_fields_only_tests_read(tmp_path):
    package, tests = tmp_path / "pkg", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "__init__.py").write_text("from .core import Result, solve\n")
    (package / "core.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Result:\n    value: float\n    witness: list\n    note: str = ''\n\n\n"
        "@dataclasses.dataclass\n"
        "class Stats:\n    calls: int\n\n\n"
        "class Plain:\n    size: int\n\n\n"
        "def solve():\n"
        "    stats = Stats(1)\n    stats.calls = 2\n"
        "    return Result(1.0, [0.0])\n")
    (package / "cli.py").write_text(
        "from .core import solve\n\n\n"
        "def main():\n    return solve().value\n")
    (tests / "test_core.py").write_text(
        "from pkg import solve\n\n\n"
        "def test_core():\n    assert solve().witness == [0.0]\n")
    # an assignment is not a read, and a class that is no dataclass has no
    # fields to check
    assert unused_fields(package, tests) == [
        "core.py:8 Result.witness, read only by test_core.py",
        "core.py:9 Result.note",
        "core.py:14 Stats.calls"]


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


def assert_statements(package: Path = PACKAGE) -> list[str]:
    """The `assert` statements of the package modules, as file:line."""
    return [f"{path.name}:{node.lineno}" for path, tree in _trees(package).items()
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements():
    assert assert_statements() == []


def scipy_imports(package: Path = PACKAGE) -> list[str]:
    """The imports of scipy in the package modules, lazy ones inside a
    function too, as file:line."""
    found = []
    for path, tree in _trees(package).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_scipy_imports():
    assert scipy_imports() == []


def test_the_scipy_check_finds_lazy_and_aliased_imports(tmp_path):
    (tmp_path / "core.py").write_text(
        "import numpy as np\n"
        "import scipy.linalg as sla\n\n\n"
        "def solve():\n"
        "    from scipy.optimize import linprog\n"
        "    from .scipy import helper\n"
        "    return linprog, helper, np, sla\n")
    assert scipy_imports(tmp_path) == ["core.py:2", "core.py:6"]
