import ast
import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "tunemeter"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{name} = {target!r} is not callable"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except on lines marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"line {alias.lineno}: {name}")
    return unused


def test_unused_import_detector():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import (\n    pi,\n    tau,  # noqa: F401\n)\nprint(os.path.sep)\n")
    assert unused_imports(source) == ["line 3: sys", "line 5: pi"]


# the package __init__ is left out: its imports are the public API
@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(name):
    assert unused_imports((PACKAGE / name).read_text(encoding="utf-8")) == []


def defined_names(statement) -> set[str]:
    """The module-level names a top-level statement defines (imports aside)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def names_read(source: str) -> set[str]:
    """Names a module reads as a name, an attribute or an imported name, except
    where a top-level statement reads a name it defines itself."""
    read = set()
    for statement in ast.parse(source).body:
        own = defined_names(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name not in own:
                read.add(name)
    return read


def test_orphan_detector():
    source = ("import os\nA = 1\n_B = A\n\ndef f(n):\n    return f(n - 1)\n\n"
              "class C:\n    pass\n\nos.C\n")
    assert names_read(source) == {"os", "A", "n", "C"}


def test_every_module_level_name_is_read():
    # a deleted code path must not leave behind a helper or constant nothing reads
    root = PACKAGE.parent.parent
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            read |= names_read(path.read_text(encoding="utf-8"))
    orphans = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"
               for statement in ast.parse(path.read_text(encoding="utf-8")).body
               for name in sorted(defined_names(statement)) if name not in read]
    assert orphans == []
