import ast
import importlib
import os
import re
import subprocess
import sys
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


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """Names a module imports and never reads, except on lines marked `# noqa: F401`
    and, with `reexports` (a package `__init__`), names imported from the package."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "__future__"
                                                 or reexports and node.level > 0):
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
    package = "import os\nfrom .metrics import auc\nfrom . import surrogate\n"
    assert unused_imports(package, reexports=True) == ["line 1: os"]
    assert unused_imports(package) == ["line 1: os", "line 2: auc", "line 3: surrogate"]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(name):
    # the package __init__ imports the public API from its modules
    source = (PACKAGE / name).read_text(encoding="utf-8")
    assert unused_imports(source, reexports=name == "__init__.py") == []


@pytest.mark.parametrize("name", sorted(p.name for p in Path(__file__).parent.glob("*.py")))
def test_no_unused_imports_in_tests(name):
    assert unused_imports((Path(__file__).parent / name).read_text(encoding="utf-8")) == []


def defined_names(statement) -> set[str]:
    """The module-level names a top-level statement defines (imports aside)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def names_read(source: str, imports: bool = True) -> set[str]:
    """Names a module reads as a name, an attribute or (with `imports`) an imported
    name, except where a top-level statement reads a name it defines itself."""
    read = set()
    for statement in ast.parse(source).body:
        own = defined_names(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias) and imports:
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


def unread_imports(source: str) -> list[str]:
    """Names a module imports (`__future__` aside) and never reads as a name or an
    attribute (see `names_read`), whatever its `# noqa` comments say."""
    read = names_read(source, imports=False)
    return sorted({(alias.asname or alias.name).split(".")[0]
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                   for alias in node.names} - read)


def test_unread_import_detector():
    source = ("from __future__ import annotations\nimport os.path\nimport sys  # noqa: F401\n"
              "from math import pi, tau\ntau = 2\n\ndef f():\n"
              "    from json import dumps as d\n    return os.path.sep, pi\n")
    assert unread_imports(source) == ["d", "sys", "tau"]


@pytest.mark.parametrize("name", sorted(p.name for p in Path(__file__).parent.glob("*.py")))
def test_every_name_a_test_module_imports_is_read(name):
    assert unread_imports((Path(__file__).parent / name).read_text(encoding="utf-8")) == []


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


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[\w.-]+", spec).group() for spec in project["dependencies"]] == ["numpy"]


def absolute_imports(source: str) -> set[str]:
    """Top-level names of the packages a module imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_absolute_import_detector():
    source = ("from __future__ import annotations\nimport os.path, numpy as np\n"
              "from . import metrics\nfrom .metrics import auc\nfrom scipy.stats import rankdata\n")
    assert absolute_imports(source) == {"__future__", "os", "numpy", "scipy"}


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_imports_only_the_standard_library_and_numpy(name):
    imported = absolute_imports((PACKAGE / name).read_text(encoding="utf-8"))
    assert imported - set(sys.stdlib_module_names) - {"numpy", "tunemeter"} == set()


def test_package_runs_with_scipy_blocked():
    # tests/numpy_only_run.py is also the CI job that installs numpy alone
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("numpy_only_run.py"))],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
