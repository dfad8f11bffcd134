import importlib
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{name} = {target!r} is not callable"
