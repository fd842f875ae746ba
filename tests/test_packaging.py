"""Packaging metadata points only at code that exists."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_targets_import():
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


# reserved for the curvature function of ROADMAP item 4
UNRAISED_BY_DESIGN = {"DegenerateSection"}


def test_every_exported_error_is_raised():
    import utkit

    src = "\n".join(p.read_text() for p in Path(utkit.__file__).parent.glob("*.py"))
    errors = [name for name in utkit.__all__
              if isinstance(getattr(utkit, name), type)
              and issubclass(getattr(utkit, name), utkit.UtkitError)
              and getattr(utkit, name) is not utkit.UtkitError]
    assert errors
    unraised = {name for name in errors
                if not re.search(rf"raise {name}\b", src)}
    assert unraised == UNRAISED_BY_DESIGN


def test_every_exported_name_resolves():
    import utkit

    missing = [name for name in utkit.__all__ if not hasattr(utkit, name)]
    assert missing == []
