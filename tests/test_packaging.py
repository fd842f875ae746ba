"""Packaging metadata points only at code that exists, and what the
package caches is bounded and read-only."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
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


# reserved for the curvature function of ROADMAP item 1
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


def test_no_module_reads_a_private_name_of_another():
    """Each decision stays behind one module: no utkit module imports an
    underscore name from a sibling, or reads one off a sibling it imports."""
    import utkit

    found = []
    for path in sorted(Path(utkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").startswith("utkit"))]
        found += [f"{path.name}: {alias.name}" for node in imports
                  for alias in node.names if alias.name.startswith("_")]
        siblings = {alias.asname or alias.name for node in imports
                    if node.module in (None, "utkit") for alias in node.names}
        found += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and node.attr.startswith("_")]
    assert found == []


def _caches():
    """(name, functools cache) for every cache defined at the top level of a
    utkit module or in the body of one of its classes."""
    import utkit

    found = {}
    for info in pkgutil.iter_modules(utkit.__path__):
        module = importlib.import_module(f"utkit.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if hasattr(member, "cache_parameters"):
                        found[f"{module.__name__}.{name}.{attr}"] = member
            elif hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = obj
    return found


def test_every_cache_is_bounded():
    caches = _caches()
    unbounded = [name for name, cache in caches.items()
                 if cache.cache_parameters()["maxsize"] is None]
    assert unbounded == []
    assert {"utkit.modes.ModeTable.mode", "utkit.quadrature.gauss_radial",
            "utkit.quadrature._polar_nodes", "utkit._bipoly._cauchy_kernel",
            "utkit._bipoly._ring_powers", "utkit.series._sup_weight"} <= set(caches)


def test_shared_tables_are_read_only():
    from utkit import _bipoly, quadrature, series
    from utkit.geometry import Domain

    rule = quadrature.QuadRule(12, 24)
    tables = [rule.nodes(), rule.nodes(Domain.EXTERIOR_DISK),
              *quadrature.gauss_radial(12), series._sup_weight(),
              _bipoly._cauchy_kernel(3, -1, 6), _bipoly._ring_powers(rule, 4, -1, 10)]
    assert rule.nodes() is quadrature.QuadRule(12, 24).nodes()
    for table in tables:
        with pytest.raises(ValueError):
            table[...] = 0.0
        with pytest.raises(ValueError):
            np.multiply(table, 2.0, out=table)
