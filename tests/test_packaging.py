"""The runtime dependency list covers every third-party import.

``pip install cobra-repro`` must be enough to run the library, so every
module ``src/repro`` imports — at module level or lazily inside a
function — has to be the standard library, ``repro`` itself, or a
distribution named in ``[project].dependencies``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = set()
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level package name -> the source files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def _undeclared(declared: set[str]) -> dict[str, set[str]]:
    return {
        name: files
        for name, files in _third_party_imports().items()
        if name.lower() not in declared
    }


def test_every_runtime_import_is_declared():
    assert _undeclared(_declared_dependencies()) == {}


def test_check_catches_a_dropped_dependency():
    # The scipy imports are function-local; the walk must still see them.
    assert "scipy" in _undeclared(_declared_dependencies() - {"scipy"})
