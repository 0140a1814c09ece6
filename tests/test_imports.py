"""Package structure: no module reaches into another module's private names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gptw"
MODULES = sorted(SRC.glob("*.py"))


def _private_imports(path):
    """(line, module, name) of every `from .x import _name` or
    `from gptw.x import _name` in the file at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "gptw":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, "." * node.level + module, alias.name))
    return found


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert _private_imports(path) == []


def test_detects_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .minimize import _finalize, classify\n"
                     "from gptw.field import _same_grid\n"
                     "from __future__ import annotations\n"
                     "from numpy import _core\n")
    assert _private_imports(probe) == [(1, ".minimize", "_finalize"),
                                       (2, "gptw.field", "_same_grid")]
