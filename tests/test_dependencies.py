"""The ``test`` extra of pyproject.toml lists every package the test modules import."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
IMPORTING = ("tests", "perfbench")


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_every_imported_package_is_in_the_test_extra():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    extra = {
        re.match(r"[\w.-]+", requirement)[0].lower().replace("-", "_")
        for requirement in project["optional-dependencies"]["test"]
    }
    local = {p.stem for d in IMPORTING for p in (ROOT / d).glob("*.py")}
    local |= {p.parent.name for p in (ROOT / "src").glob("*/__init__.py")}
    unlisted = {
        (path.relative_to(ROOT).as_posix(), name)
        for d in IMPORTING
        for path in (ROOT / d).glob("*.py")
        for name in imported_modules(path)
        if name not in sys.stdlib_module_names | local | extra
    }
    assert not unlisted
