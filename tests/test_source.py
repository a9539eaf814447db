"""The package's own source files, read as syntax trees."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import lfr

SOURCES = sorted(Path(lfr.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # Invariants are enforced by explicit raises: `python -O` strips asserts.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statement at lines {lines}"


def test_sources_are_found():
    # An empty glob would leave the check above nothing to run.
    assert {"__init__.py", "cli.py", "lfi.py"} <= {p.name for p in SOURCES}
