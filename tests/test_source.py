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


def _trees():
    return {p.name: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}


def test_no_closure_parameter():
    # The subsort preorder is reached through the signature alone.
    found = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda))
             for arg in (*node.args.posonlyargs, *node.args.args,
                         *node.args.kwonlyargs, node.args.vararg,
                         node.args.kwarg)
             if arg is not None and arg.arg == "closure"]
    assert found == []


def test_one_module_reads_the_subsort_edges():
    # lfr_check.build_closure is the one search of the declared edges;
    # syntax.py only keeps them.
    readers = {name for name, tree in _trees().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "sub_edges"}
    assert readers - {"syntax.py"} == {"lfr_check.py"}


def test_no_global_statement():
    # Checker state lives in the objects a call is given, so that checks
    # can nest (see lfr_check.Log).
    found = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []
