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


# Imported names that no code of their module reads: bench/tracer.py
# wraps each where it is bound, to time the calls through it.
TRACER_BINDINGS = {
    ("lf.py", "hsubst_syntax"),
    ("lfr_check.py", "erase_sig"),
    ("lfr_check.py", "hsubst_syntax"),
    ("lfr_check.py", "lf_check_term"),
    ("subsort.py", "hsubst_syntax"),
    ("translate.py", "build_closure"),
    ("translate.py", "hsubst_syntax"),
}
TRACER_MARK = "# noqa: F401  (bound for bench/tracer.py)"


def _imports(tree) -> dict[str, int]:
    """The names tree's imports bind, each with its line; `from
    __future__` binds none."""
    return {alias.asname or alias.name.partition(".")[0]: alias.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names}


def _read_names(tree) -> set[str]:
    """The names tree reads; for a package's __init__.py, also those its
    __all__ exports."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    # No linter is assumed: an import nothing reads is dead code.
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name for name in _imports(tree)
              if name not in _read_names(tree)}
    pinned = {name for module, name in TRACER_BINDINGS if module == path.name}
    assert unused == pinned, f"{path.name}: unused imports {unused - pinned}"


def test_tracer_bindings_are_marked():
    # Each binding kept for the tracer says so where it is imported.
    paths = {p.name: p for p in SOURCES}
    for module, name in sorted(TRACER_BINDINGS):
        text = paths[module].read_text()
        line = text.splitlines()[_imports(ast.parse(text))[name] - 1]
        assert line.rstrip().endswith(TRACER_MARK), (module, name, line)
