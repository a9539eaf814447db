"""The package's own source files, read as syntax trees."""

from __future__ import annotations

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import lfr
from conftest import checkout_env

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


def test_only_check_signature_takes_a_budget():
    # A signature's budget is check_signature's fuel= or LFR_FUEL; every
    # other judgment draws on the budget of the signature it runs on.  The
    # signature classes' constructors set the budget they carry.
    takers = [name for name in lfr.__all__
              if inspect.isfunction(obj := getattr(lfr, name))
              and "fuel" in inspect.signature(obj).parameters]
    assert takers == ["check_signature"]


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


def test_class_patterns_take_no_sub_patterns():
    # A class pattern with sub-patterns, `case ITPi(h, d, c)`, makes
    # MATCH_CLASS look up __match_args__ and each field on every match; a
    # node is matched on its class alone and its fields are read by name.
    found = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.MatchClass)
             and (node.patterns or node.kwd_patterns)]
    assert found == []


def test_parser_dispatches_on_tags():
    # A sequence pattern, `case ("app", f, a)`, tests the subject's type
    # and length and compares its items on every match; the parser's raw
    # trees are matched on their tag `e[0]` and read by index.
    found = [f"parser.py:{case.pattern.lineno}"
             for case in ast.walk(_trees()["parser.py"])
             if isinstance(case, ast.match_case)
             and any(isinstance(node, ast.MatchSequence)
                     for node in ast.walk(case.pattern))]
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


# ---------------------------------------------------------------------------
# What `import lfr` costs.  Every `lfr` run pays for it before it reads its
# input, so it loads only what the package needs.

SUBMODULES = {"diagnostics", "lf", "lfi", "lfr_check", "parser", "printer",
              "subsort", "subst", "syntax", "translate"}
# Standard modules that no lfr module needs: code generation for records
# would bring all of them in.
UNNEEDED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter, without site, holds after running
    statement."""
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         f"{statement}; import sys; print(sorted(sys.modules))"],
        env=checkout_env(), capture_output=True, text=True, timeout=60,
        check=True).stdout
    return set(ast.literal_eval(out))


@pytest.mark.parametrize("statement", ["import lfr", "import lfr.cli"])
def test_import_loads_no_record_generation(statement):
    assert _loaded_after(statement) & UNNEEDED == set()


def test_import_loads_every_submodule():
    loaded = {m for m in _loaded_after("import lfr") if m.startswith("lfr.")}
    assert loaded == {f"lfr.{m}" for m in SUBMODULES}


def test_nothing_is_loaded_later():
    # The import is cheap because its modules are, not because some load
    # when first used: no module __getattr__, and no import below a
    # module's top level but the target checker's of the printer, which
    # tests/test_lfi.py requires to be lazy.
    found = []
    for name, tree in _trees().items():
        top = {id(node) for node in tree.body}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and id(node) not in top
                  and not (name == "lfi.py" and node.module == "printer")]
        found += [f"{name}:{node.lineno}" for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "__getattr__"]
    assert found == []


def test_nodes_are_not_generated():
    # Syntax nodes come from the one hand-written base in diagnostics.py:
    # no module imports dataclasses, and nothing compiles code at runtime.
    found = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and any("dataclasses" in (a.name, getattr(node, "module", ""))
                     for a in node.names)
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")
             or isinstance(node, ast.ClassDef)
             and any(k.arg == "metaclass" for k in node.keywords)]
    assert found == []
