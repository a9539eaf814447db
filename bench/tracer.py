"""Spans and counts at the boundaries between `lfr` modules.

The tracer replaces cross-module names *as bound in the caller's
namespace* with timing wrappers, so no file of the program changes and
nothing is paid when it is not installed.  Every entry into a wrapped
name is counted.  A span (name, start, end, parent) is recorded for each
outermost entry of a name: a recursive function that re-enters itself
through a wrapped binding is timed from its outermost entry only.

Spans live in flat arrays until `write` dumps them when the benchmark
ends.  `pass_metrics` folds one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span name, layer whose code runs).  A span name
# shared by several bindings of one function counts them together.
WRAPS = (
    ("lfr.cli", "parse_signature", "stage.parse", "parser"),
    ("lfr.cli", "check_signature", "stage.check", "lfr_check"),
    ("lfr.cli", "trans_sig", "stage.translate", "translate"),
    ("lfr.cli", "pp_lfi_decl", "stage.print", "printer"),
    ("lfr.cli", "verify_translation", "stage.verify", "translate"),
    ("lfr.lfr_check", "build_closure", "lfr_check.build_closure", "lfr_check"),
    ("lfr.translate", "build_closure", "lfr_check.build_closure", "lfr_check"),
    ("lfr.lfr_check", "subsort_q", "lfr_check.subsort_q", "lfr_check"),
    ("lfr.translate", "subsort_q", "lfr_check.subsort_q", "lfr_check"),
    ("lfr.lfr_check", "erase_sig", "syntax.erase_sig", "syntax"),
    ("lfr.lfr_check", "lf_check_kind", "lf.check", "lf"),
    ("lfr.lfr_check", "lf_check_type", "lf.check", "lf"),
    ("lfr.lfr_check", "lf_check_term", "lf.check", "lf"),
    ("lfr.lfr_check", "hsubst_syntax", "subst.hsubst", "subst"),
    ("lfr.lf", "hsubst_syntax", "subst.hsubst", "subst"),
    ("lfr.translate", "hsubst_syntax", "subst.hsubst", "subst"),
    ("lfr.subsort", "hsubst_syntax", "subst.hsubst", "subst"),
    ("lfr.translate", "_acheck", "translate.acheck", "lfr_check"),
    ("lfr.translate", "meta_apply", "translate.meta_apply", "lfi"),
    ("lfr.translate", "lfi_check_sig", "lfi.check_sig", "lfi"),
    ("lfr.translate", "lfi_check", "lfi.check", "lfi"),
    ("lfr.lfi", "lfi_check", "lfi.check", "lfi"),
    ("lfr.lfi", "lfi_hsubst", "lfi.hsubst", "lfi"),
    ("lfr.syntax.Signature", "names", "syntax.names", "syntax"),
    ("lfr.lfi.LfiSignature", "names", "lfi.names", "lfi"),
)

ROOT = "cli.main"          # the span the benchmark opens around each call

# Per-layer metrics a traced pass yields, with their units.
METRICS = {
    "stage.parse_s": "s",
    "stage.check_s": "s",
    "stage.translate_s": "s",
    "stage.print_s": "s",
    "stage.verify_sig_s": "s",
    "stage.verify_proofs_s": "s",
    "cli.self_s": "s",
    "parser.parse_s": "s",
    "parser.bytes_per_s": "B/s",
    "lfr_check.self_s": "s",
    "lfr_check.build_closure_calls": "count",
    "lfr_check.build_closure_s": "s",
    "lfr_check.subsort_q_calls": "count",
    "lfr_check.rule_steps": "count",
    "lfr_check.synth_heads": "count",
    "lfr_check.switch_steps": "count",
    "syntax.erase_sig_calls": "count",
    "syntax.erase_sig_s": "s",
    "syntax.names_calls": "count",
    "syntax.names_s": "s",
    "lf.calls": "count",
    "lf.self_s": "s",
    "subst.hsubst_calls": "count",
    "subst.hsubst_s": "s",
    "translate.self_s": "s",
    "translate.acheck_calls": "count",
    "translate.acheck_s": "s",
    "translate.meta_apply_calls": "count",
    "translate.lfi_decls": "count",
    "printer.print_s": "s",
    "printer.bytes_per_s": "B/s",
    "lfi.check_sig_s": "s",
    "lfi.names_calls": "count",
    "lfi.names_s": "s",
    "lfi.check_calls": "count",
    "lfi.check_s": "s",
    "lfi.hsubst_calls": "count",
    "lfi.hsubst_s": "s",
}


def _resolve(path: str):
    """A module or a class inside one, from a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Wraps the names in WRAPS while installed; records spans and counts."""

    def __init__(self) -> None:
        self.span_names = [ROOT] + sorted({w[2] for w in WRAPS})
        self.layer = {ROOT: "cli", **{w[2]: w[3] for w in WRAPS}}
        self._index = {n: i for i, n in enumerate(self.span_names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_of = array("H")
        self._stack = [-1]
        self._depth = [0] * len(self.span_names)
        self._saved: list[tuple[object, str, object]] = []
        self.passes: list[dict] = []   # per pass: first span, counts, extras
        self._calls = [0] * len(self.span_names)   # this pass's entries
        self._extra: Counter = Counter()
        self._rules: list[str] = []

    # -- installing -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        after = {
            "stage.parse": self._count_parsed,
            "stage.translate": self._count_decls,
            "stage.print": self._count_printed,
        }
        for owner_path, attr, span, _ in WRAPS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            if span == "stage.check":
                fn = self._with_rule_trace(fn)
            setattr(owner, attr, self._wrap(fn, self._index[span],
                                            after.get(span)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _open(self, key: int) -> int:
        i = len(self.name)
        self.name.append(key)
        self.parent.append(self._stack[-1])
        self.pass_of.append(len(self.passes) - 1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, key: int, after):
        depth, calls = self._depth, self._calls

        def traced(*args, **kwargs):
            calls[key] += 1
            if depth[key]:
                depth[key] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[key] -= 1
            depth[key] = 1
            i = self._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
                depth[key] = 0
            if after is not None:
                after(args, result)
            return result

        return traced

    def _with_rule_trace(self, check_signature):
        """check_signature, filling this pass's rule list when the caller
        passes no `trace=` of its own."""
        def checked(*args, trace=None, **kwargs):
            return check_signature(
                *args, trace=self._rules if trace is None else trace,
                **kwargs)
        return checked

    def _count_parsed(self, args, result) -> None:
        self._extra["parse_bytes"] += len(args[0].encode())

    def _count_decls(self, args, result) -> None:
        self._extra["lfi_decls"] += len(result.lfi_sig)

    def _count_printed(self, args, result) -> None:
        self._extra["print_bytes"] += len(result.encode()) + 1

    @contextlib.contextmanager
    def root(self):
        """The span around one call of the CLI."""
        key = self._index[ROOT]
        self._calls[key] += 1
        i = self._open(key)
        try:
            yield
        finally:
            self._close(i)

    # -- passes -----------------------------------------------------------

    def begin_pass(self) -> None:
        self.passes.append({"first": len(self.name)})
        self._calls[:] = [0] * len(self.span_names)
        self._extra = Counter()
        self._rules.clear()

    def end_pass(self) -> None:
        rules = Counter(self._rules)
        p = self.passes[-1]
        p["last"] = len(self.name)
        p["calls"] = dict(zip(self.span_names, self._calls))
        p["extra"] = {**self._extra,
                      "rule_steps": len(self._rules),
                      "synth_heads": rules["const"] + rules["var"],
                      "switch_steps": rules["switch"]}
        self._rules.clear()

    def pass_metrics(self, k: int) -> dict[str, float]:
        """The per-layer metrics of pass k (see METRICS)."""
        p = self.passes[k]
        names = self.span_names
        incl: Counter = Counter()
        self_time: Counter = Counter()
        child: Counter = Counter()
        nested_sig = 0.0
        for i in range(p["first"], p["last"]):
            d = self.end[i] - self.start[i]
            incl[names[self.name[i]]] += d
            j = self.parent[i]
            if j >= 0:
                child[j] += d
        for i in range(p["first"], p["last"]):
            n = names[self.name[i]]
            self_time[self.layer[n]] += (self.end[i] - self.start[i]
                                         - child[i])
            j = self.parent[i]
            if n == "lfi.check_sig" and j >= 0 \
                    and names[self.name[j]] == "stage.verify":
                nested_sig += self.end[i] - self.start[i]
        calls, extra = p["calls"], p["extra"]
        return {
            "stage.parse_s": incl["stage.parse"],
            "stage.check_s": incl["stage.check"],
            "stage.translate_s": incl["stage.translate"],
            "stage.print_s": incl["stage.print"],
            "stage.verify_sig_s": nested_sig,
            "stage.verify_proofs_s": incl["stage.verify"] - nested_sig,
            "cli.self_s": self_time["cli"],
            "parser.parse_s": incl["stage.parse"],
            "parser.bytes_per_s": _rate(extra.get("parse_bytes", 0),
                                        incl["stage.parse"]),
            "lfr_check.self_s": self_time["lfr_check"],
            "lfr_check.build_closure_calls": calls["lfr_check.build_closure"],
            "lfr_check.build_closure_s": incl["lfr_check.build_closure"],
            "lfr_check.subsort_q_calls": calls["lfr_check.subsort_q"],
            "lfr_check.rule_steps": extra["rule_steps"],
            "lfr_check.synth_heads": extra["synth_heads"],
            "lfr_check.switch_steps": extra["switch_steps"],
            "syntax.erase_sig_calls": calls["syntax.erase_sig"],
            "syntax.erase_sig_s": incl["syntax.erase_sig"],
            "syntax.names_calls": calls["syntax.names"],
            "syntax.names_s": incl["syntax.names"],
            "lf.calls": calls["lf.check"],
            "lf.self_s": self_time["lf"],
            "subst.hsubst_calls": calls["subst.hsubst"],
            "subst.hsubst_s": incl["subst.hsubst"],
            "translate.self_s": self_time["translate"],
            "translate.acheck_calls": calls["translate.acheck"],
            "translate.acheck_s": incl["translate.acheck"],
            "translate.meta_apply_calls": calls["translate.meta_apply"],
            "translate.lfi_decls": extra.get("lfi_decls", 0),
            "printer.print_s": incl["stage.print"],
            "printer.bytes_per_s": _rate(extra.get("print_bytes", 0),
                                         incl["stage.print"]),
            "lfi.check_sig_s": incl["lfi.check_sig"],
            "lfi.names_calls": calls["lfi.names"],
            "lfi.names_s": incl["lfi.names"],
            "lfi.check_calls": calls["lfi.check"],
            "lfi.check_s": incl["lfi.check"],
            "lfi.hsubst_calls": calls["lfi.hsubst"],
            "lfi.hsubst_s": incl["lfi.hsubst"],
        }

    def write(self, path) -> int:
        """Dump every span as gzipped TSV; returns the number written."""
        names = self.span_names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("pass\tid\tname\tstart\tend\tparent\n")
            for i in range(len(self.name)):
                out.write(f"{self.pass_of[i]}\t{i}\t{names[self.name[i]]}\t"
                          f"{self.start[i]!r}\t{self.end[i]!r}\t"
                          f"{self.parent[i]}\n")
        return len(self.name)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
