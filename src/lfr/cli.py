"""Command-line front end.

Subcommands:
  check      parse and sort-check a signature
  translate  compile to the proof-irrelevant target and write it out
  verify     compile in memory and re-check the result

check --trace prints the rule names the checker logs; check
--oracle-depth N has check_signature audit each atomic comparison it
logs against the declarative rules, in the signature checked so far.

Exit codes: 0 success, 1 checking failure, 2 lexing or parsing failure
(including unreadable input and input that is not UTF-8) or a usage
error (bad options, a negative --oracle-depth, a non-integer LFR_FUEL,
or an output path translate cannot write or that names its input), 3
verification failure or search budget exhaustion, 4 internal error
(input nested too deeply for the recursion limit, or a broken internal
invariant).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import (
    LexError,
    LfrError,
    ParseError,
    SourceSpan,
    VerifyError,
)
from .lfr_check import check_signature
from .parser import parse_signature
from .printer import pp_lfi_decl, pp_sort
from .subst import MetricExhausted
from .subsort import SubsortQuery, declarative_subsort_oracle
from .syntax import (
    ConstRef,
    Signature,
    SortFam,
    SubDecl,
    TermConst,
    TypeFam,
)
from .translate import trans_sig, verify_translation


@dataclass
class RunReport:
    """What a check run did, one line per declaration."""

    path: str
    lines: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    oracle_checked: int = 0
    oracle_disagreements: int = 0

    def add(self, kind: str, line: str) -> None:
        self.lines.append(line)
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def render(self) -> str:
        out = [f"checking {self.path}"]
        out.extend("  " + line for line in self.lines)
        total = sum(self.counts.values())
        parts = [f"{n} {kind}" for kind, n in sorted(self.counts.items())]
        out.append(f"ok: {total} declarations ({', '.join(parts)}) "
                   f"in {self.elapsed:.3f}s")
        if self.oracle_checked:
            out.append(f"oracle audit: {self.oracle_checked} atomic "
                       f"comparisons, {self.oracle_disagreements} "
                       f"disagreements")
        return "\n".join(out)


def _decl_line(decl) -> tuple[str, str]:
    match decl:
        case TypeFam(name, _):
            return "type families", f"type family {name}"
        case TermConst(name, _):
            return "constants", f"constant {name}"
        case SortFam(name, refines, _):
            return "sorts", f"sort {name} refining {refines}"
        case SubDecl(sub, sup):
            return "subsort declarations", f"subsorting {sub} <: {sup}"
        case ConstRef(const, _):
            return "refinements", f"refinement of {const}"


def _read(path: str) -> str:
    """The text of path; one leading byte-order mark is dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        # e.object is the whole file after its byte-order mark: place the
        # byte among the characters before it, with newlines read as the
        # lexer reads them.
        before = e.object[:e.start].decode("utf-8")
        before = before.replace("\r\n", "\n").replace("\r", "\n")
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise LexError(f"invalid UTF-8 byte {e.object[e.start]:#04x}",
                       SourceSpan(path, line, col, line, col))


def _search_depth(text: str) -> int:
    """An --oracle-depth: a non-negative integer."""
    try:
        depth = int(text)
    except ValueError:
        depth = -1
    if depth < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return depth


def _check_file(path: str, strict: bool, oracle_depth: int | None,
                trace: list[str] | None = None
                ) -> tuple[Signature, RunReport]:
    text = _read(path)
    raw = parse_signature(text, filename=path)
    report = RunReport(path)

    def audit(sig, ctx, q, goal, ok: bool) -> None:
        report.oracle_checked += 1
        oracle = declarative_subsort_oracle(
            SubsortQuery.make(sig, ctx, q, goal, None), oracle_depth)
        if oracle and not ok:
            report.oracle_disagreements += 1
            print(f"oracle disagreement: {pp_sort(q)} <= {pp_sort(goal)} "
                  f"is derivable but the algorithm said no", file=sys.stderr)

    start = time.monotonic()
    sig = check_signature(raw, strict=strict, trace=trace,
                          audit=None if oracle_depth is None else audit)
    report.elapsed = time.monotonic() - start
    for decl in raw:
        report.add(*_decl_line(decl))
    return sig, report


def cmd_check(args) -> int:
    trace: list[str] | None = [] if args.trace else None
    sig, report = _check_file(args.file, args.strict, args.oracle_depth,
                              trace=trace)
    if not args.quiet:
        print(report.render())
    if trace is not None:
        print(f"rule trace ({len(trace)} steps): {' '.join(trace)}")
    if report.oracle_disagreements:
        return 1
    return 0


def _is_file(path: Path, other: str) -> bool:
    """Whether path names the existing file other."""
    try:
        return os.path.samefile(path, other)
    except OSError:
        return False


def cmd_translate(args) -> int:
    out_path = Path(args.out) if args.out else Path(args.file).with_suffix(".lfi")
    prov_path = Path(str(out_path) + ".prov")
    for path in (out_path, prov_path):
        if _is_file(path, args.file):
            print(f"error: cannot write {path}: it is the input file",
                  file=sys.stderr)
            return 2
    sig, report = _check_file(args.file, args.strict, None)
    result = trans_sig(sig)
    for path, lines in (
            (out_path, (pp_lfi_decl(d) for d in result.lfi_sig)),
            (prov_path, (f"{d.name}\t{result.provenance[d.name]}"
                         for d in result.lfi_sig))):
        try:
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        except OSError as e:
            print(f"error: cannot write {path}: {e.strerror or e}",
                  file=sys.stderr)
            return 2
    if not args.quiet:
        print(report.render())
        print(f"wrote {out_path} ({len(result.lfi_sig)} declarations) "
              f"and {prov_path}")
    if args.no_verify:
        return 0
    verify_translation(sig, result)
    if not args.quiet:
        print("verified: translated signature and all refinement proofs "
              "re-check")
    return 0


def cmd_verify(args) -> int:
    sig, report = _check_file(args.file, args.strict, None)
    result = trans_sig(sig)
    verify_translation(sig, result)
    if not args.quiet:
        print(report.render())
        refined = len({d.const for d in sig if isinstance(d, ConstRef)})
        print(f"verified: {len(result.lfi_sig)} translated declarations, "
              f"{refined} refined constants")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lfr",
        description="Sort checker and proof-irrelevant compiler for "
                    "refinement signatures.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp) -> None:
        sp.add_argument("file", help="signature file to process")
        sp.add_argument("--strict", action="store_true",
                        help="reject repeated refinements of one constant")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress the per-declaration report")

    pc = sub.add_parser("check", help="parse and sort-check a signature")
    common(pc)
    pc.add_argument("--oracle-depth", type=_search_depth, default=None,
                    metavar="N",
                    help="audit every atomic subsort comparison against the "
                         "declarative oracle at this search depth")
    pc.add_argument("--trace", action="store_true",
                    help="print the name of every checking rule applied")
    pc.set_defaults(func=cmd_check)

    pt = sub.add_parser("translate",
                        help="compile to the proof-irrelevant target")
    common(pt)
    pt.add_argument("-o", "--out", default=None,
                    help="output path (default: input with .lfi suffix)")
    pt.add_argument("--no-verify", action="store_true",
                    help="skip re-checking the emitted signature")
    pt.set_defaults(func=cmd_translate)

    pv = sub.add_parser("verify",
                        help="compile in memory and re-check the result")
    common(pv)
    pv.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Substitution reads the budget afresh for each walk; check it once
    # here, so that a bad value is a usage error and not a traceback.
    fuel = os.environ.get("LFR_FUEL")
    if fuel is not None:
        try:
            int(fuel)
        except ValueError:
            print(f"error: LFR_FUEL must be an integer, got {fuel!r}",
                  file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except MetricExhausted as e:
        print(f"error: search budget exhausted: {e}", file=sys.stderr)
        return 3
    except VerifyError as e:
        print(e.format(), file=sys.stderr)
        return 3
    except (LexError, ParseError) as e:
        print(e.format(), file=sys.stderr)
        return 2
    except LfrError as e:
        # Every other LfrError is a CheckError: the input is rejected.
        print(e.format(), file=sys.stderr)
        return 1
    except (RecursionError, TypeError) as e:
        # Internal invariants raise TypeError; neither is a verdict on
        # the input, so report it in one line instead of a traceback.
        print(f"error: internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
