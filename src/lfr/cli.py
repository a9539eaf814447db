"""Command-line front end.

Subcommands:
  check      parse and sort-check a signature
  translate  compile to the proof-irrelevant target and write it out
  verify     compile in memory and re-check the result

Exit codes: 0 success, 1 checking failure, 2 lexing or parsing failure
(including unreadable input), 3 verification failure or search budget
exhaustion, 4 internal error (input nested too deeply for the recursion
limit, or a broken internal invariant).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import CheckError, LexError, LfrError, ParseError, VerifyError
from .lfr_check import check_signature, set_subsort_audit
from .parser import parse_signature
from .printer import pp_lfi_decl
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
    return "declarations", "declaration"


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}")


def _check_file(path: str, strict: bool, oracle_depth: int | None,
                trace: list[str] | None = None
                ) -> tuple[Signature, RunReport]:
    text = _read(path)
    raw = parse_signature(text, filename=path)
    report = RunReport(path)

    def on_decl(decl) -> None:
        kind, line = _decl_line(decl)
        report.add(kind, line)

    shadow = Signature()
    audit_installed = False
    if oracle_depth is not None:
        def on_decl_shadow(decl) -> None:
            shadow.append(decl)
            on_decl(decl)

        def audit(ctx, q, goal, ok: bool) -> None:
            report.oracle_checked += 1
            oracle = declarative_subsort_oracle(
                SubsortQuery.make(shadow, ctx, q, goal, None), oracle_depth)
            if oracle and not ok:
                report.oracle_disagreements += 1
                from .printer import pp_sort
                print(f"oracle disagreement: {pp_sort(q)} <= {pp_sort(goal)} "
                      f"is derivable but the algorithm said no",
                      file=sys.stderr)

        set_subsort_audit(audit)
        audit_installed = True
        hook = on_decl_shadow
    else:
        hook = on_decl

    start = time.monotonic()
    try:
        sig = check_signature(raw, strict=strict, trace=trace, on_decl=hook)
    finally:
        if audit_installed:
            set_subsort_audit(None)
    report.elapsed = time.monotonic() - start
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


def cmd_translate(args) -> int:
    sig, report = _check_file(args.file, args.strict, None)
    result = trans_sig(sig)
    out_path = Path(args.out) if args.out else Path(args.file).with_suffix(".lfi")
    prov_path = Path(str(out_path) + ".prov")
    out_path.write_text(
        "\n".join(pp_lfi_decl(d) for d in result.lfi_sig) + "\n")
    prov_path.write_text(
        "\n".join(f"{d.name}\t{result.provenance[d.name]}"
                  for d in result.lfi_sig) + "\n")
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
    pc.add_argument("--oracle-depth", type=int, default=None, metavar="N",
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
    except CheckError as e:
        print(e.format(), file=sys.stderr)
        return 1
    except LfrError as e:
        print(e.format(), file=sys.stderr)
        return 1
    except (RecursionError, TypeError) as e:
        # Internal invariants raise TypeError; neither is a verdict on
        # the input, so report it in one line instead of a traceback.
        print(f"error: internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
