"""Command-line front end.

Subcommands:
  check      parse and sort-check a signature
  translate  compile to the proof-irrelevant target and write it out
  verify     compile in memory and re-check the result

check --trace prints the rule names the checker logs; check
--oracle-depth N has check_signature audit each atomic comparison it
logs against the declarative rules, in the signature checked so far.

A call of one command builds that command's argument parser alone.  The
parser of every command, whose text is the same, is built only for what
that one cannot take: no command, help for lfr itself, or a usage error.

Exit codes: 0 success, 1 checking failure, 2 lexing or parsing failure
(including unreadable input and input that is not UTF-8) or a usage
error (bad options, a negative --oracle-depth, a non-integer LFR_FUEL,
an output path translate cannot write or that names its input, or a
standard output that takes no more: `error: cannot write standard
output: REASON`), 3 verification failure or search budget exhaustion,
4 internal error (input nested too deeply for the recursion limit, or a
broken internal invariant).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import time
from pathlib import Path

from .diagnostics import (
    LexError,
    LfrError,
    MetricExhausted,
    Node,
    ParseError,
    VerifyError,
    _Fuel,
)
from .lfr_check import check_signature
from .parser import SourceLines, parse_signature
from .printer import pp_lfi_decl, pp_sort
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


class RunReport(Node):
    """What a check run did; its lines, one per declaration of decls, are
    built only when it is rendered."""

    path: str
    decls: Signature
    elapsed: float
    oracle_checked: int
    oracle_disagreements: int

    def render(self) -> str:
        out = [f"checking {self.path}"]
        counts: dict[str, int] = {}
        for decl in self.decls:
            kind, line = _decl_line(decl)
            out.append("  " + line)
            counts[kind] = counts.get(kind, 0) + 1
        parts = ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items()))
        out.append(f"ok: {len(self.decls)} declarations"
                   + (f" ({parts})" if parts else "")
                   + f" in {self.elapsed:.3f}s")
        if self.oracle_checked:
            out.append(f"oracle audit: {self.oracle_checked} atomic "
                       f"comparisons, {self.oracle_disagreements} "
                       f"disagreements")
        return "\n".join(out)


def _decl_line(decl) -> tuple[str, str]:
    match decl:
        case TypeFam():
            return "type families", f"type family {decl.name}"
        case TermConst():
            return "constants", f"constant {decl.name}"
        case SortFam():
            return "sorts", f"sort {decl.name} refining {decl.refines}"
        case SubDecl():
            return "subsort declarations", f"subsorting {decl.sub} <: {decl.sup}"
        case ConstRef():
            return "refinements", f"refinement of {decl.const}"


def _read(path: str) -> str:
    """The text of path; one leading byte-order mark is dropped, and line
    ends are kept as they are, so that the parser places a token on the
    line parse_signature places it on."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        # e.object is the whole file after its byte-order mark: place the
        # byte after the characters before it, as the parser places one.
        before = e.object[:e.start].decode("utf-8")
        raise LexError(f"invalid UTF-8 byte {e.object[e.start]:#04x}",
                       SourceLines(before, path).span(len(before)))


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
                fuel: _Fuel, trace: list[str] | None = None
                ) -> tuple[Signature, RunReport]:
    text = _read(path)
    raw = parse_signature(text, filename=path)
    audited = [0, 0]    # atomic comparisons, disagreements

    def audit(sig, ctx, q, goal, ok: bool) -> None:
        audited[0] += 1
        oracle = declarative_subsort_oracle(
            SubsortQuery.make(sig, ctx, q, goal, None), oracle_depth)
        if oracle and not ok:
            audited[1] += 1
            print(f"oracle disagreement: {pp_sort(q)} <= {pp_sort(goal)} "
                  f"is derivable but the algorithm said no", file=sys.stderr)

    start = time.monotonic()
    sig = check_signature(raw, strict=strict, trace=trace,
                          audit=None if oracle_depth is None else audit,
                          fuel=fuel)
    return sig, RunReport(path, raw, time.monotonic() - start, *audited)


def cmd_check(args, fuel: _Fuel) -> int:
    trace: list[str] | None = [] if args.trace else None
    sig, report = _check_file(args.file, args.strict, args.oracle_depth,
                              fuel, trace=trace)
    if not args.quiet:
        _say(report.render())
    if trace is not None:
        _say(f"rule trace ({len(trace)} steps): {' '.join(trace)}")
    if report.oracle_disagreements:
        return 1
    return 0


def _is_file(path: Path, other: str) -> bool:
    """Whether path names the existing file other."""
    try:
        return os.path.samefile(path, other)
    except OSError:
        return False


def cmd_translate(args, fuel: _Fuel) -> int:
    if not (args.out or Path(args.file).name):
        # "/", "" and "." have no file name to name the output after; they
        # name a directory, so reading fails, as it does for check.
        _read(args.file)
    out_path = Path(args.out) if args.out else Path(args.file).with_suffix(".lfi")
    prov_path = Path(str(out_path) + ".prov")
    for path in (out_path, prov_path):
        if _is_file(path, args.file):
            print(f"error: cannot write {path}: it is the input file",
                  file=sys.stderr)
            return 2
    sig, report = _check_file(args.file, args.strict, None, fuel)
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
        _say(report.render())
        _say(f"wrote {out_path} ({len(result.lfi_sig)} declarations) "
             f"and {prov_path}")
    if args.no_verify:
        return 0
    verify_translation(sig, result)
    if not args.quiet:
        _say("verified: translated signature and all refinement proofs "
             "re-check")
    return 0


def cmd_verify(args, fuel: _Fuel) -> int:
    sig, report = _check_file(args.file, args.strict, None, fuel)
    result = trans_sig(sig)
    verify_translation(sig, result)
    if not args.quiet:
        _say(report.render())
        refined = len({d.const for d in sig if isinstance(d, ConstRef)})
        _say(f"verified: {len(result.lfi_sig)} translated declarations, "
             f"{refined} refined constants")
    return 0


# One line of help for each command, in the order the usage lists them.
_COMMANDS = {
    "check": "parse and sort-check a signature",
    "translate": "compile to the proof-irrelevant target",
    "verify": "compile in memory and re-check the result",
}


class _Refused(Exception):
    """A command's own parser cannot take its arguments."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help reports a failed write to standard
    output as the commands' output does; argparse would swallow it."""

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            _say(message, end="")
        else:
            super()._print_message(message, file)


class _CommandParser(_Parser):
    """A command's arguments alone.  It prints help, but it reports no
    usage error: it raises _Refused, and the full parser, which has the
    same arguments, parses the argv again and reports it."""

    def error(self, message):
        raise _Refused


def _command_parser(name: str, add_help: bool = True) -> argparse.ArgumentParser:
    """The arguments of command name, defined once: parsed alone for a
    call of name, and the parent of name's subparser in the full parser."""
    p = _CommandParser(prog=f"lfr {name}", add_help=add_help)
    p.add_argument("file", help="signature file to process")
    p.add_argument("--strict", action="store_true",
                   help="reject repeated refinements of one constant")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-declaration report")
    if name == "check":
        p.add_argument("--oracle-depth", type=_search_depth, default=None,
                       metavar="N",
                       help="audit every atomic subsort comparison against "
                            "the declarative oracle at this search depth")
        p.add_argument("--trace", action="store_true",
                       help="print the name of every checking rule applied")
        p.set_defaults(func=cmd_check)
    elif name == "translate":
        p.add_argument("-o", "--out", default=None,
                       help="output path (default: input with .lfi suffix)")
        p.add_argument("--no-verify", action="store_true",
                       help="skip re-checking the emitted signature")
        p.set_defaults(func=cmd_translate)
    else:
        p.set_defaults(func=cmd_verify)
    return p


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lfr",
        description="Sort checker and proof-irrelevant compiler for "
                    "refinement signatures.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, summary in _COMMANDS.items():
        sub.add_parser(name, help=summary,
                       parents=[_command_parser(name, add_help=False)])
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the full parser parses it, exiting on help or a
    usage error.  A call of one command that its own parser takes builds
    that parser alone: its help is the full parser's, and so is the
    namespace, but for a `command` attribute that nothing reads."""
    if argv and argv[0] in _COMMANDS:
        try:
            return _command_parser(argv[0]).parse_args(argv[1:])
        except _Refused:
            pass
    return _build_parser().parse_args(argv)


class _Unwritable(Exception):
    """Standard output refused a write: the OSError is the cause."""


def _say(text: str, end: str = "\n") -> None:
    """Write text and end to standard output, at once."""
    try:
        if sys.stdout is None:
            # Descriptor 1 was closed when Python started, and print
            # would drop the text without a word.
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        print(text, end=end, flush=True)
    except OSError as e:
        raise _Unwritable from e


def _stdout_failed(e: OSError) -> int:
    print(f"error: cannot write standard output: {e.strerror or e}",
          file=sys.stderr)
    # What was not written is still buffered, and the interpreter flushes
    # it again at exit: send it to the null device, or that flush fails
    # too and prints a second report.
    if sys.stdout is not None and sys.stdout is sys.__stdout__:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 2


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _Unwritable as e:
        return _stdout_failed(e.__cause__)
    # The one step budget of the command, handed to check_signature: the
    # checked signature carries it and trans_sig's output shares it, so
    # every stage draws on it and LFR_FUEL bounds the substitution steps
    # of both sides and the sort checker's search steps of the whole
    # command.  Translating and the kernel's rules are linear and take no
    # step.  It is read here, once, so that a bad value is a usage error
    # and not a traceback.
    try:
        fuel = _Fuel()
    except ValueError:
        print(f"error: LFR_FUEL must be an integer, "
              f"got {os.environ['LFR_FUEL']!r}", file=sys.stderr)
        return 2
    try:
        return args.func(args, fuel)
    except MetricExhausted as e:
        where = "" if e.span is None else f"{e.span}: "
        print(f"{where}error: search budget exhausted: {e}", file=sys.stderr)
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
    except _Unwritable as e:
        return _stdout_failed(e.__cause__)


if __name__ == "__main__":
    sys.exit(main())
