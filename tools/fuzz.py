"""Mutate the golden signatures and check four properties of `lfr` on each.

Run from anywhere:

    python3 tools/fuzz.py [--seed N] [--count N]

It uses the standard library and this checkout's `src` only.  Each of
COUNT mutants (300 by default) is the bytes of one `tests/golden/*.lfr`
file (the `bad-*` files too) after one to three mutations, drawn from a
random generator seeded with SEED (1 by default), so a run is repeated
exactly:

- bytes: insert a run at an offset (the start one time in eight), drop
  up to eight bytes there, or replace up to eight bytes with a run; a run is a `\\r`, `\\n`, CRLF, `\\x00`,
  `\\xff`, a cut UTF-8 sequence, a byte-order mark, a run of 1 to 5 000
  digits, or brackets (one to four of `()[]{}`, or up to 60 nested
  parentheses, well below the depth at which Python's stack runs out);
- declarations (a text up to a `.` that ends its line): drop one,
  duplicate one or swap two.

Each mutant is written to a file and checked for these properties:

1. In-process `lfr check` and `lfr verify` exit 0-3, and raise nothing:
   no traceback, and no exit 4 (an internal error).
2. Exits 1-3 print one line on standard error, located at
   `FILE:LINE:COL: error: `; a file that cannot be read is exempt.
3. `lfr check`'s first line on standard error is `format()` of the error
   that `check_signature(parse_signature(text))` raises on the same
   bytes decoded as the CLI decodes them, and it exits 0 when the
   library raises nothing.  Bytes that are not UTF-8 have no text for
   the library and are skipped here.
4. An accepted text's `pp_signature` re-parses to an equal signature.

It prints one line for each broken property, with the mutant as a
Python bytes literal, then a summary, and exits 1 if a property broke,
0 if none did.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from lfr import check_signature, parse_signature, pp_signature  # noqa: E402
from lfr.cli import main as lfr_main  # noqa: E402
from lfr.diagnostics import LfrError, MetricExhausted  # noqa: E402

LOCATED = r":\d+:\d+: error: [^\n]*\n"
DECL_END = re.compile(rb"(?<=\.)\n")
RUNS = (b"\r", b"\n", b"\r\n", b"\x00", b"\xff", b"\xc3", b"\xef\xbb\xbf")


def goldens() -> list[tuple[str, bytes]]:
    return [(p.name, p.read_bytes()) for p in sorted(GOLDEN.glob("*.lfr"))]


def _run(rng: random.Random) -> bytes:
    """A run of bytes to insert or to replace others with."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(RUNS)
    if kind == 1:
        return b"9" * rng.choice((1, 2, 40, 4300, 4301, 5000))
    if rng.randrange(2):
        return bytes(rng.choice(b"()[]{}") for _ in range(rng.randint(1, 4)))
    depth = rng.randint(1, 60)
    return b"(" * depth + b"z" + b")" * depth


def _mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    # The start of the file, where a byte-order mark is dropped, one time
    # in eight.
    at = 0 if rng.randrange(8) == 0 else rng.randint(0, len(data))
    kind = rng.randrange(3)
    if kind == 0:
        return data[:at] + _run(rng) + data[at:]
    cut = rng.randint(1, 8)
    return data[:at] + (b"" if kind == 1 else _run(rng)) + data[at + cut:]


def _mutate_decls(rng: random.Random, data: bytes) -> bytes:
    decls = DECL_END.split(data)
    i, j = rng.randrange(len(decls)), rng.randrange(len(decls))
    kind = rng.randrange(3)
    if kind == 0:
        del decls[i]
    elif kind == 1:
        decls.insert(i, decls[i])
    else:
        decls[i], decls[j] = decls[j], decls[i]
    return b"\n".join(decls)


def mutants(seed: int, count: int):
    """(golden file name, mutant bytes), count of them, from seed."""
    rng = random.Random(seed)
    sources = goldens()
    for _ in range(count):
        name, data = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            mutate = _mutate_bytes if rng.randrange(3) else _mutate_decls
            data = mutate(rng, data)
        yield name, data


def _cli(argv: list[str]) -> tuple[object, str]:
    """The exit code of an in-process `lfr` call, or the exception it
    raised, and what it printed on standard error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = lfr_main(argv)
        except Exception as e:      # the property: there is none
            code = e
    return code, err.getvalue()


def _library(text: str, path: str) -> tuple[str | None, object]:
    """(the line the library's error gives, or None if it accepts the
    text; the parsed signature)."""
    raw = None
    try:
        raw = parse_signature(text, filename=path)
        check_signature(raw)
    except LfrError as e:
        return e.format(), raw
    except MetricExhausted as e:
        where = "" if e.span is None else f"{e.span}: "
        return f"{where}error: search budget exhausted: {e}", raw
    return None, raw


def violations(path: Path, data: bytes) -> tuple[object, list[str]]:
    """`lfr check`'s exit code on the mutant data, written to path, and
    the properties it breaks."""
    path.write_bytes(data)
    out = []
    located = re.compile(re.escape(str(path)) + LOCATED)
    for command in ("verify", "check"):     # check's result is read below
        code, err = _cli([command, str(path)])
        if not isinstance(code, int) or not 0 <= code <= 3:
            out.append(f"1: lfr {command} ended in {code!r}")
        elif code and not err.startswith(f"error: cannot read {path}") \
                and not located.fullmatch(err):
            out.append(f"2: lfr {command} exit {code} printed {err!r}")
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return code, out
    try:
        expected, raw = _library(text, str(path))
    except Exception as e:          # the property of the CLI, in the library
        return code, out + [f"1: the library ended in {e!r}"]
    got = err.partition("\n")[0] if code else None
    if got != expected:
        out.append(f"3: lfr check said {got!r}, the library {expected!r}")
    if expected is None:
        try:
            again = parse_signature(pp_signature(raw)).decls
        except LfrError as e:
            again = e.format()
        if again != raw.decls:
            out.append(f"4: pp_signature re-parses to {again!r}")
    return code, out


def fuzz(seed: int, count: int, report=print) -> Counter:
    """Check count mutants from seed; report each broken property.  The
    counter holds `check`'s exit codes by `exit N` and the broken
    properties by `broken`."""
    seen: Counter = Counter()
    with tempfile.TemporaryDirectory(prefix="lfr-fuzz-") as tmp:
        for k, (name, data) in enumerate(mutants(seed, count)):
            path = Path(tmp) / name
            code, found = violations(path, data)
            seen[f"exit {code}"] += 1
            seen["broken"] += len(found)
            for line in found:
                report(f"mutant {k} of {name}: property {line}: {data!r}")
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fuzz.py",
        description="Check lfr's properties on mutants of the goldens.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=300)
    args = parser.parse_args(argv)
    seen = fuzz(args.seed, args.count)
    exits = ", ".join(f"{k}: {v}" for k, v in sorted(seen.items())
                      if k.startswith("exit"))
    print(f"{args.count} mutants from seed {args.seed} ({exits}); "
          f"{seen['broken']} broken properties")
    return 1 if seen["broken"] else 0


if __name__ == "__main__":
    sys.exit(main())
