"""Compare what `lfr` prints and writes in this checkout with revision REV.

Run from anywhere, with git on the path:

    python3 tools/parity.py REV

REV (a commit, a branch or a tag) is unpacked with `git archive` into a
temporary directory.  Both trees then run, each as `python -m lfr.cli`
on its own `src` and in a directory of its own that holds the same
inputs at the same relative paths:

- `check`, `translate`, `translate --no-verify` and `verify` on every
  `tests/golden/*.lfr` (the `bad-*` files too), on the benchmark's
  Wide, Deep and binders texts (bench/workloads.py) at seeds 1-3, and on
  the Inter texts (tests/gen.py) of depth 2-6, whose intersections make
  the sort checker search;
- `check --trace --oracle-depth 2` on the goldens, the Inter texts and
  the Deep texts of depth at most 12 only: the trace and the audit grow
  as 2^d;
- `check` and `verify` with `LFR_FUEL` at 5 and at 20 on the goldens and
  the Deep and Inter texts, budgets low enough that some runs exhaust
  them, so that the place and the path each `search budget exhausted`
  message names are compared;
- `check` and `verify` on texts that fail to lex or parse, so that each
  located message of exit code 2 is compared: each golden with a `@` at
  its start, middle and end, with its middle declaration cut in half,
  given an extra `)` or preceded by `%infix left`, with its lines ended
  by CR alone and a `@` at its end, and without its comments, with a `@`
  in its middle and its lines ended by CR alone; and
  short texts at the lexer's boundaries, a
  projection or a `-` before a name character, `-` or `>`.

For each run it compares the exit code, standard output with the
elapsed time masked, standard error, and after a `translate` the bytes
of the `.lfi` and `.prov` files.  It prints one line per difference and
exits 1 if there is any, 0 if there is none, and 2 if REV cannot be
unpacked.  The inputs come from this checkout; nothing in it is changed.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SEEDS = (1, 2, 3)
INTER_DEPTHS = range(2, 7)
TRACE_DEPTH = 12
COMMANDS = (["check"], ["translate"], ["translate", "--no-verify"],
            ["verify"])
TRACED = ["check", "--trace", "--oracle-depth", "2"]
FUELS = (5, 20)
BUDGETED = (["check"], ["verify"])
MALFORMED = (["check"], ["verify"])
LEXER_TEXTS = ("c : a.1->b.", "c : a.2-:>b.", "a.1-b", "x.1y", ".12", "1.1",
               "a-b", "a--b", "a-->b", "a-", "a- b", "%infixx", "a-^b",
               "a^-b")
ELAPSED = re.compile(r" in \d+\.\d+s$", re.M)


def _gen():
    """tests/gen.py of this checkout, imported with this checkout's lfr."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import gen
    return gen


def _workloads():
    """bench/workloads.py of this checkout, loaded as a module."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("parity_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # for its dataclass
    spec.loader.exec_module(module)
    return module


def _runs(traced: bool, budgeted: bool) -> list[tuple[int | None, list]]:
    """The (fuel, command) runs of a well-formed input: the commands, the
    trace and audit when traced, the low budgets when budgeted."""
    runs = [(None, c) for c in COMMANDS]
    if traced:
        runs.append((None, TRACED))
    if budgeted:
        runs += [(f, c) for f in FUELS for c in BUDGETED]
    return runs


def malformed(stem: str, text: str) -> list[tuple[str, str]]:
    """(file name, text) of the texts derived from a golden's that fail to
    lex or parse."""
    lines = text.splitlines(keepends=True)
    middle = [i for i, line in enumerate(lines)
              if line[:1].isalpha() and line.rstrip().endswith(".")]
    i = middle[len(middle) // 2]
    before, line, after = "".join(lines[:i]), lines[i], "".join(lines[i + 1:])
    decl = line.rstrip()
    out = {f"at-{k}": text[:at] + "@" + text[at:]
           for k, at in enumerate((0, len(text) // 2, len(text)))}
    out["cut"] = before + decl[:len(decl) // 2]
    out["paren"] = before + decl[:-1] + ")." + line[len(decl):] + after
    out["infix-left"] = before + "%infix left 10 s.\n" + line + after
    out["cr-end"] = text.replace("\n", "\r") + "@"
    # Without comments, the `@` in the middle falls among declarations.
    code = "".join(line for line in lines if not line.startswith("%"))
    half = len(code) // 2
    out["cr"] = (code[:half] + "@" + code[half:]).replace("\n", "\r")
    return [(f"{stem}-{k}.lfr", t) for k, t in out.items()]


def inputs() -> list[tuple[str, str, list]]:
    """(file name, text, runs) of every input, runs as _runs gives them."""
    malformed_runs = [(None, c) for c in MALFORMED]
    out = []
    for p in sorted(GOLDEN.glob("*.lfr")):
        text = p.read_text(encoding="utf-8")
        out.append((p.name, text, _runs(True, True)))
        out += [(name, bad, malformed_runs)
                for name, bad in malformed(p.stem, text)]
    out += [(f"lexer-{k}.lfr", text, malformed_runs)
            for k, text in enumerate(LEXER_TEXTS)]
    w = _workloads()
    cbv = (GOLDEN / "cbv.lfr").read_text(encoding="utf-8")
    for seed in SEEDS:
        out.append((f"wide-{seed}.lfr", w.wide_text(w.WIDE_N, seed),
                    _runs(False, False)))
        for depth in (w.DEEP_ACCEPTED, w.DEEP_REJECTED):
            out.append((f"deep-{depth}-{seed}.lfr", w.deep_text(depth, seed),
                        _runs(depth <= TRACE_DEPTH, True)))
        out.append((f"binders-{seed}.lfr",
                    w.binders_text(cbv, w.BINDERS_M, seed),
                    _runs(False, False)))
    gen = _gen()
    out += [(f"inter-{d}.lfr", gen.inter_text(d), _runs(True, True))
            for d in INTER_DEPTHS]
    return out


def unpack(rev: str, into: Path) -> bool:
    """Write the tree of rev under into; False, with a report, if git
    cannot."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True)
    if archive.returncode != 0:
        print(f"error: cannot unpack {rev}: "
              f"{archive.stderr.decode(errors='replace').strip()}",
              file=sys.stderr)
        return False
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout,
                   check=True)
    return True


class Tree:
    """One tree's lfr, run in a work directory holding the inputs."""

    def __init__(self, src: Path, work: Path, texts) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.work = work
        work.mkdir()
        for name, text, *_ in texts:
            (work / name).write_text(text, encoding="utf-8")

    def run(self, argv: list[str], name: str,
            fuel: int | None = None) -> dict[str, object]:
        """What one call printed and wrote, with LFR_FUEL set to fuel
        unless it is None."""
        written = [self.work / Path(name).with_suffix(".lfi")]
        written.append(Path(f"{written[0]}.prov"))
        for path in written:
            path.unlink(missing_ok=True)
        env = self.env if fuel is None else dict(self.env, LFR_FUEL=str(fuel))
        proc = subprocess.run(
            [sys.executable, "-m", "lfr.cli", *argv, name], cwd=self.work,
            env=env, capture_output=True)
        out = {"exit code": proc.returncode,
               "stdout": ELAPSED.sub(" in <elapsed>s",
                                     proc.stdout.decode(errors="replace")),
               "stderr": proc.stderr}
        if argv[0] == "translate":
            for path in written:
                out[path.suffix] = (path.read_bytes() if path.exists()
                                    else None)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parity.py",
        description="Compare lfr's output in this checkout with REV's.")
    parser.add_argument("rev", metavar="REV",
                        help="the revision to compare with")
    args = parser.parse_args(argv)
    texts = inputs()
    with tempfile.TemporaryDirectory(prefix="lfr-parity-") as tmp:
        base = Path(tmp) / "rev"
        base.mkdir()
        if not unpack(args.rev, base):
            return 2
        theirs = Tree(base / "src", Path(tmp) / "rev-work", texts)
        ours = Tree(ROOT / "src", Path(tmp) / "work", texts)
        runs = differences = 0
        for name, _, runs_on in texts:
            for fuel, command in runs_on:
                runs += 1
                old = theirs.run(command, name, fuel)
                new = ours.run(command, name, fuel)
                budget = "" if fuel is None else f"LFR_FUEL={fuel} "
                for what in old:
                    if old[what] != new[what]:
                        differences += 1
                        print(f"{name}: {budget}lfr {' '.join(command)}: "
                              f"{what} differs")
    print(f"{runs} runs on {len(texts)} inputs, {differences} differences "
          f"from {args.rev}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
