"""Seeded input generators for the three benchmark workloads.

Each workload is a list of `Input`s, one pass of the benchmark processes
every input once.  The seed permutes declarations that do not depend on
each other and renames generated identifiers to names of the same
length, so sizes, output byte counts and the amount of checking work
never depend on it.

- wide:    ROADMAP's Wide family at n=200 (6n+4 declarations).
- deep:    ROADMAP's Deep family at d=12 (accepted) and d=13 (rejected).
- binders: tests/golden/cbv.lfr plus one rule whose m=8 premises chain
           `eval A E(i) E(i+1)` under nine dependent binders.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

WIDE_N = 200
DEEP_ACCEPTED = 12
DEEP_REJECTED = 13
BINDERS_M = 8

LOWER = "abcdefghijklmnopqrtuvwxy"   # no s or z: those name nat's constants
UPPER = "CDFGHJKLMNPQRSTUWXY"        # no A or B: cbv binds those


@dataclass(frozen=True)
class Input:
    """One signature and the answer the CLI must give for it."""

    name: str
    text: str
    exit_code: int                   # 0 accepted, 1 rejected by the checker
    lfi_decls: int | None = None     # target declarations, when pinned
    error_line: int | None = None    # line of the diagnostic, when rejected


RESERVED = {"nat", "odd", "pos", "even", "type", "sort", "tp", "arr", "exp",
            "cmp", "val", "lam", "app", "eval"}


def _stems(rng: random.Random, k: int, length: int,
           alphabet: str = LOWER) -> list[str]:
    """k distinct identifiers of one fixed length."""
    out: list[str] = []
    while len(out) < k:
        stem = "".join(rng.choice(alphabet) for _ in range(length))
        if stem not in out and stem not in RESERVED:
            out.append(stem)
    return out


def wide_text(n: int, seed: int) -> str:
    """The Wide family: a subsort chain of n sorts and 2n refined constants.

    Sort families and refinement pairs are permuted; the chain stays in
    order, because the order of `<:` declarations sets how much work
    rebuilding the subsort closure does.
    """
    rng = random.Random(f"wide/{seed}")
    q, c, d = _stems(rng, 3, 2)
    sorts = [f"{q}{i} << nat." for i in range(n)]
    rng.shuffle(sorts)
    chain = [f"{q}{i} <: {q}{i + 1}." for i in range(n - 1)]
    pairs = [[f"{c}{i} : nat.", f"{c}{i} :: {q}{i}."] for i in range(n)]
    pairs += [[f"{d}{i} : nat -> nat.",
               f"{d}{i} :: {q}{n - 1} -> {q}{n - 1}."] for i in range(n)]
    rng.shuffle(pairs)
    lines = ["nat : type.", "z : nat.", "s : nat -> nat."]
    lines += sorts + chain
    lines += [f"z :: {q}0.", f"s :: {q}0 -> {q}0."]
    lines += [line for pair in pairs for line in pair]
    return "\n".join(lines) + "\n"


def deep_text(depth: int, seed: int) -> str:
    """The Deep family: one constant indexed by s^depth z.

    `c :: pp (s^depth z)` holds only when depth is even; it is always the
    13th and last line, so a rejection is reported there.
    """
    rng = random.Random(f"deep/{seed}")
    p, pp, c = _stems(rng, 3, 3)
    consts = ["z : nat.", "s : nat -> nat."]
    sorts = ["even << nat.", "odd << nat.", "pos << nat."]
    refs = ["z :: even.", "s :: even -> odd ^ odd -> even ^ # -> pos."]
    for group in (consts, sorts, refs):
        rng.shuffle(group)
    index = "(s " * depth + "z" + ")" * depth
    lines = (["nat : type."] + consts + sorts + ["odd <: pos."] + refs
             + [f"{p} : nat -> type.",
                f"{pp} << {p} :: even -> sort.",
                f"{c} : {p} {index}.",
                f"{c} :: {pp} {index}."])
    return "\n".join(lines) + "\n"


_DECL_END = re.compile(r"\.[ \t]*\n")


def _declarations(text: str) -> list[str]:
    """Split a signature into declarations, dropping whole-line comments."""
    body = "".join(line + "\n" for line in text.splitlines()
                   if not line.lstrip().startswith("%")
                   or line.lstrip().startswith("%infix"))
    return [chunk.strip() + "." for chunk in _DECL_END.split(body)
            if chunk.strip()]


def binders_text(cbv: str, m: int, seed: int) -> str:
    """cbv.lfr plus a rule chaining m evaluation premises.

    The rule's type goes somewhere after `eval`'s declaration and its
    refinement somewhere after the sort family `eval`; both positions
    and all generated names come from the seed.
    """
    rng = random.Random(f"binders/{seed}")
    rule = "ev-" + _stems(rng, 1, 5)[0]
    letter = rng.choice(UPPER)
    es = [f"{letter}{i}" for i in range(m + 1)]
    premises = "".join(f"\n    <- eval A {es[i]} {es[i + 1]}"
                       for i in range(m))
    typ = (f"{rule} : {{A : tp}} "
           + " ".join(f"{{{e} : exp A}}" for e in es)
           + f"\n    eval A {es[0]} {es[m]}{premises}.")
    ref = (f"{rule} :: {{A :: #}} {{{es[0]} :: cmp A}} "
           + " ".join(f"{{{e} :: val A}}" for e in es[1:])
           + f"\n    eval A {es[0]} {es[m]}{premises}.")
    decls = _declarations(cbv)
    type_after = next(i for i, d in enumerate(decls) if d.startswith("eval :"))
    sort_after = next(i for i, d in enumerate(decls) if d.startswith("eval <<"))
    decls.insert(rng.randint(sort_after + 1, len(decls)), ref)
    decls.insert(rng.randint(type_after + 1, sort_after), typ)
    return "\n".join(decls) + "\n"


def make_workload(name: str, seed: int, golden_dir: Path) -> list[Input]:
    if name == "wide":
        return [Input("wide", wide_text(WIDE_N, seed), 0,
                      lfi_decls=8 * WIDE_N + 4)]
    if name == "deep":
        return [Input("deep-12", deep_text(DEEP_ACCEPTED, seed), 0),
                Input("deep-13", deep_text(DEEP_REJECTED, seed), 1,
                      error_line=13)]
    if name == "binders":
        cbv = (golden_dir / "cbv.lfr").read_text()
        return [Input("binders", binders_text(cbv, BINDERS_M, seed), 0)]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("wide", "deep", "binders")
