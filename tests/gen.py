"""Deterministic generators for property and bulk tests.

Every generator takes a `choose(lo, hi)` callable instead of drawing
randomness itself, so one implementation serves both hypothesis
strategies (choose = draw integers) and plain `random.Random` loops used
for the high-volume acceptance runs.
"""

from __future__ import annotations

from lfr import parse_signature
from lfr.syntax import (
    App,
    Arrow,
    Base,
    Const,
    FVar,
    Lam,
    SConst,
    SInter,
    SPi,
    STop,
    TConst,
    TPi,
    close_at,
)

NAT = Base("nat")

# Closed constants usable at any point: name, simple type.
NAT_CONSTS = (
    ("z", NAT),
    ("s", Arrow(NAT, NAT)),
)


def unroll(alpha):
    """Split a simple type into its argument list and base target."""
    args = []
    while isinstance(alpha, Arrow):
        args.append(alpha.dom)
        alpha = alpha.cod
    return args, alpha


def arity(alpha) -> int:
    return len(unroll(alpha)[0])


def gen_simple(choose, depth: int):
    """A simple type over nat with at most `depth` nested arrows."""
    if depth <= 0 or choose(0, 2) == 0:
        return NAT
    return Arrow(gen_simple(choose, depth - 1), gen_simple(choose, depth - 1))


def simple_to_type(alpha):
    """The canonical dependency-free normal type with the given erasure."""
    if isinstance(alpha, Base):
        return TConst(alpha.name)
    return TPi("x", simple_to_type(alpha.dom), simple_to_type(alpha.cod))


def gen_eta_term(choose, ctx, alpha, depth: int, consts=NAT_CONSTS):
    """An eta-long, beta-normal term of simple type alpha.

    ctx is a list of (name, SimpleType) free variables the term may use.
    Every atomic subterm lands at base type, so hereditary substitution
    into these terms is always defined.
    """
    args, target = unroll(alpha)
    binders = []
    inner = list(ctx)
    taken = {n for n, _ in ctx}
    for i, a in enumerate(args):
        name = f"v{len(taken)}"
        while name in taken:
            name += "'"
        taken.add(name)
        binders.append(name)
        inner.append((name, a))

    pool = [(n, t, True) for n, t in inner] + [(n, t, False) for n, t in consts]
    candidates = [(n, t, v) for n, t, v in pool if unroll(t)[1] == target]
    if depth <= 0:
        nullary = [c for c in candidates if arity(c[1]) == 0]
        if nullary:
            candidates = nullary
        else:
            least = min(arity(c[1]) for c in candidates)
            candidates = [c for c in candidates if arity(c[1]) == least]
    name, ty, is_var = candidates[choose(0, len(candidates) - 1)]
    r = FVar(name) if is_var else Const(name)
    for beta in unroll(ty)[0]:
        r = App(r, gen_eta_term(choose, inner, beta, depth - 1, consts))
    n = r
    for b in reversed(binders):
        n = Lam(b, close_at(n, b))
    return n


def numeral(k: int):
    n = Const("z")
    for _ in range(k):
        n = App(Const("s"), n)
    return n


def gen_sort(choose, alpha, depth: int, bases=("even", "odd", "pos")):
    """An elaborated sort refining simple_to_type(alpha), depth-bounded.

    At base type: a declared sort constant, top, or an intersection.
    At arrow type: top, an intersection, or a function sort whose domain
    and codomain recurse (the codomain never uses the binder, matching
    the dependency-free refined type).
    """
    if depth <= 0:
        if isinstance(alpha, Base):
            return SConst(bases[choose(0, len(bases) - 1)])
        return STop()
    kind = choose(0, 3)
    if isinstance(alpha, Base):
        if kind == 0:
            return STop()
        if kind == 1:
            return SInter(gen_sort(choose, alpha, depth - 1, bases),
                          gen_sort(choose, alpha, depth - 1, bases))
        return SConst(bases[choose(0, len(bases) - 1)])
    if kind == 0:
        return STop()
    if kind == 1:
        return SInter(gen_sort(choose, alpha, depth - 1, bases),
                      gen_sort(choose, alpha, depth - 1, bases))
    return SPi("x",
               gen_sort(choose, alpha.dom, depth - 1, bases),
               simple_to_type(alpha.dom),
               gen_sort(choose, alpha.cod, depth - 1, bases))


def rng_chooser(rng):
    """Adapt a random.Random to the choose interface."""
    return rng.randint


def wide_signature(n: int):
    """ROADMAP's Wide family, parsed: a subsort chain of n sorts under nat
    and 2n refined constants, 6n+4 declarations."""
    lines = ["nat : type.", "z : nat.", "s : nat -> nat."]
    lines += [f"q{i} << nat." for i in range(n)]
    lines += [f"q{i} <: q{i + 1}." for i in range(n - 1)]
    lines += ["z :: q0.", "s :: q0 -> q0."]
    for i in range(n):
        lines += [f"c{i} : nat.", f"c{i} :: q{i}."]
    for i in range(n):
        lines += [f"d{i} : nat -> nat.", f"d{i} :: q{n - 1} -> q{n - 1}."]
    return parse_signature("\n".join(lines))


def chain_signature(n: int):
    """A k :: pp z whose index z needs a coercion along the n-sort chain
    q0 <: ... <: q(n-1)."""
    lines = ["nat : type.", "z : nat."]
    lines += [f"q{i} << nat." for i in range(n)]
    lines += [f"q{i} <: q{i + 1}." for i in range(n - 1)]
    lines += ["z :: q0.", "p : nat -> type.", f"pp << p :: q{n - 1} -> sort.",
              "k : p z.", "k :: pp z."]
    return parse_signature("\n".join(lines))
