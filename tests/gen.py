"""Deterministic generators for property and bulk tests.

Every generator takes a `choose(lo, hi)` callable instead of drawing
randomness itself, so one implementation serves both hypothesis
strategies (choose = draw integers) and plain `random.Random` loops used
for the high-volume acceptance runs.
"""

from __future__ import annotations

from pathlib import Path

from lfr import lfi as L
from lfr import parse_signature
from lfr.syntax import (
    App,
    Arrow,
    Base,
    CInter,
    Const,
    CPi,
    CSort,
    CTop,
    FVar,
    KPi,
    KType,
    Lam,
    SApp,
    SConst,
    SInter,
    SPi,
    STop,
    TApp,
    TConst,
    TPi,
)

from oracles import close_at, close_lfi, node_fields, node_replace, open_at

NAT = Base("nat")

# Closed constants usable at any point: name, simple type.
NAT_CONSTS = (
    ("z", NAT),
    ("s", Arrow(NAT, NAT)),
)
# NAT_CONSTS and h, which takes a function, so that a term built with it
# puts its argument's variables under a binder.
HO_CONSTS = NAT_CONSTS + (("h", Arrow(Arrow(NAT, NAT), NAT)),)


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


def rehint(t, hint):
    """t, of either language, with each binder's hint replaced by a call
    of hint()."""
    if not node_fields(t):
        return t
    fields = {n: rehint(getattr(t, n), hint)
              for n in node_fields(t) if n != "hint"}
    if "hint" in node_fields(t):
        fields["hint"] = hint()
    return node_replace(t, **fields)


def bury(n):
    """`[x..] h ([w] M)` for the eta-long `[x..] M`: a term of the same
    type whose variables x.. occur under one more binder, so a
    substitution into them must shift what it puts there."""
    names = []
    while isinstance(n, Lam):
        names.append(f"u{len(names)}")
        n = open_at(n.body, FVar(names[-1]))
    n = App(Const("h"), Lam("w", n))
    for x in reversed(names):
        n = Lam(x, close_at(n, x))
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


def deep_text(d: int) -> str:
    """ROADMAP's Deep family: one constant indexed by s^d z, 13 lines.

    `c :: pp (s^d z)` holds only when d is even; it is the last line, so a
    rejection is reported at line 13.
    """
    index = "(s " * d + "z" + ")" * d
    lines = ["nat : type.", "z : nat.", "s : nat -> nat.",
             "even << nat.", "odd << nat.", "pos << nat.", "odd <: pos.",
             "z :: even.", "s :: even -> odd ^ odd -> even ^ # -> pos.",
             "p : nat -> type.", "pp << p :: even -> sort.",
             f"c : p {index}.", f"c :: pp {index}."]
    return "\n".join(lines) + "\n"


def inter_text(d: int) -> str:
    """ROADMAP's Inter family: one constant indexed by d + 1 nested `ap`,
    13 lines, the last `c :: pp (...)`; d >= 1.

    ap's refinement is an intersection of two function sorts, and each
    level's argument `[x] ap (...) x` checks against both, so the sort
    checker's search grows as 2^d.  Every d is accepted.
    """
    term = "ap ([x] s x) x"
    for _ in range(d - 1):
        term = f"ap ([x] {term}) x"
    term = f"ap ([x] {term}) z"
    lines = ["nat : type.", "z : nat.", "s : nat -> nat.",
             "ap : (nat -> nat) -> nat -> nat.",
             "even << nat.", "odd << nat.", "z :: even.",
             "s :: even -> odd ^ odd -> even.",
             "ap :: (even -> odd) -> even -> odd"
             " ^ (odd -> even) -> odd -> even.",
             "p : nat -> type.", "pp << p :: odd -> sort.",
             f"c : p ({term}).", f"c :: pp ({term})."]
    return "\n".join(lines) + "\n"


def binders_text(m: int) -> str:
    """tests/golden/cbv.lfr plus a rule whose m premises chain
    `eval A Ei E(i+1)` under m + 2 dependent binders: the benchmark's
    `binders` workload, with fixed names and the rule placed last."""
    es = [f"E{i}" for i in range(m + 1)]
    premises = "".join(f"\n    <- eval A {es[i]} {es[i + 1]}"
                       for i in range(m))
    goal = f"\n    eval A {es[0]} {es[m]}{premises}."
    typ = ("ev-chain : {A : tp} " + " ".join(f"{{{e} : exp A}}" for e in es)
           + goal)
    ref = (f"ev-chain :: {{A :: #}} {{{es[0]} :: cmp A}} "
           + " ".join(f"{{{e} :: val A}}" for e in es[1:]) + goal)
    cbv = (Path(__file__).parent / "golden" / "cbv.lfr").read_text()
    return f"{cbv}\n{typ}\n{ref}\n"


def deep_signature(d: int):
    """deep_text(d), parsed."""
    return parse_signature(deep_text(d))


def _fresh_var(ctx, stem: str = "b") -> str:
    taken = {n for n, _ in ctx}
    name = f"{stem}{len(ctx)}"
    while name in taken:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# Dependent classifiers: every binder's variable may occur further in.


def _nat_arg(choose, ctx, depth: int):
    return gen_eta_term(choose, ctx, NAT, choose(0, max(depth, 0)), HO_CONSTS)


def _binder(choose, ctx, depth: int, classifier):
    """(name, domain type, body) for a Pi binder over ctx; the domain is a
    simple-type mirror or, sometimes, a dependent family type."""
    name = _fresh_var(ctx)
    if choose(0, 3) == 0:
        dom, alpha = gen_type(choose, ctx, depth - 1), Base("p")
    else:
        alpha = NAT if choose(0, 1) else gen_simple(choose, 1)
        dom = simple_to_type(alpha)
    body = classifier(choose, ctx + [(name, alpha)], depth - 1)
    return name, dom, close_at(body, name)


def gen_type(choose, ctx, depth: int):
    """A normal type over ctx: Pi binders ending in `p N1 N2`, N1 and N2
    at nat."""
    if depth <= 0 or choose(0, 2) == 0:
        return TApp(TApp(TConst("p"), _nat_arg(choose, ctx, depth)),
                    _nat_arg(choose, ctx, depth))
    return TPi(*_binder(choose, ctx, depth, gen_type))


def gen_kind(choose, ctx, depth: int):
    """A kind over ctx: Pi binders ending in `type`."""
    if depth <= 0 or choose(0, 2) == 0:
        return KType()
    return KPi(*_binder(choose, ctx, depth, gen_kind))


def gen_dep_sort(choose, ctx, depth: int):
    """A sort over ctx: `q N`, top, intersections and function sorts."""
    k = 0 if depth <= 0 else choose(0, 3)
    if k == 0:
        return SApp(SConst("q"), _nat_arg(choose, ctx, depth))
    if k == 1:
        return STop()
    if k == 2:
        return SInter(gen_dep_sort(choose, ctx, depth - 1),
                      gen_dep_sort(choose, ctx, depth - 1))
    name, dom, cod = _binder(choose, ctx, depth, gen_dep_sort)
    return SPi(name, gen_dep_sort(choose, ctx, depth - 1), dom, cod)


def gen_class(choose, ctx, depth: int):
    """A class over ctx: `sort`, top, intersections and function classes."""
    k = 0 if depth <= 0 else choose(0, 3)
    if k == 0:
        return CSort()
    if k == 1:
        return CTop()
    if k == 2:
        return CInter(gen_class(choose, ctx, depth - 1),
                      gen_class(choose, ctx, depth - 1))
    name, dom, body = _binder(choose, ctx, depth, gen_class)
    return CPi(name, gen_dep_sort(choose, ctx, depth - 1), dom, body)


# A signature for the dependent classifiers: gen_dep_sort's atoms are
# q N, with q refining t; pp refines the p of gen_type's atoms, and k
# gives terms at the type t N.
REF_TEXT = (
    "nat : type. z : nat. s : nat -> nat. h : (nat -> nat) -> nat.\n"
    "even << nat. odd << nat. pos << nat. odd <: pos.\n"
    "z :: even. s :: even -> odd ^ odd -> even ^ # -> pos.\n"
    "h :: (even -> odd) -> even ^ # -> pos.\n"
    "t : nat -> type. k : {y : nat} t y.\n"
    "q << t :: (even -> sort) ^ (pos -> sort).\n"
    "k :: {y :: even} q y.\n"
    "p : nat -> nat -> type.\n"
    "pp << p :: # -> # -> sort.\n")
REF_CONSTS = HO_CONSTS + (("k", Arrow(NAT, Base("t"))),)
# Binder hints that the context x, x' (and y) uses, that the name pool
# draws for, and that nothing else uses.
HINTS = ("x", "x'", "y", "b1", "_")


def refining(choose, a):
    """A sort that refines the type a, or at nat one of four."""
    match a:
        case TPi(h, d, c):
            return SPi(h, refining(choose, d), d, refining(choose, c))
        case TApp(TApp(_, m), n):
            return SApp(SApp(SConst("pp"), m), n)
        case TApp(_, n):
            return SApp(SConst("q"), n)
    return (SConst("even"), SConst("odd"), SConst("pos"),
            STop())[choose(0, 3)]


def sort_fit(choose, t):
    """A generated sort or class with most function domains replaced by a
    sort that refines the domain type, so that most elaborate."""
    match t:
        case SPi(h, ds, dt, c) | CPi(h, ds, dt, c):
            if choose(0, 3):
                ds = refining(choose, dt)
            return type(t)(h, ds, dt, sort_fit(choose, c))
        case SInter(l, r) | CInter(l, r):
            return type(t)(sort_fit(choose, l), sort_fit(choose, r))
    return t


def refined(t):
    """The type or kind a fitted sort or class is meant to refine; None
    for a sort any type can carry."""
    match t:
        case SPi(h, _, dt, c):
            return TPi(h, dt, refined(c) or TApp(TConst("t"), Const("z")))
        case CPi(h, _, dt, c):
            return KPi(h, dt, refined(c))
        case SApp(_, n):
            return TApp(TConst("t"), n)
        case SInter(l, r) | CInter(l, r):
            return refined(l) or refined(r)
        case CSort() | CTop():
            return KType()
    return None


def mistype(t):
    """t with every z replaced by k z, which is a t z and no nat: each
    argument z occurs in is ill-typed in LF, and refined(mistype(t)) is
    mistype(refined(t))."""
    if t == Const("z"):
        return App(Const("k"), t)
    if not node_fields(t):
        return t
    return node_replace(t, **{n: mistype(getattr(t, n))
                              for n in node_fields(t)})


# ---------------------------------------------------------------------------
# Dependent function sorts over a family p : nat -> type, for subsorting.

FAM_TEXT = (
    "nat : type. z : nat. s : nat -> nat.\n"
    "even << nat. odd << nat. pos << nat. odd <: pos.\n"
    "z :: even. s :: even -> odd ^ odd -> even ^ # -> pos.\n"
    "p : nat -> type.\n"
    "pa << p. pb << p. pc << p. pa <: pb. pc <: pb.\n")


def gen_fam_type(choose, ctx, depth: int, level: int = 0):
    """A Pi type over ctx built from nat and p, ending in nat or `p N`.
    A domain is nat, nat -> nat or such a type; N may mention the
    variables bound at nat or nat -> nat, which ctx lists.  The binders
    are named b<level>, one level per binder, so none shadows another."""
    if depth <= 0 or choose(0, 2) == 0:
        if choose(0, 3) == 0:
            return TConst("nat")
        return TApp(TConst("p"), gen_eta_term(choose, ctx, NAT, choose(0, 2)))
    name = f"b{level}"
    k = choose(0, 2)
    if k == 2:
        dom, inner = gen_fam_type(choose, ctx, depth - 1, level + 1), ctx
    else:
        alpha = (NAT, Arrow(NAT, NAT))[k]
        dom, inner = simple_to_type(alpha), ctx + [(name, alpha)]
    cod = gen_fam_type(choose, inner, depth - 1, level + 1)
    return TPi(name, dom, close_at(cod, name))


def gen_refining(choose, a, depth: int):
    """A sort that refines the type a: top (#), intersections (^) down to
    depth, and the structure of a below it: at a Pi a function sort whose
    domain refines the domain type, at nat one of even, odd and pos, and
    at `p N` one of pa N, pb N and pc N, so a codomain mentions its bound
    variable where N does."""
    k = choose(0, 5) if depth > 0 else 5
    if k == 0:
        return STop()
    if k == 1:
        return SInter(gen_refining(choose, a, depth - 1),
                      gen_refining(choose, a, depth - 1))
    match a:
        case TPi(h, d, c):
            return SPi(h, gen_refining(choose, d, depth - 1), d,
                       gen_refining(choose, c, depth - 1))
        case TApp(_, n):
            return SApp(SConst(("pa", "pb", "pc")[choose(0, 2)]), n)
    return SConst(("even", "odd", "pos")[choose(0, 2)])


# A step up or down one declared FAM_TEXT edge.
_UP = {"odd": "pos", "pa": "pb", "pc": "pb"}
_DOWN = {"pos": "odd", "pb": "pa"}


def gen_above(choose, s, up: bool = True):
    """A sort that s is a subsort of, by the rules (below it, if not up):
    an atom may take a step along a FAM_TEXT edge, an intersection may
    drop a side, and a function sort goes the other way in its domain."""
    match s:
        case SInter(l, r):
            if up and choose(0, 2) == 0:
                return gen_above(choose, (l, r)[choose(0, 1)], up)
            return SInter(gen_above(choose, l, up), gen_above(choose, r, up))
        case SPi(h, ds, dt, c):
            return SPi(h, gen_above(choose, ds, not up), dt,
                       gen_above(choose, c, up))
        case SApp(f, m):
            return SApp(gen_above(choose, f, up), m)
        case SConst(n) if choose(0, 1):
            return SConst((_UP if up else _DOWN).get(n, n))
    return s


# ---------------------------------------------------------------------------
# The target calculus: terms at extended simple types, types and kinds.

LFI_NAT = L.IBase("nat")
# h takes a function, so a term built with it puts its argument's
# variables under a binder.
LFI_CONSTS = (("z", LFI_NAT), ("s", L.IArrow(LFI_NAT, LFI_NAT)),
              ("h", L.IArrow(L.IArrow(LFI_NAT, LFI_NAT), LFI_NAT)))


def gen_lfi_simple(choose, depth: int):
    """An extended simple type over nat: arrows, products, unit."""
    k = 0 if depth <= 0 else choose(0, 3)
    if k == 0:
        return LFI_NAT
    if k == 3:
        return L.IUnitS()
    ctor = (L.IArrow, L.IProdS)[k - 1]
    return ctor(gen_lfi_simple(choose, depth - 1),
                gen_lfi_simple(choose, depth - 1))


def gen_lfi_usable(choose, depth: int):
    """gen_lfi_simple, made to end in nat where it would not: a variable
    of this type can head an atomic term, and a term of it contains one."""
    alpha = gen_lfi_simple(choose, depth)
    return alpha if _eliminations(alpha, LFI_NAT) else L.IArrow(alpha, LFI_NAT)


def lfi_simple_to_type(alpha):
    """The dependency-free target type with erasure alpha."""
    match alpha:
        case L.IBase(n):
            return L.ITConst(n)
        case L.IArrow(d, c):
            return L.ITPi("x", lfi_simple_to_type(d), lfi_simple_to_type(c))
        case L.IProdS(l, r):
            return L.ITProd(lfi_simple_to_type(l), lfi_simple_to_type(r))
        case L.IUnitS():
            return L.ITUnitT()
    raise TypeError(alpha)


def _eliminations(ty, target) -> list:
    """Every spine (application and projection steps) that takes a head
    of type ty to the base type target."""
    match ty:
        case L.IBase():
            return [[]] if ty == target else []
        case L.IArrow(d, c):
            return [[("app", d)] + p for p in _eliminations(c, target)]
        case L.IProdS(l, r):
            return ([[("fst",)] + p for p in _eliminations(l, target)]
                    + [[("snd",)] + p for p in _eliminations(r, target)])
    return []


def gen_lfi_term(choose, ctx, alpha, depth: int, consts=LFI_CONSTS):
    """An eta-long, beta-normal target term of extended simple type alpha.

    Functions are lambdas, products pairs, unit `<>`; at base type a head
    from ctx or consts is eliminated down to alpha, so every occurrence
    of a variable is fully applied and hereditary substitution into the
    term is defined.
    """
    match alpha:
        case L.IArrow(d, c):
            name = _fresh_var(ctx, "v")
            body = gen_lfi_term(choose, ctx + [(name, d)], c, depth, consts)
            return L.ILam(name, close_lfi(body, name))
        case L.IProdS(l, r):
            return L.IPair(gen_lfi_term(choose, ctx, l, depth, consts),
                           gen_lfi_term(choose, ctx, r, depth, consts))
        case L.IUnitS():
            return L.IUnit()
    pool = ([(L.IFVar(n), t) for n, t in ctx]
            + [(L.IConst(n), t) for n, t in consts])
    cands = [(h, p) for h, t in pool for p in _eliminations(t, alpha)]
    if depth <= 0:
        cands = [(h, p) for h, p in cands
                 if all(step[0] in ("fst", "snd") for step in p)]
    # Variables head two atoms in three where they can, so that bound and
    # substituted variables occur often.
    var_cands = [c for c in cands if isinstance(c[0], L.IFVar)]
    if var_cands and choose(0, 2):
        cands = var_cands
    r, path = cands[choose(0, len(cands) - 1)]
    for step in path:
        match step:
            case ("app", d):
                r = L.IApp(r, gen_lfi_term(choose, ctx, d, depth - 1, consts))
            case ("fst",):
                r = L.IFst(r)
            case ("snd",):
                r = L.ISnd(r)
    return r


def _lfi_binder(choose, ctx, depth: int, classifier, consts):
    name = _fresh_var(ctx)
    if choose(0, 1) == 0:
        dom = gen_lfi_type(choose, ctx, depth - 1, consts)
        alpha = L.lfi_erase_type(dom)
    else:
        alpha = gen_lfi_simple(choose, 1)
        dom = lfi_simple_to_type(alpha)
    body = classifier(choose, ctx + [(name, alpha)], depth - 1, consts)
    return name, dom, close_lfi(body, name)


def gen_lfi_type(choose, ctx, depth: int, consts=LFI_CONSTS):
    """A target type over ctx: Pi, products, unit, and `p [[N1]] N2` with
    N1 and N2 at nat; its terms' heads come from ctx and consts."""
    k = 0 if depth <= 0 else choose(0, 3)
    if k == 0:
        proof = gen_lfi_term(choose, ctx, LFI_NAT, choose(0, max(depth, 0)),
                             consts)
        index = gen_lfi_term(choose, ctx, LFI_NAT, choose(0, max(depth, 0)),
                             consts)
        return L.ITApp(L.ITIrrApp(L.ITConst("p"), proof), index)
    if k == 2:
        return L.ITProd(gen_lfi_type(choose, ctx, depth - 1, consts),
                        gen_lfi_type(choose, ctx, depth - 1, consts))
    if k == 3:
        return L.ITUnitT()
    return L.ITPi(*_lfi_binder(choose, ctx, depth, gen_lfi_type, consts))


def gen_lfi_kind(choose, ctx, depth: int, consts=LFI_CONSTS):
    """A target kind over ctx: both Pi forms and `type`."""
    k = 0 if depth <= 0 else choose(0, 2)
    if k == 0:
        return L.IKType()
    ctor = L.IKPi if k == 1 else L.IKIrrPi
    return ctor(*_lfi_binder(choose, ctx, depth, gen_lfi_kind, consts))
