"""Pretty printers for source and target syntax.

Printing aims for minimal parentheses while staying reparseable: the
property parse(print(x)) == x (up to alpha-equivalence) is the contract.

Each position carries a precedence level and an "extends" flag.  Levels:
0 full expression, 1 intersection operand, 2 arrow domain or product
side, 3 application head, 4 spine argument.  The flag records whether
the reparse of this position runs to a closing delimiter, which is what
makes a bare binder (maximal scope) safe to print.

Neither printer opens a binder: both carry the names of the enclosing
binders and look a bound index up in them, and one `_pi` prints the Pi
forms of both languages.
"""

from __future__ import annotations

from . import lfi as L
from .diagnostics import fresh_name
from .syntax import (
    App,
    BVar,
    CInter,
    Const,
    ConstRef,
    CPi,
    CSort,
    CTop,
    FVar,
    KPi,
    KType,
    Lam,
    SApp,
    SConst,
    Signature,
    SInter,
    SortFam,
    SPi,
    STop,
    SubDecl,
    TApp,
    TConst,
    TermConst,
    TPi,
    TypeFam,
)


def _wrap(cond: bool, s: str) -> str:
    return f"({s})" if cond else s


# ---------------------------------------------------------------------------
# Binder names
#
# The printers carry `env`, the names of the enclosing binders, innermost
# last, and print a bound index i as env[-1 - i]; an index past env
# dangles and prints as ?i.  A dependent binder takes its hint, primed
# away from the constants and free names its body uses and from the names
# env gives the body's free indices.  A node's scope holds the first as a
# set and the second as an int mask, bit i for index i, so a binder's
# body shifts its mask right by one and bit 0 of a Pi's codomain says
# whether the codomain mentions the binder.  `memo` holds the scope of
# each inner node, once for each top-level term, type, kind, sort or
# class printed; a leaf's is answered at once.  A sort's or class's Pi
# counts its domain type among the names its body uses, though it is not
# printed.

_NONE: frozenset = frozenset()
_EMPTY = (_NONE, 0)
_NAMED = frozenset((L.IConst, L.IFVar, L.ITConst, FVar, Const, TConst, SConst))
_INDEX = frozenset((L.IBVar, BVar))
_CLOSED = frozenset((L.IUnit, L.ITUnitT, L.IKType, STop, KType, CSort, CTop))


def _scope(t, memo: dict) -> tuple[frozenset, int]:
    """(names of the constants and free variables, mask of the free
    indices) of t."""
    cls = t.__class__
    if cls in _NAMED:
        return frozenset((t.name,)), 0
    if cls in _INDEX:
        return _NONE, 1 << t.index
    if cls in _CLOSED:
        return _EMPTY
    hit = memo.get(id(t))
    if hit is not None:
        return hit
    match t:
        case L.IFst(b) | L.ISnd(b):
            out = _scope(b, memo)
        case L.ILam(_, b) | Lam(_, b):
            names, idx = _scope(b, memo)
            out = names, idx >> 1
        case (L.IApp(l, r) | L.ITApp(l, r) | L.ITIrrApp(l, r) | L.IPair(l, r)
              | L.ITProd(l, r) | App(l, r) | TApp(l, r) | SApp(l, r)
              | SInter(l, r) | CInter(l, r)):
            out = _join(_scope(l, memo), _scope(r, memo))
        case (L.ITPi(_, d, c) | L.IKPi(_, d, c) | L.IKIrrPi(_, d, c)
              | TPi(_, d, c) | KPi(_, d, c)):
            names, idx = _scope(c, memo)
            out = _join(_scope(d, memo), (names, idx >> 1))
        case SPi(_, ds, dt, c) | CPi(_, ds, dt, c):
            names, idx = _scope(c, memo)
            out = _join(_scope(ds, memo), (names, idx >> 1))
            if dt is not None:
                out = _join(out, _scope(dt, memo))
        case _:
            raise TypeError(f"printer: unexpected node {t!r}")
    memo[id(t)] = out
    return out


def _join(a: tuple, b: tuple) -> tuple:
    names, more = a[0], b[0]
    if not more <= names:
        names = more if names <= more else names | more
    return names, a[1] | b[1]


def _binder_name(h: str, body, env: tuple, memo: dict) -> str:
    names, idx = _scope(body, memo)
    # Bit j of outer is the body's index j + 1, the binder env[-1 - j].
    outer = (idx >> 1) & ((1 << len(env)) - 1)
    if outer:
        names = set(names)
        while outer:
            low = outer & -outer
            names.add(env[-low.bit_length()])
            outer ^= low
    return fresh_name(h, names)


def _pi(h: str, d, c, colon: str, arrow: str, dom, body, lvl: int, ext: bool,
        env: tuple, memo: dict) -> str:
    """A Pi of either language: `dom` prints its domain, `body` its
    codomain; `{x colon D} C` when C mentions x, `D arrow C` when not."""
    if _scope(c, memo)[1] & 1:
        x = _binder_name(h, c, env, memo)
        s = (f"{{{x} {colon} {dom(d, 0, True, env, memo)}}} "
             f"{body(c, 0, True, env + (x,), memo)}")
        return _wrap(not ext, s)
    # The codomain does not mention the binder, so its name is never shown.
    s = f"{dom(d, 2, False, env, memo)} {arrow} {body(c, 1, ext, env + (h,), memo)}"
    return _wrap(lvl >= 2, s)


# ---------------------------------------------------------------------------
# Source syntax


def pp_term(t) -> str:
    return _p_term(t, 0, True, (), {})


def pp_type(a) -> str:
    return _p_type(a, 0, True, (), {})


def pp_sort(s) -> str:
    return _p_sort(s, 0, True, (), {})


def pp_kind(k) -> str:
    return _p_kind(k, 0, True, (), {})


def pp_class(c) -> str:
    return _p_class(c, 0, True, (), {})


def _p_term(t, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match t:
        case FVar(n) | Const(n):
            return n
        case BVar(i):
            return env[-1 - i] if i < len(env) else f"?{i}"
        case App(f, a):
            s = f"{_p_term(f, 3, False, env, memo)} {_p_term(a, 4, False, env, memo)}"
            return _wrap(lvl >= 4, s)
        case Lam(h, b):
            x = _binder_name(h, b, env, memo)
            s = f"[{x}] {_p_term(b, 0, True, env + (x,), memo)}"
            return _wrap(not ext, s)
    raise TypeError(f"pp_term: {t!r}")


def _p_type(a, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match a:
        case TConst(n):
            return n
        case TApp(f, arg):
            s = f"{_p_type(f, 3, False, env, memo)} {_p_term(arg, 4, False, env, memo)}"
            return _wrap(lvl >= 4, s)
        case TPi(h, d, c):
            return _pi(h, d, c, ":", "->", _p_type, _p_type, lvl, ext, env, memo)
    raise TypeError(f"pp_type: {a!r}")


def _p_kind(k, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match k:
        case KType():
            return "type"
        case KPi(h, d, c):
            return _pi(h, d, c, ":", "->", _p_type, _p_kind, lvl, ext, env, memo)
    raise TypeError(f"pp_kind: {k!r}")


def _p_sort(s, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match s:
        case SConst(n):
            return n
        case STop():
            return "#"
        case SApp(f, arg):
            out = f"{_p_sort(f, 3, False, env, memo)} {_p_term(arg, 4, False, env, memo)}"
            return _wrap(lvl >= 4, out)
        case SInter(l, r):
            out = f"{_p_sort(l, 1, False, env, memo)} ^ {_p_sort(r, 0, ext, env, memo)}"
            return _wrap(lvl >= 1, out)
        case SPi(h, d, _, c):
            return _pi(h, d, c, "::", "->", _p_sort, _p_sort, lvl, ext, env, memo)
    raise TypeError(f"pp_sort: {s!r}")


def _p_class(c, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match c:
        case CSort():
            return "sort"
        case CTop():
            return "#"
        case CInter(l, r):
            out = f"{_p_class(l, 1, False, env, memo)} ^ {_p_class(r, 0, ext, env, memo)}"
            return _wrap(lvl >= 1, out)
        case CPi(h, d, _, b):
            return _pi(h, d, b, "::", "->", _p_sort, _p_class, lvl, ext, env, memo)
    raise TypeError(f"pp_class: {c!r}")


def pp_decl(d) -> str:
    match d:
        case TypeFam(n, k):
            return f"{n} : {pp_kind(k)}."
        case TermConst(n, a):
            return f"{n} : {pp_type(a)}."
        case SortFam(n, ref, cls):
            return f"{n} << {ref} :: {pp_class(cls)}."
        case SubDecl(s1, s2):
            return f"{s1} <: {s2}."
        case ConstRef(c, s):
            return f"{c} :: {pp_sort(s)}."
    raise TypeError(f"pp_decl: {d!r}")


def pp_signature(sig: Signature) -> str:
    return "".join(pp_decl(d) + "\n" for d in sig)


# ---------------------------------------------------------------------------
# Target syntax


def pp_lfi_term(t) -> str:
    return _pl_term(t, 0, True, (), {})


def pp_lfi_type(a) -> str:
    return _pl_type(a, 0, True, (), {})


def pp_lfi_kind(k) -> str:
    return _pl_kind(k, 0, True, (), {})


def _pl_term(t, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match t:
        case L.IConst(n) | L.IFVar(n):
            return n
        case L.IBVar(i):
            return env[-1 - i] if i < len(env) else f"?{i}"
        case L.IApp(f, a):
            s = f"{_pl_term(f, 3, False, env, memo)} {_pl_term(a, 4, False, env, memo)}"
            return _wrap(lvl >= 4, s)
        case L.IFst(b):
            return f"{_pl_term(b, 4, False, env, memo)}.1"
        case L.ISnd(b):
            return f"{_pl_term(b, 4, False, env, memo)}.2"
        case L.ILam(h, b):
            x = _binder_name(h, b, env, memo)
            s = f"[{x}] {_pl_term(b, 0, True, env + (x,), memo)}"
            return _wrap(not ext, s)
        case L.IPair(l, r):
            left = _pl_term(l, 0, True, env, memo)
            # A space keeps `<` and a left side `<...` from lexing as `<<`.
            sep = " " if left.startswith("<") else ""
            return f"<{sep}{left}, {_pl_term(r, 0, True, env, memo)}>"
        case L.IUnit():
            return "<>"
    raise TypeError(f"pp_lfi_term: {t!r}")


def _pl_type(a, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match a:
        case L.ITConst(n):
            return n
        case L.ITApp(f, arg):
            s = f"{_pl_type(f, 3, False, env, memo)} {_pl_term(arg, 4, False, env, memo)}"
            return _wrap(lvl >= 4, s)
        case L.ITIrrApp(f, arg):
            s = f"{_pl_type(f, 3, False, env, memo)} [[ {_pl_term(arg, 0, True, env, memo)} ]]"
            return _wrap(lvl >= 4, s)
        case L.ITPi(h, d, c):
            return _pi(h, d, c, ":", "->", _pl_type, _pl_type, lvl, ext, env, memo)
        case L.ITProd(l, r):
            s = f"({_pl_type(l, 0, True, env, memo)}) * ({_pl_type(r, 0, True, env, memo)})"
            return _wrap(lvl >= 3, s)
        case L.ITUnitT():
            return "1"
    raise TypeError(f"pp_lfi_type: {a!r}")


def _pl_kind(k, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match k:
        case L.IKType():
            return "type"
        case L.IKPi(h, d, c):
            return _pi(h, d, c, ":", "->", _pl_type, _pl_kind, lvl, ext, env, memo)
        case L.IKIrrPi(h, d, c):
            return _pi(h, d, c, "::", "-:>", _pl_type, _pl_kind, lvl, ext, env, memo)
    raise TypeError(f"pp_lfi_kind: {k!r}")


def pp_lfi_decl(d: L.LfiDecl) -> str:
    if d.is_family():
        return f"{d.name} : {pp_lfi_kind(d.classifier)}."
    return f"{d.name} : {pp_lfi_type(d.classifier)}."


def print_lfi(sig: L.LfiSignature) -> str:
    return "".join(pp_lfi_decl(d) + "\n" for d in sig)
