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
_APPS = frozenset((L.IApp, L.ITApp, L.ITIrrApp, App, TApp, SApp))
_PIS = frozenset((L.ITPi, L.IKPi, L.IKIrrPi, TPi, KPi))


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
    if cls in _APPS:
        out = _join(_scope(t.fn, memo), _scope(t.arg, memo))
    elif cls in _PIS:
        names, idx = _scope(t.cod, memo)
        out = _join(_scope(t.dom, memo), (names, idx >> 1))
    elif cls is L.ILam or cls is Lam:
        names, idx = _scope(t.body, memo)
        out = names, idx >> 1
    elif cls is L.IPair or cls is L.ITProd or cls is SInter or cls is CInter:
        out = _join(_scope(t.left, memo), _scope(t.right, memo))
    elif cls is L.IFst or cls is L.ISnd:
        out = _scope(t.base, memo)
    elif cls is SPi or cls is CPi:
        names, idx = _scope(t.cod, memo)
        out = _join(_scope(t.dom_sort, memo), (names, idx >> 1))
        if t.dom_type is not None:
            out = _join(out, _scope(t.dom_type, memo))
    else:
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


def _pi(t, d, colon: str, arrow: str, dom, body, lvl: int, ext: bool,
        env: tuple, memo: dict) -> str:
    """The Pi t of either language, whose domain is d: `dom` prints d,
    `body` the codomain C; `{x colon D} C` when C mentions x, `D arrow C`
    when not."""
    h, c = t.hint, t.cod
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
        case FVar() | Const():
            return t.name
        case BVar():
            return env[-1 - t.index] if t.index < len(env) else f"?{t.index}"
        case App():
            s = f"{_p_term(t.fn, 3, False, env, memo)} {_p_term(t.arg, 4, False, env, memo)}"
            return _wrap(lvl >= 4, s)
        case Lam():
            x = _binder_name(t.hint, t.body, env, memo)
            s = f"[{x}] {_p_term(t.body, 0, True, env + (x,), memo)}"
            return _wrap(not ext, s)
    raise TypeError(f"pp_term: {t!r}")


def _p_type(a, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match a:
        case TConst():
            return a.name
        case TApp():
            s = f"{_p_type(a.fn, 3, False, env, memo)} {_p_term(a.arg, 4, False, env, memo)}"
            return _wrap(lvl >= 4, s)
        case TPi():
            return _pi(a, a.dom, ":", "->", _p_type, _p_type, lvl, ext, env, memo)
    raise TypeError(f"pp_type: {a!r}")


def _p_kind(k, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match k:
        case KType():
            return "type"
        case KPi():
            return _pi(k, k.dom, ":", "->", _p_type, _p_kind, lvl, ext, env, memo)
    raise TypeError(f"pp_kind: {k!r}")


def _p_sort(s, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match s:
        case SConst():
            return s.name
        case STop():
            return "#"
        case SApp():
            out = f"{_p_sort(s.fn, 3, False, env, memo)} {_p_term(s.arg, 4, False, env, memo)}"
            return _wrap(lvl >= 4, out)
        case SInter():
            out = f"{_p_sort(s.left, 1, False, env, memo)} ^ {_p_sort(s.right, 0, ext, env, memo)}"
            return _wrap(lvl >= 1, out)
        case SPi():
            return _pi(s, s.dom_sort, "::", "->", _p_sort, _p_sort, lvl, ext, env, memo)
    raise TypeError(f"pp_sort: {s!r}")


def _p_class(c, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    match c:
        case CSort():
            return "sort"
        case CTop():
            return "#"
        case CInter():
            out = f"{_p_class(c.left, 1, False, env, memo)} ^ {_p_class(c.right, 0, ext, env, memo)}"
            return _wrap(lvl >= 1, out)
        case CPi():
            return _pi(c, c.dom_sort, "::", "->", _p_sort, _p_class, lvl, ext, env, memo)
    raise TypeError(f"pp_class: {c!r}")


def pp_decl(d) -> str:
    match d:
        case TypeFam():
            return f"{d.name} : {pp_kind(d.kind)}."
        case TermConst():
            return f"{d.name} : {pp_type(d.type)}."
        case SortFam():
            return f"{d.name} << {d.refines} :: {pp_class(d.cls)}."
        case SubDecl():
            return f"{d.sub} <: {d.sup}."
        case ConstRef():
            return f"{d.const} :: {pp_sort(d.sort)}."
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
    cls = t.__class__
    if cls is L.IApp:
        s = f"{_pl_term(t.fn, 3, False, env, memo)} {_pl_term(t.arg, 4, False, env, memo)}"
        return _wrap(lvl >= 4, s)
    if cls is L.IBVar:
        return env[-1 - t.index] if t.index < len(env) else f"?{t.index}"
    if cls is L.IConst or cls is L.IFVar:
        return t.name
    if cls is L.ILam:
        x = _binder_name(t.hint, t.body, env, memo)
        s = f"[{x}] {_pl_term(t.body, 0, True, env + (x,), memo)}"
        return _wrap(not ext, s)
    if cls is L.IFst or cls is L.ISnd:
        which = 1 if cls is L.IFst else 2
        return f"{_pl_term(t.base, 4, False, env, memo)}.{which}"
    if cls is L.IPair:
        left = _pl_term(t.left, 0, True, env, memo)
        # A space keeps `<` and a left side `<...` from lexing as `<<`.
        sep = " " if left.startswith("<") else ""
        return f"<{sep}{left}, {_pl_term(t.right, 0, True, env, memo)}>"
    if cls is L.IUnit:
        return "<>"
    raise TypeError(f"pp_lfi_term: {t!r}")


def _pl_type(a, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    cls = a.__class__
    if cls is L.ITApp:
        s = f"{_pl_type(a.fn, 3, False, env, memo)} {_pl_term(a.arg, 4, False, env, memo)}"
        return _wrap(lvl >= 4, s)
    if cls is L.ITPi:
        return _pi(a, a.dom, ":", "->", _pl_type, _pl_type, lvl, ext, env, memo)
    if cls is L.ITConst:
        return a.name
    if cls is L.ITIrrApp:
        s = f"{_pl_type(a.fn, 3, False, env, memo)} [[ {_pl_term(a.arg, 0, True, env, memo)} ]]"
        return _wrap(lvl >= 4, s)
    if cls is L.ITProd:
        s = f"({_pl_type(a.left, 0, True, env, memo)}) * ({_pl_type(a.right, 0, True, env, memo)})"
        return _wrap(lvl >= 3, s)
    if cls is L.ITUnitT:
        return "1"
    raise TypeError(f"pp_lfi_type: {a!r}")


def _pl_kind(k, lvl: int, ext: bool, env: tuple, memo: dict) -> str:
    cls = k.__class__
    if cls is L.IKType:
        return "type"
    if cls is L.IKPi or cls is L.IKIrrPi:
        colon, arrow = (":", "->") if cls is L.IKPi else ("::", "-:>")
        return _pi(k, k.dom, colon, arrow, _pl_type, _pl_kind, lvl, ext, env, memo)
    raise TypeError(f"pp_lfi_kind: {k!r}")


def pp_lfi_decl(d: L.LfiDecl) -> str:
    if d.is_family():
        return f"{d.name} : {pp_lfi_kind(d.classifier)}."
    return f"{d.name} : {pp_lfi_type(d.classifier)}."


def print_lfi(sig: L.LfiSignature) -> str:
    return "".join(pp_lfi_decl(d) + "\n" for d in sig)
