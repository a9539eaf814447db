"""Hereditary substitution, simple-type erasure, and eta-expansion.

Substitution is indexed by the erased simple type of the variable being
replaced.  Replacing the head of an application can expose a beta-redex;
the redex is reduced immediately by a further substitution at a strictly
smaller simple type, so canonical form is preserved and the process
terminates.  A fuel counter guards that termination argument at runtime:
it is a debug assertion, not a semantic limit, and can be raised with the
LFR_FUEL environment variable.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .syntax import (
    App, Arrow, AtomicTerm, Base, BVar, Class, CInter, Const, CPi, CSort,
    CTop, CtxEntry, FVar, Kind, KPi, KType, Lam, NormalTerm, NormalType,
    SApp, SConst, SimpleType, SInter, SPi, STop, Syntax, TApp, TConst, TPi,
    close_at, free_vars, fresh_name, head, is_atomic_term, open_at, pool_name,
)

Path = tuple[str, ...]


class SubstFailure(Exception):
    """No substitution rule applies; carries the failing position."""

    def __init__(self, reason: str, path: Path):
        super().__init__(f"{reason} at {'/'.join(path) or 'root'}")
        self.reason = reason
        self.path = path


class MetricExhausted(SubstFailure):
    """The termination metric guard fired; indicates a bug, not bad input."""

    def __init__(self, path: Path):
        super().__init__("metric exhausted", path)


DEFAULT_FUEL = 1_000_000


class _Fuel:
    def __init__(self) -> None:
        self.left = int(os.environ.get("LFR_FUEL", DEFAULT_FUEL))

    def tick(self, path: Path) -> None:
        self.left -= 1
        if self.left < 0:
            raise MetricExhausted(path)


def erase_type(a: Union[NormalType, SimpleType]) -> SimpleType:
    """Forget dependency: (P N..)- is the head family, Pi erases to an arrow."""
    match a:
        case Base() | Arrow():
            return a
        case TConst(n):
            return Base(n)
        case TApp(f, _):
            return erase_type(f)
        case TPi(_, d, c):
            # Erasure never inspects terms, so the bound codomain can be
            # erased without opening it.
            return Arrow(erase_type(d), erase_type(c))
    raise TypeError(f"erase_type: not a type: {a!r}")


def eta_expand(alpha: Union[SimpleType, NormalType], r: AtomicTerm) -> NormalTerm:
    """Eta-long form of the atomic term r at simple type alpha."""
    alpha = erase_type(alpha)
    match alpha:
        case Base():
            return r
        case Arrow(d, c):
            x = pool_name("x", free_vars(r))
            body = eta_expand(c, App(r, eta_expand(d, FVar(x))))
            return Lam(x, close_at(body, x))
    raise TypeError(f"eta_expand: not a simple type: {alpha!r}")


def _simple_subterm(small: SimpleType, big: SimpleType) -> bool:
    if small == big:
        return True
    return isinstance(big, Arrow) and (
        _simple_subterm(small, big.dom) or _simple_subterm(small, big.cod))


# ---------------------------------------------------------------------------
# The three mutually recursive substitution judgments


def hsubst_n(n0: NormalTerm, x0: str, alpha0: Union[SimpleType, NormalType],
             n: NormalTerm) -> NormalTerm:
    """Substitute n0 for x0 (of erased type alpha0) in the normal term n."""
    return _subst_n(n0, x0, erase_type(alpha0), n, _Fuel(), ())


def hsubst_rr(n0: NormalTerm, x0: str, alpha0: Union[SimpleType, NormalType],
              r: AtomicTerm) -> AtomicTerm:
    """Substitution in an atomic term whose head is not x0."""
    return _subst_rr(n0, x0, erase_type(alpha0), r, _Fuel(), ())


def hsubst_rn(n0: NormalTerm, x0: str, alpha0: Union[SimpleType, NormalType],
              r: AtomicTerm) -> tuple[NormalTerm, SimpleType]:
    """Substitution in an atomic term headed by x0; returns term and type."""
    return _subst_rn(n0, x0, erase_type(alpha0), r, _Fuel(), ())


def _subst_n(n0: NormalTerm, x0: str, a0: SimpleType, n: NormalTerm,
             fuel: _Fuel, path: Path) -> NormalTerm:
    fuel.tick(path)
    match n:
        case Lam(h, b):
            x = fresh_name(h, free_vars(b) | free_vars(n0) | {x0})
            body = _subst_n(n0, x0, a0, open_at(b, FVar(x)), fuel, path + ("body",))
            return Lam(h, close_at(body, x))
        case _:
            if head(n) == FVar(x0):
                term, ty = _subst_rn(n0, x0, a0, n, fuel, path)
                if is_atomic_term(term) and isinstance(ty, Base):
                    return term
                raise SubstFailure("head-type mismatch", path)
            return _subst_rr(n0, x0, a0, n, fuel, path)


def _subst_rr(n0: NormalTerm, x0: str, a0: SimpleType, r: AtomicTerm,
              fuel: _Fuel, path: Path) -> AtomicTerm:
    fuel.tick(path)
    match r:
        case Const() | FVar() | BVar():
            return r
        case App(f, a):
            return App(_subst_rr(n0, x0, a0, f, fuel, path + ("fn",)),
                       _subst_n(n0, x0, a0, a, fuel, path + ("arg",)))
    raise TypeError(f"hsubst_rr: not atomic: {r!r}")


def _subst_rn(n0: NormalTerm, x0: str, a0: SimpleType, r: AtomicTerm,
              fuel: _Fuel, path: Path) -> tuple[NormalTerm, SimpleType]:
    fuel.tick(path)
    match r:
        case FVar(name) if name == x0:
            return n0, a0
        case App(f, a):
            fn, fty = _subst_rn(n0, x0, a0, f, fuel, path + ("fn",))
            arg = _subst_n(n0, x0, a0, a, fuel, path + ("arg",))
            if not isinstance(fn, Lam):
                raise SubstFailure("non-function applied", path)
            if not isinstance(fty, Arrow):
                raise SubstFailure("head-type mismatch", path)
            y = fresh_name(fn.hint, free_vars(fn.body) | free_vars(arg) | {x0})
            body = open_at(fn.body, FVar(y))
            res = _subst_n(arg, y, fty.dom, body, fuel, path + ("beta",))
            # The returned type is always a subterm of the original index;
            # this is the decreasing measure of the beta case.
            if not _simple_subterm(fty.cod, a0):
                raise TypeError("hereditary substitution: result type is not "
                                "a subterm of the index type")
            return res, fty.cod
    raise SubstFailure("head-type mismatch", path)


def treduce(x0: str, alpha0: Union[SimpleType, NormalType],
            r: AtomicTerm) -> Optional[SimpleType]:
    """Predict the type hsubst_rn would return, without substituting.

    None when the spine consumes more arrows than alpha0 provides.
    """
    a0 = erase_type(alpha0)
    match r:
        case FVar(name) if name == x0:
            return a0
        case App(f, _):
            fty = treduce(x0, a0, f)
            if isinstance(fty, Arrow):
                return fty.cod
            return None
        case _:
            return None


# ---------------------------------------------------------------------------
# Substitution into types, sorts, kinds, classes, and contexts


def hsubst_syntax(n0: NormalTerm, x0: str, alpha0: Union[SimpleType, NormalType],
                  t):
    """Substitute through any syntactic category, including contexts."""
    a0 = erase_type(alpha0)
    fuel = _Fuel()
    if isinstance(t, (list, tuple)):
        return [CtxEntry(e.name,
                         _subst_syn(n0, x0, a0, e.sort, fuel, (e.name, "sort")),
                         _subst_syn(n0, x0, a0, e.type, fuel, (e.name, "type")))
                for e in t]
    return _subst_syn(n0, x0, a0, t, fuel, ())


def _subst_syn(n0: NormalTerm, x0: str, a0: SimpleType, t: Syntax,
               fuel: _Fuel, path: Path):
    match t:
        case BVar() | FVar() | Const() | App() | Lam():
            return _subst_n(n0, x0, a0, t, fuel, path)
        case TConst() | SConst() | STop() | KType() | CSort() | CTop():
            return t
        case TApp(f, a):
            return TApp(_subst_syn(n0, x0, a0, f, fuel, path + ("fn",)),
                        _subst_n(n0, x0, a0, a, fuel, path + ("arg",)))
        case SApp(f, a):
            return SApp(_subst_syn(n0, x0, a0, f, fuel, path + ("fn",)),
                        _subst_n(n0, x0, a0, a, fuel, path + ("arg",)))
        case TPi(h, d, c):
            d2 = _subst_syn(n0, x0, a0, d, fuel, path + ("dom",))
            x, c2 = _subst_under(n0, x0, a0, h, c, fuel, path)
            return TPi(h, d2, close_at(c2, x))
        case SPi(h, ds, dt, c):
            ds2 = _subst_syn(n0, x0, a0, ds, fuel, path + ("dom",))
            dt2 = None if dt is None else _subst_syn(n0, x0, a0, dt, fuel, path + ("domtype",))
            x, c2 = _subst_under(n0, x0, a0, h, c, fuel, path)
            return SPi(h, ds2, dt2, close_at(c2, x))
        case KPi(h, d, c):
            d2 = _subst_syn(n0, x0, a0, d, fuel, path + ("dom",))
            x, c2 = _subst_under(n0, x0, a0, h, c, fuel, path)
            return KPi(h, d2, close_at(c2, x))
        case CPi(h, ds, dt, c):
            ds2 = _subst_syn(n0, x0, a0, ds, fuel, path + ("dom",))
            dt2 = None if dt is None else _subst_syn(n0, x0, a0, dt, fuel, path + ("domtype",))
            x, c2 = _subst_under(n0, x0, a0, h, c, fuel, path)
            return CPi(h, ds2, dt2, close_at(c2, x))
        case SInter(l, r):
            return SInter(_subst_syn(n0, x0, a0, l, fuel, path + ("left",)),
                          _subst_syn(n0, x0, a0, r, fuel, path + ("right",)))
        case CInter(l, r):
            return CInter(_subst_syn(n0, x0, a0, l, fuel, path + ("left",)),
                          _subst_syn(n0, x0, a0, r, fuel, path + ("right",)))
    raise TypeError(f"hsubst_syntax: unexpected node {t!r}")


def _subst_under(n0: NormalTerm, x0: str, a0: SimpleType, hint: str, body,
                 fuel: _Fuel, path: Path):
    x = fresh_name(hint, free_vars(body) | free_vars(n0) | {x0})
    return x, _subst_syn(n0, x0, a0, open_at(body, FVar(x)), fuel, path + ("cod",))
