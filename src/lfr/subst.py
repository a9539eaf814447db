"""Hereditary substitution, simple-type erasure, and eta-expansion.

Substitution is indexed by the erased simple type of the variable being
replaced.  Replacing the head of an application can expose a beta-redex;
the redex is reduced immediately by a further substitution at a strictly
smaller simple type, so canonical form is preserved and the process
terminates.  A fuel counter guards that termination argument at runtime:
it is a debug assertion, not a semantic limit, and can be raised with the
LFR_FUEL environment variable.

The variable replaced is a free name or a bound index; substitution counts
the binders it descends instead of opening them, and instantiation and the
beta step substitute for index 0.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .syntax import (
    App, Arrow, AtomicTerm, Base, BVar, CInter, Const, CPi, CSort, CTop,
    CtxEntry, FVar, KPi, KType, Lam, NormalTerm, NormalType, SApp, SConst,
    SimpleType, SInter, SPi, STop, Syntax, TApp, TConst, TPi, close_at,
    free_vars, head, is_atomic_term, pool_name, shift,
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
#
# The variable replaced is a free name (x0 a str) or a bound index (x0 an
# int; instantiation replaces index 0).  Substitution descends binders
# without opening them: k counts the binders passed, so the variable is
# FVar(x0) or BVar(x0 + k) there, the replacement is n0 shifted by k, and,
# when x0 is an index, the indices above x0 + k drop by one because its
# binder is gone.  A beta step substitutes for the lambda's index 0.

Var = Union[str, int]


def hsubst_n(n0: NormalTerm, x0: Var, alpha0: Union[SimpleType, NormalType],
             n: NormalTerm) -> NormalTerm:
    """Substitute n0 for x0 (of erased type alpha0) in the normal term n."""
    return _subst_n(n0, x0, erase_type(alpha0), n, 0, _Fuel(), ())


def hsubst_rr(n0: NormalTerm, x0: Var, alpha0: Union[SimpleType, NormalType],
              r: AtomicTerm) -> AtomicTerm:
    """Substitution in an atomic term whose head is not x0."""
    return _subst_rr(n0, x0, erase_type(alpha0), r, 0, _Fuel(), ())


def hsubst_rn(n0: NormalTerm, x0: Var, alpha0: Union[SimpleType, NormalType],
              r: AtomicTerm) -> tuple[NormalTerm, SimpleType]:
    """Substitution in an atomic term headed by x0; returns term and type."""
    return _subst_rn(n0, x0, erase_type(alpha0), r, 0, _Fuel(), ())


def _hit(r, x0: Var, k: int) -> bool:
    """Whether r is the variable substituted for, k binders down."""
    if isinstance(x0, str):
        return isinstance(r, FVar) and r.name == x0
    return isinstance(r, BVar) and r.index == x0 + k


def _subst_n(n0: NormalTerm, x0: Var, a0: SimpleType, n: NormalTerm, k: int,
             fuel: _Fuel, path: Path) -> NormalTerm:
    fuel.tick(path)
    match n:
        case Lam(h, b):
            return Lam(h, _subst_n(n0, x0, a0, b, k + 1, fuel, path + ("body",)))
        case _:
            if _hit(head(n), x0, k):
                term, ty = _subst_rn(n0, x0, a0, n, k, fuel, path)
                if is_atomic_term(term) and isinstance(ty, Base):
                    return term
                raise SubstFailure("head-type mismatch", path)
            return _subst_rr(n0, x0, a0, n, k, fuel, path)


def _subst_rr(n0: NormalTerm, x0: Var, a0: SimpleType, r: AtomicTerm, k: int,
              fuel: _Fuel, path: Path) -> AtomicTerm:
    fuel.tick(path)
    match r:
        case BVar(i) if not isinstance(x0, str) and i > x0 + k:
            return BVar(i - 1)
        case Const() | FVar() | BVar():
            return r
        case App(f, a):
            return App(_subst_rr(n0, x0, a0, f, k, fuel, path + ("fn",)),
                       _subst_n(n0, x0, a0, a, k, fuel, path + ("arg",)))
    raise TypeError(f"hsubst_rr: not atomic: {r!r}")


def _subst_rn(n0: NormalTerm, x0: Var, a0: SimpleType, r: AtomicTerm, k: int,
              fuel: _Fuel, path: Path) -> tuple[NormalTerm, SimpleType]:
    fuel.tick(path)
    if _hit(r, x0, k):
        return shift(n0, k), a0
    match r:
        case App(f, a):
            fn, fty = _subst_rn(n0, x0, a0, f, k, fuel, path + ("fn",))
            arg = _subst_n(n0, x0, a0, a, k, fuel, path + ("arg",))
            if not isinstance(fn, Lam):
                raise SubstFailure("non-function applied", path)
            if not isinstance(fty, Arrow):
                raise SubstFailure("head-type mismatch", path)
            res = _subst_n(arg, 0, fty.dom, fn.body, 0, fuel, path + ("beta",))
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


def hsubst_syntax(n0: NormalTerm, x0: Var, alpha0: Union[SimpleType, NormalType],
                  t):
    """Substitute through any syntactic category, including contexts; for
    an index x0, n0 is read where t's binder x0 has been removed."""
    a0 = erase_type(alpha0)
    fuel = _Fuel()
    if isinstance(t, (list, tuple)):
        return [CtxEntry(e.name,
                         _subst_syn(n0, x0, a0, e.sort, 0, fuel, (e.name, "sort")),
                         _subst_syn(n0, x0, a0, e.type, 0, fuel, (e.name, "type")))
                for e in t]
    return _subst_syn(n0, x0, a0, t, 0, fuel, ())


def _subst_syn(n0: NormalTerm, x0: Var, a0: SimpleType, t: Syntax, k: int,
               fuel: _Fuel, path: Path):
    def sub(u, step: str, binders: int = 0):
        """u, a child of t at step, under `binders` more binders."""
        return _subst_syn(n0, x0, a0, u, k + binders, fuel, path + (step,))

    match t:
        case BVar() | FVar() | Const() | App() | Lam():
            return _subst_n(n0, x0, a0, t, k, fuel, path)
        case TConst() | SConst() | STop() | KType() | CSort() | CTop():
            return t
        case TApp(f, a) | SApp(f, a):
            return type(t)(sub(f, "fn"), sub(a, "arg"))
        case TPi(h, d, c) | KPi(h, d, c):
            return type(t)(h, sub(d, "dom"), sub(c, "cod", 1))
        case SPi(h, ds, dt, c) | CPi(h, ds, dt, c):
            return type(t)(h, sub(ds, "dom"),
                           None if dt is None else sub(dt, "domtype"),
                           sub(c, "cod", 1))
        case SInter(l, r) | CInter(l, r):
            return type(t)(sub(l, "left"), sub(r, "right"))
    raise TypeError(f"hsubst_syntax: unexpected node {t!r}")
