"""Hereditary substitution, simple-type erasure, and eta-expansion.

Substitution is indexed by the erased simple type of the variable being
replaced.  Replacing the head of an application can expose a beta-redex;
the redex is reduced immediately by a further substitution at a strictly
smaller simple type, so canonical form is preserved and the process
terminates.  A step budget (diagnostics._Fuel) guards that termination
argument at runtime: each term node a walk visits takes a step from it.
It is a bound, not a semantic limit, and can be set with the LFR_FUEL
environment variable.  Running out raises MetricExhausted, which is not
a SubstFailure, so no handler of an undefined substitution sees it.

The variables replaced are a free name, or a block of bound indices at
once; substitution counts the binders it descends instead of opening them.
Instantiating a classifier with a whole spine substitutes for all of its
binders in one walk (inst_spine), and a beta step substitutes for the
lambda's index 0.  A walk draws on the budget it is given, the one the
signature of the judgment that runs it carries; inst_spine returns a
closed leaf (a family or sort constant, the top sort or class, the kind
type or the class sort) at once, as a walk would, untouched and without
a step.
"""

from __future__ import annotations

from typing import Union

from .diagnostics import Path, SubstFailure, _Fuel
from .syntax import (
    App, Arrow, AtomicTerm, Base, BVar, CInter, Const, CPi, CSort, CTop,
    CtxEntry, FVar, KPi, KType, Lam, NormalTerm, NormalType, SApp, SConst,
    SimpleType, SInter, SPi, STop, Syntax, TApp, TConst, TPi, free_vars,
    head, is_atomic_term, pool_name, shift,
)


def erase_type(a: Union[NormalType, SimpleType]) -> SimpleType:
    """Forget dependency: (P N..)- is the head family, Pi erases to an arrow."""
    cls = a.__class__
    if cls is TConst:
        return Base(a.name)
    if cls is TApp:
        return erase_type(a.fn)
    if cls is TPi:
        # Erasure never inspects terms, so the bound codomain can be
        # erased without opening it.
        return Arrow(erase_type(a.dom), erase_type(a.cod))
    if cls is Base or cls is Arrow:
        return a
    raise TypeError(f"erase_type: not a type: {a!r}")


def eta_expand(alpha: Union[SimpleType, NormalType], r: AtomicTerm) -> NormalTerm:
    """Eta-long form of the atomic term r at simple type alpha.  Each
    lambda's hint is the first pool name free in neither r nor the
    lambdas outside it."""
    return _eta(erase_type(alpha), r, free_vars(r))


def _eta(alpha: SimpleType, r: AtomicTerm, avoid: set[str]) -> NormalTerm:
    """eta_expand(alpha, r) for avoid = free_vars(r): the lambdas are
    built by index, and r, read where the result is, moves past them."""
    doms, hints = [], []
    while isinstance(alpha, Arrow):
        doms.append(alpha.dom)
        hints.append(pool_name("x", avoid))
        avoid.add(hints[-1])
        alpha = alpha.cod
    n = len(doms)
    t = shift(r, n)
    for i, (d, x) in enumerate(zip(doms, hints)):
        t = App(t, _eta(d, BVar(n - 1 - i), {x}))
    for x in reversed(hints):
        t = Lam(x, t)
    return t


def _simple_subterm(small: SimpleType, big: SimpleType) -> bool:
    if small == big:
        return True
    return isinstance(big, Arrow) and (
        _simple_subterm(small, big.dom) or _simple_subterm(small, big.cod))


# ---------------------------------------------------------------------------
# The three mutually recursive substitution judgments
#
# One walk replaces a block of variables at once: a free name (x0 a str, a
# block of one) or the bound indices x0 .. x0 + n - 1 (x0 an int).  sub
# holds a (replacement, erased type) pair for each, innermost first: sub[j]
# is for index x0 + j.  Substitution descends binders without opening
# them: k counts the binders passed, so the block is FVar(x0) or
# BVar(x0 + k + j) there, a replacement is shifted by k, and, when x0 is an
# index, the indices above the block drop by n because its binders are
# gone.  Instantiating a Pi type, sort, class or kind with a spine replaces
# all of its indices in one walk; a beta step replaces the lambda's index 0.

Var = Union[str, int]
Sub = tuple[tuple[NormalTerm, SimpleType], ...]


# The hsubst_* helpers stand apart from any signature: each call takes the
# steps of its walk from a budget of its own, which reads LFR_FUEL.

def _alone(walk, n0: NormalTerm, x0: Var,
           alpha0: Union[SimpleType, NormalType], t):
    return walk(((n0, erase_type(alpha0)),), x0, t, 0, _Fuel(), ())


def hsubst_n(n0: NormalTerm, x0: Var, alpha0: Union[SimpleType, NormalType],
             n: NormalTerm) -> NormalTerm:
    """Substitute n0 for x0 (of erased type alpha0) in the normal term n."""
    return _alone(_subst_n, n0, x0, alpha0, n)


def hsubst_rr(n0: NormalTerm, x0: Var, alpha0: Union[SimpleType, NormalType],
              r: AtomicTerm) -> AtomicTerm:
    """Substitution in an atomic term whose head is not x0."""
    return _alone(_subst_rr, n0, x0, alpha0, r)


def hsubst_rn(n0: NormalTerm, x0: Var, alpha0: Union[SimpleType, NormalType],
              r: AtomicTerm) -> tuple[NormalTerm, SimpleType]:
    """Substitution in an atomic term headed by x0; returns term and type."""
    return _alone(_subst_rn, n0, x0, alpha0, r)


def _hit(r, sub: Sub, x0: Var, k: int):
    """The pair of sub that replaces r, k binders down, or None."""
    if isinstance(x0, str):
        return sub[0] if isinstance(r, FVar) and r.name == x0 else None
    j = r.index - x0 - k if isinstance(r, BVar) else -1
    return sub[j] if 0 <= j < len(sub) else None


def _subst_n(sub: Sub, x0: Var, n: NormalTerm, k: int, fuel: _Fuel,
             path: Path) -> NormalTerm:
    fuel.tick(path)
    if n.__class__ is Lam:
        return Lam(n.hint, _subst_n(sub, x0, n.body, k + 1, fuel, path + ("body",)))
    if _hit(head(n), sub, x0, k) is not None:
        term, ty = _subst_rn(sub, x0, n, k, fuel, path)
        if is_atomic_term(term) and isinstance(ty, Base):
            return term
        raise SubstFailure("head-type mismatch", path)
    return _subst_rr(sub, x0, n, k, fuel, path)


def _subst_rr(sub: Sub, x0: Var, r: AtomicTerm, k: int, fuel: _Fuel,
              path: Path) -> AtomicTerm:
    fuel.tick(path)
    cls = r.__class__
    if cls is App:
        return App(_subst_rr(sub, x0, r.fn, k, fuel, path + ("fn",)),
                   _subst_n(sub, x0, r.arg, k, fuel, path + ("arg",)))
    if (cls is BVar and not isinstance(x0, str)
            and r.index >= x0 + k + len(sub)):
        return BVar(r.index - len(sub))
    if cls is BVar or cls is Const or cls is FVar:
        return r
    raise TypeError(f"hsubst_rr: not atomic: {r!r}")


def _subst_rn(sub: Sub, x0: Var, r: AtomicTerm, k: int, fuel: _Fuel,
              path: Path) -> tuple[NormalTerm, SimpleType]:
    fuel.tick(path)
    hit = _hit(r, sub, x0, k)
    if hit is not None:
        return shift(hit[0], k), hit[1]
    if r.__class__ is App:
        fn, fty = _subst_rn(sub, x0, r.fn, k, fuel, path + ("fn",))
        arg = _subst_n(sub, x0, r.arg, k, fuel, path + ("arg",))
        if not isinstance(fn, Lam):
            raise SubstFailure("non-function applied", path)
        if not isinstance(fty, Arrow):
            raise SubstFailure("head-type mismatch", path)
        # The beta step: the lambda's index 0 is a block of one.
        res = _subst_n(((arg, fty.dom),), 0, fn.body, 0, fuel,
                       path + ("beta",))
        # The returned type is always a subterm of the replaced variable's
        # type; this is the decreasing measure of the beta case.
        if not _simple_subterm(fty.cod, _hit(head(r), sub, x0, k)[1]):
            raise TypeError("hereditary substitution: result type is not "
                            "a subterm of the index type")
        return res, fty.cod
    raise SubstFailure("head-type mismatch", path)


# ---------------------------------------------------------------------------
# Substitution into types, sorts, kinds, classes, and contexts


def hsubst_syntax(n0: NormalTerm, x0: Var, alpha0: Union[SimpleType, NormalType],
                  t):
    """Substitute through any syntactic category, including contexts; for
    an index x0, n0 is read where t's binder x0 has been removed."""
    if not isinstance(t, (list, tuple)):
        return _alone(_subst_syn, n0, x0, alpha0, t)
    sub, fuel = ((n0, erase_type(alpha0)),), _Fuel()
    return [CtxEntry(e.name,
                     _subst_syn(sub, x0, e.sort, 0, fuel, (e.name, "sort")),
                     _subst_syn(sub, x0, e.type, 0, fuel, (e.name, "type")))
            for e in t]


# Nodes with no variable and no child: a walk returns them untouched,
# without a step.
_CLOSED_LEAVES = frozenset((TConst, SConst, STop, KType, CSort, CTop))


def inst_spine(t, spine, fuel: _Fuel) -> Syntax:
    """t, under a binder for each (argument, erased domain) pair of spine,
    outermost first, with those binders set to the arguments, in a walk
    that takes its steps from fuel.  A closed leaf is returned at once."""
    if not spine or t.__class__ in _CLOSED_LEAVES:
        return t
    return _subst_syn(tuple(spine[::-1]), 0, t, 0, fuel, ())


def _subst_syn(sub: Sub, x0: Var, t: Syntax, k: int, fuel: _Fuel, path: Path):
    cls = t.__class__
    if cls is TApp or cls is SApp:
        return cls(_subst_syn(sub, x0, t.fn, k, fuel, path + ("fn",)),
                   _subst_syn(sub, x0, t.arg, k, fuel, path + ("arg",)))
    if cls is TPi or cls is KPi:
        return cls(t.hint,
                   _subst_syn(sub, x0, t.dom, k, fuel, path + ("dom",)),
                   _subst_syn(sub, x0, t.cod, k + 1, fuel, path + ("cod",)))
    if is_atomic_term(t) or cls is Lam:
        return _subst_n(sub, x0, t, k, fuel, path)
    if cls in _CLOSED_LEAVES:
        return t
    if cls is SPi or cls is CPi:
        dt = t.dom_type
        return cls(t.hint,
                   _subst_syn(sub, x0, t.dom_sort, k, fuel, path + ("dom",)),
                   None if dt is None
                   else _subst_syn(sub, x0, dt, k, fuel, path + ("domtype",)),
                   _subst_syn(sub, x0, t.cod, k + 1, fuel, path + ("cod",)))
    if cls is SInter or cls is CInter:
        return cls(_subst_syn(sub, x0, t.left, k, fuel, path + ("left",)),
                   _subst_syn(sub, x0, t.right, k, fuel, path + ("right",)))
    raise TypeError(f"hsubst_syntax: unexpected node {t!r}")
