"""Subsorting at higher sorts, three ways.

The checker's own notion (intrinsic) reduces S <= T to checking the
eta-expansion of a fresh variable of sort S against T.  The standalone
algorithm works on synthesis sets: a set refines a function sort by
pushing the domain through every function component.  The declarative
oracle enumerates derivations from the inference rules directly, with a
depth bound and an explicit transitivity rule; it exists to cross-check
the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

from .lfr_check import (
    SortError,
    SubsortClosure,
    _acheck,
    build_closure,
    split,
    subsort_q,
)
from .subst import MetricExhausted, SubstFailure, eta_expand, hsubst_syntax
from .syntax import (
    Context,
    CtxEntry,
    FVar,
    Signature,
    SInter,
    SPi,
    STop,
    alpha_eq,
    free_vars,
    fresh_name,
    is_atomic_sort,
    open_at,
)

# "$" cannot appear in identifiers, so this name never collides.
_FRESH_SUBJECT = "$sub"


@dataclass(frozen=True)
class SubsortQuery:
    """S <= T as sorts refining the common type a, in a context."""

    sig: Signature
    ctx: tuple
    s: object
    t: object
    a: object

    @staticmethod
    def make(sig, ctx, s, t, a) -> "SubsortQuery":
        return SubsortQuery(sig, tuple(ctx), s, t, a)


def intrinsic_subsort(q: SubsortQuery,
                      closure: Optional[SubsortClosure] = None) -> bool:
    """S <= T iff the eta-expansion of a fresh S-variable checks at T."""
    if closure is None:
        closure = build_closure(q.sig)
    subject = eta_expand(q.a, FVar(_FRESH_SUBJECT))
    ctx = list(q.ctx) + [CtxEntry(_FRESH_SUBJECT, q.s, q.a)]
    try:
        _acheck(q.sig, closure, ctx, (), subject, q.t, None)
        return True
    except MetricExhausted:
        raise
    except (SortError, SubstFailure):
        return False


# ---------------------------------------------------------------------------
# Algorithmic subsorting on synthesis sets


def binter(d: list):
    """Reassemble a synthesis set into one sort, top-first."""
    return reduce(SInter, d, STop())


def algo_subsort(sig: Signature, ctx: Context, d: list, s,
                 closure: Optional[SubsortClosure] = None) -> bool:
    if closure is None:
        closure = build_closure(sig)
    return _algo_subsort(sig, closure, ctx, d, s)


def _algo_subsort(sig, closure, ctx, d, s) -> bool:
    match s:
        case STop():
            return True
        case SInter(l, r):
            return (_algo_subsort(sig, closure, ctx, d, l)
                    and _algo_subsort(sig, closure, ctx, d, r))
        case SPi(h, s1, a1, t):
            if a1 is None:
                raise TypeError("algo_subsort: sort was not elaborated")
            x = fresh_name(h, {e.name for e in ctx} | free_vars(t))
            d2 = _algo_apply(sig, closure, ctx, d, x, split(s1), a1)
            return _algo_subsort(sig, closure, ctx + [CtxEntry(x, s1, a1)],
                                 d2, open_at(t, FVar(x)))
        case _:
            if not is_atomic_sort(s):
                raise TypeError(f"algo_subsort: not a sort: {s!r}")
            return any(not isinstance(q, SPi) and subsort_q(closure, q, s)
                       for q in d)


def _algo_apply(sig, closure, ctx, d, x, d1, a1) -> list:
    """Push a variable known to refine d1 through the function components."""
    eta_x = eta_expand(a1, FVar(x))
    out: list = []
    for entry in d:
        if not isinstance(entry, SPi):
            continue
        if not _algo_subsort(sig, closure, ctx, d1, entry.dom_sort):
            continue
        try:
            cod = hsubst_syntax(eta_x, 0, a1, entry.cod)
        except MetricExhausted:
            raise
        except SubstFailure:
            continue
        out.extend(split(cod))
    return out


# ---------------------------------------------------------------------------
# Declarative oracle


def declarative_subsort_oracle(q: SubsortQuery, depth: int = 6) -> bool:
    """Bounded search over the declarative subsorting rules.

    One-sided by construction: a True answer means a derivation exists;
    False only means none was found within the depth bound.
    """
    closure = build_closure(q.sig)
    memo: dict = {}

    def go(s, t, d: int) -> bool:
        key = (s, t, d)
        if key in memo:
            return memo[key]
        memo[key] = False
        memo[key] = rules(s, t, d)
        return memo[key]

    def rules(s, t, d: int) -> bool:
        if alpha_eq(s, t):
            return True
        if isinstance(t, STop):
            return True
        if is_atomic_sort(s) and is_atomic_sort(t):
            return subsort_q(closure, s, t)
        if _dist_top_pi(s, t) or _dist_inter_pi(s, t) or _assoc(s, t) \
                or _dist_inter_pi_merge(s, t):
            return True
        if d <= 0:
            return False
        if isinstance(t, SInter):
            if go(s, t.left, d - 1) and go(s, t.right, d - 1):
                return True
        if isinstance(s, SInter):
            if go(s.left, t, d - 1) or go(s.right, t, d - 1):
                return True
        if isinstance(s, SPi) and isinstance(t, SPi):
            if go(t.dom_sort, s.dom_sort, d - 1):
                x = fresh_name(s.hint, free_vars(s.cod) | free_vars(t.cod))
                if go(open_at(s.cod, FVar(x)), open_at(t.cod, FVar(x)), d - 1):
                    return True
        for m in _middle_pool(s, t):
            if m == s or m == t:
                continue
            if go(s, m, d - 1) and go(m, t, d - 1):
                return True
        return False

    return go(q.s, q.t, depth)


def _dist_top_pi(s, t) -> bool:
    """Top refines any function sort whose codomain is top."""
    return isinstance(s, STop) and isinstance(t, SPi) and t.cod == STop()


def _dist_inter_pi(s, t) -> bool:
    """Functions with one domain intersect codomain-wise."""
    if not (isinstance(s, SInter) and isinstance(s.left, SPi)
            and isinstance(s.right, SPi) and isinstance(t, SPi)):
        return False
    l, r = s.left, s.right
    if not (alpha_eq(l.dom_sort, r.dom_sort) and alpha_eq(l.dom_type, r.dom_type)):
        return False
    return (alpha_eq(t.dom_sort, l.dom_sort)
            and alpha_eq(t.dom_type, l.dom_type)
            and alpha_eq(t.cod, SInter(l.cod, r.cod)))


def _dist_inter_pi_merge(s, t) -> bool:
    """Functions with different domains intersect against the merged domain."""
    if not (isinstance(s, SInter) and isinstance(s.left, SPi)
            and isinstance(s.right, SPi) and isinstance(t, SPi)):
        return False
    l, r = s.left, s.right
    if not alpha_eq(l.dom_type, r.dom_type):
        return False
    return (alpha_eq(t.dom_sort, SInter(l.dom_sort, r.dom_sort))
            and alpha_eq(t.dom_type, l.dom_type)
            and alpha_eq(t.cod, SInter(l.cod, r.cod)))


def _assoc(s, t) -> bool:
    """Intersection is associative, both rotations."""
    match s, t:
        case (SInter(SInter(a, b), c), SInter(a2, SInter(b2, c2))):
            if alpha_eq(a, a2) and alpha_eq(b, b2) and alpha_eq(c, c2):
                return True
    match s, t:
        case (SInter(a, SInter(b, c)), SInter(SInter(a2, b2), c2)):
            if alpha_eq(a, a2) and alpha_eq(b, b2) and alpha_eq(c, c2):
                return True
    return False


def _middle_pool(s, t) -> list:
    pool: list = []
    _closed_subsorts(s, pool)
    _closed_subsorts(t, pool)
    pool.append(binter(split(s)))
    pool.append(binter(split(t)))
    seen: list = []
    for m in pool:
        if m not in seen:
            seen.append(m)
    return seen


def _closed_subsorts(s, out: list) -> None:
    """Self, intersection components, and function domains; codomains are
    under a binder and are skipped."""
    out.append(s)
    match s:
        case SInter(l, r):
            _closed_subsorts(l, out)
            _closed_subsorts(r, out)
        case SPi(_, d, _, _):
            _closed_subsorts(d, out)
