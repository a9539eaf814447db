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

from functools import reduce

from .diagnostics import Node, SubstFailure
from .lfr_check import SortError, _acheck, split, subsort_q
from .subst import eta_expand
from .subst import hsubst_syntax  # noqa: F401  (bound for bench/tracer.py)
from .syntax import (
    CtxEntry,
    FVar,
    Signature,
    SInter,
    SPi,
    STop,
    alpha_eq,
    is_atomic_sort,
)

# "$" cannot appear in identifiers, so this name never collides.
_FRESH_SUBJECT = "$sub"


class SubsortQuery(Node):
    """S <= T as sorts refining the common type a, in a context."""

    sig: Signature
    ctx: tuple
    s: object
    t: object
    a: object

    @staticmethod
    def make(sig, ctx, s, t, a) -> "SubsortQuery":
        return SubsortQuery(sig, tuple(ctx), s, t, a)


def intrinsic_subsort(q: SubsortQuery) -> bool:
    """S <= T iff the eta-expansion of a fresh S-variable checks at T."""
    subject = eta_expand(q.a, FVar(_FRESH_SUBJECT))
    ctx = list(q.ctx) + [CtxEntry(_FRESH_SUBJECT, q.s, q.a)]
    try:
        _acheck(q.sig, ctx, (), subject, q.t, None)
        return True
    except (SortError, SubstFailure):
        return False


# ---------------------------------------------------------------------------
# Algorithmic subsorting on synthesis sets


def binter(d: list):
    """Reassemble a synthesis set into one sort, top-first."""
    return reduce(SInter, d, STop())


def algo_subsort(sig: Signature, d: list, s) -> bool:
    match s:
        case STop():
            return True
        case SInter():
            return algo_subsort(sig, d, s.left) and algo_subsort(sig, d, s.right)
        case SPi():
            if s.dom_type is None:
                raise TypeError("algo_subsort: sort was not elaborated")
            # Push a variable known to refine s1 through the function
            # components: the codomains of those that take it are read,
            # as t is, under one binder for it.
            d1 = split(s.dom_sort)
            d2 = [q for f in d if isinstance(f, SPi)
                  and algo_subsort(sig, d1, f.dom_sort)
                  for q in split(f.cod)]
            return algo_subsort(sig, d2, s.cod)
        case _:
            if not is_atomic_sort(s):
                raise TypeError(f"algo_subsort: not a sort: {s!r}")
            return any(not isinstance(q, SPi) and subsort_q(sig, q, s)
                       for q in d)


# ---------------------------------------------------------------------------
# Declarative oracle


def declarative_subsort_oracle(q: SubsortQuery, depth: int = 6) -> bool:
    """Bounded search over the declarative subsorting rules.

    One-sided by construction: a True answer means a derivation exists;
    False only means none was found within the depth bound.
    """
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
            return subsort_q(q.sig, s, t)
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
            # Both codomains are read under the one binder they share.
            if go(t.dom_sort, s.dom_sort, d - 1) and go(s.cod, t.cod, d - 1):
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
    for x, y in ((s, t), (t, s)):
        # x is (a ^ b) ^ c and y is a ^ (b ^ c).
        if (isinstance(x, SInter) and isinstance(x.left, SInter)
                and isinstance(y, SInter) and isinstance(y.right, SInter)
                and alpha_eq(x.left.left, y.left)
                and alpha_eq(x.left.right, y.right.left)
                and alpha_eq(x.right, y.right.right)):
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
        case SInter():
            _closed_subsorts(s.left, out)
            _closed_subsorts(s.right, out)
        case SPi():
            _closed_subsorts(s.dom_sort, out)
