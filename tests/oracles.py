"""Independent reference implementations used to cross-check the package.

The substitution oracle works on a loose lambda-term representation that,
unlike the package AST, can represent beta-redexes.  Substitution is the
textbook capture-avoiding graft (classic de Bruijn shifting), followed by
normal-order beta-normalization with a step budget.  Nothing here imports
from lfr's substitution module, so agreement between the two is evidence,
not circularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from lfr import syntax as s


@dataclass(frozen=True)
class LBVar:
    index: int


@dataclass(frozen=True)
class LFree:
    name: str


@dataclass(frozen=True)
class LConst:
    name: str


@dataclass(frozen=True)
class LApp:
    fn: "LTerm"
    arg: "LTerm"


@dataclass(frozen=True)
class LLam:
    body: "LTerm"


LTerm = Union[LBVar, LFree, LConst, LApp, LLam]


def from_syntax(t: s.NormalTerm) -> LTerm:
    match t:
        case s.BVar(i):
            return LBVar(i)
        case s.FVar(n):
            return LFree(n)
        case s.Const(n):
            return LConst(n)
        case s.App(f, a):
            return LApp(from_syntax(f), from_syntax(a))
        case s.Lam(_, b):
            return LLam(from_syntax(b))
    raise TypeError(f"not a term: {t!r}")


def shift(t: LTerm, by: int, cutoff: int = 0) -> LTerm:
    match t:
        case LBVar(i):
            return LBVar(i + by) if i >= cutoff else t
        case LFree() | LConst():
            return t
        case LApp(f, a):
            return LApp(shift(f, by, cutoff), shift(a, by, cutoff))
        case LLam(b):
            return LLam(shift(b, by, cutoff + 1))
    raise TypeError


def subst_index(t: LTerm, j: int, repl: LTerm) -> LTerm:
    """[repl/j]t with de Bruijn index adjustment."""
    match t:
        case LBVar(i):
            if i == j:
                return shift(repl, j)
            return LBVar(i - 1) if i > j else t
        case LFree() | LConst():
            return t
        case LApp(f, a):
            return LApp(subst_index(f, j, repl), subst_index(a, j, repl))
        case LLam(b):
            return LLam(subst_index(b, j + 1, repl))
    raise TypeError


def subst_free(t: LTerm, name: str, repl: LTerm) -> LTerm:
    match t:
        case LFree(n):
            return repl if n == name else t
        case LBVar() | LConst():
            return t
        case LApp(f, a):
            return LApp(subst_free(f, name, repl), subst_free(a, name, repl))
        case LLam(b):
            # Descending under a binder shifts the replacement's free indices;
            # replacements are locally closed here, so this is a no-op kept for
            # correctness under reuse.
            return LLam(subst_free(b, name, shift(repl, 1)))
    raise TypeError


def beta_step(t: LTerm) -> LTerm | None:
    """One normal-order (leftmost-outermost) beta step; None at normal form."""
    match t:
        case LApp(LLam(b), a):
            return subst_index(b, 0, a)
        case LApp(f, a):
            f2 = beta_step(f)
            if f2 is not None:
                return LApp(f2, a)
            a2 = beta_step(a)
            if a2 is not None:
                return LApp(f, a2)
            return None
        case LLam(b):
            b2 = beta_step(b)
            return LLam(b2) if b2 is not None else None
        case _:
            return None


def normalize(t: LTerm, budget: int = 10000) -> LTerm:
    for _ in range(budget):
        nxt = beta_step(t)
        if nxt is None:
            return t
        t = nxt
    raise RuntimeError("oracle normalization budget exhausted")


def oracle_subst(n0: s.NormalTerm, x0: str, n: s.NormalTerm) -> LTerm:
    """Graft n0 for x0 in n and beta-normalize the result."""
    return normalize(subst_free(from_syntax(n), x0, from_syntax(n0)))


# ---------------------------------------------------------------------------
# Declarative sort checking, as bounded proof search.
#
# This follows the declarative bidirectional rules directly, branching on
# every intersection elimination instead of tracking synthesis sets the
# way the production checker does.  A True answer means a derivation was
# found; False only means none exists within the depth bound.

from lfr.subsort import SubsortQuery, declarative_subsort_oracle  # noqa: E402
from lfr.subst import SubstFailure as _SubstFailure  # noqa: E402
from lfr.subst import hsubst_syntax  # noqa: E402
from lfr.syntax import ctx_lookup, fresh_name, free_vars, open_at  # noqa: E402


def decl_synth_all(sig, ctx, r, depth: int) -> list:
    """Every sort declaratively synthesizable for the atomic term r."""
    if depth <= 0:
        return []
    match r:
        case s.Const(n):
            base = sig.merged_ref_sort(n)
            if base is None:
                return []
            return _project(base)
        case s.FVar(n):
            entry = ctx_lookup(ctx, n)
            if entry is None:
                return []
            return _project(entry.sort)
        case s.App(f, a):
            out = []
            for sf in decl_synth_all(sig, ctx, f, depth - 1):
                if not isinstance(sf, s.SPi):
                    continue
                if not decl_check(sig, ctx, a, sf.dom_sort, depth - 1):
                    continue
                x = fresh_name(sf.hint, free_vars(sf.cod) | free_vars(a))
                try:
                    cod = hsubst_syntax(a, x, sf.dom_type,
                                        open_at(sf.cod, s.FVar(x)))
                except _SubstFailure:
                    continue
                out.extend(_project(cod))
            return out
    return []


def _project(sort) -> list:
    """Close a sort under intersection elimination."""
    match sort:
        case s.SInter(l, r):
            return _project(l) + _project(r)
        case s.STop():
            return []
        case _:
            return [sort]


def decl_check(sig, ctx, n, sort, depth: int) -> bool:
    """Bounded search for a declarative checking derivation of n <= sort."""
    if depth <= 0:
        return False
    match sort:
        case s.STop():
            return True
        case s.SInter(l, r):
            return (decl_check(sig, ctx, n, l, depth - 1)
                    and decl_check(sig, ctx, n, r, depth - 1))
        case s.SPi(h, ds, dt, cod):
            if not isinstance(n, s.Lam):
                return False
            x = fresh_name(h, {e.name for e in ctx} | free_vars(n.body)
                           | free_vars(cod))
            ctx2 = list(ctx) + [s.CtxEntry(x, ds, dt)]
            return decl_check(sig, ctx2, open_at(n.body, s.FVar(x)),
                              open_at(cod, s.FVar(x)), depth - 1)
        case _:
            if isinstance(n, s.Lam):
                return False
            for q in decl_synth_all(sig, ctx, n, depth - 1):
                if isinstance(q, s.SPi):
                    continue
                query = SubsortQuery.make(sig, ctx, q, sort, None)
                if declarative_subsort_oracle(query, min(depth, 5)):
                    return True
            return False


# ---------------------------------------------------------------------------
# Named substitution for the target calculus and for every classifier.
#
# Syntax of either calculus is converted to named trees: each binder gets
# a name no input uses, and each bound index becomes its binder's name.
# Substitution is the textbook capture-avoiding one, which renames a
# binder that would capture a free variable of the replacement.
# Normalisation then contracts, leftmost-outermost, a lambda under either
# application and a projection of a pair.  Results are compared up to
# alpha-equivalence with alpha_key.  No binding operation of the package
# is used, so agreement with hereditary substitution is evidence.

import dataclasses  # noqa: E402
import itertools  # noqa: E402

from lfr import lfi as L  # noqa: E402


@dataclass(frozen=True)
class NVar:
    name: str


@dataclass(frozen=True)
class NNode:
    """Any other node: its constructor and leaf data as a tag, its children."""

    tag: str
    kids: tuple


@dataclass(frozen=True)
class NBind:
    """A binder: its tag, its name, the children outside its scope, its body."""

    tag: str
    name: str
    doms: tuple
    body: object


_binder_names = itertools.count()
_REDEX_HEADS = {"App": "Lam", "IApp": "ILam", "IIrrApp": "ILam"}


def named(t, env: tuple = ()):
    """The named tree of t; env names t's dangling indices, innermost last."""
    if t is None:
        return NNode("none", ())
    if isinstance(t, (s.BVar, L.IBVar)):
        if t.index >= len(env):
            raise ValueError(f"dangling index {t.index}")
        return NVar(env[-1 - t.index])
    if isinstance(t, (s.FVar, L.IFVar)):
        return NVar(t.name)
    cls = type(t).__name__
    fields = [getattr(t, f.name) for f in dataclasses.fields(t)]
    if any(f.name == "hint" for f in dataclasses.fields(t)):
        x = f"%{next(_binder_names)}"
        return NBind(cls, x, tuple(named(d, env) for d in fields[1:-1]),
                     named(fields[-1], env + (x,)))
    leaves = [f for f in fields if isinstance(f, str)]
    return NNode(":".join([cls] + leaves),
                 tuple(named(f, env) for f in fields if not isinstance(f, str)))


def nfree(m) -> set[str]:
    match m:
        case NVar(x):
            return {x}
        case NNode(_, kids):
            return set().union(*(nfree(k) for k in kids))
        case NBind(_, x, doms, body):
            return set().union(*(nfree(d) for d in doms)) | (nfree(body) - {x})
    raise TypeError(m)


def nsubst(n, x: str, m):
    """Capture-avoiding [n/x]m."""
    match m:
        case NVar(y):
            return n if y == x else m
        case NNode(tag, kids):
            return NNode(tag, tuple(nsubst(n, x, k) for k in kids))
        case NBind(tag, y, doms, body):
            doms = tuple(nsubst(n, x, d) for d in doms)
            if y == x:
                return NBind(tag, y, doms, body)
            if y in nfree(n):
                z = f"%{next(_binder_names)}"
                body, y = nsubst(NVar(z), y, body), z
            return NBind(tag, y, doms, nsubst(n, x, body))
    raise TypeError(m)


def nstep(m):
    """One leftmost-outermost reduction step; None at normal form."""
    match m:
        case NNode(tag, (NBind(lam, x, (), body), arg)) if _REDEX_HEADS.get(tag) == lam:
            return nsubst(arg, x, body)
        case NNode("IFst", (NNode("IPair", (left, _)),)):
            return left
        case NNode("ISnd", (NNode("IPair", (_, right)),)):
            return right
        case NNode(tag, kids):
            for i, k in enumerate(kids):
                k2 = nstep(k)
                if k2 is not None:
                    return NNode(tag, kids[:i] + (k2,) + kids[i + 1:])
            return None
        case NBind(tag, x, doms, body):
            for i, d in enumerate(doms):
                d2 = nstep(d)
                if d2 is not None:
                    return NBind(tag, x, doms[:i] + (d2,) + doms[i + 1:], body)
            body2 = nstep(body)
            return None if body2 is None else NBind(tag, x, doms, body2)
    return None


def nnormalize(m, budget: int = 10000):
    for _ in range(budget):
        nxt = nstep(m)
        if nxt is None:
            return m
        m = nxt
    raise RuntimeError("oracle normalization budget exhausted")


def alpha_key(m, bound: tuple = ()):
    """A nameless rendering of m: equal keys iff alpha-equivalent trees."""
    match m:
        case NVar(x):
            if x in bound:
                return ("bound", bound[::-1].index(x))
            return ("free", x)
        case NNode(tag, kids):
            return (tag,) + tuple(alpha_key(k, bound) for k in kids)
        case NBind(tag, x, doms, body):
            return ((tag,) + tuple(alpha_key(d, bound) for d in doms)
                    + (alpha_key(body, bound + (x,)),))
    raise TypeError(m)


def named_subst(n0, x0: str, t):
    """The key of [n0/x0]t, normalised; t of either calculus."""
    return alpha_key(nnormalize(nsubst(named(n0), x0, named(t))))


def named_inst(body, arg):
    """The key of body with its dangling index 0 set to arg, normalised."""
    x = f"%{next(_binder_names)}"
    return alpha_key(nnormalize(nsubst(named(arg), x, named(body, (x,)))))


def occurs(name: str, t) -> bool:
    """Whether the free variable name occurs in t."""
    return name in nfree(named(t))


def result_key(t):
    """The key of a package result, for comparison with the two above."""
    return alpha_key(named(t))
