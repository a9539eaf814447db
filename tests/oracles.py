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
from lfr.diagnostics import Node


def node_fields(t) -> tuple[str, ...]:
    """The names of t's fields, in order, if t is a node of either
    language; none otherwise."""
    return type(t).__match_args__ if isinstance(t, Node) else ()


def node_kids(t) -> list:
    """The values of t's fields, in order; none if t is not a node."""
    return [getattr(t, n) for n in node_fields(t)]


def node_replace(t, **changes):
    """The node t with the fields changes names set to its values."""
    return type(t)(*(changes.get(n, getattr(t, n)) for n in node_fields(t)))


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
# Opening and closing a binder with a name, in both languages.
#
# The package reads and builds every binder by index and names bound
# variables only to print them; the tests that build syntax by name, and
# the reference copies below that open every binder, use these.  Each is
# a leaf function over the package's one variable walk.

from lfr import lfi as L  # noqa: E402


def open_at(t: s.Syntax, repl: s.AtomicTerm, k: int = 0) -> s.Syntax:
    """Replace bound index k with the locally closed atomic term repl."""
    def leaf(v, depth):
        return repl if isinstance(v, s.BVar) and v.index == depth else v
    return s.map_vars(t, leaf, k)


def close_at(t: s.Syntax, name: str, k: int = 0) -> s.Syntax:
    """Turn free occurrences of name back into bound index k."""
    def leaf(v, depth):
        return s.BVar(depth) if isinstance(v, s.FVar) and v.name == name else v
    return s.map_vars(t, leaf, k)


def open_lfi(t, repl, k: int = 0):
    """Replace bound index k of target syntax with the atomic term repl,
    whose free indices are read at the position of the call."""
    def leaf(v, depth):
        if isinstance(v, L.IBVar) and v.index == depth:
            return L._shift_lfi(repl, depth)
        return v
    return L._map_vars(t, leaf, k)


def close_lfi(t, name: str, k: int = 0):
    """Bind a free name of target syntax as index k."""
    def leaf(v, depth):
        return L.IBVar(depth) if isinstance(v, L.IFVar) and v.name == name else v
    return L._map_vars(t, leaf, k)


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
from lfr.syntax import ctx_lookup, fresh_name, free_vars  # noqa: E402


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
# Subsorting that opens every binder with a name.
#
# subsort.py's algorithm and declarative oracle as they were before they
# read function sorts by index: at a function sort the algorithm names the
# variable fresh for its context and the goal's codomain, substitutes its
# eta-expansion into each component's codomain and opens the goal's with
# it, and the oracle's Pi rule opens both codomains with one fresh name.
# The package must give the same answers.

from lfr.lfr_check import subsort_q  # noqa: E402
from lfr.lfr_check import split as _split_sort  # noqa: E402
from lfr.subsort import (  # noqa: E402
    _assoc,
    _dist_inter_pi,
    _dist_inter_pi_merge,
    _dist_top_pi,
    _middle_pool,
)
from lfr.subst import erase_type as _erase_type  # noqa: E402


def named_eta_expand(alpha, r):
    """subst.eta_expand as it was before it built its lambdas by index:
    each lambda's variable takes the first pool name free in r, and the
    body is closed over it."""
    alpha = _erase_type(alpha)
    if isinstance(alpha, s.Base):
        return r
    x = s.pool_name("x", free_vars(r))
    body = named_eta_expand(alpha.cod,
                            s.App(r, named_eta_expand(alpha.dom, s.FVar(x))))
    return s.Lam(x, close_at(body, x))


def named_algo_subsort(sig, ctx, d: list, t) -> bool:
    """algo_subsort, opening each function sort's codomain by name."""
    match t:
        case s.STop():
            return True
        case s.SInter(l, r):
            return (named_algo_subsort(sig, ctx, d, l)
                    and named_algo_subsort(sig, ctx, d, r))
        case s.SPi(h, s1, a1, cod):
            x = fresh_name(h, {e.name for e in ctx} | free_vars(cod))
            d2 = _named_algo_apply(sig, ctx, d, x, _split_sort(s1), a1)
            return named_algo_subsort(sig, list(ctx) + [s.CtxEntry(x, s1, a1)],
                                      d2, open_at(cod, s.FVar(x)))
    return any(not isinstance(q, s.SPi) and subsort_q(sig, q, t)
               for q in d)


def _named_algo_apply(sig, ctx, d, x, d1, a1) -> list:
    eta_x = named_eta_expand(a1, s.FVar(x))
    out: list = []
    for entry in d:
        if not isinstance(entry, s.SPi):
            continue
        if not named_algo_subsort(sig, ctx, d1, entry.dom_sort):
            continue
        try:
            cod = hsubst_syntax(eta_x, 0, a1, entry.cod)
        except _SubstFailure:
            continue
        out.extend(_split_sort(cod))
    return out


def named_subsort_oracle(q: SubsortQuery, depth: int = 6) -> bool:
    """declarative_subsort_oracle, whose Pi rule opens both codomains
    with one name fresh for them."""
    memo: dict = {}

    def go(a, b, d: int) -> bool:
        key = (a, b, d)
        if key not in memo:
            memo[key] = False
            memo[key] = rules(a, b, d)
        return memo[key]

    def rules(a, b, d: int) -> bool:
        if a == b or isinstance(b, s.STop):
            return True
        if s.is_atomic_sort(a) and s.is_atomic_sort(b):
            return subsort_q(q.sig, a, b)
        if (_dist_top_pi(a, b) or _dist_inter_pi(a, b) or _assoc(a, b)
                or _dist_inter_pi_merge(a, b)):
            return True
        if d <= 0:
            return False
        if isinstance(b, s.SInter):
            if go(a, b.left, d - 1) and go(a, b.right, d - 1):
                return True
        if isinstance(a, s.SInter):
            if go(a.left, b, d - 1) or go(a.right, b, d - 1):
                return True
        if isinstance(a, s.SPi) and isinstance(b, s.SPi):
            if go(b.dom_sort, a.dom_sort, d - 1):
                x = fresh_name(a.hint, free_vars(a.cod) | free_vars(b.cod))
                if go(open_at(a.cod, s.FVar(x)), open_at(b.cod, s.FVar(x)),
                      d - 1):
                    return True
        return any(m != a and m != b and go(a, m, d - 1) and go(m, b, d - 1)
                   for m in _middle_pool(a, b))

    return go(q.s, q.t, depth)


# ---------------------------------------------------------------------------
# The translator's own subsort path search.
#
# Before the sort checker's switch recorded the path it read off
# lfr_check.build_closure, the translator searched the declared edges again
# for each coercion: a breadth-first search from the current head to the
# goal's, one step along it, and a new search from there.  The package's
# recorded path must be the heads this walk passes.

def _bfs_path(edges, a: str, b: str):
    """Shortest head path along the declared (sub, sup) edges; ties by
    declaration order."""
    parent, queue = {a: a}, [a]
    for node in queue:
        if node == b:
            path = []
            while node != a:
                path.append(node)
                node = parent[node]
            return path[::-1]
        for sub, nxt in edges:
            if sub == node and nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


def stepwise_path(edges, a: str, b: str):
    """The heads the translator's coercion walk passed from a to b, or None
    where b is not above a."""
    path: list[str] = []
    while a != b:
        steps = _bfs_path(edges, a, b)
        if not steps:
            return None
        a = steps[0]
        path.append(a)
    return tuple(path)


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

import itertools  # noqa: E402


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
_REDEX_HEADS = {"App": "Lam", "IApp": "ILam"}


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
    fields = node_kids(t)
    if "hint" in node_fields(t):
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


def named_inst(body, *args):
    """The key of body with its dangling indices set to args, outermost
    first (the last is index 0), normalised."""
    xs = tuple(f"%{next(_binder_names)}" for _ in args)
    m = named(body, xs)
    for x, arg in zip(xs, args):
        m = nsubst(named(arg), x, m)
    return alpha_key(nnormalize(m))


def occurs(name: str, t) -> bool:
    """Whether the free variable name occurs in t."""
    return name in nfree(named(t))


def result_key(t):
    """The key of a package result, for comparison with the two above."""
    return alpha_key(named(t))


# ---------------------------------------------------------------------------
# The target printer and checker that open every binder.
#
# Both name a bound variable when they pass its binder and open the body
# with that name: the printer takes a name fresh for the names the body
# uses, the checker one fresh for its context and for the free names of
# the body and the goal.  The package carries the names of the enclosing
# binders instead; it must print, accept and report exactly as these do.

from lfr.lfi import LfiCtxEntry, LfiError, lfi_ctx_lookup, lfi_equal  # noqa: E402
from lfr.lfi import lfi_hsubst, promote  # noqa: E402


def _names_in(t, nodes) -> set[str]:
    """The names of the nodes of the given classes that occur in t."""
    if isinstance(t, nodes):
        return {t.name}
    return set().union(*(_names_in(v, nodes) for v in node_kids(t)))


def _used(t) -> set[str]:
    """The names of the variables and constants that occur in t."""
    return _names_in(t, (L.IFVar, L.IConst, L.ITConst))


def _free(t) -> set[str]:
    return _names_in(t, L.IFVar)


def _mentions(t, k: int) -> bool:
    """Whether t, of either language, mentions the index k, counted from
    t's root."""
    if isinstance(t, (L.IBVar, s.BVar)):
        return t.index == k
    kids = node_kids(t)
    body = len(kids) - 1 if "hint" in node_fields(t) else None
    return any(_mentions(v, k + (i == body)) for i, v in enumerate(kids))


def _wrap(cond: bool, s: str) -> str:
    return f"({s})" if cond else s


def opened_pp_lfi_term(t) -> str:
    return _opl_term(t, 0, True)


def opened_pp_lfi_type(a) -> str:
    return _opl_type(a, 0, True)


def opened_pp_lfi_kind(k) -> str:
    return _opl_kind(k, 0, True)


def _opl_term(t, lvl: int, ext: bool) -> str:
    match t:
        case L.IConst(n) | L.IFVar(n):
            return n
        case L.IBVar(i):
            return f"?{i}"
        case L.IApp(f, a):
            return _wrap(lvl >= 4, f"{_opl_term(f, 3, False)} {_opl_term(a, 4, False)}")
        case L.IFst(b):
            return f"{_opl_term(b, 4, False)}.1"
        case L.ISnd(b):
            return f"{_opl_term(b, 4, False)}.2"
        case L.ILam(h, b):
            x = fresh_name(h, _used(b))
            return _wrap(not ext, f"[{x}] {_opl_term(open_lfi(b, L.IFVar(x)), 0, True)}")
        case L.IPair(l, r):
            left = _opl_term(l, 0, True)
            sep = " " if left.startswith("<") else ""
            return f"<{sep}{left}, {_opl_term(r, 0, True)}>"
        case L.IUnit():
            return "<>"
    raise TypeError(t)


def _opl_binder(h, d, c, rest, colon, arrow, ext, lvl) -> str:
    if _mentions(c, 0):
        x = fresh_name(h, _used(c))
        s = f"{{{x} {colon} {_opl_type(d, 0, True)}}} {rest(open_lfi(c, L.IFVar(x)), 0, True)}"
        return _wrap(not ext, s)
    return _wrap(lvl >= 2, f"{_opl_type(d, 2, False)} {arrow} {rest(c, 1, ext)}")


def _opl_type(a, lvl: int, ext: bool) -> str:
    match a:
        case L.ITConst(n):
            return n
        case L.ITApp(f, arg):
            return _wrap(lvl >= 4, f"{_opl_type(f, 3, False)} {_opl_term(arg, 4, False)}")
        case L.ITIrrApp(f, arg):
            return _wrap(lvl >= 4, f"{_opl_type(f, 3, False)} [[ {_opl_term(arg, 0, True)} ]]")
        case L.ITPi(h, d, c):
            return _opl_binder(h, d, c, _opl_type, ":", "->", ext, lvl)
        case L.ITProd(l, r):
            return _wrap(lvl >= 3, f"({_opl_type(l, 0, True)}) * ({_opl_type(r, 0, True)})")
        case L.ITUnitT():
            return "1"
    raise TypeError(a)


def _opl_kind(k, lvl: int, ext: bool) -> str:
    match k:
        case L.IKType():
            return "type"
        case L.IKPi(h, d, c):
            return _opl_binder(h, d, c, _opl_kind, ":", "->", ext, lvl)
        case L.IKIrrPi(h, d, c):
            return _opl_binder(h, d, c, _opl_kind, "::", "-:>", ext, lvl)
    raise TypeError(k)


def _opened(ctx, h: str, d, relevant: bool, *scope):
    """The context grown by a hypothesis for the binder (h, d), and each
    of scope opened with its name."""
    avoid = {e.name for e in ctx}.union(*(_free(t) for t in scope))
    x = fresh_name(h, avoid)
    return ([*ctx, LfiCtxEntry(x, d, relevant)],
            *(open_lfi(t, L.IFVar(x)) for t in scope))


def opened_synth(sig, ctx, r):
    match r:
        case L.IConst(n):
            ty = sig.const_type(n)
            if ty is None:
                raise LfiError(f"unbound constant {n}")
            return ty
        case L.IFVar(n):
            entry = lfi_ctx_lookup(ctx, n)
            if entry is None:
                raise LfiError(f"unbound variable {n}")
            if not entry.relevant:
                raise LfiError(
                    f"irrelevant hypothesis {n} used in a relevant position")
            return entry.type
        case L.IApp(f, a):
            fty = opened_synth(sig, ctx, f)
            if not isinstance(fty, L.ITPi):
                raise LfiError(f"applied term of non-function type {opened_pp_lfi_type(fty)}")
            opened_check(sig, ctx, a, fty.dom)
            return lfi_hsubst(a, 0, fty.dom, fty.cod)
        case L.IFst(b):
            bty = opened_synth(sig, ctx, b)
            if not isinstance(bty, L.ITProd):
                raise LfiError(f"first projection of non-pair type {opened_pp_lfi_type(bty)}")
            return bty.left
        case L.ISnd(b):
            bty = opened_synth(sig, ctx, b)
            if not isinstance(bty, L.ITProd):
                raise LfiError(f"second projection of non-pair type {opened_pp_lfi_type(bty)}")
            return bty.right
    raise LfiError(f"cannot synthesize a type for {opened_pp_lfi_term(r)}")


def opened_check(sig, ctx, n, a) -> None:
    match n:
        case L.ILam(h, b):
            if not isinstance(a, L.ITPi):
                raise LfiError(
                    f"function checked against non-function type {opened_pp_lfi_type(a)}")
            opened_check(sig, *_opened(ctx, h, a.dom, True, b, a.cod))
        case L.IPair(l, r):
            if not isinstance(a, L.ITProd):
                raise LfiError(f"pair checked against non-product type {opened_pp_lfi_type(a)}")
            opened_check(sig, ctx, l, a.left)
            opened_check(sig, ctx, r, a.right)
        case L.IUnit():
            if not isinstance(a, L.ITUnitT):
                raise LfiError(f"unit checked against {opened_pp_lfi_type(a)}")
        case _:
            if not L.is_lfi_atomic(n):
                raise LfiError(f"cannot check {opened_pp_lfi_term(n)}")
            syn = opened_synth(sig, ctx, n)
            if not lfi_equal(syn, a):
                raise LfiError(
                    f"type mismatch: expected {opened_pp_lfi_type(a)}, "
                    f"synthesized {opened_pp_lfi_type(syn)}")


def opened_check_type(sig, ctx, a) -> None:
    match a:
        case L.ITPi(h, d, c):
            opened_check_type(sig, ctx, d)
            opened_check_type(sig, *_opened(ctx, h, d, True, c))
        case L.ITProd(l, r):
            opened_check_type(sig, ctx, l)
            opened_check_type(sig, ctx, r)
        case L.ITUnitT():
            pass
        case L.ITConst() | L.ITApp() | L.ITIrrApp():
            if not isinstance(_opened_kind_of(sig, ctx, a), L.IKType):
                raise LfiError(f"type family not fully applied: {opened_pp_lfi_type(a)}")
        case _:
            raise LfiError(f"not a type: {a!r}")


def _opened_kind_of(sig, ctx, p):
    spine = []
    while isinstance(p, (L.ITApp, L.ITIrrApp)):
        spine.append((p.arg, isinstance(p, L.ITIrrApp)))
        p = p.fn
    if not isinstance(p, L.ITConst):
        raise LfiError(f"type head is not a constant: {p!r}")
    kind = sig.fam_kind(p.name)
    if kind is None:
        raise LfiError(f"unbound type family {p.name}")
    for arg, irr in reversed(spine):
        match kind:
            case L.IKPi(_, d, c) if not irr:
                opened_check(sig, ctx, arg, d)
            case L.IKIrrPi(_, d, c) if irr:
                opened_check(sig, promote(ctx), arg, d)
            case _:
                raise LfiError(
                    f"kind of {p.name} does not accept this argument shape")
        kind = lfi_hsubst(arg, 0, d, c)
    return kind


def opened_check_kind(sig, ctx, k) -> None:
    match k:
        case L.IKType():
            pass
        case L.IKPi(h, d, c) | L.IKIrrPi(h, d, c):
            opened_check_type(sig, ctx, d)
            opened_check_kind(sig, *_opened(ctx, h, d, isinstance(k, L.IKPi), c))
        case _:
            raise LfiError(f"not a kind: {k!r}")


# ---------------------------------------------------------------------------
# The source printer that opens every binder.
#
# It names a bound variable when it passes the binder, with the binder's
# hint primed away from the names the body uses (the domain types of the
# body's sort and class Pis included, though they are not printed), and
# opens the body with that name.  The package's printer carries the names
# of the enclosing binders instead; it must print exactly as this does.


def used_names(t) -> set[str]:
    """The names of the free variables and constants that occur in t."""
    return _names_in(t, (s.FVar, s.Const, s.TConst, s.SConst))


def opened_pp_term(t) -> str:
    return _op_term(t, 0, True)


def opened_pp_type(a) -> str:
    return _op_type(a, 0, True)


def opened_pp_kind(k) -> str:
    return _op_kind(k, 0, True)


def opened_pp_sort(q) -> str:
    return _op_sort(q, 0, True)


def opened_pp_class(c) -> str:
    return _op_class(c, 0, True)


def _op_binder(h, d, c, dom, rest, colon, ext, lvl) -> str:
    if _mentions(c, 0):
        x = fresh_name(h, used_names(c))
        out = f"{{{x} {colon} {dom(d, 0, True)}}} {rest(open_at(c, s.FVar(x)), 0, True)}"
        return _wrap(not ext, out)
    return _wrap(lvl >= 2, f"{dom(d, 2, False)} -> {rest(c, 1, ext)}")


def _op_term(t, lvl: int, ext: bool) -> str:
    match t:
        case s.FVar(n) | s.Const(n):
            return n
        case s.BVar(i):
            return f"?{i}"
        case s.App(f, a):
            return _wrap(lvl >= 4, f"{_op_term(f, 3, False)} {_op_term(a, 4, False)}")
        case s.Lam(h, b):
            x = fresh_name(h, used_names(b))
            return _wrap(not ext, f"[{x}] {_op_term(open_at(b, s.FVar(x)), 0, True)}")
    raise TypeError(t)


def _op_type(a, lvl: int, ext: bool) -> str:
    match a:
        case s.TConst(n):
            return n
        case s.TApp(f, arg):
            return _wrap(lvl >= 4, f"{_op_type(f, 3, False)} {_op_term(arg, 4, False)}")
        case s.TPi(h, d, c):
            return _op_binder(h, d, c, _op_type, _op_type, ":", ext, lvl)
    raise TypeError(a)


def _op_kind(k, lvl: int, ext: bool) -> str:
    match k:
        case s.KType():
            return "type"
        case s.KPi(h, d, c):
            return _op_binder(h, d, c, _op_type, _op_kind, ":", ext, lvl)
    raise TypeError(k)


def _op_sort(q, lvl: int, ext: bool) -> str:
    match q:
        case s.SConst(n):
            return n
        case s.STop():
            return "#"
        case s.SApp(f, arg):
            return _wrap(lvl >= 4, f"{_op_sort(f, 3, False)} {_op_term(arg, 4, False)}")
        case s.SInter(l, r):
            return _wrap(lvl >= 1, f"{_op_sort(l, 1, False)} ^ {_op_sort(r, 0, ext)}")
        case s.SPi(h, d, _, c):
            return _op_binder(h, d, c, _op_sort, _op_sort, "::", ext, lvl)
    raise TypeError(q)


def _op_class(c, lvl: int, ext: bool) -> str:
    match c:
        case s.CSort():
            return "sort"
        case s.CTop():
            return "#"
        case s.CInter(l, r):
            return _wrap(lvl >= 1, f"{_op_class(l, 1, False)} ^ {_op_class(r, 0, ext)}")
        case s.CPi(h, d, _, b):
            return _op_binder(h, d, b, _op_sort, _op_class, "::", ext, lvl)
    raise TypeError(c)


# ---------------------------------------------------------------------------
# The lexer that moves one character at a time.
#
# It tests each character against explicit sets and counts lines and
# columns as it advances; the package scans with one regular expression
# per mode and counts newlines between tokens.  Both must give the same
# tokens with the same spans, and the same LexError message and span.
# Digits are ASCII: `str.isdigit` also accepts `²` and `①`, which `int`
# then rejects.

from lfr.diagnostics import LexError, SourceSpan  # noqa: E402

_LEX_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_LEX_DIGITS = set("0123456789")
_LEX_IDENT_CONT = _LEX_IDENT_START | _LEX_DIGITS | set("_'/*-")
_LEX_SYMBOLS = ["[[", "]]", "-:>", "->", "<-", "<<", "<:", "<>", "::",
                "{", "}", "(", ")", "[", "]", "^", "#", "*", ",", "<", ">",
                ":", "."]


class ReferenceLexer:
    def __init__(self, text: str, filename: str, target_mode: bool):
        self.text = text
        self.filename = filename
        self.target_mode = target_mode
        self.pos = 0
        self.line = 1
        self.col = 1

    def _advance(self, n: int) -> None:
        """Step over n characters.  A line ends at `\\r\\n`, `\\r` or
        `\\n`: the `\\r` of a `\\r\\n` is the last column of its line."""
        for _ in range(n):
            ch, nxt = self.text[self.pos], self.text[self.pos + 1:self.pos + 2]
            if ch == "\n" or (ch == "\r" and nxt != "\n"):
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _span(self, start_line: int, start_col: int) -> SourceSpan:
        return SourceSpan(self.filename, start_line, start_col, self.line, self.col)

    def tokens(self) -> list[tuple[str, str, SourceSpan]]:
        """(kind, text, span) for each token, ending with EOF."""
        out = []
        text = self.text
        while True:
            while self.pos < len(text) and text[self.pos] in " \t\r\n":
                self._advance(1)
            if self.pos >= len(text):
                out.append(("EOF", "", self._span(self.line, self.col)))
                return out
            line, col = self.line, self.col
            ch = text[self.pos]
            if ch == "%":
                if text.startswith("%infix", self.pos):
                    self._advance(len("%infix"))
                    out.append(("SYM", "%infix", self._span(line, col)))
                    continue
                while self.pos < len(text) and text[self.pos] not in "\r\n":
                    self._advance(1)
                continue
            if ch in _LEX_IDENT_START:
                out.append(self._ident(line, col))
                continue
            if ch in _LEX_DIGITS:
                start = self.pos
                while self.pos < len(text) and text[self.pos] in _LEX_DIGITS:
                    self._advance(1)
                out.append(("NUM", text[start:self.pos], self._span(line, col)))
                continue
            if ch == ".":
                nxt = text[self.pos + 1:self.pos + 2]
                after = text[self.pos + 2:self.pos + 3]
                if nxt in ("1", "2") and not (after and after in _LEX_IDENT_CONT):
                    self._advance(2)
                    out.append(("SYM", "." + nxt, self._span(line, col)))
                    continue
                self._advance(1)
                out.append(("SYM", ".", self._span(line, col)))
                continue
            sym = self._symbol()
            if sym is None:
                raise LexError(f"unexpected character {ch!r}",
                               self._span(line, col))
            self._advance(len(sym))
            out.append(("SYM", sym, self._span(line, col)))

    def _ident(self, line: int, col: int) -> tuple[str, str, SourceSpan]:
        text = self.text
        start = self.pos
        self._advance(1)
        while self.pos < len(text):
            ch = text[self.pos]
            if ch == "^" and self.target_mode:
                self._advance(1)
                continue
            if ch == "-":
                nxt = text[self.pos + 1:self.pos + 2]
                if nxt in (">", ":"):
                    break
                if nxt and nxt in _LEX_IDENT_CONT:
                    self._advance(1)
                    continue
                break
            if ch in _LEX_IDENT_CONT:
                self._advance(1)
                continue
            break
        return ("IDENT", text[start:self.pos], self._span(line, col))

    def _symbol(self) -> str | None:
        for sym in _LEX_SYMBOLS:
            if self.text.startswith(sym, self.pos):
                if sym == "^" and self.target_mode:
                    return None
                return sym
        return None


def reference_tokens(text: str, filename: str, target_mode: bool):
    """The reference lexer's tokens as (kind, text, span) triples."""
    return ReferenceLexer(text, filename, target_mode).tokens()


# ---------------------------------------------------------------------------
# The source checkers that open every binder.
#
# lf.py's three checkers and the sort checker's judgments as they were
# before they descended binders by index: at each binder they name the
# variable with the hint primed away from the context's names and from
# the free names of the body and the codomain, and open both with it.
# Verdicts, diagnostic kinds and messages must agree with the package's.
# Derivations, traces and the sharing of a synthesis are left out: none
# of them changes a verdict or a message.

from lfr.lf import LfError  # noqa: E402
from lfr.lfr_check import (  # noqa: E402
    SortError,
    _rewrap_arg,
    split,
    subsort_q,
)
from lfr.printer import pp_sort, pp_term, pp_type  # noqa: E402


def _lf_fail(kind, message, expected=None, actual=None):
    raise LfError(kind, message, expected, actual)


def _lf_inst(body, arg, dom, what: str):
    try:
        return hsubst_syntax(arg, 0, dom, body)
    except _SubstFailure as e:
        _lf_fail("type mismatch", f"substitution into {what} failed: {e}")


def _opened_source(ctx_names, h: str, *scope):
    """A name for the binder hinted h, fresh for the context and for the
    free names of scope, and each of scope opened with it."""
    x = fresh_name(h, set(ctx_names).union(*(free_vars(t) for t in scope)))
    return (x, *(open_at(t, s.FVar(x)) for t in scope))


def opened_lf_synth(sig, ctx, r):
    match r:
        case s.Const(n):
            decl = sig.term_const(n)
            if decl is None:
                _lf_fail("unbound name", f"unbound constant {n}")
            return decl.type
        case s.FVar(n):
            for name, ty in reversed(ctx):
                if name == n:
                    return ty
            _lf_fail("unbound name", f"unbound variable {n}")
        case s.App(f, a):
            fty = opened_lf_synth(sig, ctx, f)
            if not isinstance(fty, s.TPi):
                _lf_fail("type mismatch",
                         f"applied term of non-function type {pp_type(fty)}",
                         actual=pp_type(fty))
            opened_lf_check(sig, ctx, a, fty.dom)
            return _lf_inst(fty.cod, a, fty.dom, "a function codomain")
    raise TypeError(r)


def opened_lf_check(sig, ctx, n, a) -> None:
    if isinstance(n, s.Lam):
        if not isinstance(a, s.TPi):
            _lf_fail("non-atomic at atomic type",
                     f"function term checked against atomic type "
                     f"{pp_type(a)}", expected=pp_type(a))
        x, b, c = _opened_source([nm for nm, _ in ctx], n.hint, n.body, a.cod)
        opened_lf_check(sig, ctx + [(x, a.dom)], b, c)
        return
    if isinstance(a, s.TPi):
        _lf_fail("type mismatch", f"atomic term {pp_term(n)} at function "
                 f"type {pp_type(a)}; terms must be eta-long",
                 expected=pp_type(a), actual=pp_term(n))
    syn = opened_lf_synth(sig, ctx, n)
    if syn != a:
        _lf_fail("type mismatch", f"type mismatch: expected {pp_type(a)}, "
                 f"synthesized {pp_type(syn)}", expected=pp_type(a),
                 actual=pp_type(syn))


def opened_lf_check_type(sig, ctx, a) -> None:
    if isinstance(a, s.TPi):
        opened_lf_check_type(sig, ctx, a.dom)
        x, c = _opened_source([nm for nm, _ in ctx], a.hint, a.cod)
        opened_lf_check_type(sig, ctx + [(x, a.dom)], c)
        return
    p, spine = s.type_spine(a)
    decl = sig.type_fam(p.name)
    if decl is None:
        _lf_fail("unbound name", f"unbound type family {p.name}")
    kind = decl.kind
    for arg in spine:
        if not isinstance(kind, s.KPi):
            _lf_fail("ill-formed kind",
                     f"type family {p.name} applied to too many arguments")
        opened_lf_check(sig, ctx, arg, kind.dom)
        kind = _lf_inst(kind.cod, arg, kind.dom, "a kind codomain")
    if not isinstance(kind, s.KType):
        _lf_fail("ill-formed kind",
                 f"type family not fully applied: {pp_type(a)}",
                 actual=pp_type(a))


def opened_lf_check_kind(sig, ctx, k) -> None:
    if isinstance(k, s.KPi):
        opened_lf_check_type(sig, ctx, k.dom)
        x, c = _opened_source([nm for nm, _ in ctx], k.hint, k.cod)
        opened_lf_check_kind(sig, ctx + [(x, k.dom)], c)


def _sort_fail(kind, message):
    raise SortError(kind, message)


def opened_asynth(sig, ctx, r) -> list:
    match r:
        case s.Const(n):
            merged = sig.merged_ref_sort(n)
            if merged is None:
                _sort_fail("no-refinement-declared",
                           f"constant {n} has no refinement declaration")
            return split(merged)
        case s.FVar(n):
            entry = ctx_lookup(ctx, n)
            if entry is None:
                _sort_fail("no-refinement-declared",
                           f"variable {n} is not in the context")
            return split(entry.sort)
        case s.App(f, a):
            out = []
            for q in opened_asynth(sig, ctx, f):
                if not isinstance(q, s.SPi):
                    continue
                try:
                    opened_acheck(sig, ctx, a, q.dom_sort)
                    cod = hsubst_syntax(a, 0, q.dom_type, q.cod)
                except (SortError, _SubstFailure):
                    continue
                out.extend(split(cod))
            return out
    raise TypeError(r)


def opened_acheck(sig, ctx, n, sort) -> None:
    match sort:
        case s.STop():
            return
        case s.SInter(l, r):
            opened_acheck(sig, ctx, n, l)
            opened_acheck(sig, ctx, n, r)
            return
        case s.SPi(h, ds, dt, cod):
            if not isinstance(n, s.Lam):
                _sort_fail("annotation-mismatch",
                           f"term {pp_term(n)} is not a function but was "
                           f"checked against function sort {pp_sort(sort)}")
            x, b, c = _opened_source([e.name for e in ctx], h, n.body, cod)
            opened_acheck(sig, ctx + [s.CtxEntry(x, ds, dt)], b, c)
            return
    if isinstance(n, s.Lam):
        _sort_fail("annotation-mismatch",
                   f"function term checked against atomic sort "
                   f"{pp_sort(sort)}")
    d = opened_asynth(sig, ctx, n)
    if not d:
        _sort_fail("empty-synthesis",
                   f"term {pp_term(n)} synthesizes no sorts")
    if not any(not isinstance(q, s.SPi) and subsort_q(sig, q, sort)
               for q in d):
        shown = ", ".join(pp_sort(q) for q in d)
        _sort_fail("subsort-failure",
                   f"term {pp_term(n)}: none of the synthesized sorts "
                   f"[{shown}] is a subsort of {pp_sort(sort)}")


def _opened_class_apply(sig, ctx, cls, arg, i, fam):
    """The classes cls takes arg to, left side first, and the error of
    the last side that does not take it."""
    match cls:
        case s.CPi(_, ds, dt, body):
            try:
                opened_lf_check(sig, [(e.name, e.type) for e in ctx], arg, dt)
                opened_acheck(sig, ctx, arg, ds)
            except (SortError, LfError) as e:
                return [], _rewrap_arg(e, i, fam)
            try:
                return [hsubst_syntax(arg, 0, dt, body)], None
            except _SubstFailure as e:
                return [], SortError(
                    "annotation-mismatch",
                    f"argument {i} of {fam}: substitution failed: {e}")
        case s.CInter(l, r):
            left, l_err = _opened_class_apply(sig, ctx, l, arg, i, fam)
            right, r_err = _opened_class_apply(sig, ctx, r, arg, i, fam)
            return left + right, r_err or l_err
    return [], SortError(
        "annotation-mismatch", f"sort {fam} applied to too many arguments")


def opened_elab_sort(sig, ctx, sort, a):
    match sort:
        case s.STop():
            return sort
        case s.SInter(l, r):
            return s.SInter(opened_elab_sort(sig, ctx, l, a),
                            opened_elab_sort(sig, ctx, r, a))
        case s.SPi(h, ds, _, cod):
            if not isinstance(a, s.TPi):
                _sort_fail("annotation-mismatch",
                           f"function sort {pp_sort(sort)} cannot refine "
                           f"non-function type {pp_type(a)}")
            ds2 = opened_elab_sort(sig, ctx, ds, a.dom)
            x, c, ac = _opened_source([e.name for e in ctx], h, cod, a.cod)
            cod2 = opened_elab_sort(
                sig, ctx + [s.CtxEntry(x, ds2, a.dom)], c, ac)
            return s.SPi(h, ds2, a.dom, close_at(cod2, x))
    head, args = s.sort_spine(sort)
    fam = sig.sort_fam(head.name)
    if fam is None:
        _sort_fail("no-refinement-declared", f"unknown sort {head.name}")
    classes, refined = [fam.cls], s.TConst(fam.refines)
    for i, arg in enumerate(args, start=1):
        applied = [_opened_class_apply(sig, ctx, c, arg, i, head.name)
                   for c in classes]
        classes = [c for taken, _ in applied for c in taken]
        if not classes:
            raise applied[0][1]
        refined = s.TApp(refined, arg)
    while any(isinstance(c, s.CInter) for c in classes):
        classes = [p for c in classes for p in (
            (c.left, c.right) if isinstance(c, s.CInter) else (c,))]
    if not any(isinstance(c, s.CSort) for c in classes):
        _sort_fail("annotation-mismatch",
                   f"sort {pp_sort(sort)} is not fully applied")
    if refined != a:
        _sort_fail("annotation-mismatch", f"sort {pp_sort(sort)} refines "
                   f"{pp_type(refined)}, not {pp_type(a)}")
    return sort


def opened_elab_class(sig, ctx, cls, kind):
    match cls:
        case s.CSort():
            if not isinstance(kind, s.KType):
                _sort_fail("annotation-mismatch",
                           "'sort' refines the kind 'type' only")
            return cls
        case s.CTop():
            return cls
        case s.CInter(l, r):
            return s.CInter(opened_elab_class(sig, ctx, l, kind),
                            opened_elab_class(sig, ctx, r, kind))
        case s.CPi(h, ds, _, body):
            if not isinstance(kind, s.KPi):
                _sort_fail("annotation-mismatch",
                           "function class cannot refine a non-function kind")
            ds2 = opened_elab_sort(sig, ctx, ds, kind.dom)
            x, b, kc = _opened_source([e.name for e in ctx], h, body,
                                      kind.cod)
            body2 = opened_elab_class(
                sig, ctx + [s.CtxEntry(x, ds2, kind.dom)], b, kc)
            return s.CPi(h, ds2, kind.dom, close_at(body2, x))
    raise TypeError(cls)


# ---------------------------------------------------------------------------
# The translator that opens every binder.
#
# translate.py's sort, class and kind interpretations as they were before
# they descended binders by index: at each binder they name the variable
# from the name pool, primed away from the context's names, the names of
# the enclosing binders and the free names of what lies inside, open the
# rest with that name, and bind the names again around what they built.
# Each interpretation is a Python function, as the paper's metafunctions
# are, applied after it is built to the subject, the family atoms, or the
# subject and the proof being coerced.  The package, which builds each
# interpretation at its arguments, must build the same target syntax,
# binder hints included.  A formation proof is the package's proof of the
# sort checker's first derivation, read in an opened context with no
# binders; the mangler and the injections are the package's too.

from typing import Callable  # noqa: E402

from lfr.diagnostics import VerifyError  # noqa: E402
from lfr.lfi import _shift_lfi, lfi_check, lfi_check_sig  # noqa: E402
from lfr.lfr_check import _pp, _synth_sort_class  # noqa: E402
from lfr.subst import eta_expand  # noqa: E402
from lfr.syntax import pool_name  # noqa: E402
from lfr.translate import (  # noqa: E402
    _proof,
    _root,
    inj_term,
    inj_type,
    trans_sort,
    trans_term_check,
)


class Metafunction(Node):
    """An interpretation: `fn` builds a target type, kind or proof from
    `arity` arguments."""

    arity: int
    fn: Callable


def meta_apply(f: Metafunction, args: list):
    if len(args) != f.arity:
        raise VerifyError(
            f"metafunction of arity {f.arity} applied to {len(args)} arguments")
    return f.fn(*args)


def _formations(sig, ctx, stack, q) -> list:
    """The checker's derivations that q is a sort, in elimination order,
    derived afresh."""
    derivs, _ = _synth_sort_class(sig, ctx, stack, q, None)
    if not derivs:
        raise SortError("annotation-mismatch",
                        lambda: f"no formation proof for sort "
                                f"{_pp(pp_sort, q, ctx, stack)}")
    return derivs


def _close_over(t, scope: list[str]):
    """Bind the names of the enclosing binders (outermost first) in t; a
    name bound twice refers to its inner binder."""
    offsets = {name: len(scope) - 1 - k for k, name in enumerate(scope)}
    for name, offset in offsets.items():
        t = close_lfi(t, name, offset)
    return t


def opened_trans_kind_pred(kind) -> Metafunction:
    def base(atoms, avoid):
        pf, fam = atoms
        return L.IKIrrPi("_", pf, L.IKPi("x", fam, L.IKType()))
    return Metafunction(2, lambda *atoms: _opened_over_indices(
        kind, atoms, set(), L.IKPi, base))


def opened_trans_kind_sub(kind) -> Metafunction:
    def base(atoms, avoid):
        fam, pf1, pred1, pf2, pred2 = atoms
        f1, f2, x = L.IFVar("$f1"), L.IFVar("$f2"), L.IFVar("$x")
        subject = pool_name("x", avoid | {"f1", "f2"})
        t = L.ITPi("_", L.ITApp(L.ITIrrApp(pred1, f1), x),
                   L.ITApp(L.ITIrrApp(pred2, f2), x))
        t = L.ITPi(subject, fam, close_lfi(t, "$x"))
        t = L.ITPi("f2", pf2, close_lfi(t, "$f2"))
        return L.ITPi("f1", pf1, close_lfi(t, "$f1"))
    return Metafunction(5, lambda *atoms: _opened_over_indices(
        kind, atoms, set(), L.ITPi, base))


def _opened_over_indices(kind, atoms, avoid: set[str], pi, base):
    match kind:
        case s.KType():
            return base(atoms, avoid)
        case s.KPi(h, a, k2):
            y = pool_name(h, avoid | free_vars(k2))
            eta_y = inj_term(eta_expand(a, s.FVar(y)))
            inner = _opened_over_indices(open_at(k2, s.FVar(y)),
                                         [L.ITApp(t, eta_y) for t in atoms],
                                         avoid | {y}, pi, base)
            return pi(y, inj_type(a), close_lfi(inner, y))
    raise TypeError(kind)


def opened_trans_sort(sig, ctx, sort, a, mangler) -> Metafunction:
    return Metafunction(1, _opened_sort_body(sig, ctx, sort, a, mangler, []))


def _opened_sort_body(sig, ctx, sort, a, mangler, scope: list[str]):
    match sort:
        case s.STop():
            return lambda n: L.ITUnitT()
        case s.SInter(l, r):
            left = _opened_sort_body(sig, ctx, l, a, mangler, scope)
            right = _opened_sort_body(sig, ctx, r, a, mangler, scope)
            return lambda n: L.ITProd(left(n), right(n))
        case s.SPi(h, ds, _, cod):
            if not isinstance(a, s.TPi):
                raise SortError("annotation-mismatch",
                                "function sort at non-function type")
            x = pool_name(h, {e.name for e in ctx} | free_vars(cod)
                          | free_vars(a.cod) | free_vars(ds))
            eta_x = inj_term(eta_expand(a.dom, s.FVar(x)))
            ctx2 = list(ctx) + [s.CtxEntry(x, ds, a.dom)]
            dom = _close_over(inj_type(a.dom), scope)
            dom_pred = _close_over(meta_apply(
                opened_trans_sort(sig, ctx2, ds, a.dom, mangler),
                [eta_x]), scope + [x])
            cod_body = _opened_sort_body(
                sig, ctx2, open_at(cod, s.FVar(x)),
                open_at(a.cod, s.FVar(x)), mangler, scope + [x, x + "^"])

            def body(n):
                if not isinstance(n, L.ILam):
                    raise VerifyError(
                        "reverse application of a non-function term")
                return L.ITPi(x, dom, L.ITPi(x + "^", dom_pred,
                                             cod_body(_shift_lfi(n.body, 1))))
            return body
        case s.SConst() | s.SApp():
            head, args = s.sort_spine(sort)
            pred = L.ITConst(mangler.predicate(head.name))
            for m in args:
                pred = L.ITApp(pred, inj_term(m))
            qhat = _proof(sig, mangler, _formations(sig, ctx, (), sort)[0],
                          _root(ctx), {})
            pred = _close_over(L.ITIrrApp(pred, qhat), scope)
            return lambda n: L.ITApp(pred, n)
    raise TypeError(sort)


def opened_trans_class_form(sig, ctx, cls, kind, mangler) -> Metafunction:
    return Metafunction(1, lambda pf: _opened_class_form_body(
        sig, ctx, cls, mangler, pf))


def _opened_class_form_body(sig, ctx, cls, mangler, pf):
    match cls:
        case s.CSort():
            return pf
        case s.CTop():
            return L.ITUnitT()
        case s.CInter(l, r):
            return L.ITProd(
                _opened_class_form_body(sig, ctx, l, mangler, pf),
                _opened_class_form_body(sig, ctx, r, mangler, pf))
        case s.CPi(h, ds, dt, body):
            x = pool_name(h, {e.name for e in ctx} | free_vars(body)
                          | free_vars(ds))
            eta_x = inj_term(eta_expand(dt, s.FVar(x)))
            ctx2 = list(ctx) + [s.CtxEntry(x, ds, dt)]
            dom_pred = meta_apply(
                opened_trans_sort(sig, ctx2, ds, dt, mangler), [eta_x])
            inner_body = _opened_class_form_body(
                sig, ctx2, open_at(body, s.FVar(x)), mangler,
                L.ITApp(pf, eta_x))
            inner = L.ITPi(x + "^", dom_pred, close_lfi(inner_body, x + "^"))
            return L.ITPi(x, inj_type(dt), close_lfi(inner, x))
    raise TypeError(cls)


def opened_trans_ctx(sig, ctx, mangler) -> list:
    out = []
    for i, e in enumerate(ctx):
        out.append(LfiCtxEntry(e.name, inj_type(e.type), True))
        smeta = opened_trans_sort(sig, ctx[:i + 1], e.sort, e.type, mangler)
        sty = meta_apply(smeta, [inj_term(eta_expand(e.type,
                                                     s.FVar(e.name)))])
        out.append(LfiCtxEntry(e.name + "^", sty, True))
    return out


# translate.verify_translation as it was before it reused what trans_sig
# kept: it translates each refined constant's sort again, at the subject,
# to make the goal.
# The package's verify must pass exactly when this one does, and fail with
# the same message at the same span.

def retranslating_verify(sig, result) -> None:
    try:
        lfi_check_sig(result.lfi_sig)
    except LfiError as e:
        raise VerifyError(
            f"translated signature failed re-checking at {e.decl}: "
            f"{e.message}", e.span)
    for c in dict.fromkeys(d.const for d in sig if isinstance(d, s.ConstRef)):
        const, merged = sig.term_const(c), sig.merged_ref_sort(c)
        subject = eta_expand(const.type, s.Const(c))
        try:
            nhat = trans_term_check(sig, [], subject, merged, result.mangler)
            goal = trans_sort(sig, [], merged, const.type, inj_term(subject),
                              result.mangler)
            lfi_check(result.lfi_sig, [], nhat, goal)
        except (LfiError, SortError) as e:
            raise VerifyError(
                f"translated proof for {c} failed re-checking: "
                f"{e.message}", sig.const_refs[c][0].span)


# ---------------------------------------------------------------------------
# The target checker without its closed-term memo.
#
# lfi.py keeps, per signature, the type of each application it checks with
# no hypothesis in scope, and lfi_equal stops at a subterm both sides
# share.  These copies do neither: each occurrence of a subterm is checked,
# and equality walks both trees, every time it is reached.  lfi_check_sig
# must give the same verdict, message, span and failing declaration as
# uncached_check_sig.


def uncached_equal(x, y) -> bool:
    if type(x) is not type(y):
        return False
    eq = uncached_equal
    match x, y:
        case ((L.IConst(a), L.IConst(b)) | (L.IFVar(a), L.IFVar(b))
              | (L.ITConst(a), L.ITConst(b)) | (L.IBVar(a), L.IBVar(b))):
            return a == b
        case ((L.IUnit(), L.IUnit()) | (L.ITUnitT(), L.ITUnitT())
              | (L.IKType(), L.IKType())):
            return True
        case (L.IApp(f1, a1), L.IApp(f2, a2)) | (L.ITApp(f1, a1), L.ITApp(f2, a2)):
            return eq(f1, f2) and eq(a1, a2)
        case (L.ITIrrApp(f1, _), L.ITIrrApp(f2, _)):
            return eq(f1, f2)
        case (L.IFst(b1), L.IFst(b2)) | (L.ISnd(b1), L.ISnd(b2)):
            return eq(b1, b2)
        case (L.ILam(_, b1), L.ILam(_, b2)):
            return eq(b1, b2)
        case (L.IPair(l1, r1), L.IPair(l2, r2)) | (L.ITProd(l1, r1), L.ITProd(l2, r2)):
            return eq(l1, l2) and eq(r1, r2)
        case ((L.ITPi(_, d1, c1), L.ITPi(_, d2, c2))
              | (L.IKPi(_, d1, c1), L.IKPi(_, d2, c2))
              | (L.IKIrrPi(_, d1, c1), L.IKIrrPi(_, d2, c2))):
            return eq(d1, d2) and eq(c1, c2)
    return False


def _uncached_apply(sig, ctx, stack, ty, spine, pis, mismatch):
    done, fuel = [], sig.fuel
    try:
        for arg, irr in spine:
            if not isinstance(ty, pis[irr]):
                raise mismatch(L._inst(ty, done, fuel))
            if irr:
                _uncached_check(sig, promote(ctx), L._promote(stack), arg,
                                L._inst(ty.dom, done, fuel))
            else:
                _uncached_check(sig, ctx, stack, arg,
                                L._inst(ty.dom, done, fuel))
            done.append((arg, L.lfi_erase_type(ty.dom)))
            ty = ty.cod
        return L._inst(ty, done, fuel)
    except _SubstFailure as e:
        raise LfiError(f"substitution failed: {e}") from None


def _uncached_synth(sig, ctx, stack, r):
    match r:
        case L.IConst(n):
            ty = sig.const_type(n)
            if ty is None:
                raise LfiError(f"unbound constant {n}")
            return ty
        case L.IFVar(n):
            entry = lfi_ctx_lookup(ctx, n)
            if entry is None:
                raise LfiError(f"unbound variable {n}")
            if not entry.relevant:
                raise LfiError(
                    f"irrelevant hypothesis {n} used in a relevant position")
            return entry.type
        case L.IBVar(i) if i < len(stack):
            _, d, relevant = stack[-1 - i]
            if not relevant:
                raise LfiError(
                    f"irrelevant hypothesis {L._names(ctx, stack)[-1 - i]} "
                    f"used in a relevant position")
            return L._shift_lfi(d, i + 1)
        case L.IApp():
            head, spine = L._unspine(r)
            return _uncached_apply(
                sig, ctx, stack, _uncached_synth(sig, ctx, stack, head), spine,
                (L.ITPi,), lambda ty: LfiError(
                    f"applied term of non-function type "
                    f"{L._fmt_type(ty, ctx, stack)}"))
        case L.IFst(b) | L.ISnd(b):
            bty = _uncached_synth(sig, ctx, stack, b)
            if not isinstance(bty, L.ITProd):
                which = "first" if isinstance(r, L.IFst) else "second"
                raise LfiError(f"{which} projection of non-pair type "
                               f"{L._fmt_type(bty, ctx, stack)}")
            return bty.left if isinstance(r, L.IFst) else bty.right
    raise LfiError(f"cannot synthesize a type for "
                   f"{L._fmt_term(r, ctx, stack)}")


def _uncached_check(sig, ctx, stack, n, a) -> None:
    match n:
        case L.ILam(h, b):
            if not isinstance(a, L.ITPi):
                raise LfiError(f"function checked against non-function "
                               f"type {L._fmt_type(a, ctx, stack)}")
            _uncached_check(sig, ctx, stack + ((h, a.dom, True),), b, a.cod)
        case L.IPair(l, r):
            if not isinstance(a, L.ITProd):
                raise LfiError(f"pair checked against non-product type "
                               f"{L._fmt_type(a, ctx, stack)}")
            _uncached_check(sig, ctx, stack, l, a.left)
            _uncached_check(sig, ctx, stack, r, a.right)
        case L.IUnit():
            if not isinstance(a, L.ITUnitT):
                raise LfiError(
                    f"unit checked against {L._fmt_type(a, ctx, stack)}")
        case _:
            if not L.is_lfi_atomic(n):
                raise LfiError(f"cannot check {L._fmt_term(n, ctx, stack)}")
            syn = _uncached_synth(sig, ctx, stack, n)
            if not uncached_equal(syn, a):
                raise LfiError(
                    f"type mismatch: expected {L._fmt_type(a, ctx, stack)}, "
                    f"synthesized {L._fmt_type(syn, ctx, stack)}")


def _uncached_check_type(sig, ctx, stack, a) -> None:
    match a:
        case L.ITPi(h, d, c):
            _uncached_check_type(sig, ctx, stack, d)
            _uncached_check_type(sig, ctx, stack + ((h, d, True),), c)
        case L.ITProd(l, r):
            _uncached_check_type(sig, ctx, stack, l)
            _uncached_check_type(sig, ctx, stack, r)
        case L.ITUnitT():
            pass
        case L.ITConst() | L.ITApp() | L.ITIrrApp():
            k = _uncached_kind_of_atomic(sig, ctx, stack, a)
            if not isinstance(k, L.IKType):
                raise LfiError(f"type family not fully applied: "
                               f"{L._fmt_type(a, ctx, stack)}")
        case _:
            raise LfiError(f"not a type: {L._named(a, ctx, stack)!r}")


def _uncached_kind_of_atomic(sig, ctx, stack, p):
    p, spine = L._unspine(p)
    if not isinstance(p, L.ITConst):
        raise LfiError(
            f"type head is not a constant: {L._named(p, ctx, stack)!r}")
    kind = sig.fam_kind(p.name)
    if kind is None:
        raise LfiError(f"unbound type family {p.name}")
    return _uncached_apply(sig, ctx, stack, kind, spine, (L.IKPi, L.IKIrrPi),
                           lambda ty: LfiError(
                               f"kind of {p.name} does not accept this "
                               f"argument shape"))


def _uncached_check_kind(sig, ctx, stack, k) -> None:
    match k:
        case L.IKType():
            pass
        case L.IKPi(h, d, c) | L.IKIrrPi(h, d, c):
            _uncached_check_type(sig, ctx, stack, d)
            _uncached_check_kind(sig, ctx,
                                 stack + ((h, d, isinstance(k, L.IKPi)),), c)
        case _:
            raise LfiError(f"not a kind: {L._named(k, ctx, stack)!r}")


def uncached_check(sig, ctx, n, a) -> None:
    _uncached_check(sig, ctx, (), n, a)


def uncached_check_sig(sig) -> None:
    checked = L.LfiSignature(fuel=sig.fuel)
    for decl in sig:
        try:
            if decl.name in checked._fams or decl.name in checked._consts:
                raise LfiError(f"{decl.name} is declared twice")
            if decl.is_family():
                _uncached_check_kind(checked, [], (), decl.classifier)
            else:
                _uncached_check_type(checked, [], (), decl.classifier)
        except LfiError as e:
            e.decl = decl.name
            if e.span is None:
                e.span = decl.span
            raise
        checked.append(decl)


# ---------------------------------------------------------------------------
# The kernel's equality and variable walk as they were before they tested
# the class first and shared what did not change.
#
# match_equal tries a chain of tuple patterns on the pair of nodes; the
# kernel's lfi_equal must give the same verdict on every pair.
# rebuilding_map_vars builds every node of the result afresh; lfi._map_vars
# must give an equal result, and its argument itself where nothing changed.

from lfr.lfi import (  # noqa: E402
    IApp, IBVar, IConst, IFst, IFVar, IKIrrPi, IKPi, IKType, ILam, IPair,
    ISnd, ITApp, ITConst, ITIrrApp, ITPi, ITProd, ITUnitT, IUnit)


def match_equal(x, y) -> bool:
    """Structural equality that skips irrelevant application arguments.

    Node equality (==) compares those arguments too; the difference
    between the two is observable on translated output and is exactly
    the coherence property.
    """
    lfi_equal = match_equal
    if x is y:
        return True
    if type(x) is not type(y):
        return False
    match x, y:
        case ((IConst(a), IConst(b)) | (IFVar(a), IFVar(b))
              | (ITConst(a), ITConst(b)) | (IBVar(a), IBVar(b))):
            return a == b
        case (IUnit(), IUnit()) | (ITUnitT(), ITUnitT()) | (IKType(), IKType()):
            return True
        case ((IApp(f1, a1), IApp(f2, a2)) | (ITApp(f1, a1), ITApp(f2, a2))
              | (IPair(f1, a1), IPair(f2, a2)) | (ITProd(f1, a1), ITProd(f2, a2))):
            return lfi_equal(f1, f2) and lfi_equal(a1, a2)
        case (ITIrrApp(f1, _), ITIrrApp(f2, _)):
            return lfi_equal(f1, f2)
        case ((IFst(b1), IFst(b2)) | (ISnd(b1), ISnd(b2))
              | (ILam(_, b1), ILam(_, b2))):
            return lfi_equal(b1, b2)
        case ((ITPi(_, d1, c1), ITPi(_, d2, c2))
              | (IKPi(_, d1, c1), IKPi(_, d2, c2))
              | (IKIrrPi(_, d1, c1), IKIrrPi(_, d2, c2))):
            return lfi_equal(d1, d2) and lfi_equal(c1, c2)
    return False


def rebuilding_map_vars(t, f, k: int = 0):
    """t rebuilt with f(v, depth) in place of each variable v, an IBVar or
    an IFVar, where depth is k plus the binders passed to reach v."""
    _map_vars = rebuilding_map_vars
    match t:
        case IBVar() | IFVar():
            return f(t, k)
        case IConst() | IUnit() | ITConst() | ITUnitT() | IKType():
            return t
        case (IApp(l, r) | IPair(l, r) | ITApp(l, r) | ITIrrApp(l, r)
              | ITProd(l, r)):
            return type(t)(_map_vars(l, f, k), _map_vars(r, f, k))
        case IFst(b) | ISnd(b):
            return type(t)(_map_vars(b, f, k))
        case ILam(h, b):
            return ILam(h, _map_vars(b, f, k + 1))
        case ITPi(h, d, c) | IKPi(h, d, c) | IKIrrPi(h, d, c):
            return type(t)(h, _map_vars(d, f, k), _map_vars(c, f, k + 1))
    raise TypeError(f"_map_vars: unexpected node {t!r}")


# ---------------------------------------------------------------------------
# The parser as it was before its tokens carried offsets only.
#
# It tokenizes with a span per token, reads each declaration into a raw
# tree (RIdent, RApp, ...) by recursive descent, five frames per
# parenthesis, decides kind versus type on that tree, and then elaborates
# it.  The package's parser must give the same
# declarations with the same spans, or raise the same error with the same
# message and span.  The tokens are ReferenceLexer's, above.

from dataclasses import field as _field  # noqa: E402
from typing import NamedTuple, Optional  # noqa: E402

from lfr.diagnostics import ParseError  # noqa: E402
from lfr.syntax import (  # noqa: E402
    App,
    BVar,
    Const,
    ConstRef,
    CPi,
    CSort,
    CTop,
    CInter,
    FVar,
    KPi,
    KType,
    Lam,
    SApp,
    SConst,
    Signature,
    SInter,
    SPi,
    STop,
    SubDecl,
    SortFam,
    TApp,
    TConst,
    TermConst,
    TPi,
    TypeFam,
)


class Token(NamedTuple):
    kind: str  # IDENT | NUM | SYM | EOF
    text: str
    span: SourceSpan


def _reference_tokenize(text: str, filename: str, target_mode: bool) -> list[Token]:
    """The tokens of text, ending with one EOF token, as ReferenceLexer
    reads them: it shares no code with the package's scanner, so a change
    to the scanner that alters a token shows here."""
    return [Token(*t) for t in reference_tokens(text, filename, target_mode)]


def _numeral(t: Token) -> int:
    """The value of a NUM token; one int() refuses is a located error."""
    try:
        return int(t.text)
    except ValueError:
        raise ParseError(f"numeral of {len(t.text)} digits is too long",
                         t.span) from None


# ---------------------------------------------------------------------------
# Raw expressions


@dataclass(frozen=True)
class RIdent:
    name: str
    span: Optional[SourceSpan] = _field(default=None, compare=False)


@dataclass(frozen=True)
class RNum:
    value: int
    span: Optional[SourceSpan] = _field(default=None, compare=False)


@dataclass(frozen=True)
class RTop:
    span: Optional[SourceSpan] = _field(default=None, compare=False)


@dataclass(frozen=True)
class RApp:
    fn: "RawExpr"
    arg: "RawExpr"


@dataclass(frozen=True)
class RIrrApp:
    fn: "RawExpr"
    arg: "RawExpr"


@dataclass(frozen=True)
class RProj:
    base: "RawExpr"
    which: int


@dataclass(frozen=True)
class RArrow:
    dom: "RawExpr"
    cod: "RawExpr"


@dataclass(frozen=True)
class RIrrArrow:
    dom: "RawExpr"
    cod: "RawExpr"


@dataclass(frozen=True)
class RInter:
    left: "RawExpr"
    right: "RawExpr"


@dataclass(frozen=True)
class RProd:
    left: "RawExpr"
    right: "RawExpr"


@dataclass(frozen=True)
class RPi:
    name: str
    colon: str  # ":" or "::"
    dom: "RawExpr"
    body: "RawExpr"
    span: Optional[SourceSpan] = _field(default=None, compare=False)


@dataclass(frozen=True)
class RLam:
    name: str
    body: "RawExpr"
    span: Optional[SourceSpan] = _field(default=None, compare=False)


@dataclass(frozen=True)
class RPair:
    left: "RawExpr"
    right: "RawExpr"


@dataclass(frozen=True)
class RUnitTerm:
    span: Optional[SourceSpan] = _field(default=None, compare=False)


RawExpr = object  # union of the above; kept loose on purpose


def _raw_span(e) -> Optional[SourceSpan]:
    match e:
        case RIdent() | RNum() | RTop() | RPi() | RLam() | RUnitTerm():
            return e.span
        case RApp(f, _) | RIrrApp(f, _) | RProj(f, _) | RArrow(f, _) | RIrrArrow(f, _):
            return _raw_span(f)
        case RInter(f, _) | RProd(f, _) | RPair(f, _):
            return _raw_span(f)
    return None


_ATOM_STARTERS_SYM = {"#", "(", "<", "<>"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.infix: dict[str, int] = {}

    # -- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "SYM" and t.text == text

    def expect(self, text: str) -> Token:
        if not self.at(text):
            t = self.peek()
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.span)
        return self.next()

    def expect_ident(self, what: str = "an identifier") -> Token:
        t = self.peek()
        if t.kind != "IDENT":
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}",
                             t.span)
        return self.next()

    # -- expressions

    def parse_expr(self):
        if self.at("{"):
            return self._parse_brace_binder()
        if self.at("["):
            return self._parse_lambda()
        left = self._parse_arrows()
        if self.at("^"):
            self.next()
            return RInter(left, self.parse_expr())
        return left

    def _parse_brace_binder(self):
        start = self.expect("{")
        name = self.expect_ident("a binder name").text
        if self.at("::"):
            colon = self.next().text
        elif self.at(":"):
            colon = self.next().text
        else:
            t = self.peek()
            raise ParseError(f"expected ':' or '::' in binder, found {t.text!r}",
                             t.span)
        dom = self.parse_expr()
        self.expect("}")
        body = self.parse_expr()
        return RPi(name, colon, dom, body, start.span)

    def _parse_lambda(self):
        start = self.expect("[")
        name = self.expect_ident("a binder name").text
        self.expect("]")
        body = self.parse_expr()
        return RLam(name, body, start.span)

    def _parse_arrows(self):
        items = [self._parse_prod()]
        ops: list[str] = []
        while self.at("->") or self.at("-:>") or self.at("<-"):
            ops.append(self.next().text)
            if self.at("{") or self.at("["):
                items.append(self.parse_expr())
                break
            items.append(self._parse_prod())
        if not ops:
            return items[0]
        if all(op in ("->", "-:>") for op in ops):
            result = items[-1]
            for op, item in zip(reversed(ops), reversed(items[:-1])):
                result = (RArrow if op == "->" else RIrrArrow)(item, result)
            return result
        if all(op == "<-" for op in ops):
            result = items[0]
            for item in items[1:]:
                result = RArrow(item, result)
            return result
        raise ParseError("mixing -> and <- in one chain needs parentheses",
                         _raw_span(items[0]))

    def _parse_prod(self):
        left = self._parse_infix(0)
        if self.at("*"):
            self.next()
            return RProd(left, self._parse_prod())
        return left

    def _parse_infix(self, min_prec: int):
        left = self._parse_app()
        while True:
            t = self.peek()
            if t.kind == "IDENT" and self.infix.get(t.text, -1) >= min_prec:
                op = self.next()
                rhs = self._parse_infix(self.infix[op.text])
                left = RApp(RApp(RIdent(op.text, op.span), left), rhs)
            else:
                return left

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind == "IDENT":
            return t.text not in self.infix
        if t.kind == "NUM":
            return True
        return t.kind == "SYM" and t.text in _ATOM_STARTERS_SYM

    def _parse_app(self):
        head = self._parse_atom_postfix()
        while True:
            if self.at("[["):
                self.next()
                arg = self.parse_expr()
                self.expect("]]")
                head = RIrrApp(head, arg)
            elif self._starts_atom():
                head = RApp(head, self._parse_atom_postfix())
            else:
                return head

    def _parse_atom_postfix(self):
        base = self._parse_atom()
        while self.at(".1") or self.at(".2"):
            which = int(self.next().text[1])
            base = RProj(base, which)
        return base

    def _parse_atom(self):
        t = self.peek()
        if t.kind == "IDENT":
            self.next()
            return RIdent(t.text, t.span)
        if t.kind == "NUM":
            self.next()
            return RNum(_numeral(t), t.span)
        if self.at("#"):
            self.next()
            return RTop(t.span)
        if self.at("("):
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if self.at("["):
            return self._parse_lambda()
        if self.at("<>"):
            self.next()
            return RUnitTerm(t.span)
        if self.at("<"):
            self.next()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(">")
            return RPair(left, right)
        raise ParseError(f"expected an expression, found {t.text or 'end of input'!r}",
                         t.span)


def _is_kind_expr(e) -> bool:
    """A classifier is a kind iff some tail position reaches `type` or `sort`."""
    match e:
        case RIdent(n):
            return n in ("type", "sort")
        case RArrow(_, c) | RIrrArrow(_, c):
            return _is_kind_expr(c)
        case RPi(_, _, _, b):
            return _is_kind_expr(b)
        case RProd(l, r):
            return _is_kind_expr(l) or _is_kind_expr(r)
        case RInter(l, r):
            return _is_kind_expr(l) or _is_kind_expr(r)
    return False


# ---------------------------------------------------------------------------
# Elaboration into the source AST
#
# A scope lists the names of the binders around an expression, innermost
# last, None for an arrow's.  A bound name becomes its index as it is
# read, and each binder is built around its body as the body comes back.


class _SourceElab:
    def __init__(self):
        self.term_consts: set[str] = set()
        self.fam_kinds: dict[str, KType | KPi] = {}

    def term(self, e, scope: list):
        match e:
            case RIdent(n):
                if n in scope:
                    return BVar(scope[::-1].index(n))
                if n in self.term_consts:
                    return Const(n)
                if n[:1].isupper():
                    raise ParseError(
                        f"undeclared uppercase identifier {n}; implicit "
                        f"quantification is not supported, bind it explicitly",
                        e.span)
                return FVar(n)
            case RApp(f, a):
                fn = self.term(f, scope)
                if isinstance(fn, Lam):
                    raise ParseError(
                        "application of a function expression is not a "
                        "canonical form", _raw_span(e))
                return App(fn, self.term(a, scope))
            case RLam(x, b):
                return Lam(x, self.term(b, scope + [x]))
        raise ParseError("expected a term", _raw_span(e))

    def type(self, e, scope: list):
        match e:
            case RIdent(n):
                return TConst(n)
            case RApp(f, a):
                fn = self.type(f, scope)
                if not isinstance(fn, (TConst, TApp)):
                    raise ParseError("expected an atomic type", _raw_span(e))
                return TApp(fn, self.term(a, scope))
            case RArrow(d, c):
                return TPi("x", self.type(d, scope),
                           self.type(c, scope + [None]))
            case RPi(x, ":", d, b):
                return TPi(x, self.type(d, scope), self.type(b, scope + [x]))
            case RPi(_, "::", _, _):
                raise ParseError("type binders use ':', not '::'", e.span)
        raise ParseError("expected a type", _raw_span(e))

    def kind(self, e, scope: list):
        match e:
            case RIdent("type"):
                return KType()
            case RArrow(d, c):
                return KPi("x", self.type(d, scope),
                           self.kind(c, scope + [None]))
            case RPi(x, ":", d, b):
                return KPi(x, self.type(d, scope), self.kind(b, scope + [x]))
        raise ParseError("expected a kind", _raw_span(e))

    def sort(self, e, scope: list):
        match e:
            case RIdent(n):
                return SConst(n)
            case RTop():
                return STop()
            case RApp(f, a):
                fn = self.sort(f, scope)
                if not isinstance(fn, (SConst, SApp)):
                    raise ParseError("expected an atomic sort", _raw_span(e))
                return SApp(fn, self.term(a, scope))
            case RInter(l, r):
                return SInter(self.sort(l, scope), self.sort(r, scope))
            case RArrow(d, c):
                return SPi("x", self.sort(d, scope), None,
                           self.sort(c, scope + [None]))
            case RPi(x, "::", d, b):
                return SPi(x, self.sort(d, scope), None,
                           self.sort(b, scope + [x]))
            case RPi(_, ":", _, _):
                raise ParseError("sort binders use '::', not ':'", e.span)
        raise ParseError("expected a sort", _raw_span(e))

    def cls(self, e, scope: list):
        match e:
            case RIdent("sort"):
                return CSort()
            case RTop():
                return CTop()
            case RInter(l, r):
                return CInter(self.cls(l, scope), self.cls(r, scope))
            case RArrow(d, c):
                return CPi("x", self.sort(d, scope), None,
                           self.cls(c, scope + [None]))
            case RPi(x, "::", d, b):
                return CPi(x, self.sort(d, scope), None,
                           self.cls(b, scope + [x]))
            case RPi(_, ":", _, _):
                raise ParseError("class binders use '::', not ':'", e.span)
        raise ParseError("expected a class", _raw_span(e))


def _default_class(kind):
    """The maximal class refining a kind: every domain is the top sort."""
    match kind:
        case KType():
            return CSort()
        case KPi(h, _, c):
            return CPi(h, STop(), None, _default_class(c))
    raise TypeError(f"_default_class: {kind!r}")


def reference_parse_signature(text: str, filename: str = "<input>") -> Signature:
    tokens = _reference_tokenize(text, filename, target_mode=False)
    p = _Parser(tokens)
    elab = _SourceElab()
    sig = Signature()
    while p.peek().kind != "EOF":
        if p.at("%infix"):
            p.next()
            assoc = p.expect_ident("an associativity").text
            if assoc != "right":
                raise ParseError("only right-associative infix is supported",
                                 p.toks[p.pos - 1].span)
            prec_tok = p.peek()
            if prec_tok.kind != "NUM":
                raise ParseError("expected a precedence", prec_tok.span)
            p.next()
            op = p.expect_ident("an operator name")
            if op.text not in elab.term_consts:
                raise ParseError(
                    f"infix operator {op.text} must name a declared constant",
                    op.span)
            p.expect(".")
            p.infix[op.text] = _numeral(prec_tok)
            continue
        name = p.expect_ident("a declaration name")
        if p.at(":"):
            p.next()
            e = p.parse_expr()
            p.expect(".")
            if _is_kind_expr(e):
                kind = elab.kind(e, [])
                elab.fam_kinds[name.text] = kind
                sig.append(TypeFam(name.text, kind, name.span))
            else:
                ty = elab.type(e, [])
                elab.term_consts.add(name.text)
                sig.append(TermConst(name.text, ty, name.span))
        elif p.at("<<"):
            p.next()
            fam = p.expect_ident("a type family name")
            if p.at("::"):
                p.next()
                e = p.parse_expr()
                p.expect(".")
                cls = elab.cls(e, [])
            else:
                p.expect(".")
                kind = elab.fam_kinds.get(fam.text)
                if kind is None:
                    raise ParseError(
                        f"cannot default the class of {name.text}: unknown "
                        f"family {fam.text}", fam.span)
                cls = _default_class(kind)
            sig.append(SortFam(name.text, fam.text, cls, name.span))
        elif p.at("::"):
            p.next()
            e = p.parse_expr()
            p.expect(".")
            sig.append(ConstRef(name.text, elab.sort(e, []), name.span))
        elif p.at("<:"):
            p.next()
            sup = p.expect_ident("a sort family name")
            p.expect(".")
            sig.append(SubDecl(name.text, sup.text, name.span))
        else:
            t = p.peek()
            raise ParseError(
                f"expected ':', '::', '<<', or '<:' after {name.text}, "
                f"found {t.text or 'end of input'!r}", t.span)
    return sig


# ---------------------------------------------------------------------------
# Elaboration into the target AST


class _TargetElab:
    def __init__(self):
        self.consts: set[str] = set()

    def term(self, e, scope: list):
        match e:
            case RIdent(n):
                if n in scope:
                    return L.IBVar(scope[::-1].index(n))
                if n in self.consts:
                    return L.IConst(n)
                return L.IFVar(n)
            case RApp(f, a):
                fn = self.term(f, scope)
                if not L.is_lfi_atomic(fn):
                    raise ParseError("application of a non-atomic term",
                                     _raw_span(e))
                return L.IApp(fn, self.term(a, scope))
            case RProj(b, which):
                base = self.term(b, scope)
                if not L.is_lfi_atomic(base):
                    raise ParseError("projection from a non-atomic term",
                                     _raw_span(e))
                return (L.IFst if which == 1 else L.ISnd)(base)
            case RLam(x, b):
                return L.ILam(x, self.term(b, scope + [x]))
            case RPair(l, r):
                return L.IPair(self.term(l, scope), self.term(r, scope))
            case RUnitTerm():
                return L.IUnit()
            case RIrrApp():
                raise ParseError("only a type family takes an argument "
                                 "irrelevantly", _raw_span(e))
        raise ParseError("expected a term", _raw_span(e))

    def type(self, e, scope: list):
        match e:
            case RIdent(n):
                return L.ITConst(n)
            case RNum(1):
                return L.ITUnitT()
            case RApp(f, a):
                fn = self.type(f, scope)
                if not isinstance(fn, (L.ITConst, L.ITApp, L.ITIrrApp)):
                    raise ParseError("expected an atomic type", _raw_span(e))
                return L.ITApp(fn, self.term(a, scope))
            case RIrrApp(f, a):
                fn = self.type(f, scope)
                if not isinstance(fn, (L.ITConst, L.ITApp, L.ITIrrApp)):
                    raise ParseError("expected an atomic type", _raw_span(e))
                return L.ITIrrApp(fn, self.term(a, scope))
            case RArrow(d, c):
                return L.ITPi("x", self.type(d, scope),
                              self.type(c, scope + [None]))
            case RPi(x, ":", d, b):
                return L.ITPi(x, self.type(d, scope),
                              self.type(b, scope + [x]))
            case RProd(l, r):
                return L.ITProd(self.type(l, scope), self.type(r, scope))
            case RIrrArrow() | RPi(_, "::"):
                raise ParseError("only a kind takes an argument irrelevantly",
                                 _raw_span(e))
        raise ParseError("expected a type", _raw_span(e))

    def kind(self, e, scope: list):
        match e:
            case RIdent("type"):
                return L.IKType()
            case RArrow(d, c):
                return L.IKPi("x", self.type(d, scope),
                              self.kind(c, scope + [None]))
            case RIrrArrow(d, c):
                return L.IKIrrPi("x", self.type(d, scope),
                                 self.kind(c, scope + [None]))
            case RPi(x, ":", d, b):
                return L.IKPi(x, self.type(d, scope),
                              self.kind(b, scope + [x]))
            case RPi(x, "::", d, b):
                return L.IKIrrPi(x, self.type(d, scope),
                                 self.kind(b, scope + [x]))
        raise ParseError("expected a kind", _raw_span(e))


def reference_parse_lfi(text: str, filename: str = "<input>") -> L.LfiSignature:
    tokens = _reference_tokenize(text, filename, target_mode=True)
    p = _Parser(tokens)
    elab = _TargetElab()
    sig = L.LfiSignature()
    while p.peek().kind != "EOF":
        name = p.expect_ident("a declaration name")
        p.expect(":")
        e = p.parse_expr()
        p.expect(".")
        if _is_kind_expr(e):
            sig.append(L.LfiDecl(name.text, elab.kind(e, []), name.span))
        else:
            sig.append(L.LfiDecl(name.text, elab.type(e, []), name.span))
        elab.consts.add(name.text)
    return sig
