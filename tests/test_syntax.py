"""Core syntax: binding, alpha-equivalence, spines, signatures."""

from __future__ import annotations

import typing

import pytest
from hypothesis import given, strategies as st

from lfr import lfi, syntax as syn
from lfr.diagnostics import Node
from lfr.syntax import (
    App,
    Arrow,
    Base,
    BVar,
    Const,
    ConstRef,
    CtxEntry,
    FVar,
    Lam,
    SApp,
    SConst,
    Signature,
    SInter,
    SPi,
    STop,
    TApp,
    TConst,
    TermConst,
    TPi,
    TypeFam,
    alpha_eq,
    ctx_lookup,
    erase_ctx,
    erase_sig,
    free_vars,
    fresh_name,
    head,
    pool_name,
    sort_spine,
    term_spine,
    type_spine,
)

from gen import gen_eta_term, gen_simple, gen_sort
from oracles import close_at, node_fields, node_kids, open_at, used_names


@st.composite
def eta_terms(draw, max_depth: int = 3):
    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    alpha = gen_simple(choose, 2)
    ctx = [("f", Arrow(Base("nat"), Base("nat"))), ("a", Base("nat"))]
    return gen_eta_term(choose, ctx, alpha, draw(st.integers(0, max_depth)))


@st.composite
def sorts(draw):
    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    alpha = gen_simple(choose, 2)
    return gen_sort(choose, alpha, draw(st.integers(0, 3)))


def rename_hints(t):
    """A structurally different spelling of the same binding tree."""
    match t:
        case Lam(h, b):
            return Lam(h + "renamed", rename_hints(b))
        case App(f, a):
            return App(rename_hints(f), rename_hints(a))
        case SPi(h, ds, dt, c):
            return SPi(h + "renamed", rename_hints(ds), dt, rename_hints(c))
        case SInter(l, r):
            return SInter(rename_hints(l), rename_hints(r))
        case _:
            return t


class TestConstructorAudit:
    """No constructor can place a redex at a spine head."""

    def test_term_spine_head_is_atomic(self):
        hints = typing.get_type_hints(App)
        assert Lam not in typing.get_args(hints["fn"])

    def test_type_spine_head_is_atomic(self):
        hints = typing.get_type_hints(TApp)
        assert TPi not in typing.get_args(hints["fn"])

    def test_sort_spine_head_is_atomic(self):
        hints = typing.get_type_hints(SApp)
        args = typing.get_args(hints["fn"])
        assert SPi not in args
        assert STop not in args
        assert SInter not in args

    def test_every_application_constructor_audited(self):
        apps = [c for c in vars(syn).values()
                if isinstance(c, type) and issubclass(c, Node)
                and "fn" in c.__match_args__]
        assert sorted(c.__name__ for c in apps) == ["App", "SApp", "TApp"]


class TestAlphaEq:
    @given(eta_terms())
    def test_reflexive(self, t):
        assert alpha_eq(t, t)

    @given(eta_terms())
    def test_hints_do_not_matter(self, t):
        assert alpha_eq(t, rename_hints(t))

    @given(eta_terms(), eta_terms())
    def test_symmetric(self, a, b):
        assert alpha_eq(a, b) == alpha_eq(b, a)

    @given(eta_terms())
    def test_transitive_through_renaming(self, a):
        b = rename_hints(a)
        c = rename_hints(b)
        assert alpha_eq(a, b) and alpha_eq(b, c) and alpha_eq(a, c)

    @given(sorts())
    def test_sorts_reflexive(self, s):
        assert alpha_eq(s, s)

    def test_distinguishes_structure(self):
        assert not alpha_eq(Lam("x", BVar(0)), Lam("x", Const("z")))


class TestBinding:
    @given(eta_terms())
    def test_open_close_roundtrip(self, t):
        x = fresh_name("q", used_names(t))
        assert close_at(open_at(t, FVar(x)), x) == t

    def test_open_replaces_only_matching_index(self):
        t = Lam("y", App(BVar(1), BVar(0)))
        opened = open_at(t, FVar("a"))
        assert opened == Lam("y", App(FVar("a"), BVar(0)))

    def test_close_respects_binders(self):
        t = App(FVar("a"), Lam("y", App(FVar("a"), BVar(0))))
        closed = close_at(t, "a")
        assert closed == App(BVar(0), Lam("y", App(BVar(1), BVar(0))))

    def test_sort_binding(self):
        s = SPi("x", SConst("even"), TConst("nat"), SConst("odd"))
        assert open_at(s, FVar("w")) == s  # codomain ignores the binder

    @given(eta_terms())
    def test_free_vars_after_close(self, t):
        for x in sorted(free_vars(t)):
            assert x not in free_vars(close_at(t, x))


VARIABLES = (BVar, FVar, lfi.IBVar, lfi.IFVar)


def _variables(t, depth: int = 0) -> list:
    """(variable, depth) for each variable of t, in field order; the last
    field of a node with a hint is its binder's body."""
    if isinstance(t, VARIABLES):
        return [(t, depth)]
    kids = node_kids(t)
    body = len(kids) - 1 if "hint" in node_fields(t) else None
    return [p for i, v in enumerate(kids) for p in _variables(v, depth + (i == body))]


def _sample(tp, depth: int = 0):
    """A value of the annotation tp that holds a variable where one fits."""
    if tp in (str, int):
        return tp()
    if isinstance(tp, type) and issubclass(tp, Node):
        hints = typing.get_type_hints(tp)
        return tp(*(_sample(hints[n], depth + 1) for n in tp.__match_args__))
    members = [m for m in typing.get_args(tp) if m is not type(None)]
    for m in members:
        if m in VARIABLES:
            return _sample(m, depth)
    if depth < 4:
        for m in members:
            v = _sample(m, depth)
            if _variables(v):
                return v
    return next(_sample(m, depth) for m in members
                if set(typing.get_type_hints(m).values()) <= {str, int})


# Each AST's one variable walk, and the nodes of its module that are not
# syntax.
WALKS = {
    syn: (syn.map_vars, {"Base", "Arrow", "TypeFam", "TermConst", "SortFam",
                         "SubDecl", "ConstRef", "CtxEntry"}),
    lfi: (lfi._map_vars, {"IBase", "IArrow", "IProdS", "IUnitS", "LfiDecl",
                          "LfiCtxEntry"}),
}
SYNTAX = {syn: typing.get_args(syn.Syntax), lfi: typing.get_args(lfi.LfiSyntax)}


class TestMapVars:
    """Each AST's one variable walk covers every constructor: given the
    identity leaf it rebuilds an equal node, and it calls the leaf at each
    variable, in field order, at that variable's depth."""

    @pytest.mark.parametrize("module", SYNTAX, ids=["source", "target"])
    def test_syntax_union_names_every_constructor(self, module):
        classes = {c.__name__ for c in vars(module).values()
                   if isinstance(c, type) and issubclass(c, Node)
                   and c.__module__ == module.__name__}
        union = {c.__name__ for c in SYNTAX[module]}
        assert classes == union | WALKS[module][1]

    @pytest.mark.parametrize(
        "module, cls", [(m, c) for m, cs in SYNTAX.items() for c in cs],
        ids=lambda x: getattr(x, "__name__", ""))
    def test_identity_leaf_rebuilds(self, module, cls):
        node = _sample(cls)
        seen = []

        def leaf(v, depth):
            seen.append((v, depth))
            return v

        assert repr(WALKS[module][0](node, leaf, 2)) == repr(node)
        assert seen == _variables(node, 2)


class TestSpines:
    def test_term_spine(self):
        r = App(App(Const("f"), Const("z")), FVar("y"))
        h, args = term_spine(r)
        assert h == Const("f")
        assert args == [Const("z"), FVar("y")]
        assert head(r) == Const("f")

    def test_type_spine(self):
        a = TApp(TApp(TConst("double"), Const("z")), Const("z"))
        h, args = type_spine(a)
        assert h == TConst("double")
        assert len(args) == 2

    def test_sort_spine(self):
        s = SApp(SConst("double*"), Const("z"))
        h, args = sort_spine(s)
        assert h == SConst("double*")
        assert args == [Const("z")]


class TestNames:
    def test_fresh_name_avoids(self):
        assert fresh_name("x", {"x", "x'"}) == "x''"
        assert fresh_name("x", set()) == "x"
        assert fresh_name("", set()) == "x"

    def test_pool_name_skips_taken(self):
        assert pool_name("x", {"x"}) == "y"
        assert pool_name("_", {"x", "y"}) == "z"
        assert pool_name("E", {"x"}) == "E"

    def test_pool_exhaustion_falls_back(self):
        avoid = {"x", "y", "z", "u", "v", "w"}
        name = pool_name("x", avoid)
        assert name not in avoid

    @given(st.sets(st.sampled_from("abcxyz"), max_size=6))
    def test_fresh_name_never_collides(self, avoid):
        assert fresh_name("a", avoid) not in avoid
        assert pool_name("_", avoid) not in avoid


class TestSignature:
    def test_merged_ref_sort_preserves_order(self):
        sig = Signature([
            TypeFam("nat", syn.KType()),
            TermConst("c", TConst("nat")),
            ConstRef("c", SConst("even")),
            ConstRef("c", SConst("odd")),
        ])
        assert sig.merged_ref_sort("c") == SInter(SConst("even"), SConst("odd"))
        assert sig.merged_ref_sort("missing") is None

    def test_namespaces_are_separate(self, cbv_sig):
        # cbv reuses "eval" as a type family and as a sort family.
        assert cbv_sig.type_fam("eval") is not None
        assert cbv_sig.sort_fam("eval") is not None

    def test_erase_sig_drops_refinements(self, nat_sig):
        erased = erase_sig(nat_sig)
        assert all(isinstance(d, (TypeFam, TermConst)) for d in erased)
        assert erased.names() == {"nat", "z", "s"}


class TestContext:
    def test_lookup_shadowing(self):
        ctx = [CtxEntry("x", SConst("even"), TConst("nat")),
               CtxEntry("x", SConst("odd"), TConst("nat"))]
        entry = ctx_lookup(ctx, "x")
        assert entry is not None and entry.sort == SConst("odd")
        assert ctx_lookup(ctx, "y") is None

    def test_erase_ctx(self):
        ctx = [CtxEntry("x", SConst("even"), TConst("nat"))]
        assert erase_ctx(ctx) == [("x", TConst("nat"))]
