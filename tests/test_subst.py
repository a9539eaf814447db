"""Hereditary substitution against an independent graft-and-normalize oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from lfr import lf
from lfr.subst import (
    MetricExhausted,
    SubstFailure,
    erase_type,
    eta_expand,
    hsubst_n,
    hsubst_rn,
    hsubst_rr,
    hsubst_syntax,
    treduce,
)
from lfr.syntax import (
    App,
    Arrow,
    Base,
    BVar,
    Const,
    CPi,
    CSort,
    CtxEntry,
    FVar,
    KPi,
    KType,
    Lam,
    SApp,
    SConst,
    SPi,
    STop,
    TApp,
    TConst,
    TPi,
    alpha_eq,
    close_at,
    free_vars,
    head,
    term_spine,
)

from gen import (
    HO_CONSTS,
    NAT,
    bury,
    gen_class,
    gen_dep_sort,
    gen_eta_term,
    gen_kind,
    gen_simple,
    gen_type,
    simple_to_type,
    unroll,
)
from oracles import (
    from_syntax,
    named_inst,
    named_subst,
    occurs,
    oracle_subst,
    result_key,
)

X0 = "x0"


@st.composite
def subst_instances(draw):
    """(alpha0, n0 closed at alpha0, n over [x0: alpha0, f, a])."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    alpha0 = gen_simple(choose, 2)
    n0 = gen_eta_term(choose, [], alpha0, choose(0, 3))
    ctx = [(X0, alpha0), ("f", Arrow(NAT, NAT)), ("a", NAT)]
    beta = gen_simple(choose, 2)
    n = gen_eta_term(choose, ctx, beta, choose(0, 3))
    return alpha0, n0, n


class TestOracleAgreement:
    @given(subst_instances())
    def test_matches_graft_and_normalize(self, inst):
        alpha0, n0, n = inst
        result = hsubst_n(n0, X0, alpha0, n)
        assert from_syntax(result) == oracle_subst(n0, X0, n)

    @given(subst_instances())
    def test_deterministic(self, inst):
        alpha0, n0, n = inst
        assert alpha_eq(hsubst_n(n0, X0, alpha0, n),
                        hsubst_n(n0, X0, alpha0, n))

    @given(subst_instances(), st.integers(0, 2 ** 32 - 1))
    def test_trivial_when_var_absent(self, inst, seed):
        import random

        alpha0, n0, _ = inst
        rng = random.Random(seed)
        n = gen_eta_term(rng.randint, [("f", Arrow(NAT, NAT)), ("a", NAT)],
                         gen_simple(rng.randint, 2), rng.randint(0, 3))
        assert X0 not in free_vars(n)
        assert alpha_eq(hsubst_n(n0, X0, alpha0, n), n)


N_T = TConst("nat")
NN_T = TPi("x", N_T, N_T)
Z = Const("z")


def _p(*args):
    t = TConst("p")
    for a in args:
        t = TApp(t, a)
    return t


CLASSIFIER_CTX = [("a", NAT), ("f", Arrow(NAT, NAT))]
CLASSIFIERS = (gen_type, gen_kind, gen_dep_sort, gen_class)


def _classifier(choose, ctx, var: str):
    """A type, kind, sort or class over ctx, drawn again (up to four
    times) until the variable var occurs in it."""
    for _ in range(5):
        gen = CLASSIFIERS[choose(0, len(CLASSIFIERS) - 1)]
        t = gen(choose, ctx, choose(1, 3))
        if occurs(var, t):
            break
    return t


@st.composite
def classifier_instances(draw):
    """(alpha0, n0 at alpha0 over a, a classifier over x0 : alpha0, a and
    f whose Pi binders' variables occur inside).  Three times in four, n0
    puts its arguments under a binder of its own."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    alpha0 = gen_simple(choose, 2)
    n0 = gen_eta_term(choose, CLASSIFIER_CTX[:1], alpha0, choose(0, 2),
                      HO_CONSTS)
    if choose(0, 3):
        n0 = bury(n0)
    return alpha0, n0, _classifier(choose, [(X0, alpha0)] + CLASSIFIER_CTX,
                                   X0)


@st.composite
def instantiation_instances(draw):
    """(body, arg, dom): a classifier under one binder of type dom, and an
    argument at dom."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    beta = gen_simple(choose, 2)
    body = _classifier(choose, CLASSIFIER_CTX + [("y", beta)], "y")
    arg = gen_eta_term(choose, CLASSIFIER_CTX, beta, choose(0, 2), HO_CONSTS)
    return close_at(body, "y"), arg, simple_to_type(beta)


@st.composite
def crossing_instances(draw):
    """(n0, t): n0 = [u] [u'] h ([w] M) at nat -> nat -> nat, and t a type
    binding y and v whose arguments apply x0 to terms over them, so that
    substituting n0 moves those terms under w."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    inner = [("a", NAT), ("u", NAT), ("u'", NAT), ("w", NAT)]
    body = Lam("w", close_at(gen_eta_term(choose, inner, NAT, choose(0, 2),
                                          HO_CONSTS), "w"))
    n0 = Lam("u", close_at(Lam("u'", close_at(App(Const("h"), body), "u'")),
                           "u"))
    ctx = [(X0, X0_TYPE), ("a", NAT), ("y", NAT), ("v", NAT)]

    def arg():
        return gen_eta_term(choose, ctx, NAT, choose(0, 2))

    index = _p(App(App(FVar(X0), arg()), arg()),
               App(App(FVar(X0), arg()), arg()))
    t = TPi("y", N_T, close_at(TPi("v", N_T, close_at(index, "v")), "y"))
    return n0, t


X0_TYPE = Arrow(NAT, Arrow(NAT, NAT))


class TestClassifierOracle:
    """Substitution into classifiers against named substitution followed by
    normalisation (tests/oracles.py)."""

    @given(classifier_instances())
    def test_hsubst_syntax_matches_named_substitution(self, inst):
        alpha0, n0, t = inst
        assert (result_key(hsubst_syntax(n0, X0, alpha0, t))
                == named_subst(n0, X0, t))

    @given(crossing_instances())
    def test_substitution_moves_arguments_under_binders(self, inst):
        n0, t = inst
        assert (result_key(hsubst_syntax(n0, X0, X0_TYPE, t))
                == named_subst(n0, X0, t))

    @given(instantiation_instances())
    def test_instantiation_matches_named_substitution(self, inst):
        body, arg, dom = inst
        out = lf._inst(body, arg, dom, "a codomain")
        assert result_key(out) == named_inst(body, arg)


@st.composite
def composition_instances(draw):
    """x0, x1 with n0 closed, n1 possibly using x0, n using both."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    a0 = gen_simple(choose, 1)
    a1 = gen_simple(choose, 1)
    n0 = gen_eta_term(choose, [], a0, choose(0, 2))
    n1 = gen_eta_term(choose, [("x0", a0)], a1, choose(0, 2))
    n = gen_eta_term(choose, [("x0", a0), ("x1", a1)], gen_simple(choose, 1),
                     choose(0, 3))
    return a0, a1, n0, n1, n


class TestComposition:
    @given(composition_instances())
    def test_outer_substitutions_agree(self, inst):
        a0, a1, n0, n1, n = inst
        inner = hsubst_n(n1, "x1", a1, n)
        lhs = hsubst_n(n0, "x0", a0, inner)
        n1s = hsubst_n(n0, "x0", a0, n1)
        ns = hsubst_n(n0, "x0", a0, n)
        rhs = hsubst_n(n1s, "x1", a1, ns)
        assert alpha_eq(lhs, rhs)


class TestEtaCommutation:
    @given(st.integers(0, 2 ** 32 - 1))
    def test_substituting_own_expansion_is_identity(self, seed):
        import random

        rng = random.Random(seed)
        alpha = gen_simple(rng.randint, 2)
        n = gen_eta_term(rng.randint, [(X0, alpha), ("a", NAT)],
                         gen_simple(rng.randint, 1), rng.randint(0, 3))
        expansion = eta_expand(alpha, FVar(X0))
        assert alpha_eq(hsubst_n(expansion, X0, alpha, n), n)

    @given(subst_instances())
    def test_expansion_of_untouched_head_commutes(self, inst):
        alpha0, n0, _ = inst
        r = App(FVar("f"), eta_expand(NAT, FVar("a")))
        lhs = hsubst_n(n0, X0, alpha0, eta_expand(NAT, r))
        rhs = eta_expand(NAT, hsubst_rr(n0, X0, alpha0, r))
        assert alpha_eq(lhs, rhs)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_expansion_of_substituted_head_reduces(self, seed):
        import random

        rng = random.Random(seed)
        alpha0 = gen_simple(rng.randint, 2)
        n0 = gen_eta_term(rng.randint, [], alpha0, rng.randint(0, 2))
        args, _ = unroll(alpha0)
        r = FVar(X0)
        for beta in args:
            r = App(r, gen_eta_term(rng.randint, [("a", NAT)], beta,
                                    rng.randint(0, 2)))
        expanded = eta_expand(NAT, r)
        direct, ty = hsubst_rn(n0, X0, alpha0, r)
        assert ty == NAT
        assert alpha_eq(hsubst_n(n0, X0, alpha0, expanded), direct)


class TestTreduce:
    def test_base_clause(self):
        assert treduce("x", NAT, FVar("x")) == NAT

    def test_arrow_step(self):
        assert treduce("f", Arrow(NAT, NAT), App(FVar("f"), Const("z"))) == NAT

    def test_undefined_when_arrows_run_out(self):
        assert treduce("f", NAT, App(FVar("f"), Const("z"))) is None

    @given(st.integers(0, 2 ** 32 - 1))
    def test_predicts_hsubst_rn_type(self, seed):
        import random

        rng = random.Random(seed)
        alpha0 = gen_simple(rng.randint, 2)
        n0 = gen_eta_term(rng.randint, [], alpha0, rng.randint(0, 2))
        args, _ = unroll(alpha0)
        r = FVar(X0)
        for beta in args[:rng.randint(0, len(args))]:
            r = App(r, gen_eta_term(rng.randint, [], beta, rng.randint(0, 2)))
        predicted = treduce(X0, alpha0, r)
        assert predicted is not None
        _, actual = hsubst_rn(n0, X0, alpha0, r)
        assert predicted == actual


class TestEtaExpand:
    def test_base_is_identity(self):
        assert eta_expand(NAT, FVar("x")) == FVar("x")

    def test_arrow_wraps_and_applies(self):
        t = eta_expand(Arrow(NAT, NAT), FVar("f"))
        assert isinstance(t, Lam)
        h, args = term_spine(t.body)
        assert h == FVar("f") and len(args) == 1

    def test_accepts_normal_types(self):
        pi = TPi("x", TConst("nat"), TConst("nat"))
        assert alpha_eq(eta_expand(pi, FVar("f")),
                        eta_expand(Arrow(NAT, NAT), FVar("f")))

    def test_second_order(self):
        t = eta_expand(Arrow(Arrow(NAT, NAT), NAT), FVar("g"))
        assert isinstance(t, Lam)
        h, args = term_spine(t.body)
        assert h == FVar("g")
        assert isinstance(args[0], Lam)


class TestEraseType:
    def test_erases_pi_to_arrow(self):
        pi = TPi("x", TConst("nat"), TConst("nat"))
        assert erase_type(pi) == Arrow(NAT, NAT)

    def test_erases_applied_family_to_head(self):
        from lfr.syntax import TApp

        a = TApp(TApp(TConst("double"), Const("z")), Const("z"))
        assert erase_type(a) == Base("double")

    def test_simple_types_pass_through(self):
        assert erase_type(Arrow(NAT, NAT)) == Arrow(NAT, NAT)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_mirror_roundtrip(self, seed):
        import random

        rng = random.Random(seed)
        alpha = gen_simple(rng.randint, 3)
        assert erase_type(simple_to_type(alpha)) == alpha


class TestFailures:
    def test_applying_non_function(self):
        with pytest.raises(SubstFailure):
            hsubst_rn(Const("z"), X0, NAT, App(FVar(X0), Const("z")))

    def test_head_type_mismatch_in_normal_position(self):
        # x0 : nat -> nat used bare leaves a lambda at base type.
        with pytest.raises(SubstFailure):
            hsubst_n(Lam("x", Const("z")), X0, Arrow(NAT, NAT), FVar(X0))

    def test_fuel_guard_fires_only_when_forced(self, monkeypatch):
        monkeypatch.setenv("LFR_FUEL", "1")
        big = eta_expand(Arrow(Arrow(NAT, NAT), NAT), FVar("g"))
        with pytest.raises(MetricExhausted):
            hsubst_n(Const("z"), X0, NAT, big)
        monkeypatch.delenv("LFR_FUEL")
        assert alpha_eq(hsubst_n(Const("z"), X0, NAT, big), big)


class TestSyntaxSubstitution:
    def test_substitutes_into_sorts(self, double_sig):
        from lfr.syntax import SApp

        s = SApp(SApp(SConst("double*"), FVar("X")), Const("z"))
        out = hsubst_syntax(Const("z"), "X", TConst("nat"), s)
        assert out == SApp(SApp(SConst("double*"), Const("z")), Const("z"))

    def test_distributes_over_contexts(self):
        from lfr.syntax import SApp, TApp

        entries = [
            CtxEntry("d", SApp(SApp(SConst("double*"), FVar("X")), FVar("X")),
                     TApp(TApp(TConst("double"), FVar("X")), FVar("X"))),
            CtxEntry("e", SConst("even"), TConst("nat")),
        ]
        out = hsubst_syntax(Const("z"), "X", TConst("nat"), entries)
        assert [e.name for e in out] == ["d", "e"]
        assert out[0].sort == hsubst_syntax(Const("z"), "X", TConst("nat"),
                                            entries[0].sort)
        assert out[0].type == hsubst_syntax(Const("z"), "X", TConst("nat"),
                                            entries[0].type)
        assert out[1] == entries[1]

    def test_renames_clashing_sort_binders(self):
        # Substituting a term mentioning y into a sort that binds y.
        inner = SPi("y", SConst("even"), TConst("nat"), SConst("odd"))
        out = hsubst_syntax(FVar("y"), "X", TConst("nat"), inner)
        assert alpha_eq(out, inner)


# Values recorded from the named implementation, which opened every binder
# it substituted under; index-based substitution must reproduce them.


class TestPinnedFailures:
    @pytest.mark.parametrize("n0, x0, alpha0, t, reason, path", [
        (Z, "f", NN_T, _p(App(FVar("f"), Z)),
         "non-function applied", ("arg",)),
        (Z, "f", NN_T, TPi("y", N_T, _p(App(FVar("f"), BVar(0)))),
         "non-function applied", ("cod", "arg")),
        (Lam("x", BVar(0)), "f", NN_T, _p(FVar("f")),
         "head-type mismatch", ("arg",)),
        (Lam("x", BVar(0)), "f", NN_T,
         SPi("y", SApp(SConst("q"), FVar("f")), N_T, STop()),
         "head-type mismatch", ("dom", "arg")),
        (Lam("g", App(BVar(0), Z)), "f", TPi("g", NN_T, N_T),
         KPi("y", _p(App(FVar("f"), Z)), KType()),
         "non-function applied", ("dom", "arg", "beta")),
        (Z, "f", NN_T, Lam("y", App(FVar("f"), BVar(0))),
         "non-function applied", ("body",)),
        (Lam("x", BVar(0)), "f", NN_T,
         CPi("y", STop(), N_T,
             CPi("w", SApp(SConst("q"), App(App(FVar("f"), BVar(0)), Z)),
                 N_T, CSort())),
         "non-function applied", ("cod", "dom", "arg")),
    ])
    def test_reason_and_path(self, n0, x0, alpha0, t, reason, path):
        with pytest.raises(SubstFailure) as info:
            hsubst_syntax(n0, x0, alpha0, t)
        assert (info.value.reason, info.value.path) == (reason, path)

    def test_instantiation_failure_message(self):
        from lfr.lf import LfError

        with pytest.raises(LfError) as info:
            lf._inst(_p(App(BVar(0), Z)), Z, NN_T, "a function codomain")
        assert info.value.message == ("substitution into a function codomain "
                                      "failed: non-function applied at arg")


TWICE = Lam("g", App(BVar(0), App(BVar(0), Z)))
# {y : nat} p (f [w] s w) (f [w] y)
DEP_TYPE = TPi("y", N_T, _p(App(FVar("f"), Lam("w", App(Const("s"), BVar(0)))),
                            App(FVar("f"), Lam("w", BVar(1)))))


class TestPinnedFuel:
    """The smallest LFR_FUEL at which a fixed call still succeeds."""

    @pytest.mark.parametrize("call, fuel", [
        (lambda: hsubst_syntax(TWICE, "f", TPi("g", NN_T, N_T), DEP_TYPE), 45),
        (lambda: lf._inst(DEP_TYPE.cod, App(Const("s"), Z), N_T, "a codomain"),
         15),
    ], ids=["hsubst_syntax", "instantiation"])
    def test_smallest_fuel(self, monkeypatch, call, fuel):
        monkeypatch.setenv("LFR_FUEL", str(fuel))
        call()
        monkeypatch.setenv("LFR_FUEL", str(fuel - 1))
        with pytest.raises(MetricExhausted):
            call()
