"""Hereditary substitution against an independent graft-and-normalize oracle."""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

import lfr.subst
from lfr import (
    check_signature,
    lf,
    parse_signature,
    trans_sig,
    verify_translation,
)
from lfr.printer import pp_class, pp_kind, pp_sort, pp_type
from lfr.diagnostics import MetricExhausted, SubstFailure
from lfr.subst import (
    erase_type,
    eta_expand,
    hsubst_n,
    hsubst_rn,
    hsubst_rr,
    hsubst_syntax,
    inst_spine,
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
    free_vars,
    head,
    term_spine,
)

from gen import (
    HO_CONSTS,
    NAT,
    binders_text,
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
    close_at,
    from_syntax,
    named_eta_expand,
    named_inst,
    named_subst,
    occurs,
    open_at,
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
        out = lf._inst(body, [(arg, erase_type(dom))], "a codomain")
        assert result_key(out) == named_inst(body, arg)


# Spines: a classifier of each kind, its Pi constructor, its printer, and
# the fields of its domain, in the order substitution walks them.
SPINE_KINDS = ((gen_type, TPi, pp_type, ("dom",)),
               (gen_kind, KPi, pp_kind, ("dom",)),
               (gen_dep_sort, SPi, pp_sort, ("dom_sort", "dom_type")),
               (gen_class, CPi, pp_class, ("dom_sort", "dom_type")))
# The step a substitution path takes into each domain field.
DOMAIN_STEPS = {"dom": "dom", "dom_sort": "dom", "dom_type": "domtype"}
# CLASSIFIER_CTX and c, so that an argument at the family p has a head.
SPINE_CTX = CLASSIFIER_CTX + [("c", Base("p"))]


def _spine_pi(choose):
    """(pi, fields, pp, spine): a dependent Pi type, kind, function sort
    or function class over SPINE_CTX with two to four binders, and an
    (argument, erased domain) pair for each binder.  A domain type is a
    simple-type mirror or a family type over the binders before it, and
    a domain sort is drawn over them too; the codomain is drawn again (up
    to four times) until the last binder's variable occurs in it.  An
    argument at a function type is a lambda, so where its variable heads
    a spine substitution reduces a redex; three times in four it puts its
    own arguments under a binder."""
    gen, pi_of, pp, fields = SPINE_KINDS[choose(0, 3)]
    ctx, binders, spine = list(SPINE_CTX), [], []
    for i in range(choose(2, 4)):
        if choose(0, 2):
            alpha = NAT if choose(0, 1) else gen_simple(choose, 1)
            dom = simple_to_type(alpha)
        else:
            dom = gen_type(choose, ctx, choose(0, 2))
            alpha = erase_type(dom)
        arg = gen_eta_term(choose, SPINE_CTX, alpha, choose(0, 2), HO_CONSTS)
        if choose(0, 3):
            arg = bury(arg)
        y = f"y{i}"
        binders.append((y, dom, gen_dep_sort(choose, ctx, choose(0, 2))))
        spine.append((arg, alpha))
        ctx.append((y, alpha))
    for _ in range(5):
        t = gen(choose, ctx, choose(1, 3))
        if occurs(binders[-1][0], t):
            break
    for y, dom, dom_sort in reversed(binders):
        t = (pi_of(y, dom, close_at(t, y)) if fields == ("dom",)
             else pi_of(y, dom_sort, dom, close_at(t, y)))
    return t, fields, pp, spine


def _dangling(pi, spine):
    """pi and the arguments with the hypothesis a closed into a dangling
    index, one binder out, so the indices above the block occur too."""
    return (close_at(pi, "a"),
            [(close_at(arg, "a"), alpha) for arg, alpha in spine])


@st.composite
def spine_instances(draw):
    """(pi, fields, pp, spine), as _spine_pi draws them, with a dangling."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    pi, fields, pp, spine = _spine_pi(choose)
    pi, spine = _dangling(pi, spine)
    return pi, fields, pp, spine


@st.composite
def ill_typed_spine_instances(draw):
    """(pi, fields, spine): a spine instance whose first argument has the
    wrong simple type: a lambda where its domain is a base type, an
    atomic term where it is a function type."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    pi, fields, _, spine = _spine_pi(choose)
    alpha = spine[0][1]
    wrong = Arrow(NAT, NAT) if isinstance(alpha, Base) else NAT
    spine[0] = (gen_eta_term(choose, SPINE_CTX, wrong, choose(0, 2),
                             HO_CONSTS), alpha)
    pi, spine = _dangling(pi, spine)
    return pi, fields, spine


def _pieces(pi, fields, n: int):
    """The domains of pi's binders after the first, field by field, and
    then the codomain under all n: (binders outside, field or None,
    piece), in the order substitution walks pi."""
    out, t = [], pi
    for i in range(n):
        if i:
            out.extend((i, f, getattr(t, f)) for f in fields)
        t = t.cod
    return out + [(n, None, t)]


def _folded(pi, spine):
    """pi's codomain set to spine by folding hsubst_syntax over it, or the
    (reason, path) of the first failure."""
    try:
        for arg, alpha in spine:
            pi = hsubst_syntax(arg, 0, alpha, pi.cod)
    except SubstFailure as e:
        return e.reason, e.path
    return pi


def _one_walk(pi, fields, spine):
    """pi's codomain set to spine in one walk, after each domain past the
    first is set to the arguments before it, or the (reason, path) of the
    first failure.  The path is read in the codomain of pi, where folding
    substitutes the first argument."""
    n = len(spine)
    for i, field, piece in _pieces(pi, fields, n):
        try:
            out = inst_spine(piece, spine[:i])
        except SubstFailure as e:
            if field is None:
                return e.reason, ("cod",) * (n - 1) + e.path
            return e.reason, (("cod",) * (i - 1) + (DOMAIN_STEPS[field],)
                              + e.path)
    return out


class TestSpineInstantiation:
    """Instantiating every binder of a Pi type, kind, function sort or
    function class in one walk against folding hsubst_syntax over the
    spine one argument at a time, and against named substitution: each
    domain, set to the arguments before it, and the codomain, set to all
    of them."""

    @given(spine_instances())
    def test_one_walk_matches_folding(self, inst):
        pi, fields, pp, spine = inst
        folded = body = pi
        for i, (arg, alpha) in enumerate(spine):
            for f in fields:
                dom = inst_spine(getattr(body, f), spine[:i])
                assert dom == getattr(folded, f)
                shown = pp_sort if f == "dom_sort" else pp_type
                assert shown(dom) == shown(getattr(folded, f))
            folded = hsubst_syntax(arg, 0, alpha, folded.cod)
            body = body.cod
        out = inst_spine(body, spine)
        assert out == folded
        assert pp(out) == pp(folded)
        # Named substitution, with the dangling index opened as a again:
        # in body it is index len(spine).
        a = FVar("a")
        assert (result_key(open_at(out, a))
                == named_inst(open_at(body, a, len(spine)),
                              *(open_at(arg, a) for arg, _ in spine)))

    @given(ill_typed_spine_instances())
    def test_failure_matches_folding(self, inst):
        # Folding fails while it substitutes the first argument, at the
        # first occurrence of its variable that the argument cannot take;
        # the one walk meets that occurrence in the same piece, at the
        # same place within it, and fails for the same reason.
        pi, fields, spine = inst
        assert _one_walk(pi, fields, spine) == _folded(pi, spine)


@functools.cache
def _source_ticks(m: int) -> int:
    """Fuel ticks of the source side's substitution walks during
    verify_translation on binders_text(m); a walk ticks once at each node
    it visits.  lfi.py binds _Fuel under its own name, so patching
    lfr.subst's leaves the target's walks out."""
    sig = check_signature(parse_signature(binders_text(m)))
    result = trans_sig(sig)
    ticks = 0

    class Fuel(lfr.subst._Fuel):
        def tick(self, path):
            nonlocal ticks
            ticks += 1
            super().tick(path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lfr.subst, "_Fuel", Fuel)
        verify_translation(sig, result)
    return ticks


class TestSpineScaling:
    """Re-checking a rule under many dependent binders: the LF and sort
    checkers instantiate a head's classifier once per spine."""

    def test_substitution_grows_gently_in_premises(self):
        # Substituting each argument of a spine through the whole rest of
        # its head's classifier made 3 348 / 7 572 / 23 700 ticks at
        # m=8 / 16 / 32; one walk per spine makes under a quarter.
        at_8, at_32 = _source_ticks(8), _source_ticks(32)
        assert at_8 <= 3_348 / 4
        assert at_32 <= 4 ** 1.3 * at_8


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

    @settings(max_examples=300)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_named_expansion(self, seed):
        # The same terms with the same hints as a copy that names each
        # lambda's variable and closes the body over it; the heads' free
        # names x and y take pool names away.
        import random

        rng = random.Random(seed)
        alpha = gen_simple(rng.randint, 3)
        if rng.randint(0, 1):
            alpha = simple_to_type(alpha)
        r = (FVar("f"), FVar("x"), App(FVar("y"), FVar("x")),
             Const("c"))[rng.randint(0, 3)]
        assert repr(eta_expand(alpha, r)) == repr(named_eta_expand(alpha, r))


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
            lf._inst(_p(App(BVar(0), Z)), [(Z, erase_type(NN_T))],
                     "a function codomain")
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
        (lambda: lf._inst(DEP_TYPE.cod, [(App(Const("s"), Z), NAT)],
                          "a codomain"), 15),
    ], ids=["hsubst_syntax", "instantiation"])
    def test_smallest_fuel(self, monkeypatch, call, fuel):
        monkeypatch.setenv("LFR_FUEL", str(fuel))
        call()
        monkeypatch.setenv("LFR_FUEL", str(fuel - 1))
        with pytest.raises(MetricExhausted):
            call()
