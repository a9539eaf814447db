"""Canonical-forms LF layer: bidirectional typing and formation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from lfr import (
    CheckError,
    parse_signature,
    lf_check_kind,
    lf_check_sig,
    lf_check_term,
    lf_check_type,
    lf_synth_term,
)
from lfr.lf import LfError
from lfr.subst import erase_type, eta_expand
from lfr.syntax import (
    App,
    Arrow,
    Base,
    BVar,
    Const,
    ConstRef,
    FVar,
    KPi,
    KType,
    Lam,
    TApp,
    TConst,
    Signature,
    TermConst,
    TPi,
    TypeFam,
    alpha_eq,
    erase_ctx,
    erase_sig,
)

from conftest import GOLDEN_NAMES
from gen import (
    HO_CONSTS,
    NAT,
    gen_eta_term,
    gen_kind,
    gen_simple,
    gen_type,
    rehint,
    simple_to_type,
)
from oracles import opened_lf_check, opened_lf_check_kind, opened_lf_check_type

Z = Const("z")
NAT_T = TConst("nat")


class TestGoldenSignatures:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_erased_goldens_check(self, name, checked_goldens):
        lf_check_sig(erase_sig(checked_goldens[name]))

    @pytest.mark.parametrize("first, second", [
        (TermConst("z", NAT_T), TermConst("z", NAT_T)),
        (TermConst("z", NAT_T), TypeFam("z", KType())),
        (TypeFam("z", KType()), TermConst("z", NAT_T)),
    ])
    def test_name_declared_twice(self, first, second):
        sig = Signature([TypeFam("nat", KType()), first, second])
        with pytest.raises(CheckError) as info:
            lf_check_sig(sig)
        assert info.value.message == "z is declared twice"


class TestTermTyping:
    def test_constant_synthesizes_its_type(self, nat_sig):
        erased = erase_sig(nat_sig)
        assert alpha_eq(lf_synth_term(erased, [], Z), NAT_T)

    def test_variable_synthesizes_context_type(self, nat_sig):
        erased = erase_sig(nat_sig)
        assert alpha_eq(lf_synth_term(erased, [("x", NAT_T)], FVar("x")),
                        NAT_T)

    def test_synthesis_deterministic(self, nat_sig):
        erased = erase_sig(nat_sig)
        r = App(Const("s"), App(Const("s"), Z))
        assert alpha_eq(lf_synth_term(erased, [], r),
                        lf_synth_term(erased, [], r))

    def test_application_checks_argument(self, nat_sig):
        erased = erase_sig(nat_sig)
        lf_check_term(erased, [], App(Const("s"), Z), NAT_T)
        with pytest.raises(LfError):
            lf_check_term(erased, [], App(Const("s"), Const("s")), NAT_T)

    def test_eta_longness_enforced(self, nat_sig):
        erased = erase_sig(nat_sig)
        pi = TPi("x", NAT_T, NAT_T)
        with pytest.raises(LfError):
            lf_check_term(erased, [], Const("s"), pi)
        lf_check_term(erased, [], eta_expand(erase_type(pi), Const("s")), pi)

    def test_mismatch_diagnostic_carries_both_types(self, double_sig):
        erased = erase_sig(double_sig)
        with pytest.raises(LfError) as info:
            lf_check_term(erased, [], Z, TApp(TApp(TConst("double"), Z), Z))
        err = info.value
        assert err.expected is not None and err.actual is not None

    def test_unbound_name(self, nat_sig):
        erased = erase_sig(nat_sig)
        with pytest.raises(LfError):
            lf_synth_term(erased, [], FVar("ghost"))

    @given(st.integers(0, 2 ** 32 - 1))
    def test_generated_eta_long_terms_check(self, nat_sig, seed):
        import random

        rng = random.Random(seed)
        erased = erase_sig(nat_sig)
        alpha = gen_simple(rng.randint, 2)
        ctx = [("f", Arrow(NAT, NAT)), ("a", NAT)]
        n = gen_eta_term(rng.randint, ctx, alpha, rng.randint(0, 3))
        ectx = [(x, simple_to_type(t)) for x, t in ctx]
        lf_check_term(erased, ectx, n, simple_to_type(alpha))


class TestTypeFormation:
    def test_applied_family(self, double_sig):
        erased = erase_sig(double_sig)
        lf_check_type(erased, [], TApp(TApp(TConst("double"), Z), Z))

    def test_under_applied_family(self, double_sig):
        erased = erase_sig(double_sig)
        with pytest.raises(LfError):
            lf_check_type(erased, [], TApp(TConst("double"), Z))

    def test_over_applied_family(self, nat_sig):
        erased = erase_sig(nat_sig)
        with pytest.raises(LfError):
            lf_check_type(erased, [], TApp(TConst("nat"), Z))

    def test_pi_binds_in_codomain(self, double_sig):
        erased = erase_sig(double_sig)
        from lfr.syntax import BVar

        a = TPi("x", NAT_T, TApp(TApp(TConst("double"), BVar(0)), BVar(0)))
        lf_check_type(erased, [], a)


class TestKindFormation:
    def test_simple_kinds(self, nat_sig):
        erased = erase_sig(nat_sig)
        lf_check_kind(erased, [], KType())
        lf_check_kind(erased, [], KPi("x", NAT_T, KType()))

    def test_kind_with_bad_domain(self, nat_sig):
        erased = erase_sig(nat_sig)
        with pytest.raises(LfError):
            lf_check_kind(erased, [], KPi("x", TConst("ghost"), KType()))


class TestRefinementRestriction:
    """Whatever the sort checker accepts, plain LF accepts at the erasure."""

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_refined_constants_check_at_their_types(self, name,
                                                    checked_goldens):
        sig = checked_goldens[name]
        erased = erase_sig(sig)
        for d in sig:
            if isinstance(d, ConstRef):
                a = sig.term_const(d.const).type
                n = eta_expand(a, Const(d.const))
                lf_check_term(erased, [], n, a)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_sort_accepted_terms_type_check(self, nat_sig, seed):
        import random

        from lfr import acheck
        from lfr.lfr_check import SortError
        from lfr.syntax import CtxEntry, SConst

        rng = random.Random(seed)
        n = gen_eta_term(rng.randint, [("x", NAT)], NAT, rng.randint(0, 3))
        ctx = [CtxEntry("x", SConst("even"), NAT_T)]
        try:
            acheck(nat_sig, ctx, n, SConst("even"))
        except SortError:
            return
        lf_check_term(erase_sig(nat_sig), erase_ctx(ctx), n, NAT_T)


P_T, Q_T = TConst("p"), TConst("q")


def _s(t):
    return App(Const("s"), t)


# p (s a) under {a : nat} {b : nat}, and the term [a] [b] k b.
_TWO_DEEP = TPi("a", NAT_T, TPi("b", NAT_T, TApp(P_T, _s(BVar(1)))))
_K_B = Lam("a", Lam("b", App(Const("k"), BVar(0))))
# {a : nat} {b : p a} q a (k a): k a has type p a, not nat.
_BAD_INDEX = TPi("a", NAT_T, TPi("b", TApp(P_T, BVar(0)), TApp(
    TApp(Q_T, BVar(1)), App(Const("k"), BVar(1)))))


class TestDiagnostics:
    """Messages for failures under binders: a bound variable is shown by
    its binder's hint, primed away from the context's names and from the
    names of the binders outside it."""

    @pytest.mark.parametrize("call, diag", [
        (lambda sig: lf_check_term(sig, [], _K_B, _TWO_DEEP),
         ("type mismatch", "type mismatch: expected p (s a), synthesized p b",
          "p (s a)", "p b")),
        (lambda sig: lf_check_term(sig, [("a", NAT_T), ("b'", NAT_T)], _K_B,
                                   _TWO_DEEP),
         ("type mismatch", "type mismatch: expected p (s a'), synthesized p b",
          "p (s a')", "p b")),
        (lambda sig: lf_check_term(
            sig, [], Lam("a", App(Const("g"), BVar(0))),
            TPi("a", NAT_T, TPi("h", TApp(P_T, BVar(0)), NAT_T))),
         ("type mismatch", "atomic term g a at function type p a -> nat; "
          "terms must be eta-long", "p a -> nat", "g a")),
        (lambda sig: lf_check_term(
            sig, [], Lam("a", Lam("b", Lam("c", BVar(0)))),
            TPi("a", NAT_T, TPi("b", TApp(P_T, BVar(0)), TApp(P_T, BVar(1))))),
         ("non-atomic at atomic type",
          "function term checked against atomic type p a", "p a", None)),
        (lambda sig: lf_check_term(
            sig, [], Lam("a", Lam("h", App(BVar(0), Z))),
            TPi("a", NAT_T, TPi("h", TApp(P_T, BVar(0)), NAT_T))),
         ("type mismatch", "applied term of non-function type p a", None,
          "p a")),
        (lambda sig: lf_check_type(sig, [], TPi("a", NAT_T, TPi(
            "b", TApp(P_T, BVar(0)), TApp(Q_T, BVar(1))))),
         ("ill-formed kind", "type family not fully applied: q a", None,
          "q a")),
        (lambda sig: lf_check_kind(sig, [], KPi("a", NAT_T, KPi(
            "b", TApp(P_T, BVar(0)), KPi("c", TApp(Q_T, BVar(1)), KType())))),
         ("ill-formed kind", "type family not fully applied: q a", None,
          "q a")),
        (lambda sig: lf_check_type(sig, [], _BAD_INDEX),
         ("type mismatch", "type mismatch: expected nat, synthesized p a",
          "nat", "p a")),
        (lambda sig: lf_check_type(sig, [("a", NAT_T)], _BAD_INDEX),
         ("type mismatch", "type mismatch: expected nat, synthesized p a'",
          "nat", "p a'")),
    ], ids=["term-two-deep", "hint-meets-context", "not-eta-long",
            "function-at-atom", "non-function", "type-two-deep",
            "kind-two-deep", "index-two-deep", "index-meets-context"])
    def test_message(self, dep_sig, call, diag):
        with pytest.raises(LfError) as info:
            call(dep_sig)
        d = info.value
        assert (d.kind, d.message, d.expected, d.actual) == diag


_LF_BASE = ("nat : type. z : nat. s : nat -> nat. h : (nat -> nat) -> nat.\n"
            "t : nat -> type.\n")
# gen_type's atoms are p N1 N2 with N1, N2 at nat: well typed in the
# first signature, a mismatch at N2 in the second, and not fully applied
# in the third.
LF_SIGS = tuple(parse_signature(_LF_BASE + p) for p in (
    "p : nat -> nat -> type.", "p : {y : nat} t y -> type.",
    "p : nat -> nat -> nat -> type."))
HINTS = ("x", "x'", "y", "b1", "_")


def lf_instances(seed: int):
    """(sig, ctx, which, subject): a type, a kind, or an eta-long term with
    a type it may not have, over a context of x and x' and sometimes y;
    binder hints are drawn from names the context uses."""
    choose = random.Random(seed).randint
    names = ["x", "x'"] + (["y"] if choose(0, 1) else [])
    gctx = [(x, NAT) for x in names]
    ctx = [(x, NAT_T) for x in names]
    which = choose(0, 2)
    if which == 0:
        subject = (gen_type(choose, gctx, choose(0, 3)),)
    elif which == 1:
        subject = (gen_kind(choose, gctx, choose(0, 3)),)
    elif choose(0, 1):
        alpha = gen_simple(choose, 2)
        n = gen_eta_term(choose, gctx, alpha, choose(0, 3), HO_CONSTS)
        other = alpha if choose(0, 1) else gen_simple(choose, 2)
        subject = (n, simple_to_type(other))
    else:
        # A variable of a dependent type, expanded: its arguments' types
        # mention the binders before them.
        a = gen_type(choose, gctx, choose(1, 3))
        ctx.append(("f", a))
        subject = (eta_expand(a, FVar("f")), a)
    subject = tuple(rehint(u, lambda: HINTS[choose(0, len(HINTS) - 1)])
                    for u in subject)
    return LF_SIGS[choose(0, 2)], ctx, which, subject


def _lf_outcome(call, *args):
    try:
        call(*args)
    except LfError as e:
        return e.kind, e.message, e.expected, e.actual
    return None


class TestOpenedReference:
    """The checkers against copies that open every binder with a name
    (tests/oracles.py): the same verdicts, kinds and messages."""

    CHECKERS = ((lf_check_type, opened_lf_check_type),
                (lf_check_kind, opened_lf_check_kind),
                (lf_check_term, opened_lf_check))

    @settings(max_examples=400)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_checkers_match(self, seed):
        sig, ctx, which, subject = lf_instances(seed)
        ours, theirs = self.CHECKERS[which]
        assert (_lf_outcome(ours, sig, ctx, *subject)
                == _lf_outcome(theirs, sig, ctx, *subject))
