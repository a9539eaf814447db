"""Canonical-forms LF layer: bidirectional typing and formation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from lfr import (
    CheckError,
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
from gen import NAT, gen_eta_term, gen_simple, simple_to_type

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
        diag = info.value.diag
        assert diag.expected is not None and diag.actual is not None

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
