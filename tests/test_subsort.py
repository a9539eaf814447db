"""Subsorting three ways: intrinsic, algorithmic, declarative."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from lfr import (
    SubsortQuery,
    acheck,
    algo_subsort,
    binter,
    check_signature,
    declarative_subsort_oracle,
    intrinsic_subsort,
    parse_signature,
    split,
)
from lfr.lfr_check import SortError
from lfr.syntax import (
    Arrow,
    Base,
    BVar,
    CtxEntry,
    SApp,
    SConst,
    SInter,
    SPi,
    STop,
    TApp,
    TConst,
    TPi,
    alpha_eq,
)

from gen import (
    FAM_TEXT,
    NAT,
    gen_above,
    gen_eta_term,
    gen_fam_type,
    gen_refining,
    gen_simple,
    gen_sort,
    simple_to_type,
)
from oracles import named_algo_subsort, named_subsort_oracle

NAT_T = TConst("nat")
EVEN = SConst("even")
ODD = SConst("odd")
POS = SConst("pos")
NN = Arrow(NAT, NAT)
NN_T = TPi("x", NAT_T, NAT_T)


def triangle(sig, s, t, a, oracle_depth=6):
    """Check the three formulations agree; returns the intrinsic answer."""
    q = SubsortQuery.make(sig, (), s, t, a)
    intrinsic = intrinsic_subsort(q)
    algorithmic = algo_subsort(sig, split(s), t)
    assert intrinsic == algorithmic, (s, t)
    if declarative_subsort_oracle(q, oracle_depth):
        assert intrinsic, (s, t)
    return intrinsic


class TestBaseSorts:
    def test_declared_edge(self, nat_sig):
        assert triangle(nat_sig, ODD, POS, NAT_T)
        assert not triangle(nat_sig, POS, ODD, NAT_T)

    def test_reflexive_and_top(self, nat_sig):
        for s in (EVEN, ODD, POS):
            assert triangle(nat_sig, s, s, NAT_T)
            assert triangle(nat_sig, s, STop(), NAT_T)

    def test_intersection_projections(self, nat_sig):
        s = SInter(EVEN, ODD)
        assert triangle(nat_sig, s, EVEN, NAT_T)
        assert triangle(nat_sig, s, ODD, NAT_T)
        assert triangle(nat_sig, s, SInter(ODD, EVEN), NAT_T)
        assert not triangle(nat_sig, EVEN, s, NAT_T)

    def test_intersection_greatest_lower_bound(self, nat_sig):
        assert triangle(nat_sig, ODD, SInter(ODD, POS), NAT_T)

    def test_unrelated(self, nat_sig):
        assert not triangle(nat_sig, EVEN, ODD, NAT_T)


class TestFunctionSorts:
    def test_contravariant_domain(self, nat_sig):
        sub = SPi("x", POS, NAT_T, EVEN)
        sup = SPi("x", ODD, NAT_T, EVEN)
        assert triangle(nat_sig, sub, sup, NN_T)
        assert not triangle(nat_sig, sup, sub, NN_T)

    def test_covariant_codomain(self, nat_sig):
        sub = SPi("x", EVEN, NAT_T, ODD)
        sup = SPi("x", EVEN, NAT_T, POS)
        assert triangle(nat_sig, sub, sup, NN_T)
        assert not triangle(nat_sig, sup, sub, NN_T)

    def test_top_pi_distributivity(self, nat_sig):
        # top <= Pi x :: S. top, the rule beyond the usual ones.
        t = SPi("x", EVEN, NAT_T, STop())
        assert triangle(nat_sig, STop(), t, NN_T)

    def test_inter_pi_distributivity(self, nat_sig):
        # (Pi S.T1) ^ (Pi S.T2) <= Pi S. (T1 ^ T2)
        s = SInter(SPi("x", EVEN, NAT_T, ODD), SPi("x", EVEN, NAT_T, POS))
        t = SPi("x", EVEN, NAT_T, SInter(ODD, POS))
        assert triangle(nat_sig, s, t, NN_T)

    def test_merged_domain_distributivity(self, nat_sig):
        s = SInter(SPi("x", EVEN, NAT_T, ODD), SPi("x", ODD, NAT_T, EVEN))
        t = SPi("x", SInter(EVEN, ODD), NAT_T, SInter(ODD, EVEN))
        assert triangle(nat_sig, s, t, NN_T)


class TestGeneratedTriangle:
    @given(st.integers(0, 2 ** 32 - 1))
    def test_base_type_pairs(self, nat_sig, seed):
        rng = random.Random(seed)
        s = gen_sort(rng.randint, NAT, 3)
        t = gen_sort(rng.randint, NAT, 3)
        triangle(nat_sig, s, t, NAT_T)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_function_type_pairs(self, nat_sig, seed):
        rng = random.Random(seed)
        alpha = gen_simple(rng.randint, 2)
        if isinstance(alpha, Base):
            alpha = Arrow(NAT, NAT)
        s = gen_sort(rng.randint, alpha, 3)
        t = gen_sort(rng.randint, alpha, 3)
        triangle(nat_sig, s, t, simple_to_type(alpha), oracle_depth=4)


class TestDependentFunctionSorts:
    """Function sorts over p : nat -> type whose codomains mention the
    bound variable, with ^ and #.  The algorithm and the oracle read both
    codomains under the binder they share; copies that open each codomain
    with a fresh name (tests/oracles.py) must give the same answers, and
    the algorithm must agree with intrinsic subsorting."""

    SIG = check_signature(parse_signature(FAM_TEXT))

    @settings(max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_named_copies(self, seed):
        rng = random.Random(seed)
        a = gen_fam_type(rng.randint, [], 3)
        while not isinstance(a, TPi):
            a = gen_fam_type(rng.randint, [], 3)
        s = gen_refining(rng.randint, a, 2)
        # Half the goals are above s by the rules, so that most of those
        # hold and reach a dependent codomain.
        t = (gen_above(rng.randint, s) if rng.randint(0, 1)
             else gen_refining(rng.randint, a, 2))
        q = SubsortQuery.make(self.SIG, (), s, t, a)
        algorithmic = algo_subsort(self.SIG, split(s), t)
        assert algorithmic == named_algo_subsort(self.SIG, [], split(s), t)
        assert algorithmic == intrinsic_subsort(q)
        oracle = declarative_subsort_oracle(q, 4)
        assert oracle == named_subsort_oracle(q, 4)
        if oracle:
            assert algorithmic

    def test_codomain_mentions_the_variable(self):
        # {x :: odd} pa x  <=  {x :: odd} pb x, but not at pc.
        a = TPi("x", NAT_T, TApp(TConst("p"), BVar(0)))
        s = SPi("x", ODD, NAT_T, SApp(SConst("pa"), BVar(0)))
        for goal, holds in ((SApp(SConst("pb"), BVar(0)), True),
                            (SApp(SConst("pc"), BVar(0)), False)):
            t = SPi("x", ODD, NAT_T, goal)
            q = SubsortQuery.make(self.SIG, (), s, t, a)
            assert algo_subsort(self.SIG, [s], t) is holds
            assert intrinsic_subsort(q) is holds
            assert declarative_subsort_oracle(q, 4) is holds


class TestSubsumptionFormulation:
    """If S1 <= S2 then everything checking at S1 checks at S2."""

    @given(st.integers(0, 2 ** 32 - 1))
    def test_subsumption(self, nat_sig, seed):
        rng = random.Random(seed)
        s1 = gen_sort(rng.randint, NAT, 2)
        s2 = gen_sort(rng.randint, NAT, 2)
        if not intrinsic_subsort(SubsortQuery.make(nat_sig, (), s1, s2, NAT_T)):
            return
        n = gen_eta_term(rng.randint, [("x", NAT)], NAT, rng.randint(0, 2))
        ctx = [CtxEntry("x", gen_sort(rng.randint, NAT, 1), NAT_T)]
        try:
            acheck(nat_sig, ctx, n, s1)
        except SortError:
            return
        acheck(nat_sig, ctx, n, s2)


class TestAlgoProperties:
    @given(st.integers(0, 2 ** 32 - 1))
    def test_monotone_in_delta(self, nat_sig, seed):
        rng = random.Random(seed)
        d = [gen_sort(rng.randint, NAT, 1) for _ in range(rng.randint(1, 3))]
        extra = [gen_sort(rng.randint, NAT, 1)]
        t = gen_sort(rng.randint, NAT, 2)
        if algo_subsort(nat_sig, d, t):
            assert algo_subsort(nat_sig, d + extra, t)
            assert algo_subsort(nat_sig, extra + d, t)

    @given(st.integers(0, 2 ** 32 - 1))
    def test_binter_split_is_equivalent(self, nat_sig, seed):
        rng = random.Random(seed)
        s = gen_sort(rng.randint, NAT, 3)
        rebuilt = binter(split(s))
        q1 = SubsortQuery.make(nat_sig, (), s, rebuilt, NAT_T)
        q2 = SubsortQuery.make(nat_sig, (), rebuilt, s, NAT_T)
        assert intrinsic_subsort(q1) and intrinsic_subsort(q2)

    def test_empty_delta_only_reaches_top(self, nat_sig):
        assert algo_subsort(nat_sig, [], STop())
        assert not algo_subsort(nat_sig, [], EVEN)
        assert algo_subsort(nat_sig, [], SPi("x", EVEN, NAT_T, STop()))


class TestOracleOnly:
    def test_oracle_is_not_complete_at_depth_zero(self, nat_sig):
        q = SubsortQuery.make(nat_sig, (), SInter(EVEN, ODD), EVEN, NAT_T)
        assert declarative_subsort_oracle(q, depth=0) is False
        assert declarative_subsort_oracle(q, depth=4) is True

    def test_oracle_uses_transitivity(self):
        from lfr import check_signature, parse_signature

        sig = check_signature(parse_signature(
            "nat : type. a << nat. b << nat. c << nat. a <: b. b <: c."))
        q = SubsortQuery.make(sig, (), SConst("a"), SConst("c"), NAT_T)
        assert declarative_subsort_oracle(q, depth=4)
        assert intrinsic_subsort(q)
