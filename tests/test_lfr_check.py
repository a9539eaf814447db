"""Refinement layer: elaboration, the algorithmic system, and its oracle."""

from __future__ import annotations

import ast
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lfr.lf
import lfr.lfr_check
import lfr.parser
import lfr.subsort
import lfr.subst
import lfr.translate

from lfr import (
    CheckError,
    acheck,
    asynth,
    check_context,
    check_signature,
    elaborate_sort,
    parse_signature,
    split,
    subsort_q,
)
from lfr.lf import LfError
from lfr.lfr_check import (Log, SortError, _acheck, _elab_class, _opened,
                           subsort_path)
from lfr.diagnostics import MetricExhausted
from lfr.subst import erase_type, eta_expand
from lfr.syntax import (
    App,
    BVar,
    Const,
    ConstRef,
    CPi,
    CSort,
    CtxEntry,
    FVar,
    KPi,
    KType,
    Lam,
    SApp,
    SConst,
    SInter,
    Signature,
    SPi,
    STop,
    SubDecl,
    TApp,
    TConst,
    TPi,
    alpha_eq,
)

from conftest import (DEP_TEXT, FUEL_TEXT, GOLDEN_DIR, GOLDEN_NAMES,
                      REJECTED_REFINEMENTS, TYPED_BASE, checkout_env)
from gen import (
    HINTS,
    NAT,
    REF_CONSTS,
    REF_TEXT,
    binders_text,
    deep_signature,
    deep_text,
    gen_class,
    gen_dep_sort,
    gen_eta_term,
    gen_sort,
    gen_type,
    mistype,
    numeral,
    refined,
    refining,
    rehint,
    sort_fit,
    wide_signature,
)
from oracles import (
    decl_check,
    decl_synth_all,
    opened_acheck,
    opened_elab_class,
    opened_elab_sort,
    stepwise_path,
)
from principles import (
    check_identity,
    identity_instances,
    indexed_sort_error,
    substitution_instances,
)

NAT_T = TConst("nat")
EVEN = SConst("even")
ODD = SConst("odd")
POS = SConst("pos")


class TestWorkedDerivations:
    def test_two_is_even(self, nat_sig):
        acheck(nat_sig, [], numeral(2), EVEN)

    def test_one_is_odd_and_positive(self, nat_sig):
        acheck(nat_sig, [], numeral(1), SInter(ODD, POS))

    def test_zero_is_not_odd(self, nat_sig):
        with pytest.raises(SortError):
            acheck(nat_sig, [], numeral(0), ODD)
        assert not decl_check(nat_sig, [], numeral(0), ODD, depth=10)

    def test_anything_checks_at_top(self, nat_sig):
        acheck(nat_sig, [], Lam("q", BVar(0)), STop())
        acheck(nat_sig, [], numeral(1), STop())

    def test_odd_is_positive_by_subsorting(self, nat_sig):
        acheck(nat_sig, [], numeral(3), POS)

    def test_even_is_not_positive(self, nat_sig):
        # No even <: pos edge was declared; 2 only reaches pos via # -> pos.
        acheck(nat_sig, [], numeral(2), POS)
        with pytest.raises(SortError):
            acheck(nat_sig, [], numeral(0), POS)


class TestAsynth:
    def test_synthesis_set_of_one(self, nat_sig):
        assert asynth(nat_sig, [], numeral(1)) == [ODD, POS]

    def test_synthesis_set_of_zero(self, nat_sig):
        assert asynth(nat_sig, [], numeral(0)) == [EVEN]

    def test_variable_uses_context(self, nat_sig):
        ctx = [CtxEntry("x", SInter(EVEN, POS), NAT_T)]
        assert asynth(nat_sig, ctx, FVar("x")) == [EVEN, POS]

    def test_unknown_constant(self, nat_sig):
        with pytest.raises(SortError) as info:
            asynth(nat_sig, [], Const("nonesuch"))
        assert info.value.kind == "no-refinement-declared"

    def test_split_preserves_order(self):
        s = SInter(SInter(EVEN, ODD), POS)
        assert split(s) == [EVEN, ODD, POS]
        assert split(STop()) == []

    def test_empty_synthesis_is_not_eager(self, nat_sig):
        # s applied to a top-sorted variable synthesizes only pos.
        ctx = [CtxEntry("x", STop(), NAT_T)]
        assert asynth(nat_sig, ctx, App(Const("s"), FVar("x"))) == [POS]


class TestOracleAgreement:
    """The deterministic system decides exactly the declarative rules."""

    @given(st.integers(0, 2 ** 32 - 1))
    def test_acheck_matches_declarative_search(self, nat_sig, seed):
        rng = random.Random(seed)
        ctx_sorts = [gen_sort(rng.randint, NAT, 1) for _ in range(2)]
        ctx = [CtxEntry(n, s, NAT_T)
               for n, s in zip(("x", "y"), ctx_sorts)]
        n = gen_eta_term(rng.randint, [("x", NAT), ("y", NAT)], NAT,
                         rng.randint(0, 2))
        s = gen_sort(rng.randint, NAT, 2)
        algo = True
        try:
            acheck(nat_sig, ctx, n, s)
        except SortError:
            algo = False
        oracle = decl_check(nat_sig, ctx, n, s, depth=12)
        assert algo == oracle

    @given(st.integers(0, 2 ** 32 - 1))
    def test_asynth_is_declaratively_sound(self, nat_sig, seed):
        rng = random.Random(seed)
        ctx = [CtxEntry("x", gen_sort(rng.randint, NAT, 1), NAT_T)]
        r = gen_eta_term(rng.randint, [("x", NAT)], NAT, rng.randint(0, 2))
        derivable = decl_synth_all(nat_sig, ctx, r, depth=12)
        for s in asynth(nat_sig, ctx, r):
            assert any(alpha_eq(s, d) for d in derivable)


class TestPrinciples:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_identity(self, name, checked_goldens):
        sig = checked_goldens[name]
        instances = identity_instances(sig)
        assert instances
        for ctx, sort, rty in instances:
            check_identity(sig, ctx, sort, rty)

    def test_substitution(self, nat_sig):
        assert substitution_instances(nat_sig, random.Random(7), 8) == 8


class TestElaboration:
    def test_fills_domain_types(self, nat_sig):
        for d in nat_sig:
            if isinstance(d, ConstRef):
                for spi in _spis(d.sort):
                    assert spi.dom_type is not None

    def test_domain_type_matches_refined_type(self, nat_sig):
        s_sort = nat_sig.merged_ref_sort("s")
        for spi in _spis(s_sort):
            assert alpha_eq(spi.dom_type, NAT_T)

    def test_indexed_sort_error(self, double_sig):
        err = indexed_sort_error(double_sig)
        assert err is not None
        assert err.kind == "subsort-failure"
        assert "argument 2" in err.message

    def test_indexed_sort_accepts_even_index(self, double_sig):
        ctx = [CtxEntry("X", STop(), NAT_T)]
        q = SApp(SApp(SConst("double*"), FVar("X")), numeral(2))
        a = TApp(TApp(TConst("double"), FVar("X")), numeral(2))
        out = elaborate_sort(double_sig, ctx, q, a)
        assert alpha_eq(out, q)

    def test_annotation_mismatch(self, nat_sig):
        with pytest.raises(SortError):
            # A function sort cannot refine the base type nat.
            elaborate_sort(nat_sig, [], SPi("x", EVEN, None, EVEN), NAT_T)


def _spis(s):
    match s:
        case SPi():
            yield s
            yield from _spis(s.dom_sort)
            yield from _spis(s.cod)
        case SInter(l, r):
            yield from _spis(l)
            yield from _spis(r)
        case _:
            return


class TestSignatureChecking:
    def test_declaration_order_violation(self):
        text = "nat : type. z : nat. z :: even. even << nat."
        with pytest.raises(CheckError):
            check_signature(parse_signature(text))

    def test_sort_fam_requires_known_family(self):
        # An explicit class parses fine; the checker rejects the reference.
        with pytest.raises(CheckError) as info:
            check_signature(parse_signature("even << nat :: sort."))
        assert "unknown type family" in str(info.value)

    def test_defaulted_class_requires_known_family_at_parse(self):
        from lfr import ParseError

        with pytest.raises(ParseError):
            parse_signature("even << nat.")

    def test_duplicate_sort_fam(self):
        text = "nat : type. even << nat. even << nat."
        with pytest.raises(CheckError) as info:
            check_signature(parse_signature(text))
        assert "twice" in str(info.value)

    def test_duplicate_type_fam(self):
        with pytest.raises(CheckError):
            check_signature(parse_signature("nat : type. nat : type."))

    @pytest.mark.parametrize("text", [
        "nat : type.\nz : nat.\nz : nat.\n",
        "nat : type.\nz : nat.\nz : type.\n",
        "z : type.\nnat : type.\nz : nat.\n",
    ])
    def test_type_fams_and_constants_share_a_namespace(self, text):
        with pytest.raises(CheckError) as info:
            check_signature(parse_signature(text, filename="in.lfr"))
        assert info.value.message == "z is declared twice"
        assert (info.value.span.line, info.value.span.col) == (3, 1)

    def test_sort_fam_may_reuse_a_type_name(self):
        sig = check_signature(parse_signature(
            "nat : type. nat << nat. z : nat. z :: nat."))
        assert sig.sort_fam("nat").refines == "nat"

    def test_merge_versus_strict(self):
        text = ("nat : type. z : nat. even << nat. odd << nat. "
                "z :: even. z :: #.")
        sig = check_signature(parse_signature(text))
        assert sig.merged_ref_sort("z") == SInter(EVEN, STop())
        with pytest.raises(CheckError):
            check_signature(parse_signature(text), strict=True)

    def test_subsort_needs_shared_family(self):
        text = ("nat : type. bool : type. even << nat. tt << bool. "
                "even <: tt.")
        with pytest.raises(CheckError) as info:
            check_signature(parse_signature(text))
        assert "shared" in str(info.value)

    def test_subsort_needs_matching_classes(self):
        text = ("nat : type. d : nat -> type. a << d :: even -> sort. "
                "even << nat. b << d. a <: b.")
        with pytest.raises(CheckError):
            check_signature(parse_signature(text))

    def test_refinement_restriction_gate(self):
        # The refined constant must exist at the LF layer first.
        with pytest.raises(CheckError):
            check_signature(parse_signature(
                "nat : type. even << nat. ghost :: even."))

    def test_bad_odd_rejected(self):
        from conftest import GOLDEN_DIR

        text = (GOLDEN_DIR / "bad-odd.lfr").read_text()
        with pytest.raises(SortError) as info:
            check_signature(parse_signature(text))
        assert info.value.kind == "subsort-failure"


CLOSURE_SORTS = ("a", "b", "c", "d", "e", "f")


def _reachable(edges, start: str) -> set[str]:
    """Reflexive-transitive reach of start, recomputed from the edge list."""
    seen = {start}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            if a in seen and b not in seen:
                seen.add(b)
                changed = True
    return seen


class TestClosure:
    def test_contains_declared_edge(self, nat_sig):
        assert subsort_q(nat_sig, ODD, POS)

    def test_reflexive(self, nat_sig):
        for s in (EVEN, ODD, POS):
            assert subsort_q(nat_sig, s, s)

    def test_transitive(self):
        text = ("nat : type. a << nat. b << nat. c << nat. "
                "a <: b. b <: c.")
        sig = check_signature(parse_signature(text))
        assert subsort_q(sig, SConst("a"), SConst("c"))
        assert not subsort_q(sig, SConst("c"), SConst("a"))

    def test_relates_only_matching_spines(self, double_sig):
        q1 = SApp(SApp(SConst("double*"), numeral(0)), numeral(0))
        q2 = SApp(SApp(SConst("double*"), numeral(0)), numeral(2))
        assert subsort_q(double_sig, q1, q1)
        assert not subsort_q(double_sig, q1, q2)

    def test_no_cross_family_relation(self, nat_sig):
        assert not subsort_q(nat_sig, EVEN, ODD)
        assert not subsort_q(nat_sig, POS, ODD)

    @given(st.lists(st.tuples(st.sampled_from(CLOSURE_SORTS),
                              st.sampled_from(CLOSURE_SORTS)), max_size=16))
    def test_live_view_matches_reachability(self, edges):
        # Edges include cycles, self-loops and repeats.  `sig` is queried
        # before any edge exists and after every append, so its memo must
        # be dropped whenever it gains an edge; `fresh` has never been
        # queried.  A path is the heads the translator's old coercion
        # search walked (tests/oracles.py).
        sig = Signature()
        for i in range(len(edges) + 1):
            if i:
                sig.append(SubDecl(*edges[i - 1]))
            fresh = Signature([SubDecl(*e) for e in edges[:i]])
            for s1 in CLOSURE_SORTS:
                for s2 in CLOSURE_SORTS:
                    q1, q2 = SConst(s1), SConst(s2)
                    want = s2 in _reachable(edges[:i], s1)
                    assert subsort_q(sig, q1, q2) == want
                    assert subsort_q(fresh, q1, q2) == want
                    if want:
                        assert subsort_path(sig, q1, q2) == \
                            stepwise_path(edges[:i], s1, s2)

    def test_check_is_linear_in_wide_signatures(self):
        # ROADMAP's Wide family at n=800 (4804 declarations).  On a shared
        # 2-vCPU host, rebuilding the closure per `<:` took about 27 s, and
        # with the search memoized on the signature it takes about 0.04 s.
        raw = wide_signature(800)
        start = time.perf_counter()
        check_signature(raw)
        assert time.perf_counter() - start < 2.0


class TestDeepTerms:
    # ROADMAP's Deep family: `s :: even -> odd ^ odd -> even ^ # -> pos`
    # meets every argument of s^d z with three function components.

    def test_check_is_fast_in_depth(self):
        # Synthesizing the argument once per component cost about 2^d
        # synthesis calls (0.19 s at d=12, doubling per level); shared,
        # d=100 takes about 0.04 s on a 2-vCPU shared host.
        for d, rejected in ((100, False), (101, True)):
            raw = deep_signature(d)
            start = time.perf_counter()
            try:
                check_signature(raw)
            except SortError as e:
                assert rejected and e.span.line == 13
            else:
                assert not rejected
            assert time.perf_counter() - start < 1.0

    def test_substitutions_grow_linearly_in_depth(self, monkeypatch):
        import lfr.lfr_check as lfr_check

        # The walks that instantiate a classifier with the arguments of a
        # spine; one with no arguments returns at once.
        calls = []
        real = lfr_check.inst_spine

        def counted(t, done):
            if done:
                calls.append(1)
            return real(t, done)

        monkeypatch.setattr(lfr_check, "inst_spine", counted)
        check_signature(deep_signature(40))
        at_40 = len(calls)
        calls.clear()
        check_signature(deep_signature(80))
        assert 0 < len(calls) <= 2 * at_40


class TestContextChecking:
    def test_elaborates_entries_in_order(self, double_sig):
        raw = [
            CtxEntry("X", STop(), NAT_T),
            CtxEntry("d",
                     SApp(SApp(SConst("double*"), FVar("X")), numeral(0)),
                     TApp(TApp(TConst("double"), FVar("X")), numeral(0))),
        ]
        out = check_context(double_sig, raw)
        assert [e.name for e in out] == ["X", "d"]

    def test_rejects_ill_sorted_entry(self, double_sig):
        raw = [CtxEntry("d",
                        SApp(SApp(SConst("double*"), numeral(0)), numeral(1)),
                        TApp(TApp(TConst("double"), numeral(0)), numeral(1)))]
        with pytest.raises(SortError):
            check_context(double_sig, raw)

    def test_rejects_unknown_type(self, nat_sig):
        from lfr.lf import LfError

        with pytest.raises(LfError):
            check_context(nat_sig, [CtxEntry("x", EVEN, TConst("ghost"))])


def _audited(judge) -> list:
    """The (ctx, q, goal, ok) of each comparison judge(log) logs, as the
    audit of check_signature receives it."""
    log = Log([], [])
    judge(log)
    return [_opened(*call) for call in log.compared]


def _audit_calls(text: str, audit=None) -> list:
    """The (ctx, q, goal, ok) check_signature audits on text, accepted or
    not; audit, when given, also sees each call."""
    calls = []

    def record(sig, ctx, q, goal, ok):
        calls.append((ctx, q, goal, ok))
        if audit is not None:
            audit()

    try:
        check_signature(parse_signature(text), audit=record)
    except SortError:
        pass
    return calls


class TestAudit:
    def test_audit_sees_every_atomic_comparison(self, nat_sig):
        calls = [(q, goal, ok) for _, q, goal, ok in _audited(
            lambda log: _acheck(nat_sig, [], (), numeral(1),
                                SInter(ODD, POS), log))]
        assert (ODD, ODD, True) in calls
        assert any(goal == POS and ok for _, goal, ok in calls)

    def test_audit_reset(self, nat_sig):
        # An audit ends with its check: a later check without one, and a
        # judgment, call nothing.
        text = (GOLDEN_DIR / "coherence.lfr").read_text()
        calls = _audit_calls(text)
        seen = len(calls)
        check_signature(parse_signature(text))
        acheck(nat_sig, [], numeral(0), EVEN)
        assert seen > 0 and len(calls) == seen

    @pytest.mark.parametrize("text, count", [
        ((GOLDEN_DIR / "bad-odd.lfr").read_text(), 1),
        (deep_text(13), 20479),
    ], ids=["bad-odd", "deep-13"])
    def test_audit_sees_the_failing_declaration(self, text, count):
        calls = _audit_calls(text)
        assert len(calls) == count
        assert calls[-1][3] is False

    def test_audits_nest(self):
        # An audit that runs an audited check sees only its own check's
        # comparisons, and so does the check it runs.
        inner = []
        outer = _audit_calls(
            (GOLDEN_DIR / "class-inter.lfr").read_text(),
            lambda: inner.append(len(_audit_calls(
                (GOLDEN_DIR / "coherence.lfr").read_text()))))
        assert len(outer) == 9
        assert inner == [5] * 9


class TestDiagnostics:
    def test_kinds_are_the_documented_enum(self, nat_sig, double_sig):
        kinds = set()
        for exc in (
            _catch(lambda: acheck(nat_sig, [], numeral(0), ODD)),
            _catch(lambda: asynth(nat_sig, [], Const("nope"))),
            _catch(lambda: acheck(nat_sig, [], Lam("x", BVar(0)), EVEN)),
            _catch(lambda: acheck(
                nat_sig, [CtxEntry("x", STop(), NAT_T)], FVar("x"), EVEN)),
        ):
            assert exc is not None
            kinds.add(exc.kind)
        assert kinds <= {"no-refinement-declared", "subsort-failure",
                         "annotation-mismatch", "empty-synthesis"}
        assert "empty-synthesis" in kinds

    def test_unknown_kind_raises_under_optimize_flag(self):
        # Under `python -O` an `assert` would let a bogus kind through.
        code = ("from lfr.lf import LfError\n"
                "from lfr.lfr_check import SortError\n"
                "for error in (SortError, LfError):\n"
                "    try:\n"
                "        error('bogus', 'm')\n"
                "    except TypeError:\n"
                "        continue\n"
                "    raise SystemExit(f'{error.__name__} took a bogus kind')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True,
                              env=checkout_env())
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("sorts, kind, message", [
        # Every candidate of the class synthesizes w, and each rewraps
        # the same failure.
        ("pp << p :: (even -> sort) ^ (odd -> sort) ^ (pos -> sort).\n"
         "k : p w.\nk :: pp w.",
         "no-refinement-declared",
         "argument 1 of pp: constant w has no refinement declaration"),
        # Two components of s reject w; only # -> pos accepts it.
        ("pp << p :: even -> sort.\nk : p (s w).\nk :: pp (s w).",
         "subsort-failure",
         "argument 1 of pp: term s w: none of the synthesized sorts [pos] "
         "is a subsort of even"),
    ], ids=["class", "sort"])
    def test_unrefined_argument_under_three_components(self, sorts, kind,
                                                        message):
        text = ("nat : type. z : nat. s : nat -> nat. w : nat.\n"
                "even << nat. odd << nat. pos << nat. odd <: pos.\n"
                "z :: even. s :: even -> odd ^ odd -> even ^ # -> pos.\n"
                "p : nat -> type.\n" + sorts)
        with pytest.raises(SortError) as info:
            check_signature(parse_signature(text))
        assert (info.value.kind, info.value.message) == (kind, message)
        assert info.value.span.line == 7

    def test_no_diagnostic_on_success(self, nat_sig):
        trace = []
        acheck(nat_sig, [], numeral(2), EVEN, trace=trace)
        assert "switch" in trace and "const" in trace


class TestFuel:
    """Running out of fuel inside the sort checker stops the check: it is
    never read as a component that rejects its argument, which would
    leave the synthesis set without it."""

    @pytest.mark.parametrize("term, sort, fuel", [
        # d z's codomain sort qe x, set to z when the spine ends.
        (App(Const("d"), Const("z")), SApp(SConst("qe"), Const("z")), 2),
        # c's second domain sort, pe x -> even with its type, set to z.
        (App(App(Const("c"), Const("z")), Lam("y", Const("z"))), EVEN, 4),
    ], ids=["codomain", "domain"])
    def test_exhaustion_is_not_a_sort_failure(self, monkeypatch, term, sort,
                                              fuel):
        sig = check_signature(parse_signature(FUEL_TEXT))
        monkeypatch.setenv("LFR_FUEL", str(fuel))
        assert [alpha_eq(q, sort) for q in asynth(sig, [], term)] == [True]
        acheck(sig, [], term, sort)
        monkeypatch.setenv("LFR_FUEL", str(fuel - 1))
        with pytest.raises(MetricExhausted):
            asynth(sig, [], term)
        with pytest.raises(MetricExhausted):
            acheck(sig, [], term, sort)


P_T = TConst("p")
PE, QE = SConst("pe"), SConst("qe")


def _s(t):
    return App(Const("s"), t)


def _pe(t):
    return SApp(PE, t)


# {x :: even} {h :: pe x} pe (s (s x)), and the term [x] [h] k x, which
# synthesizes pe x only.
_PE_SS = SPi("x", EVEN, NAT_T, SPi("h", _pe(BVar(0)), TApp(P_T, BVar(0)),
                                   _pe(_s(_s(BVar(1))))))
_K_X = Lam("x", Lam("h", App(Const("k"), BVar(1))))


class TestBinderDiagnostics:
    """Kinds and messages of failures under function sorts and classes:
    a bound variable is shown by its binder's hint, primed away from the
    context's names and from the names of the binders outside it."""

    @pytest.mark.parametrize("call, kind, message", [
        (lambda sig: acheck(sig, [], _K_X, _PE_SS), "subsort-failure",
         "term k x: none of the synthesized sorts [pe x] is a subsort of "
         "pe (s (s x))"),
        (lambda sig: acheck(sig, [CtxEntry("x", EVEN, NAT_T)], _K_X, _PE_SS),
         "subsort-failure",
         "term k x': none of the synthesized sorts [pe x'] is a subsort of "
         "pe (s (s x'))"),
        (lambda sig: acheck(sig, [], Lam("x", App(Const("k"), BVar(0))),
                            SPi("x", EVEN, NAT_T, SPi(
                                "h", _pe(BVar(0)), TApp(P_T, BVar(0)),
                                _pe(BVar(1))))),
         "annotation-mismatch",
         "term k x is not a function but was checked against function sort "
         "pe x -> pe x"),
        (lambda sig: acheck(sig, [], Lam("x", BVar(0)),
                            SPi("x", STop(), NAT_T, EVEN)),
         "empty-synthesis", "term x synthesizes no sorts"),
        (lambda sig: acheck(sig, [], Lam("x", Lam("y", BVar(0))),
                            SPi("x", EVEN, NAT_T, _pe(BVar(0)))),
         "annotation-mismatch", "function term checked against atomic sort pe x"),
        (lambda sig: elaborate_sort(
            sig, [], SPi("x", EVEN, None, SPi("h", _pe(BVar(0)), None,
                                               _pe(BVar(1)))),
            TPi("x", NAT_T, TApp(P_T, BVar(0)))),
         "annotation-mismatch",
         "function sort pe x -> pe x cannot refine non-function type p x"),
        (lambda sig: elaborate_sort(
            sig, [], SPi("x", EVEN, None, _pe(BVar(0))),
            TPi("x", NAT_T, TApp(P_T, _s(BVar(0))))),
         "annotation-mismatch", "sort pe x refines p x, not p (s x)"),
        (lambda sig: elaborate_sort(
            sig, [CtxEntry("x", EVEN, NAT_T)], SPi("x", EVEN, None,
                                                  _pe(BVar(0))),
            TPi("x", NAT_T, TApp(P_T, _s(BVar(0))))),
         "annotation-mismatch", "sort pe x' refines p x', not p (s x')"),
        (lambda sig: elaborate_sort(
            sig, [], SPi("x", EVEN, None, SApp(QE, BVar(0))),
            TPi("x", NAT_T, TApp(TConst("q"), BVar(0)))),
         "annotation-mismatch", "sort qe x is not fully applied"),
        (lambda sig: elaborate_sort(
            sig, [], SPi("x", EVEN, None, SPi("x", EVEN, None,
                                               _pe(_s(BVar(0))))),
            TPi("x", NAT_T, TPi("x", NAT_T, TApp(P_T, _s(BVar(0)))))),
         "subsort-failure",
         "argument 1 of pe: term s x': none of the synthesized sorts "
         "[odd, pos] is a subsort of even"),
    ], ids=["check-two-deep", "check-hint-meets-context", "not-a-function",
            "empty-synthesis", "function-at-atom", "pi-at-atom",
            "refines-other-type", "refines-hint-meets-context",
            "not-fully-applied", "inner-hint-primed"])
    def test_message(self, dep_sig, call, kind, message):
        with pytest.raises(SortError) as info:
            call(dep_sig)
        assert (info.value.kind, info.value.message) == (kind, message)

    @pytest.mark.parametrize("decl, kind, message", [
        ("rr << r :: {x :: even} {h :: pe (s (s x))} sort.",
         "annotation-mismatch",
         "sort pe (s (s x)) refines p (s (s x)), not p x"),
        ("rr << r :: {x :: even} {h :: pe (s x)} sort.", "subsort-failure",
         "argument 1 of pe: term s x: none of the synthesized sorts "
         "[odd, pos] is a subsort of even"),
        ("rr << q :: {x :: even} {y :: pe x} sort.", "annotation-mismatch",
         "sort pe x refines p x, not nat"),
    ], ids=["refines-other-type", "argument", "domain-at-other-type"])
    def test_class_message(self, decl, kind, message):
        with pytest.raises(SortError) as info:
            check_signature(parse_signature(DEP_TEXT + decl))
        assert (info.value.kind, info.value.message,
                info.value.span.line) == (kind, message, 9)

    def test_audit_sees_binders_by_name(self, dep_sig):
        calls = [([(e.name, e.sort, e.type) for e in ctx], q, goal, ok)
                 for ctx, q, goal, ok in _audited(
                     lambda log: _acheck(
                         dep_sig, [CtxEntry("x", EVEN, NAT_T)], (),
                         Lam("x", App(Const("k"), BVar(0))),
                         SPi("x", EVEN, NAT_T, _pe(BVar(0))), log))]
        x = FVar("x'")
        assert calls == [
            ([("x", EVEN, NAT_T), ("x'", EVEN, NAT_T)], EVEN, EVEN, True),
            ([("x", EVEN, NAT_T), ("x'", EVEN, NAT_T)], _pe(x), _pe(x), True)]


# The public judgments promise nothing of the type they are given: pp t
# refines p t, whose argument t is no nat.
PREMISE_TEXT = ("nat : type. z : nat. b : type. t : b. p : nat -> type. "
                "even << nat. z :: even. pp << p :: even -> sort.")
PREMISE_ERROR = "argument 1 of pp: type mismatch: expected nat, synthesized b"


class TestTypedFormation:
    """check_signature and check_context LF-check a type (or kind) before
    they elaborate a sort (or class) against it, and an atom whose spine
    refines that very type takes its arguments' LF premises from there.
    Where the types differ, or nothing was checked, every premise runs."""

    @pytest.mark.parametrize("text, premises", [
        (lambda: (GOLDEN_DIR / "cbv.lfr").read_text(), 2),
        (lambda: binders_text(8), 16),
        (lambda: (GOLDEN_DIR / "double.lfr").read_text(), 0),
        (lambda: deep_text(12), 0),
    ], ids=["cbv", "binders-8", "double", "deep-12"])
    def test_premise_count(self, monkeypatch, text, premises):
        # The premises left are the coercion steps' formations: at the
        # parent of this change they were 33, 83, 6 and 1.
        raw = parse_signature(text())
        calls = [0]
        lf_check = lfr.lfr_check._lf_check

        def counted(*args):
            calls[0] += 1
            return lf_check(*args)
        monkeypatch.setattr(lfr.lfr_check, "_lf_check", counted)
        check_signature(raw)
        assert calls[0] == premises

    def test_public_elaboration_keeps_premise(self):
        sig = check_signature(parse_signature(PREMISE_TEXT))
        pp_t = SApp(SConst("pp"), Const("t"))
        p_t = TApp(TConst("p"), Const("t"))
        for elab in (elaborate_sort, opened_elab_sort):
            with pytest.raises(LfError) as info:
                elab(sig, [], pp_t, p_t)
            assert info.value.message == PREMISE_ERROR

    def test_class_elaboration_keeps_premise(self):
        sig = check_signature(parse_signature(PREMISE_TEXT))
        cls = CPi("x", SApp(SConst("pp"), Const("t")), None, CSort())
        kind = KPi("x", TApp(TConst("p"), Const("t")), KType())
        with pytest.raises(LfError) as info:
            _elab_class(sig, [], (), cls, kind, None)
        assert info.value.message == PREMISE_ERROR

    @pytest.mark.parametrize("tail, error, kind, message, span",
                             REJECTED_REFINEMENTS.values(),
                             ids=REJECTED_REFINEMENTS)
    def test_rejected_refinement(self, tail, error, kind, message, span):
        with pytest.raises((SortError, LfError)) as info:
            check_signature(parse_signature(TYPED_BASE + tail))
        e = info.value
        assert (type(e).__name__, e.kind, e.message, tuple(e.span)[1:]) == (
            error, kind, message, span)

    @pytest.mark.parametrize("sort, type_, error, message", [
        (_pe(_s(Const("z"))), TApp(P_T, _s(Const("z"))), SortError,
         "argument 1 of pe: term s z: none of the synthesized sorts "
         "[odd, pos] is a subsort of even"),
        (_pe(Const("t")), TApp(P_T, Const("z")), LfError,
         "argument 1 of pe: type mismatch: expected nat, synthesized b"),
        (_pe(Const("t")), TApp(P_T, Const("t")), LfError,
         "type mismatch: expected nat, synthesized b"),
        (_pe(_s(_s(Const("z")))), TApp(P_T, Const("z")), SortError,
         "sort pe (s (s z)) refines p (s (s z)), not p z"),
    ], ids=["sort-argument", "lf-argument", "ill-typed-type", "other-type"])
    def test_context_rejects(self, sort, type_, error, message):
        sig = check_signature(parse_signature(TYPED_BASE))
        with pytest.raises(error) as info:
            check_context(sig, [CtxEntry("x", sort, type_)])
        assert info.value.message == message


def _catch(f):
    try:
        f()
    except SortError as e:
        return e
    return None


REF_SIG = check_signature(parse_signature(REF_TEXT))


def reference_instances(seed: int):
    """(which, ctx, subject): a sort with a type, a class with a kind, or
    an eta-long term with an elaborated sort, over a context of x and x'
    and sometimes y; binder hints are drawn from names the context uses.
    Some sorts and classes are mistyped, and most of those come with the
    type or kind they refine: the public judgments promise nothing of it,
    so every LF premise must still run."""
    choose = random.Random(seed).randint

    def hint():
        return HINTS[choose(0, len(HINTS) - 1)]

    names = ["x", "x'"] + (["y"] if choose(0, 1) else [])
    gctx = [(x, NAT) for x in names]
    ctx = [CtxEntry(x, (EVEN, ODD, STop())[choose(0, 2)], NAT_T)
           for x in names]
    which = choose(0, 3)
    if which == 3:
        # A variable at a sort that refines a dependent type, expanded:
        # the sorts of its arguments mention the binders before them.
        a = rehint(gen_type(choose, gctx, choose(1, 3)), hint)
        s = elaborate_sort(REF_SIG, ctx, refining(choose, a), a)
        return 2, ctx + [CtxEntry("f", s, a)], (eta_expand(a, FVar("f")), s)
    gen = gen_class if which == 1 else gen_dep_sort
    s = rehint(sort_fit(choose, gen(choose, gctx, choose(0, 3))), hint)
    if which < 2 and not choose(0, 3):
        s = mistype(s)
    a = refined(s) or TApp(TConst("t"), Const("z"))
    if which == 0 and not choose(0, 3):
        a = rehint(gen_type(choose, gctx, choose(0, 2)), hint)
    if which < 2:
        return which, ctx, (s, a)
    try:
        s = elaborate_sort(REF_SIG, ctx, s, a)
    except (SortError, LfError):
        return 0, ctx, (s, a)
    n = gen_eta_term(choose, gctx, erase_type(a), choose(0, 3), REF_CONSTS)
    return 2, ctx, (rehint(n, hint), s)


def _ref_outcome(call, *args):
    try:
        return "ok", call(*args)
    except SortError as e:
        return e.kind, e.message
    except LfError as e:
        return "lf", e.kind, e.message


class TestOpenedReference:
    """Elaboration and checking against copies that open every binder
    with a name (tests/oracles.py): the same verdicts, results, kinds and
    messages."""

    OURS = (
        lambda ctx, s, a: elaborate_sort(REF_SIG, ctx, s, a),
        lambda ctx, c, k: _elab_class(REF_SIG, ctx, (), c, k, None),
        lambda ctx, n, s: acheck(REF_SIG, ctx, n, s))
    THEIRS = (opened_elab_sort, opened_elab_class, opened_acheck)

    @settings(max_examples=400)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_judgments_match(self, seed):
        which, ctx, subject = reference_instances(seed)
        ours = _ref_outcome(self.OURS[which], ctx, *subject)
        theirs = _ref_outcome(self.THEIRS[which], REF_SIG, ctx, *subject)
        assert ours == theirs

    @pytest.mark.parametrize("cls, sort, refines", [
        ("sort ^ sort", SConst("s"), NAT_T),
        ("sort ^ #", SConst("s"), NAT_T),
        ("# ^ #", SConst("s"), NAT_T),
        ("{x :: even} sort ^ sort", SApp(SConst("s"), Const("z")),
         TApp(TConst("p"), Const("z"))),
    ], ids=["sort^sort", "sort^top", "top^top", "indexed"])
    def test_class_intersection_at_sort(self, cls, sort, refines):
        # Each `sort` side of an intersection the spine leaves is a
        # formation; `#` alone is none.
        sig = check_signature(parse_signature(
            "nat : type. z : nat. even << nat. z :: even. "
            "p : nat -> type. "
            f"s << {'nat' if refines == NAT_T else 'p'} :: {cls}."))
        ours = _ref_outcome(elaborate_sort, sig, [], sort, refines)
        theirs = _ref_outcome(opened_elab_sort, sig, [], sort, refines)
        assert ours == theirs
        assert ours[0] == ("annotation-mismatch" if cls == "# ^ #" else "ok")


# The operations a judgment needs to open a binder: opening, closing,
# collecting free names, and picking a fresh name.
OPENING = {"open_at", "close_at", "open_lfi", "close_lfi", "free_vars",
           "fresh_name", "pool_name"}
# The translator shows its binders under pool names, but opens none of
# them in either language.
TRANSLATOR_OPENING = OPENING - {"fresh_name", "pool_name"}
# Eta-expansion scans its input's free names once, for the hints of the
# lambdas it builds by index.
SUBST_OPENING = OPENING - {"free_vars", "pool_name"}
# Opening or closing a binder, in either language.
BINDING = {"open_at", "close_at", "open_lfi", "close_lfi"}


def _taken(tree: ast.Module) -> set[str]:
    """The names a module's tree imports, and the attributes it reads."""
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            taken |= {a.name.rpartition(".")[2] for a in node.names}
        elif isinstance(node, ast.Attribute):
            taken.add(node.attr)
    return taken


class TestBinderDiscipline:
    """The source judgments descend binders by index and name them only
    for messages, through syntax.binder_names; the translator builds its
    binders by index and only shows their names; the parsers turn a bound
    name into its index as they read it; subsorting reads both codomains
    under the binder they share; and substitution and eta-expansion count
    binders.  None of these modules takes an operation that opening a
    binder needs, and no module in the package opens or closes one."""

    @pytest.mark.parametrize("module, forbidden",
                             ((lfr.lf, OPENING), (lfr.lfr_check, OPENING),
                              (lfr.translate, TRANSLATOR_OPENING),
                              (lfr.parser, OPENING), (lfr.subsort, OPENING),
                              (lfr.subst, SUBST_OPENING)),
                             ids=("lf", "lfr_check", "translate", "parser",
                                  "subsort", "subst"))
    def test_takes_no_opening_operation(self, module, forbidden):
        tree = ast.parse(Path(module.__file__).read_text())
        assert not _taken(tree) & forbidden

    @pytest.mark.parametrize("path", sorted(
        Path(lfr.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
    def test_no_module_opens_or_closes(self, path):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not (defined | _taken(tree)) & BINDING
