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

from lfr import (
    CheckError,
    acheck,
    asynth,
    build_closure,
    check_context,
    check_signature,
    elaborate_sort,
    parse_signature,
    split,
    subsort_q,
)
from lfr.lf import LfError
from lfr.lfr_check import SortError, _elab_class, set_subsort_audit
from lfr.subst import erase_type, eta_expand
from lfr.syntax import (
    App,
    Arrow,
    Base,
    BVar,
    CInter,
    Const,
    ConstRef,
    CPi,
    CSort,
    CTop,
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

from conftest import DEP_TEXT, GOLDEN_NAMES, checkout_env
from gen import (
    HO_CONSTS,
    NAT,
    deep_signature,
    gen_class,
    gen_dep_sort,
    gen_eta_term,
    gen_sort,
    gen_type,
    numeral,
    rehint,
    wide_signature,
)
from oracles import (
    decl_check,
    decl_synth_all,
    opened_acheck,
    opened_elab_class,
    opened_elab_sort,
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
        assert info.value.diag.kind == "no-refinement-declared"

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
        assert err.diag.kind == "subsort-failure"
        assert "argument 2" in err.diag.message

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
        assert info.value.diag.kind == "subsort-failure"


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
        closure = build_closure(nat_sig)
        assert subsort_q(closure, ODD, POS)

    def test_reflexive(self, nat_sig):
        closure = build_closure(nat_sig)
        for s in (EVEN, ODD, POS):
            assert subsort_q(closure, s, s)

    def test_transitive(self):
        text = ("nat : type. a << nat. b << nat. c << nat. "
                "a <: b. b <: c.")
        sig = check_signature(parse_signature(text))
        closure = build_closure(sig)
        assert subsort_q(closure, SConst("a"), SConst("c"))
        assert not subsort_q(closure, SConst("c"), SConst("a"))

    def test_relates_only_matching_spines(self, double_sig):
        closure = build_closure(double_sig)
        q1 = SApp(SApp(SConst("double*"), numeral(0)), numeral(0))
        q2 = SApp(SApp(SConst("double*"), numeral(0)), numeral(2))
        assert subsort_q(closure, q1, q1)
        assert not subsort_q(closure, q1, q2)

    def test_no_cross_family_relation(self, nat_sig):
        closure = build_closure(nat_sig)
        assert not subsort_q(closure, EVEN, ODD)
        assert not subsort_q(closure, POS, ODD)

    @given(st.lists(st.tuples(st.sampled_from(CLOSURE_SORTS),
                              st.sampled_from(CLOSURE_SORTS)), max_size=16))
    def test_live_view_matches_reachability(self, edges):
        # Edges include cycles, self-loops and repeats.  `early` is made
        # before any edge exists and queried after every append, so its
        # memo must be dropped whenever the signature gains an edge.
        sig = Signature()
        early = build_closure(sig)
        for i in range(len(edges) + 1):
            if i:
                sig.append(SubDecl(*edges[i - 1]))
            fresh = build_closure(sig)
            for s1 in CLOSURE_SORTS:
                for s2 in CLOSURE_SORTS:
                    want = s2 in _reachable(edges[:i], s1)
                    assert early.related(s1, s2) == want
                    assert fresh.related(s1, s2) == want

    def test_check_is_linear_in_wide_signatures(self):
        # ROADMAP's Wide family at n=800 (4804 declarations).  On a shared
        # 2-vCPU host, rebuilding the closure per `<:` took about 27 s and
        # the live view takes about 0.05 s.
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

        calls = []
        real = lfr_check.hsubst_syntax

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(lfr_check, "hsubst_syntax", counted)
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


class TestAudit:
    def test_audit_sees_every_atomic_comparison(self, nat_sig):
        calls = []
        set_subsort_audit(lambda ctx, q, goal, ok: calls.append((q, goal, ok)))
        try:
            acheck(nat_sig, [], numeral(1), SInter(ODD, POS))
        finally:
            set_subsort_audit(None)
        assert (ODD, ODD, True) in calls
        assert any(goal == POS and ok for _, goal, ok in calls)

    def test_audit_reset(self, nat_sig):
        calls = []
        set_subsort_audit(lambda *a: calls.append(a))
        set_subsort_audit(None)
        acheck(nat_sig, [], numeral(0), EVEN)
        assert calls == []


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
            kinds.add(exc.diag.kind)
        assert kinds <= {"no-refinement-declared", "subsort-failure",
                         "annotation-mismatch", "empty-synthesis"}
        assert "empty-synthesis" in kinds

    def test_unknown_kind_raises_under_optimize_flag(self):
        # Under `python -O` an `assert` would let a bogus kind through.
        code = ("from lfr.lfr_check import SortDiagnostic\n"
                "try:\n"
                "    SortDiagnostic('bogus', 'm')\n"
                "except TypeError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
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
        assert (info.value.diag.kind, info.value.diag.message) == (kind,
                                                                   message)
        assert info.value.span.line == 7

    def test_no_diagnostic_on_success(self, nat_sig):
        trace = []
        acheck(nat_sig, [], numeral(2), EVEN, trace=trace)
        assert "switch" in trace and "const" in trace


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
        assert (info.value.diag.kind, info.value.diag.message) == (kind,
                                                                   message)

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
        assert (info.value.diag.kind, info.value.diag.message,
                info.value.span.line) == (kind, message, 9)

    def test_audit_sees_binders_by_name(self, dep_sig):
        calls = []
        set_subsort_audit(lambda ctx, q, goal, ok: calls.append(
            ([(e.name, e.sort, e.type) for e in ctx], q, goal, ok)))
        try:
            acheck(dep_sig, [CtxEntry("x", EVEN, NAT_T)],
                   Lam("x", App(Const("k"), BVar(0))),
                   SPi("x", EVEN, NAT_T, _pe(BVar(0))))
        finally:
            set_subsort_audit(None)
        x = FVar("x'")
        assert calls == [
            ([("x", EVEN, NAT_T), ("x'", EVEN, NAT_T)], EVEN, EVEN, True),
            ([("x", EVEN, NAT_T), ("x'", EVEN, NAT_T)], _pe(x), _pe(x), True)]


def _catch(f):
    try:
        f()
    except SortError as e:
        return e
    return None


# gen_dep_sort's atoms are q N, with q refining t; pp refines the p of
# gen_type's atoms, and k gives terms at the type t N.
REF_SIG = check_signature(parse_signature(
    "nat : type. z : nat. s : nat -> nat. h : (nat -> nat) -> nat.\n"
    "even << nat. odd << nat. pos << nat. odd <: pos.\n"
    "z :: even. s :: even -> odd ^ odd -> even ^ # -> pos.\n"
    "h :: (even -> odd) -> even ^ # -> pos.\n"
    "t : nat -> type. k : {y : nat} t y.\n"
    "q << t :: (even -> sort) ^ (pos -> sort).\n"
    "k :: {y :: even} q y.\n"
    "p : nat -> nat -> type.\n"
    "pp << p :: # -> # -> sort.\n"))
REF_CONSTS = HO_CONSTS + (("k", Arrow(NAT, Base("t"))),)
HINTS = ("x", "x'", "y", "b1", "_")


def _refining(choose, a):
    """A sort that refines the type a, or at nat one of four."""
    match a:
        case TPi(h, d, c):
            return SPi(h, _refining(choose, d), d, _refining(choose, c))
        case TApp(TApp(_, m), n):
            return SApp(SApp(SConst("pp"), m), n)
        case TApp(_, n):
            return SApp(SConst("q"), n)
    return (EVEN, ODD, POS, STop())[choose(0, 3)]


def _fit(choose, t):
    """A generated sort or class with most function domains replaced by a
    sort that refines the domain type, so that most elaborate."""
    match t:
        case SPi(h, ds, dt, c) | CPi(h, ds, dt, c):
            if choose(0, 3):
                ds = _refining(choose, dt)
            return type(t)(h, ds, dt, _fit(choose, c))
        case SInter(l, r) | CInter(l, r):
            return type(t)(_fit(choose, l), _fit(choose, r))
    return t


def _refined(t):
    """The type or kind a fitted sort or class is meant to refine; None
    for a sort any type can carry."""
    match t:
        case SPi(h, _, dt, c):
            return TPi(h, dt, _refined(c) or TApp(TConst("t"), Const("z")))
        case CPi(h, _, dt, c):
            return KPi(h, dt, _refined(c))
        case SApp(_, n):
            return TApp(TConst("t"), n)
        case SInter(l, r) | CInter(l, r):
            return _refined(l) or _refined(r)
        case CSort() | CTop():
            return KType()
    return None


def reference_instances(seed: int):
    """(which, ctx, subject): a sort with a type, a class with a kind, or
    an eta-long term with an elaborated sort, over a context of x and x'
    and sometimes y; binder hints are drawn from names the context uses."""
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
        s = elaborate_sort(REF_SIG, ctx, _refining(choose, a), a)
        return 2, ctx + [CtxEntry("f", s, a)], (eta_expand(a, FVar("f")), s)
    gen = gen_class if which == 1 else gen_dep_sort
    s = rehint(_fit(choose, gen(choose, gctx, choose(0, 3))), hint)
    a = _refined(s) or TApp(TConst("t"), Const("z"))
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
        return e.diag.kind, e.diag.message
    except LfError as e:
        return "lf", e.diag.kind, e.diag.message


class TestOpenedReference:
    """Elaboration and checking against copies that open every binder
    with a name (tests/oracles.py): the same verdicts, results, kinds and
    messages."""

    OURS = (
        lambda ctx, s, a: elaborate_sort(REF_SIG, ctx, s, a),
        lambda ctx, c, k: _elab_class(REF_SIG, build_closure(REF_SIG), ctx,
                                      (), c, k, None),
        lambda ctx, n, s: acheck(REF_SIG, ctx, n, s))
    THEIRS = (opened_elab_sort, opened_elab_class, opened_acheck)

    @settings(max_examples=400)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_judgments_match(self, seed):
        which, ctx, subject = reference_instances(seed)
        ours = _ref_outcome(self.OURS[which], ctx, *subject)
        theirs = _ref_outcome(self.THEIRS[which], REF_SIG,
                              build_closure(REF_SIG), ctx, *subject)
        assert ours == theirs


# The operations a judgment needs to open a binder: opening, closing,
# collecting free names, and picking a fresh name.
OPENING = {"open_at", "close_at", "free_vars", "fresh_name", "pool_name"}


class TestBinderDiscipline:
    """The source judgments descend binders by index and name them only
    for messages, through syntax.binder_names: neither checker module
    takes an operation that opening a binder needs."""

    @pytest.mark.parametrize("module", (lfr.lf, lfr.lfr_check),
                             ids=("lf", "lfr_check"))
    def test_takes_no_opening_operation(self, module):
        tree = ast.parse(Path(module.__file__).read_text())
        taken = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                taken |= {a.name.rpartition(".")[2] for a in node.names}
            elif isinstance(node, ast.Attribute):
                taken.add(node.attr)
        assert not taken & OPENING
