"""Refinement layer: elaboration, the algorithmic system, and its oracle."""

from __future__ import annotations

import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

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
from lfr.lfr_check import SortError, set_subsort_audit
from lfr.syntax import (
    App,
    Base,
    BVar,
    Const,
    ConstRef,
    CtxEntry,
    FVar,
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
    alpha_eq,
)

from conftest import GOLDEN_NAMES, checkout_env
from gen import (
    NAT,
    deep_signature,
    gen_eta_term,
    gen_sort,
    numeral,
    wide_signature,
)
from oracles import decl_check, decl_synth_all
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


def _catch(f):
    try:
        f()
    except SortError as e:
        return e
    return None
