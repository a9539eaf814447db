"""Compilation into the proof-irrelevant calculus."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

import lfr.translate

from lfr import (
    SortError,
    VerifyError,
    acheck,
    build_closure,
    check_signature,
    elaborate_sort,
    lfi_check,
    lfi_check_sig,
    lfi_equal,
    parse_lfi,
    parse_signature,
    trans_sig,
    trans_sort,
    trans_sort_synth_all,
    trans_subsort_check,
    trans_term_check,
    trans_term_synth,
    verify_translation,
)
from lfr.lfi import (
    IApp,
    IBVar,
    IConst,
    IFVar,
    ILam,
    IPair,
    ITApp,
    ITConst,
    ITIrrApp,
    ITProd,
    LfiDecl,
    lfi_erase_type,
    lfi_hsubst,
)
from lfr.printer import pp_lfi_type, print_lfi
from lfr.subst import eta_expand, hsubst_syntax
from lfr.syntax import (
    Const,
    CtxEntry,
    FVar,
    SApp,
    SConst,
    SInter,
    SPi,
    STop,
    TApp,
    TConst,
    TermConst,
    TPi,
    TypeFam,
)
from lfr.translate import (
    Metafunction,
    NameMangler,
    inj_kind,
    inj_term,
    inj_type,
    meta_apply,
    trans_ctx,
)

from conftest import golden_path
from gen import (
    NAT,
    chain_signature,
    deep_signature,
    gen_eta_term,
    gen_simple,
    gen_sort,
    numeral,
    simple_to_type,
)
from principles import elaborate_quiet


def strip_comments(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.strip() and not line.lstrip().startswith("%"))


PINNED = ("even-odd", "double", "coerce")


class TestGoldenOutput:
    @pytest.mark.parametrize("name", PINNED)
    def test_emitted_text_matches_pinned_file(self, name, translated_goldens):
        expected = strip_comments(
            golden_path(name).with_suffix(".lfi").read_text())
        emitted = strip_comments(print_lfi(translated_goldens[name].lfi_sig))
        assert emitted == expected

    @pytest.mark.parametrize("name", PINNED)
    def test_emitted_decls_match_pinned_decls(self, name, translated_goldens):
        path = golden_path(name).with_suffix(".lfi")
        expected = parse_lfi(path.read_text(), str(path))
        got = translated_goldens[name].lfi_sig
        assert [d.name for d in got] == [d.name for d in expected]
        for g, e in zip(got, expected):
            assert lfi_equal(g.classifier, e.classifier,
                             respect_irrelevance=False)

    def test_emission_is_deterministic(self, checked_goldens):
        for sig in checked_goldens.values():
            assert print_lfi(trans_sig(sig).lfi_sig) == \
                print_lfi(trans_sig(sig).lfi_sig)


class TestVerification:
    def test_all_goldens_verify(self, checked_goldens, translated_goldens):
        for name, sig in checked_goldens.items():
            verify_translation(sig, translated_goldens[name])

    def test_translated_signatures_check_standalone(self, translated_goldens):
        for result in translated_goldens.values():
            lfi_check_sig(result.lfi_sig)

    def test_tampered_signature_fails(self, checked_goldens):
        sig = checked_goldens["even-odd"]
        result = trans_sig(sig)
        # Move z^'s classifier to the wrong index; the declaration is
        # still well formed, so only the proof re-check can catch it.
        broken = trans_sig(sig)
        bad = ITApp(ITIrrApp(ITConst("even"), IConst("even^/i")),
                    inj_term(numeral(1)))
        decls = [LfiDecl(d.name, bad, d.span) if d.name == "z^" else d
                 for d in broken.lfi_sig.decls]
        broken.lfi_sig = type(broken.lfi_sig)(decls)
        with pytest.raises(VerifyError):
            verify_translation(sig, broken)
        # The untouched result still verifies.
        verify_translation(sig, result)


class TestInjectionScaling:
    """A proof injects each node of a spine argument once: the arguments
    of an argument's premises are its own subterms.  The count is of node
    visits, so it does not depend on the host."""

    def _visits(self, monkeypatch, d: int) -> int:
        """Node visits of the proofs' injection (translate._inj_arg) while
        trans_sig translates Deep at depth d."""
        sig = check_signature(deep_signature(d))
        visits = 0

        def counted(*args):
            nonlocal visits
            visits += 1
            return real(*args)

        real = lfr.translate._inj_arg
        with monkeypatch.context() as patch:
            patch.setattr(lfr.translate, "_inj_arg", counted)
            trans_sig(sig)
        return visits

    def test_visits_grow_gently_in_depth(self, monkeypatch):
        # Injecting every argument afresh made 3 535 / 29 775 visits at
        # d=40 / 120, 8.4 times as many; sharing makes 162 / 482 visits of
        # the proofs' own injection.
        at_40 = self._visits(monkeypatch, 40)
        at_120 = self._visits(monkeypatch, 120)
        assert at_120 <= 3.5 * at_40


class TestErasure:
    def test_originals_survive_unchanged(self, checked_goldens,
                                         translated_goldens):
        # The emitted signature embeds the refined signature's simply
        # typed image: families keep their kinds, constants their types.
        for name, sig in checked_goldens.items():
            lfi = translated_goldens[name].lfi_sig
            for d in sig:
                if isinstance(d, TypeFam):
                    assert lfi.fam_kind(d.name) == inj_kind(d.kind)
                elif isinstance(d, TermConst):
                    assert lfi.const_type(d.name) == inj_type(d.type)


class TestProvenance:
    def test_every_emitted_name_has_a_source(self, translated_goldens):
        for result in translated_goldens.values():
            for d in result.lfi_sig:
                assert d.name in result.provenance

    def test_labels_name_the_source_declaration(self, translated_goldens):
        prov = translated_goldens["even-odd"].provenance
        assert prov["even^"] == "even << nat."
        assert prov["even^/i"] == "even << nat."
        assert prov["even"] == "even << nat."
        assert prov["z^"] == "z :: _."
        assert prov["nat"] == "nat : _."


class TestMangler:
    def test_cross_namespace_collision(self, cbv_sig, translated_goldens):
        # The sort family eval shadows the type family eval, so its
        # predicate cannot keep the bare name.
        m = translated_goldens["cbv"].mangler
        assert m.sort_proof_fam("eval") == "eval^"
        assert m.predicate("eval") == "eval^^"
        names = translated_goldens["cbv"].lfi_sig.names()
        assert {"eval", "eval^", "eval^^", "eval^/i"} <= names

    def test_memoized_names_are_stable(self, nat_sig):
        m = NameMangler(nat_sig)
        assert m.predicate("even") == m.predicate("even")
        assert m.term_const("z") == "z^"
        assert m.coercion("odd", "pos") == "odd-pos"

    def test_intro_follows_proof_family(self, nat_sig):
        m = NameMangler(nat_sig)
        assert m.sort_intro("odd") == m.sort_proof_fam("odd") + "/i"


NAT_TY = TConst("nat")


def _accepts(sig, ctx, n, s, closure) -> bool:
    try:
        acheck(sig, ctx, n, s, closure=closure)
        return True
    except SortError:
        return False


def _gen_instance(choose, sig):
    """Context, eta-long term, elaborated sort, all over one simple type."""
    ctx = []
    pairs = []
    for i in range(choose(0, 2)):
        beta = gen_simple(choose, choose(0, 1))
        srt = elaborate_quiet(sig, ctx, gen_sort(choose, beta, 1), beta)
        if srt is None:
            continue
        name = f"h{i}"
        ctx.append(CtxEntry(name, srt, simple_to_type(beta)))
        pairs.append((name, beta))
    alpha = gen_simple(choose, choose(0, 1))
    n = gen_eta_term(choose, pairs, alpha, choose(1, 2))
    s = elaborate_quiet(sig, ctx, gen_sort(choose, alpha, choose(1, 2)), alpha)
    return ctx, n, alpha, s


class TestSoundness:
    """Accepted terms translate to proofs the target checker accepts."""

    @settings(max_examples=150)
    @given(st.data())
    def test_checked_proofs_recheck(self, nat_sig, translated_goldens, data):
        choose = lambda lo, hi: data.draw(st.integers(lo, hi))
        ctx, n, alpha, s = _gen_instance(choose, nat_sig)
        assume(s is not None)
        closure = build_closure(nat_sig)
        assume(_accepts(nat_sig, ctx, n, s, closure))
        result = translated_goldens["nat"]
        proof = trans_term_check(nat_sig, ctx, n, s, result.mangler, closure)
        smeta = trans_sort(nat_sig, ctx, s, simple_to_type(alpha),
                           result.mangler, closure)
        goal = meta_apply(smeta, [inj_term(n)])
        ictx = trans_ctx(nat_sig, ctx, result.mangler, closure)
        lfi_check(result.lfi_sig, ictx, proof, goal)

    def test_synthesized_proofs_recheck(self, nat_sig, translated_goldens):
        rng = random.Random(20260816)
        closure = build_closure(nat_sig)
        result = translated_goldens["nat"]
        seen = 0
        for _ in range(120):
            ctx, n, alpha, _ = _gen_instance(rng.randint, nat_sig)
            if alpha != NAT:
                continue
            pairs = trans_term_synth(nat_sig, ctx, n, result.mangler, closure)
            ictx = trans_ctx(nat_sig, ctx, result.mangler, closure)
            subject = inj_term(eta_expand(NAT, n))
            for q, proof in pairs:
                smeta = trans_sort(nat_sig, ctx, q, NAT_TY, result.mangler,
                                   closure)
                lfi_check(result.lfi_sig, ictx, proof,
                          meta_apply(smeta, [subject]))
                seen += 1
        assert seen >= 100

    def test_fidelity(self, nat_sig, translated_goldens):
        # The compiler produces a proof exactly when the checker accepts.
        rng = random.Random(7254)
        closure = build_closure(nat_sig)
        result = translated_goldens["nat"]
        accepted = rejected = 0
        for _ in range(200):
            ctx, n, alpha, s = _gen_instance(rng.randint, nat_sig)
            if s is None:
                continue
            ok = _accepts(nat_sig, ctx, n, s, closure)
            try:
                trans_term_check(nat_sig, ctx, n, s, result.mangler, closure)
                translated = True
            except SortError:
                translated = False
            assert translated == ok
            accepted += ok
            rejected += not ok
        assert accepted >= 20 and rejected >= 20


class TestCompositionality:
    """Substituting then translating equals translating then substituting."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_index_substitution(self, double_sig, k):
        closure = build_closure(double_sig)
        result = trans_sig(double_sig)
        ctx = [CtxEntry("x", STop(), NAT_TY)]
        s = SApp(SApp(SConst("double*"), FVar("x")), numeral(2))
        a = TApp(TApp(TConst("double"), FVar("x")), numeral(2))
        smeta = trans_sort(double_sig, ctx, s, a, result.mangler, closure)
        open_hat = meta_apply(smeta, [IFVar("w")])
        lhs = lfi_hsubst(inj_term(numeral(k)), "x", ITConst("nat"), open_hat)

        s2 = hsubst_syntax(numeral(k), "x", NAT_TY, s)
        a2 = hsubst_syntax(numeral(k), "x", NAT_TY, a)
        smeta2 = trans_sort(double_sig, [], s2, a2, result.mangler, closure)
        rhs = meta_apply(smeta2, [IFVar("w")])
        assert lfi_equal(lhs, rhs)

    @pytest.mark.parametrize("k", [0, 2])
    def test_substitution_carries_the_proof(self, double_sig, k):
        # A hypothesis at a real sort contributes a proof variable; the
        # translated substitution replaces it with the argument's proof.
        closure = build_closure(double_sig)
        result = trans_sig(double_sig)
        ctx = [CtxEntry("y", SConst("even"), NAT_TY)]
        s = SApp(SApp(SConst("double*"), Const("z")), FVar("y"))
        a = TApp(TApp(TConst("double"), Const("z")), FVar("y"))
        smeta = trans_sort(double_sig, ctx, s, a, result.mangler, closure)
        open_hat = meta_apply(smeta, [IFVar("w")])

        ictx = trans_ctx(double_sig, ctx, result.mangler, closure)
        proof_ty = ictx[-1].type
        arg = numeral(2 * k)
        arg_proof = trans_term_check(double_sig, [], arg, SConst("even"),
                                     result.mangler, closure)
        lhs = lfi_hsubst(inj_term(arg), "y", ITConst("nat"), open_hat)
        lhs = lfi_hsubst(arg_proof, "y^", lfi_erase_type(proof_ty), lhs)

        s2 = hsubst_syntax(arg, "y", NAT_TY, s)
        a2 = hsubst_syntax(arg, "y", NAT_TY, a)
        smeta2 = trans_sort(double_sig, [], s2, a2, result.mangler, closure)
        rhs = meta_apply(smeta2, [IFVar("w")])
        assert lfi_equal(lhs, rhs)


def _double_sorts():
    """double* applied to every pair of the numerals 0, 1 and 2."""
    for i in range(3):
        for j in range(3):
            yield (SApp(SApp(SConst("double*"), numeral(i)), numeral(j)),
                   TApp(TApp(TConst("double"), numeral(i)), numeral(j)))


class TestCoherence:
    @pytest.mark.parametrize("name", ("coherence", "class-inter"))
    def test_checker_forms_exactly_the_sorts_with_proofs(self, name):
        sig = check_signature(parse_signature(golden_path(name).read_text()))
        verdicts = []
        for s, a in _double_sorts():
            try:
                elaborate_sort(sig, [], s, a)
                accepted = True
            except SortError:
                accepted = False
            try:
                formed = bool(trans_sort_synth_all(sig, [], s))
            except SortError:
                formed = False
            assert accepted == formed, s
            verdicts.append(accepted)
        assert any(verdicts)

    def test_two_formation_proofs_for_the_same_sort(self, coherence_sig):
        s = SApp(SApp(SConst("double*"), Const("z")), Const("z"))
        proofs = trans_sort_synth_all(coherence_sig, [], s)
        assert len(proofs) == 2
        assert not lfi_equal(proofs[0], proofs[1], respect_irrelevance=False)

    def test_candidate_types_agree_only_under_irrelevance(self,
                                                          coherence_sig):
        # Both formation proofs give dbl/z a translated sort; the two
        # types coincide exactly because the proof argument is skipped.
        result = trans_sig(coherence_sig)
        s = SApp(SApp(SConst("double*"), Const("z")), Const("z"))
        proofs = trans_sort_synth_all(coherence_sig, [], s,
                                      result.mangler)
        pred = ITConst(result.mangler.predicate("double*"))
        pred = ITApp(ITApp(pred, IConst("z")), IConst("z"))
        subject = IConst("dbl/z")
        t1 = ITApp(ITIrrApp(pred, proofs[0]), subject)
        t2 = ITApp(ITIrrApp(pred, proofs[1]), subject)
        assert lfi_equal(t1, t2)
        assert not lfi_equal(t1, t2, respect_irrelevance=False)

    def test_either_candidate_rechecks(self, coherence_sig):
        result = trans_sig(coherence_sig)
        verify_translation(coherence_sig, result)
        s = SApp(SApp(SConst("double*"), Const("z")), Const("z"))
        proofs = trans_sort_synth_all(coherence_sig, [], s, result.mangler)
        pred = ITApp(ITApp(ITConst(result.mangler.predicate("double*")),
                           IConst("z")), IConst("z"))
        for p in proofs:
            goal = ITApp(ITIrrApp(pred, p), IConst("dbl/z"))
            lfi_check(result.lfi_sig, [],
                      IConst(result.mangler.term_const("dbl/z")), goal)


DIAMOND = """
nat : type.
z : nat.
a << nat.
b << nat.
c << nat.
d << nat.
a <: b.
b <: d.
a <: c.
c <: d.
z :: a.
"""


def _consts_in(t) -> set[str]:
    out = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, IConst):
            out.add(x.name)
        for f in getattr(x, "__dataclass_fields__", {}):
            v = getattr(x, f)
            if hasattr(v, "__dataclass_fields__"):
                stack.append(v)
    return out


class TestCoercions:
    def test_reflexive_coercion_is_identity(self, nat_sig):
        f = trans_subsort_check(nat_sig, [], SConst("odd"), SConst("odd"))
        out = meta_apply(f, [IConst("z"), IFVar("p")])
        assert out == IFVar("p")

    def test_declared_edge_uses_its_constant(self, nat_sig):
        result = trans_sig(nat_sig)
        f = trans_subsort_check(nat_sig, [], SConst("odd"), SConst("pos"),
                                result.mangler)
        out = meta_apply(f, [inj_term(numeral(1)),
                             trans_term_check(nat_sig, [], numeral(1),
                                              SConst("odd"), result.mangler)])
        assert "odd-pos" in _consts_in(out)

    def test_bfs_prefers_earlier_declaration_on_ties(self):
        sig = check_signature(parse_signature(DIAMOND, "diamond.lfr"))
        result = trans_sig(sig)
        verify_translation(sig, result)
        f = trans_subsort_check(sig, [], SConst("a"), SConst("d"),
                                result.mangler)
        body = meta_apply(f, [IConst("z"), IFVar("p")])
        names = _consts_in(body)
        assert {"a-b", "b-d"} <= names
        assert not {"a-c", "c-d"} & names

    def test_long_chain_coerces_in_linear_time(self):
        # A coercion along 399 `<:` steps: re-plugging the rest of the
        # chain at every step took about 0.9 s here, one wrap per step
        # about 0.1 s.
        sig = check_signature(chain_signature(400))
        start = time.perf_counter()
        trans_sig(sig)
        assert time.perf_counter() - start < 0.45

    def test_coerced_proof_rechecks(self):
        sig = check_signature(parse_signature(DIAMOND, "diamond.lfr"))
        result = trans_sig(sig)
        f = trans_subsort_check(sig, [], SConst("a"), SConst("d"),
                                result.mangler)
        proof = trans_term_check(sig, [], Const("z"), SConst("a"),
                                 result.mangler)
        coerced = meta_apply(f, [IConst("z"), proof])
        goal_meta = trans_sort(sig, [], SConst("d"), NAT_TY, result.mangler)
        lfi_check(result.lfi_sig, [], coerced,
                  meta_apply(goal_meta, [IConst("z")]))


def _even_to_odd(nat_sig):
    """The sort even -> odd, the first component of s's sort in nat.lfr."""
    return nat_sig.merged_ref_sort("s").left, nat_sig.term_const("s").type


class TestMetafunctions:
    def test_arguments_fill_in_order(self, nat_sig):
        result = trans_sig(nat_sig)
        f = trans_subsort_check(nat_sig, [], SConst("odd"), SConst("pos"),
                                result.mangler)
        out = meta_apply(f, [IConst("a"), IConst("b")])
        assert out.arg == IConst("b")
        assert out.fn.arg == IConst("a")

    def test_meta_apply_calls_the_function(self):
        f = Metafunction(1, lambda n: IApp(IConst("s"), n))
        assert meta_apply(f, [IConst("z")]) == IApp(IConst("s"), IConst("z"))

    def test_arity_mismatch_rejected(self, nat_sig):
        f = trans_sort(nat_sig, [], SConst("even"), NAT_TY)
        with pytest.raises(VerifyError):
            meta_apply(f, [IConst("a"), IConst("b")])

    def test_intersection_shares_the_subject(self, nat_sig):
        f = trans_sort(nat_sig, [], SInter(SConst("even"), SConst("pos")),
                       NAT_TY)
        out = meta_apply(f, [IConst("a")])
        assert isinstance(out, ITProd)
        assert out.left.arg == out.right.arg == IConst("a")

    def test_subject_names_are_not_captured(self, nat_sig):
        # The subject's free x is not the binder x of the sort, which the
        # printer therefore shows as x'.  Pinned from the hole-based
        # translator, which filled the subject in after binding x.
        s, a = nat_sig.merged_ref_sort("s"), nat_sig.term_const("s").type
        subject = ILam("y", IApp(IApp(IConst("plus"), IFVar("x")), IBVar(0)))
        out = meta_apply(trans_sort(nat_sig, [], s, a), [subject])
        assert pp_lfi_type(out) == (
            "({x' : nat} even [[ even^/i ]] x' -> odd [[ odd^/i ]] (plus x x'))"
            " * (({x' : nat} odd [[ odd^/i ]] x' -> even [[ even^/i ]]"
            " (plus x x')) * ({x' : nat} 1 -> pos [[ pos^/i ]] (plus x x')))")


class TestSubjectApplication:
    """A function sort applies the subject to its own bound variable."""

    def test_subject_applied_to_bound_variable(self, nat_sig):
        s, a = _even_to_odd(nat_sig)
        subject = ILam("x", IApp(IConst("s"), IBVar(0)))
        out = meta_apply(trans_sort(nat_sig, [], s, a), [subject])
        # Under x and x^, x is index 1.
        assert out.cod.cod.arg == IApp(IConst("s"), IBVar(1))
        assert pp_lfi_type(out) == (
            "{x : nat} even [[ even^/i ]] x -> odd [[ odd^/i ]] (s x)")

    def test_nested_binders_keep_indices(self, nat_sig):
        a = NAT_TY
        for _ in range(2):
            a = TPi("x", NAT_TY, a)
        s = elaborate_sort(nat_sig, [], SPi("x", SConst("even"), None,
                                            SPi("y", SConst("odd"), None,
                                                SConst("pos"))), a)
        subject = ILam("x", ILam("y", IPair(IBVar(0), IBVar(1))))
        out = meta_apply(trans_sort(nat_sig, [], s, a), [subject])
        # Under x, x^, y and y^: y is index 1 and x index 3.
        assert out.cod.cod.cod.cod.arg == IPair(IBVar(1), IBVar(3))

    def test_non_function_subject_rejected(self, nat_sig):
        s, a = _even_to_odd(nat_sig)
        with pytest.raises(VerifyError):
            meta_apply(trans_sort(nat_sig, [], s, a), [IConst("f")])
