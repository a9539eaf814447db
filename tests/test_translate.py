"""Compilation into the proof-irrelevant calculus."""

from __future__ import annotations

import dataclasses
import random
import re
import sys
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import lfr.lfi
import lfr.lfr_check
import lfr.syntax
import lfr.translate

from lfr import (
    SortError,
    VerifyError,
    acheck,
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
    ITUnitT,
    LfiDecl,
    LfiError,
    lfi_erase_type,
    lfi_hsubst,
)
from lfr.lf import LfError
from lfr.lfr_check import _elab_class
from lfr.printer import pp_lfi_type, print_lfi
from lfr.subst import eta_expand, hsubst_syntax
from lfr.syntax import (
    Const,
    ConstRef,
    CSort,
    CTop,
    CtxEntry,
    FVar,
    SApp,
    SConst,
    SInter,
    SPi,
    Signature,
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
    trans_class_form,
    trans_ctx,
    trans_kind_pred,
    trans_kind_sub,
)

from conftest import GOLDEN_NAMES, LATER_EDGE_TEXTS, golden_path
from gen import (
    HINTS,
    NAT,
    REF_TEXT,
    binders_text,
    chain_signature,
    deep_signature,
    gen_class,
    gen_dep_sort,
    gen_eta_term,
    gen_kind,
    gen_simple,
    gen_sort,
    gen_type,
    numeral,
    refined,
    refining,
    rehint,
    simple_to_type,
    sort_fit,
    wide_signature,
)
from oracles import (
    opened_trans_class_form,
    opened_trans_ctx,
    opened_trans_kind_pred,
    opened_trans_kind_sub,
    opened_trans_sort,
    retranslating_verify,
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


def _tampered(result, name: str, classifier):
    """A copy of result whose emitted signature gives name classifier."""
    decls = [LfiDecl(d.name, classifier, d.span) if d.name == name else d
             for d in result.lfi_sig.decls]
    return dataclasses.replace(result, lfi_sig=type(result.lfi_sig)(decls))


def _refined(sig) -> list[str]:
    return list(dict.fromkeys(d.const for d in sig if isinstance(d, ConstRef)))


class TestTamperedProofs:
    """Giving a refined constant c's proof constant c^ another predicate
    that is well formed where c^ is declared, the one of top (1) or the one
    of c's sort intersected with itself (P * P), is caught by the re-check
    of c's proof, which names c.  Where a later declaration's formation
    proof uses c^ at c's sort, no other predicate keeps the emitted
    signature well formed, and the signature re-check catches it first."""

    USED_LATER = {"double": {"z", "s"}, "cbv": {"lam", "app"}}

    @pytest.mark.parametrize("other", ["top", "twice"])
    @pytest.mark.parametrize("name", ["even-odd", "coerce", "double", "cbv"])
    def test_every_refined_constant(self, name, other, checked_goldens,
                                    translated_goldens):
        sig, result = checked_goldens[name], translated_goldens[name]
        used_later = set()
        for c in _refined(sig):
            c_hat = result.mangler.term_const(c)
            p = next(d.classifier for d in result.lfi_sig if d.name == c_hat)
            broken = _tampered(result, c_hat,
                               ITUnitT() if other == "top" else ITProd(p, p))
            try:
                lfi_check_sig(broken.lfi_sig)
                failure = f"translated proof for {c} failed re-checking"
            except LfiError:
                used_later.add(c)
                failure = "translated signature failed re-checking"
            with pytest.raises(VerifyError, match=re.escape(failure)):
                verify_translation(sig, broken)
        assert used_later == self.USED_LATER.get(name, set())

    def test_signature_failure_is_located(self, checked_goldens,
                                          translated_goldens):
        # z^ at the predicate of top: dbl/z^'s formation proof uses z^ at
        # even, so the emitted signature fails at dbl/z^, which is placed
        # at dbl/z's refinement.
        sig, result = checked_goldens["double"], translated_goldens["double"]
        with pytest.raises(VerifyError) as info:
            verify_translation(sig, _tampered(result, "z^", ITUnitT()))
        assert info.value.message.startswith(
            "translated signature failed re-checking at dbl/z^: ")
        assert info.value.span == sig.const_refs["dbl/z"][0].span
        lines = golden_path("double").read_text().splitlines()
        assert lines[info.value.span.line - 1] == "dbl/z :: double* z z."


def _verdict(verify, sig, result):
    """None if verify passes result, else its VerifyError's message and
    span."""
    try:
        verify(sig, result)
    except VerifyError as e:
        return e.message, e.span
    return None


def generated_signature(seed: int):
    """REF_TEXT plus a constant f at a generated type, refined at a
    generated sort, and sometimes one more refinement of f or of z after
    it; None where that does not check.  A later refinement of z changes
    z's sort after f's formations took it."""
    choose = random.Random(seed).randint
    if choose(0, 1):
        a = gen_type(choose, [], choose(1, 3))
        s = refining(choose, a)
    else:
        s = sort_fit(choose, gen_dep_sort(choose, [], choose(1, 4)))
        a = refined(s) or TApp(TConst("t"), Const("z"))
    decls = [*parse_signature(REF_TEXT), TermConst("f", a), ConstRef("f", s)]
    match choose(0, 2):
        case 1:
            decls.append(ConstRef("z", SConst("pos")))
        case 2:
            decls.append(ConstRef("f", refining(choose, a)))
    try:
        return check_signature(Signature(decls))
    except (SortError, LfError):
        return None


def _fresh_goldens() -> dict:
    """Each golden checked and translated anew: the reference verify
    translates sorts again, which records their formations again."""
    return {name: (sig, trans_sig(sig)) for name, sig in (
        (name, check_signature(parse_signature(golden_path(name).read_text())))
        for name in GOLDEN_NAMES)}


FRESH_GOLDENS = _fresh_goldens()


class TestReferenceVerify:
    """verify_translation, which reuses the sort interpretations trans_sig
    kept, passes exactly when the copy in tests/oracles.py that translates
    every sort again passes, and fails with the same message."""

    def _agree(self, sig, result):
        ours = _verdict(verify_translation, sig, result)
        assert ours == _verdict(retranslating_verify, sig, result)
        return ours

    def test_goldens(self):
        for sig, result in _fresh_goldens().values():
            assert self._agree(sig, result) is None

    @pytest.mark.parametrize("make", [
        lambda: wide_signature(5), lambda: chain_signature(4),
        lambda: deep_signature(6), lambda: deep_signature(20),
        lambda: parse_signature(binders_text(3))],
        ids=["wide", "chain", "deep-6", "deep-20", "binders"])
    def test_generated_families(self, make):
        sig = check_signature(make())
        assert self._agree(sig, trans_sig(sig)) is None

    @settings(max_examples=80)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_generated_signatures(self, seed):
        sig = generated_signature(seed)
        assume(sig is not None)
        assert self._agree(sig, trans_sig(sig)) is None

    @settings(max_examples=80)
    @given(st.sampled_from(GOLDEN_NAMES), st.integers(0, 999),
           st.integers(0, 999), st.booleans())
    def test_tampered_results(self, name, i, j, drop):
        # A declaration dropped, or given another's classifier.
        sig, result = FRESH_GOLDENS[name]
        decls = result.lfi_sig.decls
        victim = decls[i % len(decls)]
        if drop:
            broken = dataclasses.replace(result, lfi_sig=type(result.lfi_sig)(
                [d for d in decls if d is not victim]))
        else:
            broken = _tampered(result, victim.name,
                               decls[j % len(decls)].classifier)
        self._agree(sig, broken)


def _judgments(sig) -> Counter:
    """(stage, judgment, caller) of each entry into sort formation, into
    trans_sort and into the sort checker's _acheck from the translator,
    while trans_sig and then verify_translation run on sig."""
    calls: Counter = Counter()
    stage = "translate"

    def counted(real, name):
        def count(*args):
            calls[stage, name, sys._getframe(1).f_code.co_qualname] += 1
            return real(*args)
        return count

    with pytest.MonkeyPatch.context() as patch:
        for module, name in ((lfr.lfr_check, "_synth_sort_class"),
                             (lfr.translate, "trans_sort"),
                             (lfr.translate, "_acheck")):
            patch.setattr(module, name, counted(getattr(module, name), name))
        result = trans_sig(sig)
        stage = "verify"
        verify_translation(sig, result)
    return calls


class TestCheckOnce:
    """trans_sig takes the formation proof of every atomic sort, the
    steps of a subsort coercion included, from the derivations the sort
    checker recorded, so it never enters sort formation;
    verify_translation derives each refined constant's proof once and
    translates no sort again.  The counts do not depend on the host.

    When trans_sig and verify derived every formation afresh, translate
    entered _synth_sort_class 151 / 8 / 603 times on binders m=32, Deep
    d=40 and Wide n=200, and verify 149 / 7 / 603 times, with 5 / 3 / 402
    trans_sort calls.  When translate derived the coercion steps'
    formations, it entered _synth_sort_class 64 times on binders m=32."""

    @pytest.mark.parametrize("make, refined", [
        (lambda: parse_signature(binders_text(32)), 5),
        (lambda: deep_signature(40), 3),
        (lambda: wide_signature(200), 402),
    ], ids=["binders-32", "deep-40", "wide-200"])
    def test_judgment_counts(self, make, refined):
        expected = Counter({
            ("verify", "_acheck", "trans_term_check"): refined})
        assert _judgments(check_signature(make())) == expected


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


class TestBinderWalkScaling:
    """trans_sig builds the binders of sorts, classes and kinds by index:
    the node visits of the walks that rebuild syntax around its variables
    (syntax.map_vars and lfi._map_vars, which opening, closing and
    shifting go through) grow gently in the number of binders.  The count
    does not depend on the host."""

    def _visits(self, monkeypatch, m: int) -> int:
        sig = check_signature(parse_signature(binders_text(m)))
        visits = 0
        with monkeypatch.context() as patch:
            for real in (lfr.syntax.map_vars, lfr.lfi._map_vars):
                def counted(*args, real=real):
                    nonlocal visits
                    visits += 1
                    return real(*args)
                # Every module that binds the walk, so that no call
                # escapes the count.
                for name, module in list(sys.modules.items()):
                    if name == "lfr" or name.startswith("lfr."):
                        for attr, value in list(vars(module).items()):
                            if value is real:
                                patch.setattr(module, attr, counted)
            trans_sig(sig)
        return visits

    def test_visits_grow_gently_in_binders(self, monkeypatch):
        # Opening, scanning and closing every binder made 9 371 / 22 371 /
        # 71 411 visits at m = 8 / 16 / 32 (7.6 times over 4 times the
        # premises); by index they are 512 / 688 / 1 040.
        at_8 = self._visits(monkeypatch, 8)
        at_16 = self._visits(monkeypatch, 16)
        at_32 = self._visits(monkeypatch, 32)
        assert at_8 < at_16 < at_32 <= 4 ** 1.3 * at_8


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


def _accepts(sig, ctx, n, s) -> bool:
    try:
        acheck(sig, ctx, n, s)
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
        assume(_accepts(nat_sig, ctx, n, s))
        result = translated_goldens["nat"]
        proof = trans_term_check(nat_sig, ctx, n, s, result.mangler)
        smeta = trans_sort(nat_sig, ctx, s, simple_to_type(alpha),
                           result.mangler)
        goal = meta_apply(smeta, [inj_term(n)])
        ictx = trans_ctx(nat_sig, ctx, result.mangler)
        lfi_check(result.lfi_sig, ictx, proof, goal)

    def test_synthesized_proofs_recheck(self, nat_sig, translated_goldens):
        rng = random.Random(20260816)
        result = translated_goldens["nat"]
        seen = 0
        for _ in range(120):
            ctx, n, alpha, _ = _gen_instance(rng.randint, nat_sig)
            if alpha != NAT:
                continue
            pairs = trans_term_synth(nat_sig, ctx, n, result.mangler)
            ictx = trans_ctx(nat_sig, ctx, result.mangler)
            subject = inj_term(eta_expand(NAT, n))
            for q, proof in pairs:
                smeta = trans_sort(nat_sig, ctx, q, NAT_TY, result.mangler)
                lfi_check(result.lfi_sig, ictx, proof,
                          meta_apply(smeta, [subject]))
                seen += 1
        assert seen >= 100

    def test_fidelity(self, nat_sig, translated_goldens):
        # The compiler produces a proof exactly when the checker accepts.
        rng = random.Random(7254)
        result = translated_goldens["nat"]
        accepted = rejected = 0
        for _ in range(200):
            ctx, n, alpha, s = _gen_instance(rng.randint, nat_sig)
            if s is None:
                continue
            ok = _accepts(nat_sig, ctx, n, s)
            try:
                trans_term_check(nat_sig, ctx, n, s, result.mangler)
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
        result = trans_sig(double_sig)
        ctx = [CtxEntry("x", STop(), NAT_TY)]
        s = SApp(SApp(SConst("double*"), FVar("x")), numeral(2))
        a = TApp(TApp(TConst("double"), FVar("x")), numeral(2))
        smeta = trans_sort(double_sig, ctx, s, a, result.mangler)
        open_hat = meta_apply(smeta, [IFVar("w")])
        lhs = lfi_hsubst(inj_term(numeral(k)), "x", ITConst("nat"), open_hat)

        s2 = hsubst_syntax(numeral(k), "x", NAT_TY, s)
        a2 = hsubst_syntax(numeral(k), "x", NAT_TY, a)
        smeta2 = trans_sort(double_sig, [], s2, a2, result.mangler)
        rhs = meta_apply(smeta2, [IFVar("w")])
        assert lfi_equal(lhs, rhs)

    @pytest.mark.parametrize("k", [0, 2])
    def test_substitution_carries_the_proof(self, double_sig, k):
        # A hypothesis at a real sort contributes a proof variable; the
        # translated substitution replaces it with the argument's proof.
        result = trans_sig(double_sig)
        ctx = [CtxEntry("y", SConst("even"), NAT_TY)]
        s = SApp(SApp(SConst("double*"), Const("z")), FVar("y"))
        a = TApp(TApp(TConst("double"), Const("z")), FVar("y"))
        smeta = trans_sort(double_sig, ctx, s, a, result.mangler)
        open_hat = meta_apply(smeta, [IFVar("w")])

        ictx = trans_ctx(double_sig, ctx, result.mangler)
        proof_ty = ictx[-1].type
        arg = numeral(2 * k)
        arg_proof = trans_term_check(double_sig, [], arg, SConst("even"),
                                     result.mangler)
        lhs = lfi_hsubst(inj_term(arg), "y", ITConst("nat"), open_hat)
        lhs = lfi_hsubst(arg_proof, "y^", lfi_erase_type(proof_ty), lhs)

        s2 = hsubst_syntax(arg, "y", NAT_TY, s)
        a2 = hsubst_syntax(arg, "y", NAT_TY, a)
        smeta2 = trans_sort(double_sig, [], s2, a2, result.mangler)
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

    @pytest.mark.parametrize("name, steps", [
        ("shorter", ["a-b", "b-c"]), ("tie", ["a-b", "b-d"])])
    def test_coercion_takes_the_checked_path(self, name, steps):
        sig = check_signature(parse_signature(LATER_EDGE_TEXTS[name]))
        result = trans_sig(sig)
        verify_translation(sig, result)
        proof = next(d.classifier for d in result.lfi_sig
                     if d.name == "dbl/z^")
        # The first step is the innermost coercion.
        assert re.findall(r"\b[a-d]-[a-d]\b", pp_lfi_type(proof)) == \
            steps[::-1]

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


# ---------------------------------------------------------------------------
# Against the translator that opens every binder (tests/oracles.py)

REF_SIG = check_signature(parse_signature(REF_TEXT))
# The coercion type's own binders are f1, f2 and x.
REF_HINTS = HINTS + ("f1", "f2")


def opened_instance(seed: int):
    """(which, ctx, subject) for one of the translations compared below,
    over a context of x and x' and sometimes y, which sometimes ends in a
    variable f at a sort that refines a dependent type; binder hints are
    drawn from names the context uses, that the name pool draws for, and
    that the coercion type binds.  None where the subject does not
    elaborate."""
    choose = random.Random(seed).randint

    def hint():
        return REF_HINTS[choose(0, len(REF_HINTS) - 1)]

    names = ["x", "x'"] + (["y"] if choose(0, 1) else [])
    gctx = [(x, NAT) for x in names]
    ctx = [CtxEntry(x, (SConst("even"), SConst("odd"), STop())[choose(0, 2)],
                    NAT_TY) for x in names]
    which = choose(0, 3)
    try:
        if which == 3 or choose(0, 1):
            a = rehint(gen_type(choose, gctx, choose(1, 3)), hint)
            ctx.append(CtxEntry("f", elaborate_sort(
                REF_SIG, ctx, refining(choose, a), a), a))
        if which == 2:
            return which, ctx, rehint(gen_kind(choose, [], choose(1, 3)),
                                      hint)
        if which == 3:
            return which, ctx, None
        gen = gen_class if which == 1 else gen_dep_sort
        for _ in range(3):
            # Mostly with a binder somewhere.
            s = rehint(sort_fit(choose, gen(choose, gctx, choose(1, 4))),
                       hint)
            if not isinstance(s, (SConst, SApp, STop, CSort, CTop)):
                break
        a = refined(s) or TApp(TConst("t"), Const("z"))
        if which == 0 and not choose(0, 2):
            a = rehint(gen_type(choose, gctx, choose(1, 4)), hint)
            s = refining(choose, a)
        if which == 1:
            return which, ctx, (_elab_class(REF_SIG, ctx, (), s, a, None), a)
        subject = inj_term(eta_expand(a, FVar(("f", "x", "y")[choose(0, 2)])))
        return which, ctx, (elaborate_sort(REF_SIG, ctx, s, a), a, subject)
    except (SortError, LfError):
        return None


def _translated(which, ctx, subject, sort, class_form, kind_pred, kind_sub,
                trans_context):
    """What one translator makes of an instance: the result's repr, which
    shows every binder hint, or the kind of its failure."""
    mangler = NameMangler(REF_SIG)
    try:
        match which:
            case 0:
                s, a, n = subject
                out = meta_apply(sort(REF_SIG, ctx, s, a, mangler), [n])
            case 1:
                out = meta_apply(class_form(REF_SIG, ctx, *subject, mangler),
                                 [ITConst("q^")])
            case 2:
                atoms = [ITConst(n) for n in ("t", "q^", "q", "r^", "r")]
                out = (meta_apply(kind_pred(subject), atoms[1:3]),
                       meta_apply(kind_sub(subject), atoms))
            case _:
                out = trans_context(REF_SIG, ctx, mangler)
    except (SortError, VerifyError) as e:
        return type(e).__name__, getattr(e, "kind", None)
    return "ok", repr(out)


class TestOpenedTranslator:
    """Sorts, classes, kinds and contexts translate exactly as the copy of
    the translator that opens every binder translates them, binder hints
    included."""

    @settings(max_examples=300)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_translations_match(self, seed):
        instance = opened_instance(seed)
        assume(instance is not None)
        ours = _translated(*instance, trans_sort, trans_class_form,
                           trans_kind_pred, trans_kind_sub, trans_ctx)
        theirs = _translated(*instance, opened_trans_sort,
                             opened_trans_class_form, opened_trans_kind_pred,
                             opened_trans_kind_sub, opened_trans_ctx)
        assert ours == theirs
