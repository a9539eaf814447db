"""Compilation into the proof-irrelevant calculus."""

from __future__ import annotations

import hashlib
import random
import re
import sys
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import lfr.diagnostics
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
    ITPi,
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
from lfr.diagnostics import MetricExhausted
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
    NameMangler,
    inj_kind,
    inj_term,
    inj_type,
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
    deep_text,
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
    meta_apply,
    node_kids,
    node_replace,
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
            assert g.classifier == e.classifier

    def test_emission_is_deterministic(self, checked_goldens):
        for sig in checked_goldens.values():
            assert print_lfi(trans_sig(sig).lfi_sig) == \
                print_lfi(trans_sig(sig).lfi_sig)


class TestPinnedFamilies:
    """The emitted signature and its provenance lines on generated
    families, as the translator that applied each sort's interpretation as
    a Python function to its subject emitted them, pinned by sha256."""

    PINNED = {
        "wide_signature(100)": (
            "76fd678b5684d411672a617d86eb7acdc82b1304a882d8c9fba1c75c122e1ed9",
            "5a9c4ee69d606a34cafcb76d5112a5796522e9cad857e38f135792f683c545f1"),
        "chain_signature(50)": (
            "e43ee91554e69c3d25f90763510471c40d4ecb4e6ff6812d474b55a501d929b9",
            "10f310e3889e6b1f6c85270ee6e69a2f49b9641cdc0666f4ffb6cae54f0a3927"),
        "deep_text(40)": (
            "e01cbc4a24b1e382c11fe1116db60aa5781961e2aafff3bc522e5a82820d2b52",
            "928a94e06cd1623df486a556026fe8f409350a61e2989d34c874970a44762bc1"),
        "binders_text(16)": (
            "2178bb16d139a5087642685e61de6cda571069442fc1fe0937d75d348644f949",
            "ba253b1013e822843461ea7d05c07a93e2b7ed3ca97cf5e16dbe15e55454ee4e"),
    }
    MAKE = {"wide_signature(100)": lambda: wide_signature(100),
            "chain_signature(50)": lambda: chain_signature(50),
            "deep_text(40)": lambda: parse_signature(deep_text(40)),
            "binders_text(16)": lambda: parse_signature(binders_text(16))}

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_bytes_match_pins(self, name):
        result = trans_sig(check_signature(self.MAKE[name]()))
        prov = "".join(f"{d.name}\t{result.provenance[d.name]}\n"
                       for d in result.lfi_sig)
        assert tuple(hashlib.sha256(text.encode()).hexdigest()
                     for text in (print_lfi(result.lfi_sig), prov)) == \
            self.PINNED[name]


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
        broken = node_replace(broken, lfi_sig=type(broken.lfi_sig)(decls))
        with pytest.raises(VerifyError):
            verify_translation(sig, broken)
        # The untouched result still verifies.
        verify_translation(sig, result)


def _tampered(result, name: str, classifier):
    """A copy of result whose emitted signature gives name classifier."""
    decls = [LfiDecl(d.name, classifier, d.span) if d.name == name else d
             for d in result.lfi_sig.decls]
    return node_replace(result, lfi_sig=type(result.lfi_sig)(decls))


def _self_applied(a):
    """The Pi type a with its first domain of the form {y : A} {y' : B} C
    changed so that B applies y to itself: where a proof applies that
    hypothesis to an argument of base type, instantiating B is
    undefined."""
    match a:
        case ITPi(h, ITPi(y, d1, ITPi(y2, d2, c)), cod):
            d2 = ITApp(d2, IApp(IBVar(0), IBVar(0)))
            return ITPi(h, ITPi(y, d1, ITPi(y2, d2, c)), cod)
        case ITPi(h, d, c):
            return ITPi(h, d, _self_applied(c))
    raise TypeError(f"no function domain of two arguments in {a!r}")


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

    def test_undefined_substitution_is_located(self, checked_goldens,
                                               translated_goldens):
        # lam's goal with its function hypothesis's second domain applying
        # the first: re-checking lam's proof, which applies the proof of
        # that hypothesis, makes the kernel instantiate it at a variable
        # of base type.  The failure is the kernel's, placed at lam's
        # refinement, and no SubstFailure escapes.
        sig, result = checked_goldens["cbv"], translated_goldens["cbv"]
        swapped = _self_applied(result.sorts["lam"])
        broken = node_replace(result,
                              sorts={**result.sorts, "lam": swapped})
        with pytest.raises(VerifyError) as info:
            verify_translation(sig, broken)
        assert info.value.message == (
            "translated proof for lam failed re-checking: substitution "
            "failed: non-function applied at arg")
        assert info.value.span == sig.const_refs["lam"][0].span
        lines = golden_path("cbv").read_text().splitlines()
        assert lines[info.value.span.line - 1].startswith("lam :: ")


class TestUncheckedSignature:
    """trans_sig needs the formations and domain types the sort checker
    fills in; on a signature it has not checked, it says so."""

    @pytest.mark.parametrize("text", [
        *(golden_path(name).read_text() for name in GOLDEN_NAMES),
        # No refinement: the unelaborated class of pp is met first.
        "nat : type. p : nat -> type. pp << p.",
    ], ids=[*GOLDEN_NAMES, "class"])
    def test_trans_sig_names_its_precondition(self, text):
        with pytest.raises(ValueError) as info:
            trans_sig(parse_signature(text))
        assert str(info.value) == (
            "trans_sig takes a signature that check_signature returned: a "
            "sort in this one was not elaborated")
        trans_sig(check_signature(parse_signature(text)))


def _checked_cbv():
    """cbv checked and translated afresh, with no step left in the budget
    its signature and its translation share: that budget must not be a
    shared fixture's."""
    sig = check_signature(parse_signature(golden_path("cbv").read_text(),
                                          filename="cbv.lfr"))
    sig.fuel.left = 0
    return sig, trans_sig(sig)


class TestExhaustedBudget:
    """Running out of budget in verification is placed at the declaration
    being re-checked, or at the refinement whose proof is re-derived."""

    def test_signature_recheck_is_located(self):
        # Of cbv's target declarations, the first to substitute is the
        # one emitted for line 14.
        sig, result = _checked_cbv()
        with pytest.raises(MetricExhausted) as info:
            verify_translation(sig, result)
        assert (info.value.span.line, info.value.span.col) == (14, 1)

    def test_proof_recheck_is_located(self, monkeypatch):
        sig, result = _checked_cbv()
        monkeypatch.setattr(lfr.translate, "lfi_check_sig",
                            lambda s: None)
        with pytest.raises(MetricExhausted) as info:
            verify_translation(sig, result)
        first = next(iter(result.sorts))
        assert info.value.span == sig.const_refs[first][0].span


class TestBudgetOfTheSignature:
    """The judgments on a signature draw on the budget it carries, which
    its translation shares; no entry point replaces it."""

    def test_later_variable_changes_no_budget(self, monkeypatch):
        # nat's budget is read while it is checked; verification and a
        # later judgment draw on it, not on a budget of LFR_FUEL=0 that
        # each would once have installed on the signature and left there.
        monkeypatch.delenv("LFR_FUEL", raising=False)
        sig = check_signature(parse_signature(
            golden_path("nat").read_text(), filename="nat.lfr"))
        monkeypatch.setenv("LFR_FUEL", "0")
        verify_translation(sig, trans_sig(sig))
        monkeypatch.delenv("LFR_FUEL")
        trans_term_check(sig, [], Const("z"), SConst("even"))

    def test_session_builds_one_budget(self, monkeypatch):
        built = []
        real_init = lfr.diagnostics._Fuel.__init__

        def counted(fuel):
            built.append(fuel)
            real_init(fuel)

        monkeypatch.setattr(lfr.diagnostics._Fuel, "__init__", counted)
        sig = check_signature(parse_signature(golden_path("cbv").read_text()))
        result = trans_sig(sig)
        verify_translation(sig, result)
        assert built == [sig.fuel] and result.lfi_sig.fuel is sig.fuel


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
            broken = node_replace(result, lfi_sig=type(result.lfi_sig)(
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


# A class intersection at `sort`: each side is a formation, reached by
# ∧-elimination on the intro constant's proof.
SORT_INTER_TEXTS = {
    "sort^sort": "nat : type. z : nat. s << nat :: sort ^ sort. z :: s.",
    "sort^top": "nat : type. z : nat. s << nat :: sort ^ #. z :: s.",
    "indexed": "nat : type. z : nat. ev << nat. z :: ev. "
               "p : nat -> type. s << p :: {x :: ev} sort ^ sort. "
               "k : p z. k :: s z.",
}


class TestClassIntersectionAtSort:
    @pytest.mark.parametrize("name", SORT_INTER_TEXTS)
    def test_checks_verifies_and_round_trips(self, name):
        sig = check_signature(parse_signature(SORT_INTER_TEXTS[name]))
        result = trans_sig(sig)
        verify_translation(sig, result)
        again = parse_lfi(print_lfi(result.lfi_sig))
        lfi_check_sig(again)
        assert [(d.name, d.classifier) for d in again] == \
            [(d.name, d.classifier) for d in result.lfi_sig]

    def test_formation_proof_is_the_first_side(self):
        sig = check_signature(parse_signature(SORT_INTER_TEXTS["indexed"]))
        assert "k^ : s z [[ (s^/i z z^).1 ]] k." in \
            print_lfi(trans_sig(sig).lfi_sig).splitlines()


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
        goal = trans_sort(nat_sig, ctx, s, simple_to_type(alpha),
                          inj_term(n), result.mangler)
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
                lfi_check(result.lfi_sig, ictx, proof, trans_sort(
                    nat_sig, ctx, q, NAT_TY, subject, result.mangler))
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
        open_hat = trans_sort(double_sig, ctx, s, a, IFVar("w"),
                              result.mangler)
        lhs = lfi_hsubst(inj_term(numeral(k)), "x", ITConst("nat"), open_hat)

        s2 = hsubst_syntax(numeral(k), "x", NAT_TY, s)
        a2 = hsubst_syntax(numeral(k), "x", NAT_TY, a)
        rhs = trans_sort(double_sig, [], s2, a2, IFVar("w"), result.mangler)
        assert lfi_equal(lhs, rhs)

    @pytest.mark.parametrize("k", [0, 2])
    def test_substitution_carries_the_proof(self, double_sig, k):
        # A hypothesis at a real sort contributes a proof variable; the
        # translated substitution replaces it with the argument's proof.
        result = trans_sig(double_sig)
        ctx = [CtxEntry("y", SConst("even"), NAT_TY)]
        s = SApp(SApp(SConst("double*"), Const("z")), FVar("y"))
        a = TApp(TApp(TConst("double"), Const("z")), FVar("y"))
        open_hat = trans_sort(double_sig, ctx, s, a, IFVar("w"),
                              result.mangler)

        ictx = trans_ctx(double_sig, ctx, result.mangler)
        proof_ty = ictx[-1].type
        arg = numeral(2 * k)
        arg_proof = trans_term_check(double_sig, [], arg, SConst("even"),
                                     result.mangler)
        lhs = lfi_hsubst(inj_term(arg), "y", ITConst("nat"), open_hat)
        lhs = lfi_hsubst(arg_proof, "y^", lfi_erase_type(proof_ty), lhs)

        s2 = hsubst_syntax(arg, "y", NAT_TY, s)
        a2 = hsubst_syntax(arg, "y", NAT_TY, a)
        rhs = trans_sort(double_sig, [], s2, a2, IFVar("w"), result.mangler)
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
        assert proofs[0] != proofs[1]

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
        assert t1 != t2

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
        stack.extend(node_kids(x))
    return out


class TestCoercions:
    def test_reflexive_coercion_is_identity(self, nat_sig):
        out = trans_subsort_check(nat_sig, [], SConst("odd"), SConst("odd"),
                                  IConst("z"), IFVar("p"))
        assert out == IFVar("p")

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_switch_along_no_edge_is_its_premise(self, checked_goldens,
                                                 name):
        # Every ("sub", q, (), ...) derivation _proof meets while the
        # golden is translated and verified: its proof is its premise's,
        # which is what the identity coercion made of it.
        sig, switches = checked_goldens[name], []
        real = lfr.translate._proof

        def proof(sig, mangler, d, at, injected):
            if d[0] == "sub" and not d[2]:
                switches.append((mangler, d, at))
            return real(sig, mangler, d, at, injected)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lfr.translate, "_proof", proof)
            verify_translation(sig, trans_sig(sig))
        assert switches
        for mangler, d, at in switches:
            _, q, path, forms, n, d1 = d
            premise = real(sig, mangler, d1, at, {})
            steps = lfr.translate._coercion(sig, q, path, forms, mangler, at)
            assert real(sig, mangler, d, at, {}) == premise == \
                lfr.translate._coerce(
                    steps, lfr.translate._inj_arg(n, {}, at), premise)

    def test_declared_edge_uses_its_constant(self, nat_sig):
        result = trans_sig(nat_sig)
        out = trans_subsort_check(
            nat_sig, [], SConst("odd"), SConst("pos"), inj_term(numeral(1)),
            trans_term_check(nat_sig, [], numeral(1), SConst("odd"),
                             result.mangler), result.mangler)
        assert "odd-pos" in _consts_in(out)

    def test_bfs_prefers_earlier_declaration_on_ties(self):
        sig = check_signature(parse_signature(DIAMOND, "diamond.lfr"))
        result = trans_sig(sig)
        verify_translation(sig, result)
        body = trans_subsort_check(sig, [], SConst("a"), SConst("d"),
                                   IConst("z"), IFVar("p"), result.mangler)
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
        proof = trans_term_check(sig, [], Const("z"), SConst("a"),
                                 result.mangler)
        coerced = trans_subsort_check(sig, [], SConst("a"), SConst("d"),
                                      IConst("z"), proof, result.mangler)
        lfi_check(result.lfi_sig, [], coerced, trans_sort(
            sig, [], SConst("d"), NAT_TY, IConst("z"), result.mangler))


def _even_to_odd(nat_sig):
    """The sort even -> odd, the first component of s's sort in nat.lfr."""
    return nat_sig.merged_ref_sort("s").left, nat_sig.term_const("s").type


class TestMetafunctions:
    """The paper's metafunctions, each built at its arguments."""

    def test_arguments_fill_in_order(self, nat_sig):
        result = trans_sig(nat_sig)
        out = trans_subsort_check(nat_sig, [], SConst("odd"), SConst("pos"),
                                  IConst("a"), IConst("b"), result.mangler)
        assert out.arg == IConst("b")
        assert out.fn.arg == IConst("a")

    def test_intersection_shares_the_subject(self, nat_sig):
        out = trans_sort(nat_sig, [], SInter(SConst("even"), SConst("pos")),
                         NAT_TY, IConst("a"))
        assert isinstance(out, ITProd)
        assert out.left.arg == out.right.arg == IConst("a")

    def test_subject_names_are_not_captured(self, nat_sig):
        # The subject's free x is not the binder x of the sort, which the
        # printer therefore shows as x'.  Pinned from the hole-based
        # translator, which filled the subject in after binding x.
        s, a = nat_sig.merged_ref_sort("s"), nat_sig.term_const("s").type
        subject = ILam("y", IApp(IApp(IConst("plus"), IFVar("x")), IBVar(0)))
        out = trans_sort(nat_sig, [], s, a, subject)
        assert pp_lfi_type(out) == (
            "({x' : nat} even [[ even^/i ]] x' -> odd [[ odd^/i ]] (plus x x'))"
            " * (({x' : nat} odd [[ odd^/i ]] x' -> even [[ even^/i ]]"
            " (plus x x')) * ({x' : nat} 1 -> pos [[ pos^/i ]] (plus x x')))")


class TestSubjectApplication:
    """A function sort applies the subject to its own bound variable."""

    def test_subject_applied_to_bound_variable(self, nat_sig):
        s, a = _even_to_odd(nat_sig)
        subject = ILam("x", IApp(IConst("s"), IBVar(0)))
        out = trans_sort(nat_sig, [], s, a, subject)
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
        out = trans_sort(nat_sig, [], s, a, subject)
        # Under x, x^, y and y^: y is index 1 and x index 3.
        assert out.cod.cod.cod.cod.arg == IPair(IBVar(1), IBVar(3))

    def test_non_function_subject_rejected(self, nat_sig):
        s, a = _even_to_odd(nat_sig)
        with pytest.raises(VerifyError):
            trans_sort(nat_sig, [], s, a, IConst("f"))


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


# The atoms a class and the kinds are translated at.
ATOMS = [ITConst(n) for n in ("t", "q^", "q", "r^", "r")]


def _ours(which, ctx, subject, mangler):
    match which:
        case 0:
            return trans_sort(REF_SIG, ctx, *subject, mangler)
        case 1:
            return trans_class_form(REF_SIG, ctx, *subject, ATOMS[1], mangler)
        case 2:
            return (trans_kind_pred(subject, *ATOMS[1:3]),
                    trans_kind_sub(subject, *ATOMS))
    return trans_ctx(REF_SIG, ctx, mangler)


def _theirs(which, ctx, subject, mangler):
    match which:
        case 0:
            s, a, n = subject
            return meta_apply(opened_trans_sort(REF_SIG, ctx, s, a, mangler),
                              [n])
        case 1:
            return meta_apply(opened_trans_class_form(REF_SIG, ctx, *subject,
                                                      mangler), ATOMS[1:2])
        case 2:
            return (meta_apply(opened_trans_kind_pred(subject), ATOMS[1:3]),
                    meta_apply(opened_trans_kind_sub(subject), ATOMS))
    return opened_trans_ctx(REF_SIG, ctx, mangler)


def _translated(translate, which, ctx, subject):
    """What one translator makes of an instance: the result's repr, which
    shows every binder hint, or the kind of its failure."""
    try:
        out = translate(which, ctx, subject, NameMangler(REF_SIG))
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
        assert _translated(_ours, *instance) == _translated(_theirs, *instance)
