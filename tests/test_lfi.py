"""The proof-irrelevant target calculus and its checker."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import lfr.lfi
from lfr import (
    LfiError,
    LfiSignature,
    lfi_check,
    lfi_check_sig,
    lfi_equal,
    lfi_synth,
)
from lfr.lfi import (
    IApp,
    IArrow,
    IBase,
    IBVar,
    IConst,
    IFst,
    IFVar,
    IIrrApp,
    IKIrrPi,
    IKPi,
    IKType,
    ILam,
    IPair,
    ISnd,
    ITApp,
    ITConst,
    ITIrrApp,
    ITPi,
    ITProd,
    ITUnitT,
    IUnit,
    LfiCtxEntry,
    _shift_lfi,
    close_lfi,
    lfi_hsubst,
    open_lfi,
    promote,
)

EVEN_PRED = ITConst("even")
EVEN_INTRO = IConst("even^/i")
ODD_INTRO = IConst("odd^/i")


def even_at(n):
    return ITApp(ITIrrApp(EVEN_PRED, EVEN_INTRO), n)


def num(k: int):
    n = IConst("z")
    for _ in range(k):
        n = IApp(IConst("s"), n)
    return n


@pytest.fixture(scope="module")
def eo(translated_goldens) -> LfiSignature:
    return translated_goldens["even-odd"].lfi_sig


class TestEquality:
    def test_syntactic_equality(self):
        assert lfi_equal(num(2), num(2))
        assert not lfi_equal(num(2), num(3))

    def test_irrelevant_arguments_are_skipped(self):
        a = ITApp(ITIrrApp(EVEN_PRED, EVEN_INTRO), num(0))
        b = ITApp(ITIrrApp(EVEN_PRED, ODD_INTRO), num(0))
        assert lfi_equal(a, b)
        assert not lfi_equal(a, b, respect_irrelevance=False)

    def test_relevant_arguments_still_compared(self):
        a = ITApp(ITIrrApp(EVEN_PRED, EVEN_INTRO), num(0))
        b = ITApp(ITIrrApp(EVEN_PRED, EVEN_INTRO), num(2))
        assert not lfi_equal(a, b)

    def test_heads_under_irrelevance_still_compared(self):
        a = ITIrrApp(EVEN_PRED, EVEN_INTRO)
        b = ITIrrApp(ITConst("odd"), EVEN_INTRO)
        assert not lfi_equal(a, b)

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_equivalence_on_numerals(self, i, j):
        assert lfi_equal(num(i), num(i))
        assert lfi_equal(num(i), num(j)) == lfi_equal(num(j), num(i))

    def test_congruence_except_under_irrapp(self):
        # Wrapping equal terms in the same relevant context stays equal;
        # unequal terms differ unless the hole is irrelevant.
        x, y = num(1), num(2)
        assert not lfi_equal(IApp(IConst("f"), x), IApp(IConst("f"), y))
        assert lfi_equal(IIrrApp(IConst("f"), x), IIrrApp(IConst("f"), y))

    def test_pairs_and_projections(self):
        assert lfi_equal(IFst(IConst("c")), IFst(IConst("c")))
        assert not lfi_equal(IFst(IConst("c")), ISnd(IConst("c")))
        assert lfi_equal(IPair(num(1), IUnit()), IPair(num(1), IUnit()))


class TestSubstitution:
    def test_irrelevant_occurrences_wash_out(self):
        # p occurs only irrelevantly; any two replacements agree.
        t = ITApp(ITIrrApp(EVEN_PRED, IFVar("p")), num(0))
        s1 = lfi_hsubst(EVEN_INTRO, "p", IBase("even^"), t)
        s2 = lfi_hsubst(ODD_INTRO, "p", IBase("even^"), t)
        assert lfi_equal(s1, s2)
        assert not lfi_equal(s1, s2, respect_irrelevance=False)

    def test_relevant_substitution(self):
        t = IApp(IConst("s"), IFVar("n"))
        out = lfi_hsubst(num(1), "n", IBase("nat"), t)
        assert lfi_equal(out, num(2))

    def test_beta_under_substitution(self):
        # (\x. s x) substituted into an application position reduces.
        f = ILam("x", IApp(IConst("s"), IBVar(0)))
        t = IApp(IFVar("f"), num(0))
        out = lfi_hsubst(f, "f", IArrow(IBase("nat"), IBase("nat")), t)
        assert lfi_equal(out, num(1))


class TestDeBruijn:
    def test_open_close_roundtrip(self):
        body = IApp(IApp(IConst("f"), IBVar(0)), IConst("z"))
        opened = open_lfi(body, IFVar("q"))
        assert opened == IApp(IApp(IConst("f"), IFVar("q")), IConst("z"))
        assert close_lfi(opened, "q") == body

    def test_shift_respects_cutoff(self):
        t = ILam("x", IApp(IBVar(0), IBVar(1)))
        shifted = _shift_lfi(t, 2)
        assert shifted == ILam("x", IApp(IBVar(0), IBVar(3)))

    def test_open_shifts_replacement_under_binders(self):
        # Replacing index 0 under a lambda must shift the replacement's
        # free indices past that lambda.
        t = ILam("y", IApp(IBVar(1), IBVar(0)))
        opened = open_lfi(t, IBVar(0))
        assert opened == ILam("y", IApp(IBVar(1), IBVar(0)))


class TestPromotion:
    def test_promote_makes_everything_relevant(self):
        ctx = [LfiCtxEntry("x", IBase("nat"), relevant=False),
               LfiCtxEntry("y", IBase("nat"), relevant=True)]
        out = promote(ctx)
        assert all(e.relevant for e in out)

    def test_promote_idempotent(self):
        ctx = [LfiCtxEntry("x", IBase("nat"), relevant=False)]
        assert promote(promote(ctx)) == promote(ctx)


class TestChecking:
    def test_translated_goldens_check(self, translated_goldens):
        for result in translated_goldens.values():
            lfi_check_sig(result.lfi_sig)

    def test_intro_constant_synthesizes(self, eo):
        a = lfi_synth(eo, [], EVEN_INTRO)
        assert lfi_equal(a, ITConst("even^"))

    def test_genuine_proof_accepted(self, eo):
        # s^.2 (s z) (s^.1 z z^) proves that s (s z) is even.
        proof = IApp(IApp(ISnd(IConst("s^")), num(1)),
                     IApp(IApp(IFst(IConst("s^")), num(0)), IConst("z^")))
        lfi_check(eo, [], proof, even_at(num(2)))

    def test_wrong_index_rejected(self, eo):
        with pytest.raises(LfiError):
            lfi_check(eo, [], IConst("z^"), even_at(num(1)))

    def test_wrong_intro_in_irrelevant_position_is_ignored(self, eo):
        # The classifier's irrelevant argument does not constrain z^.
        goal = ITApp(ITIrrApp(EVEN_PRED, ODD_INTRO), num(0))
        lfi_check(eo, [], IConst("z^"), goal)

    def test_unit_and_pairs(self, eo):
        lfi_check(eo, [], IUnit(), ITUnitT())
        both = ITProd(even_at(num(0)), ITUnitT())
        lfi_check(eo, [], IPair(IConst("z^"), IUnit()), both)
        with pytest.raises(LfiError):
            lfi_check(eo, [], IPair(IUnit(), IConst("z^")), both)

    def test_irrelevant_variables_usable_only_irrelevantly(self, eo):
        ctx = [LfiCtxEntry("p", ITConst("even^"), relevant=False)]
        goal = ITApp(ITIrrApp(EVEN_PRED, IFVar("p")), num(0))
        lfi_check(eo, ctx, IConst("z^"), goal)
        with pytest.raises(LfiError):
            # A proof-irrelevant hypothesis cannot appear relevantly.
            lfi_synth(eo, ctx, IFVar("p"))

    def test_kind_level_products_and_irrelevant_pi(self, eo):
        assert isinstance(eo.fam_kind("even"), IKIrrPi)
        k = eo.fam_kind("even")
        assert isinstance(k.cod, IKPi)
        assert isinstance(k.cod.cod, IKType)

    def test_signature_rejects_duplicate(self, eo):
        from lfr.lfi import LfiDecl

        bad = LfiSignature(list(eo) + [LfiDecl("z", ITConst("nat"))])
        with pytest.raises(LfiError):
            lfi_check_sig(bad)

    def test_signature_rejects_family_and_constant_sharing_a_name(self):
        from lfr.lfi import LfiDecl

        bad = LfiSignature([LfiDecl("nat", IKType()),
                            LfiDecl("nat", ITConst("nat"))])
        with pytest.raises(LfiError) as info:
            lfi_check_sig(bad)
        assert str(info.value) == "nat is declared twice"


class TestSwitching:
    def test_atomic_terms_switch_at_any_type(self, eo):
        # The checker compares a synthesized type against the goal even at
        # function types, so both the bare constant and its expansion check.
        pi = ITPi("x", ITConst("nat"), ITConst("nat"))
        lfi_check(eo, [], IConst("s"), pi)
        lfi_check(eo, [], ILam("x", IApp(IConst("s"), IBVar(0))), pi)
        with pytest.raises(LfiError):
            lfi_check(eo, [], IConst("z"), pi)


# The project modules lfi.py may import from, and the names it may take
# from each (None: any).  The printer is imported lazily, for messages.
TRUST_BASE_IMPORTS = {
    "diagnostics": None,
    "subst": {"SubstFailure", "_Fuel"},
    "syntax": {"fresh_name"},
    "printer": None,
}


def _imports(tree: ast.Module):
    """(module, names or None for the whole module, at top level) for each
    import; a relative import is named within the lfr package."""
    top_level = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        top = id(node) in top_level
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.name, None, top
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.level == 0:
                yield node.module, names, top
            elif node.module:
                yield "lfr." + node.module, names, top
            else:
                for name in names:
                    yield "lfr." + name, None, top


class TestTrustBase:
    """The target checker certifies the translation, so it must not
    depend on the source checker, the translator or subsorting."""

    def test_lfi_imports_only_the_allowed_set(self):
        tree = ast.parse(Path(lfr.lfi.__file__).read_text())
        for module, names, top_level in _imports(tree):
            package, _, sub = module.partition(".")
            if package != "lfr":
                assert package in sys.stdlib_module_names, module
                continue
            assert sub in TRUST_BASE_IMPORTS, module
            allowed = TRUST_BASE_IMPORTS[sub]
            if allowed is not None:
                assert names is not None and names <= allowed, (module, names)
            if sub == "printer":
                assert not top_level, "the printer must be imported lazily"
