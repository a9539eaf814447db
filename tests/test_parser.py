"""Surface syntax: lexing, parsing, printing, and their round trips."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from lfr import (
    LexError,
    ParseError,
    parse_lfi,
    parse_signature,
    parse_sort,
    parse_term,
    parse_type,
    pp_signature,
    print_lfi,
)
import lfr.lfi
import lfr.parser
import lfr.syntax
from lfr import lfi as L
from lfr.parser import SourceLines, tokenize
from lfr.printer import (
    pp_class,
    pp_kind,
    pp_lfi_kind,
    pp_lfi_term,
    pp_lfi_type,
    pp_sort,
    pp_term,
    pp_type,
)
from lfr.syntax import (
    App,
    Arrow,
    BVar,
    Const,
    CPi,
    FVar,
    Lam,
    KPi,
    KType,
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

from conftest import GOLDEN_DIR, GOLDEN_NAMES, golden_path
from test_cli import mangled_sources
from gen import (
    HO_CONSTS,
    LFI_NAT,
    NAT,
    binders_text,
    deep_text,
    gen_class,
    gen_dep_sort,
    gen_eta_term,
    gen_kind,
    gen_lfi_kind,
    gen_lfi_simple,
    gen_lfi_term,
    gen_lfi_type,
    gen_simple,
    gen_type,
    rehint,
)
from oracles import (
    close_at,
    node_fields,
    node_replace,
    opened_pp_class,
    opened_pp_kind,
    opened_pp_sort,
    opened_pp_term,
    opened_pp_type,
    reference_parse_lfi,
    reference_parse_signature,
    reference_tokens,
)


def decls_alpha_eq(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(alpha_eq(x, y) for x, y in zip(a.decls, b.decls))


class TestRoundTrip:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_parse_print_parse_is_stable(self, name, parsed_goldens):
        first = parsed_goldens[name]
        second = parse_signature(pp_signature(first))
        assert decls_alpha_eq(first, second)
        third = parse_signature(pp_signature(second))
        assert decls_alpha_eq(second, third)

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_checked_print_is_reparsable(self, name, checked_goldens):
        # Elaborated domain types are not part of the surface syntax, so
        # printing forgets them; the reprint must still be stable.
        text = pp_signature(checked_goldens[name])
        once = parse_signature(text)
        twice = parse_signature(pp_signature(once))
        assert decls_alpha_eq(once, twice)

    @pytest.mark.parametrize("name", ("even-odd", "double", "coerce"))
    def test_lfi_roundtrip(self, name):
        text = golden_path(name).with_suffix(".lfi").read_text()
        sig = parse_lfi(text)
        again = parse_lfi(print_lfi(sig))
        assert [d.name for d in sig] == [d.name for d in again]
        for d1, d2 in zip(sig, again):
            assert d1.classifier == d2.classifier


# Binder hints that meet the generators' constants (z, s, h, p, q), the
# free names f and a, and the names the generators give binders.
HINTS = ("x", "x'", "z", "p", "a", "v2", "b2", "b3")


def _visits(module, walk: str, parse, *args) -> int:
    """The nodes module.walk visits while parse(*args) runs."""
    count, real = 0, getattr(module, walk)

    def counted(*a, **k):
        nonlocal count
        count += 1
        return real(*a, **k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, walk, counted)
        parse(*args)
    return count


class TestScope:
    """A bound name becomes its index when it is read, and each binder is
    built around its body; nothing is closed afterwards."""

    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_source_parse_walks_no_binder(self, m):
        # Closing each binder over its body once the body was read made
        # 3 122 / 7 426 / 23 714 map_vars visits at m = 8 / 16 / 32.
        assert _visits(lfr.syntax, "map_vars", parse_signature,
                       binders_text(m)) == 0

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in GOLDEN_DIR.glob("*.lfi")))
    def test_target_parse_walks_no_binder(self, name):
        text = (GOLDEN_DIR / f"{name}.lfi").read_text()
        assert _visits(lfr.lfi, "_map_vars", parse_lfi, text) == 0

    def test_arrow_under_a_dependent_binder(self):
        # The arrow binds a variable too, so x is index 1 in its codomain.
        a = parse_type("{x : nat} nat -> p x", consts={"nat", "p"})
        assert a == TPi("x", TConst("nat"),
                        TPi("x", TConst("nat"), TApp(TConst("p"), BVar(1))))
        s = parse_sort("{x :: even} odd -> q x", consts={"even", "odd", "q"})
        assert s.cod.cod == SApp(SConst("q"), BVar(1))

    def test_kind_and_class_arrows_bind(self):
        sig = parse_signature(
            "nat : type. p : {x : nat} nat -> p2 x -> type. "
            "q << p :: {x :: #} # -> q2 x -> sort.")
        kind, cls = sig.decls[1].kind, sig.decls[2].cls
        assert kind.cod.cod == KPi("x", TApp(TConst("p2"), BVar(1)), KType())
        assert cls.cod.cod.dom_sort == SApp(SConst("q2"), BVar(1))

    def test_shadowing_takes_the_innermost_binder(self):
        assert parse_term("[x] [x] x") == Lam("x", Lam("x", BVar(0)))
        assert parse_term("[x] [y] [x] y") == Lam("x", Lam("y", Lam(
            "x", BVar(1))))
        a = parse_type("{x : nat} {x : nat} p x", consts={"nat", "p"})
        assert a.cod.cod == TApp(TConst("p"), BVar(0))

    def test_unbound_names_stay_free(self):
        assert parse_term("[x] f x") == Lam("x", App(FVar("f"), BVar(0)))

    def test_target_binders(self):
        sig = parse_lfi("nat : type. p : nat -:> nat -> type. "
                        "c : {x : nat} {y : nat} nat -> p [[x]] y. "
                        "d : (nat -> nat) -> p [[z]] ([x] x). "
                        "q : {x :: nat} {y : nat} p [[x]] y -> type.")
        inner = L.ITApp(L.ITIrrApp(L.ITConst("p"), L.IBVar(2)), L.IBVar(1))
        assert sig.decls[2].classifier == L.ITPi(
            "x", L.ITConst("nat"), L.ITPi("y", L.ITConst("nat"), L.ITPi(
                "x", L.ITConst("nat"), inner)))
        assert sig.decls[1].classifier == L.IKIrrPi(
            "x", L.ITConst("nat"), L.IKPi("x", L.ITConst("nat"), L.IKType()))
        assert sig.decls[4].classifier == L.IKIrrPi(
            "x", L.ITConst("nat"), L.IKPi("y", L.ITConst("nat"), L.IKPi(
                "x", L.ITApp(L.ITIrrApp(L.ITConst("p"), L.IBVar(1)),
                             L.IBVar(0)), L.IKType())))
        # z is not declared, so it stays free; the lambda binds under the
        # arrow's binder.
        d = sig.decls[3].classifier
        assert d.cod == L.ITApp(L.ITIrrApp(L.ITConst("p"), L.IFVar("z")),
                                L.ILam("x", L.IBVar(0)))


def forget_domain_types(t):
    """t with each sort or class binder's domain type left out, as the
    printer leaves it out."""
    if not node_fields(t):
        return t
    fields = {n: forget_domain_types(getattr(t, n)) for n in node_fields(t)}
    if "dom_type" in fields:
        fields["dom_type"] = None
    return node_replace(t, **fields)


# Declarations that make the generators' constants constants.
SOURCE_CONSTS = "nat : type. z : nat. s : nat -> nat. h : (nat -> nat) -> nat. "
TARGET_CONSTS = ("nat : type. z : nat. s : nat -> nat. "
                 "h : (nat -> nat) -> nat. p : nat -:> nat -> type. ")


@st.composite
def printed_instances(draw):
    """(language, which, t) for generated syntax over the free names f and
    a, whose binders are rehinted from HINTS: a source term, type, kind,
    sort or class, or a target term, type or kind."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    language, which = choose(0, 1), choose(0, 4)
    if language == 0:
        ctx = [("f", Arrow(NAT, NAT)), ("a", NAT)]
        if which == 0:
            t = gen_eta_term(choose, ctx, gen_simple(choose, 2),
                             choose(0, 3), HO_CONSTS)
        else:
            gen = (gen_type, gen_kind, gen_dep_sort, gen_class)[which - 1]
            t = gen(choose, ctx, choose(0, 3))
    else:
        which %= 3
        ctx = [("f", L.IArrow(LFI_NAT, LFI_NAT)), ("a", LFI_NAT)]
        if which == 0:
            t = gen_lfi_term(choose, ctx, gen_lfi_simple(choose, 2),
                             choose(0, 2))
        else:
            t = (gen_lfi_type, gen_lfi_kind)[which - 1](choose, ctx,
                                                        choose(0, 3))
    return language, which, rehint(t, lambda: HINTS[choose(0, len(HINTS) - 1)])


def _reparse_source(which: int, t):
    consts = {"z", "s", "h"}
    if which == 0:
        return parse_term(pp_term(t), consts)
    if which == 1:
        return parse_type(pp_type(t), consts)
    if which == 3:
        return parse_sort(pp_sort(t), consts)
    if which == 2:
        return parse_signature(SOURCE_CONSTS + f"c : {pp_kind(t)}.").decls[-1].kind
    text = SOURCE_CONSTS + f"q << nat :: {pp_class(t)}."
    return parse_signature(text).decls[-1].cls


def _reparse_target(which: int, t):
    if which == 0:
        # A term is read as the argument of a type family.
        text = pp_lfi_type(L.ITApp(L.ITConst("q"), t))
        return parse_lfi(TARGET_CONSTS + f"c : {text}.").decls[-1].classifier.arg
    text = (pp_lfi_type if which == 1 else pp_lfi_kind)(t)
    return parse_lfi(TARGET_CONSTS + f"c : {text}.").decls[-1].classifier


class TestPrintParse:
    """Parsing what the printers print gives back the same syntax, up to
    binder hints and the domain types the source printer leaves out."""

    @settings(max_examples=400)
    @given(printed_instances())
    def test_parse_after_print(self, inst):
        language, which, t = inst
        if language == 0:
            assert _reparse_source(which, t) == forget_domain_types(t)
        else:
            assert _reparse_target(which, t) == t

    def test_pair_with_a_pair_or_unit_on_the_left(self):
        # `<<>, z>` lexed as `<<`, the subsort symbol, and a translated
        # proof of # ^ even printed so.
        for left in (L.IUnit(), L.IPair(L.IUnit(), L.IUnit())):
            t = L.IPair(left, L.IConst("z"))
            assert pp_lfi_term(t).startswith("< <")
            assert _reparse_target(0, t) == t


@st.composite
def source_instances(draw):
    """(which, t): a term, type, kind, sort or class over f and a, whose
    binders are rehinted from HINTS, all alike or each on its own; sorts
    and classes carry elaborated domain types.  Sometimes `a` is closed
    into dangling indices."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    ctx = [("f", Arrow(NAT, NAT)), ("a", NAT)]
    which = choose(0, 4)
    if which == 0:
        t = gen_eta_term(choose, ctx, gen_simple(choose, 2), choose(0, 3),
                         HO_CONSTS)
    else:
        gen = (gen_type, gen_kind, gen_dep_sort, gen_class)[which - 1]
        t = gen(choose, ctx, choose(0, 3))
    if which >= 3 and choose(0, 1):
        # Under a binder of w that only the next Pi's domain type may
        # mention: w's binder is dependent, and its name primed, because
        # of a type that is never printed.
        pi = SPi if which == 3 else CPi
        dom_type = gen_type(choose, ctx + [("w", NAT)], choose(0, 2))
        inner = pi("y", gen_dep_sort(choose, ctx, 1), dom_type, t)
        t = pi("w", SConst("q"), TConst("nat"), close_at(inner, "w"))

    def hint():
        return HINTS[choose(0, len(HINTS) - 1)]

    if choose(0, 1):
        shared = hint()
        hint = lambda: shared  # noqa: E731
    t = rehint(t, hint)
    if choose(0, 1):
        t = close_at(t, "a")
    return which, t


class TestOpenedPrinter:
    """The source printer against a copy that opens every binder with a
    name (tests/oracles.py): the same bytes."""

    PRINTERS = ((pp_term, opened_pp_term), (pp_type, opened_pp_type),
                (pp_kind, opened_pp_kind), (pp_sort, opened_pp_sort),
                (pp_class, opened_pp_class))

    @settings(max_examples=400)
    @given(source_instances())
    def test_printer_matches(self, inst):
        which, t = inst
        ours, theirs = self.PRINTERS[which]
        assert ours(t) == theirs(t)

    def test_unprinted_domain_type_counts(self):
        # The inner Pi's domain type mentions the constant p, so the outer
        # binder is primed although p is never printed.
        inner = SPi("y", SApp(SConst("q"), BVar(0)),
                    TApp(TConst("p"), Const("z")), SConst("q"))
        s = SPi("p", SConst("q"), TConst("nat"), inner)
        assert pp_sort(s) == opened_pp_sort(s) == "{p' :: q} q p' -> q"

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_checked_goldens_match(self, name, checked_goldens):
        classifiers = {"type": 1, "kind": 2, "sort": 3, "cls": 4}
        for d in checked_goldens[name]:
            for field, which in classifiers.items():
                if hasattr(d, field):
                    ours, theirs = self.PRINTERS[which]
                    assert ours(getattr(d, field)) == theirs(getattr(d, field))


class TestExpressions:
    def test_identifier_forms(self):
        t = parse_term("dbl/z", consts={"dbl/z"})
        assert t == Const("dbl/z")
        assert parse_term("ev-app", consts={"ev-app"}) == Const("ev-app")
        assert parse_term("double*", consts={"double*"}) == Const("double*")

    def test_caret_is_not_an_identifier_character(self):
        with pytest.raises((LexError, ParseError)):
            parse_signature("na^t : type.")

    def test_application_left_nested(self):
        t = parse_term("f a b", consts={"f", "a", "b"})
        assert t == App(App(Const("f"), Const("a")), Const("b"))

    def test_lambda(self):
        t = parse_term("[x] [y] s x", consts={"s"})
        assert alpha_eq(t, Lam("x", Lam("y", App(Const("s"),
                                                 __import__("lfr").syntax.BVar(1)))))

    def test_reverse_arrow_order(self):
        fwd = parse_type("b -> a -> c", consts={"a", "b", "c"})
        rev = parse_type("c <- a <- b", consts={"a", "b", "c"})
        assert alpha_eq(fwd, rev)
        # Each operand lies under the arrows to its right, so x's index
        # in it counts them, in parentheses and under a binder too.
        for rev, fwd in [
                ("(p x <- nat) <- p x", "p x -> nat -> p x"),
                ("p x <- (p x <- nat) <- nat", "nat -> (nat -> p x) -> p x"),
                ("p x <- nat <- {y : nat} p y <- p x",
                 "({y : nat} p x -> p y) -> nat -> p x")]:
            assert (parse_type("{x : nat} " + rev, consts={"nat", "p"})
                    == parse_type("{x : nat} " + fwd, consts={"nat", "p"}))

    def test_mixed_arrows_need_parens(self):
        with pytest.raises(ParseError):
            parse_type("a -> b <- c", consts={"a", "b", "c"})
        ok = parse_type("a -> (b <- c)", consts={"a", "b", "c"})
        assert alpha_eq(ok, TPi("x", TConst("a"),
                                TPi("x", TConst("c"), TConst("b"))))

    def test_intersection_binds_looser_than_arrow(self):
        s = parse_sort("even -> odd ^ odd -> even", consts={"even", "odd"})
        assert s == SInter(SPi("x", SConst("even"), None, SConst("odd")),
                           SPi("x", SConst("odd"), None, SConst("even")))

    def test_top_sort(self):
        s = parse_sort("# -> even", consts={"even"})
        assert isinstance(s, SPi) and s.dom_sort == STop()

    def test_sort_pi_binder(self):
        s = parse_sort("{x :: even} odd", consts={"even", "odd"})
        assert isinstance(s, SPi)
        assert s.dom_sort == SConst("even")
        assert s.dom_type is None  # filled in by elaboration

    def test_dependent_pi(self):
        a = parse_type("{x : nat} d x x", consts={"nat", "d"})
        assert isinstance(a, TPi)
        from lfr.syntax import BVar, TApp

        assert a.cod == TApp(TApp(TConst("d"), BVar(0)), BVar(0))


class TestDeclarations:
    def test_default_class_is_maximal(self):
        sig = parse_signature(
            "nat : type. d : nat -> nat -> type. d* << d.")
        fam = sig.sort_fam("d*")
        from lfr.syntax import CPi, CSort, CTop, STop as Top

        cls = fam.cls
        assert isinstance(cls, CPi) and cls.dom_sort == Top()
        assert isinstance(cls.cod, CPi) and cls.cod.dom_sort == Top()
        assert isinstance(cls.cod.cod, CSort)

    def test_infix_pragma(self):
        sig = parse_signature(
            "tp : type.\n"
            "arr : tp -> tp -> tp.\n"
            "%infix right 10 arr.\n"
            "c : tp -> tp.\n")
        assert sig.term_const("arr") is not None

    def test_infix_right_associative(self):
        base = ("tp : type. a : tp. b : tp. arr : tp -> tp -> tp. "
                "%infix right 10 arr. f : tp -> tp. ")
        sugar = parse_signature(base + "c : f (a arr b arr a) -> tp.")
        explicit = parse_signature(base + "c : f (arr a (arr b a)) -> tp.")
        assert decls_alpha_eq(sugar, explicit)

    def test_implicit_quantification_rejected(self):
        text = ("nat : type. d : nat -> type. "
                "c : d X -> nat.")
        with pytest.raises(ParseError) as info:
            parse_signature(text)
        assert "explicit" in str(info.value)
        assert info.value.span is not None

    def test_subsort_declaration(self):
        sig = parse_signature(
            "nat : type. a << nat. b << nat. a <: b.")
        assert sig.sub_edges == {"a": ["b"]}


class TestErrors:
    BAD_INPUTS = (
        "nat :",
        "nat : type",
        ": type.",
        "nat : type. c : {x} nat.",
        "nat : type. c : [x] x.",
        "nat : type. %infix sideways 10 c.",
        "nat : type. c : {x : nat nat.",
        "@",
    )

    @pytest.mark.parametrize("text", BAD_INPUTS)
    def test_errors_carry_spans_in_bounds(self, text):
        with pytest.raises((LexError, ParseError)) as info:
            parse_signature(text)
        span = info.value.span
        assert span is not None
        lines = text.split("\n")
        assert 1 <= span.line <= len(lines) + 1
        assert span.col >= 1
        if span.line <= len(lines):
            assert span.col <= len(lines[span.line - 1]) + 2

    def test_error_format_has_location(self):
        with pytest.raises(ParseError) as info:
            parse_signature("nat :", filename="f.lfr")
        assert info.value.format().startswith("f.lfr:1:")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_signature, "a : type. p : a -> type. c : p (([x] x) Y).",
         "1:34: error: application of a function expression is not a "
         "canonical form"),
        (parse_lfi, "a : type. p : a -> type. c : p (<a, a> (a -> a)).",
         "1:34: error: application of a non-atomic term"),
    ], ids=["source", "target"])
    def test_a_construct_is_checked_before_its_parts(self, parse, text,
                                                     message):
        # The argument is ill formed too, but the head's error comes first.
        with pytest.raises(ParseError) as info:
            parse(text, "f")
        assert info.value.format() == "f:" + message

    def test_comments_are_skipped(self):
        sig = parse_signature("% comment\nnat : type. % trailing\n")
        assert sig.type_fam("nat") is not None


# Fragments the two lexer modes treat differently or at a boundary:
# comments and `%infix`, `-` inside and after names, projections,
# `^`, carriage returns and tabs, and characters that start no token.
LEX_FRAGMENTS = ("%infix", "%", "% c\n", "-", "->", "-:>", ".1", ".2", ".",
                 "^", "\r", "\t", "\n", " ", "\u00e9", "\u00df", "x", "Q",
                 "a'", "_", "/", "*", "0", "12", "\u00b2", "\u2460", "[[",
                 "]]", "{", "}", "(", ")", "<-", "<<", "<:", "<>", "::", ":",
                 "#", ",", "<", ">", "@", "a.1-", ".2->", "b--", "c-")
LEX_TEXTS = tuple(p.read_text() for p in sorted(GOLDEN_DIR.glob("*.lf[ri]")))


@st.composite
def lexer_inputs(draw):
    """A string of fragments, or a golden file with a few inserted."""
    fragments = st.sampled_from(LEX_FRAGMENTS)
    if draw(st.booleans()):
        return "".join(draw(st.lists(fragments, max_size=30)))
    text = draw(st.sampled_from(LEX_TEXTS))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(fragments) + text[i:]
    return text


def _kind(tok: str) -> str:
    """A token's kind, as the parser reads it from its first character."""
    if not tok:
        return "EOF"
    return "IDENT" if tok[0].isalpha() else "NUM" if tok[0].isdigit() \
        else "SYM"


def spanned_tokens(text: str, filename: str, target_mode: bool):
    """tokenize's tokens, each with the kind its first character gives it
    and the span the parser gives it."""
    lines = SourceLines(text, filename)
    texts, offsets = tokenize(text, filename, target_mode)
    return [(_kind(tok), tok, lines.span(offset, len(tok)))
            for tok, offset in zip(texts, offsets)]


def _lexed(lex, text: str, target_mode: bool):
    try:
        return [(k, t, tuple(span))
                for k, t, span in lex(text, "f.lfr", target_mode)]
    except LexError as e:
        return ("LexError", e.message, tuple(e.span))


# Whole texts, and texts a lexing error stops at a character that starts
# no token, at the start, inside and at the end.
LEXED_TEXTS = {
    **{p.name: p.read_text() for p in sorted(GOLDEN_DIR.glob("*.lf[ri]"))},
    "deep-12": deep_text(12), "deep-13": deep_text(13),
    "binders-8": binders_text(8),
    "error-first": "@nat : type.", "error-after-comment": "% c\n\t\u00e9",
    "error-in-name": "nat : ty@pe.", "error-after-number": "c : 1\u00b2.",
    "error-last": "nat : type.\r\n#@",
    # A projection ends before a name character or `-`, and `-` continues
    # a name only before a name character or another `-`.
    "proj-then-arrow": "c : a.1->b.", "proj-then-irr-arrow": "c : a.2-:>b.",
    "proj-then-hyphen": "a.1-b", "proj-then-name": "x.1y",
    "proj-then-digit": ".12", "number-then-proj": "1.1",
    "hyphen-in-name": "a-b", "hyphens-in-name": "a--b",
    "hyphens-then-arrow": "a-->b", "hyphen-at-end": "a-",
    "hyphen-then-space": "a- b", "infix-prefix": "%infixx",
    "hyphen-then-hat": "a-^b", "hat-then-hyphen": "a^-b",
}


class TestLexer:
    @settings(max_examples=400)
    @given(lexer_inputs(), st.booleans())
    def test_scanner_matches_reference_lexer(self, text, target_mode):
        assert _lexed(spanned_tokens, text, target_mode) == \
            _lexed(reference_tokens, text, target_mode)

    @pytest.mark.parametrize("target_mode", [False, True],
                             ids=["source", "target"])
    @pytest.mark.parametrize("name", LEXED_TEXTS)
    def test_texts_match_reference_lexer(self, name, target_mode):
        # The scanner tries an identifier first; no symbol or number
        # starts with a letter, so the tokens and errors are the same.
        text = LEXED_TEXTS[name]
        assert _lexed(spanned_tokens, text, target_mode) == \
            _lexed(reference_tokens, text, target_mode)

    def test_spans_end_one_past_the_last_character(self):
        text = "nat : type. % trailing\r\n% whole line\n\tz :: nat.1"
        assert [(kind, tok, tuple(span)) for kind, tok, span
                in spanned_tokens(text, "f.lfr", False)] == [
            ("IDENT", "nat", ("f.lfr", 1, 1, 1, 4)),
            ("SYM", ":", ("f.lfr", 1, 5, 1, 6)),
            ("IDENT", "type", ("f.lfr", 1, 7, 1, 11)),
            ("SYM", ".", ("f.lfr", 1, 11, 1, 12)),
            ("IDENT", "z", ("f.lfr", 3, 2, 3, 3)),
            ("SYM", "::", ("f.lfr", 3, 4, 3, 6)),
            ("IDENT", "nat", ("f.lfr", 3, 7, 3, 10)),
            ("SYM", ".1", ("f.lfr", 3, 10, 3, 12)),
            ("EOF", "", ("f.lfr", 3, 12, 3, 12)),
        ]

    def test_error_span_is_empty_at_the_character(self):
        with pytest.raises(LexError) as info:
            tokenize("a\r\n @", "f.lfr", False)
        assert info.value.message == "unexpected character '@'"
        assert info.value.span == ("f.lfr", 2, 2, 2, 2)
        assert str(info.value.span) == "f.lfr:2:2"

    @pytest.mark.parametrize("digit", ["\u00b2", "\u2460", "\u0663"])
    def test_numbers_are_ascii_digits(self, digit):
        with pytest.raises(LexError) as info:
            tokenize(f"c : 1{digit}.", "f.lfr", False)
        assert info.value.message == f"unexpected character {digit!r}"
        assert info.value.span.col == 6


def _parsed(parse, text: str):
    """The declarations parse reads from text, each with its span, or the
    error it raises: its type, message and span."""
    try:
        return [(repr(d), d.span) for d in parse(text, "f.lfr")]
    except (LexError, ParseError) as e:
        return (type(e).__name__, e.message, e.span)
    except RecursionError:
        return RecursionError


PARSERS = ((parse_signature, reference_parse_signature),
           (parse_lfi, reference_parse_lfi))
PARSED_TEXTS = sorted(GOLDEN_DIR.glob("*.lf[ri]"))


def _agrees_with_reference(text: str) -> None:
    for parse, reference in PARSERS:
        expected = _parsed(reference, text)
        if expected is not RecursionError:
            # The reference needs a frame per precedence level; where it
            # runs out of them the package may still give an answer.
            assert _parsed(parse, text) == expected


class TestReferenceParser:
    """Both parsers against the one that spanned every token and read by
    recursive descent (tests/oracles.py): the same declarations with the
    same spans, or the same error at the same place, in both modes."""

    @settings(max_examples=400)
    @given(st.one_of(mangled_sources(), lexer_inputs(),
                     st.sampled_from(PARSED_TEXTS).map(
                         lambda p: p.read_text())))
    def test_parsers_agree(self, text):
        _agrees_with_reference(text)

    @pytest.mark.parametrize("path", PARSED_TEXTS, ids=lambda p: p.name)
    def test_goldens_and_bad_files_agree(self, path):
        _agrees_with_reference(path.read_text())


def _frames() -> int:
    """The frames on the stack of the caller's caller and below."""
    frame, n = sys._getframe(2), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


class TestNesting:
    def test_deep_input_parses_under_the_default_limit(self):
        assert len(parse_signature(deep_text(400))) == 13

    @pytest.mark.parametrize("parse, text", [
        (parse_signature, deep_text(300)),
        (parse_signature, "a : type. c : " + "a -> (" * 300 + "type"
         + ")" * 300 + "."),
        (parse_signature, "a : type. q << a :: " + "# -> (" * 300 + "sort"
         + ")" * 300 + "."),
        (parse_lfi, "nat : type. z : nat. s : nat -> nat. p : nat -> type. "
                    "c : p " + "(s " * 300 + "z" + ")" * 300 + "."),
    ], ids=["source", "kind", "class", "target"])
    def test_two_frames_per_parenthesis(self, parse, text):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_frames() + 2 * 300 + 20)
        try:
            parse(text)
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("nested", [
        lambda d: "c : " + "a -> (" * d + "type" + ")" * d + ".",
        lambda d: "q << a :: " + "# -> (" * d + "sort" + ")" * d + ".",
        lambda d: "c : " + "(" * d + "z" + " arr z)" * d + ".",
        lambda d: "c : a <- " + "(a <- " * d + "a" + ")" * d + ".",
        lambda d: "c : " + "(" * d + "a" + " <- a)" * d + " <- a.",
    ], ids=["kind", "class", "infix", "back-right", "back-left"])
    def test_operands_read_again_at_most_a_few_times(self, nested):
        # Whether an operand is a kind's or a class's codomain, or the
        # left operand of an infix operator, is known only after it, and
        # the scope of a `<-` chain's operand depends on how many follow;
        # the inner ones must not be read again at every level of
        # nesting.  The depths are small, so that reading them again
        # fails in seconds even where it doubles the work per level.
        text = "a : type. z : a. arr : a -> a -> a. %infix right 1 arr. "
        reads = [_visits(lfr.parser._Parser, "operand", parse_signature,
                         text + nested(d)) for d in (8, 16)]
        assert reads[1] <= 2 * reads[0] + 10


class TestLfiSyntax:
    def test_irrelevant_application(self):
        sig = parse_lfi("a : type. p : a -:> type. c : a. q : p [[ c ]].")
        from lfr.lfi import ITIrrApp

        assert isinstance(sig.decls[-1].classifier, ITIrrApp)

    def test_products_pairs_projections(self):
        sig = parse_lfi(
            "a : type. c : a * 1. d : a -> a. e : (a -> a) * (a -> 1).")
        from lfr.lfi import ITProd, ITUnitT

        assert isinstance(sig.decls[1].classifier, ITProd)
        assert isinstance(sig.decls[1].classifier.right, ITUnitT)

    def test_kind_without_a_type_tail_reads_as_a_type(self):
        # Only a `type` or `sort` tail makes a kind, so `1` here is the
        # unit type.  Every kind ends in `type`, and a kind has no unit
        # and no product, so what reads as a kind has no `1` tail either.
        sig = parse_lfi("nat : type. c : nat -> 1.")
        assert sig.decls[1].classifier == L.ITPi("x", L.ITConst("nat"),
                                                 L.ITUnitT())
        with pytest.raises(ParseError) as info:
            parse_lfi("nat : type. d : 1 * type.", "f.lfi")
        assert info.value.message == "expected a kind"
        assert info.value.span == ("f.lfi", 1, 17, 1, 18)

    @pytest.mark.parametrize("text, message, col", [
        ("c : nat -:> nat.", "only a kind takes an argument irrelevantly",
         5),
        ("c : {x :: nat} nat.", "only a kind takes an argument irrelevantly",
         5),
        ("c : p (f [[ z ]]).",
         "only a type family takes an argument irrelevantly", 8),
        ("d : 1 * type.", "expected a kind", 5),
        ("d : nat -> 1 * type.", "expected a kind", 12),
    ], ids=["irrelevant-arrow", "irrelevant-binder", "irrelevant-application",
            "unit-kind", "product-kind"])
    def test_irrelevance_outside_kinds_and_kind_products_are_rejected(
            self, text, message, col):
        with pytest.raises(ParseError) as info:
            parse_lfi(text, "f.lfi")
        assert (info.value.message, info.value.span.col) == (message, col)
        with pytest.raises(ParseError) as info:
            reference_parse_lfi(text, "f.lfi")
        assert (info.value.message, info.value.span.col) == (message, col)

    def test_lfi_errors_have_spans(self):
        with pytest.raises((LexError, ParseError)) as info:
            parse_lfi("a : .")
        assert info.value.span is not None
