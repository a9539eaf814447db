"""The proof-irrelevant target calculus and its checker."""

from __future__ import annotations

import ast
import functools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lfr.lfi
import lfr.translate
from lfr import (
    LfiError,
    LfiSignature,
    check_signature,
    lfi_check,
    lfi_check_sig,
    lfi_equal,
    lfi_synth,
    parse_signature,
    trans_sig,
)
from lfr.lfi import (
    IApp,
    IArrow,
    IBase,
    IBVar,
    IConst,
    IFst,
    IFVar,
    IKIrrPi,
    IKPi,
    IKType,
    ILam,
    IPair,
    IProdS,
    ISnd,
    ITApp,
    ITConst,
    ITIrrApp,
    ITPi,
    ITProd,
    ITUnitT,
    IUnit,
    LfiCtxEntry,
    LfiDecl,
    _shift_lfi,
    lfi_check_kind,
    lfi_check_type,
    lfi_erase_type,
    lfi_hsubst,
    promote,
)
from lfr.diagnostics import MetricExhausted, Node, SubstFailure, VerifyError
from lfr.parser import parse_lfi
from lfr.printer import pp_lfi_kind, pp_lfi_term, pp_lfi_type, print_lfi
from lfr.syntax import ConstRef, CtxEntry, SConst, TConst
from lfr.translate import trans_ctx, verify_translation

from conftest import GOLDEN_NAMES
from gen import (
    LFI_CONSTS,
    LFI_NAT,
    binders_text,
    deep_signature,
    deep_text,
    gen_lfi_kind,
    gen_lfi_term,
    gen_lfi_type,
    gen_lfi_usable,
    lfi_simple_to_type,
    rehint,
    wide_signature,
)
from oracles import (
    close_lfi,
    match_equal,
    named_inst,
    named_subst,
    node_fields,
    node_kids,
    node_replace,
    occurs,
    opened_check,
    opened_check_kind,
    opened_check_type,
    opened_pp_lfi_kind,
    opened_pp_lfi_term,
    opened_pp_lfi_type,
    open_lfi,
    rebuilding_map_vars,
    result_key,
    uncached_check,
    uncached_check_sig,
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
        assert a != b

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
        assert not lfi_equal(ITApp(EVEN_PRED, x), ITApp(EVEN_PRED, y))
        assert lfi_equal(ITIrrApp(EVEN_PRED, x), ITIrrApp(EVEN_PRED, y))

    def test_pairs_and_projections(self):
        assert lfi_equal(IFst(IConst("c")), IFst(IConst("c")))
        assert not lfi_equal(IFst(IConst("c")), ISnd(IConst("c")))
        assert lfi_equal(IPair(num(1), IUnit()), IPair(num(1), IUnit()))


def _positions(t, path=(), relevant=True):
    """(path, node, relevant) for t and each node below it: path names
    the fields taken from t, and relevant says that no irrelevant
    argument (of an ITIrrApp) encloses the node."""
    yield path, t, relevant
    for name, kid in zip(node_fields(t), node_kids(t)):
        if isinstance(kid, Node):
            yield from _positions(kid, path + (name,), relevant and not (
                isinstance(t, ITIrrApp) and name == "arg"))


def _replaced(t, path, new):
    """t with its node at path replaced by new."""
    if not path:
        return new
    return node_replace(t, **{path[0]: _replaced(getattr(t, path[0]),
                                                 path[1:], new)})


def _rebuilt(t):
    """A copy of t that shares no node with it."""
    return type(t)(*(_rebuilt(v) if isinstance(v, Node) else v
                     for v in node_kids(t)))


# The classes whose nodes have the fields of another's.
OTHER_CLASSES = {IFst: (ISnd,), ISnd: (IFst,), ITApp: (ITIrrApp,),
                 ITIrrApp: (ITApp,), ITPi: (IKPi, IKIrrPi),
                 IKPi: (ITPi, IKIrrPi), IKIrrPi: (ITPi, IKPi),
                 IPair: (ITProd,), ITProd: (IPair,)}


def _edits(t, relevant: bool) -> list:
    """(kind, edited node, whether it must stay equal to t) for the
    one-node edits of t: a binder hint, an irrelevant argument, a name,
    an index, a relevant argument or the class; each but the first two
    breaks equality where t is relevant."""
    out = []
    if "hint" in node_fields(t):
        out.append(("hint", node_replace(t, hint=t.hint + "'"), True))
    if isinstance(t, ITIrrApp):
        out.append(("irrelevant", node_replace(t, arg=IApp(IConst("s"), t.arg)),
                    True))
    if isinstance(t, (IConst, IFVar, ITConst)):
        out.append(("name", node_replace(t, name=t.name + "'"), not relevant))
    if isinstance(t, IBVar):
        out.append(("index", IBVar(t.index + 1), not relevant))
    if isinstance(t, (IApp, ITApp)):
        out.append(("argument", node_replace(t, arg=IApp(IConst("s"), t.arg)),
                    not relevant))
    for other in OTHER_CLASSES.get(type(t), ()):
        out.append((f"{type(t).__name__} to {other.__name__}",
                    other(*node_kids(t)), not relevant))
    return out


@st.composite
def lfi_syntax(draw):
    """A term, a type or a kind over PAIR_CTX, with the variable a bound
    past the root, so that a dangling index stands for it."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    return close_lfi(_lfi_subject(choose, PAIR_CTX, "a"), "a")


@st.composite
def lfi_equality_pairs(draw):
    """(x, y, equal): x generated, y a copy of x with at most one node
    edited, and whether the two must be equal."""
    x = draw(lfi_syntax())
    # Each kind of edit x admits is as likely as any other.
    edits: dict = {}
    for path, t, relevant in _positions(x):
        for kind, new, equal in _edits(t, relevant):
            edits.setdefault(kind, []).append((path, new, equal))
    if not edits or draw(st.booleans()):
        return x, _rebuilt(x), True
    path, new, equal = draw(st.sampled_from(
        edits[draw(st.sampled_from(sorted(edits)))]))
    y = _replaced(x, path, new)
    return x, _rebuilt(y) if draw(st.booleans()) else y, equal


class TestEqualityReference:
    """lfi_equal against match_equal, the tuple-pattern equality it
    replaced: the two agree, and both give the verdict the edit calls
    for."""

    @settings(max_examples=400)
    @given(lfi_equality_pairs())
    def test_agrees_with_the_reference(self, pair):
        x, y, equal = pair
        assert lfi_equal(x, y) == lfi_equal(y, x) == match_equal(x, y) == equal

    @pytest.mark.parametrize("x", [
        IFst(IConst("c")), ITApp(ITConst("p"), IConst("c")),
        ITPi("x", ITConst("nat"), IKType()), IKPi("x", ITConst("nat"), IKType()),
        IKIrrPi("x", ITConst("nat"), IKType()), IPair(ITUnitT(), IUnit())],
        ids=lambda x: type(x).__name__)
    def test_same_fields_of_another_class_differ(self, x):
        for other in OTHER_CLASSES[type(x)]:
            y = other(*node_kids(x))
            assert not lfi_equal(x, y) and not lfi_equal(y, x)
            assert not match_equal(x, y)

    @pytest.mark.parametrize("x, y", [
        (IConst("c"), IFVar("c")), (IConst("c"), ITConst("c")),
        (IBVar(0), IBVar(1)), (IUnit(), ITUnitT()), (ITUnitT(), IKType())])
    def test_leaves(self, x, y):
        assert lfi_equal(x, _rebuilt(x)) and lfi_equal(y, _rebuilt(y))
        assert not lfi_equal(x, y) and not match_equal(x, y)


def _shares(out, t) -> bool:
    """Whether out is t at each place where the two trees are equal."""
    if out == t:
        return out is t
    return all(_shares(a, b) for a, b in zip(node_kids(out), node_kids(t))
               if isinstance(b, Node))


def _renamed(v, k):
    return IFVar("g") if isinstance(v, IFVar) and v.name == "f" else v


class TestSharing:
    """Walks that change nothing below a node return the node itself."""

    @given(lfi_syntax(), st.integers(1, 3))
    def test_shift(self, t, by):
        out = _shift_lfi(t, by)
        assert out == rebuilding_map_vars(t, lambda v, k: IBVar(
            v.index + by) if isinstance(v, IBVar) and v.index >= k else v)
        assert _shares(out, t)
        assert _shift_lfi(t, 0) is t

    @given(lfi_syntax())
    def test_map_vars(self, t):
        out = lfr.lfi._map_vars(t, _renamed)
        assert out == rebuilding_map_vars(t, _renamed)
        assert _shares(out, t)
        assert lfr.lfi._map_vars(t, lambda v, k: v) is t

    @pytest.mark.parametrize("leaf", [ITConst("nat"), IKType(), ITUnitT(),
                                      IConst("z")], ids=repr)
    def test_closed_leaf_is_not_walked(self, monkeypatch, leaf):
        def never(*args):
            raise AssertionError("walked a closed leaf")
        monkeypatch.setattr(lfr.lfi, "_Fuel", never)
        monkeypatch.setattr(lfr.lfi, "_map_vars", never)
        assert lfr.lfi._inst(leaf, [(num(1), IBase("nat"))]) is leaf
        assert _shift_lfi(leaf, 2) is leaf


class TestSubstitution:
    def test_irrelevant_occurrences_wash_out(self):
        # p occurs only irrelevantly; any two replacements agree.
        t = ITApp(ITIrrApp(EVEN_PRED, IFVar("p")), num(0))
        s1 = lfi_hsubst(EVEN_INTRO, "p", IBase("even^"), t)
        s2 = lfi_hsubst(ODD_INTRO, "p", IBase("even^"), t)
        assert lfi_equal(s1, s2)
        assert s1 != s2

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


X0 = "x0"
I_NAT = ITConst("nat")
LFI_CTX = [("a", LFI_NAT), ("f", IArrow(LFI_NAT, LFI_NAT))]
# A pair g, which a generated atom can project: without it, a subject
# holds IFst or ISnd only where a lambda binds a pair.
PAIR = ("g", IProdS(LFI_NAT, IArrow(LFI_NAT, LFI_NAT)))
PAIR_CTX = LFI_CTX + [PAIR]


def _lfi_subject(choose, ctx, var: str, which=None):
    """A term, a type or a kind (which is 0, 1 or 2, or None to draw one)
    over ctx, drawn again (up to four times) until the variable var
    occurs in it."""
    for _ in range(5):
        level = choose(0, 2) if which is None else which
        if level == 0:
            t = gen_lfi_term(choose, ctx, gen_lfi_usable(choose, 2),
                             choose(1, 3))
        else:
            gen = gen_lfi_type if level == 1 else gen_lfi_kind
            t = gen(choose, ctx, choose(1, 3))
        if occurs(var, t):
            break
    return t


def _drawn(build):
    """The strategy of build(choose), where choose(lo, hi) draws an
    integer from lo to hi."""
    return st.composite(
        lambda draw: build(lambda lo, hi: draw(st.integers(lo, hi))))()


def subst_instance(choose):
    """(alpha0, n0 at alpha0 over a, t over x0 : alpha0 and PAIR_CTX)."""
    alpha0 = gen_lfi_usable(choose, 2)
    n0 = gen_lfi_term(choose, LFI_CTX[:1], alpha0, choose(0, 2))
    return alpha0, n0, _lfi_subject(choose, [(X0, alpha0)] + PAIR_CTX, X0)


def inst_instance(choose):
    """(cod, arg, dom): a term, type or kind over PAIR_CTX under one
    binder of type dom, and an argument at dom's erasure."""
    beta = gen_lfi_usable(choose, 2)
    body = _lfi_subject(choose, PAIR_CTX + [("y", beta)], "y")
    arg = gen_lfi_term(choose, PAIR_CTX, beta, choose(0, 2))
    return close_lfi(body, "y"), arg, lfi_simple_to_type(beta)


class TestNamedOracle:
    """lfi_hsubst and instantiation against named substitution followed by
    normalisation (tests/oracles.py); subjects have nested binders, and
    substituting a function or a pair for an applied or projected
    variable leaves redexes the substitution must contract."""

    @given(_drawn(subst_instance))
    def test_hsubst_matches_named_substitution(self, inst):
        alpha0, n0, t = inst
        assert (result_key(lfi_hsubst(n0, X0, alpha0, t))
                == named_subst(n0, X0, t))

    @given(_drawn(inst_instance))
    def test_inst_matches_named_substitution(self, inst):
        cod, arg, dom = inst
        assert (result_key(lfr.lfi._inst(cod, [(arg, lfi_erase_type(dom))]))
                == named_inst(cod, arg))


def spine_instance(choose):
    """(pi, spine): a Pi type or kind over O_CTX and the pair g with two
    to four binders, each of a kind relevant or not, whose domains mention
    the binders before them, and an (argument, erased domain) pair for
    each binder.  An argument at a function or a product type is a lambda
    or a pair, so where its variable heads a spine, substitution reduces a
    redex or projects.  The hypothesis a is closed into a dangling index,
    one binder out, in pi and in the arguments."""
    outer = O_CTX + [PAIR]
    ctx, doms, spine = list(outer), [], []
    for i in range(choose(2, 4)):
        dom = gen_lfi_type(choose, ctx, choose(0, 2))
        beta = lfi_erase_type(dom)
        spine.append((gen_lfi_term(choose, outer, beta, choose(0, 2)), beta))
        doms.append(dom)
        ctx.append((f"y{i}", beta))
    which = choose(1, 2)
    t = _lfi_subject(choose, ctx, ctx[-1][0], which)
    pis = (ITPi,) if which == 1 else (IKPi, IKIrrPi)
    for (y, _), dom in reversed(list(zip(ctx[len(outer):], doms))):
        t = pis[choose(0, len(pis) - 1)](y, dom, close_lfi(t, y))
    return close_lfi(t, "a"), [(close_lfi(n, "a"), beta) for n, beta in spine]


class TestSpineInstantiation:
    """Instantiating every binder of a Pi type or kind in one walk against
    folding the one-argument instantiation over the spine, and against
    named substitution: the domains, each set to the arguments before it,
    and the codomain, set to all of them."""

    @given(_drawn(spine_instance))
    def test_one_walk_matches_folding(self, inst):
        pi, spine = inst
        folded = body = pi
        for i, (arg, beta) in enumerate(spine):
            dom = lfr.lfi._inst(body.dom, spine[:i])
            assert dom == folded.dom
            assert pp_lfi_type(dom) == pp_lfi_type(folded.dom)
            folded = lfr.lfi._inst(folded.cod, [(arg, beta)])
            body = body.cod
        out = lfr.lfi._inst(body, spine)
        assert out == folded
        pp = pp_lfi_type if isinstance(pi, ITPi) else pp_lfi_kind
        assert pp(out) == pp(folded)
        # Named substitution, with the dangling index opened as a again:
        # in body it is index len(spine).
        a = IFVar("a")
        assert (result_key(open_lfi(out, a))
                == named_inst(open_lfi(body, a, len(spine)),
                              *(open_lfi(n, a) for n, _ in spine)))


class TestGeneratedSubjects:
    @pytest.mark.parametrize("build, at", [
        (subst_instance, 2), (inst_instance, 0), (spine_instance, 0)],
        ids=["subst", "inst", "spine"])
    def test_fixed_seed_sample_projects(self, build, at):
        # The subjects TestNamedOracle and TestSpineInstantiation
        # substitute into meet both projections: at seed 0, a fifth or
        # more of 200 hold IFst, and as many ISnd.  Without the pair g,
        # 37 of the substitution subjects held IFst.
        rng = random.Random(0)
        held = Counter()
        for _ in range(200):
            names: set[str] = set()
            _classes(build(rng.randint)[at], names, {})
            held.update(names)
        assert held["IFst"] >= 40 and held["ISnd"] >= 40, held


# Few binder hints, so that nested binders often share one; they meet a
# constant, a context name and a name the generators give a binder.
O_HINTS = ("x", "x'", "z", "a", "b5")
# LFI_CTX; c and e, into the family p, so that a term at p has a head, and
# one that takes an argument.
O_CTX = LFI_CTX + [("c", IBase("p")), ("e", IArrow(LFI_NAT, IBase("p")))]
O_TYPES = {"a": I_NAT, "f": ITPi("x", I_NAT, I_NAT),
           "c": ITApp(ITIrrApp(ITConst("p"), IConst("z")), IConst("z")),
           "e": ITPi("x", I_NAT, ITApp(ITIrrApp(ITConst("p"), IConst("z")),
                                       IBVar(0)))}


def _p(proof, index):
    """p [[proof]] index."""
    return ITApp(ITIrrApp(ITConst("p"), proof), index)


# d : {x : nat} {u : p [[z]] x} {y : nat} {v : p [[x]] y} {t : p [[y]] (s x)}
#     ({w : nat} p [[x]] w) * nat
# Three of its domains and its codomain depend on the binders before them,
# so an argument at any of its five places can be ill-typed.
O_D = ITPi("x", I_NAT, ITPi("u", _p(IConst("z"), IBVar(0)), ITPi(
    "y", I_NAT, ITPi("v", _p(IBVar(2), IBVar(0)), ITPi(
        "t", _p(IBVar(1), IApp(IConst("s"), IBVar(3))),
        ITProd(ITPi("w", I_NAT, _p(IBVar(5), IBVar(0))), I_NAT))))))
O_SIG = LfiSignature([
    LfiDecl("nat", IKType()), LfiDecl("z", I_NAT),
    LfiDecl("s", ITPi("x", I_NAT, I_NAT)),
    LfiDecl("h", ITPi("g", ITPi("x", I_NAT, I_NAT), I_NAT)),
    LfiDecl("p", IKIrrPi("x", I_NAT, IKPi("y", I_NAT, IKType()))),
    LfiDecl("d", O_D),
])
# The generators' heads: d at its erasure, and d once more as if its
# codomain were a function, so that a spine of d applies a pair midway.
O_BASE = IBase("p")
O_CONSTS = LFI_CONSTS + (
    ("d", lfi_erase_type(O_D)),
    ("d", IArrow(LFI_NAT, IArrow(O_BASE, IArrow(LFI_NAT, IArrow(
        O_BASE, IArrow(O_BASE, IArrow(LFI_NAT, O_BASE))))))))


def _hints(t) -> list[str]:
    own = [t.hint] if "hint" in node_fields(t) else []
    return own + [h for v in node_kids(t) for h in _hints(v)]


def _o_subject(choose, which: int):
    """A term (with a type it has the erasure of), a type or a kind over
    O_CTX and O_CONSTS, under up to three binders of nat, each of a kind
    relevant or not.  The binders are rehinted from O_HINTS: all with one hint, or
    each with its own."""
    def hint():
        return O_HINTS[choose(0, len(O_HINTS) - 1)]

    if choose(0, 1):
        shared = hint()
        hint = lambda: shared  # noqa: E731
    outer = [(f"w{i}", choose(0, 1)) for i in range(choose(0, 3))]
    ctx = O_CTX + [(x, LFI_NAT) for x, _ in outer]
    if which == 0:
        a = gen_lfi_type(choose, ctx, choose(0, 3), O_CONSTS)
        subject = [gen_lfi_term(choose, ctx, lfi_erase_type(a),
                                choose(0, 2), O_CONSTS), a]
    else:
        gen = gen_lfi_type if which == 1 else gen_lfi_kind
        subject = [gen(choose, ctx, choose(0, 3), O_CONSTS)]
    for x, relevant in reversed(outer):
        subject = [_bind(x, relevant, t) for t in subject]
    return tuple(rehint(t, hint) for t in subject)


def _bind(x: str, relevant: bool, t):
    """t under a binder of x at nat: a lambda, or a Pi at t's level, which
    for a kind is irrelevant where relevant is false."""
    body = close_lfi(t, x)
    if lfr.lfi.is_lfi_atomic(t) or isinstance(t, (ILam, IPair, IUnit)):
        return ILam(x, body)
    if isinstance(t, (IKType, IKPi, IKIrrPi)):
        return (IKPi, IKIrrPi)[not relevant](x, I_NAT, body)
    return ITPi(x, I_NAT, body)


@st.composite
def lfi_print_instances(draw):
    """(which, t): a term, type or kind; sometimes with `a` closed into
    dangling indices."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    which = choose(0, 2)
    t = _o_subject(choose, which)[0]
    if choose(0, 1):
        t = close_lfi(t, "a")
    return which, t


@st.composite
def lfi_check_instances(draw):
    """(which, ctx, subject): O_CTX with random relevance, plus hypotheses
    named like the subject's binders."""

    def choose(lo, hi):
        return draw(st.integers(lo, hi))

    which = choose(0, 2)
    subject = _o_subject(choose, which)
    ctx = [LfiCtxEntry(x, O_TYPES[x], choose(0, 3) > 0) for x, _ in O_CTX]
    for h in dict.fromkeys(h for t in subject for h in _hints(t)):
        if choose(0, 1):
            ctx.append(LfiCtxEntry(h, I_NAT, choose(0, 1) > 0))
    return which, ctx, subject


def _outcome(call, *args):
    try:
        call(*args)
    except LfiError as e:
        return str(e)
    return None


def _e(n):
    """e n : p [[z]] n."""
    return IApp(IFVar("e"), n)


def _d_spine(end=(ISnd,), **args):
    """snd (d a (e a) z (e z) (e (s a))), well-typed at nat, with the
    arguments named in args replaced; end wraps the spine."""
    spine = {"x": IFVar("a"), "u": _e(IFVar("a")), "y": IConst("z"),
             "v": _e(IConst("z")), "t": _e(IApp(IConst("s"), IFVar("a")))}
    r = IConst("d")
    for arg in {**spine, **args}.values():
        r = IApp(r, arg)
    for wrap in end:
        r = wrap(r)
    return r


class TestOpenedOracle:
    """The printer and the checker against copies that open every binder
    with a name (tests/oracles.py): the same bytes, the same verdicts,
    the same messages."""

    PRINTERS = ((pp_lfi_term, opened_pp_lfi_term),
                (pp_lfi_type, opened_pp_lfi_type),
                (pp_lfi_kind, opened_pp_lfi_kind))
    CHECKERS = ((lfi_check, opened_check), (lfi_check_type, opened_check_type),
                (lfi_check_kind, opened_check_kind))

    @settings(max_examples=400)
    @given(lfi_print_instances())
    def test_printer_matches(self, inst):
        which, t = inst
        ours, theirs = self.PRINTERS[which]
        assert ours(t) == theirs(t)

    @settings(max_examples=400)
    @given(lfi_check_instances())
    def test_checker_matches(self, inst):
        which, ctx, subject = inst
        ours, theirs = self.CHECKERS[which]
        assert (_outcome(ours, O_SIG, ctx, *subject)
                == _outcome(theirs, O_SIG, ctx, *subject))

    def test_signature_is_well_formed(self):
        lfi_check_sig(O_SIG)

    @pytest.mark.parametrize("spine, goal, message", [
        (_d_spine(), I_NAT, None),
        (_d_spine(x=IFVar("c")), I_NAT,
         "type mismatch: expected nat, synthesized p [[ z ]] z"),
        (_d_spine(u=_e(IConst("z"))), I_NAT,
         "type mismatch: expected p [[ z ]] a, synthesized p [[ z ]] z"),
        (_d_spine(y=_e(IConst("z"))), I_NAT,
         "type mismatch: expected nat, synthesized p [[ z ]] z"),
        (_d_spine(v=_e(IFVar("a"))), I_NAT,
         "type mismatch: expected p [[ a ]] z, synthesized p [[ z ]] a"),
        (_d_spine(t=IFVar("c")), I_NAT,
         "type mismatch: expected p [[ z ]] (s a), synthesized p [[ z ]] z"),
        (IApp(_d_spine(end=()), IConst("z")), _p(IConst("z"), IConst("z")),
         "applied term of non-function type ({w : nat} p [[ a ]] w) * (nat)"),
        (IApp(IFst(_d_spine(end=())), IConst("z")), _p(IConst("z"), IConst("z")),
         None),
        (IApp(IFst(_d_spine(end=())), IFVar("c")), _p(IConst("z"), IConst("z")),
         "type mismatch: expected nat, synthesized p [[ z ]] z"),
        (_d_spine(y=IFVar("i")), I_NAT,
         "irrelevant hypothesis i used in a relevant position"),
    ], ids=["well-typed", "ill-typed-1", "ill-typed-2", "ill-typed-3",
            "ill-typed-4", "ill-typed-5", "pair-applied", "projected",
            "after-projection", "irrelevant-at-relevant"])
    def test_checker_matches_on_spines_of_d(self, spine, goal, message):
        # Every argument of d is checked against its domain set to the
        # arguments before it; a projection ends one spine and starts one.
        # The hypothesis i is irrelevant.
        ctx = ([LfiCtxEntry(x, O_TYPES[x]) for x, _ in O_CTX]
               + [LfiCtxEntry("i", I_NAT, False)])
        assert _outcome(lfi_check, O_SIG, ctx, spine, goal) == message
        assert _outcome(opened_check, O_SIG, ctx, spine, goal) == message

    @pytest.mark.parametrize("a, message", [
        (_p(IFVar("i"), IFVar("a")), None),
        (_p(IApp(IConst("s"), IFVar("i")), IFVar("a")), None),
        (_p(IConst("z"), IFVar("i")),
         "irrelevant hypothesis i used in a relevant position"),
        (ITPi("x", I_NAT, _p(IBVar(0), IFVar("i"))),
         "irrelevant hypothesis i used in a relevant position"),
        (ITApp(ITApp(ITConst("p"), IConst("z")), IConst("z")),
         "kind of p does not accept this argument shape"),
        (ITIrrApp(ITIrrApp(ITConst("p"), IConst("z")), IConst("z")),
         "kind of p does not accept this argument shape"),
        (_p(IConst("z"), IFVar("c")),
         "type mismatch: expected nat, synthesized p [[ z ]] z"),
        (_p(IFVar("c"), IConst("z")),
         "type mismatch: expected nat, synthesized p [[ z ]] z"),
    ], ids=["irrelevant-proof", "irrelevant-under-s", "irrelevant-index",
            "irrelevant-under-pi", "relevant-at-irrelevant",
            "irrelevant-at-relevant", "ill-typed-index", "ill-typed-proof"])
    def test_checker_matches_on_applications_of_p(self, a, message):
        # p's kind takes its first argument irrelevantly: the irrelevant
        # hypothesis i may occur there, and only there.
        ctx = ([LfiCtxEntry(x, O_TYPES[x]) for x, _ in O_CTX]
               + [LfiCtxEntry("i", I_NAT, False)])
        assert _outcome(lfi_check_type, O_SIG, ctx, a) == message
        assert _outcome(opened_check_type, O_SIG, ctx, a) == message

    @pytest.mark.parametrize("k, message", [
        (IKIrrPi("u", I_NAT, IKPi("_", _p(IBVar(0), IConst("z")), IKType())),
         None),
        (IKIrrPi("u", I_NAT, IKPi("_", _p(IConst("z"), IBVar(0)), IKType())),
         "irrelevant hypothesis u used in a relevant position"),
        (IKIrrPi("u", I_NAT, IKPi("_", ITPi("x", I_NAT, _p(
            IApp(IConst("s"), IBVar(1)), IBVar(0))), IKType())), None),
        (IKIrrPi("u", I_NAT, IKPi("_", ITPi("x", I_NAT, _p(
            IBVar(0), IBVar(1))), IKType())),
         "irrelevant hypothesis u used in a relevant position"),
        (IKIrrPi("u", I_NAT, IKIrrPi("v", I_NAT, IKPi("_", _p(
            IBVar(1), IBVar(0)), IKType()))),
         "irrelevant hypothesis v used in a relevant position"),
        (IKPi("u", I_NAT, IKIrrPi("v", I_NAT, IKPi("_", _p(
            IBVar(0), IBVar(1)), IKType()))), None),
        (IKIrrPi("i", I_NAT, IKPi("_", _p(IConst("z"), IBVar(0)), IKType())),
         "irrelevant hypothesis i' used in a relevant position"),
    ], ids=["proof", "index", "proof-under-pi", "index-under-pi",
            "inner-index", "outer-relevant", "hint-meets-context"])
    def test_checker_matches_on_kinds_binding_irrelevantly(self, k, message):
        # A kind's irrelevant binder may occur in a `[[ ]]` argument only,
        # also under a Pi type; i is an irrelevant context entry too.
        ctx = ([LfiCtxEntry(x, O_TYPES[x]) for x, _ in O_CTX]
               + [LfiCtxEntry("i", I_NAT, False)])
        assert _outcome(lfi_check_kind, O_SIG, ctx, k) == message
        assert _outcome(opened_check_kind, O_SIG, ctx, k) == message


def _seventy_binders():
    """70 nested Pi types, each hinted x, around a family applied to
    indices 0, 66, 69 and 75: the last one dangles, and naming a binder
    reads the names of binders more than 64 levels out."""
    t = ITApp(ITApp(ITIrrApp(ITApp(ITConst("p"), IBVar(0)),
                             IApp(IConst("c"), IBVar(66))), IBVar(69)),
              IBVar(75))
    for i in range(70):
        t = ITPi("x", ITApp(ITConst("q"), IBVar(i)) if i % 3 == 0
                 else ITConst("nat"), t)
    return t


class TestPrinterPins:
    """Bytes the printer gave when it kept a node's free indices as a set,
    for scopes wider than one machine word."""

    def test_binders_32(self):
        # 132 nested binders: free indices pass bit 63.
        sig = check_signature(parse_signature(binders_text(32)))
        pinned = Path(__file__).parent / "golden" / "printer" / "binders-32.lfi"
        assert print_lfi(trans_sig(sig).lfi_sig) == pinned.read_text()

    def test_dangling_index_under_seventy_binders(self):
        assert pp_lfi_type(_seventy_binders()) == (
            "{x : q ?69} nat -> {x' : nat} {x'' : q ?66} nat -> nat -> q ?63 "
            "-> nat -> {x''' : nat} q ?60 -> nat -> nat -> q ?57 -> nat -> "
            "{x'''' : nat} q ?54 -> nat -> nat -> q ?51 -> nat -> "
            "{x''''' : nat} q ?48 -> nat -> nat -> q ?45 -> nat -> "
            "{x'''''' : nat} q ?42 -> nat -> nat -> q ?39 -> nat -> "
            "{x''''''' : nat} q ?36 -> nat -> nat -> q x' -> nat -> "
            "{x' : nat} q x''' -> nat -> nat -> q x'''' -> nat -> "
            "{x''' : nat} q x''''' -> nat -> nat -> q x'''''' -> nat -> "
            "{x'''' : nat} q x''''''' -> nat -> nat -> q x' -> nat -> "
            "{x' : nat} q x''' -> nat -> nat -> q x'''' -> nat -> "
            "{x''' : nat} q x' -> nat -> nat -> q x''' -> nat -> "
            "{x' : nat} {x' : q x'} p x' [[ c x'' ]] x ?75")


# Values recorded from the named implementation, which opened every binder
# it substituted under; index-based substitution must reproduce them.
I_NN = IArrow(IBase("nat"), IBase("nat"))


def _ip(*args):
    t = ITConst("p")
    for a in args:
        t = ITApp(t, a)
    return t


class TestPinnedFailures:
    @pytest.mark.parametrize("n0, x0, alpha0, t, reason, path", [
        (num(0), "f", I_NN, _ip(IApp(IFVar("f"), num(0))),
         "non-function applied", ("arg",)),
        (IConst("c"), "q", IProdS(IBase("nat"), IBase("nat")),
         _ip(IFst(IFVar("q"))),
         "head-type mismatch", ("arg",)),
        (ILam("x", IBVar(0)), "f", I_NN,
         ITPi("y", I_NAT, _ip(IFst(IFVar("f")))),
         "head-type mismatch", ("cod", "arg")),
        (num(0), "f", I_NN, ILam("y", IApp(IFVar("f"), IBVar(0))),
         "non-function applied", ("body",)),
        (ILam("g", IApp(IFst(IBVar(0)), num(0))), "f",
         IArrow(IProdS(I_NN, IBase("nat")), IBase("nat")),
         IApp(IFVar("f"), IPair(num(0), num(0))),
         "non-function applied", ("beta",)),
        (ILam("x", IBVar(0)), "f", I_NN,
         IKIrrPi("y", _ip(IFVar("f")), IKType()),
         "head-type mismatch", ("dom", "arg")),
        (IPair(num(0), num(0)), "q", IProdS(IBase("nat"), IBase("nat")),
         ITPi("y", I_NAT,
              ITProd(ITUnitT(), _ip(IApp(ISnd(IFVar("q")), IBVar(0))))),
         "non-function applied", ("cod", "right", "arg")),
    ])
    def test_reason_and_path(self, n0, x0, alpha0, t, reason, path):
        with pytest.raises(SubstFailure) as info:
            lfi_hsubst(n0, x0, alpha0, t)
        assert (info.value.reason, info.value.path) == (reason, path)

    def test_instantiation_failure(self):
        with pytest.raises(SubstFailure) as info:
            lfr.lfi._inst(_ip(IApp(IBVar(0), num(0))), [(num(0), I_NN)])
        assert (info.value.reason, info.value.path) == ("non-function applied",
                                                        ("arg",))


I_TWICE = ILam("g", IApp(IBVar(0), IApp(IBVar(0), num(0))))
I_SPLIT = ILam("u", IPair(IApp(IConst("s"), IBVar(0)), IBVar(0)))
# {y : nat} {v : nat} p [[ f [w] s w ]] (f [w] y) (k v).2
I_DEP_TYPE = ITPi("y", I_NAT, ITPi("v", I_NAT, ITApp(ITApp(
    ITIrrApp(ITConst("p"), IApp(IFVar("f"), ILam("w", IApp(IConst("s"),
                                                           IBVar(0))))),
    IApp(IFVar("f"), ILam("w", IBVar(2)))),
    ISnd(IApp(IFVar("k"), IBVar(0))))))


class TestPinnedFuel:
    """The smallest LFR_FUEL at which a fixed call still succeeds."""

    @pytest.mark.parametrize("call, fuel", [
        (lambda: lfi_hsubst(I_TWICE, "f", IArrow(I_NN, IBase("nat")),
                            I_DEP_TYPE), 51),
        (lambda: lfi_hsubst(I_SPLIT, "k",
                            IArrow(IBase("nat"),
                                   IProdS(IBase("nat"), IBase("nat"))),
                            I_DEP_TYPE), 29),
        (lambda: lfr.lfi._inst(I_DEP_TYPE.cod, [(num(1), IBase("nat"))]), 21),
    ], ids=["beta", "projection", "instantiation"])
    def test_smallest_fuel(self, monkeypatch, call, fuel):
        monkeypatch.setenv("LFR_FUEL", str(fuel))
        call()
        monkeypatch.setenv("LFR_FUEL", str(fuel - 1))
        with pytest.raises(MetricExhausted):
            call()


@functools.cache
def _binder_walks(m: int) -> tuple[Counter, Counter, int]:
    """(visits of lfi._map_vars by the function whose leaf it carries,
    those of them made while a substitution walk runs, fuel ticks of those
    walks) during verify_translation and print_lfi on binders_text(m).  A
    walk ticks once at each node it visits."""
    sig = check_signature(parse_signature(binders_text(m)))
    result = trans_sig(sig)
    visits: Counter = Counter()
    inside: Counter = Counter()
    depth = ticks = 0

    class Fuel(lfr.lfi._Fuel):
        def tick(self, path):
            nonlocal ticks
            ticks += 1
            super().tick(path)

    def visit(t, leaf, k=0):
        # Shifting, naming (lfi._named) and the translator's placing of a
        # subject are leaf functions over _map_vars.
        name = leaf.__qualname__.partition(".")[0]
        visits[name] += 1
        inside[name] += depth > 0
        return walk(t, leaf, k)

    def hsubst(*args):
        nonlocal depth
        depth += 1
        try:
            return real_hsubst(*args)
        finally:
            depth -= 1

    # lfi_hsubst and a spine's instantiation both enter the one walk here.
    real_hsubst, walk = lfr.lfi._hsubst, lfr.lfi._map_vars
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lfr.lfi, "_map_vars", visit)
        patch.setattr(lfr.lfi, "_hsubst", hsubst)
        patch.setattr(lfr.lfi, "_Fuel", Fuel)
        verify_translation(sig, result)
        print_lfi(result.lfi_sig)
    return visits, inside, ticks


class TestBinderScaling:
    """Re-checking and printing a rule under many dependent binders.  The
    checker, the printer and substitution descend binders by index, so
    none of them names a bound variable (lfi._named, which only a message
    needs); what is left are shifts and the translator's placing of a
    subject under the binders of a function sort.  The count is of node
    visits, so it does not depend on the host."""

    # When verify_translation translated every sort again, it placed
    # subjects in 91 / 123 / 187 visits.  When a shift walked a closed
    # leaf (a constant, `type` or the unit type) too, it made 2 745 /
    # 3 881 / 6 153 visits; it now returns such a leaf at once.
    PINNED = {8: {"_shift_lfi": 2474, "_place": 85},
              16: {"_shift_lfi": 3522, "_place": 117},
              32: {"_shift_lfi": 5618, "_place": 181}}

    def test_substitution_walks_no_binder(self):
        # The named implementation made 784 725 of its 974 423 visits at
        # m=8 inside lfi_hsubst; by index, substitution only shifts a
        # replacement that it carries under binders.
        assert +_binder_walks(8)[1] == Counter({"_shift_lfi": 173})

    @pytest.mark.parametrize("m", [8, 16, 32])
    def test_no_binder_is_opened(self, m):
        assert _binder_walks(m)[0] == Counter(self.PINNED[m])

    def test_substitution_grows_gently_in_premises(self):
        # Substituting each argument of a spine through the whole rest of
        # its head's Pi type made 33 509 / 81 189 / 261 413 ticks at
        # m=8 / 16 / 32; one walk per spine makes under a quarter.
        at_8, at_32 = _binder_walks(8)[2], _binder_walks(32)[2]
        assert at_8 <= 33_509 / 4
        assert at_32 <= 4 ** 1.3 * at_8

    def test_visits_grow_gently_in_premises(self):
        # Doubling m multiplied the visits by 4.9 when substitution opened
        # binders too, and by about 2.7 when only the checker did; by
        # index they grow by 1.4 and then 1.6.
        at_8, at_16, at_32 = (sum(_binder_walks(m)[0].values())
                              for m in (8, 16, 32))
        assert at_16 <= 1.5 * at_8
        assert at_32 <= 1.7 * at_16


def _kernel_verdict(lfi_sig):
    """(verdict of lfi_check_sig, of the memo-free reference): None for
    acceptance, else the error's message, span and failing declaration."""
    out = []
    for check in (lfi_check_sig, uncached_check_sig):
        try:
            check(lfi_sig)
            out.append(None)
        except LfiError as e:
            out.append((e.message, e.span, e.decl))
    return tuple(out)


def _reclassified(lfi_sig, name: str, classifier) -> LfiSignature:
    return LfiSignature(LfiDecl(d.name, classifier, d.span)
                        if d.name == name else d for d in lfi_sig)


_S1, _S21 = IFst(IConst("s^")), IFst(ISnd(IConst("s^")))


def _swap_step(t, k: int):
    """t with its k-th s^.1 or s^.2.1, in preorder, swapped for the other.
    A subtree that holds neither is kept as the object it is, so the
    translator's sharing survives."""
    seen = 0

    def walk(t):
        nonlocal seen
        if t == _S1 or t == _S21:
            seen += 1
            return (_S21 if t == _S1 else _S1) if seen == k + 1 else t
        kids = node_kids(t)
        parts = [walk(v) for v in kids]
        if all(p is v for p, v in zip(parts, kids)):
            return t
        return type(t)(*parts)
    return walk(t)


def _deep_swapped(d: int, k: int) -> LfiSignature:
    """Deep's translation at depth d with level k of c^'s proof, counted
    from the outside, proving the other parity."""
    lfi_sig = trans_sig(check_signature(deep_signature(d))).lfi_sig
    c_hat = next(decl for decl in lfi_sig if decl.name == "c^")
    return _reclassified(lfi_sig, "c^", _swap_step(c_hat.classifier, k))


class TestClosedTermMemo:
    """lfi.py keeps the type of each application it checks with no
    hypothesis in scope, once per signature, and lfi_equal stops at a
    subterm both sides share.  The verdicts, messages, spans and failing
    declarations are those of the copy in tests/oracles.py that does
    neither."""

    def test_translated_goldens(self, translated_goldens):
        for name in GOLDEN_NAMES:
            lfi_sig = translated_goldens[name].lfi_sig
            assert _kernel_verdict(lfi_sig) == (None, None), name

    @pytest.mark.parametrize("make", [
        lambda: wide_signature(20), lambda: deep_signature(12),
        lambda: parse_signature(binders_text(8))],
        ids=["wide", "deep-12", "binders"])
    def test_generated_families(self, make):
        result = trans_sig(check_signature(make()))
        assert _kernel_verdict(result.lfi_sig) == (None, None)

    @pytest.mark.parametrize("other", ["top", "twice"])
    @pytest.mark.parametrize("name", ["even-odd", "coerce", "double", "cbv"])
    def test_tampered_proofs(self, name, other, checked_goldens,
                             translated_goldens, monkeypatch):
        # TestTamperedProofs' inputs: each refined constant's proof
        # constant at the predicate of top or at its own one twice.  Its
        # refinement proof is checked too, by verify_translation.
        sig, result = checked_goldens[name], translated_goldens[name]
        for c in dict.fromkeys(d.const for d in sig
                               if isinstance(d, ConstRef)):
            c_hat = result.mangler.term_const(c)
            p = next(d.classifier for d in result.lfi_sig if d.name == c_hat)
            broken = node_replace(result, lfi_sig=_reclassified(
                result.lfi_sig, c_hat,
                ITUnitT() if other == "top" else ITProd(p, p)))
            cached, uncached = _kernel_verdict(broken.lfi_sig)
            assert cached == uncached, c
            verdicts = []
            for kernel in ((lfr.translate.lfi_check_sig,
                            lfr.translate.lfi_check),
                           (uncached_check_sig, uncached_check)):
                with monkeypatch.context() as patch:
                    patch.setattr(lfr.translate, "lfi_check_sig", kernel[0])
                    patch.setattr(lfr.translate, "lfi_check", kernel[1])
                    try:
                        verify_translation(sig, broken)
                        verdicts.append(None)
                    except VerifyError as e:
                        verdicts.append((e.message, e.span))
            assert verdicts[0] is not None and verdicts[0] == verdicts[1], c

    @pytest.mark.parametrize("d, k", [(12, 0), (12, 5), (12, 11), (20, 10),
                                      (20, 19)])
    def test_step_swapped_mid_chain(self, d, k):
        # The levels inside level k check, and are kept, before it fails.
        cached, uncached = _kernel_verdict(_deep_swapped(d, k))
        assert cached is not None and cached == uncached
        assert cached[2] == "c^"
        assert cached[0].startswith("type mismatch: ")


@functools.cache
def _kernel_calls(d: int) -> Counter:
    """Entries into lfi._check, lfi._synth and lfi_equal while
    lfi_check_sig re-checks Deep's translation at depth d."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        lfi_sig = trans_sig(check_signature(
            parse_signature(deep_text(d)))).lfi_sig
        calls: Counter = Counter()

        def counted(real, name):
            def count(*args):
                calls[name] += 1
                return real(*args)
            return count

        with pytest.MonkeyPatch.context() as patch:
            for name in ("_check", "_synth", "lfi_equal"):
                patch.setattr(lfr.lfi, name,
                              counted(getattr(lfr.lfi, name), name))
            lfi_check_sig(lfi_sig)
    finally:
        sys.setrecursionlimit(limit)
    return calls


class TestDeepScaling:
    """Re-checking Deep: the proof of `c :: pp (s^d z)` has one step per
    level, and each step takes the shared index below it.  The kernel
    checks that index once and compares it by identity, so the work grows
    linearly in d.  The counts do not depend on the host.

    Re-checking the index at every level and comparing index types
    structurally made 1 010 / 13 550 / 52 670 _check and 2 937 / 40 437 /
    157 637 lfi_equal entries at d=40 / 160 / 320."""

    def test_counts_at_40(self):
        assert _kernel_calls(40) == Counter(
            {"_check": 190, "_synth": 374, "lfi_equal": 477})

    @pytest.mark.parametrize("name", ["_check", "_synth", "lfi_equal"])
    def test_growth_is_about_linear(self, name):
        counts = [_kernel_calls(d)[name] for d in (40, 80, 160, 320)]
        assert counts == sorted(counts)
        assert counts[-1] <= 8 ** 1.2 * counts[0]


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
        ctx = [LfiCtxEntry("x", IBase("nat"), False),
               LfiCtxEntry("y", IBase("nat"), True)]
        out = promote(ctx)
        assert all(e.relevant for e in out)

    def test_promote_idempotent(self):
        ctx = [LfiCtxEntry("x", IBase("nat"), False)]
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
        ctx = [LfiCtxEntry("p", ITConst("even^"), False)]
        goal = ITApp(ITIrrApp(EVEN_PRED, IFVar("p")), num(0))
        lfi_check(eo, ctx, IConst("z^"), goal)
        with pytest.raises(LfiError):
            # A proof-irrelevant hypothesis cannot appear relevantly.
            lfi_synth(eo, ctx, IFVar("p"))

    def test_bound_irrelevant_hypothesis_usable_only_irrelevantly(self):
        # r : nat -:> nat -> type; the kind binds u irrelevantly, so u may
        # be r's first argument but not its second.
        sig = LfiSignature(list(D_SIG) + [LfiDecl("r", IKIrrPi(
            "x", D_NAT, IKPi("y", D_NAT, IKType())))])

        def kind(proof, index):
            return IKIrrPi("u", D_NAT, IKPi("_", ITApp(ITIrrApp(
                ITConst("r"), proof), index), IKType()))
        lfi_check_kind(sig, [], kind(IApp(IConst("s"), IBVar(0)), D_Z))
        with pytest.raises(LfiError):
            lfi_check_kind(sig, [], kind(D_Z, IApp(IConst("s"), IBVar(0))))

    def test_kind_level_products_and_irrelevant_pi(self, eo):
        assert isinstance(eo.fam_kind("even"), IKIrrPi)
        k = eo.fam_kind("even")
        assert isinstance(k.cod, IKPi)
        assert isinstance(k.cod.cod, IKType)

    def test_signature_rejects_duplicate(self, eo):
        bad = LfiSignature(list(eo) + [LfiDecl("z", ITConst("nat"))])
        with pytest.raises(LfiError):
            lfi_check_sig(bad)

    def test_signature_rejects_family_and_constant_sharing_a_name(self):
        bad = LfiSignature([LfiDecl("nat", IKType()),
                            LfiDecl("nat", ITConst("nat"))])
        with pytest.raises(LfiError) as info:
            lfi_check_sig(bad)
        assert str(info.value) == "nat is declared twice"


D_NAT = ITConst("nat")
D_P, D_Q = ITConst("p"), ITConst("q")
D_Z = IConst("z")
# nat, z, s, the families p : nat -> type and q : nat -> nat -> type,
# and k : p z.
D_SIG = LfiSignature([
    LfiDecl("nat", IKType()), LfiDecl("z", D_NAT),
    LfiDecl("s", ITPi("x", D_NAT, D_NAT)),
    LfiDecl("p", IKPi("x", D_NAT, IKType())),
    LfiDecl("q", IKPi("x", D_NAT, IKPi("y", D_NAT, IKType()))),
    LfiDecl("k", ITApp(D_P, D_Z)),
])
D_DEP = ITPi("x", D_NAT, ITPi("h", ITApp(D_P, IBVar(0)), D_NAT))


class TestDiagnostics:
    """The checker's messages for failures under binders: a bound
    hypothesis is shown by its binder's hint, primed away from the
    context's names and from the hypotheses bound outside it."""

    @pytest.mark.parametrize("call, message", [
        (lambda: lfi_check(
            D_SIG, [], ILam("a", ILam("b", IConst("k"))),
            ITPi("a", D_NAT, ITPi("b", ITApp(D_P, IBVar(0)), ITPi(
                "a", D_NAT, ITApp(ITApp(D_Q, IBVar(2)), IBVar(0)))))),
         "type mismatch: expected {a' : nat} q a a', synthesized p z"),
        (lambda: lfi_check(D_SIG, [LfiCtxEntry("u", D_NAT, False)],
                           IApp(IConst("s"), IFVar("u")), D_NAT),
         "irrelevant hypothesis u used in a relevant position"),
        (lambda: lfi_check_kind(D_SIG, [], IKIrrPi(
            "u", D_NAT, IKPi("_", ITApp(D_P, IBVar(0)), IKType()))),
         "irrelevant hypothesis u used in a relevant position"),
        (lambda: lfi_check(D_SIG, [LfiCtxEntry("x", D_NAT)], ILam("x", D_Z),
                           ITPi("y", D_NAT, ITApp(D_P, IBVar(0)))),
         "type mismatch: expected p x', synthesized nat"),
        (lambda: lfi_check(D_SIG, [], ILam("x", ILam("h", IApp(IBVar(0), D_Z))),
                           D_DEP),
         "applied term of non-function type p x"),
        (lambda: lfi_check(D_SIG, [], ILam("x", ILam("h", IFst(IBVar(0)))),
                           D_DEP),
         "first projection of non-pair type p x"),
        (lambda: lfi_check(D_SIG, [], ILam("x", ILam("y", D_Z)),
                           ITPi("x", D_NAT, ITApp(D_P, IBVar(0)))),
         "function checked against non-function type p x"),
        (lambda: lfi_check_sig(LfiSignature(list(D_SIG) + [LfiDecl(
            "bad", IKPi("x", D_NAT, IKPi("_", ITApp(D_Q, IBVar(0)),
                                         IKType())))])),
         "type family not fully applied: q x"),
        (lambda: lfi_check(D_SIG, [], ILam("x", IBVar(1)),
                           ITPi("x", D_NAT, D_NAT)),
         "cannot synthesize a type for ?1"),
        (lambda: lfi_check_type(D_SIG, [], ITPi(
            "x", D_NAT, IApp(IConst("s"), IBVar(0)))),
         "not a type: IApp(fn=IConst(name='s'), arg=IFVar(name='x'))"),
    ], ids=["mismatch-two-deep", "irrelevant-used", "irrelevant-in-kind",
            "hint-meets-context", "non-function", "non-pair",
            "function-at-atom", "unfilled-family", "dangling-index",
            "not-a-type"])
    def test_message(self, call, message):
        with pytest.raises(LfiError) as info:
            call()
        assert str(info.value) == message


class TestUndefinedSubstitution:
    """A goal the kernel did not form can make a substitution undefined:
    here the domain of x's second argument applies x's first, which is a
    nat.  The kernel rejects it with an LfiError, as it does any other
    ill-typed input."""

    def test_substitution_failure_is_an_lfi_error(self):
        with pytest.raises(LfiError) as info:
            lfi_check(parse_lfi("nat : type. z : nat. p : nat -> type."), [],
                      ILam("x", IApp(IApp(IBVar(0), IConst("z")),
                                     IConst("z"))),
                      ITPi("x", ITPi("y", ITConst("nat"),
                                     ITPi("w", ITApp(ITConst("p"),
                                                     IApp(IBVar(0),
                                                          IConst("z"))),
                                          ITConst("nat"))),
                           ITConst("nat")))
        assert info.value.message == ("substitution failed: non-function "
                                      "applied at arg")


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


# The classes of lfi.py that no translation has to build: the simple types
# that index substitution, and the records of signatures and contexts.
NOT_EMITTED = {"IBase", "IArrow", "IProdS", "IUnitS", "LfiDecl", "LfiCtxEntry"}


def _classes(t, out: set, seen: dict) -> None:
    """Add to out the class names of t and of the nodes below it; seen
    holds each node walked, by its id, so that no id is reused."""
    if id(t) in seen or not isinstance(t, Node):
        return
    seen[id(t)] = t
    out.add(type(t).__name__)
    for v in node_kids(t):
        _classes(v, out, seen)


@pytest.fixture(scope="module")
def emitted(checked_goldens) -> set[str]:
    """The class names of the nodes the translation builds: in the
    signatures trans_sig emits for the goldens, Deep at depth 6 and
    binders with three premises, in the proofs and goals that
    verify_translation checks for them, and in trans_ctx's types."""
    sigs = [checked_goldens[name] for name in GOLDEN_NAMES]
    sigs += [check_signature(parse_signature(text))
             for text in (deep_text(6), binders_text(3))]
    built, seen = set(), {}

    def recorded(sig, ctx, n, a):
        for t in (n, a):
            _classes(t, built, seen)
        real_check(sig, ctx, n, a)

    real_check = lfr.translate.lfi_check
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lfr.translate, "lfi_check", recorded)
        for sig in sigs:
            result = trans_sig(sig)
            for d in result.lfi_sig:
                _classes(d.classifier, built, seen)
            verify_translation(sig, result)
    eo = checked_goldens["even-odd"]
    for e in trans_ctx(eo, [CtxEntry("x", SConst("even"), TConst("nat"))]):
        _classes(e.type, built, seen)
    return built


# Every node class lfi.py defines that the translation must build.
EMITTABLE = sorted(name for name, c in vars(lfr.lfi).items()
                   if isinstance(c, type) and issubclass(c, Node)
                   and c.__module__ == "lfr.lfi" and name not in NOT_EMITTED)


class TestEveryConstructorIsEmitted:
    """The kernel has no term, type or kind former that the translation
    does not build: in the signatures trans_sig emits, in the proofs that
    verify_translation derives again, or in trans_ctx, the one source of
    free variables.  A constructor none of them builds is code the trust
    base carries for nothing."""

    def test_the_constructors_are_found(self):
        assert len(EMITTABLE) == 18

    @pytest.mark.parametrize("name", EMITTABLE)
    def test_translation_builds(self, name, emitted):
        assert name in emitted
