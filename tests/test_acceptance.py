"""Top-level acceptance checks, one per shipped guarantee.

Each test prints a single verdict line directly to the terminal so a
full run reads as a ten-line scoreboard.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from time import perf_counter

import pytest

from lfr import (
    SortError,
    acheck,
    lfi_check,
    lfi_check_sig,
    lfi_equal,
    parse_lfi,
    trans_sort_synth_all,
    trans_term_check,
)
from lfr.cli import main
from lfr.lfi import (
    IApp,
    IConst,
    IFst,
    ILam,
    IPair,
    ISnd,
    ITApp,
    ITConst,
    ITIrrApp,
    IUnit,
    LfiError,
    is_lfi_atomic,
    lfi_synth,
)
from lfr.diagnostics import MetricExhausted
from lfr.subst import eta_expand, hsubst_n
from lfr.syntax import (
    Arrow,
    Const,
    ConstRef,
    FVar,
    KType,
    SApp,
    SConst,
    SInter,
    SPi,
    STop,
    SortFam,
    TConst,
    TPi,
    alpha_eq,
    free_vars,
)

from conftest import GOLDEN_NAMES, golden_path
from gen import NAT, gen_eta_term, gen_simple, gen_sort, numeral, simple_to_type
from oracles import from_syntax, oracle_subst
from principles import (
    check_identity,
    identity_instances,
    indexed_sort_error,
    substitution_instances,
)
from test_subsort import triangle


@contextmanager
def verdict(capsys, n: int, label: str):
    note: dict = {}
    try:
        yield note
    except BaseException as e:
        with capsys.disabled():
            print(f"\nACCEPTANCE {n} FAIL: {label}: {e}")
        raise
    extra = f" ({note['detail']})" if "detail" in note else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {n} PASS: {label}{extra}")


def _accepts(sig, ctx, n, s) -> bool:
    try:
        acheck(sig, ctx, n, s)
        return True
    except SortError:
        return False


EVEN = SConst("even")
ODD = SConst("odd")
POS = SConst("pos")
NAT_T = TConst("nat")


def test_criterion_01_goldens_check_quickly(capsys):
    with verdict(capsys, 1, "all example signatures check") as note:
        worst = 0.0
        for name in GOLDEN_NAMES:
            start = perf_counter()
            rc = main(["check", "--quiet", str(golden_path(name))])
            elapsed = perf_counter() - start
            assert rc == 0, name
            assert elapsed < 1.0, (name, elapsed)
            worst = max(worst, elapsed)
        note["detail"] = f"{len(GOLDEN_NAMES)} signatures, worst {worst:.3f}s"


def test_criterion_02_flagship_judgments(capsys, nat_sig):
    with verdict(capsys, 2, "even/odd membership judgments") as note:
        assert _accepts(nat_sig, [], numeral(2), EVEN) is True
        assert _accepts(nat_sig, [], numeral(1), SInter(ODD, POS)) is True
        assert _accepts(nat_sig, [], numeral(0), ODD) is False
        note["detail"] = "s (s z) at even, s z at odd ^ pos, z not at odd"


def test_criterion_03_indexed_static_error(capsys, double_sig):
    with verdict(capsys, 3, "odd index rejected statically") as note:
        err = indexed_sort_error(double_sig)
        assert err is not None
        assert err.kind == "subsort-failure"
        assert "argument 2" in err.message
        note["detail"] = "subsort diagnostic points at argument 2"


X0 = "x0"


def test_criterion_04_substitution_properties(capsys):
    with verdict(capsys, 4, "hereditary substitution suite") as note:
        rng = random.Random(0x5F5)
        ch = rng.randint
        cases = 0
        start = perf_counter()
        try:
            for _ in range(2050):
                alpha0 = gen_simple(ch, 2)
                n0 = gen_eta_term(ch, [], alpha0, ch(0, 2))
                ctx = [(X0, alpha0), ("f", Arrow(NAT, NAT)), ("a", NAT)]
                n = gen_eta_term(ch, ctx, gen_simple(ch, 2), ch(0, 3))

                out = hsubst_n(n0, X0, alpha0, n)
                assert alpha_eq(out, hsubst_n(n0, X0, alpha0, n))
                cases += 1

                absent = gen_eta_term(ch, ctx[1:], gen_simple(ch, 1),
                                      ch(0, 2))
                assert X0 not in free_vars(absent)
                assert alpha_eq(hsubst_n(n0, X0, alpha0, absent), absent)
                cases += 1

                assert from_syntax(out) == oracle_subst(n0, X0, n)
                cases += 1

                expansion = eta_expand(alpha0, FVar(X0))
                assert alpha_eq(hsubst_n(n0, X0, alpha0, expansion), n0)
                cases += 1

                a1 = gen_simple(ch, 1)
                n1 = gen_eta_term(ch, [(X0, alpha0)], a1, ch(0, 2))
                m = gen_eta_term(ch, [(X0, alpha0), ("x1", a1)],
                                 gen_simple(ch, 1), ch(0, 3))
                lhs = hsubst_n(n0, X0, alpha0,
                               hsubst_n(n1, "x1", a1, m))
                rhs = hsubst_n(hsubst_n(n0, X0, alpha0, n1), "x1", a1,
                               hsubst_n(n0, X0, alpha0, m))
                assert alpha_eq(lhs, rhs)
                cases += 1
        except MetricExhausted:
            raise AssertionError("substitution fuel fired")
        elapsed = perf_counter() - start
        assert cases >= 10_000, cases
        assert elapsed < 30.0, elapsed
        note["detail"] = f"{cases} cases in {elapsed:.1f}s, fuel untouched"


def test_criterion_05_identity_and_substitution(capsys, checked_goldens,
                                                nat_sig):
    with verdict(capsys, 5, "identity and substitution principles") as note:
        identities = 0
        for name, sig in checked_goldens.items():
            instances = identity_instances(sig)
            assert instances, name
            for ctx, sort, rty in instances:
                check_identity(sig, ctx, sort, rty)
                identities += 1
        done = substitution_instances(nat_sig, random.Random(55), 20)
        assert done == 20
        note["detail"] = f"{identities} identity instances, 20 substitutions"


def _closed_sort_groups(sig):
    """Closed (type, sorts) groups: nullary sort families plus every
    refined constant's merged sort at the constant's type."""
    groups: list[tuple[object, list]] = []

    def add(a, s):
        for ga, sorts in groups:
            if alpha_eq(ga, a):
                sorts.append(s)
                return
        groups.append((a, [s]))

    for d in sig:
        if isinstance(d, SortFam) and isinstance(
                sig.type_fam(d.refines).kind, KType):
            add(TConst(d.refines), SConst(d.name))
    seen = set()
    for d in sig:
        if isinstance(d, ConstRef) and d.const not in seen:
            seen.add(d.const)
            add(sig.term_const(d.const).type, sig.merged_ref_sort(d.const))
    return groups


def test_criterion_06_subsort_triangle(capsys, checked_goldens, nat_sig):
    with verdict(capsys, 6, "subsorting equivalence triangle") as note:
        golden_pairs = 0
        for name, sig in checked_goldens.items():
            for a, sorts in _closed_sort_groups(sig):
                for s in sorts:
                    for t in sorts:
                        triangle(sig, s, t, a, oracle_depth=4)
                        golden_pairs += 1
        assert golden_pairs >= 30, golden_pairs

        # The two distributivity axes must come out true.
        NN_T = TPi("x", NAT_T, NAT_T)
        assert triangle(nat_sig, STop(), SPi("x", EVEN, NAT_T, STop()),
                        NN_T) is True
        assert triangle(
            nat_sig,
            SInter(SPi("x", EVEN, NAT_T, ODD), SPi("x", EVEN, NAT_T, POS)),
            SPi("x", EVEN, NAT_T, SInter(ODD, POS)), NN_T) is True

        rng = random.Random(0x5F6)
        generated = 0
        start = perf_counter()
        for _ in range(1050):
            if rng.random() < 0.5:
                alpha, a, depth = NAT, NAT_T, 3
            else:
                alpha = gen_simple(rng.randint, 2)
                if not isinstance(alpha, Arrow):
                    alpha = Arrow(NAT, NAT)
                a, depth = simple_to_type(alpha), 3
            s = gen_sort(rng.randint, alpha, depth)
            t = gen_sort(rng.randint, alpha, depth)
            triangle(nat_sig, s, t, a, oracle_depth=4)
            generated += 1
        elapsed = perf_counter() - start
        assert generated >= 1000
        note["detail"] = (f"{golden_pairs} golden pairs, {generated} "
                          f"generated in {elapsed:.1f}s, both "
                          f"distributivity laws hold")


def _even_at(sig_result, k):
    return ITApp(ITIrrApp(ITConst("even"), IConst("even^/i")),
                 _inum(k))


def _inum(k):
    t = IConst("z")
    for _ in range(k):
        t = IApp(IConst("s"), t)
    return t


def test_criterion_07_verified_translation(capsys, checked_goldens,
                                           translated_goldens):
    with verdict(capsys, 7, "translations verify end to end") as note:
        for name in GOLDEN_NAMES:
            assert main(["verify", "--quiet", str(golden_path(name))]) == 0
        eo = translated_goldens["even-odd"]
        lfi_check_sig(eo.lfi_sig)
        proof = trans_term_check(checked_goldens["even-odd"], [], numeral(2),
                                 EVEN, eo.mangler)
        lfi_check(eo.lfi_sig, [], proof, _even_at(eo, 2))
        note["detail"] = ("verify exits 0 on all six; proof of "
                          "s (s z) at even re-checks")


def test_criterion_08_pinned_translations(capsys, translated_goldens):
    with verdict(capsys, 8, "emitted target matches pinned files") as note:
        total = 0
        for name in ("even-odd", "double", "coerce"):
            path = golden_path(name).with_suffix(".lfi")
            expected = parse_lfi(path.read_text(), str(path))
            got = translated_goldens[name].lfi_sig
            assert [d.name for d in got] == [d.name for d in expected], name
            for g, e in zip(got, expected):
                assert g.classifier == e.classifier, (name, g.name)
                total += 1
        note["detail"] = f"{total} declarations identical"


def test_criterion_09_coherence(capsys, coherence_sig, translated_goldens):
    with verdict(capsys, 9, "formation proofs are interchangeable") as note:
        result = translated_goldens["coherence"]
        s = SApp(SApp(SConst("double*"), Const("z")), Const("z"))
        proofs = trans_sort_synth_all(coherence_sig, [], s, result.mangler)
        assert len(proofs) == 2
        pred = ITApp(ITApp(ITConst(result.mangler.predicate("double*")),
                           IConst("z")), IConst("z"))
        subject = IConst("dbl/z")
        t1 = ITApp(ITIrrApp(pred, proofs[0]), subject)
        t2 = ITApp(ITIrrApp(pred, proofs[1]), subject)
        assert lfi_equal(t1, t2) is True
        assert (t1 == t2) is False
        note["detail"] = ("two candidate types for dbl/z equal exactly "
                          "under irrelevance")


def _enumerate_atomic(max_size: int):
    """Every closed atomic term over the translated even/odd constants,
    indexed by node count."""
    consts = ("z", "s", "z^", "s^", "even^/i", "odd^/i")
    atomic: dict[int, list] = {1: [IConst(c) for c in consts]}
    for size in range(2, max_size + 1):
        out = []
        for t in atomic[size - 1]:
            out.append(IFst(t))
            out.append(ISnd(t))
        for fs in range(1, size - 1):
            for f in atomic[fs]:
                for a in atomic[size - 1 - fs]:
                    out.append(IApp(f, a))
        atomic[size] = out
    return [t for ts in atomic.values() for t in ts]


def test_criterion_10_no_junk_proofs(capsys, translated_goldens):
    with verdict(capsys, 10, "no proof exists for any rejected fact") as note:
        eo = translated_goldens["even-odd"].lfi_sig
        start = perf_counter()

        # Goals are atomic predicate types, and every argument type in
        # this signature is atomic too, so non-atomic candidates are
        # structurally rejected; spot-check that before relying on it.
        goal0 = _even_at(None, 0)
        for junk in (IUnit(), IPair(IConst("z^"), IConst("z^")),
                     ILam("x", IConst("z^"))):
            assert not is_lfi_atomic(junk)
            with pytest.raises(LfiError):
                lfi_check(eo, [], junk, goal0)

        odd_at = lambda k: ITApp(ITIrrApp(ITConst("odd"), IConst("odd^/i")),
                                 _inum(k))
        rejected = [(_even_at(None, 1), "even 1"), (_even_at(None, 3),
                                                    "even 3"),
                    (odd_at(0), "odd 0"), (odd_at(2), "odd 2")]
        accepted_goal = goal0

        candidates = _enumerate_atomic(7)
        assert len(candidates) > 20_000
        found_positive = False
        for t in candidates:
            try:
                ty = lfi_synth(eo, [], t)
            except (LfiError, MetricExhausted):
                continue
            for goal, label in rejected:
                assert not lfi_equal(ty, goal), (label, t)
            if lfi_equal(ty, accepted_goal):
                found_positive = True
        assert found_positive, "the size-1 proof of even z went missing"

        # The genuine derivation for s (s z) at even still re-checks.
        proof = IApp(IApp(ISnd(IConst("s^")), _inum(1)),
                     IApp(IApp(IFst(IConst("s^")), _inum(0)), IConst("z^")))
        lfi_check(eo, [], proof, _even_at(None, 2))

        elapsed = perf_counter() - start
        assert elapsed < 60.0, elapsed
        note["detail"] = (f"{len(candidates)} candidate terms, zero "
                          f"accepted at any rejected fact, {elapsed:.1f}s")
