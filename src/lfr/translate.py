"""Compilation of refinements into proof-irrelevant predicates.

Every sort becomes a predicate family over its refined type, every
refinement declaration becomes a proof constant, and every subsorting
declaration becomes a coercion between proofs.  Formation proofs ride
along irrelevantly, so provably-equal coercion paths cannot break
equality of translated types.

A sort translates to its interpretation: a Python function of the
subject term that builds the sort's predicate type.  Kinds, classes and
subsort coercions translate to such functions too, of the family atoms
or of the subject and the proof being coerced; `meta_apply` applies
them.  Proofs of terms and formation proofs of sorts are not derived
here: the sort checker's judgments return derivations, and `_proof`
maps each rule to its target term.  A subsort switch becomes one
coercion per declared edge on the path the checker recorded with it, so
nothing here searches the subsort preorder.  The emitted signature is
self-contained and re-checkable by the target checker, which
verify_translation does.

The interpretations descend the source binders by index, as the
checkers do.  Each source binder of a function sort or class becomes the
target binders x and x^, built with their indices in place, so no binder
is opened, scanned for free names or closed again; a binder's name is
only shown, drawn from the name pool against the names shown so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .diagnostics import VerifyError
from .lfi import (
    IApp,
    IBVar,
    IConst,
    IFst,
    IFVar,
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
    LfiContext,
    LfiCtxEntry,
    LfiDecl,
    LfiError,
    LfiSignature,
    _map_vars,
    lfi_check,
    lfi_check_sig,
)
from .lfr_check import (
    SortError,
    _acheck,
    _asynth,
    _coercion_forms,
    _elab_class,
    _elab_sort,
    _form_atom,
    _pp,
    build_closure,  # noqa: F401  (bound for bench/tracer.py)
    subsort_path,
    subsort_q,
)
from .printer import pp_sort
from .subst import erase_type, eta_expand
from .subst import hsubst_syntax  # noqa: F401  (bound for bench/tracer.py)
from .syntax import (
    App,
    Arrow,
    BVar,
    CInter,
    Const,
    ConstRef,
    CPi,
    CSort,
    CTop,
    Context,
    FVar,
    KPi,
    KType,
    Lam,
    SApp,
    SConst,
    Signature,
    SInter,
    SortFam,
    SPi,
    STop,
    SubDecl,
    TApp,
    TConst,
    TermConst,
    TPi,
    TypeFam,
    pool_name,
    sort_spine,
)


class NameMangler:
    """Deterministic fresh names for the emitted signature.

    Proof constants and families append '^' (illegal in source
    identifiers) and keep appending while colliding; coercions join the
    two sort names with '-'.  Names are memoized, so any fixed request
    order yields a reproducible naming.
    """

    def __init__(self, sig: Signature):
        self.used: set[str] = set()
        for d in sig:
            if isinstance(d, (TypeFam, TermConst)):
                self.used.add(d.name)
        self._memo: dict[tuple[str, str], str] = {}

    def _fresh(self, base: str) -> str:
        while base in self.used:
            base += "^"
        self.used.add(base)
        return base

    def _get(self, kind: str, name: str, base: str) -> str:
        key = (kind, name)
        if key not in self._memo:
            self._memo[key] = self._fresh(base)
        return self._memo[key]

    def term_const(self, c: str) -> str:
        return self._get("const", c, c + "^")

    def sort_proof_fam(self, s: str) -> str:
        return self._get("proof", s, s + "^")

    def sort_intro(self, s: str) -> str:
        key = ("intro", s)
        if key not in self._memo:
            name = self.sort_proof_fam(s) + "/i"
            self.used.add(name)
            self._memo[key] = name
        return self._memo[key]

    def predicate(self, s: str) -> str:
        return self._get("pred", s, s)

    def coercion(self, s1: str, s2: str) -> str:
        return self._get("coerce", f"{s1}\x00{s2}", f"{s1}-{s2}")


@dataclass
class TransResult:
    lfi_sig: LfiSignature
    provenance: dict[str, str]
    mangler: NameMangler
    sorts: dict[str, Metafunction]    # each refined constant's trans_sort


# ---------------------------------------------------------------------------
# Injection of the simply-typed skeleton
#
# Target syntax is built at a place (levels, depth, shown): for each
# source binder passed, outermost first, the target level of its x (its
# x^, if any, is just inside), its type and its shown name; the number of
# target binders; and the names shown so far, the context's and the
# binders'.  A domain's predicate sits under x alone.
At = tuple[tuple[tuple[int, object, str], ...], int, frozenset[str]]


def _root(ctx: Context = ()) -> At:
    return ((), 0, frozenset(e.name for e in ctx))


def _bind(at: At, x: str, a=None, binders: int = 2) -> At:
    """at under one more source binder, of type a and shown as x."""
    levels, depth, shown = at
    return levels + ((depth, a, x),), depth + binders, shown | {x}


def inj_term(t):
    """The target term, type or kind with t's structure."""
    return _inj_arg(t, {})


inj_type = inj_kind = inj_term


def _inj_arg(t, memo: dict, at: At = _root(), k: int = 0):
    """inj_term of t read at `at`: past t's own k binders, the checker's
    index i is its binder's x, and an index past the binders passed keeps
    its distance to them.  `memo` maps (id, k, depth) of a node injected,
    where a depth has one set of levels, to the node and its injection,
    so that a node met again is not walked again."""
    levels, depth, _ = at
    key = (id(t), k, depth)
    if key in memo:
        return memo[key][1]
    match t:
        case Const(n):
            out = IConst(n)
        case FVar(n):
            out = IFVar(n)
        case BVar(i) if i < k:
            out = IBVar(i)
        case BVar(i) if i - k < len(levels):
            out = IBVar(k + depth - 1 - levels[k - 1 - i][0])
        case BVar(i):
            out = IBVar(i + depth - len(levels))
        case App(f, a) | TApp(f, a):
            out = (IApp if isinstance(t, App) else ITApp)(
                _inj_arg(f, memo, at, k), _inj_arg(a, memo, at, k))
        case Lam(h, b):
            out = ILam(h, _inj_arg(b, memo, at, k + 1))
        case TConst(n):
            out = ITConst(n)
        case KType():
            out = IKType()
        case TPi(h, d, c) | KPi(h, d, c):
            out = (ITPi if isinstance(t, TPi) else IKPi)(
                h, _inj_arg(d, memo, at, k), _inj_arg(c, memo, at, k + 1))
        case _:
            raise TypeError(f"inj_term: {t!r}")
    memo[key] = (t, out)
    return out


def _eta(a, head, avoid: set[str]):
    """inj_term(eta_expand(a, r)) for the atomic r whose injection, read
    where the result is, is head, and with avoid = free_vars(r): the
    lambdas take the hints eta_expand picks, and head moves past them."""
    lams, avoid, a = [], set(avoid), erase_type(a)
    while isinstance(a, Arrow):
        lams.append((len(lams), a.dom, pool_name("x", avoid)))
        avoid.add(lams[-1][2])
        a = a.cod
    if isinstance(head, IBVar):
        head = IBVar(head.index + len(lams))
    t = _applied(head, (lams, len(lams), avoid), IApp)
    for *_, x in reversed(lams):
        t = ILam(x, t)
    return t


def _applied(t, at: At, app=ITApp):
    """t applied to the variable of each binder passed, eta-long."""
    levels, depth, _ = at
    for level, a, x in levels:
        t = app(t, _eta(a, IBVar(depth - 1 - level), {x}))
    return t


# ---------------------------------------------------------------------------
# Interpretations


@dataclass(frozen=True)
class Metafunction:
    """An interpretation: `fn` builds a target type, kind or proof from
    `arity` arguments."""

    arity: int
    fn: Callable


def meta_apply(f: Metafunction, args: list):
    """Apply an interpretation; the one place where one is applied."""
    if len(args) != f.arity:
        raise VerifyError(
            f"metafunction of arity {f.arity} applied to {len(args)} arguments")
    return f.fn(*args)


# ---------------------------------------------------------------------------
# Kinds


def trans_kind_pred(kind) -> Metafunction:
    """Kind of a sort's predicate family.

    Arguments: the proof family atom and the refined family atom, both
    closed constants, so the names bound here cannot capture them.  At
    base kind the predicate takes the formation proof irrelevantly and
    then the subject.
    """
    def base(atoms, indexed, avoid):
        pf, fam = atoms
        return IKIrrPi("_", indexed(pf, 0),
                       IKPi("x", indexed(fam, 1), IKType()))
    return Metafunction(
        2, lambda *atoms: _over_indices(kind, atoms, IKPi, base))


def trans_kind_sub(kind) -> Metafunction:
    """Type of a coercion constant between two sorts over one kind.

    Arguments, all closed constants: the refined family atom, then the
    proof family and predicate atoms of the first sort and of the second.
    Index arguments come first and are bare; then the two formation
    proofs, the subject, and the proof being coerced.
    """
    def base(atoms, indexed, avoid):
        fam, pf1, pred1, pf2, pred2 = atoms
        subject = pool_name("x", avoid | {"f1", "f2"})
        # Under f1, f2, the subject and the proof: f1 is 3, f2 2, x 1.
        t = ITPi("_", ITApp(ITIrrApp(indexed(pred1, 3), IBVar(2)), IBVar(0)),
                 ITApp(ITIrrApp(indexed(pred2, 4), IBVar(2)), IBVar(1)))
        t = ITPi(subject, indexed(fam, 2), t)
        t = ITPi("f2", indexed(pf2, 1), t)
        return ITPi("f1", indexed(pf1, 0), t)
    return Metafunction(
        5, lambda *atoms: _over_indices(kind, atoms, ITPi, base))


def _over_indices(kind, atoms, pi, base, at: At = _root()):
    """One `pi` for each index argument of kind, around base(atoms,
    indexed, names bound), where indexed(t, extra) is t applied to every
    index, read under `extra` binders more.  Each index is one target
    binder, so the domains inject as they are."""
    match kind:
        case KType():
            levels, depth, shown = at
            return base(atoms, lambda t, extra: _applied(
                t, (levels, depth + extra, shown)), shown)
        case KPi(h, a, k2):
            y = pool_name(h, at[2])
            return pi(y, inj_type(a), _over_indices(k2, atoms, pi, base,
                                                    _bind(at, y, a, 1)))
    raise TypeError(f"_over_indices: not a kind: {kind!r}")


# ---------------------------------------------------------------------------
# Sorts, classes, formation proofs


def trans_sort(sig: Signature, ctx: Context, s, a, mangler=None
               ) -> Metafunction:
    """Predicate type for a sort, as a function of the (injected) subject."""
    mangler = mangler or NameMangler(sig)
    s = _elab_sort(sig, ctx, (), s, a, None)
    return Metafunction(1, _sort_body(sig, s, a, mangler, _root(ctx)))


def _sort_body(sig, s, a, mangler, at: At):
    """The sort's predicate type as a function of the subject.

    The type is built at `at`, all but the subject once, here; an atom's
    formation proof is of the first derivation the sort checker recorded
    when it elaborated the atom.  The function takes the subject and the
    number (by default 0) of its lambdas enclosing function sorts stripped,
    and places it (see _place) at the root of the type, so none of its
    free names is captured."""
    match s:
        case STop():
            return lambda n, p=0: ITUnitT()
        case SInter(l, r):
            left, right = (_sort_body(sig, side, a, mangler, at)
                           for side in (l, r))
            return lambda n, p=0: ITProd(left(n, p), right(n, p))
        case SPi(h, ds, _, cod):
            wrap, at = _binder(sig, h, ds, a.dom, mangler, at)
            cod_body = _sort_body(sig, cod, a.cod, mangler, at)

            def body(n, p=0):
                if not isinstance(n, ILam):
                    raise VerifyError(
                        "reverse application of a non-function term")
                # The subject applied to x: the lambda's variable becomes x
                # when the subject is placed.
                return wrap(cod_body(n.body, p + 1))
            return body
        case SConst() | SApp():
            head, args = sort_spine(s)
            injected: dict = {}
            pred = ITConst(mangler.predicate(head.name))
            for m in args:
                pred = ITApp(pred, _inj_arg(m, injected, at))
            atom, derivs = sig.formations.get(id(s), (None, None))
            if atom is not s:
                raise TypeError("trans_sort: sort was not elaborated")
            pred = ITIrrApp(pred, _proof(sig, mangler, derivs[0], at,
                                         injected))
            return lambda n, p=0: ITApp(pred, _place(n, p))
    raise TypeError(f"trans_sort: not a sort: {s!r}")


def _binder(sig, h, ds, a, mangler, at: At):
    """For the binder of a function sort or class over ds at type a, read
    at `at`: the function that binds x and x^ around a type, and the place
    its body is read at.  x^'s type, ds's predicate of x, sits under x
    alone."""
    levels, depth, shown = at
    x = pool_name(h, shown)
    dom = _inj_arg(a, {}, at)
    dom_pred = _sort_body(sig, ds, a, mangler,
                          (levels, depth + 1, shown | {x}))
    dom_pred = dom_pred(_eta(a, IBVar(0), {x}))
    return (lambda t: ITPi(x, dom, ITPi(x + "^", dom_pred, t)),
            _bind(at, x, a))


def _place(n, p: int):
    """The subject n, p of whose lambdas function sorts stripped, placed
    under their 2p binders x and x^: the variable of the j-th stripped
    lambda, innermost first, is x at index 2j + 1, and an index past
    them moves up by p."""
    def leaf(v, k):
        j = v.index - k if isinstance(v, IBVar) else -1
        return v if j < 0 else IBVar(k + (2 * j + 1 if j < p else j + p))
    return _map_vars(n, leaf) if p else n


def trans_class_form(sig: Signature, ctx: Context, cls, kind, mangler
                     ) -> Metafunction:
    """Type of a sort's intro constant, as a function of the proof family
    atom, a closed constant; cls is elaborated against kind first."""
    cls = _elab_class(sig, ctx, (), cls, kind, None)
    return Metafunction(1, lambda pf: _class_form_body(
        sig, cls, mangler, pf, _root(ctx)))


def _class_form_body(sig, cls, mangler, pf, at: At):
    """cls built at `at`; at `sort`, pf is applied to the variables of the
    binders passed."""
    match cls:
        case CSort():
            return _applied(pf, at)
        case CTop():
            return ITUnitT()
        case CInter(l, r):
            return ITProd(*(_class_form_body(sig, side, mangler, pf, at)
                            for side in (l, r)))
        case CPi(h, ds, dt, body):
            wrap, at = _binder(sig, h, ds, dt, mangler, at)
            return wrap(_class_form_body(sig, body, mangler, pf, at))
    raise TypeError(f"trans_class_form: not a class: {cls!r}")


def trans_sort_synth_all(sig: Signature, ctx: Context, q, mangler=None
                         ) -> list:
    """Every formation proof of an atomic sort, in elimination order."""
    mangler = mangler or NameMangler(sig)
    return [_proof(sig, mangler, d, _root(ctx), {})
            for d in _form_atom(sig, ctx, (), q, None, None)]


# ---------------------------------------------------------------------------
# Terms


def trans_term_synth(sig: Signature, ctx: Context, r, mangler=None) -> list:
    """Synthesis set paired with the proof for each component."""
    mangler = mangler or NameMangler(sig)
    return [(q, _proof(sig, mangler, d, _root(ctx), {}))
            for q, d in _asynth(sig, ctx, (), r, None)]


def trans_term_check(sig: Signature, ctx: Context, n, s, mangler=None):
    """Proof term witnessing that n inhabits s."""
    mangler = mangler or NameMangler(sig)
    return _proof(sig, mangler,
                  _acheck(sig, ctx, (), n, s, None), _root(ctx), {})


def _proof(sig, mangler, d, at: At, injected: dict):
    """The proof a checker derivation (see lfr_check) denotes, at `at`.

    A `lam` proof binds the checker's binder twice, as x and then x^, so
    from the root the checker's index i is x^ at target index 2i and x at
    2i + 1.  Its binder is shown under the pool name its hint gets against
    the names shown so far.  `injected` is _inj_arg's memo for the whole
    tree: the arguments of an argument's premises are its own subterms, so
    each is injected once.
    """
    levels, depth, shown = at

    def premise(d1):
        return _proof(sig, mangler, d1, at, injected)

    match d:
        case ("const", c, k):
            # c^ fuses all c's refinements: its first k, one fst per later one.
            out = IConst(mangler.term_const(c))
            for _ in range(len(sig.const_refs[c]) - k):
                out = IFst(out)
            return out
        case ("intro", s):
            return IConst(mangler.sort_intro(s))
        case ("var", int(i)):
            return IBVar(depth - 2 - levels[-1 - i][0])
        case ("var", x):
            return IFVar(x + "^")
        case ("fst" | "snd") as side, d1:
            return (IFst if side == "fst" else ISnd)(premise(d1))
        case ("app", d_fn, arg, d_arg):
            return IApp(IApp(premise(d_fn), _inj_arg(arg, injected, at)),
                        premise(d_arg))
        case ("unit",):
            return IUnit()
        case ("pair", d1, d2):
            return IPair(premise(d1), premise(d2))
        case ("lam", hint, body):
            x = pool_name(hint, shown)
            inner = _proof(sig, mangler, body, _bind(at, x), injected)
            return ILam(x, ILam(x + "^", inner))
        case ("sub", q, path, forms, n, d1):
            coerce = _coercion(sig, q, path, forms, mangler, at)
            return meta_apply(coerce, [_inj_arg(n, injected, at),
                                       premise(d1)])
    raise TypeError(f"_proof: not a derivation: {d!r}")


# ---------------------------------------------------------------------------
# Subsort coercions


def trans_subsort_check(sig: Signature, ctx: Context, q1, q2, mangler=None
                        ) -> Metafunction:
    """Coercion between atomic sorts, a function of subject and proof."""
    if not subsort_q(sig, q1, q2):
        raise SortError("subsort-failure",
                        lambda: f"no declared path from "
                                f"{_pp(pp_sort, q1, ctx, ())} "
                                f"to {_pp(pp_sort, q2, ctx, ())}")
    path = subsort_path(sig, q1, q2)
    return _coercion(sig, q1, path,
                     _coercion_forms(sig, ctx, (), q1, path, None),
                     mangler or NameMangler(sig), _root(ctx))


def _coercion(sig, q1, path, forms, mangler, at: At) -> Metafunction:
    """Wrap the proof in one coercion per step of path, the heads q1's head
    is taken through (see lfr_check.subsort_path).

    forms are the formations of q1 and of each step's sort (see
    lfr_check._coercion_forms); they and q1 are built at `at`.
    """
    injected: dict = {}
    proofs = (_proof(sig, mangler, d, at, injected) for d in forms)
    head, spine = sort_spine(q1)
    head, steps, form = head.name, [], next(proofs, None)
    for step, form_step in zip(path, proofs):
        t = IConst(mangler.coercion(head, step))
        for m in spine:
            t = IApp(t, _inj_arg(m, injected, at))
        steps.append(IApp(IApp(t, form), form_step))
        head, form = step, form_step

    def coerce(subject, proof):
        for t in steps:
            proof = IApp(IApp(t, subject), proof)
        return proof
    return Metafunction(2, coerce)


# ---------------------------------------------------------------------------
# Contexts and signatures


def trans_ctx(sig: Signature, ctx: Context, mangler=None) -> LfiContext:
    """Each hypothesis becomes itself plus a relevant proof hypothesis."""
    mangler = mangler or NameMangler(sig)
    out: LfiContext = []
    for i, e in enumerate(ctx):
        out.append(LfiCtxEntry(e.name, inj_type(e.type), True))
        smeta = trans_sort(sig, ctx[:i + 1], e.sort, e.type, mangler)
        sty = meta_apply(smeta, [_eta(e.type, IFVar(e.name), {e.name})])
        out.append(LfiCtxEntry(e.name + "^", sty, True))
    return out


def trans_sig(sig: Signature) -> TransResult:
    """Translate a checked signature; repeats of a constant fuse first."""
    mangler = NameMangler(sig)
    lfi_sig = LfiSignature()
    prov: dict[str, str] = {}
    sorts: dict[str, Metafunction] = {}

    def emit(name: str, classifier, label: str) -> None:
        lfi_sig.append(LfiDecl(name, classifier, decl.span))
        prov[name] = label

    for decl in sig:
        match decl:
            case TypeFam(a, k):
                emit(a, inj_kind(k), f"{a} : _.")
            case TermConst(c, ty):
                emit(c, inj_type(ty), f"{c} : _.")
            case SortFam(s, ref, cls):
                fam = sig.type_fam(ref)
                label = f"{s} << {ref}."
                pf = mangler.sort_proof_fam(s)
                emit(pf, inj_kind(fam.kind), label)
                emit(mangler.sort_intro(s), _class_form_body(
                    sig, cls, mangler, ITConst(pf), _root()), label)
                pred = mangler.predicate(s)
                emit(pred, meta_apply(trans_kind_pred(fam.kind),
                                      [ITConst(pf), ITConst(ref)]), label)
            case SubDecl(s1, s2):
                f1 = sig.sort_fam(s1)
                kind = sig.type_fam(f1.refines).kind
                ty = meta_apply(trans_kind_sub(kind), [ITConst(n) for n in (
                    f1.refines, mangler.sort_proof_fam(s1),
                    mangler.predicate(s1), mangler.sort_proof_fam(s2),
                    mangler.predicate(s2))])
                emit(mangler.coercion(s1, s2), ty, f"{s1} <: {s2}.")
            case ConstRef(c, _):
                if c in sorts:
                    continue
                const = sig.term_const(c)
                smeta = sorts[c] = Metafunction(1, _sort_body(
                    sig, sig.merged_ref_sort(c), const.type, mangler, _root()))
                ty = meta_apply(smeta, [_eta(const.type, IConst(c), set())])
                emit(mangler.term_const(c), ty, f"{c} :: _.")
    return TransResult(lfi_sig, prov, mangler, sorts)


def verify_translation(sig: Signature, result: TransResult) -> None:
    """Re-check everything the translation emitted or can derive.

    The emitted signature is checked declaration by declaration, then each
    refined constant's proof is derived afresh and checked against the
    sort interpretation trans_sig kept, at its first refinement."""
    try:
        lfi_check_sig(result.lfi_sig)
    except LfiError as e:
        raise VerifyError(
            f"translated signature failed re-checking at {e.decl}: "
            f"{e.message}", e.span)
    for c, smeta in result.sorts.items():
        const, merged = sig.term_const(c), sig.merged_ref_sort(c)
        subject = eta_expand(const.type, Const(c))
        try:
            nhat = trans_term_check(sig, [], subject, merged, result.mangler)
            goal = meta_apply(smeta, [inj_term(subject)])
            lfi_check(result.lfi_sig, [], nhat, goal)
        except (LfiError, SortError) as e:
            raise VerifyError(
                f"translated proof for {c} failed re-checking: "
                f"{e.message}", sig.const_refs[c][0].span)
