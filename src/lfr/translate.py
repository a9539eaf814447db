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
maps each rule to its target term.  The emitted signature is
self-contained and re-checkable by the target checker, which
verify_translation does.
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
    ITIrrPi,
    ITPi,
    ITProd,
    ITUnitT,
    IUnit,
    LfiContext,
    LfiCtxEntry,
    LfiDecl,
    LfiError,
    LfiSignature,
    _shift_lfi,
    close_lfi,
    lfi_check,
    lfi_check_sig,
)
from .lfr_check import (
    SortError,
    _acheck,
    _asynth,
    _sfail,
    _synth_sort_class,
    build_closure,
    subsort_q,  # noqa: F401  (bound here for bench/tracer.py to wrap)
)
from .subst import MetricExhausted, eta_expand
from .subst import hsubst_syntax  # noqa: F401  (bound for bench/tracer.py)
from .syntax import (
    App,
    BVar,
    CInter,
    Const,
    ConstRef,
    CPi,
    CSort,
    CTop,
    Context,
    CtxEntry,
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
    alpha_eq,
    free_vars,
    open_at,
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


# ---------------------------------------------------------------------------
# Injection of the simply-typed skeleton


def inj_term(t, memo: dict | None = None):
    """The target term with t's structure.  `memo`, when given, maps the id
    of each node injected so far to the node and its injection, so that a
    node met again is not walked again."""
    if memo is not None and id(t) in memo:
        return memo[id(t)][1]
    match t:
        case Const(n):
            out = IConst(n)
        case FVar(n):
            out = IFVar(n)
        case BVar(i):
            out = IBVar(i)
        case App(f, a):
            out = IApp(inj_term(f, memo), inj_term(a, memo))
        case Lam(h, b):
            out = ILam(h, inj_term(b, memo))
        case _:
            raise TypeError(f"inj_term: {t!r}")
    if memo is not None:
        memo[id(t)] = (t, out)
    return out


def inj_type(a):
    match a:
        case TConst(n):
            return ITConst(n)
        case TApp(f, arg):
            return ITApp(inj_type(f), inj_term(arg))
        case TPi(h, d, c):
            return ITPi(h, inj_type(d), inj_type(c))
    raise TypeError(f"inj_type: {a!r}")


def inj_kind(k):
    match k:
        case KType():
            return IKType()
        case KPi(h, d, c):
            return IKPi(h, inj_type(d), inj_kind(c))
    raise TypeError(f"inj_kind: {k!r}")


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


def _close_over(t, scope: list[str]):
    """Bind the names of the enclosing binders (outermost first) in t; a
    name bound twice refers to its inner binder."""
    if not scope:
        return t
    return close_lfi(t, {name: len(scope) - 1 - k
                         for k, name in enumerate(scope)})


# ---------------------------------------------------------------------------
# Kinds


def trans_kind_pred(kind) -> Metafunction:
    """Kind of a sort's predicate family.

    Arguments: the proof family atom and the refined family atom, both
    closed constants, so the names bound here cannot capture them.  At
    base kind the predicate takes the formation proof irrelevantly and
    then the subject.
    """
    return Metafunction(
        2, lambda pf, fam: _kind_pred_body(kind, pf, fam, set()))


def _kind_pred_body(kind, pf, fam, avoid: set[str]):
    match kind:
        case KType():
            return IKIrrPi("_", pf, IKPi("x", fam, IKType()))
        case KPi(h, a, k2):
            y = pool_name(h, avoid | free_vars(k2))
            eta_y = inj_term(eta_expand(a, FVar(y)))
            inner = _kind_pred_body(open_at(k2, FVar(y)), ITApp(pf, eta_y),
                                    ITApp(fam, eta_y), avoid | {y})
            return IKPi(y, inj_type(a), close_lfi(inner, y))
    raise TypeError(f"trans_kind_pred: {kind!r}")


def trans_kind_sub(kind) -> Metafunction:
    """Type of a coercion constant between two sorts over one kind.

    Arguments, all closed constants: the refined family atom, then the
    proof family and predicate atoms of the first sort and of the second.
    Index arguments come first and are bare; then the two formation
    proofs, the subject, and the proof being coerced.
    """
    return Metafunction(5, lambda *atoms: _kind_sub_body(kind, atoms, set()))


def _kind_sub_body(kind, atoms, avoid: set[str]):
    match kind:
        case KType():
            fam, pf1, pred1, pf2, pred2 = atoms
            f1, f2, x = IFVar("$f1"), IFVar("$f2"), IFVar("$x")
            subject = pool_name("x", avoid | {"f1", "f2"})
            t = ITPi("_", ITApp(ITIrrApp(pred1, f1), x),
                     ITApp(ITIrrApp(pred2, f2), x))
            t = ITPi(subject, fam, close_lfi(t, "$x"))
            t = ITPi("f2", pf2, close_lfi(t, "$f2"))
            return ITPi("f1", pf1, close_lfi(t, "$f1"))
        case KPi(h, a, k2):
            y = pool_name(h, avoid | free_vars(k2))
            eta_y = inj_term(eta_expand(a, FVar(y)))
            inner = _kind_sub_body(open_at(k2, FVar(y)),
                                   [ITApp(t, eta_y) for t in atoms],
                                   avoid | {y})
            return ITPi(y, inj_type(a), close_lfi(inner, y))
    raise TypeError(f"trans_kind_sub: {kind!r}")


# ---------------------------------------------------------------------------
# Sorts, classes, formation proofs


def trans_sort(sig: Signature, ctx: Context, s, a, mangler=None, closure=None
               ) -> Metafunction:
    """Predicate type for a sort, as a function of the (injected) subject."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return Metafunction(1, _sort_body(sig, closure, ctx, s, a, mangler, []))


def _sort_body(sig, closure, ctx, s, a, mangler, scope: list[str]):
    """The sort's predicate type as a function of the subject.

    Everything but the subject is built here, once, and bound over
    `scope`, the names of the binders it sits under.  The function only
    places the subject, which is read at the root of the type it builds,
    so none of the subject's free names is captured.
    """
    match s:
        case STop():
            return lambda n: ITUnitT()
        case SInter(l, r):
            left = _sort_body(sig, closure, ctx, l, a, mangler, scope)
            right = _sort_body(sig, closure, ctx, r, a, mangler, scope)
            return lambda n: ITProd(left(n), right(n))
        case SPi(h, ds, dt, cod):
            if dt is None:
                raise TypeError("trans_sort: sort was not elaborated")
            if not isinstance(a, TPi):
                _sfail("annotation-mismatch",
                       "function sort at non-function type")
            x = pool_name(h, {e.name for e in ctx} | free_vars(cod)
                          | free_vars(a.cod) | free_vars(ds))
            xhat = x + "^"
            eta_x = inj_term(eta_expand(a.dom, FVar(x)))
            ctx2 = list(ctx) + [CtxEntry(x, ds, a.dom)]
            dom = _close_over(inj_type(a.dom), scope)
            dom_pred = _close_over(meta_apply(
                trans_sort(sig, ctx2, ds, a.dom, mangler, closure), [eta_x]),
                scope + [x])
            cod_body = _sort_body(sig, closure, ctx2, open_at(cod, FVar(x)),
                                  open_at(a.cod, FVar(x)), mangler,
                                  scope + [x, xhat])

            def body(n):
                if not isinstance(n, ILam):
                    raise VerifyError(
                        "reverse application of a non-function term")
                # The subject applied to x, read under x and x^: the
                # lambda's variable becomes x (index 1), and every outer
                # index, now under one binder more, also goes up by one.
                return ITPi(x, dom, ITPi(xhat, dom_pred,
                                         cod_body(_shift_lfi(n.body, 1))))
            return body
        case SConst() | SApp():
            head, args = sort_spine(s)
            pred = ITConst(mangler.predicate(head.name))
            for m in args:
                pred = ITApp(pred, inj_term(m))
            qhat = trans_sort_synth(sig, ctx, s, mangler, closure)
            pred = _close_over(ITIrrApp(pred, qhat), scope)
            return lambda n: ITApp(pred, n)
    raise TypeError(f"trans_sort: not a sort: {s!r}")


def trans_class_form(sig: Signature, ctx: Context, cls, mangler=None,
                     closure=None) -> Metafunction:
    """Type of a sort's intro constant, as a function of the proof family
    atom, a closed constant."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return Metafunction(1, lambda pf: _class_form_body(
        sig, closure, ctx, cls, mangler, pf))


def _class_form_body(sig, closure, ctx, cls, mangler, pf):
    match cls:
        case CSort():
            return pf
        case CTop():
            return ITUnitT()
        case CInter(l, r):
            return ITProd(_class_form_body(sig, closure, ctx, l, mangler, pf),
                          _class_form_body(sig, closure, ctx, r, mangler, pf))
        case CPi(h, ds, dt, body):
            if dt is None:
                raise TypeError("trans_class_form: class was not elaborated")
            x = pool_name(h, {e.name for e in ctx} | free_vars(body)
                          | free_vars(ds))
            xhat = x + "^"
            eta_x = inj_term(eta_expand(dt, FVar(x)))
            ctx2 = list(ctx) + [CtxEntry(x, ds, dt)]
            dom_pred = meta_apply(
                trans_sort(sig, ctx2, ds, dt, mangler, closure), [eta_x])
            inner_body = _class_form_body(sig, closure, ctx2,
                                          open_at(body, FVar(x)), mangler,
                                          ITApp(pf, eta_x))
            inner = ITPi(xhat, dom_pred, close_lfi(inner_body, xhat))
            return ITPi(x, inj_type(dt), close_lfi(inner, x))
    raise TypeError(f"trans_class_form: not a class: {cls!r}")


def trans_sort_synth_all(sig: Signature, ctx: Context, q, mangler=None,
                         closure=None) -> list:
    """Every formation proof of an atomic sort, in elimination order."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return [_proof(sig, closure, mangler, d, {})
            for d in _formations(sig, closure, ctx, q)]


def trans_sort_synth(sig: Signature, ctx: Context, q, mangler=None,
                     closure=None):
    """The formation proof the translator itself uses (first in order)."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return _proof(sig, closure, mangler,
                  _formations(sig, closure, ctx, q)[0], {})


def _formations(sig, closure, ctx, q) -> list:
    """The checker's derivations that q is a sort, in elimination order."""
    cands, _ = _synth_sort_class(sig, closure, ctx, q, None)
    derivs = [d for cls, d in cands if isinstance(cls, CSort)]
    if not derivs:
        from .printer import pp_sort
        _sfail("annotation-mismatch",
               f"no formation proof for sort {pp_sort(q)}")
    return derivs


# ---------------------------------------------------------------------------
# Terms


def trans_term_synth(sig: Signature, ctx: Context, r, mangler=None,
                     closure=None) -> list:
    """Synthesis set paired with the proof for each component."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return [(q, _proof(sig, closure, mangler, d, {}))
            for q, d in _asynth(sig, closure, ctx, r, None)]


def trans_term_check(sig: Signature, ctx: Context, n, s, mangler=None,
                     closure=None):
    """Proof term witnessing that n inhabits s."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return _proof(sig, closure, mangler,
                  _acheck(sig, closure, ctx, n, s, None), {})


def _proof(sig, closure, mangler, d, ren: dict, injected: dict | None = None):
    """The proof a checker derivation (see lfr_check) denotes.

    A binder the checker opened as x is shown under the pool name its
    hint gets against the names in scope; `ren` maps the checker's names
    of the enclosing binders to those shown.  `injected` is inj_term's
    memo for the whole tree: the arguments of an argument's premises are
    its own subterms, so each is injected once.
    """
    if injected is None:
        injected = {}

    def premise(d1):
        return _proof(sig, closure, mangler, d1, ren, injected)

    match d:
        case ("const", c):
            return IConst(mangler.term_const(c))
        case ("intro", s):
            return IConst(mangler.sort_intro(s))
        case ("var", x):
            return IFVar(x + "^")
        case ("fst", d1):
            return IFst(premise(d1))
        case ("snd", d1):
            return ISnd(premise(d1))
        case ("app", d_fn, arg, d_arg):
            return IApp(IApp(premise(d_fn), inj_term(arg, injected)),
                        premise(d_arg))
        case ("unit",):
            return IUnit()
        case ("pair", d1, d2):
            return IPair(premise(d1), premise(d2))
        case ("lam", hint, x, avoid, body):
            shown = pool_name(hint, {ren.get(v, v) for v in avoid})
            inner = _proof(sig, closure, mangler, body, {**ren, x: shown},
                           injected)
            return ILam(shown, ILam(shown + "^",
                                    close_lfi(inner, {x: 1, x + "^": 0})))
        case ("sub", ctx, q, s, n, d1):
            coerce = _coercion(sig, closure, ctx, q, s, mangler, ren)
            return meta_apply(coerce, [inj_term(n, injected), premise(d1)])
    raise TypeError(f"_proof: not a derivation: {d!r}")


# ---------------------------------------------------------------------------
# Subsort coercions


def _bfs_path(sig: Signature, a: str, b: str):
    """Shortest head path along declared edges; ties by declaration order."""
    if a == b:
        return []
    parent: dict[str, str] = {}
    queue = [a]
    seen = {a}
    while queue:
        node = queue.pop(0)
        for nxt in sig.sub_edges.get(node, []):
            if nxt in seen:
                continue
            parent[nxt] = node
            if nxt == b:
                path = [b]
                while path[-1] != a:
                    path.append(parent[path[-1]])
                return list(reversed(path))[1:]
            seen.add(nxt)
            queue.append(nxt)
    return None


def trans_subsort_check(sig: Signature, ctx: Context, q1, q2, mangler=None,
                        closure=None) -> Metafunction:
    """Coercion between atomic sorts, a function of subject and proof."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return _coercion(sig, closure, ctx, q1, q2, mangler, {})


def _coercion(sig, closure, ctx, q1, q2, mangler, ren) -> Metafunction:
    """Wrap the proof in one coercion per step of the first shortest path.

    Each step's two formation proofs are named through `ren` (see _proof).
    """
    def formation(q):
        return _proof(sig, closure, mangler,
                      _formations(sig, closure, ctx, q)[0], ren)

    head, spine = sort_spine(q1)
    head, goal = head.name, sort_spine(q2)[0].name
    steps, q, form = [], q1, None
    while not alpha_eq(q, q2):
        path = _bfs_path(sig, head, goal)
        if not path:
            from .printer import pp_sort
            _sfail("subsort-failure",
                   f"no declared path from {pp_sort(q1)} to {pp_sort(q2)}")
        step = path[0]
        q_step = SConst(step)
        for m in spine:
            q_step = SApp(q_step, m)
        if form is None:
            form = formation(q)
        form_step = formation(q_step)
        t = IConst(mangler.coercion(head, step))
        for m in spine:
            t = IApp(t, inj_term(m))
        steps.append(IApp(IApp(t, form), form_step))
        q, head, form = q_step, step, form_step

    def coerce(subject, proof):
        for t in steps:
            proof = IApp(IApp(t, subject), proof)
        return proof
    return Metafunction(2, coerce)


# ---------------------------------------------------------------------------
# Contexts and signatures


def trans_ctx(sig: Signature, ctx: Context, mangler=None, closure=None
              ) -> LfiContext:
    """Each hypothesis becomes itself plus a relevant proof hypothesis."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    out: LfiContext = []
    prefix: list[CtxEntry] = []
    for e in ctx:
        out.append(LfiCtxEntry(e.name, inj_type(e.type), True))
        prefix = prefix + [e]
        smeta = trans_sort(sig, prefix, e.sort, e.type, mangler, closure)
        sty = meta_apply(smeta, [inj_term(eta_expand(e.type, FVar(e.name)))])
        out.append(LfiCtxEntry(e.name + "^", sty, True))
    return out


def trans_sig(sig: Signature) -> TransResult:
    """Translate a checked signature; repeats of a constant fuse first."""
    mangler = NameMangler(sig)
    closure = build_closure(sig)
    lfi_sig = LfiSignature()
    prov: dict[str, str] = {}
    emitted_refs: set[str] = set()
    for decl in sig:
        match decl:
            case TypeFam(a, k):
                lfi_sig.append(LfiDecl(a, inj_kind(k), decl.span))
                prov[a] = f"{a} : _."
            case TermConst(c, ty):
                lfi_sig.append(LfiDecl(c, inj_type(ty), decl.span))
                prov[c] = f"{c} : _."
            case SortFam(s, ref, cls):
                fam = sig.type_fam(ref)
                label = f"{s} << {ref}."
                pf = mangler.sort_proof_fam(s)
                lfi_sig.append(LfiDecl(pf, inj_kind(fam.kind), decl.span))
                prov[pf] = label
                form = meta_apply(trans_class_form(sig, [], cls, mangler,
                                                   closure), [ITConst(pf)])
                intro = mangler.sort_intro(s)
                lfi_sig.append(LfiDecl(intro, form, decl.span))
                prov[intro] = label
                pred = mangler.predicate(s)
                pkind = meta_apply(trans_kind_pred(fam.kind),
                                   [ITConst(pf), ITConst(ref)])
                lfi_sig.append(LfiDecl(pred, pkind, decl.span))
                prov[pred] = label
            case SubDecl(s1, s2):
                f1 = sig.sort_fam(s1)
                kind = sig.type_fam(f1.refines).kind
                ty = meta_apply(trans_kind_sub(kind), [
                    ITConst(f1.refines),
                    ITConst(mangler.sort_proof_fam(s1)),
                    ITConst(mangler.predicate(s1)),
                    ITConst(mangler.sort_proof_fam(s2)),
                    ITConst(mangler.predicate(s2)),
                ])
                name = mangler.coercion(s1, s2)
                lfi_sig.append(LfiDecl(name, ty, decl.span))
                prov[name] = f"{s1} <: {s2}."
            case ConstRef(c, _):
                if c in emitted_refs:
                    continue
                emitted_refs.add(c)
                const = sig.term_const(c)
                merged = sig.merged_ref_sort(c)
                smeta = trans_sort(sig, [], merged, const.type, mangler,
                                   closure)
                subject = inj_term(eta_expand(const.type, Const(c)))
                chat = mangler.term_const(c)
                lfi_sig.append(LfiDecl(
                    chat, meta_apply(smeta, [subject]), decl.span))
                prov[chat] = f"{c} :: _."
    return TransResult(lfi_sig, prov, mangler)


def verify_translation(sig: Signature, result: TransResult) -> None:
    """Re-check everything the translation emitted or can derive.

    The emitted signature is checked declaration by declaration, then
    each refined constant's proof term is rebuilt and checked against
    its translated sort.
    """
    try:
        lfi_check_sig(result.lfi_sig)
    except MetricExhausted:
        raise
    except LfiError as e:
        raise VerifyError(
            f"translated signature failed re-checking: {e.message}")
    closure = build_closure(sig)
    seen: set[str] = set()
    for decl in sig:
        if not isinstance(decl, ConstRef) or decl.const in seen:
            continue
        seen.add(decl.const)
        const = sig.term_const(decl.const)
        merged = sig.merged_ref_sort(decl.const)
        subject = eta_expand(const.type, Const(decl.const))
        try:
            nhat = trans_term_check(sig, [], subject, merged, result.mangler,
                                    closure)
            smeta = trans_sort(sig, [], merged, const.type, result.mangler,
                               closure)
            goal = meta_apply(smeta, [inj_term(subject)])
            lfi_check(result.lfi_sig, [], nhat, goal)
        except MetricExhausted:
            raise
        except (LfiError, SortError) as e:
            raise VerifyError(
                f"translated proof for {decl.const} failed re-checking: "
                f"{e.message}")
