"""Compilation of refinements into proof-irrelevant predicates.

Every sort becomes a predicate family over its refined type, every
refinement declaration becomes a proof constant, and every subsorting
declaration becomes a coercion between proofs.  Formation proofs ride
along irrelevantly, so provably-equal coercion paths cannot break
equality of translated types.

Sorts translate to metafunctions with one hole (the subject term);
subsort coercions to metafunctions with two (subject and proof).  The
emitted signature is self-contained and re-checkable by the target
checker, which verify_translation does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import VerifyError
from .lfi import (
    IApp,
    IConst,
    IFst,
    IFVar,
    IHole,
    IKIrrPi,
    IKPi,
    IKType,
    ILam,
    IPair,
    IRevApp,
    ISnd,
    ITApp,
    ITConst,
    ITHole,
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
    Metafunction,
    close_lfi,
    lfi_check,
    lfi_check_sig,
    meta_apply,
    plug_holes,
    revapp,  # noqa: F401  (re-exported: reverse application driver)
)
from .lfr_check import SortDiagnostic, SortError, _acheck, build_closure, subsort_q
from .subst import MetricExhausted, SubstFailure, eta_expand, hsubst_syntax
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
    ctx_lookup,
    free_vars,
    fresh_name,
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


def _sfail(kind: str, message: str):
    raise SortError(SortDiagnostic(kind, message))


# ---------------------------------------------------------------------------
# Injection of the simply-typed skeleton


def inj_term(t):
    match t:
        case Const(n):
            return IConst(n)
        case FVar(n):
            return IFVar(n)
        case BVar(i):
            from .lfi import IBVar
            return IBVar(i)
        case App(f, a):
            return IApp(inj_term(f), inj_term(a))
        case Lam(h, b):
            return ILam(h, inj_term(b))
    raise TypeError(f"inj_term: {t!r}")


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
# Kind-level metafunctions


def trans_kind_pred(kind) -> Metafunction:
    """Kind of a sort's predicate family.

    Holes: 0 the proof family atom, 1 the refined family atom.  At base
    kind the predicate takes the formation proof irrelevantly and then
    the subject.
    """
    return Metafunction(2, _kind_pred_body(kind, set()))


def _kind_pred_body(kind, avoid: set[str]):
    match kind:
        case KType():
            return IKIrrPi("_", ITHole(0), IKPi("x", ITHole(1), IKType()))
        case KPi(h, a, k2):
            y = pool_name(h, avoid | free_vars(k2))
            eta_y = inj_term(eta_expand(a, FVar(y)))
            inner = _kind_pred_body(open_at(k2, FVar(y)), avoid | {y})
            applied = plug_holes(inner, [ITApp(ITHole(0), eta_y),
                                         ITApp(ITHole(1), eta_y)])
            return IKPi(y, inj_type(a), close_lfi(applied, y))
    raise TypeError(f"trans_kind_pred: {kind!r}")


def trans_kind_sub(kind) -> Metafunction:
    """Type of a coercion constant between two sorts over one kind.

    Holes: 0 the refined family atom, 1 and 3 the two proof family
    atoms, 2 and 4 the two predicate atoms.  Index arguments come first
    and are bare; then the two formation proofs, the subject, and the
    proof being coerced.
    """
    return Metafunction(5, _kind_sub_body(kind, set()))


def _kind_sub_body(kind, avoid: set[str]):
    match kind:
        case KType():
            f1, f2, x = IFVar("$f1"), IFVar("$f2"), IFVar("$x")
            subject = pool_name("x", avoid | {"f1", "f2"})
            t = ITPi("_", ITApp(ITIrrApp(ITHole(2), f1), x),
                     ITApp(ITIrrApp(ITHole(4), f2), x))
            t = ITPi(subject, ITHole(0), close_lfi(t, "$x"))
            t = ITPi("f2", ITHole(3), close_lfi(t, "$f2"))
            return ITPi("f1", ITHole(1), close_lfi(t, "$f1"))
        case KPi(h, a, k2):
            y = pool_name(h, avoid | free_vars(k2))
            eta_y = inj_term(eta_expand(a, FVar(y)))
            inner = _kind_sub_body(open_at(k2, FVar(y)), avoid | {y})
            applied = plug_holes(inner, [ITApp(ITHole(k), eta_y)
                                         for k in range(5)])
            return ITPi(y, inj_type(a), close_lfi(applied, y))
    raise TypeError(f"trans_kind_sub: {kind!r}")


# ---------------------------------------------------------------------------
# Sorts, classes, formation proofs


def trans_sort(sig: Signature, ctx: Context, s, a, mangler=None, closure=None
               ) -> Metafunction:
    """Predicate type for a sort; hole 0 is the (injected) subject."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return Metafunction(1, _sort_body(sig, closure, ctx, s, a, mangler))


def _sort_body(sig, closure, ctx, s, a, mangler):
    match s:
        case STop():
            return ITUnitT()
        case SInter(l, r):
            return ITProd(_sort_body(sig, closure, ctx, l, a, mangler),
                          _sort_body(sig, closure, ctx, r, a, mangler))
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
            dom_pred = meta_apply(
                trans_sort(sig, ctx2, ds, a.dom, mangler, closure), [eta_x])
            cod_meta = _sort_body(sig, closure, ctx2, open_at(cod, FVar(x)),
                                  open_at(a.cod, FVar(x)), mangler)
            body = plug_holes(cod_meta, [IRevApp(IHole(0), IFVar(x))])
            inner = ITPi(xhat, dom_pred, close_lfi(body, xhat))
            return ITPi(x, inj_type(a.dom), close_lfi(inner, x))
        case SConst() | SApp():
            head, args = sort_spine(s)
            pred = ITConst(mangler.predicate(head.name))
            for m in args:
                pred = ITApp(pred, inj_term(m))
            qhat = trans_sort_synth(sig, ctx, s, mangler, closure)
            return ITApp(ITIrrApp(pred, qhat), IHole(0))
    raise TypeError(f"trans_sort: not a sort: {s!r}")


def trans_class_form(sig: Signature, ctx: Context, cls, mangler=None,
                     closure=None) -> Metafunction:
    """Type of a sort's intro constant; hole 0 is the proof family atom."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return Metafunction(1, _class_form_body(sig, closure, ctx, cls, mangler))


def _class_form_body(sig, closure, ctx, cls, mangler):
    match cls:
        case CSort():
            return ITHole(0)
        case CTop():
            return ITUnitT()
        case CInter(l, r):
            return ITProd(_class_form_body(sig, closure, ctx, l, mangler),
                          _class_form_body(sig, closure, ctx, r, mangler))
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
                                          open_at(body, FVar(x)), mangler)
            applied = plug_holes(inner_body, [ITApp(ITHole(0), eta_x)])
            inner = ITPi(xhat, dom_pred, close_lfi(applied, xhat))
            return ITPi(x, inj_type(dt), close_lfi(inner, x))
    raise TypeError(f"trans_class_form: not a class: {cls!r}")


def trans_sort_synth_all(sig: Signature, ctx: Context, q, mangler=None,
                         closure=None) -> list:
    """Every formation proof of an atomic sort, in elimination order."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    head, args = sort_spine(q)
    if not isinstance(head, SConst):
        raise TypeError(f"trans_sort_synth: bad sort head {head!r}")
    fam = sig.sort_fam(head.name)
    if fam is None:
        _sfail("no-refinement-declared", f"unknown sort {head.name}")
    cands = [(IConst(mangler.sort_intro(head.name)), fam.cls)]
    for arg in args:
        nxt = []
        for proof, cls in cands:
            nxt.extend(_form_apply_all(sig, closure, ctx, cls, proof, arg,
                                       mangler))
        cands = nxt
    proofs = [p for p, cls in cands if isinstance(cls, CSort)]
    if not proofs:
        from .printer import pp_sort
        _sfail("annotation-mismatch",
               f"no formation proof for sort {pp_sort(q)}")
    return proofs


def trans_sort_synth(sig: Signature, ctx: Context, q, mangler=None,
                     closure=None):
    """The formation proof the translator itself uses (first in order)."""
    return trans_sort_synth_all(sig, ctx, q, mangler, closure)[0]


def _form_apply_all(sig, closure, ctx, cls, proof, arg, mangler) -> list:
    match cls:
        case CPi(h, ds, dt, body):
            try:
                _acheck(sig, closure, ctx, arg, ds, None)
            except MetricExhausted:
                raise
            except SortError:
                return []
            ahat = trans_term_check(sig, ctx, arg, ds, mangler, closure)
            x = fresh_name(h, free_vars(body) | free_vars(arg))
            try:
                cod = hsubst_syntax(arg, x, dt, open_at(body, FVar(x)))
            except MetricExhausted:
                raise
            except SubstFailure:
                return []
            return [(IApp(IApp(proof, inj_term(arg)), ahat), cod)]
        case CInter(l, r):
            return (_form_apply_all(sig, closure, ctx, l, IFst(proof), arg,
                                    mangler)
                    + _form_apply_all(sig, closure, ctx, r, ISnd(proof), arg,
                                      mangler))
        case CSort() | CTop():
            return []
    raise TypeError(f"_form_apply_all: not a class: {cls!r}")


# ---------------------------------------------------------------------------
# Terms


def trans_term_synth(sig: Signature, ctx: Context, r, mangler=None,
                     closure=None) -> list:
    """Synthesis set paired with the proof for each component."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return _term_synth(sig, closure, ctx, r, mangler)


def _term_synth(sig, closure, ctx, r, mangler) -> list:
    match r:
        case Const(n):
            merged = sig.merged_ref_sort(n)
            if merged is None:
                _sfail("no-refinement-declared",
                       f"constant {n} has no refinement declaration")
            return _split_wp(merged, IConst(mangler.term_const(n)))
        case FVar(n):
            entry = ctx_lookup(ctx, n)
            if entry is None:
                _sfail("no-refinement-declared",
                       f"variable {n} is not in the context")
            return _split_wp(entry.sort, IFVar(n + "^"))
        case App(f, a):
            pairs = _term_synth(sig, closure, ctx, f, mangler)
            out = []
            for entry, proof in pairs:
                if not isinstance(entry, SPi):
                    continue
                try:
                    _acheck(sig, closure, ctx, a, entry.dom_sort, None)
                    ahat = trans_term_check(sig, ctx, a, entry.dom_sort,
                                            mangler, closure)
                    x = fresh_name(entry.hint,
                                   free_vars(entry.cod) | free_vars(a))
                    cod = hsubst_syntax(a, x, entry.dom_type,
                                        open_at(entry.cod, FVar(x)))
                except MetricExhausted:
                    raise
                except (SortError, SubstFailure):
                    continue
                out.extend(_split_wp(cod, IApp(IApp(proof, inj_term(a)), ahat)))
            return out
    raise TypeError(f"trans_term_synth: not atomic: {r!r}")


def _split_wp(s, proof) -> list:
    """split, pairing each component with its projection path."""
    match s:
        case SInter(l, r):
            return _split_wp(l, IFst(proof)) + _split_wp(r, ISnd(proof))
        case STop():
            return []
        case _:
            return [(s, proof)]


def trans_term_check(sig: Signature, ctx: Context, n, s, mangler=None,
                     closure=None):
    """Proof term witnessing that n inhabits s."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    return _term_check(sig, closure, ctx, n, s, mangler)


def _term_check(sig, closure, ctx, n, s, mangler):
    match s:
        case STop():
            return IUnit()
        case SInter(l, r):
            return IPair(_term_check(sig, closure, ctx, n, l, mangler),
                         _term_check(sig, closure, ctx, n, r, mangler))
        case SPi(h, ds, dt, cod):
            if not isinstance(n, Lam):
                from .printer import pp_sort
                _sfail("annotation-mismatch",
                       f"term is not a function but was checked against "
                       f"function sort {pp_sort(s)}")
            x = pool_name(h, {e.name for e in ctx} | free_vars(n.body)
                          | free_vars(cod))
            xhat = x + "^"
            ctx2 = list(ctx) + [CtxEntry(x, ds, dt)]
            body = _term_check(sig, closure, ctx2, open_at(n.body, FVar(x)),
                               open_at(cod, FVar(x)), mangler)
            inner = ILam(xhat, close_lfi(body, xhat))
            return ILam(x, close_lfi(inner, x))
        case _:
            if isinstance(n, Lam):
                from .printer import pp_sort
                _sfail("annotation-mismatch",
                       f"function term checked against atomic sort {pp_sort(s)}")
            pairs = _term_synth(sig, closure, ctx, n, mangler)
            if not pairs:
                from .printer import pp_term
                _sfail("empty-synthesis",
                       f"term {pp_term(n)} synthesizes no sorts")
            for q, proof in pairs:
                if isinstance(q, SPi):
                    continue
                if subsort_q(closure, q, s):
                    coerce = trans_subsort_check(sig, ctx, q, s, mangler,
                                                 closure)
                    return meta_apply(coerce, [inj_term(n), proof])
            from .printer import pp_sort, pp_term
            shown = ", ".join(pp_sort(q) for q, _ in pairs)
            _sfail("subsort-failure",
                   f"term {pp_term(n)}: none of the synthesized sorts "
                   f"[{shown}] is a subsort of {pp_sort(s)}")


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


def _rebuild_atom(head_name: str, args) -> object:
    s = SConst(head_name)
    for m in args:
        s = SApp(s, m)
    return s


def trans_subsort_check(sig: Signature, ctx: Context, q1, q2, mangler=None,
                        closure=None, trace=None) -> Metafunction:
    """Coercion between atomic sorts; holes 0 subject, 1 proof."""
    mangler = mangler or NameMangler(sig)
    closure = closure or build_closure(sig)
    if alpha_eq(q1, q2):
        if trace is not None:
            trace.append("refl")
        return Metafunction(2, IHole(1))
    h1, sp1 = sort_spine(q1)
    h2, _ = sort_spine(q2)
    path = _bfs_path(sig, h1.name, h2.name)
    if not path:
        from .printer import pp_sort
        _sfail("subsort-failure",
               f"no declared path from {pp_sort(q1)} to {pp_sort(q2)}")
    step_head = path[0]
    q_step = _rebuild_atom(step_head, sp1)
    t = IConst(mangler.coercion(h1.name, step_head))
    for m in sp1:
        t = IApp(t, inj_term(m))
    t = IApp(t, trans_sort_synth(sig, ctx, q1, mangler, closure))
    t = IApp(t, trans_sort_synth(sig, ctx, q_step, mangler, closure))
    t = IApp(t, IHole(0))
    t = IApp(t, IHole(1))
    if trace is not None:
        trace.append("climb")
    rest = trans_subsort_check(sig, ctx, q_step, q2, mangler, closure, trace)
    return Metafunction(2, plug_holes(rest.body, [IHole(0), t]))


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
                form = trans_class_form(sig, [], cls, mangler, closure)
                intro = mangler.sort_intro(s)
                lfi_sig.append(LfiDecl(
                    intro, meta_apply(form, [ITConst(pf)]), decl.span))
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
