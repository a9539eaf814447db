"""Sort checking for the refinement layer.

An atomic term synthesizes a finite set of sorts (intersections split,
top vanishes); checking switches between synthesis and the declared
subsort preorder at atomic sorts.  All judgments presuppose that the
subject is well typed at the erasure of its classifier; the signature
checker establishes that invariant declaration by declaration.

The judgments the translation reads also return a derivation: one
tagged tuple per rule, holding the derivations of its premises.

    ("const", c)  ("var", x)        synthesis from a constant or variable
    ("intro", s)                    formation from sort family s's class
    ("fst", d)  ("snd", d)          one side of an intersection
    ("app", d, m, d_m)              d applied to m, which d_m checks
    ("unit",)  ("pair", d1, d2)     checking against # and against ^
    ("lam", hint, x, avoid, d)      a function checked with its binder
                                    opened as x = fresh_name(hint, avoid)
    ("sub", ctx, q, s, n, d)        n synthesizes q by d, and q <= s

Synthesis sets are lists of (sort, derivation), and sort formation
yields every (class, derivation) candidate.  Derivations hold no target
syntax, so checking alone pays only for the tuples.

Where the rules check one term against several sorts in one context (the
function components one argument meets, the two sides of an intersection,
the candidates of an intersection class), the term is synthesized once
and the result shared; see _shared_synth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .diagnostics import CheckError, SourceSpan
from .lf import LfError, lf_check_kind, lf_check_term, lf_check_type
from .subst import MetricExhausted, SubstFailure, hsubst_syntax
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
    Signature,
    SInter,
    SortFam,
    SPi,
    STop,
    SubDecl,
    SApp,
    SConst,
    TApp,
    TConst,
    TermConst,
    TPi,
    TypeFam,
    alpha_eq,
    ctx_lookup,
    erase_ctx,
    erase_sig,  # unused here; kept because bench/tracer.py wraps this binding
    free_vars,
    fresh_name,
    is_atomic_sort,
    open_at,
    close_at,
    sort_spine,
)

_KINDS = ("no-refinement-declared", "subsort-failure", "annotation-mismatch",
          "empty-synthesis")


@dataclass
class SortDiagnostic:
    kind: str
    message: str
    span: Optional[SourceSpan] = field(default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise TypeError(f"unknown sort diagnostic kind {self.kind!r}")


class SortError(CheckError):
    """Sort checking failure carrying a structured diagnostic."""

    def __init__(self, diag: SortDiagnostic):
        super().__init__(diag.message, diag.span)
        self.diag = diag


def _sfail(kind: str, message: str):
    raise SortError(SortDiagnostic(kind, message))


def _pp_sort(s) -> str:
    from .printer import pp_sort
    return pp_sort(s)


def _pp_term(t) -> str:
    from .printer import pp_term
    return pp_term(t)


# ---------------------------------------------------------------------------
# The declared subsort preorder


class SubsortClosure:
    """Reflexive-transitive closure of a signature's declared subsort edges.

    A live view of `sig.sub_edges`: the sorts above a head are found by
    search on its first query and remembered until the signature gains a
    subsort declaration, so declarations appended later are seen.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self._reach: dict[str, set[str]] = {}
        self._edge_count = len(sig.sub_decls)

    def related(self, s1: str, s2: str) -> bool:
        if s1 == s2:
            return True
        if self._edge_count != len(self.sig.sub_decls):
            self._reach = {}
            self._edge_count = len(self.sig.sub_decls)
        reach = self._reach.get(s1)
        if reach is None:
            reach = self._reach[s1] = self._search(s1)
        return s2 in reach

    def _search(self, start: str) -> set[str]:
        edges = self.sig.sub_edges
        seen: set[str] = set()
        frontier = [start]
        while frontier:
            for nxt in edges.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def build_closure(sig: Signature) -> SubsortClosure:
    return SubsortClosure(sig)


def subsort_q(closure: SubsortClosure, q1, q2) -> bool:
    """Atomic subsorting: related heads, alpha-equal spines."""
    h1, sp1 = sort_spine(q1)
    h2, sp2 = sort_spine(q2)
    if not (isinstance(h1, SConst) and isinstance(h2, SConst)):
        return False
    if not closure.related(h1.name, h2.name):
        return False
    if len(sp1) != len(sp2):
        return False
    return all(alpha_eq(a1, a2) for a1, a2 in zip(sp1, sp2))


# Called with (ctx, synthesized_atom, goal_atom, result) at every switch
# point; used to cross-check the algorithm against the declarative rules.
_subsort_audit: Optional[Callable] = None


def set_subsort_audit(fn: Optional[Callable]) -> None:
    global _subsort_audit
    _subsort_audit = fn


# The audit calls made since each unfinished shared synthesis began,
# innermost last; empty between checks.
_audit_records: list[list] = []


def _audit(ctx, q, s, ok: bool) -> None:
    if _subsort_audit is not None:
        _subsort_audit(ctx, q, s, ok)
        for calls in _audit_records:
            calls.append((ctx, q, s, ok))


# ---------------------------------------------------------------------------
# Synthesis sets


def split(s, trace: Optional[list] = None) -> list:
    """Flatten a sort into its atomic and function components."""
    return [q for q, _ in _split(s, None, trace)]


def _split(s, d, trace) -> list:
    """split, pairing each component with its projection out of d."""
    match s:
        case SInter(l, r):
            if trace is not None:
                trace.append("∧-E₁")
            left = _split(l, ("fst", d), trace)
            if trace is not None:
                trace.append("∧-E₂")
            return left + _split(r, ("snd", d), trace)
        case STop():
            return []
        case _:
            return [(s, d)]


def asynth(sig: Signature, ctx: Context, r, closure: Optional[SubsortClosure] = None,
           trace: Optional[list] = None) -> list:
    if closure is None:
        closure = build_closure(sig)
    return [q for q, _ in _asynth(sig, closure, ctx, r, trace)]


def _asynth(sig, closure, ctx, r, trace) -> list:
    match r:
        case Const(n):
            merged = sig.merged_ref_sort(n)
            if merged is None:
                _sfail("no-refinement-declared",
                       f"constant {n} has no refinement declaration")
            if trace is not None:
                trace.append("const")
            return _split(merged, ("const", n), trace)
        case FVar(n):
            entry = ctx_lookup(ctx, n)
            if entry is None:
                _sfail("no-refinement-declared",
                       f"variable {n} is not in the context")
            if trace is not None:
                trace.append("var")
            return _split(entry.sort, ("var", n), trace)
        case App(f, a):
            d = _asynth(sig, closure, ctx, f, trace)
            out = _apply_delta(sig, closure, ctx, d, a, trace)
            if trace is not None:
                trace.append("Π-E")
            return out
        case BVar(i):
            raise TypeError(f"asynth: unopened bound variable {i}")
    raise TypeError(f"asynth: not atomic: {r!r}")


def _shared_synth(sig, closure, ctx, n, trace) -> Callable[[], list]:
    """The synthesis of n in ctx, run on the first call and replayed after.

    A replay cannot be told from running again: it appends the rule names
    the run traced, passes the subsort comparisons it made to the audit
    hook, and returns its synthesis set or raises its SortError.
    """
    memo: list = []

    def synth() -> list:
        if memo:
            out, err, steps, audits = memo[0]
            if trace is not None:
                trace.extend(steps)
            for call in audits:
                _audit(*call)
        else:
            start = len(trace) if trace is not None else 0
            audits = []
            _audit_records.append(audits)
            try:
                out, err = _asynth(sig, closure, ctx, n, trace), None
            except SortError as e:
                out, err = None, e
            finally:
                _audit_records.pop()
            memo.append((out, err,
                         trace[start:] if trace is not None else None, audits))
        if err is not None:
            raise err.with_traceback(None)
        return out

    return synth


def apply_delta(sig: Signature, ctx: Context, d: list, arg,
                closure: Optional[SubsortClosure] = None,
                trace: Optional[list] = None) -> list:
    if closure is None:
        closure = build_closure(sig)
    out = _apply_delta(sig, closure, ctx, [(q, None) for q in d], arg, trace)
    return [q for q, _ in out]


def _apply_delta(sig, closure, ctx, d, arg, trace) -> list:
    """Push an argument through every function component that accepts it."""
    out: list = []
    synth = _shared_synth(sig, closure, ctx, arg, trace)
    for entry, d_fn in d:
        if not isinstance(entry, SPi):
            continue
        if entry.dom_type is None:
            raise TypeError("apply_delta: sort was not elaborated")
        try:
            d_arg = _acheck(sig, closure, ctx, arg, entry.dom_sort, trace,
                            synth)
            x = fresh_name(entry.hint, free_vars(entry.cod) | free_vars(arg))
            cod = hsubst_syntax(arg, x, entry.dom_type,
                                open_at(entry.cod, FVar(x)))
        except MetricExhausted:
            raise
        except (SortError, SubstFailure):
            continue
        out.extend(_split(cod, ("app", d_fn, arg, d_arg), trace))
    return out


def acheck(sig: Signature, ctx: Context, n, s,
           closure: Optional[SubsortClosure] = None,
           trace: Optional[list] = None) -> None:
    if closure is None:
        closure = build_closure(sig)
    _acheck(sig, closure, ctx, n, s, trace)


def _acheck(sig, closure, ctx, n, s, trace, synth=None) -> tuple:
    """The derivation of n against s; a SortError if there is none.

    synth, when given, is n's shared synthesis in ctx (see _shared_synth).
    """
    match s:
        case STop():
            if trace is not None:
                trace.append("⊤-I")
            return ("unit",)
        case SInter(l, r):
            if synth is None:
                synth = _shared_synth(sig, closure, ctx, n, trace)
            left = _acheck(sig, closure, ctx, n, l, trace, synth)
            right = _acheck(sig, closure, ctx, n, r, trace, synth)
            if trace is not None:
                trace.append("∧-I")
            return ("pair", left, right)
        case SPi(h, ds, dt, cod):
            if not isinstance(n, Lam):
                _sfail("annotation-mismatch",
                       f"term {_pp_term(n)} is not a function but was checked "
                       f"against function sort {_pp_sort(s)}")
            if dt is None:
                raise TypeError("acheck: sort was not elaborated")
            avoid = ({e.name for e in ctx} | free_vars(n.body)
                     | free_vars(cod))
            x = fresh_name(h, avoid)
            body = _acheck(sig, closure, ctx + [CtxEntry(x, ds, dt)],
                           open_at(n.body, FVar(x)), open_at(cod, FVar(x)),
                           trace)
            if trace is not None:
                trace.append("Π-I")
            return ("lam", h, x, avoid, body)
        case _:
            if not is_atomic_sort(s):
                raise TypeError(f"acheck: not a sort: {s!r}")
            if isinstance(n, Lam):
                _sfail("annotation-mismatch",
                       f"function term checked against atomic sort {_pp_sort(s)}")
            d = (synth() if synth is not None
                 else _asynth(sig, closure, ctx, n, trace))
            if not d:
                _sfail("empty-synthesis",
                       f"term {_pp_term(n)} synthesizes no sorts")
            matched = None
            for q, d_q in d:
                if isinstance(q, SPi):
                    continue
                ok = subsort_q(closure, q, s)
                _audit(ctx, q, s, ok)
                if ok:
                    matched = ("sub", ctx, q, s, n, d_q)
                    break
            if matched is None:
                shown = ", ".join(_pp_sort(q) for q, _ in d)
                _sfail("subsort-failure",
                       f"term {_pp_term(n)}: none of the synthesized sorts "
                       f"[{shown}] is a subsort of {_pp_sort(s)}")
            if trace is not None:
                trace.append("switch")
            return matched


# ---------------------------------------------------------------------------
# Sort and class formation


def _synth_sort_class(sig, closure, ctx, s, trace):
    """Every (class, derivation) an atomic sort's spine leads to, in order,
    and the type the sort refines.

    When no candidate takes an argument, the error is the first
    candidate's: the one a left-first search would report.
    """
    head, args = sort_spine(s)
    if not isinstance(head, SConst):
        raise TypeError(f"sort head is not a constant: {head!r}")
    fam = sig.sort_fam(head.name)
    if fam is None:
        _sfail("no-refinement-declared", f"unknown sort {head.name}")
    cands = [(fam.cls, ("intro", head.name))]
    refined = TConst(fam.refines)
    ectx = erase_ctx(ctx)
    for i, arg in enumerate(args, start=1):
        synth = _shared_synth(sig, closure, ctx, arg, trace)
        applied = [_class_apply(sig, closure, ctx, ectx, cls, d, arg, i,
                                head.name, trace, synth) for cls, d in cands]
        cands = [c for taken, _ in applied for c in taken]
        if not cands:
            raise applied[0][1]
        refined = TApp(refined, arg)
    return cands, refined


def _class_apply(sig, closure, ctx, ectx, cls, d, arg, i, fam_name, trace,
                 synth):
    """Apply one spine argument to a class; intersections keep both sides.

    Returns the (class, derivation) pairs that accept the argument, left
    side first, and the error of the last side that does not (or None).
    The LF premise runs on sig itself: LF looks up only type families and
    term constants, which a signature shares with its erasure.
    """
    match cls:
        case CPi(h, ds, dt, body):
            if dt is None:
                raise TypeError("class was not elaborated")
            try:
                lf_check_term(sig, ectx, arg, dt)
                d_arg = _acheck(sig, closure, ctx, arg, ds, trace, synth)
            except MetricExhausted:
                raise
            except (SortError, LfError) as e:
                return [], _rewrap_arg(e, i, fam_name)
            x = fresh_name(h, free_vars(body) | free_vars(arg))
            try:
                cod = hsubst_syntax(arg, x, dt, open_at(body, FVar(x)))
            except MetricExhausted:
                raise
            except SubstFailure as e:
                return [], SortError(SortDiagnostic(
                    "annotation-mismatch",
                    f"argument {i} of {fam_name}: substitution failed: {e}"))
            return [(cod, ("app", d, arg, d_arg))], None
        case CInter(l, r):
            left, l_err = _class_apply(sig, closure, ctx, ectx, l, ("fst", d),
                                       arg, i, fam_name, trace, synth)
            right, r_err = _class_apply(sig, closure, ctx, ectx, r,
                                        ("snd", d), arg, i, fam_name, trace,
                                        synth)
            return left + right, r_err or l_err
        case CSort() | CTop():
            return [], SortError(SortDiagnostic(
                "annotation-mismatch",
                f"sort {fam_name} applied to too many arguments"))
    raise TypeError(f"_class_apply: not a class: {cls!r}")


def _rewrap_arg(e, i: int, fam_name: str):
    """Prefix argument position info, preserving the diagnostic kind."""
    if isinstance(e, SortError):
        return SortError(SortDiagnostic(
            e.diag.kind, f"argument {i} of {fam_name}: {e.diag.message}"))
    return LfError(type(e.diag)(
        e.diag.kind, f"argument {i} of {fam_name}: {e.diag.message}",
        e.diag.expected, e.diag.actual))


def elaborate_sort(sig: Signature, ctx: Context, s, a,
                   closure: Optional[SubsortClosure] = None,
                   trace: Optional[list] = None):
    """Check that a sort refines a type; fill in function domain types."""
    if closure is None:
        closure = build_closure(sig)
    return _elab_sort(sig, closure, ctx, s, a, trace)


def _elab_sort(sig, closure, ctx, s, a, trace):
    match s:
        case STop():
            if trace is not None:
                trace.append("⊤-F")
            return s
        case SInter(l, r):
            out = SInter(_elab_sort(sig, closure, ctx, l, a, trace),
                         _elab_sort(sig, closure, ctx, r, a, trace))
            if trace is not None:
                trace.append("∧-F")
            return out
        case SPi(h, ds, _, cod):
            if not isinstance(a, TPi):
                from .printer import pp_type
                _sfail("annotation-mismatch",
                       f"function sort {_pp_sort(s)} cannot refine "
                       f"non-function type {pp_type(a)}")
            ds2 = _elab_sort(sig, closure, ctx, ds, a.dom, trace)
            x = fresh_name(h, {e.name for e in ctx} | free_vars(cod)
                           | free_vars(a.cod))
            cod2 = _elab_sort(sig, closure, ctx + [CtxEntry(x, ds2, a.dom)],
                              open_at(cod, FVar(x)), open_at(a.cod, FVar(x)),
                              trace)
            if trace is not None:
                trace.append("Π-F")
            return SPi(h, ds2, a.dom, close_at(cod2, x))
        case SConst() | SApp():
            cands, refined = _synth_sort_class(sig, closure, ctx, s, trace)
            if not any(isinstance(cls, CSort) for cls, _ in cands):
                _sfail("annotation-mismatch",
                       f"sort {_pp_sort(s)} is not fully applied")
            if not alpha_eq(refined, a):
                from .printer import pp_type
                _sfail("annotation-mismatch",
                       f"sort {_pp_sort(s)} refines {pp_type(refined)}, "
                       f"not {pp_type(a)}")
            if trace is not None:
                trace.append("Q-F")
            return s
    raise TypeError(f"elaborate_sort: not a sort: {s!r}")


def check_class(sig: Signature, ctx: Context, cls, kind,
                closure: Optional[SubsortClosure] = None,
                trace: Optional[list] = None):
    """Check that a class refines a kind; fill in function domain types."""
    if closure is None:
        closure = build_closure(sig)
    return _elab_class(sig, closure, ctx, cls, kind, trace)


def _elab_class(sig, closure, ctx, cls, kind, trace):
    match cls:
        case CSort():
            if not isinstance(kind, KType):
                _sfail("annotation-mismatch",
                       "'sort' refines the kind 'type' only")
            return cls
        case CTop():
            return cls
        case CInter(l, r):
            return CInter(_elab_class(sig, closure, ctx, l, kind, trace),
                          _elab_class(sig, closure, ctx, r, kind, trace))
        case CPi(h, ds, _, body):
            if not isinstance(kind, KPi):
                _sfail("annotation-mismatch",
                       "function class cannot refine a non-function kind")
            ds2 = _elab_sort(sig, closure, ctx, ds, kind.dom, trace)
            x = fresh_name(h, {e.name for e in ctx} | free_vars(body)
                           | free_vars(kind.cod))
            body2 = _elab_class(sig, closure, ctx + [CtxEntry(x, ds2, kind.dom)],
                                open_at(body, FVar(x)), open_at(kind.cod, FVar(x)),
                                trace)
            return CPi(h, ds2, kind.dom, close_at(body2, x))
    raise TypeError(f"check_class: not a class: {cls!r}")


def check_context(sig: Signature, entries: Context,
                  closure: Optional[SubsortClosure] = None) -> Context:
    """Check each hypothesis and elaborate its sort against its type.

    The LF premise runs on sig itself, as in _class_apply.
    """
    if closure is None:
        closure = build_closure(sig)
    out: list[CtxEntry] = []
    for e in entries:
        lf_check_type(sig, [(o.name, o.type) for o in out], e.type)
        s2 = _elab_sort(sig, closure, out, e.sort, e.type, None)
        out.append(CtxEntry(e.name, s2, e.type))
    return out


# ---------------------------------------------------------------------------
# Signatures


def check_signature(raw: Signature, strict: bool = False,
                    trace: Optional[list] = None,
                    on_decl: Optional[Callable] = None) -> Signature:
    """Check a signature and return it with all sorts elaborated.

    With strict=True a constant may carry at most one refinement
    declaration; by default repeats merge as an intersection.
    """
    checked = Signature()
    closure = build_closure(checked)
    for decl in raw:
        try:
            match decl:
                case TypeFam(n, k):
                    if checked.type_fam(n) or checked.term_const(n):
                        raise CheckError(f"{n} is declared twice", decl.span)
                    lf_check_kind(checked, [], k)
                    checked.append(decl)
                case TermConst(n, a):
                    if checked.type_fam(n) or checked.term_const(n):
                        raise CheckError(f"{n} is declared twice", decl.span)
                    lf_check_type(checked, [], a)
                    checked.append(decl)
                case SortFam(n, ref, cls):
                    if checked.sort_fam(n) is not None:
                        raise CheckError(f"{n} is declared twice", decl.span)
                    fam = checked.type_fam(ref)
                    if fam is None:
                        raise CheckError(
                            f"sort {n} refines unknown type family {ref}",
                            decl.span)
                    cls2 = _elab_class(checked, closure, [], cls, fam.kind,
                                       trace)
                    checked.append(SortFam(n, ref, cls2, decl.span))
                case SubDecl(s1, s2):
                    f1 = checked.sort_fam(s1)
                    f2 = checked.sort_fam(s2)
                    if f1 is None or f2 is None:
                        missing = s1 if f1 is None else s2
                        raise CheckError(
                            f"subsorting declares unknown sort {missing}",
                            decl.span)
                    if f1.refines != f2.refines:
                        raise CheckError(
                            f"subsorting between {s1} and {s2} needs a shared "
                            f"refined family", decl.span)
                    if not alpha_eq(f1.cls, f2.cls):
                        raise CheckError(
                            f"subsorting between {s1} and {s2} needs matching "
                            f"classes", decl.span)
                    checked.append(decl)
                case ConstRef(c, s):
                    const = checked.term_const(c)
                    if const is None:
                        raise CheckError(
                            f"refinement for unknown constant {c}", decl.span)
                    if strict and checked.const_refs(c):
                        raise CheckError(
                            f"{c} already has a refinement declaration",
                            decl.span)
                    s2 = _elab_sort(checked, closure, [], s, const.type, trace)
                    checked.append(ConstRef(c, s2, decl.span))
                case _:
                    raise CheckError(f"unexpected declaration {decl!r}",
                                     decl.span)
        except (SortError, LfError) as e:
            if e.span is None:
                e.span = decl.span
                e.diag.span = decl.span
            raise
        if on_decl is not None:
            on_decl(decl)
    return checked
