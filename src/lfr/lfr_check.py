"""Sort checking for the refinement layer.

An atomic term synthesizes a finite set of sorts (intersections split,
top vanishes); checking switches between synthesis and the declared
subsort preorder at atomic sorts.  All judgments presuppose that the
subject is well typed at the erasure of its classifier; the signature
checker establishes that invariant declaration by declaration.

The judgments the translation reads also return a derivation: one
tagged tuple per rule, holding the derivations of its premises.

    ("const", c)                    synthesis from a constant
    ("var", i)  ("var", x)          synthesis from the variable of the
                                    i-th enclosing binder, or from the
                                    context's hypothesis x
    ("intro", s)                    formation from sort family s's class
    ("fst", d)  ("snd", d)          one side of an intersection
    ("app", d, m, d_m)              d applied to m, which d_m checks
    ("unit",)  ("pair", d1, d2)     checking against # and against ^
    ("lam", hint, d)                a function checked under its binder,
                                    the function sort's, hinted hint
    ("sub", ctx, stack, q, s, n, d) n synthesizes q by d, and q <= s,
                                    all read under the binders on stack

Synthesis sets are lists of (sort, derivation), and sort formation
yields every (class, derivation) candidate.  Derivations hold no target
syntax, so checking alone pays only for the tuples.

The judgments descend binders by index, as lf.py's do, and share its
stack: an entry (hint, type, sort) for each binder passed, innermost
last.  BVar(i) has the sort of stack[-1 - i], shifted by i + 1.  A bound
variable gets a name only for a message or for the subsort audit.

Where the rules check one term against several sorts in one context (the
function components one argument meets, the two sides of an intersection,
the candidates of an intersection class), the term is synthesized once
and the result shared; see _shared_synth.
"""

from __future__ import annotations

from typing import Callable, Optional

from .diagnostics import CheckError, Message, SourceSpan
from .printer import pp_sort, pp_term, pp_type
from .lf import LfError, _check as _lf_check, lf_check_kind, lf_check_type
from .lf import lf_check_term  # noqa: F401  (bound for bench/tracer.py)
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
    binder_names,
    ctx_lookup,
    erase_ctx,
    erase_sig,  # unused here; kept because bench/tracer.py wraps this binding
    is_atomic_sort,
    named,
    shift,
    sort_spine,
)

_KINDS = ("no-refinement-declared", "subsort-failure", "annotation-mismatch",
          "empty-synthesis")


class SortDiagnostic:
    """A sort-checking failure: its kind, its message and its span.

    The message may be given as a function that builds it (see
    diagnostics.Message): the checker rejects an argument in every
    function component that does not take it, and most such rejections
    are caught and dropped.
    """

    def __init__(self, kind: str, message: Message,
                 span: Optional[SourceSpan] = None):
        if kind not in _KINDS:
            raise TypeError(f"unknown sort diagnostic kind {kind!r}")
        self.kind = kind
        self._message = message
        self.span = span

    @property
    def message(self) -> str:
        if not isinstance(self._message, str):
            self._message = self._message()
        return self._message

    def __repr__(self) -> str:
        return f"SortDiagnostic({self.kind!r}, {self.message!r}, {self.span!r})"


class SortError(CheckError):
    """Sort checking failure carrying a structured diagnostic."""

    def __init__(self, diag: SortDiagnostic):
        super().__init__(lambda: diag.message, diag.span)
        self.diag = diag


def _sfail(kind: str, message: Message):
    raise SortError(SortDiagnostic(kind, message))


def _pp(pp, t, ctx: Context, stack) -> str:
    """t printed by pp, the binders on stack named as messages name them."""
    return pp(named(t, binder_names((e.name for e in ctx), stack)))


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
# point, the binders on the stack opened into ctx by name; used to
# cross-check the algorithm against the declarative rules.
_subsort_audit: Optional[Callable] = None


def set_subsort_audit(fn: Optional[Callable]) -> None:
    global _subsort_audit
    _subsort_audit = fn


# The audit calls made since each unfinished shared synthesis began,
# innermost last; empty between checks.
_audit_records: list[list] = []


def _audit(ctx, stack, q, s, ok: bool) -> None:
    if _subsort_audit is not None:
        names = binder_names((e.name for e in ctx), stack)
        # The j-th binder's sort and type are read under the j outside it.
        opened = [*ctx, *(CtxEntry(x, named(sort, names[:j]),
                                   named(ty, names[:j]))
                          for j, (x, (_, ty, sort))
                          in enumerate(zip(names, stack)))]
        _subsort_audit(opened, named(q, names), named(s, names), ok)
        for calls in _audit_records:
            calls.append((ctx, stack, q, s, ok))


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
    return [q for q, _ in _asynth(sig, closure, ctx, (), r, trace)]


def _asynth(sig, closure, ctx, stack, r, trace) -> list:
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
        case BVar(i) if i < len(stack):
            if trace is not None:
                trace.append("var")
            return _split(shift(stack[-1 - i][2], i + 1), ("var", i), trace)
        case App(f, a):
            d = _asynth(sig, closure, ctx, stack, f, trace)
            out = _apply_delta(sig, closure, ctx, stack, d, a, trace)
            if trace is not None:
                trace.append("Π-E")
            return out
    raise TypeError(f"asynth: not atomic: {r!r}")


def _shared_synth(sig, closure, ctx, stack, n, trace) -> Callable[[], list]:
    """The synthesis of n, run on the first call and replayed after.

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
                out, err = _asynth(sig, closure, ctx, stack, n, trace), None
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


def _apply_delta(sig, closure, ctx, stack, d, arg, trace) -> list:
    """Push an argument through every function component that accepts it."""
    out: list = []
    synth = _shared_synth(sig, closure, ctx, stack, arg, trace)
    for entry, d_fn in d:
        if not isinstance(entry, SPi):
            continue
        if entry.dom_type is None:
            raise TypeError("apply_delta: sort was not elaborated")
        try:
            d_arg = _acheck(sig, closure, ctx, stack, arg, entry.dom_sort,
                            trace, synth)
            cod = hsubst_syntax(arg, 0, entry.dom_type, entry.cod)
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
    _acheck(sig, closure, ctx, (), n, s, trace)


def _acheck(sig, closure, ctx, stack, n, s, trace, synth=None) -> tuple:
    """The derivation of n against s; a SortError if there is none.

    synth, when given, is n's shared synthesis (see _shared_synth).
    """
    match s:
        case STop():
            if trace is not None:
                trace.append("⊤-I")
            return ("unit",)
        case SInter(l, r):
            if synth is None:
                synth = _shared_synth(sig, closure, ctx, stack, n, trace)
            left = _acheck(sig, closure, ctx, stack, n, l, trace, synth)
            right = _acheck(sig, closure, ctx, stack, n, r, trace, synth)
            if trace is not None:
                trace.append("∧-I")
            return ("pair", left, right)
        case SPi(h, ds, dt, cod):
            if not isinstance(n, Lam):
                _sfail("annotation-mismatch",
                       lambda: f"term {_pp(pp_term, n, ctx, stack)} is not a "
                               f"function but was checked against function "
                               f"sort {_pp(pp_sort, s, ctx, stack)}")
            if dt is None:
                raise TypeError("acheck: sort was not elaborated")
            body = _acheck(sig, closure, ctx, stack + ((h, dt, ds),), n.body,
                           cod, trace)
            if trace is not None:
                trace.append("Π-I")
            return ("lam", h, body)
        case _:
            if not is_atomic_sort(s):
                raise TypeError(f"acheck: not a sort: {s!r}")
            if isinstance(n, Lam):
                _sfail("annotation-mismatch",
                       lambda: f"function term checked against atomic sort "
                               f"{_pp(pp_sort, s, ctx, stack)}")
            d = (synth() if synth is not None
                 else _asynth(sig, closure, ctx, stack, n, trace))
            if not d:
                _sfail("empty-synthesis",
                       lambda: f"term {_pp(pp_term, n, ctx, stack)} "
                               f"synthesizes no sorts")
            matched = None
            for q, d_q in d:
                if isinstance(q, SPi):
                    continue
                ok = subsort_q(closure, q, s)
                _audit(ctx, stack, q, s, ok)
                if ok:
                    matched = ("sub", ctx, stack, q, s, n, d_q)
                    break
            if matched is None:
                def message() -> str:
                    shown = ", ".join(_pp(pp_sort, q, ctx, stack)
                                      for q, _ in d)
                    return (f"term {_pp(pp_term, n, ctx, stack)}: none of the "
                            f"synthesized sorts [{shown}] is a subsort of "
                            f"{_pp(pp_sort, s, ctx, stack)}")
                _sfail("subsort-failure", message)
            if trace is not None:
                trace.append("switch")
            return matched


# ---------------------------------------------------------------------------
# Sort and class formation


def _synth_sort_class(sig, closure, ctx, stack, s, trace):
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
        synth = _shared_synth(sig, closure, ctx, stack, arg, trace)
        applied = [_class_apply(sig, closure, ctx, stack, ectx, cls, d, arg,
                                i, head.name, trace, synth)
                   for cls, d in cands]
        cands = [c for taken, _ in applied for c in taken]
        if not cands:
            raise applied[0][1]
        refined = TApp(refined, arg)
    return cands, refined


def _class_apply(sig, closure, ctx, stack, ectx, cls, d, arg, i, fam_name,
                 trace, synth):
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
                _lf_check(sig, ectx, stack, arg, dt)
                d_arg = _acheck(sig, closure, ctx, stack, arg, ds, trace,
                                synth)
            except MetricExhausted:
                raise
            except (SortError, LfError) as e:
                return [], _rewrap_arg(e, i, fam_name)
            try:
                cod = hsubst_syntax(arg, 0, dt, body)
            except MetricExhausted:
                raise
            except SubstFailure as e:
                return [], SortError(SortDiagnostic(
                    "annotation-mismatch",
                    f"argument {i} of {fam_name}: substitution failed: {e}"))
            return [(cod, ("app", d, arg, d_arg))], None
        case CInter(l, r):
            left, l_err = _class_apply(sig, closure, ctx, stack, ectx, l,
                                       ("fst", d), arg, i, fam_name, trace,
                                       synth)
            right, r_err = _class_apply(sig, closure, ctx, stack, ectx, r,
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
            e.diag.kind,
            lambda: f"argument {i} of {fam_name}: {e.diag.message}"))
    return LfError(type(e.diag)(
        e.diag.kind, f"argument {i} of {fam_name}: {e.diag.message}",
        e.diag.expected, e.diag.actual))


def elaborate_sort(sig: Signature, ctx: Context, s, a,
                   closure: Optional[SubsortClosure] = None,
                   trace: Optional[list] = None):
    """Check that a sort refines a type; fill in function domain types."""
    if closure is None:
        closure = build_closure(sig)
    return _elab_sort(sig, closure, ctx, (), s, a, trace)


def _elab_sort(sig, closure, ctx, stack, s, a, trace):
    match s:
        case STop():
            if trace is not None:
                trace.append("⊤-F")
            return s
        case SInter(l, r):
            out = SInter(_elab_sort(sig, closure, ctx, stack, l, a, trace),
                         _elab_sort(sig, closure, ctx, stack, r, a, trace))
            if trace is not None:
                trace.append("∧-F")
            return out
        case SPi(h, ds, _, cod):
            if not isinstance(a, TPi):
                _sfail("annotation-mismatch",
                       lambda: f"function sort {_pp(pp_sort, s, ctx, stack)} "
                               f"cannot refine non-function type "
                               f"{_pp(pp_type, a, ctx, stack)}")
            ds2 = _elab_sort(sig, closure, ctx, stack, ds, a.dom, trace)
            cod2 = _elab_sort(sig, closure, ctx, stack + ((h, a.dom, ds2),),
                              cod, a.cod, trace)
            if trace is not None:
                trace.append("Π-F")
            return SPi(h, ds2, a.dom, cod2)
        case SConst() | SApp():
            cands, refined = _synth_sort_class(sig, closure, ctx, stack, s,
                                               trace)
            if not any(isinstance(cls, CSort) for cls, _ in cands):
                _sfail("annotation-mismatch",
                       lambda: f"sort {_pp(pp_sort, s, ctx, stack)} is not "
                               f"fully applied")
            if not alpha_eq(refined, a):
                _sfail("annotation-mismatch",
                       lambda: f"sort {_pp(pp_sort, s, ctx, stack)} refines "
                               f"{_pp(pp_type, refined, ctx, stack)}, not "
                               f"{_pp(pp_type, a, ctx, stack)}")
            if trace is not None:
                trace.append("Q-F")
            return s
    raise TypeError(f"elaborate_sort: not a sort: {s!r}")


def _elab_class(sig, closure, ctx, stack, cls, kind, trace):
    """Check that a class refines a kind; fill in function domain types."""
    match cls:
        case CSort():
            if not isinstance(kind, KType):
                _sfail("annotation-mismatch",
                       "'sort' refines the kind 'type' only")
            return cls
        case CTop():
            return cls
        case CInter(l, r):
            return CInter(
                _elab_class(sig, closure, ctx, stack, l, kind, trace),
                _elab_class(sig, closure, ctx, stack, r, kind, trace))
        case CPi(h, ds, _, body):
            if not isinstance(kind, KPi):
                _sfail("annotation-mismatch",
                       "function class cannot refine a non-function kind")
            ds2 = _elab_sort(sig, closure, ctx, stack, ds, kind.dom, trace)
            body2 = _elab_class(sig, closure, ctx,
                                stack + ((h, kind.dom, ds2),), body, kind.cod,
                                trace)
            return CPi(h, ds2, kind.dom, body2)
    raise TypeError(f"_elab_class: not a class: {cls!r}")


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
        s2 = _elab_sort(sig, closure, out, (), e.sort, e.type, None)
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
                    cls2 = _elab_class(checked, closure, [], (), cls,
                                       fam.kind, trace)
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
                    if strict and checked.merged_ref_sort(c) is not None:
                        raise CheckError(
                            f"{c} already has a refinement declaration",
                            decl.span)
                    s2 = _elab_sort(checked, closure, [], (), s, const.type,
                                    trace)
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
