"""Sort checking for the refinement layer.

An atomic term synthesizes a finite set of sorts (intersections split,
top vanishes); checking switches between synthesis and the declared
subsort preorder at atomic sorts.  All judgments presuppose that the
subject is well typed at the erasure of its classifier; the signature
checker establishes that invariant declaration by declaration.

The judgments the translation reads also return a derivation: one
tagged tuple per rule, holding the derivations of its premises.

    ("const", c, k)                 synthesis from a constant, whose
                                    sort fuses its first k refinements
    ("var", i)  ("var", x)          synthesis from the variable of the
                                    i-th enclosing binder, or from the
                                    context's hypothesis x
    ("intro", s)                    formation from sort family s's class
    ("fst", d)  ("snd", d)          one side of an intersection
    ("app", d, m, d_m)              d applied to m, which d_m checks
    ("unit",)  ("pair", d1, d2)     checking against # and against ^
    ("lam", hint, d)                a function checked under its binder,
                                    the function sort's, hinted hint
    ("sub", q, path, forms, n, d)   n synthesizes q by d, and the goal is
                                    q with its head taken along declared
                                    edges through the heads on path (see
                                    subsort_path); forms are the steps'
                                    formations (see _coercion_forms)

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

A failure is a SortError of one of the kinds in _KINDS, or an LfError
from an LF premise.  A sort error's message may be given as a function
that builds it (see diagnostics.Message): the checker rejects an argument
in every function component that does not take it, and most such
rejections are caught and dropped.  check_signature sets the span to the
failing declaration's.  An undefined substitution rejects the input; a
MetricExhausted, which is not a SubstFailure, passes every handler.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .diagnostics import CheckError, Message
from .printer import pp_sort, pp_term, pp_type
from .lf import LfError, _check as _lf_check, lf_check_kind, lf_check_type
from .lf import lf_check_term  # noqa: F401  (bound for bench/tracer.py)
from .subst import SubstFailure, erase_type, inst_spine
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
    erase_sig,  # noqa: F401  (bound for bench/tracer.py)
    is_atomic_sort,
    named,
    shift,
    sort_spine,
)

_KINDS = ("no-refinement-declared", "subsort-failure", "annotation-mismatch",
          "empty-synthesis")


class SortError(CheckError):
    """A sort checking failure of one of the kinds in _KINDS."""

    def __init__(self, kind: str, message: Message):
        if kind not in _KINDS:
            raise TypeError(f"unknown sort diagnostic kind {kind!r}")
        super().__init__(message)
        self.kind = kind


def _pp(pp, t, ctx: Context, stack) -> str:
    """t printed by pp, the binders on stack named as messages name them."""
    return pp(named(t, binder_names((e.name for e in ctx), stack)))


class Log(NamedTuple):
    """What the judgments record as they run, for --trace and the audit.

    rules gets the name of each rule applied, in order.  compared, None
    where no audit reads it, gets the (ctx, stack, q, s, ok) of each
    atomic comparison at a switch, q and s read under the binders on
    stack.  A judgment given no log records nothing.
    """

    rules: list
    compared: Optional[list]


def _opened(ctx, stack, q, s, ok: bool) -> tuple:
    """A comparison of Log.compared with the binders on stack opened into
    ctx by name, as the audit of check_signature receives it."""
    names = binder_names((e.name for e in ctx), stack)
    # The j-th binder's sort and type are read under the j outside it.
    opened = [*ctx, *(CtxEntry(x, named(sort, names[:j]),
                               named(ty, names[:j]))
                      for j, (x, (_, ty, sort))
                      in enumerate(zip(names, stack)))]
    return opened, named(q, names), named(s, names), ok


# ---------------------------------------------------------------------------
# The declared subsort preorder


def build_closure(sig: Signature, head: str) -> dict[str, Optional[str]]:
    """The sorts above head by sig's declared edges, each mapped to its
    parent on a shortest path from head (head itself to None).

    The one search of the subsort preorder: breadth first, edges in
    declaration order, so each path is the shortest one whose steps are
    declared earliest.  The tree is kept in sig.subsorts until sig gains a
    subsort declaration.
    """
    tree = sig.subsorts.get(head)
    if tree is None:
        tree = sig.subsorts[head] = {head: None}
        queue = [head]
        for node in queue:
            for nxt in sig.sub_edges.get(node, ()):
                if nxt not in tree:
                    tree[nxt] = node
                    queue.append(nxt)
    return tree


def subsort_q(sig: Signature, q1, q2) -> bool:
    """Atomic subsorting: related heads, alpha-equal spines."""
    h1, sp1 = sort_spine(q1)
    h2, sp2 = sort_spine(q2)
    if not (isinstance(h1, SConst) and isinstance(h2, SConst)):
        return False
    if h1.name != h2.name and h2.name not in build_closure(sig, h1.name):
        return False
    if len(sp1) != len(sp2):
        return False
    return all(alpha_eq(a1, a2) for a1, a2 in zip(sp1, sp2))


def subsort_path(sig: Signature, q1, q2) -> tuple[str, ...]:
    """The heads after q1's on build_closure's path up to q2's head, for
    atomic sorts q1 <= q2: the coercion steps."""
    head, goal = sort_spine(q1)[0].name, sort_spine(q2)[0].name
    if head == goal:
        return ()
    tree, path = build_closure(sig, head), []
    while goal != head:
        path.append(goal)
        goal = tree[goal]
    return tuple(reversed(path))


def _coercion_forms(sig, ctx, stack, q, path, log) -> tuple:
    """The first formation derivation of q and of q's spine under each
    head on path, read under the binders on stack; none for an empty path.

    A coercion along path converts between these sorts.  They are formed
    where the switch is taken, so by the edges and refinements declared
    before the declaration it serves, as the path is.  Their comparisons
    go to log, their rule names nowhere.
    """
    if not path:
        return ()
    if log is not None:
        log = None if log.compared is None else Log([], log.compared)
    head, spine = sort_spine(q)
    forms = []
    for step in (head.name, *path):
        q_step = SConst(step)
        for m in spine:
            q_step = SApp(q_step, m)
        derivs, _ = _synth_sort_class(sig, ctx, stack, q_step, log)
        if not derivs:
            raise SortError("annotation-mismatch",
                            lambda: f"no formation proof for sort "
                                    f"{_pp(pp_sort, q_step, ctx, stack)}")
        forms.append(derivs[0])
    return tuple(forms)


# ---------------------------------------------------------------------------
# Synthesis sets


def split(s) -> list:
    """Flatten a sort into its atomic and function components."""
    return [q for q, _, _ in _split(s, None, (), None)]


def _split(s, d, done, log) -> list:
    """split, pairing each component with its projection out of d and the
    arguments done it is read under (see _apply_delta)."""
    match s:
        case SInter(l, r):
            if log is not None:
                log.rules.append("∧-E₁")
            left = _split(l, ("fst", d), done, log)
            if log is not None:
                log.rules.append("∧-E₂")
            return left + _split(r, ("snd", d), done, log)
        case STop():
            return []
        case _:
            return [(s, d, done)]


def asynth(sig: Signature, ctx: Context, r) -> list:
    return [q for q, _ in _asynth(sig, ctx, (), r, None)]


def _asynth(sig, ctx, stack, r, log) -> list:
    """The synthesis set of r: its head's components, applied to its whole
    spine.  A component is read under the arguments it has taken (see
    _apply_delta), and is set to them once, when the spine ends."""
    out = []
    for q, d, done in _pending(sig, ctx, stack, r, log):
        try:
            out.append((inst_spine(q, done), d))
        except SubstFailure:
            continue
    return out


def _pending(sig, ctx, stack, r, log) -> list:
    """The (sort, derivation, done) components of r, before they are set
    to the arguments done they have taken."""
    match r:
        case Const(n):
            merged = sig.merged_ref_sort(n)
            if merged is None:
                raise SortError("no-refinement-declared",
                                f"constant {n} has no refinement declaration")
            if log is not None:
                log.rules.append("const")
            return _split(merged, ("const", n, len(sig.const_refs[n])), (),
                          log)
        case FVar(n):
            entry = ctx_lookup(ctx, n)
            if entry is None:
                raise SortError("no-refinement-declared",
                                f"variable {n} is not in the context")
            if log is not None:
                log.rules.append("var")
            return _split(entry.sort, ("var", n), (), log)
        case BVar(i) if i < len(stack):
            if log is not None:
                log.rules.append("var")
            return _split(shift(stack[-1 - i][2], i + 1), ("var", i), (),
                          log)
        case App(f, a):
            d = _pending(sig, ctx, stack, f, log)
            out = _apply_delta(sig, ctx, stack, d, a, log)
            if log is not None:
                log.rules.append("Π-E")
            return out
    raise TypeError(f"asynth: not atomic: {r!r}")


def _shared_synth(sig, ctx, stack, n, log) -> Callable[[], list]:
    """The synthesis of n, run on the first call and replayed after.

    A replay cannot be told from running again: it logs the rule names
    and the subsort comparisons the run logged, and returns its synthesis
    set or raises its SortError.
    """
    memo: list = []

    def synth() -> list:
        if memo:
            out, err, rules, compared = memo[0]
            if log is not None:
                log.rules.extend(rules)
                if compared:
                    log.compared.extend(compared)
        else:
            rules = [] if log is None else log.rules
            compared = ([] if log is None or log.compared is None
                        else log.compared)
            r0, c0 = len(rules), len(compared)
            try:
                out, err = _asynth(sig, ctx, stack, n, log), None
            except SortError as e:
                out, err = None, e
            memo.append((out, err, rules[r0:], compared[c0:]))
        if err is not None:
            raise err.with_traceback(None)
        return out

    return synth


def _apply_delta(sig, ctx, stack, cands, arg, log) -> list:
    """Push an argument through every function component that accepts it.

    A component (sort, derivation, done) is read under a binder for each
    (argument, erased domain) pair of done, outermost first, standing for
    those arguments.  Only its domain is set to them; its codomain takes
    the argument as one more pair, since substitution never changes the
    shape of an intersection, a top or a function sort.
    """
    out: list = []
    synth = _shared_synth(sig, ctx, stack, arg, log)
    for entry, d_fn, done in cands:
        if not isinstance(entry, SPi):
            continue
        if entry.dom_type is None:
            raise TypeError("apply_delta: sort was not elaborated")
        try:
            d_arg = _acheck(sig, ctx, stack, arg,
                            inst_spine(entry.dom_sort, done), log, synth)
        except (SortError, SubstFailure):
            continue
        out.extend(_split(entry.cod, ("app", d_fn, arg, d_arg),
                          done + ((arg, erase_type(entry.dom_type)),), log))
    return out


def acheck(sig: Signature, ctx: Context, n, s,
           trace: Optional[list] = None) -> None:
    _acheck(sig, ctx, (), n, s, None if trace is None else Log(trace, None))


def _acheck(sig, ctx, stack, n, s, log, synth=None) -> tuple:
    """The derivation of n against s; a SortError if there is none.

    synth, when given, is n's shared synthesis (see _shared_synth).
    """
    match s:
        case STop():
            if log is not None:
                log.rules.append("⊤-I")
            return ("unit",)
        case SInter(l, r):
            if synth is None:
                synth = _shared_synth(sig, ctx, stack, n, log)
            left = _acheck(sig, ctx, stack, n, l, log, synth)
            right = _acheck(sig, ctx, stack, n, r, log, synth)
            if log is not None:
                log.rules.append("∧-I")
            return ("pair", left, right)
        case SPi(h, ds, dt, cod):
            if not isinstance(n, Lam):
                raise SortError(
                    "annotation-mismatch",
                    lambda: f"term {_pp(pp_term, n, ctx, stack)} is not a "
                            f"function but was checked against function "
                            f"sort {_pp(pp_sort, s, ctx, stack)}")
            if dt is None:
                raise TypeError("acheck: sort was not elaborated")
            body = _acheck(sig, ctx, stack + ((h, dt, ds),), n.body,
                           cod, log)
            if log is not None:
                log.rules.append("Π-I")
            return ("lam", h, body)
        case _:
            if not is_atomic_sort(s):
                raise TypeError(f"acheck: not a sort: {s!r}")
            if isinstance(n, Lam):
                raise SortError(
                    "annotation-mismatch",
                    lambda: f"function term checked against atomic sort "
                            f"{_pp(pp_sort, s, ctx, stack)}")
            d = (synth() if synth is not None
                 else _asynth(sig, ctx, stack, n, log))
            if not d:
                raise SortError("empty-synthesis",
                                lambda: f"term {_pp(pp_term, n, ctx, stack)} "
                                        f"synthesizes no sorts")
            matched = None
            for q, d_q in d:
                if isinstance(q, SPi):
                    continue
                ok = subsort_q(sig, q, s)
                if log is not None and log.compared is not None:
                    log.compared.append((ctx, stack, q, s, ok))
                if ok:
                    path = subsort_path(sig, q, s)
                    matched = ("sub", q, path,
                               _coercion_forms(sig, ctx, stack, q, path, log),
                               n, d_q)
                    break
            if matched is None:
                def message() -> str:
                    shown = ", ".join(_pp(pp_sort, q, ctx, stack)
                                      for q, _ in d)
                    return (f"term {_pp(pp_term, n, ctx, stack)}: none of the "
                            f"synthesized sorts [{shown}] is a subsort of "
                            f"{_pp(pp_sort, s, ctx, stack)}")
                raise SortError("subsort-failure", message)
            if log is not None:
                log.rules.append("switch")
            return matched


# ---------------------------------------------------------------------------
# Sort and class formation


def _synth_sort_class(sig, ctx, stack, s, log):
    """The derivation of every candidate class an atomic sort's spine
    leads to `sort`, in order, and the type the sort refines.

    A class ends in `sort`, which no substitution changes, so a candidate
    is never set to the arguments it took; only its domains are (see
    _class_apply).  When no candidate takes an argument, the error is the
    first candidate's: the one a left-first search would report.
    """
    head, args = sort_spine(s)
    if not isinstance(head, SConst):
        raise TypeError(f"sort head is not a constant: {head!r}")
    fam = sig.sort_fam(head.name)
    if fam is None:
        raise SortError("no-refinement-declared", f"unknown sort {head.name}")
    cands = [(fam.cls, ("intro", head.name), ())]
    refined = TConst(fam.refines)
    ectx = erase_ctx(ctx)
    for i, arg in enumerate(args, start=1):
        synth = _shared_synth(sig, ctx, stack, arg, log)
        applied = [_class_apply(sig, ctx, stack, ectx, cls, d, done,
                                arg, i, head.name, log, synth)
                   for cls, d, done in cands]
        cands = [c for taken, _ in applied for c in taken]
        if not cands:
            raise applied[0][1]
        refined = TApp(refined, arg)
    return [d for cls, d, _ in cands if isinstance(cls, CSort)], refined


def _class_apply(sig, ctx, stack, ectx, cls, d, done, arg, i,
                 fam_name, log, synth):
    """Apply one spine argument to a class; intersections keep both sides.

    The class is read under the arguments done, as a component is in
    _apply_delta: only the domain is set to them.  Returns the (class,
    derivation, done) triples that accept the argument, left side first,
    and the error of the last side that does not (or None).  The LF
    premise runs on sig itself: LF looks up only type families and term
    constants, which a signature shares with its erasure.
    """
    match cls:
        case CPi(h, ds, dt, body):
            if dt is None:
                raise TypeError("class was not elaborated")
            try:
                _lf_check(sig, ectx, stack, arg, inst_spine(dt, done))
                d_arg = _acheck(sig, ctx, stack, arg,
                                inst_spine(ds, done), log, synth)
            except (SortError, LfError) as e:
                return [], _rewrap_arg(e, i, fam_name)
            except SubstFailure as e:
                return [], SortError(
                    "annotation-mismatch",
                    f"argument {i} of {fam_name}: substitution failed: {e}")
            return [(body, ("app", d, arg, d_arg),
                     done + ((arg, erase_type(dt)),))], None
        case CInter(l, r):
            left, l_err = _class_apply(sig, ctx, stack, ectx, l,
                                       ("fst", d), done, arg, i, fam_name,
                                       log, synth)
            right, r_err = _class_apply(sig, ctx, stack, ectx, r,
                                        ("snd", d), done, arg, i, fam_name,
                                        log, synth)
            return left + right, r_err or l_err
        case CSort() | CTop():
            return [], SortError(
                "annotation-mismatch",
                f"sort {fam_name} applied to too many arguments")
    raise TypeError(f"_class_apply: not a class: {cls!r}")


def _rewrap_arg(e, i: int, fam_name: str):
    """e as a new error of its kind, its message prefixed with the
    argument's position."""
    if isinstance(e, SortError):
        return SortError(e.kind,
                         lambda: f"argument {i} of {fam_name}: {e.message}")
    return LfError(e.kind, f"argument {i} of {fam_name}: {e.message}",
                   e.expected, e.actual)


def elaborate_sort(sig: Signature, ctx: Context, s, a):
    """Check that a sort refines a type; fill in function domain types."""
    return _elab_sort(sig, ctx, (), s, a, None)


def _elab_sort(sig, ctx, stack, s, a, log):
    match s:
        case STop():
            if log is not None:
                log.rules.append("⊤-F")
            return s
        case SInter(l, r):
            out = SInter(_elab_sort(sig, ctx, stack, l, a, log),
                         _elab_sort(sig, ctx, stack, r, a, log))
            if log is not None:
                log.rules.append("∧-F")
            return out
        case SPi(h, ds, _, cod):
            if not isinstance(a, TPi):
                raise SortError(
                    "annotation-mismatch",
                    lambda: f"function sort {_pp(pp_sort, s, ctx, stack)} "
                            f"cannot refine non-function type "
                            f"{_pp(pp_type, a, ctx, stack)}")
            ds2 = _elab_sort(sig, ctx, stack, ds, a.dom, log)
            cod2 = _elab_sort(sig, ctx, stack + ((h, a.dom, ds2),),
                              cod, a.cod, log)
            if log is not None:
                log.rules.append("Π-F")
            return SPi(h, ds2, a.dom, cod2)
        case SConst() | SApp():
            _form_atom(sig, ctx, stack, s, a, log)
            if log is not None:
                log.rules.append("Q-F")
            return s
    raise TypeError(f"elaborate_sort: not a sort: {s!r}")


def _form_atom(sig, ctx, stack, s, a, log) -> list:
    """The derivations that the atom s is a sort refining a (any type if a
    is None), in elimination order, recorded with sig for the translator."""
    derivs, refined = _synth_sort_class(sig, ctx, stack, s, log)
    if not derivs:
        raise SortError("annotation-mismatch",
                        lambda: f"sort {_pp(pp_sort, s, ctx, stack)} is not "
                                f"fully applied")
    if a is not None and not alpha_eq(refined, a):
        raise SortError("annotation-mismatch",
                        lambda: f"sort {_pp(pp_sort, s, ctx, stack)} refines "
                                f"{_pp(pp_type, refined, ctx, stack)}, not "
                                f"{_pp(pp_type, a, ctx, stack)}")
    sig.formations[id(s)] = s, derivs
    return derivs


def _elab_class(sig, ctx, stack, cls, kind, log):
    """Check that a class refines a kind; fill in function domain types."""
    match cls:
        case CSort():
            if not isinstance(kind, KType):
                raise SortError("annotation-mismatch",
                                "'sort' refines the kind 'type' only")
            return cls
        case CTop():
            return cls
        case CInter(l, r):
            return CInter(
                _elab_class(sig, ctx, stack, l, kind, log),
                _elab_class(sig, ctx, stack, r, kind, log))
        case CPi(h, ds, _, body):
            if not isinstance(kind, KPi):
                raise SortError("annotation-mismatch", "function class cannot "
                                "refine a non-function kind")
            ds2 = _elab_sort(sig, ctx, stack, ds, kind.dom, log)
            body2 = _elab_class(sig, ctx,
                                stack + ((h, kind.dom, ds2),), body, kind.cod,
                                log)
            return CPi(h, ds2, kind.dom, body2)
    raise TypeError(f"_elab_class: not a class: {cls!r}")


def check_context(sig: Signature, entries: Context) -> Context:
    """Check each hypothesis and elaborate its sort against its type.

    The LF premise runs on sig itself, as in _class_apply.
    """
    out: list[CtxEntry] = []
    for e in entries:
        lf_check_type(sig, [(o.name, o.type) for o in out], e.type)
        s2 = _elab_sort(sig, out, (), e.sort, e.type, None)
        out.append(CtxEntry(e.name, s2, e.type))
    return out


# ---------------------------------------------------------------------------
# Signatures


def check_signature(raw: Signature, strict: bool = False,
                    trace: Optional[list] = None,
                    audit: Optional[Callable] = None) -> Signature:
    """Check a signature and return it with all sorts elaborated.

    With strict=True a constant may carry at most one refinement
    declaration; by default repeats merge as an intersection.  trace gets
    the name of each rule applied.  After each declaration, accepted or
    not, audit is called as audit(sig, ctx, q, s, ok) for each atomic
    comparison it made at a switch: sig is the signature checked so far,
    ctx the context with the binders q and s are read under opened into
    it by name.
    """
    checked = Signature()
    for decl in raw:
        log = None
        if trace is not None or audit is not None:
            log = Log([] if trace is None else trace,
                      None if audit is None else [])
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
                    cls2 = _elab_class(checked, [], (), cls, fam.kind, log)
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
                    s2 = _elab_sort(checked, [], (), s, const.type, log)
                    checked.append(ConstRef(c, s2, decl.span))
                case _:
                    raise CheckError(f"unexpected declaration {decl!r}",
                                     decl.span)
        except (SortError, LfError) as e:
            if e.span is None:
                e.span = decl.span
            raise
        finally:
            if audit is not None:
                for call in log.compared:
                    audit(checked, *_opened(*call))
    return checked
