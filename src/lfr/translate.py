"""Compilation of refinements into proof-irrelevant predicates.

Every sort becomes a predicate family over its refined type, every
refinement declaration becomes a proof constant, and every subsorting
declaration becomes a coercion between proofs.  Formation proofs ride
along irrelevantly, so provably-equal coercion paths cannot break
equality of translated types.

A sort translates to its interpretation at a subject: the predicate
type whose inhabitants prove that the subject has the sort.  Every
subject is known where its interpretation is built (a refined constant,
a binder or a hypothesis eta-expanded, or the injected term at a subsort
switch), so each interpretation is a plain function from source syntax
and its subject to target syntax.  Kinds and classes translate at their
closed family atoms, and a subsort coercion to its steps, which
`_coerce` applies to the subject and the proof being coerced.  Proofs of
terms and formation proofs of sorts are not derived here: the sort
checker's judgments return derivations, and `_proof` maps each rule to
its target term.  A subsort switch becomes one coercion per declared
edge on the path the checker recorded with it, and none for an empty
path, so nothing here searches the subsort preorder.  The emitted
signature is self-contained and re-checkable by the target checker,
which verify_translation does against the goals trans_sig kept.

The interpretations descend the source binders by index, as the
checkers do.  Each source binder of a function sort or class becomes the
target binders x and x^, built with their indices in place, so no binder
is opened, scanned for free names or closed again; a binder's name is
only shown, drawn from the name pool against the names shown so far.
"""

from __future__ import annotations

from .diagnostics import MetricExhausted, Node, VerifyError
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


class TransResult(Node):
    lfi_sig: LfiSignature
    provenance: dict[str, str]
    mangler: NameMangler
    sorts: dict[str, object]    # each refined constant's goal, c^'s type


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
    cls = t.__class__
    if cls is App or cls is TApp:
        out = (IApp if cls is App else ITApp)(
            _inj_arg(t.fn, memo, at, k), _inj_arg(t.arg, memo, at, k))
    elif cls is BVar:
        i = t.index
        if i >= k:
            i = (k + depth - 1 - levels[k - 1 - i][0] if i - k < len(levels)
                 else i + depth - len(levels))
        out = IBVar(i)
    elif cls is Const:
        out = IConst(t.name)
    elif cls is FVar:
        out = IFVar(t.name)
    elif cls is Lam:
        out = ILam(t.hint, _inj_arg(t.body, memo, at, k + 1))
    elif cls is TConst:
        out = ITConst(t.name)
    elif cls is TPi or cls is KPi:
        out = (ITPi if cls is TPi else IKPi)(
            t.hint, _inj_arg(t.dom, memo, at, k), _inj_arg(t.cod, memo, at, k + 1))
    elif cls is KType:
        out = IKType()
    else:
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
# Kinds


def trans_kind_pred(kind, pf, fam):
    """Kind of a sort's predicate family, whose proof family atom is pf
    and refined family atom fam, both closed constants, so the names bound
    here cannot capture them.  At base kind the predicate takes the
    formation proof irrelevantly and then the subject."""
    indices, at = _indices(kind)
    return _over(indices, IKPi, IKIrrPi(
        "_", _indexed(pf, at), IKPi("x", _indexed(fam, at, 1), IKType())))


def trans_kind_sub(kind, fam, pf1, pred1, pf2, pred2):
    """Type of a coercion constant between two sorts over one kind, from
    the refined family atom and the proof family and predicate atoms of
    the first sort and of the second, all closed constants.  Index
    arguments come first and are bare; then the two formation proofs, the
    subject, and the proof being coerced."""
    indices, at = _indices(kind)
    subject = pool_name("x", at[2] | {"f1", "f2"})
    # Under f1, f2, the subject and the proof: f1 is 3, f2 2, x 1.
    t = ITPi("_", ITApp(ITIrrApp(_indexed(pred1, at, 3), IBVar(2)), IBVar(0)),
             ITApp(ITIrrApp(_indexed(pred2, at, 4), IBVar(2)), IBVar(1)))
    t = ITPi(subject, _indexed(fam, at, 2), t)
    t = ITPi("f2", _indexed(pf2, at, 1), t)
    return _over(indices, ITPi, ITPi("f1", _indexed(pf1, at), t))


def _indices(kind):
    """The index binders of kind, outermost first, each as its shown name
    and its injected type, and the place under them.  Each index is one
    target binder, so the domains inject as they are."""
    indices, at = [], _root()
    while isinstance(kind, KPi):
        y = pool_name(kind.hint, at[2])
        indices.append((y, inj_type(kind.dom)))
        at = _bind(at, y, kind.dom, 1)
        kind = kind.cod
    if not isinstance(kind, KType):
        raise TypeError(f"_indices: not a kind: {kind!r}")
    return indices, at


def _indexed(t, at: At, extra: int = 0):
    """t applied to every index passed at `at`, read under `extra` binders
    more."""
    levels, depth, shown = at
    return _applied(t, (levels, depth + extra, shown))


def _over(indices, pi, t):
    """t under one `pi` for each index binder."""
    for y, a in reversed(indices):
        t = pi(y, a, t)
    return t


# ---------------------------------------------------------------------------
# Sorts, classes, formation proofs


# A signature the sort checker has not elaborated lacks the formation
# derivations of its sort atoms and the domain types of its classes.
_UNCHECKED = ("trans_sig takes a signature that check_signature returned: "
              "a sort in this one was not elaborated")


def trans_sort(sig: Signature, ctx: Context, s, a, subject, mangler=None):
    """Predicate type for a sort at the (injected) subject."""
    mangler = mangler or NameMangler(sig)
    s = _elab_sort(sig, ctx, (), s, a, None)
    return _sort_body(sig, s, a, mangler, _root(ctx), subject)


def _sort_body(sig, s, a, mangler, at: At, n, p: int = 0):
    """The sort's predicate type at the subject n, built at `at`.

    Function sorts above have stripped p (by default 0) of n's lambdas,
    and each atom places n (see _place) at its root, so none of n's free
    names is captured.  An atom's formation proof is of the first
    derivation the sort checker recorded when it elaborated the atom."""
    match s:
        case STop():
            return ITUnitT()
        case SInter():
            return ITProd(_sort_body(sig, s.left, a, mangler, at, n, p),
                          _sort_body(sig, s.right, a, mangler, at, n, p))
        case SPi():
            x, dom, dom_pred, at = _binder(sig, s, a.dom, mangler, at)
            if not isinstance(n, ILam):
                raise VerifyError("reverse application of a non-function term")
            # The subject applied to x: the lambda's variable becomes x when
            # the subject is placed.
            return ITPi(x, dom, ITPi(x + "^", dom_pred, _sort_body(
                sig, s.cod, a.cod, mangler, at, n.body, p + 1)))
        case SConst() | SApp():
            head, args = sort_spine(s)
            injected: dict = {}
            pred = ITConst(mangler.predicate(head.name))
            for m in args:
                pred = ITApp(pred, _inj_arg(m, injected, at))
            atom, derivs = sig.formations.get(id(s), (None, None))
            if atom is not s:
                raise ValueError(_UNCHECKED)
            pred = ITIrrApp(pred, _proof(sig, mangler, derivs[0], at,
                                         injected))
            return ITApp(pred, _place(n, p))
    raise TypeError(f"trans_sort: not a sort: {s!r}")


meta_apply = _sort_body  # (bound for bench/tracer.py; nothing calls it)


def _binder(sig, pi, a, mangler, at: At):
    """For the binder of pi, a function sort or class whose domain sort ds
    refines the type a, read at `at`: the name x it is shown as, the types
    of x and of x^, and the place the body under them is read at.  x^'s
    type, ds's predicate of x, sits under x alone."""
    levels, depth, shown = at
    ds, x = pi.dom_sort, pool_name(pi.hint, shown)
    dom_pred = _sort_body(sig, ds, a, mangler, (levels, depth + 1, shown | {x}),
                          _eta(a, IBVar(0), {x}))
    return x, _inj_arg(a, {}, at), dom_pred, _bind(at, x, a)


def _place(n, p: int):
    """The subject n, p of whose lambdas function sorts stripped, placed
    under their 2p binders x and x^: the variable of the j-th stripped
    lambda, innermost first, is x at index 2j + 1, and an index past
    them moves up by p."""
    def leaf(v, k):
        j = v.index - k if isinstance(v, IBVar) else -1
        return v if j < 0 else IBVar(k + (2 * j + 1 if j < p else j + p))
    return _map_vars(n, leaf) if p else n


def trans_class_form(sig: Signature, ctx: Context, cls, kind, pf, mangler):
    """Type of a sort's intro constant, whose proof family atom is pf, a
    closed constant; cls is elaborated against kind first."""
    cls = _elab_class(sig, ctx, (), cls, kind, None)
    return _class_form_body(sig, cls, mangler, pf, _root(ctx))


def _class_form_body(sig, cls, mangler, pf, at: At):
    """cls built at `at`; at `sort`, pf is applied to the variables of the
    binders passed."""
    match cls:
        case CSort():
            return _applied(pf, at)
        case CTop():
            return ITUnitT()
        case CInter():
            return ITProd(*(_class_form_body(sig, side, mangler, pf, at)
                            for side in (cls.left, cls.right)))
        case CPi():
            if cls.dom_type is None:
                raise ValueError(_UNCHECKED)
            x, dom, dom_pred, at = _binder(sig, cls, cls.dom_type, mangler, at)
            return ITPi(x, dom, ITPi(x + "^", dom_pred, _class_form_body(
                sig, cls.cod, mangler, pf, at)))
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
    each is injected once.  A switch along no declared edge (an empty
    path) denotes its premise's proof, which the identity coercion would
    return, so it builds no coercion.
    """
    levels, depth, shown = at
    match d:
        case ("const", c, k):
            # c^ fuses all c's refinements: its first k, one fst per later one.
            out = IConst(mangler.term_const(c))
            for _ in range(len(sig.const_refs[c]) - k):
                out = IFst(out)
            return out
        case ("intro", s):
            return IConst(mangler.sort_intro(s))
        case ("var", int() as i):
            return IBVar(depth - 2 - levels[-1 - i][0])
        case ("var", x):
            return IFVar(x + "^")
        case ("fst" | "snd") as side, d1:
            return (IFst if side == "fst" else ISnd)(
                _proof(sig, mangler, d1, at, injected))
        case ("app", d_fn, arg, d_arg):
            return IApp(IApp(_proof(sig, mangler, d_fn, at, injected),
                             _inj_arg(arg, injected, at)),
                        _proof(sig, mangler, d_arg, at, injected))
        case ("unit",):
            return IUnit()
        case ("pair", d1, d2):
            return IPair(_proof(sig, mangler, d1, at, injected),
                         _proof(sig, mangler, d2, at, injected))
        case ("lam", hint, body):
            x = pool_name(hint, shown)
            inner = _proof(sig, mangler, body, _bind(at, x), injected)
            return ILam(x, ILam(x + "^", inner))
        case ("sub", _, (), _, _, d1):
            return _proof(sig, mangler, d1, at, injected)
        case ("sub", q, path, forms, n, d1):
            steps = _coercion(sig, q, path, forms, mangler, at)
            return _coerce(steps, _inj_arg(n, injected, at),
                           _proof(sig, mangler, d1, at, injected))
    raise TypeError(f"_proof: not a derivation: {d!r}")


# ---------------------------------------------------------------------------
# Subsort coercions


def trans_subsort_check(sig: Signature, ctx: Context, q1, q2, subject, proof,
                        mangler=None):
    """proof, of the atomic sort q1 at subject, coerced to q2."""
    if not subsort_q(sig, q1, q2):
        raise SortError("subsort-failure",
                        lambda: f"no declared path from "
                                f"{_pp(pp_sort, q1, ctx, ())} "
                                f"to {_pp(pp_sort, q2, ctx, ())}")
    path = subsort_path(sig, q1, q2)
    steps = _coercion(sig, q1, path,
                      _coercion_forms(sig, ctx, (), q1, path, None),
                      mangler or NameMangler(sig), _root(ctx))
    return _coerce(steps, subject, proof)


def _coercion(sig, q1, path, forms, mangler, at: At) -> list:
    """One coercion per step of path, the heads q1's head is taken through
    (see lfr_check.subsort_path), applied to its indices and its two
    formation proofs; _coerce applies each to the subject and the proof.

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
    return steps


def _coerce(steps, subject, proof):
    """proof wrapped in the coercion steps, innermost first."""
    for t in steps:
        proof = IApp(IApp(t, subject), proof)
    return proof


# ---------------------------------------------------------------------------
# Contexts and signatures


def trans_ctx(sig: Signature, ctx: Context, mangler=None) -> LfiContext:
    """Each hypothesis becomes itself plus a relevant proof hypothesis."""
    mangler = mangler or NameMangler(sig)
    out: LfiContext = []
    for i, e in enumerate(ctx):
        out.append(LfiCtxEntry(e.name, inj_type(e.type), True))
        sty = trans_sort(sig, ctx[:i + 1], e.sort, e.type,
                         _eta(e.type, IFVar(e.name), {e.name}), mangler)
        out.append(LfiCtxEntry(e.name + "^", sty, True))
    return out


def trans_sig(sig: Signature) -> TransResult:
    """Translate a signature check_signature returned; repeats of a
    constant fuse first.  The translation is linear and takes no step; the
    signature it emits shares sig's budget, so the kernel judgments run on
    it draw on the same steps (see LfiSignature.fuel)."""
    mangler = NameMangler(sig)
    lfi_sig = LfiSignature(fuel=sig.fuel)
    prov: dict[str, str] = {}
    goals: dict[str, object] = {}

    def emit(name: str, classifier, label: str) -> None:
        lfi_sig.append(LfiDecl(name, classifier, decl.span))
        prov[name] = label

    for decl in sig:
        match decl:
            case TypeFam():
                emit(decl.name, inj_kind(decl.kind), f"{decl.name} : _.")
            case TermConst():
                emit(decl.name, inj_type(decl.type), f"{decl.name} : _.")
            case SortFam():
                s, ref = decl.name, decl.refines
                fam = sig.type_fam(ref)
                label = f"{s} << {ref}."
                pf = mangler.sort_proof_fam(s)
                emit(pf, inj_kind(fam.kind), label)
                emit(mangler.sort_intro(s), _class_form_body(
                    sig, decl.cls, mangler, ITConst(pf), _root()), label)
                emit(mangler.predicate(s), trans_kind_pred(
                    fam.kind, ITConst(pf), ITConst(ref)), label)
            case SubDecl():
                s1, s2 = decl.sub, decl.sup
                f1 = sig.sort_fam(s1)
                kind = sig.type_fam(f1.refines).kind
                ty = trans_kind_sub(kind, *(ITConst(n) for n in (
                    f1.refines, mangler.sort_proof_fam(s1),
                    mangler.predicate(s1), mangler.sort_proof_fam(s2),
                    mangler.predicate(s2))))
                emit(mangler.coercion(s1, s2), ty, f"{s1} <: {s2}.")
            case ConstRef():
                c = decl.const
                if c in goals:
                    continue
                const = sig.term_const(c)
                goals[c] = _sort_body(sig, sig.merged_ref_sort(c), const.type,
                                      mangler, _root(),
                                      _eta(const.type, IConst(c), set()))
                emit(mangler.term_const(c), goals[c], f"{c} :: _.")
    return TransResult(lfi_sig, prov, mangler, goals)


def verify_translation(sig: Signature, result: TransResult) -> None:
    """Re-check everything the translation emitted or can derive.

    The emitted signature is checked declaration by declaration, then each
    refined constant's proof is derived afresh and checked against the
    goal trans_sig emitted as its proof constant's type and kept in
    `sorts`, at its first refinement.  The kernel's judgments draw on
    result.lfi_sig's budget and the derivations on sig's: one budget, when
    trans_sig made result from sig."""
    try:
        lfi_check_sig(result.lfi_sig)
    except LfiError as e:
        raise VerifyError(
            f"translated signature failed re-checking at {e.decl}: "
            f"{e.message}", e.span)
    for c, goal in result.sorts.items():
        const, merged = sig.term_const(c), sig.merged_ref_sort(c)
        subject = eta_expand(const.type, Const(c))
        try:
            nhat = trans_term_check(sig, [], subject, merged, result.mangler)
            lfi_check(result.lfi_sig, [], nhat, goal)
        except (LfiError, SortError) as e:
            raise VerifyError(
                f"translated proof for {c} failed re-checking: "
                f"{e.message}", sig.const_refs[c][0].span)
        except MetricExhausted as e:
            e.span = sig.const_refs[c][0].span
            raise
