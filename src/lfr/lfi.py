"""The target calculus: LF with proof irrelevance, products, and units.

Terms, types, and kinds mirror the source AST but add pairs, products
and a unit type, and irrelevance where the translation of refinements
needs it: a kind may take an argument irrelevantly (`-:>`), and a type
family is applied to that argument with `[[ ]]`.  Definitional equality
ignores the arguments of irrelevant applications; that single rule is
what makes translated refinement proofs coherent.

Hereditary substitution replaces a free name, or a block of bound indices
at once, and counts the binders it descends instead of opening them.  The
checker applies a head to its whole spine: each argument is checked
against its domain set to the arguments before it, and the codomain is
set to all of them in one walk.  The checker descends binders by index
too, keeping a stack of the hypotheses they bind, and names those
hypotheses only to build a message.  A closed application, one checked
with no hypothesis in scope, has a type that depends on the signature
alone, so the signature keeps it and the term is checked once.  One walk,
`_map_vars`, rebuilds a tree around its variables; shifting and naming
for messages are leaf functions over it.  All of this is this module's
own code, so the certificates are checked by code the source checker
does not share.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .diagnostics import (
    CheckError,
    MetricExhausted,
    Node,
    SourceSpan,
    SubstFailure,
    _Fuel,
    fresh_name,
)

# ---------------------------------------------------------------------------
# Terms


class IConst(Node):
    name: str


class IFVar(Node):
    name: str


class IBVar(Node):
    index: int


class IApp(Node):
    fn: "LfiAtomic"
    arg: "LfiTerm"


class IFst(Node):
    base: "LfiAtomic"


class ISnd(Node):
    base: "LfiAtomic"


class ILam(Node):
    hint: str
    body: "LfiTerm"


class IPair(Node):
    left: "LfiTerm"
    right: "LfiTerm"


class IUnit(Node):
    pass


LfiAtomic = Union[IConst, IFVar, IBVar, IApp, IFst, ISnd]
LfiTerm = Union[LfiAtomic, ILam, IPair, IUnit]


# ---------------------------------------------------------------------------
# Types and kinds


class ITConst(Node):
    name: str


class ITApp(Node):
    fn: "LfiAtomicType"
    arg: LfiTerm


class ITIrrApp(Node):
    """A family applied to a proof, the argument its kind takes
    irrelevantly."""

    fn: "LfiAtomicType"
    arg: LfiTerm


class ITPi(Node):
    hint: str
    dom: "LfiType"
    cod: "LfiType"


class ITProd(Node):
    left: "LfiType"
    right: "LfiType"


class ITUnitT(Node):
    pass


LfiAtomicType = Union[ITConst, ITApp, ITIrrApp]
LfiType = Union[LfiAtomicType, ITPi, ITProd, ITUnitT]


class IKType(Node):
    pass


class IKPi(Node):
    hint: str
    dom: LfiType
    cod: "LfiKind"


class IKIrrPi(Node):
    hint: str
    dom: LfiType
    cod: "LfiKind"


LfiKind = Union[IKType, IKPi, IKIrrPi]

LfiSyntax = Union[LfiTerm, LfiType, LfiKind]


# ---------------------------------------------------------------------------
# Extended simple types for hereditary substitution


class IBase(Node):
    name: str


class IArrow(Node):
    dom: "LfiSimple"
    cod: "LfiSimple"


class IProdS(Node):
    left: "LfiSimple"
    right: "LfiSimple"


class IUnitS(Node):
    pass


LfiSimple = Union[IBase, IArrow, IProdS, IUnitS]


def lfi_erase_type(a: Union[LfiType, LfiSimple]) -> LfiSimple:
    cls = a.__class__
    if cls is ITConst:
        return IBase(a.name)
    if cls is ITApp or cls is ITIrrApp:
        return lfi_erase_type(a.fn)
    if cls is ITPi:
        return IArrow(lfi_erase_type(a.dom), lfi_erase_type(a.cod))
    if cls is ITProd:
        return IProdS(lfi_erase_type(a.left), lfi_erase_type(a.right))
    if cls is ITUnitT:
        return IUnitS()
    if cls is IBase or cls is IArrow or cls is IProdS or cls is IUnitS:
        return a
    raise TypeError(f"lfi_erase_type: not a type: {a!r}")


# ---------------------------------------------------------------------------
# Signatures and contexts


class LfiDecl(Node):
    name: str
    classifier: Union[LfiType, LfiKind]
    span: Optional[SourceSpan] = None

    def is_family(self) -> bool:
        return isinstance(self.classifier, (IKType, IKPi, IKIrrPi))


class LfiSignature:
    def __init__(self, decls: Iterable[LfiDecl] = ()):
        self.decls: list[LfiDecl] = []
        self._fams: dict[str, LfiKind] = {}
        self._consts: dict[str, LfiType] = {}
        # The type _synth gave each closed application, keyed by its id
        # (the entry holds the term, so the id stays unique).  A name is
        # never bound again, so an entry holds as the signature grows.
        self.closed: dict[int, tuple[LfiAtomic, LfiType]] = {}
        for d in decls:
            self.append(d)

    def append(self, decl: LfiDecl) -> None:
        self.decls.append(decl)
        if decl.is_family():
            self._fams.setdefault(decl.name, decl.classifier)
        else:
            self._consts.setdefault(decl.name, decl.classifier)

    def __iter__(self):
        return iter(self.decls)

    def __len__(self) -> int:
        return len(self.decls)

    def fam_kind(self, name: str) -> Optional[LfiKind]:
        return self._fams.get(name)

    def const_type(self, name: str) -> Optional[LfiType]:
        return self._consts.get(name)

    def names(self) -> set[str]:
        return {d.name for d in self.decls}


class LfiCtxEntry(Node):
    name: str
    type: LfiType
    relevant: bool = True


LfiContext = list[LfiCtxEntry]


def promote(ctx: LfiContext) -> LfiContext:
    """Make every hypothesis relevant; used when checking irrelevant arguments."""
    return [LfiCtxEntry(e.name, e.type, True) for e in ctx]


def lfi_ctx_lookup(ctx: LfiContext, name: str) -> Optional[LfiCtxEntry]:
    for e in reversed(ctx):
        if e.name == name:
            return e
    return None


# ---------------------------------------------------------------------------
# Binding operations


def _map_vars(t: LfiSyntax, f, k: int = 0) -> LfiSyntax:
    """t rebuilt with f(v, depth) in place of each variable v, an IBVar or
    an IFVar, where depth is k plus the binders passed to reach v.

    This is the one walk that rebuilds target syntax around its variables:
    shifting and naming are leaf functions over it.  A node none of whose
    variables f changes comes back itself, not a copy, so the result
    shares every unchanged subtree with t.
    """
    cls = t.__class__
    if cls is IBVar or cls is IFVar:
        return f(t, k)
    if cls is IApp or cls is ITApp or cls is ITIrrApp:
        l, r = t.fn, t.arg
    elif cls is ITPi or cls is IKPi or cls is IKIrrPi:
        d, c = _map_vars(t.dom, f, k), _map_vars(t.cod, f, k + 1)
        return t if d is t.dom and c is t.cod else cls(t.hint, d, c)
    elif cls in _CLOSED_LEAVES or cls is IUnit:
        return t
    elif cls is ILam:
        b = _map_vars(t.body, f, k + 1)
        return t if b is t.body else ILam(t.hint, b)
    elif cls is IPair or cls is ITProd:
        l, r = t.left, t.right
    elif cls is IFst or cls is ISnd:
        b = _map_vars(t.base, f, k)
        return t if b is t.base else cls(b)
    else:
        raise TypeError(f"_map_vars: unexpected node {t!r}")
    l2, r2 = _map_vars(l, f, k), _map_vars(r, f, k)
    return t if l2 is l and r2 is r else cls(l2, r2)


# The leaves with no variable: every substitution and shift keeps them.
_CLOSED_LEAVES = frozenset((ITConst, IKType, ITUnitT, IConst))


def _shift_lfi(t: LfiSyntax, by: int) -> LfiSyntax:
    """Shift free bound-variable indices; needed when a replacement that
    mentions an enclosing binder is inserted under further binders."""
    if by == 0 or t.__class__ in _CLOSED_LEAVES:
        return t

    def leaf(v, depth):
        return IBVar(v.index + by) if isinstance(v, IBVar) and v.index >= depth else v
    return _map_vars(t, leaf)


def is_lfi_atomic(t: LfiTerm) -> bool:
    return isinstance(t, (IConst, IFVar, IBVar, IApp, IFst, ISnd))


def lfi_head(r: LfiAtomic):
    while True:
        cls = r.__class__
        if cls is IApp:
            r = r.fn
        elif cls is IFst or cls is ISnd:
            r = r.base
        else:
            return r


# ---------------------------------------------------------------------------
# Definitional equality


def lfi_equal(x: LfiSyntax, y: LfiSyntax) -> bool:
    """Structural equality that skips irrelevant application arguments.

    Node equality (==) compares those arguments too; the difference
    between the two is observable on translated output and is exactly
    the coherence property.  Two nodes are equal when they are one
    object, or of one class with equal fields: names and indices by
    value, subterms by this equality, binder hints not at all, and of an
    ITIrrApp only the family.
    """
    if x is y:
        return True
    cls = x.__class__
    if cls is not y.__class__:
        return False
    if cls is ITConst or cls is IConst or cls is IFVar:
        return x.name == y.name
    if cls is IBVar:
        return x.index == y.index
    if cls is ITApp or cls is IApp:
        return lfi_equal(x.fn, y.fn) and lfi_equal(x.arg, y.arg)
    if cls is ITIrrApp:
        return lfi_equal(x.fn, y.fn)
    if cls is ITPi or cls is IKPi or cls is IKIrrPi:
        return lfi_equal(x.dom, y.dom) and lfi_equal(x.cod, y.cod)
    if cls is ILam:
        return lfi_equal(x.body, y.body)
    if cls is IFst or cls is ISnd:
        return lfi_equal(x.base, y.base)
    if cls is IPair or cls is ITProd:
        return lfi_equal(x.left, y.left) and lfi_equal(x.right, y.right)
    return cls is IUnit or cls is ITUnitT or cls is IKType


# ---------------------------------------------------------------------------
# Hereditary substitution, extended with pairs and projections
#
# One walk replaces a block of variables at once: a free name (x0 a str,
# a block of one) or the bound indices x0 .. x0 + n - 1 (x0 an int).  sub
# holds a (replacement, erased type) pair for each, innermost first: sub[j]
# is for index x0 + j.  Substitution descends binders without opening
# them: k counts the binders passed, so the block is IFVar(x0) or
# IBVar(x0 + k + j) there, a replacement is shifted by k, and, when x0 is
# an index, the indices above the block drop by n because its binders are
# gone.  Instantiating a Pi type with a spine replaces all of its indices
# in one walk; a beta step replaces the lambda's index 0.


def lfi_hsubst(n0: LfiTerm, x0: Union[str, int],
               alpha0: Union[LfiType, LfiSimple], t: LfiSyntax) -> LfiSyntax:
    """[n0/x0]t at the erased type of alpha0; for an index x0, n0 is read
    where t's binder x0 has been removed."""
    return _hsubst(((n0, lfi_erase_type(alpha0)),), x0, t)


def _inst(t: LfiSyntax, spine: list[tuple[LfiTerm, LfiSimple]]) -> LfiSyntax:
    """t, under a binder for each (argument, erased domain) pair of spine,
    outermost first, with those binders set to the arguments."""
    if not spine or t.__class__ in _CLOSED_LEAVES:
        return t
    return _hsubst(spine[::-1], 0, t)


def _hsubst(sub, x0, t: LfiSyntax) -> LfiSyntax:
    return _l_syn(sub, x0, t, 0, _Fuel(), ())


def _hit(r, sub, x0, k: int):
    """The pair of sub that replaces r, k binders down, or None."""
    if isinstance(x0, str):
        return sub[0] if isinstance(r, IFVar) and r.name == x0 else None
    j = r.index - x0 - k if isinstance(r, IBVar) else -1
    return sub[j] if 0 <= j < len(sub) else None


def _l_n(sub, x0, n, k, fuel, path) -> LfiTerm:
    fuel.tick(path)
    cls = n.__class__
    if cls is ILam:
        return ILam(n.hint, _l_n(sub, x0, n.body, k + 1, fuel, path + ("body",)))
    if cls is IPair:
        return IPair(_l_n(sub, x0, n.left, k, fuel, path + ("left",)),
                     _l_n(sub, x0, n.right, k, fuel, path + ("right",)))
    if cls is IUnit:
        return n
    if _hit(lfi_head(n), sub, x0, k) is not None:
        term, ty = _l_rn(sub, x0, n, k, fuel, path)
        if is_lfi_atomic(term) and isinstance(ty, IBase):
            return term
        raise SubstFailure("head-type mismatch", path)
    return _l_rr(sub, x0, n, k, fuel, path)


def _l_rr(sub, x0, r, k, fuel, path) -> LfiAtomic:
    fuel.tick(path)
    cls = r.__class__
    if cls is IApp:
        return IApp(_l_rr(sub, x0, r.fn, k, fuel, path + ("fn",)),
                    _l_n(sub, x0, r.arg, k, fuel, path + ("arg",)))
    if (cls is IBVar and not isinstance(x0, str)
            and r.index >= x0 + k + len(sub)):
        return IBVar(r.index - len(sub))
    if cls is IBVar or cls is IConst or cls is IFVar:
        return r
    if cls is IFst or cls is ISnd:
        return cls(_l_rr(sub, x0, r.base, k, fuel, path + ("base",)))
    raise TypeError(f"lfi_hsubst: not atomic: {r!r}")


def _l_rn(sub, x0, r, k, fuel, path) -> tuple[LfiTerm, LfiSimple]:
    fuel.tick(path)
    hit = _hit(r, sub, x0, k)
    if hit is not None:
        return _shift_lfi(hit[0], k), hit[1]
    cls = r.__class__
    if cls is IApp:
        fn, fty = _l_rn(sub, x0, r.fn, k, fuel, path + ("fn",))
        arg = _l_n(sub, x0, r.arg, k, fuel, path + ("arg",))
        if not isinstance(fn, ILam):
            raise SubstFailure("non-function applied", path)
        if not isinstance(fty, IArrow):
            raise SubstFailure("head-type mismatch", path)
        # The beta step: the lambda's index 0 is a block of one.
        body = _l_n(((arg, fty.dom),), 0, fn.body, 0, fuel, path + ("beta",))
        return body, fty.cod
    if cls is IFst or cls is ISnd:
        bn, bt = _l_rn(sub, x0, r.base, k, fuel, path + ("base",))
        if not isinstance(bn, IPair) or not isinstance(bt, IProdS):
            raise SubstFailure("head-type mismatch", path)
        if cls is IFst:
            return bn.left, bt.left
        return bn.right, bt.right
    raise SubstFailure("head-type mismatch", path)


def _l_syn(sub, x0, t, k, fuel, path):
    cls = t.__class__
    if cls is ITApp or cls is ITIrrApp:
        return cls(_l_syn(sub, x0, t.fn, k, fuel, path + ("fn",)),
                   _l_n(sub, x0, t.arg, k, fuel, path + ("arg",)))
    if cls is ITPi or cls is IKPi or cls is IKIrrPi:
        return cls(t.hint, _l_syn(sub, x0, t.dom, k, fuel, path + ("dom",)),
                   _l_syn(sub, x0, t.cod, k + 1, fuel, path + ("cod",)))
    if cls is ITConst or cls is ITUnitT or cls is IKType:
        return t
    if cls is ITProd:
        return ITProd(_l_syn(sub, x0, t.left, k, fuel, path + ("left",)),
                      _l_syn(sub, x0, t.right, k, fuel, path + ("right",)))
    if is_lfi_atomic(t) or cls is ILam or cls is IPair or cls is IUnit:
        return _l_n(sub, x0, t, k, fuel, path)
    raise TypeError(f"lfi_hsubst: unexpected node {t!r}")


# ---------------------------------------------------------------------------
# Checking


class LfiError(CheckError):
    """Target-calculus checking failure.  lfi_check_sig names the failing
    declaration in `decl` and, where the failure has no span, gives it the
    declaration's."""

    decl: Optional[str] = None


# The checker descends binders without opening them.  `stack` holds a
# (hint, domain, relevant) triple for each binder passed, innermost last:
# IBVar(i) is the hypothesis stack[-1 - i], and its domain, read i + 1
# binders further out, is shifted by i + 1.  IFVar names a hypothesis of
# the context.  A bound hypothesis gets a name only for a message: its
# hint, primed away from the context's names and from the names of the
# hypotheses bound outside it.
Stack = tuple[tuple[str, LfiType, bool], ...]


def _names(ctx: LfiContext, stack: Stack) -> list[str]:
    """The names messages give the hypotheses on stack, outermost first."""
    avoid = {e.name for e in ctx}
    out = []
    for h, _, _ in stack:
        x = fresh_name(h, avoid)
        avoid.add(x)
        out.append(x)
    return out


def _named(t: LfiSyntax, ctx: LfiContext, stack: Stack) -> LfiSyntax:
    """t with every hypothesis on stack opened as its name."""
    names = _names(ctx, stack)

    def leaf(v, depth):
        # Index depth + i is the hypothesis stack[-1 - i].
        i = v.index - depth if isinstance(v, IBVar) else -1
        return IFVar(names[-1 - i]) if 0 <= i < len(names) else v
    return _map_vars(t, leaf)


def _fmt_type(a: LfiType, ctx: LfiContext, stack: Stack) -> str:
    from .printer import pp_lfi_type
    return pp_lfi_type(_named(a, ctx, stack))


def _fmt_term(t: LfiTerm, ctx: LfiContext, stack: Stack) -> str:
    from .printer import pp_lfi_term
    return pp_lfi_term(_named(t, ctx, stack))


def _promote(stack: Stack) -> Stack:
    return tuple((h, d, True) for h, d, _ in stack)


def _unspine(r) -> tuple:
    """(head, [(argument, irrelevant), ...] outermost first) of r, a term
    or an atomic type."""
    spine = []
    while isinstance(r, (IApp, ITApp, ITIrrApp)):
        spine.append((r.arg, isinstance(r, ITIrrApp)))
        r = r.fn
    return r, spine[::-1]


def _apply(sig: LfiSignature, ctx: LfiContext, stack: Stack, ty, spine,
           pis, mismatch):
    """ty, a Pi type or kind, applied to spine's (argument, irrelevant)
    pairs, outermost first.  Each argument is checked against its domain
    set to the arguments before it, and the codomain is set to all of them
    at once.  pis are ty's relevant Pi and, for a kind, its irrelevant
    one; mismatch(ty) is the error when ty does not take the next
    argument.  An ill-typed ty, say a domain that applies a hypothesis of
    base type, can make a substitution undefined: that is an LfiError."""
    done: list[tuple[LfiTerm, LfiSimple]] = []
    try:
        for arg, irr in spine:
            if not isinstance(ty, pis[irr]):
                raise mismatch(_inst(ty, done))
            if irr:
                _check(sig, promote(ctx), _promote(stack), arg,
                       _inst(ty.dom, done))
            else:
                _check(sig, ctx, stack, arg, _inst(ty.dom, done))
            done.append((arg, lfi_erase_type(ty.dom)))
            ty = ty.cod
        return _inst(ty, done)
    except SubstFailure as e:
        raise LfiError(f"substitution failed: {e}") from None


def lfi_synth(sig: LfiSignature, ctx: LfiContext, r: LfiAtomic) -> LfiType:
    return _synth(sig, ctx, (), r)


def lfi_check(sig: LfiSignature, ctx: LfiContext, n: LfiTerm, a: LfiType) -> None:
    _check(sig, ctx, (), n, a)


def lfi_check_type(sig: LfiSignature, ctx: LfiContext, a: LfiType) -> None:
    _check_type(sig, ctx, (), a)


def lfi_check_kind(sig: LfiSignature, ctx: LfiContext, k: LfiKind) -> None:
    _check_kind(sig, ctx, (), k)


def _synth(sig: LfiSignature, ctx: LfiContext, stack: Stack, r: LfiAtomic
           ) -> LfiType:
    cls = r.__class__
    if cls is IApp:
        # With no hypothesis in scope, r succeeds only if it has no free
        # variable, and then its type depends on sig alone.
        closed = not stack and not ctx
        if closed and (hit := sig.closed.get(id(r))) is not None:
            return hit[1]
        head, spine = _unspine(r)
        ty = _apply(sig, ctx, stack, _synth(sig, ctx, stack, head), spine,
                    (ITPi,), lambda ty: LfiError(
                        f"applied term of non-function type "
                        f"{_fmt_type(ty, ctx, stack)}"))
        if closed:
            sig.closed[id(r)] = r, ty
        return ty
    if cls is IConst:
        ty = sig.const_type(r.name)
        if ty is None:
            raise LfiError(f"unbound constant {r.name}")
        return ty
    if cls is IBVar and (i := r.index) < len(stack):
        _, d, relevant = stack[-1 - i]
        if not relevant:
            raise LfiError(
                f"irrelevant hypothesis {_names(ctx, stack)[-1 - i]} "
                f"used in a relevant position")
        return _shift_lfi(d, i + 1)
    if cls is IFVar:
        n = r.name
        entry = lfi_ctx_lookup(ctx, n)
        if entry is None:
            raise LfiError(f"unbound variable {n}")
        if not entry.relevant:
            raise LfiError(
                f"irrelevant hypothesis {n} used in a relevant position")
        return entry.type
    if cls is IFst or cls is ISnd:
        bty = _synth(sig, ctx, stack, r.base)
        if not isinstance(bty, ITProd):
            raise LfiError(f"{'first' if cls is IFst else 'second'} "
                           f"projection of non-pair type "
                           f"{_fmt_type(bty, ctx, stack)}")
        return bty.left if cls is IFst else bty.right
    raise LfiError(f"cannot synthesize a type for {_fmt_term(r, ctx, stack)}")


def _check(sig: LfiSignature, ctx: LfiContext, stack: Stack, n: LfiTerm,
           a: LfiType) -> None:
    cls = n.__class__
    if cls is ILam:
        if not isinstance(a, ITPi):
            raise LfiError(f"function checked against non-function "
                           f"type {_fmt_type(a, ctx, stack)}")
        _check(sig, ctx, stack + ((n.hint, a.dom, True),), n.body, a.cod)
    elif cls is IPair:
        if not isinstance(a, ITProd):
            raise LfiError(f"pair checked against non-product type "
                           f"{_fmt_type(a, ctx, stack)}")
        _check(sig, ctx, stack, n.left, a.left)
        _check(sig, ctx, stack, n.right, a.right)
    elif cls is IUnit:
        if not isinstance(a, ITUnitT):
            raise LfiError(f"unit checked against {_fmt_type(a, ctx, stack)}")
    else:
        if not is_lfi_atomic(n):
            raise LfiError(f"cannot check {_fmt_term(n, ctx, stack)}")
        syn = _synth(sig, ctx, stack, n)
        if not lfi_equal(syn, a):
            raise LfiError(
                f"type mismatch: expected {_fmt_type(a, ctx, stack)}, "
                f"synthesized {_fmt_type(syn, ctx, stack)}")


def _check_type(sig: LfiSignature, ctx: LfiContext, stack: Stack, a: LfiType
                ) -> None:
    cls = a.__class__
    if cls is ITPi:
        _check_type(sig, ctx, stack, a.dom)
        _check_type(sig, ctx, stack + ((a.hint, a.dom, True),), a.cod)
    elif cls is ITApp or cls is ITConst or cls is ITIrrApp:
        k = _kind_of_atomic(sig, ctx, stack, a)
        if not isinstance(k, IKType):
            raise LfiError(f"type family not fully applied: "
                           f"{_fmt_type(a, ctx, stack)}")
    elif cls is ITProd:
        _check_type(sig, ctx, stack, a.left)
        _check_type(sig, ctx, stack, a.right)
    elif cls is not ITUnitT:
        raise LfiError(f"not a type: {_named(a, ctx, stack)!r}")


def _kind_of_atomic(sig: LfiSignature, ctx: LfiContext, stack: Stack,
                    p: LfiAtomicType) -> LfiKind:
    p, spine = _unspine(p)
    if not isinstance(p, ITConst):
        raise LfiError(f"type head is not a constant: {_named(p, ctx, stack)!r}")
    kind = sig.fam_kind(p.name)
    if kind is None:
        raise LfiError(f"unbound type family {p.name}")
    return _apply(sig, ctx, stack, kind, spine, (IKPi, IKIrrPi),
                  lambda ty: LfiError(
                      f"kind of {p.name} does not accept this argument shape"))


def _check_kind(sig: LfiSignature, ctx: LfiContext, stack: Stack, k: LfiKind
                ) -> None:
    cls = k.__class__
    if cls is IKPi or cls is IKIrrPi:
        _check_type(sig, ctx, stack, k.dom)
        _check_kind(sig, ctx, stack + ((k.hint, k.dom, cls is IKPi),), k.cod)
    elif cls is not IKType:
        raise LfiError(f"not a kind: {_named(k, ctx, stack)!r}")


def lfi_check_sig(sig: LfiSignature) -> None:
    """Re-check a whole signature declaration by declaration."""
    checked = LfiSignature()
    for decl in sig:
        try:
            if decl.name in checked._fams or decl.name in checked._consts:
                raise LfiError(f"{decl.name} is declared twice")
            if decl.is_family():
                lfi_check_kind(checked, [], decl.classifier)
            else:
                lfi_check_type(checked, [], decl.classifier)
        except (LfiError, MetricExhausted) as e:
            e.decl = decl.name
            if e.span is None:
                e.span = decl.span
            raise
        checked.append(decl)
