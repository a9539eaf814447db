"""The target calculus: LF with proof irrelevance, products, and units.

Terms, types, and kinds mirror the source AST but add an irrelevant
function space, pairs, and unit at both the type and the kind level.
Definitional equality ignores the arguments of irrelevant applications;
that single rule is what makes translated refinement proofs coherent.

Hereditary substitution replaces a free name or a bound index and counts
the binders it descends instead of opening them; instantiation substitutes
for index 0.  It is this module's own copy, so the certificates are
checked by code the source checker does not share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .diagnostics import CheckError, SourceSpan
from .subst import SubstFailure, _Fuel
from .syntax import fresh_name

# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class IConst:
    name: str


@dataclass(frozen=True)
class IFVar:
    name: str


@dataclass(frozen=True)
class IBVar:
    index: int


@dataclass(frozen=True)
class IApp:
    fn: "LfiAtomic"
    arg: "LfiTerm"


@dataclass(frozen=True)
class IIrrApp:
    """Application at an irrelevant function type; the argument is a proof."""

    fn: "LfiAtomic"
    arg: "LfiTerm"


@dataclass(frozen=True)
class IFst:
    base: "LfiAtomic"


@dataclass(frozen=True)
class ISnd:
    base: "LfiAtomic"


@dataclass(frozen=True)
class ILam:
    hint: str = field(compare=False)
    body: "LfiTerm"


@dataclass(frozen=True)
class IPair:
    left: "LfiTerm"
    right: "LfiTerm"


@dataclass(frozen=True)
class IUnit:
    pass


LfiAtomic = Union[IConst, IFVar, IBVar, IApp, IIrrApp, IFst, ISnd]
LfiTerm = Union[LfiAtomic, ILam, IPair, IUnit]


# ---------------------------------------------------------------------------
# Types and kinds


@dataclass(frozen=True)
class ITConst:
    name: str


@dataclass(frozen=True)
class ITApp:
    fn: "LfiAtomicType"
    arg: LfiTerm


@dataclass(frozen=True)
class ITIrrApp:
    fn: "LfiAtomicType"
    arg: LfiTerm


@dataclass(frozen=True)
class ITPi:
    hint: str = field(compare=False)
    dom: "LfiType"
    cod: "LfiType"


@dataclass(frozen=True)
class ITIrrPi:
    hint: str = field(compare=False)
    dom: "LfiType"
    cod: "LfiType"


@dataclass(frozen=True)
class ITProd:
    left: "LfiType"
    right: "LfiType"


@dataclass(frozen=True)
class ITUnitT:
    pass


LfiAtomicType = Union[ITConst, ITApp, ITIrrApp]
LfiType = Union[LfiAtomicType, ITPi, ITIrrPi, ITProd, ITUnitT]


@dataclass(frozen=True)
class IKType:
    pass


@dataclass(frozen=True)
class IKPi:
    hint: str = field(compare=False)
    dom: LfiType
    cod: "LfiKind"


@dataclass(frozen=True)
class IKIrrPi:
    hint: str = field(compare=False)
    dom: LfiType
    cod: "LfiKind"


@dataclass(frozen=True)
class IKProd:
    left: "LfiKind"
    right: "LfiKind"


@dataclass(frozen=True)
class IKUnit:
    pass


LfiKind = Union[IKType, IKPi, IKIrrPi, IKProd, IKUnit]

LfiSyntax = Union[LfiTerm, LfiType, LfiKind]


# ---------------------------------------------------------------------------
# Extended simple types for hereditary substitution


@dataclass(frozen=True)
class IBase:
    name: str


@dataclass(frozen=True)
class IArrow:
    dom: "LfiSimple"
    cod: "LfiSimple"


@dataclass(frozen=True)
class IIrrArrow:
    dom: "LfiSimple"
    cod: "LfiSimple"


@dataclass(frozen=True)
class IProdS:
    left: "LfiSimple"
    right: "LfiSimple"


@dataclass(frozen=True)
class IUnitS:
    pass


LfiSimple = Union[IBase, IArrow, IIrrArrow, IProdS, IUnitS]


def lfi_erase_type(a: Union[LfiType, LfiSimple]) -> LfiSimple:
    match a:
        case IBase() | IArrow() | IIrrArrow() | IProdS() | IUnitS():
            return a
        case ITConst(n):
            return IBase(n)
        case ITApp(f, _) | ITIrrApp(f, _):
            return lfi_erase_type(f)
        case ITPi(_, d, c):
            return IArrow(lfi_erase_type(d), lfi_erase_type(c))
        case ITIrrPi(_, d, c):
            return IIrrArrow(lfi_erase_type(d), lfi_erase_type(c))
        case ITProd(l, r):
            return IProdS(lfi_erase_type(l), lfi_erase_type(r))
        case ITUnitT():
            return IUnitS()
    raise TypeError(f"lfi_erase_type: not a type: {a!r}")


# ---------------------------------------------------------------------------
# Signatures and contexts


@dataclass(frozen=True)
class LfiDecl:
    name: str
    classifier: Union[LfiType, LfiKind]
    span: Optional[SourceSpan] = field(default=None, compare=False)

    def is_family(self) -> bool:
        return isinstance(self.classifier, (IKType, IKPi, IKIrrPi, IKProd, IKUnit))


class LfiSignature:
    def __init__(self, decls: Iterable[LfiDecl] = ()):
        self.decls: list[LfiDecl] = []
        self._fams: dict[str, LfiKind] = {}
        self._consts: dict[str, LfiType] = {}
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


@dataclass(frozen=True)
class LfiCtxEntry:
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


def _shift_lfi(t: LfiSyntax, by: int, cutoff: int = 0) -> LfiSyntax:
    """Shift free bound-variable indices; needed when a replacement that
    mentions an enclosing binder is inserted under further binders."""
    if by == 0:
        return t
    match t:
        case IBVar(i):
            return IBVar(i + by) if i >= cutoff else t
        case IConst() | IFVar() | IUnit() | ITConst() | ITUnitT() | IKType() | IKUnit():
            return t
        case IApp(f, a):
            return IApp(_shift_lfi(f, by, cutoff), _shift_lfi(a, by, cutoff))
        case IIrrApp(f, a):
            return IIrrApp(_shift_lfi(f, by, cutoff), _shift_lfi(a, by, cutoff))
        case IFst(b):
            return IFst(_shift_lfi(b, by, cutoff))
        case ISnd(b):
            return ISnd(_shift_lfi(b, by, cutoff))
        case ILam(h, b):
            return ILam(h, _shift_lfi(b, by, cutoff + 1))
        case IPair(l, r):
            return IPair(_shift_lfi(l, by, cutoff), _shift_lfi(r, by, cutoff))
        case ITApp(f, a):
            return ITApp(_shift_lfi(f, by, cutoff), _shift_lfi(a, by, cutoff))
        case ITIrrApp(f, a):
            return ITIrrApp(_shift_lfi(f, by, cutoff), _shift_lfi(a, by, cutoff))
        case ITPi(h, d, c):
            return ITPi(h, _shift_lfi(d, by, cutoff), _shift_lfi(c, by, cutoff + 1))
        case ITIrrPi(h, d, c):
            return ITIrrPi(h, _shift_lfi(d, by, cutoff), _shift_lfi(c, by, cutoff + 1))
        case ITProd(l, r):
            return ITProd(_shift_lfi(l, by, cutoff), _shift_lfi(r, by, cutoff))
        case IKPi(h, d, c):
            return IKPi(h, _shift_lfi(d, by, cutoff), _shift_lfi(c, by, cutoff + 1))
        case IKIrrPi(h, d, c):
            return IKIrrPi(h, _shift_lfi(d, by, cutoff), _shift_lfi(c, by, cutoff + 1))
        case IKProd(l, r):
            return IKProd(_shift_lfi(l, by, cutoff), _shift_lfi(r, by, cutoff))
    raise TypeError(f"_shift_lfi: unexpected node {t!r}")


def open_lfi(t: LfiSyntax, repl: LfiAtomic, k: int = 0) -> LfiSyntax:
    # repl's free indices are read at the position of the call, so k also
    # measures how many binders the replacement has been carried under.
    match t:
        case IBVar(i):
            return _shift_lfi(repl, k) if i == k else t
        case IConst() | IFVar() | IUnit() | ITConst() | ITUnitT() | IKType() | IKUnit():
            return t
        case IApp(f, a):
            return IApp(open_lfi(f, repl, k), open_lfi(a, repl, k))
        case IIrrApp(f, a):
            return IIrrApp(open_lfi(f, repl, k), open_lfi(a, repl, k))
        case IFst(b):
            return IFst(open_lfi(b, repl, k))
        case ISnd(b):
            return ISnd(open_lfi(b, repl, k))
        case ILam(h, b):
            return ILam(h, open_lfi(b, repl, k + 1))
        case IPair(l, r):
            return IPair(open_lfi(l, repl, k), open_lfi(r, repl, k))
        case ITApp(f, a):
            return ITApp(open_lfi(f, repl, k), open_lfi(a, repl, k))
        case ITIrrApp(f, a):
            return ITIrrApp(open_lfi(f, repl, k), open_lfi(a, repl, k))
        case ITPi(h, d, c):
            return ITPi(h, open_lfi(d, repl, k), open_lfi(c, repl, k + 1))
        case ITIrrPi(h, d, c):
            return ITIrrPi(h, open_lfi(d, repl, k), open_lfi(c, repl, k + 1))
        case ITProd(l, r):
            return ITProd(open_lfi(l, repl, k), open_lfi(r, repl, k))
        case IKPi(h, d, c):
            return IKPi(h, open_lfi(d, repl, k), open_lfi(c, repl, k + 1))
        case IKIrrPi(h, d, c):
            return IKIrrPi(h, open_lfi(d, repl, k), open_lfi(c, repl, k + 1))
        case IKProd(l, r):
            return IKProd(open_lfi(l, repl, k), open_lfi(r, repl, k))
    raise TypeError(f"open_lfi: unexpected node {t!r}")


def close_lfi(t: LfiSyntax, name: str, k: int = 0) -> LfiSyntax:
    match t:
        case IFVar(n):
            return IBVar(k) if n == name else t
        case IBVar() | IConst() | IUnit() | ITConst() | ITUnitT() | IKType() | IKUnit():
            return t
        case IApp(f, a):
            return IApp(close_lfi(f, name, k), close_lfi(a, name, k))
        case IIrrApp(f, a):
            return IIrrApp(close_lfi(f, name, k), close_lfi(a, name, k))
        case IFst(b):
            return IFst(close_lfi(b, name, k))
        case ISnd(b):
            return ISnd(close_lfi(b, name, k))
        case ILam(h, b):
            return ILam(h, close_lfi(b, name, k + 1))
        case IPair(l, r):
            return IPair(close_lfi(l, name, k), close_lfi(r, name, k))
        case ITApp(f, a):
            return ITApp(close_lfi(f, name, k), close_lfi(a, name, k))
        case ITIrrApp(f, a):
            return ITIrrApp(close_lfi(f, name, k), close_lfi(a, name, k))
        case ITPi(h, d, c):
            return ITPi(h, close_lfi(d, name, k), close_lfi(c, name, k + 1))
        case ITIrrPi(h, d, c):
            return ITIrrPi(h, close_lfi(d, name, k), close_lfi(c, name, k + 1))
        case ITProd(l, r):
            return ITProd(close_lfi(l, name, k), close_lfi(r, name, k))
        case IKPi(h, d, c):
            return IKPi(h, close_lfi(d, name, k), close_lfi(c, name, k + 1))
        case IKIrrPi(h, d, c):
            return IKIrrPi(h, close_lfi(d, name, k), close_lfi(c, name, k + 1))
        case IKProd(l, r):
            return IKProd(close_lfi(l, name, k), close_lfi(r, name, k))
    raise TypeError(f"close_lfi: unexpected node {t!r}")


def lfi_free_vars(t: LfiSyntax) -> set[str]:
    out: set[str] = set()
    _free(t, out)
    return out


def _free(t: LfiSyntax, out: set[str]) -> None:
    match t:
        case IFVar(n):
            out.add(n)
        case IBVar() | IConst() | IUnit() | ITConst() | ITUnitT() | IKType() | IKUnit():
            pass
        case IApp(f, a) | IIrrApp(f, a) | ITApp(f, a) | ITIrrApp(f, a):
            _free(f, out)
            _free(a, out)
        case IFst(b) | ISnd(b):
            _free(b, out)
        case ILam(_, b):
            _free(b, out)
        case IPair(l, r) | ITProd(l, r) | IKProd(l, r):
            _free(l, out)
            _free(r, out)
        case ITPi(_, d, c) | ITIrrPi(_, d, c) | IKPi(_, d, c) | IKIrrPi(_, d, c):
            _free(d, out)
            _free(c, out)
        case _:
            raise TypeError(f"lfi_free_vars: unexpected node {t!r}")


def is_lfi_atomic(t: LfiTerm) -> bool:
    return isinstance(t, (IConst, IFVar, IBVar, IApp, IIrrApp, IFst, ISnd))


def lfi_head(r: LfiAtomic):
    while True:
        match r:
            case IApp(f, _) | IIrrApp(f, _):
                r = f
            case IFst(b) | ISnd(b):
                r = b
            case _:
                return r


# ---------------------------------------------------------------------------
# Definitional equality


def lfi_equal(x: LfiSyntax, y: LfiSyntax, respect_irrelevance: bool = True) -> bool:
    """Structural equality that skips irrelevant application arguments.

    Passing respect_irrelevance=False compares those arguments too; the
    difference between the two modes is observable on translated output
    and is exactly the coherence property.
    """
    if type(x) is not type(y):
        return False
    match x, y:
        case (IConst(a), IConst(b)) | (IFVar(a), IFVar(b)) | (ITConst(a), ITConst(b)):
            return a == b
        case (IBVar(a), IBVar(b)):
            return a == b
        case (IUnit(), IUnit()) | (ITUnitT(), ITUnitT()) | (IKType(), IKType()) | (IKUnit(), IKUnit()):
            return True
        case (IApp(f1, a1), IApp(f2, a2)) | (ITApp(f1, a1), ITApp(f2, a2)):
            return (lfi_equal(f1, f2, respect_irrelevance)
                    and lfi_equal(a1, a2, respect_irrelevance))
        case (IIrrApp(f1, a1), IIrrApp(f2, a2)) | (ITIrrApp(f1, a1), ITIrrApp(f2, a2)):
            if not lfi_equal(f1, f2, respect_irrelevance):
                return False
            return True if respect_irrelevance else lfi_equal(a1, a2, respect_irrelevance)
        case (IFst(b1), IFst(b2)) | (ISnd(b1), ISnd(b2)):
            return lfi_equal(b1, b2, respect_irrelevance)
        case (ILam(_, b1), ILam(_, b2)):
            return lfi_equal(b1, b2, respect_irrelevance)
        case (IPair(l1, r1), IPair(l2, r2)) | (ITProd(l1, r1), ITProd(l2, r2)) | (IKProd(l1, r1), IKProd(l2, r2)):
            return (lfi_equal(l1, l2, respect_irrelevance)
                    and lfi_equal(r1, r2, respect_irrelevance))
        case ((ITPi(_, d1, c1), ITPi(_, d2, c2))
              | (ITIrrPi(_, d1, c1), ITIrrPi(_, d2, c2))
              | (IKPi(_, d1, c1), IKPi(_, d2, c2))
              | (IKIrrPi(_, d1, c1), IKIrrPi(_, d2, c2))):
            return (lfi_equal(d1, d2, respect_irrelevance)
                    and lfi_equal(c1, c2, respect_irrelevance))
    return False


# ---------------------------------------------------------------------------
# Hereditary substitution, extended with pairs and irrelevant application
#
# The variable replaced is a free name (x0 a str) or a bound index (x0 an
# int; instantiation replaces index 0).  Substitution descends binders
# without opening them: k counts the binders passed, so the variable is
# IFVar(x0) or IBVar(x0 + k) there, the replacement is n0 shifted by k,
# and, when x0 is an index, the indices above x0 + k drop by one because
# its binder is gone.  A beta step substitutes for the lambda's index 0.


def lfi_hsubst(n0: LfiTerm, x0: Union[str, int],
               alpha0: Union[LfiType, LfiSimple], t: LfiSyntax) -> LfiSyntax:
    """[n0/x0]t at the erased type of alpha0; for an index x0, n0 is read
    where t's binder x0 has been removed."""
    a0 = lfi_erase_type(alpha0)
    fuel = _Fuel()
    return _l_syn(n0, x0, a0, t, 0, fuel, ())


def _hit(r, x0, k: int) -> bool:
    """Whether r is the variable substituted for, k binders down."""
    if isinstance(x0, str):
        return isinstance(r, IFVar) and r.name == x0
    return isinstance(r, IBVar) and r.index == x0 + k


def _l_n(n0, x0, a0, n, k, fuel, path) -> LfiTerm:
    fuel.tick(path)
    match n:
        case ILam(h, b):
            return ILam(h, _l_n(n0, x0, a0, b, k + 1, fuel, path + ("body",)))
        case IPair(l, r):
            return IPair(_l_n(n0, x0, a0, l, k, fuel, path + ("left",)),
                         _l_n(n0, x0, a0, r, k, fuel, path + ("right",)))
        case IUnit():
            return n
        case _:
            if _hit(lfi_head(n), x0, k):
                term, ty = _l_rn(n0, x0, a0, n, k, fuel, path)
                if is_lfi_atomic(term) and isinstance(ty, IBase):
                    return term
                raise SubstFailure("head-type mismatch", path)
            return _l_rr(n0, x0, a0, n, k, fuel, path)


def _l_rr(n0, x0, a0, r, k, fuel, path) -> LfiAtomic:
    fuel.tick(path)
    match r:
        case IBVar(i) if not isinstance(x0, str) and i > x0 + k:
            return IBVar(i - 1)
        case IConst() | IFVar() | IBVar():
            return r
        case IApp(f, a):
            return IApp(_l_rr(n0, x0, a0, f, k, fuel, path + ("fn",)),
                        _l_n(n0, x0, a0, a, k, fuel, path + ("arg",)))
        case IIrrApp(f, a):
            return IIrrApp(_l_rr(n0, x0, a0, f, k, fuel, path + ("fn",)),
                           _l_n(n0, x0, a0, a, k, fuel, path + ("arg",)))
        case IFst(b):
            return IFst(_l_rr(n0, x0, a0, b, k, fuel, path + ("base",)))
        case ISnd(b):
            return ISnd(_l_rr(n0, x0, a0, b, k, fuel, path + ("base",)))
    raise TypeError(f"lfi_hsubst: not atomic: {r!r}")


def _l_rn(n0, x0, a0, r, k, fuel, path) -> tuple[LfiTerm, LfiSimple]:
    fuel.tick(path)
    if _hit(r, x0, k):
        return _shift_lfi(n0, k), a0
    match r:
        case IApp(f, a):
            fn, fty = _l_rn(n0, x0, a0, f, k, fuel, path + ("fn",))
            arg = _l_n(n0, x0, a0, a, k, fuel, path + ("arg",))
            if not isinstance(fn, ILam):
                raise SubstFailure("non-function applied", path)
            if not isinstance(fty, IArrow):
                raise SubstFailure("head-type mismatch", path)
            return _l_beta(fn, arg, fty.dom, fty.cod, fuel, path)
        case IIrrApp(f, a):
            fn, fty = _l_rn(n0, x0, a0, f, k, fuel, path + ("fn",))
            arg = _l_n(n0, x0, a0, a, k, fuel, path + ("arg",))
            if not isinstance(fn, ILam):
                raise SubstFailure("non-function applied", path)
            if not isinstance(fty, IIrrArrow):
                raise SubstFailure("head-type mismatch", path)
            return _l_beta(fn, arg, fty.dom, fty.cod, fuel, path)
        case IFst(b):
            bn, bt = _l_rn(n0, x0, a0, b, k, fuel, path + ("base",))
            if not isinstance(bn, IPair) or not isinstance(bt, IProdS):
                raise SubstFailure("head-type mismatch", path)
            return bn.left, bt.left
        case ISnd(b):
            bn, bt = _l_rn(n0, x0, a0, b, k, fuel, path + ("base",))
            if not isinstance(bn, IPair) or not isinstance(bt, IProdS):
                raise SubstFailure("head-type mismatch", path)
            return bn.right, bt.right
    raise SubstFailure("head-type mismatch", path)


def _l_beta(fn: ILam, arg: LfiTerm, dom: LfiSimple, cod: LfiSimple,
            fuel, path) -> tuple[LfiTerm, LfiSimple]:
    return _l_n(arg, 0, dom, fn.body, 0, fuel, path + ("beta",)), cod


def _l_syn(n0, x0, a0, t, k, fuel, path):
    match t:
        case (IConst() | IFVar() | IBVar() | IApp() | IIrrApp() | IFst() | ISnd()
              | ILam() | IPair() | IUnit()):
            return _l_n(n0, x0, a0, t, k, fuel, path)
        case ITConst() | ITUnitT() | IKType() | IKUnit():
            return t
        case ITApp(f, a):
            return ITApp(_l_syn(n0, x0, a0, f, k, fuel, path + ("fn",)),
                         _l_n(n0, x0, a0, a, k, fuel, path + ("arg",)))
        case ITIrrApp(f, a):
            return ITIrrApp(_l_syn(n0, x0, a0, f, k, fuel, path + ("fn",)),
                            _l_n(n0, x0, a0, a, k, fuel, path + ("arg",)))
        case ITPi(h, d, c):
            return ITPi(h, _l_syn(n0, x0, a0, d, k, fuel, path + ("dom",)),
                        _l_syn(n0, x0, a0, c, k + 1, fuel, path + ("cod",)))
        case ITIrrPi(h, d, c):
            return ITIrrPi(h, _l_syn(n0, x0, a0, d, k, fuel, path + ("dom",)),
                           _l_syn(n0, x0, a0, c, k + 1, fuel, path + ("cod",)))
        case ITProd(l, r):
            return ITProd(_l_syn(n0, x0, a0, l, k, fuel, path + ("left",)),
                          _l_syn(n0, x0, a0, r, k, fuel, path + ("right",)))
        case IKPi(h, d, c):
            return IKPi(h, _l_syn(n0, x0, a0, d, k, fuel, path + ("dom",)),
                        _l_syn(n0, x0, a0, c, k + 1, fuel, path + ("cod",)))
        case IKIrrPi(h, d, c):
            return IKIrrPi(h, _l_syn(n0, x0, a0, d, k, fuel, path + ("dom",)),
                           _l_syn(n0, x0, a0, c, k + 1, fuel, path + ("cod",)))
        case IKProd(l, r):
            return IKProd(_l_syn(n0, x0, a0, l, k, fuel, path + ("left",)),
                          _l_syn(n0, x0, a0, r, k, fuel, path + ("right",)))
    raise TypeError(f"lfi_hsubst: unexpected node {t!r}")


# ---------------------------------------------------------------------------
# Checking


class LfiError(CheckError):
    """Target-calculus checking failure."""


def _fmt_type(a: LfiType) -> str:
    from .printer import pp_lfi_type
    return pp_lfi_type(a)


def _fmt_term(t: LfiTerm) -> str:
    from .printer import pp_lfi_term
    return pp_lfi_term(t)


def _inst(cod: Union[LfiType, LfiKind], arg: LfiTerm, dom: LfiType
          ) -> Union[LfiType, LfiKind]:
    """A Pi type's or kind's codomain with its bound variable set to arg."""
    return lfi_hsubst(arg, 0, dom, cod)


def lfi_synth(sig: LfiSignature, ctx: LfiContext, r: LfiAtomic) -> LfiType:
    match r:
        case IConst(n):
            ty = sig.const_type(n)
            if ty is None:
                raise LfiError(f"unbound constant {n}")
            return ty
        case IFVar(n):
            entry = lfi_ctx_lookup(ctx, n)
            if entry is None:
                raise LfiError(f"unbound variable {n}")
            if not entry.relevant:
                raise LfiError(
                    f"irrelevant hypothesis {n} used in a relevant position")
            return entry.type
        case IApp(f, a):
            fty = lfi_synth(sig, ctx, f)
            if not isinstance(fty, ITPi):
                raise LfiError(f"applied term of non-function type {_fmt_type(fty)}")
            lfi_check(sig, ctx, a, fty.dom)
            return _inst(fty.cod, a, fty.dom)
        case IIrrApp(f, a):
            fty = lfi_synth(sig, ctx, f)
            if not isinstance(fty, ITIrrPi):
                raise LfiError(
                    f"irrelevant application at non-irrelevant type {_fmt_type(fty)}")
            lfi_check(sig, promote(ctx), a, fty.dom)
            return _inst(fty.cod, a, fty.dom)
        case IFst(b):
            bty = lfi_synth(sig, ctx, b)
            if not isinstance(bty, ITProd):
                raise LfiError(f"first projection of non-pair type {_fmt_type(bty)}")
            return bty.left
        case ISnd(b):
            bty = lfi_synth(sig, ctx, b)
            if not isinstance(bty, ITProd):
                raise LfiError(f"second projection of non-pair type {_fmt_type(bty)}")
            return bty.right
    raise LfiError(f"cannot synthesize a type for {_fmt_term(r)}")


def lfi_check(sig: LfiSignature, ctx: LfiContext, n: LfiTerm, a: LfiType) -> None:
    match n:
        case ILam(h, b):
            match a:
                case ITPi(_, d, c):
                    relevant = True
                case ITIrrPi(_, d, c):
                    relevant = False
                case _:
                    raise LfiError(
                        f"function checked against non-function type {_fmt_type(a)}")
            x = fresh_name(h, {e.name for e in ctx} | lfi_free_vars(b) | lfi_free_vars(c))
            lfi_check(sig, ctx + [LfiCtxEntry(x, d, relevant)],
                      open_lfi(b, IFVar(x)), open_lfi(c, IFVar(x)))
        case IPair(l, r):
            if not isinstance(a, ITProd):
                raise LfiError(f"pair checked against non-product type {_fmt_type(a)}")
            lfi_check(sig, ctx, l, a.left)
            lfi_check(sig, ctx, r, a.right)
        case IUnit():
            if not isinstance(a, ITUnitT):
                raise LfiError(f"unit checked against {_fmt_type(a)}")
        case _:
            if not is_lfi_atomic(n):
                raise LfiError(f"cannot check {_fmt_term(n)}")
            syn = lfi_synth(sig, ctx, n)
            if not lfi_equal(syn, a):
                raise LfiError(
                    f"type mismatch: expected {_fmt_type(a)}, synthesized {_fmt_type(syn)}")


def lfi_check_type(sig: LfiSignature, ctx: LfiContext, a: LfiType) -> None:
    match a:
        case ITPi(h, d, c) | ITIrrPi(h, d, c):
            lfi_check_type(sig, ctx, d)
            relevant = isinstance(a, ITPi)
            x = fresh_name(h, {e.name for e in ctx} | lfi_free_vars(c))
            lfi_check_type(sig, ctx + [LfiCtxEntry(x, d, relevant)],
                           open_lfi(c, IFVar(x)))
        case ITProd(l, r):
            lfi_check_type(sig, ctx, l)
            lfi_check_type(sig, ctx, r)
        case ITUnitT():
            pass
        case ITConst() | ITApp() | ITIrrApp():
            k = _kind_of_atomic(sig, ctx, a)
            if not isinstance(k, IKType):
                raise LfiError(f"type family not fully applied: {_fmt_type(a)}")
        case _:
            raise LfiError(f"not a type: {a!r}")


def _kind_of_atomic(sig: LfiSignature, ctx: LfiContext, p: LfiAtomicType) -> LfiKind:
    spine: list[tuple[LfiTerm, bool]] = []
    while True:
        match p:
            case ITApp(f, a):
                spine.append((a, False))
                p = f
            case ITIrrApp(f, a):
                spine.append((a, True))
                p = f
            case _:
                break
    if not isinstance(p, ITConst):
        raise LfiError(f"type head is not a constant: {p!r}")
    kind = sig.fam_kind(p.name)
    if kind is None:
        raise LfiError(f"unbound type family {p.name}")
    for arg, irr in reversed(spine):
        match kind:
            case IKPi(_, d, c) if not irr:
                lfi_check(sig, ctx, arg, d)
                kind = _inst(c, arg, d)
            case IKIrrPi(_, d, c) if irr:
                lfi_check(sig, promote(ctx), arg, d)
                kind = _inst(c, arg, d)
            case _:
                raise LfiError(
                    f"kind of {p.name} does not accept this argument shape")
    return kind


def lfi_check_kind(sig: LfiSignature, ctx: LfiContext, k: LfiKind) -> None:
    match k:
        case IKType() | IKUnit():
            pass
        case IKPi(h, d, c) | IKIrrPi(h, d, c):
            lfi_check_type(sig, ctx, d)
            relevant = isinstance(k, IKPi)
            x = fresh_name(h, {e.name for e in ctx} | lfi_free_vars(c))
            lfi_check_kind(sig, ctx + [LfiCtxEntry(x, d, relevant)],
                           open_lfi(c, IFVar(x)))
        case IKProd(l, r):
            lfi_check_kind(sig, ctx, l)
            lfi_check_kind(sig, ctx, r)
        case _:
            raise LfiError(f"not a kind: {k!r}")


def lfi_check_sig(sig: LfiSignature) -> None:
    """Re-check a whole signature declaration by declaration."""
    checked = LfiSignature()
    for decl in sig:
        if decl.name in checked._fams or decl.name in checked._consts:
            raise LfiError(f"{decl.name} is declared twice")
        if decl.is_family():
            lfi_check_kind(checked, [], decl.classifier)
        else:
            lfi_check_type(checked, [], decl.classifier)
        checked.append(decl)
