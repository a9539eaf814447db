"""Abstract syntax for the refinement framework.

Terms are kept in canonical (beta-normal, eta-long) spine form: an
application node can only have an atomic head, so beta-redexes are not
representable.  Binding is locally nameless: bound variables are de Bruijn
indices (BVar), free variables are named (FVar).  Binder name hints are
carried for printing only and are excluded from equality, which makes
structural equality coincide with alpha-equivalence.  One walk, `map_vars`,
rebuilds a tree around its variables; opening, closing, shifting and
naming for messages are leaf functions over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from .diagnostics import SourceSpan

# ---------------------------------------------------------------------------
# Simple types (erased skeletons used to index hereditary substitution)


@dataclass(frozen=True)
class Base:
    name: str


@dataclass(frozen=True)
class Arrow:
    dom: "SimpleType"
    cod: "SimpleType"


SimpleType = Union[Base, Arrow]


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class BVar:
    """Bound variable, de Bruijn index counting enclosing binders."""

    index: int


@dataclass(frozen=True)
class FVar:
    """Free variable, identified by name."""

    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class App:
    """Spine application; the head side stays atomic by construction."""

    fn: "AtomicTerm"
    arg: "NormalTerm"


@dataclass(frozen=True)
class Lam:
    hint: str = field(compare=False)
    body: "NormalTerm"


AtomicTerm = Union[BVar, FVar, Const, App]
NormalTerm = Union[BVar, FVar, Const, App, Lam]


# ---------------------------------------------------------------------------
# Types and kinds


@dataclass(frozen=True)
class TConst:
    name: str


@dataclass(frozen=True)
class TApp:
    fn: "AtomicType"
    arg: NormalTerm


@dataclass(frozen=True)
class TPi:
    hint: str = field(compare=False)
    dom: "NormalType"
    cod: "NormalType"


AtomicType = Union[TConst, TApp]
NormalType = Union[TConst, TApp, TPi]


@dataclass(frozen=True)
class KType:
    pass


@dataclass(frozen=True)
class KPi:
    hint: str = field(compare=False)
    dom: NormalType
    cod: "Kind"


Kind = Union[KType, KPi]


# ---------------------------------------------------------------------------
# Sorts and classes


@dataclass(frozen=True)
class SConst:
    name: str


@dataclass(frozen=True)
class SApp:
    fn: "AtomicSort"
    arg: NormalTerm


@dataclass(frozen=True)
class SPi:
    """Dependent function sort; dom_type is the refined domain type.

    The parser leaves dom_type as None, elaboration fills it in.
    """

    hint: str = field(compare=False)
    dom_sort: "NormalSort"
    dom_type: Optional[NormalType]
    cod: "NormalSort"


@dataclass(frozen=True)
class STop:
    pass


@dataclass(frozen=True)
class SInter:
    left: "NormalSort"
    right: "NormalSort"


AtomicSort = Union[SConst, SApp]
NormalSort = Union[SConst, SApp, SPi, STop, SInter]


@dataclass(frozen=True)
class CSort:
    pass


@dataclass(frozen=True)
class CPi:
    hint: str = field(compare=False)
    dom_sort: NormalSort
    dom_type: Optional[NormalType]
    cod: "Class"


@dataclass(frozen=True)
class CTop:
    pass


@dataclass(frozen=True)
class CInter:
    left: "Class"
    right: "Class"


Class = Union[CSort, CPi, CTop, CInter]


Syntax = Union[NormalTerm, NormalType, NormalSort, Kind, Class]


# ---------------------------------------------------------------------------
# Declarations and signatures


@dataclass(frozen=True)
class TypeFam:
    name: str
    kind: Kind
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class TermConst:
    name: str
    type: NormalType
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class SortFam:
    name: str
    refines: str
    cls: Class
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class SubDecl:
    sub: str
    sup: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class ConstRef:
    const: str
    sort: NormalSort
    span: Optional[SourceSpan] = field(default=None, compare=False)


Declaration = Union[TypeFam, TermConst, SortFam, SubDecl, ConstRef]


class Signature:
    """Ordered, append-only list of declarations with name indexes.

    Uniqueness per namespace is the checker's job; lookups here return the
    first matching declaration.  Subsort declarations are also kept as an
    edge map, sub to its declared supersorts in declaration order, which
    `lfr_check.SubsortClosure` and the translator's coercion search read.
    """

    def __init__(self, decls: Iterable[Declaration] = ()):
        self.decls: list[Declaration] = []
        self._type_fams: dict[str, TypeFam] = {}
        self._term_consts: dict[str, TermConst] = {}
        self._sort_fams: dict[str, SortFam] = {}
        self._const_refs: dict[str, list[ConstRef]] = {}
        self.sub_decls: list[SubDecl] = []
        self.sub_edges: dict[str, list[str]] = {}
        for d in decls:
            self.append(d)

    def append(self, decl: Declaration) -> None:
        self.decls.append(decl)
        match decl:
            case TypeFam(name=n):
                self._type_fams.setdefault(n, decl)
            case TermConst(name=n):
                self._term_consts.setdefault(n, decl)
            case SortFam(name=n):
                self._sort_fams.setdefault(n, decl)
            case ConstRef(const=c):
                self._const_refs.setdefault(c, []).append(decl)
            case SubDecl(sub=a, sup=b):
                self.sub_decls.append(decl)
                self.sub_edges.setdefault(a, []).append(b)

    def __iter__(self) -> Iterator[Declaration]:
        return iter(self.decls)

    def __len__(self) -> int:
        return len(self.decls)

    def type_fam(self, name: str) -> Optional[TypeFam]:
        return self._type_fams.get(name)

    def term_const(self, name: str) -> Optional[TermConst]:
        return self._term_consts.get(name)

    def sort_fam(self, name: str) -> Optional[SortFam]:
        return self._sort_fams.get(name)

    def merged_ref_sort(self, name: str) -> Optional[NormalSort]:
        """Sort of a refined constant; repeat declarations intersect."""
        refs = self._const_refs.get(name)
        if not refs:
            return None
        sort = refs[0].sort
        for ref in refs[1:]:
            sort = SInter(sort, ref.sort)
        return sort

    def sort_fams_of(self, family: str) -> list[str]:
        return [d.name for d in self.decls
                if isinstance(d, SortFam) and d.refines == family]

    def names(self) -> set[str]:
        out: set[str] = set()
        for d in self.decls:
            match d:
                case TypeFam(name=n) | TermConst(name=n) | SortFam(name=n):
                    out.add(n)
                case _:
                    pass
        return out


# ---------------------------------------------------------------------------
# Contexts


@dataclass(frozen=True)
class CtxEntry:
    name: str
    sort: NormalSort
    type: NormalType


Context = Sequence[CtxEntry]


def ctx_lookup(ctx: Context, name: str) -> Optional[CtxEntry]:
    for entry in reversed(ctx):
        if entry.name == name:
            return entry
    return None


def erase_ctx(ctx: Context) -> list[tuple[str, NormalType]]:
    """Forget the refinement layer of a context."""
    return [(e.name, e.type) for e in ctx]


def erase_sig(sig: Signature) -> Signature:
    """Drop sort families, subsort declarations, and constant refinements."""
    return Signature(d for d in sig.decls if isinstance(d, (TypeFam, TermConst)))


# ---------------------------------------------------------------------------
# Binding operations


def map_vars(t: Syntax, f, k: int = 0) -> Syntax:
    """t rebuilt with f(v, depth) in place of each variable v, a BVar or
    an FVar, where depth is k plus the binders passed to reach v.

    This is the one walk that rebuilds source syntax around its variables:
    opening, closing and shifting are leaf functions over it.
    """
    match t:
        case BVar() | FVar():
            return f(t, k)
        case Const() | TConst() | SConst() | STop() | KType() | CSort() | CTop():
            return t
        case App(l, r) | TApp(l, r) | SApp(l, r) | SInter(l, r) | CInter(l, r):
            return type(t)(map_vars(l, f, k), map_vars(r, f, k))
        case Lam(h, b):
            return Lam(h, map_vars(b, f, k + 1))
        case TPi(h, d, c) | KPi(h, d, c):
            return type(t)(h, map_vars(d, f, k), map_vars(c, f, k + 1))
        case SPi(h, ds, dt, c) | CPi(h, ds, dt, c):
            return type(t)(h, map_vars(ds, f, k),
                           None if dt is None else map_vars(dt, f, k),
                           map_vars(c, f, k + 1))
    raise TypeError(f"map_vars: unexpected node {t!r}")


def open_at(t: Syntax, repl: AtomicTerm, k: int = 0) -> Syntax:
    """Replace bound index k with the locally closed atomic term repl."""
    def leaf(v, depth):
        return repl if isinstance(v, BVar) and v.index == depth else v
    return map_vars(t, leaf, k)


def close_at(t: Syntax, name: str, k: int = 0) -> Syntax:
    """Turn free occurrences of name back into bound index k."""
    def leaf(v, depth):
        return BVar(depth) if isinstance(v, FVar) and v.name == name else v
    return map_vars(t, leaf, k)


def shift(t: Syntax, by: int, cutoff: int = 0) -> Syntax:
    """Raise the indices of t at or above cutoff by `by`."""
    if by == 0:
        return t

    def leaf(v, depth):
        if isinstance(v, BVar) and v.index >= depth:
            return BVar(v.index + by)
        return v
    return map_vars(t, leaf, cutoff)


def alpha_eq(x: Syntax, y: Syntax) -> bool:
    """Alpha-equivalence; binder hints are already ignored by equality."""
    return x == y


def free_vars(t: Syntax) -> set[str]:
    out: set[str] = set()
    _collect_free(t, out)
    return out


def _collect_free(t: Syntax, out: set[str]) -> None:
    match t:
        case FVar(n):
            out.add(n)
        case BVar() | Const() | TConst() | SConst() | STop() | KType() | CSort() | CTop():
            pass
        case App(f, a) | TApp(f, a) | SApp(f, a):
            _collect_free(f, out)
            _collect_free(a, out)
        case Lam(_, b):
            _collect_free(b, out)
        case TPi(_, d, c) | KPi(_, d, c):
            _collect_free(d, out)
            _collect_free(c, out)
        case SPi(_, ds, dt, c) | CPi(_, ds, dt, c):
            _collect_free(ds, out)
            if dt is not None:
                _collect_free(dt, out)
            _collect_free(c, out)
        case SInter(l, r) | CInter(l, r):
            _collect_free(l, out)
            _collect_free(r, out)
        case _:
            raise TypeError(f"free_vars: unexpected node {t!r}")


def fresh_name(hint: str, avoid: set[str]) -> str:
    name = hint if hint else "x"
    while name in avoid:
        name += "'"
    return name


def binder_names(ctx_names: Iterable[str], stack) -> list[str]:
    """The names messages give the binders on a checker's stack, outermost
    first: each entry's hint (its first field), primed away from the
    context's names and from the names of the binders outside it."""
    avoid, out = set(ctx_names), []
    for entry in stack:
        out.append(fresh_name(entry[0], avoid))
        avoid.add(out[-1])
    return out


def named(t: Syntax, names: Sequence[str]) -> Syntax:
    """t read under binders named `names`, outermost first, with each of
    them opened as its name."""
    if not names:
        return t

    def leaf(v, depth):
        # Index depth + i is the binder names[-1 - i].
        i = v.index - depth if isinstance(v, BVar) else -1
        return FVar(names[-1 - i]) if 0 <= i < len(names) else v
    return map_vars(t, leaf)


_NAME_POOL = ("x", "y", "z", "u", "v", "w")


def pool_name(hint: str, avoid: set[str]) -> str:
    """Binder name for display; generic hints draw from a fixed pool."""
    if hint and hint not in ("_", "x"):
        return fresh_name(hint, avoid)
    for name in _NAME_POOL:
        if name not in avoid:
            return name
    return fresh_name("x", avoid)


# ---------------------------------------------------------------------------
# Heads and spines


def head(r: AtomicTerm) -> Union[BVar, FVar, Const]:
    while isinstance(r, App):
        r = r.fn
    return r


def spine(r):
    """The head of an atomic term, type or sort, and its arguments in
    order."""
    args = []
    while isinstance(r, (App, TApp, SApp)):
        args.append(r.arg)
        r = r.fn
    args.reverse()
    return r, args


term_spine = type_spine = sort_spine = spine


def is_atomic_term(t: NormalTerm) -> bool:
    return isinstance(t, (BVar, FVar, Const, App))


def is_atomic_sort(s: NormalSort) -> bool:
    return isinstance(s, (SConst, SApp))
