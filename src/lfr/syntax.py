"""Abstract syntax for the refinement framework.

Terms are kept in canonical (beta-normal, eta-long) spine form: an
application node can only have an atomic head, so beta-redexes are not
representable.  Binding is locally nameless: bound variables are de Bruijn
indices (BVar), free variables are named (FVar).  Binder name hints are
carried for printing only and are excluded from equality, which makes
structural equality coincide with alpha-equivalence.  One walk, `map_vars`,
rebuilds a tree around its variables; shifting, naming for messages and
collecting free names are leaf functions over it.  Names stand for bound
variables only where text is read (the parser's scope) and where messages
are printed.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence, Union

from .diagnostics import Node, SourceSpan, _Fuel, fresh_name

# ---------------------------------------------------------------------------
# Simple types (erased skeletons used to index hereditary substitution)


class Base(Node):
    name: str


class Arrow(Node):
    dom: "SimpleType"
    cod: "SimpleType"


SimpleType = Union[Base, Arrow]


# ---------------------------------------------------------------------------
# Terms


class BVar(Node):
    """Bound variable, de Bruijn index counting enclosing binders."""

    index: int


class FVar(Node):
    """Free variable, identified by name."""

    name: str


class Const(Node):
    name: str


class App(Node):
    """Spine application; the head side stays atomic by construction."""

    fn: "AtomicTerm"
    arg: "NormalTerm"


class Lam(Node):
    hint: str
    body: "NormalTerm"


AtomicTerm = Union[BVar, FVar, Const, App]
NormalTerm = Union[BVar, FVar, Const, App, Lam]


# ---------------------------------------------------------------------------
# Types and kinds


class TConst(Node):
    name: str


class TApp(Node):
    fn: "AtomicType"
    arg: NormalTerm


class TPi(Node):
    hint: str
    dom: "NormalType"
    cod: "NormalType"


AtomicType = Union[TConst, TApp]
NormalType = Union[TConst, TApp, TPi]


class KType(Node):
    pass


class KPi(Node):
    hint: str
    dom: NormalType
    cod: "Kind"


Kind = Union[KType, KPi]


# ---------------------------------------------------------------------------
# Sorts and classes


class SConst(Node):
    name: str


class SApp(Node):
    fn: "AtomicSort"
    arg: NormalTerm


class SPi(Node):
    """Dependent function sort; dom_type is the refined domain type.

    The parser leaves dom_type as None, elaboration fills it in.
    """

    hint: str
    dom_sort: "NormalSort"
    dom_type: Optional[NormalType]
    cod: "NormalSort"


class STop(Node):
    pass


class SInter(Node):
    left: "NormalSort"
    right: "NormalSort"


AtomicSort = Union[SConst, SApp]
NormalSort = Union[SConst, SApp, SPi, STop, SInter]


class CSort(Node):
    pass


class CPi(Node):
    hint: str
    dom_sort: NormalSort
    dom_type: Optional[NormalType]
    cod: "Class"


class CTop(Node):
    pass


class CInter(Node):
    left: "Class"
    right: "Class"


Class = Union[CSort, CPi, CTop, CInter]


Syntax = Union[NormalTerm, NormalType, NormalSort, Kind, Class]


# ---------------------------------------------------------------------------
# Declarations and signatures


class TypeFam(Node):
    name: str
    kind: Kind
    span: Optional[SourceSpan] = None


class TermConst(Node):
    name: str
    type: NormalType
    span: Optional[SourceSpan] = None


class SortFam(Node):
    name: str
    refines: str
    cls: Class
    span: Optional[SourceSpan] = None


class SubDecl(Node):
    sub: str
    sup: str
    span: Optional[SourceSpan] = None


class ConstRef(Node):
    const: str
    sort: NormalSort
    span: Optional[SourceSpan] = None


Declaration = Union[TypeFam, TermConst, SortFam, SubDecl, ConstRef]


class Signature:
    """Ordered, append-only list of declarations with name indexes.

    Uniqueness per namespace is the checker's job; lookups here return the
    first matching declaration.  Subsort declarations are also kept as an
    edge map, sub to its declared supersorts in declaration order, which
    only `lfr_check.build_closure` searches; `subsorts` is its memo, dropped
    whenever an edge is added.  `const_refs` maps a constant to its
    refinement declarations, in order.  `fuel` is the step budget the
    judgments run on the signature draw from (see diagnostics._Fuel).
    """

    def __init__(self, decls: Iterable[Declaration] = (),
                 fuel: Optional[_Fuel] = None):
        self.decls: list[Declaration] = []
        self._type_fams: dict[str, TypeFam] = {}
        self._term_consts: dict[str, TermConst] = {}
        self._sort_fams: dict[str, SortFam] = {}
        self.const_refs: dict[str, list[ConstRef]] = {}
        self.sub_edges: dict[str, list[str]] = {}
        self.subsorts: dict[str, dict] = {}      # see lfr_check.build_closure
        self.formations: dict[int, tuple] = {}   # see lfr_check._form_atom
        if fuel is not None:
            self.fuel = fuel
        for d in decls:
            self.append(d)

    @cached_property
    def fuel(self) -> _Fuel:
        """The budget of a signature made without one: LFR_FUEL, read when
        a judgment first draws on it."""
        return _Fuel()

    def append(self, decl: Declaration) -> None:
        self.decls.append(decl)
        match decl:
            case TypeFam():
                self._type_fams.setdefault(decl.name, decl)
            case TermConst():
                self._term_consts.setdefault(decl.name, decl)
            case SortFam():
                self._sort_fams.setdefault(decl.name, decl)
            case ConstRef():
                self.const_refs.setdefault(decl.const, []).append(decl)
            case SubDecl():
                self.sub_edges.setdefault(decl.sub, []).append(decl.sup)
                self.subsorts.clear()

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
        refs = self.const_refs.get(name)
        if not refs:
            return None
        sort = refs[0].sort
        for ref in refs[1:]:
            sort = SInter(sort, ref.sort)
        return sort

    def names(self) -> set[str]:
        return {d.name for d in self.decls
                if isinstance(d, (TypeFam, TermConst, SortFam))}


# ---------------------------------------------------------------------------
# Contexts


class CtxEntry(Node):
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


_LEAVES = frozenset((Const, TConst, SConst, STop, KType, CSort, CTop))


def map_vars(t: Syntax, f, k: int = 0) -> Syntax:
    """t rebuilt with f(v, depth) in place of each variable v, a BVar or
    an FVar, where depth is k plus the binders passed to reach v.

    This is the one walk that rebuilds source syntax around its variables:
    shifting, naming and free_vars are leaf functions over it.
    """
    cls = t.__class__
    if cls is BVar or cls is FVar:
        return f(t, k)
    if cls is App or cls is TApp or cls is SApp:
        return cls(map_vars(t.fn, f, k), map_vars(t.arg, f, k))
    if cls is Lam:
        return Lam(t.hint, map_vars(t.body, f, k + 1))
    if cls is TPi or cls is KPi:
        return cls(t.hint, map_vars(t.dom, f, k), map_vars(t.cod, f, k + 1))
    if cls in _LEAVES:
        return t
    if cls is SPi or cls is CPi:
        dt = t.dom_type
        return cls(t.hint, map_vars(t.dom_sort, f, k),
                   None if dt is None else map_vars(dt, f, k),
                   map_vars(t.cod, f, k + 1))
    if cls is SInter or cls is CInter:
        return cls(map_vars(t.left, f, k), map_vars(t.right, f, k))
    raise TypeError(f"map_vars: unexpected node {t!r}")


def shift(t: Syntax, by: int) -> Syntax:
    """Raise the loose indices of t by `by`."""
    if by == 0:
        return t

    def leaf(v, depth):
        if isinstance(v, BVar) and v.index >= depth:
            return BVar(v.index + by)
        return v
    return map_vars(t, leaf)


def alpha_eq(x: Syntax, y: Syntax) -> bool:
    """Alpha-equivalence; binder hints are already ignored by equality."""
    return x == y


def free_vars(t: Syntax) -> set[str]:
    out: set[str] = set()

    def leaf(v, depth):
        if isinstance(v, FVar):
            out.add(v.name)
        return v
    map_vars(t, leaf)
    return out


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
