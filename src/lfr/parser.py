"""Concrete syntax for signatures in both the source and target languages.

The lexer has two modes: in source mode `^` is the intersection symbol,
while in target mode it is an ordinary identifier character (mangled
names like even^ live there).  One raw expression grammar serves both;
elaboration into the proper AST category happens per declaration.

Binders take maximal scope, arrows are right-associative, `^` binds
looser than arrows, `*` sits between arrows and declared infix
operators, and application binds tightest except for the postfix
projections `.1` and `.2`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import lfi as L
from .diagnostics import LexError, ParseError, SourceSpan
from .syntax import (
    App,
    BVar,
    Const,
    ConstRef,
    CPi,
    CSort,
    CTop,
    CInter,
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
)

# Longest match first.
_SYMBOLS = ["[[", "]]", "-:>", "->", "<-", "<<", "<:", "<>", "::",
            "{", "}", "(", ")", "[", "]", "^", "#", "*", ",", "<", ">",
            ":", "."]

# The characters, as a regular-expression class, that continue an
# identifier.  `-` continues one too, but only before another identifier
# character, so that `a->b` is three tokens.
_NAME_CHARS = "A-Za-z0-9_'/*"


def _scanner(target_mode: bool) -> re.Pattern:
    """Whitespace and `%` comments, then one token, as four groups: the
    skipped text and a SYM, IDENT or NUM token.  The last alternative
    matches the empty string where no token starts: at the end of the
    input, or at a character that starts no token.  In target mode `^` is
    an identifier character instead of a symbol."""
    syms = [s for s in _SYMBOLS if not (target_mode and s == "^")]
    hat = "^" if target_mode else ""
    return re.compile(
        r"((?:[ \t\r\n]+|%(?!infix)[^\n]*)*)"
        rf"(?:(%infix|\.[12](?![{_NAME_CHARS}-])|"
        + "|".join(map(re.escape, syms)) + ")"
        rf"|([A-Za-z](?:[{_NAME_CHARS}{hat}]|-(?=[{_NAME_CHARS}-]))*)"
        r"|([0-9]+)"
        r"|)")


_SCANNERS = (_scanner(False), _scanner(True))


class Token(NamedTuple):
    kind: str  # IDENT | NUM | SYM | EOF
    text: str
    span: SourceSpan


def tokenize(text: str, filename: str, target_mode: bool) -> list[Token]:
    """The tokens of text, ending with one EOF token."""
    out: list[Token] = []
    line, line_start, pos = 1, 0, 0
    # The matches are contiguous up to the first one that has no token,
    # which is the end of the input or a lexing error; scanning one match
    # at a time stops there and holds no list of them all.
    for m in _SCANNERS[target_mode].finditer(text):
        skip, sym, ident, num = m.groups()
        if skip:
            newlines = skip.count("\n")
            if newlines:
                line += newlines
                line_start = pos + skip.rindex("\n") + 1
            pos += len(skip)
        col = pos - line_start + 1
        if sym:
            kind, tok = "SYM", sym
        elif ident:
            kind, tok = "IDENT", ident
        elif num:
            kind, tok = "NUM", num
        else:
            span = SourceSpan(filename, line, col, line, col)
            if pos < len(text):
                raise LexError(f"unexpected character {text[pos]!r}", span)
            out.append(Token("EOF", "", span))
            break
        out.append(Token(kind, tok, SourceSpan(filename, line, col, line,
                                               col + len(tok))))
        pos += len(tok)
    return out


def _numeral(t: Token) -> int:
    """The value of a NUM token; one int() refuses is a located error."""
    try:
        return int(t.text)
    except ValueError:
        raise ParseError(f"numeral of {len(t.text)} digits is too long",
                         t.span) from None


# ---------------------------------------------------------------------------
# Raw expressions


@dataclass(frozen=True)
class RIdent:
    name: str
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class RNum:
    value: int
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class RTop:
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class RApp:
    fn: "RawExpr"
    arg: "RawExpr"


@dataclass(frozen=True)
class RIrrApp:
    fn: "RawExpr"
    arg: "RawExpr"


@dataclass(frozen=True)
class RProj:
    base: "RawExpr"
    which: int


@dataclass(frozen=True)
class RArrow:
    dom: "RawExpr"
    cod: "RawExpr"


@dataclass(frozen=True)
class RIrrArrow:
    dom: "RawExpr"
    cod: "RawExpr"


@dataclass(frozen=True)
class RInter:
    left: "RawExpr"
    right: "RawExpr"


@dataclass(frozen=True)
class RProd:
    left: "RawExpr"
    right: "RawExpr"


@dataclass(frozen=True)
class RPi:
    name: str
    colon: str  # ":" or "::"
    dom: "RawExpr"
    body: "RawExpr"
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class RLam:
    name: str
    body: "RawExpr"
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass(frozen=True)
class RPair:
    left: "RawExpr"
    right: "RawExpr"


@dataclass(frozen=True)
class RUnitTerm:
    span: Optional[SourceSpan] = field(default=None, compare=False)


RawExpr = object  # union of the above; kept loose on purpose


def _raw_span(e) -> Optional[SourceSpan]:
    match e:
        case RIdent() | RNum() | RTop() | RPi() | RLam() | RUnitTerm():
            return e.span
        case RApp(f, _) | RIrrApp(f, _) | RProj(f, _) | RArrow(f, _) | RIrrArrow(f, _):
            return _raw_span(f)
        case RInter(f, _) | RProd(f, _) | RPair(f, _):
            return _raw_span(f)
    return None


_ATOM_STARTERS_SYM = {"#", "(", "<", "<>"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.infix: dict[str, int] = {}

    # -- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "SYM" and t.text == text

    def expect(self, text: str) -> Token:
        if not self.at(text):
            t = self.peek()
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.span)
        return self.next()

    def expect_ident(self, what: str = "an identifier") -> Token:
        t = self.peek()
        if t.kind != "IDENT":
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}",
                             t.span)
        return self.next()

    # -- expressions

    def parse_expr(self):
        if self.at("{"):
            return self._parse_brace_binder()
        if self.at("["):
            return self._parse_lambda()
        left = self._parse_arrows()
        if self.at("^"):
            self.next()
            return RInter(left, self.parse_expr())
        return left

    def _parse_brace_binder(self):
        start = self.expect("{")
        name = self.expect_ident("a binder name").text
        if self.at("::"):
            colon = self.next().text
        elif self.at(":"):
            colon = self.next().text
        else:
            t = self.peek()
            raise ParseError(f"expected ':' or '::' in binder, found {t.text!r}",
                             t.span)
        dom = self.parse_expr()
        self.expect("}")
        body = self.parse_expr()
        return RPi(name, colon, dom, body, start.span)

    def _parse_lambda(self):
        start = self.expect("[")
        name = self.expect_ident("a binder name").text
        self.expect("]")
        body = self.parse_expr()
        return RLam(name, body, start.span)

    def _parse_arrows(self):
        items = [self._parse_prod()]
        ops: list[str] = []
        while self.at("->") or self.at("-:>") or self.at("<-"):
            ops.append(self.next().text)
            if self.at("{") or self.at("["):
                items.append(self.parse_expr())
                break
            items.append(self._parse_prod())
        if not ops:
            return items[0]
        if all(op in ("->", "-:>") for op in ops):
            result = items[-1]
            for op, item in zip(reversed(ops), reversed(items[:-1])):
                result = (RArrow if op == "->" else RIrrArrow)(item, result)
            return result
        if all(op == "<-" for op in ops):
            result = items[0]
            for item in items[1:]:
                result = RArrow(item, result)
            return result
        raise ParseError("mixing -> and <- in one chain needs parentheses",
                         _raw_span(items[0]))

    def _parse_prod(self):
        left = self._parse_infix(0)
        if self.at("*"):
            self.next()
            return RProd(left, self._parse_prod())
        return left

    def _parse_infix(self, min_prec: int):
        left = self._parse_app()
        while True:
            t = self.peek()
            if t.kind == "IDENT" and self.infix.get(t.text, -1) >= min_prec:
                op = self.next()
                rhs = self._parse_infix(self.infix[op.text])
                left = RApp(RApp(RIdent(op.text, op.span), left), rhs)
            else:
                return left

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind == "IDENT":
            return t.text not in self.infix
        if t.kind == "NUM":
            return True
        return t.kind == "SYM" and t.text in _ATOM_STARTERS_SYM

    def _parse_app(self):
        head = self._parse_atom_postfix()
        while True:
            if self.at("[["):
                self.next()
                arg = self.parse_expr()
                self.expect("]]")
                head = RIrrApp(head, arg)
            elif self._starts_atom():
                head = RApp(head, self._parse_atom_postfix())
            else:
                return head

    def _parse_atom_postfix(self):
        base = self._parse_atom()
        while self.at(".1") or self.at(".2"):
            which = int(self.next().text[1])
            base = RProj(base, which)
        return base

    def _parse_atom(self):
        t = self.peek()
        if t.kind == "IDENT":
            self.next()
            return RIdent(t.text, t.span)
        if t.kind == "NUM":
            self.next()
            return RNum(_numeral(t), t.span)
        if self.at("#"):
            self.next()
            return RTop(t.span)
        if self.at("("):
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        if self.at("["):
            return self._parse_lambda()
        if self.at("<>"):
            self.next()
            return RUnitTerm(t.span)
        if self.at("<"):
            self.next()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(">")
            return RPair(left, right)
        raise ParseError(f"expected an expression, found {t.text or 'end of input'!r}",
                         t.span)


def _is_kind_expr(e) -> bool:
    """A classifier is a kind iff some tail position reaches `type` or `sort`."""
    match e:
        case RIdent(n):
            return n in ("type", "sort")
        case RArrow(_, c) | RIrrArrow(_, c):
            return _is_kind_expr(c)
        case RPi(_, _, _, b):
            return _is_kind_expr(b)
        case RProd(l, r):
            return _is_kind_expr(l) or _is_kind_expr(r)
        case RInter(l, r):
            return _is_kind_expr(l) or _is_kind_expr(r)
    return False


# ---------------------------------------------------------------------------
# Elaboration into the source AST
#
# A scope lists the names of the binders around an expression, innermost
# last, None for an arrow's.  A bound name becomes its index as it is
# read, and each binder is built around its body as the body comes back.


class _SourceElab:
    def __init__(self):
        self.term_consts: set[str] = set()
        self.fam_kinds: dict[str, KType | KPi] = {}

    def term(self, e, scope: list):
        match e:
            case RIdent(n):
                if n in scope:
                    return BVar(scope[::-1].index(n))
                if n in self.term_consts:
                    return Const(n)
                if n[:1].isupper():
                    raise ParseError(
                        f"undeclared uppercase identifier {n}; implicit "
                        f"quantification is not supported, bind it explicitly",
                        e.span)
                return FVar(n)
            case RApp(f, a):
                fn = self.term(f, scope)
                if isinstance(fn, Lam):
                    raise ParseError(
                        "application of a function expression is not a "
                        "canonical form", _raw_span(e))
                return App(fn, self.term(a, scope))
            case RLam(x, b):
                return Lam(x, self.term(b, scope + [x]))
        raise ParseError("expected a term", _raw_span(e))

    def type(self, e, scope: list):
        match e:
            case RIdent(n):
                return TConst(n)
            case RApp(f, a):
                fn = self.type(f, scope)
                if not isinstance(fn, (TConst, TApp)):
                    raise ParseError("expected an atomic type", _raw_span(e))
                return TApp(fn, self.term(a, scope))
            case RArrow(d, c):
                return TPi("x", self.type(d, scope),
                           self.type(c, scope + [None]))
            case RPi(x, ":", d, b):
                return TPi(x, self.type(d, scope), self.type(b, scope + [x]))
            case RPi(_, "::", _, _):
                raise ParseError("type binders use ':', not '::'", e.span)
        raise ParseError("expected a type", _raw_span(e))

    def kind(self, e, scope: list):
        match e:
            case RIdent("type"):
                return KType()
            case RArrow(d, c):
                return KPi("x", self.type(d, scope),
                           self.kind(c, scope + [None]))
            case RPi(x, ":", d, b):
                return KPi(x, self.type(d, scope), self.kind(b, scope + [x]))
        raise ParseError("expected a kind", _raw_span(e))

    def sort(self, e, scope: list):
        match e:
            case RIdent(n):
                return SConst(n)
            case RTop():
                return STop()
            case RApp(f, a):
                fn = self.sort(f, scope)
                if not isinstance(fn, (SConst, SApp)):
                    raise ParseError("expected an atomic sort", _raw_span(e))
                return SApp(fn, self.term(a, scope))
            case RInter(l, r):
                return SInter(self.sort(l, scope), self.sort(r, scope))
            case RArrow(d, c):
                return SPi("x", self.sort(d, scope), None,
                           self.sort(c, scope + [None]))
            case RPi(x, "::", d, b):
                return SPi(x, self.sort(d, scope), None,
                           self.sort(b, scope + [x]))
            case RPi(_, ":", _, _):
                raise ParseError("sort binders use '::', not ':'", e.span)
        raise ParseError("expected a sort", _raw_span(e))

    def cls(self, e, scope: list):
        match e:
            case RIdent("sort"):
                return CSort()
            case RTop():
                return CTop()
            case RInter(l, r):
                return CInter(self.cls(l, scope), self.cls(r, scope))
            case RArrow(d, c):
                return CPi("x", self.sort(d, scope), None,
                           self.cls(c, scope + [None]))
            case RPi(x, "::", d, b):
                return CPi(x, self.sort(d, scope), None,
                           self.cls(b, scope + [x]))
            case RPi(_, ":", _, _):
                raise ParseError("class binders use '::', not ':'", e.span)
        raise ParseError("expected a class", _raw_span(e))


def _default_class(kind):
    """The maximal class refining a kind: every domain is the top sort."""
    match kind:
        case KType():
            return CSort()
        case KPi(h, _, c):
            return CPi(h, STop(), None, _default_class(c))
    raise TypeError(f"_default_class: {kind!r}")


def parse_signature(text: str, filename: str = "<input>") -> Signature:
    tokens = tokenize(text, filename, target_mode=False)
    p = _Parser(tokens)
    elab = _SourceElab()
    sig = Signature()
    while p.peek().kind != "EOF":
        if p.at("%infix"):
            p.next()
            assoc = p.expect_ident("an associativity").text
            if assoc != "right":
                raise ParseError("only right-associative infix is supported",
                                 p.toks[p.pos - 1].span)
            prec_tok = p.peek()
            if prec_tok.kind != "NUM":
                raise ParseError("expected a precedence", prec_tok.span)
            p.next()
            op = p.expect_ident("an operator name")
            if op.text not in elab.term_consts:
                raise ParseError(
                    f"infix operator {op.text} must name a declared constant",
                    op.span)
            p.expect(".")
            p.infix[op.text] = _numeral(prec_tok)
            continue
        name = p.expect_ident("a declaration name")
        if p.at(":"):
            p.next()
            e = p.parse_expr()
            p.expect(".")
            if _is_kind_expr(e):
                kind = elab.kind(e, [])
                elab.fam_kinds[name.text] = kind
                sig.append(TypeFam(name.text, kind, name.span))
            else:
                ty = elab.type(e, [])
                elab.term_consts.add(name.text)
                sig.append(TermConst(name.text, ty, name.span))
        elif p.at("<<"):
            p.next()
            fam = p.expect_ident("a type family name")
            if p.at("::"):
                p.next()
                e = p.parse_expr()
                p.expect(".")
                cls = elab.cls(e, [])
            else:
                p.expect(".")
                kind = elab.fam_kinds.get(fam.text)
                if kind is None:
                    raise ParseError(
                        f"cannot default the class of {name.text}: unknown "
                        f"family {fam.text}", fam.span)
                cls = _default_class(kind)
            sig.append(SortFam(name.text, fam.text, cls, name.span))
        elif p.at("::"):
            p.next()
            e = p.parse_expr()
            p.expect(".")
            sig.append(ConstRef(name.text, elab.sort(e, []), name.span))
        elif p.at("<:"):
            p.next()
            sup = p.expect_ident("a sort family name")
            p.expect(".")
            sig.append(SubDecl(name.text, sup.text, name.span))
        else:
            t = p.peek()
            raise ParseError(
                f"expected ':', '::', '<<', or '<:' after {name.text}, "
                f"found {t.text or 'end of input'!r}", t.span)
    return sig


# ---------------------------------------------------------------------------
# Convenience entry points for single expressions


def parse_term(text: str, consts: frozenset[str] | set[str] = frozenset(),
               filename: str = "<term>"):
    """Parse one term; identifiers in `consts` become constants."""
    return _parse_one(text, filename, consts, _SourceElab.term)


def parse_type(text: str, consts: frozenset[str] | set[str] = frozenset(),
               filename: str = "<type>"):
    return _parse_one(text, filename, consts, _SourceElab.type)


def parse_sort(text: str, consts: frozenset[str] | set[str] = frozenset(),
               filename: str = "<sort>"):
    return _parse_one(text, filename, consts, _SourceElab.sort)


def _parse_one(text, filename, consts, elaborate):
    """One expression, the whole of text, elaborated by `elaborate`."""
    p = _Parser(tokenize(text, filename, target_mode=False))
    elab = _SourceElab()
    elab.term_consts = set(consts)
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "EOF":
        raise ParseError(f"unexpected trailing input {t.text!r}", t.span)
    return elaborate(elab, e, [])


# ---------------------------------------------------------------------------
# Elaboration into the target AST


class _TargetElab:
    def __init__(self):
        self.consts: set[str] = set()

    def term(self, e, scope: list):
        match e:
            case RIdent(n):
                if n in scope:
                    return L.IBVar(scope[::-1].index(n))
                if n in self.consts:
                    return L.IConst(n)
                return L.IFVar(n)
            case RApp(f, a):
                fn = self.term(f, scope)
                if not L.is_lfi_atomic(fn):
                    raise ParseError("application of a non-atomic term",
                                     _raw_span(e))
                return L.IApp(fn, self.term(a, scope))
            case RIrrApp(f, a):
                fn = self.term(f, scope)
                if not L.is_lfi_atomic(fn):
                    raise ParseError("irrelevant application of a non-atomic "
                                     "term", _raw_span(e))
                return L.IIrrApp(fn, self.term(a, scope))
            case RProj(b, which):
                base = self.term(b, scope)
                if not L.is_lfi_atomic(base):
                    raise ParseError("projection from a non-atomic term",
                                     _raw_span(e))
                return (L.IFst if which == 1 else L.ISnd)(base)
            case RLam(x, b):
                return L.ILam(x, self.term(b, scope + [x]))
            case RPair(l, r):
                return L.IPair(self.term(l, scope), self.term(r, scope))
            case RUnitTerm():
                return L.IUnit()
        raise ParseError("expected a term", _raw_span(e))

    def type(self, e, scope: list):
        match e:
            case RIdent(n):
                return L.ITConst(n)
            case RNum(1):
                return L.ITUnitT()
            case RApp(f, a):
                fn = self.type(f, scope)
                if not isinstance(fn, (L.ITConst, L.ITApp, L.ITIrrApp)):
                    raise ParseError("expected an atomic type", _raw_span(e))
                return L.ITApp(fn, self.term(a, scope))
            case RIrrApp(f, a):
                fn = self.type(f, scope)
                if not isinstance(fn, (L.ITConst, L.ITApp, L.ITIrrApp)):
                    raise ParseError("expected an atomic type", _raw_span(e))
                return L.ITIrrApp(fn, self.term(a, scope))
            case RArrow(d, c):
                return L.ITPi("x", self.type(d, scope),
                              self.type(c, scope + [None]))
            case RIrrArrow(d, c):
                return L.ITIrrPi("x", self.type(d, scope),
                                 self.type(c, scope + [None]))
            case RPi(x, ":", d, b):
                return L.ITPi(x, self.type(d, scope),
                              self.type(b, scope + [x]))
            case RPi(x, "::", d, b):
                return L.ITIrrPi(x, self.type(d, scope),
                                 self.type(b, scope + [x]))
            case RProd(l, r):
                return L.ITProd(self.type(l, scope), self.type(r, scope))
        raise ParseError("expected a type", _raw_span(e))

    def kind(self, e, scope: list):
        match e:
            case RIdent("type"):
                return L.IKType()
            case RNum(1):
                return L.IKUnit()
            case RArrow(d, c):
                return L.IKPi("x", self.type(d, scope),
                              self.kind(c, scope + [None]))
            case RIrrArrow(d, c):
                return L.IKIrrPi("x", self.type(d, scope),
                                 self.kind(c, scope + [None]))
            case RPi(x, ":", d, b):
                return L.IKPi(x, self.type(d, scope),
                              self.kind(b, scope + [x]))
            case RPi(x, "::", d, b):
                return L.IKIrrPi(x, self.type(d, scope),
                                 self.kind(b, scope + [x]))
            case RProd(l, r):
                return L.IKProd(self.kind(l, scope), self.kind(r, scope))
        raise ParseError("expected a kind", _raw_span(e))


def parse_lfi(text: str, filename: str = "<input>") -> L.LfiSignature:
    tokens = tokenize(text, filename, target_mode=True)
    p = _Parser(tokens)
    elab = _TargetElab()
    sig = L.LfiSignature()
    while p.peek().kind != "EOF":
        name = p.expect_ident("a declaration name")
        p.expect(":")
        e = p.parse_expr()
        p.expect(".")
        if _is_kind_expr(e):
            sig.append(L.LfiDecl(name.text, elab.kind(e, []), name.span))
        else:
            sig.append(L.LfiDecl(name.text, elab.type(e, []), name.span))
        elab.consts.add(name.text)
    return sig
