"""Concrete syntax for signatures in both the source and target languages.

The lexer has two modes: in source mode `^` is the intersection symbol,
while in target mode it is an ordinary identifier character (mangled
names like even^ live there).  One expression grammar serves both; each
mode elaborates what it reads into its own AST.

Binders take maximal scope, arrows are right-associative, `^` binds
looser than arrows, `*` sits between arrows and declared infix
operators, and application binds tightest except for the postfix
projections `.1` and `.2`.

A token is a (kind, text, offset) triple.  A table of line starts turns
an offset into a SourceSpan where one is needed: in an error, and once
per declaration.

A declaration's expression is read into a raw tree, whose leaves keep
the index of their token, and elaborated once it has parsed, so that a
syntax error anywhere in the declaration is reported first.  The grammar
settles an operand's category (term, type, kind, sort or class) only
after the operand: an arrow's domain or its codomain, the left operand
of an infix operator, a `:` declaration's kind or type, and the scope of
each operand of a `<-` chain, which depends on how many follow.  Reading
the tree first reads each token once.  Binders, arrows, `*` and infix
operators are loops, so that nesting one parenthesis deeper costs two
frames of the parser and at most two of an elaborator.
"""

from __future__ import annotations

import re
from bisect import bisect_right

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
    skipped text and an IDENT, SYM or NUM token.  The last alternative
    matches the empty string where no token starts: at the end of the
    input, or at a character that starts no token.  In target mode `^` is
    an identifier character instead of a symbol.  An identifier starts
    with a letter, which no symbol or number does, so it is tried first:
    it is the most common token."""
    syms = [s for s in _SYMBOLS if not (target_mode and s == "^")]
    hat = "^" if target_mode else ""
    return re.compile(
        r"((?:[ \t\r\n]+|%(?!infix)[^\n]*)*)"
        rf"(?:([A-Za-z](?:[{_NAME_CHARS}{hat}]|-(?=[{_NAME_CHARS}-]))*)"
        rf"|(%infix|\.[12](?![{_NAME_CHARS}-])|"
        + "|".join(map(re.escape, syms)) + ")"
        r"|([0-9]+)"
        r"|)")


_SCANNERS = (_scanner(False), _scanner(True))


class SourceLines:
    """Where the lines of one text start, to place an offset in it.  Lines
    end at `\\n` only, so a `\\r` or a tab is one column."""

    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.starts = [0, *(m.end() for m in re.finditer("\n", text))]

    def span(self, offset: int, length: int = 0) -> SourceSpan:
        """The span of the length characters at offset, on one line."""
        line = bisect_right(self.starts, offset)
        col = offset - self.starts[line - 1] + 1
        return SourceSpan(self.filename, line, col, line, col + length)


def tokenize(text: str, filename: str,
             target_mode: bool) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) tokens of text, ending with one EOF token;
    a kind is IDENT, NUM, SYM or EOF."""
    out = []
    add = out.append
    pos = 0
    # The matches are contiguous up to the first one that has no token,
    # which is the end of the input or a lexing error.
    for skip, ident, sym, num in _SCANNERS[target_mode].findall(text):
        pos += len(skip)
        if ident:
            add(("IDENT", ident, pos))
            pos += len(ident)
        elif sym:
            add(("SYM", sym, pos))
            pos += len(sym)
        elif num:
            add(("NUM", num, pos))
            pos += len(num)
        else:
            if pos < len(text):
                raise LexError(f"unexpected character {text[pos]!r}",
                               SourceLines(text, filename).span(pos))
            add(("EOF", "", pos))
            break
    return out


# ---------------------------------------------------------------------------
# Raw expressions: what the grammar reads, before elaboration.  A raw
# expression is a tuple, its tag first:
#
#   ("ident", name, at)  ("num", value, at)  ("top", at)  ("unit", at)
#   ("app", fn, arg)  ("irrapp", fn, arg)  ("proj", base, which)
#   ("pair", left, right)  ("->", dom, cod)  ("-:>", dom, cod)
#   ("^", left, right)  ("*", left, right)
#   ("pi", name, colon, dom, body, at)  ("lam", name, body, at)
#
# A leaf, a binder and an abstraction end with the index of their first
# token, which places an error in them.
_LEAVES = frozenset(("ident", "num", "top", "unit", "pi", "lam"))


def _at(e) -> int:
    """The token a raw expression's errors are placed at: its leftmost
    leaf's, or a binder's or an abstraction's opening bracket."""
    while e[0] not in _LEAVES:
        e = e[1]
    return e[-1]


def _is_kind_expr(e) -> bool:
    """A classifier is a kind iff some tail position reaches `type` or
    `sort`."""
    match e:
        case ("ident", n, _):
            return n in ("type", "sort")
        case ("->" | "-:>", _, c) | ("pi", _, _, _, c, _):
            return _is_kind_expr(c)
        case ("*" | "^", l, r):
            return _is_kind_expr(l) or _is_kind_expr(r)
    return False


# ---------------------------------------------------------------------------
# The grammar

_ARROWS = frozenset(("->", "-:>", "<-"))
_ARG_SYMS = frozenset(("#", "(", "<", "<>"))   # they start an argument
_PI, _LAM, _INTER, _CHAIN = range(4)   # what waits for the rest


class _Parser:
    def __init__(self, text: str, filename: str, target_mode: bool):
        self.toks = tokenize(text, filename, target_mode)
        self.lines = SourceLines(text, filename)
        self.pos = 0
        self.infix: dict[str, int] = {}

    def span(self, i: int) -> SourceSpan:
        _, text, offset = self.toks[i]
        return self.lines.span(offset, len(text))

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.span(i))

    def expect(self, text: str) -> None:
        found = self.toks[self.pos][1]
        if found != text:
            raise self.error(
                f"expected {text!r}, found {found or 'end of input'!r}",
                self.pos)
        self.pos += 1

    def ident(self, what: str) -> str:
        kind, text, _ = self.toks[self.pos]
        if kind != "IDENT":
            raise self.error(
                f"expected {what}, found {text or 'end of input'!r}",
                self.pos)
        self.pos += 1
        return text

    def numeral(self, i: int) -> int:
        """The value of NUM token i; one int() refuses is a located error."""
        text = self.toks[i][1]
        try:
            return int(text)
        except ValueError:
            raise self.error(f"numeral of {len(text)} digits is too long",
                             i) from None

    def declared(self):
        """A declaration's expression, up to and with its `.`."""
        e = self.expr()
        self.expect(".")
        return e

    def expr(self):
        """An expression: binders and abstractions, then operands joined
        by arrows, then `^` and another expression."""
        toks = self.toks
        waiting = []   # binders, `^` and arrow chains, innermost last
        while True:
            text = toks[self.pos][1]
            if text == "{":
                at = self.pos
                self.pos += 1
                name = self.ident("a binder name")
                colon = toks[self.pos][1]
                if colon != ":" and colon != "::":
                    raise self.error(f"expected ':' or '::' in binder, "
                                     f"found {colon!r}", self.pos)
                self.pos += 1
                dom = self.expr()
                self.expect("}")
                waiting.append((_PI, name, colon, dom, at))
                continue
            if text == "[":
                at = self.pos
                self.pos += 1
                name = self.ident("a binder name")
                self.expect("]")
                waiting.append((_LAM, name, at))
                continue
            value = self.operand()
            op = toks[self.pos][1]
            if op in _ARROWS:
                items, ops = [value], []
                while True:
                    ops.append(op)
                    self.pos += 1
                    if toks[self.pos][1] in ("{", "["):
                        break
                    items.append(self.operand())
                    op = toks[self.pos][1]
                    if op not in _ARROWS:
                        break
                if op in _ARROWS:
                    # A binder or an abstraction ends the chain: the rest
                    # of the expression is its last operand.
                    waiting.append((_CHAIN, items, ops))
                    continue
                value = self.chain(items, ops)
            if toks[self.pos][1] != "^":
                break
            self.pos += 1
            waiting.append((_INTER, value))
        while waiting:
            w = waiting.pop()
            if w[0] == _PI:
                value = ("pi", w[1], w[2], w[3], value, w[4])
            elif w[0] == _LAM:
                value = ("lam", w[1], value, w[2])
            elif w[0] == _INTER:
                value = ("^", w[1], value)
            else:
                value = self.chain(w[1] + [value], w[2])
        return value

    def chain(self, items: list, ops: list):
        """The arrows ops between items: a -> b -> c, or c <- b <- a for
        the same."""
        if "<-" not in ops:
            value = items[-1]
            for op, item in zip(reversed(ops), reversed(items[:-1])):
                value = (op, item, value)
            return value
        if "->" in ops or "-:>" in ops:
            raise self.error("mixing -> and <- in one chain needs "
                             "parentheses", _at(items[0]))
        value = items[0]
        for item in items[1:]:
            value = ("->", item, value)
        return value

    def operand(self):
        """Factors of `*`, each infix operators over applications."""
        toks, infix = self.toks, self.infix
        factors = []
        while True:
            args = ops = None   # infix operands; (precedence, at)
            while True:
                # An application: a head, its projections, and arguments.
                value = None
                while True:
                    i = self.pos
                    kind, text, _ = toks[i]
                    if value is not None:
                        if text == "[[":
                            self.pos = i + 1
                            arg = self.expr()
                            self.expect("]]")
                            value = ("irrapp", value, arg)
                            continue
                        if not (kind == "IDENT" and text not in infix
                                or kind == "NUM" or text in _ARG_SYMS):
                            break
                    self.pos = i + 1
                    if kind == "IDENT":
                        a = ("ident", text, i)
                    elif kind == "NUM":
                        a = ("num", self.numeral(i), i)
                    elif text == "(":
                        a = self.expr()
                        self.expect(")")
                    elif text == "#":
                        a = ("top", i)
                    elif text == "<>":
                        a = ("unit", i)
                    elif text == "<":
                        left = self.expr()
                        self.expect(",")
                        right = self.expr()
                        self.expect(">")
                        a = ("pair", left, right)
                    elif text == "[":
                        name = self.ident("a binder name")
                        self.expect("]")
                        a = ("lam", name, self.expr(), i)
                    else:
                        raise self.error(f"expected an expression, found "
                                         f"{text or 'end of input'!r}", i)
                    while toks[self.pos][1] in (".1", ".2"):
                        a = ("proj", a, int(toks[self.pos][1][1]))
                        self.pos += 1
                    value = a if value is None else ("app", value, a)
                kind, text, _ = toks[self.pos]
                if kind != "IDENT" or text not in infix:
                    break
                if args is None:
                    args, ops = [], []
                args.append(value)
                prec = infix[text]
                while ops and ops[-1][0] > prec:
                    self.infix_app(args, ops)
                ops.append((prec, self.pos))
                self.pos += 1
            if args is not None:
                args.append(value)
                while ops:
                    self.infix_app(args, ops)
                value = args[0]
            if toks[self.pos][1] != "*":
                break
            factors.append(value)
            self.pos += 1
        while factors:
            value = ("*", factors.pop(), value)
        return value

    def infix_app(self, args: list, ops: list):
        """Apply the last operator of ops to the last two of args."""
        _, at = ops.pop()
        right, left = args.pop(), args.pop()
        op = ("ident", self.toks[at][1], at)
        args.append(("app", ("app", op, left), right))


# ---------------------------------------------------------------------------
# Elaboration into the source AST
#
# A scope lists the names of the binders around an expression, innermost
# last, None for an arrow's.  A bound name becomes its index as it is
# read, and each binder is built around its body as the body comes back.


class _Elab:
    """Raw trees into one language's AST, a method per category; errors
    are placed through the parser p."""

    def __init__(self, p: _Parser):
        self.p = p

    def fail(self, message: str, e) -> ParseError:
        """The error message, placed at raw expression e."""
        return self.p.error(message, _at(e))


class _SourceElab(_Elab):
    def __init__(self, p: _Parser):
        super().__init__(p)
        self.term_consts: set[str] = set()
        self.fam_kinds: dict[str, KType | KPi] = {}

    def term(self, e, scope: list):
        match e:
            case ("ident", n, _):
                if n in scope:
                    return BVar(scope[::-1].index(n))
                if n in self.term_consts:
                    return Const(n)
                if n[:1].isupper():
                    raise self.fail(
                        f"undeclared uppercase identifier {n}; implicit "
                        f"quantification is not supported, bind it explicitly",
                        e)
                return FVar(n)
            case ("app", f, a):
                fn = self.term(f, scope)
                if isinstance(fn, Lam):
                    raise self.fail(
                        "application of a function expression is not a "
                        "canonical form", e)
                return App(fn, self.term(a, scope))
            case ("lam", x, b, _):
                return Lam(x, self.term(b, scope + [x]))
        raise self.fail("expected a term", e)

    def type(self, e, scope: list):
        match e:
            case ("ident", n, _):
                return TConst(n)
            case ("app", f, a):
                fn = self.type(f, scope)
                if not isinstance(fn, (TConst, TApp)):
                    raise self.fail("expected an atomic type", e)
                return TApp(fn, self.term(a, scope))
            case ("->", d, c):
                return TPi("x", self.type(d, scope),
                           self.type(c, scope + [None]))
            case ("pi", x, ":", d, b, _):
                return TPi(x, self.type(d, scope), self.type(b, scope + [x]))
            case ("pi", _, "::", _, _, _):
                raise self.fail("type binders use ':', not '::'", e)
        raise self.fail("expected a type", e)

    def kind(self, e, scope: list):
        match e:
            case ("ident", "type", _):
                return KType()
            case ("->", d, c):
                return KPi("x", self.type(d, scope),
                           self.kind(c, scope + [None]))
            case ("pi", x, ":", d, b, _):
                return KPi(x, self.type(d, scope), self.kind(b, scope + [x]))
        raise self.fail("expected a kind", e)

    def sort(self, e, scope: list):
        match e:
            case ("ident", n, _):
                return SConst(n)
            case ("top", _):
                return STop()
            case ("app", f, a):
                fn = self.sort(f, scope)
                if not isinstance(fn, (SConst, SApp)):
                    raise self.fail("expected an atomic sort", e)
                return SApp(fn, self.term(a, scope))
            case ("^", l, r):
                return SInter(self.sort(l, scope), self.sort(r, scope))
            case ("->", d, c):
                return SPi("x", self.sort(d, scope), None,
                           self.sort(c, scope + [None]))
            case ("pi", x, "::", d, b, _):
                return SPi(x, self.sort(d, scope), None,
                           self.sort(b, scope + [x]))
            case ("pi", _, ":", _, _, _):
                raise self.fail("sort binders use '::', not ':'", e)
        raise self.fail("expected a sort", e)

    def cls(self, e, scope: list):
        match e:
            case ("ident", "sort", _):
                return CSort()
            case ("top", _):
                return CTop()
            case ("^", l, r):
                return CInter(self.cls(l, scope), self.cls(r, scope))
            case ("->", d, c):
                return CPi("x", self.sort(d, scope), None,
                           self.cls(c, scope + [None]))
            case ("pi", x, "::", d, b, _):
                return CPi(x, self.sort(d, scope), None,
                           self.cls(b, scope + [x]))
            case ("pi", _, ":", _, _, _):
                raise self.fail("class binders use '::', not ':'", e)
        raise self.fail("expected a class", e)


# ---------------------------------------------------------------------------
# Elaboration into the target AST


class _TargetElab(_Elab):
    def __init__(self, p: _Parser):
        super().__init__(p)
        self.consts: set[str] = set()

    def term(self, e, scope: list):
        match e:
            case ("ident", n, _):
                if n in scope:
                    return L.IBVar(scope[::-1].index(n))
                if n in self.consts:
                    return L.IConst(n)
                return L.IFVar(n)
            case ("app", f, a):
                fn = self.term(f, scope)
                if not L.is_lfi_atomic(fn):
                    raise self.fail("application of a non-atomic term", e)
                return L.IApp(fn, self.term(a, scope))
            case ("proj", b, which):
                base = self.term(b, scope)
                if not L.is_lfi_atomic(base):
                    raise self.fail("projection from a non-atomic term", e)
                return (L.IFst if which == 1 else L.ISnd)(base)
            case ("lam", x, b, _):
                return L.ILam(x, self.term(b, scope + [x]))
            case ("pair", l, r):
                return L.IPair(self.term(l, scope), self.term(r, scope))
            case ("unit", _):
                return L.IUnit()
            case ("irrapp", _, _):
                raise self.fail("only a type family takes an argument "
                                "irrelevantly", e)
        raise self.fail("expected a term", e)

    def type(self, e, scope: list):
        match e:
            case ("ident", n, _):
                return L.ITConst(n)
            case ("num", 1, _):
                return L.ITUnitT()
            case ("app", f, a):
                fn = self.type(f, scope)
                if not isinstance(fn, (L.ITConst, L.ITApp, L.ITIrrApp)):
                    raise self.fail("expected an atomic type", e)
                return L.ITApp(fn, self.term(a, scope))
            case ("irrapp", f, a):
                fn = self.type(f, scope)
                if not isinstance(fn, (L.ITConst, L.ITApp, L.ITIrrApp)):
                    raise self.fail("expected an atomic type", e)
                return L.ITIrrApp(fn, self.term(a, scope))
            case ("->", d, c):
                return L.ITPi("x", self.type(d, scope),
                              self.type(c, scope + [None]))
            case ("pi", x, ":", d, b, _):
                return L.ITPi(x, self.type(d, scope),
                              self.type(b, scope + [x]))
            case ("*", l, r):
                return L.ITProd(self.type(l, scope), self.type(r, scope))
            case ("-:>", _, _) | ("pi", _, "::", _, _, _):
                raise self.fail("only a kind takes an argument irrelevantly", e)
        raise self.fail("expected a type", e)

    def kind(self, e, scope: list):
        match e:
            case ("ident", "type", _):
                return L.IKType()
            case ("->", d, c):
                return L.IKPi("x", self.type(d, scope),
                              self.kind(c, scope + [None]))
            case ("-:>", d, c):
                return L.IKIrrPi("x", self.type(d, scope),
                                 self.kind(c, scope + [None]))
            case ("pi", x, ":", d, b, _):
                return L.IKPi(x, self.type(d, scope),
                              self.kind(b, scope + [x]))
            case ("pi", x, "::", d, b, _):
                return L.IKIrrPi(x, self.type(d, scope),
                                 self.kind(b, scope + [x]))
        raise self.fail("expected a kind", e)


def _default_class(kind):
    """The maximal class refining a kind: every domain is the top sort."""
    match kind:
        case KType():
            return CSort()
        case KPi():
            return CPi(kind.hint, STop(), None, _default_class(kind.cod))
    raise TypeError(f"_default_class: {kind!r}")


def parse_signature(text: str, filename: str = "<input>") -> Signature:
    p = _Parser(text, filename, False)
    elab = _SourceElab(p)
    toks = p.toks
    sig = Signature()
    while toks[p.pos][0] != "EOF":
        if toks[p.pos][1] == "%infix":
            p.pos += 1
            if p.ident("an associativity") != "right":
                raise p.error("only right-associative infix is supported",
                              p.pos - 1)
            prec = p.pos
            if toks[prec][0] != "NUM":
                raise p.error("expected a precedence", prec)
            p.pos += 1
            op = p.ident("an operator name")
            if op not in elab.term_consts:
                raise p.error(
                    f"infix operator {op} must name a declared constant",
                    p.pos - 1)
            p.expect(".")
            p.infix[op] = p.numeral(prec)
            continue
        at = p.pos
        name = p.ident("a declaration name")
        sep = toks[p.pos][1]
        p.pos += 1
        if sep == ":":
            e = p.declared()
            if _is_kind_expr(e):
                kind = elab.kind(e, [])
                elab.fam_kinds[name] = kind
                sig.append(TypeFam(name, kind, p.span(at)))
            else:
                ty = elab.type(e, [])
                elab.term_consts.add(name)
                sig.append(TermConst(name, ty, p.span(at)))
        elif sep == "<<":
            fam = p.ident("a type family name")
            if toks[p.pos][1] == "::":
                p.pos += 1
                cls = elab.cls(p.declared(), [])
            else:
                p.expect(".")
                kind = elab.fam_kinds.get(fam)
                if kind is None:
                    raise p.error(
                        f"cannot default the class of {name}: unknown "
                        f"family {fam}", at + 2)
                cls = _default_class(kind)
            sig.append(SortFam(name, fam, cls, p.span(at)))
        elif sep == "::":
            sort = elab.sort(p.declared(), [])
            sig.append(ConstRef(name, sort, p.span(at)))
        elif sep == "<:":
            sup = p.ident("a sort family name")
            p.expect(".")
            sig.append(SubDecl(name, sup, p.span(at)))
        else:
            raise p.error(
                f"expected ':', '::', '<<', or '<:' after {name}, "
                f"found {sep or 'end of input'!r}", p.pos - 1)
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
    """One expression, the whole of text, elaborated by elaborate."""
    p = _Parser(text, filename, False)
    elab = _SourceElab(p)
    elab.term_consts = set(consts)
    e = p.expr()
    kind, rest, _ = p.toks[p.pos]
    if kind != "EOF":
        raise p.error(f"unexpected trailing input {rest!r}", p.pos)
    return elaborate(elab, e, [])


def parse_lfi(text: str, filename: str = "<input>") -> L.LfiSignature:
    p = _Parser(text, filename, True)
    elab = _TargetElab(p)
    sig = L.LfiSignature()
    while p.toks[p.pos][0] != "EOF":
        at = p.pos
        name = p.ident("a declaration name")
        p.expect(":")
        e = p.declared()
        if _is_kind_expr(e):
            sig.append(L.LfiDecl(name, elab.kind(e, []), p.span(at)))
        else:
            sig.append(L.LfiDecl(name, elab.type(e, []), p.span(at)))
        elab.consts.add(name)
    return sig
