"""Concrete syntax for signatures in both the source and target languages.

The lexer has two modes: in source mode `^` is the intersection symbol,
while in target mode it is an ordinary identifier character (mangled
names like even^ live there).  One expression grammar serves both; each
mode elaborates what it reads into its own AST.

Binders take maximal scope, arrows are right-associative, `^` binds
looser than arrows, `*` sits between arrows and declared infix
operators, and application binds tightest except for the postfix
projections `.1` and `.2`.

The scanner fills two flat lists, the tokens' texts and their offsets,
so that no tuple is built per token.  A token's kind is its first
character's: a letter starts an identifier, a digit a number, and any
other character a symbol; the empty text is the end of the input.  A
table of line starts turns an offset into a SourceSpan where one is
needed: in an error, and once per declaration.

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
    """Whitespace and `%` comments, each to the end of its line, then one
    token, as two groups: the skipped text and the token.  The token's
    last alternative matches the empty string where no token starts: at
    the end of the input, or at a character that starts no token.  In
    target mode `^` is an identifier character instead of a symbol.  Both
    loops are unrolled, a run of one class then a starred rarer case,
    because a star over an alternation tries each alternative at every
    character."""
    syms = [s for s in _SYMBOLS if not (target_mode and s == "^")]
    name = _NAME_CHARS + ("^" if target_mode else "")
    return re.compile(
        r"([ \t\r\n]*(?:%(?!infix)[^\r\n]*[ \t\r\n]*)*)"
        rf"([A-Za-z][{name}]*(?:-(?=[{_NAME_CHARS}-])[{name}]*)*"
        rf"|%infix|\.[12](?![{_NAME_CHARS}-])|"
        + "|".join(map(re.escape, syms)) + r"|[0-9]+|)")


_SCANNERS = (_scanner(False), _scanner(True))
_LINE_END, _LF = re.compile(r"\r\n?|\n"), re.compile("\n")


class SourceLines:
    """Where the lines of one text start, to place an offset in it.  A
    line ends at `\\r\\n`, `\\r` or `\\n`, as Python's universal newlines
    end one; a tab is one column."""

    def __init__(self, text: str, filename: str):
        self.filename = filename
        # A search for one literal character is several times faster than
        # one for three line ends, and most texts end lines with `\n`.
        ends = _LINE_END if "\r" in text else _LF
        self.starts = [0, *(m.end() for m in ends.finditer(text))]

    def span(self, offset: int, length: int = 0) -> SourceSpan:
        """The span of the length characters at offset, on one line."""
        line = bisect_right(self.starts, offset)
        col = offset - self.starts[line - 1] + 1
        # tuple.__new__ builds the span without SourceSpan's Python-level
        # constructor, which is most of the cost of one.
        return tuple.__new__(SourceSpan,
                             (self.filename, line, col, line, col + length))


def tokenize(text: str, filename: str,
             target_mode: bool) -> tuple[list[str], list[int]]:
    """The texts and the offsets of the tokens of text, ending with the
    empty text of the end of the input."""
    texts, offsets = [], []
    add_text, add_offset = texts.append, offsets.append
    pos = 0
    # The matches are contiguous up to the first one that has no token,
    # which is the end of the input or a lexing error.
    for skip, tok in _SCANNERS[target_mode].findall(text):
        pos += len(skip)
        add_text(tok)
        add_offset(pos)
        if not tok:
            if pos < len(text):
                raise LexError(f"unexpected character {text[pos]!r}",
                               SourceLines(text, filename).span(pos))
            break
        pos += len(tok)
    return texts, offsets


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
    match e[0]:
        case "ident":
            return e[1] in ("type", "sort")
        case "->" | "-:>":
            return _is_kind_expr(e[2])
        case "pi":
            return _is_kind_expr(e[4])
        case "*" | "^":
            return _is_kind_expr(e[1]) or _is_kind_expr(e[2])
    return False


# ---------------------------------------------------------------------------
# The grammar

_ARROWS = frozenset(("->", "-:>", "<-"))
_ARG_SYMS = frozenset(("#", "(", "<", "<>"))   # they start an argument
_PI, _LAM, _INTER, _CHAIN = range(4)   # what waits for the rest


class _Parser:
    def __init__(self, text: str, filename: str, target_mode: bool):
        self.texts, self.offsets = tokenize(text, filename, target_mode)
        self.lines = SourceLines(text, filename)
        self.pos = 0
        self.infix: dict[str, int] = {}

    def span(self, i: int) -> SourceSpan:
        return self.lines.span(self.offsets[i], len(self.texts[i]))

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, self.span(i))

    def expect(self, text: str) -> None:
        found = self.texts[self.pos]
        if found != text:
            raise self.error(
                f"expected {text!r}, found {found or 'end of input'!r}",
                self.pos)
        self.pos += 1

    def ident(self, what: str) -> str:
        text = self.texts[self.pos]
        if not text[:1].isalpha():
            raise self.error(
                f"expected {what}, found {text or 'end of input'!r}",
                self.pos)
        self.pos += 1
        return text

    def numeral(self, i: int) -> int:
        """The value of NUM token i; one int() refuses is a located error."""
        text = self.texts[i]
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
        texts = self.texts
        waiting = []   # binders, `^` and arrow chains, innermost last
        while True:
            text = texts[self.pos]
            if text == "{":
                at = self.pos
                self.pos += 1
                name = self.ident("a binder name")
                colon = texts[self.pos]
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
            op = texts[self.pos]
            if op in _ARROWS:
                items, ops = [value], []
                while True:
                    ops.append(op)
                    self.pos += 1
                    if texts[self.pos] in ("{", "["):
                        break
                    items.append(self.operand())
                    op = texts[self.pos]
                    if op not in _ARROWS:
                        break
                if op in _ARROWS:
                    # A binder or an abstraction ends the chain: the rest
                    # of the expression is its last operand.
                    waiting.append((_CHAIN, items, ops))
                    continue
                value = self.chain(items, ops)
            if texts[self.pos] != "^":
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
        texts, infix = self.texts, self.infix
        factors = []
        while True:
            args = ops = None   # infix operands; (precedence, at)
            while True:
                # An application: a head, its projections, and arguments.
                value = None
                while True:
                    i = self.pos
                    text = texts[i]
                    first = text[:1]
                    if value is not None:
                        if text == "[[":
                            self.pos = i + 1
                            arg = self.expr()
                            self.expect("]]")
                            value = ("irrapp", value, arg)
                            continue
                        if not (first.isalpha() and text not in infix
                                or first.isdigit() or text in _ARG_SYMS):
                            break
                    self.pos = i + 1
                    if first.isalpha():
                        a = ("ident", text, i)
                    elif first.isdigit():
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
                    while texts[self.pos] in (".1", ".2"):
                        a = ("proj", a, int(texts[self.pos][1]))
                        self.pos += 1
                    value = a if value is None else ("app", value, a)
                text = texts[self.pos]
                if text not in infix:
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
            if texts[self.pos] != "*":
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
        op = ("ident", self.texts[at], at)
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
        match e[0]:
            case "ident":
                n = e[1]
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
            case "app":
                fn = self.term(e[1], scope)
                if isinstance(fn, Lam):
                    raise self.fail(
                        "application of a function expression is not a "
                        "canonical form", e)
                return App(fn, self.term(e[2], scope))
            case "lam":
                _, x, b, _ = e
                return Lam(x, self.term(b, scope + [x]))
        raise self.fail("expected a term", e)

    def type(self, e, scope: list):
        match e[0]:
            case "ident":
                return TConst(e[1])
            case "app":
                fn = self.type(e[1], scope)
                if not isinstance(fn, (TConst, TApp)):
                    raise self.fail("expected an atomic type", e)
                return TApp(fn, self.term(e[2], scope))
            case "->":
                return TPi("x", self.type(e[1], scope),
                           self.type(e[2], scope + [None]))
            case "pi":
                _, x, colon, d, b, _ = e
                if colon == "::":
                    raise self.fail("type binders use ':', not '::'", e)
                return TPi(x, self.type(d, scope), self.type(b, scope + [x]))
        raise self.fail("expected a type", e)

    def kind(self, e, scope: list):
        match e[0]:
            case "ident" if e[1] == "type":
                return KType()
            case "->":
                return KPi("x", self.type(e[1], scope),
                           self.kind(e[2], scope + [None]))
            case "pi" if e[2] == ":":
                _, x, _, d, b, _ = e
                return KPi(x, self.type(d, scope), self.kind(b, scope + [x]))
        raise self.fail("expected a kind", e)

    def sort(self, e, scope: list):
        match e[0]:
            case "ident":
                return SConst(e[1])
            case "top":
                return STop()
            case "app":
                fn = self.sort(e[1], scope)
                if not isinstance(fn, (SConst, SApp)):
                    raise self.fail("expected an atomic sort", e)
                return SApp(fn, self.term(e[2], scope))
            case "^":
                return SInter(self.sort(e[1], scope), self.sort(e[2], scope))
            case "->":
                return SPi("x", self.sort(e[1], scope), None,
                           self.sort(e[2], scope + [None]))
            case "pi":
                _, x, colon, d, b, _ = e
                if colon == ":":
                    raise self.fail("sort binders use '::', not ':'", e)
                return SPi(x, self.sort(d, scope), None,
                           self.sort(b, scope + [x]))
        raise self.fail("expected a sort", e)

    def cls(self, e, scope: list):
        match e[0]:
            case "ident" if e[1] == "sort":
                return CSort()
            case "top":
                return CTop()
            case "^":
                return CInter(self.cls(e[1], scope), self.cls(e[2], scope))
            case "->":
                return CPi("x", self.sort(e[1], scope), None,
                           self.cls(e[2], scope + [None]))
            case "pi":
                _, x, colon, d, b, _ = e
                if colon == ":":
                    raise self.fail("class binders use '::', not ':'", e)
                return CPi(x, self.sort(d, scope), None,
                           self.cls(b, scope + [x]))
        raise self.fail("expected a class", e)


# ---------------------------------------------------------------------------
# Elaboration into the target AST


class _TargetElab(_Elab):
    def __init__(self, p: _Parser):
        super().__init__(p)
        self.consts: set[str] = set()

    def term(self, e, scope: list):
        match e[0]:
            case "ident":
                n = e[1]
                if n in scope:
                    return L.IBVar(scope[::-1].index(n))
                if n in self.consts:
                    return L.IConst(n)
                return L.IFVar(n)
            case "app":
                fn = self.term(e[1], scope)
                if not L.is_lfi_atomic(fn):
                    raise self.fail("application of a non-atomic term", e)
                return L.IApp(fn, self.term(e[2], scope))
            case "proj":
                base = self.term(e[1], scope)
                if not L.is_lfi_atomic(base):
                    raise self.fail("projection from a non-atomic term", e)
                return (L.IFst if e[2] == 1 else L.ISnd)(base)
            case "lam":
                _, x, b, _ = e
                return L.ILam(x, self.term(b, scope + [x]))
            case "pair":
                return L.IPair(self.term(e[1], scope), self.term(e[2], scope))
            case "unit":
                return L.IUnit()
            case "irrapp":
                raise self.fail("only a type family takes an argument "
                                "irrelevantly", e)
        raise self.fail("expected a term", e)

    def type(self, e, scope: list):
        match e[0]:
            case "ident":
                return L.ITConst(e[1])
            case "num" if e[1] == 1:
                return L.ITUnitT()
            case "app" | "irrapp" as tag:
                fn = self.type(e[1], scope)
                if not isinstance(fn, (L.ITConst, L.ITApp, L.ITIrrApp)):
                    raise self.fail("expected an atomic type", e)
                return (L.ITApp if tag == "app" else L.ITIrrApp)(
                    fn, self.term(e[2], scope))
            case "->":
                return L.ITPi("x", self.type(e[1], scope),
                              self.type(e[2], scope + [None]))
            case "pi" if e[2] == ":":
                _, x, _, d, b, _ = e
                return L.ITPi(x, self.type(d, scope),
                              self.type(b, scope + [x]))
            case "*":
                return L.ITProd(self.type(e[1], scope), self.type(e[2], scope))
            case "-:>" | "pi":
                raise self.fail("only a kind takes an argument irrelevantly", e)
        raise self.fail("expected a type", e)

    def kind(self, e, scope: list):
        match e[0]:
            case "ident" if e[1] == "type":
                return L.IKType()
            case "->" | "-:>" as tag:
                return (L.IKPi if tag == "->" else L.IKIrrPi)(
                    "x", self.type(e[1], scope), self.kind(e[2], scope + [None]))
            case "pi":
                _, x, colon, d, b, _ = e
                return (L.IKPi if colon == ":" else L.IKIrrPi)(
                    x, self.type(d, scope), self.kind(b, scope + [x]))
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
    texts = p.texts
    sig = Signature()
    while texts[p.pos]:
        if texts[p.pos] == "%infix":
            p.pos += 1
            if p.ident("an associativity") != "right":
                raise p.error("only right-associative infix is supported",
                              p.pos - 1)
            prec = p.pos
            if not texts[prec].isdigit():
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
        sep = texts[p.pos]
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
            if texts[p.pos] == "::":
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
    rest = p.texts[p.pos]
    if rest:
        raise p.error(f"unexpected trailing input {rest!r}", p.pos)
    return elaborate(elab, e, [])


def parse_lfi(text: str, filename: str = "<input>") -> L.LfiSignature:
    p = _Parser(text, filename, True)
    elab = _TargetElab(p)
    sig = L.LfiSignature()
    while p.texts[p.pos]:
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
