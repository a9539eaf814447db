"""Source locations, the error hierarchy, the base of every syntax node,
and what both substitutions share: their failures, the step budget of a
run and fresh binder names.  Every stage uses this module, and the
target checker uses no other, so that it shares no judgment with the
source side.

Exit-code conventions live in the CLI, but the split is decided here:
lexer and parser failures are LexError/ParseError, failures of the source
program are CheckError, and failures of generated output are VerifyError.
"""

from __future__ import annotations

import os
from operator import attrgetter
from typing import Callable, NamedTuple, Union

# A message, or a function of no arguments that builds it when it is first
# read, so that a failure a caller catches and drops costs no printing.
Message = Union[str, Callable[[], str]]


class SourceSpan(NamedTuple):
    """Region of a source file.  Lines and columns are 1-based; the end is
    exclusive, so `nat` at 1:1 ends at column 4."""

    file: str
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}"


class LfrError(Exception):
    """Base class for reportable failures."""

    severity = "error"

    def __init__(self, message: Message, span: SourceSpan | None = None):
        super().__init__()
        self._message = message
        self.span = span

    @property
    def message(self) -> str:
        if not isinstance(self._message, str):
            self._message = self._message()
        return self._message

    def __str__(self) -> str:
        return self.message

    def format(self) -> str:
        if self.span is not None:
            return f"{self.span}: {self.severity}: {self.message}"
        return f"{self.severity}: {self.message}"


class LexError(LfrError):
    """Input could not be tokenized."""


class ParseError(LfrError):
    """Token stream does not match the grammar."""


class CheckError(LfrError):
    """The source signature is ill-formed (LF or refinement layer)."""


class VerifyError(LfrError):
    """Generated output failed re-verification; indicates a translator bug."""


# ---------------------------------------------------------------------------
# What both substitutions (subst.py and lfi.py) share: their failures,
# the budget of a run and fresh names

Path = tuple[str, ...]


class SubstFailure(Exception):
    """No substitution rule applies; carries the failing position."""

    def __init__(self, reason: str, path: Path):
        super().__init__(f"{reason} at {'/'.join(path) or 'root'}")
        self.reason = reason
        self.path = path


class MetricExhausted(Exception):
    """The termination metric guard fired; indicates a bug, not bad input.

    Not a SubstFailure: a substitution that is undefined rejects the
    input, one that runs out of fuel stops the whole run.  span places
    it: the declaration being checked or re-checked when it fired, or
    the refinement whose proof was being re-derived.
    """

    def __init__(self, path: Path):
        super().__init__(f"metric exhausted at {'/'.join(path) or 'root'}")
        self.path = path
        self.span = None


DEFAULT_FUEL = 1_000_000


class _Fuel:
    """The steps the judgments on a signature may take, all together:
    LFR_FUEL, or DEFAULT_FUEL where it is unset, read once, when the
    budget is made.  This is the one reader of LFR_FUEL: a value int()
    refuses raises ValueError.

    A signature carries one (Signature.fuel, LfiSignature.fuel), and
    every judgment draws on the budget of the signature it judges
    against; check_signature sets it and trans_sig's output shares it.
    Each node a substitution walk visits, on either side, ticks once,
    and each call of the sort checker's _acheck takes one step by
    decrementing `left` itself."""

    def __init__(self) -> None:
        self.left = int(os.environ.get("LFR_FUEL", DEFAULT_FUEL))

    def tick(self, path: Path) -> None:
        self.left -= 1
        if self.left < 0:
            raise MetricExhausted(path)


def fresh_name(hint: str, avoid: set[str]) -> str:
    """hint, or x for no hint, primed until avoid does not hold it."""
    name = hint if hint else "x"
    while name in avoid:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# Syntax nodes

_set = object.__setattr__


def _init(names: tuple[str, ...]):
    """An __init__ that sets the fields names from as many arguments."""
    match names:
        case ():
            def __init__(self):
                pass
        case (a,):
            def __init__(self, v):
                _set(self, a, v)
        case (a, b):
            def __init__(self, v, w):
                _set(self, a, v)
                _set(self, b, w)
        case (a, b, c):
            def __init__(self, v, w, x):
                _set(self, a, v)
                _set(self, b, w)
                _set(self, c, x)
        case (a, b, c, d):
            def __init__(self, v, w, x, y):
                _set(self, a, v)
                _set(self, b, w)
                _set(self, c, x)
                _set(self, d, y)
        case (a, b, c, d, e):
            def __init__(self, v, w, x, y, z):
                _set(self, a, v)
                _set(self, b, w)
                _set(self, c, x)
                _set(self, d, y)
                _set(self, e, z)
    return __init__


def _compare(key, width: int):
    """__eq__ and __hash__ over the tuple of the width fields that key
    reads; one field is read as a 1-tuple, so that the comparison stops
    at `is`."""
    if width == 1:
        def __eq__(self, other):
            if self.__class__ is other.__class__:
                a, b = key(self), key(other)
                return a is b or a == b
            return NotImplemented
        return __eq__, lambda self: hash((key(self),))

    def __eq__(self, other):
        if self.__class__ is other.__class__:
            return key(self) == key(other)
        return NotImplemented
    return __eq__, lambda self: hash(key(self))


class Node:
    """An immutable record.  A subclass's fields are its own annotations,
    in order: its constructor's positional parameters and __match_args__;
    a class-level value is a field's default.  Equality needs the same
    class and compares one tuple of the fields other than `hint` and
    `span`, so that it is alpha-equivalence under de Bruijn indices and
    stops at a subterm both sides share; the hash is that tuple's."""

    __match_args__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = tuple(vars(cls).get("__annotations__", ()))
        cls.__match_args__ = names
        cls.__init__ = _init(names)
        cls.__init__.__defaults__ = tuple(
            vars(cls)[n] for n in names if n in vars(cls)) or None
        compared = [n for n in names if n not in ("hint", "span")]
        cls.__eq__, cls.__hash__ = _compare(
            attrgetter(*compared) if compared else lambda _: (), len(compared))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}"
                           for n in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"
