"""Bidirectional checker for canonical-forms LF.

Terms are checked against types, atomic terms synthesize, and types are
checked against kinds.  Because the syntax only admits canonical forms,
definitional equality is alpha-equivalence and instantiation goes
through hereditary substitution.  The checkers descend binders by index,
keeping a stack of the binders passed, and name them only to build a
message; the sort checker shares that stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import CheckError, SourceSpan
from .printer import pp_term, pp_type
from .subst import MetricExhausted, SubstFailure, hsubst_syntax
from .syntax import (
    App,
    BVar,
    Const,
    FVar,
    KPi,
    KType,
    Lam,
    Signature,
    TApp,
    TConst,
    TermConst,
    TPi,
    TypeFam,
    alpha_eq,
    binder_names,
    is_atomic_term,
    named,
    shift,
    type_spine,
)

_KINDS = ("type mismatch", "unbound name", "non-atomic at atomic type",
          "ill-formed kind")


@dataclass
class LfDiagnostic:
    kind: str
    message: str
    expected: Optional[str] = None
    actual: Optional[str] = None
    span: Optional[SourceSpan] = field(default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise TypeError(f"unknown LF diagnostic kind {self.kind!r}")


class LfError(CheckError):
    """LF checking failure carrying a structured diagnostic."""

    def __init__(self, diag: LfDiagnostic):
        super().__init__(diag.message, diag.span)
        self.diag = diag


def _fail(kind: str, message: str, expected=None, actual=None):
    raise LfError(LfDiagnostic(kind, message, expected, actual))


# `stack` holds an entry for each binder passed, innermost last, whose
# first two fields are its hint and its domain type (the sort checker's
# entries add the domain sort).  BVar(i) has the type of stack[-1 - i],
# shifted by i + 1; FVar names a hypothesis of the context.


def _pp_ty(a, ctx, stack) -> str:
    return pp_type(named(a, binder_names((n for n, _ in ctx), stack)))


def _pp_tm(t, ctx, stack) -> str:
    return pp_term(named(t, binder_names((n for n, _ in ctx), stack)))


def _inst(body, arg, dom, what: str):
    """body, under one binder of type dom, with that binder set to arg."""
    try:
        return hsubst_syntax(arg, 0, dom, body)
    except MetricExhausted:
        raise
    except SubstFailure as e:
        _fail("type mismatch", f"substitution into {what} failed: {e}")


def lf_synth_term(sig: Signature, ctx: list[tuple[str, object]], r):
    return _synth(sig, ctx, (), r)


def lf_check_term(sig: Signature, ctx: list[tuple[str, object]], n, a) -> None:
    _check(sig, ctx, (), n, a)


def lf_check_type(sig: Signature, ctx: list[tuple[str, object]], a) -> None:
    _check_type(sig, ctx, (), a)


def lf_check_kind(sig: Signature, ctx: list[tuple[str, object]], k) -> None:
    _check_kind(sig, ctx, (), k)


def _synth(sig: Signature, ctx, stack, r):
    match r:
        case Const(n):
            decl = sig.term_const(n)
            if decl is None:
                _fail("unbound name", f"unbound constant {n}")
            return decl.type
        case FVar(n):
            ty = next((ty for x, ty in reversed(ctx) if x == n), None)
            if ty is None:
                _fail("unbound name", f"unbound variable {n}")
            return ty
        case BVar(i) if i < len(stack):
            return shift(stack[-1 - i][1], i + 1)
        case App(f, a):
            fty = _synth(sig, ctx, stack, f)
            if not isinstance(fty, TPi):
                _fail("type mismatch", f"applied term of non-function type "
                      f"{_pp_ty(fty, ctx, stack)}",
                      actual=_pp_ty(fty, ctx, stack))
            _check(sig, ctx, stack, a, fty.dom)
            return _inst(fty.cod, a, fty.dom, "a function codomain")
    raise TypeError(f"lf_synth_term: not atomic: {r!r}")


def _check(sig: Signature, ctx, stack, n, a) -> None:
    match n:
        case Lam(h, b):
            if not isinstance(a, TPi):
                _fail("non-atomic at atomic type", f"function term checked "
                      f"against atomic type {_pp_ty(a, ctx, stack)}",
                      expected=_pp_ty(a, ctx, stack))
            _check(sig, ctx, stack + ((h, a.dom),), b, a.cod)
        case _:
            if not is_atomic_term(n):
                raise TypeError(f"lf_check_term: not a normal term: {n!r}")
            if isinstance(a, TPi):
                a, n = _pp_ty(a, ctx, stack), _pp_tm(n, ctx, stack)
                _fail("type mismatch", f"atomic term {n} at function type "
                      f"{a}; terms must be eta-long", expected=a, actual=n)
            syn = _synth(sig, ctx, stack, n)
            if not alpha_eq(syn, a):
                a, syn = _pp_ty(a, ctx, stack), _pp_ty(syn, ctx, stack)
                _fail("type mismatch", f"type mismatch: expected {a}, "
                      f"synthesized {syn}", expected=a, actual=syn)


def _check_type(sig: Signature, ctx, stack, a) -> None:
    match a:
        case TPi(h, d, c):
            _check_type(sig, ctx, stack, d)
            _check_type(sig, ctx, stack + ((h, d),), c)
        case TConst() | TApp():
            kind = _synth_spine_kind(sig, ctx, stack, a)
            if not isinstance(kind, KType):
                _fail("ill-formed kind", f"type family not fully applied: "
                      f"{_pp_ty(a, ctx, stack)}", actual=_pp_ty(a, ctx, stack))
        case _:
            raise TypeError(f"lf_check_type: not a type: {a!r}")


def _synth_spine_kind(sig: Signature, ctx, stack, a):
    a, spine = type_spine(a)
    if not isinstance(a, TConst):
        raise TypeError(f"_synth_spine_kind: type head is not a constant: {a!r}")
    decl = sig.type_fam(a.name)
    if decl is None:
        _fail("unbound name", f"unbound type family {a.name}")
    kind = decl.kind
    for arg in spine:
        if not isinstance(kind, KPi):
            _fail("ill-formed kind",
                  f"type family {a.name} applied to too many arguments")
        _check(sig, ctx, stack, arg, kind.dom)
        kind = _inst(kind.cod, arg, kind.dom, "a kind codomain")
    return kind


def _check_kind(sig: Signature, ctx, stack, k) -> None:
    match k:
        case KType():
            pass
        case KPi(h, d, c):
            _check_type(sig, ctx, stack, d)
            _check_kind(sig, ctx, stack + ((h, d),), c)
        case _:
            raise TypeError(f"lf_check_kind: not a kind: {k!r}")


def lf_check_sig(sig: Signature) -> None:
    """Check a signature of type families and term constants only."""
    checked = Signature()
    for decl in sig:
        try:
            match decl:
                case TypeFam(n, k):
                    if checked.type_fam(n) or checked.term_const(n):
                        raise CheckError(f"{n} is declared twice", decl.span)
                    lf_check_kind(checked, [], k)
                case TermConst(n, a):
                    if checked.type_fam(n) or checked.term_const(n):
                        raise CheckError(f"{n} is declared twice", decl.span)
                    lf_check_type(checked, [], a)
                case _:
                    raise CheckError(
                        "only type families and term constants belong in an "
                        "LF signature", decl.span)
        except LfError as e:
            if e.span is None:
                e.span = decl.span
                e.diag.span = decl.span
            raise
        checked.append(decl)
