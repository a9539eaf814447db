"""Bidirectional checker for canonical-forms LF.

Terms are checked against types, atomic terms synthesize, and types are
checked against kinds.  Because the syntax only admits canonical forms,
definitional equality is alpha-equivalence and instantiation goes
through hereditary substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .diagnostics import CheckError, SourceSpan
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
    free_vars,
    fresh_name,
    is_atomic_term,
    open_at,
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


def _pp_ty(a) -> str:
    from .printer import pp_type
    return pp_type(a)


def _pp_tm(t) -> str:
    from .printer import pp_term
    return pp_term(t)


def _ctx_lookup(ctx: list[tuple[str, object]], name: str):
    for n, ty in reversed(ctx):
        if n == name:
            return ty
    return None


def _inst(body, arg, dom, what: str):
    """body, under one binder of type dom, with that binder set to arg."""
    try:
        return hsubst_syntax(arg, 0, dom, body)
    except MetricExhausted:
        raise
    except SubstFailure as e:
        _fail("type mismatch", f"substitution into {what} failed: {e}")


def lf_synth_term(sig: Signature, ctx: list[tuple[str, object]], r):
    match r:
        case Const(n):
            decl = sig.term_const(n)
            if decl is None:
                _fail("unbound name", f"unbound constant {n}")
            return decl.type
        case FVar(n):
            ty = _ctx_lookup(ctx, n)
            if ty is None:
                _fail("unbound name", f"unbound variable {n}")
            return ty
        case App(f, a):
            fty = lf_synth_term(sig, ctx, f)
            if not isinstance(fty, TPi):
                _fail("type mismatch",
                      f"applied term of non-function type {_pp_ty(fty)}",
                      actual=_pp_ty(fty))
            lf_check_term(sig, ctx, a, fty.dom)
            return _inst(fty.cod, a, fty.dom, "a function codomain")
        case BVar(i):
            raise TypeError(f"lf_synth_term: unopened bound variable {i}")
    raise TypeError(f"lf_synth_term: not atomic: {r!r}")


def lf_check_term(sig: Signature, ctx: list[tuple[str, object]], n, a) -> None:
    match n:
        case Lam(h, b):
            if not isinstance(a, TPi):
                _fail("non-atomic at atomic type",
                      f"function term checked against atomic type {_pp_ty(a)}",
                      expected=_pp_ty(a))
            x = fresh_name(h, {nm for nm, _ in ctx} | free_vars(b) | free_vars(a.cod))
            lf_check_term(sig, ctx + [(x, a.dom)],
                          open_at(b, FVar(x)), open_at(a.cod, FVar(x)))
        case _:
            if not is_atomic_term(n):
                raise TypeError(f"lf_check_term: not a normal term: {n!r}")
            if isinstance(a, TPi):
                _fail("type mismatch",
                      f"atomic term {_pp_tm(n)} at function type {_pp_ty(a)}; "
                      f"terms must be eta-long",
                      expected=_pp_ty(a), actual=_pp_tm(n))
            syn = lf_synth_term(sig, ctx, n)
            if not alpha_eq(syn, a):
                _fail("type mismatch",
                      f"type mismatch: expected {_pp_ty(a)}, "
                      f"synthesized {_pp_ty(syn)}",
                      expected=_pp_ty(a), actual=_pp_ty(syn))


def lf_check_type(sig: Signature, ctx: list[tuple[str, object]], a) -> None:
    match a:
        case TPi(h, d, c):
            lf_check_type(sig, ctx, d)
            x = fresh_name(h, {nm for nm, _ in ctx} | free_vars(c))
            lf_check_type(sig, ctx + [(x, d)], open_at(c, FVar(x)))
        case TConst() | TApp():
            kind = _synth_spine_kind(sig, ctx, a)
            if not isinstance(kind, KType):
                _fail("ill-formed kind",
                      f"type family not fully applied: {_pp_ty(a)}",
                      actual=_pp_ty(a))
        case _:
            raise TypeError(f"lf_check_type: not a type: {a!r}")


def _synth_spine_kind(sig: Signature, ctx, a):
    spine = []
    while isinstance(a, TApp):
        spine.append(a.arg)
        a = a.fn
    if not isinstance(a, TConst):
        raise TypeError(f"_synth_spine_kind: type head is not a constant: {a!r}")
    decl = sig.type_fam(a.name)
    if decl is None:
        _fail("unbound name", f"unbound type family {a.name}")
    kind = decl.kind
    for arg in reversed(spine):
        if not isinstance(kind, KPi):
            _fail("ill-formed kind",
                  f"type family {a.name} applied to too many arguments")
        lf_check_term(sig, ctx, arg, kind.dom)
        kind = _inst(kind.cod, arg, kind.dom, "a kind codomain")
    return kind


def lf_check_kind(sig: Signature, ctx: list[tuple[str, object]], k) -> None:
    match k:
        case KType():
            pass
        case KPi(h, d, c):
            lf_check_type(sig, ctx, d)
            x = fresh_name(h, {nm for nm, _ in ctx} | free_vars(c))
            lf_check_kind(sig, ctx + [(x, d)], open_at(c, FVar(x)))
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
