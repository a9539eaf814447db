"""Bidirectional checker for canonical-forms LF.

Terms are checked against types, atomic terms synthesize, and types are
checked against kinds.  Because the syntax only admits canonical forms,
definitional equality is alpha-equivalence and instantiation goes
through hereditary substitution.  A head is applied to its whole spine:
each argument is checked against its domain set to the arguments before
it, and the codomain is set to all of them in one walk.  The checkers
descend binders by index, keeping a stack of the binders passed, and name
them only to build a message; the sort checker shares that stack.

A failure is an LfError: its kind, its message, its span (the failing
declaration's, set by the signature checker) and, where the message
shows them, the expected and the actual classifier as printed.
"""

from __future__ import annotations

from typing import Optional

from .diagnostics import CheckError, SubstFailure
from .printer import pp_term, pp_type
from .subst import erase_type, inst_spine
from .subst import hsubst_syntax  # noqa: F401  (bound for bench/tracer.py)
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
    spine,
)

_KINDS = ("type mismatch", "unbound name", "non-atomic at atomic type",
          "ill-formed kind")


class LfError(CheckError):
    """An LF checking failure of one of the kinds in _KINDS."""

    def __init__(self, kind: str, message: str,
                 expected: Optional[str] = None,
                 actual: Optional[str] = None):
        if kind not in _KINDS:
            raise TypeError(f"unknown LF diagnostic kind {kind!r}")
        super().__init__(message)
        self.kind = kind
        self.expected = expected
        self.actual = actual


# `stack` holds an entry for each binder passed, innermost last, whose
# first two fields are its hint and its domain type (the sort checker's
# entries add the domain sort).  BVar(i) has the type of stack[-1 - i],
# shifted by i + 1; FVar names a hypothesis of the context.


def _pp_ty(a, ctx, stack) -> str:
    return pp_type(named(a, binder_names((n for n, _ in ctx), stack)))


def _pp_tm(t, ctx, stack) -> str:
    return pp_term(named(t, binder_names((n for n, _ in ctx), stack)))


def _inst(t, done, what: str, fuel):
    """t, under a binder for each (argument, erased domain) pair of done,
    outermost first, with those binders set to the arguments, in a walk
    that takes its steps from fuel."""
    try:
        return inst_spine(t, done, fuel)
    except SubstFailure as e:
        raise LfError("type mismatch",
                      f"substitution into {what} failed: {e}")


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
        case Const():
            decl = sig.term_const(r.name)
            if decl is None:
                raise LfError("unbound name", f"unbound constant {r.name}")
            return decl.type
        case FVar():
            ty = next((ty for x, ty in reversed(ctx) if x == r.name), None)
            if ty is None:
                raise LfError("unbound name", f"unbound variable {r.name}")
            return ty
        case BVar() if r.index < len(stack):
            return shift(stack[-1 - r.index][1], r.index + 1)
        case App():
            h, args = spine(r)
            ty, done = _synth(sig, ctx, stack, h), []
            for arg in args:
                if not isinstance(ty, TPi):
                    shown = _pp_ty(_inst(ty, done, "a function codomain",
                                         sig.fuel), ctx, stack)
                    raise LfError("type mismatch", f"applied term of "
                                  f"non-function type {shown}", actual=shown)
                _check(sig, ctx, stack, arg, _inst(
                    ty.dom, done, "a function codomain", sig.fuel))
                done.append((arg, erase_type(ty.dom)))
                ty = ty.cod
            return _inst(ty, done, "a function codomain", sig.fuel)
    raise TypeError(f"lf_synth_term: not atomic: {r!r}")


def _check(sig: Signature, ctx, stack, n, a) -> None:
    match n:
        case Lam():
            if not isinstance(a, TPi):
                raise LfError("non-atomic at atomic type",
                              f"function term checked against atomic type "
                              f"{_pp_ty(a, ctx, stack)}",
                              expected=_pp_ty(a, ctx, stack))
            _check(sig, ctx, stack + ((n.hint, a.dom),), n.body, a.cod)
        case _:
            if not is_atomic_term(n):
                raise TypeError(f"lf_check_term: not a normal term: {n!r}")
            if isinstance(a, TPi):
                a, n = _pp_ty(a, ctx, stack), _pp_tm(n, ctx, stack)
                raise LfError("type mismatch", f"atomic term {n} at function "
                              f"type {a}; terms must be eta-long",
                              expected=a, actual=n)
            syn = _synth(sig, ctx, stack, n)
            if not alpha_eq(syn, a):
                a, syn = _pp_ty(a, ctx, stack), _pp_ty(syn, ctx, stack)
                raise LfError("type mismatch", f"type mismatch: expected {a}, "
                              f"synthesized {syn}", expected=a, actual=syn)


def _check_type(sig: Signature, ctx, stack, a) -> None:
    match a:
        case TPi():
            _check_type(sig, ctx, stack, a.dom)
            _check_type(sig, ctx, stack + ((a.hint, a.dom),), a.cod)
        case TConst() | TApp():
            kind = _synth_spine_kind(sig, ctx, stack, a)
            if not isinstance(kind, KType):
                raise LfError("ill-formed kind", f"type family not fully "
                              f"applied: {_pp_ty(a, ctx, stack)}",
                              actual=_pp_ty(a, ctx, stack))
        case _:
            raise TypeError(f"lf_check_type: not a type: {a!r}")


def _synth_spine_kind(sig: Signature, ctx, stack, a):
    a, args = spine(a)
    if not isinstance(a, TConst):
        raise TypeError(f"_synth_spine_kind: type head is not a constant: {a!r}")
    decl = sig.type_fam(a.name)
    if decl is None:
        raise LfError("unbound name", f"unbound type family {a.name}")
    kind, done = decl.kind, []
    for arg in args:
        if not isinstance(kind, KPi):
            raise LfError("ill-formed kind", f"type family {a.name} "
                          f"applied to too many arguments")
        _check(sig, ctx, stack, arg, _inst(kind.dom, done, "a kind codomain",
                                           sig.fuel))
        done.append((arg, erase_type(kind.dom)))
        kind = kind.cod
    # A kind ends in `type`, which no substitution changes.
    return (kind if isinstance(kind, KType)
            else _inst(kind, done, "a kind codomain", sig.fuel))


def _check_kind(sig: Signature, ctx, stack, k) -> None:
    match k:
        case KType():
            pass
        case KPi():
            _check_type(sig, ctx, stack, k.dom)
            _check_kind(sig, ctx, stack + ((k.hint, k.dom),), k.cod)
        case _:
            raise TypeError(f"lf_check_kind: not a kind: {k!r}")


def lf_check_sig(sig: Signature) -> None:
    """Check a signature of type families and term constants only."""
    checked = Signature()
    for decl in sig:
        try:
            match decl:
                case TypeFam() | TermConst():
                    n = decl.name
                    if checked.type_fam(n) or checked.term_const(n):
                        raise CheckError(f"{n} is declared twice", decl.span)
                    if isinstance(decl, TypeFam):
                        lf_check_kind(checked, [], decl.kind)
                    else:
                        lf_check_type(checked, [], decl.type)
                case _:
                    raise CheckError(
                        "only type families and term constants belong in an "
                        "LF signature", decl.span)
        except LfError as e:
            if e.span is None:
                e.span = decl.span
            raise
        checked.append(decl)
