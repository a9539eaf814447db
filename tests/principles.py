"""Identity and substitution principle instances, shared across tests.

Identity: a variable of sort S, eta-expanded at the underlying type,
checks back at S.  Substitution: replacing a hypothesis with a term of
its sort preserves every checking judgment to the right of it.
"""

from __future__ import annotations

from lfr import acheck, elaborate_sort
from lfr.lfr_check import SortError
from lfr.subst import eta_expand, hsubst_n, hsubst_syntax
from lfr.syntax import (
    App,
    Arrow,
    Base,
    ConstRef,
    CInter,
    CPi,
    CSort,
    CtxEntry,
    FVar,
    SApp,
    SConst,
    SInter,
    SortFam,
    SPi,
    STop,
    TApp,
    TConst,
    fresh_name,
)

from gen import gen_eta_term, gen_sort, numeral, rng_chooser
from oracles import open_at

# Internal subject name; "$" cannot appear in source identifiers.
_SUBJECT = "$id"


def _atom_instances(sig, fam: SortFam):
    """Fully applied atoms for a sort family, one per class branch."""

    def walk(cls, ctx, atom, rty):
        match cls:
            case CSort():
                return [(ctx, atom, rty)]
            case CInter(l, r):
                return (walk(l, ctx, atom, rty)
                        + walk(r, ctx, atom, rty))
            case CPi(h, ds, dt, cod):
                x = fresh_name(h if h not in ("", "_") else "x",
                               {e.name for e in ctx})
                arg = eta_expand(dt, FVar(x))
                ctx2 = ctx + [CtxEntry(x, ds, dt)]
                return walk(open_at(cod, FVar(x)), ctx2,
                            SApp(atom, arg), TApp(rty, arg))
        raise TypeError(f"not a class: {cls!r}")

    return walk(fam.cls, [], SConst(fam.name), TConst(fam.refines))


def identity_instances(sig):
    """(ctx, sort, refined type) triples covering every sort in sig."""
    out = []
    for d in sig:
        match d:
            case ConstRef(c, s):
                out.append(([], s, sig.term_const(c).type))
            case SortFam():
                out.extend(_atom_instances(sig, d))
            case _:
                pass
    return out


def check_identity(sig, ctx, sort, rty) -> None:
    """Assert ctx, x::S <= A |- eta_A(x) <= S."""
    subject = eta_expand(rty, FVar(_SUBJECT))
    acheck(sig, list(ctx) + [CtxEntry(_SUBJECT, sort, rty)], subject, sort)


# ---------------------------------------------------------------------------
# Substitution principle

NAT_T = TConst("nat")

# Closed nat terms paired with sorts they check at, under the nat goldens.
_SUBJECT_POOL = (
    (0, SConst("even")),
    (2, SConst("even")),
    (1, SConst("odd")),
    (3, SConst("odd")),
    (1, SConst("pos")),
    (2, SConst("pos")),
    (1, SInter(SConst("odd"), SConst("pos"))),
    (0, STop()),
)


def substitution_instances(sig, rng, count: int):
    """Run `count` randomized substitution-principle instances.

    Each instance: pick x0 :: S0 with a witness n0 <= S0, an extra
    hypothesis to its right, a term n over both, and a sort s with
    ctx |- n <= s; then substitute n0 for x0 everywhere and re-check.
    Returns the number of instances verified.
    """
    choose = rng_chooser(rng)
    done = 0
    attempts = 0
    while done < count:
        attempts += 1
        if attempts > count * 200:
            raise AssertionError("substitution instance generation starved")
        k0, s0 = _SUBJECT_POOL[choose(0, len(_SUBJECT_POOL) - 1)]
        n0 = numeral(k0)
        x0 = "x0"
        ctx_r = [CtxEntry("y", gen_sort(choose, Base("nat"), 1), NAT_T)]
        ctx = [CtxEntry(x0, s0, NAT_T)] + ctx_r
        alpha = Base("nat") if choose(0, 3) else Arrow(Base("nat"), Base("nat"))
        n = gen_eta_term(choose, [(x0, Base("nat")), ("y", Base("nat"))],
                         alpha, choose(1, 3))
        s = gen_sort(choose, alpha, 2)
        s = elaborate_quiet(sig, ctx, s, alpha)
        if s is None:
            continue
        try:
            acheck(sig, ctx, n, s)
        except SortError:
            continue
        # The premise triple holds; the substituted triple must re-check.
        ctx2 = hsubst_syntax(n0, x0, NAT_T, ctx_r)
        n2 = hsubst_n(n0, x0, NAT_T, n)
        s2 = hsubst_syntax(n0, x0, NAT_T, s)
        acheck(sig, ctx2, n2, s2)
        done += 1
    return done


def elaborate_quiet(sig, ctx, s, alpha):
    """Elaborate a generated sort against the type mirroring alpha."""
    from gen import simple_to_type

    try:
        return elaborate_sort(sig, ctx, s, simple_to_type(alpha))
    except SortError:
        return None


# ---------------------------------------------------------------------------
# The static sort error reproduced from the indexed example


def indexed_sort_error(double_sig):
    """Elaborating double* X (s (s (s z))) under X :: # must fail."""
    ctx = [CtxEntry("X", STop(), NAT_T)]
    three = numeral(3)
    q = SApp(SApp(SConst("double*"), FVar("X")), three)
    a = TApp(TApp(TConst("double"), FVar("X")), three)
    try:
        elaborate_sort(double_sig, ctx, q, a)
    except SortError as e:
        return e
    return None
