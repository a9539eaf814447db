"""Shared fixtures: parsed and checked golden signatures, translations."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from lfr import check_signature, parse_signature, trans_sig

settings.register_profile(
    "lfr",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("lfr")

GOLDEN_DIR = Path(__file__).parent / "golden"

# Signatures that must check; bad-* files are rejection fixtures.
GOLDEN_NAMES = ("nat", "even-odd", "double", "coerce", "cbv", "coherence")


def checkout_env() -> dict[str, str]:
    """The caller's environment with this checkout's `src` first on the path,
    so a subprocess imports the `lfr` of this tree and no other."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.lfr"


@pytest.fixture(scope="session")
def golden_texts() -> dict[str, str]:
    return {name: golden_path(name).read_text() for name in GOLDEN_NAMES}


@pytest.fixture(scope="session")
def parsed_goldens(golden_texts):
    return {name: parse_signature(text, filename=f"{name}.lfr")
            for name, text in golden_texts.items()}


@pytest.fixture(scope="session")
def checked_goldens(parsed_goldens):
    return {name: check_signature(sig) for name, sig in parsed_goldens.items()}


@pytest.fixture(scope="session")
def translated_goldens(checked_goldens):
    return {name: trans_sig(sig) for name, sig in checked_goldens.items()}


@pytest.fixture(scope="session")
def nat_sig(checked_goldens):
    return checked_goldens["nat"]


@pytest.fixture(scope="session")
def even_odd_sig(checked_goldens):
    return checked_goldens["even-odd"]


@pytest.fixture(scope="session")
def double_sig(checked_goldens):
    return checked_goldens["double"]


@pytest.fixture(scope="session")
def coerce_sig(checked_goldens):
    return checked_goldens["coerce"]


@pytest.fixture(scope="session")
def cbv_sig(checked_goldens):
    return checked_goldens["cbv"]


@pytest.fixture(scope="session")
def coherence_sig(checked_goldens):
    return checked_goldens["coherence"]


# Families indexed by terms, so that diagnostics under binders print the
# binders' names: pe and qe refine p and q, k is refined at a dependent
# sort, and g takes a proof-like argument of the dependent type p x.
DEP_TEXT = (
    "nat : type. z : nat. s : nat -> nat.\n"
    "even << nat. odd << nat. pos << nat. odd <: pos.\n"
    "z :: even. s :: even -> odd ^ odd -> even ^ # -> pos.\n"
    "p : nat -> type. q : nat -> nat -> type.\n"
    "r : {x : nat} p x -> type.\n"
    "k : {x : nat} p x. g : {x : nat} p x -> nat.\n"
    "pe << p :: even -> sort. qe << q :: even -> even -> sort.\n"
    "k :: {x :: even} pe x.\n")


# dbl/z's formation needs z, refined at a, at c (at d): a subsort path
# that a declaration after dbl/z's refinement shortens (or ties earlier).
# The coercion must take the path the checker found at dbl/z, whose edges
# are all declared before it, and so must the formations of the sorts a
# coercion converts between.
LATER_EDGE_TEXTS = {
    "shorter": (
        "nat : type. z : nat. a << nat. b << nat. c << nat. z :: a.\n"
        "a <: b. b <: c.\n"
        "double : nat -> nat -> type. dbl/z : double z z.\n"
        "double* << double :: # -> c -> sort. dbl/z :: double* z z.\n"
        "a <: c.\n"),
    "tie": (
        "nat : type. z : nat. a << nat. b << nat. c << nat. d << nat.\n"
        "z :: a. a <: c. a <: b. b <: d.\n"
        "double : nat -> nat -> type. dbl/z : double z z.\n"
        "double* << double :: # -> d -> sort. dbl/z :: double* z z.\n"
        "c <: d.\n"),
    # A coercion from p1 z to p2 z serves w's refinement; the formations
    # of p1 z and p2 z check z at c, which a <: c, declared after w's
    # refinement, would reach in one step.
    "formation": (
        "nat : type. z : nat. a << nat. b << nat. c << nat. z :: a.\n"
        "a <: b. b <: c.\n"
        "foo : nat -> type. p1 << foo :: c -> sort. p2 << foo :: c -> sort.\n"
        "p1 <: p2. k : foo z. k :: p1 z. m : foo z -> nat. m :: p2 z -> a.\n"
        "q : nat -> type. qq << q :: a -> sort.\n"
        "w : q (m k). w :: qq (m k).\n"
        "a <: c.\n"),
}


# c's second argument has a domain sort, pe x -> even with its domain
# type p x, that takes more substitution steps to set to c's first
# argument than the domain type p x -> nat the LF checker sets: so at
# some budgets the first walk to run out is the sort checker's, at k's
# refinement.  d's codomain sort qe x is set to d's argument by the sort
# checker alone when asynth is called directly.
FUEL_TEXT = (
    "nat : type. z : nat. s : nat -> nat.\n"
    "even << nat. odd << nat. z :: even. s :: even -> odd ^ odd -> even.\n"
    "p : nat -> type. pe << p :: even -> sort.\n"
    "c : {x : nat} (p x -> nat) -> nat.\n"
    "c :: {x :: even} (pe x -> even) -> even.\n"
    "q : nat -> type. qe << q :: even -> sort.\n"
    "d : {x : nat} q x. d :: {x :: even} qe x.\n"
    "r : nat -> type. re << r :: even -> sort.\n"
    "k : r (c z ([y] z)). k :: re (c z ([y] z)).\n")


@pytest.fixture(scope="session")
def dep_sig():
    return check_signature(parse_signature(DEP_TEXT))
