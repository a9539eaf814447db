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


@pytest.fixture(scope="session")
def dep_sig():
    return check_signature(parse_signature(DEP_TEXT))
