"""The contract of `lfr.diagnostics.Node`, the base of every syntax node
and record: positional fields, immutability, equality that ignores binder
hints and spans, and the repr that messages embed."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

import lfr.cli  # noqa: F401  (defines RunReport)
from lfr.diagnostics import Node
from lfr.lfi import IApp, IConst, IFst, ITApp, ITConst, LfiCtxEntry
from lfr.syntax import (
    Const,
    KPi,
    KType,
    TApp,
    TConst,
    TermConst,
    TypeFam,
)

UNCOMPARED = ("hint", "span")


# Every node class of the package; importing lfr.cli imports them all.
NODES = sorted((c for c in Node.__subclasses__()
                if c.__module__.startswith("lfr.")),
               key=lambda c: (c.__module__, c.__name__))
_ids = (f"v{i}" for i in itertools.count())


class Value:
    """A field value that is only equal to itself, and fails the test if
    it is ever compared: equal nodes holding it must stop at `is`."""

    def __init__(self):
        self.name = next(_ids)

    def __eq__(self, other):
        raise AssertionError(f"{self.name} was compared")

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.name


def _sample(cls, value=object):
    """An instance of cls with a fresh value in each field, and the
    values; an object is equal to itself only."""
    values = [value() for _ in cls.__match_args__]
    return cls(*values), values


def test_every_node_class_is_found():
    per_module = {m: len(list(cs)) for m, cs in itertools.groupby(
        NODES, key=lambda c: c.__module__)}
    assert per_module == {"lfr.cli": 1, "lfr.lfi": 24, "lfr.subsort": 1,
                          "lfr.syntax": 27, "lfr.translate": 1}


@pytest.mark.parametrize("cls", NODES, ids=lambda c: c.__name__)
class TestEveryNode:
    def test_fields_are_the_annotations_in_order(self, cls):
        assert cls.__match_args__ == tuple(cls.__annotations__)
        node, values = _sample(cls)
        assert [getattr(node, n) for n in cls.__match_args__] == values

    def test_equal_to_a_copy_without_comparing_shared_fields(self, cls):
        node, values = _sample(cls, Value)
        copy = cls(*values)
        assert node == copy and not node != copy
        assert hash(node) == hash(copy)

    def test_equality_ignores_exactly_hint_and_span(self, cls):
        node, values = _sample(cls)
        for i, name in enumerate(cls.__match_args__):
            other = cls(*values[:i], object(), *values[i + 1:])
            assert (node == other) == (name in UNCOMPARED), name

    def test_hash_is_the_hash_of_the_compared_tuple(self, cls):
        node, values = _sample(cls)
        compared = tuple(v for n, v in zip(cls.__match_args__, values)
                         if n not in UNCOMPARED)
        assert hash(node) == hash(compared)

    def test_equality_depends_on_the_class(self, cls):
        node, values = _sample(cls, Value)
        for other in NODES:
            if other is not cls and len(other.__match_args__) == len(values):
                assert node != other(*values), other
        assert node != values and node != tuple(values)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        node, values = _sample(cls)
        for name in (*cls.__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, object())
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert [getattr(node, n) for n in cls.__match_args__] == values

    def test_repr_is_the_dataclass_repr(self, cls):
        # Kernel messages embed it, for instance `not a type: {a!r}`.
        twin = dataclasses.make_dataclass(cls.__name__, cls.__match_args__)
        node, values = _sample(cls)
        assert repr(node) == repr(twin(*values))

    def test_matched_positionally(self, cls):
        node, values = _sample(cls)
        if not values:
            match node:
                case cls():
                    return
        match node:
            case cls(first):
                assert first is values[0]
                return
        pytest.fail("no match")


def test_arity_is_checked():
    with pytest.raises(TypeError):
        Const()
    with pytest.raises(TypeError):
        Const("a", "b")


def test_defaults():
    assert TypeFam("a", KType()).span is None
    assert LfiCtxEntry("x", ITConst("nat")).relevant is True
    assert LfiCtxEntry("x", ITConst("nat"), False).relevant is False


def test_equality_across_classes_with_equal_fields():
    f, a = IConst("f"), IConst("a")
    assert IConst("s") != Const("s")
    assert IApp(f, a) != ITApp(f, a)
    assert TApp(TConst("p"), Const("z")) != ITApp(ITConst("p"), IConst("z"))


def test_single_field_hash_is_a_one_tuple():
    assert hash(IConst("s")) == hash(("s",))
    assert hash(KType()) == hash(())
    base = Value()
    assert IFst(base) == IFst(base)


def test_binder_hints_and_spans_are_not_compared():
    k1 = KPi("x", TConst("nat"), KType())
    k2 = KPi("y", TConst("nat"), KType())
    assert k1 == k2 and hash(k1) == hash(k2)
    assert TypeFam("a", k1) == TypeFam("a", k2, object())
    assert TermConst("z", TConst("nat")) != TermConst("z", TConst("bool"))


def test_sample_repr():
    k = TypeFam("a", KPi("x", TConst("nat"), KType()))
    assert repr(k) == ("TypeFam(name='a', kind=KPi(hint='x', "
                       "dom=TConst(name='nat'), cod=KType()), span=None)")
