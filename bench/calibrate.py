"""Scaling wall times to a host of fixed speed.

The speed of a shared host drifts by tens of percent over seconds and
minutes with the load of other tenants, and CPU time drifts with it.  A
fixed loop that uses no `lfr` code is timed RUNS times before and after
every timed interval; the interval is multiplied by REFERENCE_S over the
loop's mean time, which gives seconds on a host where the loop takes
REFERENCE_S.  Nothing here imports `lfr`, so a change to the program
cannot move the loop.

The loop mixes the two kinds of work that tracked the workloads best
when tried on a shared 2-vCPU host: filling a large dict, which tracked
`wide` and `deep`, and building and matching a tree of frozen
dataclasses, which tracked `binders`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

RUNS = 5
REFERENCE_S = 0.020


@dataclass(frozen=True)
class _Node:
    tag: str
    left: object
    right: object


@dataclass(frozen=True)
class _Leaf:
    name: str


def _build(n: int, k: int):
    if n <= 1:
        return _Leaf(f"x{k & 15}")
    half = n // 2
    return _Node("app" if k & 1 else "lam", _build(half, k + 1),
                 _build(n - half - 1, k + 3))


def _walk(t, names: set) -> int:
    match t:
        case _Node(tag, left, right):
            return _walk(left, names) + _walk(right, names) + (tag == "lam")
        case _Leaf(name):
            names.add(name)
    return 0


def loop() -> int:
    d = {}
    for i in range(20000):
        d[(i, i & 7)] = str(i)
    names: set = set()
    return len(d) + _walk(_build(3000, 0), names) + len(names)


def loop_time() -> float:
    """Mean seconds of `loop` over RUNS runs."""
    total = 0.0
    for _ in range(RUNS):
        t0 = time.perf_counter()
        loop()
        total += time.perf_counter() - t0
    return total / RUNS


class Speedometer:
    """Times the loop at each interval boundary; see the module doc."""

    def __init__(self) -> None:
        self.last = loop_time()

    def factor(self) -> float:
        """Reference seconds per wall second over the interval that just
        ended, from the loop times at its two ends."""
        before, self.last = self.last, loop_time()
        return REFERENCE_S / ((before + self.last) / 2)
