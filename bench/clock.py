"""Timings scaled to a reference speed of the CPU.

The same pure-Python work runs at speeds that wander by up to 2x, over
seconds and over minutes, on the shared 2-core x86 VM this benchmark was
tuned on; CPU time wanders with wall time, so it is the core's speed, not
the scheduler.  Raw timings of two runs minutes apart then differ by more
than any bound worth setting.  A :class:`Clock` times a fixed piece of
reference work before a timing, at most every ``EVERY_S`` seconds, and
scales the timings taken after it by ``(REFERENCE_S / r) ** ALPHA``, where
``r`` is the median of the last ``WINDOW`` reference times: they read as
seconds at the speed at which the reference work takes ``REFERENCE_S``,
about this VM's usual speed.  The reference work uses no ``dlq`` code and
runs with the garbage collector off, so a change to ``dlq`` does not move
it.

``ALPHA`` is below 1 because the reference work feels the VM's speed more
than ``dlq`` does.  Between its slow and fast states (minutes each) the
reference time fell 1.85x on abox-answer runs and 2.0x on tbox-typing
runs, while their op time fell 1.5x and 1.75x: ``dlq``'s op time moved
with the reference time to the power 0.63 and 0.82.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.0037   # the reference work's usual time on the VM above
EVERY_S = 0.2          # least time between two reference timings
WINDOW = 5             # reference timings a scale factor is the median of
ALPHA = 0.7            # op time ~ reference time ** ALPHA, as measured above


class _Node:
    __slots__ = ("key", "label")

    def __init__(self, key: int, label: str) -> None:
        self.key, self.label = key, label


def _reference() -> int:
    """Fixed work shaped like a tableau's: small objects, dicts, sets, copies."""
    by_label: dict[str, _Node] = {}
    edges: set[tuple[int, int]] = set()
    acc = 0
    for i in range(3000):
        node = _Node(i, str(i))
        by_label[node.label] = node
        edges.add((i % 97, node.key))
        acc += len(by_label) if i % 3 else hash(node.label) & 7
    return acc + len(dict(by_label)) + len(frozenset(edges))


class Clock:
    def __init__(self) -> None:
        self.factor = 1.0
        self.factors: list[float] = []
        self._recent: list[float] = []
        self._due = 0.0

    def calibrate(self, force: bool = False) -> None:
        """Time the reference work (best of two), unless the last timing
        is younger than ``EVERY_S``, and update the scale factor."""
        if not force and time.perf_counter() < self._due:
            return
        best = float("inf")
        gc.disable()
        try:
            for _ in range(2):
                t0 = time.perf_counter()
                _reference()
                best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
        self._recent = self._recent[1 - WINDOW:] + [best]
        self.factor = (REFERENCE_S / statistics.median(self._recent)) ** ALPHA
        self.factors.append(self.factor)
        self._due = time.perf_counter() + EVERY_S

    def describe(self) -> str:
        f = self.factors
        return (f"{len(f)} calibrations, scale factor median {statistics.median(f):.3f} "
                f"(min {min(f):.3f}, max {max(f):.3f})")
