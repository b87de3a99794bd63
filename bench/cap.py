"""The per-op cap: a call that runs longer than its cap is cut off with
:class:`Timeout` by a real-time interval timer."""

from __future__ import annotations

import signal


class Timeout(BaseException):
    """Raised inside a capped call at its cap.  A ``BaseException``, so
    that no ``except Exception`` in the program under test swallows it."""


def _alarm(signum, frame):
    raise Timeout()


def capped(fn, cap: float):
    """``fn()``, or :class:`Timeout` once it has run ``cap`` seconds."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
