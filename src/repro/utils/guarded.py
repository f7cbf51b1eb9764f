"""Boxed shared state: a mutable record reachable only under its lock.

A class whose instances several threads touch keeps everything it
mutates after construction in one state record, and keeps that record
in a :class:`Guarded` box::

    with self._state as state:      # the region: the lock is held
        state.count += 1
        self._state.notify_all()    # wake a holder parked in wait()

Outside a ``with`` the record cannot be reached, so an unguarded read
or write of shared state is not something a method can write. A
region stays a leaf: it touches its record and calls ``wait`` or
``notify_all`` on its own box. It enters no other box, calls no other
project code, makes no blocking call, and lets neither the record nor
one of its containers escape. ``repro check`` rule RPR011 enforces
this, so lock-order cycles and blocking under a lock cannot arise.

The lock is a plain, non-reentrant :class:`threading.Lock`, so a
region that re-enters its own box deadlocks at once instead of hiding
a nested region. This module is the only place in the package that
builds a lock or a condition.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

T = TypeVar("T")


class Guarded(Generic[T]):
    """A state record of type ``T`` and the condition that guards it."""

    __slots__ = ("_state", "_cond")

    def __init__(self, state: T) -> None:
        self._state = state
        self._cond = threading.Condition(threading.Lock())

    def __enter__(self) -> T:
        self._cond.acquire()
        return self._state

    def __exit__(self, *exc_info: object) -> None:
        self._cond.release()

    def wait(self, timeout: "float | None" = None) -> bool:
        """Release the lock until notified or ``timeout`` passes, then
        take it back; ``False`` on timeout. Call it only in a region
        of this box, and re-check the state afterwards."""
        return self._cond.wait(timeout)

    def notify_all(self) -> None:
        """Wake every holder parked in :meth:`wait`. Call it only in a
        region of this box."""
        self._cond.notify_all()
