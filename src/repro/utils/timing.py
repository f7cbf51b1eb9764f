"""Small timing helpers used by the bench harness and planners."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.utils.errors import ValidationError


@dataclass
class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     _ = sum(range(10))
    >>> t.elapsed >= 0.0
    True

    :meth:`__exit__` requires the timer to have been started via
    ``with`` (or an explicit :meth:`__enter__`); exiting an unstarted
    timer raises :class:`ValidationError` instead of silently recording
    seconds-since-the-perf-counter-epoch.
    """

    elapsed: float = 0.0
    _start: "float | None" = field(default=None, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._start is None:
            raise ValidationError(
                "Timer was never started: enter it first ('with Timer() as t')"
            )
        self.elapsed = time.perf_counter() - self._start


def wall_clock() -> float:
    """The wall-clock time, for *display provenance only*.

    This is ``time.time()`` behind a name that marks intent: the caller
    wants a human-meaningful timestamp to show or serialize (registry
    ``last_seen``, report provenance), never an input to liveness,
    measurement, or results — those must use ``time.monotonic()`` /
    ``time.perf_counter()``, which NTP steps cannot move. ``repro
    check`` (rule RPR001) bans bare ``time.time()`` in ``core/``,
    ``spectral/`` and ``sweep/``; routing a deliberate wall-clock read
    through this helper is the sanctioned exception, and keeps every
    such site greppable.
    """
    return time.time()
