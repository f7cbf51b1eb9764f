"""Latency reservoir behind the ``/stats`` endpoint.

The serving layer records one wall-clock duration per ``plan`` request.
Those samples land in a fixed-capacity ring (:class:`LatencyReservoir`)
so a long-lived daemon reports quantiles over a *recent window* rather
than its entire uptime — a latency regression shows up in ``/stats``
within ``capacity`` requests instead of being averaged away by history.

Quantiles use the nearest-rank definition (``ceil(q * n)``-th smallest,
1-indexed): every reported value is an actual observed sample, the
1-sample case degenerates to that sample for every quantile, and the
empty case reports ``None`` rather than inventing a number.

Thread-safety: ``record`` and ``snapshot`` may race freely across the
handler threads of a :class:`~repro.serve.server.PlanServer`; the ring
lives in a :class:`~repro.utils.guarded.Guarded` box, each region only
mutates or copies it, and the O(n log n) sort happens on the
snapshot's private copy outside the region.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.utils.errors import PlanningError
from repro.utils.guarded import Guarded

DEFAULT_RESERVOIR_CAPACITY = 4096
"""Samples kept in the quantile window (~minutes of interactive load)."""


def _quantile(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank quantile of a non-empty ascending list."""
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[rank - 1]


@dataclass
class _RingState:
    """Everything a :class:`LatencyReservoir` changes after construction."""

    samples: "list[float]" = field(default_factory=list)
    next: int = 0  # ring cursor, meaningful once len == capacity
    count: int = 0  # lifetime records, never decremented


class LatencyReservoir:
    """Fixed-capacity ring of request durations with quantile snapshots.

    ``record`` is O(1); ``snapshot`` copies the ring in a region and
    sorts outside it. The lifetime request count and start time survive
    ring wrap-around, so RPS reflects the daemon's whole life even
    though quantiles cover only the last ``capacity`` samples.
    """

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY, clock=time.monotonic):
        capacity = int(capacity)
        if capacity < 1:
            raise PlanningError(
                f"reservoir capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._clock = clock
        self._state: Guarded[_RingState] = Guarded(_RingState())
        self._started = clock()

    def record(self, seconds: float) -> None:
        """Add one request duration (seconds) to the window."""
        value = float(seconds)
        if not math.isfinite(value) or value < 0.0:
            raise PlanningError(
                f"latency sample must be finite and >= 0, got {seconds!r}"
            )
        with self._state as state:
            if len(state.samples) < self.capacity:
                state.samples.append(value)
            else:
                state.samples[state.next] = value
                state.next = (state.next + 1) % self.capacity
            state.count += 1

    @property
    def count(self) -> int:
        """Lifetime number of recorded samples."""
        with self._state as state:
            return state.count

    def snapshot(self) -> dict:
        """Current latency statistics as a JSON-ready dict.

        ``count`` is lifetime, ``window`` is how many samples back the
        quantiles, ``rps`` is lifetime count over elapsed time, and the
        ``p*_ms`` quantiles are ``None`` until the first sample lands.
        """
        elapsed = self._clock() - self._started
        with self._state as state:
            window = list(state.samples)
            count = state.count
        window.sort()
        stats: dict = {
            "count": count,
            "window": len(window),
            "rps": count / max(elapsed, 1e-9),
        }
        for name, q in (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)):
            stats[name] = _quantile(window, q) * 1000.0 if window else None
        return stats
