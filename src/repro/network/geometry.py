"""Planar geometry used by networks, the turn model, and candidate edges.

Coordinates are planar kilometres, one frame per city (:mod:`repro.data.gtfs`
reads a feed's coordinates as given). The turn model of Algorithm 2
(lines 4-8 of the paper) is built on :func:`angle_between_bearings`.
"""

from __future__ import annotations

import math

import numpy as np

TURN_ANGLE = math.pi / 4
"""Bearing change beyond which a junction counts as a turn (paper: pi/4)."""

SHARP_ANGLE = math.pi / 2
"""Bearing change beyond which a candidate path is infeasible (paper: pi/2)."""


def euclidean(a, b) -> float:
    """Planar distance between points ``a = (x, y)`` and ``b``."""
    return math.hypot(b[0] - a[0], b[1] - a[1])


def nearest_vertices(
    points: np.ndarray, queries: np.ndarray, chunk: int = 1024
) -> np.ndarray:
    """Index of the nearest row of ``points`` for every row of ``queries``.

    Euclidean metric; exact ties resolve to the lowest index. Queries are
    processed in chunks so the dense ``(chunk, n)`` distance block stays
    small on large inputs. This is the vectorized replacement for
    per-point radius-query snapping in the synthetic-city generator.
    """
    pts = np.asarray(points, dtype=float)
    qs = np.asarray(queries, dtype=float)
    out = np.empty(len(qs), dtype=np.intp)
    for start in range(0, len(qs), chunk):
        q = qs[start : start + chunk]
        d = np.hypot(
            pts[None, :, 0] - q[:, 0, None], pts[None, :, 1] - q[:, 1, None]
        )
        out[start : start + chunk] = np.argmin(d, axis=1)
    return out


def bearing(a, b) -> float:
    """Direction of travel from ``a`` to ``b`` in radians, in ``(-pi, pi]``."""
    return math.atan2(b[1] - a[1], b[0] - a[0])


def angle_between_bearings(b1: float, b2: float) -> float:
    """Smallest absolute difference between two bearings, in ``[0, pi]``."""
    diff = (b2 - b1) % (2.0 * math.pi)
    if diff > math.pi:
        diff = 2.0 * math.pi - diff
    return diff


def turn_angle(prev_pt, mid_pt, next_pt) -> float:
    """Deviation from straight-ahead travel at ``mid_pt``, in ``[0, pi]``.

    0 means the path continues straight; pi means a full U-turn.
    """
    return angle_between_bearings(bearing(prev_pt, mid_pt), bearing(mid_pt, next_pt))


class GridIndex:
    """Uniform-grid spatial index over points, for radius queries.

    Candidate-edge generation (Section 4.2.1) needs "all stop pairs within
    tau"; a uniform grid makes that near-linear instead of quadratic.
    """

    def __init__(self, points: np.ndarray, cell: float):
        if cell <= 0:
            raise ValueError(f"cell size must be positive, got {cell}")
        self._points = np.asarray(points, dtype=float)
        # Padded by a relative 1e-9, so that rounding in ``x / cell`` cannot
        # put two points within ``cell`` of each other two keys apart, out
        # of a 1-cell search's reach. A quotient is off by at most
        # |x| / cell * 2**-53, so a search of radius up to ``cell`` is
        # exact while every |x| and |y| is below 10**6 cells.
        self._cell = float(cell) * (1.0 + 1e-9)
        self._buckets: dict[tuple[int, int], list[int]] = {}
        for idx, (x, y) in enumerate(self._points):
            self._buckets.setdefault(self._key(x, y), []).append(idx)

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self._cell)), int(math.floor(y / self._cell)))

    def within(self, point, radius: float) -> list[int]:
        """Indices of stored points within ``radius`` of ``point``."""
        px, py = float(point[0]), float(point[1])
        reach = int(math.ceil(radius / self._cell))
        cx, cy = self._key(px, py)
        hits: list[int] = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                for idx in self._buckets.get((gx, gy), ()):
                    if euclidean(self._points[idx], (px, py)) <= radius:
                        hits.append(idx)
        return hits

    def pairs_within(self, radius: float) -> list[tuple[int, int]]:
        """All unordered point pairs ``(i, j)`` with ``i < j`` within ``radius``."""
        out: list[tuple[int, int]] = []
        for i, (x, y) in enumerate(self._points):
            for j in self.within((x, y), radius):
                if j > i:
                    out.append((i, j))
        return out
