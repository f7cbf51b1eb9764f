"""Pure-topology path helpers shared by planners and evaluation.

These operate on stop/coordinate sequences so they can serve both the
transit network proper and candidate paths that mix existing and
not-yet-materialized edges.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.network.geometry import SHARP_ANGLE, TURN_ANGLE, turn_angle


def is_simple_stop_sequence(stops: Sequence[int], allow_loop: bool = True) -> bool:
    """True if no stop repeats.

    With ``allow_loop`` (paper footnote 4) the final stop may equal the
    first one, closing a one-way loop.
    """
    if not stops:
        return True
    interior = stops
    if allow_loop and len(stops) >= 3 and stops[0] == stops[-1]:
        interior = stops[:-1]
    return len(set(interior)) == len(interior)


def count_turns(
    coords: Sequence[Sequence[float]],
    turn_threshold: float = TURN_ANGLE,
    sharp_threshold: float = SHARP_ANGLE,
) -> tuple[int, bool]:
    """Count turns along a stop-coordinate polyline.

    Returns ``(turns, has_sharp)`` where a bearing change above
    ``turn_threshold`` counts as one turn and any change above
    ``sharp_threshold`` flags the path as infeasible — the model of
    Algorithm 2 (lines 4-8).
    """
    turns = 0
    has_sharp = False
    for i in range(1, len(coords) - 1):
        angle = turn_angle(coords[i - 1], coords[i], coords[i + 1])
        if angle > sharp_threshold:
            has_sharp = True
            turns += 1
        elif angle > turn_threshold:
            turns += 1
    return turns, has_sharp
