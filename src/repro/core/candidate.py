"""Candidate paths: feasibility state carried through ETA's expansion.

A candidate is an ordered edge sequence over the universe with its stop
chain, turn count, the Algorithm 2 bound cursor, and its current
objective value. Extension produces a *new* candidate (paths are short,
at most ``k`` edges, so copying is cheap and a queue entry is never
changed after it is pushed).

:func:`extension_is_valid` and :func:`turn_delta` are the reference
feasibility test; the engine reads the same rules from the universe's
turn table, and the engine oracle and the property tests check the two
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.edges import EdgeUniverse
from repro.network.geometry import SHARP_ANGLE, TURN_ANGLE, turn_angle
from repro.utils.errors import ValidationError

AT_END = "end"
AT_BEGIN = "begin"


@dataclass(slots=True)
class Candidate:
    """One path in the priority queue.

    ``bound`` and ``cursor`` track the Algorithm 2 demand bound on the
    strategy's ranked list; ``score`` is the evaluated objective
    (strategy-dependent); ``upper`` the objective-scale upper bound used
    as the queue priority. Slotted and not frozen: the search creates
    several per iteration, and a frozen dataclass's ``__init__`` costs
    about 4× as much.
    """

    edge_ids: tuple[int, ...]
    stops: tuple[int, ...]
    turns: int
    score: float
    bound: float
    cursor: int
    upper: float

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def begin_stop(self) -> int:
        return self.stops[0]

    @property
    def end_stop(self) -> int:
        return self.stops[-1]

    @property
    def is_loop(self) -> bool:
        return len(self.stops) >= 3 and self.stops[0] == self.stops[-1]

    def domination_key(self) -> tuple[int, int]:
        """Unordered (first edge, last edge) pair — Sec. 4.2.3."""
        a, b = self.edge_ids[0], self.edge_ids[-1]
        return (a, b) if a <= b else (b, a)

    def with_scores(self, score: float, bound: float, cursor: int, upper: float) -> "Candidate":
        """Copy with evaluation results attached."""
        return Candidate(self.edge_ids, self.stops, self.turns, score, bound, cursor, upper)


def seed_candidate(universe: EdgeUniverse, edge_index: int) -> Candidate:
    """A single-edge candidate (scores filled in by the engine)."""
    e = universe.edge(edge_index)
    return Candidate(
        edge_ids=(edge_index,),
        stops=(e.u, e.v),
        turns=0,
        score=0.0,
        bound=0.0,
        cursor=0,
        upper=0.0,
    )


def extension_is_valid(
    universe: EdgeUniverse,
    cand: Candidate,
    edge_index: int,
    side: str,
    allow_loop: bool = True,
) -> "int | None":
    """Check whether ``edge_index`` can extend ``cand`` on ``side``.

    Returns the new terminal stop if valid, else ``None``. Enforces:
    edge not already on the path, circle-freeness of stops (with the
    optional loop closure of paper footnote 4), and that loops cannot be
    extended further.
    """
    if cand.is_loop:
        return None
    if edge_index in cand.edge_ids:
        return None
    e = universe.edge(edge_index)
    terminal = cand.end_stop if side == AT_END else cand.begin_stop
    if terminal not in (e.u, e.v):
        return None
    new_stop = e.other(terminal)
    opposite = cand.begin_stop if side == AT_END else cand.end_stop
    if new_stop == opposite:
        # Closing the loop is allowed only for paths of >= 2 edges.
        if allow_loop and cand.n_edges >= 2:
            return new_stop
        return None
    if new_stop in cand.stops:
        return None
    return new_stop


def turn_delta(
    universe: EdgeUniverse, cand: Candidate, new_stop: int, side: str
) -> tuple[int, bool]:
    """Turn increment and sharp-turn flag for an extension (Alg. 2 l.4-8).

    The bearing change is measured at the junction between the path's
    terminal segment and the new segment; > pi/4 counts one turn,
    > pi/2 marks the extension infeasible.
    """
    coords = universe.transit.stop_coords
    if side == AT_END:
        prev_pt = coords[cand.stops[-2]]
        mid_pt = coords[cand.stops[-1]]
    else:
        prev_pt = coords[cand.stops[1]]
        mid_pt = coords[cand.stops[0]]
    angle = turn_angle(prev_pt, mid_pt, coords[new_stop])
    if angle > SHARP_ANGLE:
        return 1, True
    if angle > TURN_ANGLE:
        return 1, False
    return 0, False


def extend(
    universe: EdgeUniverse,
    cand: Candidate,
    edge_index: int,
    new_stop: int,
    side: str,
    turn_increment: int,
) -> Candidate:
    """Materialize a validated extension as a new candidate."""
    if side == AT_END:
        edge_ids = cand.edge_ids + (edge_index,)
        stops = cand.stops + (new_stop,)
    elif side == AT_BEGIN:
        edge_ids = (edge_index,) + cand.edge_ids
        stops = (new_stop,) + cand.stops
    else:
        raise ValidationError(f"side must be 'begin' or 'end', got {side!r}")
    return Candidate(
        edge_ids=edge_ids,
        stops=stops,
        turns=cand.turns + turn_increment,
        score=cand.score,
        bound=cand.bound,
        cursor=cand.cursor,
        upper=cand.upper,
    )
