"""The edge universe: existing transit edges + candidate new edges.

ETA searches over a unified edge set (Section 4.2.1): every existing
transit edge plus every *potential* edge joining two stops within
``tau``. :class:`EdgeUniverse` gives each a dense index carrying demand,
length, geometry, and (after pre-computation) the connectivity increment
``Delta(e)``. It also holds Algorithm 2's turn model as a table: which
edges a path may continue along after arriving at a stop, and whether
that junction costs a turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.network.geometry import (
    SHARP_ANGLE,
    TURN_ANGLE,
    angle_between_bearings,
    bearing,
)
from repro.network.transit import TransitNetwork
from repro.utils.errors import GraphError

if TYPE_CHECKING:
    from repro.core.result import PlannedRoute

Continuations = tuple[tuple[int, int, int], ...]
"""``(edge, stop it leads to, turn increment)`` for each allowed next edge."""


@dataclass(frozen=True)
class PlanEdge:
    """One edge of the planning universe.

    ``is_new`` distinguishes candidate edges (which change the adjacency
    matrix when used) from existing transit edges (which do not).
    """

    index: int
    u: int
    v: int
    length: float
    demand: float
    is_new: bool
    transit_eid: int = -1
    road_path: tuple[int, ...] = ()

    def other(self, stop: int) -> int:
        """The endpoint opposite to ``stop``."""
        if stop == self.u:
            return self.v
        if stop == self.v:
            return self.u
        raise GraphError(f"stop {stop} is not an endpoint of edge {self.index}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


class EdgeUniverse:
    """Dense-indexed edge set with per-stop incidence lists.

    ``continuations[e][s]`` is the static half of Algorithm 2's
    feasibility test for a path that arrived at stop ``s`` along edge
    ``e``: every edge ``f`` of ``by_stop[s]`` (in that order, ``e``
    itself left out) whose junction with ``e`` turns by at most pi/2, as
    ``(f, stop f leads to, turn increment)``; a junction over pi/4 costs
    one turn. Built once from each edge's two bearings, with the same
    :func:`bearing` / :func:`angle_between_bearings` calls that
    :func:`~repro.core.candidate.turn_delta` makes, so every entry
    classifies its junction bit-identically. The rules that depend on the
    path or the run (stops already visited, the turn budget, loops,
    constraints) are not in the table.
    """

    def __init__(self, transit: TransitNetwork, edges: list[PlanEdge]):
        self.transit = transit
        self.edges = edges
        self.n_stops = transit.n_stops
        self.by_stop: list[list[int]] = [[] for _ in range(self.n_stops)]
        for e in edges:
            self.by_stop[e.u].append(e.index)
            self.by_stop[e.v].append(e.index)
        self.demand = np.asarray([e.demand for e in edges], dtype=float)
        self.length = np.asarray([e.length for e in edges], dtype=float)
        self.is_new = np.asarray([e.is_new for e in edges], dtype=bool)
        #: Connectivity increments Delta(e); zero until pre-computation
        #: fills the new-edge entries (existing edges stay zero, Sec. 6.2).
        self.delta = np.zeros(len(edges), dtype=float)
        self.continuations = self._turn_table()

    def _turn_table(self) -> list[dict[int, Continuations]]:
        coords = self.transit.stop_coords.tolist()
        # Travel bearing of each edge leaving each of its endpoints.
        leaving = [
            {
                e.u: bearing(coords[e.u], coords[e.v]),
                e.v: bearing(coords[e.v], coords[e.u]),
            }
            for e in self.edges
        ]
        table: list[dict[int, Continuations]] = []
        for e in self.edges:
            ends: dict[int, Continuations] = {}
            for stop, prev in ((e.v, e.u), (e.u, e.v)):
                arriving = leaving[e.index][prev]
                allowed = []
                for f in self.by_stop[stop]:
                    angle = angle_between_bearings(arriving, leaving[f][stop])
                    if f == e.index or angle > SHARP_ANGLE:
                        continue
                    allowed.append(
                        (f, self.edges[f].other(stop), int(angle > TURN_ANGLE))
                    )
                ends[stop] = tuple(allowed)
            table.append(ends)
        return table

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def n_new_edges(self) -> int:
        return int(self.is_new.sum())

    @property
    def n_existing_edges(self) -> int:
        return len(self.edges) - self.n_new_edges

    def edge(self, index: int) -> PlanEdge:
        return self.edges[index]

    def incident(self, stop: int) -> list[int]:
        """Universe edge indices incident to ``stop``."""
        if not 0 <= stop < self.n_stops:
            raise GraphError(f"unknown stop {stop}")
        return self.by_stop[stop]

    def new_pairs(self, edge_indices) -> list[tuple[int, int]]:
        """Stop pairs of the *new* edges among ``edge_indices``.

        These are the pairs that extend the adjacency matrix when the
        path is added to the network.
        """
        out = []
        for i in edge_indices:
            e = self.edges[i]
            if e.is_new:
                out.append(e.pair)
        return out

    def materialize(self, route: "PlannedRoute", name: str) -> TransitNetwork:
        """A copy of the transit network with ``route`` added as route
        ``name``, each edge carrying its universe length and road path."""
        transit = self.transit.copy()
        transit.add_route(
            name,
            list(route.stops),
            [float(self.length[i]) for i in route.edge_indices],
            [self.edges[i].road_path for i in route.edge_indices],
        )
        return transit

    def set_deltas(self, values: np.ndarray) -> None:
        """Install pre-computed connectivity increments (aligned by index)."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.delta.shape:
            raise GraphError(
                f"delta array shape {values.shape} != universe size {self.delta.shape}"
            )
        self.delta = values

    def __repr__(self) -> str:
        return (
            f"EdgeUniverse(existing={self.n_existing_edges}, "
            f"new={self.n_new_edges})"
        )
