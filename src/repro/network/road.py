"""Road network (paper Definition 1).

An undirected spatial graph whose vertices are intersections and whose
edges are road segments. Each edge carries a length (km), a travel time
(minutes), and — once trajectories are aggregated — a demand count
``f_e`` (how many trajectories traverse it, Eq. 4).
"""

from __future__ import annotations

import numpy as np

from repro.network.geometry import euclidean
from repro.utils.errors import GraphError
from repro.utils.validation import require

DEFAULT_SPEED_KMH = 30.0
"""Fallback urban driving speed used to derive travel times from lengths."""


class RoadNetwork:
    """Undirected road graph with coordinates, lengths, times, and demand."""

    def __init__(self) -> None:
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._edges: list[tuple[int, int]] = []
        self._lengths: list[float] = []
        self._times: list[float] = []
        self._demand: list[float] = []
        self._adj: list[list[tuple[int, int]]] = []
        self._edge_index: dict[tuple[int, int], int] = {}
        self._coords_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, x: float, y: float) -> int:
        """Add a vertex at planar position ``(x, y)`` km; return its id."""
        self._xs.append(float(x))
        self._ys.append(float(y))
        self._adj.append([])
        self._coords_cache = None
        return len(self._xs) - 1

    def add_edge(
        self,
        u: int,
        v: int,
        length: float | None = None,
        travel_time: float | None = None,
    ) -> int:
        """Add the undirected edge ``(u, v)``; return its edge id.

        ``length`` defaults to the euclidean distance between endpoints,
        ``travel_time`` to ``length / DEFAULT_SPEED_KMH`` hours expressed
        in minutes.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self-loop not allowed at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in self._edge_index:
            raise GraphError(f"duplicate edge {key}")
        if length is None:
            length = euclidean(self.vertex_xy(u), self.vertex_xy(v))
        require(length >= 0, f"edge length must be >= 0, got {length}")
        if travel_time is None:
            travel_time = length / DEFAULT_SPEED_KMH * 60.0
        eid = len(self._edges)
        self._edges.append(key)
        self._lengths.append(float(length))
        self._times.append(float(travel_time))
        self._demand.append(0.0)
        self._adj[u].append((v, eid))
        self._adj[v].append((u, eid))
        self._edge_index[key] = eid
        return eid

    @classmethod
    def from_arrays(
        cls,
        coords: np.ndarray,
        edges: list[tuple[int, int]],
        lengths: list[float] | None = None,
        travel_times: list[float] | None = None,
    ) -> "RoadNetwork":
        """Build a network from a coordinate array and an edge list."""
        net = cls()
        for x, y in np.asarray(coords, dtype=float):
            net.add_vertex(float(x), float(y))
        for i, (u, v) in enumerate(edges):
            net.add_edge(
                int(u),
                int(v),
                None if lengths is None else float(lengths[i]),
                None if travel_times is None else float(travel_times[i]),
            )
        return net

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self._xs)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    @property
    def coords(self) -> np.ndarray:
        """Vertex coordinates as an ``(n, 2)`` float array (cached)."""
        if self._coords_cache is None or len(self._coords_cache) != len(self._xs):
            self._coords_cache = np.column_stack(
                [np.asarray(self._xs, dtype=float), np.asarray(self._ys, dtype=float)]
            ) if self._xs else np.zeros((0, 2))
        return self._coords_cache

    def vertex_xy(self, v: int) -> tuple[float, float]:
        self._check_vertex(v)
        return (self._xs[v], self._ys[v])

    def neighbors(self, v: int) -> list[tuple[int, int]]:
        """Pairs ``(neighbor_vertex, edge_id)`` incident to ``v``."""
        self._check_vertex(v)
        return list(self._adj[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        self._check_edge(eid)
        return self._edges[eid]

    def edge_between(self, u: int, v: int) -> int | None:
        """Edge id joining ``u`` and ``v``, or ``None``."""
        key = (u, v) if u < v else (v, u)
        return self._edge_index.get(key)

    def edge_length(self, eid: int) -> float:
        self._check_edge(eid)
        return self._lengths[eid]

    def edge_travel_time(self, eid: int) -> float:
        self._check_edge(eid)
        return self._times[eid]

    def edge_list(self) -> list[tuple[int, int]]:
        """Endpoints ``(u, v)`` with ``u < v`` of every edge, by edge id."""
        return list(self._edges)

    def edge_lengths(self) -> np.ndarray:
        return np.asarray(self._lengths, dtype=float)

    def edge_travel_times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=float)

    # ------------------------------------------------------------------
    # Demand (f_e)
    # ------------------------------------------------------------------
    def add_demand(self, eid: int, count: float = 1.0) -> None:
        """Record ``count`` additional trajectories traversing edge ``eid``."""
        self._check_edge(eid)
        self._demand[eid] += count

    def set_demand(self, eid: int, count: float) -> None:
        """Overwrite the trajectory count of edge ``eid``.

        Multi-route planning (paper Sec. 6.3) zeroes the demand of road
        edges already covered by a previously planned route.
        """
        self._check_edge(eid)
        self._demand[eid] = float(count)

    def reset_demand(self) -> None:
        self._demand = [0.0] * self.n_edges

    def edge_demand(self, eid: int) -> float:
        """Trajectory count ``f_e`` for edge ``eid``."""
        self._check_edge(eid)
        return self._demand[eid]

    def demand_counts(self) -> np.ndarray:
        """Vector of ``f_e`` per edge."""
        return np.asarray(self._demand, dtype=float)

    def demand_weights(self) -> np.ndarray:
        """Vector of ``f_e * |e|`` per edge — the weight of Eq. 4."""
        return self.demand_counts() * self.edge_lengths()

    def copy(self) -> "RoadNetwork":
        """Deep copy (shares nothing mutable with the original)."""
        other = RoadNetwork()
        other._xs = list(self._xs)
        other._ys = list(self._ys)
        other._edges = list(self._edges)
        other._lengths = list(self._lengths)
        other._times = list(self._times)
        other._demand = list(self._demand)
        other._adj = [list(a) for a in self._adj]
        other._edge_index = dict(self._edge_index)
        return other

    def to_networkx(self):
        """Export to :class:`networkx.Graph` (lazy import)."""
        import networkx as nx

        g = nx.Graph()
        for v in range(self.n_vertices):
            g.add_node(v, x=self._xs[v], y=self._ys[v])
        for eid, (u, v) in enumerate(self._edges):
            g.add_edge(
                u,
                v,
                edge_id=eid,
                length=self._lengths[eid],
                travel_time=self._times[eid],
                demand=self._demand[eid],
            )
        return g

    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._xs):
            raise GraphError(f"unknown vertex {v} (network has {len(self._xs)})")

    def _check_edge(self, eid: int) -> None:
        if not 0 <= eid < len(self._edges):
            raise GraphError(f"unknown edge {eid} (network has {len(self._edges)})")

    def __repr__(self) -> str:
        return f"RoadNetwork(|V|={self.n_vertices}, |E|={self.n_edges})"
