"""Transit network (paper Definition 2).

Stops are affiliated with road vertices; transit edges connect stops and
carry the underlying road path (a sequence of road edge ids) plus its
travel length. Bus routes are stop sequences whose consecutive pairs are
transit edges. Removing a route removes the edges no other route uses,
which is exactly the Figure 1 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.network.adjacency import adjacency_matrix
from repro.network.geometry import euclidean
from repro.utils.errors import GraphError


@dataclass(frozen=True)
class Route:
    """A bus route: an ordered stop sequence over the transit network."""

    route_id: int
    name: str
    stops: tuple[int, ...]

    @property
    def n_stops(self) -> int:
        return len(self.stops)

    def stop_pairs(self) -> list[tuple[int, int]]:
        """Consecutive stop pairs traversed by the route."""
        return [(self.stops[i], self.stops[i + 1]) for i in range(len(self.stops) - 1)]


class TransitNetwork:
    """Stops, transit edges (with road geometry), and routes."""

    def __init__(self) -> None:
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._road_vertex: list[int] = []
        self._edges: list[tuple[int, int]] = []
        self._lengths: list[float] = []
        self._road_paths: list[tuple[int, ...]] = []
        self._edge_routes: list[set[int]] = []
        self._adj: list[list[tuple[int, int]]] = []
        self._edge_index: dict[tuple[int, int], int] = {}
        self.routes: list[Route] = []
        self._coords_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_stop(self, x: float, y: float, road_vertex: int = -1) -> int:
        """Add a stop at ``(x, y)``, optionally affiliated with a road vertex."""
        self._xs.append(float(x))
        self._ys.append(float(y))
        self._road_vertex.append(int(road_vertex))
        self._adj.append([])
        self._coords_cache = None
        return len(self._xs) - 1

    def ensure_edge(
        self,
        u: int,
        v: int,
        length: float | None = None,
        road_path: tuple[int, ...] = (),
    ) -> int:
        """Return the edge id for ``(u, v)``, creating the edge if absent."""
        self._check_stop(u)
        self._check_stop(v)
        if u == v:
            raise GraphError(f"self-loop not allowed at stop {u}")
        key = (u, v) if u < v else (v, u)
        eid = self._edge_index.get(key)
        if eid is not None:
            return eid
        if length is None:
            length = euclidean(self.stop_xy(u), self.stop_xy(v))
        eid = len(self._edges)
        self._edges.append(key)
        self._lengths.append(float(length))
        self._road_paths.append(tuple(road_path))
        self._edge_routes.append(set())
        self._adj[u].append((v, eid))
        self._adj[v].append((u, eid))
        self._edge_index[key] = eid
        return eid

    def add_route(
        self,
        name: str,
        stops: list[int],
        lengths: list[float] | None = None,
        road_paths: list[tuple[int, ...]] | None = None,
    ) -> Route:
        """Register a route through ``stops``, creating/reusing its edges."""
        if len(stops) < 2:
            raise GraphError(f"route {name!r} needs >= 2 stops, got {len(stops)}")
        route = Route(route_id=len(self.routes), name=name, stops=tuple(stops))
        for i, (u, v) in enumerate(route.stop_pairs()):
            eid = self.ensure_edge(
                u,
                v,
                None if lengths is None else lengths[i],
                () if road_paths is None else road_paths[i],
            )
            self._edge_routes[eid].add(route.route_id)
        self.routes.append(route)
        return route

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def n_stops(self) -> int:
        return len(self._xs)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    @property
    def n_routes(self) -> int:
        return len(self.routes)

    @property
    def stop_coords(self) -> np.ndarray:
        if self._coords_cache is None or len(self._coords_cache) != len(self._xs):
            self._coords_cache = np.column_stack(
                [np.asarray(self._xs, dtype=float), np.asarray(self._ys, dtype=float)]
            ) if self._xs else np.zeros((0, 2))
        return self._coords_cache

    def stop_xy(self, s: int) -> tuple[float, float]:
        self._check_stop(s)
        return (self._xs[s], self._ys[s])

    def stop_road_vertex(self, s: int) -> int:
        self._check_stop(s)
        return self._road_vertex[s]

    def neighbors(self, s: int) -> list[tuple[int, int]]:
        """Pairs ``(neighbor_stop, edge_id)`` incident to ``s``."""
        self._check_stop(s)
        return list(self._adj[s])

    def degree(self, s: int) -> int:
        self._check_stop(s)
        return len(self._adj[s])

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        self._check_edge(eid)
        return self._edges[eid]

    def edge_between(self, u: int, v: int) -> int | None:
        key = (u, v) if u < v else (v, u)
        return self._edge_index.get(key)

    def edge_length(self, eid: int) -> float:
        self._check_edge(eid)
        return self._lengths[eid]

    def edge_road_path(self, eid: int) -> tuple[int, ...]:
        """Road edge ids realizing this transit edge (may be empty)."""
        self._check_edge(eid)
        return self._road_paths[eid]

    def edge_list(self) -> list[tuple[int, int]]:
        return list(self._edges)

    def routes_at_stop(self, s: int) -> set[int]:
        """Route ids serving stop ``s``."""
        self._check_stop(s)
        found: set[int] = set()
        for _, eid in self._adj[s]:
            found |= self._edge_routes[eid]
        return found

    def average_route_length(self) -> float:
        """Average number of stops per route (Table 5's ``len(R)``)."""
        if not self.routes:
            return 0.0
        return sum(r.n_stops for r in self.routes) / len(self.routes)

    # ------------------------------------------------------------------
    # Matrices and algorithms support
    # ------------------------------------------------------------------
    def adjacency(self) -> sp.csr_matrix:
        """Unweighted symmetric adjacency matrix of the transit graph."""
        return adjacency_matrix(self.n_stops, self._edges)

    # ------------------------------------------------------------------
    # Mutation used by experiments
    # ------------------------------------------------------------------
    def without_routes(self, route_ids: set[int]) -> "TransitNetwork":
        """A copy with the given routes removed (Figure 1 workload).

        Stops are preserved; an edge survives only if some remaining route
        uses it (standalone edges with no route tag also survive).
        """
        keep = TransitNetwork()
        for s in range(self.n_stops):
            keep.add_stop(self._xs[s], self._ys[s], self._road_vertex[s])
        removed = set(route_ids)
        old_routes = [r for r in self.routes if r.route_id not in removed]
        for eid, (u, v) in enumerate(self._edges):
            users = self._edge_routes[eid]
            if users and users <= removed:
                continue
            new_eid = keep.ensure_edge(u, v, self._lengths[eid], self._road_paths[eid])
            keep._edge_routes[new_eid] = set()
        for old in old_routes:
            route = Route(route_id=len(keep.routes), name=old.name, stops=old.stops)
            for u, v in route.stop_pairs():
                eid = keep.ensure_edge(u, v)
                keep._edge_routes[eid].add(route.route_id)
            keep.routes.append(route)
        return keep

    def copy(self) -> "TransitNetwork":
        """Deep copy of the network."""
        other = TransitNetwork()
        other._xs = list(self._xs)
        other._ys = list(self._ys)
        other._road_vertex = list(self._road_vertex)
        other._edges = list(self._edges)
        other._lengths = list(self._lengths)
        other._road_paths = list(self._road_paths)
        other._edge_routes = [set(s) for s in self._edge_routes]
        other._adj = [list(a) for a in self._adj]
        other._edge_index = dict(self._edge_index)
        other.routes = list(self.routes)
        return other

    def to_networkx(self):
        """Export to :class:`networkx.Graph` (lazy import)."""
        import networkx as nx

        g = nx.Graph()
        for s in range(self.n_stops):
            g.add_node(s, x=self._xs[s], y=self._ys[s], road_vertex=self._road_vertex[s])
        for eid, (u, v) in enumerate(self._edges):
            g.add_edge(u, v, edge_id=eid, length=self._lengths[eid],
                       routes=sorted(self._edge_routes[eid]))
        return g

    # ------------------------------------------------------------------
    def _check_stop(self, s: int) -> None:
        if not 0 <= s < len(self._xs):
            raise GraphError(f"unknown stop {s} (network has {len(self._xs)})")

    def _check_edge(self, eid: int) -> None:
        if not 0 <= eid < len(self._edges):
            raise GraphError(f"unknown edge {eid} (network has {len(self._edges)})")

    def __repr__(self) -> str:
        return (
            f"TransitNetwork(|V_r|={self.n_stops}, |E_r|={self.n_edges}, "
            f"|R|={self.n_routes})"
        )
