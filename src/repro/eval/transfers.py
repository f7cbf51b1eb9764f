"""Minimum-transfer routing over the route hypergraph.

A passenger's transfer count depends on *routes*, not edges: boarding a
route reaches every stop on it. :class:`TransferRouter` does BFS over
the bipartite stop-route incidence: the minimum number of boarded routes
minus one is the transfer count (0 transfers = one direct route).
"""

from __future__ import annotations

from collections import deque

from repro.network.transit import TransitNetwork
from repro.utils.errors import GraphError


class TransferRouter:
    """Answers min-transfer queries on a fixed transit network."""

    def __init__(self, transit: TransitNetwork):
        self.transit = transit
        self._routes_of_stop: list[list[int]] = [[] for _ in range(transit.n_stops)]
        self._stops_of_route: list[tuple[int, ...]] = []
        for route in transit.routes:
            self._stops_of_route.append(route.stops)
            for s in set(route.stops):
                self._routes_of_stop[s].append(route.route_id)

    def routes_at(self, stop: int) -> list[int]:
        """Route ids serving ``stop`` (via route membership, not edges)."""
        if not 0 <= stop < len(self._routes_of_stop):
            raise GraphError(f"unknown stop {stop}")
        return self._routes_of_stop[stop]

    def min_transfers(self, origin: int, destination: int) -> "int | None":
        """Minimum transfers from ``origin`` to ``destination``.

        0 means one direct route; ``None`` means unreachable by transit
        (also when either stop is served by no route). Same-stop queries
        cost 0.
        """
        if origin == destination:
            return 0
        start_routes = self.routes_at(origin)
        if not start_routes or not self.routes_at(destination):
            return None
        target_routes = set(self.routes_at(destination))

        seen_routes = set(start_routes)
        seen_stops = {origin}
        frontier = deque((r, 0) for r in start_routes)
        while frontier:
            route_id, boarded = frontier.popleft()
            if route_id in target_routes:
                return boarded  # transfers = routes boarded so far
            for stop in self._stops_of_route[route_id]:
                if stop in seen_stops:
                    continue
                seen_stops.add(stop)
                for nxt in self._routes_of_stop[stop]:
                    if nxt not in seen_routes:
                        seen_routes.add(nxt)
                        frontier.append((nxt, boarded + 1))
        return None
