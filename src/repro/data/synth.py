"""Synthetic city generator.

Substitutes for the paper's data sources (DIMACS road graphs, taxi trip
records, bus shapefiles). The generator produces, deterministically from
a seed:

* a **road network** — a jittered grid with diagonal shortcuts and random
  street removals, which is near-planar with slowly decaying adjacency
  spectrum (the regime that motivates the paper's Lanczos estimator);
* **hotspots** — weighted population/activity centers;
* a **transit network** — routes grown along perturbed shortest paths
  between hotspot areas, stops every ~2 road hops (≈ the paper's 0.5 km
  spacing), overlapping at transfer hubs;
* **taxi trips** — hotspot-to-hotspot OD pairs whose recorded
  distance/time equal the true shortest-path values plus noise, so the
  paper's 5%-tolerance trip filter keeps most and rejects some.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from repro.network.geometry import euclidean, nearest_vertices
from repro.network.road import RoadNetwork
from repro.network.shortest_path import (
    PathForest,
    path_weight,
    reconstruct_edge_path,
    reconstruct_vertex_path,
)
from repro.network.transit import TransitNetwork
from repro.trajectory.trips import TripRecord
from repro.utils.errors import DataError
from repro.utils.prng import child_rng
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic city (all sizes deterministic in seed)."""

    name: str = "city"
    grid_width: int = 16
    grid_height: int = 12
    spacing_km: float = 0.25
    coord_jitter: float = 0.25
    drop_edge_prob: float = 0.08
    diagonal_prob: float = 0.05
    n_hotspots: int = 6
    trip_hotspot_bonus: int = 0
    """Extra activity centers used by *trips only* (not route growth) —
    models under-served "transit desert" demand when > 0."""
    trip_concentration: float = 2.0
    """Exponent on hotspot weights for trip sampling (> 1 concentrates
    taxi demand in the busiest centers, as in real cities, which is what
    makes demand-first planning pick low-connectivity core shortcuts)."""
    hotspot_sigma_km: float = 0.8
    n_routes: int = 8
    route_stop_hops: int = 2
    route_min_km: float = 2.0
    n_trips: int = 1500
    trip_noise: float = 0.02
    trip_reject_fraction: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.grid_width >= 2, f"grid_width must be >= 2, got {self.grid_width}")
        require(self.grid_height >= 2, f"grid_height must be >= 2, got {self.grid_height}")
        require_positive(self.spacing_km, "spacing_km")
        require(self.n_routes >= 1, f"n_routes must be >= 1, got {self.n_routes}")
        require(self.route_stop_hops >= 1, "route_stop_hops must be >= 1")
        require(self.n_hotspots >= 2, f"n_hotspots must be >= 2, got {self.n_hotspots}")
        require(0 <= self.trip_reject_fraction <= 1, "trip_reject_fraction in [0, 1]")

    def scaled(self, **overrides) -> "SynthConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)


@dataclass
class Hotspots:
    """Weighted activity centers driving route and trip placement.

    The first ``n_transit`` centers seed route growth; trips draw from
    the full set (the tail holds trip-only "transit desert" centers).
    """

    centers: np.ndarray  # (h, 2)
    weights: np.ndarray  # (h,)
    n_transit: int = 0
    _trip_cdfs: dict = field(default_factory=dict, repr=False, compare=False)
    """Cumulative skewed distributions keyed by concentration, computed
    once per exponent instead of once per sampled trip."""

    def __post_init__(self) -> None:
        if self.n_transit <= 0 or self.n_transit > len(self.weights):
            self.n_transit = len(self.weights)

    def sample_center(self, rng: np.random.Generator, transit_only: bool = False) -> int:
        if transit_only:
            w = self.weights[: self.n_transit]
            return int(rng.choice(self.n_transit, p=w / w.sum()))
        return int(rng.choice(len(self.weights), p=self.weights))

    def sample_trip_center(self, rng: np.random.Generator, concentration: float) -> int:
        """Sample with weights raised to ``concentration`` (taxi skew).

        The draw is ``rng.choice(len(p), p=p)`` without its per-call
        validation: the same normalized CDF, one ``rng.random()`` and a
        right bisection, so it returns the same index and consumes the
        same stream.
        """
        key = float(concentration)
        cdf = self._trip_cdfs.get(key)
        if cdf is None:
            w = self.weights ** max(key, 0.0)
            acc = np.cumsum(w / w.sum())
            acc /= acc[-1]
            cdf = self._trip_cdfs[key] = acc.tolist()
        return bisect_right(cdf, rng.random())


def generate_road_network(cfg: SynthConfig) -> RoadNetwork:
    """Grid-based road network with jitter, diagonals, and dropped streets.

    Always returns a *connected* graph: dropped edges are restored when
    removal would disconnect the largest component.
    """
    rng = child_rng(cfg.seed, f"{cfg.name}/road")
    w, h, s = cfg.grid_width, cfg.grid_height, cfg.spacing_km
    net = RoadNetwork()
    jitter = cfg.coord_jitter * s
    for gy in range(h):
        for gx in range(w):
            x = gx * s + rng.uniform(-jitter, jitter)
            y = gy * s + rng.uniform(-jitter, jitter)
            net.add_vertex(x, y)

    def vid(gx: int, gy: int) -> int:
        return gy * w + gx

    candidate_edges: list[tuple[int, int]] = []
    for gy in range(h):
        for gx in range(w):
            if gx + 1 < w:
                candidate_edges.append((vid(gx, gy), vid(gx + 1, gy)))
            if gy + 1 < h:
                candidate_edges.append((vid(gx, gy), vid(gx, gy + 1)))
            if gx + 1 < w and gy + 1 < h and rng.random() < cfg.diagonal_prob:
                candidate_edges.append((vid(gx, gy), vid(gx + 1, gy + 1)))
            if gx + 1 < w and gy > 0 and rng.random() < cfg.diagonal_prob:
                candidate_edges.append((vid(gx, gy), vid(gx + 1, gy - 1)))

    keep_mask = rng.random(len(candidate_edges)) >= cfg.drop_edge_prob
    kept = [e for e, keep in zip(candidate_edges, keep_mask) if keep]
    dropped = [e for e, keep in zip(candidate_edges, keep_mask) if not keep]

    # Union-find to restore connectivity with as few dropped edges as needed.
    parent = list(range(net.n_vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    for u, v in kept:
        union(u, v)
        net.add_edge(u, v)
    for u, v in dropped:
        if union(u, v):
            net.add_edge(u, v)
    return net


def generate_hotspots(cfg: SynthConfig, road: RoadNetwork) -> Hotspots:
    """Sample weighted activity centers, biased toward the city interior.

    ``n_hotspots`` transit-seeding centers come first, followed by
    ``trip_hotspot_bonus`` trip-only centers drawn uniformly (deserts sit
    wherever routes did not go).
    """
    rng = child_rng(cfg.seed, f"{cfg.name}/hotspots")
    coords = road.coords
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    # Beta(2, 2) pulls hotspots toward the middle of each axis.
    unit = rng.beta(2.0, 2.0, size=(cfg.n_hotspots, 2))
    extra = rng.uniform(0.0, 1.0, size=(cfg.trip_hotspot_bonus, 2))
    centers = lo + np.vstack([unit, extra] if len(extra) else [unit]) * span
    raw = rng.gamma(shape=2.0, scale=1.0, size=len(centers))
    weights = raw / raw.sum()
    return Hotspots(centers=centers, weights=weights, n_transit=cfg.n_hotspots)


def generate_transit_network(
    cfg: SynthConfig, road: RoadNetwork, hotspots: Hotspots | None = None
) -> TransitNetwork:
    """Grow bus routes along perturbed shortest paths between hotspots.

    Stops are placed every ``route_stop_hops`` road vertices and shared
    between routes touching the same road vertex, creating transfer hubs.
    """
    if hotspots is None:
        hotspots = generate_hotspots(cfg, road)
    rng = child_rng(cfg.seed, f"{cfg.name}/transit")
    coords = road.coords
    transit = TransitNetwork()
    stop_of_vertex: dict[int, int] = {}

    forest = PathForest(road.n_vertices, road.edge_list())
    road_lengths = road.edge_lengths()

    built = 0
    attempts = 0
    max_attempts = cfg.n_routes * 12
    while built < cfg.n_routes and attempts < max_attempts:
        attempts += 1
        ha = hotspots.sample_center(rng, transit_only=True)
        hb = hotspots.sample_center(rng, transit_only=True)
        pa = hotspots.centers[ha] + rng.normal(0.0, cfg.hotspot_sigma_km, 2)
        pb = hotspots.centers[hb] + rng.normal(0.0, cfg.hotspot_sigma_km, 2)
        va, vb = (int(v) for v in nearest_vertices(coords, np.vstack([pa, pb])))
        if va == vb or euclidean(coords[va], coords[vb]) < cfg.route_min_km:
            continue
        # Perturb edge weights per route so parallel routes diverge.
        mult = rng.uniform(0.75, 1.3, len(road_lengths))
        ((_, _, pred_v, _),) = forest.trees(road_lengths * mult, [va])
        path = reconstruct_vertex_path(pred_v, va, vb)
        if len(path) < cfg.route_stop_hops + 1:
            continue
        stop_vertices = path[:: cfg.route_stop_hops]
        if stop_vertices[-1] != path[-1]:
            stop_vertices.append(path[-1])
        if len(stop_vertices) < 2:
            continue
        stops: list[int] = []
        for v in stop_vertices:
            if v not in stop_of_vertex:
                x, y = road.vertex_xy(v)
                stop_of_vertex[v] = transit.add_stop(x, y, road_vertex=v)
            sid = stop_of_vertex[v]
            if not stops or stops[-1] != sid:
                stops.append(sid)
        if len(stops) < 2:
            continue
        lengths, road_paths = _edge_geometry(road, path, stop_vertices)
        transit.add_route(f"{cfg.name}-R{built}", stops, lengths, road_paths)
        built += 1
    if built == 0:
        raise DataError(
            f"could not grow any route for {cfg.name!r}; relax route_min_km"
        )
    return transit


def _edge_geometry(
    road: RoadNetwork, path: list[int], stop_vertices: list[int]
) -> tuple[list[float], list[tuple[int, ...]]]:
    """Per-transit-edge lengths and road-edge paths along a route path."""
    position = {v: i for i, v in enumerate(path)}
    lengths: list[float] = []
    road_paths: list[tuple[int, ...]] = []
    for a, b in zip(stop_vertices, stop_vertices[1:]):
        ia, ib = position[a], position[b]
        seg_edges: list[int] = []
        total = 0.0
        for u, v in zip(path[ia:ib], path[ia + 1 : ib + 1]):
            eid = road.edge_between(u, v)
            if eid is None:
                raise DataError(f"route path broken between road vertices {u} and {v}")
            seg_edges.append(eid)
            total += road.edge_length(eid)
        lengths.append(total)
        road_paths.append(tuple(seg_edges))
    return lengths, road_paths


def generate_trips(
    cfg: SynthConfig, road: RoadNetwork, hotspots: Hotspots | None = None
) -> list[TripRecord]:
    """Sample hotspot-to-hotspot taxi trips with noisy recorded metrics.

    Recorded distance/time equal the true shortest-path values scaled by
    ``1 + eps`` where ``eps`` is small Gaussian noise for most trips and
    large for a ``trip_reject_fraction`` share (those exercise the
    tolerance filter downstream).
    """
    if hotspots is None:
        hotspots = generate_hotspots(cfg, road)
    rng = child_rng(cfg.seed, f"{cfg.name}/trips")
    coords = road.coords

    # Sample all endpoints first (the rng call order per trip is part of
    # the dataset contract), then place and snap them to road vertices in
    # one vectorized pass — neither consumes randomness. One size-4 normal
    # draw is the pickup's and the dropoff's size-2 draws in a row.
    centers: list[int] = []
    offsets = np.empty((cfg.n_trips, 4))
    for i in range(cfg.n_trips):
        centers.append(hotspots.sample_trip_center(rng, cfg.trip_concentration))
        centers.append(hotspots.sample_trip_center(rng, cfg.trip_concentration))
        offsets[i] = rng.normal(0.0, cfg.hotspot_sigma_km, 4)
    points = hotspots.centers[centers] + offsets.reshape(-1, 2)
    snapped = nearest_vertices(coords, points)
    od_pairs = [
        (int(va), int(vb))
        for va, vb in zip(snapped[0::2], snapped[1::2])
        if va != vb
    ]

    # Group by origin: one shortest-path tree per distinct pickup vertex.
    by_origin: dict[int, list[int]] = {}
    for va, vb in od_pairs:
        by_origin.setdefault(va, []).append(vb)

    times = road.edge_travel_times().tolist()
    trees = PathForest(road.n_vertices, road.edge_list()).trees(
        road.edge_lengths(), list(by_origin)
    )
    trips: list[TripRecord] = []
    for origin, dist, pred_v, pred_e in trees:
        for dest in by_origin[origin]:
            d = dist[dest]
            if math.isinf(d) or d <= 0:
                continue
            t = path_weight(times, reconstruct_edge_path(pred_v, pred_e, origin, dest))
            if rng.random() < cfg.trip_reject_fraction:
                # The draw rng.choice([-1.0, 1.0]) makes, without its overhead.
                eps = rng.uniform(0.15, 0.5) * (-1.0, 1.0)[rng.integers(0, 2)]
            else:
                eps = rng.normal(0.0, cfg.trip_noise)
            trips.append(
                TripRecord(
                    pickup_vertex=origin,
                    dropoff_vertex=dest,
                    distance_km=max(d * (1.0 + eps), 1e-6),
                    duration_min=max(t * (1.0 + eps), 1e-6),
                )
            )
    return trips

