"""Canned datasets: Chicago-like, NYC-like, and five borough-like cities.

Each factory returns a fully built :class:`Dataset` — road network,
transit network, taxi trips, and aggregated edge demand — deterministic
in its seed. Profiles trade size for speed:

* ``tiny``  — unit tests (sub-second end to end),
* ``small`` — examples and integration tests,
* ``bench`` — the benchmark suite (scaled-down stand-ins for the paper's
  cities that keep their shapes),
* ``paper`` — full-scale parameters approximating Table 5 (slow; not run
  in CI).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.synth import (
    SynthConfig,
    generate_hotspots,
    generate_road_network,
    generate_transit_network,
    generate_trips,
)
from repro.network.road import RoadNetwork
from repro.network.transit import TransitNetwork
from repro.trajectory.demand import aggregate_trip_demand
from repro.trajectory.trips import TripRecord
from repro.utils.errors import DataError

PROFILES = ("tiny", "small", "bench", "paper")

CITY_NAMES = (
    "chicago", "nyc", "manhattan", "queens", "brooklyn", "staten_island", "bronx",
)
"""Every canned city accepted by :func:`canned_city` (and the CLI)."""


def list_profiles() -> tuple[str, ...]:
    """The supported dataset profiles, smallest to largest."""
    return PROFILES


@dataclass
class Dataset:
    """A city bundle: networks, trips, and aggregated demand."""

    name: str
    config: SynthConfig
    road: RoadNetwork
    transit: TransitNetwork
    trips: list[TripRecord] = field(repr=False)
    accepted_trips: int = 0

    def stats(self) -> dict[str, float]:
        """Dataset overview in the shape of the paper's Table 5."""
        return {
            "|R|": self.transit.n_routes,
            "len(R)": round(self.transit.average_route_length(), 1),
            "|V|": self.road.n_vertices,
            "|V_r|": self.transit.n_stops,
            "|E|": self.road.n_edges,
            "|E_r|": self.transit.n_edges,
            "|D|": len(self.trips),
            "|D| accepted": self.accepted_trips,
        }


def build_dataset(cfg: SynthConfig) -> Dataset:
    """Generate road + transit + trips for ``cfg`` and aggregate demand."""
    road = generate_road_network(cfg)
    hotspots = generate_hotspots(cfg, road)
    transit = generate_transit_network(cfg, road, hotspots)
    trips = generate_trips(cfg, road, hotspots)
    accepted = aggregate_trip_demand(road, trips)
    return Dataset(
        name=cfg.name,
        config=cfg,
        road=road,
        transit=transit,
        trips=trips,
        accepted_trips=accepted,
    )


def _profile_scale(profile: str) -> dict[str, float]:
    if profile not in PROFILES:
        raise DataError(f"unknown profile {profile!r}; choose from {PROFILES}")
    return {
        "tiny": {"grid": 0.18, "routes": 0.18, "trips": 0.03},
        "small": {"grid": 0.42, "routes": 0.45, "trips": 0.12},
        "bench": {"grid": 1.0, "routes": 1.0, "trips": 1.0},
        "paper": {"grid": 2.8, "routes": 7.0, "trips": 12.0},
    }[profile]


def _sized(cfg: SynthConfig, profile: str) -> SynthConfig:
    s = _profile_scale(profile)
    grid = min(s["grid"], 1.0)  # distances never grow past the bench layout
    return cfg.scaled(
        name=f"{cfg.name}-{profile}",
        grid_width=max(4, int(round(cfg.grid_width * s["grid"]))),
        grid_height=max(3, int(round(cfg.grid_height * s["grid"]))),
        n_routes=max(3, int(round(cfg.n_routes * s["routes"]))),
        n_trips=max(150, int(round(cfg.n_trips * s["trips"]))),
        route_min_km=cfg.route_min_km * grid,
        hotspot_sigma_km=max(cfg.hotspot_sigma_km * grid, 0.2),
    )


_CHICAGO_BENCH = SynthConfig(
    name="chicago",
    grid_width=36,
    grid_height=26,
    spacing_km=0.25,
    drop_edge_prob=0.08,
    diagonal_prob=0.06,
    n_hotspots=7,
    hotspot_sigma_km=1.1,
    n_routes=26,
    route_stop_hops=2,
    route_min_km=4.0,
    n_trips=12000,
    seed=1871,
)

_NYC_BENCH = SynthConfig(
    name="nyc",
    grid_width=46,
    grid_height=34,
    spacing_km=0.25,
    drop_edge_prob=0.10,
    diagonal_prob=0.04,
    n_hotspots=9,
    hotspot_sigma_km=1.3,
    n_routes=44,
    route_stop_hops=2,
    route_min_km=5.0,
    n_trips=18000,
    seed=1624,
)

_BOROUGHS: dict[str, SynthConfig] = {
    # Dense, tall, extremely well served: extra routes, little headroom.
    "manhattan": SynthConfig(
        name="manhattan", grid_width=10, grid_height=34, spacing_km=0.22,
        drop_edge_prob=0.04, diagonal_prob=0.02, n_hotspots=6,
        hotspot_sigma_km=0.8, n_routes=22, route_min_km=2.5,
        n_trips=9000, seed=212,
    ),
    # Sprawling and sparse: long blocks, few routes.
    "queens": SynthConfig(
        name="queens", grid_width=30, grid_height=22, spacing_km=0.30,
        drop_edge_prob=0.12, diagonal_prob=0.05, n_hotspots=8,
        hotspot_sigma_km=1.2, n_routes=12, route_min_km=3.0,
        n_trips=7000, seed=718,
    ),
    "brooklyn": SynthConfig(
        name="brooklyn", grid_width=24, grid_height=20, spacing_km=0.26,
        drop_edge_prob=0.09, diagonal_prob=0.05, n_hotspots=7,
        hotspot_sigma_km=1.0, n_routes=14, route_min_km=2.5,
        n_trips=8000, seed=347,
    ),
    # Small, bus-dependent, sparse coverage.
    "staten_island": SynthConfig(
        name="staten_island", grid_width=18, grid_height=14, spacing_km=0.32,
        drop_edge_prob=0.14, diagonal_prob=0.04, n_hotspots=5,
        hotspot_sigma_km=1.1, n_routes=8, route_min_km=2.0,
        n_trips=4000, seed=917,
    ),
    # North-south corridor city with weak cross links.
    "bronx": SynthConfig(
        name="bronx", grid_width=16, grid_height=24, spacing_km=0.26,
        drop_edge_prob=0.13, diagonal_prob=0.03, n_hotspots=6,
        hotspot_sigma_km=0.9, n_routes=11, route_min_km=2.2,
        n_trips=6000, seed=104,
    ),
}


def chicago_like(profile: str = "bench") -> Dataset:
    """A Chicago-like city (lakeside density emulated by hotspot skew)."""
    return build_dataset(_sized(_CHICAGO_BENCH, profile))


def nyc_like(profile: str = "bench") -> Dataset:
    """An NYC-like city (larger, denser route set)."""
    return build_dataset(_sized(_NYC_BENCH, profile))


def borough_like(name: str, profile: str = "bench") -> Dataset:
    """One of five NYC-borough-like cities with distinct characters.

    ``name`` is one of ``manhattan``, ``queens``, ``brooklyn``,
    ``staten_island``, ``bronx``.
    """
    return build_dataset(_sized(_borough(name), profile))


def _borough(name: str) -> SynthConfig:
    key = name.lower().replace(" ", "_")
    if key not in _BOROUGHS:
        raise DataError(f"unknown borough {name!r}; choose from {sorted(_BOROUGHS)}")
    return _BOROUGHS[key]


def canned_config(name: str, profile: str = "bench") -> SynthConfig:
    """The generator config :func:`canned_city` builds, without building it."""
    if name == "chicago":
        return _sized(_CHICAGO_BENCH, profile)
    if name == "nyc":
        return _sized(_NYC_BENCH, profile)
    return _sized(_borough(name), profile)


def canned_city(name: str, profile: str = "bench") -> Dataset:
    """Any canned city by name (see :data:`CITY_NAMES`)."""
    return build_dataset(canned_config(name, profile))
