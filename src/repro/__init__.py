"""CT-Bus: transit route planning with connectivity and commuting demand.

A from-scratch Python reproduction of *"Public Transport Planning: When
Transit Network Connectivity Meets Commuting Demand"* (Wang, Sun, Musco,
Bao — SIGMOD 2021).

Quickstart::

    from repro import CTBusPlanner, PlannerConfig, chicago_like

    dataset = chicago_like("small")
    planner = CTBusPlanner(dataset, PlannerConfig(k=20, w=0.5))
    result = planner.plan("eta-pre")
    print(result.summary())

See ``README.md`` for the module map and ``docs/`` for the design
notes; the paper-table benchmarks under ``benchmarks/`` print the
paper-vs-measured record of every reproduced table and figure.
"""

from repro.core.config import PlannerConfig
from repro.core.planner import CTBusPlanner
from repro.core.precompute import Precomputation, precompute
from repro.core.result import PlannedRoute, PlanResult
from repro.data.datasets import (
    Dataset,
    borough_like,
    build_dataset,
    chicago_like,
    nyc_like,
)
from repro.data.synth import SynthConfig
from repro.network.road import RoadNetwork
from repro.network.transit import Route, TransitNetwork
from repro.spectral.connectivity import (
    NaturalConnectivityEstimator,
    natural_connectivity_exact,
)
from repro.trajectory.trips import TripRecord

__version__ = "1.0.0"

__all__ = [
    "PlannerConfig",
    "CTBusPlanner",
    "Precomputation",
    "precompute",
    "PlannedRoute",
    "PlanResult",
    "Dataset",
    "borough_like",
    "build_dataset",
    "chicago_like",
    "nyc_like",
    "SynthConfig",
    "RoadNetwork",
    "Route",
    "TransitNetwork",
    "NaturalConnectivityEstimator",
    "natural_connectivity_exact",
    "TripRecord",
    "__version__",
]
