"""Shared benchmark infrastructure.

* Session-cached datasets and precomputations (the expensive artifacts
  every experiment shares),
* the scaled-down bench configuration (see DESIGN.md Section 3 on the
  laptop-scale substitution),
* a report registry: every experiment renders its paper-vs-measured
  table here; ``benchmarks/conftest.py`` dumps the registry into the
  terminal summary so ``bench_output.txt`` carries all reproductions.
"""

from __future__ import annotations

import functools
import os

from repro.core.config import PlannerConfig
from repro.core.precompute import Precomputation, precompute, rebind
from repro.data.datasets import Dataset, borough_like, chicago_like, nyc_like
from repro.utils.fsio import atomic_write_text

CITIES = ("chicago", "nyc")
BOROUGHS = ("manhattan", "queens", "brooklyn", "staten_island", "bronx")

BENCH_ETA_ITERATIONS = 120
"""Iteration cap for *online* ETA runs in benchmarks.

The paper runs 100k iterations against a MATLAB kernel; our pure-Python
online evaluator is ~50-100x slower per iteration, so benchmarks cap it.
ETA-Pre (the paper's recommended planner) uses the full budget.
"""


def eta_capped(pre: Precomputation) -> Precomputation:
    """``pre`` rebound to the online-ETA cap, :data:`BENCH_ETA_ITERATIONS`."""
    return rebind(pre, pre.config.variant(max_iterations=BENCH_ETA_ITERATIONS))


_REPORTS: dict[str, str] = {}


def bench_config(**overrides) -> PlannerConfig:
    """The paper's default parameters, scaled to the bench profile.

    ``k=30, w=0.5, Tn=3`` as in Section 7.1.4; ``sn`` is scaled from the
    paper's 5000 to 1000 because the bench universes hold ~1-4k edges
    rather than ~100-160k.
    """
    base = dict(
        k=30,
        w=0.5,
        tau_km=0.5,
        max_turns=3,
        seed_count=1000,
        # ETA-Pre iterations are sub-millisecond; this budget lets the
        # queue drain naturally (the paper's termination condition).
        # Online ETA runs are separately capped at BENCH_ETA_ITERATIONS.
        max_iterations=4000,
        record_every=10,
        seed=0,
    )
    base.update(overrides)
    return PlannerConfig(**base)


@functools.lru_cache(maxsize=None)
def get_dataset(name: str, profile: str = "bench") -> Dataset:
    """Cached dataset lookup by city name."""
    if name == "chicago":
        return chicago_like(profile)
    if name == "nyc":
        return nyc_like(profile)
    return borough_like(name, profile)


@functools.lru_cache(maxsize=None)
def get_precomputation(name: str, profile: str = "bench") -> Precomputation:
    """Cached default-config precomputation per city.

    Config variants (k/w/sn sweeps) should go through
    :func:`repro.core.precompute.rebind` to reuse these artifacts.
    """
    return precompute(get_dataset(name, profile), bench_config())


def report(name: str, text: str) -> None:
    """Register an experiment report (also persisted under reports/)."""
    _REPORTS[name] = text
    out_dir = os.environ.get("REPRO_REPORT_DIR", "")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        safe = name.replace(" ", "_").replace("/", "-")
        atomic_write_text(
            os.path.join(out_dir, f"{safe}.txt"), text + "\n"
        )


def all_reports() -> dict[str, str]:
    """Snapshot of all registered reports (insertion-ordered)."""
    return dict(_REPORTS)
