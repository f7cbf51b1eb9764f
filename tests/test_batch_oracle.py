"""Differential oracle: batched planning ≡ the sequential reference.

The batched kernels are correctness-critical — a silent numerical bug
would shift every route the planner emits. This suite pins
``batch_eval=True`` against the sequential reference path
(``batch_eval=False``, kept alive forever as the oracle) across a
corpus of synthetic cities × both strategies × both expansion modes ×
both queue disciplines: 24 corpus points, in both increment modes.

Contract, ``increment_mode="exact"`` (the block Lanczos kernel of
``repro.spectral.gains``): the two modes plan bitwise the same result,
since the kernel prices each set independently of its batch.

Contract, ``increment_mode="hutchinson"`` (``repro.spectral.batch``):
the two modes must plan the *same route* with objectives and search
scores within 1e-9, pricing the same number of distinct novel-pair
sets. Routes are compared up to traversal direction — a path and its
reverse are the same physical bus route (identical edge set, stops, and
objective), and which direction wins an *exact* score tie is an
exploration-order artifact that sub-tolerance (~1e-16) roundoff between
the kernel's rank-update matvec and the reference's rebuilt-CSR matvec
may legitimately flip.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import PlannerConfig
from repro.core.planner import run_method
from repro.core.precompute import precompute
from repro.data.datasets import canned_city

TOL = 1e-9

CITIES = ("chicago", "nyc", "manhattan")
METHODS = ("eta", "eta-pre")
EXPANSIONS = ("best", "all")
DISCIPLINES = ("bound", "fifo")

_BASE = dict(
    k=8, w=0.5, max_iterations=60, seed_count=40,
    n_probes=8, lanczos_steps=6, seed=0,
)

_pre_cache: dict = {}


def _plan(city, method, expansion, discipline, batch_eval, increment_mode="exact"):
    key = (city, expansion, discipline, batch_eval, increment_mode)
    if key not in _pre_cache:
        config = PlannerConfig(
            **_BASE, expansion=expansion, queue_discipline=discipline,
            batch_eval=batch_eval, increment_mode=increment_mode,
        )
        _pre_cache[key] = precompute(canned_city(city, "tiny"), config)
    return run_method(_pre_cache[key], method)


def _canonical_route(route):
    """Route identity up to traversal direction."""
    if route is None:
        return None
    forward = route.edge_indices
    backward = tuple(reversed(forward))
    return min(forward, backward)


def _timeless(result):
    return dataclasses.replace(result, runtime_s=0.0)


@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("expansion", EXPANSIONS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("city", CITIES)
def test_batched_plan_matches_sequential(city, method, expansion, discipline):
    batched = _plan(city, method, expansion, discipline, True)
    reference = _plan(city, method, expansion, discipline, False)
    assert batched.route is not None, "corpus point found no route"
    assert _timeless(batched) == _timeless(reference)


@pytest.mark.parametrize("discipline", DISCIPLINES)
@pytest.mark.parametrize("expansion", EXPANSIONS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("city", CITIES)
def test_hutchinson_batched_plan_matches_sequential(
    city, method, expansion, discipline
):
    batched = _plan(city, method, expansion, discipline, True, "hutchinson")
    reference = _plan(city, method, expansion, discipline, False, "hutchinson")

    assert _canonical_route(batched.route) == _canonical_route(reference.route)
    assert batched.route is not None, "corpus point found no route"
    assert batched.objective == pytest.approx(reference.objective, abs=TOL)
    assert batched.search_score == pytest.approx(
        reference.search_score, abs=TOL
    )
    assert batched.o_d == pytest.approx(reference.o_d, abs=TOL * 1e3)
    assert batched.o_lambda == pytest.approx(reference.o_lambda, abs=TOL)
    # Both modes price the same distinct novel-pair sets, once each.
    assert batched.connectivity_evaluations == reference.connectivity_evaluations


def test_corpus_size_meets_acceptance_floor():
    """The ISSUE acceptance asks for >= 20 corpus points."""
    n_points = len(CITIES) * len(METHODS) * len(EXPANSIONS) * len(DISCIPLINES)
    assert n_points >= 20


def test_corpus_covers_both_strategies_modes_and_disciplines():
    assert set(METHODS) == {"eta", "eta-pre"}
    assert set(EXPANSIONS) == {"best", "all"}
    assert set(DISCIPLINES) == {"bound", "fifo"}


def test_precomputed_deltas_match_across_modes():
    """Batched precompute increments equal sequential ones bitwise."""
    config = PlannerConfig(**_BASE, batch_eval=True)
    ds = canned_city("chicago", "tiny")
    on = precompute(ds, config)
    off = precompute(ds, config.variant(batch_eval=False))
    assert on.universe.delta.tobytes() == off.universe.delta.tobytes()
    assert on.estimator.evaluations == off.estimator.evaluations


def test_hutchinson_precomputed_deltas_match_across_modes():
    """Batched Hutchinson increments agree with sequential ones."""
    config = PlannerConfig(**_BASE, batch_eval=True, increment_mode="hutchinson")
    ds = canned_city("chicago", "tiny")
    on = precompute(ds, config)
    off = precompute(ds, config.variant(batch_eval=False))
    np.testing.assert_allclose(
        on.universe.delta, off.universe.delta, atol=TOL, rtol=0.0
    )
    assert on.estimator.evaluations == off.estimator.evaluations
