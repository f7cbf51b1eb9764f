"""Oracle test: the engine vs brute-force path enumeration.

On a tiny hand-built universe with a *linear* objective (the ETA-Pre
case), exhaustive all-neighbor expansion with the admissible bound and
no domination heuristic must find the true optimum — verified against
an independent DFS enumeration of every feasible path.
"""

import itertools

import numpy as np
import pytest

from repro.core.bounds import RankedList
from repro.core.candidate import (
    AT_BEGIN,
    AT_END,
    extension_is_valid,
    seed_candidate,
    turn_delta,
)
from repro.core.config import PlannerConfig
from repro.core.edges import EdgeUniverse, PlanEdge
from repro.core.eta import ExpansionEngine
from repro.core.objective import PrecomputedStrategy
from repro.core.precompute import Precomputation
from repro.network.transit import TransitNetwork
from repro.network.adjacency import AdjacencyBuilder


def build_universe(seed: int, n_stops: int = 8, extra_edges: int = 6):
    """A random near-collinear universe with existing + new edges."""
    rng = np.random.default_rng(seed)
    transit = TransitNetwork()
    for i in range(n_stops):
        # Stops along a gentle arc: few turns, no sharp angles.
        transit.add_stop(float(i), float(rng.uniform(-0.15, 0.15)), road_vertex=0)
    edges = []
    # A line of existing edges.
    for i in range(n_stops - 1):
        transit.ensure_edge(i, i + 1)
        edges.append((i, i + 1, False))
    # Random extra "new" candidate edges.
    added = set()
    while len(added) < extra_edges:
        u, v = sorted(rng.choice(n_stops, 2, replace=False))
        if v - u >= 2 and (u, v) not in added:
            added.add((int(u), int(v)))
    edges.extend((u, v, True) for u, v in sorted(added))

    plan_edges = [
        PlanEdge(
            index=i, u=u, v=v, length=1.0,
            demand=float(rng.uniform(0.0, 10.0)),
            is_new=is_new,
            transit_eid=transit.edge_between(u, v) if not is_new else -1,
        )
        for i, (u, v, is_new) in enumerate(edges)
    ]
    universe = EdgeUniverse(transit, plan_edges)
    universe.set_deltas(
        np.where(universe.is_new, rng.uniform(0.0, 1.0, len(universe)), 0.0)
    )
    return universe


def make_pre(universe: EdgeUniverse, config: PlannerConfig) -> Precomputation:
    """A minimal precomputation around a hand-built universe."""
    transit = universe.transit
    builder = AdjacencyBuilder(transit.n_stops, transit.edge_list())
    L_d = RankedList(universe.demand)
    L_lambda = RankedList(universe.delta)
    d_max = max(L_d.top_sum(config.k), 1.0)
    lambda_max = max(L_lambda.top_sum(config.k), 1e-9)
    combined = (
        config.w * universe.demand / d_max
        + (1 - config.w) * universe.delta / lambda_max
    )
    return Precomputation(
        universe=universe,
        builder=builder,
        estimator=None,
        lambda_base=0.0,
        top_eigenvalues=np.array([2.0]),
        L_d=L_d,
        L_lambda=L_lambda,
        L_e=RankedList(combined),
        d_max=d_max,
        lambda_max=lambda_max,
        path_bound_increment=1.0,
        config=config,
    )


def brute_force_best(pre: Precomputation) -> float:
    """Enumerate every feasible path (same validity rules) via DFS."""
    universe = pre.universe
    cfg = pre.config
    values = pre.L_e.values_array()
    best = 0.0

    def dfs(cand):
        nonlocal best
        score = sum(values[e] for e in cand.edge_ids)
        best = max(best, score)
        if cand.n_edges >= cfg.k or cand.is_loop:
            return
        for side in (AT_END, AT_BEGIN):
            terminal = cand.end_stop if side == AT_END else cand.begin_stop
            for edge_index in universe.incident(terminal):
                new_stop = extension_is_valid(
                    universe, cand, edge_index, side, cfg.allow_loop
                )
                if new_stop is None:
                    continue
                tinc, sharp = turn_delta(universe, cand, new_stop, side)
                if sharp or cand.turns + tinc > cfg.max_turns:
                    continue
                from repro.core.candidate import extend

                dfs(extend(universe, cand, edge_index, new_stop, side, tinc))

    for e in range(len(universe)):
        dfs(seed_candidate(universe, e))
    return best


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("k", [3, 5])
def test_exhaustive_engine_matches_brute_force(seed, k):
    universe = build_universe(seed)
    config = PlannerConfig(
        k=k,
        w=0.5,
        max_iterations=200_000,
        seed_count=None,
        expansion="all",
        use_domination=False,
        max_turns=3,
    )
    pre = make_pre(universe, config)
    result = ExpansionEngine(pre, PrecomputedStrategy(pre)).run()
    oracle = brute_force_best(pre)
    assert result.search_score == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_best_neighbor_is_good_heuristic(seed):
    """Alg. 1's best-neighbor greedy should land near the optimum."""
    universe = build_universe(seed)
    config = PlannerConfig(
        k=5, w=0.5, max_iterations=50_000, seed_count=None, max_turns=3
    )
    pre = make_pre(universe, config)
    result = ExpansionEngine(pre, PrecomputedStrategy(pre)).run()
    oracle = brute_force_best(pre)
    assert result.search_score >= 0.75 * oracle


@pytest.mark.parametrize("seed", [0, 1])
def test_domination_table_preserves_near_optimality(seed):
    """The DT heuristic may prune; verify the loss is small here."""
    universe = build_universe(seed)
    base = PlannerConfig(
        k=4, w=0.5, max_iterations=100_000, seed_count=None,
        expansion="all", use_domination=True, max_turns=3,
    )
    pre = make_pre(universe, base)
    with_dt = ExpansionEngine(pre, PrecomputedStrategy(pre)).run()
    oracle = brute_force_best(pre)
    assert with_dt.search_score >= 0.9 * oracle
