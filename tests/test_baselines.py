"""Tests for the TSP toolkit and the two baseline planners."""

import numpy as np
import pytest

from repro.baselines.connectivity_first import (
    connectivity_first_route,
    greedy_connectivity_edges,
)
from repro.baselines.tsp import (
    held_karp_order,
    nearest_neighbor_order,
    tour_length,
    two_opt,
)
from repro.core.planner import run_method
from repro.core.precompute import precompute
from repro.utils.errors import PlanningError, ValidationError


class TestTsp:
    @pytest.fixture
    def dist(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, (7, 2))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        return d

    def test_nearest_neighbor_visits_all(self, dist):
        order = nearest_neighbor_order(dist)
        assert sorted(order) == list(range(7))

    def test_two_opt_never_worse(self, dist):
        order = nearest_neighbor_order(dist)
        improved = two_opt(dist, order)
        assert tour_length(dist, improved) <= tour_length(dist, order) + 1e-9
        assert sorted(improved) == list(range(7))

    def test_held_karp_optimal(self, dist):
        exact = held_karp_order(dist)
        exact_len = tour_length(dist, exact)
        heuristic = two_opt(dist, nearest_neighbor_order(dist))
        assert exact_len <= tour_length(dist, heuristic) + 1e-9
        # Brute force check on the small instance.
        import itertools

        best = min(
            tour_length(dist, p) for p in itertools.permutations(range(7))
        )
        assert exact_len == pytest.approx(best)

    def test_held_karp_size_limit(self):
        with pytest.raises(ValidationError):
            held_karp_order(np.zeros((13, 13)))

    def test_empty_and_single(self):
        assert nearest_neighbor_order(np.zeros((0, 0))) == []
        assert held_karp_order(np.zeros((1, 1))) == [0]

    def test_closed_tour_length(self, dist):
        order = list(range(7))
        open_len = tour_length(dist, order)
        closed_len = tour_length(dist, order, closed=True)
        assert closed_len == pytest.approx(open_len + dist[6, 0])

    def test_bad_matrix(self):
        with pytest.raises(ValidationError):
            nearest_neighbor_order(np.zeros((2, 3)))


class TestConnectivityFirst:
    def test_greedy_increases_connectivity(self, small_pre):
        chosen, total = greedy_connectivity_edges(small_pre, l_edges=4, shortlist=20)
        assert len(chosen) == 4
        assert total > 0
        assert all(small_pre.universe.is_new[i] for i in chosen)

    def test_greedy_beats_random_selection(self, small_pre):
        """Greedy edges should out-increment a random pick of equal size."""
        chosen, total = greedy_connectivity_edges(small_pre, l_edges=4, shortlist=20)
        rng = np.random.default_rng(0)
        new_edges = [i for i in range(len(small_pre.universe))
                     if small_pre.universe.is_new[i]]
        picks = [
            [small_pre.universe.edge(int(i)).pair
             for i in rng.choice(new_edges, size=4, replace=False)]
            for _ in range(5)
        ]
        random_total = small_pre.connectivity_gains(picks)
        assert total >= np.mean(random_total) - 1e-6

    def test_total_is_the_shared_connectivity_gain(self, small_pre):
        """The reported total is O_lambda of the chosen edges as
        connectivity_gains computes it, bit for bit."""
        chosen, total = greedy_connectivity_edges(small_pre, l_edges=4, shortlist=20)
        pairs = [small_pre.universe.edge(i).pair for i in chosen]
        assert total == small_pre.connectivity_gains([pairs])[0]

    @pytest.mark.parametrize("increment_mode", ["exact", "hutchinson"])
    def test_each_round_takes_the_largest_gain_of_the_mode(
        self, small_dataset, small_pre, increment_mode
    ):
        """Every pick is the shortlist's largest gain, priced in the
        precomputation's increment mode, over the edges picked before it."""
        pre = small_pre
        if increment_mode != pre.config.increment_mode:
            pre = precompute(
                small_dataset, pre.config.variant(increment_mode=increment_mode)
            )
        uni = pre.universe
        chosen, _ = greedy_connectivity_edges(pre, l_edges=4, shortlist=20)
        new = sorted(np.flatnonzero(uni.is_new), key=lambda i: -uni.delta[i])
        for r, pick in enumerate(chosen):
            before = [uni.edge(i).pair for i in chosen[:r]]
            pool = [int(i) for i in new[:20] if i not in chosen[:r]]
            gains = pre.connectivity_gains([before + [uni.edge(i).pair] for i in pool])
            assert gains[pool.index(pick)] == gains.max(), r

    def test_stitched_route_not_smooth(self, small_pre):
        """Figure 6's point: the stitched route needs long connectors."""
        result = connectivity_first_route(small_pre, l_edges=5, shortlist=20)
        assert result.connector_km > 0
        assert result.turns >= 1
        assert len(result.order) == len(result.edge_indices)

    def test_bad_l(self, small_pre):
        with pytest.raises(PlanningError):
            greedy_connectivity_edges(small_pre, l_edges=0)


class TestDemandFirst:
    def test_maximizes_demand_over_eta_pre(self, small_pre):
        vk = run_method(small_pre, "vk-tsp")
        balanced = run_method(small_pre, "eta-pre")
        assert vk.route is not None
        # vk-TSP optimizes raw demand; it should collect at least as much
        # demand as the balanced planner does (modulo greedy noise).
        assert vk.o_d >= 0.7 * balanced.o_d

    def test_only_new_edges(self, small_pre):
        vk = run_method(small_pre, "vk-tsp")
        assert vk.route.n_new_edges == vk.route.n_edges

    def test_renormalized_objective(self, small_pre):
        vk = run_method(small_pre, "vk-tsp")
        w = small_pre.config.w
        want = w * vk.o_d_normalized + (1 - w) * vk.o_lambda_normalized
        assert vk.objective == pytest.approx(want)
