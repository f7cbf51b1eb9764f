"""Tests for transfer routing and Table 6 metrics."""

import pytest

from repro.eval.metrics import evaluate_planned_route, materialize_route
from repro.eval.report import effectiveness_row, format_effectiveness_table
from repro.eval.transfers import TransferRouter, min_transfers
from repro.network.transit import TransitNetwork


@pytest.fixture
def hub_network() -> TransitNetwork:
    """Three routes:  A: 0-1-2,  B: 2-3-4,  C: 4-5-6 (chained hubs)."""
    t = TransitNetwork()
    for i in range(7):
        t.add_stop(float(i), float(i % 2), road_vertex=i)
    t.add_route("A", [0, 1, 2])
    t.add_route("B", [2, 3, 4])
    t.add_route("C", [4, 5, 6])
    return t


class TestTransferRouter:
    def test_same_route_zero_transfers(self, hub_network):
        assert min_transfers(hub_network, 0, 2) == 0

    def test_one_transfer(self, hub_network):
        assert min_transfers(hub_network, 0, 3) == 1

    def test_two_transfers(self, hub_network):
        assert min_transfers(hub_network, 0, 6) == 2

    def test_same_stop(self, hub_network):
        assert min_transfers(hub_network, 3, 3) == 0

    def test_unreachable(self, hub_network):
        t = hub_network.copy()
        lonely = t.add_stop(99.0, 99.0)
        assert TransferRouter(t).min_transfers(0, lonely) is None

    def test_routes_at(self, hub_network):
        router = TransferRouter(hub_network)
        assert set(router.routes_at(2)) == {0, 1}
        assert set(router.routes_at(5)) == {2}


class TestRouteEvaluation:
    @pytest.fixture(scope="class")
    def planned(self, small_pre):
        from repro.core.planner import run_method

        return run_method(small_pre, "eta-pre")

    def test_materialize_adds_route(self, small_pre, planned):
        new = materialize_route(small_pre, planned.route)
        assert new.n_routes == small_pre.universe.transit.n_routes + 1
        # Original untouched.
        assert small_pre.universe.transit.n_routes == new.n_routes - 1

    def test_metrics_sane(self, small_pre, planned):
        ev = evaluate_planned_route(small_pre, planned.route)
        assert ev.n_edges == planned.route.n_edges
        assert ev.transfers_avoided >= 0
        assert ev.distance_ratio >= 1.0 - 1e-9
        assert 0 <= ev.crossed_routes <= small_pre.universe.transit.n_routes

    def test_crossed_routes_counts_stop_sharing(self, small_pre, planned):
        ev = evaluate_planned_route(small_pre, planned.route)
        router = TransferRouter(small_pre.universe.transit)
        want = set()
        for s in dict.fromkeys(planned.route.stops):
            want |= set(router.routes_at(s))
        assert ev.crossed_routes == len(want)

    def test_max_pairs_cap(self, small_pre, planned):
        ev_full = evaluate_planned_route(small_pre, planned.route)
        ev_capped = evaluate_planned_route(small_pre, planned.route, max_pairs=6)
        assert ev_capped.distance_ratio > 0
        assert ev_full.n_edges == ev_capped.n_edges

    def test_report_row_and_table(self, small_pre, planned):
        row = effectiveness_row(small_pre, planned)
        assert row is not None
        table = format_effectiveness_table({"eta-pre": row, "none": None})
        assert "eta-pre" in table
        assert "#transfers avoided" in table

    def test_short_route_rejected(self, small_pre, planned):
        from repro.core.result import PlannedRoute
        from repro.utils.errors import ValidationError

        bad = PlannedRoute(stops=(0,), edge_indices=(), new_pairs=(), length_km=0, turns=0)
        with pytest.raises(ValidationError):
            evaluate_planned_route(small_pre, bad)
