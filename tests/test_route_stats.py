"""Tests for route diagnostics."""

import pytest

from repro.core.planner import run_method
from repro.core.result import PlannedRoute
from repro.eval.route_stats import route_stats
from repro.utils.errors import ValidationError


@pytest.fixture(scope="module")
def planned(small_pre):
    return run_method(small_pre, "eta-pre")


class TestRouteStats:
    def test_ranges(self, small_pre, planned):
        stats = route_stats(small_pre, planned.route)
        assert 0.0 < stats.demand_share <= 1.0
        assert 0.0 <= stats.duplication_share <= 1.0
        assert stats.mean_stop_spacing_km > 0.0
        assert 0.0 <= stats.straightness <= 1.0 + 1e-9
        assert 0.0 <= stats.new_edge_gap_km <= small_pre.config.tau_km + 1e-9

    def test_duplication_matches_edge_split(self, small_pre, planned):
        stats = route_stats(small_pre, planned.route)
        uni = small_pre.universe
        ids = list(planned.route.edge_indices)
        existing_len = sum(
            uni.length[i] for i in ids if not uni.is_new[i]
        )
        total_len = sum(uni.length[i] for i in ids)
        assert stats.duplication_share == pytest.approx(existing_len / total_len)

    def test_spacing_close_to_paper_band(self, small_pre, planned):
        """Generated cities place stops every ~0.3-0.6 km like the paper."""
        stats = route_stats(small_pre, planned.route)
        assert 0.15 <= stats.mean_stop_spacing_km <= 0.8

    def test_as_row_keys(self, small_pre, planned):
        row = route_stats(small_pre, planned.route).as_row()
        assert set(row) == {
            "demand share",
            "duplication share",
            "mean stop spacing (km)",
            "straightness",
            "max new-edge gap (km)",
        }

    def test_empty_route_rejected(self, small_pre):
        empty = PlannedRoute(stops=(0,), edge_indices=(), new_pairs=(),
                             length_km=0.0, turns=0)
        with pytest.raises(ValidationError):
            route_stats(small_pre, empty)
