"""Unit tests for planar geometry and the turn model."""

import math

import numpy as np
import pytest

from repro.network.geometry import (
    GridIndex,
    angle_between_bearings,
    bearing,
    euclidean,
    turn_angle,
)


class TestDistances:
    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)


class TestBearingsAndTurns:
    def test_bearing_cardinal(self):
        assert bearing((0, 0), (1, 0)) == pytest.approx(0.0)
        assert bearing((0, 0), (0, 1)) == pytest.approx(math.pi / 2)

    def test_angle_between_bearings_wraps(self):
        assert angle_between_bearings(-3.0, 3.0) == pytest.approx(
            2 * math.pi - 6.0
        )

    def test_straight_line_no_turn(self):
        assert turn_angle((0, 0), (1, 0), (2, 0)) == pytest.approx(0.0)

    def test_right_angle(self):
        assert turn_angle((0, 0), (1, 0), (1, 1)) == pytest.approx(math.pi / 2)

    def test_u_turn(self):
        assert turn_angle((0, 0), (1, 0), (0, 0)) == pytest.approx(math.pi)


class TestGridIndex:
    def test_within_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 10, size=(200, 2))
        index = GridIndex(pts, cell=0.8)
        probe = (5.0, 5.0)
        radius = 1.3
        got = sorted(index.within(probe, radius))
        want = sorted(
            i for i, p in enumerate(pts) if euclidean(p, probe) <= radius
        )
        assert got == want

    def test_pairs_within_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 4, size=(60, 2))
        index = GridIndex(pts, cell=0.5)
        got = sorted(index.pairs_within(0.5))
        want = sorted(
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if euclidean(pts[i], pts[j]) <= 0.5
        )
        assert got == want

    def test_pair_at_exactly_the_cell_size(self):
        # Unpadded, x / cell puts these two points 0.5 apart at keys 0 and
        # 2, out of a 1-cell search's reach.
        pts = np.array([[0.49999999999999994, 0.0], [1.0, 0.0]])
        assert euclidean(pts[0], pts[1]) == 0.5
        assert GridIndex(pts, cell=0.5).pairs_within(0.5) == [(0, 1)]

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros((1, 2)), cell=0.0)
