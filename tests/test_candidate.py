"""Unit tests for candidate paths: extension validity and the turn model."""

import pytest

from repro.core.candidate import (
    AT_BEGIN,
    AT_END,
    extend,
    extension_is_valid,
    seed_candidate,
    turn_delta,
)
from repro.core.edges import EdgeUniverse, PlanEdge
from repro.network.transit import TransitNetwork


def make_universe(coords, edges):
    """A hand-built universe: coords list, edges as (u, v, is_new)."""
    transit = TransitNetwork()
    for x, y in coords:
        transit.add_stop(x, y, road_vertex=0)
    plan_edges = []
    for i, (u, v, is_new) in enumerate(edges):
        if not is_new:
            transit.ensure_edge(u, v)
        plan_edges.append(
            PlanEdge(index=i, u=u, v=v, length=1.0, demand=1.0, is_new=is_new)
        )
    return EdgeUniverse(transit, plan_edges)


@pytest.fixture
def line_universe():
    """Five collinear stops joined in a line, plus a spur and loop edges.

    Layout: 0-1-2-3-4 along x; stop 5 above stop 2.
    Edges: (0,1) (1,2) (2,3) (3,4) line; (2,5) spur; (0,4) long closer.
    """
    coords = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (2, 1)]
    edges = [
        (0, 1, False),
        (1, 2, False),
        (2, 3, False),
        (3, 4, False),
        (2, 5, True),
        (0, 4, True),
    ]
    return make_universe(coords, edges)


class TestSeedCandidate:
    def test_fields(self, line_universe):
        c = seed_candidate(line_universe, 1)
        assert c.edge_ids == (1,)
        assert c.stops == (1, 2)
        assert c.turns == 0
        assert not c.is_loop
        assert c.domination_key() == (1, 1)


class TestExtensionValidity:
    def test_extend_at_end(self, line_universe):
        c = seed_candidate(line_universe, 1)  # 1-2
        assert extension_is_valid(line_universe, c, 2, AT_END) == 3

    def test_extend_at_begin(self, line_universe):
        c = seed_candidate(line_universe, 1)  # 1-2
        assert extension_is_valid(line_universe, c, 0, AT_BEGIN) == 0

    def test_edge_not_incident_rejected(self, line_universe):
        c = seed_candidate(line_universe, 0)  # 0-1
        assert extension_is_valid(line_universe, c, 3, AT_END) is None

    def test_edge_already_used_rejected(self, line_universe):
        c = seed_candidate(line_universe, 1)
        assert extension_is_valid(line_universe, c, 1, AT_END) is None

    def test_revisit_rejected(self, line_universe):
        # Path 0-1-2; extending at end with edge (2,5) fine, but a fake
        # edge back to 1 would revisit.
        c = seed_candidate(line_universe, 0)
        c = extend(line_universe, c, 1, 2, AT_END, 0)
        assert extension_is_valid(line_universe, c, 1, AT_END) is None

    def test_loop_closure_allowed(self, line_universe):
        # Path 0-1-2-3-4 then edge (0,4) closes the loop.
        c = seed_candidate(line_universe, 0)
        for eid, stop in [(1, 2), (2, 3), (3, 4)]:
            c = extend(line_universe, c, eid, stop, AT_END, 0)
        assert extension_is_valid(line_universe, c, 5, AT_END, allow_loop=True) == 0
        assert extension_is_valid(line_universe, c, 5, AT_END, allow_loop=False) is None

    def test_loop_cannot_extend(self, line_universe):
        c = seed_candidate(line_universe, 0)
        for eid, stop in [(1, 2), (2, 3), (3, 4)]:
            c = extend(line_universe, c, eid, stop, AT_END, 0)
        c = extend(line_universe, c, 5, 0, AT_END, 0)
        assert c.is_loop
        assert extension_is_valid(line_universe, c, 4, AT_END) is None

    def test_single_edge_loop_rejected(self, line_universe):
        c = seed_candidate(line_universe, 0)  # 0-1
        # Pretend an edge back to 0 exists from 1 via edge 5? Edge 5 is
        # (0,4): not incident to 1, so rejected anyway.
        assert extension_is_valid(line_universe, c, 5, AT_END) is None


class TestTurnDelta:
    def test_straight_no_turn(self, line_universe):
        c = seed_candidate(line_universe, 0)  # 0-1 heading +x
        tinc, sharp = turn_delta(line_universe, c, 2, AT_END)
        assert tinc == 0 and not sharp

    def test_right_angle_not_sharp(self, line_universe):
        c = seed_candidate(line_universe, 1)  # 1-2 heading +x
        tinc, sharp = turn_delta(line_universe, c, 5, AT_END)  # turn up to (2,1)
        assert tinc == 1 and not sharp

    def test_backward_sharp(self, line_universe):
        c = seed_candidate(line_universe, 1)  # 1->2
        # Going to stop 0 from stop 2's end would be a u-turn-ish move;
        # stop 0 is behind: angle pi.
        tinc, sharp = turn_delta(line_universe, c, 0, AT_END)
        assert sharp

    def test_begin_side_mirrors_end(self, line_universe):
        c = seed_candidate(line_universe, 1)  # stops (1, 2)
        tinc_begin, sharp_begin = turn_delta(line_universe, c, 0, AT_BEGIN)
        assert tinc_begin == 0 and not sharp_begin


class TestExtend:
    def test_extend_preserves_immutable_original(self, line_universe):
        c = seed_candidate(line_universe, 1)
        c2 = extend(line_universe, c, 2, 3, AT_END, 1)
        assert c.edge_ids == (1,)
        assert c2.edge_ids == (1, 2)
        assert c2.stops == (1, 2, 3)
        assert c2.turns == c.turns + 1

    def test_extend_begin_order(self, line_universe):
        c = seed_candidate(line_universe, 1)
        c2 = extend(line_universe, c, 0, 0, AT_BEGIN, 0)
        assert c2.stops == (0, 1, 2)
        assert c2.edge_ids == (0, 1)

    def test_domination_key_unordered(self, line_universe):
        c = seed_candidate(line_universe, 1)
        c2 = extend(line_universe, c, 0, 0, AT_BEGIN, 0)
        assert c2.domination_key() == (0, 1)
