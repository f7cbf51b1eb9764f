"""Property test: the engine's table-driven extensions ≡ the reference rules.

``ExpansionEngine.feasible_extensions`` reads junction geometry from the
universe's static turn table and applies only the per-run rules. The
reference builds the same list the way ``brute_force_best`` in
``test_engine_oracle`` does, edge by edge from ``by_stop`` with
:func:`extension_is_valid` and :func:`turn_delta`, plus the
``new_edges_only`` and constraint filters the engine applies.

Stops sit on integer grid points and most edges are axis-aligned or
diagonal, so many junctions turn by exactly 45° or 90°: the two
thresholds of Algorithm 2 (a turn above pi/4, infeasible above pi/2).
A stop or two is nudged off its grid point by 1e-12, so other junctions
miss a threshold by a hair on either side. The plan goldens cannot
guard the thresholds, because no canned junction sits on one (moving
either threshold by 1e-9 changes none of them); this test does.
Universes include parallel edges and new edges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidate import (
    AT_BEGIN,
    AT_END,
    extend,
    extension_is_valid,
    seed_candidate,
    turn_delta,
)
from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.core.edges import EdgeUniverse, PlanEdge
from repro.core.eta import ExpansionEngine
from repro.core.objective import PrecomputedStrategy
from repro.network.transit import TransitNetwork
from test_engine_oracle import make_pre


def _aligned(a, b) -> bool:
    dx, dy = b[0] - a[0], b[1] - a[1]
    return dx == 0 or dy == 0 or abs(dx) == abs(dy)


GRID = [(x, y) for x in range(4) for y in range(3)]


@st.composite
def grid_universes(draw):
    points = draw(st.lists(st.sampled_from(GRID), min_size=4, max_size=9, unique=True))
    n = len(points)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    aligned = [p for p in pairs if _aligned(points[p[0]], points[p[1]])]
    drawn = draw(
        st.lists(st.tuples(st.sampled_from(aligned), st.booleans(), st.booleans()),
                 min_size=n, max_size=4 * n)
    )
    drawn += draw(
        st.lists(st.tuples(st.sampled_from(pairs), st.booleans(), st.booleans()),
                 max_size=3)
    )
    # A parallel edge: the first pair again, as a new edge.
    drawn.append((drawn[0][0], True, not drawn[0][2]))

    # Nudge up to two stops off the grid by 1e-12, so that some junctions
    # turn by a hair more or less than a threshold.
    coords = [[float(x), float(y)] for x, y in points]
    for stop, axis, nudge in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 1),
                           st.sampled_from((1e-12, -1e-12))), max_size=2)
    ):
        coords[stop][axis] += nudge

    transit = TransitNetwork()
    for x, y in coords:
        transit.add_stop(x, y, road_vertex=0)
    edges = []
    for index, ((i, j), is_new, flip) in enumerate(drawn):
        u, v = (j, i) if flip else (i, j)
        if not is_new:
            transit.ensure_edge(u, v)
        edges.append(PlanEdge(index=index, u=u, v=v, length=1.0, demand=1.0, is_new=is_new))
    return EdgeUniverse(transit, edges)


def reference_extensions(universe, cand, cfg, constraints):
    """Feasible extensions edge by edge, with the reference functions."""
    if cand.n_edges >= cfg.k:
        return []
    out = []
    for side in (AT_END, AT_BEGIN):
        terminal = cand.end_stop if side == AT_END else cand.begin_stop
        for edge_index in universe.incident(terminal):
            if cfg.new_edges_only and not universe.is_new[edge_index]:
                continue
            if not constraints.allows_edge(universe, edge_index):
                continue
            new_stop = extension_is_valid(universe, cand, edge_index, side, cfg.allow_loop)
            if new_stop is None:
                continue
            tinc, sharp = turn_delta(universe, cand, new_stop, side)
            if sharp or cand.turns + tinc > cfg.max_turns:
                continue
            out.append((side, edge_index, new_stop, tinc))
    return out


# Grows candidates with every rule but the turn and length budgets
# lifted, and closes a loop whenever a coin says so, so the checked paths
# include loops and spent turn budgets.
GROWTH = PlannerConfig(k=8, max_turns=8, allow_loop=True)
NO_CONSTRAINTS = PlanningConstraints()


@settings(max_examples=300, deadline=None)
@given(
    universe=grid_universes(),
    k=st.integers(1, 6),
    max_turns=st.integers(0, 3),
    allow_loop=st.booleans(),
    new_edges_only=st.booleans(),
    data=st.data(),
)
def test_table_extensions_match_reference(
    universe, k, max_turns, allow_loop, new_edges_only, data
):
    stops = range(universe.n_stops)
    forbid = data.draw(st.frozensets(st.sampled_from(stops), max_size=2), label="forbid")
    cfg = PlannerConfig(
        k=k, max_turns=max_turns, allow_loop=allow_loop,
        new_edges_only=new_edges_only, seed_count=None,
    )
    constraints = PlanningConstraints(forbid_stops=forbid)
    pre = make_pre(universe, cfg)
    engine = ExpansionEngine(pre, PrecomputedStrategy(pre), constraints=constraints)

    seed = data.draw(st.integers(0, len(universe) - 1), label="seed")
    cand = seed_candidate(universe, seed)
    for _ in range(GROWTH.k):
        want = reference_extensions(universe, cand, cfg, constraints)
        assert engine.feasible_extensions(cand) == want
        for side in (AT_END, AT_BEGIN):
            assert engine.feasible_extensions(cand, (side,)) == [
                ext for ext in want if ext[0] == side
            ]
        options = reference_extensions(universe, cand, GROWTH, NO_CONSTRAINTS)
        closing = [ext for ext in options if ext[2] in (cand.begin_stop, cand.end_stop)]
        if closing and data.draw(st.booleans(), label="close"):
            options = closing
        if not options:
            break
        side, edge_index, new_stop, tinc = data.draw(st.sampled_from(options), label="grow")
        cand = extend(universe, cand, edge_index, new_stop, side, tinc)


def test_loop_rules_on_a_square():
    """Closing needs ``allow_loop``; a closed loop ends the path.

    The square A-B-C-D-A closes at A after three right-angle turns; the
    tail A-E continues its last edge straight ahead, so only the loop
    rule stops it.
    """
    transit = TransitNetwork()
    for x, y in [(0, 0), (1, 0), (1, 1), (0, 1), (0, -1)]:
        transit.add_stop(float(x), float(y), road_vertex=0)
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]
    edges = []
    for index, (u, v) in enumerate(pairs):
        transit.ensure_edge(u, v)
        edges.append(PlanEdge(index=index, u=u, v=v, length=1.0, demand=1.0, is_new=False))
    universe = EdgeUniverse(transit, edges)
    cfg = PlannerConfig(k=8, max_turns=3, seed_count=None)
    pre = make_pre(universe, cfg)
    engine = ExpansionEngine(pre, PrecomputedStrategy(pre))

    no_loops = PlannerConfig(k=8, max_turns=3, seed_count=None, allow_loop=False)
    no_loop_pre = make_pre(universe, no_loops)
    no_loop_engine = ExpansionEngine(no_loop_pre, PrecomputedStrategy(no_loop_pre))

    cand = seed_candidate(universe, 0)
    for edge_index, new_stop in [(1, 2), (2, 3), (3, 0)]:
        assert (AT_END, edge_index, new_stop, 1) in engine.feasible_extensions(cand)
        if new_stop == cand.begin_stop:
            closing = no_loop_engine.feasible_extensions(cand)
            assert closing == reference_extensions(universe, cand, no_loops, NO_CONSTRAINTS)
            assert all(ext[2] != new_stop for ext in closing)
        cand = extend(universe, cand, edge_index, new_stop, AT_END, 1)
    assert cand.is_loop and cand.turns == 3
    assert turn_delta(universe, cand, 4, AT_END) == (0, False)
    assert reference_extensions(universe, cand, cfg, NO_CONSTRAINTS) == []
    assert engine.feasible_extensions(cand) == []
