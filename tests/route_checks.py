"""Route validity checked from geometry, not from the engine's counters.

:func:`assert_route_geometry` re-derives every feasibility rule of a
planned route from the transit stop coordinates (turns through
:func:`~repro.network.paths.count_turns`, i.e. ``turn_angle`` at every
interior junction), so a search that miscounts its own turns or skips a
sharp-angle check cannot vouch for itself.
"""

from __future__ import annotations

from repro.network.paths import count_turns, is_simple_stop_sequence


def assert_route_geometry(
    universe, route, k: int, max_turns: int, allow_loop: bool = True
) -> None:
    """Assert that ``route`` is a feasible Algorithm 2 path over ``universe``.

    * its edges chain its listed stops, and no edge repeats;
    * it has at most ``k`` edges;
    * no interior junction turns by more than pi/2;
    * the interior junctions above pi/4 number exactly ``route.turns``,
      and ``route.turns <= max_turns``;
    * no stop repeats, except the last one closing a loop when
      ``allow_loop`` permits it.
    """
    stops, edges = list(route.stops), list(route.edge_indices)
    assert edges, "route has no edges"
    assert len(stops) == len(edges) + 1, f"{len(stops)} stops for {len(edges)} edges"
    for i, edge_index in enumerate(edges):
        e = universe.edge(edge_index)
        assert {stops[i], stops[i + 1]} == {e.u, e.v}, (
            f"edge {edge_index} ({e.u}, {e.v}) does not join stops "
            f"{stops[i]} and {stops[i + 1]}"
        )
    assert len(set(edges)) == len(edges), f"edge repeats in {edges}"
    assert len(edges) <= k, f"{len(edges)} edges > k={k}"

    coords = universe.transit.stop_coords
    turns, sharp = count_turns([coords[s] for s in stops])
    assert not sharp, f"a junction of {stops} turns by more than pi/2"
    assert turns == route.turns, f"geometry counts {turns} turns, route claims {route.turns}"
    assert route.turns <= max_turns, f"{route.turns} turns > max_turns={max_turns}"

    assert is_simple_stop_sequence(stops, allow_loop=allow_loop), f"stop repeats in {stops}"
