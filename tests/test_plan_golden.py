"""Golden plans: the exact outcome of the search on a fixed corpus.

The corpus has 36 entries:

* the 7 canned cities at ``tiny`` × ``eta-pre``, ``eta``, ``eta-all``
  and ``vk-tsp``, at the default :class:`PlannerConfig`;
* small chicago and small nyc with ``eta-pre`` at ``k = 10`` and
  ``k = 30``;
* on those two cities, one ``forbid_stops={3, 7}`` and one
  ``anchor_stop=5`` replan through ``plan_constrained``.

Each entry pins exactly the route up to traversal direction (as
``test_batch_oracle`` compares routes), its turn count and the search
counters (iterations, queue pushes, bound and domination prunes). O_d,
O_lambda and the objective are pinned to a relative 1e-9. The
convergence trace is not pinned.

Next to the estimated O_lambda each entry records the true one,
lambda(G_r + route) - lambda(G_r) by dense ``eigvalsh``
(:func:`natural_connectivity_exact`): how far the Hutchinson estimate
a route is reported with sits from the exact value.

Every golden route is also checked from geometry
(:func:`route_checks.assert_route_geometry`).

A change that is meant to keep plans (a faster feasibility test, a
leaner candidate) must leave this file passing unedited. A change that
moves a plan on purpose re-records the values here in its own commit
and says why.
"""

import functools

import pytest

from repro.core.constraints import PlanningConstraints
from repro.core.planner import METHODS, CTBusPlanner, run_method
from repro.core.precompute import rebind
from repro.data.datasets import CITY_NAMES, canned_city
from repro.spectral.connectivity import natural_connectivity_exact
from route_checks import assert_route_geometry

REL = 1e-9

# (city, profile, method, variant): (route edges up to direction, turns,
#  iterations, queue pushes, pruned by bound, pruned by domination,
#  O_d, O_lambda, objective, true O_lambda)
GOLDEN = {
    ("chicago", "tiny", "eta-pre", "default"): ((19, 29, 26, 24, 27), 3, 85, 85, 0, 11, 86.30463243712572, 0.4244565440609869, 0.2640206984483145, 0.39370356057748124),
    ("chicago", "tiny", "eta", "default"): ((19, 29, 26, 24, 27), 3, 83, 83, 0, 10, 86.30463243712572, 0.4244565440609869, 0.2640206984483145, 0.39370356057748124),
    ("chicago", "tiny", "eta-all", "default"): ((19, 29, 26, 24, 27), 3, 83, 83, 0, 10, 86.30463243712572, 0.4244565440609869, 0.2640206984483145, 0.39370356057748124),
    ("chicago", "tiny", "vk-tsp", "default"): ((19, 29, 26, 24, 27), 3, 45, 45, 0, 9, 86.30463243712572, 0.4244565440609869, 0.2640206984483145, 0.39370356057748124),
    ("nyc", "tiny", "eta-pre", "default"): ((39, 61, 15, 30, 43, 64), 3, 160, 160, 0, 9, 84.1548991075621, 0.3615678351430447, 0.17823215594143366, 0.3182264235822041),
    ("nyc", "tiny", "eta", "default"): ((26, 27, 40, 61, 39), 3, 153, 153, 0, 10, 87.6179911428272, 0.4661104618111962, 0.2163729929401216, 0.4282456095988243),
    ("nyc", "tiny", "eta-all", "default"): ((26, 27, 40, 61, 39), 3, 152, 152, 0, 11, 87.6179911428272, 0.4661104618111962, 0.2163729929401216, 0.4282456095988243),
    ("nyc", "tiny", "vk-tsp", "default"): ((23, 25, 54, 56), 1, 104, 104, 0, 13, 102.56958841852446, 0.15648210392608397, 0.11958695868065972, 0.1566876343776311),
    ("manhattan", "tiny", "eta-pre", "default"): ((14, 21, 23, 18, 17), 3, 58, 58, 0, 4, 41.61469151814874, 0.7094111149388991, 0.2999226673671558, 0.6344129781064072),
    ("manhattan", "tiny", "eta", "default"): ((20, 17, 18, 23, 21), 3, 60, 60, 0, 4, 41.77430425695718, 0.8352714977527571, 0.34063502628937825, 0.7492023168196087),
    ("manhattan", "tiny", "eta-all", "default"): ((20, 17, 18, 23, 21), 3, 60, 60, 0, 4, 41.77430425695718, 0.8352714977527571, 0.34063502628937825, 0.7492023168196087),
    ("manhattan", "tiny", "vk-tsp", "default"): ((14, 20, 15), 1, 29, 29, 0, 5, 52.02300291865324, 0.29203120574943586, 0.18383676217173178, 0.269516625729072),
    ("queens", "tiny", "eta-pre", "default"): ((2, 12, 8, 10, 13), 3, 35, 35, 0, 4, 55.076834580491884, 0.40571131599974564, 0.5004876215784282, 0.5444545922347572),
    ("queens", "tiny", "eta", "default"): ((2, 12, 8, 10, 13), 3, 35, 35, 0, 3, 55.076834580491884, 0.40571131599974564, 0.5004876215784282, 0.5444545922347572),
    ("queens", "tiny", "eta-all", "default"): ((2, 12, 8, 10, 13), 3, 35, 35, 0, 3, 55.076834580491884, 0.40571131599974564, 0.5004876215784282, 0.5444545922347572),
    ("queens", "tiny", "vk-tsp", "default"): ((9, 10, 13), 1, 16, 16, 0, 4, 44.79321173619401, 0.2820262517354164, 0.3640387065360888, 0.33851630365580565),
    ("brooklyn", "tiny", "eta-pre", "default"): ((4, 7, 5), 1, 17, 17, 0, 3, 30.66562951862526, 0.6319515530468227, 0.571895032206224, 0.6295088533870667),
    ("brooklyn", "tiny", "eta", "default"): ((4, 7, 5), 1, 17, 17, 0, 3, 30.66562951862526, 0.6319515530468227, 0.571895032206224, 0.6295088533870667),
    ("brooklyn", "tiny", "eta-all", "default"): ((4, 7, 5), 1, 17, 17, 0, 3, 30.66562951862526, 0.6319515530468227, 0.571895032206224, 0.6295088533870667),
    ("brooklyn", "tiny", "vk-tsp", "default"): ((5, 7), 0, 4, 4, 0, 1, 15.857011536701023, 0.6319515530468227, 0.4918120040707456, 0.6295088533870667),
    ("staten_island", "tiny", "eta-pre", "default"): ((8, 9, 10), 1, 23, 23, 0, 4, 26.212499220812568, 0.627126726167365, 0.4699962059015771, 0.6931837107022139),
    ("staten_island", "tiny", "eta", "default"): ((8, 9, 10), 1, 23, 23, 0, 4, 26.212499220812568, 0.627126726167365, 0.4699962059015771, 0.6931837107022139),
    ("staten_island", "tiny", "eta-all", "default"): ((8, 9, 10), 1, 23, 23, 0, 4, 26.212499220812568, 0.627126726167365, 0.4699962059015771, 0.6931837107022139),
    ("staten_island", "tiny", "vk-tsp", "default"): ((8, 9, 10), 1, 12, 12, 0, 1, 26.212499220812568, 0.627126726167365, 0.4699962059015771, 0.6931837107022139),
    ("bronx", "tiny", "eta-pre", "default"): ((0, 1, 4), 1, 8, 8, 0, 2, 16.774156340498966, 0.34616724641477736, 0.7304968576410285, 0.2754827584506927),
    ("bronx", "tiny", "eta", "default"): ((0, 1, 4), 1, 8, 8, 0, 2, 16.774156340498966, 0.34616724641477736, 0.7304968576410285, 0.2754827584506927),
    ("bronx", "tiny", "eta-all", "default"): ((0, 1, 4), 1, 8, 8, 0, 2, 16.774156340498966, 0.34616724641477736, 0.7304968576410285, 0.2754827584506927),
    ("bronx", "tiny", "vk-tsp", "default"): ((4,), 0, 1, 1, 0, 0, 6.6307573639621795, 0.34616724641477736, 0.5911144921478616, 0.2754827584506927),
    ("chicago", "small", "eta-pre", "k=10"): ((106, 107, 102, 101, 16, 89, 92, 129, 131), 3, 448, 448, 7, 20, 399.44051478281676, 0.19201432913163496, 0.5193471372268917, 0.21908607107461453),
    ("chicago", "small", "eta-pre", "k=30"): ((106, 107, 102, 101, 16, 89, 92, 129, 131), 3, 457, 457, 0, 19, 399.44051478281676, 0.19201432913163496, 0.22610052612212078, 0.21908607107461453),
    ("nyc", "small", "eta-pre", "k=10"): ((45, 210, 211, 268, 246, 244, 130, 128, 136), 3, 901, 901, 29, 33, 502.9067046549525, 0.18821843517058756, 0.5558051095695986, 0.16149499157428693),
    ("nyc", "small", "eta-pre", "k=30"): ((286, 246, 244, 95, 302, 137, 138, 206, 30, 188, 93, 284, 303), 2, 947, 947, 0, 38, 606.2233315444971, 0.17078817637338983, 0.2416722771488368, 0.12469325481508076),
    ("chicago", "small", "eta-pre", "forbid-3-7"): ((106, 107, 102, 101, 16, 89, 92, 129, 131), 3, 434, 434, 0, 17, 399.44051478281676, 0.19201432913163496, 0.22610052612212078, 0.21908607107461453),
    ("chicago", "small", "eta-pre", "anchor-5"): ((106, 107, 68, 4, 74, 80, 78, 125), 3, 16, 16, 0, 0, 196.49892015402747, 0.18841724505589497, 0.16925390390121006, 0.1591841495531785),
    ("nyc", "small", "eta-pre", "forbid-3-7"): ((286, 246, 244, 95, 302, 137, 138, 206, 30, 188, 93, 284, 303), 2, 931, 931, 0, 36, 606.2233315444971, 0.17078817637338983, 0.2416722771488368, 0.12469325481508076),
    ("nyc", "small", "eta-pre", "anchor-5"): ((286, 246, 244, 95, 141, 27, 201, 241, 240, 289), 3, 29, 29, 0, 0, 804.3134483580485, 0.10888958622516998, 0.21406683730021797, 0.11523143483072484),
}

REPLAN_CITIES = ("chicago", "nyc")
REPLANS = {
    "forbid-3-7": PlanningConstraints(forbid_stops={3, 7}),
    "anchor-5": PlanningConstraints(anchor_stop=5),
}

CASES = (
    [(city, "tiny", method, "default") for city in CITY_NAMES for method in METHODS]
    + [(city, "small", "eta-pre", f"k={k}") for city in REPLAN_CITIES for k in (10, 30)]
    + [(city, "small", "eta-pre", name) for city in REPLAN_CITIES for name in REPLANS]
)


@functools.lru_cache(maxsize=None)
def _planner(city: str, profile: str) -> CTBusPlanner:
    return CTBusPlanner(canned_city(city, profile))


def _plan(city, profile, method, variant):
    planner = _planner(city, profile)
    pre = planner.precomputation
    if variant in REPLANS:
        return pre, planner.plan_constrained(REPLANS[variant], method)
    if variant.startswith("k="):
        pre = rebind(pre, pre.config.variant(k=int(variant[2:])))
        return pre, run_method(pre, method)
    return pre, planner.plan(method)


def true_o_lambda(pre, route) -> float:
    """lambda(G_r + route) - lambda(G_r), both by dense ``eigvalsh``."""
    if not route.new_pairs:
        return 0.0
    base = natural_connectivity_exact(pre.builder.base())
    return natural_connectivity_exact(pre.builder.extended(route.new_pairs)) - base


def _canonical(route):
    return min(route.edge_indices, tuple(reversed(route.edge_indices)))


def _observed(pre, result):
    route = result.route
    return (
        _canonical(route), route.turns, result.iterations, result.queue_pushes,
        result.pruned_by_bound, result.pruned_by_domination,
        result.o_d, result.o_lambda, result.objective, true_o_lambda(pre, route),
    )


def test_corpus_is_complete():
    assert len(CASES) == 36
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(c))
def test_plan_matches_golden(case):
    pre, result = _plan(*case)
    assert result.route is not None, "corpus entry found no route"
    assert_route_geometry(pre.universe, result.route, pre.config.k, pre.config.max_turns)
    got = _observed(pre, result)
    want = GOLDEN[case]
    assert got[:6] == want[:6]
    assert got[6:] == pytest.approx(want[6:], rel=REL)
