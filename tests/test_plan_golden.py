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
(:func:`natural_connectivity_exact`). The default mode reports O_lambda
from the block Lanczos kernel, so the two agree to ``REL`` (checked).
``HUTCHINSON_GOLDEN`` pins the paper's Lanczos + Hutchinson reference
(``increment_mode="hutchinson"``) on the 7 tiny eta-pre entries.

Every golden route is also checked from geometry
(:func:`route_checks.assert_route_geometry`).

A change that is meant to keep plans (a faster feasibility test, a
leaner candidate) must leave this file passing unedited. A change that
moves a plan on purpose re-records the values here in its own commit
and says why.
"""

import functools

import pytest

from repro.core.config import PlannerConfig
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
    ("chicago", "tiny", "eta-pre", "default"): ((19, 29, 26, 24, 27), 3, 80, 80, 0, 9, 86.30463243712572, 0.393703560577481, 0.24360165185867766, 0.39370356057748124),
    ("chicago", "tiny", "eta", "default"): ((19, 29, 26, 24, 27), 3, 78, 78, 0, 11, 86.30463243712572, 0.393703560577481, 0.24360165185867766, 0.39370356057748124),
    ("chicago", "tiny", "eta-all", "default"): ((19, 29, 26, 24, 27), 3, 78, 78, 0, 11, 86.30463243712572, 0.393703560577481, 0.24360165185867766, 0.39370356057748124),
    ("chicago", "tiny", "vk-tsp", "default"): ((19, 29, 26, 24, 27), 3, 45, 45, 0, 9, 86.30463243712572, 0.393703560577481, 0.24360165185867766, 0.39370356057748124),
    ("nyc", "tiny", "eta-pre", "default"): ((8, 7, 26, 27, 14, 30, 43, 64, 36), 3, 156, 156, 0, 10, 78.52860058037442, 0.40899451029875306, 0.19538768953036184, 0.4089945102987542),
    ("nyc", "tiny", "eta", "default"): ((26, 27, 40, 61, 39), 3, 155, 155, 0, 10, 87.6179911428272, 0.42824560959882174, 0.20804544439748965, 0.4282456095988243),
    ("nyc", "tiny", "eta-all", "default"): ((26, 27, 40, 61, 39), 3, 155, 155, 0, 10, 87.6179911428272, 0.42824560959882174, 0.20804544439748965, 0.4282456095988243),
    ("nyc", "tiny", "vk-tsp", "default"): ((23, 25, 54, 56), 1, 104, 104, 0, 13, 102.56958841852446, 0.15668763437763059, 0.12137061336259136, 0.1566876343776311),
    ("manhattan", "tiny", "eta-pre", "default"): ((20, 17, 18, 23, 21), 3, 56, 56, 0, 7, 41.77430425695718, 0.7492023168196092, 0.31371569417561995, 0.7492023168196087),
    ("manhattan", "tiny", "eta", "default"): ((14, 20, 17, 18, 23), 3, 56, 56, 0, 6, 48.05789886042621, 0.6591854769115398, 0.2955794830139196, 0.6591854769115382),
    ("manhattan", "tiny", "eta-all", "default"): ((14, 20, 17, 18, 23), 3, 56, 56, 0, 6, 48.05789886042621, 0.6591854769115398, 0.2955794830139196, 0.6591854769115382),
    ("manhattan", "tiny", "vk-tsp", "default"): ((14, 20, 15), 1, 29, 29, 0, 5, 52.02300291865325, 0.26951662572907337, 0.17686694079562043, 0.269516625729072),
    ("queens", "tiny", "eta-pre", "default"): ((2, 12, 8, 10, 13), 3, 35, 35, 0, 3, 55.07683458049189, 0.5444545922347591, 0.45075226859318357, 0.5444545922347572),
    ("queens", "tiny", "eta", "default"): ((2, 12, 8, 10, 13), 3, 35, 35, 0, 3, 55.07683458049189, 0.5444545922347591, 0.45075226859318357, 0.5444545922347572),
    ("queens", "tiny", "eta-all", "default"): ((2, 12, 8, 10, 13), 3, 35, 35, 0, 3, 55.07683458049189, 0.5444545922347591, 0.45075226859318357, 0.5444545922347572),
    ("queens", "tiny", "vk-tsp", "default"): ((9, 10, 13), 1, 16, 16, 0, 4, 44.79321173619401, 0.3385163036558059, 0.3064052878922669, 0.33851630365580565),
    ("brooklyn", "tiny", "eta-pre", "default"): ((4, 7, 5), 1, 17, 17, 0, 3, 30.66562951862526, 0.6295088533870666, 0.5501343780978862, 0.6295088533870667),
    ("brooklyn", "tiny", "eta", "default"): ((4, 7, 5), 1, 17, 17, 0, 3, 30.66562951862526, 0.6295088533870666, 0.5501343780978862, 0.6295088533870667),
    ("brooklyn", "tiny", "eta-all", "default"): ((4, 7, 5), 1, 17, 17, 0, 3, 30.66562951862526, 0.6295088533870666, 0.5501343780978862, 0.6295088533870667),
    ("brooklyn", "tiny", "vk-tsp", "default"): ((5, 7), 0, 4, 4, 0, 1, 15.857011536701023, 0.6295088533870666, 0.4700513499624079, 0.6295088533870667),
    ("staten_island", "tiny", "eta-pre", "default"): ((8, 9, 10), 1, 22, 22, 0, 4, 26.212499220812568, 0.6931837107022129, 0.42747525507306683, 0.6931837107022139),
    ("staten_island", "tiny", "eta", "default"): ((8, 9, 10), 1, 22, 22, 0, 4, 26.212499220812568, 0.6931837107022129, 0.42747525507306683, 0.6931837107022139),
    ("staten_island", "tiny", "eta-all", "default"): ((8, 9, 10), 1, 22, 22, 0, 4, 26.212499220812568, 0.6931837107022129, 0.42747525507306683, 0.6931837107022139),
    ("staten_island", "tiny", "vk-tsp", "default"): ((8, 9, 10), 1, 12, 12, 0, 1, 26.212499220812568, 0.6931837107022129, 0.42747525507306683, 0.6931837107022139),
    ("bronx", "tiny", "eta-pre", "default"): ((0, 1, 4), 1, 8, 8, 0, 2, 16.774156340498966, 0.2754827584506945, 0.7304968576410282, 0.2754827584506927),
    ("bronx", "tiny", "eta", "default"): ((0, 1, 4), 1, 8, 8, 0, 2, 16.774156340498966, 0.2754827584506945, 0.7304968576410282, 0.2754827584506927),
    ("bronx", "tiny", "eta-all", "default"): ((0, 1, 4), 1, 8, 8, 0, 2, 16.774156340498966, 0.2754827584506945, 0.7304968576410282, 0.2754827584506927),
    ("bronx", "tiny", "vk-tsp", "default"): ((4,), 0, 1, 1, 0, 0, 6.6307573639621795, 0.2754827584506945, 0.5911144921478613, 0.2754827584506927),
    ("chicago", "small", "eta-pre", "k=10"): ((106, 107, 102, 101, 16, 89, 92, 129, 131), 3, 436, 436, 9, 15, 399.4405147828168, 0.21908607107461467, 0.5309572196748155, 0.21908607107461453),
    ("chicago", "small", "eta-pre", "k=30"): ((106, 107, 102, 101, 16, 89, 92, 129, 131), 3, 448, 448, 0, 19, 399.4405147828168, 0.21908607107461467, 0.23047761286699897, 0.21908607107461453),
    ("nyc", "small", "eta-pre", "k=10"): ((18, 118, 150, 128, 130, 244, 246, 286), 3, 902, 902, 35, 36, 659.4529612490845, 0.1412335840296856, 0.5490061907582948, 0.1412335840296901),
    ("nyc", "small", "eta-pre", "k=30"): ((1, 19, 187, 206, 201, 27, 141, 95, 244, 246, 286), 3, 947, 947, 0, 41, 862.5397633800243, 0.09918546489399602, 0.21594532143022374, 0.09918546489400093),
    ("chicago", "small", "eta-pre", "forbid-3-7"): ((106, 107, 102, 101, 16, 89, 92, 129, 131), 3, 431, 431, 0, 19, 399.4405147828168, 0.21908607107461467, 0.23047761286699897, 0.21908607107461453),
    ("chicago", "small", "eta-pre", "anchor-5"): ((106, 107, 68, 4, 74, 80, 78, 125), 3, 16, 16, 0, 0, 196.49892015402747, 0.1591841495531716, 0.14223267947499457, 0.1591841495531785),
    ("nyc", "small", "eta-pre", "forbid-3-7"): ((1, 19, 187, 206, 201, 27, 141, 95, 244, 246, 286), 3, 921, 921, 0, 39, 862.5397633800243, 0.09918546489399602, 0.21594532143022374, 0.09918546489400093),
    ("nyc", "small", "eta-pre", "anchor-5"): ((1, 19, 187, 206, 201, 27, 141, 95, 244, 246, 286), 3, 35, 35, 0, 0, 862.5397633800243, 0.09918546489399602, 0.21594532143022374, 0.09918546489400093),
}

# The paper's Lanczos + Hutchinson estimator (increment_mode="hutchinson",
# Sec. 5.1), kept as the reference: eta-pre on the 7 tiny cities, fields
# as in GOLDEN. These are the plans of the default mode before the block
# Lanczos kernel replaced the estimator there.
HUTCHINSON_GOLDEN = {
    "chicago": ((19, 29, 26, 24, 27), 3, 85, 85, 0, 11, 86.30463243712572, 0.4244565440609869, 0.2640206984483145, 0.39370356057748124),
    "nyc": ((39, 61, 15, 30, 43, 64), 3, 160, 160, 0, 9, 84.1548991075621, 0.3615678351430447, 0.17823215594143366, 0.3182264235822041),
    "manhattan": ((14, 21, 23, 18, 17), 3, 58, 58, 0, 4, 41.61469151814874, 0.7094111149388991, 0.2999226673671558, 0.6344129781064072),
    "queens": ((2, 12, 8, 10, 13), 3, 35, 35, 0, 4, 55.076834580491884, 0.40571131599974564, 0.5004876215784282, 0.5444545922347572),
    "brooklyn": ((4, 7, 5), 1, 17, 17, 0, 3, 30.66562951862526, 0.6319515530468227, 0.571895032206224, 0.6295088533870667),
    "staten_island": ((8, 9, 10), 1, 23, 23, 0, 4, 26.212499220812568, 0.627126726167365, 0.4699962059015771, 0.6931837107022139),
    "bronx": ((0, 1, 4), 1, 8, 8, 0, 2, 16.774156340498966, 0.34616724641477736, 0.7304968576410285, 0.2754827584506927),
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
def _planner(city: str, profile: str, increment_mode: str = "exact") -> CTBusPlanner:
    config = PlannerConfig(increment_mode=increment_mode)
    return CTBusPlanner(canned_city(city, profile), config)


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
    estimated, exact = got[7], got[9]
    assert estimated == pytest.approx(exact, rel=REL)


@pytest.mark.parametrize("city", CITY_NAMES)
def test_hutchinson_reference_matches_golden(city):
    planner = _planner(city, "tiny", "hutchinson")
    pre, result = planner.precomputation, planner.plan("eta-pre")
    assert_route_geometry(pre.universe, result.route, pre.config.k, pre.config.max_turns)
    got = _observed(pre, result)
    want = HUTCHINSON_GOLDEN[city]
    assert got[:6] == want[:6]
    assert got[6:] == pytest.approx(want[6:], rel=REL)
