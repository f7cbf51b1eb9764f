"""Oracle tests: sweep results must equal serial planner-facade calls.

The acceptance contract for the sweep engine: a parallel 3x2 grid over
methods x weights produces, scenario for scenario, exactly the route
edges and scores of serially calling :class:`CTBusPlanner` — warm cache
artifacts included.
"""

import json

import pytest

from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.core.planner import CTBusPlanner
from repro.data.datasets import canned_city
from repro.sweep import (
    PrecomputationCache,
    Scenario,
    SweepRunner,
    cache_summary,
    expand_grid,
    load_grid,
    outcomes_table,
    sweep_precomputation,
)
from repro.utils.errors import DataError, PlanningError, ValidationError

BASE = PlannerConfig(k=8, max_iterations=150, seed_count=100)

GRID = {
    "w": [0.3, 0.5, 0.7],
    "method": ["eta-pre", "vk-tsp"],
}


@pytest.fixture(scope="module")
def grid_scenarios():
    return expand_grid(GRID, city="chicago", profile="tiny")


@pytest.fixture(scope="module")
def parallel_outcomes(grid_scenarios, tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("sweep-cache"))
    runner = SweepRunner(base_config=BASE, cache_dir=cache_dir, workers=2)
    return runner.run(grid_scenarios), runner, cache_dir


class TestOracle:
    def test_grid_size(self, grid_scenarios):
        assert len(grid_scenarios) == 6  # 3 weights x 2 methods

    def test_parallel_matches_serial_planner(
        self, grid_scenarios, parallel_outcomes
    ):
        outcomes, runner, _ = parallel_outcomes
        dataset = canned_city("chicago", "tiny")
        for scenario, outcome in zip(runner.resolve(grid_scenarios), outcomes):
            serial = CTBusPlanner(
                dataset, scenario.planner_config(BASE)
            ).plan(scenario.method)
            swept = outcome.result
            assert swept.route is not None
            assert swept.route.edge_indices == serial.route.edge_indices
            assert swept.route.stops == serial.route.stops
            assert swept.route.new_pairs == serial.route.new_pairs
            assert swept.objective == serial.objective
            assert swept.search_score == serial.search_score
            assert swept.o_d == serial.o_d
            assert swept.o_lambda == serial.o_lambda
            assert swept.iterations == serial.iterations

    def test_serial_runner_matches_parallel(
        self, grid_scenarios, parallel_outcomes, tmp_path
    ):
        outcomes, _, _ = parallel_outcomes
        serial_runner = SweepRunner(base_config=BASE, workers=1)
        serial = serial_runner.run(grid_scenarios)
        for a, b in zip(outcomes, serial):
            assert a.result.route.edge_indices == b.result.route.edge_indices
            assert a.result.objective == b.result.objective


class TestCacheAcrossRuns:
    def test_cold_parallel_run_computes_each_key_once(
        self, grid_scenarios, parallel_outcomes
    ):
        # The parent prewarms unique keys before spawning workers, so a
        # cold parallel sweep reports exactly one miss per unique key
        # (here: one) instead of a thundering herd of identical computes.
        outcomes, _, _ = parallel_outcomes
        misses = [o for o in outcomes if o.cache_hit is False]
        assert len(misses) == 1
        assert sum(1 for o in outcomes if o.cache_hit is True) == 5

    def test_second_run_hits_cache(self, grid_scenarios, parallel_outcomes):
        _, _, cache_dir = parallel_outcomes
        runner = SweepRunner(base_config=BASE, cache_dir=cache_dir, workers=2)
        outcomes = runner.run(grid_scenarios)
        assert all(o.cache_hit is True for o in outcomes)
        summary = cache_summary(outcomes, cache_dir)
        assert "6 hits" in summary and "0 misses" in summary

    def test_scenarios_share_one_entry(self, parallel_outcomes):
        # k/w/method/seed_count do not affect the key: one dataset, one entry.
        _, _, cache_dir = parallel_outcomes
        assert PrecomputationCache(cache_dir).n_entries == 1

    def test_warm_results_equal_cold(self, grid_scenarios, parallel_outcomes):
        outcomes, _, cache_dir = parallel_outcomes
        warm = SweepRunner(base_config=BASE, cache_dir=cache_dir, workers=1).run(
            grid_scenarios
        )
        for cold, hot in zip(outcomes, warm):
            assert cold.result.route.edge_indices == hot.result.route.edge_indices
            assert cold.result.objective == hot.result.objective


class TestScenarioValidation:
    def test_unknown_method_rejected(self):
        with pytest.raises(PlanningError):
            SweepRunner(base_config=BASE).run([Scenario(name="x", method="magic")])

    def test_bad_override_rejected(self):
        with pytest.raises(PlanningError):
            Scenario(name="x", overrides={"warp": 9}).validate(BASE)

    def test_constraints_require_supported_method(self):
        constraints = PlanningConstraints(anchor_stop=0)
        with pytest.raises(PlanningError):
            Scenario(name="x", method="vk-tsp", constraints=constraints).validate(BASE)

    def test_non_constraints_object_rejected(self):
        match = "'constraints' must be PlanningConstraints"
        with pytest.raises(ValidationError, match=match):
            Scenario(name="x", constraints={"anchor_stop": 0})


class TestLoadGrid:
    """A grid file's refusals are DataErrors that name the file."""

    @pytest.mark.parametrize("grid, named", [
        ({"base": {"route_count": "2"}, "axes": {"w": [0.5]}},
         "'route_count' must be int"),
        ({"axes": {"city": ["atlantis"]}}, "unknown city 'atlantis'"),
        ({"base": {"route_count": "2"}, "scenarios": [{"name": "a"}]},
         "scenario 'a'"),
        ({"axes": {"method": ["nope"]}}, "unknown method 'nope'"),
        ({"base": [1, 2]}, "section 'base'"),
    ])
    def test_refusal_names_the_file(self, tmp_path, grid, named):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        with pytest.raises(DataError) as info:
            load_grid(str(path))
        assert str(info.value).startswith(f"grid file {str(path)!r}: ")
        assert named in str(info.value)


class TestScenarioKinds:
    def test_constrained_scenario_runs(self, tmp_path):
        runner = SweepRunner(base_config=BASE, cache_dir=str(tmp_path), workers=1)
        scenario = Scenario(
            name="anchored", constraints=PlanningConstraints(anchor_stop=0)
        )
        (outcome,) = runner.run([scenario])
        assert outcome.result.method == "eta-pre+constraints"
        if outcome.result.route is not None:
            assert 0 in outcome.result.route.stops

    def test_multi_route_scenario(self, tmp_path):
        runner = SweepRunner(base_config=BASE, cache_dir=str(tmp_path), workers=1)
        (outcome,) = runner.run([Scenario(name="two", route_count=2)])
        assert 1 <= len(outcome.results) <= 2
        table = outcomes_table([outcome])
        assert "two#1" in table

    def test_in_process_sweep_rejects_constraints(self, grid_scenarios):
        dataset = canned_city("chicago", "tiny")
        pre = CTBusPlanner(dataset, BASE).precomputation
        bad = Scenario(name="x", constraints=PlanningConstraints(anchor_stop=0))
        with pytest.raises(PlanningError, match="SweepRunner"):
            sweep_precomputation(pre, [bad])
        with pytest.raises(PlanningError, match="SweepRunner"):
            sweep_precomputation(pre, [Scenario(name="y", route_count=2)])

    def test_in_process_sweep_matches_runner(self, grid_scenarios):
        dataset = canned_city("chicago", "tiny")
        planner = CTBusPlanner(dataset, BASE)
        outcomes = sweep_precomputation(planner.precomputation, grid_scenarios)
        for scenario, outcome in zip(grid_scenarios, outcomes):
            serial = CTBusPlanner(
                dataset, scenario.planner_config(BASE)
            ).plan(scenario.method)
            assert outcome.result.route.edge_indices == serial.route.edge_indices
            assert outcome.result.objective == serial.objective


class TestCacheKeyProperties:
    """scenario_cache_key invariants over seeded-random grids: stable
    across override order and spec round-trips, sensitive to exactly
    the precompute-relevant config fields (the rebind contract), and
    deliberately shared across search-knob-only variations."""

    def _random_overrides(self, rng):
        overrides = {}
        if rng.random() < 0.7:
            overrides["w"] = rng.choice([0.2, 0.4, 0.6, 0.8])
        if rng.random() < 0.5:
            overrides["k"] = rng.choice([4, 6, 10])
        if rng.random() < 0.5:
            overrides["tau_km"] = rng.choice([0.4, 0.5, 0.6])
        if rng.random() < 0.3:
            overrides["increment_mode"] = "hutchinson"
        return overrides

    def test_cache_key_order_independent_and_spec_stable(self):
        import json
        import random

        from repro.sweep import scenario_cache_key
        from repro.utils.wire import from_wire, to_wire

        rng = random.Random(0xBEEF)
        for i in range(30):
            overrides = self._random_overrides(rng)
            scenario = Scenario(name=f"p{i}", overrides=overrides)
            items = list(scenario.overrides.items())
            rng.shuffle(items)
            shuffled = Scenario(name=f"p{i}-shuffled", overrides=dict(items))
            key = scenario_cache_key(scenario, BASE)
            assert scenario_cache_key(shuffled, BASE) == key
            round_tripped = from_wire(
                Scenario, json.loads(json.dumps(to_wire(scenario)))
            )
            assert scenario_cache_key(round_tripped, BASE) == key

    def test_cache_key_tracks_precompute_fields_only(self):
        from repro.sweep import scenario_cache_key

        base_key = scenario_cache_key(Scenario(name="a"), BASE)
        # Search knobs are excluded by design: one warm entry per sweep.
        for knob in ({"w": 0.9}, {"k": 3}, {"seed_count": 33}):
            assert scenario_cache_key(
                Scenario(name="b", overrides=knob), BASE
            ) == base_key
        # Precompute-relevant fields each produce a distinct key.
        distinct = {base_key}
        for knob in ({"tau_km": 0.7}, {"increment_mode": "hutchinson"},
                     {"tau_km": 0.7, "increment_mode": "hutchinson"}):
            distinct.add(scenario_cache_key(
                Scenario(name="c", overrides=knob), BASE
            ))
        assert len(distinct) == 4

    def test_cache_key_matches_cache_key_for(self):
        """The memoized grid path must agree with the cache's own
        keying, or resume records would lie about artifacts."""
        from repro.sweep import PrecomputationCache, scenario_cache_key

        dataset = canned_city("chicago", "tiny")
        scenario = Scenario(name="a", overrides={"tau_km": 0.6})
        cache = PrecomputationCache("unused-dir")
        assert scenario_cache_key(scenario, BASE) == cache.key_for(
            dataset, scenario.planner_config(BASE)
        )
