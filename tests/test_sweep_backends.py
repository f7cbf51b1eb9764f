"""Execution-backend tests: oracle equality, sharding, failure isolation.

The backend contract (see :mod:`repro.sweep.backends`): every backend
returns outcomes in input order that are bit-identical to serial
planner-facade calls; the sharded backend additionally isolates
per-scenario failures instead of killing the sweep.
"""

import os
import threading
import time

import pytest

from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.sweep import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    Scenario,
    SerialBackend,
    ShardedBackend,
    SweepRunner,
    execute_shard,
    expand_grid,
    make_shards,
    outcomes_table,
    resolve_backend,
)
from repro.sweep.backends import failure_outcome
from repro.utils.errors import PlanningError

BASE = PlannerConfig(k=8, max_iterations=150, seed_count=100)

GRID = {
    "w": [0.3, 0.5, 0.7],
    "method": ["eta-pre", "vk-tsp"],
}

LOCAL_BACKEND_NAMES = tuple(n for n in BACKEND_NAMES if n != "remote")
"""The in-process backends (the remote backend needs worker daemons;
its oracle/failure tests live in tests/test_sweep_remote.py)."""


@pytest.fixture(scope="module")
def grid_scenarios():
    return expand_grid(GRID, city="chicago", profile="tiny")


@pytest.fixture(scope="module")
def backend_outcomes(grid_scenarios, tmp_path_factory):
    """The same grid through all in-process backends (shared warm cache)."""
    cache_dir = str(tmp_path_factory.mktemp("backend-cache"))
    outcomes = {}
    for backend in LOCAL_BACKEND_NAMES:
        runner = SweepRunner(
            base_config=BASE, cache_dir=cache_dir, workers=2, backend=backend
        )
        outcomes[backend] = runner.run(grid_scenarios)
    return outcomes


class TestBackendOracle:
    """serial, process, and sharded must produce identical PlanResults."""

    def test_all_backends_agree(self, backend_outcomes):
        reference = backend_outcomes["serial"]
        assert len(reference) == 6
        for backend in ("process", "sharded"):
            for ref, out in zip(reference, backend_outcomes[backend]):
                assert out.ok
                assert out.scenario.name == ref.scenario.name
                assert out.result.route.edge_indices == (
                    ref.result.route.edge_indices
                )
                assert out.result.route.stops == ref.result.route.stops
                assert out.result.objective == ref.result.objective
                assert out.result.search_score == ref.result.search_score
                assert out.result.o_d == ref.result.o_d
                assert out.result.o_lambda == ref.result.o_lambda
                assert out.result.iterations == ref.result.iterations

    def test_outcomes_keep_input_order(self, grid_scenarios, backend_outcomes):
        for backend in LOCAL_BACKEND_NAMES:
            names = [o.scenario.name for o in backend_outcomes[backend]]
            assert names == [s.name for s in grid_scenarios]


class TestResolveBackend:
    def test_cli_choices_match_registry(self):
        # cli.BACKEND_CHOICES is a deliberate literal mirror (so parser
        # construction does not import this package); pin them equal.
        from repro.cli import BACKEND_CHOICES

        assert BACKEND_CHOICES == BACKEND_NAMES

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process", workers=3), ProcessBackend)
        assert isinstance(resolve_backend("sharded", workers=3), ShardedBackend)

    def test_instance_passthrough(self):
        backend = ShardedBackend(workers=5)
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(PlanningError, match="unknown execution backend"):
            resolve_backend("quantum")

    def test_runner_rejects_unknown_backend(self, grid_scenarios):
        runner = SweepRunner(base_config=BASE, backend="quantum")
        with pytest.raises(PlanningError):
            runner.run(grid_scenarios)

    def test_workers_forwarded(self):
        assert resolve_backend("process", workers=7).effective_workers(100) == 7
        assert resolve_backend("sharded", workers=7).effective_workers(100) == 7

    def test_single_scenario_is_serial(self):
        for name in ("process", "sharded"):
            assert resolve_backend(name, workers=4).effective_workers(1) == 1

    def test_process_shard_size_is_not_an_option(self):
        # process runs the sharded loop with one-scenario shards; the
        # size is part of what "process" means, not a constructor knob.
        with pytest.raises(TypeError):
            ProcessBackend(workers=2, shard_size=3)


class TestWorkerValidation:
    """Non-positive worker/shard counts are config errors, not silent
    clamps (ISSUE 4 satellite): they raise PlanningError, which the CLI
    turns into exit 2."""

    @pytest.mark.parametrize("workers", [0, -1, -100])
    def test_resolve_backend_rejects_nonpositive_workers(self, workers):
        for name in ("process", "sharded"):
            with pytest.raises(PlanningError, match="must be >= 1"):
                resolve_backend(name, workers=workers)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_backend_instances_reject_nonpositive_workers(self, workers):
        # Direct construction bypasses resolve_backend; the count is
        # validated when it is actually used.
        with pytest.raises(PlanningError, match="must be >= 1"):
            ProcessBackend(workers=workers).effective_workers(5)
        with pytest.raises(PlanningError, match="must be >= 1"):
            ShardedBackend(workers=workers).effective_workers(5)

    def test_make_shards_rejects_nonpositive_shard_count(self, grid_scenarios):
        with pytest.raises(PlanningError, match="shard count must be >= 1"):
            make_shards(grid_scenarios, 0)

    def test_runner_surfaces_worker_validation(self, grid_scenarios, tmp_path):
        runner = SweepRunner(
            base_config=BASE, cache_dir=str(tmp_path), workers=0,
            backend="process",
        )
        with pytest.raises(PlanningError, match="must be >= 1"):
            runner.run(grid_scenarios)


class TestMakeShards:
    def test_every_scenario_exactly_once(self, grid_scenarios):
        shards = make_shards(grid_scenarios, 2)
        indices = sorted(i for shard in shards for i, _ in shard)
        assert indices == list(range(len(grid_scenarios)))

    def test_default_one_shard_per_worker(self, grid_scenarios):
        shards = make_shards(grid_scenarios, 2)
        assert len(shards) == 2
        assert {len(s) for s in shards} == {3}

    def test_explicit_shard_size(self, grid_scenarios):
        # Unweighted shards differ by at most one scenario; the first
        # shards take the remainder.
        shards = make_shards(grid_scenarios, 4)
        assert [len(s) for s in shards] == [2, 2, 1, 1]

    def test_groups_by_dataset(self):
        scenarios = [
            Scenario(name="a", city="chicago", profile="tiny"),
            Scenario(name="b", city="nyc", profile="tiny"),
            Scenario(name="c", city="chicago", profile="tiny"),
            Scenario(name="d", city="nyc", profile="tiny"),
        ]
        shards = make_shards(scenarios, 2)
        cities = [[s.city for _, s in shard] for shard in shards]
        # Same-dataset scenarios end up contiguous (one shard each here).
        assert cities == [["chicago", "chicago"], ["nyc", "nyc"]]

    def test_empty(self):
        assert make_shards([], 4) == [[], [], [], []]


class TestWeightedShards:
    """Capacity-weighted apportionment behind the remote backend."""

    def _grid(self, n):
        return [Scenario(name=f"s{i}", overrides={"w": i}) for i in range(n)]

    def test_apportion_exact_ratios(self):
        from repro.sweep import apportion

        assert apportion(14, [1, 2, 4]) == [2, 4, 8]
        assert apportion(7, [1, 2, 4]) == [1, 2, 4]

    def test_apportion_sums_and_stays_proportional(self):
        from repro.sweep import apportion

        for n in range(0, 40):
            shares = apportion(n, [1, 2, 4])
            assert sum(shares) == n
            exact = [n / 7, 2 * n / 7, 4 * n / 7]
            assert all(abs(s - e) < 1 for s, e in zip(shares, exact))

    def test_apportion_rejects_nonpositive_weights(self):
        from repro.sweep import apportion

        with pytest.raises(PlanningError, match="positive"):
            apportion(5, [1, 0])
        with pytest.raises(PlanningError, match="weight"):
            apportion(5, [])

    def test_weighted_shards_cover_grid_with_proportional_sizes(self):
        shards = make_shards(self._grid(14), 3, weights=[1, 2, 4])
        assert [len(s) for s in shards] == [2, 4, 8]
        indices = sorted(i for shard in shards for i, _ in shard)
        assert indices == list(range(14))

    def test_weighted_shards_keep_positional_pairing_with_empties(self):
        # 2 scenarios, 3 workers: light workers get empty shards but the
        # shard-i-to-worker-i pairing is preserved.
        shards = make_shards(self._grid(2), 3, weights=[1, 2, 4])
        assert len(shards) == 3
        assert [len(s) for s in shards] == [0, 1, 1]

    def test_weight_count_must_match_shard_count(self):
        with pytest.raises(PlanningError, match="2 weights for 3"):
            make_shards(self._grid(4), 3, weights=[1, 2])

    def test_weights_accepts_a_generator(self):
        shards = make_shards(self._grid(6), 2, weights=iter([1, 2]))
        assert [len(s) for s in shards] == [2, 4]


class TestFailureIsolation:
    """One bad scenario must not kill a sharded sweep (acceptance)."""

    @pytest.fixture(scope="class")
    def mixed_outcomes(self, tmp_path_factory):
        scenarios = expand_grid(
            GRID, city="chicago", profile="tiny"
        ) + [
            Scenario(
                name="ok-anchor",
                constraints=PlanningConstraints(anchor_stop=0),
            ),
            Scenario(
                name="bad-anchor",
                constraints=PlanningConstraints(anchor_stop=999_999),
            ),
        ]
        assert len(scenarios) >= 8
        runner = SweepRunner(
            base_config=BASE,
            cache_dir=str(tmp_path_factory.mktemp("fail-cache")),
            workers=2,
            backend="sharded",
        )
        return scenarios, runner.run(scenarios)

    def test_failure_recorded_others_survive(self, mixed_outcomes):
        scenarios, outcomes = mixed_outcomes
        assert len(outcomes) == len(scenarios)
        by_name = {o.scenario.name: o for o in outcomes}
        bad = by_name["bad-anchor"]
        assert not bad.ok
        assert bad.results == ()
        assert "anchor stop" in bad.error
        for name, outcome in by_name.items():
            if name != "bad-anchor":
                assert outcome.ok
                assert outcome.result is not None

    def test_failed_row_marked_in_table(self, mixed_outcomes):
        _, outcomes = mixed_outcomes
        table = outcomes_table(outcomes)
        assert "FAILED" in table
        assert "bad-anchor" in table

    def test_serial_backend_stays_fail_fast(self, tmp_path):
        bad = Scenario(
            name="bad", constraints=PlanningConstraints(anchor_stop=999_999)
        )
        runner = SweepRunner(
            base_config=BASE, cache_dir=str(tmp_path), backend="serial"
        )
        with pytest.raises(Exception, match="anchor stop"):
            runner.run([bad])

    def test_execute_shard_isolates_and_indexes(self, tmp_path):
        good = Scenario(name="good")
        bad = Scenario(
            name="bad", constraints=PlanningConstraints(anchor_stop=999_999)
        )
        pairs = execute_shard(
            [(4, good), (9, bad)], BASE, str(tmp_path)
        )
        assert [i for i, _ in pairs] == [4, 9]
        assert pairs[0][1].ok and pairs[0][1].result is not None
        assert not pairs[1][1].ok

    def test_prewarm_error_defers_to_backend(self, tmp_path, monkeypatch):
        """A precompute that raises in the parent's prewarm must not kill
        the sweep: the key stays cold and the workers (where the sharded
        backend isolates failures) own the error."""
        import os

        import repro.sweep.cache as cache_mod

        parent_pid = os.getpid()
        real_precompute = cache_mod.precompute

        def _boom(dataset, config):
            # Fork-started workers inherit this patch, so gate on pid:
            # only the parent's prewarm call explodes.
            if os.getpid() == parent_pid:
                raise RuntimeError("parent-side precompute exploded")
            return real_precompute(dataset, config)

        monkeypatch.setattr(cache_mod, "precompute", _boom)
        scenarios = expand_grid(
            {"w": [0.3, 0.7]}, city="chicago", profile="tiny"
        )
        runner = SweepRunner(
            base_config=BASE,
            cache_dir=str(tmp_path),
            workers=2,
            backend="sharded",
        )
        outcomes = runner.run(scenarios)  # must not raise
        assert all(o.ok for o in outcomes)
        assert all(o.result is not None for o in outcomes)

    def test_failure_outcome_shape(self):
        out = failure_outcome(Scenario(name="x"), ValueError("boom"))
        assert out.error == "ValueError: boom"
        assert out.results == () and out.result is None
        assert not out.ok


def _marker_scenario(scenario, base_config=None, cache_dir=None):
    """Module-level execute_scenario stand-in (picklable for the pool).

    Writes one marker file per executed scenario into ``cache_dir``
    (repurposed as the marker directory), raises for the doomed
    scenario, and sleeps long enough elsewhere that the parent's abort
    handling races ahead of the queue.
    """
    open(os.path.join(cache_dir, scenario.name), "w").close()
    if scenario.name == "doomed":
        raise RuntimeError("boom")
    time.sleep(0.75)
    return failure_outcome(scenario, ValueError("result unused"))


class TestFailFastAbort:
    """A fail-fast abort must cancel still-queued scenarios instead of
    letting them run to completion behind the caller's back."""

    def test_process_abort_cancels_queued_scenarios(
        self, tmp_path, monkeypatch
    ):
        import repro.sweep.backends as backends_mod

        monkeypatch.setattr(
            backends_mod, "execute_scenario", _marker_scenario
        )
        scenarios = [Scenario(name="doomed")] + [
            Scenario(name=f"sleeper-{i}") for i in range(7)
        ]
        backend = ProcessBackend(workers=2)
        with pytest.raises(RuntimeError, match="boom"):
            backend.run(scenarios, BASE, str(tmp_path))
        # The doomed scenario fails almost instantly while every other
        # one sleeps; by the time the parent sees the failure at most
        # the two in-flight sleepers (plus immediate pickups) have
        # started. Without cancel_futures all 8 markers appear.
        executed = len(list(tmp_path.iterdir()))
        assert executed < len(scenarios), (
            "queued scenarios ran to completion after a fail-fast abort"
        )

    def test_process_abort_on_broken_callback_cancels_queue(
        self, tmp_path, monkeypatch
    ):
        import repro.sweep.backends as backends_mod

        monkeypatch.setattr(
            backends_mod, "execute_scenario", _marker_scenario
        )
        scenarios = [Scenario(name=f"sleeper-{i}") for i in range(8)]

        def broken_transport(index, outcome):
            raise OSError("stream transport gone")

        backend = ProcessBackend(workers=2)
        with pytest.raises(OSError, match="transport"):
            backend.run(
                scenarios, BASE, str(tmp_path), on_outcome=broken_transport
            )
        executed = len(list(tmp_path.iterdir()))
        assert executed < len(scenarios)


class ScriptedBackend(ExecutionBackend):
    """Yields a fixed script of ``(index, outcome)`` pairs and records
    whether its consumer closed it early."""

    name = "scripted"

    def __init__(self, script):
        self.script = script
        self.cancelled = False

    def effective_workers(self, n_scenarios):
        return 1

    def outcomes(self, scenarios, base_config=None, cache_dir=None):
        try:
            yield from self.script
        except GeneratorExit:
            self.cancelled = True
            raise


class TestRunConsumer:
    """ExecutionBackend.run is the one consumer of outcomes(): it puts
    them in input order and closes the generator when delivery fails."""

    def test_returns_input_order(self):
        backend = ScriptedBackend([(2, "c"), (0, "a"), (1, "b")])
        assert backend.run(["x", "y", "z"]) == ["a", "b", "c"]
        assert not backend.cancelled

    def test_broken_callback_closes_the_generator(self):
        backend = ScriptedBackend([(1, "b"), (0, "a")])

        def broken_transport(index, outcome):
            raise OSError("stream transport gone")

        with pytest.raises(OSError, match="transport") as excinfo:
            backend.run(["x", "y"], on_outcome=broken_transport)
        # excinfo keeps run's frame, and so the generator, alive: only an
        # explicit close can have run the backend's cancellation by now.
        assert backend.cancelled


class TestStreamingCallbacks:
    """The on_outcome event channel: every index fires exactly once, on
    the calling thread, with the same object the result list returns."""

    @pytest.mark.parametrize("backend", LOCAL_BACKEND_NAMES)
    def test_each_index_fires_once_with_returned_outcome(
        self, backend, grid_scenarios, tmp_path
    ):
        events = []
        callback_threads = set()

        def on_outcome(index, outcome):
            events.append((index, outcome))
            callback_threads.add(threading.get_ident())

        runner = SweepRunner(
            base_config=BASE, cache_dir=str(tmp_path), workers=2,
            backend=backend,
        )
        outcomes = runner.run(grid_scenarios, on_outcome=on_outcome)
        assert sorted(i for i, _ in events) == list(range(len(grid_scenarios)))
        for index, outcome in events:
            assert outcome is outcomes[index]
        # Consumers such as StreamWriter are single-threaded: the pool's
        # own threads must never run the callback.
        assert callback_threads == {threading.get_ident()}

    def test_serial_callbacks_in_input_order(self, grid_scenarios, tmp_path):
        order = []
        runner = SweepRunner(
            base_config=BASE, cache_dir=str(tmp_path), backend="serial"
        )
        runner.run(grid_scenarios, on_outcome=lambda i, o: order.append(i))
        assert order == list(range(len(grid_scenarios)))

    def test_prewarm_correction_applied_before_callback(
        self, grid_scenarios, tmp_path
    ):
        """Streamed cache_hit flags must match the returned outcomes:
        the parent's prewarm miss is re-attributed before the event."""
        streamed = {}
        runner = SweepRunner(
            base_config=BASE, cache_dir=str(tmp_path), workers=2,
            backend="process",
        )
        outcomes = runner.run(
            grid_scenarios,
            on_outcome=lambda i, o: streamed.update({i: o.cache_hit}),
        )
        assert [streamed[i] for i in range(len(outcomes))] == [
            o.cache_hit for o in outcomes
        ]
        # The cold cache means at least one scenario really missed.
        assert False in streamed.values()
