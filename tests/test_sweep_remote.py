"""Remote-backend tests: wire protocol, oracle parity, failover.

The contract under test (see :mod:`repro.sweep.remote`): worker daemons
execute scenarios through the same :func:`execute_scenario` as every
other backend and stream lossless outcome frames back, so ``remote``
results are bit-identical to ``serial`` (the oracle contract); scenario
failures are isolated worker-side; a worker dying mid-shard has its
unfinished scenarios rebalanced onto survivors; and when *every* worker
dies, the streamed prefix plus ``--resume`` completes the sweep once
workers return.
"""

import json
import socket
import threading

import pytest

from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.cli import main
from repro.sweep import (
    PROTOCOL_VERSION,
    OutcomeRecord,
    RemoteBackend,
    Scenario,
    SweepRunner,
    WorkerServer,
    execute_scenario,
    expand_grid,
    parse_worker_addresses,
    ping,
    read_stream,
    resolve_backend,
    scenario_record,
)
from repro.sweep import RemoteAuthError, scenario_key
from repro.sweep.remote import (
    RemoteProtocolError,
    client_handshake,
    recv_frame,
    send_frame,
    server_handshake,
)
from repro.utils.errors import DataError, PlanningError
from repro.utils.wire import from_wire, to_wire

BASE = PlannerConfig(k=6, max_iterations=120, seed_count=80)

GRID = {
    "w": [0.3, 0.5, 0.7],
    "method": ["eta-pre", "vk-tsp"],
}


@pytest.fixture(scope="module")
def grid_scenarios():
    return expand_grid(GRID, city="chicago", profile="tiny")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One warm artifact cache shared by parent and (local) workers."""
    return str(tmp_path_factory.mktemp("remote-cache"))


@pytest.fixture(scope="module")
def serial_outcomes(grid_scenarios, cache_dir):
    """The reference run every remote result must match bit-for-bit."""
    runner = SweepRunner(base_config=BASE, cache_dir=cache_dir, backend="serial")
    return runner.run(grid_scenarios)


def start_workers(cache_dir, n=2, fail_after_frames=None, **kwargs):
    servers = [
        WorkerServer(
            cache_dir=cache_dir, fail_after_frames=fail_after_frames, **kwargs
        )
        for _ in range(n)
    ]
    for server in servers:
        server.start_in_thread()
    return servers


def open_session(address, secret=None, timeout=5.0):
    """A connected, handshaken socket (the raw-frame test entry point)."""
    sock = socket.create_connection(address, timeout=timeout)
    client_handshake(sock, secret)
    return sock


def addresses_of(servers):
    return [f"{s.host}:{s.port}" for s in servers]


@pytest.fixture(scope="module")
def workers(cache_dir):
    servers = start_workers(cache_dir, n=2)
    yield servers
    for server in servers:
        server.shutdown()


def assert_results_identical(remote_outcomes, serial_outcomes):
    """Bit-identical plan results (timings excluded by construction)."""
    assert len(remote_outcomes) == len(serial_outcomes)
    for remote, serial in zip(remote_outcomes, serial_outcomes):
        assert remote.ok, remote.error
        assert remote.scenario.name == serial.scenario.name
        assert len(remote.results) == len(serial.results)
        for r, s in zip(remote.results, serial.results):
            assert r.route.stops == s.route.stops
            assert r.route.edge_indices == s.route.edge_indices
            assert r.route.new_pairs == s.route.new_pairs
            assert r.route.length_km == s.route.length_km
            assert r.objective == s.objective
            assert r.o_d == s.o_d
            assert r.o_lambda == s.o_lambda
            assert r.o_d_normalized == s.o_d_normalized
            assert r.o_lambda_normalized == s.o_lambda_normalized
            assert r.search_score == s.search_score
            assert r.iterations == s.iterations
            assert r.connectivity_evaluations == s.connectivity_evaluations


# ----------------------------------------------------------------------
# Wire plumbing
# ----------------------------------------------------------------------
class TestFrames:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, {"op": "ping", "payload": [1, 2.5, "x", None]})
            assert recv_frame(b) == {"op": "ping", "payload": [1, 2.5, "x", None]}

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_frame(b) is None

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x00\x00\x00\xff{...")  # promises 255 bytes
            a.close()
            with pytest.raises(RemoteProtocolError, match="mid-frame"):
                recv_frame(b)

    def test_oversized_header_raises(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"\xff\xff\xff\xff")  # ~4 GiB claim: not our protocol
            with pytest.raises(RemoteProtocolError, match="cap"):
                recv_frame(b)

    def test_garbage_payload_raises(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"\x00\x00\x00\x03not")
            with pytest.raises(RemoteProtocolError, match="bad frame"):
                recv_frame(b)


class TestAddresses:
    def test_cli_string(self):
        assert parse_worker_addresses("a:1, b:2 ,") == (("a", 1), ("b", 2))

    def test_pairs_and_strings(self):
        assert parse_worker_addresses([("h", 9), "i:10"]) == (("h", 9), ("i", 10))

    def test_duplicates_kept_for_weighting(self):
        assert parse_worker_addresses("a:1,a:1") == (("a", 1), ("a", 1))

    @pytest.mark.parametrize("bad", ["", "hostonly", "h:", "h:0", "h:x", ":5"])
    def test_bad_entries_rejected(self, bad):
        with pytest.raises(PlanningError):
            parse_worker_addresses(bad if bad else "")


class TestScenarioSpecRoundTrip:
    def test_plain_and_constrained(self):
        scenarios = [
            Scenario(name="plain", overrides={"w": 0.3, "k": 7}),
            Scenario(
                name="constrained",
                method="eta-pre",
                constraints=PlanningConstraints(
                    anchor_stop=2, forbid_stops=frozenset({5}),
                    forbid_edges=frozenset({1, 3}),
                ),
                route_count=1,
            ),
            Scenario(name="multi", route_count=2),
        ]
        for scenario in scenarios:
            spec = json.loads(json.dumps(to_wire(scenario)))
            assert from_wire(Scenario, spec) == scenario

    def test_unknown_keys_rejected(self):
        spec = to_wire(Scenario(name="s"))
        spec["surprise"] = 1
        with pytest.raises(DataError, match="unknown keys"):
            from_wire(Scenario, spec)

    def test_nameless_rejected(self):
        with pytest.raises(DataError, match="missing field 'name'"):
            from_wire(Scenario, {"city": "chicago"})


class TestOutcomeWireRoundTrip:
    def test_lossless_and_stream_schema_compatible(self, cache_dir):
        scenario = Scenario(name="w=0.3", overrides={"w": 0.3})
        outcome = execute_scenario(scenario, BASE, cache_dir)
        wire = json.loads(json.dumps(to_wire(OutcomeRecord.of(outcome))))
        rebuilt = from_wire(OutcomeRecord, wire).outcome(scenario)
        assert rebuilt.scenario is scenario
        assert_results_identical([rebuilt], [outcome])
        # The wire record embeds the stream schema: stripping the wire
        # extension yields exactly scenario_record(outcome), and the
        # rebuilt outcome re-serializes to the same stream record.
        assert rebuilt.cache_hit == outcome.cache_hit
        stripped = {
            k: v for k, v in wire.items()
            if k not in ("results_wire", "schema")
        }
        assert stripped == scenario_record(outcome)
        assert scenario_record(rebuilt) == scenario_record(outcome)

    def test_failure_outcome_travels(self, cache_dir):
        from repro.sweep.backends import failure_outcome

        scenario = Scenario(name="bad")
        outcome = failure_outcome(scenario, ValueError("boom"))
        wire = json.loads(json.dumps(to_wire(OutcomeRecord.of(outcome))))
        rebuilt = from_wire(OutcomeRecord, wire).outcome(scenario)
        assert not rebuilt.ok
        assert rebuilt.error == "ValueError: boom"
        assert rebuilt.results == ()

    def test_schema_mismatch_rejected(self, cache_dir):
        scenario = Scenario(name="w=0.3", overrides={"w": 0.3})
        outcome = execute_scenario(scenario, BASE, cache_dir)
        wire = to_wire(OutcomeRecord.of(outcome))
        wire["schema"] = 999
        with pytest.raises(DataError, match="schema 999"):
            from_wire(OutcomeRecord, wire).outcome(scenario)


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestResolveRemote:
    def test_name_needs_addresses(self):
        with pytest.raises(PlanningError, match="worker addresses"):
            resolve_backend("remote")

    def test_name_with_addresses(self):
        backend = resolve_backend("remote", addresses="h:1,i:2")
        assert isinstance(backend, RemoteBackend)
        assert backend.addresses == (("h", 1), ("i", 2))
        assert backend.effective_workers(10) == 2
        assert backend.effective_workers(1) == 1

    def test_addresses_rejected_for_local_backends(self):
        with pytest.raises(PlanningError, match="only apply"):
            resolve_backend("sharded", addresses="h:1")

    def test_workers_rejected_for_remote(self):
        # --workers would be silently ignored (parallelism is the
        # address list); reject it instead.
        with pytest.raises(PlanningError, match="--workers does not apply"):
            resolve_backend("remote", workers=4, addresses="h:1")

    def test_remote_does_not_use_parent_cache(self):
        assert RemoteBackend.uses_parent_cache is False

    def test_instance_passthrough(self):
        backend = RemoteBackend(addresses=("h:1",))
        assert resolve_backend(backend) is backend

    def test_run_without_addresses_rejected(self):
        with pytest.raises(PlanningError, match="no worker addresses"):
            RemoteBackend().run([Scenario(name="s")])


# ----------------------------------------------------------------------
# Daemon behavior
# ----------------------------------------------------------------------
class TestWorkerServer:
    def test_ping(self, workers):
        pong = ping(workers[0].address)
        assert pong["protocol"] == PROTOCOL_VERSION
        assert pong["cache_dir"] == workers[0].cache_dir

    def test_pong_carries_capacity_and_fingerprint(self, workers):
        pong = ping(workers[0].address)
        assert pong["capacity"] == 1
        assert isinstance(pong["cache_fingerprint"], str)

    def test_unknown_op_answers_error(self, workers):
        with open_session(workers[0].address) as sock:
            send_frame(sock, {"op": "dance"})
            frame = recv_frame(sock)
        assert frame["op"] == "error"
        assert "unknown op" in frame["error"]

    def test_protocol_mismatch_answers_error(self, workers):
        with open_session(workers[0].address) as sock:
            send_frame(sock, {"op": "run", "protocol": 999, "scenarios": []})
            frame = recv_frame(sock)
        assert frame["op"] == "error"
        assert "protocol" in frame["error"]

    def test_bad_job_answers_error(self, workers):
        with open_session(workers[0].address) as sock:
            send_frame(sock, {
                "op": "run", "protocol": PROTOCOL_VERSION,
                "scenarios": [{"index": 0, "scenario": {"name": "x",
                                                        "city": "atlantis"}}],
            })
            frame = recv_frame(sock)
        assert frame["op"] == "error"
        assert "atlantis" in frame["error"]

    def test_nonpositive_capacity_rejected(self, cache_dir):
        with pytest.raises(PlanningError, match="capacity"):
            WorkerServer(cache_dir=cache_dir, capacity=0)

    def test_shutdown_op_stops_daemon(self, cache_dir):
        server = start_workers(cache_dir, n=1)[0]
        with open_session(server.address) as sock:
            send_frame(sock, {"op": "shutdown"})
            assert recv_frame(sock)["op"] == "bye"
        # The listening socket goes away shortly after.
        import time

        for _ in range(50):
            try:
                with socket.create_connection(server.address, timeout=0.2):
                    pass
            except OSError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("daemon still accepting after shutdown op")


# ----------------------------------------------------------------------
# Oracle + streaming + failover (acceptance)
# ----------------------------------------------------------------------
class TestRemoteOracle:
    def test_bit_identical_to_serial(
        self, grid_scenarios, cache_dir, workers, serial_outcomes
    ):
        runner = SweepRunner(
            base_config=BASE, cache_dir=cache_dir, backend="remote",
            addresses=addresses_of(workers),
        )
        remote = runner.run(grid_scenarios)
        assert_results_identical(remote, serial_outcomes)
        assert [o.scenario.name for o in remote] == [
            s.name for s in grid_scenarios
        ]

    def test_on_outcome_fires_once_per_index(
        self, grid_scenarios, cache_dir, workers
    ):
        events = []
        callback_threads = set()

        def on_outcome(index, outcome):
            events.append((index, outcome))
            callback_threads.add(threading.get_ident())

        runner = SweepRunner(
            base_config=BASE, cache_dir=cache_dir, backend="remote",
            addresses=addresses_of(workers),
        )
        outcomes = runner.run(grid_scenarios, on_outcome=on_outcome)
        assert sorted(i for i, _ in events) == list(range(len(grid_scenarios)))
        for index, outcome in events:
            assert outcome is outcomes[index]
        # Driver threads read the frames, but stream writers are
        # single-threaded: the callback must run on the calling thread.
        assert callback_threads == {threading.get_ident()}

    def test_parent_cache_is_not_prewarmed(
        self, grid_scenarios, tmp_path, workers
    ):
        """Remote workers keep their own stores: the parent must not
        burn local CPU prewarming a cache directory nobody reads."""
        parent_cache = tmp_path / "parent-cache"
        runner = SweepRunner(
            base_config=BASE, cache_dir=str(parent_cache), backend="remote",
            addresses=addresses_of(workers),
        )
        outcomes = runner.run(grid_scenarios)
        assert all(o.ok for o in outcomes)
        # No artifacts were computed parent-side (the directory is
        # created lazily on first store, so it should not even exist).
        assert not parent_cache.exists()

    def test_broken_callback_aborts_and_cancels_queued_shards(
        self, grid_scenarios, cache_dir, monkeypatch
    ):
        """A broken on_outcome transport must stop the workers mid-shard
        (the queued-work cancellation the pool backends apply). One
        worker gets one shard, the whole grid, so the rest of that shard
        must not run behind the caller's back: the worker sees the
        hang-up before its next scenario, so at most the scenario it had
        started when the driver closed runs after the first."""
        import time

        import repro.sweep.remote as remote_mod

        executed = []
        real = remote_mod.execute_scenario

        def counting(scenario, base_config=None, cache_dir=None):
            executed.append(scenario.name)
            # Slow enough that the abort reaches the driver before the
            # worker has finished the grid.
            time.sleep(0.05)
            return real(scenario, base_config, cache_dir)

        # In-process daemons share this module global with the test.
        monkeypatch.setattr(remote_mod, "execute_scenario", counting)
        server = start_workers(cache_dir, n=1)[0]
        try:
            backend = RemoteBackend(addresses=[f"{server.host}:{server.port}"])

            def broken_transport(index, outcome):
                raise OSError("stream transport gone")

            with pytest.raises(OSError, match="transport"):
                backend.run(
                    grid_scenarios, BASE, cache_dir,
                    on_outcome=broken_transport,
                )
            time.sleep(1.0)  # let the worker run whatever it still will
            assert len(grid_scenarios) == 6
            assert len(executed) <= 2, (
                f"the shard kept executing after the abort: {executed}"
            )
        finally:
            server.shutdown()

    def test_report_cache_block_not_attributed_to_parent_dir(
        self, grid_scenarios, tmp_path, workers
    ):
        """Worker-side hit/miss flags must not be reported against the
        parent's (unread) cache directory: the summary cache block is
        suppressed, while per-record cache_hit flags keep the
        worker-side truth."""
        runner = SweepRunner(
            base_config=BASE, cache_dir=str(tmp_path / "parent"),
            backend="remote", addresses=addresses_of(workers),
        )
        assert runner.report_cache_dir() is None
        run = runner.run_stream(
            grid_scenarios[:2], str(tmp_path / "s.jsonl")
        )
        assert run.summary["cache"] is None
        assert all(r["cache_hit"] in (True, False) for r in run.records)

    def test_scenario_failure_is_isolated(self, cache_dir, workers):
        scenarios = expand_grid({"w": [0.3, 0.6]}) + [
            Scenario(
                name="doomed",
                constraints=PlanningConstraints(anchor_stop=999_999),
            ),
        ]
        runner = SweepRunner(
            base_config=BASE, cache_dir=cache_dir, backend="remote",
            addresses=addresses_of(workers),
        )
        outcomes = runner.run(scenarios)
        by_name = {o.scenario.name: o for o in outcomes}
        assert not by_name["doomed"].ok
        assert "anchor stop" in by_name["doomed"].error
        for name, outcome in by_name.items():
            if name != "doomed":
                assert outcome.ok
                assert outcome.result is not None


class TestFailover:
    def test_dead_worker_rebalances_onto_survivor(
        self, grid_scenarios, cache_dir, serial_outcomes
    ):
        # Worker A drops every connection after one outcome frame;
        # worker B is healthy. The sweep must still complete, and stay
        # bit-identical: the dying worker's unfinished scenarios are
        # re-run on B, and planning is deterministic either way.
        dying = start_workers(cache_dir, n=1, fail_after_frames=1)[0]
        healthy = start_workers(cache_dir, n=1)[0]
        try:
            runner = SweepRunner(
                base_config=BASE, cache_dir=cache_dir, backend="remote",
                addresses=addresses_of([dying, healthy]),
            )
            outcomes = runner.run(grid_scenarios)
            assert_results_identical(outcomes, serial_outcomes)
        finally:
            dying.shutdown()
            healthy.shutdown()

    def test_all_workers_dead_raises(self, grid_scenarios, cache_dir):
        dying = start_workers(cache_dir, n=1, fail_after_frames=2)[0]
        try:
            runner = SweepRunner(
                base_config=BASE, cache_dir=cache_dir, backend="remote",
                addresses=addresses_of([dying]),
            )
            with pytest.raises(PlanningError, match="all 1 workers died"):
                runner.run(grid_scenarios)
        finally:
            dying.shutdown()

    def test_unreachable_worker_rebalances(self, grid_scenarios, cache_dir,
                                           workers, serial_outcomes):
        # One address nobody listens on: its driver dies on connect and
        # the live workers absorb the whole grid.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        runner = SweepRunner(
            base_config=BASE, cache_dir=cache_dir, backend="remote",
            addresses=[f"127.0.0.1:{dead_port}", *addresses_of(workers)],
        )
        outcomes = runner.run(grid_scenarios)
        assert_results_identical(outcomes, serial_outcomes)

    def test_premature_done_requeues_undelivered_scenarios(
        self, grid_scenarios, cache_dir, workers, serial_outcomes
    ):
        # A faulty worker that answers a shard with an immediate "done"
        # (zero outcome frames) must be retired like a dead worker, its
        # scenarios rebalanced — not silently dropped.
        faulty = socket.socket()
        faulty.bind(("127.0.0.1", 0))
        faulty.listen()

        def _serve_faulty():
            while True:
                try:
                    conn, _ = faulty.accept()
                except OSError:
                    return
                with conn:
                    try:
                        if not server_handshake(conn, None):
                            continue
                        frame = recv_frame(conn)
                        if frame and frame.get("op") == "run":
                            send_frame(conn, {"op": "done", "n_executed": 0})
                    except (OSError, RemoteProtocolError):
                        pass

        import threading

        threading.Thread(target=_serve_faulty, daemon=True).start()
        try:
            faulty_addr = "127.0.0.1:{}".format(faulty.getsockname()[1])
            runner = SweepRunner(
                base_config=BASE, cache_dir=cache_dir, backend="remote",
                addresses=[faulty_addr, *addresses_of(workers)],
            )
            outcomes = runner.run(grid_scenarios)
            assert_results_identical(outcomes, serial_outcomes)
        finally:
            faulty.close()

    def test_kill_mid_sweep_then_resume_completes(
        self, grid_scenarios, cache_dir, tmp_path, serial_outcomes
    ):
        """ISSUE 4 acceptance: kill a worker mid-sweep; the stream keeps
        the committed prefix, and --resume against recovered workers
        finishes the run bit-identically."""
        path = str(tmp_path / "killed.jsonl")
        dying = start_workers(cache_dir, n=1, fail_after_frames=2)[0]
        runner = SweepRunner(
            base_config=BASE, cache_dir=cache_dir, backend="remote",
            addresses=addresses_of([dying]),
        )
        with pytest.raises(PlanningError, match="workers died"):
            runner.run_stream(grid_scenarios, path)
        dying.shutdown()

        partial = read_stream(path)
        assert partial.summary is None  # aborted: no terminal summary
        assert 0 < len(partial.scenarios) < len(grid_scenarios)

        recovered = start_workers(cache_dir, n=2)
        try:
            runner = SweepRunner(
                base_config=BASE, cache_dir=cache_dir, backend="remote",
                addresses=addresses_of(recovered),
            )
            run = runner.run_stream(grid_scenarios, path, resume=True)
        finally:
            for server in recovered:
                server.shutdown()
        assert run.n_replayed == len(partial.scenarios)
        final = read_stream(path)
        assert final.summary is not None
        assert final.summary["n_ok"] == len(grid_scenarios)
        # Replayed + fresh records together match the serial reference.
        serial_records = [scenario_record(o) for o in serial_outcomes]
        for record, reference in zip(run.records, serial_records):
            got = [
                {k: v for k, v in result.items() if k != "runtime_s"}
                for result in record["results"]
            ]
            want = [
                {k: v for k, v in result.items() if k != "runtime_s"}
                for result in reference["results"]
            ]
            assert got == want


# ----------------------------------------------------------------------
# Authenticated wire
# ----------------------------------------------------------------------
class TestAuthenticatedSweeps:
    SECRET = b"remote-fabric-test-secret"

    def test_authed_sweep_bit_identical_to_serial(
        self, grid_scenarios, cache_dir, serial_outcomes
    ):
        servers = start_workers(cache_dir, n=2, secret=self.SECRET)
        try:
            runner = SweepRunner(
                base_config=BASE, cache_dir=cache_dir, backend="remote",
                addresses=addresses_of(servers), secret=self.SECRET,
            )
            assert_results_identical(runner.run(grid_scenarios), serial_outcomes)
        finally:
            for server in servers:
                server.shutdown()

    def test_wrong_secret_runs_nothing_and_raises(
        self, grid_scenarios, cache_dir, monkeypatch
    ):
        import repro.sweep.remote as remote_mod

        executed = []
        monkeypatch.setattr(
            remote_mod, "execute_scenario",
            lambda *a, **k: executed.append(1),
        )
        server = start_workers(cache_dir, n=1, secret=self.SECRET)[0]
        try:
            runner = SweepRunner(
                base_config=BASE, cache_dir=cache_dir, backend="remote",
                addresses=addresses_of([server]), secret=b"not-the-secret",
            )
            with pytest.raises(PlanningError, match="authentication failed"):
                runner.run(grid_scenarios)
        finally:
            server.shutdown()
        assert executed == []

    def test_missing_secret_is_typed_client_side(self, cache_dir):
        server = start_workers(cache_dir, n=1, secret=self.SECRET)[0]
        try:
            with pytest.raises(RemoteAuthError, match="requires authentication"):
                ping(server.address)
        finally:
            server.shutdown()

    def test_secretless_daemon_accepts_secret_bearing_client(self, cache_dir):
        server = start_workers(cache_dir, n=1)[0]
        try:
            assert ping(server.address, secret=b"whatever")["op"] == "pong"
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# Capacity-weighted sharding
# ----------------------------------------------------------------------
class TestWeightedSharding:
    def test_static_weights_shape_the_distribution(
        self, grid_scenarios, cache_dir, serial_outcomes
    ):
        """Addresses [light, heavy, heavy] over 6 scenarios: the repeated
        worker weighs 2 and gets exactly twice the scenarios, and
        results stay bit-identical."""
        from collections import Counter

        servers = start_workers(cache_dir, n=2)
        try:
            light, heavy = addresses_of(servers)
            backend = RemoteBackend(addresses=[light, heavy, heavy])
            outcomes = backend.run(grid_scenarios, BASE, None)
            assert_results_identical(outcomes, serial_outcomes)
            counts = Counter(o.worker for o in outcomes)
            assert counts == {light: 2, heavy: 4}
        finally:
            for server in servers:
                server.shutdown()

    def test_outcome_worker_stamp_survives_streaming(
        self, grid_scenarios, cache_dir, workers, tmp_path
    ):
        runner = SweepRunner(
            base_config=BASE, cache_dir=cache_dir, backend="remote",
            addresses=addresses_of(workers),
        )
        run = runner.run_stream(grid_scenarios, str(tmp_path / "s.jsonl"))
        assert {r["worker"] for r in run.records} <= set(addresses_of(workers))
        assert all(r["worker"] for r in run.records)

    def test_dead_heavy_worker_rebalances_onto_light_survivor(
        self, grid_scenarios, cache_dir, serial_outcomes
    ):
        """The dying worker, listed four times (weight 4), drops each
        connection after one frame; the weight-1 survivor absorbs the
        requeued scenarios bit-identically."""
        dying = start_workers(cache_dir, n=1, fail_after_frames=1)[0]
        healthy = start_workers(cache_dir, n=1)[0]
        try:
            backend = RemoteBackend(
                addresses=addresses_of([dying] * 4 + [healthy])
            )
            outcomes = backend.run(grid_scenarios, BASE, None)
            assert_results_identical(outcomes, serial_outcomes)
            survivors = {o.worker for o in outcomes}
            assert f"{healthy.host}:{healthy.port}" in survivors
        finally:
            dying.shutdown()
            healthy.shutdown()


# ----------------------------------------------------------------------
# Key-stability properties (seeded-random grids)
# ----------------------------------------------------------------------
class TestKeyStabilityProperties:
    """scenario_key / scenario_cache_key invariants the resume and wire
    layers depend on: override-order independence, injectivity across
    distinct resolved specs, and stability across spec/wire round
    trips."""

    def _random_scenarios(self, seed, n=60):
        import random

        rng = random.Random(seed)
        scenarios = []
        for i in range(n):
            overrides = {}
            if rng.random() < 0.8:
                overrides["w"] = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
            if rng.random() < 0.6:
                overrides["k"] = rng.choice([4, 6, 8, 10])
            if rng.random() < 0.4:
                overrides["seed_count"] = rng.choice([50, 80, 120])
            if rng.random() < 0.3:
                overrides["tau_km"] = rng.choice([0.4, 0.5, 0.6])
            if rng.random() < 0.3:
                overrides["increment_mode"] = "hutchinson"
            scenarios.append(Scenario(
                name=f"random-{i}",
                method=rng.choice(["eta-pre", "vk-tsp"]),
                overrides=overrides,
                route_count=rng.choice([1, 1, 1, 2]),
            ))
        return scenarios

    def _resolved_identity(self, scenario):
        """Everything scenario_key hashes, as a comparable tuple."""
        from dataclasses import asdict

        return (
            scenario.city, scenario.profile, scenario.method,
            scenario.route_count,
            json.dumps(asdict(scenario.planner_config(BASE)), sort_keys=True),
        )

    def test_scenario_key_is_override_order_independent(self):
        import random

        rng = random.Random(0xC0FFEE)
        for scenario in self._random_scenarios(1, n=25):
            items = list(scenario.overrides.items())
            rng.shuffle(items)
            shuffled = Scenario(
                name=scenario.name, method=scenario.method,
                overrides=dict(items), route_count=scenario.route_count,
            )
            assert scenario_key(shuffled, BASE) == scenario_key(scenario, BASE)

    def test_scenario_key_injective_across_distinct_resolved_specs(self):
        scenarios = self._random_scenarios(2)
        by_identity = {}
        for scenario in scenarios:
            identity = self._resolved_identity(scenario)
            key = scenario_key(scenario, BASE)
            if identity in by_identity:
                assert by_identity[identity] == key
            by_identity[identity] = key
        # Distinct resolved specs -> distinct keys (no collisions).
        assert len(set(by_identity.values())) == len(by_identity)

    def test_scenario_key_stable_across_spec_and_wire_round_trips(self):
        for scenario in self._random_scenarios(3, n=25):
            spec = json.loads(json.dumps(to_wire(scenario)))
            rebuilt = from_wire(Scenario, spec)
            assert rebuilt == scenario
            assert scenario_key(rebuilt, BASE) == scenario_key(scenario, BASE)

    def test_scenario_key_ignores_name_but_not_config(self):
        a = Scenario(name="a", overrides={"w": 0.4})
        b = Scenario(name="b", overrides={"w": 0.4})
        c = Scenario(name="a", overrides={"w": 0.5})
        assert scenario_key(a, BASE) == scenario_key(b, BASE)
        assert scenario_key(a, BASE) != scenario_key(c, BASE)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestRemoteCli:
    def _sweep_args(self, tmp_path, extra=()):
        return [
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre,vk-tsp", "--weights", "0.4,0.6",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--cache-dir", str(tmp_path / "cache"),
            *extra,
        ]

    def test_remote_sweep_matches_serial_report(self, tmp_path, capsys):
        servers = start_workers(str(tmp_path / "wcache"), n=2)
        try:
            serial_json = tmp_path / "serial.json"
            assert main(self._sweep_args(
                tmp_path,
                ["--backend", "serial", "--json", str(serial_json)],
            )) == 0
            remote_json = tmp_path / "remote.json"
            assert main(self._sweep_args(
                tmp_path,
                ["--backend", "remote",
                 "--workers-at", ",".join(addresses_of(servers)),
                 "--json", str(remote_json),
                 "--stream", str(tmp_path / "remote.jsonl"), "--resume"],
            )) == 0
        finally:
            for server in servers:
                server.shutdown()
        capsys.readouterr()

        def plan_fields(doc):
            return [
                [
                    {k: v for k, v in result.items() if k != "runtime_s"}
                    for result in scenario["results"]
                ]
                for scenario in doc["scenarios"]
            ]

        serial_doc = json.loads(serial_json.read_text())
        remote_doc = json.loads(remote_json.read_text())
        assert plan_fields(remote_doc) == plan_fields(serial_doc)
        assert remote_doc["backend"] == "remote"

    def test_remote_without_workers_at_exits_2(self, tmp_path, capsys):
        assert main(self._sweep_args(tmp_path, ["--backend", "remote"])) == 2
        assert "--workers-at" in capsys.readouterr().err

    def test_workers_with_remote_exits_2(self, tmp_path, capsys):
        assert main(self._sweep_args(
            tmp_path,
            ["--backend", "remote", "--workers-at", "127.0.0.1:1",
             "--workers", "4"],
        )) == 2
        assert "--workers does not apply" in capsys.readouterr().err

    def test_cache_max_bytes_with_remote_exits_2(self, tmp_path, capsys):
        assert main(self._sweep_args(
            tmp_path,
            ["--backend", "remote", "--workers-at", "127.0.0.1:1",
             "--cache-max-bytes", "1000"],
        )) == 2
        assert "--cache-max-bytes" in capsys.readouterr().err

    def test_workers_at_without_remote_exits_2(self, tmp_path, capsys):
        assert main(self._sweep_args(
            tmp_path, ["--workers-at", "127.0.0.1:1"]
        )) == 2
        assert "only apply" in capsys.readouterr().err

    def test_bad_address_exits_2(self, tmp_path, capsys):
        assert main(self._sweep_args(
            tmp_path, ["--backend", "remote", "--workers-at", "nonsense"]
        )) == 2
        assert "bad worker address" in capsys.readouterr().err

    def test_registry_and_workers_at_both_exits_2(self, tmp_path, capsys):
        assert main(self._sweep_args(
            tmp_path,
            ["--backend", "remote", "--workers-at", "127.0.0.1:1",
             "--registry", "127.0.0.1:2"],
        )) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_registry_without_remote_exits_2(self, tmp_path, capsys):
        assert main(self._sweep_args(
            tmp_path, ["--registry", "127.0.0.1:2"]
        )) == 2
        assert "registry only applies" in capsys.readouterr().err

    def test_secret_file_without_remote_exits_2(self, tmp_path, capsys):
        secret = tmp_path / "secret.txt"
        secret.write_text("hunter2\n")
        assert main(self._sweep_args(
            tmp_path, ["--secret-file", str(secret)]
        )) == 2
        assert "secret only applies" in capsys.readouterr().err

    def test_unreadable_secret_file_exits_2(self, tmp_path, capsys):
        assert main(self._sweep_args(
            tmp_path,
            ["--backend", "remote", "--workers-at", "127.0.0.1:1",
             "--secret-file", str(tmp_path / "nope.txt")],
        )) == 2
        assert "secret file" in capsys.readouterr().err

    def test_empty_secret_file_exits_2(self, tmp_path, capsys):
        secret = tmp_path / "secret.txt"
        secret.write_text("   \n")
        assert main(self._sweep_args(
            tmp_path,
            ["--backend", "remote", "--workers-at", "127.0.0.1:1",
             "--secret-file", str(secret)],
        )) == 2
        assert "empty" in capsys.readouterr().err

    def test_worker_serve_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["worker", "serve", "--port", "0", "--cache-dir", "x",
             "--capacity", "4", "--secret-file", "s.txt",
             "--registry", "127.0.0.1:7500"]
        )
        assert args.worker_command == "serve"
        assert args.port == 0
        assert args.capacity == 4
        assert args.secret_file == "s.txt"
        assert args.registry == "127.0.0.1:7500"
        assert args.func.__name__ == "_cmd_worker"

    def test_registry_serve_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["registry", "serve", "--port", "0", "--ttl", "5",
             "--secret-file", "s.txt"]
        )
        assert args.registry_command == "serve"
        assert args.ttl == 5.0
        assert args.func.__name__ == "_cmd_registry"
