"""Registry tests: records, discovery, failover, weighted distribution.

The contract under test (see :mod:`repro.sweep.registry` and the
remote-module docstring): workers register themselves (capacity, cache
fingerprint, protocol) into a TCP or file registry; sweeps resolve the
live roster at start — dead registrants are ping-checked and skipped
with a warning — and re-query mid-sweep to pick up late joiners;
sharding follows advertised capacities; and none of it changes results
(remote-via-registry stays bit-identical to serial, the acceptance
oracle).
"""

import json
import socket
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.config import PlannerConfig
from repro.cli import main
from repro.sweep import (
    FileRegistry,
    Heartbeat,
    RegistryServer,
    RemoteAuthError,
    RemoteBackend,
    SweepRunner,
    TcpRegistry,
    WorkerRecord,
    WorkerServer,
    expand_grid,
    resolve_registry,
)
from repro.sweep.registry import DEFAULT_TTL, REGISTRY_SCHEMA_VERSION
from repro.utils.errors import DataError, PlanningError
from repro.utils.wire import from_wire, to_wire

BASE = PlannerConfig(k=6, max_iterations=120, seed_count=80)

SECRET = b"registry-suite-secret"

# Seven w values x one method: apportions exactly [1, 2, 4] over
# capacities [1, 2, 4] — the acceptance distribution.
GRID = {"w": [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]}


@pytest.fixture(scope="module")
def grid_scenarios():
    return expand_grid(GRID, city="chicago", profile="tiny")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("registry-cache"))


@pytest.fixture(scope="module")
def serial_outcomes(grid_scenarios, cache_dir):
    runner = SweepRunner(base_config=BASE, cache_dir=cache_dir, backend="serial")
    return runner.run(grid_scenarios)


def start_worker(cache_dir, capacity=1, secret=None, fail_after_frames=None):
    server = WorkerServer(
        cache_dir=cache_dir, capacity=capacity, secret=secret,
        fail_after_frames=fail_after_frames,
    )
    server.start_in_thread()
    return server


def assert_results_identical(remote_outcomes, serial_outcomes):
    assert len(remote_outcomes) == len(serial_outcomes)
    for remote, serial in zip(remote_outcomes, serial_outcomes):
        assert remote.ok, remote.error
        assert remote.scenario.name == serial.scenario.name
        for r, s in zip(remote.results, serial.results):
            assert r.route.stops == s.route.stops
            assert r.route.edge_indices == s.route.edge_indices
            assert r.objective == s.objective
            assert r.o_d == s.o_d
            assert r.o_lambda == s.o_lambda
            assert r.iterations == s.iterations


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
class TestWorkerRecord:
    def test_round_trip(self):
        record = WorkerRecord(
            host="10.0.0.7", port=7401, capacity=4, protocol=2,
            cache_fingerprint="abc123", last_seen=12.5,
        )
        rebuilt = from_wire(WorkerRecord, json.loads(json.dumps(to_wire(record))))
        assert rebuilt == record
        assert rebuilt.key == "10.0.0.7:7401"

    @pytest.mark.parametrize("mutation, match", [
        ({"host": ""}, "empty host"),
        ({"port": 0}, "port"),
        ({"port": 99999}, "port"),
        ({"capacity": 0}, "capacity"),
        ({"cache_fingerprint": 7}, "fingerprint"),
        ({"surprise": 1}, "unknown keys"),
        # Mistyped values are a broken peer, not values to coerce.
        ({"port": "7401"}, "'port'"),
        ({"capacity": 2.9}, "'capacity'"),
        ({"protocol": True}, "'protocol'"),
    ])
    def test_bad_records_rejected(self, mutation, match):
        spec = to_wire(WorkerRecord(host="h", port=1))
        spec.update(mutation)
        with pytest.raises(DataError, match=match):
            from_wire(WorkerRecord, spec)

    def test_non_mapping_rejected(self):
        with pytest.raises(DataError, match="mapping"):
            from_wire(WorkerRecord, [1, 2])


# ----------------------------------------------------------------------
# File-backed registry
# ----------------------------------------------------------------------
class TestFileRegistry:
    def test_register_list_deregister(self, tmp_path):
        registry = FileRegistry(str(tmp_path / "reg.json"))
        record = WorkerRecord(host="127.0.0.1", port=7401, capacity=2)
        registry.register(record)
        (live,) = registry.live_workers()
        assert live.key == record.key
        assert live.capacity == 2
        assert live.last_seen > 0  # stamped at registration time
        registry.deregister(record.key)
        assert registry.live_workers() == []

    def test_stale_entries_age_out(self, tmp_path):
        registry = FileRegistry(str(tmp_path / "reg.json"), ttl=0.2)
        registry.register(WorkerRecord(host="h", port=1))
        assert len(registry.live_workers()) == 1
        time.sleep(0.3)
        assert registry.live_workers() == []

    def test_reregistration_refreshes(self, tmp_path):
        registry = FileRegistry(str(tmp_path / "reg.json"), ttl=0.4)
        record = WorkerRecord(host="h", port=1)
        registry.register(record)
        time.sleep(0.25)
        registry.register(record)  # heartbeat
        time.sleep(0.25)
        assert len(registry.live_workers()) == 1  # 0.5s old reg, 0.25s beat

    def test_last_seen_is_an_epoch_stamp(self, tmp_path):
        # Regression for the RPR001 fix: registration stamps come from
        # the sanctioned wall_clock() wrapper, which must still be the
        # epoch clock (a display field humans read as a date), not the
        # boot-relative monotonic counter liveness runs on.
        registry = FileRegistry(str(tmp_path / "reg.json"))
        before = time.time()
        registry.register(WorkerRecord(host="h", port=1))
        after = time.time()
        (live,) = registry.live_workers()
        assert before <= live.last_seen <= after

    def test_register_writes_atomically(self, tmp_path, monkeypatch):
        # The staging idiom RPR005 enforces: a crash mid-registration
        # must leave the previous registry document intact for
        # concurrent discovery, with no staging litter.
        import os as os_mod

        path = tmp_path / "reg.json"
        registry = FileRegistry(str(path))
        registry.register(WorkerRecord(host="h", port=1))
        good = path.read_text()

        monkeypatch.setattr(
            os_mod, "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            registry.register(WorkerRecord(host="h", port=2))
        assert path.read_text() == good
        assert [p.name for p in tmp_path.iterdir()] == ["reg.json"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert FileRegistry(str(tmp_path / "nope.json")).live_workers() == []

    def test_corrupt_file_raises_data_error(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="unreadable"):
            FileRegistry(str(path)).live_workers()

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"schema": 999, "workers": {}}))
        with pytest.raises(DataError, match="schema"):
            FileRegistry(str(path)).live_workers()

    def test_document_shape(self, tmp_path):
        path = tmp_path / "reg.json"
        FileRegistry(str(path)).register(WorkerRecord(host="h", port=1))
        doc = json.loads(path.read_text())
        assert doc["schema"] == REGISTRY_SCHEMA_VERSION
        assert set(doc["workers"]) == {"h:1"}
        # Liveness rides a monotonic stamp; last_seen stays wall-clock.
        entry = doc["workers"]["h:1"]
        assert entry["last_seen_monotonic"] > 0
        assert abs(entry["last_seen"] - time.time()) < 60


class TestLivenessSurvivesWallClockSteps:
    """Regression: liveness used to ride ``time.time()``, so an NTP step
    backwards mass-expired live workers (forward: immortalized dead
    ones). Stamping and pruning are monotonic now; the wall clock is a
    display field only."""

    def test_file_registry_ignores_wall_clock_steps(self, tmp_path):
        path = tmp_path / "reg.json"
        registry = FileRegistry(str(path), ttl=30.0)
        registry.register(WorkerRecord(host="h", port=1))
        # Simulate an arbitrarily large wall step between heartbeat and
        # read: rewrite the display stamp to the epoch / the far future.
        for wall in (0.0, time.time() + 1e9):
            doc = json.loads(path.read_text())
            doc["workers"]["h:1"]["last_seen"] = wall
            path.write_text(json.dumps(doc))
            assert len(registry.live_workers()) == 1, f"expired at wall={wall}"

    def test_file_registry_future_monotonic_stamp_is_stale(self, tmp_path):
        # A monotonic stamp from the future is impossible within this
        # boot (it is a pre-reboot leftover): stale, never immortal.
        path = tmp_path / "reg.json"
        registry = FileRegistry(str(path), ttl=30.0)
        registry.register(WorkerRecord(host="h", port=1))
        doc = json.loads(path.read_text())
        doc["workers"]["h:1"]["last_seen_monotonic"] = time.monotonic() + 1e9
        path.write_text(json.dumps(doc))
        assert registry.live_workers() == []

    def test_file_registry_legacy_record_falls_back_to_wall_clock(
        self, tmp_path
    ):
        # Hand-written documents without the monotonic stamp keep the
        # old wall-clock ageing so they still resolve.
        path = tmp_path / "reg.json"
        fresh = WorkerRecord(host="h", port=1, last_seen=time.time())
        stale = WorkerRecord(host="h", port=2, last_seen=time.time() - 1e6)
        path.write_text(json.dumps({
            "schema": REGISTRY_SCHEMA_VERSION,
            "workers": {r.key: to_wire(r) for r in (fresh, stale)},
        }))
        live = FileRegistry(str(path), ttl=30.0).live_workers()
        assert [r.key for r in live] == ["h:1"]

    def test_server_prunes_on_monotonic_not_wall_clock(self):
        server = RegistryServer(ttl=30.0)
        try:
            base = time.monotonic()
            server._clock = lambda: base
            stamped = server.register_record(WorkerRecord(host="h", port=1))
            # The served record's wall stamp is display provenance.
            assert abs(stamped.last_seen - time.time()) < 60
            # Monotonic time passing ages the record out...
            server._clock = lambda: base + 31.0
            assert server.live_workers() == []
        finally:
            server.shutdown()

    def test_server_liveness_unaffected_by_wall_stamp(self):
        # A record whose wall-clock display stamp is absurd (as if the
        # server clock stepped a year between register and read) stays
        # live: only the monotonic stamp ages it.
        server = RegistryServer(ttl=30.0)
        try:
            server.register_record(
                WorkerRecord(host="h", port=1, last_seen=0.0)
            )
            with server._roster as roster:
                record, stamp = roster.workers["h:1"]
                roster.workers["h:1"] = (
                    replace(record, last_seen=time.time() - 1e9), stamp
                )
            assert len(server.live_workers()) == 1
        finally:
            server.shutdown()


# ----------------------------------------------------------------------
# TCP registry daemon
# ----------------------------------------------------------------------
@pytest.fixture()
def registry_server():
    server = RegistryServer(secret=SECRET)
    server.start_in_thread()
    yield server
    server.shutdown()


class TestTcpRegistry:
    def test_register_workers_deregister(self, registry_server):
        client = TcpRegistry(registry_server.address, secret=SECRET)
        client.register(WorkerRecord(host="127.0.0.1", port=7401, capacity=3))
        client.register(WorkerRecord(host="127.0.0.1", port=7402))
        live = {r.key: r for r in client.live_workers()}
        assert set(live) == {"127.0.0.1:7401", "127.0.0.1:7402"}
        assert live["127.0.0.1:7401"].capacity == 3
        client.deregister("127.0.0.1:7401")
        assert {r.key for r in client.live_workers()} == {"127.0.0.1:7402"}

    def test_server_stamps_last_seen(self, registry_server):
        client = TcpRegistry(registry_server.address, secret=SECRET)
        # A worker lying about its clock cannot fake liveness.
        client.register(WorkerRecord(host="h", port=1, last_seen=10.0))
        (record,) = client.live_workers()
        assert record.last_seen > time.time() - DEFAULT_TTL

    def test_stale_entries_age_out(self):
        server = RegistryServer(ttl=0.2)
        server.start_in_thread()
        try:
            client = TcpRegistry(server.address)
            client.register(WorkerRecord(host="h", port=1))
            assert len(client.live_workers()) == 1
            time.sleep(0.3)
            assert client.live_workers() == []
        finally:
            server.shutdown()

    def test_wrong_secret_is_auth_error(self, registry_server):
        client = TcpRegistry(registry_server.address, secret=b"wrong")
        with pytest.raises(RemoteAuthError, match="authentication failed"):
            client.register(WorkerRecord(host="h", port=1))

    def test_bad_record_answers_error_frame(self, registry_server):
        from repro.sweep.remote import (
            PROTOCOL_VERSION,
            connect_authenticated,
            recv_frame,
            send_frame,
        )

        with connect_authenticated(
            registry_server.address, SECRET, timeout=5.0
        ) as sock:
            send_frame(sock, {
                "op": "register", "protocol": PROTOCOL_VERSION,
                "worker": {"host": "", "port": 1},
            })
            reply = recv_frame(sock)
        assert reply["op"] == "error"
        assert "empty host" in reply["error"]

    def test_deregister_without_key_answers_error_frame(
        self, registry_server
    ):
        from repro.sweep.remote import (
            connect_authenticated,
            recv_frame,
            send_frame,
        )

        registry_server.register_record(WorkerRecord(host="h", port=1))
        with connect_authenticated(
            registry_server.address, SECRET, timeout=5.0
        ) as sock:
            send_frame(sock, {"op": "deregister"})
            reply = recv_frame(sock)
        assert reply["op"] == "error"
        assert "'key'" in reply["error"]
        assert [r.key for r in registry_server.live_workers()] == ["h:1"]

    def test_ping_reports_role_and_count(self, registry_server):
        from repro.sweep import ping

        pong = ping(registry_server.address, secret=SECRET)
        assert pong["role"] == "registry"
        assert pong["n_workers"] >= 0


class TestResolveRegistry:
    def test_host_port_is_tcp(self):
        registry = resolve_registry("127.0.0.1:7500")
        assert isinstance(registry, TcpRegistry)
        assert registry.address == ("127.0.0.1", 7500)

    @pytest.mark.parametrize("spec", [
        "registry.json", "reg", "./dir/registry.json", "dir/reg:7500.json",
    ])
    def test_paths_are_file_registries(self, spec):
        assert isinstance(resolve_registry(spec), FileRegistry)

    def test_instances_pass_through(self, tmp_path):
        registry = FileRegistry(str(tmp_path / "r.json"))
        assert resolve_registry(registry) is registry

    def test_none_rejected(self):
        with pytest.raises(PlanningError, match="no registry"):
            resolve_registry(None)


class TestHeartbeat:
    def test_keeps_registration_fresh_and_deregisters_on_stop(self, tmp_path):
        registry = FileRegistry(str(tmp_path / "reg.json"), ttl=0.5)
        heartbeat = Heartbeat(
            registry, WorkerRecord(host="h", port=1), interval=0.1
        )
        heartbeat.start()
        try:
            time.sleep(0.8)  # well past the TTL: only beats keep it live
            assert len(registry.live_workers()) == 1
        finally:
            heartbeat.stop(deregister=True)
        assert registry.live_workers() == []

    def test_unreachable_registry_fails_startup(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        heartbeat = Heartbeat(
            TcpRegistry(("127.0.0.1", dead_port)),
            WorkerRecord(host="h", port=1),
        )
        with pytest.raises(PlanningError, match="cannot register"):
            heartbeat.start()

    def test_transient_failure_is_remembered_not_fatal(self, tmp_path):
        registry = FileRegistry(str(tmp_path / "dir" / "reg.json"))
        heartbeat = Heartbeat(registry, WorkerRecord(host="h", port=1))
        assert heartbeat.beat() is False  # parent dir missing
        assert "Error" in heartbeat.last_error


# ----------------------------------------------------------------------
# Discovery-driven sweeps (acceptance)
# ----------------------------------------------------------------------
class TestRegistrySweeps:
    def _file_registry(self, tmp_path, ttl=DEFAULT_TTL):
        return FileRegistry(str(tmp_path / "registry.json"), ttl=ttl)

    def test_weighted_capacities_1_2_4_bit_identical_to_serial(
        self, grid_scenarios, cache_dir, tmp_path, serial_outcomes
    ):
        """The acceptance oracle: discovery over capacities [1, 2, 4]
        yields serial-identical results, distributed exactly [1, 2, 4]."""
        registry = self._file_registry(tmp_path)
        servers = [
            start_worker(cache_dir, capacity=c, secret=SECRET)
            for c in (1, 2, 4)
        ]
        try:
            for server in servers:
                registry.register(server.worker_record())
            runner = SweepRunner(
                base_config=BASE, cache_dir=cache_dir, backend="remote",
                registry=registry, secret=SECRET,
            )
            outcomes = runner.run(grid_scenarios)
            assert_results_identical(outcomes, serial_outcomes)
            assert runner.last_worker_count == 3
            counts = Counter(o.worker for o in outcomes)
            by_capacity = {
                s.capacity: f"{s.host}:{s.port}" for s in servers
            }
            assert counts[by_capacity[1]] == 1
            assert counts[by_capacity[2]] == 2
            assert counts[by_capacity[4]] == 4
        finally:
            for server in servers:
                server.shutdown()

    def test_registered_then_dead_worker_skipped_with_warning(
        self, grid_scenarios, cache_dir, tmp_path, serial_outcomes
    ):
        registry = self._file_registry(tmp_path)
        healthy = start_worker(cache_dir)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        try:
            registry.register(healthy.worker_record())
            registry.register(WorkerRecord(host="127.0.0.1", port=dead_port))
            runner = SweepRunner(
                base_config=BASE, cache_dir=cache_dir, backend="remote",
                registry=registry,
            )
            with pytest.warns(RuntimeWarning, match="unreachable"):
                outcomes = runner.run(grid_scenarios)
            assert_results_identical(outcomes, serial_outcomes)
            assert runner.last_worker_count == 1
        finally:
            healthy.shutdown()

    def test_wrong_secret_at_discovery_is_an_auth_error_not_no_workers(
        self, grid_scenarios, cache_dir, tmp_path
    ):
        """A wrong secret must say 'authentication', not claim the
        (running) workers are absent."""
        registry = self._file_registry(tmp_path)
        server = start_worker(cache_dir, secret=SECRET)
        try:
            registry.register(server.worker_record())
            runner = SweepRunner(
                base_config=BASE, backend="remote", registry=registry,
                secret=b"not-the-secret",
            )
            with pytest.raises(PlanningError, match="authentication"):
                runner.run(grid_scenarios)
        finally:
            server.shutdown()

    def test_unreachable_tcp_registry_is_a_planning_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        runner = SweepRunner(
            base_config=BASE, backend="remote",
            registry=f"127.0.0.1:{dead_port}",
        )
        with pytest.raises(PlanningError, match="cannot reach registry"):
            runner.run(expand_grid({"w": [0.4]}))

    def test_empty_registry_raises(self, tmp_path):
        registry = self._file_registry(tmp_path)
        runner = SweepRunner(
            base_config=BASE, backend="remote", registry=registry
        )
        with pytest.raises(PlanningError, match="no live workers"):
            runner.run(expand_grid({"w": [0.4]}))

    def test_worker_joining_mid_sweep_picks_up_rebalanced_shards(
        self, grid_scenarios, cache_dir, tmp_path, serial_outcomes
    ):
        """A dying worker strands most of the grid; a worker that
        registers only after the sweep started is discovered by the
        mid-sweep re-query and finishes the job."""
        registry = self._file_registry(tmp_path)
        dying = start_worker(cache_dir, fail_after_frames=1)
        registry.register(dying.worker_record())
        backend = RemoteBackend(
            registry=registry, registry_poll=0.1, registry_grace=15.0
        )
        late = {}

        def join_late():
            late["server"] = start_worker(cache_dir)
            registry.register(late["server"].worker_record())

        joiner = threading.Timer(0.5, join_late)
        joiner.start()
        try:
            outcomes = backend.run(grid_scenarios, BASE, None)
        finally:
            joiner.cancel()
            dying.shutdown()
            if "server" in late:
                late["server"].shutdown()
        assert_results_identical(outcomes, serial_outcomes)
        late_address = "{0.host}:{0.port}".format(late["server"])
        # The late joiner did real work: everything the dying worker
        # never delivered.
        assert sum(1 for o in outcomes if o.worker == late_address) >= 1

    def test_static_workers_at_path_still_bit_identical(
        self, grid_scenarios, cache_dir, serial_outcomes
    ):
        """The PR 4 static path is untouched by the registry layer."""
        servers = [start_worker(cache_dir) for _ in range(2)]
        try:
            runner = SweepRunner(
                base_config=BASE, cache_dir=cache_dir, backend="remote",
                addresses=[f"{s.host}:{s.port}" for s in servers],
            )
            assert_results_identical(
                runner.run(grid_scenarios), serial_outcomes
            )
        finally:
            for server in servers:
                server.shutdown()


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestRegistryCli:
    def test_sweep_via_registry_flag(self, cache_dir, tmp_path, capsys):
        secret_file = tmp_path / "secret.txt"
        secret_file.write_bytes(SECRET + b"\n")
        registry_path = tmp_path / "registry.json"
        servers = [
            start_worker(cache_dir, capacity=c, secret=SECRET)
            for c in (1, 2)
        ]
        try:
            registry = FileRegistry(str(registry_path))
            for server in servers:
                registry.register(server.worker_record())
            code = main([
                "sweep", "--city", "chicago", "--profile", "tiny",
                "--methods", "eta-pre", "--weights", "0.4,0.6",
                "--k", "6", "--iterations", "120", "--seed-count", "80",
                "--backend", "remote",
                "--registry", str(registry_path),
                "--secret-file", str(secret_file),
                "--json", str(tmp_path / "out.json"),
            ])
        finally:
            for server in servers:
                server.shutdown()
        capsys.readouterr()
        assert code == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["n_failed"] == 0
        workers_used = {s["worker"] for s in report["scenarios"]}
        assert workers_used <= {f"{s.host}:{s.port}" for s in servers}

    def test_wrong_secret_exits_2_and_runs_nothing(
        self, cache_dir, tmp_path, capsys, monkeypatch
    ):
        import repro.sweep.remote as remote_mod

        executed = []
        monkeypatch.setattr(
            remote_mod, "execute_scenario",
            lambda *a, **k: executed.append(1),
        )
        wrong = tmp_path / "wrong.txt"
        wrong.write_text("not-the-secret\n")
        server = start_worker(cache_dir, secret=SECRET)
        try:
            code = main([
                "sweep", "--city", "chicago", "--profile", "tiny",
                "--methods", "eta-pre", "--weights", "0.4",
                "--backend", "remote",
                "--workers-at", f"{server.host}:{server.port}",
                "--secret-file", str(wrong),
            ])
        finally:
            server.shutdown()
        assert code == 2
        assert "authentication failed" in capsys.readouterr().err
        assert executed == []
