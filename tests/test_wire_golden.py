"""Golden wire frames: the exact bytes every record and frame puts on the wire.

Each conversation below runs through the real code paths — daemons on
localhost, the real clients, the real stream writer and file registry —
with the nonce, the pid and the clocks fixed and the planner replaced by
one hand-built result. Every frame payload a client sends or receives is
captured from its socket and compared with the ``json.dumps`` bytes it
was recorded with.

Each test asserts the version constant its bytes were recorded under. A
layout change without a version bump fails here; a version bump fails
here too, until the goldens are re-recorded.
"""

import json
import socket
import struct

import pytest

import repro.serve.server as serve_mod
import repro.sweep.registry as registry_mod
import repro.sweep.remote as remote_mod
from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.core.result import PlannedRoute, PlanResult
from repro.serve.server import SERVE_SCHEMA_VERSION, PlanServer
from repro.sweep import (
    PROTOCOL_VERSION,
    SCHEMA_VERSION,
    FileRegistry,
    RegistryServer,
    RemoteAuthError,
    RemoteBackend,
    Scenario,
    ScenarioOutcome,
    StreamWriter,
    TcpRegistry,
    WorkerRecord,
    WorkerServer,
    ping,
)
from repro.sweep.registry import REGISTRY_SCHEMA_VERSION
from repro.sweep.remote import connect_authenticated, recv_frame, send_frame
from repro.sweep.scenario import scenario_key
from repro.utils.wire import to_wire

SECRET = b"golden-secret"
PID = 4242
WALL_CLOCK = 1700000000.5
MONOTONIC = 1234.25

SCENARIO = Scenario(
    name="golden", city="chicago", profile="tiny", method="eta",
    overrides={"w": 0.25},
)
ANCHORED = Scenario(
    name="anchored", city="nyc", profile="small", method="eta-pre",
    overrides={"w": 0.4, "k": 12},
    constraints=PlanningConstraints(
        anchor_stop=5, forbid_stops={9, 3}, forbid_edges={40, 2},
    ),
)


def hand_result() -> PlanResult:
    return PlanResult(
        method="eta",
        route=PlannedRoute(
            stops=(3, 1, 4), edge_indices=(10, 11), new_pairs=((1, 4),),
            length_km=2.5, turns=1,
        ),
        objective=0.4375, o_d=12.0, o_lambda=0.125, o_d_normalized=0.5,
        o_lambda_normalized=0.25, search_score=0.375, iterations=7,
        runtime_s=0.0625, connectivity_evaluations=9,
        trace=[(1, 0.25), (5, 0.375)],
        queue_pushes=11, pruned_by_bound=2, pruned_by_domination=3,
    )


def hand_outcome(scenario, *args, **kwargs) -> ScenarioOutcome:
    return ScenarioOutcome(
        scenario=scenario, results=(hand_result(),), cache_hit=False,
        precompute_s=0.25, total_s=1.5,
    )


# ----------------------------------------------------------------------
# Recorded bytes
# ----------------------------------------------------------------------
CHALLENGE = (
    '{"op": "challenge", "protocol": 2, '
    '"nonce": "000102030405060708090a0b0c0d0e0f", "auth": true}'
)
AUTH = (
    '{"op": "auth", "protocol": 2, "mac": '
    '"0f50cca9cb14b094e856ae8c4fc21def9101181b4d39c26bf4bf55d8f02d71aa"}'
)
WELCOME = '{"op": "welcome", "protocol": 2}'
AUTH_ERROR = (
    '{"op": "error", "code": "auth", "error": '
    '"authentication failed: wrong or missing shared secret"}'
)
VERSION_ERROR = (
    '{"op": "error", "error": '
    '"protocol 1 not supported; this daemon speaks protocol 2"}'
)
UNKNOWN_OP_ERROR = '{"op": "error", "error": "unknown op \'dance\'"}'
PING = '{"op": "ping"}'
SHUTDOWN = '{"op": "shutdown"}'
BYE = '{"op": "bye"}'

SCENARIO_SPEC = (
    '{"name": "golden", "city": "chicago", "profile": "tiny", '
    '"method": "eta", "overrides": {"w": 0.25}, "constraints": null, '
    '"route_count": 1}'
)
BASE_CONFIG = (
    '{"k": 30, "w": 0.5, "tau_km": 0.5, "max_turns": 3, "seed_count": 5000, '
    '"max_iterations": 2000, "expansion": "best", "queue_discipline": '
    '"bound", "use_domination": true, "new_edges_only": false, '
    '"increment_mode": "exact", "allow_loop": true, "record_every": 100}'
)
RUN = (
    '{"op": "run", "protocol": 2, "base_config": ' + BASE_CONFIG + ', '
    '"scenarios": [{"index": 0, "scenario": ' + SCENARIO_SPEC + '}]}'
)
ANCHORED_SPEC = (
    '{"name": "anchored", "city": "nyc", "profile": "small", '
    '"method": "eta-pre", "overrides": {"k": 12, "w": 0.4}, '
    '"constraints": {"anchor_stop": 5, "forbid_stops": [3, 9], '
    '"forbid_edges": [2, 40]}, "route_count": 1}'
)
ANCHORED_RUN = (
    '{"op": "run", "protocol": 2, "base_config": ' + BASE_CONFIG + ', '
    '"scenarios": [{"index": 0, "scenario": ' + ANCHORED_SPEC + '}]}'
)
RESULT = (
    '{"method": "eta", "route": {"stops": [3, 1, 4], "edge_indices": '
    '[10, 11], "new_pairs": [[1, 4]], "length_km": 2.5, "turns": 1}, '
    '"objective": 0.4375, "o_d": 12.0, "o_lambda": 0.125, '
    '"o_d_normalized": 0.5, "o_lambda_normalized": 0.25, '
    '"search_score": 0.375, "iterations": 7, "runtime_s": 0.0625, '
    '"connectivity_evaluations": 9, "trace": [[1, 0.25], [5, 0.375]], '
    '"queue_pushes": 11, "pruned_by_bound": 2, "pruned_by_domination": 3}'
)
DISPLAY_RESULT = (
    '{"method": "eta", "n_edges": 2, "n_new_edges": 1, "objective": '
    '0.4375, "o_d": 12.0, "o_lambda": 0.125, "iterations": 7, '
    '"runtime_s": 0.0625, "evaluations": 9, "found": true, '
    '"stops": [3, 1, 4], "length_km": 2.5, "turns": 1}'
)
SCENARIO_FIELDS = (
    '"name": "golden", "city": "chicago", "profile": "tiny", '
    '"method": "eta", "route_count": 1, "overrides": '
    '{"w": 0.25}, "constraints": null, "ok": true, "error": null, '
    '"cache_hit": false, "worker": null, "precompute_s": 0.25, '
    '"total_s": 1.5, "results": [' + DISPLAY_RESULT + ']'
)
OUTCOME_RECORD = (
    '{' + SCENARIO_FIELDS + ', "schema": 2, '
    '"results_wire": [' + RESULT + ']}'
)
OUTCOME = '{"op": "outcome", "index": 0, "record": ' + OUTCOME_RECORD + '}'
DONE = '{"op": "done", "n_executed": 1}'
WORKER_PONG = (
    '{"op": "pong", "protocol": 2, "pid": 4242, "cache_dir": null, '
    '"capacity": 2, "cache_fingerprint": null}'
)

WORKER = (
    '{"host": "10.0.0.7", "port": 7401, "capacity": 4, "protocol": 2, '
    '"cache_fingerprint": "9f2b6c1d3e4a", "last_seen": 0.0}'
)
REGISTER = '{"op": "register", "protocol": 2, "worker": ' + WORKER + '}'
REGISTERED = '{"op": "registered", "ttl": 30.0}'
WORKERS = '{"op": "workers"}'
WORKERS_REPLY = (
    '{"op": "workers", "workers": [{"host": "10.0.0.7", "port": 7401, '
    '"capacity": 4, "protocol": 2, "cache_fingerprint": "9f2b6c1d3e4a", '
    '"last_seen": 1700000000.5}]}'
)
DEREGISTER = '{"op": "deregister", "key": "10.0.0.7:7401"}'
DEREGISTERED = '{"op": "deregistered"}'
REGISTRY_PONG = (
    '{"op": "pong", "protocol": 2, "role": "registry", "pid": 4242, '
    '"ttl": 30.0, "n_workers": 0}'
)
REGISTRY_FILE = """\
{
  "schema": 1,
  "workers": {
    "10.0.0.7:7401": {
      "host": "10.0.0.7",
      "port": 7401,
      "capacity": 4,
      "protocol": 2,
      "cache_fingerprint": "9f2b6c1d3e4a",
      "last_seen": 1700000000.5,
      "last_seen_monotonic": 1234.25
    }
  }
}
"""

STREAM_LINE = (
    '{"record": "scenario", "schema": 2, "key": "' + "k" * 32 + '", '
    '"cache_key": "' + "c" * 64 + '", ' + SCENARIO_FIELDS + '}'
)
PLAN_REPLY_FIELDS = (
    '"schema": 1, "scenario": ' + SCENARIO_SPEC + ', "tier": "computed", '
    '"record": ' + OUTCOME_RECORD
)
PLAN_REPLY = '{' + PLAN_REPLY_FIELDS + '}'
PLAN_RESULT = '{"op": "plan_result", ' + PLAN_REPLY_FIELDS + '}'
SERVE_PONG = (
    '{"op": "pong", "protocol": 2, "pid": 4242, "role": "serve", '
    '"cache_dir": null}'
)
STATS_KEYS = [
    "op", "schema", "protocol", "uptime_s", "cache_dir", "latency", "pool",
]


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
class Tap:
    """A client socket that keeps a copy of every byte it moves."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = bytearray()
        self.received = bytearray()

    def sendall(self, data):
        self.sent += data
        self._sock.sendall(data)

    def recv(self, n):
        data = self._sock.recv(n)
        self.received += data
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._sock.close()


def payloads(buffer) -> list:
    """Split a captured byte stream into its frames' JSON payloads."""
    out = []
    at = 0
    while at < len(buffer):
        (length,) = struct.unpack(">I", bytes(buffer[at:at + 4]))
        out.append(bytes(buffer[at + 4:at + 4 + length]).decode("utf-8"))
        at += 4 + length
    return out


@pytest.fixture()
def taps(monkeypatch):
    """Fix nonce, pid and clocks; tap every client connection, in order."""
    opened = []
    real_connect = socket.create_connection

    def tapped(*args, **kwargs):
        tap = Tap(real_connect(*args, **kwargs))
        opened.append(tap)
        return tap

    monkeypatch.setattr(socket, "create_connection", tapped)
    monkeypatch.setattr(remote_mod.os, "urandom", lambda n: bytes(range(n)))
    monkeypatch.setattr(remote_mod.os, "getpid", lambda: PID)
    monkeypatch.setattr(registry_mod, "wall_clock", lambda: WALL_CLOCK)
    return opened


def handshake_sent(frame: str) -> list:
    return [AUTH, frame]


def handshake_received(*frames: str) -> list:
    return [CHALLENGE, WELCOME, *frames]


# ----------------------------------------------------------------------
# The sweep job conversation
# ----------------------------------------------------------------------
class TestWorkerFrames:
    def test_versions(self):
        assert PROTOCOL_VERSION == 2
        assert SCHEMA_VERSION == 2

    def test_job_conversation(self, taps, monkeypatch):
        monkeypatch.setattr(remote_mod, "execute_scenario", hand_outcome)
        server = WorkerServer(secret=SECRET, capacity=2)
        server.start_in_thread()
        try:
            backend = RemoteBackend(addresses=[server.address], secret=SECRET)
            [outcome] = backend.run([SCENARIO], base_config=PlannerConfig())
            ping(server.address, secret=SECRET)
        finally:
            server.shutdown()
        job, pinged = taps
        assert payloads(job.sent) == handshake_sent(RUN)
        assert payloads(job.received) == handshake_received(OUTCOME, DONE)
        assert payloads(pinged.sent) == handshake_sent(PING)
        assert payloads(pinged.received) == handshake_received(WORKER_PONG)
        assert outcome.results == (hand_result(),)
        assert outcome.scenario is SCENARIO

    def test_unknown_op_and_shutdown(self, taps):
        server = WorkerServer(secret=SECRET, capacity=2)
        server.start_in_thread()
        try:
            with connect_authenticated(server.address, SECRET) as sock:
                send_frame(sock, {"op": "dance"})
                recv_frame(sock)
            with connect_authenticated(server.address, SECRET) as sock:
                send_frame(sock, {"op": "shutdown"})
                recv_frame(sock)
        finally:
            server.shutdown()
        dance, stop = taps
        assert payloads(dance.received) == handshake_received(UNKNOWN_OP_ERROR)
        assert payloads(stop.sent) == handshake_sent(SHUTDOWN)
        assert payloads(stop.received) == handshake_received(BYE)

    def test_handshake_rejections(self, taps):
        server = WorkerServer(secret=SECRET)
        server.start_in_thread()
        try:
            with pytest.raises(RemoteAuthError):
                connect_authenticated(server.address, b"not-the-secret")
            with socket.create_connection(server.address, timeout=5.0) as sock:
                recv_frame(sock)
                send_frame(sock, {"op": "auth", "protocol": 1, "mac": None})
                recv_frame(sock)
        finally:
            server.shutdown()
        wrong_secret, old_client = taps
        assert payloads(wrong_secret.received) == [CHALLENGE, AUTH_ERROR]
        assert payloads(old_client.received) == [CHALLENGE, VERSION_ERROR]


# ----------------------------------------------------------------------
# The registry conversation and the file registry
# ----------------------------------------------------------------------
GOLDEN_WORKER = WorkerRecord(
    host="10.0.0.7", port=7401, capacity=4,
    cache_fingerprint="9f2b6c1d3e4a",
)


class TestRegistryFrames:
    def test_versions(self):
        assert PROTOCOL_VERSION == 2
        assert REGISTRY_SCHEMA_VERSION == 1

    def test_registry_conversation(self, taps):
        server = RegistryServer(secret=SECRET, ttl=30.0)
        server.start_in_thread()
        try:
            client = TcpRegistry(server.address, secret=SECRET)
            client.register(GOLDEN_WORKER)
            [listed] = client.live_workers()
            client.deregister(listed.key)
            ping(server.address, secret=SECRET)
        finally:
            server.shutdown()
        register, workers, deregister, pinged = taps
        assert payloads(register.sent) == handshake_sent(REGISTER)
        assert payloads(register.received) == handshake_received(REGISTERED)
        assert payloads(workers.sent) == handshake_sent(WORKERS)
        assert payloads(workers.received) == handshake_received(WORKERS_REPLY)
        assert payloads(deregister.sent) == handshake_sent(DEREGISTER)
        assert payloads(deregister.received) == handshake_received(
            DEREGISTERED
        )
        assert payloads(pinged.sent) == handshake_sent(PING)
        assert payloads(pinged.received) == handshake_received(REGISTRY_PONG)
        assert listed.last_seen == WALL_CLOCK

    def test_file_registry_document(self, taps, monkeypatch, tmp_path):
        monkeypatch.setattr(registry_mod.time, "monotonic", lambda: MONOTONIC)
        path = tmp_path / "registry.json"
        registry = FileRegistry(str(path))
        registry.register(GOLDEN_WORKER)
        assert path.read_text() == REGISTRY_FILE
        assert registry.live_workers() == [
            WorkerRecord(**{**json.loads(WORKER), "last_seen": WALL_CLOCK})
        ]


# ----------------------------------------------------------------------
# Stream records
# ----------------------------------------------------------------------
class TestStreamRecord:
    def test_version(self):
        assert SCHEMA_VERSION == 2

    def test_scenario_line(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        with StreamWriter(str(path)) as writer:
            writer.write_scenario(
                hand_outcome(SCENARIO), key="k" * 32, cache_key="c" * 64
            )
        assert path.read_text() == STREAM_LINE + "\n"


# ----------------------------------------------------------------------
# The serve conversation
# ----------------------------------------------------------------------
class TestServeFrames:
    def test_versions(self):
        assert PROTOCOL_VERSION == 2
        assert SCHEMA_VERSION == 2
        assert SERVE_SCHEMA_VERSION == 1

    def test_plan_reply_and_frames(self, taps, monkeypatch):
        monkeypatch.setattr(serve_mod, "execute_scenario", hand_outcome)
        server = PlanServer(secret=SECRET)
        server.start_in_thread()
        spec = to_wire(SCENARIO)
        try:
            reply = server.plan_request({"scenario": spec})
            with connect_authenticated(server.address, SECRET) as sock:
                send_frame(sock, {
                    "op": "plan", "protocol": PROTOCOL_VERSION,
                    "scenario": spec,
                })
                recv_frame(sock)
                send_frame(sock, {"op": "stats"})
                recv_frame(sock)
            ping(server.address, secret=SECRET)
        finally:
            server.shutdown()
        assert json.dumps(reply) == PLAN_REPLY
        frames, pinged = taps
        plan_result, stats = payloads(frames.received)[2:]
        assert plan_result == PLAN_RESULT
        stats = json.loads(stats)
        assert list(stats) == STATS_KEYS
        assert stats["schema"] == SERVE_SCHEMA_VERSION
        assert stats["protocol"] == PROTOCOL_VERSION
        assert payloads(pinged.received) == handshake_received(SERVE_PONG)


# ----------------------------------------------------------------------
# A constrained scenario, and the stream resume keys
# ----------------------------------------------------------------------
class TestScenarioSpec:
    """Sorted overrides and id sets on the wire; the keys streams resume on."""

    def test_constrained_job(self, taps, monkeypatch):
        monkeypatch.setattr(remote_mod, "execute_scenario", hand_outcome)
        server = WorkerServer(secret=SECRET)
        server.start_in_thread()
        try:
            backend = RemoteBackend(addresses=[server.address], secret=SECRET)
            [outcome] = backend.run([ANCHORED], base_config=PlannerConfig())
        finally:
            server.shutdown()
        [job] = taps
        assert payloads(job.sent) == handshake_sent(ANCHORED_RUN)
        assert outcome.scenario is ANCHORED

    def test_constrained_plan_reply_echoes_the_spec(self, monkeypatch):
        monkeypatch.setattr(serve_mod, "execute_scenario", hand_outcome)
        server = PlanServer()
        try:
            reply = server.plan_request({"scenario": json.loads(ANCHORED_SPEC)})
        finally:
            server.shutdown()
        assert json.dumps(reply["scenario"]) == ANCHORED_SPEC

    def test_scenario_keys(self):
        assert scenario_key(SCENARIO, PlannerConfig()) == (
            "286a9c52088c3b9539a619df5739a811"
        )
        assert scenario_key(SCENARIO, PlannerConfig(k=10)) == (
            "8a9f94730f2462bbc0c54a4f411989c7"
        )
        # ANCHORED overrides k, so the base config's k does not reach it.
        for base in (PlannerConfig(), PlannerConfig(k=10)):
            assert scenario_key(ANCHORED, base) == (
                "f8a9064914225e48f2e070e90ced16e1"
            )
