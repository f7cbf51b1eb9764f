"""Serving-layer suite: reservoir, artifact pool, daemon, HTTP door.

The load-bearing contract (see :mod:`repro.serve`): a served plan is
**bit-identical** to the same ``repro plan`` invocation (the oracle
tests below), a warm request is answered from the in-memory pool
without touching the disk artifact (asserted by counting
``Precomputation.load`` calls), and ``/stats`` reports honest latency
quantiles and pool counters.
"""

import gc
import http.client
import json
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import warnings
from dataclasses import asdict

import pytest

from repro.core.config import PlannerConfig
from repro.core.planner import CTBusPlanner
from repro.core.precompute import Precomputation, precompute
from repro.data.datasets import canned_city
from repro.serve import (
    ArtifactPool,
    LatencyReservoir,
    PlanServer,
    build_http_server,
    http_token,
    precomputation_nbytes,
)
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.pool import TIER_COMPUTED, TIER_DISK, TIER_POOL
from repro.sweep.cache import PrecomputationCache
from repro.sweep.remote import (
    PROTOCOL_VERSION,
    connect_authenticated,
    ping,
    recv_frame,
    send_frame,
)
from repro.sweep.scenario import Scenario
from repro.utils.errors import PlanningError
from repro.utils.wire import to_wire

SECRET = b"serve-suite-secret"

CONFIG = PlannerConfig(k=6, max_iterations=40, seed_count=20)
"""Small enough that a served plan answers in milliseconds."""


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def make_scenario(name="serve-test", **overrides):
    return Scenario(
        name=name, city="chicago", profile="tiny", method="eta-pre",
        **overrides,
    )


def plan_once(sock, scenario, config=CONFIG):
    """One plan round-trip over an authenticated frame connection."""
    send_frame(sock, {
        "op": "plan",
        "protocol": PROTOCOL_VERSION,
        "scenario": to_wire(scenario),
        "base_config": None if config is None else asdict(config),
    })
    reply = recv_frame(sock)
    assert reply is not None and reply["op"] == "plan_result", reply
    return reply


def served_connection(server):
    sock = connect_authenticated(server.address, SECRET, 30.0)
    sock.settimeout(60.0)  # planning outlasts the connect deadline
    return sock


# ----------------------------------------------------------------------
# Latency reservoir
# ----------------------------------------------------------------------
class TestLatencyReservoir:
    def test_empty_snapshot_invents_nothing(self):
        snap = LatencyReservoir().snapshot()
        assert snap["count"] == 0
        assert snap["window"] == 0
        assert snap["rps"] == 0.0
        assert snap["p50_ms"] is None
        assert snap["p95_ms"] is None
        assert snap["p99_ms"] is None

    def test_single_sample_degenerates_to_it(self):
        reservoir = LatencyReservoir()
        reservoir.record(0.25)
        snap = reservoir.snapshot()
        assert snap["count"] == snap["window"] == 1
        assert snap["p50_ms"] == snap["p95_ms"] == snap["p99_ms"] == 250.0

    def test_nearest_rank_quantiles(self):
        reservoir = LatencyReservoir()
        for ms in range(1, 101):  # 1..100 ms, in order
            reservoir.record(ms / 1000.0)
        snap = reservoir.snapshot()
        assert snap["p50_ms"] == pytest.approx(50.0)
        assert snap["p95_ms"] == pytest.approx(95.0)
        assert snap["p99_ms"] == pytest.approx(99.0)

    def test_quantiles_ignore_record_order(self):
        forward, backward = LatencyReservoir(), LatencyReservoir()
        for ms in range(1, 101):
            forward.record(ms / 1000.0)
            backward.record((101 - ms) / 1000.0)
        assert forward.snapshot()["p95_ms"] == backward.snapshot()["p95_ms"]

    def test_ring_keeps_only_the_recent_window(self):
        reservoir = LatencyReservoir(capacity=10)
        for ms in range(1, 21):  # 1..20 ms; ring keeps 11..20
            reservoir.record(ms / 1000.0)
        snap = reservoir.snapshot()
        assert snap["count"] == 20  # lifetime survives the wrap
        assert snap["window"] == 10
        assert snap["p50_ms"] == pytest.approx(15.0)  # 5th of 11..20

    def test_rps_is_lifetime_count_over_elapsed(self):
        ticks = iter([100.0, 110.0])  # construction, then snapshot
        reservoir = LatencyReservoir(clock=lambda: next(ticks))
        for _ in range(5):
            reservoir.record(0.001)
        assert reservoir.snapshot()["rps"] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(PlanningError, match="capacity"):
            LatencyReservoir(capacity=0)
        reservoir = LatencyReservoir()
        with pytest.raises(PlanningError, match="finite"):
            reservoir.record(-0.001)
        with pytest.raises(PlanningError, match="finite"):
            reservoir.record(float("nan"))
        with pytest.raises(PlanningError, match="finite"):
            reservoir.record(float("inf"))

    def test_concurrent_record_and_snapshot(self):
        """8 writers and a snapshot reader race; nothing is lost or torn."""
        reservoir = LatencyReservoir(capacity=64)
        n_threads, n_records = 8, 200
        errors = []

        def write():
            try:
                for _ in range(n_records):
                    reservoir.record(0.001)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        def read():
            try:
                for _ in range(100):
                    snap = reservoir.snapshot()
                    assert snap["window"] <= 64
                    assert snap["count"] >= snap["window"] > 0 or snap["count"] == 0
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(n_threads)]
        threads.append(threading.Thread(target=read))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert reservoir.count == n_threads * n_records  # no lost updates
        assert reservoir.snapshot()["window"] == 64


# ----------------------------------------------------------------------
# Artifact pool
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_dataset():
    return canned_city("chicago", "tiny")


class TestArtifactPool:
    def test_computed_then_pool_hit_same_object(self, tiny_dataset):
        pool = ArtifactPool()
        pre1, tier1 = pool.fetch(tiny_dataset, CONFIG)
        pre2, tier2 = pool.fetch(tiny_dataset, CONFIG)
        assert (tier1, tier2) == (TIER_COMPUTED, TIER_POOL)
        assert pre2 is pre1  # no copy, no reload — the resident object

    def test_disk_tier_promotes_into_pool(self, tiny_dataset, tmp_path):
        disk = PrecomputationCache(str(tmp_path))
        disk.store(precompute(tiny_dataset, CONFIG), tiny_dataset)
        pool = ArtifactPool(disk)
        _, tier1 = pool.fetch(tiny_dataset, CONFIG)
        _, tier2 = pool.fetch(tiny_dataset, CONFIG)
        assert (tier1, tier2) == (TIER_DISK, TIER_POOL)
        stats = pool.stats()
        assert stats["disk_hits"] == 1
        assert stats["entries"] == 1

    def test_computed_artifact_lands_on_disk_too(self, tiny_dataset, tmp_path):
        disk = PrecomputationCache(str(tmp_path))
        pool = ArtifactPool(disk)
        _, tier = pool.fetch(tiny_dataset, CONFIG)
        assert tier == TIER_COMPUTED
        assert disk.n_entries == 1  # the disk tier was populated

    def test_fetch_or_compute_duck_type(self, tiny_dataset):
        pool = ArtifactPool()
        _, hit1 = pool.fetch_or_compute(tiny_dataset, CONFIG)
        _, hit2 = pool.fetch_or_compute(tiny_dataset, CONFIG)
        assert (hit1, hit2) == (False, True)

    def test_same_key_different_search_knobs_rebinds(self, tiny_dataset):
        pool = ArtifactPool()
        pre1, _ = pool.fetch(tiny_dataset, CONFIG)
        other = CONFIG.variant(k=8, w=0.3)  # same key: search-side only
        pre2, tier = pool.fetch(tiny_dataset, other)
        assert tier == TIER_POOL
        assert pre2.config == other
        assert pre2.universe is pre1.universe  # rebind shares the arrays
        assert pool.stats()["entries"] == 1

    def test_byte_budget_evicts_lru(self, tiny_dataset):
        one = precomputation_nbytes(precompute(tiny_dataset, CONFIG))
        pool = ArtifactPool(max_bytes=one + one // 2)  # room for ~1.5
        pool.fetch(tiny_dataset, CONFIG)
        pool.fetch(tiny_dataset, CONFIG.variant(tau_km=0.49))  # distinct key
        stats = pool.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] <= pool.max_bytes
        # The evicted (older) key is gone: fetching it recomputes.
        _, tier = pool.fetch(tiny_dataset, CONFIG)
        assert tier == TIER_COMPUTED

    def test_touch_on_hit_protects_from_eviction(self, tiny_dataset):
        one = precomputation_nbytes(precompute(tiny_dataset, CONFIG))
        pool = ArtifactPool(max_bytes=2 * one + one // 2)  # room for ~2.5
        pool.fetch(tiny_dataset, CONFIG)
        pool.fetch(tiny_dataset, CONFIG.variant(tau_km=0.49))
        pool.fetch(tiny_dataset, CONFIG)  # touch: now tau_km=0.49 is LRU
        pool.fetch(tiny_dataset, CONFIG.variant(tau_km=0.48))  # evicts it
        _, tier = pool.fetch(tiny_dataset, CONFIG)
        assert tier == TIER_POOL  # the touched entry survived

    def test_estimate_counts_the_probe_block(self, tiny_dataset):
        # Only the hutchinson mode draws the estimator's probe block,
        # n x 50 float64s: on tiny chicago more than the rest of the
        # estimate. The exact mode holds no estimator.
        exact = precompute(tiny_dataset, CONFIG)
        hutchinson = precompute(
            tiny_dataset, CONFIG.variant(increment_mode="hutchinson")
        )
        n = exact.universe.n_stops
        assert exact.estimator is None
        assert (
            precomputation_nbytes(hutchinson) - precomputation_nbytes(exact)
            == n * 50 * 8
        )

    def test_single_oversized_artifact_stays_resident(self, tiny_dataset):
        pool = ArtifactPool(max_bytes=1)  # smaller than any artifact
        pool.fetch(tiny_dataset, CONFIG)
        assert pool.stats()["entries"] == 1  # newest is never evicted
        _, tier = pool.fetch(tiny_dataset, CONFIG)
        assert tier == TIER_POOL

    def test_budget_validation(self):
        with pytest.raises(PlanningError, match="budget"):
            ArtifactPool(max_bytes=0)

    def test_hit_rate_accounting(self, tiny_dataset):
        pool = ArtifactPool()
        pool.fetch(tiny_dataset, CONFIG)
        pool.fetch(tiny_dataset, CONFIG)
        pool.fetch(tiny_dataset, CONFIG)
        stats = pool.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)


# ----------------------------------------------------------------------
# The plan daemon (frame front door)
# ----------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    daemon = PlanServer(
        secret=SECRET, cache_dir=str(tmp_path / "serve-cache")
    )
    daemon.start_in_thread()
    yield daemon
    daemon.shutdown()


class TestPlanServer:
    def test_served_plan_matches_direct_planner(self, server, tiny_dataset):
        """The oracle: a served plan is bit-identical to `repro plan`."""
        scenario = make_scenario()
        with served_connection(server) as sock:
            served = plan_once(sock, scenario)

        direct = CTBusPlanner(tiny_dataset, CONFIG).plan("eta-pre")
        want = to_wire(direct)
        got = served["record"]["results_wire"]
        assert len(got) == 1
        got = dict(got[0])
        # Wall time is the one legitimately nondeterministic field.
        got.pop("runtime_s")
        want.pop("runtime_s")
        assert got == want

    def test_repeat_requests_are_bit_identical_and_pooled(self, server):
        scenario = make_scenario()
        with served_connection(server) as sock:
            first = plan_once(sock, scenario)
            second = plan_once(sock, scenario)
        assert first["tier"] == TIER_COMPUTED
        assert second["tier"] == TIER_POOL
        strip = lambda reply: [
            {k: v for k, v in r.items() if k != "runtime_s"}
            for r in reply["record"]["results_wire"]
        ]
        assert strip(first) == strip(second)

    def test_warm_request_skips_disk_artifact_load(
        self, tmp_path, monkeypatch
    ):
        """The pool's point: a warm plan never deserializes the npz."""
        cache_dir = str(tmp_path / "cache")
        scenario = make_scenario()
        loads = []
        original = Precomputation.load.__func__

        def counting_load(cls, prefix, dataset, config):
            loads.append(prefix)
            return original(cls, prefix, dataset, config)

        monkeypatch.setattr(
            Precomputation, "load", classmethod(counting_load)
        )

        first = PlanServer(secret=SECRET, cache_dir=cache_dir)
        first.start_in_thread()
        try:
            with served_connection(first) as sock:
                assert plan_once(sock, scenario)["tier"] == TIER_COMPUTED
        finally:
            first.shutdown()
        assert loads == []  # computing + storing never loads

        second = PlanServer(secret=SECRET, cache_dir=cache_dir)
        second.start_in_thread()
        try:
            with served_connection(second) as sock:
                assert plan_once(sock, scenario)["tier"] == TIER_DISK
                n_loads_after_cold = len(loads)
                assert plan_once(sock, scenario)["tier"] == TIER_POOL
        finally:
            second.shutdown()
        # The warm request added zero disk loads.
        assert len(loads) == n_loads_after_cold == 1

    def test_stats_op_reports_the_contract_fields(self, server):
        scenario = make_scenario()
        with served_connection(server) as sock:
            plan_once(sock, scenario)
            plan_once(sock, scenario)
            send_frame(sock, {"op": "stats"})
            stats = recv_frame(sock)
        assert stats["op"] == "stats"
        latency = stats["latency"]
        assert latency["count"] == 2
        for field in ("p50_ms", "p95_ms", "p99_ms"):
            assert latency[field] > 0.0
        assert latency["rps"] > 0.0
        pool = stats["pool"]
        assert pool["hit_rate"] == pytest.approx(0.5)
        assert pool["entries"] == 1
        assert pool["bytes"] > 0

    def test_ping_identifies_the_role(self, server):
        from repro.sweep.remote import ping

        pong = ping(server.address, secret=SECRET)
        assert pong["role"] == "serve"

    def test_bad_plan_request_is_typed_and_survivable(self, server):
        with served_connection(server) as sock:
            send_frame(sock, {
                "op": "plan", "protocol": PROTOCOL_VERSION,
                "scenario": {"city": "atlantis"},
            })
            error = recv_frame(sock)
        assert error["op"] == "error"
        # A fresh session still works: the daemon survived the garbage.
        with served_connection(server) as sock:
            assert plan_once(sock, make_scenario())["op"] == "plan_result"

    def test_wrong_protocol_is_rejected(self, server):
        with served_connection(server) as sock:
            send_frame(sock, {
                "op": "plan", "protocol": 1,
                "scenario": to_wire(make_scenario()),
            })
            error = recv_frame(sock)
        assert error["op"] == "error"
        assert "protocol" in error["error"]

    def test_failed_requests_still_record_latency(self, server):
        with served_connection(server) as sock:
            send_frame(sock, {
                "op": "plan", "protocol": PROTOCOL_VERSION,
                "scenario": {"name": "x", "method": "teleport"},
            })
            recv_frame(sock)
        assert server.latency.count == 1

    def test_shutdown_op_stops_everything(self, tmp_path):
        daemon = PlanServer(secret=SECRET)
        daemon.start_in_thread()
        with served_connection(daemon) as sock:
            plan_once(sock, make_scenario())  # spin up the planner thread
            send_frame(sock, {"op": "shutdown"})
            assert recv_frame(sock)["op"] == "bye"
        assert wait_until(daemon._shutdown.is_set)
        assert wait_until(lambda: daemon.n_live_connections == 0)
        with pytest.raises(PlanningError, match="shutting down"):
            daemon.plan_request({"scenario": to_wire(make_scenario())})

    def test_refused_argument_leaves_no_unclosed_socket(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(PlanningError, match="pool byte budget"):
                PlanServer(pool_bytes=0)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []


# ----------------------------------------------------------------------
# HTTP front door
# ----------------------------------------------------------------------
@pytest.fixture()
def http_door(server):
    http_server = build_http_server(server, "127.0.0.1", 0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{http_server.server_address[1]}"
    http_server.shutdown()
    http_server.server_close()


def http_json(url, body=None, token=None, method=None):
    headers = {}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    data = None
    if body is not None:
        data = json.dumps(body).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, headers=headers, method=method
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


class TestHTTPDoor:
    def test_stats_round_trip(self, http_door):
        status, stats = http_json(
            f"{http_door}/stats", token=http_token(SECRET)
        )
        assert status == 200
        assert set(stats["latency"]) == {
            "count", "window", "rps", "p50_ms", "p95_ms", "p99_ms"
        }
        assert stats["pool"]["max_bytes"] > 0

    def test_requests_without_token_are_401(self, http_door):
        for url, body in ((f"{http_door}/stats", None),
                          (f"{http_door}/plan", {})):
            with pytest.raises(urllib.error.HTTPError) as err:
                http_json(url, body=body)
            err.value.close()
            assert err.value.code == 401

    def test_wrong_token_is_401(self, http_door):
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{http_door}/stats", token="f" * 64)
        err.value.close()
        assert err.value.code == 401

    def test_plan_parity_with_frame_door(self, server, http_door):
        scenario = make_scenario()
        with served_connection(server) as sock:
            framed = plan_once(sock, scenario)
        status, http_reply = http_json(
            f"{http_door}/plan",
            body={"scenario": to_wire(scenario),
                  "base_config": asdict(CONFIG)},
            token=http_token(SECRET),
        )
        assert status == 200
        assert http_reply["tier"] == TIER_POOL  # the frame plan warmed it
        strip = lambda record: [
            {k: v for k, v in r.items() if k != "runtime_s"}
            for r in record["results_wire"]
        ]
        assert strip(http_reply["record"]) == strip(framed["record"])

    def test_bad_plan_body_is_400(self, http_door):
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{http_door}/plan", body={"scenario": None},
                      token=http_token(SECRET))
        err.value.close()
        assert err.value.code == 400

    def test_unknown_endpoint_is_404(self, http_door):
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{http_door}/nope", token=http_token(SECRET))
        err.value.close()
        assert err.value.code == 404

    def test_shutdown_endpoint_stops_the_daemon(self, server, http_door):
        status, reply = http_json(
            f"{http_door}/shutdown", body={}, token=http_token(SECRET),
            method="POST",
        )
        assert status == 200 and reply == {"ok": True}
        assert wait_until(server._shutdown.is_set)

    def test_keep_alive_replies_are_not_delayed(self, http_door):
        # 20 requests on one kept-alive connection. With Nagle's
        # algorithm on, each reply waited ~40 ms for the client's
        # delayed ACK (>= 0.8 s in all); unhindered they take ~10 ms.
        port = urllib.parse.urlsplit(http_door).port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        headers = {"Authorization": f"Bearer {http_token(SECRET)}"}
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/stats", headers=headers)
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read())
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4

    @pytest.mark.parametrize("path, headers, status", [
        ("/plan", {}, 401),
        ("/nope", {"Authorization": f"Bearer {http_token(SECRET)}"}, 404),
        ("/plan", {"Authorization": f"Bearer {http_token(SECRET)}",
                   "Content-Length": "many"}, 400),
        ("/plan", {"Authorization": f"Bearer {http_token(SECRET)}",
                   "Content-Length": str(MAX_BODY_BYTES + 1)}, 400),
    ])
    def test_refused_request_does_not_poison_the_connection(
        self, http_door, path, headers, status
    ):
        # The refusal leaves the POST body unread. Kept alive, the next
        # request on the connection was parsed from those bytes (a 400).
        port = urllib.parse.urlsplit(http_door).port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        body = json.dumps({"scenario": to_wire(make_scenario())})
        try:
            conn.request("POST", path, body=body, headers=headers)
            response = conn.getresponse()
            response.read()
            assert response.status == status
            assert response.getheader("Connection") == "close"
            conn.request("GET", "/stats", headers={
                "Authorization": f"Bearer {http_token(SECRET)}",
            })
            response = conn.getresponse()
            assert response.status == 200
            assert "latency" in json.loads(response.read())
        finally:
            conn.close()

    def test_token_is_not_the_secret(self):
        token = http_token(SECRET)
        assert token is not None
        assert SECRET.hex() not in token
        assert http_token(None) is None


# ----------------------------------------------------------------------
# Both doors refuse a value they would otherwise coerce
# ----------------------------------------------------------------------
BAD_VALUES = pytest.mark.parametrize("field, value, named", [
    ("overrides", {"k": 0}, "k must be >= 1"),
    ("overrides", {"k": 12.5}, "'k' must be int"),
    ("overrides", {"max_turns": 1.5}, "'max_turns' must be int"),
    ("overrides", {"use_domination": 1}, "'use_domination' must be bool"),
    # The codec names a scenario field by its quoted path, which ends in
    # the field name: 'scenario.route_count'.
    ("route_count", 2.9, "route_count' must be int"),
    ("route_count", "2", "route_count' must be int"),
    ("route_count", True, "route_count' must be int"),
    # A field this build no longer has is refused by its name.
    ("seed", 0, "unknown keys ['seed']"),
    ("constraints", {"anchor_stop": "3"}, "anchor_stop' must be int"),
    ("overrides", {"lanczos_steps": 10}, "argument 'lanczos_steps'"),
])


def bad_spec(field, value) -> dict:
    return {**to_wire(make_scenario()), field: value}


class TestStrictRequests:
    @BAD_VALUES
    def test_frame_door_refuses_naming_the_field(
        self, server, field, value, named
    ):
        with served_connection(server) as sock:
            send_frame(sock, {
                "op": "plan", "protocol": PROTOCOL_VERSION,
                "scenario": bad_spec(field, value),
            })
            error = recv_frame(sock)
        assert error["op"] == "error"
        assert named in error["error"]
        assert ping(server.address, secret=SECRET)["role"] == "serve"

    @BAD_VALUES
    def test_http_door_refuses_naming_the_field(
        self, server, http_door, field, value, named
    ):
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{http_door}/plan", body={
                "scenario": bad_spec(field, value),
            }, token=http_token(SECRET))
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        err.value.close()
        assert named in error
        assert ping(server.address, secret=SECRET)["role"] == "serve"

    def test_http_door_refuses_a_removed_base_config_field(
        self, server, http_door
    ):
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{http_door}/plan", body={
                "scenario": to_wire(make_scenario()),
                "base_config": {**asdict(CONFIG), "n_probes": 50},
            }, token=http_token(SECRET))
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        err.value.close()
        assert "unknown keys ['n_probes']" in error


# ----------------------------------------------------------------------
# Both doors refuse a constraint id the city does not have
# ----------------------------------------------------------------------
OUT_OF_RANGE = pytest.mark.parametrize("constraints, named", [
    ({"anchor_stop": 99999}, "99999"),
    ({"forbid_edges": [1000000]}, "1000000"),
])


def out_of_range_request(constraints) -> dict:
    return {
        "scenario": {**to_wire(make_scenario()), "constraints": constraints},
        "base_config": asdict(CONFIG),
    }


class TestOutOfRangeConstraints:
    """The id reaches the planner thread; the refusal is still the client's."""

    @OUT_OF_RANGE
    def test_frame_door_answers_an_error_naming_the_id(
        self, server, constraints, named
    ):
        with served_connection(server) as sock:
            send_frame(sock, {
                "op": "plan", "protocol": PROTOCOL_VERSION,
                **out_of_range_request(constraints),
            })
            error = recv_frame(sock)
        assert error["op"] == "error"
        assert named in error["error"]
        assert ping(server.address, secret=SECRET)["role"] == "serve"

    @OUT_OF_RANGE
    def test_http_door_answers_400_naming_the_id(
        self, server, http_door, constraints, named
    ):
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(
                f"{http_door}/plan", body=out_of_range_request(constraints),
                token=http_token(SECRET),
            )
        assert err.value.code == 400
        error = json.loads(err.value.read())["error"]
        err.value.close()
        assert named in error
        assert ping(server.address, secret=SECRET)["role"] == "serve"
