"""Threaded regression tests for the classes that share boxed state.

These pin the cross-thread behavior that ``repro check`` (RPR011)
enforces statically by keeping shared state in ``Guarded`` boxes:
``Heartbeat.last_error`` is readable from any thread while the beat
loop writes it, ``_WorkQueue`` survives a worker death without losing
or duplicating scenarios, ``RegistryServer``'s roster stays consistent
under concurrent register/deregister traffic, racing cold
``ArtifactPool`` fetches converge on one artifact, and a
``FrameServer`` counts and releases concurrent peers.

All synchronization is barrier-driven — no ``time.sleep`` voodoo:
every assertion runs at a rendezvous point that happens-after the
write it observes.
"""

import gc
import socket
import threading
import time
import warnings

import pytest

from repro.core.config import PlannerConfig
from repro.data.datasets import canned_city
from repro.serve.pool import ArtifactPool, precomputation_nbytes
from repro.sweep.registry import Heartbeat, RegistryServer, WorkerRecord
from repro.sweep.remote import (
    WorkerServer,
    _WorkQueue,
    connect_authenticated,
    ping,
)

BARRIER_TIMEOUT = 10.0


class _GatedRegistry:
    """A registry whose ``register`` rendezvouses with the test.

    The first call (``Heartbeat.start``'s synchronous registration)
    passes straight through. Every later call — a beat on the
    heartbeat thread — parks at ``gate_in`` so the test can assert on
    ``last_error`` *knowing the previous beat fully completed*, then
    proceeds past ``gate_out`` and succeeds or raises per ``fail``.
    """

    def __init__(self):
        self.gate_in = threading.Barrier(2, timeout=BARRIER_TIMEOUT)
        self.gate_out = threading.Barrier(2, timeout=BARRIER_TIMEOUT)
        self.fail = False
        self._calls = 0
        self._lock = threading.Lock()

    def register(self, record):
        with self._lock:
            self._calls += 1
            first = self._calls == 1
        if first:
            return
        self.gate_in.wait()
        # The test writes ``fail`` while this beat is parked above;
        # reading it after gate_out makes that write happen-before.
        self.gate_out.wait()
        if self.fail:
            raise OSError("scripted registry outage")

    def deregister(self, key):
        pass


class TestHeartbeatLastErrorCrossThread:
    def test_error_transitions_observed_from_main_thread(self):
        registry = _GatedRegistry()
        heartbeat = Heartbeat(
            registry, WorkerRecord(host="h", port=1), interval=0.001
        )
        heartbeat.start()
        try:
            # Beat 1 parked at gate_in: nothing failed yet.
            registry.fail = True
            registry.gate_in.wait()
            assert heartbeat.last_error is None
            registry.gate_out.wait()  # beat 1 runs and raises

            # Beat 2 parked: beat 1 completed, its error is visible
            # here on the main thread.
            registry.gate_in.wait()
            assert "OSError" in heartbeat.last_error
            assert "scripted registry outage" in heartbeat.last_error
            registry.fail = False
            registry.gate_out.wait()  # beat 2 succeeds, clears it

            # Beat 3 parked: the healthy beat reset last_error.
            registry.gate_in.wait()
            assert heartbeat.last_error is None
            heartbeat._stop.set()  # let beat 3 be the last one
            registry.gate_out.wait()
        finally:
            heartbeat.stop(deregister=False)
        assert heartbeat.last_error is None


class TestWorkQueueRequeueUnderContention:
    def test_dead_workers_chunk_is_redone_exactly_once(self):
        items = list(range(60))
        queue = _WorkQueue(list(items), initial_active=0)
        for worker_id, weight in (("a", 1), ("b", 2), ("c", 4)):
            queue.add_worker(worker_id, weight)

        start = threading.Barrier(4, timeout=BARRIER_TIMEOUT)
        done: "list[int]" = []
        done_lock = threading.Lock()

        def survivor(worker_id):
            start.wait()
            while True:
                chunk = queue.get(worker_id)
                if chunk is None:
                    return
                with done_lock:
                    done.extend(chunk)
                queue.task_done()

        def casualty(worker_id):
            # Pull one chunk, "die", and hand it back: the survivors
            # must absorb it — nothing lost, nothing run twice.
            start.wait()
            chunk = queue.get(worker_id)
            if chunk is None:
                return
            queue.retire(worker_id)
            queue.task_done(requeue=chunk)

        threads = [
            threading.Thread(target=survivor, args=("a",), daemon=True),
            threading.Thread(target=survivor, args=("b",), daemon=True),
            threading.Thread(target=casualty, args=("c",), daemon=True),
        ]
        for thread in threads:
            thread.start()
        start.wait()
        for thread in threads:
            thread.join(timeout=BARRIER_TIMEOUT)
            assert not thread.is_alive(), "queue deadlocked"
        assert sorted(done) == items
        assert queue.drain() == []

    def test_get_returns_none_for_every_late_puller(self):
        queue = _WorkQueue([1, 2, 3], initial_active=0)
        queue.add_worker("a", 1)
        assert queue.get("a") == [1, 2, 3]
        queue.task_done()

        start = threading.Barrier(3, timeout=BARRIER_TIMEOUT)
        results = []
        results_lock = threading.Lock()

        def puller(worker_id):
            start.wait()
            value = queue.get(worker_id)
            with results_lock:
                results.append(value)

        threads = [
            threading.Thread(target=puller, args=(w,), daemon=True)
            for w in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        start.wait()
        for thread in threads:
            thread.join(timeout=BARRIER_TIMEOUT)
            assert not thread.is_alive(), "empty-queue get never returned"
        assert results == [None, None]


class TestRegistryServerConcurrentRoster:
    @pytest.fixture()
    def server(self):
        server = RegistryServer(port=0, ttl=60.0)
        yield server
        server.shutdown()

    def test_parallel_register_then_deregister(self, server):
        n_threads, per_thread = 8, 10
        start = threading.Barrier(n_threads, timeout=BARRIER_TIMEOUT)

        def storm(thread_index):
            start.wait()
            for i in range(per_thread):
                record = WorkerRecord(
                    host=f"t{thread_index}", port=1000 + i
                )
                server.register_record(record)
                server.live_workers()  # reads interleave with writes
            if thread_index % 2 == 0:
                for i in range(per_thread):
                    key = WorkerRecord(
                        host=f"t{thread_index}", port=1000 + i
                    ).key
                    with server._roster as roster:
                        roster.workers.pop(key, None)

        threads = [
            threading.Thread(target=storm, args=(t,), daemon=True)
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=BARRIER_TIMEOUT)
            assert not thread.is_alive()

        survivors = {record.key for record in server.live_workers()}
        expected = {
            WorkerRecord(host=f"t{t}", port=1000 + i).key
            for t in range(1, n_threads, 2)
            for i in range(per_thread)
        }
        assert survivors == expected


class TestArtifactPoolColdKeyRace:
    def test_racing_cold_fetches_converge_on_one_artifact(self):
        """Six threads miss one cold key at once: each computes, the
        first insert wins, and every caller leaves with that object."""
        n_threads = 6
        dataset = canned_city("chicago", "tiny")
        config = PlannerConfig(k=6, max_iterations=40, seed_count=20)
        pool = ArtifactPool()
        start = threading.Barrier(n_threads, timeout=BARRIER_TIMEOUT)
        results = [None] * n_threads

        def fetch(slot):
            start.wait()
            results[slot] = pool.fetch(dataset, config)[0]

        threads = [
            threading.Thread(target=fetch, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()

        pre = results[0]
        assert pre is not None
        assert all(result is pre for result in results)
        stats = pool.stats()
        assert stats["entries"] == 1
        assert stats["hits"] + stats["misses"] == n_threads
        assert stats["bytes"] == precomputation_nbytes(pre)


class TestFrameServerLiveConnections:
    SECRET = b"concurrency-suite-secret"

    def test_concurrent_clients_are_counted_then_released(self):
        n_clients = 5
        server = WorkerServer(secret=self.SECRET)
        server.start_in_thread()
        connected = threading.Barrier(n_clients + 1, timeout=BARRIER_TIMEOUT)
        release = threading.Barrier(n_clients + 1, timeout=BARRIER_TIMEOUT)

        def client():
            with connect_authenticated(
                server.address, self.SECRET, BARRIER_TIMEOUT
            ):
                # The server registers a connection before its handshake
                # starts, so every client past the handshake is counted.
                connected.wait()
                release.wait()

        threads = [
            threading.Thread(target=client, daemon=True)
            for _ in range(n_clients)
        ]
        try:
            for thread in threads:
                thread.start()
            connected.wait()
            assert server.n_live_connections == n_clients
            release.wait()
            for thread in threads:
                thread.join(timeout=BARRIER_TIMEOUT)
                assert not thread.is_alive()
            deadline = time.monotonic() + BARRIER_TIMEOUT
            while server.n_live_connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.n_live_connections == 0
        finally:
            server.shutdown()


class TestShutdownClosesListener:
    """``shutdown()`` itself closes the listening socket: a daemon that
    never served, or whose accept loop is mid-poll, refuses new peers
    as soon as it returns instead of parking them in the backlog."""

    def test_connect_refused_after_shutdown_without_serve_loop(self):
        server = RegistryServer(port=0)
        address = server.address
        server.shutdown()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=BARRIER_TIMEOUT)

    def test_connect_refused_after_shutdown_of_served_daemon(self):
        server = WorkerServer()
        server.start_in_thread()
        assert ping(server.address)["op"] == "pong"
        server.shutdown()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(server.address, timeout=BARRIER_TIMEOUT)

    def test_failed_bind_leaves_no_unclosed_socket(self):
        holder = WorkerServer()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(OSError):
                    WorkerServer(port=holder.port)
                gc.collect()
            leaks = [
                w for w in caught if issubclass(w.category, ResourceWarning)
            ]
            assert leaks == []
        finally:
            holder.shutdown()
