"""The ``repro serve`` daemon: long-lived planning over the frame protocol.

:class:`PlanServer` extends the sweep fabric's
:class:`~repro.sweep.remote.FrameServer` with three ops —

* ``plan`` — execute one scenario through the exact
  :func:`~repro.sweep.runner.execute_scenario` code path the CLI and
  the sweep workers use, but against the in-memory
  :class:`~repro.serve.pool.ArtifactPool` (disk cache second tier), so
  a warm city answers without touching the filesystem;
* ``stats`` — latency quantiles, RPS, and pool counters (the same
  document the HTTP ``GET /stats`` endpoint returns);
* ``shutdown`` — stop accepting, drop live peers, stop the planner.

Determinism and the parity oracle: planning mutates shared
precomputation state (the adjacency builder's lazily built base
matrix), so two requests planning concurrently against one pooled
artifact would race on that state. The server therefore runs *all*
planning on one dedicated planner thread fed by a queue: handler
threads stay free for pings/stats/new connections, no lock is held
across the (blocking, linalg-heavy) planning work, and a served plan
is bit-identical to the same ``repro plan`` invocation — which the
oracle test pins.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import ClassVar

from repro.core.config import PlannerConfig
from repro.serve.pool import (
    DEFAULT_POOL_BYTES,
    TIER_COMPUTED,
    TIER_DISK,
    TIER_POOL,
    ArtifactPool,
)
from repro.serve.stats import LatencyReservoir
from repro.sweep.cache import PrecomputationCache
from repro.sweep.remote import (
    DEFAULT_HOST,
    DEFAULT_IDLE_TIMEOUT,
    PROTOCOL_VERSION,
    ErrorFrame,
    FrameServer,
    send_frame,
)
from repro.sweep.report import OutcomeRecord
from repro.sweep.runner import execute_scenario
from repro.sweep.scenario import Scenario
from repro.utils.errors import DataError, PlanningError, ValidationError
from repro.utils.wire import Record, from_wire, to_wire

SERVE_SCHEMA_VERSION = 1
"""Version of the ``plan_result`` / ``stats`` response documents."""


@dataclass(frozen=True)
class PlanRequest(Record):
    """The body of ``POST /plan``."""

    scenario: Scenario
    base_config: "PlannerConfig | None" = None


@dataclass(frozen=True)
class PlanFrame(Record):
    """The frame door's plan request: a :class:`PlanRequest` plus op and
    protocol."""

    op: ClassVar[str] = "plan"
    protocol: int
    scenario: Scenario
    base_config: "PlannerConfig | None" = None


@dataclass(frozen=True)
class StatsFrame(Record):
    op: ClassVar[str] = "stats"


@dataclass(frozen=True)
class PlanReply(Record):
    """The body of the answer to ``POST /plan``."""

    schema: int
    scenario: Scenario
    tier: str
    record: OutcomeRecord


class PlanResultFrame(PlanReply):
    """The frame door's answer: a :class:`PlanReply` under its op."""

    op: ClassVar[str] = "plan_result"


@dataclass(frozen=True)
class ServePongFrame(Record):
    op: ClassVar[str] = "pong"
    protocol: int
    pid: int
    role: str
    cache_dir: "str | None"


class _PlanJob:
    """One queued planning request and its reply slot."""

    __slots__ = ("scenario", "base_config", "reply")

    def __init__(self, scenario, base_config):
        self.scenario = scenario
        self.base_config = base_config
        self.reply: "queue.Queue" = queue.Queue(maxsize=1)


class PlanServer(FrameServer):
    """Planning-as-a-service daemon with a hot artifact pool.

    ``cache_dir`` attaches a :class:`PrecomputationCache` as the disk
    tier under the pool (``None`` keeps artifacts memory-only);
    ``cache_max_bytes`` puts a standing byte budget on that disk tier.
    ``pool_bytes`` budgets the in-memory pool. The frame protocol,
    handshake, secret, and idle-timeout semantics are inherited from
    :class:`FrameServer` unchanged.
    """

    frames: ClassVar["dict[str, type]"] = {
        **FrameServer.frames, "plan": PlanFrame, "stats": StatsFrame,
    }

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        secret=None,
        cache_dir: "str | None" = None,
        pool_bytes: int = DEFAULT_POOL_BYTES,
        idle_timeout: "float | None" = DEFAULT_IDLE_TIMEOUT,
        cache_max_bytes: "int | None" = None,
    ):
        # Built before the port is bound: a refused argument leaks no socket.
        cache_dir = str(cache_dir) if cache_dir else None
        disk = (
            PrecomputationCache(cache_dir, max_bytes=cache_max_bytes)
            if cache_dir
            else None
        )
        pool = ArtifactPool(disk, max_bytes=pool_bytes)
        super().__init__(
            host=host, port=port, secret=secret, idle_timeout=idle_timeout
        )
        self.cache_dir = cache_dir
        self.pool = pool
        self.latency = LatencyReservoir()
        self._started = time.monotonic()
        # Handler threads hand jobs to the planner through this queue;
        # the planner runs until shutdown() sends it the None sentinel.
        self._jobs: "queue.Queue[_PlanJob | None]" = queue.Queue()
        self._planner = threading.Thread(target=self._plan_loop, daemon=True)
        self._planner.start()

    # ------------------------------------------------------------------
    # The single planner thread
    # ------------------------------------------------------------------
    def _submit(self, scenario, base_config) -> tuple:
        """Queue one plan and wait for ``(outcome, tier)``.

        Refuses once shutdown has begun, and polls the reply queue so a
        handler never blocks past shutdown on a plan that will not
        finish.
        """
        if self._shutdown.is_set():
            raise PlanningError("server is shutting down")
        job = _PlanJob(scenario, base_config)
        self._jobs.put(job)
        while True:
            try:
                outcome, tier, error = job.reply.get(timeout=1.0)
                break
            except queue.Empty:
                if self._shutdown.is_set():
                    raise PlanningError(
                        "server shut down while planning"
                    ) from None
        if error is not None:
            raise error
        return outcome, tier

    def _plan_loop(self) -> None:
        """Drain plan jobs serially (see the module docstring for why)."""
        while True:
            job = self._jobs.get()
            if job is None:  # shutdown sentinel
                return
            try:
                before = self.pool.stats()
                outcome = execute_scenario(
                    job.scenario, job.base_config, cache=self.pool
                )
                after = self.pool.stats()
                # Exact because planning is serialized: only this job
                # moved the counters between the two snapshots.
                if after["hits"] > before["hits"]:
                    tier = TIER_POOL
                elif after["disk_hits"] > before["disk_hits"]:
                    tier = TIER_DISK
                else:
                    tier = TIER_COMPUTED
                job.reply.put((outcome, tier, None))
            except Exception as exc:  # noqa: BLE001 — reply, don't die
                job.reply.put((None, None, exc))

    def shutdown(self) -> None:
        super().shutdown()
        if self._planner.is_alive():
            self._jobs.put(None)
            self._planner.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Request handling (shared by the frame and HTTP front doors)
    # ------------------------------------------------------------------
    def plan_request(self, doc) -> dict:
        """Serve one ``POST /plan`` body; returns the reply body.

        ``doc`` decodes as a :class:`PlanRequest`: a ``"scenario"``
        (a :class:`Scenario`) and an optional ``"base_config"`` (a full
        :class:`PlannerConfig` field mapping). Any other key, and every
        validation failure, raises :class:`PlanningError`. A request
        that decodes has its latency recorded whether it plans or not,
        so ``/stats`` reflects what clients actually experienced.
        """
        try:
            request = from_wire(PlanRequest, doc)
        except DataError as exc:
            raise PlanningError(f"bad plan request: {exc}") from None
        return to_wire(self._plan(request, PlanReply))

    def _plan(self, request, reply_cls):
        """Plan a decoded :class:`PlanRequest` or :class:`PlanFrame`,
        answering ``reply_cls``."""
        started = time.perf_counter()
        try:
            try:
                request.scenario.validate(request.base_config)
            except ValidationError as exc:
                raise PlanningError(f"bad plan request: {exc}") from None
            outcome, tier = self._submit(
                request.scenario, request.base_config
            )
        finally:
            self.latency.record(time.perf_counter() - started)
        return reply_cls(
            schema=SERVE_SCHEMA_VERSION,
            scenario=request.scenario,
            tier=tier,
            record=OutcomeRecord.of(outcome),
        )

    def stats(self) -> dict:
        """The ``/stats`` document (frame ``stats`` op returns it too)."""
        return {
            "schema": SERVE_SCHEMA_VERSION,
            "protocol": PROTOCOL_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "cache_dir": self.cache_dir,
            "latency": self.latency.snapshot(),
            "pool": self.pool.stats(),
        }

    # ------------------------------------------------------------------
    def pong(self) -> ServePongFrame:
        return ServePongFrame(
            protocol=PROTOCOL_VERSION,
            pid=os.getpid(),
            role="serve",
            cache_dir=self.cache_dir,
        )

    def handle(self, conn: socket.socket, frame) -> bool:
        if isinstance(frame, StatsFrame):
            send_frame(conn, {"op": "stats", **self.stats()})
            return True
        if not isinstance(frame, PlanFrame):
            return super().handle(conn, frame)
        try:
            reply = self._plan(frame, PlanResultFrame)
        except Exception as exc:  # noqa: BLE001 — report, close, survive
            send_frame(conn, ErrorFrame(error=str(exc)))
            return False
        send_frame(conn, reply)
        return True


def serve_plans(
    host: str = DEFAULT_HOST,
    port: int = 0,
    secret=None,
    cache_dir: "str | None" = None,
    pool_bytes: int = DEFAULT_POOL_BYTES,
    idle_timeout: "float | None" = DEFAULT_IDLE_TIMEOUT,
    cache_max_bytes: "int | None" = None,
) -> PlanServer:
    """Bind a :class:`PlanServer` (CLI helper; caller serves/loops)."""
    try:
        return PlanServer(
            host=host, port=port, secret=secret, cache_dir=cache_dir,
            pool_bytes=pool_bytes, idle_timeout=idle_timeout,
            cache_max_bytes=cache_max_bytes,
        )
    except OSError as exc:
        raise PlanningError(
            f"cannot bind plan server to {host}:{port}: {exc}"
        ) from None
