"""Worker registry: discovery and capacity advertisement for sweeps.

PR 4's remote backend required every worker daemon to be enumerated by
hand (``--workers-at host:port,...``). This module adds the topology
layer: workers *register themselves* — a heartbeat carrying their
address, advertised ``capacity`` (the weighted-sharding weight), cache
directory fingerprint, and wire protocol version — and a sweep resolves
the live roster at start (``repro sweep --backend remote --registry
...``), with mid-sweep re-queries backfilling workers that join late.

Two interchangeable registries implement one small contract
(:class:`Registry`):

* :class:`TcpRegistry` / :class:`RegistryServer` — a ``repro registry
  serve`` daemon speaking the same authenticated frame protocol as the
  workers (:mod:`repro.sweep.remote`), for multi-host deployments. The
  server stamps ``last_seen`` itself, so worker clocks never matter —
  and it prunes on a *monotonic* stamp, so its own wall clock stepping
  (NTP) never matters either; ``last_seen`` is display provenance only.
* :class:`FileRegistry` — a JSON file (``--registry path.json``) for
  single-host use: workers heartbeat into it with atomic replaces, the
  sweep just reads it. No extra daemon to run.

Records age out after ``ttl`` seconds without a heartbeat (a crashed
worker disappears from discovery on its own); :class:`Heartbeat` is the
worker-side loop that keeps a registration fresh and deregisters on
clean shutdown.

Registry record schema (wire and file form)::

    {"host": "10.0.0.7", "port": 7401, "capacity": 4, "protocol": 2,
     "cache_fingerprint": "9f2b6c1d3e4a" | null, "last_seen": 1699.25}

The registry ops ride the same handshake-first frame protocol as the
workers (one shared secret covers the whole fabric)::

    {"op": "register", "protocol": 2, "worker": <record>}
                                   -> {"op": "registered", "ttl": 30.0}
    {"op": "deregister", "key": "host:port"}
                                   -> {"op": "deregistered"}
    {"op": "workers"}              -> {"op": "workers", "workers": [...]}
    {"op": "ping"}                 -> {"op": "pong", "role": "registry", ...}
    {"op": "shutdown"}             -> {"op": "bye"}
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

from repro.sweep.remote import (
    DEFAULT_HOST,
    PROTOCOL_VERSION,
    ErrorFrame,
    FrameServer,
    RemoteProtocolError,
    connect_authenticated,
    decode_reply,
    recv_frame,
    send_frame,
)
from repro.utils.errors import DataError, PlanningError
from repro.utils.fsio import atomic_write_text
from repro.utils.guarded import Guarded
from repro.utils.timing import wall_clock
from repro.utils.wire import Record, from_wire, to_wire

DEFAULT_TTL = 30.0
"""Seconds a registration stays live without a fresh heartbeat."""

DEFAULT_HEARTBEAT = 2.0
"""Worker-side default interval between registration refreshes."""

DEFAULT_REGISTRY_PORT = 7500
"""Default TCP port for ``repro registry serve``."""

REGISTRY_SCHEMA_VERSION = 1
"""File-registry document schema (bump on incompatible layout changes)."""


@dataclass(frozen=True)
class WorkerRecord(Record):
    """One worker's registration: address, capacity, and provenance.

    The registry record on the wire and in the file registry.
    """

    host: str
    port: int
    capacity: int = 1
    protocol: int = PROTOCOL_VERSION
    cache_fingerprint: "str | None" = None
    last_seen: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.host:
            raise DataError("worker record has an empty host")
        if not 0 < self.port < 65536:
            raise DataError(
                f"worker record port {self.port} not in [1, 65535]"
            )
        if self.capacity < 1:
            raise DataError(
                f"worker record capacity must be >= 1, got {self.capacity}"
            )

    @property
    def key(self) -> str:
        """Registry identity — one record per listening address."""
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class RegisterFrame(Record):
    op: ClassVar[str] = "register"
    # Redundant with the handshake, which already rejects other
    # versions; kept so op frames are self-describing in captures, and
    # checked first like every request frame's (decode_frame).
    protocol: int
    worker: WorkerRecord


@dataclass(frozen=True)
class RegisteredFrame(Record):
    op: ClassVar[str] = "registered"
    ttl: float


@dataclass(frozen=True)
class DeregisterFrame(Record):
    op: ClassVar[str] = "deregister"
    key: str


@dataclass(frozen=True)
class DeregisteredFrame(Record):
    op: ClassVar[str] = "deregistered"


@dataclass(frozen=True)
class WorkersFrame(Record):
    op: ClassVar[str] = "workers"


@dataclass(frozen=True)
class WorkerListFrame(Record):
    op: ClassVar[str] = "workers"
    workers: "tuple[WorkerRecord, ...]"


@dataclass(frozen=True)
class RegistryPongFrame(Record):
    op: ClassVar[str] = "pong"
    protocol: int
    role: str
    pid: int
    ttl: float
    n_workers: int


# ----------------------------------------------------------------------
# The registry contract
# ----------------------------------------------------------------------
class Registry:
    """What a worker (register) and a sweep (discover) need, no more."""

    def register(self, record: WorkerRecord) -> None:
        """Upsert a registration; also the heartbeat (refreshes TTL)."""
        raise NotImplementedError

    def deregister(self, key: str) -> None:
        """Drop a registration (clean worker shutdown); idempotent."""
        raise NotImplementedError

    def live_workers(self) -> list:
        """Registrations younger than the TTL, as :class:`WorkerRecord`."""
        raise NotImplementedError


class FileRegistry(Registry):
    """File-backed registry for single-host setups: no daemon to run.

    Workers heartbeat by atomically replacing the JSON document
    (read-modify-``os.replace``), so readers always see a complete
    file. Concurrent heartbeats may occasionally lose one update to a
    race; the next beat (every couple of seconds, against a TTL an
    order of magnitude longer) repairs it, which is the right trade
    for a zero-infrastructure fallback.
    """

    def __init__(self, path: str, ttl: float = DEFAULT_TTL):
        self.path = str(path)
        self.ttl = float(ttl)

    def __repr__(self) -> str:
        return f"FileRegistry({self.path!r})"

    # ------------------------------------------------------------------
    def _read(self) -> dict:
        try:
            with open(self.path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            return {"schema": REGISTRY_SCHEMA_VERSION, "workers": {}}
        except (OSError, json.JSONDecodeError) as exc:
            raise DataError(
                f"registry file {self.path!r} is unreadable: {exc}"
            ) from None
        if (
            not isinstance(doc, dict)
            or not isinstance(doc.get("workers"), dict)
        ):
            raise DataError(
                f"registry file {self.path!r} is not a registry document"
            )
        if doc.get("schema") != REGISTRY_SCHEMA_VERSION:
            raise DataError(
                f"registry file {self.path!r} has schema "
                f"{doc.get('schema')!r}; this build reads schema "
                f"{REGISTRY_SCHEMA_VERSION}"
            )
        return doc

    def _write(self, doc: dict) -> None:
        atomic_write_text(self.path, json.dumps(doc, indent=2) + "\n")

    # ------------------------------------------------------------------
    def register(self, record: WorkerRecord) -> None:
        doc = self._read()
        stamped = replace(record, last_seen=wall_clock())
        entry = to_wire(stamped)
        # Liveness is judged by the monotonic stamp (same host, same
        # boot, so writer and reader share the clock); the wall-clock
        # ``last_seen`` stays purely a display field — an NTP step
        # between heartbeat and read must not expire a live worker.
        entry["last_seen_monotonic"] = time.monotonic()
        doc["workers"][stamped.key] = entry
        self._write(doc)

    def deregister(self, key: str) -> None:
        doc = self._read()
        if doc["workers"].pop(str(key), None) is not None:
            self._write(doc)

    def live_workers(self) -> list:
        now = time.monotonic()
        wall_cutoff = wall_clock() - self.ttl
        live = []
        for spec in self._read()["workers"].values():
            spec = dict(spec)
            stamp = spec.pop("last_seen_monotonic", None)
            record = from_wire(WorkerRecord, spec)
            if stamp is not None:
                # A stamp from the future is impossible within this boot
                # (a pre-reboot leftover) — treat it as stale, never
                # immortal.
                if now - self.ttl <= float(stamp) <= now:
                    live.append(record)
            elif record.last_seen >= wall_cutoff:
                # Hand-written / legacy documents carry only the
                # wall-clock stamp; keep the old (step-sensitive) check.
                live.append(record)
        return live


class TcpRegistry(Registry):
    """Client for a ``repro registry serve`` daemon (one op per call).

    Connections are per-operation — a registry op is a heartbeat-scale
    event, not a stream — and every connection runs the shared
    handshake, so the registry is covered by the same secret as the
    workers.
    """

    def __init__(self, address, secret=None, timeout: float = 5.0):
        from repro.sweep.remote import parse_worker_addresses

        self.address = next(iter(parse_worker_addresses([address])))
        self.secret = secret
        self.timeout = float(timeout)

    def __repr__(self) -> str:
        host, port = self.address
        return f"TcpRegistry({host}:{port})"

    # ------------------------------------------------------------------
    def _call(self, request, reply_cls):
        """One request frame, one decoded reply of ``reply_cls``."""
        host, port = self.address
        peer = f"registry {host}:{port}"
        with connect_authenticated(
            self.address, self.secret, self.timeout, peer=peer,
        ) as sock:
            send_frame(sock, request)
            reply = recv_frame(sock)
        if reply is None:
            raise RemoteProtocolError(f"{peer} closed without answering")
        if reply.get("op") == "error":
            refusal = decode_reply(ErrorFrame, reply, peer)
            raise RemoteProtocolError(f"{peer}: {refusal.error}")
        return decode_reply(reply_cls, reply, peer)

    def register(self, record: WorkerRecord) -> None:
        self._call(
            RegisterFrame(protocol=PROTOCOL_VERSION, worker=record),
            RegisteredFrame,
        )

    def deregister(self, key: str) -> None:
        self._call(DeregisterFrame(key=str(key)), DeregisteredFrame)

    def live_workers(self) -> list:
        return list(self._call(WorkersFrame(), WorkerListFrame).workers)


@dataclass
class _RosterState:
    """A :class:`RegistryServer`'s in-memory roster."""

    #: key -> (record with wall-clock ``last_seen`` for display,
    #: monotonic registration stamp used for liveness).
    workers: "dict[str, tuple[WorkerRecord, float]]" = field(
        default_factory=dict
    )


class RegistryServer(FrameServer):
    """The ``repro registry serve`` daemon: an in-memory worker roster.

    Registrations are upserted by worker address and stamped with the
    *server's* clocks (worker clock skew cannot fake liveness): a
    monotonic stamp drives TTL pruning — so a wall-clock (NTP) step on
    the registry host can neither mass-expire live workers nor
    immortalize dead ones — while the wall clock fills the serialized
    ``last_seen`` display field. Entries older than ``ttl`` are pruned
    on every read and register, so a crashed worker ages out without
    any explicit deregistration.
    """

    frames: ClassVar["dict[str, type]"] = {
        **FrameServer.frames,
        "register": RegisterFrame,
        "deregister": DeregisterFrame,
        "workers": WorkersFrame,
    }

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        secret=None,
        ttl: float = DEFAULT_TTL,
    ):
        ttl = float(ttl)
        if ttl <= 0:
            raise PlanningError(f"registry ttl must be > 0, got {ttl}")
        super().__init__(host=host, port=port, secret=secret)
        self.ttl = ttl
        self._roster: Guarded[_RosterState] = Guarded(_RosterState())
        #: Liveness clock — monotonic so a wall-clock (NTP) step can
        #: neither mass-expire live workers nor immortalize dead ones.
        #: Injectable for tests.
        self._clock = time.monotonic

    # ------------------------------------------------------------------
    def register_record(self, record: WorkerRecord) -> WorkerRecord:
        """Upsert ``record``, stamped with the server's clocks.

        The stored (and served) ``last_seen`` is the server's wall
        clock — display provenance only; the liveness stamp pruned
        against ``ttl`` is monotonic and never leaves the server.
        """
        stamped = replace(record, last_seen=wall_clock())
        now = self._clock()
        cutoff = now - self.ttl
        with self._roster as roster:
            for key in [
                k for k, (_, stamp) in roster.workers.items() if stamp < cutoff
            ]:
                del roster.workers[key]
            roster.workers[record.key] = (stamped, now)
        return stamped

    def live_workers(self) -> list:
        cutoff = self._clock() - self.ttl
        with self._roster as roster:
            for key in [
                k for k, (_, stamp) in roster.workers.items() if stamp < cutoff
            ]:
                del roster.workers[key]
            return [record for record, _ in roster.workers.values()]

    @property
    def n_workers(self) -> int:
        return len(self.live_workers())

    # ------------------------------------------------------------------
    def pong(self) -> RegistryPongFrame:
        return RegistryPongFrame(
            protocol=PROTOCOL_VERSION,
            role="registry",
            pid=os.getpid(),
            ttl=self.ttl,
            n_workers=self.n_workers,
        )

    def handle(self, conn, frame) -> bool:
        if isinstance(frame, RegisterFrame):
            self.register_record(frame.worker)
            send_frame(conn, RegisteredFrame(ttl=self.ttl))
        elif isinstance(frame, DeregisterFrame):
            with self._roster as roster:
                roster.workers.pop(frame.key, None)
            send_frame(conn, DeregisteredFrame())
        elif isinstance(frame, WorkersFrame):
            send_frame(conn, WorkerListFrame(
                workers=tuple(self.live_workers())
            ))
        else:
            return super().handle(conn, frame)
        return True


def serve_registry(
    host: str = DEFAULT_HOST,
    port: int = 0,
    secret=None,
    ttl: float = DEFAULT_TTL,
) -> RegistryServer:
    """Bind a :class:`RegistryServer` (CLI helper; caller serves/loops)."""
    try:
        return RegistryServer(host=host, port=port, secret=secret, ttl=ttl)
    except OSError as exc:
        raise PlanningError(
            f"cannot bind registry to {host}:{port}: {exc}"
        ) from None


def resolve_registry(spec, secret=None, ttl: float = DEFAULT_TTL) -> Registry:
    """Turn a ``--registry`` spec into a ready :class:`Registry`.

    ``host:port`` (a name or address with a numeric port and no path
    separator) means a :class:`TcpRegistry`; anything else is a
    :class:`FileRegistry` path. Ready :class:`Registry` instances (and
    a live :class:`RegistryServer`, which already implements
    ``live_workers``) pass through untouched.
    """
    if isinstance(spec, Registry):
        return spec
    if isinstance(spec, RegistryServer):
        return spec
    if spec is None:
        raise PlanningError("no registry given (host:port or path.json)")
    spec = str(spec)
    host, _, port = spec.rpartition(":")
    if host and port.isdigit() and "/" not in spec and os.sep not in spec:
        return TcpRegistry((host, int(port)), secret=secret)
    return FileRegistry(spec, ttl=ttl)


# ----------------------------------------------------------------------
# Worker-side registration loop
# ----------------------------------------------------------------------
@dataclass
class _BeatState:
    """What a :class:`Heartbeat` changes after construction."""

    last_error: "str | None" = None


class Heartbeat:
    """Keep one worker's registration fresh; deregister on stop.

    ``record_source`` is a zero-argument callable returning the
    :class:`WorkerRecord` to publish (re-evaluated every beat, so a
    record can reflect live state) — or a ready record. :meth:`start`
    performs the first registration synchronously and raises
    :class:`PlanningError` if the registry is unreachable, so a typo'd
    ``--registry`` surfaces at worker startup instead of silently
    never registering; later beats swallow transient failures (the
    registry being briefly down must not kill the worker) and remember
    the latest one in :attr:`last_error`.
    """

    def __init__(
        self,
        registry: Registry,
        record_source,
        interval: float = DEFAULT_HEARTBEAT,
    ):
        interval = float(interval)
        if interval <= 0:
            raise PlanningError(
                f"heartbeat interval must be > 0, got {interval}"
            )
        self.registry = registry
        self._record_source = (
            record_source if callable(record_source) else lambda: record_source
        )
        self.interval = interval
        # beat() runs on both the caller's thread and the heartbeat
        # thread, so the error it records lives in a box.
        self._state: Guarded[_BeatState] = Guarded(_BeatState())
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    @property
    def last_error(self) -> "str | None":
        """The latest swallowed beat failure (``None`` after a healthy
        beat). Readable from any thread."""
        with self._state as state:
            return state.last_error

    # ------------------------------------------------------------------
    def beat(self) -> bool:
        """One registration refresh; ``False`` (and ``last_error``) on failure."""
        error: "str | None" = None
        try:
            self.registry.register(self._record_source())
        except Exception as exc:  # noqa: BLE001 — transient registry
            # outages must not kill the worker's heartbeat loop.
            error = f"{type(exc).__name__}: {exc}"
        with self._state as state:
            state.last_error = error
        return error is None

    def start(self) -> threading.Thread:
        try:
            self.registry.register(self._record_source())
        except (OSError, RemoteProtocolError, DataError) as exc:
            raise PlanningError(
                f"cannot register with registry {self.registry!r}: {exc}"
            ) from None
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self._thread

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def stop(self, deregister: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        if deregister:
            try:
                self.registry.deregister(self._record_source().key)
            except Exception:  # noqa: BLE001 — best-effort goodbye
                pass
