"""Remote sweep execution: TCP worker daemons behind the backend contract.

This module scales a sweep past one machine while keeping the oracle
contract intact: a :class:`RemoteBackend` shards the grid across worker
daemons (``repro worker serve``), every worker plans through the same
:func:`~repro.sweep.runner.execute_scenario` as the in-process
backends, and results travel back losslessly — so ``remote`` outcomes
are bit-identical to ``serial`` ones, which the oracle tests pin.

Wire protocol (version :data:`PROTOCOL_VERSION`)
------------------------------------------------
Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON (one object per frame,
:data:`MAX_FRAME_BYTES` cap).

Every connection starts with a **handshake** — the daemon speaks first,
so version mismatches and authentication failures surface before any
request payload exists to parse::

    daemon: {"op": "challenge", "protocol": 2, "nonce": <hex>,
             "auth": true|false}
    client: {"op": "auth", "protocol": 2, "mac": HMAC-SHA256(secret,
             nonce) | null}
    daemon: {"op": "welcome", "protocol": 2}
            — or {"op": "error", "error": msg} and the connection drops.

``auth`` advertises whether the daemon was started with a shared
secret (``--secret-file``). When it was, the client must answer the
nonce with an HMAC-SHA256 of it under the same secret; anything else —
missing ``mac``, wrong secret, a request frame in place of the ``auth``
frame — is rejected with a typed error **before any scenario payload
is parsed**, and nothing executes. Auth rejections carry
``"code": "auth"`` in the error frame (the machine-readable
discriminator behind :class:`RemoteAuthError`; the message text is
free to change). When the daemon has no secret the handshake still
runs (it carries the version check) but ``mac`` may be ``null``.

After ``welcome``, the conversation proper (client side first)::

    {"op": "run", "protocol": 2, "base_config": {...}|null,
     "scenarios": [{"index": 3, "scenario": <Scenario>}, ...]}
                                    -> {"op": "outcome", "index": 3,
                                        "record": <OutcomeRecord>}
                                       ... one frame per scenario,
                                       streamed as each finishes ...
                                    -> {"op": "done", "n_executed": N}
    {"op": "ping"}                  -> {"op": "pong", "protocol": 2, ...}
    {"op": "shutdown"}              -> {"op": "bye"}   (daemon exits)

A ``scenario`` is a :class:`~repro.sweep.scenario.Scenario` (already
validated by the parent's :class:`SweepRunner`); a ``base_config`` is a
:class:`~repro.core.config.PlannerConfig`; a ``record`` is an
:class:`~repro.sweep.report.OutcomeRecord` — the stream record schema
plus a lossless ``results_wire`` twin. A server that cannot serve a
request answers ``{"op": "error", "error": msg}`` and drops the
connection.

Every frame is declared once below (:class:`ChallengeFrame`, ...) and
:mod:`repro.utils.wire` derives both directions from the declaration.
Construction is the validator, so a frame built here is checked like
one decoded, and decoding adds the wire's own refusals. A daemon
decodes each request through its op table (:attr:`FrameServer.frames`,
:func:`decode_frame`) before any handler sees it.

Worker topology
---------------
Workers are found one of two ways:

* **Static addresses** (``--workers-at host:port,...``) — every
  entry weighs 1, so repeating an address is how a daemon is weighted
  (``a,b,b`` gives ``b`` two shares).
* **Registry discovery** (``--registry host:port`` or
  ``--registry path.json``) — workers register themselves (heartbeat
  with capacity, cache-dir fingerprint, and protocol version; see
  :mod:`repro.sweep.registry`) and the backend resolves the live
  roster at sweep start. Workers that registered but died are
  ping-checked and skipped with a warning; a mid-sweep re-query
  (every ``registry_poll`` seconds) backfills workers that join late,
  and after every known worker has died the sweep stays open for
  ``registry_grace`` seconds before giving up, so a replacement
  worker can still rescue it.

**Capacity-weighted sharding:** the grid is cut by
:func:`~repro.sweep.backends.make_shards`, the rule every backend
shares, into one contiguous shard per worker entry with sizes
proportional to its weight (a ``--capacity 4`` worker receives ~4x the
scenarios of a capacity-1 worker); work requeued by a dead worker is
pulled by the survivors in chunks proportional to their share of the
surviving weight.

Failure semantics and rebalancing
---------------------------------
Two distinct failure domains:

* **Scenario failures** are isolated *worker-side*, exactly like
  :class:`~repro.sweep.backends.ShardedBackend`: a raising scenario
  becomes a failure outcome frame (``error`` set, empty results) and
  the rest of the shard still runs.
* **Worker failures** (connection refused, dropped mid-stream, failed
  handshake, protocol errors) kill only that worker's thread: outcomes
  already streamed back stay committed, the shard's *unfinished*
  scenarios are requeued and picked up by the surviving workers, and
  the dead worker is not retried within the run. Only when every
  worker is dead with scenarios still unfinished (and, with a
  registry, no replacement joins within the grace window) does the
  sweep raise — and since streamed outcomes were already yielded, a
  ``--stream`` file keeps its committed prefix and ``--resume``
  finishes the sweep once workers are back. A worker that answers an
  index twice, or one outside its shard, is a faulty worker like any
  other protocol violation.

Cache locality: each daemon uses its **own** ``--cache-dir`` (the
parent's is not shipped); daemons on one machine may share a directory
— the artifact store is concurrency-safe by design.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import queue
import select
import socket
import struct
import threading
import time
import warnings
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, ClassVar

from repro.core.config import PlannerConfig
from repro.sweep.backends import ExecutionBackend, failure_outcome, make_shards
from repro.sweep.report import OutcomeRecord
from repro.sweep.runner import execute_scenario
from repro.sweep.scenario import Scenario
from repro.utils.errors import DataError, PlanningError
from repro.utils.guarded import Guarded
from repro.utils.wire import Record, from_wire, to_wire

if TYPE_CHECKING:  # runtime import would cycle (registry imports us)
    from repro.sweep.registry import Registry

PROTOCOL_VERSION = 2
"""Bump on backwards-incompatible wire changes (frames carry it).

Version history: 1 — length-prefixed JSON frames, ``run``/``ping``/
``shutdown`` ops; 2 — mandatory handshake (HMAC challenge/response
when the daemon holds a shared secret) before any op, registry
``register``/``deregister``/``workers`` ops.
"""

MAX_FRAME_BYTES = 64 * 1024 * 1024
"""Upper bound on one frame's JSON payload; anything larger is treated
as protocol corruption, not data."""

DEFAULT_HOST = "127.0.0.1"

DEFAULT_IDLE_TIMEOUT = 600.0
"""Default per-connection idle timeout (seconds) for frame daemons.

Bounds how long a handler blocks on the peer's *next* byte — a client
that stalls mid-frame (slow-loris) or goes silent between requests is
dropped instead of pinning a handler thread forever. Generous on
purpose: a worker legitimately spends minutes planning between frames
only on the *send* side; nothing in the protocol keeps a healthy peer
read-silent for ten minutes."""

_LENGTH = struct.Struct(">I")

_NONCE_BYTES = 16


class RemoteProtocolError(Exception):
    """The peer spoke something that is not this wire protocol."""


class RemoteAuthError(RemoteProtocolError):
    """The handshake failed on the shared secret, not the plumbing."""


# ----------------------------------------------------------------------
# Frame declarations (encoded and decoded by repro.utils.wire)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChallengeFrame(Record):
    op: ClassVar[str] = "challenge"
    protocol: int
    nonce: str
    auth: bool


@dataclass(frozen=True)
class AuthFrame(Record):
    op: ClassVar[str] = "auth"
    protocol: int
    mac: "str | None"


@dataclass(frozen=True)
class WelcomeFrame(Record):
    op: ClassVar[str] = "welcome"
    protocol: int


@dataclass(frozen=True)
class ErrorFrame(Record):
    op: ClassVar[str] = "error"
    error: str


@dataclass(frozen=True)
class AuthErrorFrame(Record):
    """A rejection on the shared secret: clients branch on ``code``
    (:class:`RemoteAuthError`); the text is free to change."""

    op: ClassVar[str] = "error"
    code: str
    error: str


@dataclass(frozen=True)
class PingFrame(Record):
    op: ClassVar[str] = "ping"


@dataclass(frozen=True)
class ShutdownFrame(Record):
    op: ClassVar[str] = "shutdown"


@dataclass(frozen=True)
class JobItem(Record):
    index: int
    scenario: Scenario


@dataclass(frozen=True)
class RunFrame(Record):
    op: ClassVar[str] = "run"
    protocol: int
    base_config: "PlannerConfig | None" = None
    scenarios: "tuple[JobItem, ...]" = ()


@dataclass(frozen=True)
class OutcomeFrame(Record):
    op: ClassVar[str] = "outcome"
    index: int
    record: OutcomeRecord


@dataclass(frozen=True)
class DoneFrame(Record):
    op: ClassVar[str] = "done"
    n_executed: int


@dataclass(frozen=True)
class WorkerPongFrame(Record):
    op: ClassVar[str] = "pong"
    protocol: int
    pid: int
    cache_dir: "str | None"
    capacity: int
    cache_fingerprint: "str | None"


# ----------------------------------------------------------------------
# Shared secrets
# ----------------------------------------------------------------------
def load_secret(path: str) -> bytes:
    """Read a shared secret file (``--secret-file``); whitespace-trimmed.

    The secret is opaque bytes — any non-empty file works. Errors are
    :class:`PlanningError` so the CLI reports them as usage errors
    (exit 2) instead of tracebacks.
    """
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise PlanningError(f"cannot read secret file {path!r}: {exc}") from None
    secret = data.strip()
    if not secret:
        raise PlanningError(f"secret file {path!r} is empty")
    return secret


def _as_secret(secret) -> "bytes | None":
    """Normalize a secret to bytes (``None`` stays ``None``)."""
    if secret is None:
        return None
    if isinstance(secret, str):
        secret = secret.encode("utf-8")
    if not secret:
        raise PlanningError("shared secret must be non-empty")
    return bytes(secret)


def auth_mac(secret: bytes, nonce: str) -> str:
    """The handshake response: hex HMAC-SHA256 of the nonce."""
    return hmac.new(secret, nonce.encode("utf-8"), hashlib.sha256).hexdigest()


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, obj) -> None:
    """Send a dict or a declared frame as one length-prefixed frame."""
    if not isinstance(obj, dict):
        obj = to_wire(obj)
    payload = json.dumps(obj).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(
    sock: socket.socket, n: int, what: str = "frame",
    allow_eof: bool = False,
) -> "bytes | None":
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a boundary.

    EOF anywhere else fails fast with a :class:`RemoteProtocolError`
    naming the byte count — a half-read frame must never surface as a
    bare ``EOFError`` or a silently-short buffer from the socket layer.
    """
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0 and allow_eof:
                return None
            raise RemoteProtocolError(
                f"connection closed mid-frame ({got} of {n} {what} bytes)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> "dict | None":
    """Read one frame; ``None`` when the peer closed between frames.

    A peer that closes mid-frame — inside the length prefix or inside
    the promised payload — raises :class:`RemoteProtocolError` naming
    how many of the expected bytes arrived.
    """
    header = _recv_exact(sock, _LENGTH.size, "header", allow_eof=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"frame header claims {length} bytes (cap {MAX_FRAME_BYTES}); "
            f"peer is not speaking this protocol"
        )
    payload = _recv_exact(sock, length, "payload")
    try:
        frame = json.loads(payload.decode("utf-8"))
        if not isinstance(frame, dict):
            raise ValueError("frame is not an object")
    except (ValueError, UnicodeDecodeError) as exc:
        raise RemoteProtocolError(f"bad frame payload: {exc}") from None
    return frame


def decode_reply(cls, frame: dict, peer: str):
    """``frame`` from ``peer`` as ``cls``; RemoteProtocolError if not."""
    try:
        return from_wire(cls, frame)
    except DataError as exc:
        raise RemoteProtocolError(
            f"{peer} sent a bad {cls.op!r} frame: {exc}"
        ) from None


def decode_frame(doc: dict, frames: "dict[str, type]"):
    """``doc`` as the record its op names in ``frames``; DataError if not.

    The protocol of a record that carries one is checked before the
    rest of the frame, so a peer on another version hears "not
    supported" rather than a field error.
    """
    op = doc.get("op")
    cls = frames.get(op) if isinstance(op, str) else None
    if cls is None:
        raise DataError(f"unknown op {op!r}")
    if any(f.name == "protocol" for f in fields(cls)):
        protocol = doc.get("protocol")
        if protocol != PROTOCOL_VERSION:
            raise DataError(_unsupported(protocol))
    return from_wire(cls, doc)


def _unsupported(protocol) -> str:
    return (
        f"protocol {protocol!r} not supported; this daemon speaks "
        f"protocol {PROTOCOL_VERSION}"
    )


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
def server_handshake(conn: socket.socket, secret: "bytes | None") -> bool:
    """Run the daemon side of the handshake; ``False`` = drop the peer.

    Sends the challenge, validates the ``auth`` answer (protocol
    version, then the HMAC when ``secret`` is set), and confirms with
    ``welcome``. Every rejection answers a typed ``error`` frame first
    (best effort) so the peer knows *why* — and no request payload is
    ever parsed from an unauthenticated connection.
    """
    nonce = os.urandom(_NONCE_BYTES).hex()
    send_frame(conn, ChallengeFrame(
        protocol=PROTOCOL_VERSION, nonce=nonce, auth=secret is not None,
    ))
    frame = recv_frame(conn)
    if frame is None:
        return False  # mid-handshake disconnect: drop quietly
    op = frame.get("op")
    if op != "auth":
        send_frame(conn, ErrorFrame(
            error=f"handshake expected an 'auth' frame, got op {op!r}",
        ))
        return False
    # The version comes first, so a peer on another protocol hears why
    # even when the rest of its frame would not decode here.
    protocol = frame.get("protocol")
    if protocol != PROTOCOL_VERSION:
        send_frame(conn, ErrorFrame(error=_unsupported(protocol)))
        return False
    try:
        mac = from_wire(AuthFrame, frame).mac
    except DataError as exc:
        send_frame(conn, ErrorFrame(error=f"bad handshake: {exc}"))
        return False
    if secret is not None and (
        mac is None or not hmac.compare_digest(mac, auth_mac(secret, nonce))
    ):
        send_frame(conn, AuthErrorFrame(
            code="auth",
            error="authentication failed: wrong or missing shared secret",
        ))
        return False
    send_frame(conn, WelcomeFrame(protocol=PROTOCOL_VERSION))
    return True


def client_handshake(
    sock: socket.socket, secret: "bytes | None" = None, peer: str = "daemon"
) -> dict:
    """Run the client side of the handshake; returns the welcome frame.

    Raises :class:`RemoteAuthError` for secret problems (daemon wants
    auth and we have no secret, or it rejected ours) and
    :class:`RemoteProtocolError` for version mismatches and everything
    else that is not this protocol.
    """
    frame = recv_frame(sock)
    if frame is None:
        raise RemoteProtocolError(
            f"{peer} closed the connection before the handshake challenge"
        )
    op = frame.get("op")
    if op == "error":
        refusal = decode_reply(ErrorFrame, frame, peer)
        raise RemoteProtocolError(f"{peer} refused: {refusal.error}")
    if op != "challenge":
        raise RemoteProtocolError(
            f"{peer} opened with op {op!r} instead of a handshake "
            f"challenge (protocol {PROTOCOL_VERSION})"
        )
    protocol = frame.get("protocol")
    if protocol != PROTOCOL_VERSION:
        raise RemoteProtocolError(
            f"protocol version mismatch: {peer} speaks {protocol!r}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )
    challenge = decode_reply(ChallengeFrame, frame, peer)
    if not challenge.nonce:
        raise RemoteProtocolError(f"{peer} sent a challenge without a nonce")
    if challenge.auth and secret is None:
        raise RemoteAuthError(
            f"{peer} requires authentication; supply the shared secret "
            f"(--secret-file)"
        )
    mac = auth_mac(secret, challenge.nonce) if secret is not None else None
    send_frame(sock, AuthFrame(protocol=PROTOCOL_VERSION, mac=mac))
    reply = recv_frame(sock)
    if reply is None:
        raise RemoteAuthError(
            f"{peer} dropped the connection during authentication"
        )
    if reply.get("op") == "error":
        rejection = decode_reply(
            AuthErrorFrame if "code" in reply else ErrorFrame, reply, peer
        )
        # "code" is the stable discriminator; the substring check keeps
        # auth errors typed against daemons that predate it.
        if (
            getattr(rejection, "code", None) == "auth"
            or "authentication" in rejection.error
        ):
            raise RemoteAuthError(f"{peer}: {rejection.error}")
        raise RemoteProtocolError(f"{peer}: {rejection.error}")
    decode_reply(WelcomeFrame, reply, peer)
    return reply


def connect_authenticated(
    address,
    secret: "bytes | None" = None,
    timeout: float = 10.0,
    peer: "str | None" = None,
) -> socket.socket:
    """Connect to ``(host, port)`` and complete the handshake.

    The connect timeout also bounds the handshake reads, so a peer
    speaking an older, client-talks-first protocol (which would wait
    for us forever) surfaces as a timeout instead of a deadlock. The
    returned socket still carries that timeout; callers streaming
    long-running jobs should ``settimeout(None)`` afterwards.
    """
    host, port = address
    peer = peer or f"daemon {host}:{port}"
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        client_handshake(sock, secret, peer=peer)
    except BaseException:
        sock.close()
        raise
    return sock


# ----------------------------------------------------------------------
# Addresses
# ----------------------------------------------------------------------
def parse_worker_addresses(addresses) -> tuple:
    """Normalize worker addresses to a ``((host, port), ...)`` tuple.

    Accepts a ``"host:port,host:port"`` string (the CLI form) or any
    iterable of ``"host:port"`` strings / ``(host, port)`` pairs.
    Duplicates are kept — pointing two slots at one daemon is a valid
    way to weight it.
    """
    if isinstance(addresses, str):
        entries = [a.strip() for a in addresses.split(",") if a.strip()]
    else:
        entries = list(addresses)
    parsed = []
    for entry in entries:
        if isinstance(entry, (tuple, list)) and len(entry) == 2:
            host, port = entry
        elif isinstance(entry, str) and ":" in entry:
            host, _, port = entry.rpartition(":")
        else:
            raise PlanningError(
                f"bad worker address {entry!r}: expected host:port"
            )
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise PlanningError(
                f"bad worker address {entry!r}: port must be an integer"
            ) from None
        if not host or not 0 < port < 65536:
            raise PlanningError(
                f"bad worker address {entry!r}: expected host:port with "
                f"a port in [1, 65535]"
            )
        parsed.append((str(host), port))
    if not parsed:
        raise PlanningError(
            "no worker addresses given (expected host:port,host:port,...)"
        )
    return tuple(parsed)


def format_address(address) -> str:
    host, port = address
    return f"{host}:{port}"


def ping(address, timeout: float = 5.0, secret=None) -> dict:
    """Health-check one daemon (handshake included); returns its pong."""
    host, port = next(iter(parse_worker_addresses([address])))
    with connect_authenticated(
        (host, port), _as_secret(secret), timeout,
        peer=f"daemon {host}:{port}",
    ) as sock:
        send_frame(sock, PingFrame())
        frame = recv_frame(sock)
    if frame is None or frame.get("op") != "pong":
        raise RemoteProtocolError(
            f"daemon {host}:{port} answered {frame!r} to a ping"
        )
    return frame


# ----------------------------------------------------------------------
# Frame-protocol daemons
# ----------------------------------------------------------------------
def _hang_up(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it; a closed socket is a no-op.

    ``SHUT_RDWR`` wakes a thread parked on the socket at once. On a
    listening socket it also stops the kernel accepting into the
    backlog, which ``close()`` alone does not while another thread is
    still polling ``accept()``. On a connection it unblocks a handler
    parked in ``recv()`` instead of leaving it to the idle timeout.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


@dataclass
class _PeerState:
    """The connections a :class:`FrameServer` is serving right now."""

    conns: "set[socket.socket]" = field(default_factory=set)
    handlers: "set[threading.Thread]" = field(default_factory=set)
    swept: bool = False
    """Set by ``shutdown()`` once it has taken its snapshot of the
    sets: the accept loop then closes a new connection itself."""


class FrameServer:
    """Shared skeleton of the frame-protocol daemons.

    One listening socket, one handler thread per connection; every
    connection runs :func:`server_handshake` first (version check +
    shared-secret HMAC when ``secret`` is set). Each frame after it is
    decoded through the subclass's :attr:`frames` table, op to record
    class, so :meth:`handle` only sees authenticated, decoded records.
    A frame that does not decode is answered with one ``error`` frame
    and the peer is dropped. Protocol violations and vanished peers drop
    the connection; the accept loop never dies with them.

    ``idle_timeout`` bounds every blocking socket operation on a
    handler connection (handshake reads included): a peer that stalls
    mid-frame or goes silent for longer is dropped, so a slow-loris
    client cannot pin handler threads on a long-lived daemon. ``None``
    disables the deadline (the pre-PR-10 behavior).

    Open connections are tracked, and :meth:`shutdown` closes them and
    joins their handler threads — a stopped daemon has *no* live
    handlers, not just a stopped accept loop.

    ``port=0`` binds an ephemeral port; the resolved address is in
    :attr:`host` / :attr:`port` before :meth:`serve_forever` is called,
    so tests and scripts can start daemons without picking ports.
    """

    #: The requests this daemon serves, op to record class. Every
    #: daemon answers ``ping`` (with :meth:`pong`) and ``shutdown``.
    frames: ClassVar["dict[str, type]"] = {
        "ping": PingFrame,
        "shutdown": ShutdownFrame,
    }

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        secret=None,
        idle_timeout: "float | None" = DEFAULT_IDLE_TIMEOUT,
    ):
        self.secret = _as_secret(secret)
        if idle_timeout is not None:
            idle_timeout = float(idle_timeout)
            if idle_timeout <= 0:
                raise PlanningError(
                    f"idle_timeout must be > 0 or None, got {idle_timeout}"
                )
        self.idle_timeout = idle_timeout
        self._shutdown = threading.Event()
        self._peers: Guarded[_PeerState] = Guarded(_PeerState())
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind((host, int(port)))
            self._sock.listen()
        except BaseException:
            self._sock.close()  # a busy port must not leak the socket
            raise
        self._sock.settimeout(0.2)  # accept() polls the shutdown flag
        self.host, self.port = self._sock.getsockname()[:2]

    @property
    def address(self) -> tuple:
        return (self.host, self.port)

    @property
    def n_live_connections(self) -> int:
        """Connections with a live handler thread right now."""
        with self._peers as peers:
            return len(peers.conns)

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept and serve connections until :meth:`shutdown`."""
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _ = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listening socket closed under us
                thread = threading.Thread(
                    target=self._handle, args=(conn,), daemon=True
                )
                with self._peers as peers:
                    admitted = not peers.swept
                    if admitted:
                        peers.conns.add(conn)
                        peers.handlers.add(thread)
                if not admitted:
                    # shutdown() already swept the connection set; a
                    # connection registered now would never be closed.
                    conn.close()
                    continue
                thread.start()
        finally:
            self._sock.close()

    def shutdown(self) -> None:
        """Stop the accept loop AND drop every live handler connection.

        Idempotent and thread-safe; callable from a handler thread (the
        ``shutdown`` op does exactly that — the calling handler is
        skipped by the join and exits through its own return path).
        After this returns, the listening socket is closed, so a new
        connection is refused, and no handler thread started by this
        server is still serving a peer.
        """
        self._shutdown.set()
        _hang_up(self._sock)
        with self._peers as peers:
            peers.swept = True
            conns = list(peers.conns)
            handlers = list(peers.handlers)
        for conn in conns:
            _hang_up(conn)
        current = threading.current_thread()
        for thread in handlers:
            if thread is not current:
                thread.join(timeout=5.0)

    def start_in_thread(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread (test helper)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    # ------------------------------------------------------------------
    def _handle(self, conn: socket.socket) -> None:
        try:
            with conn:
                try:
                    conn.settimeout(self.idle_timeout)
                    if not server_handshake(conn, self.secret):
                        return
                    while True:
                        doc = recv_frame(conn)
                        if doc is None:
                            return
                        try:
                            frame = decode_frame(doc, self.frames)
                        except DataError as exc:
                            send_frame(conn, ErrorFrame(error=str(exc)))
                            return
                        if not self.handle(conn, frame):
                            return
                except (OSError, RemoteProtocolError):
                    # Client went away, stalled past the idle timeout,
                    # or spoke garbage; drop it.
                    return
        finally:
            with self._peers as peers:
                peers.conns.discard(conn)
                peers.handlers.discard(threading.current_thread())

    def handle(self, conn: socket.socket, frame) -> bool:
        """Serve one decoded frame; ``False`` closes the peer.

        Subclasses serve their own records and pass the rest up here.
        """
        if isinstance(frame, PingFrame):
            send_frame(conn, self.pong())
            return True
        if isinstance(frame, ShutdownFrame):
            send_frame(conn, {"op": "bye"})
            self.shutdown()
            return False
        raise NotImplementedError(f"no handler for {type(frame).__name__}")

    def pong(self):
        """This daemon's answer to ``ping``."""
        raise NotImplementedError


class WorkerServer(FrameServer):
    """The ``repro worker serve`` daemon: executes sweep jobs over TCP.

    Scenarios within a job run serially through
    :func:`execute_scenario` against this daemon's local
    :class:`~repro.sweep.cache.PrecomputationCache` (``cache_dir=None``
    disables caching). Per-scenario failures are isolated into failure
    outcome frames; only protocol violations drop a connection.

    ``capacity`` is the weight this worker advertises to registries and
    pings — a capacity-4 worker receives ~4x the scenarios of a
    capacity-1 worker under weighted sharding. ``advertise_host``
    overrides the host workers publish when registering (needed when
    binding ``0.0.0.0``).

    ``fail_after_frames`` is a failure-injection hook for the rebalance
    and resume tests: every connection is dropped abruptly (no ``done``
    frame) after streaming that many outcome frames, which looks to the
    client exactly like a worker killed mid-shard.
    """

    frames: ClassVar["dict[str, type]"] = {
        **FrameServer.frames, "run": RunFrame,
    }

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = 0,
        cache_dir: "str | None" = None,
        fail_after_frames: "int | None" = None,
        secret=None,
        capacity: int = 1,
        advertise_host: "str | None" = None,
        idle_timeout: "float | None" = DEFAULT_IDLE_TIMEOUT,
    ):
        capacity = int(capacity)
        if capacity < 1:
            raise PlanningError(
                f"worker capacity must be >= 1, got {capacity}"
            )
        super().__init__(
            host=host, port=port, secret=secret, idle_timeout=idle_timeout
        )
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.capacity = capacity
        self.advertise_host = advertise_host or self.host
        self.fail_after_frames = fail_after_frames

    # ------------------------------------------------------------------
    def cache_fingerprint(self) -> "str | None":
        """Short identity of this worker's cache directory (or None).

        Hashes the *resolved path*, not the contents: two daemons with
        equal fingerprints share one artifact store, which is what a
        scheduler wants to know when placing cache-hot work.
        """
        if self.cache_dir is None:
            return None
        path = os.path.realpath(os.path.abspath(self.cache_dir))
        return hashlib.sha256(path.encode("utf-8")).hexdigest()[:12]

    def worker_record(self):
        """This worker's registry record (registration/heartbeat body)."""
        from repro.sweep.registry import WorkerRecord

        return WorkerRecord(
            host=self.advertise_host,
            port=self.port,
            capacity=self.capacity,
            protocol=PROTOCOL_VERSION,
            cache_fingerprint=self.cache_fingerprint(),
        )

    # ------------------------------------------------------------------
    def pong(self) -> WorkerPongFrame:
        return WorkerPongFrame(
            protocol=PROTOCOL_VERSION,
            pid=os.getpid(),
            cache_dir=self.cache_dir,
            capacity=self.capacity,
            cache_fingerprint=self.cache_fingerprint(),
        )

    def handle(self, conn: socket.socket, frame) -> bool:
        if isinstance(frame, RunFrame):
            return self._run_job(conn, frame)
        return super().handle(conn, frame)

    def _run_job(self, conn: socket.socket, job: RunFrame) -> bool:
        """Execute one job, streaming outcome frames; False = close.

        A driver that hangs up mid-job (its caller aborted the sweep)
        ends the job before the next scenario, with no ``DoneFrame``.
        """
        n_sent = 0
        for item in job.scenarios:
            if _peer_closed(conn):
                return False
            try:
                outcome = execute_scenario(
                    item.scenario, job.base_config, self.cache_dir
                )
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                outcome = failure_outcome(item.scenario, exc)
            send_frame(conn, OutcomeFrame(
                index=item.index, record=OutcomeRecord.of(outcome)
            ))
            n_sent += 1
            if (
                self.fail_after_frames is not None
                and n_sent >= self.fail_after_frames
            ):
                # Failure injection: vanish mid-shard, like a kill -9.
                conn.close()
                return False
        send_frame(conn, DoneFrame(n_executed=n_sent))
        return True


def _peer_closed(conn: socket.socket) -> bool:
    """Whether the peer of ``conn`` has closed or reset the connection.

    Only for a connection the peer sends nothing more on (a driver is
    silent after its ``RunFrame``): readable then means EOF or reset.
    """
    try:
        readable, _, _ = select.select([conn], [], [], 0)
        return bool(readable) and conn.recv(1, socket.MSG_PEEK) == b""
    except ConnectionError:
        return True


def serve_worker(
    host: str = DEFAULT_HOST,
    port: int = 0,
    cache_dir: "str | None" = None,
    secret=None,
    capacity: int = 1,
    advertise_host: "str | None" = None,
) -> WorkerServer:
    """Bind a :class:`WorkerServer` (CLI helper; caller serves/loops)."""
    try:
        return WorkerServer(
            host=host, port=port, cache_dir=cache_dir, secret=secret,
            capacity=capacity, advertise_host=advertise_host,
        )
    except OSError as exc:
        raise PlanningError(
            f"cannot bind worker to {host}:{port}: {exc}"
        ) from None


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
@dataclass
class _QueueState:
    """Everything a :class:`_WorkQueue` changes after construction."""

    pending: list
    active: int
    weights: dict = field(default_factory=dict)
    closed: bool = False
    """Set by :meth:`_WorkQueue.drain`: no chunk is handed out after it."""
    connections: set = field(default_factory=set)
    """The sockets of running shards, which :meth:`_WorkQueue.drain`
    hangs up."""


class _WorkQueue:
    """Pending work + live-worker weights, safe for requeue on death.

    Work reaches drivers two ways: each worker's capacity-weighted
    *initial shard* is handed to its driver directly (those shards are
    pre-counted via ``initial_active``), and work requeued by a dead
    worker sits in ``pending`` and is pulled by :meth:`get` in chunks
    proportional to the puller's share of the surviving weight. ``get``
    blocks while the queue is empty but some worker is still mid-shard
    — that worker's death may requeue its leftovers — and returns
    ``None`` once no work can ever arrive again, or once :meth:`drain`
    has closed the queue.
    """

    def __init__(self, pending, initial_active=0):
        self._state: Guarded[_QueueState] = Guarded(
            _QueueState(pending=list(pending), active=int(initial_active))
        )

    def add_worker(self, worker_id, weight) -> None:
        with self._state as state:
            state.weights[worker_id] = max(int(weight), 1)
            self._state.notify_all()

    def retire(self, worker_id) -> None:
        """Drop a dead worker's weight from future chunk sizing."""
        with self._state as state:
            state.weights.pop(worker_id, None)
            self._state.notify_all()

    def get(self, worker_id):
        with self._state as state:
            while True:
                if state.closed:
                    return None
                if state.pending:
                    weight = state.weights.get(worker_id, 1)
                    total = sum(state.weights.values()) or weight
                    # Ceil of this worker's weighted share of what is
                    # pending: a capacity-4 survivor absorbs ~4x a
                    # capacity-1 survivor's part of a dead worker's
                    # requeued scenarios.
                    take = max(1, -(-len(state.pending) * weight // total))
                    chunk = state.pending[:take]
                    del state.pending[:take]
                    state.active += 1
                    return chunk
                if state.active == 0:
                    return None
                self._state.wait(timeout=0.1)

    def task_done(self, requeue=None) -> None:
        with self._state as state:
            state.active -= 1
            if requeue:
                state.pending.extend(requeue)
            self._state.notify_all()

    @contextmanager
    def running(self, sock: socket.socket):
        """Hold a running shard's connection for :meth:`drain`."""
        with self._state as state:
            state.connections.add(sock)
        try:
            yield
        finally:
            with self._state as state:
                state.connections.discard(sock)

    def drain(self):
        """Close the queue, hang up every running shard (its worker stops
        before its next scenario) and return whatever never ran."""
        with self._state as state:
            state.closed = True
            for sock in state.connections:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already gone
            leftovers = list(state.pending)
            state.pending.clear()
            self._state.notify_all()
            return leftovers

    @property
    def closed(self) -> bool:
        """Whether :meth:`drain` has run: drivers stop on seeing it."""
        with self._state as state:
            return state.closed


@dataclass
class _BackendRoster:
    """A :class:`RemoteBackend`'s roster, resolved on first use."""

    workers: "tuple[tuple[tuple[str, int], int], ...] | None" = None


@dataclass(repr=False)
class RemoteBackend(ExecutionBackend):
    """Execute a sweep on ``repro worker serve`` daemons over TCP.

    Workers come from static ``addresses`` (weight 1 per entry; repeat
    an address to weight it) or from a ``registry``
    (a ``host:port`` / ``path.json`` spec or a ready
    :class:`~repro.sweep.registry.Registry`), which is queried at run
    start — dead registrants ping-checked and skipped with a warning —
    and re-queried every ``registry_poll`` seconds mid-sweep to
    backfill late joiners. ``secret`` is the shared handshake secret
    (see :func:`load_secret`).

    The grid's initial distribution is one contiguous
    :func:`~repro.sweep.backends.make_shards` shard per worker entry,
    sized proportionally to its weight; each worker streams outcome
    frames back as its scenarios finish, and every outcome is stamped
    with the executing worker (``ScenarioOutcome.worker``). Driver
    threads hand outcomes to :meth:`outcomes` through a queue,
    and it yields them on the consumer's thread, so
    ``--stream``/``--resume`` work unchanged. Scenario failures are
    isolated worker-side; a worker that dies mid-shard has its
    unfinished scenarios rebalanced onto the survivors proportionally
    to the surviving weights (see the module docstring for the full
    rules).

    ``connect_timeout`` bounds connection establishment and the
    handshake only; once a job is streaming there is no read deadline
    (scenarios may legitimately take minutes), so a hung-but-connected
    worker stalls the run — kill the daemon to trigger rebalancing.
    """

    name = "remote"
    #: Workers read their own daemon-side stores, never the parent's
    #: ``cache_dir`` — so the runner must not prewarm it (see
    #: :attr:`ExecutionBackend.uses_parent_cache`).
    uses_parent_cache = False
    addresses: tuple = ()
    connect_timeout: float = 10.0
    secret: "bytes | None" = None
    registry: object = None
    registry_poll: float = 2.0
    registry_grace: float = 10.0

    def __post_init__(self) -> None:
        if self.addresses:
            self.addresses = parse_worker_addresses(self.addresses)
        self.secret = _as_secret(self.secret)
        if self.addresses and self.registry is not None:
            raise PlanningError(
                "pass either static worker addresses or a registry, "
                "not both"
            )
        self._registry_client: "Registry | None" = None
        if self.registry is not None:
            from repro.sweep.registry import resolve_registry

            # Building a registry client does no I/O.
            self._registry_client = resolve_registry(
                self.registry, secret=self.secret
            )
        self._roster: Guarded[_BackendRoster] = Guarded(
            _BackendRoster()
        )

    # ------------------------------------------------------------------
    def _live_registry_workers(self):
        """Current registry roster, protocol-filtered and sorted."""
        assert self._registry_client is not None
        records = sorted(
            self._registry_client.live_workers(),
            key=lambda record: (record.host, record.port),
        )
        usable = []
        for record in records:
            if record.protocol != PROTOCOL_VERSION:
                warnings.warn(
                    f"registry worker {record.key} speaks protocol "
                    f"{record.protocol}, not {PROTOCOL_VERSION}; skipping",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            usable.append(record)
        return usable

    def _discover(self):
        """Resolve the starting roster from the registry (ping-checked).

        Registry and handshake failures come back as
        :class:`PlanningError` (the CLI's exit-2 contract): a wrong
        secret must say so, not masquerade as "no live workers". Dead
        registrants are probed *concurrently* — one slow connect
        timeout bounds startup, instead of one per crashed host — and
        skipped with a warning.
        """
        try:
            records = self._live_registry_workers()
        except RemoteAuthError as exc:
            raise PlanningError(
                f"cannot authenticate to registry {self.registry!r}: {exc}"
            ) from None
        except (OSError, RemoteProtocolError) as exc:
            raise PlanningError(
                f"cannot reach registry {self.registry!r}: {exc}"
            ) from None
        probes: dict = {}

        def probe(record) -> None:
            try:
                ping(
                    (record.host, record.port),
                    timeout=self.connect_timeout,
                    secret=self.secret,
                )
                probes[record.key] = None
            except Exception as exc:  # noqa: BLE001 — sorted out below
                probes[record.key] = exc

        threads = [
            threading.Thread(target=probe, args=(record,), daemon=True)
            for record in records
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        roster = []
        for record in records:
            failure = probes.get(record.key)
            if isinstance(failure, RemoteAuthError):
                raise PlanningError(
                    f"cannot authenticate to registered worker "
                    f"{record.key}: {failure}"
                ) from None
            if failure is not None:
                warnings.warn(
                    f"registered worker {record.key} is unreachable "
                    f"({failure}); skipping it",
                    RuntimeWarning,
                    stacklevel=3,
                )
                continue
            roster.append(((record.host, record.port), record.capacity))
        if not roster:
            raise PlanningError(
                f"registry {self.registry!r} lists no live workers "
                f"(start some with 'repro worker serve --registry ...')"
            )
        return roster

    def _resolve_roster(self):
        """``((address, weight), ...)`` — static list or discovery.

        Discovery is cached per backend instance: the runner asks for
        ``effective_workers`` and then runs, and both must see the same
        roster. Mid-sweep joins go through the registry re-query, not
        through this.
        """
        with self._roster as cached:
            roster = cached.workers
        if roster is not None:
            return roster
        if self.registry is not None:
            roster = tuple(self._discover())
        elif not self.addresses:
            raise PlanningError(
                "RemoteBackend has no worker addresses; pass "
                "addresses=['host:port', ...] or registry=..."
            )
        else:
            roster = tuple((address, 1) for address in self.addresses)
        with self._roster as cached:
            cached.workers = roster
        return roster

    def effective_workers(self, n_scenarios: int) -> int:
        return max(min(len(self._resolve_roster()), max(n_scenarios, 1)), 1)

    # ------------------------------------------------------------------
    def outcomes(self, scenarios, base_config=None, cache_dir=None):
        roster = self._resolve_roster()
        n = len(scenarios)
        if n == 0:
            return
        # One contiguous shard per worker entry, sized by weight (may be
        # empty for tiny grids); rebalanced leftovers flow through the
        # queue.
        initial = make_shards(
            scenarios, len(roster), weights=[w for _, w in roster]
        )
        work = _WorkQueue(
            [], initial_active=sum(1 for shard in initial if shard)
        )
        events: "queue.Queue[tuple]" = queue.Queue()
        threads: list = []
        known: set = set()

        def spawn(address, weight, initial_shard) -> None:
            driver_id = len(threads)
            work.add_worker(driver_id, weight)
            thread = threading.Thread(
                target=self._drive_worker,
                args=(driver_id, address, work, events, base_config,
                      initial_shard),
                daemon=True,
                name=f"remote-{format_address(address)}",
            )
            threads.append(thread)
            known.add(format_address(address))
            thread.start()

        for (address, weight), shard in zip(roster, initial):
            spawn(address, weight, shard)

        n_done = 0
        dead: dict = {}
        poll_at = time.monotonic() + self.registry_poll
        give_up_at = None
        try:
            while n_done < n:
                if self.registry is not None and time.monotonic() >= poll_at:
                    # Mid-sweep discovery: workers that joined since the
                    # last look get a driver and start pulling work.
                    self._backfill(spawn, known)
                    poll_at = time.monotonic() + self.registry_poll
                try:
                    event = events.get(timeout=0.1)
                except queue.Empty:
                    if any(thread.is_alive() for thread in threads):
                        give_up_at = None
                        continue
                    if self.registry is not None:
                        # Every known worker is dead; hold the sweep
                        # open for the grace window so a late joiner
                        # can still rescue it.
                        now = time.monotonic()
                        if give_up_at is None:
                            give_up_at = now + self.registry_grace
                        if now < give_up_at:
                            continue
                    # All drivers exited with scenarios unfinished: drain
                    # any final events, then report the failure.
                    try:
                        event = events.get_nowait()
                    except queue.Empty:
                        break
                kind = event[0]
                if kind == "outcome":
                    # Each index arrives once: _run_shard refuses a
                    # repeat, and a dead worker's requeue leaves out
                    # what it already delivered.
                    _, index, outcome = event
                    n_done += 1
                    yield index, outcome
                else:  # ("dead", address, error)
                    _, address, error = event
                    dead[format_address(address)] = error
        except BaseException:
            # Abort (typically the consumer closing this generator after
            # a broken on_outcome transport): close the work queue, which
            # hangs up every running shard. Each worker then stops before
            # its next scenario instead of executing the rest of its
            # shard (with one worker, the rest of the grid) behind the
            # caller's back: the queued-work cancellation the pool
            # backends apply on abort.
            work.drain()
            raise
        for thread in threads:
            thread.join()
        if n_done < n:
            unfinished = work.drain()
            failures = "; ".join(
                f"{addr}: {err}" for addr, err in dead.items()
            )
            raise PlanningError(
                f"remote sweep failed: all {len(threads)} workers "
                f"died with {n - n_done} of {n} scenarios unfinished "
                f"({len(unfinished)} still queued). Worker errors: "
                f"{failures or 'none recorded'}"
            )

    def _backfill(self, spawn, known: set) -> None:
        """Spawn drivers for registry workers we have not seen yet."""
        try:
            records = self._live_registry_workers()
        except Exception as exc:  # noqa: BLE001 — a flaky registry must
            # not kill a running sweep; the current workers carry on.
            warnings.warn(
                f"registry re-query failed ({exc}); continuing with the "
                f"current workers",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        for record in records:
            if record.key in known:
                continue  # already driving it, or it died this run
            spawn((record.host, record.port), record.capacity, [])

    # ------------------------------------------------------------------
    def _drive_worker(
        self, driver_id, address, work: _WorkQueue, events, base_config,
        initial_shard,
    ):
        """One worker's driver thread: pull shards until none can come."""
        shard = list(initial_shard)
        while True:
            if not shard:
                shard = work.get(driver_id)
                if shard is None:
                    return
            done: set = set()
            try:
                with closing(
                    self._run_shard(address, shard, base_config, work)
                ) as answers:
                    for index, outcome in answers:
                        outcome.worker = format_address(address)
                        done.add(index)
                        events.put(("outcome", index, outcome))
                        if work.closed:
                            # The sweep was aborted: closing the answers
                            # hangs up on the worker mid-shard.
                            return
            except Exception as exc:  # noqa: BLE001 — any failure on this
                # path (socket, handshake, protocol, malformed record)
                # means the worker cannot be trusted. Worker death:
                # requeue what it never finished, report, and retire
                # this worker for the rest of the run. A narrower catch
                # would leak the work-queue active count and hang every
                # other driver.
                work.retire(driver_id)
                work.task_done(
                    requeue=[(i, s) for i, s in shard if i not in done]
                )
                events.put(("dead", address, f"{type(exc).__name__}: {exc}"))
                return
            work.task_done()
            shard = []

    def _run_shard(self, address, shard, base_config, work: _WorkQueue):
        """Send one job; yield ``(index, outcome)`` as frames arrive."""
        peer = f"worker {format_address(address)}"
        with connect_authenticated(
            address, self.secret, self.connect_timeout, peer=peer,
        ) as sock, work.running(sock):
            sock.settimeout(None)  # scenarios may run long; EOF still breaks
            send_frame(sock, RunFrame(
                protocol=PROTOCOL_VERSION,
                base_config=base_config,
                scenarios=tuple(
                    JobItem(index=index, scenario=scenario)
                    for index, scenario in shard
                ),
            ))
            undelivered = dict(shard)
            while True:
                frame = recv_frame(sock)
                if frame is None:
                    raise RemoteProtocolError(
                        "worker closed the connection mid-shard"
                    )
                op = frame.get("op")
                if op == "outcome":
                    answer = decode_reply(OutcomeFrame, frame, peer)
                    # An index outside the shard, or one already
                    # answered, is a faulty worker: a repeat would stream
                    # a second record for one scenario.
                    scenario = undelivered.pop(answer.index, None)
                    if scenario is None:
                        raise RemoteProtocolError(
                            f"worker answered for scenario index "
                            f"{answer.index}, which is not an undelivered "
                            f"index of its shard"
                        )
                    yield answer.index, answer.record.outcome(scenario)
                elif op == "done":
                    decode_reply(DoneFrame, frame, peer)
                    if undelivered:
                        # A clean-looking finish that skipped scenarios
                        # is a faulty worker, not a finished shard —
                        # raising here requeues the leftovers onto the
                        # survivors instead of silently losing them.
                        raise RemoteProtocolError(
                            f"worker finished a shard of {len(shard)} "
                            f"scenarios but delivered only "
                            f"{len(shard) - len(undelivered)}"
                        )
                    return
                elif op == "error":
                    refusal = decode_reply(ErrorFrame, frame, peer)
                    raise RemoteProtocolError(f"worker error: {refusal.error}")
                else:
                    raise RemoteProtocolError(f"unexpected frame op {op!r}")
