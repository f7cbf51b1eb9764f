"""Protocol chaos suite: abuse the wire, the daemon must not care.

The contract under test (see :mod:`repro.sweep.remote`): every
malformed, truncated, oversized, version-mismatched, or
unauthenticated input — on either end of the connection — produces a
clean *typed* error (:class:`RemoteProtocolError` /
:class:`RemoteAuthError` client-side, an ``error`` frame + drop
server-side). The daemon never crashes (it still serves a clean
session afterwards) and never executes a scenario for a peer that did
not complete the handshake.
"""

import socket
import struct
import threading
import time

import pytest

from repro.serve import PlanServer
from repro.sweep import (
    PROTOCOL_VERSION,
    RegistryServer,
    RemoteAuthError,
    WorkerServer,
    ping,
)
from repro.sweep.remote import (
    MAX_FRAME_BYTES,
    RemoteProtocolError,
    auth_mac,
    client_handshake,
    connect_authenticated,
    recv_frame,
    send_frame,
    server_handshake,
)

SECRET = b"chaos-suite-secret"


@pytest.fixture()
def execute_counter(monkeypatch):
    """Counts (and blocks) scenario executions inside the daemon."""
    import repro.sweep.remote as remote_mod

    calls = []
    monkeypatch.setattr(
        remote_mod, "execute_scenario",
        lambda *args, **kwargs: calls.append(args) or (_ for _ in ()).throw(
            AssertionError("scenario executed during a chaos test")
        ),
    )
    return calls


@pytest.fixture()
def daemon(execute_counter):
    """An authenticated worker daemon that must survive every test."""
    server = WorkerServer(secret=SECRET)
    server.start_in_thread()
    yield server
    server.shutdown()


def raw_connect(address):
    return socket.create_connection(address, timeout=5.0)


def assert_daemon_healthy(server):
    """The daemon still completes a clean authenticated session."""
    pong = ping(server.address, secret=SECRET)
    assert pong["op"] == "pong"
    assert pong["protocol"] == PROTOCOL_VERSION


def read_challenge(sock):
    frame = recv_frame(sock)
    assert frame["op"] == "challenge"
    assert frame["protocol"] == PROTOCOL_VERSION
    assert frame["auth"] is True
    return frame


# ----------------------------------------------------------------------
# Frame-layer abuse
# ----------------------------------------------------------------------
class TestMalformedFrames:
    def test_garbage_json_payload_is_dropped(self, daemon, execute_counter):
        with raw_connect(daemon.address) as sock:
            read_challenge(sock)
            sock.sendall(b"\x00\x00\x00\x03not")
            # The daemon drops us without an answer frame (it cannot
            # trust anything on this connection anymore).
            assert sock.recv(1) == b""
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_non_object_json_is_dropped(self, daemon, execute_counter):
        with raw_connect(daemon.address) as sock:
            read_challenge(sock)
            payload = b"[1, 2, 3]"
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            assert sock.recv(1) == b""
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_truncated_length_prefix_is_dropped(self, daemon, execute_counter):
        with raw_connect(daemon.address) as sock:
            read_challenge(sock)
            sock.sendall(b"\x00\x00")  # half a length prefix, then vanish
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_truncated_payload_is_dropped(self, daemon, execute_counter):
        with raw_connect(daemon.address) as sock:
            read_challenge(sock)
            sock.sendall(b"\x00\x00\x00\xff{\"op\":")  # promises 255 bytes
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_oversized_frame_claim_is_dropped(self, daemon, execute_counter):
        with raw_connect(daemon.address) as sock:
            read_challenge(sock)
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            assert sock.recv(1) == b""
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_send_frame_refuses_oversized_payload(self):
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(RemoteProtocolError, match="cap"):
                send_frame(a, {"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_recv_frame_names_byte_counts_on_mid_frame_close(self):
        """Regression: a peer closing mid-frame is a typed ProtocolError
        naming the byte count, never a bare EOF or a short read."""
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x00\x00\x00\xff" + b"xy")
            a.close()
            with pytest.raises(
                RemoteProtocolError, match=r"2 of 255 payload bytes"
            ):
                recv_frame(b)

    def test_recv_frame_names_counts_for_empty_payload_close(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x00\x00\x00\x10")  # header only, then vanish
            a.close()
            with pytest.raises(
                RemoteProtocolError, match=r"0 of 16 payload bytes"
            ):
                recv_frame(b)

    def test_recv_frame_names_counts_for_partial_header(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(b"\x00\x00")
            a.close()
            with pytest.raises(
                RemoteProtocolError, match=r"2 of 4 header bytes"
            ):
                recv_frame(b)


# ----------------------------------------------------------------------
# Handshake abuse
# ----------------------------------------------------------------------
class TestHandshakeChaos:
    def test_wrong_protocol_version_is_typed(self, daemon, execute_counter):
        with raw_connect(daemon.address) as sock:
            challenge = read_challenge(sock)
            send_frame(sock, {
                "op": "auth", "protocol": 999,
                "mac": auth_mac(SECRET, challenge["nonce"]),
            })
            error = recv_frame(sock)
        assert error["op"] == "error"
        assert "protocol 999" in error["error"]
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_wrong_secret_is_typed_and_runs_nothing(
        self, daemon, execute_counter
    ):
        with raw_connect(daemon.address) as sock:
            challenge = read_challenge(sock)
            send_frame(sock, {
                "op": "auth", "protocol": PROTOCOL_VERSION,
                "mac": auth_mac(b"wrong-secret", challenge["nonce"]),
            })
            error = recv_frame(sock)
        assert error["op"] == "error"
        assert "authentication failed" in error["error"]
        # The machine-readable discriminator clients branch on: the
        # error text may change, "code" may not.
        assert error["code"] == "auth"
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_auth_code_drives_client_error_type(self):
        """client_handshake types the failure off the error frame's
        'code' field, not the wording of the message."""
        def server(conn):
            send_frame(conn, {
                "op": "challenge", "protocol": PROTOCOL_VERSION,
                "nonce": "ab", "auth": True,
            })
            recv_frame(conn)
            send_frame(conn, {"op": "error", "code": "auth",
                              "error": "reworded rejection text"})

        with pytest.raises(RemoteAuthError, match="reworded"):
            run_client(server, secret=b"s")

    def test_missing_mac_is_typed(self, daemon, execute_counter):
        with raw_connect(daemon.address) as sock:
            read_challenge(sock)
            send_frame(sock, {
                "op": "auth", "protocol": PROTOCOL_VERSION, "mac": None,
            })
            error = recv_frame(sock)
        assert error["op"] == "error"
        assert "authentication failed" in error["error"]
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_mid_handshake_disconnect_is_survived(
        self, daemon, execute_counter
    ):
        for _ in range(3):
            sock = raw_connect(daemon.address)
            read_challenge(sock)
            sock.close()  # vanish between challenge and auth
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_run_op_in_place_of_auth_never_parses_scenarios(
        self, daemon, execute_counter
    ):
        """An unauthenticated 'run' — a v1-style client, or an attacker
        skipping the handshake — is rejected before any scenario payload
        is parsed, let alone executed."""
        with raw_connect(daemon.address) as sock:
            read_challenge(sock)
            send_frame(sock, {
                "op": "run", "protocol": PROTOCOL_VERSION,
                "base_config": None,
                "scenarios": [{"index": 0, "scenario": {"name": "evil"}}],
            })
            error = recv_frame(sock)
        assert error["op"] == "error"
        assert "expected an 'auth' frame" in error["error"]
        assert_daemon_healthy(daemon)
        assert execute_counter == []

    def test_ping_without_handshake_completion_is_rejected(
        self, daemon, execute_counter
    ):
        with raw_connect(daemon.address) as sock:
            read_challenge(sock)
            send_frame(sock, {"op": "ping"})
            error = recv_frame(sock)
        assert error["op"] == "error"
        assert_daemon_healthy(daemon)

    def test_concurrent_chaos_then_real_work(self, daemon, execute_counter):
        """A burst of hostile connections in parallel leaves the accept
        loop fully functional."""
        def abuse(kind):
            try:
                with raw_connect(daemon.address) as sock:
                    if kind == 0:
                        sock.sendall(b"\x00")
                    elif kind == 1:
                        read_challenge(sock)
                        sock.sendall(b"\xff\xff\xff\xff")
                    else:
                        read_challenge(sock)
            except OSError:
                pass

        threads = [
            threading.Thread(target=abuse, args=(i % 3,)) for i in range(12)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert_daemon_healthy(daemon)
        assert execute_counter == []


# ----------------------------------------------------------------------
# Strict decoding: every daemon decodes a frame before it acts on it
# ----------------------------------------------------------------------
DAEMONS = {
    # kind: (daemon factory, a well-formed request frame it serves)
    "worker": (WorkerServer, {
        "op": "run", "protocol": PROTOCOL_VERSION, "scenarios": [],
    }),
    "registry": (RegistryServer, {
        "op": "register", "protocol": PROTOCOL_VERSION,
        "worker": {"host": "10.0.0.7", "port": 7401},
    }),
    "serve": (PlanServer, {
        "op": "plan", "protocol": PROTOCOL_VERSION,
        "scenario": {"name": "strict"},
    }),
}


@pytest.fixture(params=sorted(DAEMONS))
def any_daemon(request, execute_counter):
    """Each frame daemon in turn, authenticated, with its request frame."""
    factory, frame = DAEMONS[request.param]
    server = factory(secret=SECRET)
    server.start_in_thread()
    yield server, frame
    server.shutdown()


def refusal(server, frame) -> str:
    """Send ``frame`` in a fresh session; the error text, once dropped."""
    with connect_authenticated(server.address, SECRET) as sock:
        send_frame(sock, frame)
        error = recv_frame(sock)
        assert error is not None and error["op"] == "error", error
        assert recv_eof(sock)  # one error frame, then the peer is dropped
    return error["error"]


class TestStrictDecoding:
    @pytest.mark.parametrize("frame, key", [
        ({"op": "ping", "extra": 1}, "extra"),
        # Undecoded, this frame shut every daemon down.
        ({"op": "shutdown", "now": True}, "now"),
    ])
    def test_unknown_key_is_refused_by_name(
        self, any_daemon, execute_counter, frame, key
    ):
        server, _ = any_daemon
        assert key in refusal(server, frame)
        assert_daemon_healthy(server)
        assert execute_counter == []

    def test_unhashable_op_is_an_unknown_op(self, any_daemon):
        server, _ = any_daemon
        assert "unknown op ['x']" in refusal(server, {"op": ["x"]})
        assert_daemon_healthy(server)

    def test_request_on_another_protocol_is_not_supported(self, any_daemon):
        server, frame = any_daemon
        error = refusal(server, {**frame, "protocol": 1})
        assert "protocol 1 not supported" in error
        assert_daemon_healthy(server)

    @pytest.mark.parametrize(
        "any_daemon", ["worker", "serve"], indirect=True
    )
    def test_base_config_decodes_strictly(self, any_daemon, execute_counter):
        server, frame = any_daemon
        error = refusal(server, {**frame, "base_config": {"k": 3.0}})
        assert "base_config.k" in error
        assert "must be int" in error
        assert_daemon_healthy(server)
        assert execute_counter == []


# ----------------------------------------------------------------------
# Stalled peers and daemon shutdown (the long-lived-daemon bug class)
# ----------------------------------------------------------------------
def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def authenticate(sock):
    """Complete the full handshake on a raw socket; returns the welcome."""
    challenge = read_challenge(sock)
    send_frame(sock, {
        "op": "auth", "protocol": PROTOCOL_VERSION,
        "mac": auth_mac(SECRET, challenge["nonce"]),
    })
    welcome = recv_frame(sock)
    assert welcome["op"] == "welcome"
    return welcome


def recv_eof(sock, timeout=5.0):
    """True when the server has dropped us (EOF or a reset)."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except OSError:
        return True  # ECONNRESET counts: the peer is gone either way


class TestStalledPeers:
    def test_stall_mid_frame_is_dropped_by_idle_timeout(
        self, execute_counter
    ):
        """Slow-loris: an *authenticated* peer promises a frame, sends a
        few bytes, and stalls. Without the idle timeout this pinned a
        handler thread forever; with it the peer is dropped and the
        handler exits."""
        server = WorkerServer(secret=SECRET, idle_timeout=0.5)
        server.start_in_thread()
        try:
            with raw_connect(server.address) as sock:
                authenticate(sock)
                sock.sendall(b"\x00\x00\x00\x10{\"op")  # 5 of 16 bytes
                assert recv_eof(sock)
            assert wait_until(lambda: server.n_live_connections == 0)
            assert_daemon_healthy(server)
            assert execute_counter == []
        finally:
            server.shutdown()

    def test_stall_between_frames_is_dropped_too(self, execute_counter):
        """An idle authenticated session past the deadline is dropped —
        the timeout covers waiting-for-a-frame, not just mid-frame."""
        server = WorkerServer(secret=SECRET, idle_timeout=0.5)
        server.start_in_thread()
        try:
            with raw_connect(server.address) as sock:
                authenticate(sock)
                assert recv_eof(sock)  # sent nothing; deadline fires
            assert wait_until(lambda: server.n_live_connections == 0)
            assert_daemon_healthy(server)
        finally:
            server.shutdown()

    def test_idle_timeout_validation(self):
        from repro.utils.errors import PlanningError

        with pytest.raises(PlanningError, match="idle_timeout"):
            WorkerServer(secret=SECRET, idle_timeout=0.0)
        with pytest.raises(PlanningError, match="idle_timeout"):
            WorkerServer(secret=SECRET, idle_timeout=-3)

    def test_shutdown_closes_live_handler_connections(self, execute_counter):
        """Regression: shutdown() used to stop only the accept loop,
        leaving handler threads serving peers indefinitely. It must drop
        every live connection and join every handler thread."""
        server = WorkerServer(secret=SECRET)
        server.start_in_thread()
        with raw_connect(server.address) as sock:
            authenticate(sock)
            assert wait_until(lambda: server.n_live_connections == 1)
            with server._peers as peers:
                handlers = list(peers.handlers)
            assert handlers
            server.shutdown()
            # The daemon hung up on us, not the other way around.
            assert recv_eof(sock)
        assert server.n_live_connections == 0
        for thread in handlers:
            assert not thread.is_alive()

    def test_shutdown_op_from_peer_leaves_no_handlers(self):
        """The in-band shutdown op runs shutdown() *on* a handler thread;
        it must not deadlock joining itself, and no handler survives."""
        server = WorkerServer(secret=SECRET)
        server.start_in_thread()
        with raw_connect(server.address) as sock:
            authenticate(sock)
            send_frame(sock, {"op": "shutdown"})
            assert recv_frame(sock)["op"] == "bye"
        assert wait_until(lambda: server.n_live_connections == 0)
        with server._peers as peers:
            leftover = [t for t in peers.handlers if t.is_alive()]
        assert wait_until(lambda: not any(t.is_alive() for t in leftover))


# ----------------------------------------------------------------------
# Client-side chaos: hostile/broken servers
# ----------------------------------------------------------------------
class FakeServer:
    """One-connection fake daemon driven by a handler function."""

    def __init__(self, handler):
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen()
        self.address = self._sock.getsockname()[:2]
        self._handler = handler
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self._sock.accept()
        except OSError:
            return
        with conn:
            try:
                self._handler(conn)
            except (OSError, RemoteProtocolError):
                pass

    def close(self):
        self._sock.close()


def run_client(handler, secret=None):
    server = FakeServer(handler)
    try:
        with socket.create_connection(server.address, timeout=5.0) as sock:
            client_handshake(sock, secret, peer="fake daemon")
    finally:
        server.close()


class TestClientSideChaos:
    def test_server_closing_before_challenge_is_typed(self):
        with pytest.raises(RemoteProtocolError, match="before the handshake"):
            run_client(lambda conn: None)

    def test_server_with_wrong_version_is_typed(self):
        def old_server(conn):
            send_frame(conn, {"op": "challenge", "protocol": 1, "nonce": "ab",
                              "auth": False})

        with pytest.raises(RemoteProtocolError, match="version mismatch"):
            run_client(old_server)

    def test_server_without_nonce_is_typed(self):
        def server(conn):
            send_frame(conn, {"op": "challenge",
                              "protocol": PROTOCOL_VERSION, "auth": False})

        with pytest.raises(RemoteProtocolError, match="nonce"):
            run_client(server)

    def test_server_dropping_mid_auth_is_typed(self):
        def server(conn):
            send_frame(conn, {
                "op": "challenge", "protocol": PROTOCOL_VERSION,
                "nonce": "ab", "auth": True,
            })
            recv_frame(conn)  # read the auth frame, then just vanish

        with pytest.raises(RemoteAuthError, match="during authentication"):
            run_client(server, secret=b"s")

    def test_auth_demand_without_secret_fails_before_sending(self):
        got_auth_frame = []

        def server(conn):
            send_frame(conn, {
                "op": "challenge", "protocol": PROTOCOL_VERSION,
                "nonce": "ab", "auth": True,
            })
            got_auth_frame.append(recv_frame(conn))

        with pytest.raises(RemoteAuthError, match="requires authentication"):
            run_client(server, secret=None)
        # The client bailed before answering: no mac ever left the box.
        assert got_auth_frame in ([], [None])

    def test_handshake_helpers_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        results = {}

        def serve():
            results["ok"] = server_handshake(b, SECRET)

        thread = threading.Thread(target=serve)
        thread.start()
        with a, b:
            welcome = client_handshake(a, SECRET, peer="pair")
            thread.join()
        assert welcome["op"] == "welcome"
        assert results["ok"] is True
