"""Minimal stdlib HTTP/JSON front door for the plan server.

The frame protocol is the real interface — authenticated, versioned,
streaming-capable — but it needs a Python client. This module bolts a
small ``http.server``-based facade onto a running
:class:`~repro.serve.server.PlanServer` so anything that can speak
HTTP (curl, a notebook, a dashboard) can plan and read stats:

* ``POST /plan`` — body is the same document the frame ``plan`` op
  takes (``scenario`` + optional ``base_config``); the response body is
  :meth:`PlanServer.plan_request`'s result. 400 on validation errors.
* ``GET  /stats`` — :meth:`PlanServer.stats` as JSON.
* ``POST /shutdown`` — acknowledge, then stop the plan server.

Every reply other than a 200 closes the connection.

Auth: when the daemon has a shared secret, HTTP callers must send
``Authorization: Bearer <token>`` where the token is
:func:`http_token`\\ (secret) — an HMAC of a fixed label, so the secret
itself never appears on the wire, and a frame-protocol secret file
doubles as the HTTP credential. Without a secret the door is open
(localhost development). This is a convenience facade for localhost and
trusted networks; it is not TLS and does not try to be.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.utils.errors import PlanningError

MAX_BODY_BYTES = 8 * 1024 * 1024
"""Largest accepted request body (a plan spec is a few hundred bytes)."""

_TOKEN_LABEL = b"repro-serve-http-v1"


def http_token(secret: "bytes | None") -> "str | None":
    """The bearer token for a shared secret (``None`` when auth is off)."""
    if secret is None:
        return None
    return hmac.new(secret, _TOKEN_LABEL, hashlib.sha256).hexdigest()


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request against the attached plan server."""

    protocol_version = "HTTP/1.1"
    timeout = 60  # a stalled HTTP peer is dropped, same idea as frames
    # Headers and body leave in two writes; with Nagle's algorithm on,
    # every reply on a kept-alive connection would wait for the
    # client's delayed ACK (~40 ms) before its body could be sent.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass  # the daemon's stdout is for readiness lines, not access logs

    def _send_json(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status != 200:
            # A refused request may leave its body unread in the stream;
            # the next request on this connection would be parsed from
            # it. Close, as the frame door drops a peer after an error.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _authorized(self) -> bool:
        token = http_token(self.server.plan_server.secret)
        if token is None:
            return True
        header = self.headers.get("Authorization", "")
        return hmac.compare_digest(header, f"Bearer {token}")

    def _read_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise PlanningError("bad Content-Length header") from None
        if not 0 < length <= MAX_BODY_BYTES:
            raise PlanningError(
                f"request body must be 1..{MAX_BODY_BYTES} bytes, "
                f"got {length}"
            )
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PlanningError(f"request body is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise PlanningError("request body must be a JSON object")
        return doc

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — stdlib dispatch name
        if not self._authorized():
            self._send_json(401, {"error": "missing or bad bearer token"})
            return
        if self.path == "/stats":
            self._send_json(200, self.server.plan_server.stats())
            return
        self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 — stdlib dispatch name
        if not self._authorized():
            self._send_json(401, {"error": "missing or bad bearer token"})
            return
        if self.path == "/plan":
            try:
                doc = self._read_body()
                reply = self.server.plan_server.plan_request(doc)
            except PlanningError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            except Exception as exc:  # noqa: BLE001 — report, don't die
                self._send_json(500, {"error": str(exc)})
                return
            self._send_json(200, reply)
            return
        if self.path == "/shutdown":
            # Acknowledge first: shutdown() drops frame peers and the
            # planner, and the caller deserves a reply before that.
            self._send_json(200, {"ok": True})
            self.server.plan_server.shutdown()
            return
        self._send_json(404, {"error": f"no such endpoint: {self.path}"})


class PlanHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one plan server."""

    daemon_threads = True  # HTTP handler threads never outlive shutdown

    def __init__(self, address, plan_server):
        super().__init__(address, _Handler)
        self.plan_server = plan_server


def build_http_server(plan_server, host: str, port: int) -> PlanHTTPServer:
    """Bind the HTTP front door (CLI helper; caller serves/loops)."""
    try:
        return PlanHTTPServer((host, int(port)), plan_server)
    except OSError as exc:
        raise PlanningError(
            f"cannot bind HTTP front door to {host}:{port}: {exc}"
        ) from None
