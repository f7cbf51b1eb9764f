"""A ``repro serve`` child and the two clients that drive it.

:class:`ServeChild` starts ``python -m repro serve`` with a fresh secret
and a temporary ``--cache-dir``, waits for both readiness lines, and on
exit always shuts the child down and reaps it: first the HTTP
``/shutdown`` door, then SIGTERM, then SIGKILL.

:class:`FrameClient` and :class:`HttpClient` each hold one connection and
send one plan request at a time (a closed loop). Every call is bounded by
``timeout``; an error reply, a timeout or a broken connection raises
:class:`OpFailed`, and the next call reconnects.
"""

from __future__ import annotations

import http.client
import json
import os
import secrets
import selectors
import signal
import subprocess
import sys
import time

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class OpFailed(Exception):
    """One op failed: an error reply, a timeout, or a broken connection."""


class ServeChild:
    """``repro serve`` on ephemeral ports, owned by a ``with`` block."""

    def __init__(self, src_dir: str, work_dir: str, env: dict):
        self.src_dir = src_dir
        self.work_dir = work_dir
        self.env = dict(env)
        self.proc: "subprocess.Popen | None" = None
        self.secret = secrets.token_hex(16).encode()
        self.frame_addr: "tuple[str, int] | None" = None
        self.http_addr: "tuple[str, int] | None" = None

    def start(self) -> "ServeChild":
        """Launch the child and wait until both doors listen."""
        secret_path = os.path.join(self.work_dir, "secret")
        with open(secret_path, "wb") as f:
            f.write(self.secret)
        env = dict(self.env)
        env["PYTHONPATH"] = self.src_dir
        self._stderr = open(os.path.join(self.work_dir, "serve.log"), "wb")
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", "0", "--http-port", "0",
                    "--cache-dir", os.path.join(self.work_dir, "cache"),
                    "--secret-file", secret_path,
                ],
                cwd=self.work_dir,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
            )
            self.frame_addr, self.http_addr = self._await_ready()
        except BaseException:
            self.close()
            raise
        return self

    def __enter__(self) -> "ServeChild":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _await_ready(self):
        """Parse the two readiness lines, bounded by READY_TIMEOUT_S."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        lines: list[str] = []
        buf = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while len(lines) < 2:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(timeout=left):
                    raise RuntimeError("repro serve did not become ready in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"repro serve exited with code {self.proc.wait()}: "
                        f"{self.log_tail()}"
                    )
                buf += chunk
                while b"\n" in buf and len(lines) < 2:
                    line, buf = buf.split(b"\n", 1)
                    lines.append(line.decode())
        return _address(lines[0]), _address(lines[1])

    def log_tail(self, n: int = 400) -> str:
        try:
            with open(os.path.join(self.work_dir, "serve.log"), "rb") as f:
                return f.read()[-n:].decode(errors="replace")
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        """The child's peak resident set size (VmHWM) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """CPU seconds (user + system) the child has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def close(self) -> None:
        """Shut the child down and reap it; safe to call more than once."""
        proc = self.proc
        if proc is not None and proc.poll() is None:
            if self.http_addr is not None:
                client = HttpClient(self.http_addr, self.secret, timeout=2.0)
                try:
                    client.post("/shutdown", {})
                except OpFailed:
                    pass
                finally:
                    client.close()
            for sig in (None, signal.SIGTERM, signal.SIGKILL):
                if sig is not None:
                    try:
                        proc.send_signal(sig)
                    except ProcessLookupError:
                        break
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                    break
                except subprocess.TimeoutExpired:
                    continue
        if proc is not None:
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        stderr = getattr(self, "_stderr", None)
        if stderr is not None:
            stderr.close()


def _address(line: str) -> tuple[str, int]:
    # "serve listening on HOST:PORT (...)" / "serve http listening on HOST:PORT"
    hostport = line.split(" on ", 1)[1].split()[0]
    host, port = hostport.rsplit(":", 1)
    return host, int(port)


class FrameClient:
    """The authenticated frame door: one ``plan`` op per call."""

    door = "frame"

    def __init__(self, addr, secret: bytes, timeout: float):
        self.addr = addr
        self.secret = secret
        self.timeout = timeout
        self.sock = None

    def plan(self, doc: dict) -> tuple[dict, int]:
        from repro.sweep.remote import (
            PROTOCOL_VERSION,
            connect_authenticated,
            recv_frame,
            send_frame,
        )

        try:
            if self.sock is None:
                self.sock = connect_authenticated(
                    self.addr, self.secret, timeout=self.timeout
                )
                self.sock.settimeout(self.timeout)
            send_frame(self.sock, {"op": "plan", "protocol": PROTOCOL_VERSION, **doc})
            reply = recv_frame(self.sock)
        except Exception as exc:  # noqa: BLE001 — any transport failure fails the op
            self.close()
            raise OpFailed(f"frame door: {type(exc).__name__}: {exc}") from None
        if reply is None or reply.get("op") != "plan_result":
            self.close()  # the server closes after an error reply
            raise OpFailed(f"frame door answered {reply!r:.200}")
        return reply, len(json.dumps(reply))

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class HttpClient:
    """The HTTP door with its derived bearer token, one request per
    connection as a one-shot client such as curl sends it.

    On a kept-alive connection every reply waits about 40 ms: the door
    writes headers and body in two sends, and the body waits for the
    client's delayed ACK. That floor does not move with the machine's
    speed while the frame door's round trips do, so the two doors' share
    of ops, and with it the latency median, would swing with the speed.
    """

    door = "http"

    def __init__(self, addr, secret: bytes, timeout: float):
        from repro.serve import http_token

        self.addr = addr
        self.timeout = timeout
        self.headers = {
            "Authorization": f"Bearer {http_token(secret)}",
            "Content-Type": "application/json",
            "Connection": "close",
        }

    def _request(self, method: str, path: str, body: "bytes | None") -> bytes:
        conn = http.client.HTTPConnection(*self.addr, timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers=self.headers)
            resp = conn.getresponse()
            data = resp.read()
        except Exception as exc:  # noqa: BLE001 — any transport failure fails the op
            raise OpFailed(f"http door: {type(exc).__name__}: {exc}") from None
        finally:
            conn.close()
        if resp.status != 200:
            raise OpFailed(f"http door answered {resp.status}: {data[:200]!r}")
        return data

    def post(self, path: str, doc: dict) -> dict:
        return json.loads(self._request("POST", path, json.dumps(doc).encode()))

    def get(self, path: str) -> dict:
        return json.loads(self._request("GET", path, None))

    def plan(self, doc: dict) -> tuple[dict, int]:
        data = self._request("POST", "/plan", json.dumps(doc).encode())
        return json.loads(data), len(data)

    def close(self) -> None:
        """Nothing stays open between requests."""
