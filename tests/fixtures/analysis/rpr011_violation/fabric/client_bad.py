"""Seeded RPR011 violation: socket reads inside a region — directly
in ``fetch``, and through a helper in ``refresh``."""

from dataclasses import dataclass

from repro.utils.guarded import Guarded


@dataclass
class Inbox:
    last: "bytes | None" = None


class Client:
    def __init__(self, sock):
        self._sock = sock
        self._state: Guarded[Inbox] = Guarded(Inbox())

    def fetch(self):
        with self._state as state:
            state.last = self._sock.recv(4096)
            return state.last

    def refresh(self):
        with self._state as state:
            state.last = self._pull()
            return state.last

    def _pull(self):
        return self._sock.recv(4096)
