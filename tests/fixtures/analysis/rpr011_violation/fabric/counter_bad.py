"""Seeded RPR011 violation: a counter changed outside the constructor.

``bump`` runs on the owner's thread *and* the worker thread; ``reset``
and ``undo`` write the same field unguarded too.
"""

import threading


class EventCounter:
    def __init__(self):
        self._count = 0
        self._thread = None

    def start(self):
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        self.bump()

    def bump(self):
        self._count = self._count + 1

    def reset(self):
        self._count = 0

    def undo(self):
        self._count -= 1
