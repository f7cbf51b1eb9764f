"""RPR011 clean twin: a boxed counter bumped from a worker thread.

Every change after construction goes through the box, each region
only touches its record, and ``wait_for`` parks on the held box's
condition, which releases the lock while it sleeps. Scalars copied out
of a region may outlive it; the thread handle may be bound late.
"""

import threading
from dataclasses import dataclass, field

from repro.utils.guarded import Guarded


@dataclass
class Count:
    value: int = 0
    history: list = field(default_factory=list)


class EventCounter:
    def __init__(self):
        self._state: Guarded[Count] = Guarded(Count())
        self._thread = None

    def start(self):
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        self.bump()

    def bump(self):
        with self._state as state:
            state.value += 1
            state.history.append(state.value)
            self._state.notify_all()

    def wait_for(self, target, timeout=None):
        with self._state as state:
            while state.value < target:
                if not self._state.wait(timeout):
                    break
            value = state.value
            history = list(state.history)
        return value, history
