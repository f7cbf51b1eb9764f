"""Seeded RPR011 violation: a record that outlives its region, and a
lock built outside ``utils/guarded.py``."""

import threading
from dataclasses import dataclass, field

from repro.utils.guarded import Guarded


@dataclass
class Roster:
    workers: dict = field(default_factory=dict)
    n_pruned: int = 0


class Registry:
    def __init__(self):
        self._roster: Guarded[Roster] = Guarded(Roster())
        self._lock = threading.Lock()

    def prune(self, cutoff):
        with self._roster as roster:
            workers = roster.workers
            n_pruned = roster.n_pruned
        for key in [k for k, stamp in workers.items() if stamp < cutoff]:
            del workers[key]
        return n_pruned

    def snapshot(self):
        with self._roster as roster:
            return roster.workers

    def total(self):
        with self._roster as roster:
            n_pruned = roster.n_pruned
        return n_pruned + len(roster.workers)
