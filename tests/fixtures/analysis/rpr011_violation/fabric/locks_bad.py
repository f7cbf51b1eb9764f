"""Seeded RPR011 violation: two regions that are not leaves.

``forward`` holds ``_a`` and calls ``_grab_b``, which enters ``_b``;
``backward`` enters ``_a`` while it holds ``_b``. Together they are a
lock-order cycle, and each is refused on its own.
"""

from dataclasses import dataclass

from repro.utils.guarded import Guarded


@dataclass
class Side:
    hits: int = 0


class Pair:
    def __init__(self):
        self._a: Guarded[Side] = Guarded(Side())
        self._b: Guarded[Side] = Guarded(Side())

    def forward(self):
        with self._a as a:
            a.hits += 1
            return self._grab_b()

    def _grab_b(self):
        with self._b as b:
            b.hits += 1
            return b.hits

    def backward(self):
        with self._b as b:
            with self._a as a:
                return a.hits + b.hits
