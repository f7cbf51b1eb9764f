"""Ranked lists and the incremental demand-bound of Algorithm 2.

``L_d``, ``L_lambda``, and ``L_e`` are descending ranked lists over the
edge universe. The demand upper bound of a partial path starts at the
top-``k`` sum (Section 5.3) and is updated in O(1) per appended edge by
the cursor trick of Algorithm 2: appending an edge cheaper than the
``cur``-th ranked value "spends" one top slot, shrinking the bound by
exactly the gap.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError


class RankedList:
    """A descending ranked view over per-edge values.

    ``value(i)`` looks up by universe edge index; ``ranked(r)`` by 1-based
    rank (the paper's ``L(r)``); ``rank_of(i)`` gives an edge's 1-based
    rank.
    """

    def __init__(self, values: np.ndarray):
        self._values = np.asarray(values, dtype=float)
        if self._values.ndim != 1:
            raise ValidationError(f"values must be 1-D, got {self._values.shape}")
        # Stable sort keeps ties deterministic by index.
        self._order = np.argsort(-self._values, kind="stable")
        self._rank = np.empty(len(self._values), dtype=int)
        self._rank[self._order] = np.arange(1, len(self._values) + 1)
        self._prefix = np.concatenate([[0.0], np.cumsum(self._values[self._order])])

    def __len__(self) -> int:
        return len(self._values)

    def value(self, edge_index: int) -> float:
        """``L[e]`` — the value of edge ``edge_index``."""
        return float(self._values[edge_index])

    def ranked(self, rank: int) -> float:
        """``L(r)`` — the value at 1-based ``rank`` (0 beyond the list)."""
        if rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        if rank > len(self._values):
            return 0.0
        return float(self._values[self._order[rank - 1]])

    def edge_at(self, rank: int) -> int:
        """Universe index of the edge at 1-based ``rank``."""
        if not 1 <= rank <= len(self._values):
            raise ValidationError(f"rank {rank} out of range")
        return int(self._order[rank - 1])

    def rank_of(self, edge_index: int) -> int:
        """1-based rank of edge ``edge_index``."""
        return int(self._rank[edge_index])

    def top_sum(self, k: int) -> float:
        """Sum of the top ``k`` values (fewer if the list is shorter)."""
        if k < 0:
            raise ValidationError(f"k must be >= 0, got {k}")
        return float(self._prefix[min(k, len(self._values))])

    def values_array(self) -> np.ndarray:
        """Copy of the underlying per-edge values."""
        return self._values.copy()


def initial_bound(ranked: RankedList, edge_index: int, k: int) -> tuple[float, int]:
    """Seed bound and cursor for a single-edge path (Alg. 1 lines 22-25).

    For a seed edge inside the top ``k`` the bound is the plain top-``k``
    sum with cursor ``k``; otherwise one top slot is already spent on the
    seed: the bound drops by ``L(k) - L[e]`` and the cursor starts at
    ``k - 1``.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    top = ranked.top_sum(k)
    if ranked.rank_of(edge_index) <= k:
        return top, k
    return top - (ranked.ranked(k) - ranked.value(edge_index)), k - 1


def update_bound(
    ranked: RankedList, bound: float, cursor: int, edge_index: int
) -> tuple[float, int]:
    """O(1) bound update when appending ``edge_index`` (Alg. 2 lines 1-3).

    If the appended edge is cheaper than the ``cursor``-th top value, one
    top slot is replaced by the actual edge: the bound shrinks by the
    gap and the cursor moves up.
    """
    if cursor >= 1 and ranked.ranked(cursor) > ranked.value(edge_index):
        bound -= ranked.ranked(cursor) - ranked.value(edge_index)
        cursor -= 1
    return bound, cursor


def rescan_bound(ranked: RankedList, path_edges, k: int) -> float:
    """Reference bound by full rescan (Eq. 9) — used to validate Alg. 2.

    ``sum_{e in cp} L[e]`` plus the top ``k - len(cp)`` ranked edges not
    already on the path.
    """
    path = list(path_edges)
    in_path = set(path)
    total = sum(ranked.value(e) for e in path)
    slots = k - len(path)
    rank = 1
    while slots > 0 and rank <= len(ranked):
        edge = ranked.edge_at(rank)
        if edge not in in_path:
            total += ranked.ranked(rank)
            slots -= 1
        rank += 1
    return total
