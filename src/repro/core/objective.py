"""Objective evaluation strategies (Definition 6 / Eq. 11).

``O(mu) = w * O_d(mu)/d_max + (1 - w) * O_lambda(mu)/lambda_max``,
:meth:`~repro.core.precompute.Precomputation.objective`.

Two interchangeable strategies drive the expansion engine. Both seed a
single edge with its ``L_e`` entry and score the extensions of an
expansion round with one ``extension_scores`` call.

A strategy instance serves one planning run. Every connectivity gain
it needs goes through its memo of gains keyed by the canonical
novel-pair set, so a set the run has already scored is never scored
again, and the memo's size is the run's count of evaluations. A path
with one new edge ``e`` scores ``Delta(e)``, which the precomputation
priced for that very set; any other set is priced by the kernel of the
run's ``increment_mode``. Both terms of a path's objective depend only
on its edge set, never on the order the search added the edges in.

* :class:`OnlineStrategy` (ETA) — the connectivity term of every
  candidate is re-scored on ``G_r`` plus the candidate's new edges; the
  demand bound runs on ``L_d`` and the connectivity bound is the
  constant Lemma 4 path bound (valid for every partial candidate since
  the final route is always a <= k-edge path added to ``G_r``).
* :class:`PrecomputedStrategy` (ETA-Pre) — the integrated per-edge
  increment ``L_e`` makes the objective a linear sum (Section 6.2) and
  the Algorithm 2 cursor bound runs directly on ``L_e``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.bounds import RankedList
from repro.core.candidate import Candidate
from repro.core.precompute import Precomputation


class _StrategyBase:
    """Shared plumbing: seed scores, the run's memo of connectivity
    gains and the reported objective of a path."""

    def __init__(self, pre: Precomputation):
        self.pre = pre
        self.config = pre.config
        self.universe = pre.universe
        self._gains: dict[tuple[tuple[int, int], ...], float] = {(): 0.0}

    @property
    def evaluations(self) -> int:
        """How many distinct non-empty novel-pair sets this run has
        scored, by the kernel or from ``Delta(e)``."""
        return len(self._gains) - 1

    def seed_score(self, edge_index: int) -> float:
        """Objective of a single-edge path: its ``L_e`` entry."""
        return self.pre.L_e.value(edge_index)

    def demand(self, edge_ids: Sequence[int]) -> float:
        """``O_d`` of a path, summed in edge-index order, so that every
        order one edge set is built in scores bitwise the same."""
        return float(self.universe.demand[sorted(edge_ids)].sum())

    def connectivity(self, paths: Sequence[Sequence[int]]) -> np.ndarray:
        """``O_lambda`` of each path of universe edges, through the memo.

        A path is keyed by the canonical novel-pair set of its new edges.
        A path with one new edge ``e`` scores ``Delta(e)``, which
        :func:`~repro.core.precompute.compute_edge_increments` priced for
        this very set. The other sets this strategy has not scored yet
        go to one
        :meth:`~repro.core.precompute.Precomputation.connectivity_gains`
        call. Either is bitwise what that call returns for the set, since
        the kernel of either increment mode prices a set independently
        of the other sets in the call.
        """
        novel_pairs = self.pre.builder.novel_pairs
        edges, delta = self.universe.edges, self.universe.delta
        keys = []
        for ids in paths:
            new = [edges[i] for i in ids if edges[i].is_new]
            key = tuple(novel_pairs([e.pair for e in new]))
            if len(new) == 1:
                self._gains.setdefault(key, float(delta[new[0].index]))
            keys.append(key)
        missing = [key for key in dict.fromkeys(keys) if key not in self._gains]
        if missing:
            gains = self.pre.connectivity_gains(missing)
            self._gains.update(zip(missing, gains.tolist()))
        return np.array([self._gains[key] for key in keys])

    # -- exact evaluation (used for final reporting by both strategies) --
    def exact_components(self, edge_ids: Sequence[int]) -> tuple[float, float]:
        """``(O_d, O_lambda)`` raw values; ``O_lambda`` through
        :meth:`connectivity`, so a path with one new edge reads
        ``Delta(e)``."""
        [o_l] = self.connectivity([edge_ids])
        return self.demand(edge_ids), float(o_l)

    def exact_objective(self, edge_ids: Sequence[int]) -> float:
        return self.pre.objective(*self.exact_components(edge_ids))


class OnlineStrategy(_StrategyBase):
    """ETA: per-candidate connectivity gains (Section 5)."""

    @property
    def bound_list(self) -> RankedList:
        return self.pre.L_d

    def path_score(self, edge_ids: Sequence[int]) -> float:
        """True objective of a path — one connectivity score."""
        return self.exact_objective(edge_ids)

    def extension_scores(
        self, cand: Candidate, edge_indices: Sequence[int]
    ) -> np.ndarray:
        """The objective of ``cand`` extended by each edge.

        One :meth:`connectivity` call scores the round's extensions. An
        extended path with no new vertex pair or with exactly one new
        edge, or whose novel-pair set the run has already scored, skips
        the kernel.
        """
        paths = [list(cand.edge_ids) + [e] for e in edge_indices]
        o_d = np.array([self.demand(ids) for ids in paths])
        return self.pre.objective(o_d, self.connectivity(paths))

    def bound_to_upper(self, bound_value: float) -> float:
        """Objective-scale bound: Alg. 2 demand bound + Lemma 4 constant."""
        return self.pre.objective(bound_value, self.pre.path_bound_increment)


class PrecomputedStrategy(_StrategyBase):
    """ETA-Pre: linear integrated increments ``L_e`` (Section 6.2)."""

    def __init__(self, pre: Precomputation):
        super().__init__(pre)
        self._values = pre.L_e.values_array()

    @property
    def bound_list(self) -> RankedList:
        return self.pre.L_e

    def path_score(self, edge_ids: Sequence[int]) -> float:
        ids = list(edge_ids)
        return float(self._values[ids].sum()) if ids else 0.0

    def extension_scores(
        self, cand: Candidate, edge_indices: Sequence[int]
    ) -> np.ndarray:
        """``cand.score`` plus each extension edge's ``L_e`` entry."""
        return cand.score + self._values[np.asarray(edge_indices, dtype=np.intp)]

    def bound_to_upper(self, bound_value: float) -> float:
        """The Alg. 2 bound on ``L_e`` is already objective-scale."""
        return bound_value
