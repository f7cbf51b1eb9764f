"""The expansion-based traversal algorithm (paper Algorithm 1).

One engine drives every planner variant; the pieces map to the paper as
follows:

* **Initialization** — the top-``sn`` edges of ``L_e`` seed the priority
  queue (selective seeding, Sec. 6.2); ``seed_count=None`` seeds *all*
  edges (the ETA-ALL comparison of Fig. 9); ``new_edges_only`` restricts
  to new edges (the vk-TSP baseline). Seed bounds follow Alg. 1 lines
  22-25.
* **Expansion** — the polled candidate is extended at both ends. With
  ``expansion="best"`` the best begin/end neighbors are composed as
  ``be + cp + ee`` (Alg. 1 lines 8-13); with ``"all"`` every neighbor
  extension is enqueued (ETA-AN).
* **Verification** — feasibility (turns via Alg. 2's angle rules, read
  from the universe's static turn table; circle-freeness; length <= k),
  the Algorithm 2 incremental demand bound, the domination table keyed
  by (first, last) edge, and the global bound-vs-best termination test
  (Alg. 1 line 5).

The difference between ETA and ETA-Pre is entirely in the injected
:mod:`~repro.core.objective` strategy. Which strategy and config each
named method runs with is declared once, in
:data:`repro.core.planner.METHOD_TABLE`, and
:func:`repro.core.planner.run_method` is the one door into this engine.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from repro.core.bounds import initial_bound, update_bound
from repro.core.candidate import AT_BEGIN, AT_END, Candidate, extend, seed_candidate
from repro.core.config import EXPANSION_ALL, PlannerConfig
from repro.core.objective import OnlineStrategy, PrecomputedStrategy
from repro.core.precompute import Precomputation
from repro.core.result import PlannedRoute, PlanResult
from repro.utils.timing import Timer

_EPS = 1e-12


class ExpansionEngine:
    """Runs Algorithm 1 for a given evaluation strategy.

    ``constraints`` (optional) enables interactive replanning: anchored
    or restricted searches against the same pre-computation — see
    :mod:`repro.core.constraints`.
    """

    def __init__(
        self,
        pre: Precomputation,
        strategy: OnlineStrategy | PrecomputedStrategy,
        constraints=None,
    ):
        self.pre = pre
        self.config: PlannerConfig = pre.config
        self.universe = pre.universe
        self.strategy = strategy
        self.constraints = constraints
        if constraints is not None:
            constraints.validate_against(self.universe)

    # ------------------------------------------------------------------
    def run(self) -> PlanResult:
        cfg = self.config
        strategy = self.strategy
        counter = itertools.count()
        fifo = cfg.queue_discipline == "fifo"
        # Bound discipline: max-heap on the upper bound (Alg. 1).
        # FIFO discipline: plain breadth-first scanning (the classical
        # framework ETA-ALL emulates).
        heap: list[tuple[float, int, Candidate]] = []
        queue: deque[Candidate] = deque()
        domination: dict[tuple[int, int], float] = {}
        best: "Candidate | None" = None
        best_score = 0.0
        trace: list[tuple[int, float]] = []
        pushes = pruned_bound = pruned_dom = 0
        evaluations_before = self.pre.estimator.evaluations

        def push(cand: Candidate) -> None:
            if fifo:
                queue.append(cand)
            else:
                heapq.heappush(heap, (-cand.upper, next(counter), cand))

        def pending() -> bool:
            return bool(queue) if fifo else bool(heap)

        with Timer() as timer:
            # -------------------------- Initialization ----------------
            for edge_index in self._seed_edges():
                cand = seed_candidate(self.universe, edge_index)
                score = strategy.seed_score(edge_index)
                bound, cursor = initial_bound(strategy.bound_list, edge_index, cfg.k)
                upper = strategy.bound_to_upper(bound)
                cand = cand.with_scores(score, bound, cursor, upper)
                if score > best_score:
                    best, best_score = cand, score
                if upper > best_score + _EPS:
                    push(cand)
                    pushes += 1

            # -------------------------- Expansion loop ----------------
            iterations = 0
            while pending() and iterations < cfg.max_iterations:
                if fifo:
                    cand = queue.popleft()
                    if cand.upper <= best_score + _EPS:
                        pruned_bound += 1
                        continue  # FIFO head carries no global guarantee
                else:
                    neg_upper, _, cand = heapq.heappop(heap)
                    if -neg_upper <= best_score + _EPS:
                        break  # no remaining candidate can beat the best
                iterations += 1

                extensions = self._valid_extensions(cand)
                if cfg.expansion == EXPANSION_ALL:
                    for side, edge_index, new_stop, tinc, score in extensions:
                        new_cand = extend(
                            self.universe, cand, edge_index, new_stop, side, tinc
                        )
                        b, cur = update_bound(
                            strategy.bound_list, cand.bound, cand.cursor, edge_index
                        )
                        new_cand = new_cand.with_scores(
                            score, b, cur, strategy.bound_to_upper(b)
                        )
                        if score > best_score:
                            best, best_score = new_cand, score
                        pushed, pb, pd = self._try_push(
                            push, domination, new_cand, best_score
                        )
                        pushes += pushed
                        pruned_bound += pb
                        pruned_dom += pd
                else:
                    composed = self._compose_best(cand, extensions)
                    if composed is not None:
                        score = strategy.path_score(composed.edge_ids)
                        composed = composed.with_scores(
                            score,
                            composed.bound,
                            composed.cursor,
                            strategy.bound_to_upper(composed.bound),
                        )
                        if score > best_score:
                            best, best_score = composed, score
                        pushed, pb, pd = self._try_push(
                            push, domination, composed, best_score
                        )
                        pushes += pushed
                        pruned_bound += pb
                        pruned_dom += pd

                if iterations % cfg.record_every == 0:
                    trace.append((iterations, best_score))

            if not trace or trace[-1][0] != iterations:
                trace.append((iterations, best_score))

        return self._build_result(
            best, best_score, iterations, timer.elapsed, trace,
            pushes, pruned_bound, pruned_dom, evaluations_before,
        )

    # ------------------------------------------------------------------
    def _seed_edges(self) -> list[int]:
        """Top-``sn`` eligible edges by integrated increment (Sec. 6.2)."""
        cfg = self.config
        eligible = []
        for rank in range(1, len(self.pre.L_e) + 1):
            edge_index = self.pre.L_e.edge_at(rank)
            if cfg.new_edges_only and not self.universe.is_new[edge_index]:
                continue
            if self.constraints is not None and not self.constraints.allows_seed(
                self.universe, edge_index
            ):
                continue
            eligible.append(edge_index)
            if cfg.seed_count is not None and len(eligible) >= cfg.seed_count:
                break
        return eligible

    def feasible_extensions(
        self, cand: Candidate, sides: tuple[str, ...] = (AT_END, AT_BEGIN)
    ) -> list[tuple[str, int, int, int]]:
        """Every feasible one-edge extension of ``cand`` on ``sides``.

        Returns ``(side, edge_index, new_stop, turn_increment)`` tuples,
        each side's in ``universe.by_stop`` order. The junction geometry
        (which next edges are not sharp, and which cost a turn) comes from
        the universe's turn table; only the rules of this path and run are
        applied here: edge or stop already on the path, loop closure
        (``allow_loop``, at least 2 edges), the length and turn budgets,
        ``new_edges_only`` and the constraints. Nothing run-specific is
        stored on the universe, which a server reuses across requests.
        """
        cfg = self.config
        edge_ids, stops = cand.edge_ids, cand.stops
        if len(edge_ids) >= cfg.k or cand.is_loop:
            return []
        turns_left = cfg.max_turns - cand.turns
        closable = cfg.allow_loop and len(edge_ids) >= 2
        is_new = self.universe.is_new if cfg.new_edges_only else None
        constraints = self.constraints
        feasible: list[tuple[str, int, int, int]] = []
        for side in sides:
            if side == AT_END:
                arrived, terminal, opposite = edge_ids[-1], stops[-1], stops[0]
            else:
                arrived, terminal, opposite = edge_ids[0], stops[0], stops[-1]
            for edge_index, new_stop, tinc in self.universe.continuations[arrived][terminal]:
                if tinc > turns_left or edge_index in edge_ids:
                    continue
                if new_stop in stops and not (closable and new_stop == opposite):
                    continue
                if is_new is not None and not is_new[edge_index]:
                    continue
                if constraints is not None and not constraints.allows_edge(
                    self.universe, edge_index
                ):
                    continue
                feasible.append((side, edge_index, new_stop, tinc))
        return feasible

    def _valid_extensions(
        self, cand: Candidate
    ) -> list[tuple[str, int, int, int, float]]:
        """All feasible one-edge extensions with their evaluated scores.

        Returns ``(side, edge_index, new_stop, turn_increment, score)``
        tuples; this evaluation (one connectivity estimate per neighbor
        for ETA) is exactly the paper's Bottleneck 1. The extensions of
        *both* sides (:meth:`feasible_extensions`) are scored in one
        ``extension_scores`` call.
        """
        feasible = self.feasible_extensions(cand)
        if not feasible:
            return []
        scores = self.strategy.extension_scores(cand, [f[1] for f in feasible])
        return [
            (side, edge_index, new_stop, tinc, float(score))
            for (side, edge_index, new_stop, tinc), score in zip(feasible, scores)
        ]

    def _compose_best(
        self,
        cand: Candidate,
        extensions: list[tuple[str, int, int, int, float]],
    ) -> "Candidate | None":
        """``cp <- be + cp + ee`` with the best neighbor per side (l. 13).

        The second side is re-validated against the already-extended
        path (the first extension may have consumed its stop or the
        remaining edge budget).
        """
        if not extensions:
            return None
        by_side: dict[str, tuple[str, int, int, int, float]] = {}
        for ext in extensions:
            side = ext[0]
            if side not in by_side or ext[4] > by_side[side][4]:
                by_side[side] = ext
        ordered = sorted(by_side.values(), key=lambda e: -e[4])

        current = cand
        for side, edge_index, new_stop, tinc, _score in ordered:
            if current.n_edges >= self.config.k:
                break
            if current is not cand and not any(
                ext[1] == edge_index for ext in self.feasible_extensions(current, (side,))
            ):
                # No longer feasible on the extended path.
                continue
            extended = extend(self.universe, current, edge_index, new_stop, side, tinc)
            b, cur = update_bound(
                self.strategy.bound_list, current.bound, current.cursor, edge_index
            )
            current = extended.with_scores(current.score, b, cur, current.upper)
        if current is cand:
            return None
        return current

    def _try_push(
        self,
        push,
        domination: dict[tuple[int, int], float],
        cand: Candidate,
        best_score: float,
    ) -> tuple[int, int, int]:
        """FurtherExpansion (Alg. 1 lines 28-34). Returns push/prune counts."""
        cfg = self.config
        if cand.turns >= cfg.max_turns and cfg.max_turns > 0:
            return 0, 0, 0
        if cand.n_edges >= cfg.k or cand.is_loop:
            return 0, 0, 0
        if cand.upper <= best_score + _EPS:
            return 0, 1, 0
        if cfg.use_domination:
            key = cand.domination_key()
            seen = domination.get(key)
            if seen is not None and cand.score <= seen:
                return 0, 0, 1
            domination[key] = cand.score
        push(cand)
        return 1, 0, 0

    # ------------------------------------------------------------------
    def _build_result(
        self,
        best: "Candidate | None",
        best_score: float,
        iterations: int,
        runtime: float,
        trace: list[tuple[int, float]],
        pushes: int,
        pruned_bound: int,
        pruned_dom: int,
        evaluations_before: int,
    ) -> PlanResult:
        route = None
        o_d = o_l = objective = 0.0
        if best is not None:
            route = PlannedRoute.from_edges(
                self.universe, best.stops, best.edge_ids, best.turns
            )
            o_d, o_l = self.strategy.exact_components(best.edge_ids)
            objective = self.pre.objective(o_d, o_l)
        return PlanResult(
            method=self.strategy.name,
            route=route,
            objective=objective,
            o_d=o_d,
            o_lambda=o_l,
            o_d_normalized=o_d / self.pre.d_max,
            o_lambda_normalized=o_l / self.pre.lambda_max,
            search_score=best_score,
            iterations=iterations,
            runtime_s=runtime,
            connectivity_evaluations=self.pre.estimator.evaluations - evaluations_before,
            trace=trace,
            queue_pushes=pushes,
            pruned_by_bound=pruned_bound,
            pruned_by_domination=pruned_dom,
        )
