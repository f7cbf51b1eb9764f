"""Demand-first baseline: vk-TSP (paper Section 7.2.1).

Maximizing trajectory demand alone with at most ``k`` *new* edges is a
variant of k-TSP (the refinement step of trajectory clustering [58]).
Per the paper, it is implemented with the same Algorithm 1 traversal
under ``w = 1`` and a new-edges-only restriction on initialization and
expansion.
"""

from __future__ import annotations

from repro.core.eta import ExpansionEngine
from repro.core.objective import PrecomputedStrategy
from repro.core.precompute import Precomputation, rebind
from repro.core.result import PlanResult


def run_vk_tsp(pre: Precomputation) -> PlanResult:
    """Run vk-TSP on a prepared precomputation.

    The returned scores are re-normalized with the *caller's* ``w`` and
    normalizers so the result is comparable to CT-Bus runs (as in the
    paper's Table 6 columns).
    """
    vk_cfg = pre.config.variant(w=1.0, new_edges_only=True)
    vk_pre = rebind(pre, vk_cfg)
    result = ExpansionEngine(vk_pre, PrecomputedStrategy(vk_pre)).run()
    result.method = "vk-tsp"
    result.o_d_normalized = result.o_d / pre.d_max
    result.o_lambda_normalized = result.o_lambda / pre.lambda_max
    result.objective = pre.objective(result.o_d, result.o_lambda)
    return result
