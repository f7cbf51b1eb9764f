"""Ablation: exact per-edge increments vs the low-rank e^A sketch.

DESIGN.md calls out the sketch (`increment_mode="sketch"`) as our
implementation of the paper's perturbation-theory future-work item: one
sketch prices every candidate edge at O(s) instead of one Lanczos sweep
per edge. Both modes are noisy estimators, so each is scored against
*dense ground truth* (exact eigendecomposition per edge) — the fair
yardstick.
"""

import numpy as np
import pytest

from repro.bench.harness import bench_config, get_dataset, report
from repro.core.objective import PrecomputedStrategy
from repro.core.planner import run_method
from repro.core.precompute import compute_edge_increments, precompute
from repro.spectral.connectivity import natural_connectivity_exact
from repro.utils.prng import child_rng
from repro.utils.tables import format_table
from repro.utils.timing import Timer

_TRUTH_SAMPLE = 300


def _rank_corr(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(np.argsort(np.argsort(x)), np.argsort(np.argsort(y)))[0, 1])


def run_ablation(city: str = "chicago") -> dict:
    ds = get_dataset(city)
    cfg = bench_config()
    with Timer() as t_exact:
        pre_exact = precompute(ds, cfg)
    with Timer() as t_sketch:
        pre_sketch = precompute(ds, cfg.variant(increment_mode="sketch"))

    new_idx = np.array([e.index for e in pre_exact.universe.edges if e.is_new])
    rng = child_rng(3, f"ablation/{city}")
    if len(new_idx) > _TRUTH_SAMPLE:
        new_idx = rng.choice(new_idx, size=_TRUTH_SAMPLE, replace=False)

    # Dense ground truth per sampled candidate edge.
    lam0 = natural_connectivity_exact(pre_exact.builder.base())
    truth = np.array([
        natural_connectivity_exact(
            pre_exact.builder.extended([pre_exact.universe.edge(int(i)).pair])
        ) - lam0
        for i in new_idx
    ])
    exact_vals = pre_exact.universe.delta[new_idx]
    sketch_vals = pre_sketch.universe.delta[new_idx]

    res_exact = run_method(pre_exact, "eta-pre")
    res_sketch = run_method(pre_sketch, "eta-pre")
    # Score the sketch-planned route under the *exact-mode* objective to
    # measure real quality loss.
    exact_strategy = PrecomputedStrategy(pre_exact)
    sketch_route_exact_score = (
        exact_strategy.exact_objective(res_sketch.route.edge_indices)
        if res_sketch.route else 0.0
    )

    result = {
        "precompute_exact_s": t_exact.elapsed,
        "precompute_sketch_s": t_sketch.elapsed,
        "speedup": t_exact.elapsed / max(t_sketch.elapsed, 1e-9),
        "exact_rank_corr_vs_truth": _rank_corr(exact_vals, truth),
        "sketch_rank_corr_vs_truth": _rank_corr(sketch_vals, truth),
        "exact_pearson_vs_truth": float(np.corrcoef(exact_vals, truth)[0, 1]),
        "sketch_pearson_vs_truth": float(np.corrcoef(sketch_vals, truth)[0, 1]),
        "objective_exact_mode": res_exact.objective,
        "objective_sketch_mode": sketch_route_exact_score,
        "quality_ratio": sketch_route_exact_score / max(res_exact.objective, 1e-12),
    }
    text = format_table(
        ["quantity", "exact increments", "sketch increments"],
        [
            ["pre-computation time (s)", round(t_exact.elapsed, 3),
             round(t_sketch.elapsed, 3)],
            ["rank corr vs dense ground truth",
             round(result["exact_rank_corr_vs_truth"], 3),
             round(result["sketch_rank_corr_vs_truth"], 3)],
            ["pearson corr vs dense ground truth",
             round(result["exact_pearson_vs_truth"], 3),
             round(result["sketch_pearson_vs_truth"], 3)],
            ["planned-route objective (exact eval)",
             round(res_exact.objective, 4),
             round(sketch_route_exact_score, 4)],
        ],
        title=(
            f"Ablation [{city}]: per-edge increment mode — the sketch "
            f"cuts pre-computation {result['speedup']:.1f}x at equal "
            f"ground-truth accuracy, keeping "
            f"{result['quality_ratio']:.0%} of route quality"
        ),
    )
    report(f"ablation_increments_{city}", text)
    return result


@pytest.mark.parametrize("city", ["chicago"])
def test_ablation_increment_modes(benchmark, city):
    result = benchmark.pedantic(run_ablation, args=(city,), rounds=1, iterations=1)
    # The sketch must be meaningfully faster...
    assert result["speedup"] > 2
    # ...as accurate against ground truth as the exact mode (both are
    # stochastic estimators at the paper's s=50 / sketch budgets)...
    assert result["sketch_rank_corr_vs_truth"] > 0.8 * result["exact_rank_corr_vs_truth"]
    assert result["sketch_pearson_vs_truth"] > 0.5
    # ...and lose little route quality.
    assert result["quality_ratio"] > 0.6
