"""Ablation: probe-free increments vs the Lanczos + Hutchinson reference.

``increment_mode="exact"`` prices each candidate edge with a block
Lanczos run started at its two stops; ``"hutchinson"`` re-estimates
each extended graph with the paper's common-probe estimator (Sec. 5.1).
Each is scored against *dense ground truth* (exact eigendecomposition
per edge), and the Hutchinson-planned route is scored under the exact
mode's objective.
"""

import pytest

from repro.bench.experiments import increment_accuracy, increment_truth
from repro.bench.harness import bench_config, get_dataset, report
from repro.core.objective import PrecomputedStrategy
from repro.core.planner import run_method
from repro.core.precompute import precompute
from repro.utils.tables import format_table
from repro.utils.timing import Timer


def run_ablation(city: str = "chicago") -> dict:
    ds = get_dataset(city)
    cfg = bench_config()
    with Timer() as t_exact:
        pre_exact = precompute(ds, cfg)
    with Timer() as t_hutch:
        pre_hutch = precompute(ds, cfg.variant(increment_mode="hutchinson"))

    indices, truth = increment_truth(pre_exact)
    exact_err, exact_rho = increment_accuracy(pre_exact.universe.delta[indices], truth)
    hutch_err, hutch_rho = increment_accuracy(pre_hutch.universe.delta[indices], truth)

    res_exact = run_method(pre_exact, "eta-pre")
    res_hutch = run_method(pre_hutch, "eta-pre")
    # Score the Hutchinson-planned route under the exact-mode objective.
    exact_strategy = PrecomputedStrategy(pre_exact)
    hutch_route_exact_score = (
        exact_strategy.exact_objective(res_hutch.route.edge_indices)
        if res_hutch.route else 0.0
    )

    result = {
        "precompute_exact_s": t_exact.elapsed,
        "precompute_hutchinson_s": t_hutch.elapsed,
        "speedup": t_hutch.elapsed / max(t_exact.elapsed, 1e-9),
        "exact_median_rel_err": exact_err,
        "hutchinson_median_rel_err": hutch_err,
        "exact_rank_corr_vs_truth": exact_rho,
        "hutchinson_rank_corr_vs_truth": hutch_rho,
        "objective_exact_mode": res_exact.objective,
        "objective_hutchinson_mode": hutch_route_exact_score,
        "quality_ratio": hutch_route_exact_score / max(res_exact.objective, 1e-12),
    }
    text = format_table(
        ["quantity", "exact increments", "hutchinson increments"],
        [
            ["pre-computation time (s)", round(t_exact.elapsed, 3),
             round(t_hutch.elapsed, 3)],
            ["median rel. error vs dense ground truth",
             f"{exact_err:.1e}", f"{hutch_err:.1e}"],
            ["rank corr vs dense ground truth",
             round(exact_rho, 6), round(hutch_rho, 3)],
            ["planned-route objective (exact eval)",
             round(res_exact.objective, 4),
             round(hutch_route_exact_score, 4)],
        ],
        title=(
            f"Ablation [{city}]: per-edge increment mode — the probe-free "
            f"kernel cuts pre-computation {result['speedup']:.1f}x; the "
            f"Hutchinson route keeps {result['quality_ratio']:.0%} of the "
            f"exact-mode objective"
        ),
    )
    report(f"ablation_increments_{city}", text)
    return result


@pytest.mark.parametrize("city", ["chicago"])
def test_ablation_increment_modes(benchmark, city):
    result = benchmark.pedantic(run_ablation, args=(city,), rounds=1, iterations=1)
    # The probe-free kernel is faster than the reference...
    assert result["speedup"] > 2
    # ...and tracks dense ground truth far more closely...
    assert result["exact_median_rel_err"] < 1e-6
    assert result["exact_rank_corr_vs_truth"] > 0.999
    assert result["exact_rank_corr_vs_truth"] > result["hutchinson_rank_corr_vs_truth"]
    # ...while the reference's routes stay usable under the exact objective.
    assert result["quality_ratio"] > 0.6
