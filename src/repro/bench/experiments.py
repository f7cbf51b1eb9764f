"""Table experiments (paper Tables 2-7).

Each function returns structured data *and* registers a formatted
paper-vs-measured report via :func:`repro.bench.harness.report`.
Absolute numbers are expected to differ from the paper (scaled-down
synthetic cities, pure-Python kernels); the *shapes* are what must
hold.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import (
    BENCH_ETA_ITERATIONS,
    BOROUGHS,
    bench_config,
    eta_capped,
    get_dataset,
    get_precomputation,
    report,
)
from repro.core.planner import run_method
from repro.core.precompute import precompute
from repro.eval.metrics import evaluate_planned_route
from repro.spectral.bounds import (
    estrada_upper_bound,
    general_upper_bound,
    path_upper_bound,
)
from repro.spectral.connectivity import (
    NaturalConnectivityEstimator,
    natural_connectivity_exact,
)
from repro.spectral.eigs import top_k_eigenvalues
from repro.spectral.norms import spectral_norm
from repro.sweep import Scenario, SweepReport, sweep_precomputation
from repro.utils.prng import child_rng
from repro.utils.tables import format_table
from repro.utils.timing import Timer

PAPER_TABLE2 = {
    "chicago": {"eigen": 28.65, "lanczos_numpy": 0.610, "lanczos_matlab": 0.035,
                "general_bound": 0.102, "path_bound": 0.049},
    "nyc": {"eigen": 225.03, "lanczos_numpy": 2.412, "lanczos_matlab": 0.094,
            "general_bound": 0.204, "path_bound": 0.099},
}

PAPER_TABLE3 = {
    "chicago": {"estrada": 104.205, "general": 1.576, "path": 0.167, "increment": 0.034},
    "nyc": {"estrada": 156.459, "general": 0.655, "path": 0.067, "increment": 0.010},
}

PAPER_TABLE4 = {
    "chicago": {"new_edges": 95_304, "connectivity_s": 1857, "shortest_path_s": 15_322},
    "nyc": {"new_edges": 160_790, "connectivity_s": 7332, "shortest_path_s": 33_241},
}

PAPER_TABLE5 = {
    "chicago": {"|R|": 146, "len(R)": 47, "|V|": 58_337, "|V_r|": 6171,
                "|E|": 89_051, "|E_r|": 6892, "|D|": 555_367},
    "nyc": {"|R|": 463, "len(R)": 30, "|V|": 264_346, "|V_r|": 12_340,
            "|E|": 365_050, "|E_r|": 13_907, "|D|": 407_122},
}

PAPER_TABLE6 = {
    # city: (ETA | ETA-Pre | vk-TSP) for (#new, objective, connectivity,
    # transfers avoided, distance ratio, crossed routes)
    "chicago": ((29, 29, 22), (0.22, 0.22, 0.06), (0.20, 0.19, 0.05),
                (3.02, 3.15, 2.33), (5.35, 5.90, 5.45), (41, 30, 25)),
    "manhattan": ((19, 23, 21), (0.08, 0.07, 0.06), (0.17, 0.18, 0.13),
                  (1.43, 1.40, 1.32), (1.86, 1.91, 1.47), (5, 7, 4)),
    "queens": ((13, 20, 8), (0.09, 0.09, 0.12), (0.14, 0.17, 0.03),
               (4.22, 4.39, 2.76), (1.60, 1.59, 1.93), (31, 37, 22)),
    "brooklyn": ((26, 26, 6), (0.11, 0.10, 0.04), (0.22, 0.23, 0.03),
                 (1.39, 1.36, 1.25), (2.44, 2.85, 1.16), (13, 17, 5)),
    "staten_island": ((11, 11, 6), (0.09, 0.09, 0.08), (0.16, 0.16, 0.05),
                      (1.93, 1.89, 1.67), (3.66, 3.83, 3.64), (42, 40, 34)),
    "bronx": ((21, 19, 4), (0.08, 0.08, 0.01), (0.16, 0.16, 0.02),
              (4.78, 4.73, 1.60), (6.38, 7.07, 1.32), (20, 17, 8)),
}

PAPER_TABLE7 = {
    # k: (Chi-ETA, Chi-ETA-Pre, NYC-ETA, NYC-ETA-Pre) seconds
    10: (22234.21, 55.45, 15011.55, 37.55),
    20: (28291.92, 76.88, 16468.02, 43.14),
    30: (30828.44, 82.45, 16567.51, 41.17),
    40: (31967.53, 88.32, 16671.96, 41.13),
    50: (32435.84, 94.14, 16686.87, 44.97),
}


# ----------------------------------------------------------------------
# Table 2 — connectivity & bound estimation runtime
# ----------------------------------------------------------------------
_TABLE2_GRIDS = {
    # Planar stand-ins at (near-)paper scale: Chicago at the paper's
    # n=6171-ish; NYC truncated to ~8k vertices to keep the dense eigen
    # reference under ~2 minutes (O(n^3): full 12,340 would take ~6 min).
    "chicago": (83, 75),
    "nyc": (95, 85),
}


def _timing_graph(city: str):
    """A paper-scale near-planar graph for timing (structure-matched)."""
    from repro.data.synth import SynthConfig, generate_road_network
    from repro.network.adjacency import adjacency_matrix

    w, h = _TABLE2_GRIDS[city]
    road = generate_road_network(
        SynthConfig(name=f"timing-{city}", grid_width=w, grid_height=h, seed=2)
    )
    A = adjacency_matrix(
        road.n_vertices, [road.edge_endpoints(e) for e in range(road.n_edges)]
    )
    return A, road.n_vertices


def table2_connectivity_timing(city: str, repeats: int = 5) -> dict:
    A, n = _timing_graph(city)
    k = 15

    with Timer() as t_eigen:
        exact = natural_connectivity_exact(A)

    est = NaturalConnectivityEstimator(n)
    est.estimate(A)  # warm-up
    with Timer() as t_lanczos:
        for _ in range(repeats):
            approx = est.estimate(A)
    lanczos_s = t_lanczos.elapsed / repeats

    with Timer() as t_spec:
        eigs = top_k_eigenvalues(A, 2 * k)
    bound_repeats = max(repeats * 40, 200)
    with Timer() as t_general:
        for _ in range(bound_repeats):
            general_upper_bound(exact, eigs, n, k)
    with Timer() as t_path:
        for _ in range(bound_repeats):
            path_upper_bound(exact, eigs, n, k)

    result = {
        "city": city,
        "n_stops": n,
        "eigen_s": t_eigen.elapsed,
        "lanczos_s": lanczos_s,
        "spectrum_s": t_spec.elapsed,
        "general_bound_s": t_general.elapsed / bound_repeats,
        "path_bound_s": t_path.elapsed / bound_repeats,
        "speedup_eigen_over_lanczos": t_eigen.elapsed / max(lanczos_s, 1e-12),
        "estimate_abs_error": abs(approx - exact),
        "spectral_norm": spectral_norm(A),
    }
    paper = PAPER_TABLE2[city]
    text = format_table(
        ["method", "paper (s)", "measured (s)", "note"],
        [
            ["Eigen full (NumPy)", paper["eigen"], round(result["eigen_s"], 4),
             f"n={n} (paper n=6171/12340)"],
            ["Lanczos (NumPy)", paper["lanczos_numpy"], round(lanczos_s, 5),
             f"s=50,t=10; |err|={result['estimate_abs_error']:.4f}"],
            ["Lanczos (MATLAB)", paper["lanczos_matlab"], "n/a",
             "substituted by vectorized NumPy"],
            ["top-2k spectrum (one-off)", "-", round(t_spec.elapsed, 4),
             "amortized across all bound queries"],
            ["General bound (Lemma 3)", paper["general_bound"],
             round(result["general_bound_s"], 7), "per query, given spectrum"],
            ["Path bound (Lemma 4)", paper["path_bound"],
             round(result["path_bound_s"], 7), "per query, given spectrum"],
        ],
        title=(
            f"Table 2 [{city}]: connectivity & bound estimation runtime on a "
            f"paper-scale planar stand-in (n={n}) — shape target: Lanczos "
            f"1-3 orders faster than full eigen (measured speedup "
            f"{result['speedup_eigen_over_lanczos']:.0f}x); "
            f"||A||2={result['spectral_norm']:.2f} (paper 5.46/4.79)"
        ),
    )
    report(f"table2_{city}", text)
    return result


# ----------------------------------------------------------------------
# Table 3 — bound tightness
# ----------------------------------------------------------------------
def table3_bound_tightness(city: str, k: int = 15) -> dict:
    pre = get_precomputation(city)
    n = pre.universe.n_stops
    m = pre.universe.n_existing_edges
    lam = pre.lambda_base
    eigs = pre.top_eigenvalues

    estrada = estrada_upper_bound(n, m + k)
    general = general_upper_bound(lam, eigs, n, k)
    path = path_upper_bound(lam, eigs, n, k)
    increment = pre.L_lambda.top_sum(k)

    result = {
        "city": city,
        "lambda_base": lam,
        "estrada": estrada,
        "general_increment": general - lam,
        "path_increment": path - lam,
        "increment_bound": increment,
    }
    paper = PAPER_TABLE3[city]
    text = format_table(
        ["bound", "paper", "measured", "measured (increment over lambda)"],
        [
            ["Estrada [25]", paper["estrada"], round(estrada, 3), "raw bound value"],
            ["General (Lemma 3)", paper["general"], round(general, 3),
             round(general - lam, 4)],
            ["Path (Lemma 4)", paper["path"], round(path, 3),
             round(path - lam, 4)],
            ["Increment (sum top-k Delta)", paper["increment"],
             round(increment, 4), round(increment, 4)],
        ],
        title=(
            f"Table 3 [{city}] k={k}: bound tightness — shape target: "
            f"Estrada >> General > Path > Increment "
            f"(lambda_base={lam:.3f})"
        ),
    )
    report(f"table3_{city}", text)
    assert estrada > general > path, "tightness ordering violated"
    assert path - lam > increment * 0.5 or increment < path - lam + 1e-9
    return result


# ----------------------------------------------------------------------
# Table 4 — pre-computation cost
# ----------------------------------------------------------------------
TRUTH_SAMPLE = 300
"""Candidate edges scored against dense ``eigvalsh`` per city."""


def increment_truth(pre, sample_seed: int = 3) -> tuple:
    """``(indices, truth)``: up to :data:`TRUTH_SAMPLE` candidate edges of
    ``pre`` and their dense ``Delta(e)`` (:func:`natural_connectivity_exact`
    of ``G_r`` and ``G_r + e``, the Eigen NumPy reference)."""
    indices = np.array([e.index for e in pre.universe.edges if e.is_new])
    if len(indices) > TRUTH_SAMPLE:
        rng = child_rng(sample_seed, f"truth/{pre.universe.n_stops}")
        indices = np.sort(rng.choice(indices, size=TRUTH_SAMPLE, replace=False))
    lam0 = natural_connectivity_exact(pre.builder.base())
    truth = np.array([
        natural_connectivity_exact(
            pre.builder.extended([pre.universe.edge(int(i)).pair])
        ) - lam0
        for i in indices
    ])
    return indices, truth


def increment_accuracy(values: np.ndarray, truth: np.ndarray) -> tuple:
    """``(median relative error, rank correlation)`` of ``values`` against
    ``truth``."""
    rel = np.abs(values - truth) / np.abs(truth)
    ranks = [np.argsort(np.argsort(x)) for x in (values, truth)]
    return float(np.median(rel)), float(np.corrcoef(*ranks)[0, 1])


def table4_precompute(city: str) -> dict:
    """Precompute cost, exact increments against the Hutchinson reference,
    each scored against dense ``eigvalsh`` on sampled candidate edges."""
    ds = get_dataset(city)
    cfg = bench_config()
    with Timer() as t_exact:
        pre = precompute(ds, cfg)
    with Timer() as t_hutch:
        ref = precompute(ds, cfg.variant(increment_mode="hutchinson"))
    indices, truth = increment_truth(pre)
    exact_err, exact_rho = increment_accuracy(pre.universe.delta[indices], truth)
    hutch_err, hutch_rho = increment_accuracy(ref.universe.delta[indices], truth)

    result = {
        "city": city,
        "new_edges": pre.n_candidate_edges,
        "connectivity_s": pre.timings["increments_s"],
        "connectivity_hutchinson_s": ref.timings["increments_s"],
        "shortest_path_s": pre.timings["candidate_edges_s"],
        "total_exact_s": t_exact.elapsed,
        "total_hutchinson_s": t_hutch.elapsed,
        "exact_median_rel_err": exact_err,
        "hutchinson_median_rel_err": hutch_err,
        "exact_rank_corr": exact_rho,
        "hutchinson_rank_corr": hutch_rho,
    }
    paper = PAPER_TABLE4[city]
    text = format_table(
        ["quantity", "paper", "exact (measured)", "hutchinson (measured)"],
        [
            ["#new candidate edges", paper["new_edges"], result["new_edges"], "-"],
            ["connectivity increments (s)", paper["connectivity_s"],
             round(result["connectivity_s"], 3),
             round(result["connectivity_hutchinson_s"], 3)],
            ["shortest-path demand pricing (s)", paper["shortest_path_s"],
             round(result["shortest_path_s"], 3), "-"],
            ["total pre-computation (s)", "-",
             round(result["total_exact_s"], 3),
             round(result["total_hutchinson_s"], 3)],
            [f"median rel. error vs eigvalsh ({len(indices)} edges)", "-",
             f"{exact_err:.1e}", f"{hutch_err:.1e}"],
            ["rank correlation vs eigvalsh", "-",
             round(exact_rho, 6), round(hutch_rho, 3)],
        ],
        title=(
            f"Table 4 [{city}]: pre-computation on candidate new edges — "
            f"shape target: one-off cost, amortized across all runs"
        ),
    )
    report(f"table4_{city}", text)
    return result


# ----------------------------------------------------------------------
# Table 5 — dataset overview
# ----------------------------------------------------------------------
def table5_datasets() -> dict:
    rows = []
    result = {}
    for city in ("chicago", "nyc"):
        stats = get_dataset(city).stats()
        result[city] = stats
        paper = PAPER_TABLE5[city]
        for key in ("|R|", "len(R)", "|V|", "|V_r|", "|E|", "|E_r|", "|D|"):
            rows.append([city, key, paper[key], stats[key]])
    text = format_table(
        ["city", "stat", "paper", "measured (bench profile)"],
        rows,
        title=(
            "Table 5: dataset overview — bench profile is a ~20-25x "
            "scaled-down synthetic stand-in; "
            "the 'paper' profile reproduces full-scale parameters"
        ),
    )
    report("table5_datasets", text)
    return result


# ----------------------------------------------------------------------
# Table 6 — effectiveness (the headline comparison)
# ----------------------------------------------------------------------
def _method_rows(pre) -> dict[str, dict]:
    out = {}
    runs = {
        "eta": run_method(eta_capped(pre), "eta"),
        "eta-pre": run_method(pre, "eta-pre"),
        "vk-tsp": run_method(pre, "vk-tsp"),
    }
    for name, res in runs.items():
        if res.route is None:
            out[name] = None
            continue
        ev = evaluate_planned_route(
            pre, res.route,
            objective=res.objective,
            o_lambda_normalized=res.o_lambda_normalized,
        )
        out[name] = {
            "#new edges": ev.n_new_edges,
            "objective": round(res.objective, 3),
            "connectivity": round(res.o_lambda_normalized, 3),
            "transfers": round(ev.transfers_avoided, 2),
            "zeta": round(ev.distance_ratio, 2),
            "crossed": ev.crossed_routes,
        }
    return out


def table6_effectiveness(cities=("chicago",) + BOROUGHS) -> dict:
    results = {}
    rows = []
    for city in cities:
        pre = get_precomputation(city)
        per_method = _method_rows(pre)
        results[city] = per_method
        paper = PAPER_TABLE6.get(city)
        for col_idx, col in enumerate(
            ("#new edges", "objective", "connectivity", "transfers", "zeta", "crossed")
        ):
            cell = " | ".join(
                "-" if per_method[m] is None else str(per_method[m][col])
                for m in ("eta", "eta-pre", "vk-tsp")
            )
            paper_cell = (
                " | ".join(str(v) for v in paper[col_idx]) if paper else "-"
            )
            rows.append([city, col, paper_cell, cell])
    text = format_table(
        ["city", "metric (ETA | ETA-Pre | vk-TSP)", "paper", "measured"],
        rows,
        title=(
            "Table 6: effectiveness — shape targets: ETA-Pre ~ ETA; both "
            "beat vk-TSP on connectivity increment, transfers avoided, and "
            "crossed routes"
        ),
    )
    report("table6_effectiveness", text)
    return results


def table6_weight_sweep(city: str = "chicago", weights=(0.0, 0.3, 0.7)) -> dict:
    """The gray rows of Table 6: ETA-Pre under different w (sweep engine)."""
    pre = get_precomputation(city)
    outcomes = sweep_precomputation(
        pre, [Scenario(name=f"w={w}", overrides={"w": w}) for w in weights]
    )
    # Machine-readable twin of the formatted table, for downstream tooling.
    report(
        f"table6_w_sweep_{city}_json",
        SweepReport.from_outcomes(outcomes, backend="in-process").to_json(),
    )
    rows = []
    results = {}
    for w, out in zip(weights, outcomes):
        res = out.result
        ev = evaluate_planned_route(
            out.precomputation, res.route, objective=res.objective,
            o_lambda_normalized=res.o_lambda_normalized,
        ) if res.route else None
        results[w] = (res, ev)
        rows.append([
            w,
            res.route.n_new_edges if res.route else "-",
            round(res.objective, 3),
            round(res.o_lambda_normalized, 3),
            round(ev.transfers_avoided, 2) if ev else "-",
            round(ev.distance_ratio, 2) if ev else "-",
            ev.crossed_routes if ev else "-",
        ])
    text = format_table(
        ["w", "#new edges", "objective", "connectivity", "transfers", "zeta", "crossed"],
        rows,
        title=(
            f"Table 6 gray rows [{city}]: ETA-Pre under w sweep — shape "
            f"target: smaller w => larger connectivity increment and more "
            f"crossed routes"
        ),
    )
    report(f"table6_w_sweep_{city}", text)
    return results


# ----------------------------------------------------------------------
# Table 7 — runtime vs k
# ----------------------------------------------------------------------
def table7_runtime_vs_k(cities=("chicago", "nyc"), ks=(10, 20, 30, 40, 50)) -> dict:
    results: dict[int, dict[str, float]] = {k: {} for k in ks}
    for city in cities:
        pre = get_precomputation(city)
        scenarios = []
        for k in ks:
            scenarios.append(Scenario(
                name=f"k={k}:eta", method="eta",
                overrides={"k": k, "max_iterations": BENCH_ETA_ITERATIONS},
            ))
            scenarios.append(Scenario(name=f"k={k}:eta-pre", overrides={"k": k}))
        outcomes = sweep_precomputation(pre, scenarios)
        report(
            f"table7_runtime_vs_k_{city}_json",
            SweepReport.from_outcomes(outcomes, backend="in-process").to_json(),
        )
        for k, (eta_out, pre_out) in zip(ks, zip(outcomes[::2], outcomes[1::2])):
            eta_res, pre_res = eta_out.result, pre_out.result
            results[k][f"{city}-eta"] = eta_res.runtime_s
            results[k][f"{city}-eta-pre"] = pre_res.runtime_s
            results[k][f"{city}-eta-iters"] = max(eta_res.iterations, 1)
            results[k][f"{city}-eta-pre-iters"] = max(pre_res.iterations, 1)
    rows = []
    for k in ks:
        paper = PAPER_TABLE7[k]
        r = results[k]
        chi_ratio = r["chicago-eta"] / max(r["chicago-eta-pre"], 1e-9)
        rows.append([
            k,
            paper[0], round(r["chicago-eta"], 3),
            paper[1], round(r["chicago-eta-pre"], 4),
            paper[2], round(r.get("nyc-eta", 0.0), 3),
            paper[3], round(r.get("nyc-eta-pre", 0.0), 4),
            f"{chi_ratio:.0f}x",
        ])
    text = format_table(
        ["k", "Chi-ETA paper", "Chi-ETA", "Chi-Pre paper", "Chi-Pre",
         "NYC-ETA paper", "NYC-ETA", "NYC-Pre paper", "NYC-Pre", "Chi speedup"],
        rows,
        title=(
            "Table 7: runtime (s) vs k — shape target: ETA-Pre faster than "
            "online ETA by 2-3 orders of magnitude (paper ~400x; our ETA is "
            f"additionally capped at {BENCH_ETA_ITERATIONS} iterations, see "
            "harness docs)"
        ),
    )
    report("table7_runtime_vs_k", text)
    return results
