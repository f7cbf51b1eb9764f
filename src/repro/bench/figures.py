"""Figure experiments (paper Figures 1, 3, 4, 6, 7/8, 9, 10, 11, 12).

Figures are reproduced as data series rendered through the ASCII helpers
(the shapes, crossovers, and orderings are what must hold).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.connectivity_first import connectivity_first_route
from repro.bench.harness import (
    eta_capped,
    get_dataset,
    get_precomputation,
    report,
)
from repro.core.planner import run_method
from repro.core.precompute import rebind
from repro.eval.metrics import evaluate_planned_route
from repro.spectral.connectivity import NaturalConnectivityEstimator
from repro.sweep import Scenario, sweep_precomputation
from repro.utils.prng import child_rng
from repro.utils.tables import format_series, format_table


# ----------------------------------------------------------------------
# Figure 1 — natural connectivity under route removal
# ----------------------------------------------------------------------
def fig1_route_removal(city: str, n_points: int = 11) -> tuple[list[int], list[float]]:
    ds = get_dataset(city)
    transit = ds.transit
    max_removed = max(transit.n_routes - 2, 1)
    counts = sorted({int(round(x)) for x in np.linspace(0, max_removed, n_points)})
    estimator = NaturalConnectivityEstimator(transit.n_stops)
    values = []
    for r in counts:
        reduced = transit.without_routes(set(range(r)))
        values.append(estimator.estimate(reduced.adjacency()))
    diffs = np.diff(values)
    text = format_series(
        counts, values, "#removed routes", "natural connectivity",
        title=(
            f"Figure 1 [{city}]: connectivity vs removed routes — shape "
            f"target: monotone, near-linear decrease "
            f"(non-increasing steps: {(diffs <= 1e-3).sum()}/{len(diffs)})"
        ),
    )
    report(f"fig1_{city}", text)
    return counts, values


# ----------------------------------------------------------------------
# Figure 3 — non-submodularity of the connectivity increment
# ----------------------------------------------------------------------
def fig3_submodularity(
    city: str, sizes=(2, 5, 10, 15, 20, 30, 40, 50), samples: int = 12
) -> dict[int, dict[str, float]]:
    pre = get_precomputation(city)
    uni = pre.universe
    new_edges = np.flatnonzero(uni.is_new)
    rng = child_rng(7, f"fig3/{city}")
    out: dict[int, dict[str, float]] = {}
    rows = []
    for size in sizes:
        if size > len(new_edges):
            continue
        thetas = []
        for _ in range(samples):
            pick = rng.choice(new_edges, size=size, replace=False)
            pairs = [uni.edge(int(i)).pair for i in pick]
            o_lambda = pre.connectivity_gains([pairs])[0]
            linear = float(uni.delta[pick].sum())
            if linear > 0:
                thetas.append((o_lambda - linear) / linear)
        arr = np.asarray(thetas)
        out[size] = {
            "mean": float(arr.mean()),
            "q1": float(np.percentile(arr, 25)),
            "median": float(np.percentile(arr, 50)),
            "q3": float(np.percentile(arr, 75)),
        }
        rows.append([size, round(out[size]["q1"], 4), round(out[size]["median"], 4),
                     round(out[size]["q3"], 4), round(out[size]["mean"], 4)])
    text = format_table(
        ["#edges", "theta q1", "theta median", "theta q3", "theta mean"],
        rows,
        title=(
            f"Figure 3 [{city}]: theta = (O_lambda - sum Delta)/sum Delta — "
            f"shape targets: concentrated near 0 (linear approximation is "
            f"good) and increasingly positive with more edges "
            f"(non-submodular)"
        ),
    )
    report(f"fig3_{city}", text)
    return out


# ----------------------------------------------------------------------
# Figure 4 — top new edges by demand / connectivity increment
# ----------------------------------------------------------------------
def fig4_top_edges(city: str, top_n: int = 1000, points: int = 12) -> dict:
    pre = get_precomputation(city)
    uni = pre.universe
    new_mask = uni.is_new
    demand = np.sort(uni.demand[new_mask])[::-1][:top_n]
    delta = np.sort(uni.delta[new_mask])[::-1][:top_n]
    idx = sorted({int(round(x)) for x in np.linspace(0, len(demand) - 1, points)})
    result = {"demand": demand, "delta": delta}
    text = "\n\n".join([
        format_series(
            [i + 1 for i in idx], [float(demand[i]) for i in idx],
            "rank", "edge demand",
            title=(
                f"Figure 4a [{city}]: top new edges by demand — shape "
                f"target: steep head, long tail (a minority of edges "
                f"carries most demand)"
            ),
        ),
        format_series(
            [i + 1 for i in idx], [float(delta[i]) for i in idx],
            "rank", "connectivity increment",
            title=f"Figure 4b [{city}]: top new edges by Delta(e) — same shape",
        ),
    ])
    report(f"fig4_{city}", text)
    return result


# ----------------------------------------------------------------------
# Figure 6 — connectivity-first edges do not stitch into a route
# ----------------------------------------------------------------------
def fig6_connectivity_first(city: str, l_edges: int = 10) -> dict:
    pre = get_precomputation(city)
    cf = connectivity_first_route(pre, l_edges=l_edges, shortlist=40)
    smooth = run_method(pre, "eta-pre")
    rows = [
        ["#discrete edges chosen", l_edges, "-"],
        ["total connectivity increment", round(cf.total_increment, 4),
         round(smooth.o_lambda, 4)],
        ["chosen-edge km", round(cf.chosen_km, 2),
         round(smooth.route.length_km, 2) if smooth.route else "-"],
        ["connector km (wasted travel)", round(cf.connector_km, 2), 0.0],
        ["connector overhead (km per chosen km)",
         round(cf.connector_overhead, 2), 0.0],
        ["turns along stitched polyline", cf.turns,
         smooth.route.turns if smooth.route else "-"],
        ["mean pairwise spread of edges (km)", round(cf.spread_km, 2), "-"],
    ]
    text = format_table(
        ["quantity", "connectivity-first [22]", "CT-Bus (ETA-Pre)"],
        rows,
        title=(
            f"Figure 6 [{city}]: greedy discrete edges vs a planned route — "
            f"shape target: the greedy edges scatter (large spread, heavy "
            f"connector overhead, many turns) while CT-Bus yields a smooth "
            f"feasible route"
        ),
    )
    report(f"fig6_{city}", text)
    return {"connectivity_first": cf, "eta_pre": smooth}


# ----------------------------------------------------------------------
# Figures 7/8 — route visualization (ASCII raster)
# ----------------------------------------------------------------------
def _ascii_map(pre, route, width: int = 68, height: int = 24) -> str:
    coords = pre.universe.transit.stop_coords
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)

    def cell(pt):
        cx = int((pt[0] - lo[0]) / span[0] * (width - 1))
        cy = int((pt[1] - lo[1]) / span[1] * (height - 1))
        return (height - 1 - cy), cx

    grid = [[" "] * width for _ in range(height)]
    for s in range(len(coords)):
        r, c = cell(coords[s])
        grid[r][c] = "."
    if route is not None:
        for s in route.stops:
            r, c = cell(coords[s])
            grid[r][c] = "#"
        r, c = cell(coords[route.stops[0]])
        grid[r][c] = "S"
        r, c = cell(coords[route.stops[-1]])
        grid[r][c] = "E"
    return "\n".join("".join(row) for row in grid)


def fig7_route_maps(cities, w: float = 0.5) -> dict:
    results = {}
    blocks = []
    for city in cities:
        pre = get_precomputation(city)
        if w != pre.config.w:
            pre = rebind(pre, pre.config.variant(w=w))
        res = run_method(pre, "eta-pre")
        results[city] = res
        ev = evaluate_planned_route(pre, res.route) if res.route else None
        header = (
            f"Figure 7 [{city}] w={w}: planned route (# = route, S/E = "
            f"ends, . = other stops); stops={res.route.n_stops if res.route else 0}, "
            f"length={res.route.length_km:.2f}km, "
            f"crossed routes={ev.crossed_routes if ev else '-'}"
        )
        blocks.append(header + "\n" + _ascii_map(pre, res.route))
    text = "\n\n".join(blocks)
    report(f"fig7_w{w}", text)
    return results


def fig8_weight_extremes(city: str = "chicago") -> dict:
    pre = get_precomputation(city)
    results = {}
    rows = []
    for w in (1.0, 0.0):
        swept = rebind(pre, pre.config.variant(w=w))
        res = run_method(swept, "eta-pre")
        ev = evaluate_planned_route(swept, res.route) if res.route else None
        results[w] = (res, ev)
        rows.append([
            w,
            res.route.n_new_edges if res.route else "-",
            round(res.o_d, 1),
            round(res.o_lambda, 4),
            ev.crossed_routes if ev else "-",
        ])
    text = format_table(
        ["w", "#new edges", "O_d (raw)", "O_lambda (raw)", "#crossed routes"],
        rows,
        title=(
            f"Figure 8 [{city}]: w=1 (demand-only) vs w=0 (connectivity-"
            f"only) — shape target: w=0 crosses more existing routes, w=1 "
            f"collects more raw demand"
        ),
    )
    report(f"fig8_{city}", text)
    return results


# ----------------------------------------------------------------------
# Figure 9 — convergence of ETA vs ETA-Pre vs ETA-ALL
# ----------------------------------------------------------------------
def fig9_convergence(city: str) -> dict:
    pre = get_precomputation(city)
    capped = eta_capped(pre)
    runs = {
        "eta": run_method(capped, "eta"),
        "eta-pre": run_method(pre, "eta-pre"),
        "eta-all": run_method(capped, "eta-all"),
    }
    rows = []
    for name, res in runs.items():
        trace = res.trace
        probe = [trace[min(i, len(trace) - 1)] for i in (0, len(trace) // 2, len(trace) - 1)]
        rows.append([
            name,
            res.iterations,
            round(res.search_score, 4),
            round(res.objective, 4),
            round(res.runtime_s, 3),
            " -> ".join(f"{v:.3f}@{it}" for it, v in probe),
        ])
    text = format_table(
        ["method", "iterations", "search score", "objective (exact eval)",
         "runtime (s)", "trace (score@iter)"],
        rows,
        title=(
            f"Figure 9 [{city}]: convergence — shape targets: ETA-Pre "
            f"reaches a comparable-or-better objective than online ETA and "
            f"converges fastest; ETA-ALL (all seeds) is slowest to improve"
        ),
    )
    report(f"fig9_{city}", text)
    return runs


# ----------------------------------------------------------------------
# Figure 10 — increments vs k
# ----------------------------------------------------------------------
def fig10_k_increments(city: str, ks=(10, 20, 30, 40, 50, 60)) -> dict:
    pre = get_precomputation(city)
    outcomes = sweep_precomputation(
        pre, [Scenario(name=f"k={k}", overrides={"k": k}) for k in ks]
    )
    out = {}
    rows = []
    for k, outcome in zip(ks, outcomes):
        res = outcome.result
        w = outcome.precomputation.config.w
        out[k] = res
        rows.append([
            k,
            round(res.objective, 4),
            round(res.o_d_normalized * w, 4),
            round(res.o_lambda_normalized * (1 - w), 4),
            res.route.n_edges if res.route else 0,
        ])
    text = format_table(
        ["k", "objective", "weighted demand term", "weighted connectivity term",
         "#edges used"],
        rows,
        title=(
            f"Figure 10 [{city}]: increments vs k — shape target: objective "
            f"*decreases* with k because the Eq. 12 normalizers (top-k sums) "
            f"grow faster than the realized increments"
        ),
    )
    report(f"fig10_{city}", text)
    return out


# ----------------------------------------------------------------------
# Figure 11 — sensitivity to w (+ AN / DT mutations)
# ----------------------------------------------------------------------
def fig11_weight_sensitivity(city: str, weights=(0.3, 0.5, 0.7)) -> dict:
    pre = get_precomputation(city)
    out = {}
    rows = []
    variants = (
        ("eta-pre", {}),
        ("eta-an", {"expansion": "all"}),
        ("eta-dt", {"use_domination": False}),
    )
    keys = [(w, variant) for w in weights for variant, _ in variants]
    outcomes = sweep_precomputation(pre, [
        Scenario(name=f"w={w}:{variant}", overrides={"w": w, **overrides})
        for w in weights
        for variant, overrides in variants
    ])
    for (w, variant), outcome in zip(keys, outcomes):
        res = outcome.result
        out[(w, variant)] = res
        rows.append([
            w, variant, res.iterations, round(res.search_score, 4),
            round(res.runtime_s, 4), res.queue_pushes,
            res.pruned_by_domination,
        ])
    text = format_table(
        ["w", "variant", "iterations", "search score", "runtime (s)",
         "queue pushes", "pruned by DT"],
        rows,
        title=(
            f"Figure 11 [{city}]: w sensitivity with best-neighbor (eta-pre), "
            f"all-neighbors (eta-an), and no-domination (eta-dt) variants — "
            f"shape targets: all converge; AN pushes far more candidates; "
            f"DT pruning saves work at equal score"
        ),
    )
    report(f"fig11_{city}", text)
    return out


# ----------------------------------------------------------------------
# Figure 12 — sensitivity to k, Tn, sn
# ----------------------------------------------------------------------
def fig12_param_sensitivity(city: str) -> dict:
    pre = get_precomputation(city)
    out = {}
    rows = []
    sweeps = (
        [("k", k, {"k": k}) for k in (50, 80)]
        + [("Tn", tn, {"max_turns": tn}) for tn in (1, 3, 5)]
        + [("sn", sn, {"seed_count": sn}) for sn in (300, 1000, 3000)]
    )
    outcomes = sweep_precomputation(pre, [
        Scenario(name=f"{param}={value}", overrides=overrides)
        for param, value, overrides in sweeps
    ])
    for (param, value, _), outcome in zip(sweeps, outcomes):
        res = outcome.result
        out[(param, value)] = res
        rows.append([
            param, value, res.iterations, round(res.search_score, 4),
            round(res.objective, 4), round(res.runtime_s, 4),
        ])
    text = format_table(
        ["param", "value", "iterations", "search score", "objective",
         "runtime (s)"],
        rows,
        title=(
            f"Figure 12 [{city}]: k / Tn / sn sensitivity — shape targets: "
            f"convergence and runtime robust across settings; objective "
            f"decreases with k (normalizers), grows mildly with Tn"
        ),
    )
    report(f"fig12_{city}", text)
    return out
