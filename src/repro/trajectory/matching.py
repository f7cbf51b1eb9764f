"""Map matching: project GPS-like point sequences onto the road network.

The paper assumes trajectories arrive map-matched ([41] in its
references). For completeness we provide a compact HMM-style matcher:
candidate road vertices per GPS point (emission cost = snap distance),
transitions priced by how much the road path between candidates detours
from the straight-line movement, solved with Viterbi dynamic
programming, and stitched with shortest paths.
"""

from __future__ import annotations

import math

import numpy as np

from repro.network.geometry import GridIndex, euclidean
from repro.network.road import RoadNetwork
from repro.network.shortest_path import PathForest, reconstruct_vertex_path
from repro.trajectory.trajectory import Trajectory
from repro.utils.errors import ValidationError


def map_match(
    road: RoadNetwork,
    points: "list[tuple[float, float]] | np.ndarray",
    search_radius: float = 0.3,
    max_candidates: int = 5,
    detour_weight: float = 1.0,
) -> Trajectory:
    """Match a GPS point sequence to a road-network trajectory.

    Parameters
    ----------
    road:
        The road network to match against.
    points:
        Ordered ``(x, y)`` samples in the same planar km frame.
    search_radius:
        Candidate snap radius per point (km).
    max_candidates:
        Candidates kept per point (nearest first).
    detour_weight:
        Relative weight of the transition (detour) cost versus the
        emission (snap distance) cost.

    Raises
    ------
    ValidationError
        If any point has no candidate within ``search_radius`` or no
        connected matching exists.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError(f"points must have shape (m, 2), got {pts.shape}")
    if len(pts) == 0:
        raise ValidationError("need at least one GPS point")

    index = GridIndex(road.coords, cell=max(search_radius, 1e-6))
    candidate_sets: list[list[int]] = []
    for p in pts:
        cands = index.within(p, search_radius)
        if not cands:
            raise ValidationError(
                f"no road vertex within {search_radius} km of point {tuple(p)}"
            )
        cands.sort(key=lambda v: euclidean(road.vertex_xy(v), p))
        candidate_sets.append(cands[:max_candidates])

    forest = PathForest(road.n_vertices, road.edge_list())
    lengths = road.edge_lengths()

    # Viterbi over candidate layers.
    costs = [euclidean(road.vertex_xy(v), pts[0]) for v in candidate_sets[0]]
    back: list[list[int]] = [[-1] * len(candidate_sets[0])]
    for layer in range(1, len(pts)):
        straight = euclidean(pts[layer - 1], pts[layer])
        prev_cands = candidate_sets[layer - 1]
        cur_cands = candidate_sets[layer]
        # One tree per previous candidate, pruned past a generous detour.
        limit = 10.0 * straight + 5.0 * search_radius
        road_dists = [dist for _, dist, _, _ in forest.trees(lengths, prev_cands, limit)]
        new_costs = [math.inf] * len(cur_cands)
        new_back = [-1] * len(cur_cands)
        for ci, cv in enumerate(cur_cands):
            emission = euclidean(road.vertex_xy(cv), pts[layer])
            for pi in range(len(prev_cands)):
                d = road_dists[pi][cv]
                if math.isinf(d):
                    continue
                detour = abs(d - straight)
                total = costs[pi] + emission + detour_weight * detour
                if total < new_costs[ci]:
                    new_costs[ci] = total
                    new_back[ci] = pi
        costs = new_costs
        back.append(new_back)
        if all(math.isinf(c) for c in costs):
            raise ValidationError(f"no connected matching through point {layer}")

    # Backtrack the best candidate chain.
    best = int(np.argmin(costs))
    chain = [best]
    for layer in range(len(pts) - 1, 0, -1):
        best = back[layer][best]
        chain.append(best)
    chain.reverse()
    matched = [candidate_sets[i][c] for i, c in enumerate(chain)]

    # Stitch consecutive matched vertices with shortest paths.
    full: list[int] = [matched[0]]
    for u, v in zip(matched, matched[1:]):
        if u == v:
            continue
        ((_, dist, pred_v, _),) = forest.trees(lengths, [u])
        if math.isinf(dist[v]):
            raise ValidationError(f"matched vertices {u} and {v} are disconnected")
        seg = reconstruct_vertex_path(pred_v, u, v)
        full.extend(seg[1:])
    return Trajectory.from_vertex_path(road, full)
