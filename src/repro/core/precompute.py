"""Pre-computation stage (paper Section 6 and Table 4).

One pass over the dataset produces everything the planners share:

* the edge universe (existing + candidate new edges, with demand),
* the base natural connectivity ``lambda(G_r)`` and top eigenvalues,
* per-edge connectivity increments ``Delta(e)`` — exact (one common-probe
  Lanczos estimate per candidate edge) or sketched (one ``e^A`` sketch
  prices all edges, the perturbation fast path),
* the ranked lists ``L_d``, ``L_lambda``, ``L_e`` and the Eq. 12
  normalizers ``d_max``, ``lambda_max``,
* the Lemma 4 path-bound increment used as ETA's constant
  ``O^_lambda`` upper bound.

:func:`rebind` re-derives the cheap artifacts (ranked lists,
normalizers, bounds) for a tweaked config — e.g. a ``w`` or ``k`` sweep —
without repeating the expensive per-edge increment estimation.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.bounds import RankedList
from repro.core.config import PlannerConfig
from repro.core.edges import EdgeUniverse, PlanEdge
from repro.core.seeding import build_edge_universe
from repro.data.datasets import Dataset
from repro.network.adjacency import AdjacencyBuilder
from repro.spectral.bounds import path_upper_bound_increment
from repro.spectral.connectivity import NaturalConnectivityEstimator
from repro.spectral.eigs import top_k_eigenvalues
from repro.spectral.sketch import ExpmSketch
from repro.utils.errors import DataError
from repro.utils.fsio import atomic_write_text
from repro.utils.timing import Timer

ARTIFACT_FORMAT = 2
"""On-disk artifact version (bump on incompatible layout *or semantics*
changes; v2: sketch-mode deltas honor ``config.n_probes``, so v1 sketch
artifacts no longer match what ``precompute()`` would produce)."""

PRECOMPUTE_CONFIG_FIELDS = (
    "tau_km", "increment_mode", "batch_eval", "n_probes", "lanczos_steps",
    "seed",
)
"""Config fields that determine the expensive artifacts.

Everything else (``k``, ``w``, ``seed_count``, traversal knobs, ...)
only affects the cheap derived state that :func:`rebind` re-creates, so
saved artifacts are shared across those sweeps. ``batch_eval`` is keyed
because the batched and sequential increment paths agree only to
floating-point roundoff, not bitwise — sharing artifacts across the
switch would make the differential oracle compare a mixture.
"""

REBIND_CONFIG_FIELDS = ("k", "w")
"""Config fields this module reads that are *deliberately* outside the
cache key: they only shape the cheap derived state (ranked lists,
normalizers, bounds) that :func:`rebind`/:meth:`Precomputation.load`
re-derive per config, so cached artifacts stay valid across ``k``/``w``
sweeps. ``repro check`` (rule RPR002) audits that every config field
read here is declared either precompute-relevant (above, cache-keyed)
or rebind-healed (this tuple) — an undeclared read is the PR 2
``n_probes`` bug class."""


@dataclass
class Precomputation:
    """Shared per-dataset state consumed by every planner."""

    universe: EdgeUniverse
    builder: AdjacencyBuilder
    estimator: NaturalConnectivityEstimator
    lambda_base: float
    top_eigenvalues: np.ndarray
    L_d: RankedList
    L_lambda: RankedList
    L_e: RankedList
    d_max: float
    lambda_max: float
    path_bound_increment: float
    config: PlannerConfig
    timings: dict[str, float] = field(default_factory=dict)
    road: object = None
    """The dataset's road network (used by baselines for stitching)."""
    spectrum_widened: bool = False
    """Set by :meth:`load` when the saved spectrum was too short for the
    requested ``k`` and had to be recomputed — a signal to re-persist."""

    @property
    def n_candidate_edges(self) -> int:
        return self.universe.n_new_edges

    # ------------------------------------------------------------------
    # Persistence (npz + json artifact pair)
    # ------------------------------------------------------------------
    def save(self, prefix: str) -> tuple[str, str]:
        """Write the expensive artifacts to ``<prefix>.npz`` + ``<prefix>.json``.

        Only state that is costly to recompute is persisted: the edge
        universe (including its shortest-road-path pricing), the per-edge
        connectivity increments ``Delta(e)``, the base connectivity, and
        the top eigenvalues. The builder/estimator and the cheap derived
        artifacts (ranked lists, normalizers, bounds) are reconstructed
        by :meth:`load` from the dataset and config.

        Returns the ``(npz_path, json_path)`` pair that was written.
        """
        uni = self.universe
        road_paths = [e.road_path for e in uni.edges]
        offsets = np.zeros(len(road_paths) + 1, dtype=np.int64)
        if road_paths:
            offsets[1:] = np.cumsum([len(p) for p in road_paths])
        flat = (
            np.concatenate([np.asarray(p, dtype=np.int64) for p in road_paths])
            if offsets[-1] > 0
            else np.zeros(0, dtype=np.int64)
        )
        npz_path = f"{prefix}.npz"
        json_path = f"{prefix}.json"
        np.savez(
            npz_path,
            edge_u=np.asarray([e.u for e in uni.edges], dtype=np.int64),
            edge_v=np.asarray([e.v for e in uni.edges], dtype=np.int64),
            edge_length=uni.length,
            edge_demand=uni.demand,
            edge_is_new=uni.is_new,
            edge_transit_eid=np.asarray(
                [e.transit_eid for e in uni.edges], dtype=np.int64
            ),
            road_path_flat=flat,
            road_path_offsets=offsets,
            delta=uni.delta,
            top_eigenvalues=np.asarray(self.top_eigenvalues, dtype=float),
            lambda_base=np.float64(self.lambda_base),
        )
        meta = {
            "format": ARTIFACT_FORMAT,
            "n_stops": uni.n_stops,
            "n_edges": len(uni),
            "config": asdict(self.config),
            "timings": self.timings,
        }
        # Atomic: the json half is the artifact pair's validity marker —
        # a torn one would make Precomputation.load reject (or worse,
        # mis-validate) an otherwise good npz.
        atomic_write_text(
            json_path, json.dumps(meta, indent=1, sort_keys=True)
        )
        return npz_path, json_path

    @classmethod
    def load(
        cls, prefix: str, dataset: Dataset, config: PlannerConfig
    ) -> "Precomputation":
        """Rebuild a precomputation from :meth:`save` artifacts.

        ``config`` may differ from the saved config in any field outside
        :data:`PRECOMPUTE_CONFIG_FIELDS` — the cheap derived artifacts are
        re-derived for it, exactly like :func:`rebind`. A mismatch in a
        precompute-relevant field (or a dataset of the wrong shape) raises
        :class:`DataError`: the artifacts would be silently wrong.
        """
        json_path = f"{prefix}.json"
        npz_path = f"{prefix}.npz"
        if not (os.path.exists(json_path) and os.path.exists(npz_path)):
            raise DataError(f"no precomputation artifacts at {prefix!r}")
        with open(json_path) as f:
            meta = json.load(f)
        if meta.get("format") != ARTIFACT_FORMAT:
            raise DataError(
                f"artifact format {meta.get('format')!r} != {ARTIFACT_FORMAT}"
            )
        saved_cfg = meta["config"]
        for name in PRECOMPUTE_CONFIG_FIELDS:
            if saved_cfg.get(name) != getattr(config, name):
                raise DataError(
                    f"saved artifacts used {name}={saved_cfg.get(name)!r} but the "
                    f"requested config has {name}={getattr(config, name)!r}; "
                    f"run precompute()"
                )
        transit = dataset.transit
        if transit.n_stops != meta["n_stops"]:
            raise DataError(
                f"dataset has {transit.n_stops} stops but artifacts were saved "
                f"for {meta['n_stops']}"
            )

        with np.load(npz_path) as arrays:
            edge_u = arrays["edge_u"]
            edge_v = arrays["edge_v"]
            length = arrays["edge_length"]
            demand = arrays["edge_demand"]
            is_new = arrays["edge_is_new"]
            transit_eid = arrays["edge_transit_eid"]
            flat = arrays["road_path_flat"]
            offsets = arrays["road_path_offsets"]
            delta = arrays["delta"]
            top_eigs = arrays["top_eigenvalues"]
            lambda_base = float(arrays["lambda_base"])
        if len(edge_u) != meta["n_edges"]:
            raise DataError("artifact npz/json disagree on universe size")

        edges = [
            PlanEdge(
                index=i,
                u=int(edge_u[i]),
                v=int(edge_v[i]),
                length=float(length[i]),
                demand=float(demand[i]),
                is_new=bool(is_new[i]),
                transit_eid=int(transit_eid[i]),
                road_path=tuple(
                    int(x) for x in flat[offsets[i]:offsets[i + 1]]
                ),
            )
            for i in range(len(edge_u))
        ]
        # Structural guard: the artifact's existing-edge slice must mirror
        # the dataset's transit edges, or every downstream number is built
        # on a different graph. (Demand/coordinate drift is the cache
        # key's job — this catches the worst raw-API misuse cheaply.)
        existing = [e for e in edges if not e.is_new]
        if len(existing) != transit.n_edges:
            raise DataError(
                f"dataset has {transit.n_edges} transit edges but artifacts "
                f"were saved for {len(existing)}"
            )
        for e in existing:
            u, v = transit.edge_endpoints(e.transit_eid)
            if {e.u, e.v} != {u, v}:
                raise DataError(
                    "artifact transit edges do not match the dataset; "
                    "these artifacts belong to a different graph"
                )
        universe = EdgeUniverse(transit, edges)
        universe.set_deltas(delta)

        builder = AdjacencyBuilder(transit.n_stops, transit.edge_list())
        estimator = NaturalConnectivityEstimator(
            transit.n_stops,
            n_probes=config.n_probes,
            lanczos_steps=config.lanczos_steps,
            seed=config.seed,
        )
        n_eigs = max(2 * config.k, (config.k + 1) // 2, 1)
        widened = False
        if len(top_eigs) < min(n_eigs, universe.n_stops):
            top_eigs = top_k_eigenvalues(builder.base(), n_eigs)
            widened = True
        timings = dict(meta.get("timings", {}))
        pre = _finalize(
            universe, builder, estimator, lambda_base, top_eigs, config, timings
        )
        pre.road = dataset.road
        pre.spectrum_widened = widened
        return pre


def compute_edge_increments(
    universe: EdgeUniverse,
    builder: AdjacencyBuilder,
    estimator: NaturalConnectivityEstimator,
    lambda_base: float,
    mode: str = "exact",
    sketch_probes: int = 256,
    seed: int = 0,
    batch: bool = False,
) -> np.ndarray:
    """``Delta(e)`` for every universe edge (zero for existing edges).

    ``mode="exact"`` re-estimates ``lambda(G_r + e)`` per candidate edge
    with common probes; ``mode="sketch"`` prices all edges from one
    low-rank ``e^A`` sketch (first-order perturbation). ``batch=True``
    runs the exact mode through the batched kernel (one shared Lanczos
    recurrence per chunk of candidate edges) — same estimator, same
    probes, agreeing with the sequential loop to floating-point roundoff.
    """
    deltas = np.zeros(len(universe), dtype=float)
    new_indices = [e.index for e in universe.edges if e.is_new]
    if not new_indices:
        return deltas
    if mode == "sketch":
        sketch = ExpmSketch(builder.base(), n_probes=sketch_probes, seed=seed)
        pairs = np.asarray([universe.edge(i).pair for i in new_indices], dtype=int)
        deltas[new_indices] = sketch.delta_lambda_many(pairs)
        return deltas
    if mode != "exact":
        raise ValueError(f"unknown increment mode {mode!r}")
    if batch:
        groups = [
            builder.novel_pairs([universe.edge(i).pair]) for i in new_indices
        ]
        values = estimator.estimate_batch(builder.base(), groups) - lambda_base
        # Adding an edge never decreases natural connectivity; clamp noise.
        deltas[new_indices] = np.maximum(values, 0.0)
        return deltas
    for i in new_indices:
        pair = universe.edge(i).pair
        value = estimator.estimate(builder.extended([pair])) - lambda_base
        # Adding an edge never decreases natural connectivity; clamp noise.
        deltas[i] = max(value, 0.0)
    return deltas


def _finalize(
    universe: EdgeUniverse,
    builder: AdjacencyBuilder,
    estimator: NaturalConnectivityEstimator,
    lambda_base: float,
    top_eigs: np.ndarray,
    config: PlannerConfig,
    timings: dict[str, float],
) -> Precomputation:
    """Derive ranked lists, normalizers, and bounds from computed state."""
    L_d = RankedList(universe.demand)
    L_lambda = RankedList(universe.delta)
    d_max = L_d.top_sum(config.k)
    lambda_max = L_lambda.top_sum(config.k)
    path_bound_inc = path_upper_bound_increment(
        lambda_base, top_eigs, universe.n_stops, config.k
    )
    # Degenerate-normalizer guards: an all-zero dimension must not divide
    # by zero (e.g. no demand data, or no candidate new edges).
    if d_max <= 0:
        d_max = 1.0
    if lambda_max <= 0:
        lambda_max = path_bound_inc if path_bound_inc > 0 else 1.0

    combined = (
        config.w * universe.demand / d_max
        + (1.0 - config.w) * universe.delta / lambda_max
    )
    L_e = RankedList(combined)

    return Precomputation(
        universe=universe,
        builder=builder,
        estimator=estimator,
        lambda_base=lambda_base,
        top_eigenvalues=top_eigs,
        L_d=L_d,
        L_lambda=L_lambda,
        L_e=L_e,
        d_max=d_max,
        lambda_max=lambda_max,
        path_bound_increment=path_bound_inc,
        config=config,
        timings=timings,
    )


def precompute(dataset: Dataset, config: PlannerConfig) -> Precomputation:
    """Run the full pre-computation for ``dataset`` under ``config``."""
    timings: dict[str, float] = {}

    with Timer() as t:
        universe = build_edge_universe(dataset, config.tau_km)
    timings["candidate_edges_s"] = t.elapsed

    transit = dataset.transit
    builder = AdjacencyBuilder(transit.n_stops, transit.edge_list())
    estimator = NaturalConnectivityEstimator(
        transit.n_stops,
        n_probes=config.n_probes,
        lanczos_steps=config.lanczos_steps,
        seed=config.seed,
    )

    with Timer() as t:
        lambda_base = estimator.estimate(builder.base())
        n_eigs = max(2 * config.k, (config.k + 1) // 2, 1)
        top_eigs = top_k_eigenvalues(builder.base(), n_eigs)
    timings["base_spectrum_s"] = t.elapsed

    with Timer() as t:
        deltas = compute_edge_increments(
            universe,
            builder,
            estimator,
            lambda_base,
            mode=config.increment_mode,
            sketch_probes=config.n_probes,
            seed=config.seed,
            batch=config.batch_eval,
        )
        universe.set_deltas(deltas)
    timings["increments_s"] = t.elapsed

    pre = _finalize(universe, builder, estimator, lambda_base, top_eigs, config, timings)
    pre.road = dataset.road
    return pre


def rebind(pre: Precomputation, config: PlannerConfig) -> Precomputation:
    """Re-derive a precomputation for a tweaked config, reusing increments.

    Valid for changes to any field outside
    :data:`PRECOMPUTE_CONFIG_FIELDS`: ``k``, ``w``, ``seed_count``,
    ``max_iterations``, ``expansion``, ``use_domination``,
    ``new_edges_only``, ``max_turns``, and trace granularity. A change to
    a field in that tuple (``tau_km``, ``increment_mode``,
    ``batch_eval``, ``n_probes``, ``lanczos_steps``, ``seed``) changes
    the expensive artifacts themselves — the universe, the estimator,
    ``Delta(e)``, ``lambda_base`` — so it raises :class:`ValueError`
    naming the field: run :func:`precompute` instead.
    """
    for name in PRECOMPUTE_CONFIG_FIELDS:
        if getattr(config, name) != getattr(pre.config, name):
            raise ValueError(
                f"rebind cannot change {name} "
                f"({getattr(pre.config, name)!r} -> "
                f"{getattr(config, name)!r}); run precompute()"
            )
    top_eigs = pre.top_eigenvalues
    n_eigs = max(2 * config.k, (config.k + 1) // 2, 1)
    if len(top_eigs) < min(n_eigs, pre.universe.n_stops):
        top_eigs = top_k_eigenvalues(pre.builder.base(), n_eigs)
    rebound = _finalize(
        pre.universe,
        pre.builder,
        pre.estimator,
        pre.lambda_base,
        top_eigs,
        config,
        dict(pre.timings),
    )
    rebound.road = pre.road
    return rebound
