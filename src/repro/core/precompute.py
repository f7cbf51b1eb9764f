"""Pre-computation stage (paper Section 6 and Table 4).

One pass over the dataset produces everything the planners share:

* the edge universe (existing + candidate new edges, with demand),
* the base natural connectivity ``lambda(G_r)`` — exact by default, from
  the dense spectrum up to the dense cutoff and from the probe-free
  unit-column quadrature above it — and the top eigenvalues,
* per-edge connectivity increments ``Delta(e)`` — by default from a
  block Lanczos run started at each edge's two stops (probe-free, within
  2e-10 of dense ``eigvalsh``), or, with ``increment_mode="hutchinson"``,
  from the paper's common-probe Lanczos + Hutchinson estimate (Sec. 5.1;
  the estimator's fixed ``s = 50`` probes, ``t = 10`` steps and probe
  seed 0), kept as the reference and the only mode that builds an
  estimator (it estimates ``lambda(G_r)`` too),
* the ranked lists ``L_d``, ``L_lambda``, ``L_e`` and the Eq. 12
  normalizers ``d_max``, ``lambda_max``,
* the Lemma 4 path-bound increment used as ETA's constant
  ``O^_lambda`` upper bound.

The work splits in two halves. The expensive one (universe,
``lambda(G_r)``, ``Delta(e)``) sees only the dataset and a
:class:`~repro.core.config.PrecomputeSpec`, the fields the cache key
hashes. The cheap one, :func:`_finalize`, is the only half that
reads ``k`` or ``w``: it sizes the top spectrum and derives the ranked
lists, normalizers and bounds. :func:`rebind` and
:meth:`Precomputation.load` re-run only the cheap half for a tweaked
config — e.g. a ``w`` or ``k`` sweep.

Every planner also shares two formulas, kept here and bound to a
:class:`Precomputation`: :func:`connectivity_gains`, the connectivity
term of ``Delta(e)``, of online extension scores and of the reported
``O_lambda``; and :func:`combine`, the objective of Eq. 3.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from typing import TypeVar

import numpy as np

from repro.core.bounds import RankedList
from repro.core.config import INCREMENT_HUTCHINSON, PlannerConfig, PrecomputeSpec
from repro.core.edges import EdgeUniverse, PlanEdge
from repro.core.seeding import build_edge_universe
from repro.data.datasets import Dataset
from repro.network.adjacency import AdjacencyBuilder
from repro.spectral.bounds import path_upper_bound_increment
from repro.spectral.connectivity import (
    NaturalConnectivityEstimator,
    natural_connectivity_from_spectrum,
    natural_connectivity_quadrature,
)
from repro.spectral.eigs import dense_spectrum, top_k_eigenvalues
from repro.spectral.gains import block_lanczos_gains
from repro.utils.errors import DataError
from repro.utils.fsio import atomic_write_text
from repro.utils.timing import Timer
from repro.utils.wire import from_wire

ARTIFACT_FORMAT = 5
"""On-disk artifact version (bump on incompatible layout *or semantics*
changes). v2: sketch-mode deltas honor ``config.n_probes``. v3: the
default ``increment_mode="exact"`` prices ``Delta(e)`` with the block
Lanczos kernel and takes ``lambda_base`` from the dense spectrum, where
v2 used Hutchinson estimates; the spec, and so the cache key, is
unchanged, so a v2 artifact must not be served for it. v4: the spec
lost ``n_probes``, ``lanczos_steps`` and ``seed`` (the estimator always
uses its defaults), so a v3 Hutchinson artifact saved with other values
would otherwise load as a match. v5: above the dense cutoff the exact
mode's ``lambda_base`` is the unit-column quadrature
(:func:`~repro.spectral.connectivity.natural_connectivity_quadrature`),
where v4 took the Hutchinson estimate; ``Delta(e)`` is priced against
it under an unchanged cache key, so a v4 artifact must not be served."""

_Score = TypeVar("_Score", float, np.ndarray)

@dataclass
class Precomputation:
    """Shared per-dataset state consumed by every planner."""

    universe: EdgeUniverse
    builder: AdjacencyBuilder
    estimator: "NaturalConnectivityEstimator | None"
    """The Hutchinson estimator; ``None`` in the exact mode, which reads
    no probes."""
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
    """Set when the spectrum this object was derived from was too short
    for its ``k`` and had to be recomputed: for a fresh :func:`precompute`
    above the dense cutoff, and for a :meth:`load` or :func:`rebind` at a
    larger ``k`` — a loaded artifact with it set is worth re-persisting."""

    @property
    def n_candidate_edges(self) -> int:
        return self.universe.n_new_edges

    def connectivity_gains(
        self, pair_groups: Sequence[Sequence[tuple[int, int]]]
    ) -> np.ndarray:
        """:func:`connectivity_gains` against this precomputation's ``G_r``,
        with the kernel of its ``increment_mode``."""
        return connectivity_gains(
            self.builder, self.estimator, self.lambda_base, pair_groups
        )

    def objective(self, o_d: _Score, o_lambda: _Score) -> _Score:
        """:func:`combine` with this precomputation's ``w`` and normalizers."""
        return combine(self.config.w, o_d, o_lambda, self.d_max, self.lambda_max)

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
        its :class:`~repro.core.config.PrecomputeSpec` — the cheap derived
        artifacts are re-derived for it, exactly like :func:`rebind`. A
        different or mistyped saved spec (``tau_km: "0.5"`` is not
        ``0.5``), or a dataset of the wrong shape, raises
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
        saved = from_wire(PrecomputeSpec, {
            f.name: meta["config"][f.name]
            for f in fields(PrecomputeSpec) if f.name in meta["config"]
        })
        if saved != config.spec:
            name = _first_difference(saved, config.spec)
            raise DataError(
                f"saved artifacts used {name}={getattr(saved, name)!r} but the "
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
        pre = _finalize(
            universe,
            builder,
            _estimator(saved, transit.n_stops),
            lambda_base,
            top_eigs,
            config,
            dict(meta.get("timings", {})),
        )
        pre.road = dataset.road
        return pre


def compute_edge_increments(
    universe: EdgeUniverse,
    builder: AdjacencyBuilder,
    estimator: "NaturalConnectivityEstimator | None",
    lambda_base: float,
) -> np.ndarray:
    """``Delta(e)`` for every universe edge (zero for existing edges).

    Each candidate edge is a one-pair group of one
    :func:`connectivity_gains` call.
    """
    deltas = np.zeros(len(universe), dtype=float)
    new_indices = [e.index for e in universe.edges if e.is_new]
    if new_indices:
        deltas[new_indices] = connectivity_gains(
            builder,
            estimator,
            lambda_base,
            [[universe.edge(i).pair] for i in new_indices],
        )
    return deltas


def connectivity_gains(
    builder: AdjacencyBuilder,
    estimator: "NaturalConnectivityEstimator | None",
    lambda_base: float,
    pair_groups: Sequence[Sequence[tuple[int, int]]],
) -> np.ndarray:
    """``max(lambda(G_r + group) - lambda_base, 0)`` for each group of stop pairs.

    The connectivity term of Eq. 3, wherever it is needed: ``Delta(e)``
    (one pair per group), the extensions of an expansion round and the
    reported route. A group is priced by its canonical novel-pair set
    (:meth:`~AdjacencyBuilder.novel_pairs`), once per call however many
    groups name it, so duplicate, reordered and flipped groups get
    bitwise-equal gains. An empty set gains 0 and is never priced.

    The kernel is chosen by ``estimator``, which only the
    ``increment_mode="hutchinson"`` precomputation builds
    (:func:`_estimator`). Without one (the default exact mode) the
    distinct sets go to one call of the block Lanczos kernel
    (:func:`~repro.spectral.gains.block_lanczos_gains`), each started at
    the stops it touches, against ``tr e^A = n e^{lambda_base}``; the
    kernel prices a set independently of the others in its call. With
    one, they go to the paper's estimator (Sec. 5.1): one
    :meth:`~NaturalConnectivityEstimator.estimate_batch` over the
    distinct sets, which agrees with one
    :meth:`~NaturalConnectivityEstimator.estimate` per set to
    floating-point roundoff.
    """
    keys = [tuple(builder.novel_pairs(group)) for group in pair_groups]
    distinct = [key for key in dict.fromkeys(keys) if key]
    if not distinct:
        return np.zeros(len(keys))
    if estimator is None:
        trace_base = builder.n * float(np.exp(lambda_base))
        values = block_lanczos_gains(builder.base(), distinct, trace_base)
    else:
        values = estimator.estimate_batch(builder.base(), distinct) - lambda_base
    # Adding edges never decreases natural connectivity; clamp noise.
    priced = dict(zip(distinct, np.maximum(values, 0.0)))
    return np.array([priced[key] if key else 0.0 for key in keys])


def combine(
    w: float, o_d: _Score, o_lambda: _Score, d_max: float, lambda_max: float
) -> _Score:
    """Eq. 3 under the Eq. 12 normalizers, on scalars or elementwise on arrays.

    ``w * O_d / d_max + (1 - w) * O_lambda / lambda_max``.
    """
    return w * o_d / d_max + (1.0 - w) * o_lambda / lambda_max


def _first_difference(a: PrecomputeSpec, b: PrecomputeSpec) -> str:
    """The first field in which two unequal specs differ (for errors)."""
    return next(f.name for f in fields(a) if getattr(a, f.name) != getattr(b, f.name))


def _estimator(
    spec: PrecomputeSpec, n: int
) -> "NaturalConnectivityEstimator | None":
    """The Hutchinson estimator, built only in the mode that reads it."""
    if spec.increment_mode == INCREMENT_HUTCHINSON:
        return NaturalConnectivityEstimator(n)
    return None


def _compute_artifacts(dataset: Dataset, spec: PrecomputeSpec) -> tuple:
    """The expensive half: universe, estimator, ``lambda(G_r)``, ``Delta(e)``.

    Reads nothing but ``dataset`` and ``spec``, the fields the cache key
    hashes, so its output is valid for every config with this spec.
    Returns ``(universe, builder, estimator, lambda_base, spectrum,
    timings)``. ``spectrum`` is the base adjacency's whole spectrum,
    descending, from one dense ``eigvalsh``; it is empty above the dense
    cutoff (:func:`~repro.spectral.eigs.dense_spectrum`). In the exact
    mode, which builds no estimator, ``lambda_base`` comes from that
    spectrum where it exists and from the unit-column quadrature
    (:func:`~repro.spectral.connectivity.natural_connectivity_quadrature`)
    above the cutoff. In the hutchinson mode it is the estimate from the
    estimator's fixed probes.
    """
    timings: dict[str, float] = {}

    with Timer() as t:
        universe = build_edge_universe(dataset, spec.tau_km)
    timings["candidate_edges_s"] = t.elapsed

    transit = dataset.transit
    builder = AdjacencyBuilder(transit.n_stops, transit.edge_list())
    estimator = _estimator(spec, transit.n_stops)

    with Timer() as t:
        spectrum = dense_spectrum(builder.base())
        if estimator is not None:
            lambda_base = estimator.estimate(builder.base())
        elif spectrum.size:
            lambda_base = natural_connectivity_from_spectrum(spectrum)
        else:
            lambda_base = natural_connectivity_quadrature(builder.base())
    timings["base_spectrum_s"] = t.elapsed

    with Timer() as t:
        deltas = compute_edge_increments(universe, builder, estimator, lambda_base)
        universe.set_deltas(deltas)
    timings["increments_s"] = t.elapsed
    return universe, builder, estimator, lambda_base, spectrum, timings


def _finalize(
    universe: EdgeUniverse,
    builder: AdjacencyBuilder,
    estimator: "NaturalConnectivityEstimator | None",
    lambda_base: float,
    top_eigs: np.ndarray,
    config: PlannerConfig,
    timings: dict[str, float],
) -> Precomputation:
    """The cheap half: the spectrum, ranked lists, normalizers and bounds.

    The only code in this module that reads ``k`` and ``w``. Lemma 3
    needs the top ``2k`` eigenvalues (Lemma 4's ``ceil(k/2)`` is a
    prefix of them); ``top_eigs`` is recomputed, and the result marked
    :attr:`~Precomputation.spectrum_widened`, when it holds fewer than
    that and fewer than the whole spectrum.
    """
    n_eigs = 2 * config.k
    widened = len(top_eigs) < min(n_eigs, universe.n_stops)
    if widened:
        top_eigs = top_k_eigenvalues(builder.base(), n_eigs)
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

    L_e = RankedList(
        combine(config.w, universe.demand, universe.delta, d_max, lambda_max)
    )

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
        spectrum_widened=widened,
    )


def precompute(dataset: Dataset, config: PlannerConfig) -> Precomputation:
    """Run the full pre-computation for ``dataset`` under ``config``."""
    universe, builder, estimator, lambda_base, spectrum, timings = (
        _compute_artifacts(dataset, config.spec)
    )
    # base_spectrum_s covers lambda_base and the top spectrum; the cheap
    # half computes the latter only above the dense cutoff.
    with Timer() as t:
        pre = _finalize(
            universe, builder, estimator, lambda_base,
            spectrum[: 2 * config.k], config, timings,
        )
    timings["base_spectrum_s"] += t.elapsed
    pre.road = dataset.road
    return pre


def rebind(pre: Precomputation, config: PlannerConfig) -> Precomputation:
    """Re-derive a precomputation for a tweaked config, reusing increments.

    Valid for any config with the same
    :class:`~repro.core.config.PrecomputeSpec`: a change to ``k``,
    ``w``, ``seed_count``, ``max_iterations``, ``expansion``,
    ``use_domination``, ``new_edges_only``, ``max_turns`` or trace
    granularity. A change to a spec field (``tau_km``,
    ``increment_mode``) changes the expensive artifacts themselves — the
    universe, ``Delta(e)``, ``lambda_base`` — so it raises
    :class:`ValueError` naming the field: run :func:`precompute` instead.
    """
    if config.spec != pre.config.spec:
        name = _first_difference(pre.config.spec, config.spec)
        raise ValueError(
            f"rebind cannot change {name} "
            f"({getattr(pre.config, name)!r} -> {getattr(config, name)!r}); "
            f"run precompute()"
        )
    rebound = _finalize(
        pre.universe,
        pre.builder,
        pre.estimator,
        pre.lambda_base,
        pre.top_eigenvalues,
        config,
        dict(pre.timings),
    )
    rebound.road = pre.road
    return rebound
