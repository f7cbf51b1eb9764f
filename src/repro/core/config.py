"""Planner configuration (the paper's tunable parameters).

Defaults follow the paper's experimental setup (Section 7.1.4):
``k = 30``, ``w = 0.5``, ``tau = 0.5 km``, ``Tn = 3``, ``sn = 5000``.
The Hutchinson estimator's ``s = 50`` probes, ``t = 10`` Lanczos steps
and probe seed 0 are its constants
(:class:`~repro.spectral.connectivity.NaturalConnectivityEstimator`),
not planner knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.utils.validation import require, require_in_range, require_positive
from repro.utils.wire import Record

EXPANSION_BEST = "best"
"""Expand with the best begin/end neighbor only (Alg. 1 as written)."""

EXPANSION_ALL = "all"
"""Enqueue every neighbor extension (the ETA-AN variant)."""

INCREMENT_EXACT = "exact"
"""Price connectivity gains with the probe-free block Lanczos kernel."""

INCREMENT_HUTCHINSON = "hutchinson"
"""Price connectivity gains with the paper's Lanczos + Hutchinson
estimator (Sec. 5.1), kept as the reference."""


@dataclass(frozen=True)
class PrecomputeSpec(Record):
    """The config fields that determine the expensive precompute artifacts.

    The edge universe, the hutchinson mode's estimator, ``lambda(G_r)``
    and ``Delta(e)`` are computed from a dataset and this spec alone,
    and the cache key hashes exactly these fields. Everything else in
    :class:`PlannerConfig` (``k``, ``w``, ``seed_count``, traversal
    knobs, ...) only shapes the cheap derived state that
    :func:`~repro.core.precompute.rebind` re-creates, so one artifact
    serves a whole ``k``/``w`` sweep.
    """

    tau_km: float
    increment_mode: str


@dataclass(frozen=True)
class PlannerConfig(Record):
    """All knobs of the CT-Bus planners.

    Attributes
    ----------
    k:
        Maximum number of edges in the planned route.
    w:
        Demand-vs-connectivity weight in ``[0, 1]``; ``w = 1`` is the
        demand-first baseline, ``w = 0`` connectivity-only.
    tau_km:
        Maximum straight-line stop distance for a *new* edge (paper 0.5).
    max_turns:
        Turn budget ``Tn``.
    seed_count:
        Selective-seeding size ``sn``: how many top-``L_e`` edges seed the
        queue (``None`` = all edges, the ETA-ALL variant).
    max_iterations:
        Expansion-iteration cap ``it_max``.
    expansion:
        ``"best"`` (Alg. 1) or ``"all"`` (ETA-AN).
    queue_discipline:
        ``"bound"`` — priority queue ordered by the objective upper
        bound (Alg. 1); ``"fifo"`` — breadth-first scanning, the
        classical expansion framework [58] that ETA-ALL emulates.
    use_domination:
        Keep the domination table (disable for the ETA-DT ablation).
    new_edges_only:
        Restrict seeding/expansion to new edges (the vk-TSP baseline).
    increment_mode:
        How every connectivity gain (``Delta(e)``, online extension
        scores, the reported ``O_lambda``) is priced. ``"exact"``: a
        block Lanczos run from the stops a path adds, within 2e-10 of
        dense ``eigvalsh`` (:mod:`repro.spectral.gains`), with no probes.
        ``"hutchinson"``: the paper's common-probe Lanczos + Hutchinson
        estimate with its fixed ``s = 50`` probes and ``t = 10`` steps,
        kept as the reference. ``lambda(G_r)`` is exact in the exact mode
        at every size and that estimate in the hutchinson mode.
    allow_loop:
        Permit the final edge to close a one-way loop (paper footnote 4).
    record_every:
        Convergence-trace granularity in iterations.
    """

    k: int = 30
    w: float = 0.5
    tau_km: float = 0.5
    max_turns: int = 3
    seed_count: "int | None" = 5000
    max_iterations: int = 2000
    expansion: str = EXPANSION_BEST
    queue_discipline: str = "bound"
    use_domination: bool = True
    new_edges_only: bool = False
    increment_mode: str = INCREMENT_EXACT
    allow_loop: bool = True
    record_every: int = 100

    def __post_init__(self) -> None:
        super().__post_init__()
        require(self.k >= 1, f"k must be >= 1, got {self.k}")
        require_in_range(self.w, 0.0, 1.0, "w")
        require_positive(self.tau_km, "tau_km")
        require(self.max_turns >= 0, f"max_turns must be >= 0, got {self.max_turns}")
        require(self.max_iterations >= 1, "max_iterations must be >= 1")
        require(
            self.expansion in (EXPANSION_BEST, EXPANSION_ALL),
            f"expansion must be 'best' or 'all', got {self.expansion!r}",
        )
        require(
            self.increment_mode in (INCREMENT_EXACT, INCREMENT_HUTCHINSON),
            f"increment_mode must be {INCREMENT_EXACT!r} or "
            f"{INCREMENT_HUTCHINSON!r}, got {self.increment_mode!r}",
        )
        require(
            self.queue_discipline in ("bound", "fifo"),
            f"queue_discipline must be 'bound' or 'fifo', got {self.queue_discipline!r}",
        )
        if self.seed_count is not None:
            require(self.seed_count >= 1, "seed_count must be >= 1 or None")
        require_positive(self.record_every, "record_every")

    @property
    def spec(self) -> PrecomputeSpec:
        """The fields of this config that key the expensive precompute."""
        return PrecomputeSpec(
            **{f.name: getattr(self, f.name) for f in fields(PrecomputeSpec)}
        )

    def variant(self, **overrides) -> "PlannerConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)
