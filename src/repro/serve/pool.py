"""In-memory artifact pool: the hot tier above the disk cache.

A long-lived ``repro serve`` daemon answers many small what-if queries
against the same few cities. The expensive part of each query is the
:class:`~repro.core.precompute.Precomputation`; the disk cache already
avoids recomputing it, but a cold process still pays npz
deserialization plus spectrum/ranked-list reconstruction per request.
:class:`ArtifactPool` keeps whole ``Precomputation`` objects resident
in memory so a warm request skips both.

Tiering (fast to slow):

1. **pool** — the artifact object is already in memory; reused as-is
   (or cheaply :func:`~repro.core.precompute.rebind`-ed when the
   request's search-side knobs differ).
2. **disk** — :class:`~repro.sweep.cache.PrecomputationCache` had the
   npz pair; loaded once, then promoted into the pool.
3. **computed** — nothing anywhere; :func:`precompute` runs, the disk
   cache (when attached) persists it, and the pool keeps it hot.

Pool entries are keyed by the *same* content hash as the disk cache
(:func:`~repro.sweep.cache.combine_fingerprints` over the dataset and
config fingerprints), so the two tiers can never disagree about
identity. Eviction is LRU by last use against a byte budget, mirroring
the disk cache's policy; byte sizes come from
:func:`precomputation_nbytes`, a deliberate estimate of the resident
arrays rather than a deep ``sys.getsizeof`` walk.

Thread-safety: all bookkeeping lives in one boxed record
(:class:`~repro.utils.guarded.Guarded`), but the slow work — dataset
fingerprinting, npz loads, and ``precompute`` itself — runs outside
its regions, so a cold request never blocks ``stats()`` or another
key's pool hit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.config import PlannerConfig
from repro.core.precompute import Precomputation, precompute, rebind
from repro.data.datasets import Dataset
from repro.sweep.cache import (
    combine_fingerprints,
    config_fingerprint,
    dataset_fingerprint,
)
from repro.utils.errors import PlanningError
from repro.utils.guarded import Guarded

DEFAULT_POOL_BYTES = 512 * 1024 * 1024
"""Default pool budget (512 MiB) — a handful of city-scale artifacts."""

TIER_POOL = "pool"
TIER_DISK = "disk"
TIER_COMPUTED = "computed"

_FP_MEMO_MAX = 32
"""Dataset-fingerprint memo entries kept before a full reset."""

_EDGE_OVERHEAD_BYTES = 96
"""Per-edge object overhead estimate (PlanEdge fields + tuple header)."""


def precomputation_nbytes(pre: Precomputation) -> int:
    """Estimated resident size of ``pre``'s expensive artifacts.

    Counts the dense per-edge arrays, the spectrum, the hutchinson
    mode's ``(n, n_probes)`` probe block (the exact mode holds none), and
    a per-edge overhead for the ``PlanEdge`` objects and their road paths
    — the state that actually scales with city size. Cheap derived
    objects (ranked lists, normalizers) are a small constant factor on
    top and are deliberately ignored: the pool budget is a sizing knob,
    not an accounting ledger.
    """
    uni = pre.universe
    n_bytes = (
        int(uni.length.nbytes)
        + int(uni.demand.nbytes)
        + int(uni.is_new.nbytes)
        + int(uni.delta.nbytes)
        + int(pre.top_eigenvalues.nbytes)
    )
    if pre.estimator is not None:
        n_bytes += int(pre.estimator.probes.nbytes)
    for edge in uni.edges:
        n_bytes += _EDGE_OVERHEAD_BYTES + 8 * len(edge.road_path)
    return n_bytes


class _PoolEntry:
    __slots__ = ("pre", "n_bytes")

    def __init__(self, pre: Precomputation, n_bytes: int):
        self.pre = pre
        self.n_bytes = n_bytes


@dataclass
class _PoolState:
    """Everything an :class:`ArtifactPool` changes after construction."""

    entries: "OrderedDict[str, _PoolEntry]" = field(
        default_factory=OrderedDict
    )
    n_bytes: int = 0
    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    # Dataset fingerprinting re-hashes every array the precompute
    # reads — far too slow per request. Memoize by object identity,
    # holding a strong reference so a recycled id() can never alias
    # a different dataset (the stored object is compared with `is`).
    fp_memo: "dict[int, tuple[Dataset, str]]" = field(default_factory=dict)


class ArtifactPool:
    """Byte-budget LRU pool of in-memory precomputation artifacts.

    Duck-types the cache interface :class:`~repro.core.planner.CTBusPlanner`
    and :func:`~repro.sweep.runner.execute_scenario` expect
    (``fetch_or_compute(dataset, config) -> (pre, was_hit)``), so the
    serving layer can hand the pool to the exact same planning code path
    the CLI uses — parity with ``repro plan`` is structural, not tested
    into existence.
    """

    def __init__(self, disk_cache=None, max_bytes: int = DEFAULT_POOL_BYTES):
        max_bytes = int(max_bytes)
        if max_bytes < 1:
            raise PlanningError(
                f"pool byte budget must be >= 1, got {max_bytes}"
            )
        self.disk_cache = disk_cache
        self.max_bytes = max_bytes
        self._state: Guarded[_PoolState] = Guarded(_PoolState())

    # ------------------------------------------------------------------
    def _dataset_fp(self, dataset: Dataset) -> str:
        with self._state as state:
            memo = state.fp_memo.get(id(dataset))
            if memo is not None and memo[0] is dataset:
                return memo[1]
        fp = dataset_fingerprint(dataset)  # slow: outside the region
        with self._state as state:
            if len(state.fp_memo) >= _FP_MEMO_MAX:
                state.fp_memo.clear()
            state.fp_memo[id(dataset)] = (dataset, fp)
        return fp

    def key_for(self, dataset: Dataset, config: PlannerConfig) -> str:
        """The artifact key — identical to the disk cache's key."""
        return combine_fingerprints(
            self._dataset_fp(dataset), config_fingerprint(config)
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _for_config(pre: Precomputation, config: PlannerConfig) -> Precomputation:
        """``pre`` adapted to ``config`` — same object when configs match,
        a cheap rebind otherwise (same key ⇒ rebind is always legal)."""
        if pre.config == config:
            return pre
        return rebind(pre, config)

    def fetch(
        self, dataset: Dataset, config: PlannerConfig
    ) -> tuple[Precomputation, str]:
        """``(precomputation, tier)`` for the request, promoting upward.

        ``tier`` is where the artifact was found: ``"pool"``, ``"disk"``,
        or ``"computed"``. Misses populate the pool (and, for computed
        artifacts with a disk cache attached, the disk tier too — via
        ``fetch_or_compute``'s own store).
        """
        key = self.key_for(dataset, config)
        with self._state as state:
            entry = state.entries.get(key)
            if entry is not None:
                state.entries.move_to_end(key)
                state.hits += 1
            else:
                state.misses += 1
        if entry is not None:
            return self._for_config(entry.pre, config), TIER_POOL

        # Slow path, outside the region: disk load or full precompute.
        if self.disk_cache is not None:
            pre, was_hit = self.disk_cache.fetch_or_compute(dataset, config)
            tier = TIER_DISK if was_hit else TIER_COMPUTED
        else:
            pre = precompute(dataset, config)
            tier = TIER_COMPUTED
        pre = self._insert(key, pre, tier)
        return self._for_config(pre, config), tier

    def fetch_or_compute(
        self, dataset: Dataset, config: PlannerConfig
    ) -> tuple[Precomputation, bool]:
        """Planner-compatible facade: ``was_hit`` is True unless the
        artifact had to be computed from scratch."""
        pre, tier = self.fetch(dataset, config)
        return pre, tier != TIER_COMPUTED

    def _insert(self, key: str, pre: Precomputation, tier: str) -> Precomputation:
        # Sized (it walks the edges) and wrapped outside the region.
        fresh = _PoolEntry(pre, precomputation_nbytes(pre))
        with self._state as state:
            if tier == TIER_DISK:
                state.disk_hits += 1
            incumbent = state.entries.get(key)
            if incumbent is not None:
                # Two cold requests raced on one key; keep the incumbent
                # so concurrent callers converge on one shared object.
                state.entries.move_to_end(key)
                return incumbent.pre
            state.entries[key] = fresh
            state.n_bytes += fresh.n_bytes
            # Drop LRU entries until the budget holds. Always keep the
            # newest entry: a single artifact larger than the budget
            # stays resident (the hot city works; the budget just
            # can't hold two).
            while state.n_bytes > self.max_bytes and len(state.entries) > 1:
                _, evicted = state.entries.popitem(last=False)
                state.n_bytes -= evicted.n_bytes
                state.evictions += 1
        return pre

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready pool counters for ``/stats``."""
        with self._state as state:
            return {
                "entries": len(state.entries),
                "bytes": state.n_bytes,
                "max_bytes": self.max_bytes,
                "hits": state.hits,
                "misses": state.misses,
                "disk_hits": state.disk_hits,
                "evictions": state.evictions,
                "hit_rate": state.hits / max(state.hits + state.misses, 1),
            }
