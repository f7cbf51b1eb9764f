"""Persistent precomputation cache keyed by content hashes.

The cache key is ``sha256(dataset fingerprint || config fingerprint)``:

* the **dataset fingerprint** hashes every array that feeds the
  pre-computation — road coordinates, edges, lengths, travel times, and
  demand counts; transit stop coordinates, road affiliations, edges,
  edge lengths, edge road paths, and route stop sequences. Any
  perturbation of demand, graph structure, or edge weights therefore
  changes the key. Dataset *names* are deliberately excluded: two
  builds with identical content share artifacts.
* the **config fingerprint** hashes the wire form of the config's
  :class:`~repro.core.config.PrecomputeSpec`, the only config input of
  precompute's expensive half. Search-side knobs (``k``, ``w``,
  ``seed_count``, ...) are not in it, so a whole parameter sweep hits
  one warm entry.

Artifacts live flat in the cache directory as ``<key>.npz`` +
``<key>.json`` (see :meth:`repro.core.precompute.Precomputation.save`).
Writes stage both files in a per-call private temp directory, then
rename into place npz first and json last, so the json file doubles as
a commit marker and concurrent workers racing on the same key are safe.

Entries are no longer immortal: :meth:`PrecomputationCache.evict`
applies an LRU-by-mtime policy (``max_entries`` and/or ``max_bytes``
budgets; cache hits touch the commit marker so recently used entries
survive), standing budgets passed to the constructor make every
:meth:`PrecomputationCache.store` re-apply that policy automatically,
and :meth:`PrecomputationCache.clear` empties the store.
Only committed pairs — a ``<32-hex-key>.json`` with its matching
``.npz`` — count as entries; foreign files in a shared directory are
ignored and never deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.core.config import PlannerConfig
from repro.core.precompute import Precomputation, precompute
from repro.data.datasets import Dataset
from repro.utils.wire import to_wire

KEY_LENGTH = 32
"""Hex characters kept from the sha256 digest (128 bits)."""

_KEY_RE = re.compile(rf"^[0-9a-f]{{{KEY_LENGTH}}}$")
"""What a committed artifact stem looks like (filters foreign files)."""


@dataclass(frozen=True)
class CacheEntry:
    """One committed artifact pair on disk."""

    key: str
    n_bytes: int
    """Combined size of the npz + json pair."""
    mtime: float
    """Last-use time (commit markers are touched on cache hits)."""


def _update_with_array(h, label: str, values) -> None:
    """Feed ``label`` + dtype + shape + raw bytes of ``values`` into ``h``."""
    arr = np.ascontiguousarray(values)
    h.update(label.encode())
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())


def _update_with_ragged(h, label: str, sequences) -> None:
    """Hash a list of int sequences as (flat values, offsets)."""
    lengths = [len(s) for s in sequences]
    flat = [int(x) for s in sequences for x in s]
    _update_with_array(h, f"{label}.lengths", np.asarray(lengths, dtype=np.int64))
    _update_with_array(h, f"{label}.flat", np.asarray(flat, dtype=np.int64))


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash of everything the pre-computation reads from ``dataset``."""
    h = hashlib.sha256()
    road = dataset.road
    _update_with_array(h, "road.coords", road.coords)
    _update_with_array(
        h, "road.edges", np.asarray(road.edge_list(), dtype=np.int64).reshape(-1, 2)
    )
    _update_with_array(h, "road.lengths", road.edge_lengths())
    _update_with_array(h, "road.times", road.edge_travel_times())
    _update_with_array(h, "road.demand", road.demand_counts())

    transit = dataset.transit
    _update_with_array(h, "transit.coords", transit.stop_coords)
    _update_with_array(
        h,
        "transit.road_vertex",
        np.asarray(
            [transit.stop_road_vertex(s) for s in range(transit.n_stops)],
            dtype=np.int64,
        ),
    )
    _update_with_array(
        h, "transit.edges", np.asarray(transit.edge_list(), dtype=np.int64).reshape(-1, 2)
    )
    _update_with_array(
        h,
        "transit.edge_lengths",
        np.asarray(
            [transit.edge_length(e) for e in range(transit.n_edges)], dtype=float
        ),
    )
    _update_with_ragged(
        h,
        "transit.road_paths",
        [transit.edge_road_path(e) for e in range(transit.n_edges)],
    )
    _update_with_ragged(h, "transit.routes", [r.stops for r in transit.routes])
    return h.hexdigest()


def config_fingerprint(config: PlannerConfig) -> str:
    """Content hash of the config's precompute spec alone."""
    blob = json.dumps(to_wire(config.spec), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def combine_fingerprints(dataset_fp: str, config_fp: str) -> str:
    """The artifact key for an already-fingerprinted ``(dataset, config)``.

    Split out of :func:`cache_key` so callers that memoize fingerprints
    (e.g. the stream layer keying many scenarios against one dataset)
    can derive keys without re-hashing the dataset arrays.
    """
    h = hashlib.sha256()
    h.update(dataset_fp.encode())
    h.update(b"|")
    h.update(config_fp.encode())
    return h.hexdigest()[:KEY_LENGTH]


def cache_key(dataset: Dataset, config: PlannerConfig) -> str:
    """The artifact key for ``(dataset, config)``."""
    return combine_fingerprints(
        dataset_fingerprint(dataset), config_fingerprint(config)
    )


class PrecomputationCache:
    """Filesystem-backed precomputation store with hit/miss accounting.

    Safe to share one directory across processes and successive CLI
    invocations: entry contents are immutable once committed, writes are
    atomic renames, and a corrupt/partial entry is treated as a miss.
    Storage is bounded on demand via :meth:`evict` (LRU by last use —
    hits touch the commit marker) and :meth:`clear`, or continuously by
    constructing with standing ``max_bytes``/``max_entries`` budgets,
    which every :meth:`store` re-applies after committing.
    """

    def __init__(
        self,
        directory: str,
        max_bytes: "int | None" = None,
        max_entries: "int | None" = None,
    ):
        # The directory is created lazily on first store(), so read-only
        # access (stats, entries, eviction) never mkdirs a typo'd path.
        self.directory = str(directory)
        # Standing budgets: when set, every store() ends with an evict()
        # pass, so the store stays bounded without an external janitor.
        # None (the default) preserves the evict-on-demand behaviour.
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.max_entries = None if max_entries is None else int(max_entries)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key_for(self, dataset: Dataset, config: PlannerConfig) -> str:
        return cache_key(dataset, config)

    def _prefix(self, key: str) -> str:
        return os.path.join(self.directory, key)

    def contains(self, key: str) -> bool:
        prefix = self._prefix(key)
        return os.path.exists(f"{prefix}.json") and os.path.exists(f"{prefix}.npz")

    def entries(self) -> list[CacheEntry]:
        """Committed artifact pairs, oldest-used first (the LRU order).

        Only ``<32-hex-key>.json`` files with a matching ``.npz`` count:
        tmp staging files, foreign json files in a shared directory, and
        torn pairs are all excluded.
        """
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        found = []
        for name in names:
            stem, ext = os.path.splitext(name)
            if ext != ".json" or not _KEY_RE.fullmatch(stem):
                continue
            try:
                marker = os.stat(os.path.join(self.directory, name))
                npz = os.stat(os.path.join(self.directory, f"{stem}.npz"))
            except OSError:
                continue  # uncommitted, torn, or concurrently evicted
            found.append(
                CacheEntry(
                    key=stem,
                    n_bytes=marker.st_size + npz.st_size,
                    mtime=marker.st_mtime,
                )
            )
        return sorted(found, key=lambda e: (e.mtime, e.key))

    @property
    def n_entries(self) -> int:
        """Committed entries on disk (json commit markers with their npz)."""
        return len(self.entries())

    @property
    def total_bytes(self) -> int:
        """Combined on-disk size of all committed entries."""
        return sum(e.n_bytes for e in self.entries())

    # ------------------------------------------------------------------
    def load(self, dataset: Dataset, config: PlannerConfig) -> "Precomputation | None":
        """The cached precomputation for ``(dataset, config)``, or ``None``.

        Does not touch the hit/miss counters; use :meth:`fetch_or_compute`
        for accounted access.
        """
        return self._load_entry(self.key_for(dataset, config), dataset, config)

    def _load_entry(
        self, key: str, dataset: Dataset, config: PlannerConfig
    ) -> "Precomputation | None":
        if not self.contains(key):
            return None
        try:
            return Precomputation.load(self._prefix(key), dataset, config)
        except Exception:
            return None  # corrupt or stale-format entry: recompute

    def store(self, pre: Precomputation, dataset: Dataset) -> str:
        """Persist ``pre`` under its content key; returns the key."""
        key = self.key_for(dataset, pre.config)
        os.makedirs(self.directory, exist_ok=True)
        # A per-call private staging directory: mkdtemp never reuses a
        # live name, so concurrent processes storing the same key cannot
        # collide on their temp files (the old mkstemp→unlink→reuse
        # pattern could). The leading dot also keeps it out of entries().
        tmp_dir = tempfile.mkdtemp(prefix=f".tmp-{key}-", dir=self.directory)
        tmp_prefix = os.path.join(tmp_dir, "artifact")
        try:
            pre.save(tmp_prefix)
            # npz first, json (the commit marker) last.
            os.replace(f"{tmp_prefix}.npz", f"{self._prefix(key)}.npz")
            os.replace(f"{tmp_prefix}.json", f"{self._prefix(key)}.json")
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)
        if self.max_bytes is not None or self.max_entries is not None:
            # Write-triggered eviction: the entry just committed carries
            # the freshest mtime, so under LRU it is the last to go —
            # a store into a full cache evicts older entries, not itself
            # (unless it alone exceeds the byte budget).
            self.evict(max_entries=self.max_entries, max_bytes=self.max_bytes)
        return key

    def fetch_or_compute(
        self, dataset: Dataset, config: PlannerConfig
    ) -> tuple[Precomputation, bool]:
        """``(precomputation, was_hit)`` — loading, or computing + storing."""
        key = self.key_for(dataset, config)
        pre = self._load_entry(key, dataset, config)
        if pre is not None:
            self.hits += 1
            if pre.spectrum_widened:
                # A larger k forced a spectrum recompute on load; persist
                # the widened artifact so later loads skip it.
                self.store(pre, dataset)
                pre.spectrum_widened = False
            else:
                self._touch(key)
            return pre, True
        self.misses += 1
        pre = precompute(dataset, config)
        self.store(pre, dataset)
        return pre, False

    # ------------------------------------------------------------------
    # Eviction (LRU by commit-marker mtime)
    # ------------------------------------------------------------------
    def _touch(self, key: str) -> None:
        """Mark ``key`` as recently used (best-effort)."""
        try:
            os.utime(f"{self._prefix(key)}.json")
        except OSError:
            pass

    def _remove_entry(self, key: str) -> None:
        """Delete one pair — json (the commit marker) first, then npz, so
        a concurrent reader never sees a marker without its arrays."""
        for suffix in (".json", ".npz"):
            try:
                os.unlink(f"{self._prefix(key)}{suffix}")
            except OSError:
                pass

    def evict(
        self,
        max_entries: "int | None" = None,
        max_bytes: "int | None" = None,
    ) -> list[str]:
        """Delete least-recently-used entries until both budgets hold.

        ``max_entries`` caps the entry count, ``max_bytes`` the combined
        artifact size; either may be ``None`` (unbounded). With both
        ``None`` this is a no-op. Returns the evicted keys, oldest first.
        """
        if max_entries is None and max_bytes is None:
            return []
        keep = self.entries()  # oldest first
        evicted: list[CacheEntry] = []
        # One O(n) pass up front; each eviction then adjusts the running
        # totals instead of re-summing the survivors (the old closure
        # recomputed sum(e.n_bytes ...) per loop iteration — O(n^2)).
        kept_bytes = sum(e.n_bytes for e in keep)
        entry_budget = None if max_entries is None else max(int(max_entries), 0)
        byte_budget = None if max_bytes is None else max(int(max_bytes), 0)

        def over_budget() -> bool:
            if entry_budget is not None and len(keep) > entry_budget:
                return True
            if byte_budget is not None and kept_bytes > byte_budget:
                return True
            return False

        while keep and over_budget():
            entry = keep.pop(0)
            kept_bytes -= entry.n_bytes
            evicted.append(entry)
        for entry in evicted:
            self._remove_entry(entry.key)
        return [e.key for e in evicted]

    def clear(self) -> int:
        """Delete every committed entry; returns how many were removed."""
        keys = [e.key for e in self.entries()]
        for key in keys:
            self._remove_entry(key)
        return len(keys)

    def __repr__(self) -> str:
        return (
            f"PrecomputationCache({self.directory!r}, entries={self.n_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )
