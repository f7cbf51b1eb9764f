"""Property tests for the precomputation cache key and artifact round-trip.

The cache-key contract (see :mod:`repro.sweep`): equal content hashes
equal; any demand/edge/weight perturbation changes the hash; search-side
config knobs do not participate; and ``Precomputation.load(save(p))``
restores every array bit-exactly.
"""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PlannerConfig, PrecomputeSpec
from repro.core.precompute import ARTIFACT_FORMAT, Precomputation, precompute
from repro.data.datasets import build_dataset, canned_city
from repro.data.synth import SynthConfig
from repro.network.road import RoadNetwork
from repro.sweep import (
    PrecomputationCache,
    cache_key,
    config_fingerprint,
    dataset_fingerprint,
)
from repro.utils.errors import DataError

MICRO = SynthConfig(
    name="cache-micro",
    grid_width=6,
    grid_height=5,
    n_hotspots=3,
    n_routes=3,
    route_min_km=0.6,
    n_trips=200,
    seed=7,
)


@pytest.fixture(scope="module")
def micro():
    return build_dataset(MICRO)


@pytest.fixture(scope="module")
def micro_config():
    return PlannerConfig(k=5, max_iterations=80, seed_count=60)


@pytest.fixture(scope="module")
def micro_pre(micro, micro_config):
    return precompute(micro, micro_config)


def keyed(config, i: int) -> PlannerConfig:
    """``config`` under the ``i``-th of a family of distinct cache keys.

    ``tau_km`` moves by ``i`` micrometres: a new precompute spec, and so a
    new key, with the same edge universe and artifact sizes.
    """
    return config.variant(tau_km=config.tau_km + i * 1e-6)


def _clone_with_road(dataset, road):
    return dataclasses.replace(dataset, road=road)


def _road_rebuilt(road, lengths=None):
    """Rebuild a road network from arrays (optionally with new lengths)."""
    edges = [road.edge_endpoints(e) for e in range(road.n_edges)]
    rebuilt = RoadNetwork.from_arrays(
        road.coords,
        edges,
        lengths=list(road.edge_lengths()) if lengths is None else lengths,
        travel_times=list(road.edge_travel_times()),
    )
    for e in range(road.n_edges):
        rebuilt.set_demand(e, road.edge_demand(e))
    return rebuilt


class TestKeyEquality:
    def test_equal_content_hashes_equal(self, micro):
        rebuilt = build_dataset(MICRO)
        assert dataset_fingerprint(micro) == dataset_fingerprint(rebuilt)

    def test_name_does_not_participate(self, micro):
        renamed = dataclasses.replace(micro, name="other-name")
        assert dataset_fingerprint(micro) == dataset_fingerprint(renamed)

    def test_rebuilt_road_same_hash(self, micro):
        clone = _clone_with_road(micro, _road_rebuilt(micro.road))
        assert dataset_fingerprint(micro) == dataset_fingerprint(clone)

    def test_equal_configs_hash_equal(self, micro_config):
        twin = PlannerConfig(k=5, max_iterations=80, seed_count=60)
        assert config_fingerprint(micro_config) == config_fingerprint(twin)

    def test_key_combines_both(self, micro, micro_config):
        assert cache_key(micro, micro_config) == cache_key(micro, micro_config)
        assert len(cache_key(micro, micro_config)) == 32


class TestKeySensitivity:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_demand_perturbation_changes_hash(self, micro, data):
        road = micro.road.copy()
        eid = data.draw(st.integers(0, road.n_edges - 1))
        bump = data.draw(st.floats(0.5, 100.0, allow_nan=False))
        road.set_demand(eid, road.edge_demand(eid) + bump)
        assert dataset_fingerprint(micro) != dataset_fingerprint(
            _clone_with_road(micro, road)
        )

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_edge_perturbation_changes_hash(self, micro, data):
        road = micro.road.copy()
        u = data.draw(st.integers(0, road.n_vertices - 1))
        v = data.draw(
            st.integers(0, road.n_vertices - 1).filter(
                lambda x: x != u and road.edge_between(u, x) is None
            )
        )
        road.add_edge(u, v)
        assert dataset_fingerprint(micro) != dataset_fingerprint(
            _clone_with_road(micro, road)
        )

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_weight_perturbation_changes_hash(self, micro, data):
        road = micro.road
        eid = data.draw(st.integers(0, road.n_edges - 1))
        scale = data.draw(st.floats(1.01, 3.0, allow_nan=False))
        lengths = list(road.edge_lengths())
        lengths[eid] *= scale
        clone = _clone_with_road(micro, _road_rebuilt(road, lengths=lengths))
        assert dataset_fingerprint(micro) != dataset_fingerprint(clone)

    @pytest.mark.parametrize(
        "overrides",
        [{"tau_km": 0.4}, {"increment_mode": "hutchinson"}, {"tau_km": 0.6},
         {"tau_km": 0.500001}, {"tau_km": 0.4, "increment_mode": "hutchinson"}],
    )
    def test_precompute_relevant_config_changes_key(
        self, micro, micro_config, overrides
    ):
        assert set(overrides) <= {
            f.name for f in dataclasses.fields(PrecomputeSpec)
        }
        changed = micro_config.variant(**overrides)
        assert cache_key(micro, micro_config) != cache_key(micro, changed)

    @pytest.mark.parametrize(
        "overrides",
        [{"k": 9}, {"w": 0.1}, {"seed_count": 33}, {"max_iterations": 999},
         {"expansion": "all"}, {"use_domination": False}],
    )
    def test_search_knobs_share_key(self, micro, micro_config, overrides):
        # The amortization contract: rebind-able knobs hit the same entry.
        changed = micro_config.variant(**overrides)
        assert cache_key(micro, micro_config) == cache_key(micro, changed)


class TestGoldenKey:
    """Pinned keys: existing cache directories stay warm across releases.

    A change to how the key is computed orphans every stored artifact;
    one that means to do so re-records these values and says why.
    """

    @pytest.fixture(scope="class")
    def chicago(self):
        return canned_city("chicago", "tiny")

    def test_default_config_key(self, chicago):
        assert cache_key(chicago, PlannerConfig()) == (
            "906a93cca2fb4e32fe1ff02958bea090"
        )

    def test_every_keyed_field_changed(self, chicago):
        config = PlannerConfig(tau_km=0.4, increment_mode="hutchinson")
        assert cache_key(chicago, config) == "c9bdcc9ffc08b1d9ae4fdf0893e98e0e"

    def test_search_knobs_keep_default_key(self, chicago):
        assert cache_key(chicago, PlannerConfig(k=7, w=0.2)) == (
            "906a93cca2fb4e32fe1ff02958bea090"
        )


class TestArtifactFormat:
    def test_format_2_entry_under_the_default_key_is_recomputed(self, tmp_path):
        """A format-2 entry, whose ``Delta(e)`` came from the Hutchinson
        estimator, found under the default key must be a miss,
        recomputed and replaced."""
        chicago = canned_city("chicago", "tiny")
        config = PlannerConfig()
        stale = precompute(chicago, config.variant(increment_mode="hutchinson"))
        stale.config = config
        cache = PrecomputationCache(str(tmp_path))
        key = cache.store(stale, chicago)
        assert key == "906a93cca2fb4e32fe1ff02958bea090"
        json_path = tmp_path / f"{key}.json"
        meta = json.loads(json_path.read_text())
        meta["format"] = 2
        json_path.write_text(json.dumps(meta))

        pre, hit = cache.fetch_or_compute(chicago, config)
        assert hit is False
        fresh = precompute(chicago, config)
        assert pre.universe.delta.tobytes() == fresh.universe.delta.tobytes()
        assert not np.array_equal(pre.universe.delta, stale.universe.delta)
        assert json.loads(json_path.read_text())["format"] == ARTIFACT_FORMAT == 5
        again, hit = cache.fetch_or_compute(chicago, config)
        assert hit is True
        assert again.universe.delta.tobytes() == fresh.universe.delta.tobytes()

    def test_format_3_artifact_is_refused(self, tmp_path):
        """A format-3 spec also held the probe count, Lanczos steps and
        probe seed, which this build no longer compares: an artifact
        saved with other probes must not load as a match."""
        chicago = canned_city("chicago", "tiny")
        config = PlannerConfig(increment_mode="hutchinson")
        prefix = str(tmp_path / "artifact")
        _, json_path = precompute(chicago, config).save(prefix)
        with open(json_path) as f:
            meta = json.load(f)
        meta["format"] = 3
        meta["config"].update(n_probes=20, lanczos_steps=6, seed=3)
        with open(json_path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(DataError, match="artifact format 3 != 5"):
            Precomputation.load(prefix, chicago, config)


class TestRoundTrip:
    def test_bit_exact_arrays(self, micro, micro_config, micro_pre, tmp_path):
        prefix = str(tmp_path / "artifact")
        micro_pre.save(prefix)
        loaded = Precomputation.load(prefix, micro, micro_config)

        for attr in ("demand", "length", "delta"):
            a = getattr(micro_pre.universe, attr)
            b = getattr(loaded.universe, attr)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert np.array_equal(micro_pre.universe.is_new, loaded.universe.is_new)
        assert np.array_equal(
            micro_pre.top_eigenvalues, loaded.top_eigenvalues
        )
        assert loaded.lambda_base == micro_pre.lambda_base

        for mine, theirs in zip(micro_pre.universe.edges, loaded.universe.edges):
            assert mine == theirs  # u, v, length, demand, road_path, flags

        # Cheap derived artifacts re-derive to identical values.
        assert loaded.d_max == micro_pre.d_max
        assert loaded.lambda_max == micro_pre.lambda_max
        assert loaded.path_bound_increment == micro_pre.path_bound_increment
        assert np.array_equal(loaded.L_e._values, micro_pre.L_e._values)

    def test_load_rederives_for_other_search_config(
        self, micro, micro_config, micro_pre, tmp_path
    ):
        prefix = str(tmp_path / "artifact")
        micro_pre.save(prefix)
        other = micro_config.variant(k=9, w=0.2)
        loaded = Precomputation.load(prefix, micro, other)
        assert loaded.config == other
        assert np.array_equal(loaded.universe.delta, micro_pre.universe.delta)
        assert loaded.d_max == loaded.L_d.top_sum(9)

    def test_load_rejects_precompute_mismatch(
        self, micro, micro_config, micro_pre, tmp_path
    ):
        prefix = str(tmp_path / "artifact")
        micro_pre.save(prefix)
        with pytest.raises(DataError):
            Precomputation.load(prefix, micro, keyed(micro_config, 99))

    def test_load_missing_artifacts(self, micro, micro_config, tmp_path):
        with pytest.raises(DataError):
            Precomputation.load(str(tmp_path / "nope"), micro, micro_config)


MISSING = object()


class TestSavedSpec:
    """A saved spec that is missing or mistyped never loads as a match."""

    @pytest.fixture(scope="class")
    def chicago_pre(self):
        chicago = canned_city("chicago", "tiny")
        return chicago, precompute(chicago, PlannerConfig())

    @pytest.mark.parametrize("name, value", [
        ("tau_km", MISSING),
        ("tau_km", "0.5"),
        ("increment_mode", None),
    ])
    def test_load_refuses_the_saved_field(
        self, chicago_pre, tmp_path, name, value
    ):
        chicago, pre = chicago_pre
        prefix = str(tmp_path / "artifact")
        _, json_path = pre.save(prefix)
        with open(json_path) as f:
            meta = json.load(f)
        if value is MISSING:
            del meta["config"][name]
        else:
            meta["config"][name] = value
        with open(json_path, "w") as f:
            json.dump(meta, f)
        with pytest.raises(DataError, match=name):
            Precomputation.load(prefix, chicago, pre.config)


class TestCacheStore:
    def test_fetch_or_compute_counts(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        pre1, hit1 = cache.fetch_or_compute(micro, micro_config)
        pre2, hit2 = cache.fetch_or_compute(micro, micro_config)
        assert (hit1, hit2) == (False, True)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.n_entries == 1
        assert np.array_equal(pre1.universe.delta, pre2.universe.delta)

    def test_numpy_scalar_config_round_trip(self, micro, micro_config, tmp_path):
        # Sweep axes are numpy values; such a config must key and save.
        config = micro_config.variant(
            k=np.int64(5), max_turns=np.int64(3), tau_km=np.float32(0.5)
        )
        cache = PrecomputationCache(str(tmp_path))
        assert cache.key_for(micro, config) == cache.key_for(micro, micro_config)
        _, hit = cache.fetch_or_compute(micro, config)
        assert hit is False and cache.n_entries == 1
        _, hit = cache.fetch_or_compute(micro, config)
        assert hit is True and cache.n_entries == 1

    def test_widened_spectrum_is_persisted(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        cache.fetch_or_compute(micro, micro_config)  # saves k=5's spectrum
        bigger = micro_config.variant(k=9)
        pre_a, hit_a = cache.fetch_or_compute(micro, bigger)
        assert hit_a is True and pre_a.spectrum_widened is False
        # The widened artifact was stored back: a fresh load needs no
        # eigen recompute.
        key = cache.key_for(micro, bigger)
        loaded = Precomputation.load(f"{tmp_path}/{key}", micro, bigger)
        assert loaded.spectrum_widened is False
        assert len(loaded.top_eigenvalues) >= len(pre_a.top_eigenvalues)

    def test_load_rejects_different_graph_same_stops(
        self, micro, micro_config, micro_pre, tmp_path
    ):
        import dataclasses as dc

        prefix = str(tmp_path / "artifact")
        micro_pre.save(prefix)
        other = dc.replace(
            micro, transit=micro.transit.without_routes({0})
        )
        with pytest.raises(DataError):
            Precomputation.load(prefix, other, micro_config)

    def test_corrupt_entry_is_a_miss(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        cache.fetch_or_compute(micro, micro_config)
        key = cache.key_for(micro, micro_config)
        with open(f"{tmp_path}/{key}.npz", "wb") as f:
            f.write(b"not an npz")
        pre, hit = cache.fetch_or_compute(micro, micro_config)
        assert hit is False
        assert pre is not None

    def test_widened_spectrum_hit_skips_eigen_recompute(
        self, micro, micro_config, tmp_path, monkeypatch
    ):
        """The re-persisted widened artifact makes later loads eigen-free.

        fetch_or_compute with a larger k widens the stored spectrum and
        stores the widened artifact back; a subsequent load of the same
        key must then reconstruct without ever calling
        ``top_k_eigenvalues`` again.
        """
        import sys

        # `import repro.core.precompute as m` would resolve to the
        # same-named *function* re-exported by repro.core.
        precompute_mod = sys.modules["repro.core.precompute"]

        cache = PrecomputationCache(str(tmp_path))
        cache.fetch_or_compute(micro, micro_config)  # k=5's spectrum
        bigger = micro_config.variant(k=9)
        cache.fetch_or_compute(micro, bigger)  # widens + re-persists

        def _boom(*args, **kwargs):
            raise AssertionError("spectrum recomputed despite re-persist")

        monkeypatch.setattr(precompute_mod, "top_k_eigenvalues", _boom)
        pre, hit = cache.fetch_or_compute(micro, bigger)
        assert hit is True
        assert pre.spectrum_widened is False

    def test_store_leaves_no_staging_files(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        cache.fetch_or_compute(micro, micro_config)
        cache.fetch_or_compute(micro, keyed(micro_config, 5))
        leftovers = [
            n for n in os.listdir(tmp_path)
            if not (n.endswith(".json") or n.endswith(".npz"))
        ]
        assert leftovers == []
        assert cache.n_entries == 2

    def test_concurrent_stores_same_key(self, micro, micro_config, tmp_path):
        """Same-key stores from two handles commit a readable entry.

        Regression for the mkstemp→unlink→reuse staging race: each store
        call must stage in its own private namespace.
        """
        a = PrecomputationCache(str(tmp_path))
        b = PrecomputationCache(str(tmp_path))
        pre = precompute(micro, micro_config)
        key_a = a.store(pre, micro)
        key_b = b.store(pre, micro)
        assert key_a == key_b
        assert a.n_entries == 1
        assert a.load(micro, micro_config) is not None


class TestEntriesAccounting:
    def test_foreign_json_not_counted(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        cache.fetch_or_compute(micro, micro_config)
        # A shared/dirty directory: stray configs, notes, tmp leftovers.
        (tmp_path / "notes.json").write_text("{}")
        (tmp_path / "deadbeef.json").write_text("{}")  # short, not a key
        (tmp_path / ("a" * 32 + ".tmp.json")).write_text("{}")
        assert cache.n_entries == 1

    def test_marker_without_npz_not_counted(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        cache.fetch_or_compute(micro, micro_config)
        orphan = "0" * 32
        (tmp_path / f"{orphan}.json").write_text("{}")
        assert cache.n_entries == 1
        assert [e.key for e in cache.entries()] != [orphan]

    def test_total_bytes_matches_files(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        cache.fetch_or_compute(micro, micro_config)
        key = cache.key_for(micro, micro_config)
        want = (
            os.path.getsize(tmp_path / f"{key}.json")
            + os.path.getsize(tmp_path / f"{key}.npz")
        )
        assert cache.total_bytes == want


class TestEviction:
    def _fill(self, cache, micro, micro_config, indices):
        """One committed entry per index, each under its own key."""
        keys = []
        for i in indices:
            cfg = keyed(micro_config, i)
            cache.fetch_or_compute(micro, cfg)
            key = cache.key_for(micro, cfg)
            # Spread mtimes so LRU order is deterministic on coarse
            # filesystem timestamps.
            os.utime(
                os.path.join(cache.directory, f"{key}.json"),
                (1_000_000 + i, 1_000_000 + i),
            )
            keys.append(key)
        return keys

    def test_max_entries_keeps_newest(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        keys = self._fill(cache, micro, micro_config, [1, 2, 3])
        evicted = cache.evict(max_entries=1)
        assert evicted == keys[:2]  # oldest first
        assert [e.key for e in cache.entries()] == [keys[2]]
        # Both files of each evicted pair are gone.
        for key in keys[:2]:
            assert not os.path.exists(tmp_path / f"{key}.json")
            assert not os.path.exists(tmp_path / f"{key}.npz")

    def test_max_bytes_budget(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        self._fill(cache, micro, micro_config, [1, 2, 3])
        per_entry = cache.total_bytes // 3
        evicted = cache.evict(max_bytes=2 * per_entry + per_entry // 2)
        assert len(evicted) == 1
        assert cache.n_entries == 2
        assert cache.total_bytes <= 2 * per_entry + per_entry // 2

    def test_no_budgets_is_noop(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        self._fill(cache, micro, micro_config, [1])
        assert cache.evict() == []
        assert cache.n_entries == 1

    def test_zero_entries_evicts_all(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        self._fill(cache, micro, micro_config, [1, 2])
        assert len(cache.evict(max_entries=0)) == 2
        assert cache.n_entries == 0

    def test_hit_refreshes_lru_position(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        keys = self._fill(cache, micro, micro_config, [1, 2])
        # Touch the older entry via a hit: it must now outlive the newer.
        cache.fetch_or_compute(micro, keyed(micro_config, 1))
        evicted = cache.evict(max_entries=1)
        assert evicted == [keys[1]]
        assert [e.key for e in cache.entries()] == [keys[0]]

    def test_foreign_files_survive_eviction(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        self._fill(cache, micro, micro_config, [1])
        (tmp_path / "notes.json").write_text("{}")
        cache.evict(max_entries=0)
        cache.clear()
        assert (tmp_path / "notes.json").exists()

    def test_clear(self, micro, micro_config, tmp_path):
        cache = PrecomputationCache(str(tmp_path))
        self._fill(cache, micro, micro_config, [1, 2])
        assert cache.clear() == 2
        assert cache.n_entries == 0
        assert cache.clear() == 0


class TestStandingBudget:
    """Write-triggered eviction: budgets given to the constructor are
    re-applied by every ``store`` (the carried-over ROADMAP item), so a
    long-lived daemon's disk tier stays bounded without a janitor."""

    def _fill(self, cache, micro, micro_config, indices):
        keys = []
        for i in indices:
            cfg = keyed(micro_config, i)
            cache.fetch_or_compute(micro, cfg)
            key = cache.key_for(micro, cfg)
            os.utime(
                os.path.join(cache.directory, f"{key}.json"),
                (1_000_000 + i, 1_000_000 + i),
            )
            keys.append(key)
        return keys

    def test_store_evicts_past_standing_entry_budget(
        self, micro, micro_config, tmp_path
    ):
        cache = PrecomputationCache(str(tmp_path), max_entries=2)
        keys = self._fill(cache, micro, micro_config, [1, 2])
        assert cache.n_entries == 2
        # The third store pushes past the budget: the oldest entry goes,
        # the just-committed one (freshest mtime) stays.
        cache.fetch_or_compute(micro, keyed(micro_config, 3))
        assert cache.n_entries == 2
        kept = {e.key for e in cache.entries()}
        assert keys[0] not in kept
        assert keys[1] in kept
        assert cache.key_for(micro, keyed(micro_config, 3)) in kept

    def test_store_evicts_past_standing_byte_budget(
        self, micro, micro_config, tmp_path
    ):
        probe = PrecomputationCache(str(tmp_path / "probe"))
        self._fill(probe, micro, micro_config, [1])
        per_entry = probe.total_bytes

        cache = PrecomputationCache(
            str(tmp_path / "bounded"),
            max_bytes=2 * per_entry + per_entry // 2,
        )
        self._fill(cache, micro, micro_config, [1, 2, 3])
        assert cache.n_entries == 2
        assert cache.total_bytes <= cache.max_bytes

    def test_no_standing_budget_never_evicts_on_store(
        self, micro, micro_config, tmp_path
    ):
        cache = PrecomputationCache(str(tmp_path))
        assert cache.max_bytes is None and cache.max_entries is None
        self._fill(cache, micro, micro_config, [1, 2, 3])
        assert cache.n_entries == 3

    def test_direct_store_applies_budget_too(
        self, micro, micro_config, tmp_path
    ):
        # store() itself (not just fetch_or_compute's miss path) evicts.
        cache = PrecomputationCache(str(tmp_path), max_entries=1)
        self._fill(cache, micro, micro_config, [1])
        pre = precompute(micro, keyed(micro_config, 2))
        key = cache.store(pre, micro)
        assert [e.key for e in cache.entries()] == [key]

    def test_hit_protects_entry_from_standing_eviction(
        self, micro, micro_config, tmp_path
    ):
        cache = PrecomputationCache(str(tmp_path), max_entries=2)
        keys = self._fill(cache, micro, micro_config, [1, 2])
        # A hit touches entry 1's marker, so entry 2 is now the LRU one
        # and the next store evicts it instead.
        cache.fetch_or_compute(micro, keyed(micro_config, 1))
        cache.fetch_or_compute(micro, keyed(micro_config, 3))
        kept = {e.key for e in cache.entries()}
        assert keys[0] in kept
        assert keys[1] not in kept


class TestEvictStoreRace:
    """Eviction racing a concurrent ``store`` (ISSUE 4 satellite).

    ``store`` commits npz first, json (the marker) last, and ``evict``
    deletes json first, npz last — so at any interleaving a pair can be
    half-committed on disk. The contract: a half-committed pair neither
    counts as an entry nor crashes eviction, and eviction never touches
    the files a mid-flight store is about to commit over.
    """

    def _committed(self, cache, micro, micro_config, i=1):
        cfg = keyed(micro_config, i)
        cache.fetch_or_compute(micro, cfg)
        return cache.key_for(micro, cfg)

    def test_npz_without_marker_is_invisible_and_survives(
        self, micro, micro_config, tmp_path
    ):
        # The mid-store state: npz renamed into place, json not yet.
        cache = PrecomputationCache(str(tmp_path))
        key = self._committed(cache, micro, micro_config)
        staged = "f" * 32
        os.rename(tmp_path / f"{key}.npz", tmp_path / f"{staged}.npz")
        os.unlink(tmp_path / f"{key}.json")
        assert cache.n_entries == 0
        assert cache.evict(max_entries=0) == []
        # The in-flight entry's npz is still there for the racing store
        # to commit its marker over.
        assert (tmp_path / f"{staged}.npz").exists()

    def test_marker_without_npz_is_invisible_to_evict(
        self, micro, micro_config, tmp_path
    ):
        # The mid-evict state seen by a concurrent reader: json deleted
        # first leaves npz; the inverse (a torn pair with only json)
        # must likewise neither count nor crash.
        cache = PrecomputationCache(str(tmp_path))
        self._committed(cache, micro, micro_config)
        orphan = "0" * 32
        (tmp_path / f"{orphan}.json").write_text("{}")
        assert cache.n_entries == 1
        evicted = cache.evict(max_entries=0)
        assert orphan not in evicted
        assert (tmp_path / f"{orphan}.json").exists()

    def test_entry_vanishing_mid_eviction_does_not_crash(
        self, micro, micro_config, tmp_path, monkeypatch
    ):
        # Another process evicts the same pair between this process's
        # listing and its unlinks: deletion must stay best-effort.
        cache = PrecomputationCache(str(tmp_path))
        key = self._committed(cache, micro, micro_config)
        stale = cache.entries()
        assert [e.key for e in stale] == [key]
        os.unlink(tmp_path / f"{key}.json")
        os.unlink(tmp_path / f"{key}.npz")
        monkeypatch.setattr(cache, "entries", lambda: list(stale))
        assert cache.evict(max_entries=0) == [key]
        assert cache.clear() == 1  # same tolerance on the clear path

    def test_store_completing_after_evict_recommits(
        self, micro, micro_config, tmp_path
    ):
        # Full interleaving: store stages, evict(0) runs, store commits.
        # The freshly-committed pair must be a fully readable entry.
        cache = PrecomputationCache(str(tmp_path))
        pre = precompute(micro, micro_config)
        self._committed(cache, micro, micro_config, i=9)
        cache.evict(max_entries=0)
        key = cache.store(pre, micro)
        assert [e.key for e in cache.entries()] == [key]
        assert cache.load(micro, micro_config) is not None
