"""Tests for the benchmark trajectory harness and snapshot schema."""

import json

import pytest

from repro.bench.gate import compare_snapshots, load_snapshot
from repro.bench.trajectory import (
    AREAS,
    BENCH_PROFILES,
    BENCH_SCHEMA_VERSION,
    SUITES,
    run_area,
    snapshot_path,
    write_snapshot,
)
from repro.utils.errors import DataError


class TestValidation:
    def test_unknown_area_raises(self):
        with pytest.raises(DataError, match="unknown bench area"):
            run_area("warp-drive")

    def test_unknown_profile_raises(self):
        with pytest.raises(DataError, match="unknown bench profile"):
            run_area("cache", "galactic")

    def test_bad_repeat_and_warmup_raise(self):
        with pytest.raises(DataError, match="repeat"):
            run_area("cache", repeat=0)
        with pytest.raises(DataError, match="warmup"):
            run_area("cache", warmup=-1)

    def test_every_area_has_probes(self):
        assert set(SUITES) == set(AREAS)
        for area in AREAS:
            assert SUITES[area], f"area {area} has no probes"

    def test_profiles_are_sane(self):
        for name, (dataset_profile, warmup, repeat) in BENCH_PROFILES.items():
            assert warmup >= 0 and repeat >= 1, name
            assert dataset_profile in ("tiny", "bench")


class TestHarness:
    def test_warmup_and_repeat_counts(self, monkeypatch):
        calls = []

        def fake_probe(dataset_profile):
            calls.append(dataset_profile)
            # Timings decrease across calls; aux value varies.
            return {"wall_s": 1.0 / len(calls), "value": float(len(calls))}

        monkeypatch.setitem(SUITES, "cache", (("fake.probe", fake_probe),))
        snapshot = run_area("cache", "tiny", repeat=3, warmup=2)
        assert calls == ["tiny"] * 5  # 2 warmups + 3 timed runs
        probe = snapshot["probes"]["fake.probe"]
        assert len(probe["runs"]) == 3  # warmups are discarded
        # Timings aggregate by min; everything else by median.
        assert probe["metrics"]["wall_s"] == pytest.approx(1.0 / 5)
        assert probe["metrics"]["value"] == pytest.approx(4.0)
        assert snapshot["metrics"]["fake.probe.wall_s"] == pytest.approx(1.0 / 5)

    def test_snapshot_provenance_fields(self, monkeypatch):
        monkeypatch.setitem(
            SUITES, "cache", (("fake.probe", lambda p: {"wall_s": 1.0}),)
        )
        snapshot = run_area("cache", "tiny", repeat=1, warmup=0)
        assert snapshot["schema"] == BENCH_SCHEMA_VERSION
        assert snapshot["area"] == "cache"
        assert snapshot["suite_profile"] == "tiny"
        assert snapshot["dataset_profile"] == "tiny"
        assert snapshot["repeat"] == 1 and snapshot["warmup"] == 0
        assert snapshot["created"]  # ISO-8601 UTC stamp
        assert set(snapshot["machine"]) == {
            "platform", "python", "cpu_count", "numpy",
        }
        # In this repo the rev resolves; the field may be None elsewhere.
        assert snapshot["git_rev"] is None or len(snapshot["git_rev"]) >= 7
        assert snapshot["peak_rss_kb"] is None or snapshot["peak_rss_kb"] > 0

    def test_write_and_reload_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            SUITES, "cache",
            (("fake.probe", lambda p: {"wall_s": 0.5, "rate": 1.0}),),
        )
        snapshot = run_area("cache", "tiny", repeat=1, warmup=0)
        path = write_snapshot(snapshot, str(tmp_path))
        assert path == snapshot_path("cache", str(tmp_path))
        assert path.endswith("BENCH_cache.json")
        reloaded = load_snapshot(path)
        assert reloaded == json.loads(json.dumps(snapshot))
        # A freshly written snapshot gates green against itself.
        assert compare_snapshots(reloaded, snapshot).ok

    def test_out_dir_is_created(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            SUITES, "cache", (("fake.probe", lambda p: {"wall_s": 1.0}),)
        )
        snapshot = run_area("cache", "tiny", repeat=1, warmup=0)
        nested = tmp_path / "deep" / "dir"
        assert write_snapshot(snapshot, str(nested)).startswith(str(nested))

    def test_on_probe_hook_fires(self, monkeypatch):
        monkeypatch.setitem(
            SUITES, "cache", (("fake.probe", lambda p: {"wall_s": 1.0}),)
        )
        seen = []
        run_area(
            "cache", "tiny", repeat=1, warmup=0,
            on_probe=lambda name, metrics: seen.append((name, metrics)),
        )
        assert seen == [("fake.probe", {"wall_s": 1.0})]


PINNED_METRICS = {
    "cache": ("cache.roundtrip.key_s", "cache.roundtrip.hit_rate"),
    "spectral": (
        "spectral.block_gains.gains_s",
        "spectral.block_gains.n_sets",
        "spectral.block_gains.checksum",
    ),
}
"""Per area, a timing and the deterministic metrics that pin its work."""


@pytest.mark.parametrize("area", ["cache", "spectral"])
class TestRealProbes:
    """The two cheapest areas run end to end in tier-1."""

    def test_real_area_produces_timings(self, area, tmp_path):
        snapshot = run_area(area, "tiny", repeat=1, warmup=0)
        timings = {
            k: v for k, v in snapshot["metrics"].items() if k.endswith("_s")
        }
        assert timings, "area produced no timing metrics"
        assert all(v >= 0 for v in timings.values())
        path = write_snapshot(snapshot, str(tmp_path))
        assert compare_snapshots(load_snapshot(path), snapshot).ok

    def test_deterministic_aux_metrics(self, area, tmp_path):
        """Non-timing metrics are exactly reproducible run to run."""
        first = run_area(area, "tiny", repeat=1, warmup=0)["metrics"]
        second = run_area(area, "tiny", repeat=1, warmup=0)["metrics"]
        assert set(PINNED_METRICS[area]) <= first.keys()
        for key, value in first.items():
            if not key.endswith("_s"):
                assert second[key] == pytest.approx(value, rel=1e-12), key
