"""Benchmark trajectory: pinned timed probes -> ``BENCH_<area>.json``.

The repo reproduces a paper whose headline result is a 2-3
order-of-magnitude runtime win (Table 7), yet until this module every
speedup claim lived only in transient test assertions. ``repro bench
run`` executes a pinned suite of timed probes per *area* and writes one
versioned snapshot file per area at the repo root::

    BENCH_plan.json      planner end-to-end + per-phase breakdown
    BENCH_sweep.json     grid execution, cold and warm cache
    BENCH_cache.json     artifact keying / store / hit latency
    BENCH_spectral.json  gain-kernel and Hutchinson microbenches
    BENCH_serve.json     plan-server request latency, cold vs pool-warm

Each probe is a plain function returning a flat ``{metric: value}``
dict; it times exactly the region it measures with
:class:`~repro.utils.timing.Timer` (setup stays outside the timed
region, so stored latencies mean what they say). The harness adds
warmup + repeat around every probe and aggregates per metric — **min**
across repeats for ``*_s`` timings (the least-noise estimate), median
for everything else. Snapshots carry provenance (schema version, git
revision, machine info, peak RSS via ``resource.getrusage``) so a
committed baseline is comparable across PRs; :mod:`repro.bench.gate`
turns two snapshots into a regression verdict.

Determinism: probes pin their seeds and dataset profiles, so every
non-``*_s`` metric (iterations, hit rates, probe counts) is exactly
reproducible — only wall times move between machines.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tempfile
import time
from statistics import median

import numpy as np

from repro.core.config import PlannerConfig
from repro.core.planner import CTBusPlanner, run_method
from repro.core.precompute import precompute, rebind
from repro.data.datasets import canned_city
from repro.spectral.connectivity import NaturalConnectivityEstimator
from repro.spectral.gains import block_lanczos_gains
from repro.sweep.cache import PrecomputationCache
from repro.sweep.runner import SweepRunner
from repro.sweep.scenario import expand_grid
from repro.utils.errors import DataError
from repro.utils.fsio import atomic_write_text
from repro.utils.timing import Timer

BENCH_SCHEMA_VERSION = 1
"""Snapshot document schema (bump on incompatible layout changes)."""

AREAS = ("plan", "sweep", "cache", "spectral", "serve")
"""Every suite area, in ``repro bench run`` default order."""

SNAPSHOT_PREFIX = "BENCH_"
"""Snapshot filename prefix: ``BENCH_<area>.json``."""

BENCH_PROFILES = {
    # (dataset profile, warmup, repeat): "tiny" is the CI-pinned suite —
    # small enough to run on every PR; "bench" is the laptop-scale
    # profile the paper tables use.
    "tiny": ("tiny", 1, 3),
    "bench": ("bench", 1, 5),
}
"""Suite profiles: name -> (dataset profile, warmup runs, timed runs)."""

_CITY = "chicago"
"""Every probe runs the same canned city; scenarios differ by config."""


def _probe_config(dataset_profile: str) -> PlannerConfig:
    """The pinned planner config probes use, sized to the profile.

    Small enough that the tiny suite finishes in seconds, large enough
    that the timed regions dominate interpreter noise.
    """
    if dataset_profile == "tiny":
        return PlannerConfig(k=8, w=0.5, max_iterations=250, seed_count=100)
    return PlannerConfig(k=20, w=0.5, max_iterations=1000, seed_count=400)


# ----------------------------------------------------------------------
# Probes. Each returns a flat {metric: float} dict; ``*_s`` metrics are
# wall times measured around exactly the named region.
# ----------------------------------------------------------------------
def _probe_plan_end_to_end(dataset_profile: str) -> dict:
    """Cold planner run, per phase: dataset build, precompute, search."""
    config = _probe_config(dataset_profile)
    with Timer() as dataset_t:
        dataset = canned_city(_CITY, dataset_profile)
    with Timer() as pre_t:
        pre = precompute(dataset, config)
    with Timer() as plan_t:
        result = run_method(pre, "eta-pre")
    return {
        "dataset_s": dataset_t.elapsed,
        "precompute_s": pre_t.elapsed,
        "plan_s": plan_t.elapsed,
        "total_s": dataset_t.elapsed + pre_t.elapsed + plan_t.elapsed,
        "iterations": float(result.iterations),
        "route_edges": float(result.route.n_edges if result.route else 0),
    }


def _probe_plan_baseline(dataset_profile: str) -> dict:
    """The vk-TSP baseline on a shared precomputation (search only)."""
    pre = _shared_precomputation(dataset_profile)
    with Timer() as plan_t:
        result = run_method(pre, "vk-tsp")
    return {
        "plan_s": plan_t.elapsed,
        "iterations": float(result.iterations),
    }


def _probe_plan_eta_online(dataset_profile: str) -> dict:
    """Online-ETA search on a shared precomputation (search only).

    This is the probe that watches the batched extension-evaluation
    kernel: every expansion round prices its neighbors through one
    shared Lanczos recurrence. The iteration budget is cut down from the
    end-to-end probe's because online ETA re-estimates connectivity per
    extension — the pinned numbers stay seconds-scale on the tiny suite.
    """
    pre = _shared_precomputation(dataset_profile)
    small = rebind(pre, pre.config.variant(max_iterations=60, seed_count=40))
    with Timer() as plan_t:
        result = run_method(small, "eta")
    return {
        "plan_s": plan_t.elapsed,
        "iterations": float(result.iterations),
        "evaluations": float(result.connectivity_evaluations),
    }


def _sweep_scenarios(dataset_profile: str):
    return expand_grid(
        {"method": ["eta-pre", "vk-tsp"], "w": [0.3, 0.7]},
        city=_CITY, profile=dataset_profile,
    )


def _probe_sweep_cold(dataset_profile: str) -> dict:
    """A 4-scenario serial grid against an empty artifact cache."""
    config = _probe_config(dataset_profile)
    scenarios = _sweep_scenarios(dataset_profile)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as cache_dir:
        runner = SweepRunner(
            base_config=config, cache_dir=cache_dir, backend="serial"
        )
        with Timer() as sweep_t:
            outcomes = runner.run(scenarios)
    hits = sum(1 for o in outcomes if o.cache_hit)
    return {
        "grid_s": sweep_t.elapsed,
        "scenario_mean_s": sweep_t.elapsed / len(outcomes),
        "n_scenarios": float(len(outcomes)),
        "cache_hit_rate": hits / len(outcomes),
    }


def _probe_sweep_warm(dataset_profile: str) -> dict:
    """The same grid re-run against the cache the first pass filled."""
    config = _probe_config(dataset_profile)
    scenarios = _sweep_scenarios(dataset_profile)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as cache_dir:
        runner = SweepRunner(
            base_config=config, cache_dir=cache_dir, backend="serial"
        )
        runner.run(scenarios)  # fill the cache (untimed)
        with Timer() as sweep_t:
            outcomes = runner.run(scenarios)
    hits = sum(1 for o in outcomes if o.cache_hit)
    return {
        "grid_s": sweep_t.elapsed,
        "scenario_mean_s": sweep_t.elapsed / len(outcomes),
        "cache_hit_rate": hits / len(outcomes),
    }


def _probe_cache_roundtrip(dataset_profile: str) -> dict:
    """Keying, store, and hit-load latency of one artifact."""
    config = _probe_config(dataset_profile)
    dataset = canned_city(_CITY, dataset_profile)
    pre = _shared_precomputation(dataset_profile)
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache_dir:
        cache = PrecomputationCache(cache_dir)
        with Timer() as key_t:
            cache.key_for(dataset, config)
        with Timer() as store_t:
            cache.store(pre, dataset)
        with Timer() as load_t:
            loaded = cache.load(dataset, config)
        if loaded is None:  # pragma: no cover - would be a cache bug
            raise DataError("cache probe stored an artifact it cannot load")
        cache.fetch_or_compute(dataset, config)
        n_bytes = cache.total_bytes
        hit_rate = cache.hits / max(cache.hits + cache.misses, 1)
    return {
        "key_s": key_t.elapsed,
        "store_s": store_t.elapsed,
        "load_hit_s": load_t.elapsed,
        "artifact_bytes": float(n_bytes),
        "hit_rate": hit_rate,
    }


def _probe_spectral_gains(dataset_profile: str) -> dict:
    """The block Lanczos gain kernel over the city's candidate edges."""
    pre = _shared_precomputation(dataset_profile)
    uni = pre.universe
    sets = [[uni.edge(int(i)).pair] for i in np.flatnonzero(uni.is_new)]
    trace_base = pre.builder.n * float(np.exp(pre.lambda_base))
    with Timer() as gains_t:
        gains = block_lanczos_gains(pre.builder.base(), sets, trace_base)
    return {
        "gains_s": gains_t.elapsed,
        "per_set_s": gains_t.elapsed / len(sets),
        "n_sets": float(len(sets)),
        "checksum": float(gains.sum()),
    }


def _probe_spectral_hutchinson(dataset_profile: str) -> dict:
    """Hutchinson natural-connectivity estimate on the same graph, with
    the estimator the ``"hutchinson"`` increment mode builds."""
    A = canned_city(_CITY, dataset_profile).transit.adjacency()
    estimator = NaturalConnectivityEstimator(A.shape[0])
    with Timer() as trace_t:
        estimate = estimator.estimate(A)
    return {
        "trace_s": trace_t.elapsed,
        "estimate": estimate,
    }


def _probe_serve_latency(dataset_profile: str) -> dict:
    """Request latency against a live plan server, cold vs pool-warm.

    Spins up a real :class:`~repro.serve.server.PlanServer` (ephemeral
    port, no disk tier) and issues the same scenario four times over one
    authenticated frame connection. The first request computes the
    artifact (``cold_request_s``); the rest hit the in-memory pool
    (``warm_request_s`` — the serving layer's whole point is the gap
    between the two). The pinned non-timing metrics hold the pool
    honest: hit rate 0.75 and one entry, exactly, every run.
    """
    from repro.serve.server import PlanFrame, PlanServer
    from repro.sweep.remote import (
        PROTOCOL_VERSION,
        connect_authenticated,
        recv_frame,
        send_frame,
    )
    from repro.sweep.scenario import Scenario

    scenario = Scenario(
        name="bench-serve", city=_CITY, profile=dataset_profile,
        method="eta-pre",
    )
    request = PlanFrame(
        protocol=PROTOCOL_VERSION,
        scenario=scenario,
        base_config=_probe_config(dataset_profile),
    )
    server = PlanServer(port=0)
    server.start_in_thread()
    timings: list[float] = []
    try:
        with connect_authenticated(server.address, None, 30.0) as sock:
            sock.settimeout(None)  # planning outlasts the connect timeout
            for _ in range(4):
                with Timer() as request_t:
                    send_frame(sock, request)
                    reply = recv_frame(sock)
                if reply is None or reply.get("op") != "plan_result":
                    raise DataError(f"serve probe got {reply!r} to a plan")
                timings.append(request_t.elapsed)
        stats = server.stats()
    finally:
        server.shutdown()
    pool = stats["pool"]
    return {
        "cold_request_s": timings[0],
        "warm_request_s": min(timings[1:]),
        "pool_hit_rate": pool["hit_rate"],
        "pool_entries": float(pool["entries"]),
        "n_requests": float(stats["latency"]["count"]),
    }


_SHARED_PRE: dict = {}


def _shared_precomputation(dataset_profile: str):
    """Probe-shared precomputation (setup cost paid once, never timed)."""
    if dataset_profile not in _SHARED_PRE:
        _SHARED_PRE[dataset_profile] = precompute(
            canned_city(_CITY, dataset_profile), _probe_config(dataset_profile)
        )
    return _SHARED_PRE[dataset_profile]


SUITES = {
    "plan": (
        ("plan.end_to_end", _probe_plan_end_to_end),
        ("plan.eta_online", _probe_plan_eta_online),
        ("plan.vk_tsp", _probe_plan_baseline),
    ),
    "sweep": (
        ("sweep.cold_grid", _probe_sweep_cold),
        ("sweep.warm_grid", _probe_sweep_warm),
    ),
    "cache": (
        ("cache.roundtrip", _probe_cache_roundtrip),
    ),
    "spectral": (
        ("spectral.block_gains", _probe_spectral_gains),
        ("spectral.hutchinson", _probe_spectral_hutchinson),
    ),
    "serve": (
        ("serve.request_latency", _probe_serve_latency),
    ),
}
"""Area -> pinned ``(probe name, probe fn)`` tuples."""


# ----------------------------------------------------------------------
# Harness: warmup + repeat + aggregation + provenance
# ----------------------------------------------------------------------
def _aggregate(runs: list[dict]) -> dict:
    """Min for ``*_s`` timings (least noise), median for everything else."""
    out = {}
    for metric in runs[0]:
        values = [run[metric] for run in runs]
        out[metric] = min(values) if metric.endswith("_s") else median(values)
    return out


def _git_revision() -> "str | None":
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return rev.stdout.strip() or None if rev.returncode == 0 else None


def _peak_rss_kb() -> "float | None":
    """Peak RSS of this process in KiB (``None`` where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return peak / 1024.0 if platform.system() == "Darwin" else float(peak)


def _machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }


def run_area(
    area: str,
    suite_profile: str = "tiny",
    repeat: "int | None" = None,
    warmup: "int | None" = None,
    on_probe=None,
) -> dict:
    """Run one area's pinned probes; return the snapshot document.

    ``repeat``/``warmup`` override the suite profile's pinned counts.
    ``on_probe(name, metrics)`` fires after each probe aggregates (the
    CLI's progress hook).
    """
    if area not in SUITES:
        raise DataError(f"unknown bench area {area!r}; choose from {AREAS}")
    if suite_profile not in BENCH_PROFILES:
        raise DataError(
            f"unknown bench profile {suite_profile!r}; choose from "
            f"{tuple(BENCH_PROFILES)}"
        )
    dataset_profile, default_warmup, default_repeat = BENCH_PROFILES[suite_profile]
    repeat = default_repeat if repeat is None else int(repeat)
    warmup = default_warmup if warmup is None else int(warmup)
    if repeat < 1:
        raise DataError(f"bench repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise DataError(f"bench warmup must be >= 0, got {warmup}")

    probes = {}
    flat_metrics = {}
    for name, fn in SUITES[area]:
        for _ in range(warmup):
            fn(dataset_profile)
        runs = [fn(dataset_profile) for _ in range(repeat)]
        aggregated = _aggregate(runs)
        probes[name] = {"metrics": aggregated, "runs": runs}
        for metric, value in aggregated.items():
            flat_metrics[f"{name}.{metric}"] = value
        if on_probe is not None:
            on_probe(name, aggregated)

    return {
        "schema": BENCH_SCHEMA_VERSION,
        "area": area,
        "suite_profile": suite_profile,
        "dataset_profile": dataset_profile,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": _git_revision(),
        "machine": _machine_info(),
        "warmup": warmup,
        "repeat": repeat,
        "peak_rss_kb": _peak_rss_kb(),
        "probes": probes,
        "metrics": flat_metrics,
    }


def snapshot_path(area: str, out_dir: str = ".") -> str:
    """Where ``area``'s snapshot lives under ``out_dir``."""
    return os.path.join(out_dir, f"{SNAPSHOT_PREFIX}{area}.json")


def write_snapshot(snapshot: dict, out_dir: str = ".") -> str:
    """Write ``snapshot`` as ``BENCH_<area>.json`` under ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    path = snapshot_path(snapshot["area"], out_dir)
    # Atomic: the CI trend gate diffs this file against the committed
    # baseline — a torn snapshot must fail loudly, not compare quietly.
    atomic_write_text(
        path, json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )
    return path
