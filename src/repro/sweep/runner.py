"""Sweep execution: scenario grids over pluggable backends.

:class:`SweepRunner` validates a scenario grid, prewarms the shared
cache, and hands execution to an
:mod:`execution backend <repro.sweep.backends>` — serial, process-pool,
sharded, or remote. Each worker rebuilds its (deterministic) dataset,
resolves the scenario's planner config, and plans through the regular
:class:`~repro.core.planner.CTBusPlanner` facade — so sweep results are
*definitionally* the same as serial planner calls, which the oracle
tests pin across every backend. A shared :class:`PrecomputationCache`
directory lets every worker (and every later invocation) skip the
expensive eigendecomposition/seeding work after the first compute of a
key.

:func:`sweep_precomputation` is the in-process little sibling used by
the benchmark suite: it sweeps config variants over one already-built
precomputation via :func:`repro.core.precompute.rebind`, replacing the
ad-hoc ``for w in weights: rebind(...)`` loops that used to live in
``bench/experiments.py`` and ``bench/figures.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.core.config import PlannerConfig
from repro.core.planner import CTBusPlanner, run_method
from repro.core.precompute import Precomputation, rebind
from repro.core.result import PlanResult
from repro.data.datasets import canned_city
from repro.sweep.cache import (
    PrecomputationCache,
    combine_fingerprints,
    config_fingerprint,
    dataset_fingerprint,
)
from repro.sweep.scenario import Scenario, scenario_key
from repro.utils.errors import PlanningError
from repro.utils.tables import format_table
from repro.utils.timing import Timer


@dataclass
class ScenarioOutcome:
    """What one scenario produced.

    ``results`` holds one :class:`PlanResult` per planned route
    (``route_count`` entries at most — fewer if planning saturates).
    ``precomputation`` is populated only by in-process sweeps; worker
    processes leave it ``None`` rather than pickling megabytes of
    spectral state back to the parent. ``error`` is set (and ``results``
    left empty) by failure-isolating backends when the scenario raised
    instead of planning. ``worker`` names the remote daemon
    (``host:port``) that executed the scenario — stamped by the remote
    backend's parent-side driver, ``None`` for in-process backends —
    which is how reports expose the capacity-weighted distribution.
    """

    scenario: Scenario
    results: tuple[PlanResult, ...]
    cache_hit: "bool | None" = None
    precompute_s: float = 0.0
    total_s: float = 0.0
    precomputation: "Precomputation | None" = field(
        default=None, repr=False, compare=False
    )
    error: "str | None" = None
    worker: "str | None" = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        """Whether the scenario executed without raising."""
        return self.error is None

    @property
    def result(self) -> "PlanResult | None":
        """The first (or only) plan result."""
        return self.results[0] if self.results else None


@dataclass
class StreamRun:
    """What :meth:`SweepRunner.run_stream` produced.

    ``records`` holds the final stream record per scenario in input
    order — freshly written or replayed from a prior stream file.
    ``outcomes`` is the parallel list of live :class:`ScenarioOutcome`
    objects; replayed entries are ``None`` (their results exist only as
    records).
    """

    records: list
    outcomes: list
    summary: dict
    n_replayed: int = 0
    path: str = ""

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if r is not None and not r["ok"])

    @property
    def n_scenarios(self) -> int:
        return len(self.records)


@functools.lru_cache(maxsize=8)
def _worker_dataset(city: str, profile: str):
    """Per-process dataset cache: scenarios sharing a city build it once."""
    return canned_city(city, profile)


@functools.lru_cache(maxsize=8)
def _canned_dataset_fingerprint(city: str, profile: str) -> str:
    """Memoized content hash of a canned dataset (deterministic builds)."""
    return dataset_fingerprint(_worker_dataset(city, profile))


def scenario_cache_key(
    scenario: Scenario, base_config: "PlannerConfig | None" = None
) -> str:
    """The precompute-artifact key this scenario's worker will use.

    Identical to ``PrecomputationCache.key_for(dataset, config)`` but
    with the dataset fingerprint memoized per ``(city, profile)``, so
    keying a whole grid hashes each dataset's arrays once.
    """
    return combine_fingerprints(
        _canned_dataset_fingerprint(scenario.city, scenario.profile),
        config_fingerprint(scenario.planner_config(base_config)),
    )


def execute_scenario(
    scenario: Scenario,
    base_config: "PlannerConfig | None" = None,
    cache_dir: "str | None" = None,
    cache=None,
) -> ScenarioOutcome:
    """Run one scenario end to end (the worker entry point).

    Plans through :class:`CTBusPlanner` so results match serial facade
    calls exactly; the only extra moving part is the artifact cache.
    ``cache`` passes a ready cache object (anything with the
    ``fetch_or_compute(dataset, config)`` shape — e.g. the serving
    layer's :class:`~repro.serve.pool.ArtifactPool`) and wins over
    ``cache_dir``; with neither, caching is off.
    """
    with Timer() as total:
        dataset = _worker_dataset(scenario.city, scenario.profile)
        config = scenario.planner_config(base_config)
        if cache is None:
            cache = PrecomputationCache(cache_dir) if cache_dir else None
        planner = CTBusPlanner(dataset, config, cache=cache)
        with Timer() as pre_t:
            planner.precomputation
        if scenario.constraints is not None:
            results = (
                planner.plan_constrained(scenario.constraints, scenario.method),
            )
        elif scenario.route_count > 1:
            results = tuple(
                planner.plan_multiple(scenario.route_count, scenario.method)
            )
        else:
            results = (planner.plan(scenario.method),)
    return ScenarioOutcome(
        scenario=scenario,
        results=results,
        cache_hit=planner.precompute_cache_hit,
        precompute_s=pre_t.elapsed,
        total_s=total.elapsed,
    )


class SweepRunner:
    """Execute scenario grids over an execution backend, with a shared cache.

    Parameters
    ----------
    base_config:
        Config every scenario starts from (scenario overrides win).
    cache_dir:
        Directory for persistent precomputation artifacts; ``None``
        disables caching.
    workers:
        Process count, ``>= 1``. ``None`` picks
        ``min(len(scenarios), cpu_count)``; ``1`` runs serially
        in-process (no pool, same results); a non-positive count
        raises :class:`PlanningError` instead of silently clamping.
        Does not apply to the ``remote`` backend (rejected — its
        parallelism is the address list).
    backend:
        Execution strategy: a name from
        :data:`repro.sweep.backends.BACKEND_NAMES` (``"serial"``,
        ``"process"``, ``"sharded"``, ``"remote"``) or a ready
        :class:`~repro.sweep.backends.ExecutionBackend` instance.
        Default ``"process"`` — the PR 1 behavior.
    addresses:
        Worker daemon addresses for the ``remote`` backend
        (``"host:port,host:port"`` or an iterable of entries); forwarded
        to :func:`~repro.sweep.backends.resolve_backend`, which rejects
        them for every other backend name.
    registry:
        Worker registry spec for the ``remote`` backend — ``host:port``
        of a ``repro registry serve`` daemon, a JSON registry file
        path, or a ready :class:`~repro.sweep.registry.Registry` — as
        the discovery alternative to static ``addresses`` (mutually
        exclusive; remote-only, like ``addresses``).
    secret:
        Shared handshake secret (bytes/str, e.g.
        :func:`~repro.sweep.remote.load_secret` output) for the
        ``remote`` backend's workers and registry; remote-only.
    """

    def __init__(
        self,
        base_config: "PlannerConfig | None" = None,
        cache_dir: "str | None" = None,
        workers: "int | None" = None,
        backend: str = "process",
        addresses=None,
        registry=None,
        secret=None,
    ):
        self.base_config = base_config or PlannerConfig()
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.workers = workers
        self.backend = backend
        self.addresses = addresses
        self.registry = registry
        self.secret = secret
        #: Workers used by the most recent :meth:`run` (1 = serial path).
        self.last_worker_count = 0

    # ------------------------------------------------------------------
    def resolve(self, scenarios) -> list[Scenario]:
        """``scenarios`` as a list, each validated against the base config."""
        resolved = list(scenarios)
        for scenario in resolved:
            scenario.validate(self.base_config)
        return resolved

    def _resolve_backend(self):
        from repro.sweep.backends import resolve_backend

        return resolve_backend(
            self.backend, workers=self.workers, addresses=self.addresses,
            registry=self.registry, secret=self.secret,
        )

    def report_cache_dir(self) -> "str | None":
        """The cache directory report blocks should describe.

        ``None`` unless the backend's workers actually read
        ``self.cache_dir`` — remote daemons keep their own stores, so
        attributing their per-scenario ``cache_hit`` flags to the
        parent's (untouched) directory would make the report's cache
        block self-contradictory. The per-record flags still carry the
        worker-side truth either way.
        """
        if self.cache_dir and self._resolve_backend().uses_parent_cache:
            return self.cache_dir
        return None

    def _prewarm(self, resolved) -> set[int]:
        """Compute each unique cold cache key once, in the parent.

        Without this, a cold cache + N workers runs N identical
        precomputations concurrently (thundering herd) — the cost must
        be paid once per key, as the cache contract promises. Returns
        the indices of the scenarios whose key this call computed, so
        their outcomes can be reported as the misses they really were.

        A scenario whose precompute raises here is skipped, not fatal:
        its key stays cold and the owning worker recomputes it, so the
        *backend's* failure semantics (fail-fast, or the sharded
        backend's per-scenario isolation) decide what the error means.
        """
        cache = PrecomputationCache(self.cache_dir)
        computed: set[int] = set()
        seen: set[str] = set()
        for i, scenario in enumerate(resolved):
            try:
                dataset = _worker_dataset(scenario.city, scenario.profile)
                config = scenario.planner_config(self.base_config)
                key = cache.key_for(dataset, config)
                if key in seen:
                    continue
                seen.add(key)
                _, hit = cache.fetch_or_compute(dataset, config)
            except Exception:  # noqa: BLE001 — the worker re-raises this
                continue
            if not hit:
                computed.add(i)
        return computed

    def run(self, scenarios, on_outcome=None) -> list[ScenarioOutcome]:
        """Execute every scenario; outcomes keep the input order.

        ``on_outcome(index, outcome)`` — the streaming event channel —
        is invoked on the calling thread as each scenario completes (see
        the :mod:`backend contract <repro.sweep.backends>` for ordering
        and granularity); the prewarm cache-hit correction is applied
        *before* the callback fires, so streamed records match the
        returned outcomes exactly.

        ``self.last_worker_count`` records how many workers the backend
        actually used (1 whenever a serial in-process path was taken).
        """
        return self._run_resolved(self.resolve(scenarios), on_outcome)

    def _run_resolved(
        self, resolved, on_outcome=None, backend=None
    ) -> list[ScenarioOutcome]:
        """:meth:`run` minus validation, for callers that already
        validated (and keyed) the scenarios. ``backend`` lets those
        callers reuse an already-resolved backend instead of
        re-constructing it."""
        if not resolved:
            self.last_worker_count = 0
            return []
        if backend is None:
            backend = self._resolve_backend()
        n_workers = backend.effective_workers(len(resolved))
        self.last_worker_count = n_workers
        # Prewarm only when the backend's workers will read this cache:
        # remote daemons use their own stores, so computing keys here
        # would duplicate the expensive work without warming anything.
        prewarmed = (
            self._prewarm(resolved)
            if self.cache_dir and n_workers > 1 and backend.uses_parent_cache
            else set()
        )

        def _deliver(index: int, outcome: ScenarioOutcome) -> None:
            # The worker saw a warm entry only because the parent just
            # computed it; report the scenario as the miss it was. This
            # is the object backend.run returns, so the correction
            # reaches the stream and the result list alike.
            if index in prewarmed and outcome.ok:
                outcome.cache_hit = False
            if on_outcome is not None:
                on_outcome(index, outcome)

        return backend.run(
            resolved, self.base_config, self.cache_dir, _deliver
        )

    def run_stream(
        self,
        scenarios,
        path: str,
        resume: bool = False,
        retry_failures: bool = False,
        announce=None,
        on_record=None,
    ) -> "StreamRun":
        """Execute a grid while streaming JSONL records to ``path``.

        One flushed line per scenario as it finishes (via
        :class:`~repro.sweep.report.StreamWriter`), then a terminal
        ``summary`` record. ``path="-"`` streams to stdout.

        With ``resume=True`` an existing stream file at ``path`` is
        loaded first and every scenario whose ``(scenario-key,
        cache-key)`` pair matches a committed record is *replayed* —
        skipped, with the prior record standing in for the outcome —
        so an interrupted sweep continues from where it died instead of
        starting over. Failed records are replayed too (their failure is
        a committed result) unless ``retry_failures=True``, which
        re-runs exactly the failures (and requires ``resume=True`` —
        without a resumed stream there are no committed failures to
        retry, so the combination raises instead of silently doing
        nothing). A torn final line from the
        interruption is truncated before appending; the committed
        prefix is never rewritten. Resuming a path with no file yet is
        simply a fresh run — wrappers can pass ``resume=True``
        unconditionally and re-issue one command line until it exits
        clean. A summary-**less** stream (scenario records but no
        terminal ``summary``) is the normal footprint of an interrupted
        or aborted run, not corruption: its committed records replay
        and only the missing scenarios execute.

        ``announce(n_total, n_replayed)`` fires once before execution;
        ``on_record(index, record)`` after each fresh record is
        committed (the live-progress hooks). Fail-fast backend errors
        propagate — the stream file keeps its valid prefix, which is
        exactly what the next ``resume`` consumes.
        """
        from repro.sweep.report import StreamWriter, read_stream

        if retry_failures and not resume:
            # Without resume there are no committed failure records to
            # retry; the flag used to be silently ignored, which read
            # as "failures were retried" when nothing of the sort ran.
            raise PlanningError(
                "retry_failures=True requires resume=True: retrying "
                "failures means re-running the failed records of a "
                "resumed stream"
            )
        resolved = self.resolve(scenarios)
        keys = [scenario_key(s, self.base_config) for s in resolved]
        cache_keys = [scenario_cache_key(s, self.base_config) for s in resolved]
        backend = self._resolve_backend()
        summary_cache_dir = (
            self.cache_dir if backend.uses_parent_cache else None
        )

        replay: dict[int, dict] = {}
        resume_at = None
        if resume:
            if str(path) == "-":
                raise PlanningError("cannot resume a stream written to stdout")
            # missing_ok: the first invocation of an unconditional
            # --resume wrapper has no file yet — that is a fresh run
            # (empty stream, resume_at=0, StreamWriter starts anew).
            existing = read_stream(path, missing_ok=True)
            committed = existing.committed
            for i, key in enumerate(keys):
                record = committed.get(key)
                if record is None or record.get("cache_key") != cache_keys[i]:
                    continue
                if retry_failures and not record["ok"]:
                    continue
                # Keys leave the name out, so two grid points with one
                # spec share a record; each replay keeps its own name.
                replay[i] = {**record, "name": resolved[i].name}
            resume_at = existing.valid_bytes

        pending = [i for i in range(len(resolved)) if i not in replay]
        records: list["dict | None"] = [replay.get(i) for i in range(len(resolved))]
        outcomes: list["ScenarioOutcome | None"] = [None] * len(resolved)
        if announce is not None:
            announce(len(resolved), len(replay))

        writer = StreamWriter(str(path), resume_at=resume_at)
        try:
            if pending:

                def _emit(j: int, outcome: ScenarioOutcome) -> None:
                    i = pending[j]
                    outcomes[i] = outcome
                    records[i] = writer.write_scenario(
                        outcome, key=keys[i], cache_key=cache_keys[i]
                    )
                    if on_record is not None:
                        on_record(i, records[i])

                self._run_resolved(
                    [resolved[i] for i in pending], on_outcome=_emit,
                    backend=backend,
                )
            else:
                self.last_worker_count = 0
            summary = writer.write_summary(
                [r for r in records if r is not None],
                backend=backend.name,
                workers=self.last_worker_count,
                cache_dir=summary_cache_dir,
                n_replayed=len(replay),
            )
        finally:
            writer.close()
        return StreamRun(
            records=records,
            outcomes=outcomes,
            summary=summary,
            n_replayed=len(replay),
            path=str(path),
        )


# ----------------------------------------------------------------------
# In-process config sweeps over one shared precomputation (bench path)
# ----------------------------------------------------------------------
def sweep_precomputation(pre: Precomputation, scenarios) -> list[ScenarioOutcome]:
    """Sweep config variants over one prepared precomputation.

    Every scenario must target the same dataset (``city``/``profile``
    are ignored) and use rebind-safe overrides: a change to any field
    of :class:`~repro.core.config.PrecomputeSpec` (``tau_km``,
    ``increment_mode``) raises, exactly like :func:`rebind`.
    Constraints and multi-route counts are not supported here
    (rejected, not ignored) — run those through :class:`SweepRunner`.
    """
    outcomes = []
    for scenario in scenarios:
        scenario.validate(pre.config)
        if scenario.constraints is not None or scenario.route_count > 1:
            raise PlanningError(
                f"scenario {scenario.name!r}: sweep_precomputation supports "
                f"plain single-route scenarios only; use SweepRunner for "
                f"constraints or route_count > 1"
            )
        with Timer() as total:
            swept = rebind(pre, scenario.planner_config(pre.config))
            results = (run_method(swept, scenario.method),)
        outcomes.append(
            ScenarioOutcome(
                scenario=scenario,
                results=results,
                total_s=total.elapsed,
                precomputation=swept,
            )
        )
    return outcomes


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def outcomes_table(outcomes, title: str = "sweep results") -> str:
    """Tidy per-route results table for a list of outcomes."""
    rows = []
    for out in outcomes:
        for i, res in enumerate(out.results):
            label = out.scenario.name
            if len(out.results) > 1:
                label = f"{label}#{i + 1}"
            route = res.route
            rows.append([
                label,
                res.method,
                f"{route.n_edges} ({route.n_new_edges})" if route else "-",
                round(res.objective, 4),
                round(res.o_d, 1),
                round(res.o_lambda, 5),
                res.iterations,
                round(res.runtime_s, 3),
                round(out.precompute_s, 3),
                {True: "hit", False: "miss", None: "-"}[out.cache_hit],
            ])
        if not out.results:
            marker = "FAILED" if out.error else "-"
            rows.append([
                out.scenario.name, out.scenario.method, marker, "-", "-", "-",
                "-", "-", round(out.precompute_s, 3),
                {True: "hit", False: "miss", None: "-"}[out.cache_hit],
            ])
    return format_table(
        ["scenario", "method", "#edges (#new)", "objective", "O_d",
         "O_lambda", "iters", "plan (s)", "pre (s)", "cache"],
        rows,
        title=title,
    )


def failures_summary(outcomes) -> str:
    """One line per failed scenario (empty string when all succeeded)."""
    lines = [
        f"FAILED {out.scenario.name}: {out.error}"
        for out in outcomes
        if out.error
    ]
    return "\n".join(lines)


def cache_summary(outcomes, cache_dir: "str | None") -> str:
    """One-line cache report: hits/misses this sweep + entries on disk."""
    if not cache_dir:
        return "precomputation cache: disabled"
    hits = sum(1 for o in outcomes if o.cache_hit is True)
    misses = sum(1 for o in outcomes if o.cache_hit is False)
    entries = PrecomputationCache(cache_dir).n_entries
    return (
        f"precomputation cache [{cache_dir}]: {hits} hits, {misses} misses, "
        f"{entries} entries on disk"
    )
