"""Pluggable sweep execution backends.

:class:`SweepRunner` delegates scenario execution to a *backend*, so the
strategy for distributing work is orthogonal to grid declaration,
validation, and cache prewarming (which stay in the runner). Three
in-process backends ship here; the ``remote`` backend (TCP workers on
other machines, same contract) lives in :mod:`repro.sweep.remote` and
is registered by name in :func:`resolve_backend`.

Backend contract
----------------
A backend is an :class:`ExecutionBackend` subclass with:

``name``
    Short identifier used in reports and the CLI (``--backend <name>``).
``effective_workers(n_scenarios)``
    The worker-process count the backend would use for a grid of that
    size (``1`` means fully in-process).
``outcomes(scenarios, base_config, cache_dir)``
    A generator that executes already-*resolved* scenarios and yields
    one ``(index, outcome)`` pair per scenario as each finishes, where
    ``index`` is the scenario's position in the input list. Workers
    must plan through :func:`~repro.sweep.runner.execute_scenario` so
    results stay bit-identical to serial planner-facade calls (the
    oracle contract). Cancellation is the generator's own cleanup:
    closed mid-iteration, a backend cancels its queued work.

Callers use the inherited :meth:`ExecutionBackend.run`, the single
consumer of ``outcomes()``: it returns one
:class:`~repro.sweep.runner.ScenarioOutcome` per scenario **in input
order**.

Streaming event channel
-----------------------
``run(..., on_outcome=...)`` calls ``on_outcome(index, outcome)`` as
each pair arrives — on the caller's thread, because that is where
``run`` iterates the generator. Callbacks fire in completion order
(which is input order only for :class:`SerialBackend`); each index
fires once, with the object the returned list holds. The pool backends
deliver with per-shard granularity — a shard's outcomes arrive
together when its task returns. A callback that raises aborts the
sweep (it is the caller's transport, e.g. a
:class:`~repro.sweep.report.StreamWriter`, and a broken transport is a
real error): ``run`` closes the generator, which cancels the backend's
queued work, and re-raises.

Failure semantics
-----------------
:class:`SerialBackend` and :class:`ProcessBackend` are fail-fast: a
scenario that raises mid-sweep propagates and aborts the run, and the
pool cancels its still-queued scenarios. :class:`ShardedBackend`
isolates failures per scenario: a raising scenario yields a failure
outcome (``outcome.error`` set, empty ``results``) and the rest of its
shard — and every other shard — still completes. Grid-level validation
errors are raised by :meth:`SweepRunner.resolve` before any backend
runs, so backend-level failures are genuine runtime errors (infeasible
constraints, corrupt datasets, worker crashes).

Sharding
--------
Every backend cuts its grid with :func:`make_shards`, one rule for
all: scenarios are grouped by ``(city, profile)`` so a shard shares
its worker's dataset cache, then apportioned into contiguous shards by
weight (largest remainder, weight 1 per shard unless given). Each
backend only says how many shards it wants. :class:`ShardedBackend`
asks for one per worker, so shard sizes differ by at most one, and
submits **one task per shard**: dataset construction and argument
pickling are amortized per shard, and the asynchronous
``submit``/``as_completed`` path lets fast shards return while slow
ones still run. :class:`ProcessBackend` is the same loop asking for
one shard per scenario, with a shard task that does not isolate
failures. The remote backend asks for one shard per worker entry,
weighted by capacity.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import closing
from dataclasses import dataclass
from typing import Generator

from repro.core.config import PlannerConfig
from repro.sweep.runner import ScenarioOutcome, execute_scenario
from repro.utils.errors import PlanningError


def _auto_workers(n_scenarios: int, workers: "int | None") -> int:
    """The explicit worker count, else the cpu count; at most one per scenario.

    A worker beyond the scenario count would never get a task, yet a
    forking pool starts every worker up front. An explicit non-positive
    count is a configuration error, not a request for the serial path —
    raising here (rather than silently clamping to 1) keeps
    ``--workers 0`` from masking a typo'd flag.
    """
    if workers is not None:
        workers = int(workers)
        if workers < 1:
            raise PlanningError(
                f"worker count must be >= 1, got {workers} "
                f"(omit it for min(#scenarios, cpu_count))"
            )
    else:
        workers = os.cpu_count() or 1
    return max(min(n_scenarios, workers), 1)


def failure_outcome(scenario, exc: BaseException) -> ScenarioOutcome:
    """A :class:`ScenarioOutcome` recording a scenario-level failure."""
    return ScenarioOutcome(
        scenario=scenario,
        results=(),
        error=f"{type(exc).__name__}: {exc}",
    )


def execute_shard(
    indexed_scenarios,
    base_config: "PlannerConfig | None" = None,
    cache_dir: "str | None" = None,
    isolate: bool = True,
):
    """Run one shard of ``(index, scenario)`` pairs (worker entry point).

    With ``isolate`` each scenario is isolated: an exception becomes a
    failure outcome instead of killing the shard. Without it the first
    raising scenario propagates (the fail-fast ``process`` task).
    Returns ``(index, outcome)`` pairs in shard order; the caller
    re-assembles global order from the indices.
    """
    pairs = []
    for index, scenario in indexed_scenarios:
        try:
            outcome = execute_scenario(scenario, base_config, cache_dir)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            if not isolate:
                raise
            outcome = failure_outcome(scenario, exc)
        pairs.append((index, outcome))
    return pairs


def apportion(n: int, weights) -> list[int]:
    """Split an integer ``n`` proportionally to ``weights`` (sum == n).

    Largest-remainder apportionment: every share is the floor of its
    exact quota, and the leftover units go to the largest fractional
    parts (ties broken toward the heavier weight, then the lower
    index), so the result is deterministic and within one of the exact
    proportion. Shares may be zero when ``n < len(weights)``.
    """
    weights = [float(w) for w in weights]
    if not weights:
        raise PlanningError("apportion needs at least one weight")
    if any(w <= 0 for w in weights):
        raise PlanningError(f"weights must be positive, got {weights}")
    total = sum(weights)
    quotas = [n * w / total for w in weights]
    shares = [int(q) for q in quotas]
    leftover = n - sum(shares)
    by_remainder = sorted(
        range(len(weights)),
        key=lambda i: (-(quotas[i] - shares[i]), -weights[i], i),
    )
    for i in by_remainder[:leftover]:
        shares[i] += 1
    return shares


def make_shards(scenarios, n_shards: int, weights=None):
    """Cut ``scenarios`` into ``n_shards`` shards of ``(index, scenario)``.

    Scenarios are grouped by ``(city, profile)`` (stably, by original
    index within a group) so shards share their worker's per-process
    dataset cache, then cut into contiguous shards whose sizes
    :func:`apportion` gives: proportional to ``weights`` (one positive
    number per shard; default 1 each, so sizes differ by at most one).
    Exactly ``n_shards`` shards are returned, shard ``i`` sized by
    ``weights[i]`` (it belongs to worker ``i``), and shards may be
    *empty* when the grid has fewer scenarios than shards.
    """
    n_shards = int(n_shards)
    if n_shards < 1:
        raise PlanningError(f"shard count must be >= 1, got {n_shards}")
    weights = [1] * n_shards if weights is None else list(weights)
    if len(weights) != n_shards:
        raise PlanningError(
            f"got {len(weights)} weights for {n_shards} shards"
        )
    indexed = sorted(
        enumerate(scenarios), key=lambda p: (p[1].city, p[1].profile, p[0])
    )
    shards = []
    start = 0
    for size in apportion(len(indexed), weights):
        shards.append(indexed[start:start + size])
        start += size
    return shards


class ExecutionBackend:
    """Abstract base for sweep execution strategies (see module docs)."""

    name = "abstract"

    uses_parent_cache = True
    """Whether this backend's workers read the ``cache_dir`` passed to
    :meth:`run` (true for every in-process backend). The runner only
    prewarms the shared cache — and only re-attributes prewarm hits —
    for backends that will actually consume it; remote workers keep
    their own stores, so prewarming the parent's would just duplicate
    the most expensive computation locally."""

    def effective_workers(self, n_scenarios: int) -> int:
        raise NotImplementedError

    def outcomes(
        self,
        scenarios,
        base_config: "PlannerConfig | None" = None,
        cache_dir: "str | None" = None,
    ) -> Generator[tuple[int, ScenarioOutcome], None, None]:
        """Yield ``(index, outcome)`` once per scenario as each finishes.

        Closing the generator early must cancel the work still queued.
        """
        raise NotImplementedError

    def run(
        self,
        scenarios,
        base_config: "PlannerConfig | None" = None,
        cache_dir: "str | None" = None,
        on_outcome=None,
    ) -> list[ScenarioOutcome]:
        """Execute ``scenarios``; one outcome each, in input order.

        ``on_outcome(index, outcome)`` fires on this thread as each
        scenario finishes. If it (or the backend) raises, the
        :meth:`outcomes` generator is closed — cancelling the queued
        work — before the error propagates.
        """
        outcomes: list = [None] * len(scenarios)
        with closing(self.outcomes(scenarios, base_config, cache_dir)) as pairs:
            for index, outcome in pairs:
                if on_outcome is not None:
                    on_outcome(index, outcome)
                outcomes[index] = outcome
        return outcomes

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(repr=False)
class SerialBackend(ExecutionBackend):
    """In-process, one scenario at a time; fail-fast.

    The reference semantics every other backend must match — and the
    cheapest choice for single-scenario grids or debugging (no pool, no
    pickling, real tracebacks). Outcomes arrive in input order.
    """

    name = "serial"

    def effective_workers(self, n_scenarios: int) -> int:
        return 1

    def outcomes(self, scenarios, base_config=None, cache_dir=None):
        for index, scenario in enumerate(scenarios):
            yield index, execute_scenario(scenario, base_config, cache_dir)


@dataclass(repr=False)
class ShardedBackend(ExecutionBackend):
    """Per-worker shards with async submission and failure isolation.

    The grid is cut into one :func:`make_shards` shard per worker, with
    sizes within one of each other, and each non-empty shard is one
    task — so dataset construction and pickling are paid per shard, not
    per scenario. Shards are submitted asynchronously and gathered with
    ``as_completed``; a scenario that raises becomes a failure outcome
    (``error`` set) without killing its shard or the sweep. One worker
    (or one shard) runs the shards in-process instead of starting a
    pool. A shard's outcomes arrive together, in shard order, when its
    task completes.
    """

    name = "sharded"
    workers: "int | None" = None
    isolate_failures = True
    """Whether a raising scenario becomes a failure outcome, or aborts
    the sweep (the ``process`` declaration)."""

    def effective_workers(self, n_scenarios: int) -> int:
        if n_scenarios <= 1:
            return 1
        return _auto_workers(n_scenarios, self.workers)

    def _shard_count(self, n_scenarios: int, n_workers: int) -> int:
        """How many shards :meth:`outcomes` cuts: one per worker."""
        return n_workers

    def outcomes(self, scenarios, base_config=None, cache_dir=None):
        if not scenarios:
            return
        n_workers = self.effective_workers(len(scenarios))
        n_shards = self._shard_count(len(scenarios), n_workers)
        shards = [shard for shard in make_shards(scenarios, n_shards) if shard]
        args = (base_config, cache_dir, self.isolate_failures)
        if n_workers <= 1 or len(shards) <= 1:
            for shard in shards:
                yield from execute_shard(shard, *args)
            return
        pool = ProcessPoolExecutor(max_workers=n_workers)
        try:
            futures = [
                pool.submit(execute_shard, shard, *args) for shard in shards
            ]
            for future in as_completed(futures):
                yield from future.result()
        finally:
            # Nothing is queued after a clean finish. After an abort — a
            # fail-fast scenario, a broken pool, or the consumer closing
            # this generator — cancel the undispatched shards instead of
            # letting them run on behind the caller's back, and wait out
            # the ones already executing.
            pool.shutdown(wait=True, cancel_futures=True)


@dataclass(repr=False)
class ProcessBackend(ShardedBackend):
    """One task per scenario over a process pool; fail-fast; the default.

    A declaration over the :class:`ShardedBackend` loop: it cuts one
    shard per scenario, and the shard task lets a raising scenario
    propagate, so the sweep aborts and the still-queued scenarios are
    cancelled. ``workers`` is its only setting.
    """

    name = "process"
    isolate_failures = False

    def _shard_count(self, n_scenarios: int, n_workers: int) -> int:
        """One shard per scenario."""
        return n_scenarios


BACKENDS = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
    ShardedBackend.name: ShardedBackend,
}

REMOTE_BACKEND_NAME = "remote"
"""Registered by name only: :class:`repro.sweep.remote.RemoteBackend`
is imported lazily inside :func:`resolve_backend` (the remote module
imports this one, so an eager registry entry would be a cycle)."""

BACKEND_NAMES = (*BACKENDS, REMOTE_BACKEND_NAME)


def resolve_backend(
    backend: "str | ExecutionBackend",
    workers: "int | None" = None,
    addresses=None,
    registry=None,
    secret=None,
) -> ExecutionBackend:
    """Turn a backend name (or instance) into a ready backend.

    ``workers`` is forwarded to name-constructed backends that take it
    and must be >= 1 when given. ``addresses`` (worker addresses as a
    ``"host:port,host:port"`` string or an iterable of such entries)
    and ``registry`` (a registry spec — ``host:port`` or a JSON file
    path — or a ready registry object) are the two ways to find remote
    workers: exactly one is required by, and both are only valid for,
    the ``remote`` backend. ``secret`` (the shared handshake secret,
    ``--secret-file`` contents) is likewise remote-only. An
    already-built instance is returned as-is (its own configuration
    wins).
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = str(backend)
    if workers is not None and int(workers) < 1:
        raise PlanningError(
            f"worker count must be >= 1, got {workers} "
            f"(omit it for min(#scenarios, cpu_count))"
        )
    if name == REMOTE_BACKEND_NAME:
        from repro.sweep.remote import RemoteBackend, parse_worker_addresses

        if not addresses and registry is None:
            raise PlanningError(
                "the remote backend needs worker addresses "
                "(--workers-at host:port,host:port,...) or a registry "
                "(--registry host:port | path.json)"
            )
        if addresses and registry is not None:
            raise PlanningError(
                "--workers-at and --registry are mutually exclusive; "
                "static addresses or discovery, pick one"
            )
        if workers is not None:
            # Remote parallelism is the address list / the registry
            # roster, nothing else; accepting-and-ignoring a worker
            # count would be the silent misconfiguration this resolver
            # exists to catch.
            raise PlanningError(
                "the remote backend takes --workers-at addresses or a "
                "--registry; --workers does not apply (repeat an "
                "address, or raise a worker's --capacity, to weight it)"
            )
        if registry is not None:
            return RemoteBackend(registry=registry, secret=secret)
        return RemoteBackend(
            addresses=parse_worker_addresses(addresses), secret=secret
        )
    if addresses:
        raise PlanningError(
            f"worker addresses only apply to the "
            f"{REMOTE_BACKEND_NAME!r} backend, not {name!r}"
        )
    if registry is not None:
        raise PlanningError(
            f"a worker registry only applies to the "
            f"{REMOTE_BACKEND_NAME!r} backend, not {name!r}"
        )
    if secret is not None:
        raise PlanningError(
            f"a shared secret only applies to the "
            f"{REMOTE_BACKEND_NAME!r} backend, not {name!r}"
        )
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise PlanningError(
            f"unknown execution backend {backend!r}; "
            f"choose from {BACKEND_NAMES}"
        ) from None
    if cls is SerialBackend:
        return cls()
    return cls(workers=workers)
