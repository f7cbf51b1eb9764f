"""Scenario sweep engine: many planning requests, one precomputation.

The paper's headline operational claim (Sec. 7.3.2, Insight 4) is that
ETA-Pre's one-time precomputation makes replanning interactive. This
package turns that into a batch workload: declare a grid of
:class:`Scenario` specs, execute them in parallel with
:class:`SweepRunner`, and let a persistent :class:`PrecomputationCache`
amortize the expensive spectral work across workers *and* across CLI
invocations.

Execution backends
------------------
Execution strategy is pluggable (``SweepRunner(backend=...)``, CLI
``--backend``). A backend is an :class:`ExecutionBackend` with
``name``, ``effective_workers(n_scenarios)``, and a generator
``outcomes(scenarios, base_config, cache_dir)`` that yields one
``(index, outcome)`` pair per scenario as each finishes. Callers use
the inherited ``run(scenarios, base_config, cache_dir, on_outcome)``,
the one consumer of that generator: it returns one
:class:`ScenarioOutcome` per scenario in input order. Every backend
plans through :func:`execute_scenario`, so results are bit-identical
across backends (the oracle contract). Four ship today:

* ``serial`` — in-process loop; fail-fast; the reference semantics.
* ``sharded`` — the grid is cut into one shard per worker, sizes
  within one of each other (one task per shard amortizes dataset
  construction and pickling), submitted asynchronously to a process
  pool, with per-scenario failure isolation: a raising scenario
  becomes a failure outcome (``outcome.error`` set) instead of killing
  the sweep.
* ``process`` — the sharded pool loop with one shard per scenario and
  no failure isolation: one task per scenario, fail-fast (the
  default). A fail-fast abort cancels still-queued scenarios
  (``cancel_futures``) instead of letting them run to completion
  behind the caller's back.
* ``remote`` — the same contract over TCP worker daemons
  (``repro worker serve``): the grid is cut into one shard per worker
  entry, weighted by capacity; outcome frames stream back as scenarios
  finish (so ``--stream``/``--resume`` work unchanged), scenario
  failures are isolated worker-side, and a worker that dies mid-shard
  has its unfinished scenarios rebalanced onto the survivors. See
  :mod:`repro.sweep.remote` for the wire protocol. CLI: ``--backend
  remote --workers-at host:port,...``.

Trust and topology (remote fabric)
----------------------------------
Every remote connection starts with a shared-secret handshake (HMAC
challenge/response over the framed wire; ``--secret-file`` on both
ends) that also pins the protocol version — unauthenticated or
version-mismatched peers are rejected with typed errors before any
scenario payload is parsed. Workers can be discovered instead of
enumerated: they register themselves (heartbeat with ``--capacity``,
cache fingerprint, protocol version) into a registry — a ``repro
registry serve`` daemon or a JSON file (:mod:`repro.sweep.registry`) —
and ``repro sweep --backend remote --registry ...`` resolves the live
roster at sweep start, skips registrants that died (with a warning),
and backfills workers that join mid-sweep. Sharding is
capacity-weighted: a ``--capacity 4`` worker receives ~4x the
scenarios of a capacity-1 worker (:func:`~repro.sweep.backends.
make_shards` with ``weights``, the one sharding rule every backend
uses; a repeated static address counts once per entry), and
rebalancing after a worker death respects the survivors' weights.
Each outcome records the executing worker
(``ScenarioOutcome.worker``), so reports expose the distribution.

Structured results
------------------
:class:`SweepReport` serializes outcomes to JSON (schema versioned):
per-scenario config/cache/timing/result records plus sweep metadata.
``repro sweep --json out.json`` (or ``--json -`` / ``--format json``
for stdout) emits it from the CLI. Both the JSON document and the
streaming records below share one :data:`SCHEMA_VERSION` constant
(exported here) for downstream compatibility checks.

Streaming results and resumable sweeps
--------------------------------------
``run(..., on_outcome=...)`` is the event channel: it invokes the
callback on the calling thread as each pair comes out of the backend's
generator (and closes the generator, cancelling queued work, if the
callback raises). :meth:`SweepRunner.run_stream` turns that into an
append-only JSONL stream (:class:`StreamWriter`) — one flushed
``scenario`` record per completed scenario, then a terminal
``summary`` record with the :class:`SweepReport` header fields. Each
record carries a ``(scenario-key, cache-key)`` identity pair
(:func:`~repro.sweep.scenario.scenario_key` over the resolved spec +
config; the content-addressed precompute key), which makes interrupted
sweeps **resumable**: ``run_stream(..., resume=True)`` reloads the
file (:func:`read_stream` drops the torn final line a kill leaves
behind), replays committed records, and executes only the missing
scenarios — re-running failures too with ``retry_failures=True``.
CLI: ``repro sweep --stream out.jsonl`` / ``--stream -`` /
``--resume`` / ``--retry-failures``.

Eviction policy
---------------
Cache entries are no longer immortal: ``PrecomputationCache.evict(
max_entries=..., max_bytes=...)`` deletes least-recently-used pairs
(LRU by commit-marker mtime; hits touch the marker) until both budgets
hold, and ``clear()`` empties the store. Only committed
``<32-hex-key>.json`` + ``.npz`` pairs participate — foreign files in a
shared directory are neither counted nor deleted. CLI:
``repro cache stats|evict|clear`` and ``repro sweep --cache-max-bytes``.

Cache-key contract
------------------
Artifacts are keyed by ``sha256(dataset content || precompute-relevant
config)``:

* **dataset content** — every array the precomputation reads: road
  coordinates / edges / lengths / travel times / demand counts, transit
  stop coordinates / road affiliations / edges / lengths / road paths,
  and route stop sequences. Any demand, edge, or weight perturbation
  changes the key; dataset *names* do not participate.
* **precompute-relevant config** — exactly the config's
  :class:`repro.core.config.PrecomputeSpec`, the only config input of
  precompute's expensive half. Search knobs such as ``k``, ``w``, and
  ``seed_count`` are *excluded by design*: a whole parameter sweep
  shares one warm entry, with the cheap derived state re-derived per
  scenario (the :func:`repro.core.precompute.rebind` contract).

Artifact layout
---------------
A cache directory holds two flat files per key::

    <cache_dir>/
        <key>.npz    # arrays: edge universe, Delta(e), lambda, spectrum
        <key>.json   # metadata + config snapshot; written LAST (commit
                     # marker), so readers never observe a torn entry

Writes are atomic renames of temp files, making one directory safe to
share between concurrent workers and successive runs. Corrupt or
stale-format entries read as cache misses and are recomputed.

Entry points
------------
* ``repro sweep`` — the CLI: a YAML/JSON grid (or inline axes) in, a
  tidy results table and a cache hit/miss summary out.
* :class:`SweepRunner` — the library API used by the CLI and tests;
  :meth:`SweepRunner.run_stream` for streaming/resumable execution.
* :func:`sweep_precomputation` — in-process variant sweeps over one
  shared precomputation (what the benchmark tables/figures run on).

The maintained prose version of the backend contract, the streaming
event channel, and the cache-key/artifact contract above lives in
``docs/architecture.md``; the CLI reference in ``docs/cli.md``. Keep
this docstring and those documents in sync.
"""

from repro.sweep.cache import (
    CacheEntry,
    PrecomputationCache,
    cache_key,
    combine_fingerprints,
    config_fingerprint,
    dataset_fingerprint,
)
from repro.sweep.runner import (
    ScenarioOutcome,
    StreamRun,
    SweepRunner,
    cache_summary,
    execute_scenario,
    failures_summary,
    outcomes_table,
    scenario_cache_key,
    sweep_precomputation,
)
from repro.sweep.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ShardedBackend,
    apportion,
    execute_shard,
    make_shards,
    resolve_backend,
)
from repro.sweep.report import (
    SCHEMA_VERSION,
    StreamRecords,
    StreamWriter,
    OutcomeRecord,
    SweepReport,
    read_stream,
    scenario_record,
    stream_scenario_record,
    summary_record,
)
from repro.sweep.scenario import (
    Scenario,
    expand_grid,
    load_grid,
    scenario_key,
)
from repro.sweep.remote import (
    PROTOCOL_VERSION,
    RemoteAuthError,
    RemoteBackend,
    RemoteProtocolError,
    WorkerServer,
    load_secret,
    parse_worker_addresses,
    ping,
)
from repro.sweep.registry import (
    FileRegistry,
    Heartbeat,
    Registry,
    RegistryServer,
    TcpRegistry,
    WorkerRecord,
    resolve_registry,
    serve_registry,
)

__all__ = [
    "BACKEND_NAMES",
    "CacheEntry",
    "ExecutionBackend",
    "FileRegistry",
    "Heartbeat",
    "OutcomeRecord",
    "PROTOCOL_VERSION",
    "PrecomputationCache",
    "ProcessBackend",
    "Registry",
    "RegistryServer",
    "RemoteAuthError",
    "RemoteBackend",
    "RemoteProtocolError",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioOutcome",
    "SerialBackend",
    "ShardedBackend",
    "StreamRecords",
    "StreamRun",
    "StreamWriter",
    "SweepReport",
    "SweepRunner",
    "TcpRegistry",
    "WorkerRecord",
    "WorkerServer",
    "apportion",
    "cache_key",
    "cache_summary",
    "combine_fingerprints",
    "config_fingerprint",
    "dataset_fingerprint",
    "execute_scenario",
    "execute_shard",
    "expand_grid",
    "failures_summary",
    "load_grid",
    "load_secret",
    "make_shards",
    "outcomes_table",
    "parse_worker_addresses",
    "ping",
    "read_stream",
    "resolve_backend",
    "resolve_registry",
    "scenario_cache_key",
    "scenario_key",
    "scenario_record",
    "serve_registry",
    "stream_scenario_record",
    "summary_record",
    "sweep_precomputation",
]
