"""Structured sweep results: JSON documents and streaming JSONL.

:class:`SweepReport` turns a list of
:class:`~repro.sweep.runner.ScenarioOutcome` into a stable, fully
JSON-serializable document — one record per scenario (config, cache
accounting, timings, per-route plan results, or the failure), plus
sweep-level metadata (backend, worker count, cache totals). The CLI's
``repro sweep --json out.json`` / ``--format json`` and the benchmark
suite's JSON exports both render through here, so the schema only has
to be kept stable in one place.

:class:`StreamWriter` is the incremental sibling: an append-only JSONL
stream with one flushed line per scenario *as it finishes* (``repro
sweep --stream out.jsonl``), a terminal ``summary`` record carrying the
same header fields as :class:`SweepReport`, and a reader
(:func:`read_stream`) that tolerates the torn final line an interrupted
run leaves behind. Both formats share :data:`SCHEMA_VERSION` — exported
from :mod:`repro.sweep` — so downstream consumers check compatibility
against one constant. Stream records additionally carry the
``(key, cache_key)`` pair — scenario identity and precompute-artifact
identity — which is what :meth:`repro.sweep.SweepRunner.run_stream`
matches on to make interrupted sweeps resumable.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from repro.core.result import PlanResult
from repro.utils.errors import DataError, ValidationError
from repro.utils.fsio import atomic_write_text
from repro.utils.wire import Record, from_wire, to_wire

SCHEMA_VERSION = 1
"""Bump on backwards-incompatible changes to the report/stream layout.

Shared by :class:`SweepReport` documents and :class:`StreamWriter`
records (the single source of truth; re-exported as
``repro.sweep.SCHEMA_VERSION``).
"""

RECORD_SCENARIO = "scenario"
RECORD_SUMMARY = "summary"

_STREAM_ENVELOPE = ("record", "schema", "key", "cache_key")
"""Stream-only fields wrapped around a plain :func:`scenario_record`."""


def _result_record(result) -> dict:
    """One plan result as a flat JSON-safe dict."""
    record = dict(result.summary())
    route = result.route
    record["found"] = route is not None
    if route is not None:
        record["stops"] = list(route.stops)
        record["length_km"] = round(route.length_km, 6)
        record["turns"] = route.turns
    return record


@dataclass(frozen=True)
class ScenarioRecord(Record):
    """One scenario's report record (see :func:`scenario_record`).

    Encoded and decoded by :mod:`repro.utils.wire`. Besides the field
    types, it refuses an ``ok`` that disagrees with ``error``: a failed
    scenario carries its error, a successful one none.
    """

    name: str
    city: str
    profile: str
    method: str
    route_count: int
    seed: "int | None"
    overrides: dict
    constraints: "dict | None"
    ok: bool
    error: "str | None"
    cache_hit: "bool | None"
    worker: "str | None"
    precompute_s: float
    total_s: float
    results: "tuple[dict, ...]"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ok != (self.error is None):
            raise ValidationError(
                f"field 'ok' is {self.ok} but field 'error' is "
                f"{self.error!r}; 'ok' must be true exactly when "
                f"'error' is null"
            )


def scenario_record(outcome) -> dict:
    """One :class:`ScenarioOutcome` as a JSON-safe dict.

    Failed scenarios carry ``ok: false`` and their ``error`` string with
    an empty ``results`` list — downstream tooling always sees every
    scenario it asked for, succeeded or not.
    """
    scenario = outcome.scenario
    return to_wire(ScenarioRecord(
        name=scenario.name,
        city=scenario.city,
        profile=scenario.profile,
        method=scenario.method,
        route_count=scenario.route_count,
        seed=scenario.seed,
        overrides=dict(scenario.overrides),
        constraints=(
            None if scenario.constraints is None
            else to_wire(scenario.constraints)
        ),
        ok=outcome.ok,
        error=outcome.error,
        cache_hit=outcome.cache_hit,
        worker=outcome.worker,
        precompute_s=round(float(outcome.precompute_s), 6),
        total_s=round(float(outcome.total_s), 6),
        results=tuple(_result_record(r) for r in outcome.results),
    ))


def _cache_block(cache_dir, hits: int, misses: int) -> "dict | None":
    """The report's cache section: sweep hit/miss counts + disk totals."""
    if not cache_dir:
        return None
    from repro.sweep.cache import PrecomputationCache

    store = PrecomputationCache(cache_dir)
    return {
        "dir": str(cache_dir),
        "hits": hits,
        "misses": misses,
        "entries": store.n_entries,
        "total_bytes": store.total_bytes,
    }


@dataclass
class SweepReport:
    """A serialized sweep: per-scenario records + sweep-level metadata."""

    scenarios: list = field(default_factory=list)
    backend: "str | None" = None
    workers: "int | None" = None
    cache: "dict | None" = None

    @classmethod
    def from_outcomes(
        cls,
        outcomes,
        backend: "str | None" = None,
        workers: "int | None" = None,
        cache_dir: "str | None" = None,
    ) -> "SweepReport":
        """Build a report from runner outcomes.

        :meth:`from_records` over each outcome's :func:`scenario_record`,
        so a report and a stream of the same sweep cannot drift.
        """
        return cls.from_records(
            [scenario_record(o) for o in outcomes],
            backend=backend,
            workers=workers,
            cache_dir=cache_dir,
        )

    @classmethod
    def from_records(
        cls,
        records,
        backend: "str | None" = None,
        workers: "int | None" = None,
        cache_dir: "str | None" = None,
    ) -> "SweepReport":
        """Build a report from scenario records, plain or streamed.

        The stream envelope fields (``record``/``schema``/``key``/
        ``cache_key``) are stripped, which is how a resumed ``--stream``
        sweep still serves ``--json``. ``cache_dir`` (when caching was
        on) adds hit/miss counts from the records plus the directory's
        current entry count and byte size.
        """
        scenarios = [
            {k: v for k, v in rec.items() if k not in _STREAM_ENVELOPE}
            for rec in records
        ]
        cache = _cache_block(
            cache_dir,
            hits=sum(1 for r in records if r.get("cache_hit") is True),
            misses=sum(1 for r in records if r.get("cache_hit") is False),
        )
        return cls(
            scenarios=scenarios, backend=backend, workers=workers, cache=cache
        )

    # ------------------------------------------------------------------
    @property
    def n_failed(self) -> int:
        return sum(1 for s in self.scenarios if not s["ok"])

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "n_scenarios": len(self.scenarios),
            "n_ok": len(self.scenarios) - self.n_failed,
            "n_failed": self.n_failed,
            "backend": self.backend,
            "workers": self.workers,
            "cache": self.cache,
            "scenarios": self.scenarios,
        }

    def to_json(self, indent: "int | None" = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str) -> None:
        """Write the JSON document to ``path`` (trailing newline included).

        Atomic (stage + rename): re-exporting over an existing report
        must never leave a torn document where a complete one was.
        """
        atomic_write_text(path, self.to_json() + "\n")


# ----------------------------------------------------------------------
# Streaming results: JSONL, one flushed record per scenario
# ----------------------------------------------------------------------
def stream_scenario_record(
    outcome, key: "str | None" = None, cache_key: "str | None" = None
) -> dict:
    """A :func:`scenario_record` wrapped in the stream envelope.

    ``key`` is the :func:`~repro.sweep.scenario.scenario_key` this
    record commits; ``cache_key`` the content-addressed precompute key.
    Resume matches on both, so a record survives renames but not config
    or dataset-content changes.
    """
    return {
        "record": RECORD_SCENARIO,
        "schema": SCHEMA_VERSION,
        "key": key,
        "cache_key": cache_key,
        **scenario_record(outcome),
    }


def summary_record(
    records,
    backend: "str | None" = None,
    workers: "int | None" = None,
    cache_dir: "str | None" = None,
    n_replayed: int = 0,
) -> dict:
    """The stream's terminal record: the :class:`SweepReport` header.

    Carries the same fields as :meth:`SweepReport.to_dict` minus the
    per-scenario list (those are the preceding lines), plus
    ``n_replayed`` — how many records a resumed run took over from the
    prior stream instead of re-executing.
    """
    doc = SweepReport.from_records(
        records, backend=backend, workers=workers, cache_dir=cache_dir
    ).to_dict()
    doc.pop("scenarios")
    return {"record": RECORD_SUMMARY, "n_replayed": int(n_replayed), **doc}


# ----------------------------------------------------------------------
# The outcome payload: a lossless ScenarioOutcome on the wire
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OutcomeRecord(ScenarioRecord):
    """A :class:`ScenarioOutcome` as one wire payload.

    Encoded and decoded by :mod:`repro.utils.wire`. The payload is a
    :class:`ScenarioRecord` (so transports and humans read it like any
    stream line) plus ``schema`` and ``results_wire``, the lossless twin
    of ``results``: every :class:`PlanResult` field at full precision —
    JSON floats round-trip exactly — so a rebuilt result is
    bit-identical to the original. ``precomputation`` never travels
    (same rule as worker processes in the pool backends).

    Some inherited fields are write-only: they travel for whoever reads
    the payload as a stream record, and :meth:`outcome` does not use
    them. The scenario's identity (``name`` to ``constraints``) is
    rebuilt by the parent from its own resolved Scenario, ``ok`` is
    ``error is None``, and ``results`` is the rounded report form of
    ``results_wire``.
    """

    schema: int
    results_wire: "tuple[PlanResult, ...]"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.schema != SCHEMA_VERSION:
            raise DataError(
                f"wire outcome record has schema {self.schema!r}; "
                f"this build speaks schema {SCHEMA_VERSION}"
            )

    @classmethod
    def of(cls, outcome) -> "OutcomeRecord":
        return cls(
            **scenario_record(outcome),
            schema=SCHEMA_VERSION,
            results_wire=outcome.results,
        )

    def outcome(self, scenario):
        """The live :class:`ScenarioOutcome` this payload describes.

        ``scenario`` is the parent's own resolved :class:`Scenario` for
        this grid position — the wire carries only its spec, and reusing
        the parent's instance keeps ``outcome.scenario`` identity stable
        for downstream consumers (stream keying, tables).
        """
        from repro.sweep.runner import ScenarioOutcome

        return ScenarioOutcome(
            scenario=scenario,
            results=self.results_wire,
            cache_hit=self.cache_hit,
            precompute_s=self.precompute_s,
            total_s=self.total_s,
            error=self.error,
            # Workers do not know the address they serve on as the
            # parent sees it; the remote backend's driver stamps the
            # authoritative value right after this rebuild.
            worker=self.worker,
        )


class StreamWriter:
    """Append-only JSONL sweep stream; every record is flushed on write.

    One line per record: ``scenario`` records as scenarios finish, then
    one terminal ``summary`` record. ``path="-"`` streams to stdout.
    ``resume_at`` (a byte offset from :attr:`StreamRecords.valid_bytes`)
    reopens an existing file, truncates the torn tail an interrupted run
    may have left, and appends — the committed prefix is never
    rewritten. A resume against a path with no file yet (the first
    invocation of an unconditional ``--resume`` wrapper, or a file
    deleted since it was read) simply starts a fresh stream instead of
    failing on the ``r+`` open. Because each line is written and flushed
    atomically from the parent process, a reader (or a crash) mid-run
    observes a valid JSONL prefix, which is exactly what
    :func:`read_stream` consumes.
    """

    def __init__(self, path: str, resume_at: "int | None" = None):
        self.path = str(path)
        self.n_written = 0
        if self.path == "-":
            self._fh = sys.stdout
            self._owns = False
        elif resume_at is not None:
            try:
                self._fh = open(self.path, "r+")
                self._fh.seek(resume_at)
                self._fh.truncate()
            except FileNotFoundError:
                self._fh = open(self.path, "w")
            self._owns = True
        else:
            self._fh = open(self.path, "w")
            self._owns = True

    # ------------------------------------------------------------------
    def write_record(self, record: dict) -> dict:
        """Serialize ``record`` as one line and flush it; returns it."""
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        self.n_written += 1
        return record

    def write_scenario(
        self, outcome, key: "str | None" = None, cache_key: "str | None" = None
    ) -> dict:
        return self.write_record(stream_scenario_record(outcome, key, cache_key))

    def write_summary(self, records, **kwargs) -> dict:
        return self.write_record(summary_record(records, **kwargs))

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class StreamRecords:
    """Parsed contents of a sweep stream file (see :func:`read_stream`)."""

    scenarios: list = field(default_factory=list)
    """Scenario records in file order (duplicates from resumes kept)."""
    summary: "dict | None" = None
    """The last ``summary`` record, or ``None`` for an interrupted run."""
    truncated: bool = False
    """Whether a torn (unparseable) final line was dropped."""
    valid_bytes: int = 0
    """Byte offset after the last complete record — resume appends here."""

    @property
    def committed(self) -> dict:
        """``key -> record`` for keyed scenario records (last one wins)."""
        return {
            rec["key"]: rec
            for rec in self.scenarios
            if rec.get("key") is not None
        }


def read_stream(path: str, missing_ok: bool = False) -> StreamRecords:
    """Parse a sweep stream file, tolerating an interrupted tail.

    The file is consumed **line by line** — memory stays proportional
    to the longest record, not the file, so the multi-GB streams a
    long resumable sweep accumulates never spike the parent.

    Commit rule: only newline-terminated lines are committed (the
    writer flushes each record and its newline together). An
    unterminated tail is the signature of a killed run: it is dropped
    (``truncated=True``) and excluded from ``valid_bytes``, so a resume
    overwrites it in place. A *terminated* line that is not valid JSON,
    a scenario record whose ``schema`` does not match
    :data:`SCHEMA_VERSION`, or one whose other fields do not decode as a
    :class:`ScenarioRecord` (a missing ``ok``, a string where a bool
    belongs, an ``ok`` that disagrees with ``error``) or whose ``key``
    or ``cache_key`` is neither a string nor null raises
    :class:`DataError` naming the file and line — those are corruption
    or incompatibility, not interruption, and ``--resume`` must not
    replay them. Record kinds other than ``scenario``/``summary`` are
    skipped for forward compatibility.

    A stream with scenario records but **no** ``summary``
    (``summary is None``) is an *interrupted* run, not a corrupt one —
    a fail-fast abort or a kill commits the finished scenarios and
    nothing else. Its committed records are full-fledged resume
    currency: ``--resume`` replays them and executes the rest.

    With ``missing_ok=True`` a path with no file reads as an empty
    stream (no records, ``valid_bytes=0``) instead of raising — the
    "resume before any run" case, which callers treat as a fresh start.
    """
    out = StreamRecords()
    try:
        f = open(path, "rb")
    except FileNotFoundError:
        if missing_ok:
            return out
        raise DataError(f"stream file not found: {path!r}") from None
    try:
        lineno = 0
        for line in f:
            lineno += 1
            if not line.endswith(b"\n"):
                # Unterminated tail: a torn final write, never committed.
                out.truncated = True
                break
            out.valid_bytes += len(line)
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
            except (ValueError, UnicodeDecodeError) as exc:
                raise DataError(
                    f"stream file {path!r} line {lineno} is not a JSON "
                    f"record: {exc}"
                ) from None
            kind = record.get("record")
            if kind == RECORD_SCENARIO:
                schema = record.get("schema")
                if schema != SCHEMA_VERSION:
                    raise DataError(
                        f"stream file {path!r} line {lineno} has schema "
                        f"{schema!r}; this build reads schema {SCHEMA_VERSION}"
                    )
                try:
                    from_wire(ScenarioRecord, {
                        k: v for k, v in record.items()
                        if k not in _STREAM_ENVELOPE
                    })
                    for name in ("key", "cache_key"):
                        value = record.get(name)
                        if not isinstance(value, (str, type(None))):
                            raise DataError(
                                f"field {name!r} must be a string or null, "
                                f"got {value!r:.60}"
                            )
                except DataError as exc:
                    raise DataError(
                        f"stream file {path!r} line {lineno}: {exc}"
                    ) from None
                out.scenarios.append(record)
            elif kind == RECORD_SUMMARY:
                out.summary = record
    finally:
        f.close()
    return out
