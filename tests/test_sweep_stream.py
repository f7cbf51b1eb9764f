"""Streaming sweep tests: flush-on-write, crash safety, resume identity.

The contract under test (see :mod:`repro.sweep.report` and
:meth:`repro.sweep.SweepRunner.run_stream`): every scenario record is a
flushed JSONL line readable *while the sweep is still running*; a
killed run leaves a valid prefix (a torn final line is dropped by the
reader); and resuming an interrupted stream executes exactly the
missing scenarios, yielding plan results identical to an uninterrupted
run — across every execution backend.
"""

import json
import os

import pytest

from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.sweep import (
    BACKEND_NAMES,
    SCHEMA_VERSION,
    Scenario,
    StreamWriter,
    SweepReport,
    SweepRunner,
    WorkerServer,
    expand_grid,
    read_stream,
    scenario_cache_key,
    scenario_key,
)
from repro.utils.errors import DataError, PlanningError

BASE = PlannerConfig(k=6, max_iterations=120, seed_count=80)

GRID = {
    "w": [0.3, 0.5, 0.7],
    "method": ["eta-pre", "vk-tsp"],
}


def plan_fields(record):
    """The deterministic plan content of a stream record (timings excluded)."""
    return [
        {k: v for k, v in result.items() if k != "runtime_s"}
        for result in record["results"]
    ]


@pytest.fixture(scope="module")
def grid_scenarios():
    return expand_grid(GRID, city="chicago", profile="tiny")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One warm artifact cache shared by every streaming run here."""
    return str(tmp_path_factory.mktemp("stream-cache"))


def make_runner(cache_dir, backend="serial", workers=1, addresses=None):
    return SweepRunner(
        base_config=BASE, cache_dir=cache_dir, workers=workers,
        backend=backend, addresses=addresses,
    )


@pytest.fixture(scope="module")
def worker_addresses(cache_dir):
    """Two live worker daemons for the remote-backend parametrizations."""
    servers = [WorkerServer(cache_dir=cache_dir) for _ in range(2)]
    for server in servers:
        server.start_in_thread()
    yield [f"{s.host}:{s.port}" for s in servers]
    for server in servers:
        server.shutdown()


@pytest.fixture(scope="module")
def reference_records(grid_scenarios, cache_dir, tmp_path_factory):
    """An uninterrupted serial streaming run: the identity oracle."""
    path = str(tmp_path_factory.mktemp("ref") / "ref.jsonl")
    run = make_runner(cache_dir).run_stream(grid_scenarios, path)
    return run.records


class TestStreamIsIncremental:
    """Acceptance: records are readable from the file mid-run."""

    def test_file_readable_after_every_record(self, grid_scenarios, cache_dir, tmp_path):
        path = str(tmp_path / "live.jsonl")
        seen = []

        def on_record(index, record):
            # Re-open and parse the stream *while the sweep is running*:
            # every committed prefix must already be valid JSONL.
            snapshot = read_stream(path)
            assert not snapshot.truncated
            assert snapshot.summary is None  # summary only after the last
            seen.append(len(snapshot.scenarios))

        run = make_runner(cache_dir).run_stream(
            grid_scenarios, path, on_record=on_record
        )
        assert seen == list(range(1, len(grid_scenarios) + 1))
        assert run.n_failed == 0

    def test_record_envelope(self, reference_records, grid_scenarios):
        for record, scenario in zip(reference_records, grid_scenarios):
            assert record["record"] == "scenario"
            assert record["schema"] == SCHEMA_VERSION
            assert record["key"] == scenario_key(scenario, BASE)
            assert record["cache_key"] == scenario_cache_key(scenario, BASE)
            assert record["name"] == scenario.name
            assert record["ok"] is True

    def test_terminal_summary(self, reference_records, cache_dir, tmp_path, grid_scenarios):
        path = str(tmp_path / "sum.jsonl")
        make_runner(cache_dir).run_stream(grid_scenarios, path)
        with open(path) as f:
            lines = [json.loads(l) for l in f if l.strip()]
        assert len(lines) == len(grid_scenarios) + 1
        summary = lines[-1]
        assert summary["record"] == "summary"
        assert summary["schema"] == SCHEMA_VERSION
        assert summary["n_scenarios"] == len(grid_scenarios)
        assert summary["n_ok"] == len(grid_scenarios)
        assert summary["n_failed"] == 0
        assert summary["cache"]["entries"] >= 1


class TestCrashSafetyAndResume:
    """Kill a sweep mid-grid; the prefix is valid and resume finishes it."""

    def _interrupt_after(self, monkeypatch, n_calls):
        """Make the (in-process) execution die after ``n_calls`` scenarios."""
        import repro.sweep.backends as backends_mod

        real = backends_mod.execute_scenario
        calls = {"n": 0}

        def dying(scenario, base_config=None, cache_dir=None):
            if calls["n"] >= n_calls:
                raise KeyboardInterrupt("simulated mid-grid kill")
            calls["n"] += 1
            return real(scenario, base_config, cache_dir)

        monkeypatch.setattr(backends_mod, "execute_scenario", dying)

    def test_killed_run_leaves_valid_prefix_and_resume_completes(
        self, grid_scenarios, cache_dir, tmp_path, monkeypatch, reference_records
    ):
        path = str(tmp_path / "killed.jsonl")
        self._interrupt_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            make_runner(cache_dir).run_stream(grid_scenarios, path)
        monkeypatch.undo()

        # The stream holds exactly the scenarios that committed: a valid
        # JSONL prefix, no summary record.
        partial = read_stream(path)
        assert len(partial.scenarios) == 2
        assert partial.summary is None
        assert not partial.truncated

        resumed = []
        run = make_runner(cache_dir).run_stream(
            grid_scenarios, path, resume=True,
            on_record=lambda i, rec: resumed.append(rec["name"]),
        )
        # Exactly the missing scenarios ran; the committed two replayed.
        assert run.n_replayed == 2
        assert sorted(resumed) == sorted(
            s.name for s in grid_scenarios[2:]
        )
        # Final result set identical to the uninterrupted run.
        assert [plan_fields(r) for r in run.records] == [
            plan_fields(r) for r in reference_records
        ]
        final = read_stream(path)
        assert len(final.scenarios) == len(grid_scenarios)
        assert final.summary["n_ok"] == len(grid_scenarios)
        assert final.summary["n_replayed"] == 2

    def test_torn_tail_is_dropped_and_rerun(
        self, grid_scenarios, cache_dir, tmp_path, reference_records
    ):
        path = str(tmp_path / "torn.jsonl")
        runner = make_runner(cache_dir)
        runner.run_stream(grid_scenarios[:3], path)
        # Simulate a kill mid-write: drop the summary, tear the last
        # scenario record in half (no trailing newline).
        with open(path) as f:
            lines = f.read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(lines[:-2]) + "\n")
            f.write(lines[-2][: len(lines[-2]) // 2])

        snapshot = read_stream(path)
        assert snapshot.truncated
        assert len(snapshot.scenarios) == 2

        run = runner.run_stream(grid_scenarios, path, resume=True)
        assert run.n_replayed == 2  # the torn third record did not count
        final = read_stream(path)
        assert not final.truncated
        assert len(final.scenarios) == len(grid_scenarios)
        assert [plan_fields(r) for r in run.records] == [
            plan_fields(r) for r in reference_records
        ]

    def test_resume_of_finished_stream_runs_nothing(
        self, grid_scenarios, cache_dir, tmp_path
    ):
        path = str(tmp_path / "done.jsonl")
        runner = make_runner(cache_dir)
        first = runner.run_stream(grid_scenarios, path)
        again = runner.run_stream(grid_scenarios, path, resume=True)
        assert again.n_replayed == len(grid_scenarios)
        assert all(outcome is None for outcome in again.outcomes)
        assert [plan_fields(r) for r in again.records] == [
            plan_fields(r) for r in first.records
        ]

    def test_resume_without_file_is_fresh_run(
        self, grid_scenarios, cache_dir, tmp_path
    ):
        path = str(tmp_path / "fresh.jsonl")
        run = make_runner(cache_dir).run_stream(
            grid_scenarios, path, resume=True
        )
        assert run.n_replayed == 0
        assert read_stream(path).summary is not None

    def test_resume_to_stdout_rejected(self, grid_scenarios, cache_dir):
        with pytest.raises(PlanningError, match="stdout"):
            make_runner(cache_dir).run_stream(
                grid_scenarios, "-", resume=True
            )


class TestResumeKeying:
    def test_rename_does_not_invalidate(self):
        a = Scenario(name="w=0.3", overrides={"w": 0.3})
        b = Scenario(name="renamed", overrides={"w": 0.3})
        assert scenario_key(a, BASE) == scenario_key(b, BASE)

    def test_resume_keeps_the_names_of_duplicate_points(
        self, cache_dir, tmp_path
    ):
        scenarios = [
            Scenario(name="first", overrides={"w": 0.4}),
            Scenario(name="second", overrides={"w": 0.4}),
            Scenario(name="third", overrides={"w": 0.6}),
        ]
        names = ["first", "second", "third"]
        path = str(tmp_path / "duplicates.jsonl")
        runner = make_runner(cache_dir)
        first = runner.run_stream(scenarios, path)
        assert [r["name"] for r in first.records] == names
        resumed = runner.run_stream(scenarios, path, resume=True)
        assert resumed.n_replayed == 3
        assert [r["name"] for r in resumed.records] == names
        report = SweepReport.from_records(resumed.records)
        assert [s["name"] for s in report.scenarios] == names

    def test_config_change_invalidates(self):
        s = Scenario(name="s", overrides={"w": 0.3})
        assert scenario_key(s, BASE) != scenario_key(s, BASE.variant(k=7))
        assert scenario_key(s, BASE) != scenario_key(
            Scenario(name="s", overrides={"w": 0.4}), BASE
        )

    def test_changed_base_config_forces_rerun(
        self, grid_scenarios, cache_dir, tmp_path
    ):
        path = str(tmp_path / "rebase.jsonl")
        make_runner(cache_dir).run_stream(grid_scenarios[:2], path)
        bumped = SweepRunner(
            base_config=BASE.variant(max_iterations=121),
            cache_dir=cache_dir, workers=1, backend="serial",
        )
        run = bumped.run_stream(grid_scenarios[:2], path, resume=True)
        assert run.n_replayed == 0  # keys changed with the config

    def test_retry_failures_reruns_exactly_the_failures(
        self, cache_dir, tmp_path
    ):
        scenarios = expand_grid({"w": [0.3, 0.6]}) + [
            Scenario(
                name="doomed",
                constraints=PlanningConstraints(anchor_stop=999_999),
            ),
        ]
        path = str(tmp_path / "fail.jsonl")
        runner = make_runner(cache_dir, backend="sharded")
        first = runner.run_stream(scenarios, path)
        assert first.n_failed == 1

        # Plain resume replays the failure record: it is committed work.
        replayed = runner.run_stream(scenarios, path, resume=True)
        assert replayed.n_replayed == 3
        assert replayed.n_failed == 1

        # --retry-failures re-executes only the failed scenario.
        retried = runner.run_stream(
            scenarios, path, resume=True, retry_failures=True
        )
        assert retried.n_replayed == 2
        assert retried.outcomes[2] is not None
        assert not retried.outcomes[2].ok

    def test_retry_failures_without_resume_raises(self, cache_dir, tmp_path):
        # Regression: the combination used to be silently ignored (the
        # retry branch only runs under resume), reading as "failures
        # were retried" when nothing of the sort ran.
        runner = make_runner(cache_dir)
        path = str(tmp_path / "guard.jsonl")
        with pytest.raises(PlanningError, match="requires resume"):
            runner.run_stream(
                expand_grid({"w": [0.3]}), path, retry_failures=True
            )
        # The guard fires before the stream file is touched.
        assert not os.path.exists(path)


class TestCrossBackendResumeIdentity:
    """Acceptance: interrupt + resume is bit-identical on all backends —
    including ``remote``, which runs against two live worker daemons."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_resumed_equals_uninterrupted(
        self, backend, grid_scenarios, cache_dir, tmp_path,
        reference_records, worker_addresses,
    ):
        path = str(tmp_path / f"{backend}.jsonl")
        remote = backend == "remote"
        runner = make_runner(
            cache_dir, backend=backend,
            workers=None if remote else 2,  # remote: parallelism = addresses
            addresses=worker_addresses if remote else None,
        )
        # "Interrupt" after half the grid: stream only a prefix, drop
        # the summary so the file looks exactly like a killed run.
        runner.run_stream(grid_scenarios[:3], path)
        with open(path) as f:
            lines = f.read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(lines[:-1]) + "\n")

        run = runner.run_stream(grid_scenarios, path, resume=True)
        assert run.n_replayed == 3
        assert [plan_fields(r) for r in run.records] == [
            plan_fields(r) for r in reference_records
        ]


class TestReadStream:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_stream(str(tmp_path / "absent.jsonl"))

    def test_missing_file_ok_reads_as_empty_stream(self, tmp_path):
        parsed = read_stream(str(tmp_path / "absent.jsonl"), missing_ok=True)
        assert parsed.scenarios == []
        assert parsed.summary is None
        assert parsed.valid_bytes == 0
        assert not parsed.truncated

    def test_writer_resume_at_missing_file_starts_fresh(self, tmp_path):
        # The race the unconditional-resume wrapper can hit: the file
        # vanished (or never existed) between read_stream and the
        # writer's r+ open. A fresh stream, not a FileNotFoundError.
        path = tmp_path / "gone.jsonl"
        with StreamWriter(str(path), resume_at=0) as writer:
            writer.write_record({"record": "heartbeat"})
        assert json.loads(path.read_text())["record"] == "heartbeat"

    def test_line_by_line_parity_with_blank_lines_and_torn_tail(
        self, tmp_path
    ):
        # The streaming parser must apply the same commit rule as the
        # old slurping one: blank lines skipped but committed, torn
        # tail dropped and excluded from valid_bytes.
        path = tmp_path / "mixed.jsonl"
        body = (
            json.dumps({"record": "summary", "n_ok": 1}) + "\n"
            + "\n"
            + json.dumps({"record": "heartbeat"}) + "\n"
        )
        path.write_text(body + '{"torn": ')
        parsed = read_stream(str(path))
        assert parsed.truncated
        assert parsed.valid_bytes == len(body.encode())
        assert parsed.summary == {"record": "summary", "n_ok": 1}

    def test_mid_file_garbage_raises(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text('not json\n{"record": "summary", "n_ok": 0}\n')
        with pytest.raises(DataError, match="line 1"):
            read_stream(str(path))

    def test_corrupt_stream_closes_the_handle(self, tmp_path, monkeypatch):
        # Regression: the DataError path used to exit read_stream with
        # the file object still open (the RPR004 finding) — a resuming
        # parent that catches the error and retries would leak one fd
        # per attempt.
        import builtins

        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        opened = []
        real_open = builtins.open

        def spy(*args, **kwargs):
            f = real_open(*args, **kwargs)
            opened.append(f)
            return f

        monkeypatch.setattr(builtins, "open", spy)
        with pytest.raises(DataError):
            read_stream(str(path))
        assert opened
        assert all(f.closed for f in opened)

    def test_happy_path_closes_the_handle(self, tmp_path, monkeypatch):
        import builtins

        path = tmp_path / "ok.jsonl"
        path.write_text(json.dumps({"record": "summary", "n_ok": 0}) + "\n")
        opened = []
        real_open = builtins.open

        def spy(*args, **kwargs):
            f = real_open(*args, **kwargs)
            opened.append(f)
            return f

        monkeypatch.setattr(builtins, "open", spy)
        read_stream(str(path))
        assert opened
        assert all(f.closed for f in opened)

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"record": "scenario", "schema": 999, "key": "k"}) + "\n"
        )
        with pytest.raises(DataError, match="schema 999"):
            read_stream(str(path))

    def test_unknown_record_kind_skipped(self, tmp_path):
        path = tmp_path / "forward.jsonl"
        path.write_text(
            json.dumps({"record": "heartbeat", "t": 1}) + "\n"
            + json.dumps({"record": "summary", "n_ok": 0}) + "\n"
        )
        parsed = read_stream(str(path))
        assert parsed.scenarios == []
        assert parsed.summary == {"record": "summary", "n_ok": 0}
        assert parsed.valid_bytes == path.stat().st_size

    def test_writer_resume_at_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "tail.jsonl"
        path.write_text('{"record": "summary", "n_ok": 0}\n{"torn')
        parsed = read_stream(str(path))
        with StreamWriter(str(path), resume_at=parsed.valid_bytes) as writer:
            writer.write_record({"record": "heartbeat"})
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)
