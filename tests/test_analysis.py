"""Tests for the ``repro.analysis`` static-analysis suite.

Framework units (project loading, suppressions, registry, engine) plus
per-rule positive/negative runs against the fixture trees under
``tests/fixtures/analysis/`` — each violation fixture must produce the
rule's finding at a pinned ``file:line``, and each clean fixture must
produce none.
"""

import ast
import os
import shutil
import textwrap
import types

import pytest

from repro.analysis import (
    AnalysisRun,
    Severity,
    all_rules,
    get_rule,
    load_project,
    register_rule,
    run_check,
)
from repro.analysis.astutil import import_aliases, resolve_call, walk_calls
from repro.analysis.base import Rule
from repro.analysis.engine import render_text, select_rules
from repro.analysis.suppressions import scan_suppressions
from repro.utils.errors import DataError, ValidationError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "analysis")

#: Single files of the RPR011 violation tree: two findings with two
#: keys, and three findings sharing one key.
LOCKS_BAD = os.path.join("rpr011_violation", "fabric", "locks_bad.py")
COUNTER_BAD = os.path.join("rpr011_violation", "fabric", "counter_bad.py")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def check(name: str, **kwargs) -> AnalysisRun:
    return run_check(fixture(name), **kwargs)


def locations(run: AnalysisRun) -> "list[tuple[str, str, int]]":
    return [(f.code, f.path, f.line) for f in run.findings]


class TestRegistry:
    def test_all_rules_catalog(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        for expected in ("RPR001", "RPR004", "RPR005", "RPR011"):
            assert expected in codes

    def test_rules_carry_metadata(self):
        for rule in all_rules():
            assert rule.name and rule.summary
            assert rule.severity in (Severity.ERROR, Severity.WARNING)

    def test_get_rule_unknown_code(self):
        with pytest.raises(ValidationError, match="unknown rule code"):
            get_rule("RPR999")

    def test_register_rejects_malformed_code(self):
        with pytest.raises(ValidationError, match="does not match"):
            @register_rule
            class Bad(Rule):
                code = "XYZ1"
                name = "bad"
                summary = "bad"

    def test_register_rejects_duplicate_code(self):
        with pytest.raises(ValidationError, match="already registered"):
            @register_rule
            class Clash(Rule):
                code = "RPR001"
                name = "clash"
                summary = "clash"

    def test_register_requires_name_and_summary(self):
        with pytest.raises(ValidationError, match="name and summary"):
            @register_rule
            class Nameless(Rule):
                code = "RPR998"


class TestProjectLoading:
    def test_missing_root_raises(self):
        with pytest.raises(DataError):
            load_project(os.path.join(FIXTURES, "does_not_exist"))

    def test_syntax_error_raises_data_error(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        with pytest.raises(DataError, match="broken.py"):
            load_project(str(tmp_path))

    def test_relpaths_are_posix(self):
        ctx = load_project(fixture("rpr001_violation"))
        assert list(ctx.modules) == ["core/seeding_bad.py"]

    def test_parents_attached(self):
        ctx = load_project(fixture("rpr001_violation"))
        module = ctx.get("core/seeding_bad.py")
        call = next(walk_calls(module.tree))
        assert hasattr(call, "parent")


class TestSelectRules:
    def test_default_is_all(self):
        assert [r.code for r in select_rules()] == [
            r.code for r in all_rules()
        ]

    def test_select_is_case_insensitive(self):
        assert [r.code for r in select_rules(select=["rpr004"])] == ["RPR004"]

    def test_ignore_removes(self):
        codes = [r.code for r in select_rules(ignore=["RPR001", "rpr004"])]
        assert "RPR001" not in codes and "RPR004" not in codes
        assert "RPR005" in codes

    def test_unknown_code_raises(self):
        with pytest.raises(ValidationError):
            select_rules(select=["RPR999"])
        with pytest.raises(ValidationError):
            select_rules(ignore=["RPR999"])


class TestRPR001Determinism:
    def test_violations_pinned(self):
        run = check("rpr001_violation", select=["RPR001"])
        assert locations(run) == [
            ("RPR001", "core/seeding_bad.py", 10),
            ("RPR001", "core/seeding_bad.py", 14),
            ("RPR001", "core/seeding_bad.py", 18),
        ]
        messages = " ".join(f.message for f in run.findings)
        assert "random.random()" in messages
        assert "numpy.random.rand()" in messages
        assert "time.time()" in messages

    def test_clean_tree(self):
        assert check("rpr001_clean").findings == []

    def test_errors_fail_without_strict(self):
        run = check("rpr001_violation", select=["RPR001"])
        assert run.failed(strict=False)


class TestRPR004ResourceSafety:
    def test_happy_path_close_is_not_ownership(self):
        run = check("rpr004_violation", select=["RPR004"])
        assert locations(run) == [("RPR004", "sweep/leaky.py", 12)]
        assert "no provable owner" in run.findings[0].message
        assert run.findings[0].severity is Severity.WARNING

    def test_ownership_shapes_are_clean(self):
        # with-block, return-transfer, self.attr + close method,
        # try/finally, and cleanup-on-failure + transfer.
        assert check("rpr004_clean").findings == []

    def test_warnings_fail_only_under_strict(self):
        run = check("rpr004_violation", select=["RPR004"])
        assert not run.failed(strict=False)
        assert run.failed(strict=True)


class TestRPR005AtomicWrites:
    def test_bare_truncating_write_pinned(self):
        run = check("rpr005_violation", select=["RPR005"])
        assert locations(run) == [("RPR005", "sweep/writer_bad.py", 7)]
        assert "atomic_write_text" in run.findings[0].message

    def test_staging_idiom_is_clean(self):
        assert check("rpr005_clean").findings == []


class TestSuppressions:
    def test_matched_suppression_silences_finding(self):
        run = check("suppressed")
        assert run.findings == []

    def test_stale_suppression_becomes_rpr900(self):
        run = check("stale_suppression")
        assert locations(run) == [("RPR900", "sweep/fine.py", 5)]
        finding = run.findings[0]
        assert finding.severity is Severity.WARNING
        assert "matched no finding" in finding.message
        assert not run.failed(strict=False)
        assert run.failed(strict=True)

    def test_docstring_mention_does_not_activate(self):
        source = '"""Docs say use ``# repro: ignore[RPR001]``."""\n'
        module = types.SimpleNamespace(relpath="m.py", source=source)
        index = scan_suppressions([module])
        assert index.by_location == {}

    def test_multi_code_comment_lowercase(self):
        source = "x = 1  # repro: ignore[rpr004, rpr005]\n"
        module = types.SimpleNamespace(relpath="m.py", source=source)
        index = scan_suppressions([module])
        supp = index.by_location[("m.py", 1)]
        assert supp.codes == ("RPR004", "RPR005")
        assert index.matches("m.py", 1, "RPR005")
        assert not index.matches("m.py", 1, "RPR001")
        assert index.unused() == []

    def test_suppression_is_line_scoped(self):
        source = "x = 1  # repro: ignore[RPR004]\n"
        module = types.SimpleNamespace(relpath="m.py", source=source)
        index = scan_suppressions([module])
        assert not index.matches("m.py", 2, "RPR004")


class TestEngine:
    def test_findings_sorted_and_stable(self):
        first = check("rpr001_violation")
        second = check("rpr001_violation")
        keys = [f.sort_key for f in first.findings]
        assert keys == sorted(keys)
        assert first.to_record() == second.to_record()

    def test_record_has_no_absolute_paths(self):
        run = check("rpr001_violation")
        record = run.to_record()
        assert record["n_findings"] == len(record["findings"])
        for entry in record["findings"]:
            assert not os.path.isabs(entry["path"])

    def test_render_text_summary(self):
        run = check("rpr001_clean")
        text = render_text(run)
        assert "checked 1 files" in text
        assert "0 error(s), 0 warning(s)" in text

    def test_render_text_notes_nonstrict_warnings(self):
        run = check("rpr004_violation", select=["RPR004"])
        assert "do not fail without --strict" in render_text(run)
        assert "do not fail" not in render_text(run, strict=True)

    def test_finding_render_format(self):
        run = check("rpr001_violation", select=["RPR001"])
        line = run.findings[0].render()
        assert line.startswith("core/seeding_bad.py:10:")
        assert "RPR001 error:" in line


class TestAstHelpers:
    def test_import_aliases_resolution(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                import numpy as np
                from datetime import datetime
                import time

                def f():
                    np.random.rand()
                    datetime.now()
                    time.monotonic()
                """
            )
        )
        aliases = import_aliases(tree)
        resolved = {resolve_call(c, aliases) for c in walk_calls(tree)}
        assert "numpy.random.rand" in resolved
        assert "datetime.datetime.now" in resolved
        assert "time.monotonic" in resolved


class TestRepoIsClean:
    def test_shipped_tree_has_zero_findings(self):
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        run = run_check(root)
        rendered = [f.render() for f in run.findings]
        assert rendered == []
        assert not run.failed(strict=True)

    def test_shipped_tree_has_zero_suppressions(self):
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        ctx = load_project(root)
        index = scan_suppressions(ctx.walk())
        assert index.by_location == {}


class TestRPR011BoxedState:
    def test_violations_pinned(self):
        run = check("rpr011_violation", select=["RPR011"])
        assert locations(run) == [
            ("RPR011", "fabric/client_bad.py", 21),
            ("RPR011", "fabric/client_bad.py", 26),
            ("RPR011", "fabric/counter_bad.py", 23),
            ("RPR011", "fabric/counter_bad.py", 26),
            ("RPR011", "fabric/counter_bad.py", 29),
            ("RPR011", "fabric/locks_bad.py", 26),
            ("RPR011", "fabric/locks_bad.py", 35),
            ("RPR011", "fabric/roster_bad.py", 19),
            ("RPR011", "fabric/roster_bad.py", 25),
            ("RPR011", "fabric/roster_bad.py", 31),
            ("RPR011", "fabric/roster_bad.py", 36),
        ]
        messages = [f.message for f in run.findings]
        assert "'recv', which blocks" in messages[0]
        assert "'self._pull', which is project code" in messages[1]
        assert all(
            "'EventCounter._count' is written outside the constructor" in m
            for m in messages[2:5]
        )
        assert "'self._grab_b', which is project code" in messages[5]
        assert "enters another box" in messages[6]
        assert "'threading.Lock()' builds a lock" in messages[7]
        assert "'workers' shares the record" in messages[8]
        assert "hands out its record" in messages[9]
        assert "'roster' shares the record" in messages[10]
        assert all(f.severity is Severity.ERROR for f in run.findings)
        assert run.failed(strict=False)

    def test_boxed_counter_twin_is_clean(self):
        # A thread handle bound late, a condition wait on the held box,
        # and scalars and copies taken out of a region.
        assert check("rpr011_clean").findings == []


class TestBoxedStateMutants:
    """Each mutant edits a copy of one shipped module and must be
    refused by RPR011; the unedited copy is clean.

    Together they replace the lock-model rules: an unguarded write
    from the heartbeat thread, state used after its region, nested
    regions and project calls in a region (the lock-order and blocking
    hazards), a lock built outside ``utils/guarded.py``, and a class
    outside the threaded modules that a threaded class owns.
    """

    PACKAGES = ("serve", "sweep", "utils")

    MUTANTS = {
        "heartbeat-unguarded-write": (
            "sweep/registry.py",
            [(
                "        with self._state as state:\n"
                "            state.last_error = error\n",
                "        self._last_error = error\n",
            )],
            "'Heartbeat._last_error' is written outside the constructor",
        ),
        "registry-prunes-after-region": (
            "sweep/registry.py",
            [(
                "        with self._roster as roster:\n"
                "            for key in [\n"
                "                k for k, (_, stamp) in roster.workers.items()"
                " if stamp < cutoff\n"
                "            ]:\n"
                "                del roster.workers[key]\n"
                "            return [record for record, _ in"
                " roster.workers.values()]\n",
                "        with self._roster as roster:\n"
                "            workers = roster.workers\n"
                "        for key in [\n"
                "            k for k, (_, stamp) in workers.items()"
                " if stamp < cutoff\n"
                "        ]:\n"
                "            del workers[key]\n"
                "        return [record for record, _ in"
                " workers.values()]\n",
            )],
            "'workers' shares the record of 'self._roster'",
        ),
        "work-queue-requeues-after-region": (
            "sweep/remote.py",
            [(
                "            state.active -= 1\n"
                "            if requeue:\n"
                "                state.pending.extend(requeue)\n"
                "            self._state.notify_all()\n",
                "            state.active -= 1\n"
                "            self._state.notify_all()\n"
                "        if requeue:\n"
                "            state.pending.extend(requeue)\n",
            )],
            "'state' shares the record of 'self._state'",
        ),
        "registry-nests-a-second-box": (
            "sweep/registry.py",
            [(
                "            roster.workers[record.key] = (stamped, now)\n",
                "            with self._peers as peers:\n"
                "                roster.workers[record.key] = (stamped, now)\n"
                "                peers.swept = False\n",
            )],
            "enters another box",
        ),
        "pool-calls-a-method-in-region": (
            "serve/pool.py",
            [(
                "            entry = state.entries.get(key)\n"
                "            if entry is not None:\n"
                "                state.entries.move_to_end(key)\n",
                "            entry = state.entries.get("
                "self.key_for(dataset, config))\n"
                "            if entry is not None:\n"
                "                state.entries.move_to_end(key)\n",
            )],
            "calls 'self.key_for', which is project code",
        ),
        "registry-sends-in-region": (
            "sweep/registry.py",
            [(
                "                roster.workers.pop(frame.key, None)\n"
                "            send_frame(conn, DeregisteredFrame())\n",
                "                roster.workers.pop(frame.key, None)\n"
                "                send_frame(conn, DeregisteredFrame())\n",
            )],
            "send_frame', which blocks",
        ),
        "plan-server-reads-pool-in-region": (
            "serve/server.py",
            [(
                "        \"\"\"The ``/stats`` document (frame ``stats`` op"
                " returns it too).\"\"\"\n",
                "        \"\"\"The ``/stats`` document (frame ``stats`` op"
                " returns it too).\"\"\"\n"
                "        with self.latency._state:\n"
                "            self.pool.stats()\n",
            )],
            "calls 'self.pool.stats', which is project code",
        ),
        "stats-builds-its-own-lock": (
            "serve/stats.py",
            [
                ("import math\n", "import math\nimport threading\n"),
                (
                    "        self._started = clock()\n",
                    "        self._started = clock()\n"
                    "        self._lock = threading.Lock()\n",
                ),
                (
                    "        with self._state as state:\n"
                    "            return state.count\n",
                    "        with self._lock:\n"
                    "            with self._state as state:\n"
                    "                return state.count\n",
                ),
            ],
            "'threading.Lock()' builds a lock outside utils/guarded.py",
        ),
        "plan-server-owns-a-threadless-counter": (
            "serve/server.py",
            [
                (
                    "from repro.serve.stats import LatencyReservoir\n",
                    "from repro.serve.stats import LatencyReservoir\n"
                    "from repro.serve.tally import Tally\n",
                ),
                (
                    "        self.latency = LatencyReservoir()\n",
                    "        self.latency = LatencyReservoir()\n"
                    "        self.tally = Tally()\n",
                ),
            ],
            "'Tally.n' is written outside the constructor",
        ),
    }

    TALLY = (
        "class Tally:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "\n"
        "    def bump(self):\n"
        "        self.n += 1\n"
    )

    def _shipped_copy(self, tmp_path):
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        for name in self.PACKAGES:
            shutil.copytree(
                os.path.join(root, name), tmp_path / name,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        # Only reachable through PlanServer: no threading import.
        (tmp_path / "serve" / "tally.py").write_text(self.TALLY)
        return tmp_path

    def test_unedited_copy_is_clean(self, tmp_path):
        tree = self._shipped_copy(tmp_path)
        assert run_check(str(tree), select=["RPR011"]).findings == []

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_is_refused(self, mutant, tmp_path, capsys):
        from repro.cli import main

        relpath, edits, expected = self.MUTANTS[mutant]
        tree = self._shipped_copy(tmp_path)
        path = tree / relpath
        source = path.read_text()
        for old, new in edits:
            assert source.count(old) == 1, f"{relpath} lost: {old!r}"
            source = source.replace(old, new)
        path.write_text(source)
        assert main(["check", str(tree), "--select", "RPR011"]) == 1
        out = capsys.readouterr().out
        assert "RPR011" in out
        assert expected in out


class TestSarif:
    def test_document_shape_and_levels(self):
        from repro.analysis.sarif import to_sarif

        run = check("rpr004_violation", select=["RPR004"])
        doc = to_sarif(run)
        assert doc["version"] == "2.1.0"
        (sarif_run,) = doc["runs"]
        rules = sarif_run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == ["RPR004"]
        assert rules[0]["defaultConfiguration"]["level"] == "warning"
        results = sarif_run["results"]
        assert len(results) == len(run.findings)
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        # SARIF columns are 1-based; Finding.col is 0-based.
        assert region["startColumn"] == run.findings[0].col + 1

    def test_round_trip(self):
        from repro.analysis.sarif import findings_from_sarif, to_sarif

        run = check("rpr011_violation", select=["RPR011"])
        assert findings_from_sarif(to_sarif(run)) == run.findings

    def test_deterministic(self):
        from repro.analysis.sarif import to_sarif

        first = to_sarif(check("rpr011_violation"))
        second = to_sarif(check("rpr011_violation"))
        assert first == second
        rules = first["runs"][0]["tool"]["driver"]["rules"]
        levels = {r["id"]: r["defaultConfiguration"]["level"] for r in rules}
        assert levels["RPR011"] == "error"

    def test_stale_suppression_rule_appended(self):
        from repro.analysis.sarif import to_sarif

        run = check("stale_suppression")
        assert any(f.code == "RPR900" for f in run.findings)
        doc = to_sarif(run)
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert rules[-1]["id"] == "RPR900"
        by_id = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert "RPR900" in by_id


class TestBaseline:
    def test_write_then_tolerate(self, tmp_path):
        from repro.analysis.baseline import (
            load_baseline,
            partition_findings,
            write_baseline,
        )

        run = check(LOCKS_BAD, select=["RPR011"])
        path = str(tmp_path / "baseline.json")
        assert write_baseline(run.findings, path) == 2
        new, old = partition_findings(
            run.findings, load_baseline(path)
        )
        assert new == []
        assert old == run.findings

    def test_new_finding_still_fails(self, tmp_path):
        from repro.analysis.baseline import (
            load_baseline,
            partition_findings,
            write_baseline,
        )

        run = check(LOCKS_BAD, select=["RPR011"])
        path = str(tmp_path / "baseline.json")
        write_baseline(run.findings[:1], path)
        new, old = partition_findings(
            run.findings, load_baseline(path)
        )
        assert old == run.findings[:1]
        assert new == run.findings[1:]

    def test_counted_duplicates(self, tmp_path):
        from repro.analysis.baseline import (
            load_baseline,
            partition_findings,
            write_baseline,
        )

        run = check(COUNTER_BAD, select=["RPR011"])
        # Lines 23/26/29 share one (code, path, message) key — the
        # baseline stores count=3 and absorbs exactly three.
        path = str(tmp_path / "baseline.json")
        assert write_baseline(run.findings, path) == 3
        baseline = load_baseline(path)
        assert sum(baseline.values()) == 3
        doubled = run.findings + run.findings[:1]
        new, old = partition_findings(doubled, baseline)
        assert len(old) == 3 and len(new) == 1

    def test_malformed_baseline_raises(self, tmp_path):
        from repro.analysis.baseline import load_baseline

        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_baseline(str(path))
        path.write_text('{"version": 99}')
        with pytest.raises(DataError, match="version"):
            load_baseline(str(path))

    def test_cli_baseline_flow(self, tmp_path, capsys):
        from repro.cli import main

        root = fixture(LOCKS_BAD)
        path = str(tmp_path / "baseline.json")
        assert main(["check", root, "--write-baseline", path]) == 0
        capsys.readouterr()
        assert main(["check", root, "--strict", "--baseline", path]) == 0
        out = capsys.readouterr().out
        assert "2 baselined finding(s) tolerated" in out
        assert main(["check", root, "--strict"]) == 1
