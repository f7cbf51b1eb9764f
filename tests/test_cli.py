"""Tests for the command-line interface."""

import json
import os
import shutil
import subprocess

import pytest

from repro.cli import build_parser, main
from repro.data.datasets import canned_city
from repro.spectral.bounds import path_upper_bound
from repro.spectral.connectivity import natural_connectivity_exact
from repro.spectral.eigs import top_k_eigenvalues


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_city_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--city", "gotham"])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.method == "eta-pre"
        assert args.k == 20
        assert args.w == 0.5

    @pytest.mark.parametrize("argv", [
        # The removed sweep seed must not parse as --seed-count.
        ["sweep", "--seed", "9"],
        ["sweep", "--seed-c", "80"],
        ["cache", "stats", "--cache", "x"],
    ])
    def test_options_match_whole_names_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--city", "chicago", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "|V_r|" in out and "|R|" in out

    def test_plan_with_evaluation(self, capsys):
        rc = main([
            "plan", "--city", "chicago", "--profile", "tiny",
            "--k", "5", "--iterations", "100", "--evaluate",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "objective O(mu)" in out
        assert "#transfers avoided" in out

    def test_plan_vk_tsp(self, capsys):
        rc = main([
            "plan", "--city", "chicago", "--profile", "tiny",
            "--method", "vk-tsp", "--k", "5", "--iterations", "100",
        ])
        assert rc == 0
        assert "vk-tsp" in capsys.readouterr().out

    def test_removal(self, capsys):
        assert main(["removal", "--city", "chicago", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "natural connectivity" in out

    def test_removal_reaches_final_point(self, capsys):
        # Regression: the curve must include the high-removal end
        # (all routes but one removed; chicago-tiny has 5 routes).
        assert main(["removal", "--city", "chicago", "--profile", "tiny"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("0 ")
        assert any(line.startswith("4 ") for line in out.splitlines())

    def test_removal_tiny_network_fails_gracefully(self, capsys, monkeypatch):
        import repro.cli as cli_mod

        ds = cli_mod.canned_city("chicago", "tiny")
        reduced = ds.transit.without_routes(set(range(1, ds.transit.n_routes)))
        import dataclasses
        one_route = dataclasses.replace(ds, transit=reduced)
        monkeypatch.setattr(cli_mod, "canned_city", lambda *a, **k: one_route)
        assert main(["removal", "--city", "chicago", "--profile", "tiny"]) == 2
        captured = capsys.readouterr()
        assert "at least 2 routes" in captured.err
        assert captured.out == ""

    def test_bounds(self, capsys):
        assert main(["bounds", "--city", "chicago", "--profile", "tiny",
                     "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "Estrada" in out and "Lemma 4" in out

    def test_bounds_rest_on_the_exact_lambda(self, capsys):
        assert main(["bounds", "--city", "chicago", "--profile", "small",
                     "--k", "10"]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines()[3:]:
            label, *cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[label] = cells
        A = canned_city("chicago", "small").transit.adjacency()
        lam = natural_connectivity_exact(A)
        path = path_upper_bound(lam, top_k_eigenvalues(A, 20), A.shape[0], 10)
        assert rows["lambda(G_r)"] == [f"{round(lam, 4):.4g}", "-"]
        assert rows["Path (Lemma 4)"] == [
            f"{round(path, 4):.4g}", f"{round(path - lam, 4):.4g}",
        ]


class TestExitCodes:
    """Unknown methods and misused constraints fail with clean exit codes."""

    def test_plan_unknown_method_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--method", "annealing"])
        assert exc.value.code == 2  # argparse choices rejection

    def test_sweep_unknown_method_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "base": {"city": "chicago", "profile": "tiny"},
            "axes": {"method": ["eta-pre", "annealing"]},
        }))
        assert main(["sweep", "--grid", str(grid), "--no-cache"]) == 2
        assert "annealing" in capsys.readouterr().err

    def test_sweep_invalid_constraints_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "base": {"city": "chicago", "profile": "tiny"},
            "scenarios": [
                {"name": "bad", "constraints":
                    {"anchor_stop": 3, "forbid_stops": [3]}},
            ],
        }))
        assert main(["sweep", "--grid", str(grid), "--no-cache"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_constraints_on_baseline_method_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "base": {"city": "chicago", "profile": "tiny", "method": "vk-tsp"},
            "scenarios": [{"name": "bad", "constraints": {"anchor_stop": 1}}],
        }))
        assert main(["sweep", "--grid", str(grid), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "constrained planning supports" in err

    def test_sweep_missing_grid_file_exits_2(self, capsys):
        assert main(["sweep", "--grid", "/nonexistent/grid.json"]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--k", "3", "--tau", "0.3", "--city", "nyc", "--methods", "vk-tsp"],
         "--k, --tau, --city, --methods"),
        # A flag given at its default value is still given.
        (["--profile", "tiny"], "--profile"),
        (["--count", "2", "--ks", "4", "--count", "3"], "--count, --ks"),
        (["--weights", "0.5", "--iterations", "9", "--seed-count", "9"],
         "--weights, --iterations, --seed-count"),
    ], ids=["axes-and-base", "default-value", "repeated", "base-config"])
    def test_sweep_grid_with_inline_flags_exits_2(
        self, tmp_path, capsys, flags, named
    ):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "base": {"city": "chicago", "profile": "tiny", "config": {"k": 6}},
            "scenarios": [{"name": "one", "method": "eta-pre"}],
        }))
        assert main(["sweep", "--grid", str(grid), "--no-cache", *flags]) == 2
        err = capsys.readouterr().err
        assert f"cannot be combined with {named};" in err

    @pytest.mark.parametrize("grid, named", [
        ({"base": [1, 2]}, "section 'base'"),
        ({"axes": [["w", [0.5]]]}, "section 'axes'"),
        ({"axes": {"w": 0.5}}, "axis 'w'"),
        ({"axes": {"route_count": "2"}}, "axis 'route_count'"),
        ({"scenarios": {"a": 1}}, "section 'scenarios'"),
        ({"scenarios": [["name", "x"]]}, "section 'scenarios'"),
        ({"axes": {"method": "vk-tsp"}}, "axis 'method'"),
        ({"axes": {"route_count": [1, "2"]}}, "'route_count' must be int"),
        ({"base": {"route_count": 2.9}, "axes": {"w": [0.5]}},
         "'route_count' must be int"),
    ])
    def test_sweep_malformed_grid_file_exits_2(
        self, tmp_path, capsys, grid, named
    ):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert main(["sweep", "--grid", str(path), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert named in err

    def test_sweep_bad_axis_value_exits_2(self, capsys):
        assert main(["sweep", "--ks", "5,abc", "--no-cache"]) == 2
        assert "bad axis value list" in capsys.readouterr().err

    def test_sweep_axis_values_are_stripped(self, capsys):
        rc = main([
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre, vk-tsp", "--weights", " 0.5 ",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--no-cache", "--workers", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "method=vk-tsp" in out

    def test_sweep_unknown_base_config_key_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"base": {"config": {"kk": 5}}}))
        assert main(["sweep", "--grid", str(grid), "--no-cache"]) == 2
        assert "bad base config" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, named", [
        ({"base": {"config": {"n_probes": 50}}}, "'n_probes'"),
        ({"axes": {"lanczos_steps": [10]}}, "'lanczos_steps'"),
        ({"scenarios": [{"name": "s", "seed": 3}]}, "'seed'"),
    ], ids=["base-config", "axis", "scenario"])
    def test_sweep_grid_naming_a_removed_field_exits_2(
        self, tmp_path, capsys, doc, named
    ):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(doc))
        assert main(["sweep", "--grid", str(grid), "--no-cache"]) == 2
        assert named in capsys.readouterr().err

    def test_sweep_malformed_yaml_exits_2(self, tmp_path, capsys):
        pytest.importorskip("yaml")
        grid = tmp_path / "grid.yaml"
        grid.write_text("base: {city: chicago\naxes: [")
        assert main(["sweep", "--grid", str(grid), "--no-cache"]) == 2
        assert "not valid YAML" in capsys.readouterr().err


class TestSweepCommand:
    def test_inline_sweep_with_cache_roundtrip(self, tmp_path, capsys):
        args = [
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre,vk-tsp", "--weights", "0.4,0.6",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--cache-dir", str(tmp_path / "cache"), "--workers", "1",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "method=eta-pre,w=0.4" in first
        assert "precomputation cache" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "4 hits, 0 misses" in second

    def test_grid_file_sweep(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "base": {
                "city": "chicago", "profile": "tiny",
                "config": {"k": 6, "max_iterations": 120, "seed_count": 80},
            },
            "axes": {"w": [0.4, 0.6]},
            "scenarios": [
                {"name": "anchored", "constraints": {"anchor_stop": 0}},
            ],
        }))
        assert main([
            "sweep", "--grid", str(grid),
            "--cache-dir", str(tmp_path / "cache"), "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "w=0.4" in out and "anchored" in out

    def test_json_to_stdout(self, capsys):
        assert main([
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre", "--weights", "0.5",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--no-cache", "--workers", "1", "--json", "-",
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)  # pure JSON: no table mixed in
        assert doc["n_scenarios"] == 1 and doc["n_failed"] == 0
        assert doc["cache"] is None
        assert doc["scenarios"][0]["results"][0]["found"] is True

    def test_format_json(self, tmp_path, capsys):
        assert main([
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre", "--weights", "0.5",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--cache-dir", str(tmp_path / "cache"), "--workers", "1",
            "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cache"]["entries"] == 1

    def test_json_file_plus_table(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main([
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre", "--weights", "0.5",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--no-cache", "--workers", "1", "--json", str(out_path),
        ]) == 0
        assert "sweep: 1 scenarios" in capsys.readouterr().out  # table kept
        doc = json.loads(out_path.read_text())
        assert doc["backend"] == "process"

    def test_unwritable_json_path_exits_2(self, tmp_path, capsys):
        assert main([
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre", "--weights", "0.5",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--no-cache", "--workers", "1",
            "--json", str(tmp_path / "no" / "such" / "dir" / "out.json"),
        ]) == 2
        assert "cannot write JSON report" in capsys.readouterr().err

    def test_backend_flag(self, tmp_path, capsys):
        for backend in ("serial", "sharded"):
            assert main([
                "sweep", "--city", "chicago", "--profile", "tiny",
                "--methods", "eta-pre", "--weights", "0.4,0.6",
                "--k", "6", "--iterations", "120", "--seed-count", "80",
                "--cache-dir", str(tmp_path / "cache"), "--workers", "1",
                "--backend", backend,
            ]) == 0
            assert f"({backend} backend)" in capsys.readouterr().out

    def test_yaml_grid_when_available(self, tmp_path, capsys):
        yaml = pytest.importorskip("yaml")
        grid = tmp_path / "grid.yaml"
        grid.write_text(yaml.safe_dump({
            "base": {
                "city": "chicago", "profile": "tiny",
                "config": {"k": 6, "max_iterations": 120, "seed_count": 80},
            },
            "axes": {"method": ["eta-pre"], "w": [0.5]},
        }))
        assert main(["sweep", "--grid", str(grid), "--no-cache"]) == 0
        assert "method=eta-pre" in capsys.readouterr().out


class TestStreamFlags:
    """Streaming CLI: JSONL per scenario, resume, flag validation."""

    def _args(self, tmp_path, extra=()):
        return [
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre", "--weights", "0.4,0.6",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--cache-dir", str(tmp_path / "cache"), "--workers", "1",
            *extra,
        ]

    def test_stream_to_file(self, tmp_path, capsys):
        stream = tmp_path / "out.jsonl"
        assert main(self._args(tmp_path, ["--stream", str(stream)])) == 0
        captured = capsys.readouterr()
        assert "-> " + str(stream) in captured.out
        assert "[1/2]" in captured.err and "[2/2]" in captured.err
        lines = [json.loads(l) for l in stream.read_text().splitlines()]
        assert len(lines) == 3  # 2 scenarios + summary
        assert [l["record"] for l in lines] == ["scenario", "scenario", "summary"]
        assert lines[-1]["n_ok"] == 2

    def test_stream_to_stdout_is_pure_jsonl(self, tmp_path, capsys):
        assert main(self._args(tmp_path, ["--stream", "-"])) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines() if line]
        assert records[-1]["record"] == "summary"

    def test_resume_completes_and_is_idempotent(self, tmp_path, capsys):
        stream = tmp_path / "out.jsonl"
        assert main(self._args(tmp_path, ["--stream", str(stream)])) == 0
        capsys.readouterr()
        assert main(self._args(
            tmp_path, ["--stream", str(stream), "--resume"]
        )) == 0
        captured = capsys.readouterr()
        assert "resume: 2 of 2 scenarios already committed" in captured.err
        assert "(2 replayed)" in captured.out

    def test_stream_with_json_report(self, tmp_path, capsys):
        stream, report = tmp_path / "out.jsonl", tmp_path / "report.json"
        assert main(self._args(
            tmp_path, ["--stream", str(stream), "--json", str(report)]
        )) == 0
        doc = json.loads(report.read_text())
        assert doc["n_scenarios"] == 2
        # The report is envelope-free: same schema as a non-streamed run.
        assert "key" not in doc["scenarios"][0]
        assert "record" not in doc["scenarios"][0]

    def test_stream_failure_exit_code(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "base": {"city": "chicago", "profile": "tiny",
                     "config": {"k": 6, "max_iterations": 120,
                                "seed_count": 80}},
            "axes": {"w": [0.4]},
            "scenarios": [
                {"name": "doomed", "constraints": {"anchor_stop": 999999}},
            ],
        }))
        stream = tmp_path / "out.jsonl"
        assert main([
            "sweep", "--grid", str(grid), "--backend", "sharded",
            "--cache-dir", str(tmp_path / "cache"), "--workers", "1",
            "--stream", str(stream),
        ]) == 1
        assert "FAILED doomed" in capsys.readouterr().err

    def test_flag_validation_exits_2(self, tmp_path, capsys):
        cases = [
            (["--resume"], "--resume requires --stream"),
            (["--stream", "-", "--resume"], "not '-'"),
            (["--retry-failures"], "--retry-failures requires --resume"),
            (["--stream", "-", "--format", "json"], "claim stdout"),
        ]
        for extra, message in cases:
            assert main(self._args(tmp_path, extra)) == 2
            assert message in capsys.readouterr().err

    def test_unwritable_stream_path_exits_2(self, tmp_path, capsys):
        assert main(self._args(
            tmp_path,
            ["--stream", str(tmp_path / "no" / "such" / "dir" / "o.jsonl")],
        )) == 2
        assert "cannot write stream file" in capsys.readouterr().err

    def test_resume_on_first_invocation_is_fresh_run(self, tmp_path, capsys):
        """ISSUE 4 regression: `--stream f.jsonl --resume` with no file
        yet must start a fresh stream (exit 0), so wrappers can pass
        --resume unconditionally from the very first invocation."""
        stream = tmp_path / "never-written.jsonl"
        assert not stream.exists()
        assert main(self._args(
            tmp_path, ["--stream", str(stream), "--resume"]
        )) == 0
        captured = capsys.readouterr()
        assert "resume: 0 of 2 scenarios already committed" in captured.err
        lines = [json.loads(l) for l in stream.read_text().splitlines()]
        assert [l["record"] for l in lines] == ["scenario", "scenario",
                                                "summary"]
        # And the second invocation of the same command replays it all.
        assert main(self._args(
            tmp_path, ["--stream", str(stream), "--resume"]
        )) == 0
        assert "(2 replayed)" in capsys.readouterr().out

    @pytest.mark.parametrize("line, edit, field", [
        (1, lambda record: record.pop("ok"), "'ok'"),
        (2, lambda record: record.update(ok="false", error="boom"), "'ok'"),
        (2, lambda record: record.update(ok=True, error="boom"), "'ok'"),
        (1, lambda record: record.update(key=["k"]), "'key'"),
    ], ids=["missing-ok", "string-ok", "ok-with-error", "list-key"])
    def test_resume_refuses_a_malformed_committed_record(
        self, tmp_path, capsys, line, edit, field
    ):
        """A committed record that does not decode is corruption, not
        resume currency: exit 2 naming the file, line and field, with
        nothing run and the stream left byte-identical."""
        stream = tmp_path / "out.jsonl"
        args = self._args(tmp_path, ["--stream", str(stream)])
        args[args.index("--weights") + 1] = "0.4,0.5,0.6"
        assert main(args) == 0
        lines = stream.read_text().splitlines()[:2]
        record = json.loads(lines[line - 1])
        edit(record)
        lines[line - 1] = json.dumps(record)
        stream.write_text("\n".join(lines) + "\n")
        before = stream.read_bytes()
        capsys.readouterr()
        assert main([*args, "--resume"]) == 2
        err = capsys.readouterr().err
        assert f"stream file {str(stream)!r} line {line}:" in err
        assert field in err
        assert "resume:" not in err and "[1/" not in err  # nothing ran
        assert stream.read_bytes() == before

    def test_resume_refuses_a_stream_of_an_older_schema(
        self, tmp_path, capsys
    ):
        """A stream written before scenario records lost ``seed`` is
        refused, not replayed: exit 2 with the schema message, nothing
        run, the stream byte-identical."""
        stream = tmp_path / "out.jsonl"
        args = self._args(tmp_path, ["--stream", str(stream)])
        assert main(args) == 0
        records = [json.loads(l) for l in stream.read_text().splitlines()]
        for record in records[:-1]:
            record.update(schema=1, seed=None)
        stream.write_text("".join(json.dumps(r) + "\n" for r in records))
        before = stream.read_bytes()
        capsys.readouterr()
        assert main([*args, "--resume"]) == 2
        err = capsys.readouterr().err
        assert "line 1 has schema 1; this build reads schema 2" in err
        assert "resume:" not in err and "[1/" not in err  # nothing ran
        assert stream.read_bytes() == before

    def test_nonpositive_workers_exits_2(self, tmp_path, capsys):
        for workers in ("0", "-2"):
            args = [a for a in self._args(tmp_path)]
            args[args.index("--workers") + 1] = workers
            assert main(args) == 2
            assert "worker count must be >= 1" in capsys.readouterr().err


class TestCacheCommand:
    def _sweep(self, tmp_path, extra=()):
        return main([
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre", "--weights", "0.5",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--cache-dir", str(tmp_path / "cache"), "--workers", "1",
            *extra,
        ])

    def test_stats(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert main(["cache", "stats",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "total bytes" in out

    def test_evict_requires_budget(self, tmp_path, capsys):
        (tmp_path / "cache").mkdir()
        assert main(["cache", "evict",
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        assert "--max-entries" in capsys.readouterr().err

    def test_missing_directory_exits_2_without_creating(self, tmp_path, capsys):
        missing = tmp_path / "typo-cache"
        for sub in (["stats"], ["evict", "--max-entries", "1"], ["clear"]):
            assert main(["cache", *sub, "--cache-dir", str(missing)]) == 2
            assert "no such cache directory" in capsys.readouterr().err
            assert not missing.exists()

    def test_evict_and_clear(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        # A second precompute-relevant config makes a second entry.
        assert main([
            "sweep", "--city", "chicago", "--profile", "tiny",
            "--methods", "eta-pre", "--weights", "0.5", "--tau", "0.4",
            "--k", "6", "--iterations", "120", "--seed-count", "80",
            "--cache-dir", str(tmp_path / "cache"), "--workers", "1",
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "evict", "--max-entries", "1",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "evicted 1 entries; 1 remain" in capsys.readouterr().out
        assert main(["cache", "clear",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "removed 1 entries" in capsys.readouterr().out

    def test_sweep_cache_max_bytes(self, tmp_path, capsys):
        assert self._sweep(tmp_path, extra=["--cache-max-bytes", "0"]) == 0
        captured = capsys.readouterr()
        assert "evicted 1 entries" in captured.err
        cache_dir = tmp_path / "cache"
        assert not any(cache_dir.glob("*.npz"))


class TestAcceptanceFlow:
    """ISSUE 2 acceptance: sharded sweep with a failure → JSON → evict."""

    @staticmethod
    def _grid(path, **config):
        path.write_text(json.dumps({
            "base": {
                "city": "chicago", "profile": "tiny",
                "config": {"k": 6, "max_iterations": 120, "seed_count": 80,
                           **config},
            },
            "axes": {"method": ["eta-pre", "vk-tsp"],
                     "w": [0.3, 0.5, 0.7, 0.9]},
            "scenarios": [
                {"name": "doomed", "constraints": {"anchor_stop": 999999}},
            ],
        }))
        return path

    def test_sharded_json_failure_then_evict(self, tmp_path, capsys):
        grid = self._grid(tmp_path / "grid.json")
        out_path = tmp_path / "out.json"
        cache_dir = tmp_path / "cache"
        rc = main([
            "sweep", "--grid", str(grid), "--backend", "sharded",
            "--workers", "2", "--cache-dir", str(cache_dir),
            "--json", str(out_path),
        ])
        assert rc == 1  # partial failure
        captured = capsys.readouterr()
        assert "FAILED doomed" in captured.err

        doc = json.loads(out_path.read_text())
        assert doc["n_scenarios"] == 9  # 8-scenario grid + the doomed one
        assert doc["n_ok"] == 8 and doc["n_failed"] == 1
        by_name = {s["name"]: s for s in doc["scenarios"]}
        assert "anchor stop" in by_name["doomed"]["error"]
        for name, rec in by_name.items():
            if name != "doomed":
                assert rec["ok"] and rec["results"][0]["found"]

        # Second entry (a grid with another tau_km), then evict to one.
        # (--grid replaces the inline --tau flag.)
        other = self._grid(tmp_path / "other.json", tau_km=0.4)
        assert main([
            "sweep", "--grid", str(other), "--backend", "sharded",
            "--workers", "2",
            "--cache-dir", str(cache_dir), "--json", str(out_path),
        ]) == 1
        capsys.readouterr()
        assert len(list(cache_dir.glob("*.json"))) == 2
        assert main(["cache", "evict", "--max-entries", "1",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        # Exactly one committed artifact pair remains.
        assert len(list(cache_dir.glob("*.json"))) == 1
        assert len(list(cache_dir.glob("*.npz"))) == 1


class TestBenchCli:
    """`repro bench run|compare`: snapshots, gate verdicts, exit codes."""

    def _run_cache_suite(self, out_dir):
        return main([
            "bench", "run", "--suite", "cache", "--out", str(out_dir),
            "--repeat", "1", "--warmup", "0",
        ])

    def test_run_writes_schema_versioned_snapshot(self, tmp_path, capsys):
        assert self._run_cache_suite(tmp_path) == 0
        captured = capsys.readouterr()
        assert "wrote" in captured.out and "BENCH_cache.json" in captured.out
        from repro.bench import BENCH_SCHEMA_VERSION

        doc = json.loads((tmp_path / "BENCH_cache.json").read_text())
        assert doc["schema"] == BENCH_SCHEMA_VERSION
        assert doc["area"] == "cache"
        # Inside a git checkout the snapshot names HEAD; outside one
        # (an unpacked archive, say) it has no revision to name.
        import repro

        head = None
        if shutil.which("git"):
            probe = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(repro.__file__)),
                capture_output=True, text=True, timeout=10,
            )
            head = probe.stdout.strip() if probe.returncode == 0 else None
        assert doc["git_rev"] == head
        assert any(k.endswith("_s") for k in doc["metrics"])

    def test_compare_identical_snapshot_passes(self, tmp_path, capsys):
        assert self._run_cache_suite(tmp_path) == 0
        capsys.readouterr()
        baseline = str(tmp_path / "BENCH_cache.json")
        assert main([
            "bench", "compare", baseline, "--fresh", baseline,
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_injected_regression_exits_1(self, tmp_path, capsys):
        assert self._run_cache_suite(tmp_path) == 0
        capsys.readouterr()
        baseline = tmp_path / "BENCH_cache.json"
        doc = json.loads(baseline.read_text())
        doctored = {
            k: (v * 10 if k.endswith("_s") else v)
            for k, v in doc["metrics"].items()
        }
        fresh = tmp_path / "doctored.json"
        fresh.write_text(json.dumps({**doc, "metrics": doctored}))
        assert main([
            "bench", "compare", str(baseline), "--fresh", str(fresh),
            "--max-regress", "20%",
        ]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "regression" in out

    def test_compare_fresh_run_against_committed_baseline(
        self, tmp_path, capsys
    ):
        # The CI-gate path: no --fresh, probes re-run on the baseline's
        # own area/profile. A generous threshold keeps it robust here.
        assert self._run_cache_suite(tmp_path) == 0
        capsys.readouterr()
        assert main([
            "bench", "compare", str(tmp_path / "BENCH_cache.json"),
            "--max-regress", "10000%", "--repeat", "1", "--warmup", "0",
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_missing_baseline_exits_2(self, tmp_path, capsys):
        assert main([
            "bench", "compare", str(tmp_path / "BENCH_nope.json"),
        ]) == 2
        assert "no such bench snapshot" in capsys.readouterr().err

    def test_compare_bad_threshold_exits_2(self, tmp_path, capsys):
        assert self._run_cache_suite(tmp_path) == 0
        capsys.readouterr()
        assert main([
            "bench", "compare", str(tmp_path / "BENCH_cache.json"),
            "--max-regress", "lots",
        ]) == 2
        assert "bad threshold" in capsys.readouterr().err

    def test_compare_fresh_needs_exactly_one_baseline(self, tmp_path, capsys):
        assert self._run_cache_suite(tmp_path) == 0
        capsys.readouterr()
        baseline = str(tmp_path / "BENCH_cache.json")
        assert main([
            "bench", "compare", baseline, baseline, "--fresh", baseline,
        ]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_run_bad_repeat_exits_2(self, tmp_path, capsys):
        assert main([
            "bench", "run", "--suite", "cache", "--out", str(tmp_path),
            "--repeat", "0",
        ]) == 2
        assert "repeat" in capsys.readouterr().err

    def test_run_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "run", "--suite", "warp"])


class TestCheckCli:
    """`repro check`: exit-code contract, rule selection, JSON stability."""

    FIXTURES = os.path.join(
        os.path.dirname(__file__), "fixtures", "analysis"
    )

    def fixture(self, name):
        return os.path.join(self.FIXTURES, name)

    def test_shipped_tree_is_clean_under_strict(self, capsys):
        # The acceptance bar: zero findings, zero suppressions, exit 0.
        assert main(["check", "--strict"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("name, anchor", [
        ("rpr001_violation", "core/seeding_bad.py:10"),
        ("rpr004_violation", "sweep/leaky.py:12"),
        ("rpr005_violation", "sweep/writer_bad.py:7"),
        ("rpr011_violation", "fabric/counter_bad.py:23"),
    ])
    def test_each_rule_fails_its_fixture(self, capsys, name, anchor):
        code = name.split("_")[0].upper()
        assert main(["check", self.fixture(name), "--strict"]) == 1
        out = capsys.readouterr().out
        assert anchor in out
        assert code in out

    def test_warning_rules_pass_without_strict(self, capsys):
        # RPR004/RPR005 are warnings: reported, but exit 0 non-strict.
        assert main(["check", self.fixture("rpr004_violation")]) == 0
        out = capsys.readouterr().out
        assert "RPR004" in out
        assert "warnings do not fail without --strict" in out

    def test_ignore_silences_rule(self, capsys):
        rc = main([
            "check", self.fixture("rpr004_violation"),
            "--strict", "--ignore", "RPR004",
        ])
        assert rc == 0

    def test_select_limits_rules(self, capsys):
        rc = main([
            "check", self.fixture("rpr004_violation"),
            "--strict", "--select", "RPR001,RPR005",
        ])
        assert rc == 0

    def test_unknown_rule_code_exits_2(self, capsys):
        assert main(["check", "--select", "RPR999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_root_exits_2(self, capsys):
        assert main(["check", self.fixture("no_such_tree")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_output_is_stable(self, capsys):
        argv = [
            "check", self.fixture("rpr001_violation"), "--format", "json",
        ]
        assert main(argv) == 1
        first = capsys.readouterr().out
        assert main(argv) == 1
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["n_findings"] == 3
        assert doc["n_findings"] == len(doc["findings"])
        assert [f["code"] for f in doc["findings"]] == ["RPR001"] * 3
        for finding in doc["findings"]:
            assert not os.path.isabs(finding["path"])

    def test_list_rules_catalog(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR004", "RPR005", "RPR011"):
            assert code in out

    def test_suppressed_fixture_is_clean(self, capsys):
        assert main(["check", self.fixture("suppressed"), "--strict"]) == 0

    def test_stale_suppression_fails_strict_only(self, capsys):
        path = self.fixture("stale_suppression")
        assert main(["check", path]) == 0
        capsys.readouterr()
        assert main(["check", path, "--strict"]) == 1
        assert "RPR900" in capsys.readouterr().out
