"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

The smoke runs drive ``run.py`` end to end (about a minute in total);
the rest exercise the pieces directly.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
from serveclient import FrameClient, HttpClient, OpFailed, ServeChild  # noqa: E402
from spans import OP_LAYER, Recorder  # noqa: E402
from workloads import ColdPlan, EtaOnline, ServeReplan, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def live_pids_mentioning(text: str) -> list[int]:
    """Live (non-zombie) processes whose command line contains ``text``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmdline = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if text in cmdline:
            found.append(int(entry))
    return found


# ----------------------------------------------------------------------
# Smoke: every workload prints the seven end-to-end metrics with units
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= loadgen.MIN_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    info = json.loads(lines[-2].split(" ", 1)[1])
    assert info["beyond_p90"] >= 10
    assert info["env"]["blas_threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert not live_pids_mentioning(os.path.join(ROOT, ".perfbench-tmp", "run-"))


def test_run_without_the_repository_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            shutil.copy(os.path.join(BENCH, name), bench / name)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-plan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# Failed ops are counted, never fatal
# ----------------------------------------------------------------------
BAD_SPEC = {"name": "bad", "city": "atlantis", "profile": "small", "method": "eta-pre"}
GOOD_SPEC = {"name": "good", "city": "staten_island", "profile": "tiny", "method": "eta-pre"}


def test_rejected_request_is_a_failed_op_on_both_doors(work_dir):
    with ServeChild(SRC, work_dir, run.child_env()) as child:
        for client in (
            FrameClient(child.frame_addr, child.secret, 30.0),
            HttpClient(child.http_addr, child.secret, 30.0),
        ):
            with pytest.raises(OpFailed):
                client.plan({"scenario": BAD_SPEC})
            reply, n_bytes = client.plan({"scenario": GOOD_SPEC})  # reconnects if needed
            assert reply["record"]["results_wire"][0]["route"] is not None
            assert n_bytes > 0
            client.close()


def test_rejected_request_counts_in_the_run(work_dir):
    workload = ServeReplan(1, src_dir=SRC, work_dir=work_dir, env=run.child_env())
    workload.cities = ("staten_island",)
    workload.warmup_ops = 0
    workload.n_inputs = 3
    workload.inputs = [dict(GOOD_SPEC, name="a"), BAD_SPEC, dict(GOOD_SPEC, name="c")]
    try:
        workload.setup()
        ops, _ = loadgen.timed_phase(workload, 0.0, 6, False, None)
    finally:
        workload.close()
    outputs, failures = loadgen.judge(ops)
    assert len(ops) == 6
    assert sorted(outputs) == [0, 2]
    assert len(failures) == 2 and all(f.startswith("input 1:") for f in failures)
    metrics = loadgen.end_to_end(ops, 1.0, outputs)
    assert metrics["ok_rate"] == pytest.approx(4 / 6)
    assert metrics["latency_p90_s"] == loadgen.FAILED_LATENCY_S


# ----------------------------------------------------------------------
# No op outlives its timeout
# ----------------------------------------------------------------------
class SleepyWorkload(Workload):
    name = "sleepy"
    n_inputs = 2

    def op(self, lane, index, rec, traced):
        if index == 1:
            time.sleep(30)
        return {"out": {}, "problem": None}


def test_in_process_op_is_cut_at_its_deadline():
    t0 = time.monotonic()
    ops, _ = loadgen.timed_phase(SleepyWorkload(0), 0.0, 2, False, None, op_timeout=0.3)
    assert time.monotonic() - t0 < 5
    assert ops[0].problem is None
    assert ops[1].problem.startswith("OpTimeout")


@pytest.fixture
def silent_server():
    """Accepts connections and never answers."""
    listener = socket.create_server(("127.0.0.1", 0))
    conns = []
    stop = threading.Event()

    def accept():
        listener.settimeout(0.1)
        while not stop.is_set():
            try:
                conns.append(listener.accept()[0])
            except OSError:
                continue

    thread = threading.Thread(target=accept, daemon=True)
    thread.start()
    yield listener.getsockname()
    stop.set()
    thread.join(timeout=5)
    for conn in conns:
        conn.close()
    listener.close()


@pytest.mark.parametrize("client_cls", [FrameClient, HttpClient])
def test_stalled_server_fails_the_op_within_its_timeout(silent_server, client_cls):
    client = client_cls(silent_server, b"secret", 0.3)
    t0 = time.monotonic()
    with pytest.raises(OpFailed):
        client.plan({"scenario": GOOD_SPEC})
    assert time.monotonic() - t0 < 5
    client.close()


# ----------------------------------------------------------------------
# The serve child is always shut down and reaped
# ----------------------------------------------------------------------
def test_serve_child_is_reaped_when_the_load_generator_fails(work_dir):
    with pytest.raises(RuntimeError, match="load generator failed"):
        with ServeChild(SRC, work_dir, run.child_env()) as child:
            proc = child.proc
            raise RuntimeError("load generator failed")
    assert proc.returncode is not None
    assert not live_pids_mentioning(work_dir)


def test_killed_load_generator_takes_its_serve_child_along(tmp_path):
    """run.py kills the load generator's whole process group when it
    overruns, which reaches the serve child too."""
    args = type("Args", (), {
        "workload": "serve-replan", "seed": 1, "seconds": 60.0, "trace": 0,
    })()
    work_dir = str(tmp_path)
    with pytest.raises(run.RunError, match="budget"):
        run.launch(args, work_dir, False, time.monotonic() + 8.0)
    deadline = time.monotonic() + 10
    while live_pids_mentioning(work_dir) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not live_pids_mentioning(work_dir)


# ----------------------------------------------------------------------
# Output checks, spans, inputs
# ----------------------------------------------------------------------
def route(stops, objective=0.5, d=0.5, lam=0.5, turns=0):
    return {
        "stops": stops,
        "edges": list(range(len(stops) - 1)) if stops else None,
        "turns": turns,
        "objective": objective,
        "o_d_normalized": d,
        "o_lambda_normalized": lam,
    }


@pytest.mark.parametrize("out, kwargs, problem", [
    (route([1, 2, 3]), {}, None),
    (route([1, 2, 3, 1]), {}, None),
    (route([1, 2, 3, 1]), {"allow_loop": False}, "stop repeats"),
    (route([1, 2, 1, 3]), {}, "stop repeats"),
    (route(None), {}, "no route"),
    (route([1, 2, 3, 4]), {"k": 2}, "3 edges > k=2"),
    (route([1, 2, 3], turns=4), {}, "4 turns"),
    (route([1, 2, 3]), {"forbid_stops": [2]}, "forbidden stops [2]"),
    (route([1, 2, 3], objective=0.5 + 1e-8), {}, "objective"),
])
def test_check_route(out, kwargs, problem):
    args = {"k": 5, "max_turns": 3, "w": 0.5, **kwargs}
    found = checks.check_route(out, **args)
    if problem is None:
        assert found is None
    else:
        assert problem in found


def test_layer_self_times_add_up_to_the_op():
    rec = Recorder()
    rec.add("op", OP_LAYER, 0.0, 10.0, None, 0)
    root = rec.spans[0]
    build = rec.add("data.build", "data", 0.0, 4.0, root, 0)
    rec.add("data.trips", "data", 1.0, 3.0, build, 0)
    search = rec.add("search", "search", 4.0, 9.0, root, 0)
    rec.add("kernel", "kernel", 5.0, 8.0, search, 0)
    layers, wall, unattributed, n_ops = rec.layer_times()
    assert (wall, unattributed, n_ops) == (10.0, 1.0, 1)
    assert layers["data"] == 4.0 and layers["search"] == 2.0 and layers["kernel"] == 3.0
    assert sum(layers.values()) + unattributed == wall


def test_workload_names_agree():
    names = tuple(w["name"] for w in SPEC["workloads"])
    assert names == run.WORKLOAD_NAMES
    assert set(names) == set(loadgen.WORKLOADS)


def test_inputs_depend_on_the_seed_only():
    assert ColdPlan(1).inputs == ColdPlan(1).inputs
    assert ColdPlan(1).inputs != ColdPlan(2).inputs
    assert EtaOnline(5).inputs == EtaOnline(5).inputs
    assert ServeReplan(5).inputs == ServeReplan(5).inputs
    assert ServeReplan(5).inputs != ServeReplan(6).inputs


@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, run.HELD_OUT_SEED, *range(10, 16)])
def test_cold_plan_cities_are_all_accepted_by_the_synthesizer(seed):
    from repro.data.synth import (
        generate_hotspots,
        generate_road_network,
        generate_transit_network,
    )

    for cfg in ColdPlan(seed).inputs:
        road = generate_road_network(cfg)
        generate_transit_network(cfg, road, generate_hotspots(cfg, road))
