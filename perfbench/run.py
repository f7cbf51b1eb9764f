"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload cold-plan --seed 1 --seconds 25 --trace 0

Launches the load-generating process (``loadgen.py``) with every BLAS
thread pool pinned to one thread, so the 2-vCPU machine runs the program
and not BLAS helper threads. With ``--trace 0`` it sets the workload up
``SETUP_REPEATS`` times (fresh interpreter each time) and reports the
median set-up time next to the end-to-end metrics of the last launch;
with ``--trace 1`` it sets up once and reports the per-layer metrics.

The last stdout line is the result document::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by an ``info`` line with the output digest, the sample counts,
the calibration probes and the machine. Metric names and units come from
``BENCHMARK.json``. Exit status is 0 whenever a result is printed; any
error (the repository's ``src/`` missing, a crashed or hung load
generator) exits 1 or 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
"""A later performance claim must also hold on this seed."""
DEFAULT_SECONDS = 25
SETUP_REPEATS = 3
RUN_BUDGET_S = 160.0
"""Every launch, set-up repeats included, ends within this; past it the
run is killed and reported as an error (reaping leftovers may add up to
15 s more, still inside a 180 s limit)."""
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("cold-plan", "eta-online", "serve-replan")


class RunError(Exception):
    pass


def calibration_probe(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a machine-speed
    diagnostic, never used to rescale a metric."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def become_subreaper() -> None:
    """Adopt orphaned descendants (a serve child whose load generator
    died) so :func:`reap_orphans` can wait for them."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_orphans(timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                return
            time.sleep(0.05)


def child_env() -> dict:
    env = dict(os.environ)
    for name in BLAS_ENV:
        env[name] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args, work_dir: str, setup_only: bool, deadline: float) -> dict:
    """Run the load generator once and return its result document."""
    cmd = [
        sys.executable, os.path.join(HERE, "loadgen.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir, "--launched-at", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError("load generator exceeded the run budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # Whatever the load generator left behind in its process group
        # (a serve child after a crash) goes too; reap_orphans waits for it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode(errors="replace")[-2000:]
        raise RunError(f"load generator exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def metric_specs(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> tuple[dict, dict]:
    specs = metric_specs(args.trace)
    calib_start = calibration_probe()
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(os.path.join(ROOT, ".perfbench-tmp"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench-tmp"))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(launch(args, work_dir, True, deadline)["setup_s"])
                shutil.rmtree(work_dir)
                os.makedirs(work_dir)
        doc = launch(args, work_dir, False, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        reap_orphans()
    setups.append(doc["setup_s"])
    calib_end = calibration_probe()

    metrics = dict(doc["metrics"])
    if args.trace:
        metrics["machine.calib_s"] = (calib_start + calib_end) / 2
    else:
        metrics["setup_s"] = statistics.median(setups)
    missing = set(specs) - set(metrics)
    if missing:
        raise RunError(f"metrics missing from the run: {sorted(missing)}")
    correct = doc["failed"] == 0 and doc["inputs_done"] == doc["inputs"]
    result = {
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in specs.items()
        },
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": doc["digest"],
        "inputs": f"{doc['inputs_done']}/{doc['inputs']}",
        "latency_samples": doc["p90_samples"],
        "beyond_p90": doc["p90_samples"] // 10,
        "timed_wall_s": doc["wall_s"],
        "setup_samples_s": setups,
        "calib_start_s": calib_start,
        "calib_end_s": calib_end,
        "failures": doc["failures"],
        "env": doc["env"],
    }
    if args.trace:
        info["traced_ops"] = doc["traced_ops"]
    return result, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    become_subreaper()
    try:
        result, info = run(args)
    except (RunError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("info " + json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
