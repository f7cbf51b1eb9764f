"""The load-generating process of one benchmark run.

``run.py`` launches this script with the BLAS thread pools pinned to one
thread. It sets the workload up, runs the timed phase, checks every
output and prints one JSON document as its last stdout line.

    python3 perfbench/loadgen.py --workload cold-plan --seed 1 --seconds 25 \\
        --trace 0 --launched-at "$(python3 -c 'import time; print(time.monotonic())')"

``--setup-only`` stops after set-up (``run.py`` sets up several times per
run and reports the median). With ``--trace 1`` every input runs twice in
a row, once traced and once not, the order alternating from input to
input: per-layer numbers come from the traced ops and the tracing
overhead from comparing each input's two runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
from spans import LAYERS, NULL_RECORDER, Recorder, Wrappers  # noqa: E402
from workloads import WORKLOADS, ServeReplan  # noqa: E402

MIN_OPS = 100
"""Ops per run at least, so the 90th percentile has ten samples beyond it."""
OVERRUN_S = 60.0
"""The timed phase stops this long after ``--seconds`` even when fewer
than MIN_OPS ops or one pass over the inputs have finished."""
OP_TIMEOUT_S = 30.0
FAILED_LATENCY_S = 1e9
"""A failed op counts as infinitely slow; JSON has no infinity, so a
percentile that lands on a failure reports this value."""


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`OpTimeout` in the main thread after ``seconds``."""

    def on_alarm(signum, frame):
        raise OpTimeout(f"op exceeded {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Op:
    __slots__ = ("index", "latency", "traced", "summary", "problem")

    def __init__(self, index, latency, traced, summary, problem):
        self.index = index
        self.latency = latency
        self.traced = traced
        self.summary = summary
        self.problem = problem


def timed_phase(workload, seconds, min_ops, trace, recorder, op_timeout=OP_TIMEOUT_S):
    """Run ops until ``seconds`` have passed, at least ``min_ops`` ops
    and one pass over the inputs have started; returns ``(ops, wall)``."""
    n = workload.n_inputs
    runs_per_input = 2 if trace else 1
    lock = threading.Lock()
    ops: list[Op] = []
    started = [0]
    wrappers = Wrappers(recorder) if trace and workload.lanes == 1 else None
    start = time.perf_counter()
    need = max(min_ops, n * runs_per_input)

    def take():
        with lock:
            elapsed = time.perf_counter() - start
            i = started[0]
            if elapsed >= seconds + OVERRUN_S or (elapsed >= seconds and i >= need):
                return None
            started[0] = i + 1
            return i

    def lane(lane_id):
        while (i := take()) is not None:
            index = (i // runs_per_input) % n
            traced = trace and (i + i // 2) % 2 == 0
            rec = recorder if traced else NULL_RECORDER
            t0 = time.perf_counter()
            try:
                with contextlib.ExitStack() as stack:
                    if workload.lanes == 1:
                        stack.enter_context(deadline(op_timeout))
                    if traced and wrappers is not None:
                        stack.enter_context(wrappers)
                    summary = workload.op(lane_id, index, rec, traced)
                problem = summary["problem"]
            except Exception as exc:  # noqa: BLE001 — a failed op, not a failed run
                summary, problem = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            with lock:
                ops.append(Op(index, latency, traced, summary, problem))

    if workload.lanes == 1:
        lane(0)
    else:
        threads = [
            threading.Thread(target=lane, args=(k,), daemon=True)
            for k in range(workload.lanes)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return ops, time.perf_counter() - start


def judge(ops: list[Op]) -> tuple[dict, list[str]]:
    """Mark outputs that differ from their input's first output as failed;
    returns ``(canonical output per input, failure messages)``."""
    first: dict[int, str] = {}
    failures = []
    for op in ops:
        if op.problem is None:
            text = checks.canonical(op.summary["out"])
            known = first.setdefault(op.index, text)
            if known != text:
                op.problem = "output differs from an earlier op on the same input"
        if op.problem is not None:
            failures.append(f"input {op.index}: {op.problem}")
    return first, failures


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(ops, wall, outputs) -> dict:
    ok = [op for op in ops if op.problem is None]
    latencies = [op.latency if op.problem is None else math.inf for op in ops]
    objectives = [json.loads(outputs[i])["objective"] for i in sorted(outputs)]

    def finite(x):
        return FAILED_LATENCY_S if math.isinf(x) else x

    return {
        "throughput_rps": len(ok) / wall,
        "latency_p50_s": finite(quantile(latencies, 0.5)),
        "latency_p90_s": finite(quantile(latencies, 0.9)),
        "ok_rate": len(ok) / len(ops),
        "objective_mean": statistics.fmean(objectives) if objectives else 0.0,
    }


def per_layer(ops, recorder, extra) -> dict:
    traced = [op for op in ops if op.traced and op.problem is None]
    untraced = [op for op in ops if not op.traced and op.problem is None]
    n = max(len(traced), 1)
    layers, op_wall, unattributed, _ = recorder.layer_times()
    nums = [op.summary.get("layers", {}) for op in traced]

    def mean(key):
        return _mean([d[key] for d in nums if key in d])

    def total(key):
        return float(sum(d.get(key, 0) for d in nums))

    c = recorder.counters
    iterations = total("search.iterations")
    pushes, pruned = total("search.queue_pushes"), total("search.pruned")
    evaluations = c["kernel.evaluations"] or total("search.evaluations")
    metrics = {
        "data.build_s": recorder.total("data.build") / n,
        "data.trips_s": recorder.total("data.trips") / n,
        "data.demand_s": recorder.total("data.demand") / n,
        "data.accepted_ratio": total("data.accepted") / max(total("data.trips"), 1),
        "precompute.total_s": recorder.total("precompute") / n,
        "precompute.candidate_edges_s": mean("precompute.candidate_edges_s"),
        "precompute.base_spectrum_s": mean("precompute.base_spectrum_s"),
        "precompute.increments_s": mean("precompute.increments_s"),
        "precompute.candidate_edges": mean("precompute.candidate_edges"),
        "search.self_s": layers["search"] / n,
        "search.iterations": iterations / n,
        "search.s_per_iteration": layers["search"] / max(iterations, 1),
        "search.queue_pushes": pushes / n,
        "search.pruned_ratio": pruned / max(pushes + pruned, 1),
        "kernel.self_s": layers["kernel"] / n,
        "kernel.batched_calls": c["kernel.batched_calls"] / n,
        "kernel.single_calls": c["kernel.single_calls"] / n,
        "kernel.columns": c["kernel.columns"] / n,
        "kernel.s_per_column": layers["kernel"] / max(c["kernel.columns"], 1),
        "kernel.evaluations": evaluations / n,
        "kernel.mflop_computed": c["kernel.flop"] / 1e6 / n,
        "kernel.mbyte_computed": c["kernel.byte"] / 1e6 / n,
        "serve.wait_s": _mean(
            [d["serve.rtt"] - d["serve.total"] for d in nums if "serve.rtt" in d]
        ),
        "serve.execute_s": mean("serve.total"),
        "serve.fetch_s": mean("serve.fetch"),
        "serve.server_p50_s": extra.get("server_p50_s", 0.0),
        "serve.frame_rtt_p50_s": _median([d["serve.rtt"] for d in nums if d.get("serve.door") == "frame"]),
        "serve.http_rtt_p50_s": _median([d["serve.rtt"] for d in nums if d.get("serve.door") == "http"]),
        "serve.pool_hit_rate": mean("serve.pool_hit"),
        "serve.reply_bytes": mean("serve.reply_bytes"),
        "proc.cpu_s": extra["cpu_s"],
        "proc.cpu_util": extra["cpu_s"] / extra["wall_s"],
        "trace.op_s": op_wall / n,
        "trace.unattributed_ratio": unattributed / op_wall if op_wall else 0.0,
        "trace.overhead_ratio": overhead_ratio(traced, untraced),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layers[layer] / op_wall if op_wall else 0.0
    return metrics


def overhead_ratio(traced: list[Op], untraced: list[Op]) -> float:
    """Untraced over traced time on the inputs measured both ways: traced
    throughput relative to untraced throughput (1.0 = free)."""
    def per_input(ops):
        by: dict[int, list[float]] = {}
        for op in ops:
            by.setdefault(op.index, []).append(op.latency)
        return {i: statistics.fmean(v) for i, v in by.items()}

    t, u = per_input(traced), per_input(untraced)
    both = t.keys() & u.keys()
    if not both:
        return 0.0
    return sum(u[i] for i in both) / sum(t[i] for i in both)


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched-at", type=float, required=True,
                   help="time.monotonic() when the launcher started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work-dir", default="", help="scratch directory (serve-replan)")
    args = p.parse_args(argv)

    cls = WORKLOADS[args.workload]
    if cls is ServeReplan:
        workload = cls(args.seed, src_dir=SRC, work_dir=args.work_dir, env=os.environ)
    else:
        workload = cls(args.seed)
    result: dict = {}
    try:
        workload.setup()
        setup_s = time.monotonic() - args.launched_at
        result["setup_s"] = setup_s
        if not args.setup_only:
            recorder = Recorder() if args.trace else NULL_RECORDER
            cpu0 = cpu_seconds()
            child_cpu0 = workload.child.cpu_s() if cls is ServeReplan else 0.0
            ops, wall = timed_phase(
                workload, args.seconds, MIN_OPS, bool(args.trace), recorder
            )
            cpu = cpu_seconds() - cpu0
            extra = {"wall_s": wall}
            if cls is ServeReplan:
                cpu += workload.child.cpu_s() - child_cpu0
                extra["server_p50_s"] = workload.stats()["latency"]["p50_ms"] / 1000.0
                peak_rss_mb = workload.child.peak_rss_mb()
            else:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            extra["cpu_s"] = cpu
            outputs, failures = judge(ops)
            ok = sum(op.problem is None for op in ops)
            result.update({
                "attempted": len(ops),
                "failed": len(ops) - ok,
                "failures": failures[:10],
                "inputs_done": len(outputs),
                "inputs": workload.n_inputs,
                "digest": checks.digest(outputs),
                "wall_s": wall,
                "p90_samples": len(ops),
                "env": environment(),
            })
            if args.trace:
                result["metrics"] = per_layer(ops, recorder, extra)
                result["traced_ops"] = sum(op.traced for op in ops)
            else:
                metrics = end_to_end(ops, wall, outputs)
                metrics["peak_rss_mb"] = peak_rss_mb
                result["metrics"] = metrics
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
