"""Spans for the traced run, recorded by the benchmark around its own calls.

A span is ``(name, layer, start, end, parent, op)``. Spans stay in memory
and are reduced to per-layer numbers when the run ends. A layer's self
time is the duration of its spans minus the part their child spans cover,
so the layer times of one op plus its unattributed time add up to the op's
wall time exactly.

Layers that run inside another call are reached through wrappers around
their public entry points, installed for traced ops only (untraced ops run
the program unmodified):

* ``data``: ``generate_trips`` and ``aggregate_trip_demand`` as
  ``build_dataset`` looks them up in ``repro.data.datasets``;
* ``kernel``: ``NaturalConnectivityEstimator.trace_exp`` and
  ``trace_exp_batch``, the two doors into the Lanczos kernel.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict

LAYERS = ("data", "precompute", "search", "kernel", "serve")
OP_LAYER = "op"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op")

    def __init__(self, name, layer, start, end, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters; safe to use from several threads.

    Each thread keeps its own stack of open spans, so the parent of a
    span is the innermost span open on the same thread.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: "defaultdict[str, float]" = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, layer: str, op=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        s = Span(name, layer, time.perf_counter(), None, parent, op)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)

    def add(self, name, layer, start, end, parent, op) -> Span:
        """Record a span whose interval is known from elsewhere (for
        example from durations the program reports in its reply)."""
        s = Span(name, layer, start, end, parent, op)
        with self._lock:
            self.spans.append(s)
        return s

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    # ------------------------------------------------------------------
    def layer_times(self) -> tuple[dict, float, float, int]:
        """``(self time per layer, op wall time, unattributed time, ops)``
        summed over every traced op."""
        child_time: "defaultdict[int, float]" = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.duration
        layers = {name: 0.0 for name in LAYERS}
        op_wall = unattributed = 0.0
        n_ops = 0
        for s in self.spans:
            self_time = s.duration - child_time[id(s)]
            if s.layer == OP_LAYER:
                op_wall += s.duration
                unattributed += self_time
                n_ops += 1
            else:
                layers[s.layer] += self_time
        return layers, op_wall, unattributed, n_ops

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)


class NullRecorder:
    """The recorder of untraced ops: records nothing, costs one call."""

    _null = contextlib.nullcontext()

    def span(self, name, layer, op=None):
        return self._null


NULL_RECORDER = NullRecorder()


# ----------------------------------------------------------------------
# Wrappers around public entry points (traced ops only)
# ----------------------------------------------------------------------
def _kernel_cost(n: int, nnz: int, columns: int, steps: int) -> tuple[float, float]:
    """Flops and bytes of one Lanczos pass over ``columns`` probe columns,
    computed from the array sizes the block recurrence touches (caches
    ignored; the rank updates of batched variants are left out).

    Per column and step: the sparse product (2 nnz flops), the
    coefficient, three-term update and normalisation (2 n + 7 n), full
    reorthogonalisation against the j basis vectors so far (4 n j), then
    the stacked ``eigh`` of the t×t tridiagonal (about 9 t^3 per column)
    and the basis contraction (2 n t). Bytes: the CSR matrix (12 bytes a
    stored entry plus row pointers) once per step, and 8 bytes for every
    dense vector entry read or written.
    """
    t = max(min(steps, n), 1)
    pairs = t * (t - 1) / 2  # sum over steps of the basis vectors so far
    flops = columns * (
        t * (2.0 * nnz + 2.0 * n) + 7.0 * n * (t - 1) + 4.0 * n * pairs
        + 9.0 * t**3 + 2.0 * n * t + 2.0 * n
    )
    passes = 4 * t + 8 * (t - 1) + 5 * pairs + t + 2
    nbytes = t * (12.0 * nnz + 4.0 * (n + 1)) + 8.0 * n * columns * passes
    return flops, nbytes


class Wrappers:
    """Installs span-recording wrappers around layer entry points."""

    def __init__(self, recorder: Recorder):
        import repro.data.datasets as datasets
        from repro.spectral.connectivity import NaturalConnectivityEstimator as est

        self.recorder = recorder
        self._patches = [
            (datasets, "generate_trips",
             self._wrap(datasets.generate_trips, "data.trips", "data")),
            (datasets, "aggregate_trip_demand",
             self._wrap(datasets.aggregate_trip_demand, "data.demand", "data")),
            (est, "trace_exp", self._wrap_kernel(est.trace_exp, batched=False)),
            (est, "trace_exp_batch", self._wrap_kernel(est.trace_exp_batch, batched=True)),
        ]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, layer):
        recorder = self.recorder

        def wrapped(*args, **kwargs):
            with recorder.span(name, layer):
                return fn(*args, **kwargs)

        return wrapped

    def _wrap_kernel(self, fn, batched: bool):
        recorder = self.recorder

        def wrapped(est, A, *args, **kwargs):
            with recorder.span("kernel", "kernel"):
                out = fn(est, A, *args, **kwargs)
            variants = len(out) if batched else 1
            columns = variants * est.n_probes
            flops, nbytes = _kernel_cost(
                A.shape[0], A.nnz, columns, est.lanczos_steps
            )
            recorder.count("kernel.batched_calls" if batched else "kernel.single_calls")
            recorder.count("kernel.columns", columns)
            recorder.count("kernel.evaluations", variants)
            recorder.count("kernel.flop", flops)
            recorder.count("kernel.byte", nbytes)
            return out

        return wrapped

    def __enter__(self):
        for owner, attr, wrapper in self._patches:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
