"""The three workloads: their inputs, set-up and ops.

Every input comes from the workload seed alone. A workload holds a fixed
list of distinct inputs that the timed phase cycles through, so each
input's output can be compared across cycles and hashed into the run's
digest, and the objective mean is taken over the distinct inputs.

* ``cold-plan``: each op plans a generated city from scratch
  (``build_dataset`` → ``precompute`` → ``run_method(pre, "eta-pre")``),
  what a ``repro plan`` user waits for. The only workload with dataset
  build and precompute on the timed path.
* ``eta-online``: each op is one online-ETA plan on a prepared
  ``bench``-scale city (``rebind`` → ``run_method(pre, "eta")``): the
  paper's Lanczos + Hutchinson path, small batches every round.
* ``serve-replan``: what-if ``eta-pre`` replans against a ``repro serve``
  child, one closed-loop client on the frame door and one on the HTTP
  door. The only workload that crosses the wire codec, authentication,
  the artifact pool and the single planner thread.
"""

from __future__ import annotations

import math
import random
import time

from checks import check_route, from_plan_result, from_wire
from repro.core.config import PlannerConfig
from repro.core.planner import run_method
from repro.core.precompute import precompute, rebind
from repro.data.datasets import build_dataset, canned_city
from repro.data.synth import SynthConfig
from serveclient import FrameClient, HttpClient, ServeChild
from spans import NULL_RECORDER, OP_LAYER

# name, grid w, grid h, spacing km, drop prob, diagonal prob, hotspots,
# hotspot sigma km, routes, trips: the canned ``small`` profile sizes.
SMALL_TEMPLATES = (
    ("chicago", 15, 11, 0.25, 0.08, 0.06, 7, 0.462, 12, 1440),
    ("nyc", 19, 14, 0.25, 0.10, 0.04, 9, 0.546, 20, 2160),
    ("manhattan", 4, 14, 0.22, 0.04, 0.02, 6, 0.336, 10, 1080),
    ("queens", 13, 9, 0.30, 0.12, 0.05, 8, 0.504, 5, 840),
    ("brooklyn", 10, 8, 0.26, 0.09, 0.05, 7, 0.42, 6, 960),
    ("staten_island", 8, 6, 0.32, 0.14, 0.04, 5, 0.462, 4, 480),
    ("bronx", 7, 10, 0.26, 0.13, 0.03, 6, 0.378, 5, 720),
)
SIZE_JITTER = 0.10
ROUTE_MIN_SHARE = 0.3
"""``route_min_km`` as a share of the grid diagonal. The canned cities
use 0.26–0.36; a fixed length instead fails on small grids ("could not
grow any route" for 2.46 km on an 11×10 grid)."""


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


class Workload:
    """One workload: ``inputs``, ``setup``/``close`` and ``op``."""

    name = ""
    lanes = 1
    n_inputs = 0
    warmup_ops = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def op(self, lane: int, index: int, rec, traced: bool) -> dict:
        """Run input ``index``; return the op's result summary.

        The summary holds ``out`` (the checked output), ``problem``
        (the first broken rule or ``None``) and, for traced ops, the
        layer numbers the program reported.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
class ColdPlan(Workload):
    name = "cold-plan"
    n_inputs = 168
    warmup_ops = 3
    templates = tuple(t for t in SMALL_TEMPLATES if t[0] != "nyc")
    """``nyc``-sized cities take about 3.5 times the mean op; with them the
    90th percentile would rest on the few nyc cities a seed draws."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.config = PlannerConfig()
        self.inputs = [self._city(i) for i in range(self.n_inputs)]

    def _city(self, index: int):
        name, gw, gh, spacing, drop, diag, hot, sigma, routes, trips = (
            self.templates[index % len(self.templates)]
        )
        rng = _rng(self.name, self.seed, index)
        scale = rng.uniform(1 - SIZE_JITTER, 1 + SIZE_JITTER)
        width = max(4, round(gw * scale))
        height = max(3, round(gh * scale))
        return SynthConfig(
            name=f"{name}-{self.seed}-{index}",
            grid_width=width,
            grid_height=height,
            spacing_km=spacing,
            drop_edge_prob=drop,
            diagonal_prob=diag,
            n_hotspots=hot,
            hotspot_sigma_km=sigma,
            n_routes=max(3, round(routes * rng.uniform(1 - SIZE_JITTER, 1 + SIZE_JITTER))),
            route_min_km=ROUTE_MIN_SHARE * spacing * math.hypot(width - 1, height - 1),
            n_trips=round(trips * rng.uniform(1 - SIZE_JITTER, 1 + SIZE_JITTER)),
            seed=rng.randrange(2**31),
        )

    def setup(self) -> None:
        for index in range(self.warmup_ops):
            self.op(0, index, NULL_RECORDER, False)

    def op(self, lane, index, rec, traced):
        cfg = self.config
        with rec.span("op", OP_LAYER, op=index):
            with rec.span("data.build", "data"):
                dataset = build_dataset(self.inputs[index])
            with rec.span("precompute", "precompute"):
                pre = precompute(dataset, cfg)
            with rec.span("search", "search"):
                result = run_method(pre, "eta-pre")
        summary = _checked(from_plan_result(result), cfg)
        if traced:
            summary["layers"] = {
                **_search_numbers(vars(result)),
                "data.accepted": dataset.accepted_trips,
                "data.trips": len(dataset.trips),
                "precompute.candidate_edges": pre.n_candidate_edges,
                **{f"precompute.{k}": v for k, v in pre.timings.items()},
            }
        return summary


# ----------------------------------------------------------------------
class EtaOnline(Workload):
    name = "eta-online"
    n_inputs = 60
    cities = ("staten_island", "bronx", "brooklyn")
    max_iterations = 15

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inputs = []
        for index in range(self.n_inputs):
            rng = _rng(self.name, seed, index)
            self.inputs.append({
                "city": self.cities[index % len(self.cities)],
                "w": rng.uniform(0.3, 0.7),
                "k": rng.randint(6, 10),
                "seed_count": rng.randint(10, 40),
            })
        self.pre = {}

    def setup(self) -> None:
        config = PlannerConfig(k=10)
        for city in self.cities:
            self.pre[city] = precompute(canned_city(city, "bench"), config)
        for index in range(len(self.cities)):
            self.op(0, index, NULL_RECORDER, False)

    def op(self, lane, index, rec, traced):
        spec = self.inputs[index]
        base = self.pre[spec["city"]]
        cfg = base.config.variant(
            w=spec["w"], k=spec["k"], seed_count=spec["seed_count"],
            max_iterations=self.max_iterations,
        )
        # rebind re-derives the ranked lists and bounds the search reads
        # for this op's w and k, so it is counted in the search layer.
        with rec.span("op", OP_LAYER, op=index):
            with rec.span("rebind", "search"):
                pre = rebind(base, cfg)
            with rec.span("search", "search"):
                result = run_method(pre, "eta")
        summary = _checked(from_plan_result(result), cfg)
        if traced:
            summary["layers"] = _search_numbers(vars(result))
        return summary


# ----------------------------------------------------------------------
class ServeReplan(Workload):
    name = "serve-replan"
    lanes = 2
    n_inputs = 140
    warmup_ops = 4
    op_timeout_s = 30.0
    forbid_pool = 12
    """Forbidden stops are drawn from ids below this; every canned
    ``small`` city has more stops than that."""

    cities = tuple(t[0] for t in SMALL_TEMPLATES)

    def __init__(self, seed: int, src_dir: str = "", work_dir: str = "", env=None):
        super().__init__(seed)
        self.src_dir, self.work_dir, self.env = src_dir, work_dir, env or {}
        self.inputs = []
        for index in range(self.n_inputs):
            rng = _rng(self.name, seed, index)
            spec = {
                "name": f"replan-{index}",
                "city": self.cities[index % len(self.cities)],
                "profile": "small",
                "method": "eta-pre",
                "overrides": {"w": rng.uniform(0.3, 0.7), "k": rng.randint(10, 30)},
            }
            if rng.random() < 1 / 3:
                stops = rng.sample(range(self.forbid_pool), rng.randint(1, 2))
                spec["constraints"] = {"forbid_stops": sorted(stops)}
            self.inputs.append(spec)
        self.child = None
        self.clients = []

    def setup(self) -> None:
        child = self.child = ServeChild(self.src_dir, self.work_dir, self.env).start()
        self.clients = [
            FrameClient(child.frame_addr, child.secret, self.op_timeout_s),
            HttpClient(child.http_addr, child.secret, self.op_timeout_s),
        ]
        for city in self.cities:
            self.clients[0].plan({"scenario": {
                "name": f"warm-{city}", "city": city, "profile": "small",
                "method": "eta-pre",
            }})
        for index in range(self.warmup_ops):
            self.op(index % self.lanes, index, NULL_RECORDER, False)

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.child is not None:
            self.child.close()

    def stats(self) -> dict:
        return self.clients[1].get("/stats")

    def op(self, lane, index, rec, traced):
        spec = self.inputs[index]
        client = self.clients[lane]
        start = time.perf_counter()
        reply, n_bytes = client.plan({"scenario": spec})
        end = time.perf_counter()
        record = reply["record"]
        wire = record["results_wire"][0]
        cfg = PlannerConfig(**spec.get("overrides", {}))
        forbid = (spec.get("constraints") or {}).get("forbid_stops", ())
        summary = _checked(from_wire(wire), cfg, forbid)
        if traced:
            # The round trip is the benchmark's call into the serve layer;
            # the reply says how much of it the search took on the server.
            root = rec.add("op", OP_LAYER, start, end, None, index)
            serve = rec.add("serve.rtt", "serve", start, end, root, index)
            rec.add("search", "search", start, start + wire["runtime_s"], serve, index)
            summary["layers"] = {
                **_search_numbers(wire),
                "serve.rtt": end - start,
                "serve.total": record["total_s"],
                "serve.fetch": record["precompute_s"],
                "serve.pool_hit": reply["tier"] == "pool",
                "serve.reply_bytes": n_bytes,
                "serve.door": client.door,
            }
        return summary


def _checked(out: dict, cfg, forbid_stops=()) -> dict:
    return {
        "out": out,
        "problem": check_route(
            out, cfg.k, cfg.max_turns, cfg.w, cfg.allow_loop, forbid_stops
        ),
    }


def _search_numbers(result: dict) -> dict:
    """Search counters from a ``PlanResult``'s fields or its wire record."""
    return {
        "search.iterations": result["iterations"],
        "search.queue_pushes": result["queue_pushes"],
        "search.pruned": result["pruned_by_bound"] + result["pruned_by_domination"],
        "search.evaluations": result["connectivity_evaluations"],
    }


WORKLOADS = {w.name: w for w in (ColdPlan, EtaOnline, ServeReplan)}
