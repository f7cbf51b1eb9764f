"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``    print dataset statistics (Table 5 style).
``plan``     plan a route on a canned city and print route + metrics.
``sweep``    run a scenario grid over an execution backend with a
             persistent precomputation cache; results as a table, JSON
             (``--json`` / ``--format json``), or a streaming JSONL
             record per scenario (``--stream``, resumable with
             ``--resume`` / ``--retry-failures``).
``cache``    inspect and bound the precomputation cache
             (``stats`` / ``evict`` / ``clear``).
``worker``   remote sweep worker daemon: ``worker serve --port N``
             accepts sweep jobs over TCP for ``--backend remote``
             (``--secret-file`` authenticates the wire, ``--capacity``
             weights sharding, ``--registry`` self-registers).
``registry`` worker registry daemon: ``registry serve`` tracks live
             workers (heartbeats, capacity, TTL age-out) so sweeps can
             discover them with ``--registry`` instead of static
             ``--workers-at`` lists.
``bench``    benchmark trajectory: ``bench run`` executes the pinned
             probe suites and writes versioned ``BENCH_<area>.json``
             snapshots; ``bench compare BASELINE...`` diffs a fresh
             run against committed snapshots and exits 1 on regression
             (the CI perf gate).
``removal``  the Figure 1 analysis: connectivity under route removal.
``bounds``   evaluate the three upper bounds on a city (Table 3 style).
``check``    run the invariant-aware static analysis suite (rules
             RPR001-RPR011: determinism, resource safety, atomic
             writes, boxed shared state) over the source tree;
             ``--strict`` also fails on warnings (the CI mode).

The full flag-by-flag reference, including exit-code semantics, lives
in ``docs/cli.md``.

Examples::

    python -m repro stats --city chicago --profile small
    python -m repro plan --city bronx --method eta-pre --k 16 --w 0.3
    python -m repro sweep --city chicago --methods eta-pre,vk-tsp \\
        --weights 0.3,0.5,0.7
    python -m repro sweep --grid grid.yaml --backend sharded --json out.json
    python -m repro sweep --city chicago --profile tiny --json -
    python -m repro sweep --grid grid.yaml --stream out.jsonl
    python -m repro sweep --grid grid.yaml --stream out.jsonl --resume
    python -m repro worker serve --port 7401 --cache-dir .worker-cache
    python -m repro sweep --grid grid.yaml --backend remote \\
        --workers-at 127.0.0.1:7401,127.0.0.1:7402 --stream out.jsonl
    python -m repro registry serve --port 7500 --secret-file secret.txt
    python -m repro worker serve --port 7401 --capacity 4 \\
        --secret-file secret.txt --registry 127.0.0.1:7500
    python -m repro sweep --grid grid.yaml --backend remote \\
        --registry 127.0.0.1:7500 --secret-file secret.txt
    python -m repro cache stats --cache-dir .repro-cache
    python -m repro cache evict --max-entries 8 --max-bytes 50000000
    python -m repro bench run --profile tiny
    python -m repro bench run --suite cache --suite spectral --out .
    python -m repro bench compare BENCH_cache.json --max-regress 20%
    python -m repro removal --city nyc --profile small
    python -m repro bounds --city chicago --k 15
    python -m repro check --strict
    python -m repro check src/repro --select RPR001,RPR011 --format json
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import PlannerConfig
from repro.core.planner import METHODS, CTBusPlanner
from repro.data.datasets import CITY_NAMES, canned_city, list_profiles
from repro.eval.metrics import evaluate_planned_route
from repro.spectral.bounds import (
    estrada_upper_bound,
    general_upper_bound,
    path_upper_bound,
)
from repro.spectral.connectivity import (
    NaturalConnectivityEstimator,
    natural_connectivity_quadrature,
)
from repro.spectral.eigs import top_k_eigenvalues
from repro.utils.errors import DataError, PlanningError, ValidationError
from repro.utils.tables import format_series, format_table

CITY_CHOICES = CITY_NAMES

DEFAULT_CACHE_DIR = ".repro-cache"

BACKEND_CHOICES = ("serial", "process", "sharded", "remote")
"""Mirrors :data:`repro.sweep.backends.BACKEND_NAMES` (kept literal so
parser construction does not import the sweep package)."""

DEFAULT_WORKER_PORT = 7400
"""Default TCP port for ``repro worker serve``."""

DEFAULT_REGISTRY_PORT = 7500
"""Default TCP port for ``repro registry serve`` (mirrors
:data:`repro.sweep.registry.DEFAULT_REGISTRY_PORT`; kept literal so
parser construction does not import the sweep package)."""

DEFAULT_SERVE_PORT = 7600
"""Default frame-protocol TCP port for ``repro serve``."""

DEFAULT_SERVE_HTTP_PORT = 7601
"""Default HTTP front-door TCP port for ``repro serve``."""


def _load_secret_arg(path: "str | None") -> "bytes | None":
    """``--secret-file`` contents as bytes, or ``None`` when unset."""
    if not path:
        return None
    from repro.sweep.remote import load_secret

    return load_secret(path)


def _add_city_args(parser: argparse.ArgumentParser, action="store") -> None:
    parser.add_argument("--city", choices=CITY_CHOICES, default="chicago",
                        action=action)
    parser.add_argument("--profile", choices=list_profiles(), default="small",
                        action=action)


class _InlineFlag(argparse.Action):
    """Stores a sweep axis or base-config flag and notes that it was given.

    ``--grid`` replaces every such flag, so ``_sweep_scenarios`` refuses a
    grid sweep that names one instead of dropping it.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.inline_flags = [*namespace.inline_flags, option_string]


def _cmd_stats(args) -> int:
    ds = canned_city(args.city, args.profile)
    rows = [[k, v] for k, v in ds.stats().items()]
    print(format_table(["stat", "value"], rows, title=f"{ds.name}"))
    return 0


def _cmd_plan(args) -> int:
    ds = canned_city(args.city, args.profile)
    config = PlannerConfig(
        k=args.k,
        w=args.w,
        tau_km=args.tau,
        max_turns=args.turns,
        max_iterations=args.iterations,
    )
    planner = CTBusPlanner(ds, config)
    result = planner.plan(args.method)
    if result.route is None:
        print("no feasible route found")
        return 1
    route = result.route
    print(format_table(
        ["quantity", "value"],
        [
            ["method", result.method],
            ["stops", " -> ".join(str(s) for s in route.stops)],
            ["#edges (#new)", f"{route.n_edges} ({route.n_new_edges})"],
            ["length (km)", round(route.length_km, 2)],
            ["turns", route.turns],
            ["objective O(mu)", round(result.objective, 4)],
            ["demand O_d", round(result.o_d, 1)],
            ["connectivity O_lambda", round(result.o_lambda, 5)],
            ["iterations", result.iterations],
            ["runtime (s)", round(result.runtime_s, 3)],
        ],
        title=f"planned route on {ds.name}",
    ))
    if args.evaluate:
        ev = evaluate_planned_route(
            planner.precomputation, route,
            objective=result.objective,
            o_lambda_normalized=result.o_lambda_normalized,
        )
        print()
        print(format_table(
            ["metric", "value"],
            list(ev.as_row().items()),
            title="transfer convenience",
        ))
    return 0


def _parse_values(text: str, cast):
    try:
        return [cast(v.strip()) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise DataError(
            f"bad axis value list {text!r}: expected comma-separated "
            f"{cast.__name__} values"
        ) from None


def _sweep_scenarios(args):
    """Build the scenario list + base config from CLI flags or a grid file."""
    from repro.sweep import expand_grid, load_grid

    if args.grid:
        if args.inline_flags:
            given = ", ".join(dict.fromkeys(args.inline_flags))
            raise ValidationError(
                f"--grid replaces every inline axis and base-config flag, so it "
                f"cannot be combined with {given}; set them in the grid file"
            )
        return load_grid(args.grid)
    axes = {}
    methods = _parse_values(args.methods, str)
    if methods:
        axes["method"] = methods
    if args.weights:
        axes["w"] = _parse_values(args.weights, float)
    if args.ks:
        axes["k"] = _parse_values(args.ks, int)
    base = PlannerConfig(
        k=args.k,
        tau_km=args.tau,
        max_iterations=args.iterations,
        seed_count=args.seed_count,
    )
    scenarios = expand_grid(
        axes, city=args.city, profile=args.profile, route_count=args.count
    )
    for s in scenarios:
        s.validate(base)
    return scenarios, base


def _check_stream_flags(args) -> "str | None":
    """Flag-combination errors for the streaming options (None = fine)."""
    if args.resume and not args.stream:
        return "--resume requires --stream PATH"
    if args.resume and args.stream == "-":
        return "--resume needs a stream file to reload, not '-'"
    if args.retry_failures and not args.resume:
        return "--retry-failures requires --resume"
    if args.stream == "-" and (args.json == "-" or args.format == "json"):
        return "--stream - and JSON-to-stdout both claim stdout; pick one"
    return None


def _stream_sweep(args, runner, scenarios):
    """Run a streaming sweep with live progress lines on stderr."""
    state = {"done": 0, "pending": 0}

    def announce(n_total: int, n_replayed: int) -> None:
        state["pending"] = n_total - n_replayed
        if args.resume:
            print(
                f"resume: {n_replayed} of {n_total} scenarios already "
                f"committed in {args.stream}; running {state['pending']}",
                file=sys.stderr,
            )

    def on_record(index: int, record: dict) -> None:
        state["done"] += 1
        status = "ok" if record["ok"] else "FAILED"
        cache = {True: "cache hit", False: "cache miss", None: "no cache"}[
            record["cache_hit"]
        ]
        print(
            f"[{state['done']}/{state['pending']}] {record['name']}: "
            f"{status} ({record['total_s']:.2f}s, {cache})",
            file=sys.stderr,
        )

    return runner.run_stream(
        scenarios,
        args.stream,
        resume=args.resume,
        retry_failures=args.retry_failures,
        announce=announce,
        on_record=on_record,
    )


def _cmd_sweep(args) -> int:
    from repro.sweep import (
        PrecomputationCache,
        SweepReport,
        SweepRunner,
        cache_summary,
        failures_summary,
        outcomes_table,
    )

    flag_error = _check_stream_flags(args)
    if not flag_error and args.backend == "remote" and (
        args.cache_max_bytes is not None
    ):
        # No resolve_backend twin for this one: --cache-max-bytes never
        # reaches the library; it evicts the *local* directory, which a
        # remote sweep does not use.
        flag_error = (
            "--cache-max-bytes bounds the local cache directory, which "
            "--backend remote does not use; run 'repro cache evict' on "
            "the worker hosts instead"
        )
    if flag_error:
        print(f"error: {flag_error}", file=sys.stderr)
        return 2
    cache_dir = None if args.no_cache else args.cache_dir
    stream_run = None
    try:
        # Backend/worker/address/registry combinations are validated by
        # resolve_backend (one source of truth); its PlanningError is
        # caught below and exits 2 like every other usage error.
        scenarios, base = _sweep_scenarios(args)
        runner = SweepRunner(
            base_config=base,
            cache_dir=cache_dir,
            workers=args.workers,
            backend=args.backend,
            addresses=args.workers_at or None,
            registry=args.registry or None,
            secret=_load_secret_arg(args.secret_file),
        )
        if args.stream:
            try:
                stream_run = _stream_sweep(args, runner, scenarios)
            except OSError as exc:
                # Scoped to the stream branch: an OSError from a plain
                # sweep (e.g. a cache write) keeps its real traceback.
                print(f"error: cannot write stream file: {exc}",
                      file=sys.stderr)
                return 2
            records = [r for r in stream_run.records if r is not None]
        else:
            outcomes = runner.run(scenarios)
    except (PlanningError, ValidationError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # `--json -` and `--format json` both claim stdout for the JSON
    # document, so the table is suppressed to keep it machine-parseable.
    json_to_stdout = args.json == "-" or args.format == "json"
    # Reports only describe the parent's cache directory when the
    # backend's workers actually used it (remote daemons keep their
    # own stores; their per-record cache_hit flags still apply).
    report_cache_dir = runner.report_cache_dir()
    if args.json or json_to_stdout:
        if stream_run is not None:
            report = SweepReport.from_records(
                records,
                backend=args.backend,
                workers=runner.last_worker_count,
                cache_dir=report_cache_dir,
            )
        else:
            report = SweepReport.from_outcomes(
                outcomes,
                backend=args.backend,
                workers=runner.last_worker_count,
                cache_dir=report_cache_dir,
            )
    if args.json and args.json != "-":
        try:
            report.write(args.json)
        except OSError as exc:
            print(f"error: cannot write JSON report: {exc}", file=sys.stderr)
            return 2
    if json_to_stdout:
        print(report.to_json())
    elif stream_run is not None:
        # Per-scenario output already went to the stream; keep stdout to
        # a one-line summary (suppressed entirely for `--stream -`,
        # whose stdout *is* the stream).
        if args.stream != "-":
            summary = stream_run.summary
            print(
                f"sweep: {summary['n_scenarios']} scenarios "
                f"({stream_run.n_replayed} replayed), "
                f"{summary['n_failed']} failed -> {args.stream}"
            )
            if summary.get("cache"):
                c = summary["cache"]
                print(
                    f"precomputation cache [{c['dir']}]: {c['hits']} hits, "
                    f"{c['misses']} misses, {c['entries']} entries on disk"
                )
    else:
        print(outcomes_table(
            outcomes,
            title=(
                f"sweep: {len(outcomes)} scenarios across "
                f"{runner.last_worker_count} workers "
                f"({args.backend} backend)"
            ),
        ))
        print()
        if args.backend == "remote":
            hits = sum(1 for o in outcomes if o.cache_hit is True)
            misses = sum(1 for o in outcomes if o.cache_hit is False)
            print(
                f"precomputation cache: worker-side ({hits} hits, "
                f"{misses} misses against the daemons' own stores)"
            )
        else:
            print(cache_summary(outcomes, report_cache_dir))
    if stream_run is not None:
        failures = "\n".join(
            f"FAILED {r['name']}: {r['error']}" for r in records if not r["ok"]
        )
    else:
        failures = failures_summary(outcomes)
    if failures:
        print(failures, file=sys.stderr)
    if cache_dir and args.cache_max_bytes is not None:
        evicted = PrecomputationCache(cache_dir).evict(
            max_bytes=args.cache_max_bytes
        )
        if evicted:
            print(
                f"cache: evicted {len(evicted)} entries to fit "
                f"{args.cache_max_bytes} bytes",
                file=sys.stderr,
            )
    return 1 if failures else 0


def _cmd_cache(args) -> int:
    import os

    from repro.sweep import PrecomputationCache

    if not os.path.isdir(args.cache_dir):
        # Never mkdir from an inspection command: a typo'd --cache-dir
        # must surface, not silently read as an empty cache.
        print(f"error: no such cache directory: {args.cache_dir!r}",
              file=sys.stderr)
        return 2
    cache = PrecomputationCache(args.cache_dir)
    if args.cache_command == "stats":
        entries = cache.entries()
        rows = [
            ["directory", cache.directory],
            ["entries", len(entries)],
            ["total bytes", sum(e.n_bytes for e in entries)],
        ]
        if entries:
            rows.append(["oldest key", entries[0].key])
            rows.append(["newest key", entries[-1].key])
        print(format_table(["stat", "value"], rows,
                           title="precomputation cache"))
        return 0
    if args.cache_command == "evict":
        if args.max_entries is None and args.max_bytes is None:
            print("error: evict needs --max-entries and/or --max-bytes",
                  file=sys.stderr)
            return 2
        evicted = cache.evict(
            max_entries=args.max_entries, max_bytes=args.max_bytes
        )
        print(
            f"evicted {len(evicted)} entries; {cache.n_entries} remain "
            f"({cache.total_bytes} bytes)"
        )
        return 0
    # clear
    removed = cache.clear()
    print(f"removed {removed} entries from {cache.directory}")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench import (
        compare_snapshots,
        format_gate,
        load_snapshot,
        parse_percent,
        run_area,
        write_snapshot,
    )
    from repro.bench.trajectory import AREAS

    def on_probe(name: str, metrics: dict) -> None:
        timings = ", ".join(
            f"{k}={v:.4f}s" for k, v in sorted(metrics.items())
            if k.endswith("_s")
        )
        print(f"  probe {name}: {timings}", file=sys.stderr)

    if args.bench_command == "run":
        areas = args.suite or list(AREAS)
        try:
            for area in areas:
                print(f"bench run: {area} suite ({args.profile} profile)",
                      file=sys.stderr)
                snapshot = run_area(
                    area, args.profile,
                    repeat=args.repeat, warmup=args.warmup,
                    on_probe=on_probe,
                )
                path = write_snapshot(snapshot, args.out)
                print(f"wrote {path} ({len(snapshot['metrics'])} metrics, "
                      f"git rev {snapshot['git_rev'] or 'unknown'})")
        except (DataError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    # compare
    try:
        max_regress = parse_percent(args.max_regress)
        if args.fresh and len(args.baseline) != 1:
            print("error: --fresh compares exactly one baseline snapshot",
                  file=sys.stderr)
            return 2
        failed = False
        for baseline_path in args.baseline:
            baseline = load_snapshot(baseline_path)
            if args.fresh:
                fresh = load_snapshot(args.fresh)
            else:
                print(
                    f"bench compare: fresh {baseline['area']} run "
                    f"({baseline['suite_profile']} profile) vs {baseline_path}",
                    file=sys.stderr,
                )
                fresh = run_area(
                    baseline["area"], baseline["suite_profile"],
                    repeat=args.repeat, warmup=args.warmup,
                )
            result = compare_snapshots(baseline, fresh, max_regress)
            print(format_gate(result))
            failed = failed or not result.ok
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


def _cmd_worker(args) -> int:
    from repro.sweep.registry import Heartbeat, resolve_registry
    from repro.sweep.remote import serve_worker

    cache_dir = None if args.no_cache else args.cache_dir
    heartbeat = None
    try:
        secret = _load_secret_arg(args.secret_file)
        server = serve_worker(
            host=args.host, port=args.port, cache_dir=cache_dir,
            secret=secret, capacity=args.capacity,
            advertise_host=args.advertise_host or None,
        )
        if args.registry:
            # Register before announcing readiness so a typo'd
            # --registry exits 2 instead of silently never registering.
            heartbeat = Heartbeat(
                resolve_registry(args.registry, secret=secret),
                server.worker_record,
                interval=args.heartbeat,
            )
            heartbeat.start()
    except (PlanningError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The "listening" line is the readiness signal wrappers (and the CI
    # smoke) wait for; the resolved port matters when --port 0 was used.
    print(
        f"worker listening on {server.host}:{server.port} "
        f"(cache: {cache_dir or 'disabled'}, capacity: {server.capacity}, "
        f"auth: {'on' if secret else 'off'}"
        f"{f', registry: {args.registry}' if args.registry else ''})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        if heartbeat is not None:
            heartbeat.stop(deregister=True)
    return 0


def _cmd_serve(args) -> int:
    import threading

    from repro.serve import build_http_server, serve_plans

    cache_dir = None if args.no_cache else args.cache_dir
    http_server = None
    try:
        secret = _load_secret_arg(args.secret_file)
        server = serve_plans(
            host=args.host, port=args.port, secret=secret,
            cache_dir=cache_dir, pool_bytes=args.pool_bytes,
            idle_timeout=args.idle_timeout or None,
            cache_max_bytes=args.cache_max_bytes,
        )
        try:
            http_server = build_http_server(server, args.host, args.http_port)
        except PlanningError:
            server.shutdown()
            raise
    except (PlanningError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    http_thread = threading.Thread(
        target=http_server.serve_forever, daemon=True
    )
    http_thread.start()
    # Readiness lines, same contract as the worker/registry daemons';
    # the HTTP line comes second so wrappers can wait for either.
    print(
        f"serve listening on {server.host}:{server.port} "
        f"(cache: {cache_dir or 'disabled'}, "
        f"pool: {args.pool_bytes} bytes, "
        f"auth: {'on' if secret else 'off'})",
        flush=True,
    )
    print(
        f"serve http listening on {args.host}:"
        f"{http_server.server_address[1]}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        http_server.shutdown()
        http_server.server_close()
    return 0


def _cmd_registry(args) -> int:
    from repro.sweep.registry import serve_registry

    try:
        secret = _load_secret_arg(args.secret_file)
        server = serve_registry(
            host=args.host, port=args.port, secret=secret, ttl=args.ttl
        )
    except PlanningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Readiness line, same contract as the worker daemon's.
    print(
        f"registry listening on {server.host}:{server.port} "
        f"(ttl: {server.ttl:g}s, auth: {'on' if secret else 'off'})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _cmd_removal(args) -> int:
    ds = canned_city(args.city, args.profile)
    transit = ds.transit
    n_routes = transit.n_routes
    if n_routes <= 1:
        print(
            f"error: route-removal analysis needs at least 2 routes; "
            f"{ds.name} has {n_routes}",
            file=sys.stderr,
        )
        return 2
    estimator = NaturalConnectivityEstimator(transit.n_stops)
    step = max(n_routes // args.points, 1)
    # Sample up to n_routes - 1 removals, always including the final
    # point (all routes but one gone) so the curve reaches the
    # high-removal end of Figure 1.
    counts = list(range(0, n_routes - 1, step))
    if counts[-1] != n_routes - 1:
        counts.append(n_routes - 1)
    xs, ys = [], []
    for removed in counts:
        reduced = transit.without_routes(set(range(removed)))
        xs.append(removed)
        ys.append(estimator.estimate(reduced.adjacency()))
    print(format_series(
        xs, ys, "#removed routes", "natural connectivity",
        title=f"route removal on {ds.name} (Figure 1)",
    ))
    return 0


def _cmd_bounds(args) -> int:
    ds = canned_city(args.city, args.profile)
    A = ds.transit.adjacency()
    n = ds.transit.n_stops
    lam = natural_connectivity_quadrature(A)
    eigs = top_k_eigenvalues(A, max(2 * args.k, 1))
    print(format_table(
        ["bound", "value", "increment over lambda"],
        [
            ["lambda(G_r)", round(lam, 4), "-"],
            ["Estrada [25]",
             round(estrada_upper_bound(n, ds.transit.n_edges + args.k), 4), "-"],
            ["General (Lemma 3)",
             round(general_upper_bound(lam, eigs, n, args.k), 4),
             round(general_upper_bound(lam, eigs, n, args.k) - lam, 4)],
            ["Path (Lemma 4)",
             round(path_upper_bound(lam, eigs, n, args.k), 4),
             round(path_upper_bound(lam, eigs, n, args.k) - lam, 4)],
        ],
        title=f"connectivity upper bounds on {ds.name}, k={args.k}",
    ))
    return 0


def _split_codes(text: str) -> "list[str] | None":
    """``"RPR001, rpr002"`` → ``["RPR001", "rpr002"]``; empty → ``None``."""
    codes = [code.strip() for code in text.split(",") if code.strip()]
    return codes or None


def _cmd_check(args) -> int:
    import json
    import os

    from repro.analysis import all_rules, run_check
    from repro.analysis.engine import render_text

    if args.list_rules:
        rows = [
            [rule.code, str(rule.severity), rule.summary]
            for rule in all_rules()
        ]
        print(format_table(["code", "severity", "invariant"], rows,
                           title="repro check rules"))
        return 0

    root = args.root
    if not root:
        # Default to the installed package: `repro check` anywhere means
        # "check this build's own source tree".
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    try:
        run = run_check(
            root,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
        if args.write_baseline:
            from repro.analysis.baseline import write_baseline

            n = write_baseline(run.findings, args.write_baseline)
            print(f"wrote {n} finding(s) to {args.write_baseline}")
            return 0
        baselined: "list" = []
        if args.baseline:
            from repro.analysis.baseline import (
                load_baseline,
                partition_findings,
            )

            new, baselined = partition_findings(
                run.findings, load_baseline(args.baseline)
            )
            run.findings = new
    except (DataError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        # Stable for CI artifact diffing: sorted findings (engine),
        # sorted keys, relative paths, nothing volatile.
        print(json.dumps(run.to_record(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.analysis.sarif import to_sarif

        print(json.dumps(to_sarif(run), indent=2, sort_keys=True))
    else:
        print(render_text(run, strict=args.strict))
        if baselined:
            print(f"({len(baselined)} baselined finding(s) tolerated)")
    return 1 if run.failed(strict=args.strict) else 0


class _WholeNameParser(argparse.ArgumentParser):
    """An argument parser that matches only whole option names.

    argparse otherwise takes any unambiguous prefix, so a removed flag
    would silently parse as a longer one that it prefixes (``--seed 9``
    as ``--seed-count 9``). Sub-parsers are built with the parser's own
    class, so this holds for every command.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _WholeNameParser(
        prog="repro",
        description="CT-Bus: demand- and connectivity-aware bus route planning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print dataset statistics")
    _add_city_args(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_plan = sub.add_parser("plan", help="plan a new bus route")
    _add_city_args(p_plan)
    p_plan.add_argument("--method", choices=METHODS, default="eta-pre")
    p_plan.add_argument("--k", type=int, default=20)
    p_plan.add_argument("--w", type=float, default=0.5)
    p_plan.add_argument("--tau", type=float, default=0.5)
    p_plan.add_argument("--turns", type=int, default=3)
    p_plan.add_argument("--iterations", type=int, default=2000)
    p_plan.add_argument("--evaluate", action="store_true",
                        help="also compute transfer-convenience metrics")
    p_plan.set_defaults(func=_cmd_plan)

    p_sweep = sub.add_parser(
        "sweep", help="run a scenario grid with a persistent precompute cache"
    )
    _add_city_args(p_sweep, action=_InlineFlag)
    p_sweep.set_defaults(profile="tiny", inline_flags=[])
    p_sweep.add_argument("--grid", default="",
                         help="YAML/JSON grid file; replaces ALL inline axis "
                              "and base-config flags (--methods/--weights/"
                              "--ks/--k/--tau/--iterations/--seed-count/"
                              "--count/--city/--profile), and naming one "
                              "with it is an error")
    p_sweep.add_argument("--methods", default="eta-pre,vk-tsp", action=_InlineFlag,
                         help="comma-separated method axis")
    p_sweep.add_argument("--weights", default="0.3,0.5,0.7", action=_InlineFlag,
                         help="comma-separated w axis")
    p_sweep.add_argument("--ks", default="", action=_InlineFlag,
                         help="comma-separated k axis")
    p_sweep.add_argument("--k", type=int, default=12, action=_InlineFlag,
                         help="base k")
    p_sweep.add_argument("--tau", type=float, default=0.5, action=_InlineFlag)
    p_sweep.add_argument("--iterations", type=int, default=500, action=_InlineFlag)
    p_sweep.add_argument("--seed-count", type=int, default=200, action=_InlineFlag)
    p_sweep.add_argument("--count", type=int, default=1, action=_InlineFlag,
                         help="routes per scenario (multi-route planning)")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="process count (default: min(#scenarios, cpus))")
    p_sweep.add_argument("--backend", choices=BACKEND_CHOICES,
                         default="process",
                         help="execution backend: serial (in-process), "
                              "process (one task per scenario), sharded "
                              "(per-worker shards with failure isolation), "
                              "or remote (TCP worker daemons; needs "
                              "--workers-at or --registry)")
    p_sweep.add_argument("--workers-at", default="",
                         metavar="HOST:PORT,...",
                         help="remote worker daemon addresses for "
                              "--backend remote (see 'repro worker serve')")
    p_sweep.add_argument("--registry", default="",
                         metavar="HOST:PORT|PATH",
                         help="resolve remote workers from a registry "
                              "('repro registry serve' address, or a JSON "
                              "registry file) instead of --workers-at; "
                              "workers joining mid-sweep are picked up")
    p_sweep.add_argument("--secret-file", default="", metavar="PATH",
                         help="shared secret authenticating the remote "
                              "workers/registry (must match their "
                              "--secret-file)")
    p_sweep.add_argument("--json", default="", metavar="PATH",
                         help="also write a structured JSON report to PATH "
                              "('-' prints it to stdout instead of the table)")
    p_sweep.add_argument("--format", choices=("table", "json"),
                         default="table",
                         help="stdout format (json suppresses the table)")
    p_sweep.add_argument("--stream", default="", metavar="PATH",
                         help="stream one flushed JSONL record per scenario "
                              "as it finishes to PATH ('-' streams to "
                              "stdout), plus a terminal summary record")
    p_sweep.add_argument("--resume", action="store_true",
                         help="reload the --stream file and run only the "
                              "scenarios without a committed record "
                              "(interrupted sweeps continue, finished "
                              "sweeps are a no-op)")
    p_sweep.add_argument("--retry-failures", action="store_true",
                         help="with --resume: also re-run scenarios whose "
                              "committed record is a failure")
    p_sweep.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                         help="persistent precomputation cache directory")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="disable the precomputation cache")
    p_sweep.add_argument("--cache-max-bytes", type=int, default=None,
                         help="after the sweep, LRU-evict cache entries "
                              "down to this many bytes")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cache = sub.add_parser(
        "cache", help="inspect or bound the precomputation cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cache_stats = cache_sub.add_parser(
        "stats", help="entry count and on-disk size"
    )
    p_cache_evict = cache_sub.add_parser(
        "evict", help="LRU-evict entries down to the given budgets"
    )
    p_cache_evict.add_argument("--max-entries", type=int, default=None,
                               help="keep at most this many entries")
    p_cache_evict.add_argument("--max-bytes", type=int, default=None,
                               help="keep at most this many bytes")
    p_cache_clear = cache_sub.add_parser(
        "clear", help="delete every committed entry"
    )
    for pc in (p_cache_stats, p_cache_evict, p_cache_clear):
        pc.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="precomputation cache directory")
        pc.set_defaults(func=_cmd_cache)

    p_bench = sub.add_parser(
        "bench", help="benchmark trajectory: timed probe suites + perf gate"
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bench_run = bench_sub.add_parser(
        "run", help="run probe suites and write BENCH_<area>.json snapshots"
    )
    p_bench_run.add_argument("--suite", action="append", default=None,
                             choices=("plan", "sweep", "cache", "spectral",
                                      "serve"),
                             help="suite area to run (repeatable; default: "
                                  "all five)")
    p_bench_run.add_argument("--out", default=".", metavar="DIR",
                             help="directory for the BENCH_<area>.json "
                                  "snapshots (default: current directory)")
    p_bench_compare = bench_sub.add_parser(
        "compare",
        help="diff a fresh run against committed snapshots; exit 1 on "
             "regression",
    )
    p_bench_compare.add_argument("baseline", nargs="+",
                                 metavar="BASELINE",
                                 help="committed BENCH_<area>.json snapshots "
                                      "to gate against")
    p_bench_compare.add_argument("--max-regress", default="20%",
                                 metavar="PCT",
                                 help="fail when a *_s timing grows more "
                                      "than this ('20%%' or 0.2; "
                                      "default 20%%)")
    p_bench_compare.add_argument("--fresh", default="", metavar="PATH",
                                 help="compare this already-written snapshot "
                                      "instead of running fresh probes "
                                      "(exactly one BASELINE)")
    for pb in (p_bench_run, p_bench_compare):
        pb.add_argument("--profile", choices=("tiny", "bench"),
                        default="tiny",
                        help="suite profile: dataset size + pinned "
                             "warmup/repeat counts (compare always uses "
                             "the baseline's own profile)")
        pb.add_argument("--repeat", type=int, default=None,
                        help="override the profile's timed-run count")
        pb.add_argument("--warmup", type=int, default=None,
                        help="override the profile's warmup-run count")
        pb.set_defaults(func=_cmd_bench)

    p_worker = sub.add_parser(
        "worker", help="remote sweep worker daemon (see --backend remote)"
    )
    worker_sub = p_worker.add_subparsers(dest="worker_command", required=True)
    p_worker_serve = worker_sub.add_parser(
        "serve", help="accept sweep jobs over TCP until interrupted"
    )
    p_worker_serve.add_argument("--host", default="127.0.0.1",
                                help="interface to bind")
    p_worker_serve.add_argument("--port", type=int,
                                default=DEFAULT_WORKER_PORT,
                                help="TCP port (0 picks an ephemeral port; "
                                     "the resolved port is printed)")
    p_worker_serve.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                                help="this worker's precomputation cache "
                                     "directory")
    p_worker_serve.add_argument("--no-cache", action="store_true",
                                help="disable the precomputation cache")
    p_worker_serve.add_argument("--secret-file", default="", metavar="PATH",
                                help="require the HMAC handshake against "
                                     "this shared secret on every "
                                     "connection")
    p_worker_serve.add_argument("--capacity", type=int, default=1,
                                help="advertised scheduling weight: a "
                                     "capacity-4 worker receives ~4x the "
                                     "scenarios of a capacity-1 worker")
    p_worker_serve.add_argument("--registry", default="",
                                metavar="HOST:PORT|PATH",
                                help="register (and heartbeat) into this "
                                     "worker registry so sweeps can "
                                     "discover the worker")
    p_worker_serve.add_argument("--advertise-host", default="",
                                metavar="HOST",
                                help="host to publish in the registry "
                                     "(default: the bound --host; set it "
                                     "when binding 0.0.0.0)")
    p_worker_serve.add_argument("--heartbeat", type=float, default=2.0,
                                metavar="SECONDS",
                                help="registry heartbeat interval")
    p_worker_serve.set_defaults(func=_cmd_worker)

    p_registry = sub.add_parser(
        "registry", help="worker registry daemon (see sweep --registry)"
    )
    registry_sub = p_registry.add_subparsers(
        dest="registry_command", required=True
    )
    p_registry_serve = registry_sub.add_parser(
        "serve", help="track live workers over TCP until interrupted"
    )
    p_registry_serve.add_argument("--host", default="127.0.0.1",
                                  help="interface to bind")
    p_registry_serve.add_argument("--port", type=int,
                                  default=DEFAULT_REGISTRY_PORT,
                                  help="TCP port (0 picks an ephemeral "
                                       "port; the resolved port is "
                                       "printed)")
    p_registry_serve.add_argument("--secret-file", default="",
                                  metavar="PATH",
                                  help="require the HMAC handshake against "
                                       "this shared secret on every "
                                       "connection")
    p_registry_serve.add_argument("--ttl", type=float, default=30.0,
                                  metavar="SECONDS",
                                  help="registrations without a heartbeat "
                                       "for this long age out")
    p_registry_serve.set_defaults(func=_cmd_registry)

    p_serve = sub.add_parser(
        "serve",
        help="planning-as-a-service daemon: frame protocol + HTTP "
             "front door, hot in-memory artifact pool",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="interface to bind (both doors)")
    p_serve.add_argument("--port", type=int, default=DEFAULT_SERVE_PORT,
                         help="frame-protocol TCP port (0 picks an "
                              "ephemeral port; the resolved port is "
                              "printed)")
    p_serve.add_argument("--http-port", type=int,
                         default=DEFAULT_SERVE_HTTP_PORT,
                         help="HTTP front-door TCP port (0 picks an "
                              "ephemeral port)")
    p_serve.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                         help="disk precomputation cache under the pool")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the disk tier (pool only)")
    p_serve.add_argument("--secret-file", default="", metavar="PATH",
                         help="require the HMAC handshake on frame "
                              "connections and a derived bearer token "
                              "on HTTP requests")
    p_serve.add_argument("--pool-bytes", type=int,
                         default=512 * 1024 * 1024,
                         help="in-memory artifact pool budget in bytes "
                              "(mirrors repro.serve.pool."
                              "DEFAULT_POOL_BYTES; default 512 MiB)")
    p_serve.add_argument("--idle-timeout", type=float, default=600.0,
                         metavar="SECONDS",
                         help="drop frame peers idle for this long "
                              "(0 disables the deadline)")
    p_serve.add_argument("--cache-max-bytes", type=int, default=None,
                         help="standing byte budget for the disk tier; "
                              "every store evicts LRU entries beyond it")
    p_serve.set_defaults(func=_cmd_serve)

    p_removal = sub.add_parser("removal", help="Figure 1 route-removal analysis")
    _add_city_args(p_removal)
    p_removal.add_argument("--points", type=int, default=10)
    p_removal.set_defaults(func=_cmd_removal)

    p_bounds = sub.add_parser("bounds", help="Table 3 bound comparison")
    _add_city_args(p_bounds)
    p_bounds.add_argument("--k", type=int, default=15)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_check = sub.add_parser(
        "check",
        help="invariant-aware static analysis (determinism, "
             "resource safety, atomic writes, boxed shared state)",
    )
    p_check.add_argument("root", nargs="?", default="",
                         help="directory or file to check (default: this "
                              "build's installed repro package)")
    p_check.add_argument("--strict", action="store_true",
                         help="fail (exit 1) on warnings too, not just "
                              "errors — the CI mode")
    p_check.add_argument("--format", choices=("text", "json", "sarif"),
                         default="text",
                         help="text: one line per finding; json: stable "
                              "machine-readable document (sorted, "
                              "relative paths, diffable in CI); sarif: "
                              "SARIF 2.1.0 for code-scanning dashboards")
    p_check.add_argument("--select", default="", metavar="CODES",
                         help="comma-separated rule codes to run "
                              "(default: all registered rules)")
    p_check.add_argument("--ignore", default="", metavar="CODES",
                         help="comma-separated rule codes to skip")
    p_check.add_argument("--baseline", default="", metavar="FILE",
                         help="tolerate findings recorded in FILE (made "
                              "with --write-baseline); only new findings "
                              "fail the check")
    p_check.add_argument("--write-baseline", default="", metavar="FILE",
                         help="snapshot the current findings to FILE and "
                              "exit 0; pair with --baseline to ratchet "
                              "down existing debt")
    p_check.add_argument("--list-rules", action="store_true",
                         help="print the rule catalog and exit")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
