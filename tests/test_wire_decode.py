"""Construction is the validator: the wire codec and the doors that use it.

A :class:`repro.utils.wire.Record` refuses a mistyped field by name when
it is built, and never coerces a value into shape.
:func:`repro.utils.wire.from_wire` adds the refusal of a missing or
unknown field and reports every refusal as a :class:`DataError` naming
the field's full path. The daemons and clients built on it turn such a
rejection into a typed refusal — never into a plausible-looking answer
computed from the wrong input.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest

from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.core.result import PlannedRoute, PlanResult
from repro.serve import PlanServer, build_http_server, http_token
from repro.sweep import (
    OutcomeRecord,
    RemoteBackend,
    Scenario,
    SweepReport,
    SweepRunner,
    config_fingerprint,
    expand_grid,
    scenario_key,
)
from repro.sweep.backends import failure_outcome
from repro.sweep.remote import (
    PROTOCOL_VERSION,
    FrameServer,
    RemoteProtocolError,
    RunFrame,
    connect_authenticated,
    recv_frame,
    send_frame,
    server_handshake,
)
from repro.utils.errors import DataError, PlanningError, ValidationError
from repro.utils.wire import Record, from_wire, to_wire

SECRET = b"wire-decode-secret"


@dataclass(frozen=True)
class Pair(Record):
    op: ClassVar[str] = "pair"
    index: int
    weight: float
    points: "tuple[tuple[int, float], ...]" = ()
    note: "str | None" = None


def plan_result() -> PlanResult:
    return PlanResult(
        method="eta",
        route=PlannedRoute(
            stops=(3, 1, 4), edge_indices=(10, 11), new_pairs=((1, 4),),
            length_km=2.5, turns=1,
        ),
        objective=0.4375, o_d=12.0, o_lambda=0.125, o_d_normalized=0.5,
        o_lambda_normalized=0.25, search_score=0.375, iterations=7,
        runtime_s=0.0625, connectivity_evaluations=9,
        trace=[(1, 0.25), (5, 0.375)],
    )


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------
class TestCodec:
    def test_round_trip_through_json_is_lossless(self):
        result = plan_result()
        doc = json.loads(json.dumps(to_wire(result)))
        assert from_wire(PlanResult, doc) == result

    def test_frame_op_leads_and_defaults_fill_in(self):
        assert list(to_wire(Pair(index=1, weight=0.5))) == [
            "op", "index", "weight", "points", "note",
        ]
        decoded = from_wire(Pair, {"op": "pair", "index": 1, "weight": 2})
        assert decoded == Pair(index=1, weight=2)
        assert type(decoded.weight) is int  # an int is a float, kept as is

    @pytest.mark.parametrize("doc, match", [
        ({"op": "pair", "weight": 0.5}, "missing field 'index'"),
        ({"op": "pair", "index": 1, "weight": 0.5, "extra": 1},
         r"unknown keys \['extra'\]"),
        ({"op": "other", "index": 1, "weight": 0.5}, "expects op 'pair'"),
        ({"index": 1, "weight": 0.5}, "expects op 'pair'"),
        ({"op": "pair", "index": True, "weight": 0.5},
         "'index' must be int"),
        ({"op": "pair", "index": 1.0, "weight": 0.5},
         "'index' must be int"),
        ({"op": "pair", "index": 1, "weight": "0.5"},
         "'weight' must be float"),
        ({"op": "pair", "index": 1, "weight": False},
         "'weight' must be float"),
        ({"op": "pair", "index": 1, "weight": 0.5, "points": [[1]]},
         r"'points\[\]' must have 2 items"),
        ({"op": "pair", "index": 1, "weight": 0.5, "points": [[1, "x"]]},
         r"'points\[\]\[\]' must be float"),
        ({"op": "pair", "index": 1, "weight": 0.5, "note": 3},
         "'note' must be str"),
        ([1, 2], "must be a mapping"),
    ])
    def test_rejections_name_the_field(self, doc, match):
        with pytest.raises(DataError, match=match):
            from_wire(Pair, doc)

    def test_nested_field_is_named_by_its_path(self):
        doc = to_wire(plan_result())
        doc["route"]["stops"][1] = 1.5
        match = r"'route\.stops\[\]' must be int"
        with pytest.raises(DataError, match=match):
            from_wire(PlanResult, doc)

    def test_a_record_refusing_its_values_is_a_data_error(self):
        doc = {"op": "run", "protocol": PROTOCOL_VERSION,
               "base_config": {"k": 0}}
        match = r"'base_config' is invalid: k must be >= 1"
        with pytest.raises(DataError, match=match):
            from_wire(RunFrame, doc)

    def test_only_records_decode(self):
        with pytest.raises(TypeError, match="not a wire record"):
            from_wire(dict, {})


# ----------------------------------------------------------------------
# Construction checks with the codec's rules
# ----------------------------------------------------------------------
class TestRecord:
    def test_containers_are_stored_as_declared(self):
        pair = Pair(index=1, weight=0.5, points=[[1, 0.5], (2, 1)])
        assert pair.points == ((1, 0.5), (2, 1))
        assert type(pair.points[0]) is tuple
        constraints = PlanningConstraints(forbid_stops=[3, 1], forbid_edges={2})
        assert constraints.forbid_stops == frozenset({1, 3})
        assert type(constraints.forbid_edges) is frozenset

    def test_numpy_scalars_are_stored_as_python_values(self):
        pair = Pair(
            index=np.int64(3), weight=np.float32(0.5),
            points=[(np.int8(1), np.float64(0.25))], note=np.str_("n"),
        )
        assert pair == Pair(index=3, weight=0.5, points=((1, 0.25),), note="n")
        assert [type(v) for v in (pair.index, pair.weight, pair.note)] == [
            int, float, str,
        ]
        assert [type(v) for v in pair.points[0]] == [int, float]

    def test_dict_values_are_unwrapped_one_level_deep(self):
        deep = np.arange(2)
        scenario = Scenario(name="s", overrides={"k": np.int64(5), "x": deep})
        assert type(scenario.overrides["k"]) is int
        assert scenario.overrides["x"] is deep

    @pytest.mark.parametrize("kwargs, match", [
        ({"index": True, "weight": 0.5}, "'index' must be int, got bool True"),
        ({"index": np.float64(1.5), "weight": 0.5},
         "'index' must be int, got float 1.5"),
        ({"index": 1, "weight": 0.5, "points": [(1, "x")]},
         r"'points\[\]\[\]' must be float, got str 'x'"),
        ({"index": 1, "weight": 0.5, "points": {(1, 0.5)}},
         "'points' must be a list, got set"),
    ])
    def test_refusal_names_the_record_and_field(self, kwargs, match):
        with pytest.raises(ValidationError, match=rf"^Pair field {match}"):
            Pair(**kwargs)

    def test_a_nested_record_is_not_built_from_a_mapping(self):
        with pytest.raises(ValidationError, match="'route' must be PlannedRoute"):
            dataclasses.replace(plan_result(), route={"stops": [1]})


# ----------------------------------------------------------------------
# Planner knobs and scenario counts are never coerced
# ----------------------------------------------------------------------
class TestNoCoercion:
    @pytest.mark.parametrize("field, value", [
        ("k", 12.5), ("k", 3.0), ("k", True), ("max_turns", 1.5),
        ("seed_count", 2.0), ("max_iterations", "100"), ("max_turns", False),
        ("seed_count", 6.5), ("record_every", None), ("seed_count", True),
        ("w", True), ("w", "0.5"), ("tau_km", None),
        ("use_domination", 1), ("new_edges_only", "no"),
        ("allow_loop", None), ("allow_loop", 0),
    ])
    def test_planner_config_refuses_a_wrong_type_by_name(self, field, value):
        match = rf"^PlannerConfig field '{field}' must be (int|float|bool),"
        with pytest.raises(ValidationError, match=match):
            PlannerConfig(**{field: value})

    @pytest.mark.parametrize("field", ["n_probes", "lanczos_steps", "seed"])
    def test_a_removed_planner_field_is_refused_by_name(self, field):
        # The probe count, Lanczos steps and probe seed are constants of
        # the estimator: naming one is an error, never an ignored knob.
        with pytest.raises(TypeError, match=f"'{field}'"):
            PlannerConfig(**{field: 1})
        with pytest.raises(DataError, match=rf"unknown keys \['{field}'\]"):
            from_wire(PlannerConfig, {**to_wire(PlannerConfig()), field: 1})
        scenario = Scenario(name="s", overrides={field: 1})
        with pytest.raises(PlanningError, match=f"'{field}'"):
            scenario.validate()

    def test_planner_config_accepts_numpy_scalars(self):
        # Sweeps and figures build their axes with numpy.
        config = PlannerConfig(
            k=np.int64(5), w=np.float64(0.25), tau_km=np.float32(0.5),
            max_turns=np.int32(2), seed_count=None,
        )
        assert (config.k, config.w, config.max_turns) == (5, 0.25, 2)
        # Stored as plain numbers: the config keys, saves and travels
        # exactly like its plain twin.
        plain = PlannerConfig(
            k=5, w=0.25, tau_km=0.5, max_turns=2, seed_count=None
        )
        names = ("k", "max_turns", "w", "tau_km")
        assert [type(getattr(config, n)) for n in names] == [
            int, int, float, float,
        ]
        assert config_fingerprint(config) == config_fingerprint(plain)
        frames = [
            json.dumps(to_wire(RunFrame(protocol=2, base_config=c, scenarios=[])))
            for c in (config, plain)
        ]
        assert frames[0] == frames[1]

    def test_scenario_overrides_accept_numpy_scalars(self, tmp_path):
        # The stream, the report and the wire each failed on an int64.
        grid = expand_grid({"k": np.array([5, 6]), "w": np.array([0.3])})
        base = PlannerConfig(max_iterations=20, seed_count=10)
        runner = SweepRunner(base_config=base, backend="serial")
        run = runner.run_stream(grid, str(tmp_path / "numpy.jsonl"))
        assert [r["overrides"] for r in run.records] == [
            {"k": 5, "w": 0.3}, {"k": 6, "w": 0.3},
        ]
        report = json.loads(SweepReport.from_outcomes(run.outcomes).to_json())
        assert [s["overrides"] for s in report["scenarios"]] == [
            {"k": 5, "w": 0.3}, {"k": 6, "w": 0.3},
        ]
        for scenario in grid:
            json.dumps(to_wire(scenario))
            assert [type(v) for v in scenario.overrides.values()] == [
                int, float,
            ]
        plain = expand_grid({"k": [5, 6], "w": [0.3]})
        assert [scenario_key(s, base) for s in grid] == [
            scenario_key(s, base) for s in plain
        ]

    @pytest.mark.parametrize("field, value", [
        ("route_count", 2.9), ("route_count", "2"), ("route_count", True),
        ("name", True), ("city", 1.5), ("method", 7),
        ("overrides", [["k", 3]]),
        ("constraints", {"anchor_stop": True}),
        ("constraints", {"anchor_stop": "3"}),
        ("constraints", {"forbid_stops": [1.0]}),
        ("constraints", {"forbid_edges": "12"}),
    ])
    def test_scenario_spec_refuses_a_coercible_value(self, field, value):
        spec = {**to_wire(Scenario(name="s")), field: value}
        named = field if field != "constraints" else next(iter(value))
        with pytest.raises(
            DataError, match=f"'(constraints\\.)?{named}(\\[\\])?' must be"
        ):
            from_wire(Scenario, spec)

    def test_numpy_route_counts_encode_like_plain_ones(self):
        grid = expand_grid({"route_count": np.array([1, 2])})
        plain = expand_grid({"route_count": [1, 2]})
        assert [json.dumps(to_wire(s)) for s in grid] == [
            json.dumps(to_wire(s)) for s in plain
        ]

    def test_numpy_ids_encode_like_plain_ones(self):
        scenarios = [
            Scenario(name="c", constraints=PlanningConstraints(
                forbid_stops=stops,
            ))
            for stops in (set(np.arange(3)), {0, 1, 2})
        ]
        assert json.dumps(to_wire(scenarios[0])) == json.dumps(
            to_wire(scenarios[1])
        )

    def test_a_string_route_count_is_refused_on_construction(self):
        with pytest.raises(ValidationError, match="'route_count' must be int"):
            expand_grid({"route_count": ["2"]})

    @pytest.mark.parametrize("doc", [
        {"forbid_stops": [1, 1.0]},
        {"forbid_stops": [1, True]},
        {"forbid_edges": [2, 2.0]},
    ])
    def test_id_sets_are_checked_item_by_item(self, doc):
        # frozenset([1, 1.0]) == {1}: checking the built set would pass.
        (name,) = doc
        with pytest.raises(DataError, match=rf"'{name}\[\]' must be int"):
            from_wire(PlanningConstraints, doc)


# ----------------------------------------------------------------------
# The doors
# ----------------------------------------------------------------------
@pytest.fixture()
def plan_server():
    server = PlanServer(secret=SECRET)
    server.start_in_thread()
    yield server
    server.shutdown()


class CopyingWorker(FrameServer):
    """Answers every job with failure outcomes, ``copies`` frames each."""

    frames = {"run": RunFrame}

    def __init__(self, copies: int):
        super().__init__()
        self.copies = copies

    def handle(self, conn, frame) -> bool:
        for item in frame.scenarios:
            record = OutcomeRecord.of(failure_outcome(
                item.scenario, ValueError("x")
            ))
            for _ in range(self.copies):
                send_frame(conn, {
                    "op": "outcome", "index": item.index,
                    "record": to_wire(record),
                })
        send_frame(conn, {"op": "done", "n_executed": len(frame.scenarios)})
        return True


PLAN_WITH_TYPO = {
    "scenario": to_wire(Scenario(name="typo", method="eta-pre")),
    "base_confg": {"k": 3},
}


class TestStrictDoors:
    """A misspelled key is refused by name, not planned with defaults."""

    def test_frame_door_refuses_unknown_plan_key(self, plan_server):
        with connect_authenticated(plan_server.address, SECRET) as sock:
            send_frame(sock, {
                "op": "plan", "protocol": PROTOCOL_VERSION, **PLAN_WITH_TYPO,
            })
            error = recv_frame(sock)
        assert error["op"] == "error"
        assert "base_confg" in error["error"]

    def test_http_door_answers_400_naming_the_key(self, plan_server):
        http_server = build_http_server(plan_server, "127.0.0.1", 0)
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{http_server.server_address[1]}/plan",
                data=json.dumps(PLAN_WITH_TYPO).encode(),
                headers={"Authorization": f"Bearer {http_token(SECRET)}"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=30)
            assert err.value.code == 400
            error = json.loads(err.value.read())["error"]
            err.value.close()
            assert "base_confg" in error
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_fractional_outcome_index_marks_worker_faulty(self):
        # Truncating "index": 0.7 to 0 would commit the outcome to a grid
        # position the worker never named.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()

        def fractional_worker():
            try:
                conn, _ = listener.accept()
            except OSError:
                return  # the test ended without connecting
            with conn:
                try:
                    if not server_handshake(conn, None):
                        return
                    job = recv_frame(conn)
                    for item in job["scenarios"]:
                        scenario = from_wire(Scenario, item["scenario"])
                        record = OutcomeRecord.of(
                            failure_outcome(scenario, ValueError("x"))
                        )
                        send_frame(conn, {
                            "op": "outcome",
                            "index": item["index"] + 0.7,
                            "record": to_wire(record),
                        })
                    send_frame(conn, {
                        "op": "done", "n_executed": len(job["scenarios"]),
                    })
                except (OSError, RemoteProtocolError):
                    pass

        thread = threading.Thread(target=fractional_worker, daemon=True)
        thread.start()
        try:
            host, port = listener.getsockname()[:2]
            backend = RemoteBackend(addresses=[f"{host}:{port}"])
            with pytest.raises(PlanningError, match="'index' must be int"):
                backend.run([Scenario(name="a")])
        finally:
            listener.close()
            thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_repeated_outcome_index_marks_worker_faulty(self):
        # A second frame for one index would stream a second record for
        # one scenario. The repeating worker is retired instead, and the
        # scenario it never answered moves to the healthy worker.
        repeater, healthy = CopyingWorker(copies=2), CopyingWorker(copies=1)
        for server in (repeater, healthy):
            server.start_in_thread()
        delivered = []
        try:
            # Weights 1:1 over three scenarios: the repeater's initial
            # shard is indices 0 and 1, the healthy worker's is 2.
            backend = RemoteBackend(addresses=[
                f"{server.host}:{server.port}" for server in (repeater, healthy)
            ])
            outcomes = backend.run(
                [Scenario(name=name) for name in ("a", "b", "c")],
                on_outcome=lambda i, o: delivered.append(i),
            )
        finally:
            repeater.shutdown()
            healthy.shutdown()
        assert sorted(delivered) == [0, 1, 2]
        assert [o.scenario.name for o in outcomes] == ["a", "b", "c"]
        assert outcomes[0].worker == f"{repeater.host}:{repeater.port}"
        assert outcomes[1].worker == f"{healthy.host}:{healthy.port}"
