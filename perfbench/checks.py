"""Output checks: every op is validated from its returned result alone.

A result is reduced to a plain dict (:func:`from_plan_result` for an
in-process :class:`~repro.core.result.PlanResult`,
:func:`from_wire` for the ``results_wire`` record a server reply
carries), so both paths are checked by the same rules and hashed into
the same digest.
"""

from __future__ import annotations

import hashlib
import json

OBJECTIVE_TOL = 1e-9


def from_plan_result(result) -> dict:
    route = result.route
    return {
        "stops": None if route is None else [int(s) for s in route.stops],
        "edges": None if route is None else [int(e) for e in route.edge_indices],
        "turns": None if route is None else int(route.turns),
        "objective": float(result.objective),
        "o_d_normalized": float(result.o_d_normalized),
        "o_lambda_normalized": float(result.o_lambda_normalized),
    }


def from_wire(record: dict) -> dict:
    route = record.get("route")
    return {
        "stops": None if route is None else [int(s) for s in route["stops"]],
        "edges": None if route is None else [int(e) for e in route["edge_indices"]],
        "turns": None if route is None else int(route["turns"]),
        "objective": float(record["objective"]),
        "o_d_normalized": float(record["o_d_normalized"]),
        "o_lambda_normalized": float(record["o_lambda_normalized"]),
    }


def check_route(
    out: dict,
    k: int,
    max_turns: int,
    w: float,
    allow_loop: bool = True,
    forbid_stops=(),
) -> "str | None":
    """The first rule ``out`` breaks, or ``None`` when it is valid."""
    stops, edges = out["stops"], out["edges"]
    if stops is None or not edges:
        return "no route"
    if len(edges) > k:
        return f"{len(edges)} edges > k={k}"
    if len(stops) != len(edges) + 1:
        return f"{len(stops)} stops for {len(edges)} edges"
    if out["turns"] > max_turns:
        return f"{out['turns']} turns > max_turns={max_turns}"
    body = stops[:-1] if allow_loop and len(stops) > 2 and stops[0] == stops[-1] else stops
    if len(set(body)) != len(body):
        return f"stop repeats in {stops}"
    hit = set(stops) & set(forbid_stops)
    if hit:
        return f"route uses forbidden stops {sorted(hit)}"
    expected = w * out["o_d_normalized"] + (1.0 - w) * out["o_lambda_normalized"]
    if abs(out["objective"] - expected) > OBJECTIVE_TOL:
        return f"objective {out['objective']!r} != w-combination {expected!r}"
    return None


def canonical(out: dict) -> str:
    """Exact text of a validated output (floats keep every digit)."""
    return json.dumps(out, sort_keys=True)


def digest(outputs: "dict[int, str]") -> str:
    """One hash over the canonical outputs of every input, in input order."""
    h = hashlib.sha256()
    for index in sorted(outputs):
        h.update(f"{index}:{outputs[index]}\n".encode())
    return h.hexdigest()[:16]
