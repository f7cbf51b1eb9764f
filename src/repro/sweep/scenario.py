"""Declarative planning scenarios and grid expansion.

A :class:`Scenario` names one planning request: a canned dataset
(``city`` + ``profile``), a planner ``method``, :class:`PlannerConfig`
field overrides, optional :class:`PlanningConstraints`, and a
``route_count`` for multi-route planning. Grids come from
:func:`expand_grid` (cartesian product over named axes) or
:func:`load_grid` (a YAML/JSON file with ``base`` / ``axes`` /
``scenarios`` sections).

:func:`scenario_key` gives a resolved scenario a stable 32-hex identity
(spec + fully-resolved config) — the unit of committed work in stream
files, which is what makes sweeps resumable (see
:meth:`repro.sweep.SweepRunner.run_stream`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, replace
from numbers import Integral

from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.core.planner import METHODS
from repro.data.datasets import CITY_NAMES, list_profiles
from repro.utils.errors import DataError, PlanningError

CONSTRAINED_METHODS = ("eta-pre", "eta")

_SCENARIO_AXES = ("method", "city", "profile", "route_count")
"""Axis keys that map to scenario fields; all others are config overrides."""


@dataclass(frozen=True)
class Scenario:
    """One declarative planning request within a sweep.

    ``overrides`` maps :class:`PlannerConfig` field names to values; it
    is normalized to a sorted item tuple so scenarios stay hashable and
    picklable. ``seed=None`` lets the runner derive a deterministic
    per-scenario seed from its base seed and the scenario name.
    """

    name: str
    city: str = "chicago"
    profile: str = "tiny"
    method: str = "eta-pre"
    overrides: tuple = ()
    constraints: "PlanningConstraints | None" = None
    route_count: int = 1
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if isinstance(self.overrides, Mapping):
            object.__setattr__(
                self, "overrides", tuple(sorted(self.overrides.items()))
            )
        else:
            object.__setattr__(self, "overrides", tuple(self.overrides))

    # ------------------------------------------------------------------
    @property
    def override_dict(self) -> dict:
        return dict(self.overrides)

    def validate(self, base: "PlannerConfig | None" = None) -> None:
        """Fail fast on anything a worker would only discover mid-sweep."""
        if self.method not in METHODS:
            raise PlanningError(
                f"scenario {self.name!r}: unknown method {self.method!r}; "
                f"choose from {METHODS}"
            )
        if self.route_count < 1:
            raise PlanningError(
                f"scenario {self.name!r}: route_count must be >= 1, "
                f"got {self.route_count}"
            )
        if self.constraints is not None:
            if not isinstance(self.constraints, PlanningConstraints):
                raise PlanningError(
                    f"scenario {self.name!r}: constraints must be a "
                    f"PlanningConstraints, got {type(self.constraints).__name__}"
                )
            if self.method not in CONSTRAINED_METHODS:
                raise PlanningError(
                    f"scenario {self.name!r}: constrained planning supports "
                    f"{CONSTRAINED_METHODS}, got {self.method!r}"
                )
            if self.route_count > 1:
                raise PlanningError(
                    f"scenario {self.name!r}: constraints and route_count > 1 "
                    f"cannot be combined"
                )
        self.planner_config(base)  # validates override names and values

    def planner_config(self, base: "PlannerConfig | None" = None) -> PlannerConfig:
        """The resolved :class:`PlannerConfig` for this scenario."""
        config = base or PlannerConfig()
        overrides = self.override_dict
        if self.seed is not None:
            overrides.setdefault("seed", self.seed)
        try:
            return replace(config, **overrides)
        except TypeError as exc:
            raise PlanningError(
                f"scenario {self.name!r}: bad config override ({exc})"
            ) from None

    def with_seed(self, seed: int) -> "Scenario":
        """A copy with an explicit seed (no-op if one is already set)."""
        if self.seed is not None or "seed" in self.override_dict:
            return self
        return replace(self, seed=int(seed))


def constraints_record(constraints: "PlanningConstraints | None") -> "dict | None":
    """Canonical JSON-safe form of planning constraints (``None`` passes)."""
    if constraints is None:
        return None
    return {
        "anchor_stop": constraints.anchor_stop,
        "forbid_stops": sorted(constraints.forbid_stops),
        "forbid_edges": sorted(constraints.forbid_edges),
    }


def constraints_from_record(record) -> "PlanningConstraints | None":
    """Inverse of :func:`constraints_record` (shared with grid files)."""
    return _parse_constraints(record)


def scenario_spec(scenario: Scenario) -> dict:
    """A :class:`Scenario` as a JSON-safe dict (the wire/job format).

    Round-trips exactly through :func:`scenario_from_spec`:
    ``scenario_from_spec(json.loads(json.dumps(scenario_spec(s)))) == s``
    for any valid scenario, which is what lets the remote backend ship
    already-resolved scenarios to worker daemons without re-resolution.
    """
    return {
        "name": scenario.name,
        "city": scenario.city,
        "profile": scenario.profile,
        "method": scenario.method,
        "overrides": dict(scenario.overrides),
        "constraints": constraints_record(scenario.constraints),
        "route_count": scenario.route_count,
        "seed": scenario.seed,
    }


def scenario_from_spec(spec) -> Scenario:
    """Rebuild a :class:`Scenario` from a :func:`scenario_spec` dict.

    The one validator of scenario specs from outside: nothing is
    coerced, so a ``route_count`` of ``2.9`` is refused, not rounded.
    """
    if not isinstance(spec, Mapping):
        raise DataError(
            f"scenario spec must be a mapping, got {type(spec).__name__}"
        )
    spec = dict(spec)
    name = spec.pop("name", None)
    if not name:
        raise DataError("scenario spec has no name")
    overrides = spec.pop("overrides", None) or {}
    if not isinstance(overrides, Mapping):
        raise DataError(
            f"scenario {name!r} overrides must be a mapping, got "
            f"{type(overrides).__name__}"
        )
    seed = spec.pop("seed", None)
    scenario = Scenario(
        name=str(name),
        city=spec.pop("city", "chicago"),
        profile=spec.pop("profile", "tiny"),
        method=spec.pop("method", "eta-pre"),
        overrides=dict(overrides),
        constraints=constraints_from_record(spec.pop("constraints", None)),
        route_count=_as_int(
            spec.pop("route_count", 1), f"scenario {name!r} route_count"
        ),
        seed=None if seed is None else _as_int(seed, f"scenario {name!r} seed"),
    )
    if spec:
        raise DataError(f"scenario spec {name!r}: unknown keys {sorted(spec)}")
    _check_dataset_spec(scenario.name, scenario.city, scenario.profile)
    return scenario


SCENARIO_KEY_LENGTH = 32
"""Hex characters kept from the scenario-key sha256 digest (128 bits)."""


def scenario_key(
    scenario: Scenario, base_config: "PlannerConfig | None" = None
) -> str:
    """Stable 32-hex identity of a *resolved* scenario within a sweep.

    The key hashes everything that determines the scenario's plan
    results: the dataset spec (``city``/``profile`` names), ``method``,
    ``route_count``, constraints, and the **fully-resolved**
    :class:`PlannerConfig` (base config + overrides + seed) — so the
    same scenario re-declared against a different base config gets a
    different key. The scenario ``name`` is deliberately excluded:
    renaming a grid point must not invalidate its committed stream
    record. Used as the commit unit for resumable stream files,
    alongside the content-addressed precompute ``cache_key`` which
    additionally guards against dataset *content* drift.
    """
    config = scenario.planner_config(base_config)
    spec = {
        "city": scenario.city,
        "profile": scenario.profile,
        "method": scenario.method,
        "route_count": scenario.route_count,
        "constraints": constraints_record(scenario.constraints),
        "config": asdict(config),
    }
    blob = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:SCENARIO_KEY_LENGTH]


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
def expand_grid(
    axes: "Mapping[str, list]",
    city: str = "chicago",
    profile: str = "tiny",
    method: str = "eta-pre",
    route_count: int = 1,
    constraints: "PlanningConstraints | None" = None,
) -> list[Scenario]:
    """Cartesian product of ``axes`` into a scenario list.

    Axis keys in ``{"method", "city", "profile", "route_count"}`` set the
    scenario field; every other key becomes a :class:`PlannerConfig`
    override. Scenario names are ``key=value`` joins in axis order.
    """
    if not axes:
        return [
            Scenario(
                name="default", city=city, profile=profile, method=method,
                route_count=route_count, constraints=constraints,
            )
        ]
    keys = list(axes)
    scenarios = []
    for values in itertools.product(*(axes[k] for k in keys)):
        point = dict(zip(keys, values))
        fields = {
            "city": point.pop("city", city),
            "profile": point.pop("profile", profile),
            "method": point.pop("method", method),
            "route_count": point.pop("route_count", route_count),
        }
        name = ",".join(f"{k}={v}" for k, v in zip(keys, values))
        scenarios.append(
            Scenario(
                name=name, overrides=point, constraints=constraints, **fields
            )
        )
    return scenarios


# ----------------------------------------------------------------------
# Grid files (YAML / JSON)
# ----------------------------------------------------------------------
def _as_int(value, label: str) -> int:
    """``value`` if it is an integer; never coerced (``2.9``, ``"2"`` and
    ``true`` are refused)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DataError(f"{label} must be an integer, got {value!r}")
    return int(value)


def _parse_constraints(spec) -> "PlanningConstraints | None":
    if spec is None:
        return None
    if not isinstance(spec, Mapping):
        raise DataError(f"constraints must be a mapping, got {type(spec).__name__}")
    unknown = set(spec) - {"anchor_stop", "forbid_stops", "forbid_edges"}
    if unknown:
        raise DataError(f"unknown constraint keys {sorted(unknown)}")
    anchor = spec.get("anchor_stop")
    return PlanningConstraints(
        anchor_stop=(
            None if anchor is None else _as_int(anchor, "constraint anchor_stop")
        ),
        forbid_stops=_as_ids(spec.get("forbid_stops", ()), "forbid_stops"),
        forbid_edges=_as_ids(spec.get("forbid_edges", ()), "forbid_edges"),
    )


def _as_ids(ids, key: str) -> frozenset:
    """A constraint's list of integer stop or edge ids."""
    if not isinstance(ids, (list, tuple, set, frozenset)):
        raise DataError(f"constraint {key} must be a list, got {ids!r}")
    return frozenset(_as_int(i, f"constraint {key}[]") for i in ids)


def _check_dataset_spec(name: str, city: str, profile: str) -> None:
    if city not in CITY_NAMES:
        raise DataError(
            f"scenario {name!r}: unknown city {city!r}; choose from {CITY_NAMES}"
        )
    if profile not in list_profiles():
        raise DataError(
            f"scenario {name!r}: unknown profile {profile!r}; "
            f"choose from {list_profiles()}"
        )


def load_grid(path: str) -> tuple[list[Scenario], PlannerConfig]:
    """Parse a sweep grid file into ``(scenarios, base_config)``.

    The file holds up to three sections::

        base:                     # defaults for every scenario
          city: chicago
          profile: tiny
          method: eta-pre
          config: {k: 10, max_iterations: 300}
        axes:                     # cartesian product -> one scenario each
          method: [eta-pre, vk-tsp]
          w: [0.3, 0.5, 0.7]
        scenarios:                # explicit extra scenarios
          - name: anchored
            method: eta-pre
            config: {w: 0.4}
            constraints: {anchor_stop: 3}

    ``.json`` files are parsed with the stdlib; ``.yaml``/``.yml`` need
    PyYAML and fail with a clear error when it is missing.
    """
    if not os.path.exists(path):
        raise DataError(f"grid file not found: {path!r}")
    with open(path) as f:
        text = f.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError:
            raise DataError(
                "PyYAML is not installed; provide the grid as JSON instead"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise DataError(f"grid file {path!r} is not valid YAML: {exc}") from None
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"grid file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, Mapping):
        raise DataError(f"grid file {path!r} must hold a mapping at top level")
    unknown = set(data) - {"base", "axes", "scenarios"}
    if unknown:
        raise DataError(f"unknown grid sections {sorted(unknown)}")

    base_spec = dict(data.get("base", {}) or {})
    try:
        base_config = PlannerConfig(**dict(base_spec.pop("config", {}) or {}))
    except TypeError as exc:
        raise DataError(f"bad base config ({exc})") from None
    city = base_spec.pop("city", "chicago")
    profile = base_spec.pop("profile", "tiny")
    method = base_spec.pop("method", "eta-pre")
    route_count = _as_int(base_spec.pop("route_count", 1), "base route_count")
    if base_spec:
        raise DataError(f"unknown base keys {sorted(base_spec)}")

    scenarios = []
    axes = data.get("axes", {}) or {}
    if axes:
        scenarios.extend(
            expand_grid(
                axes, city=city, profile=profile, method=method,
                route_count=route_count,
            )
        )
    for i, entry in enumerate(data.get("scenarios", ()) or ()):
        entry = dict(entry)
        name = entry.pop("name", f"scenario-{i}")
        scenarios.append(
            Scenario(
                name=name,
                city=entry.pop("city", city),
                profile=entry.pop("profile", profile),
                method=entry.pop("method", method),
                overrides=dict(entry.pop("config", {}) or {}),
                constraints=_parse_constraints(entry.pop("constraints", None)),
                route_count=_as_int(
                    entry.pop("route_count", route_count),
                    f"scenario {name!r} route_count",
                ),
                seed=entry.pop("seed", None),
            )
        )
        if entry:
            raise DataError(f"scenario {name!r}: unknown keys {sorted(entry)}")
    if not scenarios:
        raise DataError(f"grid file {path!r} defines no scenarios")
    for s in scenarios:
        _check_dataset_spec(s.name, s.city, s.profile)
        s.validate(base_config)
    return scenarios, base_config
