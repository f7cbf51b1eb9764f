"""Declarative planning scenarios and grid expansion.

A :class:`Scenario` names one planning request: a canned dataset
(``city`` + ``profile``), a planner ``method``, :class:`PlannerConfig`
field overrides, optional :class:`PlanningConstraints`, and a
``route_count`` for multi-route planning. Grids come from
:func:`expand_grid` (cartesian product over named axes) or
:func:`load_grid` (a YAML/JSON file with ``base`` / ``axes`` /
``scenarios`` sections).

A scenario refuses a mistyped field by its name when it is built, so
library callers, grid files, sweep jobs and plan requests get the same
refusal (:mod:`repro.utils.wire`).

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

from repro.core.config import PlannerConfig
from repro.core.constraints import PlanningConstraints
from repro.core.planner import check_method
from repro.data.datasets import CITY_NAMES, list_profiles
from repro.utils.errors import DataError, PlanningError, ValidationError
from repro.utils.wire import Record, from_wire, to_wire

_SCENARIO_AXES = ("method", "city", "profile", "route_count")
"""Axis keys that map to scenario fields; all others are config overrides."""


@dataclass(frozen=True)
class Scenario(Record):
    """One declarative planning request within a sweep.

    A wire record (:mod:`repro.utils.wire`). ``overrides`` maps
    :class:`PlannerConfig` field names to values. It is stored
    key-sorted, so a scenario encodes the same whatever order its
    overrides were given in. An empty name, an unknown city and an
    unknown profile are refused on construction, and so on decode.
    """

    name: str
    city: str = "chicago"
    profile: str = "tiny"
    method: str = "eta-pre"
    overrides: dict = field(default_factory=dict)
    constraints: "PlanningConstraints | None" = None
    route_count: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.name:
            raise ValidationError("a scenario needs a non-empty name")
        _check_dataset_spec(self.city, self.profile)
        overrides = dict(sorted(self.overrides.items()))
        object.__setattr__(self, "overrides", overrides)

    # ------------------------------------------------------------------
    def validate(self, base: "PlannerConfig | None" = None) -> None:
        """Fail fast on anything a worker would only discover mid-sweep."""
        try:
            check_method(self.method, constrained=self.constraints is not None)
        except PlanningError as exc:
            raise PlanningError(f"scenario {self.name!r}: {exc}") from None
        if self.route_count < 1:
            raise PlanningError(
                f"scenario {self.name!r}: route_count must be >= 1, "
                f"got {self.route_count}"
            )
        if self.constraints is not None and self.route_count > 1:
            raise PlanningError(
                f"scenario {self.name!r}: constraints and route_count > 1 "
                f"cannot be combined"
            )
        self.planner_config(base)  # validates override names and values

    def planner_config(self, base: "PlannerConfig | None" = None) -> PlannerConfig:
        """The resolved :class:`PlannerConfig` for this scenario."""
        try:
            return replace(base or PlannerConfig(), **self.overrides)
        except TypeError as exc:
            raise PlanningError(
                f"scenario {self.name!r}: bad config override ({exc})"
            ) from None


SCENARIO_KEY_LENGTH = 32
"""Hex characters kept from the scenario-key sha256 digest (128 bits)."""


def scenario_key(
    scenario: Scenario, base_config: "PlannerConfig | None" = None
) -> str:
    """Stable 32-hex identity of a *resolved* scenario within a sweep.

    The key hashes everything that determines the scenario's plan
    results: the dataset spec (``city``/``profile`` names), ``method``,
    ``route_count``, constraints, and the **fully-resolved**
    :class:`PlannerConfig` (base config + overrides) — so the
    same scenario re-declared against a different base config gets a
    different key. The scenario ``name`` is deliberately excluded:
    renaming a grid point must not invalidate its committed stream
    record. Used as the commit unit for resumable stream files,
    alongside the content-addressed precompute ``cache_key`` which
    additionally guards against dataset *content* drift.
    """
    spec = to_wire(scenario)
    # The name stays out (see above); overrides are hashed as part of
    # the resolved config.
    del spec["name"], spec["overrides"]
    spec["config"] = asdict(scenario.planner_config(base_config))
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
def _check_dataset_spec(city: str, profile: str) -> None:
    if city not in CITY_NAMES:
        raise ValidationError(f"unknown city {city!r}; choose from {CITY_NAMES}")
    if profile not in list_profiles():
        raise ValidationError(
            f"unknown profile {profile!r}; choose from {list_profiles()}"
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
    PyYAML and fail with a clear error when it is missing. Every refusal
    is a :class:`DataError` that names the file.
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
    try:
        return _grid_scenarios(data)
    except (DataError, PlanningError, ValidationError) as exc:
        raise DataError(f"grid file {path!r}: {exc}") from None


def _grid_scenarios(data) -> tuple[list[Scenario], PlannerConfig]:
    """The validated ``(scenarios, base_config)`` of a parsed grid file."""
    if not isinstance(data, Mapping):
        raise DataError("the top level must be a mapping")
    unknown = set(data) - {"base", "axes", "scenarios"}
    if unknown:
        raise DataError(f"unknown grid sections {sorted(unknown)}")

    base_spec = data.get("base") or {}
    axes = data.get("axes") or {}
    entries = data.get("scenarios") or []
    for section, value in (("base", base_spec), ("axes", axes)):
        if not isinstance(value, Mapping):
            raise DataError(
                f"grid section {section!r} must be a mapping, "
                f"got {type(value).__name__}"
            )
    for key, values in axes.items():
        if not isinstance(values, list):
            raise DataError(
                f"grid axis {key!r} must be a list of values, got {values!r}"
            )
    if not isinstance(entries, list) or not all(
        isinstance(entry, Mapping) for entry in entries
    ):
        raise DataError("grid section 'scenarios' must be a list of mappings")

    try:
        base_config = PlannerConfig(**dict(base_spec.pop("config", {}) or {}))
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad base config ({exc})") from None
    city = base_spec.pop("city", "chicago")
    profile = base_spec.pop("profile", "tiny")
    method = base_spec.pop("method", "eta-pre")
    route_count = base_spec.pop("route_count", 1)
    if base_spec:
        raise DataError(f"unknown base keys {sorted(base_spec)}")

    scenarios = []
    if axes:
        scenarios.extend(
            expand_grid(
                axes, city=city, profile=profile, method=method,
                route_count=route_count,
            )
        )
    for i, entry in enumerate(entries):
        spec = {
            "name": f"scenario-{i}", "city": city, "profile": profile,
            "method": method, "route_count": route_count, **entry,
        }
        if "config" in spec:
            spec["overrides"] = spec.pop("config") or {}
        try:
            scenarios.append(from_wire(Scenario, spec))
        except DataError as exc:
            raise DataError(f"scenario {spec['name']!r}: {exc}") from None
    if not scenarios:
        raise DataError("no scenarios defined")
    for s in scenarios:
        s.validate(base_config)
    return scenarios, base_config
