"""Planning constraints for interactive replanning.

The paper motivates fast pre-computation with *interactive* route
planning ([65] in its references): a planner pins or bans parts of the
city and replans in milliseconds against the shared pre-computation.

Supported constraints:

* ``anchor_stop`` — the route must pass through this stop. Implemented
  by seeding only edges incident to the anchor: expansion grows a path
  from both ends, so the seed edge (and hence the anchor) always stays
  on the route.
* ``forbid_stops`` — stops the route must not touch.
* ``forbid_edges`` — universe edge indices the route must not use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.edges import EdgeUniverse
from repro.utils.errors import ValidationError
from repro.utils.wire import Record


@dataclass(frozen=True)
class PlanningConstraints(Record):
    """Hard constraints applied during seeding and expansion.

    A wire record (:mod:`repro.utils.wire`): the id sets travel as sorted
    lists, and an anchor that is also forbidden is refused when built.
    """

    anchor_stop: "int | None" = None
    forbid_stops: "frozenset[int]" = field(default_factory=frozenset)
    forbid_edges: "frozenset[int]" = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.anchor_stop is not None and self.anchor_stop in self.forbid_stops:
            raise ValidationError(
                f"anchor stop {self.anchor_stop} is also forbidden"
            )

    @property
    def is_trivial(self) -> bool:
        return (
            self.anchor_stop is None
            and not self.forbid_stops
            and not self.forbid_edges
        )

    def validate_against(self, universe: EdgeUniverse) -> None:
        """Fail fast on out-of-range stop/edge references."""
        n_stops = universe.n_stops
        n_edges = len(universe)
        if self.anchor_stop is not None and not 0 <= self.anchor_stop < n_stops:
            raise ValidationError(f"anchor stop {self.anchor_stop} out of range")
        for s in self.forbid_stops:
            if not 0 <= s < n_stops:
                raise ValidationError(f"forbidden stop {s} out of range")
        for e in self.forbid_edges:
            if not 0 <= e < n_edges:
                raise ValidationError(f"forbidden edge {e} out of range")

    def allows_edge(self, universe: EdgeUniverse, edge_index: int) -> bool:
        """Whether an edge may appear on the route at all."""
        if edge_index in self.forbid_edges:
            return False
        e = universe.edge(edge_index)
        return e.u not in self.forbid_stops and e.v not in self.forbid_stops

    def allows_seed(self, universe: EdgeUniverse, edge_index: int) -> bool:
        """Whether an edge may *seed* the search (anchor restriction)."""
        if not self.allows_edge(universe, edge_index):
            return False
        if self.anchor_stop is None:
            return True
        e = universe.edge(edge_index)
        return self.anchor_stop in (e.u, e.v)
