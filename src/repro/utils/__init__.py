"""Shared utilities: errors, RNG discipline, timing, ASCII tables, validation.

These helpers are deliberately dependency-light so that every other
subpackage can import them without cycles.
"""

from repro.utils.errors import (
    ReproError,
    GraphError,
    DataError,
    PlanningError,
    ValidationError,
)
from repro.utils.prng import child_rng, ensure_rng
from repro.utils.tables import format_series, format_table
from repro.utils.timing import Timer
from repro.utils.validation import (
    require,
    require_in_range,
    require_positive,
)

__all__ = [
    "ReproError",
    "GraphError",
    "DataError",
    "PlanningError",
    "ValidationError",
    "child_rng",
    "ensure_rng",
    "format_series",
    "format_table",
    "Timer",
    "require",
    "require_in_range",
    "require_positive",
]
