"""Argument validation helpers.

Every public entry point validates its inputs with these functions so
that misuse fails fast with a :class:`~repro.utils.errors.ValidationError`
instead of a confusing downstream numpy error.
"""

from __future__ import annotations

from repro.utils.errors import ValidationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValidationError(message)


def require_positive(value: float, name: str) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value!r}")


def require_in_range(value: float, lo: float, hi: float, name: str) -> None:
    """Require ``lo <= value <= hi``."""
    if not (lo <= value <= hi):
        raise ValidationError(f"{name} must be in [{lo}, {hi}], got {value!r}")
