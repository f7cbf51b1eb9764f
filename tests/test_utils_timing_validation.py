"""Unit tests for timing and validation helpers."""

import time

import pytest

from repro.utils.errors import ValidationError
from repro.utils.timing import Timer, wall_clock
from repro.utils.validation import require, require_in_range, require_positive


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_exit_without_enter_raises(self):
        # Regression: _start used to default to 0.0, so an unstarted timer
        # recorded seconds-since-perf-counter-epoch — a silently huge
        # number — instead of failing.
        with pytest.raises(ValidationError, match="never started"):
            Timer().__exit__(None, None, None)

    def test_unentered_timer_reports_zero_elapsed(self):
        assert Timer().elapsed == 0.0

    def test_reentering_restarts(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009
        assert t.elapsed != first


class TestWallClock:
    """``wall_clock`` is the sanctioned display-only wall-clock source.

    RPR001 bans bare ``time.time()`` in core/spectral/sweep; callers
    that genuinely want a provenance timestamp route through here, so
    pin that it really is the epoch clock.
    """

    def test_tracks_epoch_time(self):
        before = time.time()
        stamp = wall_clock()
        after = time.time()
        assert before <= stamp <= after

    def test_returns_float_seconds(self):
        assert isinstance(wall_clock(), float)
        # Sanity: a plausible epoch value (after 2020, not a monotonic
        # counter that starts near zero at boot).
        assert wall_clock() > 1_577_836_800.0


class TestValidation:
    def test_require_passes(self):
        require(True, "never raised")

    def test_require_raises_with_message(self):
        with pytest.raises(ValidationError, match="boom"):
            require(False, "boom")

    def test_require_positive(self):
        require_positive(1e-9, "x")
        with pytest.raises(ValidationError):
            require_positive(0, "x")

    def test_require_in_range_bounds_inclusive(self):
        require_in_range(0.0, 0.0, 1.0, "x")
        require_in_range(1.0, 0.0, 1.0, "x")
        with pytest.raises(ValidationError):
            require_in_range(1.0001, 0.0, 1.0, "x")
