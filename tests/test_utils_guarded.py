"""Tests for ``repro.utils.guarded.Guarded``: a record behind one lock."""

import sys
import threading
from dataclasses import dataclass

from repro.utils.guarded import Guarded

JOIN_TIMEOUT = 30.0


@dataclass
class _Counter:
    value: int = 0


def test_region_hands_out_the_record():
    record = _Counter()
    box = Guarded(record)
    with box as state:
        assert state is record
        state.value = 3
    with box as state:
        assert state.value == 3


def test_no_increment_is_lost_under_contention():
    """More threads than cores, switching every few microseconds: a
    read-modify-write that escaped the lock would lose updates."""
    n_threads, per_thread = 8, 2000
    box = Guarded(_Counter())
    start = threading.Barrier(n_threads, timeout=JOIN_TIMEOUT)

    def bump():
        start.wait()
        for _ in range(per_thread):
            with box as state:
                value = state.value
                state.value = value + 1

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=bump, daemon=True)
            for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    with box as state:
        assert state.value == n_threads * per_thread


def test_wait_releases_the_lock_until_notified():
    box = Guarded(_Counter())
    seen = []

    def waiter():
        with box as state:
            while state.value == 0:
                box.wait(timeout=JOIN_TIMEOUT)
            seen.append(state.value)

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    # The waiter parks in wait(), which releases the lock, so this
    # region can enter and wake it.
    with box as state:
        state.value = 7
        box.notify_all()
    thread.join(timeout=JOIN_TIMEOUT)
    assert not thread.is_alive()
    assert seen == [7]


def test_wait_times_out_with_false():
    box = Guarded(_Counter())
    with box:
        assert box.wait(timeout=0.01) is False
