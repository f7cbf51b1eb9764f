"""Unit tests for ranked lists and the Algorithm 2 incremental bound."""

import numpy as np
import pytest

from repro.core.bounds import (
    RankedList,
    initial_bound,
    rescan_bound,
    update_bound,
)
from repro.utils.errors import ValidationError


@pytest.fixture
def ranked() -> RankedList:
    # Values by edge index; descending ranked: 10(e2), 8(e0), 5(e3), 3(e1), 1(e4)
    return RankedList(np.array([8.0, 3.0, 10.0, 5.0, 1.0]))


class TestRankedList:
    def test_value_lookup(self, ranked):
        assert ranked.value(2) == 10.0
        assert ranked.value(4) == 1.0

    def test_ranked_lookup(self, ranked):
        assert [ranked.ranked(r) for r in range(1, 6)] == [10.0, 8.0, 5.0, 3.0, 1.0]

    def test_ranked_beyond_list_is_zero(self, ranked):
        assert ranked.ranked(6) == 0.0

    def test_rank_of(self, ranked):
        assert ranked.rank_of(2) == 1
        assert ranked.rank_of(4) == 5

    def test_edge_at(self, ranked):
        assert ranked.edge_at(1) == 2
        assert ranked.edge_at(5) == 4

    def test_top_sum(self, ranked):
        assert ranked.top_sum(2) == 18.0
        assert ranked.top_sum(100) == 27.0
        assert ranked.top_sum(0) == 0.0

    def test_ties_stable(self):
        r = RankedList(np.array([5.0, 5.0, 5.0]))
        assert [r.edge_at(rank) for rank in (1, 2, 3)] == [0, 1, 2]

    def test_bad_rank(self, ranked):
        with pytest.raises(ValidationError):
            ranked.ranked(0)
        with pytest.raises(ValidationError):
            ranked.edge_at(0)

    def test_bad_shape(self):
        with pytest.raises(ValidationError):
            RankedList(np.zeros((2, 2)))


class TestInitialBound:
    def test_top_k_seed(self, ranked):
        bound, cursor = initial_bound(ranked, 2, k=2)  # e2 is rank 1
        assert bound == 18.0 and cursor == 2

    def test_below_top_k_seed(self, ranked):
        # e1 (value 3, rank 4) with k=2: replace rank-2 edge.
        bound, cursor = initial_bound(ranked, 1, k=2)
        assert bound == pytest.approx(18.0 - (8.0 - 3.0))
        assert cursor == 1

    def test_matches_rescan(self, ranked):
        for k in (1, 2, 3, 4):
            for e in range(5):
                bound, _ = initial_bound(ranked, e, k)
                assert bound == pytest.approx(rescan_bound(ranked, [e], k))

    def test_bad_k(self, ranked):
        with pytest.raises(ValidationError):
            initial_bound(ranked, 0, 0)


class TestUpdateBound:
    def test_worked_example_from_design(self, ranked):
        """k=3; add e1(3), then e0(8), then e2(10) — tracks rescan."""
        k = 3
        path = [1]
        bound, cursor = initial_bound(ranked, 1, k)
        assert bound == pytest.approx(rescan_bound(ranked, path, k))
        for nxt in (0, 2):
            bound, cursor = update_bound(ranked, bound, cursor, nxt)
            path.append(nxt)
            assert bound == pytest.approx(rescan_bound(ranked, path, k))

    def test_incremental_dominates_rescan_exhaustively(self, ranked):
        """The O(1) cursor bound is admissible: >= the Eq. 9 rescan bound.

        (Equality does not always hold — when the seed edge itself sits
        inside the top-k, the cursor scheme over-counts; that keeps it a
        valid upper bound, just looser.)
        """
        import itertools

        k = 3
        for perm in itertools.permutations(range(5), 3):
            bound, cursor = initial_bound(ranked, perm[0], k)
            path = [perm[0]]
            for e in perm[1:]:
                if len(path) >= k:
                    break
                bound, cursor = update_bound(ranked, bound, cursor, e)
                path.append(e)
                assert bound >= rescan_bound(ranked, path, k) - 1e-9, f"path={path}"
                assert bound <= ranked.top_sum(k) + 1e-9

    def test_always_admissible(self, ranked):
        """Incremental bound >= rescan bound >= actual path value."""
        import itertools

        k = 3
        for perm in itertools.permutations(range(5), k):
            bound, cursor = initial_bound(ranked, perm[0], k)
            path = [perm[0]]
            for e in perm[1:]:
                bound, cursor = update_bound(ranked, bound, cursor, e)
                path.append(e)
            actual = sum(ranked.value(e) for e in path)
            assert bound >= rescan_bound(ranked, path, k) - 1e-9
            assert bound >= actual - 1e-9

    def test_cursor_never_negative_effects(self, ranked):
        bound, cursor = initial_bound(ranked, 4, 1)  # worst edge, k=1
        # Appending more edges with cursor 0 leaves the bound unchanged.
        b2, c2 = update_bound(ranked, bound, cursor, 1)
        assert c2 >= 0
        assert b2 <= bound + 1e-12
