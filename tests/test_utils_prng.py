"""Unit tests for RNG discipline helpers."""

import numpy as np
import pytest

from repro.utils.errors import ValidationError
from repro.utils.prng import child_rng, ensure_rng


class TestEnsureRng:
    def test_int_seed_is_deterministic(self):
        a = ensure_rng(7).integers(0, 1000, 5)
        b = ensure_rng(7).integers(0, 1000, 5)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 2**31, 8)
        b = ensure_rng(2).integers(0, 2**31, 8)
        assert list(a) != list(b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_rejects_bad_type(self):
        with pytest.raises(ValidationError):
            ensure_rng("not a seed")


class TestChildRng:
    def test_same_tag_same_stream(self):
        a = child_rng(9, "trips").integers(0, 1000, 5)
        b = child_rng(9, "trips").integers(0, 1000, 5)
        assert list(a) == list(b)

    def test_different_tags_differ(self):
        a = child_rng(9, "trips").integers(0, 2**31, 8)
        b = child_rng(9, "routes").integers(0, 2**31, 8)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = child_rng(1, "x").integers(0, 2**31, 8)
        b = child_rng(2, "x").integers(0, 2**31, 8)
        assert list(a) != list(b)

    def test_generator_parent_draws(self):
        parent = np.random.default_rng(0)
        child = child_rng(parent, "anything")
        assert isinstance(child, np.random.Generator)
