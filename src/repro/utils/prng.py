"""Deterministic random-number discipline.

Every stochastic component in the library accepts either an integer seed
or a :class:`numpy.random.Generator`. These helpers normalize the two and
derive independent child streams so that, e.g., the trip sampler and the
Hutchinson probe vectors never share a stream (which would make results
depend on call order).
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ValidationError

SeedLike = "int | np.random.Generator | None"


def ensure_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a fresh nondeterministic generator; an ``int`` is used
    as a seed; an existing generator is passed through unchanged.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise ValidationError(f"seed must be int, Generator, or None, got {type(seed)!r}")


def child_rng(seed: "int | np.random.Generator | None", tag: str) -> np.random.Generator:
    """Return a child generator deterministically derived from ``seed``/``tag``.

    The same ``(seed, tag)`` pair always yields the same stream, while
    distinct tags yield independent streams. ``tag`` is hashed stably (not
    with :func:`hash`, which is salted per process).
    """
    if isinstance(seed, np.random.Generator):
        # Child of a live generator: draw one seed from it.
        return np.random.default_rng(int(seed.integers(0, 2**63 - 1)))
    base = 0 if seed is None else int(seed)
    digest = 0
    for ch in tag:
        digest = (digest * 1000003 + ord(ch)) % (2**61 - 1)
    return np.random.default_rng((base * 2654435761 + digest) % (2**63 - 1))
