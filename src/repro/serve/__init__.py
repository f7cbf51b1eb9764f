"""Planning-as-a-service: the ``repro serve`` daemon and its parts.

The serving layer turns the one-shot ``repro plan`` pipeline into a
long-lived process for interactive what-if queries (ROADMAP item 3):

* :mod:`repro.serve.pool` — byte-budget LRU pool of in-memory
  :class:`~repro.core.precompute.Precomputation` artifacts, layered on
  the disk :class:`~repro.sweep.cache.PrecomputationCache`;
* :mod:`repro.serve.server` — :class:`PlanServer`, a
  :class:`~repro.sweep.remote.FrameServer` with ``plan`` / ``stats`` /
  ``shutdown`` ops and a single serialized planner thread (parity with
  ``repro plan`` is pinned by an oracle test);
* :mod:`repro.serve.http` — stdlib HTTP/JSON facade (``POST /plan``,
  ``GET /stats``) with bearer-token auth derived from the frame secret;
* :mod:`repro.serve.stats` — the boxed latency reservoir behind
  the ``/stats`` quantiles.

See ``docs/serving.md`` for the architecture tour.
"""

from repro.serve.http import PlanHTTPServer, build_http_server, http_token
from repro.serve.pool import (
    DEFAULT_POOL_BYTES,
    ArtifactPool,
    precomputation_nbytes,
)
from repro.serve.server import SERVE_SCHEMA_VERSION, PlanServer, serve_plans
from repro.serve.stats import LatencyReservoir

__all__ = [
    "ArtifactPool",
    "DEFAULT_POOL_BYTES",
    "LatencyReservoir",
    "PlanHTTPServer",
    "PlanServer",
    "SERVE_SCHEMA_VERSION",
    "build_http_server",
    "http_token",
    "precomputation_nbytes",
    "serve_plans",
]
