"""RPR001: no ambient randomness or wall-clock time in reproduction code.

The repo's headline guarantee is bit-identical results for identical
configs — remote ≡ serial, resumed ≡ fresh. Every RNG therefore flows
from ``config.seed`` through :mod:`repro.utils.prng` (``ensure_rng`` /
``child_rng``), and durations come from ``time.monotonic()``. A bare
``np.random.rand()`` or ``time.time()`` inside ``core/``, ``spectral/``
or ``sweep/`` silently breaks that guarantee, so this rule bans the
module-level entry points outright:

* ``random.*`` and ``numpy.random.*`` — including the *seeded* forms
  (``np.random.default_rng(0)``): one sanctioned construction path
  (``ensure_rng``) is what keeps seeding auditable;
* ``time.time()`` — wall clocks step (NTP) and differ across hosts;
  measure with ``time.monotonic()``, and when a wall-clock timestamp is
  genuinely wanted as *display provenance* (never as an input to
  liveness or results), take it from
  :func:`repro.utils.timing.wall_clock`, which exists to mark exactly
  that intent;
* ``datetime.now()`` / ``utcnow()`` / ``today()`` — same clock, more
  costumes.

``utils/`` is deliberately outside the scope: it is where the
sanctioned wrappers live.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.astutil import import_aliases, resolve_call, walk_calls
from repro.analysis.base import Rule, register_rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import AnalysisContext

SCOPED_DIRS = ("core/", "spectral/", "sweep/")

_BANNED_EXACT = {
    "time.time": "time.time() (wall clock)",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.today": "datetime.today()",
    "datetime.date.today": "date.today()",
}

_BANNED_PREFIXES = {
    "random.": "the stdlib random module",
    "numpy.random.": "numpy's global/ad-hoc RNG entry points",
}


def _violation(canonical: str) -> "str | None":
    label = _BANNED_EXACT.get(canonical)
    if label is not None:
        return label
    for prefix, label in _BANNED_PREFIXES.items():
        if canonical.startswith(prefix):
            return label
    return None


@register_rule
class DeterminismRule(Rule):
    code = "RPR001"
    name = "determinism"
    severity = Severity.ERROR
    summary = (
        "no ambient RNG or wall clock in core/, spectral/, sweep/ — "
        "route randomness through utils/prng and time through "
        "time.monotonic() / utils.timing.wall_clock()"
    )

    def check(self, ctx: AnalysisContext) -> "Iterator[Finding]":
        for module in ctx.walk():
            if not module.relpath.startswith(SCOPED_DIRS):
                continue
            aliases = import_aliases(module.tree)
            for call in walk_calls(module.tree):
                canonical = resolve_call(call, aliases)
                if canonical is None:
                    continue
                label = _violation(canonical)
                if label is None:
                    continue
                if canonical.startswith(("random.", "numpy.random.")):
                    remedy = (
                        "route randomness through "
                        "repro.utils.prng.ensure_rng/child_rng"
                    )
                else:
                    remedy = (
                        "use time.monotonic() for durations/liveness, or "
                        "repro.utils.timing.wall_clock() for display-only "
                        "timestamps"
                    )
                yield self.finding(
                    module.relpath,
                    call.lineno,
                    call.col_offset,
                    f"call to {canonical}() — {label} is nondeterministic "
                    f"across runs/hosts; {remedy}",
                )
