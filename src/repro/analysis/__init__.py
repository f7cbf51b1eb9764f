"""Invariant-aware static analysis for the repro codebase.

Generic linters see style; this package sees the repo's *contracts*.
Two shipped bugs motivated it, both statically detectable violations of
documented invariants:

* PR 2's cache-key mismatch — ``precompute()`` started honoring
  ``config.n_probes`` without ``n_probes`` being part of the cache key,
  so stale artifacts served wrong numbers. Rule RPR002 guarded it by
  field name until the precompute's expensive half came to take only a
  typed ``PrecomputeSpec``, the cache key itself, which retired the
  rule;
* PR 6's never-entered ``Timer`` — a resource acquired outside the
  ownership pattern that was supposed to guard it (the class of bug
  rules **RPR004**/**RPR005** pin for file and socket handles).

The framework is stdlib-:mod:`ast` based: every rule walks parsed
module trees (:class:`~repro.analysis.project.AnalysisContext`), emits
file/line-anchored :class:`~repro.analysis.findings.Finding` objects,
and registers itself in a rule registry so ``repro check`` can select
or ignore rules by code. Inline ``# repro: ignore[RPR001]`` comments
suppress a finding on that line (stale suppressions are themselves
flagged as :data:`~repro.analysis.engine.UNUSED_SUPPRESSION_CODE`).

See ``docs/static-analysis.md`` for the rule catalog and the policy
(the shipped tree stays at zero findings with zero suppressions).
"""

from repro.analysis.base import Rule, all_rules, get_rule, register_rule
from repro.analysis.engine import (
    UNUSED_SUPPRESSION_CODE,
    AnalysisRun,
    run_check,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.project import AnalysisContext, Module, load_project

__all__ = [
    "AnalysisContext",
    "AnalysisRun",
    "Finding",
    "Module",
    "Rule",
    "Severity",
    "UNUSED_SUPPRESSION_CODE",
    "all_rules",
    "get_rule",
    "load_project",
    "register_rule",
    "run_check",
]
