"""``repro.lint`` — an AST-based invariant linter for this codebase.

The system's correctness rests on a handful of hand-maintained contracts:
the versioned epoch protocol (PR 2), the exactly-rounded merge law
(PR 3), SeedSequence-only RNG discipline (PR 4), and lock-guarded shared
state in the server/pool/cache layers (PR 7/8).  Nothing in CPython checks
those statically: a new entry point that forgets ``refresh()``, a bare
``np.random.default_rng()`` in a shard path, or an unguarded read of
``SampleCache`` state compiles, passes most tests, and corrupts answers
silently under concurrency.

This package checks them mechanically, with the stdlib ``ast`` module only:

* :mod:`repro.lint.core` — finding/severity model and
  ``# repro-lint: disable=<rule> -- <justification>`` suppressions;
* :mod:`repro.lint.symbols` — per-file symbol tables (import aliases,
  class/method structure, lock regions, ``self`` attribute accesses) plus a
  cross-module table of seed-consuming callables;
* :mod:`repro.lint.registry` — the per-class contracts the checkers
  enforce, seeded from the real classes (``SamplingService``,
  ``AdmissionController``, ``SampleCache``, ``ParallelSamplerPool``,
  ``JoinSampler``, ...);
* :mod:`repro.lint.checkers` — the six project-specific checkers;
* :mod:`repro.lint.runner` / :mod:`repro.lint.reporters` — discovery,
  orchestration, exit-code contract, and text/JSON output.

Run it as ``python -m repro.lint src/ tests/`` or via ``make lint``; see
``docs/static-analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from repro.lint.core import Finding, Rule, Severity
from repro.lint.runner import LintConfig, LintResult, run_lint
from repro.lint.reporters import render_json, render_text, write_report

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "Severity",
    "render_json",
    "render_text",
    "run_lint",
    "write_report",
]
