"""Static analysis + runtime sanitizer for the reproduction's invariants.

Two halves of one guarantee.  The linter (:mod:`repro.analysis.linter`)
machine-checks at rest what the digest tests check at runtime: seeded
runs must be bit-identical, actors must own only their state.  The
sanitizer (:mod:`repro.analysis.sanitizer`) watches a live cluster for
the dynamic versions of the same hazards — same-instant
cross-activation state conflicts, shared RNG stream draws, and
hash-order-dependent results.

Exposed through ``repro lint`` (see ``python -m repro lint --help``).
"""

from .findings import Finding, Severity, Waiver, parse_waivers
from .framework import LintContext, Rule, all_rules, get_rule, register
from .linter import DEFAULT_ROOTS, LintReport, lint_file, lint_paths, lint_source
from .sanitizer import (
    Conflict,
    OrderProbe,
    PayloadEvent,
    Sanitizer,
    current,
    detect_order_dependence,
)

__all__ = [
    "PayloadEvent",
    "Finding",
    "Severity",
    "Waiver",
    "parse_waivers",
    "LintContext",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
    "DEFAULT_ROOTS",
    "LintReport",
    "lint_file",
    "lint_paths",
    "lint_source",
    "Conflict",
    "OrderProbe",
    "Sanitizer",
    "current",
    "detect_order_dependence",
]
