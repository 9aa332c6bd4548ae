"""The analysis-version stamp.

Bump :data:`ANALYSIS_VERSION` whenever any rule's *behaviour* changes —
new rules, removed rules, changed detection logic, changed messages —
not just when rule names change.  The stamp is folded into the lint
result cache's ruleset signature (:mod:`repro.analysis.cache`), so a
stale ``.repro-lint-cache/`` can never mask findings a newer analysis
would raise: any bump invalidates every cached per-file result.

(The signature also hashes the registered rule *names* of every family,
which catches additions/renames automatically; the stamp is the manual
override for logic-only changes the name list cannot see.)
"""

from __future__ import annotations

__all__ = ["ANALYSIS_VERSION"]

#: History: "1" — per-file + FLOW rule families (PR 5).
#:          "2" — XB cross-backend portability family; signature gains
#:                this stamp plus the FLOW/XB rule-name lists.
#:          "3" — PAR parallel-sharding readiness family + lookahead
#:                inference; signature gains the PAR rule-name list and
#:                the cache gains project-level (whole-tree) entries.
#:          "4" — PAR family and the deprecated-API rule removed.
ANALYSIS_VERSION = "4"
