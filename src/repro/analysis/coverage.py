"""Shared static ⊇ dynamic coverage machinery.

Two passes ship a dynamic cross-check in the same tradition: the
FLOW graph check (observed comm edges ⊆ static interaction graph) and
the XB payload check (observed aliasing/pickle hazards covered by
static XB findings).  Each drives a seeded slice with a probe armed
and demands the static over-approximation covers everything the run
observed.  The generic halves — reading the tree, mapping findings
back to ``(class, method, rule)`` sites, diffing dynamic events against
that coverage, and diffing plain item sets — live here so the two
drivers stay thin and agree on report shape.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from .findings import Finding
from .flow.index import ProjectIndex

__all__ = ["Coverage", "read_sources", "static_coverage",
           "crosscheck_events", "missing_from_static"]

Coverage = Set[Tuple[str, str, str]]        # (class, method, rule)


def read_sources(paths: Sequence[str], base: str = ".",
                 ) -> List[Tuple[str, str]]:
    """``(relpath, source)`` pairs for every ``.py`` under ``paths``,
    in the linter's deterministic traversal order."""
    from .linter import _collect_files

    sources: List[Tuple[str, str]] = []
    for file_path, rel in _collect_files(paths, base):
        with open(file_path, "r", encoding="utf-8") as fh:
            sources.append((rel, fh.read()))
    return sources


def static_coverage(index: ProjectIndex,
                    findings: Iterable[Finding]) -> Coverage:
    """Map findings back to ``(class, method, rule)`` triples by line
    containment in the indexed method bodies.  Waived findings count:
    a waiver is a human-audited acknowledgement, not a blind spot."""
    spans: Dict[str, List[Tuple[int, int, str, str]]] = {}
    for cls in index.all_classes():
        for mname in sorted(cls.methods):
            node = cls.methods[mname].node
            if node is None:
                continue
            end = getattr(node, "end_lineno", None) or node.lineno
            spans.setdefault(cls.path, []).append(
                (node.lineno, end, cls.name, mname))
    out: Coverage = set()
    for finding in findings:
        for start, end, cls_name, mname in spans.get(finding.path, []):
            if start <= finding.line <= end:
                out.add((cls_name, mname, finding.rule))
    return out


def crosscheck_events(coverage: Coverage, events: Sequence,
                      kind_to_rule: Mapping[str, str]) -> dict:
    """Demand every dynamic event is covered statically.

    ``events`` carry ``kind``/``sender``/``method`` attributes (the
    sanitizer's :class:`~repro.analysis.sanitizer.PayloadEvent` shape);
    an event is covered when a static finding with the rule
    ``kind_to_rule[kind]`` lands inside the same sender class + method.
    Kinds absent from the mapping are ignored.
    """
    uncovered: List[dict] = []
    for event in events:
        rule = kind_to_rule.get(event.kind)
        if rule is None:
            continue
        if (event.sender, event.method, rule) not in coverage:
            entry = event.to_dict()
            entry["expected_rule"] = rule
            uncovered.append(entry)
    return {
        "schema": 1,
        "ok": not uncovered,
        "dynamic_events": [e.to_dict() for e in events],
        "uncovered": uncovered,
    }


def missing_from_static(static_items: Iterable,
                        dynamic_items: Iterable) -> list:
    """Observed items absent from the static over-approximation, in
    deterministic order.  Empty means static ⊇ dynamic holds."""
    static_set = set(static_items)
    return sorted(item for item in set(dynamic_items)
                  if item not in static_set)
