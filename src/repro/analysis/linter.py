"""The lint driver: walk files, run every rule, apply waivers, report.

The contract matching the other ``repro`` subcommands: the run *fails*
(non-zero exit) iff any unwaived finding exists; waived findings are
still listed (with their justification) so the report is an audit trail
of every exemption in the tree.

Three passes share the report.  The per-file pass runs every registered
:class:`~repro.analysis.framework.Rule` on one module at a time (and is
the part the ``--cache`` per-file result cache can skip).  The opt-in
flow pass (``flow=True``) builds the project-wide index + interaction
graph from :mod:`repro.analysis.flow` over the *same* file set and
merges the interprocedural FLOW findings in; waivers apply to them
identically.  The opt-in cross-backend pass (``xbackend=True``) runs
the XB portability rules from :mod:`repro.analysis.xbackend` over the
same index machinery — same waiver semantics throughout.  With
``cache_dir`` set, the project-wide passes are cached too, keyed by a
whole-tree signature (every file's hash), so a clean re-run skips the
interprocedural work entirely.

Findings are deduplicated per (path, line, rule) and reported in
deterministic (path, line, rule) order regardless of traversal order.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from .findings import Finding, Severity, Waiver, parse_waivers
from .framework import LintContext, all_rules
from .rules import WAIVER_JUSTIFY  # noqa: F401  (import registers the rules)

__all__ = ["LintReport", "lint_source", "lint_file", "lint_paths",
           "waiver_audit", "DEFAULT_ROOTS"]

#: The tree the repo-wide pass covers.  ``tests/`` is deliberately out:
#: tests exercise nondeterminism on purpose.
DEFAULT_ROOTS = ("src/repro", "benchmarks", "examples")

_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache", "fixtures"}


@dataclass
class LintReport:
    """Findings for a set of files, split by waiver status."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[Finding] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Project-level cache counters (one hit/miss per cached pass).
    project_cache_hits: int = 0
    project_cache_misses: int = 0
    #: The InteractionGraph when the flow pass ran (lint_paths(flow=True));
    #: a read-only GraphView on a warm project-cache hit.
    flow_graph: Optional[object] = None

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.waived] + self.parse_errors

    @property
    def waived(self) -> list[Finding]:
        return [f for f in self.findings if f.waived]

    @property
    def ok(self) -> bool:
        return not self.active

    def extend(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.parse_errors.extend(other.parse_errors)
        self.files_checked += other.files_checked
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses

    def finalize(self) -> "LintReport":
        """Deterministic order + per-(path, line, rule) dedup."""
        self.findings = _dedupe(self.findings)
        self.parse_errors = _dedupe(self.parse_errors)
        return self

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "active": [f.to_dict() for f in self.active],
            "waived": [f.to_dict() for f in self.waived],
            "counts": {
                "active": len(self.active),
                "waived": len(self.waived),
            },
        }


def _dedupe(findings: List[Finding]) -> List[Finding]:
    """Sort by (path, line, rule) and keep one finding per key.

    The sort key includes the message so the survivor of a duplicate
    key is deterministic, not traversal-dependent."""
    ordered = sorted(findings,
                     key=lambda f: (f.path, f.line, f.rule, f.message))
    out: List[Finding] = []
    last = None
    for finding in ordered:
        key = (finding.path, finding.line, finding.rule)
        if key != last:
            out.append(finding)
            last = key
    return out


def _apply_waivers(findings: Iterable[Finding],
                   waivers: List[Waiver]) -> List[Finding]:
    out: List[Finding] = []
    for finding in findings:
        waiver = next(
            (
                w for w in waivers
                if w.covers == finding.line
                and w.matches(finding.rule)
                and w.justification
            ),
            None,
        )
        if waiver is not None and finding.rule != WAIVER_JUSTIFY:
            waiver.used = True
            finding = Finding(
                rule=finding.rule,
                severity=finding.severity,
                path=finding.path,
                line=finding.line,
                message=finding.message,
                waived=True,
                justification=waiver.justification,
            )
        out.append(finding)
    return out


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Iterable[str]] = None) -> LintReport:
    """Lint one source string; ``path`` is used for reporting and
    path-scoped rules (bench exemptions)."""
    report = LintReport(files_checked=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        report.parse_errors.append(
            Finding(
                rule="PARSE-ERROR",
                severity=Severity.ERROR,
                path=path,
                line=err.lineno or 0,
                message=f"file does not parse: {err.msg}",
            )
        )
        return report

    ctx = LintContext(path=path, source=source, tree=tree)
    raw: list[Finding] = []
    selected = set(rules) if rules is not None else None
    for rule_cls in all_rules():
        if selected is not None and rule_cls.name not in selected:
            continue
        raw.extend(rule_cls(ctx).run())

    report.findings = _apply_waivers(raw, parse_waivers(source))
    return report.finalize()


def lint_file(path: str, rel: Optional[str] = None,
              rules: Optional[Iterable[str]] = None) -> LintReport:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, rel or path, rules=rules)


def _iter_python_files(root: str) -> Iterable[str]:
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _collect_files(paths: Sequence[str],
                   base: str) -> List[Tuple[str, str]]:
    """Deduplicated ``(abspath, relpath)`` pairs, deterministic order."""
    out: List[Tuple[str, str]] = []
    seen: set = set()
    for path in paths:
        root = path if os.path.isabs(path) else os.path.join(base, path)
        if not os.path.exists(root):
            continue
        for file_path in _iter_python_files(root):
            rel = os.path.relpath(file_path, base)
            if rel not in seen:
                seen.add(rel)
                out.append((file_path, rel))
    return out


def _ruleset_signature(rules: Optional[Iterable[str]]) -> str:
    """Cache key component covering *what analysis would run*: the
    analysis-version stamp (bumped on any rule-logic change), every
    registered rule name in every family (per-file, FLOW, XB — a new
    rule in any family must invalidate cached results), the package
    version, and the rule selection."""
    import hashlib

    from .flow.rules import all_flow_rules
    from .version import ANALYSIS_VERSION
    from .xbackend.rules import all_xb_rules

    names = sorted(r.name for r in all_rules())
    names += sorted(r.name for r in all_flow_rules())
    names += sorted(r.name for r in all_xb_rules())
    selected = sorted(rules) if rules is not None else ["*"]
    try:
        from .. import __version__ as version
    except ImportError:                      # pragma: no cover
        version = "0"
    blob = "\n".join([f"analysis-v{ANALYSIS_VERSION}", version,
                      *names, "--", *selected])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


def lint_paths(paths: Sequence[str] = DEFAULT_ROOTS, base: str = ".",
               rules: Optional[Iterable[str]] = None,
               flow: bool = False,
               xbackend: bool = False,
               cache_dir: Optional[str] = None) -> LintReport:
    """Lint every ``.py`` file under each of ``paths`` (files or dirs),
    resolved against ``base``; findings report base-relative paths.

    ``flow=True`` additionally builds the project-wide index over the
    same file set and merges the interprocedural FLOW findings.
    ``xbackend=True`` runs the cross-backend portability pass (the XB
    family) over the same file set and merges its findings.
    ``cache_dir`` enables the per-file result cache *and* the
    project-level cache: project-wide pass results (raw findings,
    interaction-graph document) are keyed by a
    whole-tree signature over every file's content hash, so a clean
    re-run skips the interprocedural fixpoint entirely.  Waivers and
    rule selection are re-applied on every load — they derive from the
    same sources the signature covers.
    """
    report = LintReport()
    cache = None
    if cache_dir is not None:
        from .cache import LintCache
        cache = LintCache(cache_dir, _ruleset_signature(rules))

    files = _collect_files(paths, base)
    sources: List[Tuple[str, str]] = []      # (relpath, source) for flow
    for file_path, rel in files:
        with open(file_path, "r", encoding="utf-8") as fh:
            source = fh.read()
        sources.append((rel, source))
        cached = cache.get(rel, file_path, source) if cache else None
        if cached is not None:
            findings, parse_errors = cached
            report.findings.extend(findings)
            report.parse_errors.extend(parse_errors)
            report.files_checked += 1
        else:
            sub = lint_source(source, rel, rules=rules)
            if cache is not None:
                cache.put(rel, file_path, source,
                          sub.findings, sub.parse_errors)
            report.extend(sub)
    if cache is not None:
        report.cache_hits = cache.hits
        report.cache_misses = cache.misses

    selected = set(rules) if rules is not None else None
    waiver_map = None
    if flow or xbackend:
        waiver_map = {rel: parse_waivers(src) for rel, src in sources}

    def _merge_project_findings(findings: Iterable[Finding]) -> None:
        merged: List[Finding] = []
        for finding in findings:
            if finding.rule == "PARSE-ERROR":
                continue              # the per-file pass reported it
            if selected is not None and finding.rule not in selected:
                continue
            merged.extend(_apply_waivers(
                [finding], waiver_map.get(finding.path, [])))
        report.findings.extend(merged)

    project = None
    if cache is not None and (flow or xbackend):
        from .cache import ProjectCache
        project = ProjectCache(cache_dir, cache.signature, sources)

    def _project_get(family: str):
        if project is None:
            return None
        entry = project.get(family)
        if entry is None:
            report.project_cache_misses += 1
        else:
            report.project_cache_hits += 1
        return entry

    if flow:
        cached = _project_get("flow")
        if cached is not None:
            from .flow.interaction import GraphView

            flow_findings = cached["findings"]
            report.flow_graph = GraphView(cached["graph"])
        else:
            from .flow import analyze_files

            _index, graph, flow_findings = analyze_files(sources)
            report.flow_graph = graph
            if project is not None:
                project.put("flow", flow_findings,
                            {"graph": graph.to_dict()})
        _merge_project_findings(flow_findings)

    if xbackend:
        cached = _project_get("xbackend")
        if cached is not None:
            xb_findings = cached["findings"]
        else:
            from .xbackend import analyze_xbackend

            _xb_index, xb_findings = analyze_xbackend(sources)
            if project is not None:
                project.put("xbackend", xb_findings, {})
        _merge_project_findings(xb_findings)

    if project is not None:
        project.save()

    return report.finalize()


def waiver_audit(paths: Sequence[str] = DEFAULT_ROOTS,
                 base: str = ".") -> dict:
    """Every active ``# repro: waive[...]`` in the tree, as an audit
    document: file, line, covered line, rules, justification."""
    entries = []
    for file_path, rel in _collect_files(paths, base):
        with open(file_path, "r", encoding="utf-8") as fh:
            source = fh.read()
        for waiver in parse_waivers(source):
            entries.append({
                "path": rel,
                "line": waiver.line,
                "covers": waiver.covers,
                "rules": sorted(waiver.rules),
                "justification": waiver.justification,
                "justified": bool(waiver.justification),
            })
    entries.sort(key=lambda e: (e["path"], e["line"]))
    return {
        "schema": 1,
        "count": len(entries),
        "unjustified": sum(1 for e in entries if not e["justified"]),
        "waivers": entries,
    }
