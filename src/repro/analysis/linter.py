"""The lint driver: walk files, run every rule, apply waivers, report.

The contract matching the other ``repro`` subcommands: the run *fails*
(non-zero exit) iff any unwaived finding exists; waived findings are
still listed (with their justification) so the report is an audit trail
of every exemption in the tree.

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


def _lint(source: str, path: str,
          rules: Optional[Iterable[str]]) -> Tuple[LintReport, List[Waiver]]:
    """One file's report plus its waivers, each marked ``used`` if it
    suppressed a finding (none for a file that does not parse)."""
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
        return report, []

    waivers = parse_waivers(source)
    ctx = LintContext(path=path, source=source, tree=tree, waivers=waivers)
    raw: list[Finding] = []
    selected = set(rules) if rules is not None else None
    for rule_cls in all_rules():
        if selected is not None and rule_cls.name not in selected:
            continue
        raw.extend(rule_cls(ctx).run())

    report.findings = _apply_waivers(raw, waivers)
    return report.finalize(), waivers


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Iterable[str]] = None) -> LintReport:
    """Lint one source string; ``path`` is used for reporting and
    path-scoped rules (bench exemptions)."""
    return _lint(source, path, rules)[0]


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


def lint_paths(paths: Sequence[str] = DEFAULT_ROOTS, base: str = ".",
               rules: Optional[Iterable[str]] = None) -> LintReport:
    """Lint every ``.py`` file under each of ``paths`` (files or dirs),
    resolved against ``base``; findings report base-relative paths."""
    report = LintReport()
    for file_path, rel in _collect_files(paths, base):
        report.extend(lint_file(file_path, rel, rules=rules))
    return report.finalize()


def waiver_audit(paths: Sequence[str] = DEFAULT_ROOTS,
                 base: str = ".") -> dict:
    """Every active ``# repro: waive[...]`` in the tree, as an audit
    document: file, line, covered line, rules, justification, and
    whether it suppressed a finding in this run.  A justified waiver
    that suppressed nothing is ``unused``: the code it excused is gone,
    or it names a rule that no longer exists."""
    entries = []
    for file_path, rel in _collect_files(paths, base):
        with open(file_path, "r", encoding="utf-8") as fh:
            source = fh.read()
        for waiver in _lint(source, rel, None)[1]:
            entries.append({
                "path": rel,
                "line": waiver.line,
                "covers": waiver.covers,
                "rules": sorted(waiver.rules),
                "justification": waiver.justification,
                "justified": bool(waiver.justification),
                "used": waiver.used,
            })
    entries.sort(key=lambda e: (e["path"], e["line"]))
    return {
        "schema": 1,
        "count": len(entries),
        "unjustified": sum(1 for e in entries if not e["justified"]),
        "unused": sum(1 for e in entries
                      if e["justified"] and not e["used"]),
        "waivers": entries,
    }
