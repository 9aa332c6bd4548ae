"""Per-file lint result cache (opt-in via ``repro lint --cache``).

One JSON entry per linted file under ``.repro-lint-cache/``, keyed by
the file's repo-relative path and validated by ``(mtime_ns, size)``
with a sha256 fallback: a touched-but-identical file revalidates by
hash and the entry's stat fields are refreshed.  Entries also carry a
ruleset signature (rule names + selection + package version) so adding
or selecting rules invalidates stale results.

The project-wide passes (FLOW/XB) are interprocedural — any file
can change another file's findings — so they cannot be cached per file.
:class:`ProjectCache` caches them at the only granularity that is
sound: the whole tree.  One ``project.json`` entry keyed by the ruleset
signature plus a *tree signature* (sha256 over every file's path and
content hash, in sorted order) stores each pass's raw findings and
side documents (the interaction graph); any edit to any file changes
the tree signature and invalidates every project entry at once.
Waivers and rule selection are re-applied by the linter on load, so the
cache stores analysis results, not policy.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

from .findings import Finding

__all__ = ["LintCache", "ProjectCache", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = ".repro-lint-cache"

_SCHEMA = 1


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class LintCache:
    def __init__(self, root: str, ruleset_signature: str):
        self.root = root
        self.signature = ruleset_signature
        self.hits = 0
        self.misses = 0
        os.makedirs(root, exist_ok=True)

    def _entry_path(self, rel: str) -> str:
        digest = _sha256(rel.replace("\\", "/").encode("utf-8"))[:24]
        return os.path.join(self.root, f"{digest}.json")

    def get(self, rel: str, abspath: str,
            source: str) -> Optional[tuple]:
        """Cached ``(findings, parse_errors)`` for ``rel``, or None."""
        entry_path = self._entry_path(rel)
        try:
            with open(entry_path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (entry.get("schema") != _SCHEMA
                or entry.get("path") != rel
                or entry.get("signature") != self.signature):
            self.misses += 1
            return None
        try:
            stat = os.stat(abspath)
        except OSError:
            self.misses += 1
            return None
        fresh = (entry.get("mtime_ns") == stat.st_mtime_ns
                 and entry.get("size") == stat.st_size)
        if not fresh:
            # mtime moved: revalidate by content hash (e.g. a clean
            # checkout or a touch without edits).
            if entry.get("sha256") != _sha256(source.encode("utf-8")):
                self.misses += 1
                return None
            entry["mtime_ns"] = stat.st_mtime_ns
            entry["size"] = stat.st_size
            self._write(entry_path, entry)
        self.hits += 1
        return (
            [Finding.from_dict(d) for d in entry.get("findings", [])],
            [Finding.from_dict(d) for d in entry.get("parse_errors", [])],
        )

    def put(self, rel: str, abspath: str, source: str,
            findings: list, parse_errors: list) -> None:
        try:
            stat = os.stat(abspath)
        except OSError:
            return
        entry = {
            "schema": _SCHEMA,
            "path": rel,
            "signature": self.signature,
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "sha256": _sha256(source.encode("utf-8")),
            "findings": [_finding_doc(f) for f in findings],
            "parse_errors": [_finding_doc(f) for f in parse_errors],
        }
        self._write(self._entry_path(rel), entry)

    @staticmethod
    def _write(path: str, entry: dict) -> None:
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp, path)
        except OSError:
            pass                      # cache is best-effort


def _finding_doc(finding: Finding) -> dict:
    doc = finding.to_dict()
    # to_dict drops the justification for unwaived findings; keep the
    # round-trip exact regardless.
    doc["justification"] = finding.justification
    return doc


def tree_signature(sources: Sequence[Tuple[str, str]],
                   ruleset_signature: str = "") -> str:
    """Whole-tree signature: sha256 over every ``(relpath, sha256)``
    pair in sorted order, salted with the ruleset signature.  Any edit,
    addition, or removal of any file changes it."""
    sha = hashlib.sha256()
    sha.update(ruleset_signature.encode("utf-8"))
    for rel, source in sorted(sources):
        sha.update(b"\x00")
        sha.update(rel.replace("\\", "/").encode("utf-8"))
        sha.update(b"\x00")
        sha.update(_sha256(source.encode("utf-8")).encode("utf-8"))
    return sha.hexdigest()[:32]


class ProjectCache:
    """Whole-tree cache for the project-wide passes (see module doc).

    ``get``/``put`` trade ``{"findings": [Finding, ...], **extras}``
    per family ("flow", "xbackend"); extras are JSON documents (the
    interaction-graph dict).  ``save()`` persists staged results;
    entries from a previous run with the same signatures survive a
    partial run (e.g. ``--flow`` then ``--flow --xbackend`` reuses the
    flow entry and adds the xbackend one).
    """

    _SCHEMA = 1

    def __init__(self, root: str, ruleset_signature: str,
                 sources: Sequence[Tuple[str, str]]):
        self.root = root
        self.signature = ruleset_signature
        self.tree = tree_signature(sources, ruleset_signature)
        self.path = os.path.join(root, "project.json")
        self._families: Dict[str, dict] = {}
        self._dirty = False
        os.makedirs(root, exist_ok=True)
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return
        if (entry.get("schema") == self._SCHEMA
                and entry.get("signature") == self.signature
                and entry.get("tree") == self.tree
                and isinstance(entry.get("families"), dict)):
            self._families = entry["families"]

    def get(self, family: str) -> Optional[dict]:
        """Cached results for one pass, or None.  Returns a dict with
        ``findings`` rebuilt as :class:`Finding` objects plus whatever
        extras ``put`` stored."""
        doc = self._families.get(family)
        if not isinstance(doc, dict) or "findings" not in doc:
            return None
        try:
            findings = [Finding.from_dict(d) for d in doc["findings"]]
        except (KeyError, TypeError, ValueError):
            return None
        out = {k: v for k, v in doc.items() if k != "findings"}
        out["findings"] = findings
        return out

    def put(self, family: str, findings: List[Finding],
            extras: dict) -> None:
        doc = dict(extras)
        doc["findings"] = [_finding_doc(f) for f in findings]
        self._families[family] = doc
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        LintCache._write(self.path, {
            "schema": self._SCHEMA,
            "signature": self.signature,
            "tree": self.tree,
            "families": self._families,
        })
        self._dirty = False
