"""Findings, severities, and inline waivers for the lint pass.

A finding is one rule violation at one (file, line).  Waivers are inline
comments of the form::

    x = list(some_set)  # repro: waive[DET-SET-ITER] -- order-free: summed

    # repro: waive[DET-WALLCLOCK] -- display-only wall timing
    elapsed = time.perf_counter() - t0

A trailing waiver covers its own line; a standalone comment line covers
the next source line.  Several rules may be waived at once
(``waive[RULE-A,RULE-B]``).  The justification after ``--`` is
*required*: a waiver without one does not suppress anything and is
itself reported (``WAIVER-JUSTIFY``), so every exemption in the tree
carries its reasoning next to the code it exempts.
"""

from __future__ import annotations

import enum
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Severity", "Finding", "Waiver", "parse_waivers", "WAIVER_RE"]


class Severity(enum.Enum):
    """Per-rule severity; any unwaived finding fails the lint run."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    message: str
    waived: bool = False
    justification: Optional[str] = None

    def to_dict(self) -> dict:
        doc = {
            "rule": self.rule,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "waived": self.waived,
        }
        if self.waived:
            doc["justification"] = self.justification
        return doc

    def render(self) -> str:
        mark = " (waived)" if self.waived else ""
        return f"{self.path}:{self.line}: {self.rule} [{self.severity}]{mark} {self.message}"


WAIVER_RE = re.compile(
    r"#\s*repro:\s*waive\[(?P<rules>[A-Z*][A-Z0-9*,\-\s]*)\]"
    r"(?:\s*--\s*(?P<why>\S.*?))?\s*$"
)


@dataclass
class Waiver:
    """A parsed ``# repro: waive[...]`` comment."""

    rules: frozenset[str]
    line: int            # line of the comment itself
    covers: int          # source line the waiver applies to
    justification: Optional[str]
    used: bool = field(default=False, compare=False)

    def matches(self, rule: str) -> bool:
        return "*" in self.rules or rule in self.rules


def parse_waivers(source: str) -> list[Waiver]:
    """Extract every waiver comment from ``source``.

    Uses the tokenizer (not a line regex) so ``# repro: waive`` text inside
    string literals is never mistaken for a waiver.  Tokenisation errors
    (the file will fail to parse anyway) yield an empty list.
    """
    waivers: list[Waiver] = []
    standalone: list[Waiver] = []  # comment-only lines awaiting their target
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            match = WAIVER_RE.search(tok.string)
            if match is None:
                continue
            rules = frozenset(
                r.strip() for r in match.group("rules").split(",") if r.strip()
            )
            waiver = Waiver(
                rules=rules,
                line=tok.start[0],
                covers=tok.start[0],
                justification=match.group("why"),
            )
            waivers.append(waiver)
            if tok.line.lstrip().startswith("#"):
                standalone.append(waiver)
        elif tok.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
            tokenize.COMMENT,
        ):
            # First real token after a standalone waiver comment: that is
            # the line the waiver covers.
            if standalone:
                for waiver in standalone:
                    waiver.covers = tok.start[0]
                standalone = []
    return waivers
