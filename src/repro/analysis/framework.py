"""Rule framework: registry, lint context, and the Rule base class.

Rules are :class:`ast.NodeVisitor` subclasses registered by decorator.
Each declares a stable name (``DET-SET-ITER``-style), a severity, and a
one-line rationale; the linter instantiates every registered rule per
file, feeds it the parsed module, and collects findings.  Registration
order is preserved so reports are stable run to run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import ClassVar, Iterable, Type

from .findings import Finding, Severity, Waiver

__all__ = ["LintContext", "Rule", "register", "all_rules", "get_rule"]

_REGISTRY: dict[str, Type["Rule"]] = {}


@dataclass
class LintContext:
    """Everything a rule may consult about the file under analysis."""

    path: str                    # path as reported in findings (repo-relative)
    source: str
    tree: ast.Module
    waivers: list[Waiver]        # the file's waiver comments, tokenized once

    @property
    def module_parts(self) -> tuple[str, ...]:
        """Path components, for module-scoped rules (``bench`` exemptions)."""
        return tuple(self.path.replace("\\", "/").split("/"))

    def in_tree(self, *parts: str) -> bool:
        """True if any of ``parts`` appears as a path component."""
        mine = self.module_parts
        return any(p in mine for p in parts)


class Rule(ast.NodeVisitor):
    """Base class for one lint rule over one file.

    Subclasses set the class attributes and either override :meth:`run`
    or rely on the default, which visits the whole tree.  Findings are
    reported through :meth:`report`.
    """

    name: ClassVar[str] = ""
    severity: ClassVar[Severity] = Severity.ERROR
    description: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def __init__(self, ctx: LintContext):
        self.ctx = ctx
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        self.visit(self.ctx.tree)
        return self.findings

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=self.name,
                severity=self.severity,
                path=self.ctx.path,
                line=getattr(node, "lineno", 0),
                message=message,
            )
        )


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the registry (names must be unique)."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def all_rules() -> Iterable[Type[Rule]]:
    """Registered rules, in registration order."""
    return tuple(_REGISTRY.values())


def get_rule(name: str) -> Type[Rule]:
    return _REGISTRY[name]
