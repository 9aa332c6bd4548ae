"""The lint rules: determinism, actor, and API hygiene.

Three families, mirroring the reproduction's invariants:

* ``DET-*`` — anything that could make two seeded runs diverge: wall
  clocks, global RNG, iteration order of hash-based containers, and
  order-sensitive float accumulation.
* ``ACT-*`` — the actor programming model's contract: handlers own only
  their activation's state, never block a SEDA stage thread on real I/O,
  and communicate through ``Call``/``Tell`` rather than direct method
  invocation on a reference.
* ``API-*`` — the package's declared exports must actually exist.

Rules are static heuristics: they over-approximate on purpose and rely
on ``# repro: waive[RULE] -- why`` comments for the (few) intentional
exceptions, so every exemption is visible and justified in-tree.
"""

from __future__ import annotations

import ast
from typing import Optional

from .findings import Finding, Severity
from .framework import LintContext, Rule, register

__all__ = ["WAIVER_JUSTIFY"]

WAIVER_JUSTIFY = "WAIVER-JUSTIFY"


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted name for ``a.b.c`` expressions built from Names; else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportTracker(ast.NodeVisitor):
    """Resolve local names through ``import``/``from`` aliases.

    ``from time import perf_counter as pc`` makes ``pc()`` resolve to
    ``time.perf_counter``; numpy imported as ``np`` makes ``np.random.x``
    resolve to ``numpy.random.x``.
    """

    def __init__(self, tree: ast.Module):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.aliases[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name != "*":
                        self.aliases[alias.asname or alias.name] = (
                            f"{node.module}.{alias.name}"
                        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolved dotted name of a call target, through import aliases."""
        dotted = _attr_chain(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        chain = _attr_chain(base)
        if chain is not None:
            names.append(chain.split(".")[-1])
    return names


def _is_actor_class(cls: ast.ClassDef) -> bool:
    """Heuristic: a class whose base name is or ends in ``Actor``."""
    return any(b == "Actor" or b.endswith("Actor") for b in _base_names(cls))


_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}


class _SetTracker(ast.NodeVisitor):
    """Shared machinery for rules about unordered-container iteration.

    Tracks, per lexical scope, which local names are statically known to
    hold ``set``/``frozenset`` values, plus ``self.<attr>`` fields a
    class assigns set values to.  Deliberately syntactic: we only claim
    set-ness when the source says so (a set literal/comprehension, a
    ``set()``/``frozenset()`` call, a set-operator expression, or a
    ``set[...]`` annotation).
    """

    def __init__(self, ctx: LintContext):
        # NodeVisitor needs no __init__; avoid super() so subclasses can mix
        # this into Rule without re-running Rule.__init__.
        self.ctx = ctx
        self.imports = _ImportTracker(ctx.tree)
        self._scopes: list[dict[str, bool]] = [{}]

    # -- scope plumbing -------------------------------------------------
    def _push_scope(self) -> None:
        self._scopes.append({})

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _mark(self, name: str, is_set: bool) -> None:
        scope = self._scopes[-1]
        if is_set:
            scope[name] = True
        else:
            scope.pop(name, None)

    def _known_set_name(self, name: str) -> bool:
        return any(name in scope for scope in reversed(self._scopes))

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = _attr_chain(node.func)
            if func in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference", "symmetric_difference",
            ):
                return self.is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return self._known_set_name(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return self._known_set_name(f"self.{node.attr}")
        return False

    @staticmethod
    def _annotation_is_set(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        chain = _attr_chain(annotation)
        return chain is not None and chain.split(".")[-1] in _SET_ANNOTATIONS

    # -- assignment tracking --------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        is_set = self.is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._mark(target.id, is_set)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if isinstance(node.target, ast.Name):
            is_set = self._annotation_is_set(node.annotation) or (
                node.value is not None and self.is_set_expr(node.value)
            )
            self._mark(node.target.id, is_set)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)  # |= etc. preserve set-ness; nothing to do

    # -- scope boundaries ------------------------------------------------
    def _visit_function(self, node) -> None:
        self._push_scope()
        for arg in list(node.args.args) + list(node.args.kwonlyargs):
            if arg.annotation is not None and self._annotation_is_set(arg.annotation):
                self._mark(arg.arg, True)
        self.generic_visit(node)
        self._pop_scope()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._push_scope()
        self.generic_visit(node)
        self._pop_scope()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._push_scope()
        # Prescan: fields the class itself initialises to sets make
        # ``self.<attr>`` set-typed in every method (``__init__`` usually
        # runs first but appears in arbitrary source order).
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and (
                isinstance(sub.value, (ast.Set, ast.SetComp))
                or (
                    isinstance(sub.value, ast.Call)
                    and _attr_chain(sub.value.func) in ("set", "frozenset")
                )
            ):
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self._mark(f"self.{target.attr}", True)
            elif isinstance(sub, ast.AnnAssign) and self._annotation_is_set(
                sub.annotation
            ):
                if (
                    isinstance(sub.target, ast.Attribute)
                    and isinstance(sub.target.value, ast.Name)
                    and sub.target.value.id == "self"
                ):
                    self._mark(f"self.{sub.target.attr}", True)
        self.generic_visit(node)
        self._pop_scope()


# ----------------------------------------------------------------------
# DET-WALLCLOCK
# ----------------------------------------------------------------------
_MEASUREMENT_CLOCKS = {
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
}
_WALLCLOCK_CALLS = _MEASUREMENT_CLOCKS | {
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
}


@register
class WallClockRule(Rule):
    name = "DET-WALLCLOCK"
    severity = Severity.ERROR
    description = "wall-clock reads in simulation code"
    rationale = (
        "Simulated components must read sim.now; a wall-clock read makes "
        "runs machine- and load-dependent.  Measurement clocks "
        "(perf_counter/monotonic) are allowed only under bench paths."
    )

    def run(self):
        self._imports = _ImportTracker(self.ctx.tree)
        self._bench = self.ctx.in_tree("bench", "benchmarks")
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._imports.resolve(node.func)
        if resolved in _WALLCLOCK_CALLS:
            if not (self._bench and resolved in _MEASUREMENT_CLOCKS):
                kind = ("measurement clock outside bench paths"
                        if resolved in _MEASUREMENT_CLOCKS else "wall-clock read")
                self.report(node, f"{kind}: {resolved}() — use sim.now")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# DET-GLOBAL-RNG
# ----------------------------------------------------------------------
@register
class GlobalRngRule(Rule):
    name = "DET-GLOBAL-RNG"
    severity = Severity.ERROR
    description = "global or unseeded random number generation"
    rationale = (
        "All randomness must come from sim/rng.py named substreams so "
        "that components draw independently and runs replay bit-identically "
        "regardless of PYTHONHASHSEED or module import order."
    )

    def run(self):
        self._imports = _ImportTracker(self.ctx.tree)
        return super().run()

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self._imports.resolve(node.func)
        if resolved is not None:
            if resolved == "random.Random":
                if not node.args and not node.keywords:
                    self.report(node, "random.Random() without a seed is "
                                      "OS-entropy seeded — pass a derived seed")
            elif resolved == "random.SystemRandom" or resolved.startswith(
                "random.SystemRandom."
            ):
                self.report(node, f"{resolved} is nondeterministic by design")
            elif resolved.startswith("random."):
                self.report(node, f"module-level {resolved}() draws from the "
                                  "global RNG — use a named substream from "
                                  "RngRegistry.stream()")
            elif resolved.startswith("numpy.random."):
                if resolved == "numpy.random.default_rng" and node.args:
                    pass  # explicitly seeded generator construction
                else:
                    self.report(node, f"{resolved}() uses numpy's global or "
                                      "unseeded RNG — derive a seeded "
                                      "Generator instead")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# DET-SET-ITER
# ----------------------------------------------------------------------
_ORDER_FREE_CONSUMERS = {
    "sorted", "min", "max", "any", "all", "len", "set", "frozenset", "sum",
}
_ORDERED_MATERIALISERS = {"list", "tuple", "enumerate", "iter"}


@register
class SetIterationRule(_SetTracker, Rule):
    name = "DET-SET-ITER"
    severity = Severity.ERROR
    description = "iteration over a set/frozenset in order-sensitive position"
    rationale = (
        "set iteration order depends on element hashes (and, for str keys, "
        "PYTHONHASHSEED); any event scheduling or float accumulation driven "
        "by it diverges between runs.  Wrap in sorted(...) or use an "
        "insertion-ordered dict."
    )

    def __init__(self, ctx: LintContext):
        Rule.__init__(self, ctx)
        _SetTracker.__init__(self, ctx)
        self._order_free: set[int] = set()

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(node, f"{what} iterates a set in hash order — wrap in "
                          "sorted(...) or keep an insertion-ordered dict")

    def visit_Call(self, node: ast.Call) -> None:
        func = _attr_chain(node.func)
        if func in _ORDER_FREE_CONSUMERS:
            for arg in node.args:
                self._order_free.add(id(arg))
        elif func in _ORDERED_MATERIALISERS and id(node) not in self._order_free:
            if node.args and self.is_set_expr(node.args[0]):
                self._flag(node, f"{func}(...)")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self.is_set_expr(node.iter):
            self._flag(node, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        exempt = isinstance(node, ast.GeneratorExp) and id(node) in self._order_free
        if not exempt:
            for gen in node.generators:
                if self.is_set_expr(gen.iter):
                    self._flag(node, type(node).__name__)
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension
    # SetComp over a set is order-free (set in, set out): not visited.


# ----------------------------------------------------------------------
# DET-ID-ORDER
# ----------------------------------------------------------------------
@register
class IdOrderRule(Rule):
    name = "DET-ID-ORDER"
    severity = Severity.ERROR
    description = "ordering keyed on id() or hash()"
    rationale = (
        "id() is a CPython address and hash() of str varies with "
        "PYTHONHASHSEED; any sort keyed on them is a different order every "
        "process.  Key on stable identities (ActorId tuples) instead."
    )

    _SORTERS = {"sorted", "min", "max"}

    def visit_Call(self, node: ast.Call) -> None:
        func = _attr_chain(node.func)
        is_sorter = func in self._SORTERS or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        )
        if is_sorter:
            for kw in node.keywords:
                if kw.arg == "key" and self._key_uses_identity(kw.value):
                    self.report(node, "sort key uses id()/hash() — "
                                      "address-/hashseed-dependent order")
        self.generic_visit(node)

    @staticmethod
    def _key_uses_identity(key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return True
        for sub in ast.walk(key):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in ("id", "hash")
            ):
                return True
        return False


# ----------------------------------------------------------------------
# DET-FLOAT-SUM
# ----------------------------------------------------------------------
@register
class FloatSumRule(_SetTracker, Rule):
    name = "DET-FLOAT-SUM"
    severity = Severity.ERROR
    description = "sum() over an unordered iterable"
    rationale = (
        "float addition is not associative; sum() over a set accumulates "
        "in hash order, so the low bits differ between runs.  Sum a sorted "
        "sequence or use math.fsum (order-independent)."
    )

    def __init__(self, ctx: LintContext):
        Rule.__init__(self, ctx)
        _SetTracker.__init__(self, ctx)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "sum" and node.args:
            arg = node.args[0]
            unordered = self.is_set_expr(arg) or (
                isinstance(arg, ast.GeneratorExp)
                and any(self.is_set_expr(g.iter) for g in arg.generators)
            )
            if unordered:
                self.report(node, "sum() over a set accumulates floats in "
                                  "hash order — sum(sorted(...)) or math.fsum")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# ACT-FOREIGN-STATE
# ----------------------------------------------------------------------
_RUNTIME_INTERNALS = frozenset({"activations", "silos", "directory", "storage"})


@register
class ForeignStateRule(Rule):
    name = "ACT-FOREIGN-STATE"
    severity = Severity.ERROR
    description = "actor handler touching another activation's state"
    rationale = (
        "The single-threaded-per-activation turn model (PAPER §2) only "
        "holds if a handler mutates nothing but self; reaching into the "
        "runtime's activation tables or writing through a passed-in "
        "reference races with that actor's own turns."
    )

    def run(self):
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.ClassDef) and _is_actor_class(node):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._check_method(item)
        return self.findings

    def _check_method(self, method) -> None:
        params = {
            a.arg for a in list(method.args.args) + list(method.args.kwonlyargs)
        } - {"self"}
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) and node.attr in _RUNTIME_INTERNALS:
                self.report(node, f"handler reaches into runtime internals "
                                  f"(.{node.attr}) — actors may only touch "
                                  "their own state")
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in params
                    ):
                        self.report(node, f"handler writes "
                                          f"{target.value.id}.{target.attr} — "
                                          "state of another activation; send "
                                          "it a message instead")


# ----------------------------------------------------------------------
# ACT-BLOCKING-IO
# ----------------------------------------------------------------------
_BLOCKING_CALLS = {"time.sleep", "open", "input", "os.system"}
_BLOCKING_PREFIXES = ("subprocess.", "socket.", "urllib.request.", "requests.",
                      "http.client.")
_STAGE_MODULE_DIRS = ("seda", "actor", "sim", "core", "workloads", "faults")


@register
class BlockingIoRule(Rule):
    name = "ACT-BLOCKING-IO"
    severity = Severity.ERROR
    description = "blocking I/O inside stage/actor callback code"
    rationale = (
        "SEDA stage callbacks run on simulated threads; a real blocking "
        "call stalls the whole event loop and breaks the compute/wait "
        "accounting the §5 thread-allocation model depends on.  Blocking "
        "work must be modelled as WAIT cost, not performed."
    )

    def run(self):
        self._imports = _ImportTracker(self.ctx.tree)
        self._restricted_module = self.ctx.in_tree(*_STAGE_MODULE_DIRS)
        self._actor_depth = 0
        return super().run()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        actor = _is_actor_class(node)
        if actor:
            self._actor_depth += 1
        self.generic_visit(node)
        if actor:
            self._actor_depth -= 1

    def visit_Call(self, node: ast.Call) -> None:
        if self._restricted_module or self._actor_depth:
            resolved = self._imports.resolve(node.func)
            if resolved is not None and (
                resolved in _BLOCKING_CALLS
                or resolved.startswith(_BLOCKING_PREFIXES)
            ):
                self.report(node, f"blocking call {resolved}() in stage/actor "
                                  "code — model it as WAIT cost instead")
        self.generic_visit(node)


# ----------------------------------------------------------------------
# ACT-DIRECT-SEND
# ----------------------------------------------------------------------
@register
class DirectSendRule(Rule):
    name = "ACT-DIRECT-SEND"
    severity = Severity.ERROR
    description = "direct method invocation on an ActorRef"
    rationale = (
        "Location transparency (PAPER §2) requires every interaction to go "
        "through the runtime: yield Call(ref, ...) / Tell(ref, ...).  A "
        "direct method call bypasses queues, reentrancy control, and "
        "migration, and silently runs on the caller's silo."
    )

    _REF_FACTORIES = ("ActorRef", "self_ref")

    def run(self):
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.ClassDef) and _is_actor_class(node):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._check_method(item)
        return self.findings

    def _refs_in(self, method) -> set[str]:
        refs: set[str] = set()
        for arg in list(method.args.args) + list(method.args.kwonlyargs):
            ann = arg.annotation
            if ann is not None:
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    name = ann.value
                else:
                    name = _attr_chain(ann) or ""
                if name.split(".")[-1].split("[")[0] == "ActorRef":
                    refs.add(arg.arg)
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func = _attr_chain(node.value.func) or ""
                if func.split(".")[-1] in self._REF_FACTORIES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            refs.add(target.id)
        return refs

    def _check_method(self, method) -> None:
        refs = self._refs_in(method)
        if not refs:
            return
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in refs
                and node.func.attr not in ("self_ref",)
            ):
                self.report(node, f"direct call "
                                  f"{node.func.value.id}.{node.func.attr}() on "
                                  "an ActorRef — yield Call/Tell through the "
                                  "runtime instead")


# ----------------------------------------------------------------------
# API-EXPORT-ALL
# ----------------------------------------------------------------------
@register
class ExportConsistencyRule(Rule):
    name = "API-EXPORT-ALL"
    severity = Severity.ERROR
    description = "__all__ names that are not defined in the module"
    rationale = (
        "A stale __all__ silently breaks `from repro import *` and the "
        "documented public surface; every exported name must be bound at "
        "module level (def/class/assignment/import)."
    )

    def run(self):
        tree = self.ctx.tree
        # PEP 562: a module-level __getattr__ makes exports dynamic; the
        # import-time consistency test covers those instead.
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__getattr__":
                return self.findings
        exported: list[tuple[str, ast.AST]] = []
        star_import = False
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                a.name == "*" for a in node.names
            ):
                star_import = True
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        if isinstance(node.value, (ast.List, ast.Tuple)):
                            for elt in node.value.elts:
                                if isinstance(elt, ast.Constant) and isinstance(
                                    elt.value, str
                                ):
                                    exported.append((elt.value, elt))
        if not exported or star_import:
            return self.findings
        bound = self._module_level_names(tree)
        for name, node in exported:
            if name not in bound:
                self.report(node, f"__all__ exports {name!r} but the module "
                                  "never defines or imports it")
        return self.findings

    @staticmethod
    def _module_level_names(tree: ast.Module) -> set[str]:
        bound: set[str] = set()

        def collect(stmts) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    bound.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        for sub in ast.walk(target):
                            if isinstance(sub, ast.Name):
                                bound.add(sub.id)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    if isinstance(stmt.target, ast.Name):
                        bound.add(stmt.target.id)
                elif isinstance(stmt, ast.Import):
                    for alias in stmt.names:
                        bound.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(stmt, ast.ImportFrom):
                    for alias in stmt.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name)
                elif isinstance(stmt, ast.If):
                    collect(stmt.body)
                    collect(stmt.orelse)
                elif isinstance(stmt, ast.Try):
                    collect(stmt.body)
                    collect(stmt.orelse)
                    collect(stmt.finalbody)
                    for handler in stmt.handlers:
                        collect(handler.body)

        collect(tree.body)
        return bound


# ----------------------------------------------------------------------
# WAIVER-JUSTIFY (linter-level: checks the waivers themselves)
# ----------------------------------------------------------------------
@register
class WaiverJustificationRule(Rule):
    name = WAIVER_JUSTIFY
    severity = Severity.ERROR
    description = "waiver comment without a justification"
    rationale = (
        "A waiver is an argument, not an off switch: without '-- why' text "
        "the exemption cannot be reviewed, so it is rejected and the "
        "underlying finding stays live."
    )

    def run(self):
        for waiver in self.ctx.waivers:
            if not waiver.justification:
                self.findings.append(
                    Finding(
                        rule=self.name,
                        severity=self.severity,
                        path=self.ctx.path,
                        line=waiver.line,
                        message="waiver lacks '-- justification' text; it "
                                "suppresses nothing until one is added",
                    )
                )
        return self.findings
