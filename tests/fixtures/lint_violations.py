"""Deliberate lint violations — exactly one per registered rule.

Never imported by anything: the file exists so
``tests/integration/test_lint_repo_clean.py`` can prove every rule
fires and that ``repro lint`` exits non-zero on a dirty file.  The
``fixtures`` directory is excluded from the default lint roots, so the
repo-wide pass stays clean.

The ``Actor``/``ActorRef`` stand-ins keep the file
self-contained (the rules match on names, not on imports).
"""

import random
import time

__all__ = ["missing_name"]  # API-EXPORT-ALL: never bound below


# repro: waive[DET-GLOBAL-RNG]
WAIVED_NOTHING = 1  # WAIVER-JUSTIFY: no '-- why' text, suppresses nothing


def wallclock() -> float:
    return time.time()  # DET-WALLCLOCK


def global_rng() -> float:
    return random.random()  # DET-GLOBAL-RNG


def set_iteration() -> list:
    visited = []
    for item in {3, 1, 2}:  # DET-SET-ITER
        visited.append(item)
    return visited


def id_ordering(items) -> list:
    return sorted(items, key=id)  # DET-ID-ORDER


def float_sum() -> float:
    return sum({0.125, 0.25, 0.5})  # DET-FLOAT-SUM


class Actor:
    """Stand-in base so the hygiene rules see an actor class."""


class ActorRef:
    """Stand-in reference type."""


class RogueActor(Actor):
    def poke(self, other):
        other.count = 1  # ACT-FOREIGN-STATE: writes a non-self param

    def nap(self):
        time.sleep(0.1)  # ACT-BLOCKING-IO

    def shortcut(self, ref: ActorRef):
        return ref.ping()  # ACT-DIRECT-SEND: bypasses Call/Tell
