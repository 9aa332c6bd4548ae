"""Each lint rule: fires on the bad idiom, stays silent on the good one;
and the report's dedup/determinism contract — findings come out in
(path, line, rule) order regardless of traversal order or duplicate
sources."""

import pytest

from repro.analysis import all_rules, get_rule, lint_paths, lint_source
from repro.analysis.findings import Finding, Severity
from repro.analysis.linter import LintReport


def rules_fired(source: str, path: str = "src/repro/fake.py") -> set:
    return {f.rule for f in lint_source(source, path).active}


# ----------------------------------------------------------------------
# (bad, good) source pairs per rule; linted under a src/repro path so
# every path-scoped rule is in its restricted mode.
# ----------------------------------------------------------------------
CASES = {
    "DET-WALLCLOCK": (
        "import time\nnow = time.time()\n",
        "def f(sim):\n    return sim.now\n",
    ),
    "DET-GLOBAL-RNG": (
        "import random\nx = random.random()\n",
        "def f(rngs):\n    return rngs.stream('workload.arrivals').random()\n",
    ),
    "DET-SET-ITER": (
        "for x in {3, 1, 2}:\n    print(x)\n",
        "for x in sorted({3, 1, 2}):\n    print(x)\n",
    ),
    "DET-ID-ORDER": (
        "out = sorted(items, key=id)\n",
        "out = sorted(items, key=lambda a: a.actor_id)\n",
    ),
    "DET-FLOAT-SUM": (
        "total = sum({0.125, 0.25})\n",
        "total = sum(sorted({0.125, 0.25}))\n",
    ),
    "ACT-FOREIGN-STATE": (
        "class A(Actor):\n"
        "    def poke(self, other):\n"
        "        other.count = 1\n",
        "class A(Actor):\n"
        "    def poke(self):\n"
        "        self.count = 1\n",
    ),
    "ACT-BLOCKING-IO": (
        "import time\n"
        "class A(Actor):\n"
        "    def nap(self):\n"
        "        time.sleep(1)\n",
        "class A(Actor):\n"
        "    WAIT = {'nap': 1.0}\n"
        "    def nap(self):\n"
        "        return None\n",
    ),
    "ACT-DIRECT-SEND": (
        "class A(Actor):\n"
        "    def go(self, ref: ActorRef):\n"
        "        return ref.ping()\n",
        "class A(Actor):\n"
        "    def go(self, ref: ActorRef):\n"
        "        yield Call(ref, 'ping')\n",
    ),
    "API-EXPORT-ALL": (
        "__all__ = ['present', 'missing']\npresent = 1\n",
        "__all__ = ['present']\npresent = 1\n",
    ),
    "WAIVER-JUSTIFY": (
        "# repro: waive[DET-WALLCLOCK]\nx = 1\n",
        "import time\n"
        "now = time.time()  # repro: waive[DET-WALLCLOCK] -- startup banner\n",
    ),
}


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_fires_on_bad_source(rule):
    bad, _ = CASES[rule]
    assert rule in rules_fired(bad)


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_silent_on_good_source(rule):
    _, good = CASES[rule]
    assert rule not in rules_fired(good)


def test_every_registered_rule_has_a_case():
    assert {r.name for r in all_rules()} == set(CASES)


def test_registry_lookup_and_metadata():
    for rule_cls in all_rules():
        assert get_rule(rule_cls.name) is rule_cls
        assert rule_cls.description and rule_cls.rationale


# ----------------------------------------------------------------------
# Edge cases the heuristics are built around
# ----------------------------------------------------------------------
def test_wallclock_allows_measurement_clocks_under_bench_only():
    src = "import time\nt0 = time.perf_counter()\n"
    assert "DET-WALLCLOCK" in rules_fired(src, "src/repro/sim/engine.py")
    assert "DET-WALLCLOCK" not in rules_fired(src, "src/repro/bench/perf.py")
    assert "DET-WALLCLOCK" not in rules_fired(src, "benchmarks/test_x.py")
    # time.time() is banned even under bench paths.
    src = "import time\nt0 = time.time()\n"
    assert "DET-WALLCLOCK" in rules_fired(src, "src/repro/bench/perf.py")


def test_wallclock_resolves_import_aliases():
    src = "from time import perf_counter as pc\nt0 = pc()\n"
    assert "DET-WALLCLOCK" in rules_fired(src)


def test_seeded_random_instance_is_allowed():
    assert "DET-GLOBAL-RNG" not in rules_fired(
        "import random\nrng = random.Random(42)\n")
    assert "DET-GLOBAL-RNG" in rules_fired(
        "import random\nrng = random.Random()\n")


def test_set_iter_tracks_names_and_self_attributes():
    src = (
        "pending = {1, 2}\n"
        "for x in pending:\n"
        "    print(x)\n"
    )
    assert "DET-SET-ITER" in rules_fired(src)
    src = (
        "class T:\n"
        "    def __init__(self):\n"
        "        self.live = set()\n"
        "    def drain(self):\n"
        "        return [x for x in self.live]\n"
    )
    assert "DET-SET-ITER" in rules_fired(src)


def test_set_iter_exempts_order_free_consumers():
    for consumer in ("sorted", "min", "max", "len", "any"):
        assert "DET-SET-ITER" not in rules_fired(
            f"out = {consumer}({{3, 1, 2}})\n"), consumer


def test_blocking_io_unrestricted_outside_stage_modules():
    src = "f = open('x')\n"
    assert "ACT-BLOCKING-IO" not in rules_fired(src, "src/repro/cli.py")
    assert "ACT-BLOCKING-IO" in rules_fired(src, "src/repro/seda/stage.py")


def test_export_rule_skips_pep562_modules():
    src = (
        "__all__ = ['lazy_thing']\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
    )
    assert "API-EXPORT-ALL" not in rules_fired(src)


def test_parse_error_is_an_active_finding():
    report = lint_source("def broken(:\n", "src/repro/x.py")
    assert not report.ok
    assert report.parse_errors[0].rule == "PARSE-ERROR"


# ----------------------------------------------------------------------
# Dedup + deterministic order
# ----------------------------------------------------------------------
def _finding(path, line, rule, message="m"):
    return Finding(rule=rule, severity=Severity.ERROR, path=path,
                   line=line, message=message)


def test_finalize_dedupes_per_path_line_rule_and_sorts():
    report = LintReport(findings=[
        _finding("b.py", 2, "R-ONE"),
        _finding("a.py", 9, "R-TWO", "zz"),
        _finding("a.py", 9, "R-TWO", "aa"),   # same key: one survivor
        _finding("a.py", 9, "R-ONE"),
        _finding("a.py", 1, "R-TWO"),
    ])
    report.finalize()
    keys = [(f.path, f.line, f.rule) for f in report.findings]
    assert keys == [("a.py", 1, "R-TWO"), ("a.py", 9, "R-ONE"),
                    ("a.py", 9, "R-TWO"), ("b.py", 2, "R-ONE")]
    # The survivor of a duplicate key is the message-sorted first, not
    # whichever arrived first.
    assert report.findings[2].message == "aa"


def test_lint_paths_order_is_traversal_independent(tmp_path):
    violation = "import time\n\n\ndef now():\n    return time.time()\n"
    sub = tmp_path / "pkg"
    sub.mkdir()
    for path in (tmp_path / "zz.py", tmp_path / "aa.py", sub / "mid.py"):
        path.write_text(violation)

    forward = lint_paths([str(tmp_path)], base=str(tmp_path))
    # Overlapping roots in reverse order: same files seen again, some
    # twice — the report must dedupe and come out identical.
    shuffled = lint_paths(
        [str(sub), str(tmp_path / "zz.py"), str(tmp_path)],
        base=str(tmp_path))
    assert shuffled.to_dict() == forward.to_dict()
    paths = [f.path for f in forward.findings]
    assert paths == sorted(paths) and len(paths) == 3
