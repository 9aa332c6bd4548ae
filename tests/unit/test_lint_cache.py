"""The per-file lint result cache and the report's dedup/determinism
contract: warm runs reproduce cold runs exactly, stale or corrupt
entries miss safely, and findings come out in (path, line, rule) order
regardless of traversal order or duplicate sources."""

import json
import os
import textwrap

from repro.analysis.cache import LintCache
from repro.analysis.findings import Finding, Severity
from repro.analysis.linter import LintReport, lint_paths

VIOLATION = textwrap.dedent('''
    import time


    class ClockActor:
        def now(self):
            return time.time()
''')

CLEAN = 'X = 1\n\n\ndef f():\n    return X\n'


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


def _lint(tmp_path, cache=True, rules=None):
    return lint_paths([str(tmp_path)], base=str(tmp_path), rules=rules,
                      cache_dir=str(tmp_path / ".cache") if cache else None)


def test_cold_then_warm_runs_produce_identical_reports(tmp_path):
    _write(tmp_path, "a.py", VIOLATION)
    _write(tmp_path, "b.py", CLEAN)
    _write(tmp_path, "c.py", "def broken(:\n")       # parse error

    cold = _lint(tmp_path)
    assert cold.cache_misses == 3 and cold.cache_hits == 0

    warm = _lint(tmp_path)
    assert warm.cache_hits == 3 and warm.cache_misses == 0
    assert warm.to_dict() == cold.to_dict()
    assert [f.render() for f in warm.findings] == \
        [f.render() for f in cold.findings]


def test_touched_but_identical_file_revalidates_by_hash(tmp_path):
    path = _write(tmp_path, "a.py", VIOLATION)
    _lint(tmp_path)
    stat = path.stat()
    os.utime(path, ns=(stat.st_mtime_ns + 7_000_000_000,
                       stat.st_mtime_ns + 7_000_000_000))

    warm = _lint(tmp_path)
    assert warm.cache_hits == 1 and warm.cache_misses == 0
    # The entry's stat fields were refreshed: next run hits on stat.
    again = _lint(tmp_path)
    assert again.cache_hits == 1


def test_edited_file_misses_and_reports_fresh_findings(tmp_path):
    path = _write(tmp_path, "a.py", VIOLATION)
    cold = _lint(tmp_path)
    assert not cold.ok

    path.write_text(CLEAN)
    warm = _lint(tmp_path)
    assert warm.cache_misses == 1
    assert warm.ok


def test_corrupt_cache_entries_are_tolerated(tmp_path):
    _write(tmp_path, "a.py", VIOLATION)
    cold = _lint(tmp_path)
    cache_dir = tmp_path / ".cache"
    entries = list(cache_dir.glob("*.json"))
    assert entries
    for entry in entries:
        entry.write_text("{not json")

    warm = _lint(tmp_path)
    assert warm.cache_misses == 1
    assert warm.to_dict() == cold.to_dict()


def test_rule_selection_changes_the_signature(tmp_path):
    _write(tmp_path, "a.py", VIOLATION)
    _lint(tmp_path)
    narrowed = _lint(tmp_path, rules=["DET-WALLCLOCK"])
    # Same file, different ruleset signature: must not reuse the entry.
    assert narrowed.cache_misses == 1 and narrowed.cache_hits == 0


def test_analysis_version_bump_invalidates_cached_findings(tmp_path, monkeypatch):
    # The bugfix this test pins: without the version stamp in the
    # signature, a rule-logic change would silently reuse stale cached
    # findings.  Bumping the stamp must force a full re-miss.
    import repro.analysis.version as version_mod

    _write(tmp_path, "a.py", VIOLATION)
    _lint(tmp_path)
    warm = _lint(tmp_path)
    assert warm.cache_hits == 1

    monkeypatch.setattr(version_mod, "ANALYSIS_VERSION",
                        version_mod.ANALYSIS_VERSION + "-test")
    bumped = _lint(tmp_path)
    assert bumped.cache_misses == 1 and bumped.cache_hits == 0


def test_signature_covers_flow_and_xb_rule_names(monkeypatch):
    # A new rule in *any* family must change the signature, even though
    # flow/XB findings themselves are never cached: the stamp guards the
    # whole analysis, not just the per-file half.
    from repro.analysis.linter import _ruleset_signature
    from repro.analysis.xbackend import rules as xb_rules

    base = _ruleset_signature(None)
    monkeypatch.setattr(
        xb_rules.AliasedMutableRule, "name", "XB-RENAMED")
    assert _ruleset_signature(None) != base


def test_cache_survives_missing_directory_parent(tmp_path):
    _write(tmp_path, "a.py", CLEAN)
    nested = tmp_path / "deep" / "cache"
    report = lint_paths([str(tmp_path)], base=str(tmp_path),
                        cache_dir=str(nested))
    assert report.cache_misses == 1
    assert nested.is_dir()


def test_entry_roundtrip_preserves_waiver_justifications(tmp_path):
    source = VIOLATION.replace(
        "return time.time()",
        "return time.time()  # repro: waive[DET-WALLCLOCK] -- unit fixture")
    _write(tmp_path, "a.py", source)
    cold = _lint(tmp_path)
    warm = _lint(tmp_path)
    assert warm.cache_hits == 1
    assert [f.justification for f in warm.waived] == \
        [f.justification for f in cold.waived]
    assert cold.waived and cold.waived[0].justification == "unit fixture"


def test_cache_api_misses_on_foreign_signature(tmp_path):
    path = _write(tmp_path, "a.py", CLEAN)
    first = LintCache(str(tmp_path / ".c"), "sig-one")
    first.put("a.py", str(path), CLEAN, [], [])
    assert first.get("a.py", str(path), CLEAN) is not None

    other = LintCache(str(tmp_path / ".c"), "sig-two")
    assert other.get("a.py", str(path), CLEAN) is None
    assert other.misses == 1


# ------------------------------------------- dedup + deterministic order


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
    _write(tmp_path, "zz.py", VIOLATION)
    _write(tmp_path, "aa.py", VIOLATION)
    sub = tmp_path / "pkg"
    sub.mkdir()
    _write(sub, "mid.py", VIOLATION)

    forward = lint_paths([str(tmp_path)], base=str(tmp_path))
    # Overlapping roots in reverse order: same files seen again, some
    # twice — the report must dedupe and come out identical.
    shuffled = lint_paths(
        [str(sub), str(tmp_path / "zz.py"), str(tmp_path)],
        base=str(tmp_path))
    assert shuffled.to_dict() == forward.to_dict()
    paths = [f.path for f in forward.findings]
    assert paths == sorted(paths)


def test_flow_pass_does_not_duplicate_parse_errors(tmp_path):
    _write(tmp_path, "bad.py", "def broken(:\n")
    report = lint_paths([str(tmp_path)], base=str(tmp_path), flow=True)
    parse = [f for f in report.active if f.rule == "PARSE-ERROR"]
    assert len(parse) == 1


# ------------------------------------------------- project-level cache


def _lint_project(tmp_path, **flags):
    return lint_paths([str(tmp_path)], base=str(tmp_path),
                      cache_dir=str(tmp_path / ".cache"),
                      flow=True, xbackend=True, **flags)


def test_project_passes_hit_the_whole_tree_cache_when_clean(tmp_path):
    _write(tmp_path, "a.py", CLEAN)
    _write(tmp_path, "b.py", CLEAN)
    cold = _lint_project(tmp_path)
    assert cold.project_cache_misses == 2 and cold.project_cache_hits == 0

    warm = _lint_project(tmp_path)
    # A clean re-run recomputes neither of the two project-wide passes.
    assert warm.project_cache_hits == 2 and warm.project_cache_misses == 0
    assert warm.to_dict() == cold.to_dict()
    assert warm.flow_graph.to_dict() == cold.flow_graph.to_dict()
    assert warm.flow_graph.type_edge_weights() == \
        cold.flow_graph.type_edge_weights()


def test_editing_any_file_invalidates_every_project_entry(tmp_path):
    # The tree signature covers every file's content: the project-wide
    # passes are interprocedural, so one edit anywhere must re-run all
    # of them — a stale whole-tree entry can never survive an edit.
    _write(tmp_path, "a.py", CLEAN)
    other = _write(tmp_path, "b.py", CLEAN)
    _lint_project(tmp_path)

    other.write_text(CLEAN + "\nY = 2\n")
    edited = _lint_project(tmp_path)
    assert edited.project_cache_misses == 2
    assert edited.project_cache_hits == 0


def test_project_warm_hit_reapplies_waivers_from_source(tmp_path):
    source = textwrap.dedent('''
        class Actor:
            pass


        class StreamActor(Actor):
            def publish(self):
                # repro: waive[XB-UNPICKLABLE-PAYLOAD] -- cache fixture
                yield Tell(ActorRef("peer", 0), "sync",
                           (x for x in range(3)))
    ''')
    _write(tmp_path, "a.py", source)
    cold = _lint_project(tmp_path)
    warm = _lint_project(tmp_path)
    assert warm.project_cache_hits == 2
    assert warm.ok
    waived = [f for f in warm.waived if f.rule == "XB-UNPICKLABLE-PAYLOAD"]
    assert len(waived) == 1
    assert waived[0].justification == "cache fixture"
    assert [f.render() for f in warm.findings] == \
        [f.render() for f in cold.findings]


def test_project_families_fill_in_incrementally(tmp_path):
    _write(tmp_path, "a.py", CLEAN)
    first = lint_paths([str(tmp_path)], base=str(tmp_path),
                       cache_dir=str(tmp_path / ".cache"), flow=True)
    assert first.project_cache_misses == 1

    # Adding passes reuses the flow entry and computes only the rest.
    both = _lint_project(tmp_path)
    assert both.project_cache_hits == 1
    assert both.project_cache_misses == 1
    again = _lint_project(tmp_path)
    assert again.project_cache_hits == 2


def test_corrupt_project_entry_misses_safely(tmp_path):
    _write(tmp_path, "a.py", CLEAN)
    cold = _lint_project(tmp_path)
    (tmp_path / ".cache" / "project.json").write_text("{not json")
    warm = _lint_project(tmp_path)
    assert warm.project_cache_misses == 2
    assert warm.to_dict() == cold.to_dict()
