"""The flow pass over the real tree: the repo flow-lints clean, the
flow fixture fires exactly the FLOW family, and the static interaction
graph covers every edge a seeded runtime slice actually observes
(static ⊇ dynamic) — the property that makes the graph trustworthy as
a partitioner planning input."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import DEFAULT_ROOTS, lint_paths
from repro.analysis.flow import (
    all_flow_rules,
    analyze_files,
    crosscheck_halo,
)
from repro.analysis.linter import _collect_files, waiver_audit

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
FLOW_FIXTURE = os.path.join("tests", "fixtures", "flow_violations.py")
FLOW_RULES = {r.name for r in all_flow_rules()}


def _tree_sources():
    out = []
    for abspath, rel in _collect_files(DEFAULT_ROOTS, REPO):
        with open(abspath, "r", encoding="utf-8") as fh:
            out.append((rel, fh.read()))
    return out


def test_repo_tree_flow_lints_clean():
    report = lint_paths(DEFAULT_ROOTS, base=REPO, flow=True)
    assert report.files_checked > 50
    assert report.ok, "\n".join(f.render() for f in report.active)
    for finding in report.waived:
        assert finding.justification, finding.render()


def test_flow_fixture_fires_exactly_the_flow_family():
    report = lint_paths([FLOW_FIXTURE], base=REPO, flow=True)
    fired = [f.rule for f in report.active]
    assert set(fired) == FLOW_RULES
    assert len(fired) == len(FLOW_RULES)    # one specimen per rule


def test_static_graph_derives_the_workload_interactions():
    _, graph, _ = analyze_files(_tree_sources())
    edges = {(e.caller_type, e.caller_method, e.target_type,
              e.target_method) for e in graph.actor_edges()}
    # The Halo workload's broadcast fan-out, both directions.
    assert ("game", "broadcast_status", "player", "update") in edges
    assert ("player", "request_status", "game", "broadcast_status") in edges
    # The quickstart chat room is in the graph too (examples/ tree).
    assert ("room", "broadcast", "user", "receive") in edges
    # game <-> player is a Call cycle, but every participant is
    # reentrant, so the FLOW-CALL-CYCLE rule must stay silent on it.
    assert ["game", "player"] in [sorted(c) for c in graph.call_cycles()]


def test_static_graph_covers_a_seeded_dynamic_slice():
    _, graph, _ = analyze_files(_tree_sources())
    report = crosscheck_halo(graph, requests=300, seed=5)
    assert report["ok"], report["missing_from_static"]
    assert report["slice"]["requests_completed"] >= 300
    assert report["dynamic_edges"]          # the slice did observe edges
    dynamic = {(u, v) for u, v, _ in report["dynamic_edges"]}
    static = {(u, v) for u, v, _ in report["static_edges"]}
    assert dynamic <= static


def test_waiver_audit_is_fully_justified():
    doc = waiver_audit(DEFAULT_ROOTS, base=REPO)
    assert doc["count"] > 0
    assert doc["unjustified"] == 0
    for entry in doc["waivers"]:
        assert entry["rules"], entry
        assert entry["justification"], entry


def test_waiver_audit_reports_xb_and_flow_waivers(tmp_path):
    # The audit must surface waivers of every family, not just the
    # per-file rules — a deadlock or portability waiver is exactly the
    # kind reviewers need to see.
    (tmp_path / "mod.py").write_text(
        "class StreamActor:\n"
        "    def publish(self):\n"
        "        # repro: waive[XB-UNPICKLABLE-PAYLOAD] -- audit fixture\n"
        "        yield (x for x in range(3))\n"
        "\n"
        "    def relay(self):\n"
        "        # repro: waive[FLOW-CALL-CYCLE] -- audit fixture\n"
        "        yield Call(self.self_ref, 'relay')\n"
    )
    doc = waiver_audit([str(tmp_path)], base=str(tmp_path))
    assert doc["count"] == 2
    assert doc["unjustified"] == 0
    rules = {rule for entry in doc["waivers"] for rule in entry["rules"]}
    assert rules == {"XB-UNPICKLABLE-PAYLOAD", "FLOW-CALL-CYCLE"}
    for entry in doc["waivers"]:
        assert entry["justification"] == "audit fixture"


# ------------------------------------------------------------- the CLI


def _run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, cwd=REPO, env=env,
    )


@pytest.mark.slow
def test_cli_flow_graph_export(tmp_path):
    graph_path = tmp_path / "flow-graph.json"
    proc = _run_cli("--flow", "--flow-graph", str(graph_path), "--json", "-")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True
    assert doc["flow_graph"]["format"] == "comm_graph/edges"
    exported = json.loads(graph_path.read_text())
    assert exported == doc["flow_graph"]
    assert set(exported["vertices"]) >= {"game", "player", "room", "user"}
    pairs = {tuple(e[:2]) for e in exported["edges"]}
    assert ("game", "player") in pairs


@pytest.mark.slow
def test_cli_graph_check_writes_the_diff_artifact(tmp_path):
    diff_path = tmp_path / "graph-diff.json"
    proc = _run_cli("--flow", "--graph-check", str(diff_path),
                    "--requests", "300", "--seed", "5")
    assert proc.returncode == 0, proc.stderr
    diff = json.loads(diff_path.read_text())
    assert diff["ok"] is True
    assert diff["missing_from_static"] == []
    assert "graph cross-check" in proc.stdout


def test_cli_waiver_audit(tmp_path):
    audit_path = tmp_path / "waivers.json"
    proc = _run_cli("--waivers", "--json", str(audit_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(audit_path.read_text())
    assert doc["schema"] == 1
    audit = doc["waiver_audit"]
    assert audit["unjustified"] == 0
    assert audit["count"] == len(audit["waivers"]) > 0
    assert "waiver" in proc.stdout


def test_cli_list_rules_includes_the_flow_family():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for name in FLOW_RULES:
        assert name in proc.stdout
    assert "[flow]" in proc.stdout


def test_cli_list_rules_json_inventory_follows_the_convention():
    # Same convention as every other --json '-' mode: pure JSON on
    # stdout, the human table on stderr.
    proc = _run_cli("--list-rules", "--json", "-")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["schema"] == 1
    rows = doc["rules"]
    families = {r["family"] for r in rows}
    assert families == {"file", "flow", "xbackend"}
    for row in rows:
        assert row["name"] and row["description"]
        assert row["severity"] in ("error", "warning")
    names = [r["name"] for r in rows]
    assert not [n for n in names if n.startswith("PAR-")]
    assert "API-DEPRECATED" not in names
    assert "registered lint rules" in proc.stderr
