"""The waiver audit and the rule inventory over the real tree and
through the CLI: every waiver in the tree is justified and suppresses
something, a waiver left behind by a deleted rule fails the audit, and
``--list-rules --json`` is the structured inventory of what is
registered."""

import json
import os
import subprocess
import sys

from repro.analysis import DEFAULT_ROOTS, all_rules
from repro.analysis.linter import waiver_audit

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_waiver_audit_is_fully_justified():
    doc = waiver_audit(DEFAULT_ROOTS, base=REPO)
    assert doc["count"] > 0
    assert doc["unjustified"] == 0
    assert doc["unused"] == 0
    for entry in doc["waivers"]:
        assert entry["rules"], entry
        assert entry["justification"], entry
        assert entry["used"], entry


def test_waiver_audit_reports_xb_and_flow_waivers(tmp_path):
    # The FLOW and XB rules are gone, so a waiver naming one can never
    # suppress anything: the audit must still surface it — as unused —
    # or deleting a rule family would leave dead exemptions behind.
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
    assert doc["unused"] == 2
    for entry in doc["waivers"]:
        assert entry["justification"] == "audit fixture"
        assert entry["used"] is False


# ------------------------------------------------------------- the CLI


def _run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True, text=True, cwd=REPO, env=env,
    )


def test_cli_waiver_audit(tmp_path):
    audit_path = tmp_path / "waivers.json"
    proc = _run_cli("--waivers", "--json", str(audit_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(audit_path.read_text())
    assert doc["schema"] == 1
    audit = doc["waiver_audit"]
    assert audit["unjustified"] == 0 and audit["unused"] == 0
    assert audit["count"] == len(audit["waivers"]) > 0
    assert "waiver" in proc.stdout


def test_cli_waiver_audit_fails_on_a_stale_waiver(tmp_path):
    # One waiver that earns its keep, one left behind by a deleted rule.
    (tmp_path / "mod.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "def relay(ref):\n"
        "    # repro: waive[FLOW-CALL-CYCLE] -- reentrant by construction\n"
        "    yield ref\n"
        "    return time.time()  # repro: waive[DET-WALLCLOCK] -- banner\n"
    )
    proc = _run_cli("--waivers", str(tmp_path), "--json", "-")
    assert proc.returncode == 1, proc.stderr
    audit = json.loads(proc.stdout)["waiver_audit"]
    assert (audit["count"], audit["unjustified"], audit["unused"]) == (2, 0, 1)
    stale, live = audit["waivers"]
    assert stale["rules"] == ["FLOW-CALL-CYCLE"] and stale["used"] is False
    assert live["rules"] == ["DET-WALLCLOCK"] and live["used"] is True
    assert "SUPPRESSES NOTHING" in proc.stderr
    # The same file lints clean: only the audit sees a dead exemption.
    assert _run_cli(str(tmp_path)).returncode == 0


def test_cli_list_rules_json_inventory_follows_the_convention():
    # Same convention as every other --json '-' mode: pure JSON on
    # stdout, the human table on stderr.
    proc = _run_cli("--list-rules", "--json", "-")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["schema"] == 2           # 1 carried a per-row "family"
    rows = doc["rules"]
    for row in rows:
        assert set(row) == {"name", "severity", "description"}
        assert row["name"] and row["description"]
        assert row["severity"] in ("error", "warning")
    # One family is left: exactly the registered per-file rules.
    assert [r["name"] for r in rows] == [r.name for r in all_rules()]
    assert "registered lint rules" in proc.stderr
