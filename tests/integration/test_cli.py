"""Integration tests for the CLI (invoked in-process)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "repro" in capsys.readouterr().out


def test_partition_command(capsys):
    code = main([
        "partition", "--graph", "clustered", "--vertices", "180",
        "--servers", "4", "--algorithms", "alg1", "streaming",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "random placement" in out
    assert "alg1" in out
    assert "streaming" in out


def test_partition_powerlaw_and_random_graphs(capsys):
    for graph in ("powerlaw", "random"):
        code = main([
            "partition", "--graph", graph, "--vertices", "150",
            "--servers", "3", "--algorithms", "multilevel",
        ])
        assert code == 0
    out = capsys.readouterr().out
    assert "multilevel" in out


def test_heartbeat_command(capsys):
    code = main(["heartbeat", "--rate", "4000", "--monitors", "100"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ActOp model-based" in out
    assert "median ms" in out


def test_halo_command_small(capsys):
    code = main([
        "halo", "--players", "200", "--servers", "4", "--load", "0.5",
        "--duration", "20", "--no-baseline",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ActOp" in out
    assert "migrations" in out


def test_perf_command_smoke(capsys, tmp_path):
    import json

    out_path = tmp_path / "perf.json"
    code = main([
        "perf", "--points", "2000", "--horizon", "3",
        "--json", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "2,000" in out and "peak RSS" in out and "on/off" in out
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == 3 and doc["kind"] == "scaling"
    (point,) = doc["points"]
    assert point["actors"] == 2000
    for mode in ("off", "on"):
        run = point[mode]
        assert run["events"] > 0 and run["peak_rss_bytes"] > 0
        assert [s["until_sim_s"] for s in run["slices"]] == [2.0, 3.0]
        assert run["failed"] == run["lost"] == 0
    assert point["off"]["slices"][-1]["migrations"] == 0
    assert point["on"]["slices"][-1]["migrations"] > 0


def test_faults_command_recovers_and_writes_json(capsys, tmp_path):
    import json

    out_path = tmp_path / "chaos.json"
    code = main([
        "faults", "--players", "300", "--servers", "4",
        "--warmup", "10", "--duration", "10", "--settle", "5",
        "--kill", "1@2", "--recover", "1@8",
        "--json", str(out_path),
    ])
    assert code == 0
    summary = json.loads(out_path.read_text())
    assert summary["schema"] == 1 and summary["recovered"] is True
    assert summary["faults_started"] == 2
    assert set(summary["windows"]) == {"pre", "fault", "post"}
    assert summary["windows"]["fault"]["failovers"] > 0
    for window in summary["windows"].values():
        assert window["requests"] > 0
    out = capsys.readouterr().out
    assert "post-recovery" in out and "recovered" in out


def test_faults_command_pure_json_stdout(capsys, tmp_path):
    import json

    code = main([
        "faults", "--players", "200", "--servers", "3",
        "--warmup", "8", "--duration", "8", "--settle", "4",
        "--kill", "1@2", "--recover", "1@5", "--json", "-",
    ])
    captured = capsys.readouterr()
    summary = json.loads(captured.out)  # stdout is pure JSON, parse as-is
    assert summary["schema"] == 1
    assert "remote fraction" in captured.err  # the table moved to stderr
    assert code == (0 if summary["recovered"] else 1)


def test_faults_command_exit_one_without_recovery(capsys):
    # Kill one of two silos and never restart it: the surviving silo
    # hosts everything, the remote fraction collapses, no recovery.
    code = main([
        "faults", "--players", "200", "--servers", "2",
        "--warmup", "8", "--duration", "8", "--settle", "4",
        "--kill", "1@2",
    ])
    assert code == 1
    assert "did not re-converge" in capsys.readouterr().err
