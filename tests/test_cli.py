"""Command-line driver: exit codes, artifacts, and byte-level determinism."""

import json

import pytest

from swmix.cli import main
from swmix.demo import tent_system
from swmix.serialization import system_to_json

TENT_JSON = system_to_json(tent_system())
CLAMPED_JSON = system_to_json(tent_system(clamp=True))


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def spread_scenario(**overrides):
    scenario = {
        "task": "spread",
        "system": TENT_JSON,
        "params": {
            "seeds": [[["1/3", "2/3"]]],
            "K": [["0", "1"]],
            "Q": [["0", "1"]],
            "eps": "1/3",
            "net_radius": "1/6",
        },
        "budget": {"max_horizon": 12, "max_words": 2_000_000},
    }
    scenario.update(overrides)
    return scenario


def test_run_spread_scenario(tmp_path, capsys):
    scn = write(tmp_path / "scn.json", spread_scenario())
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert report["rows"] == 4
    assert report["verified"] is True
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "certificate.json").exists()


def test_run_is_byte_deterministic(tmp_path, capsys):
    scn = write(tmp_path / "scn.json", spread_scenario())
    for d in ("a", "b"):
        code, _ = run_cli(["run", scn, "--out", str(tmp_path / d)], capsys)
        assert code == 0
    for name in ("report.json", "certificate.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_verify_round_trip(tmp_path, capsys):
    scn = write(tmp_path / "scn.json", spread_scenario())
    run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    cert = str(tmp_path / "out" / "certificate.json")
    code, report = run_cli(["verify", cert], capsys)
    assert code == 0
    assert report == {"kind": "spread", "verified": True}


def test_verify_rejects_broken_certificate(tmp_path, capsys):
    scn = write(tmp_path / "scn.json", spread_scenario())
    run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    doc = json.loads((tmp_path / "out" / "certificate.json").read_text())
    row = doc["certificate"]["rows"][0]
    row["word"] = row["word"][:-1]  # truncate one stage word
    broken = write(tmp_path / "broken.json", doc)
    code, report = run_cli(["verify", broken], capsys)
    assert code == 1
    assert report["verified"] is False


def test_budget_exhaustion_exits_2(tmp_path, capsys):
    scn = write(
        tmp_path / "scn.json",
        spread_scenario(
            params={
                "seeds": [[["1/4", "3/4"]], [["3/8", "5/8"]]],
                "K": [["0", "1"]],
                "Q": [["0", "1"]],
                "eps": "1/5",
                "net_radius": "1/6",
            },
            budget={"max_horizon": 10, "max_words": 20_000},
        ),
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert "error" in report


def test_validation_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_cli(["run", str(bad), "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and "error" in report

    scn = write(tmp_path / "scn.json", {"task": "no-such-task"})
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and "error" in report

    missing = str(tmp_path / "missing.json")
    code, report = run_cli(["run", missing, "--out", str(tmp_path / "out")], capsys)
    assert code == 1 and "error" in report


def test_malformed_budget_exits_1(tmp_path, capsys):
    for budget in (
        {"max_horizon": 3.5},
        {"max_horizon": True},
        {"max_seconds": "5"},
        {"required": 2.5},
    ):
        scn = write(tmp_path / "scn.json", spread_scenario(budget=budget))
        code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
        assert code == 1, budget
        assert report["error"]["type"] == "ScenarioError"
        assert report["error"]["message"].startswith("bad budget: ")


def test_orbit_task_frozen_values(tmp_path, capsys):
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "orbit",
            "system": TENT_JSON,
            "params": {"word": [0, 1], "x": "3/10", "source": [["0", "1/10"]]},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert report["value"] == "4/5"
    # (0, 1/10) doubles to (0, 1/5), then flips to (8/5, 2).
    assert report["image"] == [["8/5", "2"]]


def test_prelang_task_counts(tmp_path, capsys):
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "prelang",
            "system": {
                "maps": TENT_JSON["maps"],
                "bounds": TENT_JSON["bounds"],
                "language": {"kind": "sft", "m": 2, "forbidden": [[1, 1]]},
                "clamp": False,
            },
            "params": {"max_len": 5, "list_len": 3},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert report["counts"] == [2, 3, 5, 8, 13]
    assert report["words"] == ["000", "001", "010", "100", "101"]
    assert (tmp_path / "out" / "counts.csv").read_text().startswith("length,count\n")


def test_hitting_task(tmp_path, capsys):
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "hitting",
            "system": CLAMPED_JSON,
            "params": {"U": [["0", "1/10"]], "V": [["9/10", "1"]]},
            "budget": {"max_horizon": 4},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert report["type1"] == [4]


def test_tent_demo_subcommand(tmp_path, capsys):
    code, report = run_cli(
        [
            "tent-demo",
            "--samples", "20",
            "--trials", "3",
            "--horizon", "25",
            "--out", str(tmp_path / "out"),
        ],
        capsys,
    )
    assert code == 0
    assert report["ok"] is True
    assert (tmp_path / "out" / "report.json").exists()


def test_verify_unknown_kind_exits_1(tmp_path, capsys):
    doc = {"kind": "mystery", "system": TENT_JSON, "certificate": {}}
    path = write(tmp_path / "cert.json", doc)
    code, report = run_cli(["verify", path], capsys)
    assert code == 1 and "error" in report
