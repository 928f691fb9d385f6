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


def test_verify_rejects_forged_xiong_language(tmp_path, capsys):
    rotations = {
        "maps": [
            [
                {"domain": ["0", "2/3"], "a": "1", "b": "1/3"},
                {"domain": ["2/3", "1"], "a": "1", "b": "-2/3"},
            ],
            [
                {"domain": ["0", "5/7"], "a": "1", "b": "2/7"},
                {"domain": ["5/7", "1"], "a": "1", "b": "-5/7"},
            ],
        ],
        "bounds": ["0", "1"],
        "language": {"kind": "full", "m": 2},
    }
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "xiong",
            "system": rotations,
            "params": {
                "points": ["1/10"],
                "targets": ["1/2"],
                "tolerances": ["1/5", "1/10"],
            },
            "budget": {"max_horizon": 8},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 0 and report["verified"] is True
    doc = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert any(0 in w for st in doc["certificate"]["stages"] for w in st["words"])
    # The same witness claimed for a language without symbol 0.
    doc["system"]["language"] = {"kind": "sft", "m": 2, "forbidden": [[0]]}
    forged = write(tmp_path / "forged.json", doc)
    code, report = run_cli(["verify", forged], capsys)
    assert code == 1
    assert report == {"kind": "xiong", "verified": False}


@pytest.mark.parametrize("tolerance", ["inf", float("nan")])
def test_xiong_rejects_a_non_finite_tolerance(tmp_path, capsys, tolerance):
    # json.dumps writes the float NaN as the bare token NaN, which the
    # scenario loader reads back as a float.
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "xiong",
            "system": CLAMPED_JSON,
            "params": {"points": ["2/5"], "targets": ["4/5"], "tolerances": [tolerance]},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert "finite" in report["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["inf", float("nan")])
def test_xiong_rejects_a_non_finite_target(tmp_path, capsys, target):
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "xiong",
            "system": CLAMPED_JSON,
            "params": {"points": ["2/5"], "targets": [target], "tolerances": ["1/2"]},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert "targets must be finite" in report["error"]["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("x", ["inf", float("nan")])
def test_scrambled_rejects_a_non_finite_point(tmp_path, capsys, x):
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "scrambled",
            "system": TENT_JSON,
            "params": {"x": x, "y": "1/2", "horizon": 6},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert "points must be finite" in report["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_wm_cert_budget_exhaustion_writes_the_partial_certificate(tmp_path, capsys):
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "wm-cert",
            "system": CLAMPED_JSON,
            "params": {
                "K": [["0", "1"]],
                "Q": [["0", "1"]],
                "pairs": [
                    [[["0", "1/4"]], [["7/10", "4/5"]]],
                    [[["1/8", "3/8"]], [["2/5", "3/5"]]],
                ],
                "kind": "wm1",
            },
            "budget": {"max_horizon": 12, "max_words": 10, "required": 2},
        },
    )
    out = tmp_path / "out"
    code, report = run_cli(["run", scn, "--out", str(out)], capsys)
    assert code == 2
    assert report["error"]["message"] == "node budget exhausted at length 3"
    assert report["partial_certificate"] == "certificate.json"
    cert = json.loads((out / "certificate.json").read_text())["certificate"]
    assert cert["S"] == [2] and cert["exhausted"] is False
    assert json.loads((out / "report.json").read_text()) == report


@pytest.mark.parametrize("kind, word", [("wm1", [1]), ("wm2", [1]), ("wm2", [1, 1])])
def test_verify_rejects_an_extra_false_wm_witness(tmp_path, capsys, kind, word):
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "wm-cert",
            "system": CLAMPED_JSON,
            "params": {
                "K": [["0", "1"]],
                "Q": [["0", "1"]],
                "pairs": [
                    [[["0", "1/4"]], [["7/10", "4/5"]]],
                    [[["1/8", "3/8"]], [["2/5", "3/5"]]],
                ],
                "kind": kind,
            },
            "budget": {"max_horizon": 12, "required": 2},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 0 and report["verified"] is True
    doc = json.loads((tmp_path / "out" / "certificate.json").read_text())
    # A witness of a length outside S, or of length 2 with a word other
    # than the shared word 00; neither hits pair 0.
    doc["certificate"]["witnesses"].append(
        {"word": word, "kind": "set", "pair": 0, "source": ["0", "1/4"]}
    )
    tampered = write(tmp_path / "tampered.json", doc)
    code, report = run_cli(["verify", tampered], capsys)
    assert code == 1
    assert report == {"kind": "wm", "verified": False}


def _fractional_s(cert):
    # int() would read these back as the certificate's own lengths.
    first, second = cert["S"]
    cert["S"] = [first + 0.9, str(second)]


def _float_stage_length(cert):
    stage = cert["stages"][0]
    stage["length"] = float(stage["length"])


@pytest.mark.parametrize(
    "task, tamper",
    [("wm-cert", _fractional_s), ("xiong", _float_stage_length)],
    ids=["wm1-S", "xiong-stage-length"],
)
def test_verify_rejects_non_integer_lengths(tmp_path, capsys, task, tamper):
    params = {
        "wm-cert": {
            "K": [["0", "1"]],
            "Q": [["0", "1"]],
            "pairs": [
                [[["0", "1/4"]], [["7/10", "4/5"]]],
                [[["1/8", "3/8"]], [["2/5", "3/5"]]],
            ],
            "kind": "wm1",
        },
        "xiong": {"points": ["2/5"], "targets": ["4/5"], "tolerances": ["1/2", "1/4"]},
    }[task]
    scn = write(
        tmp_path / "scn.json",
        {
            "task": task,
            "system": CLAMPED_JSON,
            "params": params,
            "budget": {"max_horizon": 12, "required": 2},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 0 and report["verified"] is True
    doc = json.loads((tmp_path / "out" / "certificate.json").read_text())
    tamper(doc["certificate"])
    tampered = write(tmp_path / "tampered.json", doc)
    code, report = run_cli(["verify", tampered], capsys)
    assert code == 1
    assert "must be an integer" in report["error"]["message"]


@pytest.mark.parametrize("threshold", ["eps_prox", "eps_div"])
def test_scrambled_rejects_a_nan_threshold(tmp_path, capsys, threshold):
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "scrambled",
            "system": TENT_JSON,
            "params": {"x": "1/8", "y": "1/2", "horizon": 6, threshold: float("nan")},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert report["error"]["type"] == "ValueError"
    assert "thresholds must be finite" in report["error"]["message"]
    assert not (tmp_path / "out").exists()


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

    scn = write(tmp_path / "scn.json", {"task": ["spread"], "system": TENT_JSON})
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert report["error"] == {
        "type": "ScenarioError",
        "message": "unknown task ['spread']",
    }

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


def test_float_hitting_with_an_unbounded_overlap_exits_2(tmp_path, capsys):
    # The overlap (0, inf) of 2x's image with V cannot be shrunk inward, so
    # the float enclosure hit does not certify and the lengths stay undecided.
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "hitting",
            "system": {
                "maps": [[{"domain": ["-inf", "inf"], "a": 2.0, "b": 0.0}]],
                "bounds": [0.0, 1.0],
                "language": {"kind": "full", "m": 1},
                "numerics": {"mode": "float"},
            },
            "params": {"U": [["-inf", "inf"]], "V": [[0.0, "inf"]]},
            "budget": {"max_horizon": 2},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert report["exhausted"] is False and report["type1"] == []


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


def test_tent_demo_subcommand_runs_the_tent_demo_task(tmp_path, capsys):
    flags = ["--samples", "5", "--trials", "2", "--horizon", "10"]
    code, report = run_cli(["tent-demo", *flags, "--out", str(tmp_path / "a")], capsys)
    assert code == 0
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "tent-demo",
            "params": {"samples": 5, "wm_trials": 2, "wm_horizon": 10},
        },
    )
    code, task_report = run_cli(["run", scn, "--out", str(tmp_path / "b")], capsys)
    assert code == 0
    for key in ("task", "budget"):
        del task_report[key]
    assert report == task_report
    assert report["weak_mixing_batch"]["horizon"] == 10


@pytest.mark.parametrize(
    "flags, param",
    [
        (["--horizon", "0"], "wm_horizon"),
        (["--trials", "0"], "wm_trials"),
        (["--samples", "-1"], "samples"),
    ],
)
def test_tent_demo_flags_get_the_task_checks(tmp_path, capsys, flags, param):
    out = str(tmp_path / "out")
    code, report = run_cli(["tent-demo", *flags, "--out", out], capsys)
    assert code == 1
    assert report["error"] == {
        "type": "ScenarioError",
        "message": f"task parameter {param!r} must be >= 1",
    }
    assert not (tmp_path / "out").exists()


def xiong_params(**overrides):
    params = {"points": ["2/5"], "targets": ["4/5"], "tolerances": ["1/2"]}
    params.update(overrides)
    return params


@pytest.mark.parametrize(
    "task, params, key",
    [
        ("xiong", xiong_params(points=5), "points"),
        ("xiong", xiong_params(targets="4/5"), "targets"),
        ("xiong", xiong_params(tolerances=[]), "tolerances"),
        ("spread", dict(spread_scenario()["params"], seeds=3), "seeds"),
        ("spread", dict(spread_scenario()["params"], seeds=[]), "seeds"),
    ],
)
def test_list_params_must_be_non_empty_lists(tmp_path, capsys, task, params, key):
    scn = write(
        tmp_path / "scn.json", {"task": task, "system": CLAMPED_JSON, "params": params}
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert report["error"] == {
        "type": "ScenarioError",
        "message": f"task parameter {key!r} must be a non-empty list",
    }
    assert not (tmp_path / "out").exists()


def test_verify_fails_a_xiong_witness_without_stages(tmp_path, capsys):
    # No word of length <= 3 takes 1/3 within 1/100000 of 1/7.
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "xiong",
            "system": CLAMPED_JSON,
            "params": xiong_params(
                points=["1/3"], targets=["1/7"], tolerances=["1/100000"]
            ),
            "budget": {"max_horizon": 3},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 2 and report["verified"] is False
    assert report["witness"]["stages"] == []
    cert = str(tmp_path / "out" / "certificate.json")
    code, report = run_cli(["verify", cert], capsys)
    assert code == 1
    assert report == {"kind": "xiong", "verified": False}


def test_verify_fails_an_incomplete_xiong_witness_as_run_does(tmp_path, capsys):
    # The horizon stops the search after the first tolerance: word 0 takes
    # 1/3 to 2/3, within 1/5 of 3/5, but no word of length <= 3 comes within
    # 1/100000.  The one stage replays, yet the witness is incomplete.
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "xiong",
            "system": CLAMPED_JSON,
            "params": xiong_params(
                points=["1/3"], targets=["3/5"], tolerances=["1/5", "1/100000"]
            ),
            "budget": {"max_horizon": 3},
        },
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 2 and report["verified"] is False
    assert report["witness"]["complete"] is False
    stages = report["witness"]["stages"]
    assert [(s["words"], s["errors"]) for s in stages] == [([[0]], ["1/15"])]
    cert = str(tmp_path / "out" / "certificate.json")
    code, report = run_cli(["verify", cert], capsys)
    assert code == 1
    assert report == {"kind": "xiong", "verified": False}


@pytest.mark.parametrize("complete", ["false", "no"])
def test_verify_rejects_a_xiong_witness_whose_complete_is_not_a_boolean(
    tmp_path, capsys, complete
):
    # The incomplete witness of the test above, with "complete" as a string.
    scn = write(
        tmp_path / "scn.json",
        {
            "task": "xiong",
            "system": CLAMPED_JSON,
            "params": xiong_params(
                points=["1/3"], targets=["3/5"], tolerances=["1/5", "1/100000"]
            ),
            "budget": {"max_horizon": 3},
        },
    )
    run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    doc = json.loads((tmp_path / "out" / "certificate.json").read_text())
    doc["certificate"]["complete"] = complete
    code, report = run_cli(["verify", write(tmp_path / "tampered.json", doc)], capsys)
    assert code == 1
    assert report["error"]["type"] == "ScenarioError"
    assert "complete must be true or false" in report["error"]["message"]


def test_run_rejects_a_clamp_flag_that_is_not_a_boolean(tmp_path, capsys):
    scn = write(tmp_path / "scn.json", spread_scenario(system={**TENT_JSON, "clamp": "false"}))
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert report["error"] == {
        "type": "ScenarioError",
        "message": "clamp must be true or false, got 'false'",
    }
    assert not (tmp_path / "out").exists()


def test_scrambled_reports_the_library_defaults(tmp_path, capsys):
    # Without "horizon" and "k" the task reports the defaults of
    # distance_envelope and scrambled_verdict, read from their results.
    scn = write(
        tmp_path / "scn.json",
        {"task": "scrambled", "system": CLAMPED_JSON, "params": {"x": "1/3", "y": "2/5"}},
    )
    code, report = run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert report["horizon"] == 10
    assert report["verdict"]["k"] == 3


def test_verify_fails_a_spread_certificate_without_centers(tmp_path, capsys):
    scn = write(tmp_path / "scn.json", spread_scenario())
    run_cli(["run", scn, "--out", str(tmp_path / "out")], capsys)
    doc = json.loads((tmp_path / "out" / "certificate.json").read_text())
    # Zero centers need m**0 = 1 row, with the empty assignment.
    cert = doc["certificate"]
    cert["centers"] = []
    cert["rows"] = [{"alpha": [], "word": cert["rows"][0]["word"]}]
    code, report = run_cli(["verify", write(tmp_path / "empty.json", doc)], capsys)
    assert code == 1
    assert report == {"kind": "spread", "verified": False}


def test_verify_unknown_kind_exits_1(tmp_path, capsys):
    doc = {"kind": "mystery", "system": TENT_JSON, "certificate": {}}
    path = write(tmp_path / "cert.json", doc)
    code, report = run_cli(["verify", path], capsys)
    assert code == 1 and "error" in report
    # A list is no kind either, and cannot be looked up as one.
    doc["kind"] = ["wm"]
    code, report = run_cli(["verify", write(tmp_path / "cert.json", doc)], capsys)
    assert code == 1
    assert report["error"] == {
        "type": "ScenarioError",
        "message": "unknown certificate kind ['wm']",
    }
