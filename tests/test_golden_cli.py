"""Golden CLI artifacts: ``swmix run`` output must stay byte-identical.

Each scenario runs through the CLI entry point and the sha256 digests of
``report.json``, the task's artifact (``certificate.json`` or, for
``scrambled``, ``envelope.csv``, when the task writes one) and stdout,
together with the exit code, are compared with digests frozen from an earlier
release.  A refactor of the interval kernel, the point kernel or the search
that changes any witness, refutation, enclosure endpoint, orbit value or
float bit shows up here.

To inspect a mismatch, write ``SCENARIOS[name]`` to a file, run
``swmix run <file> --out <dir>`` on this and on the earlier tree, and diff
the artifacts.
"""

import hashlib
import json
from fractions import Fraction as F

import pytest

from swmix.cli import main
from swmix.core import AffinePiece, PiecewiseAffineMap, SwitchedSystem
from swmix.hitting import hitting_sets
from swmix.intervals import Interval, IntervalSet
from swmix.language import FullShift
from swmix.search import SearchBudget

UNIT = [["0", "1"]]


def _tent(clamp: bool, as_float: bool = False) -> dict:
    """The doubling pair {2x, 2 - 2x} as scenario JSON."""
    s = float if as_float else str
    return {
        "maps": [
            [{"domain": ["-inf", "inf"], "a": s(2), "b": s(0)}],
            [{"domain": ["-inf", "inf"], "a": s(-2), "b": s(2)}],
        ],
        "bounds": [s(0), s(1)],
        "language": {"kind": "full", "m": 2},
        "clamp": clamp,
        "numerics": {"mode": "float" if as_float else "rational"},
    }


# Rotation by 1/3 and the two-piece tent on (0, 1): finite piece domains and
# slopes of both signs.
PIECEWISE = {
    "maps": [
        [
            {"domain": ["0", "2/3"], "a": "1", "b": "1/3"},
            {"domain": ["2/3", "1"], "a": "1", "b": "-2/3"},
        ],
        [
            {"domain": ["0", "1/2"], "a": "2", "b": "0"},
            {"domain": ["1/2", "1"], "a": "-2", "b": "2"},
        ],
    ],
    "bounds": ["0", "1"],
    "language": {"kind": "full", "m": 2},
    "clamp": False,
}


# Rotations by 1/3 and 2/7 as two-piece maps on (0, 1).
ROTATIONS = {
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
    "clamp": False,
}


# Cut points at the integers 0, 1, 2 on the box [0, 2]; the second piece of
# map 0 reaches past the image of the first, so a pull-back through the first
# piece is cut by the domain endpoint 1 and one through the second ties with it.
INT_CUTS = {
    "maps": [
        [
            {"domain": ["0", "1"], "a": "2", "b": "0"},
            {"domain": ["1", "2"], "a": "3", "b": "-2"},
        ],
        [
            {"domain": ["0", "1"], "a": "1", "b": "1"},
            {"domain": ["1", "2"], "a": "-1", "b": "2"},
        ],
    ],
    "bounds": ["0", "2"],
    "language": {"kind": "full", "m": 2},
    "clamp": False,
}


# A tent on two half-lines, and a map written as an explicit piece on
# (1/4, 3/4) plus the two unbounded gaps a fallback of slope 3 fills in
# (scenario JSON lists effective pieces, as system_to_json writes them).
FALLBACK_GAPS = {
    "maps": [
        [
            {"domain": ["-inf", "1/2"], "a": "2", "b": "0"},
            {"domain": ["1/2", "inf"], "a": "-2", "b": "2"},
        ],
        [
            {"domain": ["-inf", "1/4"], "a": "3", "b": "1/4"},
            {"domain": ["1/4", "3/4"], "a": "-2", "b": "3/2"},
            {"domain": ["3/4", "inf"], "a": "3", "b": "-9/4"},
        ],
    ],
    "bounds": ["0", "1"],
    "language": {"kind": "full", "m": 2},
    "clamp": False,
}


# The tent pair and a contracting reflection, all globally affine, where
# neither 0 0 nor 1 1 nor 2 0 may occur.
GLOBAL_FORBIDDEN = {
    "maps": [
        [{"domain": ["-inf", "inf"], "a": "2", "b": "0"}],
        [{"domain": ["-inf", "inf"], "a": "-2", "b": "2"}],
        [{"domain": ["-inf", "inf"], "a": "-1/3", "b": "1/2"}],
    ],
    "bounds": ["0", "1"],
    "language": {"kind": "sft", "m": 3, "forbidden": [[0, 0], [1, 1], [2, 0]]},
    "clamp": False,
}


def _folds(as_float: bool, language: dict) -> dict:
    """A tent of height 6/5 and a map expanding right of 1/3, piecewise on
    half-lines and clamped to [0, 1]; 5/12 lands on the bound 1."""
    s = (lambda v: float(F(v))) if as_float else str
    return {
        "maps": [
            [
                {"domain": ["-inf", s("1/2")], "a": s("12/5"), "b": s("0")},
                {"domain": [s("1/2"), "inf"], "a": s("-12/5"), "b": s("12/5")},
            ],
            [
                {"domain": ["-inf", s("1/3")], "a": s("1/2"), "b": s("1/4")},
                {"domain": [s("1/3"), "inf"], "a": s("3/2"), "b": s("-1/4")},
            ],
        ],
        "bounds": [s("0"), s("1")],
        "language": language,
        "clamp": True,
        "numerics": {"mode": "float" if as_float else "rational"},
    }


def _wm(kind: str, pairs: list) -> dict:
    return {
        "task": "wm-cert",
        "system": _tent(True),
        "params": {"K": UNIT, "Q": UNIT, "pairs": pairs, "kind": kind},
        "budget": {"max_horizon": 12, "max_words": 50_000, "required": 2},
    }


SCENARIOS = {
    "spread": {
        "task": "spread",
        "system": _tent(False),
        "params": {
            "seeds": [[["1/3", "2/3"]], [["1/5", "7/20"]]],
            "K": UNIT,
            "Q": UNIT,
            "eps": "2/5",
            "net_radius": "1/5",
        },
        "budget": {"max_horizon": 12, "max_words": 200_000},
    },
    # Float mode: the rows sweep float sets (step_images, image_of).
    "spread-float": {
        "task": "spread",
        "system": _tent(False, as_float=True),
        "params": {
            "seeds": [[[1 / 3, 2 / 3]], [[0.2, 0.35]]],
            "K": [[0.0, 1.0]],
            "Q": [[0.0, 1.0]],
            "eps": 0.4,
            "net_radius": 0.2,
        },
        "budget": {"max_horizon": 12, "max_words": 200_000},
    },
    # Disjoint seeds: every candidate leaves the row (0, 3) open up to its
    # horizon, well inside the node budget, so the run exits 2 naming it.
    "spread-unrealized": {
        "task": "spread",
        "system": _tent(False),
        "params": {
            "seeds": [[["1/10", "3/10"]], [["3/5", "4/5"]]],
            "K": UNIT,
            "Q": UNIT,
            "eps": "1/3",
            "net_radius": "1/6",
        },
        "budget": {"max_horizon": 12, "max_words": 500_000},
    },
    "hitting": {
        "task": "hitting",
        "system": PIECEWISE,
        "params": {"U": [["0", "1/20"]], "V": [["1/2", "11/20"]]},
        "budget": {"max_horizon": 7, "max_words": 50_000, "required": 2},
    },
    "wm1": _wm(
        "wm1",
        [
            [[["1/10", "3/20"]], [["4/5", "17/20"]]],
            [[["2/5", "9/20"]], [["1/20", "1/10"]]],
        ],
    ),
    # One word must carry both sources at once, so they sit close together.
    "wm2": _wm(
        "wm2",
        [
            [[["1/10", "3/20"]], [["1/5", "1/2"]]],
            [[["3/25", "4/25"]], [["2/5", "3/5"]]],
        ],
    ),
    "hitting-float": {
        "task": "hitting",
        "system": _tent(True, as_float=True),
        "params": {"U": [[0.1, 0.2]], "V": [[0.6, 0.7]]},
        "budget": {"max_horizon": 8, "max_words": 50_000, "required": 2},
    },
    "hitting-budget": {
        "task": "hitting",
        "system": PIECEWISE,
        "params": {"U": [["0", "1/20"]], "V": [["1/2", "11/20"]]},
        "budget": {"max_horizon": 7, "max_words": 40},
    },
    "hitting-int-cuts": {
        "task": "hitting",
        "system": INT_CUTS,
        "params": {"U": [["1/2", "3/2"]], "V": [["3/4", "11/4"]]},
        "budget": {"max_horizon": 6, "max_words": 20_000, "required": 2},
    },
    # Unbounded K and Q: the real line and a half-line meet the pairs.
    "wm1-fallback-gaps": {
        "task": "wm-cert",
        "system": FALLBACK_GAPS,
        "params": {
            "K": [["-inf", "inf"]],
            "Q": [["0", "inf"]],
            "pairs": [
                [[["1/10", "3/20"]], [["4/5", "17/20"]]],
                [[["2/5", "9/20"]], [["-1/2", "1/10"]]],
            ],
            "kind": "wm1",
        },
        "budget": {"max_horizon": 10, "max_words": 50_000, "required": 2},
    },
    # Point-orbit tasks: orbits are stepped on the exact form's integer pairs.
    "xiong-type2": {
        "task": "xiong",
        "system": ROTATIONS,
        "params": {
            "kind": "type2",
            "points": ["1/10", "3/10"],
            "targets": ["1/2", "7/10"],
            "tolerances": ["1/5", "1/10", "1/20", "1/40"],
        },
        "budget": {"max_horizon": 14, "max_words": 100_000},
    },
    "xiong-type1": {
        "task": "xiong",
        "system": PIECEWISE,
        "params": {
            "kind": "type1",
            "points": ["1/7", "2/7"],
            "targets": ["3/5", "1/5"],
            "tolerances": ["1/4", "1/8", "1/16"],
        },
        "budget": {"max_horizon": 12, "max_words": 100_000},
    },
    "scrambled-type2": {
        "task": "scrambled",
        "system": PIECEWISE,
        "params": {"kind": "type2", "x": "1/7", "y": "1/5", "horizon": 8},
        "budget": {"max_words": 100_000},
    },
    "scrambled-type1": {
        "task": "scrambled",
        "system": PIECEWISE,
        "params": {"kind": "type1", "x": "1/7", "y": "1/5", "horizon": 6},
        "budget": {"max_words": 100_000},
    },
    "scrambled-clamped-forbidden": {
        "task": "scrambled",
        "system": _folds(False, {"kind": "sft", "m": 2, "forbidden": [[1, 1]]}),
        "params": {
            "kind": "type1",
            "x": "5/12",
            "y": "2/5",
            "horizon": 8,
            "eps_prox": "1/100",
            "eps_div": "3/5",
        },
        "budget": {"max_words": 100_000},
    },
    "scrambled-float": {
        "task": "scrambled",
        "system": _folds(True, {"kind": "full", "m": 2}),
        "params": {"kind": "type2", "x": 5 / 12, "y": 0.4, "horizon": 8},
        "budget": {"max_words": 100_000},
    },
    # Type 2 on globally affine maps without a clamp: the orbit difference of
    # the pair moves on its own, every row is 2^n * |y - x| on the tent.
    "scrambled-global": {
        "task": "scrambled",
        "system": _tent(False),
        "params": {"kind": "type2", "x": "1/7", "y": "1/5", "horizon": 10},
        "budget": {"max_words": 100_000},
    },
    # Float mode steps the point pair itself, so each row holds the extremes
    # of the float-rounded orbits (409.5999999999999 and 409.60000000000014
    # at length 12), which verify_envelope recomputes.
    "scrambled-global-float": {
        "task": "scrambled",
        "system": _tent(False, as_float=True),
        "params": {"kind": "type2", "x": 0.1, "y": 0.2, "horizon": 12},
        "budget": {"max_words": 100_000},
    },
    # Three global maps under forbidden factors; the 40-node budget runs out
    # below the horizon, so the envelope is truncated.
    "scrambled-global-forbidden": {
        "task": "scrambled",
        "system": GLOBAL_FORBIDDEN,
        "params": {
            "kind": "type2",
            "x": "1/7",
            "y": "1/5",
            "horizon": 10,
            "eps_prox": "1/20",
            "eps_div": "3",
        },
        "budget": {"max_words": 40},
    },
}

# scenario -> (exit code, report.json, artifact or None, stdout)
GOLDEN = {
    "hitting": (
        0,
        "8930657f4ff1580282d6b7259eea20f2e9dd713115d89707d711d1b4a82f7dea",
        None,
        "8930657f4ff1580282d6b7259eea20f2e9dd713115d89707d711d1b4a82f7dea",
    ),
    # The 40-node budget runs out after lengths 3 and 4 are decided: exit 2.
    "hitting-budget": (
        2,
        "737771f7d6fde2234e6aca3c7cbe08cd68aa61430e1fad5e6b883bec21fbf278",
        None,
        "737771f7d6fde2234e6aca3c7cbe08cd68aa61430e1fad5e6b883bec21fbf278",
    ),
    "hitting-int-cuts": (
        0,
        "d9b49d122577443c9a10b931886a8c14d406329320c3cfb5eaa9d6bcef45bd74",
        None,
        "d9b49d122577443c9a10b931886a8c14d406329320c3cfb5eaa9d6bcef45bd74",
    ),
    "hitting-float": (
        0,
        "72b17c4d261440c69dea78ae57399365f004181270cb0b794c83b1358486378b",
        None,
        "72b17c4d261440c69dea78ae57399365f004181270cb0b794c83b1358486378b",
    ),
    "spread": (
        0,
        "7ed989986d2391cf5c48be33839b7bd5e3d9435e58aef81c2fa66e38fbfb6bbd",
        "1a533fd6e98f124eb6abdf2bddb99c212bc32d3b1a5209106b9c24c3c31ca172",
        "7ed989986d2391cf5c48be33839b7bd5e3d9435e58aef81c2fa66e38fbfb6bbd",
    ),
    "spread-float": (
        0,
        "5621c0ac4db0d23404a9886de29200adcc12a023bcb0bb14466f61e78a5ee845",
        "22b2e326a07775e4aaef0976763dd4477edbe7cfbcec49b2dcd9b147c6d49694",
        "5621c0ac4db0d23404a9886de29200adcc12a023bcb0bb14466f61e78a5ee845",
    ),
    # BudgetExceeded naming the first unrealized row: exit 2, no artifact.
    "spread-unrealized": (
        2,
        "33b01dd158cd8beb7b56073f497c68b833a35b8fa847794b15bd33a7827bef99",
        None,
        "33b01dd158cd8beb7b56073f497c68b833a35b8fa847794b15bd33a7827bef99",
    ),
    "wm1": (
        0,
        "520bfcdc56f018b98379b78e267823f656879759f3d654153d35381563e6d47a",
        "0010ade8544e7681fa55fa34b9e06f16269e8da4a4d7f038a7707969f68d5110",
        "520bfcdc56f018b98379b78e267823f656879759f3d654153d35381563e6d47a",
    ),
    "wm2": (
        0,
        "403e63695cfadaff53f9dc0f1d912240d633d4ba35626e8aa4f413e7c86953ac",
        "739fd9f393f5ed49fec52db4d60ae13fe3cbba8332d8a395a1ecfc45564a5919",
        "403e63695cfadaff53f9dc0f1d912240d633d4ba35626e8aa4f413e7c86953ac",
    ),
    "scrambled-clamped-forbidden": (
        0,
        "df5947bac8c421e88ff9ee2bb7e43c1ea2c26b556f0b259e84f93ca6c406f49d",
        "84cd808a13b654bef4a3cd5556d48e5d774c2f61addb406001fe946c0d104f96",
        "df5947bac8c421e88ff9ee2bb7e43c1ea2c26b556f0b259e84f93ca6c406f49d",
    ),
    "scrambled-float": (
        0,
        "89cbde93527cc811c8470bf6b3a9bfcaf5ecdc1a06c20083286c3452f7388481",
        "1c25a39069d5f07afa88f846ab41d180d47bfda7b6cf0f23f8878fe399d76811",
        "89cbde93527cc811c8470bf6b3a9bfcaf5ecdc1a06c20083286c3452f7388481",
    ),
    "scrambled-type1": (
        0,
        "f7a0955f9da4a9ea28a05e94a1eff338e59d55e4d459d8dc6e115e968ba75ab7",
        "6abe928c3f22bf158bbde4102fcd3a98abdc7fc7701362cee390b41f9c7c82e9",
        "f7a0955f9da4a9ea28a05e94a1eff338e59d55e4d459d8dc6e115e968ba75ab7",
    ),
    "scrambled-type2": (
        0,
        "eb2eb3e7d75d9150649bcff18098e474b05ec1eb1bd07fc309d51f8ccea5dd35",
        "a829a74fbd193ce49043118c7b60d55890b48b5348bb8963f7737a2c05091418",
        "eb2eb3e7d75d9150649bcff18098e474b05ec1eb1bd07fc309d51f8ccea5dd35",
    ),
    "scrambled-global": (
        0,
        "c8732ea9e6164d24597c7f1171142a95383a7ed8297237d4b570185652543733",
        "490efaecfd2401576d9c21cf12f0868f71c8644be37dee6ae54c02c0653a78a3",
        "c8732ea9e6164d24597c7f1171142a95383a7ed8297237d4b570185652543733",
    ),
    "scrambled-global-float": (
        0,
        "d311631f7c336635df467b6be837a1d3bc93f52ce2696a01e00a94cb3e16e028",
        "88e40f1d97bcb9d0c3baa2d88abfab12ae02dd0a1c6945c0962ad9bd5b6ac92c",
        "d311631f7c336635df467b6be837a1d3bc93f52ce2696a01e00a94cb3e16e028",
    ),
    # The budget runs out during length 4: three rows, truncated, exit 2.
    "scrambled-global-forbidden": (
        2,
        "0d4263c379752da46091533005911b44026cdbcd742143bc74417cc200bde917",
        "dd83946611d3e945a3527882bcc02c50a91cfd180fbb22d772fedd81a32e1721",
        "0d4263c379752da46091533005911b44026cdbcd742143bc74417cc200bde917",
    ),
    "wm1-fallback-gaps": (
        0,
        "08c309ce4a7716654e5baed9382057ad3a1bef03022905770430337bbc0d85c4",
        "e7db653a41bd5c377cf5b66094e8d230169f07198b3282c2f683e7b8f7ec0eed",
        "08c309ce4a7716654e5baed9382057ad3a1bef03022905770430337bbc0d85c4",
    ),
    "xiong-type1": (
        0,
        "e0246579c1771ec72453b3b152cec2b458d0087c0a4d6d7adccd620718e67eb1",
        "3ef03b60925498a179c20d5c18347618360a68117863e7650126b03cf6b76b1e",
        "e0246579c1771ec72453b3b152cec2b458d0087c0a4d6d7adccd620718e67eb1",
    ),
    "xiong-type2": (
        0,
        "22178641455cf93ac0d323422d164a0f782e23e8e85f76668428d105af9f5214",
        "4985a83fc44004f2c17a2cc46c713282b8a7d96e1c95ead39772f904999fb250",
        "22178641455cf93ac0d323422d164a0f782e23e8e85f76668428d105af9f5214",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_golden(name: str, tmp_path, capsys) -> tuple:
    scn = tmp_path / f"{name}.json"
    scn.write_text(json.dumps(SCENARIOS[name]))
    out = tmp_path / name
    code = main(["run", str(scn), "--out", str(out)])
    stdout = capsys.readouterr().out
    artifact = next(
        (p for p in (out / "certificate.json", out / "envelope.csv") if p.exists()),
        None,
    )
    return (
        code,
        _sha((out / "report.json").read_bytes()),
        _sha(artifact.read_bytes()) if artifact is not None else None,
        _sha(stdout.encode("utf-8")),
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_cli_artifacts_match_golden_digests(name, tmp_path, capsys):
    assert run_golden(name, tmp_path, capsys) == GOLDEN[name]


def test_int_cut_points_pull_back_to_fractions():
    """``hitting-int-cuts`` with ``int`` domain endpoints.

    Scenario JSON reads numbers as floats and strings as Fractions, so int
    endpoints only come from Python.  The report's repr shows endpoint types:
    a pull-back cut by a domain endpoint holds its value as a Fraction, as
    does one that ties with it.
    """

    def pieces(*rows):
        return PiecewiseAffineMap(
            pieces=tuple(
                AffinePiece(Interval(lo, hi), F(a), F(b)) for lo, hi, a, b in rows
            )
        )

    system = SwitchedSystem(
        maps=(
            pieces((0, 1, 2, 0), (1, 2, 3, -2)),
            pieces((0, 1, 1, 1), (1, 2, -1, 2)),
        ),
        language=FullShift(2),
        bounds=Interval(0, 2),
    )
    report = hitting_sets(
        system,
        IntervalSet.of(F(1, 2), F(3, 2)),
        IntervalSet.of(F(3, 4), F(11, 4)),
        SearchBudget(max_horizon=6, max_words=20_000, required=2),
    )
    first, second = (w.source.components[0] for w in report.witnesses[:2])
    assert (first.hi, type(first.hi)) == (F(1), F)
    assert (second.lo, type(second.lo)) == (F(1), F)
    assert (
        _sha(repr(report).encode("utf-8"))
        == "3fb780fcce89c8583cdc077be7394311210784e472b8777d891d36c71abdda6a"
    )


# INT_CUTS with its domain ends and bounds written as JSON numbers, which
# rational mode reads at their exact values.  Every computed end is a Fraction,
# so every witness end prints as a fraction string, the domain end 1 that cuts
# the first witness's source included (it printed as the JSON float 1.0 when
# pull-backs passed a domain end's own object through).
INT_CUTS_NUMBERS = {
    **INT_CUTS,
    "maps": [
        [{**piece, "domain": [int(F(e)) for e in piece["domain"]]} for piece in pieces]
        for pieces in INT_CUTS["maps"]
    ],
    "bounds": [0, 2],
}


def test_json_number_ends_print_witness_sources_as_fractions(tmp_path, capsys):
    pair = [[["1/2", "3/2"]], [["3/4", "11/4"]]]
    hitting = {
        "task": "hitting",
        "system": INT_CUTS_NUMBERS,
        "params": {"U": pair[0], "V": pair[1]},
        "budget": {"max_horizon": 3, "required": 2},
    }
    wm = {
        "task": "wm-cert",
        "system": INT_CUTS_NUMBERS,
        "params": {"K": [["0", "2"]], "Q": [["0", "2"]], "pairs": [pair], "kind": "wm1"},
        "budget": {"max_horizon": 3, "required": 2},
    }
    sources = []
    for name, scn in (("hitting", hitting), ("wm", wm)):
        (tmp_path / f"{name}.json").write_text(json.dumps(scn))
        assert main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)]) == 0
        report = json.loads(capsys.readouterr().out)
        witnesses = report["type2"] if name == "hitting" else report["certificate"]["witnesses"]
        sources += [w["source"] for w in witnesses]
    assert sources[0] == ["1/2", "1"] and len(sources) == 8
    assert all(type(end) is str for source in sources for end in source)
    assert main(["verify", str(tmp_path / "wm" / "certificate.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "wm", "verified": True}
