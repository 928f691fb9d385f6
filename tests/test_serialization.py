"""JSON round trips: every emitted document parses back to an equal object."""

import json
from fractions import Fraction as F

import pytest

from swmix.core import Numerics
from swmix.demo import tent_system
from swmix.errors import ScenarioError
from swmix.hitting import hitting_sets, wm_certificate
from swmix.intervals import Interval, IntervalSet
from swmix.language import Dfa, ForbiddenWords, FullShift
from swmix.search import SearchBudget
from swmix.serialization import (
    budget_from_json,
    budget_to_json,
    dumps,
    envelope_to_csv,
    hitting_report_to_json,
    interval_set_from_json,
    interval_set_to_json,
    language_from_json,
    language_to_json,
    numerics_from_json,
    numerics_to_json,
    scalar_from_json,
    scalar_to_json,
    spread_certificate_from_json,
    spread_certificate_to_json,
    system_from_json,
    system_to_json,
    wm_certificate_from_json,
    wm_certificate_to_json,
    word_from_json,
    word_to_json,
    xiong_witness_from_json,
    xiong_witness_to_json,
)
from swmix.chaos import distance_envelope, xiong_witness
from swmix.spread import QNet, certify_spread
from swmix.words import Word

from helpers import UNIT, rotation_system

TENT = tent_system()
CLAMPED = tent_system(clamp=True)


def test_scalar_round_trip():
    for v in (F(1, 3), F(-7, 2), F(5), 0, 3.25, float("inf"), float("-inf")):
        assert scalar_from_json(scalar_to_json(v)) == v
    assert scalar_to_json(F(1, 3)) == "1/3"
    assert scalar_to_json(F(5)) == "5"
    with pytest.raises(ScenarioError):
        scalar_from_json("one third")
    with pytest.raises(ScenarioError):
        scalar_from_json(None)


def test_word_round_trip():
    w = Word.of(0, 1, 1, 0)
    assert word_from_json(word_to_json(w)) == w
    assert word_from_json([0, 1, 1, 0]) == w
    with pytest.raises(ScenarioError):
        word_from_json("0110")


def test_interval_set_round_trip():
    s = IntervalSet.from_intervals([Interval(F(0), F(1, 3)), Interval(F(1, 2), F(1))])
    assert interval_set_from_json(interval_set_to_json(s)) == s
    assert interval_set_from_json(json.loads(dumps(interval_set_to_json(s)))) == s


def test_language_round_trip():
    for spec in (
        FullShift(3),
        ForbiddenWords(2, ((1, 1),)),
        Dfa(m=2, num_states=2, start=0, transitions=((0, 0, 0), (0, 1, 1), (1, 0, 0))),
    ):
        assert language_from_json(language_to_json(spec)) == spec


def test_numerics_and_budget_round_trip():
    for num in (Numerics(), Numerics(mode="float", tau=1e-9, min_overlap=F(1, 100))):
        assert numerics_from_json(numerics_to_json(num)) == num
    for b in (SearchBudget(), SearchBudget(max_horizon=4, max_words=99, required=1)):
        assert budget_from_json(budget_to_json(b)) == b
    assert budget_from_json(None) == SearchBudget()


def test_numerics_from_json_takes_the_numerics_defaults():
    # Fields left out come from Numerics itself, types included.
    for doc in ({}, {"mode": "rational"}, {"tau": 2.0 ** -40}):
        got = numerics_from_json(doc)
        assert got == Numerics()
        assert type(got.min_overlap) is type(Numerics().min_overlap)
    assert numerics_from_json({"min_overlap": "1/8"}).min_overlap == F(1, 8)


def test_system_round_trip():
    # Fallback maps are serialised as materialised pieces, so compare the
    # normal form (a second trip is the identity) plus observable behaviour.
    for system in (TENT, CLAMPED, rotation_system(F(1, 3), F(2, 7))):
        doc = system_to_json(system)
        again = system_from_json(json.loads(dumps(doc)))
        assert system_to_json(again) == doc
        assert again.bounds == system.bounds
        assert again.clamp == system.clamp
        assert again.numerics == system.numerics
        for pam, orig in zip(again.maps, system.maps):
            assert pam.effective_pieces == orig.effective_pieces
        for x in (F(1, 7), F(1, 2), F(9, 10)):
            for k in range(len(system.maps)):
                assert again.maps[k].value_at(x) == system.maps[k].value_at(x)


WM_PAIRS = [
    (IntervalSet.of(F(0), F(1, 4)), IntervalSet.of(F(7, 10), F(4, 5))),
    (IntervalSet.of(F(1, 8), F(3, 8)), IntervalSet.of(F(2, 5), F(3, 5))),
]


def test_wm_certificate_round_trip():
    cert = wm_certificate(
        CLAMPED, UNIT, UNIT, WM_PAIRS, kind="wm2",
        budget=SearchBudget(max_horizon=12, required=2),
    )
    assert wm_certificate_from_json(wm_certificate_to_json(cert)) == cert


def test_spread_certificate_round_trip():
    seeds = (IntervalSet.of(F(1, 4), F(3, 4)), IntervalSet.of(F(3, 8), F(5, 8)))
    net = QNet(radius=F(1, 2), centers=(F(2, 5), F(7, 15), F(8, 15), F(3, 5)))
    cert = certify_spread(TENT, seeds, UNIT, F(1, 5), net)
    doc = spread_certificate_to_json(cert)
    assert spread_certificate_from_json(doc) == cert
    for index in (0.0, "0", True):
        doc["rows"][0]["alpha"][0] = index
        with pytest.raises(ScenarioError, match="must be an integer"):
            spread_certificate_from_json(doc)


def test_xiong_witness_round_trip():
    wit = xiong_witness(
        CLAMPED, (F(2, 5),), (F(4, 5),), kind="type2", tolerances=(F(1, 2), F(1, 4))
    )
    assert xiong_witness_from_json(xiong_witness_to_json(wit)) == wit


@pytest.mark.parametrize(
    "field, value",
    [
        ("S", lambda S: [S[0] + 0.9, str(S[1])]),
        ("S", lambda S: [float(S[0]), S[1]]),
        ("S", lambda S: [True, S[1]]),
        ("order", lambda order: float(order)),
        ("order", lambda order: str(order)),
        ("order", lambda order: True),
    ],
    ids=["S-2.9-str", "S-float", "S-bool", "order-float", "order-str", "order-bool"],
)
def test_wm_certificate_reader_takes_only_integers(field, value):
    # int() would read [2.9, "3"] as the lengths (2, 3) of a valid certificate.
    cert = wm_certificate(
        CLAMPED, UNIT, UNIT, WM_PAIRS, kind="wm1",
        budget=SearchBudget(max_horizon=12, required=2),
    )
    doc = wm_certificate_to_json(cert)
    assert wm_certificate_from_json(doc) == cert
    doc[field] = value(doc[field])
    with pytest.raises(ScenarioError):
        wm_certificate_from_json(doc)


@pytest.mark.parametrize("pair", [1.0, "1", True, None])
def test_wm_witness_pair_must_be_an_integer(pair):
    cert = wm_certificate(
        CLAMPED, UNIT, UNIT, WM_PAIRS, kind="wm2",
        budget=SearchBudget(max_horizon=12, required=2),
    )
    doc = wm_certificate_to_json(cert)
    doc["witnesses"][1]["pair"] = pair
    with pytest.raises(ScenarioError):
        wm_certificate_from_json(doc)


@pytest.mark.parametrize("length", [4.0, "4", True])
def test_xiong_stage_length_must_be_an_integer(length):
    wit = xiong_witness(
        CLAMPED, (F(2, 5),), (F(4, 5),), kind="type2", tolerances=(F(1, 2), F(1, 4))
    )
    doc = xiong_witness_to_json(wit)
    doc["stages"][-1]["length"] = length
    with pytest.raises(ScenarioError):
        xiong_witness_from_json(doc)


def test_hitting_report_shape():
    report = hitting_sets(
        CLAMPED,
        IntervalSet.of(F(0), F(1, 10)),
        IntervalSet.of(F(9, 10), F(1)),
        budget=SearchBudget(max_horizon=4),
    )
    doc = hitting_report_to_json(report)
    assert doc["horizon"] == 4
    assert doc["type1"] == [4]
    assert doc["exhausted"] is True
    assert [w["word"] for w in doc["type2"]] == [[0, 0, 0, 0], [0, 0, 0, 1]]
    assert doc["type2"][0]["source"] == ["9/160", "1/16"]
    assert all(w["kind"] == "set" for w in doc["type2"])


def test_envelope_csv_frozen():
    env = distance_envelope(TENT, F(1, 8), F(3, 16), kind="type2", horizon=3)
    assert envelope_to_csv(env) == (
        "length,d_min,d_max,word_min,word_max\n"
        "1,1/8,1/8,0,0\n"
        "2,1/4,1/4,00,00\n"
        "3,1/2,1/2,000,000\n"
    )


def test_dumps_is_deterministic():
    doc = system_to_json(TENT)
    assert dumps(doc) == dumps(json.loads(dumps(doc)))
    assert dumps(doc).endswith("\n")
