"""Distance envelopes, scrambled-pair verdicts, and staged approximation."""

import dataclasses
from fractions import Fraction as F

import pytest

from swmix.chaos import (
    DistanceEnvelope,
    EnvelopeRow,
    XiongStage,
    XiongWitness,
    distance_envelope,
    scrambled_verdict,
    verify_envelope,
    verify_xiong,
    xiong_witness,
)
from swmix.demo import tent_system
from swmix.intervals import Interval, IntervalSet
from swmix.language import ForbiddenWords, accepts_prefix
from swmix.search import SearchBudget
from swmix.words import Word

from helpers import rotation_system

TENT = tent_system()
CLAMPED = tent_system(clamp=True)
ROTATIONS = rotation_system(F(1, 3), F(2, 7))
# The same maps, but the language forbids symbol 0: only 1 1 1 ... remains.
ONLY_ONES = dataclasses.replace(ROTATIONS, language=ForbiddenWords(2, ((0,),)))


def test_type2_envelope_slope_law():
    env = distance_envelope(TENT, F(1, 8), F(3, 16), kind="type2", horizon=6)
    assert len(env.rows) == 6
    for i, row in enumerate(env.rows, start=1):
        assert row.length == i
        assert row.d_min == row.d_max == F(1, 16) * 2 ** i
        assert row.min_words == row.max_words == (Word((0,) * i),)
    assert not env.truncated
    assert verify_envelope(TENT, env)


def test_type1_envelope_frozen():
    env = distance_envelope(TENT, F(1, 8), F(3, 16), kind="type1", horizon=6)
    assert [r.d_min for r in env.rows] == [F(1, 8), F(1, 4), F(1, 2), F(1), F(0), F(0)]
    assert [r.d_max for r in env.rows] == [F(11, 8), F(19, 4), F(23, 2), F(25), F(52), F(106)]
    assert verify_envelope(TENT, env)


def test_verify_envelope_rejects_tampered_rows():
    env = distance_envelope(TENT, F(1, 8), F(3, 16), kind="type2", horizon=4)
    rows = list(env.rows)
    rows[2] = dataclasses.replace(rows[2], d_min=F(0))
    assert not verify_envelope(TENT, dataclasses.replace(env, rows=tuple(rows)))


def test_scrambled_verdicts():
    # Shared words on the tent force 2^i * d: divergence only, never proximity.
    env = distance_envelope(TENT, F(1, 8), F(3, 16), kind="type2", horizon=6)
    refuted = scrambled_verdict(env, eps_prox=F(1, 16), eps_div=F(1, 8), k=3)
    assert refuted.verdict == "refuted-at-horizon"
    assert refuted.prox_hits == 0 and refuted.div_hits == 5
    assert refuted.best_min == F(1, 8)

    # Independent word pairs reach both thresholds.
    env1 = distance_envelope(TENT, F(1, 8), F(3, 16), kind="type1", horizon=6)
    supported = scrambled_verdict(env1, eps_prox=F(1, 2), eps_div=F(1, 100), k=3)
    assert supported.verdict == "supported"

    # A truncated envelope is never conclusive.
    short = distance_envelope(
        TENT, F(1, 8), F(3, 16), kind="type1", horizon=8,
        budget=SearchBudget(max_words=100),
    )
    assert short.truncated
    assert scrambled_verdict(short, eps_prox=F(1, 2), eps_div=F(1, 100), k=3).verdict == "inconclusive"

    with pytest.raises(ValueError):
        scrambled_verdict(dataclasses.replace(env, rows=()), F(1), F(1))


def test_xiong_type2_frozen():
    wit = xiong_witness(
        CLAMPED, (F(2, 5),), (F(4, 5),), kind="type2", tolerances=(F(1, 2), F(1, 4))
    )
    assert wit.complete
    assert [st.tolerance for st in wit.stages] == [F(1, 2), F(1, 4)]
    assert [[w.as_string() for w in st.words] for st in wit.stages] == [["0"], ["010"]]
    assert all(e == 0 for st in wit.stages for e in st.errors)
    assert verify_xiong(CLAMPED, wit)


def test_xiong_type1_frozen():
    wit = xiong_witness(
        CLAMPED,
        (F(2, 5), F(4, 5)),
        (F(4, 5), F(2, 5)),
        kind="type1",
        tolerances=(F(1, 2), F(1, 4)),
    )
    assert wit.complete
    assert [[w.as_string() for w in st.words] for st in wit.stages] == [
        ["0", "1"],
        ["010", "101"],
    ]
    assert verify_xiong(CLAMPED, wit)


def test_xiong_reports_honest_failure():
    # The clamped orbit of 3/10 alternates between 2/5 and 4/5 forever, never
    # entering (0.45, 0.55).
    wit = xiong_witness(
        CLAMPED, (F(3, 10),), (F(1, 2),), kind="type2", tolerances=(F(1, 20),),
        budget=SearchBudget(max_horizon=12),
    )
    assert not wit.complete
    assert wit.stages == ()


def test_xiong_tolerances_must_decrease():
    with pytest.raises(ValueError):
        xiong_witness(
            CLAMPED, (F(2, 5),), (F(4, 5),), tolerances=(F(1, 4), F(1, 4))
        )
    with pytest.raises(ValueError):
        xiong_witness(CLAMPED, (F(2, 5),), (F(4, 5),), tolerances=(F(1, 2), F(0)))


def test_verify_xiong_rejects_tampering():
    wit = xiong_witness(
        CLAMPED, (F(2, 5),), (F(4, 5),), kind="type2", tolerances=(F(1, 2), F(1, 4))
    )
    stages = list(wit.stages)
    stages[1] = dataclasses.replace(stages[1], words=stages[0].words)
    assert not verify_xiong(CLAMPED, dataclasses.replace(wit, stages=tuple(stages)))


def test_verify_xiong_rejects_inadmissible_words():
    # 1/10 + 2/3 = 23/30 exactly, so the replayed error really is 0.
    stage = XiongStage(F(1, 2), 2, (Word((0, 0)),), (F(0),))
    wit = XiongWitness("type2", (F(1, 10),), (F(23, 30),), (stage,), complete=True)
    assert verify_xiong(ROTATIONS, wit)
    assert not accepts_prefix(ONLY_ONES.automaton, (0, 0))
    assert not verify_xiong(ONLY_ONES, wit)


def _type2_envelope(x, y, words_min, words_max, d_min, d_max) -> DistanceEnvelope:
    row = EnvelopeRow(2, d_min, d_max, words_min, words_max)
    return DistanceEnvelope("type2", x, y, 2, (row,), truncated=False)


def test_verify_envelope_rejects_inadmissible_words():
    # Rotations keep the distance: 1/5 for every word.
    w = (Word((0, 0)),)
    env = _type2_envelope(F(1, 10), F(3, 10), w, w, F(1, 5), F(1, 5))
    assert verify_envelope(ROTATIONS, env)
    assert not verify_envelope(ONLY_ONES, env)


def test_verify_envelope_returns_false_where_an_orbit_dies():
    # 1/3 -> 2/3, the boundary of both pieces of the rotation by 1/3.
    w = (Word((0, 0)),)
    env = _type2_envelope(F(1, 3), F(1, 2), w, w, F(1, 6), F(1, 6))
    assert verify_envelope(ROTATIONS, env) is False


def test_verify_envelope_returns_false_on_misshaped_rows():
    good = distance_envelope(TENT, F(1, 8), F(3, 16), kind="type2", horizon=2)
    row = good.rows[0]
    two = row.min_words + row.min_words
    for bad in (
        dataclasses.replace(row, min_words=two),
        dataclasses.replace(row, max_words=()),
    ):
        assert verify_envelope(TENT, dataclasses.replace(good, rows=(bad,))) is False
    type1 = distance_envelope(TENT, F(1, 8), F(3, 16), kind="type1", horizon=2)
    row = type1.rows[0]
    for bad in (
        dataclasses.replace(row, min_words=row.min_words[:1]),
        dataclasses.replace(row, max_words=row.max_words * 2),
    ):
        assert verify_envelope(TENT, dataclasses.replace(type1, rows=(bad,))) is False
