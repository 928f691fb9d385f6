"""Distance envelopes, scrambled-pair verdicts, and staged approximation."""

import dataclasses
import hashlib
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import swmix.chaos as chaos
import swmix.search as search
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
from swmix.core import AffinePiece, Numerics, PiecewiseAffineMap, SwitchedSystem, eval_point
from swmix.demo import tent_system
from swmix.errors import EmptyLanguage, UndefinedAtPoint
from swmix.intervals import NEG_INF, POS_INF, Interval, IntervalSet
from swmix.language import ForbiddenWords, FullShift, accepts_prefix
from swmix.search import SearchBudget, SearchClock
from swmix.words import Word

from helpers import (
    random_map,
    reference_difference_envelope,
    reference_ratio_point_step,
    reference_value,
    reference_xiong_witness,
    rotation_system,
    sweep_systems,
)

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


def test_scrambled_verdict_rejects_a_bad_k():
    # No row of this envelope is proximal, so any k >= 1 refutes it.
    env = distance_envelope(TENT, F(1, 8), F(3, 16), kind="type2", horizon=6)
    assert scrambled_verdict(env, F(1, 16), F(1, 8), k=3).verdict == "refuted-at-horizon"
    assert scrambled_verdict(env, F(1, 16), F(1, 8), k=1).verdict == "refuted-at-horizon"
    for k in (0, -2):
        with pytest.raises(ValueError, match="k must be positive"):
            scrambled_verdict(env, F(1, 16), F(1, 8), k=k)
    for k in (True, 2.0, "3", None):
        with pytest.raises(TypeError, match="k must be an integer"):
            scrambled_verdict(env, F(1, 16), F(1, 8), k=k)


@pytest.mark.parametrize(
    "eps_prox, eps_div, error",
    [
        (float("nan"), F(1, 8), ValueError),
        (F(1, 16), float("nan"), ValueError),
        (float("inf"), F(1, 8), ValueError),
        (F(1, 16), float("-inf"), ValueError),
        (True, F(1, 8), TypeError),
        (F(1, 16), False, TypeError),
    ],
)
def test_scrambled_verdict_rejects_bool_and_non_finite_thresholds(eps_prox, eps_div, error):
    # A NaN threshold passed no row and so gave refuted-at-horizon.
    env = distance_envelope(TENT, F(1, 8), F(1, 2), kind="type2", horizon=6)
    with pytest.raises(error, match="thresholds"):
        scrambled_verdict(env, eps_prox, eps_div)


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


@pytest.mark.parametrize(
    "tolerances, error",
    [
        ((float("nan"),), ValueError),
        ((float("inf"),), ValueError),
        ((F(1, 2), float("-inf")), ValueError),
        ((True,), TypeError),
        ((F(1, 2), False), TypeError),
        (("1/2",), TypeError),
    ],
)
def test_xiong_rejects_bool_and_non_finite_tolerances(tolerances, error):
    with pytest.raises(error, match="tolerances"):
        xiong_witness(CLAMPED, (F(2, 5),), (F(4, 5),), tolerances=tolerances)


@pytest.mark.parametrize(
    "points, targets, error, what",
    [
        ((F(1, 10),), (float("inf"),), ValueError, "targets"),
        ((F(1, 10),), (float("nan"),), ValueError, "targets"),
        ((float("-inf"),), (F(1, 2),), ValueError, "points"),
        ((float("nan"),), (F(1, 2),), ValueError, "points"),
        ((True,), (F(1, 2),), TypeError, "points"),
        ((F(1, 10),), (False,), TypeError, "targets"),
        (("1/10",), (F(1, 2),), TypeError, "points"),
        ((F(1, 10),), ("1/2",), TypeError, "targets"),
    ],
)
def test_xiong_rejects_bool_and_non_finite_points_and_targets(points, targets, error, what):
    # A target that can never be met would walk every word up to the horizon.
    with pytest.raises(error, match=what):
        xiong_witness(
            ROTATIONS, points, targets, tolerances=(F(1, 2),),
            budget=SearchBudget(max_horizon=12),
        )


def test_xiong_float_frozen():
    # Float maps take the generic point loop; the errors carry its rounding.
    wit = xiong_witness(
        FOLDS_FLOAT,
        (0.3, 0.7),
        (0.5, 0.25),
        kind="type1",
        tolerances=(0.25, 0.1, 0.02),
        budget=SearchBudget(max_horizon=14),
    )
    assert wit.complete
    assert [
        (st.length, [w.as_string() for w in st.words], st.errors) for st in wit.stages
    ] == [
        (2, ["00", "10"], (0.17199999999999993, 0.23000000000000043)),
        (4, ["0000", "1100"], (0.010719999999999619, 0.03800000000000131)),
        (5, ["00001", "01101"], (0.016079999999999428, 0.005999999999999783)),
    ]
    assert verify_xiong(FOLDS_FLOAT, wit)


def test_verify_xiong_rejects_tampering():
    wit = xiong_witness(
        CLAMPED, (F(2, 5),), (F(4, 5),), kind="type2", tolerances=(F(1, 2), F(1, 4))
    )
    assert verify_xiong(CLAMPED, wit)
    stages = list(wit.stages)
    stages[1] = dataclasses.replace(stages[1], words=stages[0].words)
    assert not verify_xiong(CLAMPED, dataclasses.replace(wit, stages=tuple(stages)))
    # Stage lengths must increase.
    assert not verify_xiong(CLAMPED, dataclasses.replace(wit, stages=wit.stages[::-1]))

    def last(**changes):
        stage = dataclasses.replace(wit.stages[-1], **changes)
        return dataclasses.replace(wit, stages=wit.stages[:-1] + (stage,))

    # A type-2 stage shares one word; each stage has one error per point.
    assert not verify_xiong(CLAMPED, last(words=wit.stages[-1].words * 2))
    assert not verify_xiong(CLAMPED, last(errors=wit.stages[-1].errors * 2))
    # A type-1 stage has one word per point.
    pair = xiong_witness(
        CLAMPED, (F(2, 5), F(1, 5)), (F(4, 5), F(3, 5)), kind="type1",
        tolerances=(F(1, 2), F(1, 4)),
    )
    assert verify_xiong(CLAMPED, pair)
    stage = dataclasses.replace(pair.stages[-1], words=pair.stages[-1].words[:1])
    assert not verify_xiong(CLAMPED, dataclasses.replace(pair, stages=pair.stages[:-1] + (stage,)))


@pytest.mark.parametrize(
    "tamper",
    [
        {"tolerance": float("nan")},
        {"errors": (float("nan"),)},
        {"tolerance": POS_INF},
    ],
    ids=["nan-tolerance", "nan-error", "inf-tolerance"],
)
def test_verify_xiong_rejects_nan_and_infinite_stage_bounds(tamper):
    wit = xiong_witness(
        CLAMPED, (F(2, 5),), (F(4, 5),), kind="type2", tolerances=(F(1, 2), F(1, 4))
    )
    assert verify_xiong(CLAMPED, wit)
    last = dataclasses.replace(wit.stages[-1], **tamper)
    tampered = dataclasses.replace(wit, stages=wit.stages[:-1] + (last,))
    assert not verify_xiong(CLAMPED, tampered)


def test_verify_xiong_rejects_inadmissible_words():
    # 1/10 + 2/3 = 23/30 exactly, so the replayed error really is 0.
    stage = XiongStage(F(1, 2), 2, (Word((0, 0)),), (F(0),))
    wit = XiongWitness("type2", (F(1, 10),), (F(23, 30),), (stage,), complete=True)
    assert verify_xiong(ROTATIONS, wit)
    assert not accepts_prefix(ONLY_ONES.automaton, (0, 0))
    assert not verify_xiong(ONLY_ONES, wit)


def test_verify_xiong_fails_a_witness_without_evidence():
    stage = XiongStage(F(1, 2), 2, (Word((0, 0)),), (F(0),))
    wit = XiongWitness("type2", (F(1, 10),), (F(23, 30),), (stage,), complete=True)
    assert verify_xiong(ROTATIONS, wit)
    assert not verify_xiong(ROTATIONS, dataclasses.replace(wit, stages=()))
    no_points = XiongStage(F(1, 2), 2, (Word((0, 0)),), ())
    assert not verify_xiong(
        ROTATIONS, dataclasses.replace(wit, points=(), targets=(), stages=(no_points,))
    )
    assert not verify_xiong(ROTATIONS, dataclasses.replace(wit, targets=()))
    # The witness a search stopped before its first stage claims nothing.
    empty = xiong_witness(
        CLAMPED, (F(1, 3),), (F(1, 7),), tolerances=(F(1, 100000),),
        budget=SearchBudget(max_horizon=3),
    )
    assert empty.stages == () and not empty.complete
    assert not verify_xiong(CLAMPED, empty)


def _type2_envelope(x, y, words_min, words_max, d_min, d_max) -> DistanceEnvelope:
    """Rows of lengths 1 and 2 with the same extremes, row 1 on the words'
    first letters."""
    rows = tuple(
        EnvelopeRow(
            n,
            d_min,
            d_max,
            tuple(w.prefix(n) for w in words_min),
            tuple(w.prefix(n) for w in words_max),
        )
        for n in (1, 2)
    )
    return DistanceEnvelope("type2", x, y, 2, rows, truncated=False)


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


def test_xiong_witness_kind_must_be_type1_or_type2():
    wit = xiong_witness(
        CLAMPED, (F(2, 5), F(1, 3)), (F(4, 5), F(1, 2)), kind="type1",
        tolerances=(F(1, 2), F(1, 4)),
    )
    assert wit.complete and verify_xiong(CLAMPED, wit)
    with pytest.raises(ValueError, match="unknown witness kind 'type3'"):
        dataclasses.replace(wit, kind="type3")


def test_distance_envelope_kind_must_be_type1_or_type2():
    env = distance_envelope(TENT, F(1, 7), F(2, 9), kind="type1", horizon=4)
    assert verify_envelope(TENT, env)
    with pytest.raises(ValueError, match="unknown envelope kind 'type3'"):
        dataclasses.replace(env, kind="type3")


def test_verify_envelope_needs_lengths_one_to_r_within_the_horizon():
    env = distance_envelope(TENT, F(1, 7), F(2, 9), kind="type1", horizon=4)
    assert [row.length for row in env.rows] == [1, 2, 3, 4]
    assert verify_envelope(TENT, env)
    repeated = dataclasses.replace(env, rows=(env.rows[0],) * 3)
    assert verify_envelope(TENT, repeated) is False
    # Read as three lengths, the one length would pass k=3 of each threshold.
    assert scrambled_verdict(repeated, F(1), F(0), k=3).verdict == "supported"
    for bad in (
        dataclasses.replace(env, horizon=2),
        dataclasses.replace(env, rows=env.rows[1:]),
        dataclasses.replace(env, rows=(env.rows[0], env.rows[2])),
    ):
        assert verify_envelope(TENT, bad) is False


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


def _folds(num) -> tuple:
    """A tent of height 6/5 and a map expanding right of 1/3, both piecewise
    on half-lines; ``num`` reads each coefficient and cut point.  The clamp to
    [0, 1] cuts branches, and 5/12 lands on 1."""

    def piece(lo, hi, a, b):
        return AffinePiece(Interval(lo, hi), num(a), num(b))

    half, third = num("1/2"), num("1/3")
    return (
        PiecewiseAffineMap(
            (piece(NEG_INF, half, "12/5", "0"), piece(half, POS_INF, "-12/5", "12/5"))
        ),
        PiecewiseAffineMap(
            (piece(NEG_INF, third, "1/2", "1/4"), piece(third, POS_INF, "3/2", "-1/4"))
        ),
    )


UNIT_BOX = Interval(F(0), F(1))
FOLDS_CLAMPED = SwitchedSystem(_folds(F), FullShift(2), UNIT_BOX, clamp=True)
FOLDS_FORBIDDEN = SwitchedSystem(_folds(F), ForbiddenWords(2, ((1, 1),)), UNIT_BOX)
FOLDS_FLOAT = SwitchedSystem(
    _folds(lambda s: float(F(s))),
    FullShift(2),
    Interval(0.0, 1.0),
    clamp=True,
    numerics=Numerics(mode="float"),
)
ENVELOPE_CASES = {
    "clamped": (FOLDS_CLAMPED, F(5, 12), F(2, 5), SearchBudget()),
    "forbidden": (FOLDS_FORBIDDEN, F(5, 12), F(2, 5), SearchBudget()),
    "truncated": (FOLDS_CLAMPED, F(5, 12), F(2, 5), SearchBudget(max_words=100)),
    "float": (FOLDS_FLOAT, 5 / 12, 0.4, SearchBudget()),
}

# Rows, truncation and the sha256 of repr(envelope) at horizon 8, recorded
# before envelope levels were stepped on integer ratios.
FROZEN_ENVELOPES = {
    ("clamped", "type1"): (
        8,
        False,
        "d69ead2f2c28af3a23231ad9c3462d1cc1b887c05c490326560b14f3d51c8dad",
    ),
    ("clamped", "type2"): (
        8,
        False,
        "191a557ad1f698f602a4e3dcc5163b71228ab79c11a7682656bdd6e7edcb6c20",
    ),
    ("forbidden", "type1"): (
        8,
        False,
        "8a93c643192a3b678bc676d805bc2ba2318c84eb7534faa6c2f2850f58ec28bd",
    ),
    ("forbidden", "type2"): (
        8,
        False,
        "c40ea477490b7dd5a875ceb25ce19b30c5b0606a89b8dacde1659ae8de4647a5",
    ),
    ("truncated", "type1"): (
        5,
        True,
        "acaf94b33f5195e7b6f33db932a6b16d1ec999133412388e284be8fd9f114043",
    ),
    ("truncated", "type2"): (
        6,
        True,
        "2a95c49a91cf2b4d86e3683f59f282d626ac7503f3ca069d92587c6484aee5e2",
    ),
    ("float", "type1"): (
        8,
        False,
        "8c1fc26b26e8f62287f8251e7cab59f92f12150748cdf8e9e2969fd7edc68a1f",
    ),
    ("float", "type2"): (
        8,
        False,
        "917d3acdecae6527d8d3cf92e915dcc6be4988343b73050ecff752f3ae3e2fc4",
    ),
}


@pytest.mark.parametrize("case, kind", sorted(FROZEN_ENVELOPES))
def test_piecewise_envelopes_frozen(case, kind):
    system, x, y, budget = ENVELOPE_CASES[case]
    env = distance_envelope(system, x, y, kind=kind, horizon=8, budget=budget)
    rows, truncated, digest = FROZEN_ENVELOPES[case, kind]
    assert (len(env.rows), env.truncated) == (rows, truncated)
    assert hashlib.sha256(repr(env).encode("utf-8")).hexdigest() == digest
    assert verify_envelope(system, env)


@pytest.mark.parametrize("horizon", [0, -3])
def test_envelope_rejects_a_horizon_below_one(horizon):
    with pytest.raises(ValueError, match="horizon"):
        distance_envelope(TENT, F(1, 8), F(3, 16), horizon=horizon)


@pytest.mark.parametrize("horizon", [True, 2.0, "3", None])
def test_envelope_rejects_a_horizon_that_is_not_an_int(horizon):
    with pytest.raises(TypeError, match="horizon"):
        distance_envelope(TENT, F(1, 8), F(3, 16), horizon=horizon)


@pytest.mark.parametrize(
    "x, y, error",
    [
        (float("inf"), F(1, 2), ValueError),
        (F(1, 8), float("-inf"), ValueError),
        (float("nan"), F(1, 2), ValueError),
        (True, F(1, 2), TypeError),
        (F(1, 8), "1/2", TypeError),
    ],
)
@pytest.mark.parametrize("kind", ["type1", "type2"])
def test_envelope_rejects_bool_and_non_finite_points(x, y, error, kind):
    # An infinite point gave rows of inf and a refuted-at-horizon verdict.
    with pytest.raises(error, match="points"):
        distance_envelope(TENT, x, y, kind=kind, horizon=6)


# The envelope against a plain Fraction level loop: the first piece whose
# open domain holds the value, slope*x + offset, the closed clamp box, one
# clock charge per admissible edge, the first word per key, and extremes
# taken over every value (type 2) or every pair of values (type 1) with the
# lexicographically least words.


def reference_envelope(system, x, y, kind, horizon, max_words) -> DistanceEnvelope:
    aut = system.automaton
    spent = 0

    def step(level):
        nonlocal spent
        out = {}
        for key, word in level.items():
            for sym in range(aut.m):
                nxt = aut.transitions[key[0]][sym]
                if nxt < 0:
                    continue
                spent += 1
                if spent > max_words:
                    return None
                vals = [reference_value(system.maps[sym], v) for v in key[1:]]
                if any(
                    v is None
                    or (system.clamp and not system.bounds.lo <= v <= system.bounds.hi)
                    for v in vals
                ):
                    continue
                out.setdefault((nxt, *vals), word + (sym,))
        return out

    def values(level):
        best = {}
        for (_, v), w in level.items():
            best[v] = min(best.get(v, w), w)
        return best.items()

    rows = []
    truncated = False
    levels = [{(aut.start, x, y): ()}] if kind == "type2" else [
        {(aut.start, x): ()},
        {(aut.start, y): ()},
    ]
    for n in range(1, horizon + 1):
        nxt = []
        for level in levels:
            nxt.append(step(level))
            if nxt[-1] is None:
                break
        if nxt[-1] is None:
            truncated = True
            break
        if not all(nxt):
            break
        if kind == "type2":
            dist = [(abs(fy - fx), w) for (_, fx, fy), w in nxt[0].items()]
            lo = min(d for d, _ in dist)
            hi = max(d for d, _ in dist)
            w_lo = min(w for d, w in dist if d == lo)
            w_hi = min(w for d, w in dist if d == hi)
            rows.append(EnvelopeRow(n, lo, hi, (Word(w_lo),), (Word(w_hi),)))
        else:
            pairs = [
                (abs(a - b), wa, wb)
                for a, wa in values(nxt[0])
                for b, wb in values(nxt[1])
            ]
            lo, wx_lo, wy_lo = min(pairs)
            neg_hi, wx_hi, wy_hi = min((-d, wa, wb) for d, wa, wb in pairs)
            rows.append(
                EnvelopeRow(
                    n,
                    lo,
                    -neg_hi,
                    (Word(wx_lo), Word(wy_lo)),
                    (Word(wx_hi), Word(wy_hi)),
                )
            )
        levels = nxt
    return DistanceEnvelope(kind, x, y, horizon, tuple(rows), truncated)


CUT_POINTS = st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=10)
SLOPES = st.sampled_from([F(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)])
OFFSETS = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def exact_maps(draw):
    """``helpers.random_map`` (a global map or two pieces on (0, 1)), or
    three pieces over two cuts, some replaced by a fallback."""
    if draw(st.booleans()):
        return random_map(random.Random(draw(st.integers(0, 2**32))))
    cuts = sorted({F(0), F(1), *draw(st.lists(CUT_POINTS, min_size=2, max_size=2))})
    pieces = tuple(
        AffinePiece(Interval(lo, hi), draw(SLOPES), draw(OFFSETS))
        for lo, hi in zip(cuts, cuts[1:])
        if draw(st.booleans())
    )
    return PiecewiseAffineMap(pieces=pieces, fallback=(draw(SLOPES), draw(OFFSETS)))


@st.composite
def exact_systems(draw):
    m = draw(st.integers(2, 3))
    maps = tuple(draw(exact_maps()) for _ in range(m))
    if draw(st.booleans()):
        language = FullShift(m)
    else:
        word = st.lists(st.integers(0, m - 1), min_size=2, max_size=3).map(tuple)
        words = draw(st.lists(word, min_size=1, max_size=2))
        language = ForbiddenWords(m, tuple(words))
    try:
        return SwitchedSystem(maps, language, UNIT_BOX, clamp=draw(st.booleans()))
    except EmptyLanguage:
        reject()


POINTS = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.integers(-1, 2),
)


@settings(max_examples=300, deadline=None)
@given(
    exact_systems(),
    POINTS,
    POINTS,
    st.sampled_from(["type1", "type2"]),
    st.integers(1, 6),
    st.one_of(st.integers(1, 300), st.just(500_000)),
)
# Ties between words for the least type-2 distance (rotations keep it).
@example(ROTATIONS, F(1, 10), F(3, 10), "type2", 2, 500_000)
# 1/2 lands on the clamp bound 1 under both tent maps.
@example(CLAMPED, F(1, 2), F(1, 4), "type1", 1, 500_000)
# Both maps send 2 out of the clamp box: x's level empties, y's does not.
@example(CLAMPED, F(2), F(1, 4), "type1", 3, 500_000)
# 0 maps to 0 through slopes with different denominators.
@example(
    SwitchedSystem(
        (PiecewiseAffineMap.globally(F(-3, 2), F(0)), PiecewiseAffineMap.globally(F(-1), F(0))),
        FullShift(2),
        UNIT_BOX,
    ),
    0,
    1,
    "type1",
    1,
    500_000,
)
def test_envelope_matches_plain_fraction_levels(system, x, y, kind, horizon, max_words):
    if x == y:
        reject()
    if kind == "type2" and not system.clamp and all(pam.is_global for pam in system.maps):
        # These step the pair (0, y - x) instead, whose keys merge more pairs
        # and so charge the clock differently; the difference loop below is
        # their reference.
        reject()
    env = distance_envelope(
        system, x, y, kind=kind, horizon=horizon, budget=SearchBudget(max_words=max_words)
    )
    want = reference_envelope(system, x, y, kind, horizon, max_words)
    assert repr(env) == repr(want)


# In rational mode a type-2 envelope of globally affine maps without a
# clamp steps the pair (0, y - x) under the maps' linear parts.  It must give
# the envelope of the orbit difference loop it replaced (helpers) -- rows,
# words, truncation -- and charge the clock the same, on float and Fraction
# slopes and points, with a budget that runs out at each edge.  Float mode
# steps the point pair instead, and its envelopes must verify.

NONZERO_FLOATS = st.floats(min_value=-3, max_value=3).filter(bool)
GLOBAL_SLOPES = st.one_of(SLOPES, NONZERO_FLOATS)
GLOBAL_OFFSETS = st.one_of(OFFSETS, st.floats(min_value=-2, max_value=2))
DIFFERENCE_POINTS = st.one_of(POINTS, st.floats(min_value=-2, max_value=2))


@st.composite
def global_systems(draw, mode="rational"):
    m = draw(st.integers(1, 3))
    maps = tuple(
        PiecewiseAffineMap.globally(draw(GLOBAL_SLOPES), draw(GLOBAL_OFFSETS))
        for _ in range(m)
    )
    if m == 1 or draw(st.booleans()):
        language = FullShift(m)
    else:
        word = st.lists(st.integers(0, m - 1), min_size=2, max_size=3).map(tuple)
        language = ForbiddenWords(m, tuple(draw(st.lists(word, min_size=1, max_size=2))))
    try:
        return SwitchedSystem(maps, language, UNIT_BOX, numerics=Numerics(mode=mode))
    except EmptyLanguage:
        reject()


@settings(max_examples=100, deadline=None)
@given(global_systems(), DIFFERENCE_POINTS, DIFFERENCE_POINTS, st.integers(1, 4))
# Every word keeps the tent's distance, so each row ties on every key.
@example(TENT, F(1, 7), F(1, 5), 4)
def test_difference_envelope_matches_the_difference_loop(system, x, y, horizon):
    if x == y:
        reject()

    def compare(max_words):
        budget = SearchBudget(max_words=max_words)
        clocks = []

        def clock(budget):
            clocks.append(SearchClock(budget))
            return clocks[-1]

        with mock.patch.object(chaos, "SearchClock", clock):
            got = distance_envelope(system, x, y, "type2", horizon, budget)
        want_clock = SearchClock(budget)
        want = reference_difference_envelope(system, x, y, horizon, want_clock)
        assert repr(got) == repr(want)
        assert (clocks[0].count, clocks[0].exceeded) == (want_clock.count, want_clock.exceeded)
        return want_clock.count

    total = compare(500_000)
    for max_words in range(1, total + 1):
        compare(max_words)


def test_float_global_difference_envelope_verifies():
    # Float mode steps the two orbits, not their difference: each row holds
    # the extremes of the rounded orbits, which verify_envelope recomputes,
    # so they differ from 2**n * 0.1 by a few ulps.
    tent = dataclasses.replace(TENT, numerics=Numerics(mode="float"))
    env = distance_envelope(tent, 0.1, 0.2, kind="type2", horizon=12)
    assert len(env.rows) == 12 and not env.truncated
    assert (env.rows[-1].d_min, env.rows[-1].d_max) == (409.5999999999999, 409.60000000000014)
    assert verify_envelope(tent, env)


@settings(max_examples=100, deadline=None)
@given(
    global_systems(mode="float"),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.sampled_from(["type1", "type2"]),
    st.integers(1, 6),
)
def test_float_global_envelopes_verify(system, x, y, kind, horizon):
    if x == y:
        reject()
    env = distance_envelope(system, x, y, kind, horizon, SearchBudget(max_words=20_000))
    assert verify_envelope(system, env)


# The integer point kernel steps a whole level per call.  Against
# _level_step over the per-edge step it replaced (helpers), it must give the
# same levels -- keys, words and insertion order -- and charge the clock the
# same, for groups of one to four points (its one- and two-point loops and
# its general one), with and without the clamp, on forbidden words, and with
# a budget that runs out at each edge in turn.


def _kernel_and_reference_levels(system, points, depth, max_words):
    """For the kernel and for the reference, each on its own clock: the
    items of levels 1, 2, .. of one group of ``points``, up to ``depth`` or
    an empty level, with None for a level cut by the budget; the clock's
    count; and whether it ran out."""
    exact, aut = system._exact(), system.automaton
    steppers = (
        search._ratio_point_levels(exact),
        search._stepper(reference_ratio_point_step(exact)),
    )
    out = []
    for advance in steppers:
        clock = SearchClock(SearchBudget(max_words=max_words))
        level, levels = {(aut.start, search._ratio_pairs(points)): ()}, []
        for _ in range(depth):
            level = advance(aut, level, clock)
            levels.append(None if level is None else list(level.items()))
            if not level:
                break
        out.append((levels, clock.count, clock.exceeded))
    return out


def _check_point_kernel(system, points, depth):
    kernel, reference = _kernel_and_reference_levels(system, points, depth, 500_000)
    assert kernel == reference
    total = kernel[1]
    for max_words in range(1, total + 2):
        kernel, reference = _kernel_and_reference_levels(system, points, depth, max_words)
        assert kernel == reference
        assert kernel[2] is (max_words < total)


@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "system",
    [FOLDS_FORBIDDEN, FOLDS_CLAMPED, TENT, CLAMPED, ROTATIONS],
    ids=["forbidden", "folds-clamped", "tent", "tent-clamped", "rotations"],
)
def test_point_kernel_matches_the_edge_step(system, size):
    points = (F(5, 12), F(2, 5), F(1, 7), F(3, 4))[:size]
    _check_point_kernel(system, points, 4)


@settings(max_examples=150, deadline=None)
@given(exact_systems(), st.lists(POINTS, min_size=1, max_size=4), st.integers(1, 3))
def test_point_kernel_matches_the_edge_step_on_random_systems(system, points, depth):
    _check_point_kernel(system, tuple(points), depth)


def test_exact_point_searches_step_whole_levels(monkeypatch):
    # Rational-mode envelopes and Xiong witnesses step every level in the
    # integer kernel, never one edge at a time through _level_step; float
    # mode steps each edge through step_points.  A rational globally affine
    # type-2 envelope without a clamp (the tent) steps its pair (0, y - x) in
    # the kernel too; a float one steps its point pair through step_points.
    calls = []
    for name, tag in (("_level_step", "level"), ("step_points", "points")):
        real = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *a, real=real, tag=tag: calls.append(tag) or real(*a))

    def steps(system, points):
        calls.clear()
        targets = tuple(eval_point(system, (0,), x) for x in points)
        for kind in ("type1", "type2"):
            env = distance_envelope(system, points[0], points[1], kind=kind, horizon=4)
            assert env.rows and not env.truncated
            wit = xiong_witness(system, points, targets, kind, (F(1, 2), F(1, 4)))
            assert wit.stages
        return set(calls)

    assert steps(FOLDS_CLAMPED, (F(5, 12), F(2, 5), F(1, 7))) == set()
    assert steps(FOLDS_FLOAT, (5 / 12, 0.4, 1 / 7)) == {"level", "points"}

    def difference_steps(system, x, y):
        calls.clear()
        env = distance_envelope(system, x, y, kind="type2", horizon=4)
        assert len(env.rows) == 4 and not env.truncated
        return set(calls)

    assert difference_steps(TENT, F(1, 7), 0.2) == set()
    float_tent = dataclasses.replace(TENT, numerics=Numerics(mode="float"))
    assert difference_steps(float_tent, 0.1, 0.2) == {"level", "points"}


# Xiong witnesses sweep one level per group for all stages; the reference
# walks each stage, length and group depth first, as the search did before.
# Both find the least stage lengths and words, so a clock that runs out can
# only cut the stages short: each witness's stages start the other's, and
# where neither clock ran out the witnesses are equal.  Targets lie near the
# orbit ends along one drawn word, or anywhere, so that stages are found.

XIONG_VALUES = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.floats(min_value=0, max_value=1).map(lambda x: round(x, 3)),
)
XIONG_TOLERANCES = st.one_of(
    st.fractions(min_value=F(1, 50), max_value=1, max_denominator=50),
    st.floats(min_value=0.02, max_value=1).map(lambda x: round(x, 3)),
)


@st.composite
def xiong_cases(draw):
    system = draw(
        st.one_of(
            sweep_systems(), st.sampled_from([CLAMPED, TENT, ROTATIONS, FOLDS_FORBIDDEN])
        )
    )
    points = tuple(dict.fromkeys(draw(st.lists(XIONG_VALUES, min_size=1, max_size=3))))
    word = draw(st.lists(st.integers(0, system.m - 1), min_size=1, max_size=3))
    targets = []
    for x in points:
        try:
            target = eval_point(system, word, x) + draw(XIONG_VALUES) / 100
        except UndefinedAtPoint:
            target = draw(XIONG_VALUES)
        targets.append(target)
    return system, points, tuple(targets)


@settings(max_examples=300, deadline=None)
@given(
    xiong_cases(),
    st.sampled_from(["type1", "type2"]),
    st.lists(XIONG_TOLERANCES, min_size=1, max_size=3),
    st.integers(1, 6),
    st.one_of(st.integers(1, 300), st.just(500_000)),
)
# The clamped orbit of 2/5 ends at 4/5 at odd lengths, exactly a tolerance
# from its target: the strict test must reject it, for a Fraction and for a
# float tolerance alike.
@example((CLAMPED, (F(2, 5),), (F(3, 4),)), "type2", [F(1, 20)], 3, 500_000)
@example((CLAMPED, (F(2, 5),), (F(11, 20),)), "type1", [0.5, 0.25], 3, 500_000)
def test_xiong_sweep_matches_the_walk(case, kind, tolerances, horizon, max_words):
    system, points, targets = case
    tolerances = tuple(sorted(set(tolerances), reverse=True))
    budget = SearchBudget(max_horizon=horizon, max_words=max_words)
    clocks = []

    def clock(budget):
        clocks.append(SearchClock(budget))
        return clocks[-1]

    with mock.patch.object(chaos, "SearchClock", clock):
        got = xiong_witness(system, points, targets, kind, tolerances, budget)
    # Rational mode reads float points and targets at their exact values,
    # so the reference walks those; its witness keeps the given ones.
    exact = F if system.numerics.mode == "rational" else (lambda v: v)
    want, walk_ran_out = reference_xiong_witness(
        system, tuple(map(exact, points)), tuple(map(exact, targets)), kind, tolerances, budget
    )
    want = dataclasses.replace(want, points=points, targets=targets)
    shorter = min(len(got.stages), len(want.stages))
    assert repr(got.stages[:shorter]) == repr(want.stages[:shorter])
    if not (clocks[0].exceeded or walk_ran_out):
        assert repr(got) == repr(want)
