"""Hitting-time sets, weak-mixing certificates, and order reduction."""

import dataclasses
from fractions import Fraction as F

import pytest

from swmix.core import AffinePiece, PiecewiseAffineMap, SwitchedSystem
from swmix.demo import tent_system
from swmix.errors import BudgetExceeded, InadmissiblePair, PreconditionFailed
from swmix.hitting import (
    HitWitness,
    extend_witness,
    hitting_sets,
    maps_commute,
    order_reduction,
    pull_back_hit,
    verify_wm_certificate,
    wm_certificate,
)
from swmix.intervals import NEG_INF, POS_INF, Interval, IntervalSet
from swmix.language import ForbiddenWords, FullShift, accepts_prefix
from swmix.search import SearchBudget
from swmix.words import Word

from helpers import UNIT, rotation_system

CLAMPED = tent_system(clamp=True)
U = IntervalSet.of(F(0), F(1, 10))
V = IntervalSet.of(F(9, 10), F(1))


def test_hitting_sets_frozen_window():
    report = hitting_sets(CLAMPED, U, V, budget=SearchBudget(max_horizon=4))
    assert report.type1 == (4,)
    assert report.exhausted
    assert [w.as_string() for w in report.words()] == ["0000", "0001"]
    assert report.witnesses[0].source == IntervalSet.of(F(9, 160), F(1, 16))
    assert report.witnesses[1].source == IntervalSet.of(F(1, 16), F(11, 160))


def test_hitting_sets_longer_horizon():
    report = hitting_sets(CLAMPED, U, V, budget=SearchBudget(max_horizon=8, required=1))
    assert report.type1 == (4, 5, 6, 7, 8)
    assert report.exhausted


def test_witnesses_reverify_independently():
    report = hitting_sets(CLAMPED, U, V, budget=SearchBudget(max_horizon=6))
    assert report.witnesses
    for wit in report.witnesses:
        assert wit.verify(CLAMPED, U, V)
        # The same evidence must fail against a target it never reached.
        assert not wit.verify(CLAMPED, U, IntervalSet.of(F(1, 3), F(1, 2)))


def test_pull_back_hit():
    sub = pull_back_hit(CLAMPED, Word.from_string("0000"), U, V)
    assert sub == IntervalSet.of(F(9, 160), F(1, 16))
    assert pull_back_hit(CLAMPED, Word.from_string("000"), U, V) is None


def test_witness_kind_validation():
    with pytest.raises(ValueError):
        HitWitness(Word.of(0), "set", source=None)
    with pytest.raises(ValueError):
        HitWitness(Word.of(0), "orbit", point=F(1, 2))


def test_wm1_certificate_frozen():
    pairs = [
        (IntervalSet.of(F(1, 10), F(1, 5)), IntervalSet.of(F(3, 5), F(7, 10))),
        (IntervalSet.of(F(3, 10), F(2, 5)), IntervalSet.of(F(4, 5), F(9, 10))),
    ]
    cert = wm_certificate(CLAMPED, UNIT, UNIT, pairs, kind="wm1")
    assert cert.lengths == (3, 4, 5)
    assert cert.complete
    assert not cert.words  # wm1 carries per-pair witnesses, not shared words
    assert verify_wm_certificate(CLAMPED, cert)


def test_wm2_certificate_frozen():
    pairs = [
        (IntervalSet.of(F(0), F(1, 4)), IntervalSet.of(F(7, 10), F(4, 5))),
        (IntervalSet.of(F(1, 8), F(3, 8)), IntervalSet.of(F(2, 5), F(3, 5))),
    ]
    cert = wm_certificate(
        CLAMPED, UNIT, UNIT, pairs, kind="wm2",
        budget=SearchBudget(max_horizon=12, required=2),
    )
    assert [w.as_string() for w in cert.words] == ["00", "001"]
    assert cert.lengths == (2, 3)
    assert verify_wm_certificate(CLAMPED, cert)
    # Each shared word hits every pair, re-checked from scratch.
    for w in cert.words:
        for Ui, Vi in pairs:
            assert pull_back_hit(CLAMPED, w, Ui, Vi) is not None


def test_wm_certificate_budget_failure_carries_partial():
    pairs = [
        (IntervalSet.of(F(0), F(1, 4)), IntervalSet.of(F(7, 10), F(4, 5))),
        (IntervalSet.of(F(1, 2), F(3, 5)), IntervalSet.of(F(1, 10), F(1, 5))),
    ]
    # Under the clamp no single word keeps both sources alive to both targets.
    with pytest.raises(BudgetExceeded) as err:
        wm_certificate(
            CLAMPED, UNIT, UNIT, pairs, kind="wm2",
            budget=SearchBudget(max_horizon=8, required=2),
        )
    partial = err.value.partial
    assert partial is not None and not partial.complete


def test_wm_certificate_inadmissible_pair():
    pairs = [(IntervalSet.of(F(2), F(3)), IntervalSet.of(F(9, 10), F(1)))]
    with pytest.raises(InadmissiblePair):
        wm_certificate(CLAMPED, UNIT, UNIT, pairs)


def test_verify_rejects_tampered_certificates():
    pairs = [
        (IntervalSet.of(F(0), F(1, 4)), IntervalSet.of(F(7, 10), F(4, 5))),
        (IntervalSet.of(F(1, 8), F(3, 8)), IntervalSet.of(F(2, 5), F(3, 5))),
    ]
    cert = wm_certificate(
        CLAMPED, UNIT, UNIT, pairs, kind="wm2",
        budget=SearchBudget(max_horizon=12, required=2),
    )
    import dataclasses

    # Dropping a witness breaks the per-pair coverage.
    assert not verify_wm_certificate(
        CLAMPED, dataclasses.replace(cert, witnesses=cert.witnesses[:-1])
    )
    # wm2 lengths must stay strictly increasing.
    assert not verify_wm_certificate(
        CLAMPED,
        dataclasses.replace(
            cert,
            lengths=(cert.lengths[0], cert.lengths[0]),
            words=(cert.words[0], cert.words[0]),
        ),
    )
    # An empty S is never a certificate.
    assert not verify_wm_certificate(
        CLAMPED, dataclasses.replace(cert, lengths=(), words=(), witnesses=())
    )


def test_maps_commute():
    assert maps_commute(rotation_system(F(1, 3), F(2, 7)))
    assert maps_commute(rotation_system(F(5, 21)))
    assert not maps_commute(tent_system())


def test_maps_commute_reads_shadowed_fallback_map_as_applied():
    # f's whole-line piece 2x shadows its fallback x + 1, so f is 2x and
    # f(g(0)) = 2 while g(f(0)) = 1.
    f = PiecewiseAffineMap(
        pieces=(AffinePiece(Interval(NEG_INF, POS_INF), F(2), F(0)),),
        fallback=(F(1), F(1)),
    )
    g = PiecewiseAffineMap.globally(F(1), F(1))
    system = SwitchedSystem(
        maps=(f, g), language=FullShift(2), bounds=Interval(F(0), F(1))
    )
    assert f.value_at(g.value_at(F(0))) == 2 and g.value_at(f.value_at(F(0))) == 1
    assert not maps_commute(system)
    with pytest.raises(PreconditionFailed, match="does not commute"):
        order_reduction(system, U, U, V, V, Word.of(0))


def test_order_reduction_frozen():
    system = rotation_system(F(1, 3), F(2, 7))
    U1 = IntervalSet.of(F(1, 10), F(1, 5))
    V1 = IntervalSet.of(F(3, 5), F(7, 10))
    U2 = IntervalSet.of(F(3, 10), F(2, 5))
    V2 = IntervalSet.of(F(4, 5), F(9, 10))
    # 0011 rotates by 2/3 + 4/7 = 5/21 mod 1, moving U1 into U2 and V1 into V2.
    s = Word.from_string("0011")
    Ur, Vr = order_reduction(system, U1, U2, V1, V2, s)
    assert Ur == IntervalSet.of(F(1, 10), F(17, 105))
    assert Vr == IntervalSet.of(F(3, 5), F(139, 210))
    report = hitting_sets(system, Ur, Vr, budget=SearchBudget(max_horizon=8, required=1))
    assert report.type1 == (5, 8)
    # Every word for the reduced pair is a common hitting word.
    for wit in report.witnesses:
        assert pull_back_hit(system, wit.word, U1, V1) is not None
        assert pull_back_hit(system, wit.word, U2, V2) is not None


def test_order_reduction_preconditions():
    system = rotation_system(F(1, 3), F(2, 7))
    U1 = IntervalSet.of(F(1, 10), F(1, 5))
    V1 = IntervalSet.of(F(3, 5), F(7, 10))
    U2 = IntervalSet.of(F(3, 10), F(2, 5))
    V2 = IntervalSet.of(F(4, 5), F(9, 10))
    with pytest.raises(PreconditionFailed, match="common hitting word"):
        order_reduction(system, U1, U2, V1, V2, Word.of(0))
    with pytest.raises(PreconditionFailed, match="does not commute"):
        order_reduction(tent_system(), U1, U2, V1, V2, Word.of(0))


def test_extend_witness_grows_strictly():
    base = hitting_sets(
        CLAMPED, U, V, budget=SearchBudget(max_horizon=8, required=1)
    ).witnesses[0].word
    lengths = [len(base)]
    cur = base
    for _ in range(5):
        cur = extend_witness(CLAMPED, U, V, cur, budget=SearchBudget(max_horizon=30))
        lengths.append(len(cur))
        assert pull_back_hit(CLAMPED, cur, U, V) is not None
    assert lengths == [4, 5, 6, 7, 8, 9]


def test_extend_witness_returns_only_admissible_words():
    U0 = IntervalSet.of(F(3, 10), F(7, 20))
    V0 = IntervalSet.of(F(3, 4), F(4, 5))
    s = Word.from_string("01")
    # Without 1 0 and 0 0 0, w + 01 is admissible only for w = 0, which does
    # not reach the pull-back; the first hit 01111 gives 0111101.
    no_descent = dataclasses.replace(
        CLAMPED, language=ForbiddenWords(2, ((1, 0), (0, 0, 0)))
    )
    with pytest.raises(BudgetExceeded):
        extend_witness(no_descent, U0, V0, s)
    # Without 1 0 1 the same first hit is skipped for the admissible 011110.
    system = dataclasses.replace(CLAMPED, language=ForbiddenWords(2, ((1, 0, 1),)))
    word = extend_witness(system, U0, V0, s)
    assert word == Word.from_string("01111001")
    assert accepts_prefix(system.automaton, word)
    assert pull_back_hit(system, word, U0, V0) is not None


def test_extend_witness_requires_a_hit():
    with pytest.raises(PreconditionFailed):
        extend_witness(CLAMPED, U, V, Word.from_string("000"))


def test_hit_witness_rejects_inadmissible_words():
    system = rotation_system(F(1, 3), F(2, 7))
    only_ones = dataclasses.replace(system, language=ForbiddenWords(2, ((0,),)))
    U0 = IntervalSet.of(F(0), F(1, 10))
    V0 = IntervalSet.of(F(1, 4), F(1, 2))
    for wit in (
        HitWitness(Word.of(0), "set", source=U0),
        HitWitness(Word.of(0), "point", point=F(1, 20)),
    ):
        assert wit.verify(system, U0, V0)
        assert not wit.verify(only_ones, U0, V0)
