"""Hitting-time sets, weak-mixing certificates, and order reduction."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swmix import hitting
from swmix.core import AffinePiece, Numerics, PiecewiseAffineMap, SwitchedSystem
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

from helpers import (
    SLOPES,
    UNIT,
    random_map,
    reference_pull_back,
    reference_value,
    rotation_system,
)

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


@pytest.mark.parametrize("max_words, words", [(16, ["0000"]), (17, ["0000", "0001"])])
def test_hitting_sets_node_budget_keeps_the_length_it_stopped_in(max_words, words):
    report = hitting_sets(
        CLAMPED, U, V, budget=SearchBudget(max_horizon=6, max_words=max_words)
    )
    assert report.type1 == (4,)
    assert report.exhausted is False
    assert [w.as_string() for w in report.words()] == words


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


# pull_back_hit on integer rows against the three IntervalSet passes it
# replaced: the same result in value, endpoint type and repr, or None alike.

OFFSETS = st.builds(F, st.integers(-2, 2), st.integers(1, 3))


@st.composite
def exact_maps(draw):
    """``helpers.random_map``'s maps, drawn: global, or two pieces split at
    an eighth, whose outer domain ends are ints, Fractions or infinite."""
    if draw(st.booleans()):
        return PiecewiseAffineMap.globally(draw(st.sampled_from(SLOPES)), draw(OFFSETS))
    c = F(draw(st.integers(1, 7)), 8)
    lo = draw(st.sampled_from([0, F(0), NEG_INF]))
    hi = draw(st.sampled_from([1, F(1), POS_INF]))
    return PiecewiseAffineMap(
        pieces=tuple(
            AffinePiece(domain, draw(st.sampled_from(SLOPES)), draw(OFFSETS))
            for domain in (Interval(lo, c), Interval(c, hi))
        )
    )


@st.composite
def exact_sets(draw):
    """One to three open intervals with ends on eighths in [-2, 3], each an
    int whenever its value is whole and a coin says so; now and then an
    infinite end."""
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = sorted(draw(st.lists(st.integers(-16, 24), min_size=2, max_size=2, unique=True)))
        ends = [F(a, 8), F(b, 8)]
        ends = [int(e) if e.denominator == 1 and draw(st.booleans()) else e for e in ends]
        if draw(st.integers(0, 7)) == 0:
            ends[0] = NEG_INF
        if draw(st.integers(0, 7)) == 0:
            ends[1] = POS_INF
        pairs.append(ends)
    return IntervalSet.from_pairs(pairs)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_row_pull_back_matches_the_interval_set_passes(data):
    maps = tuple(data.draw(st.lists(exact_maps(), min_size=1, max_size=3)))
    system = SwitchedSystem(maps=maps, language=FullShift(len(maps)), bounds=Interval(F(0), F(1)))
    word = data.draw(st.lists(st.integers(0, len(maps) - 1), min_size=1, max_size=6))
    source, target = data.draw(exact_sets()), data.draw(exact_sets())
    want = reference_pull_back(system, word, source, target)
    assert repr(pull_back_hit(system, word, source, target)) == repr(want)


def test_row_pull_back_keeps_the_pulled_end_on_a_tie():
    # x/2 carries (0, 1) onto (0, 1/2); the overlap (0, 1/4) pulls back to
    # (0, 1/2), whose Fraction 0 ties with the source's int 0 and is kept.
    half = PiecewiseAffineMap.globally(F(1, 2), F(0))
    system = SwitchedSystem(maps=(half,), language=FullShift(1), bounds=Interval(F(0), F(1)))
    got = pull_back_hit(system, (0,), IntervalSet.of(0, 1), IntervalSet.of(F(-1), F(1, 4)))
    assert repr(got) == repr(IntervalSet.of(F(0), F(1, 2)))
    # x on (-1, 1) and x - 1/2 on (1, 3) carry (0, 2) onto (0, 3/2), which
    # pulls back to (0, 1) and (1, 2), cut by the int domain end 1 lying
    # strictly inside; both are as wide, and the first is returned.
    split = PiecewiseAffineMap(
        pieces=(
            AffinePiece(Interval(F(-1), 1), F(1), F(0)),
            AffinePiece(Interval(1, F(3)), F(1), F(-1, 2)),
        )
    )
    system = SwitchedSystem(maps=(split,), language=FullShift(1), bounds=Interval(F(0), F(1)))
    got = pull_back_hit(system, (0,), IntervalSet.of(F(0), F(2)), IntervalSet.of(F(-1), F(3)))
    assert repr(got) == repr(IntervalSet.of(F(0), 1))


def test_float_pull_back_of_an_unbounded_overlap_gives_up():
    # 2x on the whole line in float mode: the overlap (0, inf) pulls back
    # to an outward-rounded set whose image leaves V, and an unbounded
    # component cannot be shrunk inward, so no sub-source certifies.
    system = SwitchedSystem(
        maps=(PiecewiseAffineMap.globally(2.0, 0.0),),
        language=FullShift(1),
        bounds=Interval(0.0, 1.0),
        numerics=Numerics(mode="float"),
    )
    whole, right = IntervalSet.of(NEG_INF, POS_INF), IntervalSet.of(0.0, POS_INF)
    assert pull_back_hit(system, (0,), whole, right) is None
    report = hitting_sets(system, whole, right, budget=SearchBudget(max_horizon=2))
    assert report.type1 == () and report.exhausted is False


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


WM_BUDGET_PAIRS = [
    (IntervalSet.of(F(0), F(1, 4)), IntervalSet.of(F(7, 10), F(4, 5))),
    (IntervalSet.of(F(1, 8), F(3, 8)), IntervalSet.of(F(2, 5), F(3, 5))),
]


@pytest.mark.parametrize(
    "kind, max_words, length, lengths",
    [("wm1", 10, 3, (2,)), ("wm2", 3, 2, ())],
)
def test_wm_certificate_node_budget_stops_partway(kind, max_words, length, lengths):
    with pytest.raises(BudgetExceeded, match=f"node budget exhausted at length {length}$") as err:
        wm_certificate(
            CLAMPED, UNIT, UNIT, WM_BUDGET_PAIRS, kind=kind,
            budget=SearchBudget(max_horizon=12, required=2, max_words=max_words),
        )
    partial = err.value.partial
    assert partial.kind == kind and partial.lengths == lengths
    assert not partial.complete


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


@pytest.mark.parametrize("kind, word", [("wm1", "1"), ("wm2", "1"), ("wm2", "11")])
def test_verify_rejects_an_extra_false_witness(kind, word):
    # Word 1 has a length outside S; 11 has length 2 in S but is not its
    # shared word 00.  Neither sends U0 anywhere near V0.
    cert = wm_certificate(
        CLAMPED, UNIT, UNIT, WM_BUDGET_PAIRS, kind=kind,
        budget=SearchBudget(max_horizon=12, required=2),
    )
    assert cert.lengths == (2, 3) and verify_wm_certificate(CLAMPED, cert)
    extra = HitWitness(Word.from_string(word), "set", source=WM_BUDGET_PAIRS[0][0])
    tampered = dataclasses.replace(cert, witnesses=cert.witnesses + ((0, extra),))
    assert not verify_wm_certificate(CLAMPED, tampered)


@pytest.mark.parametrize("index", [2, -1, 0.5, 1.0, "0", True])
def test_verify_rejects_a_witness_without_an_integer_pair_index(index):
    cert = wm_certificate(
        CLAMPED, UNIT, UNIT, WM_BUDGET_PAIRS, kind="wm1",
        budget=SearchBudget(max_horizon=12, required=2),
    )
    (_, wit), *rest = cert.witnesses
    tampered = dataclasses.replace(cert, witnesses=((index, wit), *rest))
    assert not verify_wm_certificate(CLAMPED, tampered)


def test_maps_commute():
    assert maps_commute(rotation_system(F(1, 3), F(2, 7)))
    assert maps_commute(rotation_system(F(5, 21)))
    assert not maps_commute(tent_system())
    # 2x + 1 and 3x + 2 both fix -1, so both compositions are 6x + 5.
    affine = SwitchedSystem(
        maps=(
            PiecewiseAffineMap.globally(F(2), F(1)),
            PiecewiseAffineMap.globally(F(3), F(2)),
        ),
        language=FullShift(2),
        bounds=Interval(F(-2), F(2)),
    )
    assert maps_commute(affine)


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


def test_maps_commute_refuses_piecewise_maps_on_an_unbounded_box():
    # f is 2x left of 0 and 3x right of it, g is x + 1: f(g(-1/2)) = 3/2 but
    # g(f(-1/2)) = 0, on bounded and unbounded boxes alike.
    f = PiecewiseAffineMap(
        pieces=(
            AffinePiece(Interval(NEG_INF, F(0)), F(2), F(0)),
            AffinePiece(Interval(F(0), POS_INF), F(3), F(0)),
        )
    )
    g = PiecewiseAffineMap.globally(F(1), F(1))
    for bounds in (Interval(F(-1), F(1)), Interval(NEG_INF, POS_INF), Interval(F(0), POS_INF)):
        system = SwitchedSystem(maps=(f, g), language=FullShift(2), bounds=bounds)
        assert not maps_commute(system)
    whole = IntervalSet.of(NEG_INF, POS_INF)
    with pytest.raises(PreconditionFailed, match="does not commute"):
        order_reduction(system, whole, whole, whole, whole, Word.of(1))


def test_maps_commute_accepts_commuting_piecewise_maps_on_an_unbounded_box():
    # f is 2x left of 0 and 3x right of it, g is 4x and 5x: both compositions
    # are 8x left of 0 and 15x right of it.
    f = PiecewiseAffineMap(
        pieces=(
            AffinePiece(Interval(NEG_INF, F(0)), F(2), F(0)),
            AffinePiece(Interval(F(0), POS_INF), F(3), F(0)),
        )
    )
    g = PiecewiseAffineMap(
        pieces=(
            AffinePiece(Interval(NEG_INF, F(0)), F(4), F(0)),
            AffinePiece(Interval(F(0), POS_INF), F(5), F(0)),
        )
    )
    for bounds in (Interval(F(-1), F(1)), Interval(NEG_INF, POS_INF), Interval(NEG_INF, F(0))):
        system = SwitchedSystem(maps=(f, g), language=FullShift(2), bounds=bounds)
        assert maps_commute(system)


def test_maps_commute_finds_a_narrow_window_of_difference():
    # f is 2x - 1/2 on (4995/10000, 5005/10000) and x elsewhere, g is x + 1/10:
    # the two differ only where g moves x into f's window of width 1/1000.
    f = PiecewiseAffineMap(
        pieces=(
            AffinePiece(Interval(F(-10), F(4995, 10000)), F(1), F(0)),
            AffinePiece(Interval(F(4995, 10000), F(5005, 10000)), F(2), F(-1, 2)),
            AffinePiece(Interval(F(5005, 10000), F(10)), F(1), F(0)),
        )
    )
    g = PiecewiseAffineMap.globally(F(1), F(1, 10))
    x = F(4001, 10000)
    assert f.value_at(g.value_at(x)) == F(2501, 5000)
    assert g.value_at(f.value_at(x)) == F(5001, 10000)
    system = SwitchedSystem(maps=(f, g), language=FullShift(2), bounds=Interval(F(0), F(1)))
    assert not maps_commute(system)
    with pytest.raises(PreconditionFailed, match="does not commute"):
        order_reduction(system, U, U, V, V, Word.of(1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(["random", "same", "identity"]))
def test_maps_commute_matches_a_grid_on_random_maps(seed, second):
    # random_map breaks at k/8 with slopes n/d (n <= 3, d <= 2) and offsets
    # i/j (j <= 3), so every breakpoint and every pull-back of one lies on
    # the grid of 1/72.  Two points in each grid cell then lie in one cell of
    # both compositions, where two affine maps that agree twice are equal.
    rng = random.Random(seed)
    f = random_map(rng)
    g = {"random": random_map(rng), "same": f, "identity": PiecewiseAffineMap.globally(1, 0)}
    system = SwitchedSystem(
        maps=(f, g[second]), language=FullShift(2), bounds=Interval(F(0), F(1))
    )

    def composed(outer, inner, x):
        y = reference_value(inner, x)
        return None if y is None else reference_value(outer, y)

    want = True
    for i in range(144):
        x = F(2 * i + 1, 288)
        one, two = composed(f, g[second], x), composed(g[second], f, x)
        if one is not None and two is not None and one != two:
            want = False
    assert maps_commute(system) == want


def test_commutation_verdict_is_computed_once_per_system(monkeypatch):
    system = rotation_system(F(1, 3), F(2, 7))
    U1, V1 = IntervalSet.of(F(1, 10), F(1, 5)), IntervalSet.of(F(3, 5), F(7, 10))
    U2, V2 = IntervalSet.of(F(3, 10), F(2, 5)), IntervalSet.of(F(4, 5), F(9, 10))
    s = Word.from_string("0011")
    calls = []
    pair_commutes = hitting._pair_commutes
    monkeypatch.setattr(
        hitting, "_pair_commutes", lambda *args: calls.append(args) or pair_commutes(*args)
    )
    first = order_reduction(system, U1, U2, V1, V2, s)
    assert len(calls) == 1  # the verdict on the one pair of maps
    calls.clear()
    assert order_reduction(system, U1, U2, V1, V2, s) == first
    assert calls == []


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


def test_extend_witness_node_budget():
    # The first extension, 01101 + 01, is found on the 28th charge.
    U0 = IntervalSet.of(F(3, 10), F(7, 20))
    V0 = IntervalSet.of(F(3, 4), F(4, 5))
    s = Word.from_string("01")
    word = extend_witness(CLAMPED, U0, V0, s, budget=SearchBudget(max_words=28))
    assert word == Word.from_string("0110101")
    with pytest.raises(BudgetExceeded, match="^no extension found within budget$"):
        extend_witness(CLAMPED, U0, V0, s, budget=SearchBudget(max_words=27))


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
