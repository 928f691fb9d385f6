"""Budgeted lexicographic word searches over enclosures and point orbits."""

import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import swmix.search as search
import swmix.spread as spread
from swmix.core import (
    AffinePiece,
    Numerics,
    PiecewiseAffineMap,
    SwitchedSystem,
    eval_interval,
    word_preimage,
)
from swmix.demo import tent_system
from swmix.errors import BudgetExceeded, EmptyRefinement, PreconditionFailed
from swmix.hitting import extend_witness, hitting_sets, pull_back_hit, wm_certificate
from swmix.intervals import NEG_INF, POS_INF, Interval, IntervalSet, _ends_set
from swmix.language import ForbiddenWords, FullShift, walk
from swmix.search import (
    SearchBudget,
    SearchClock,
    first_set_hit,
    iter_point_hits,
    iter_set_hits,
    step_images,
    step_points,
)
from swmix.spread import QNet, build_qnet, certify_spread
from swmix.words import Word

from helpers import (
    UNIT,
    fraction_ends,
    random_system,
    reference_first_set_hit,
    reference_pull_back,
    reference_set_step,
    reference_value,
    rotation_system,
    sweep_systems,
)

TENT = tent_system()
CLAMPED = tent_system(clamp=True)
U = IntervalSet.of(F(0), F(1, 10))
V = IntervalSet.of(F(9, 10), F(1))


def test_iter_set_hits_lexicographic():
    clock = SearchClock(SearchBudget(max_horizon=4))
    words = list(iter_set_hits(CLAMPED, [U], [V], 4, clock))
    assert words == [(0, 0, 0, 0), (0, 0, 0, 1)]
    assert not clock.exceeded


def test_clamp_prunes_escaped_branches():
    # Unclamped, the same level has far more surviving enclosure hits than the
    # clamped tree, whose branches die once they separate from [0, 1].
    free = SearchClock(SearchBudget(max_horizon=4))
    dead = SearchClock(SearchBudget(max_horizon=4))
    open_hits = sum(1 for _ in iter_set_hits(TENT, [U], [V], 4, free))
    clamp_hits = sum(1 for _ in iter_set_hits(CLAMPED, [U], [V], 4, dead))
    assert clamp_hits <= open_hits
    assert dead.count < free.count


def test_budget_exhaustion_is_silent_but_flagged():
    clock = SearchClock(SearchBudget(max_words=5))
    words = list(iter_set_hits(CLAMPED, [U], [V], 6, clock))
    assert clock.exceeded
    assert words == []


def test_clock_stays_stopped_after_its_deadline():
    # The deadline is read on every 1024th call; once it has stopped the
    # clock, no later call may charge a node again.
    clock = SearchClock(SearchBudget(max_seconds=1e-9))
    spent = [clock.spend() for _ in range(3 * 1024)]
    assert spent.index(False) == 1023
    assert not any(spent[1023:])
    assert clock.exceeded and clock.count == 3 * 1024


def test_first_set_hit_shortest_then_lex():
    clock = SearchClock(SearchBudget())
    hit = first_set_hit(CLAMPED, [U], [V], range(1, 9), clock)
    assert hit is not None
    assert hit[0] == (0, 0, 0, 0)
    assert first_set_hit(CLAMPED, [U], [V], range(1, 4), SearchClock(SearchBudget())) is None


def test_clock_lengths_stop_after_the_length_that_runs_out():
    clock = SearchClock(SearchBudget(max_words=3))
    seen = []
    for n in clock.lengths(range(1, 6)):
        seen.append(n)
        if n == 2:
            while clock.spend():
                pass
    assert seen == [1, 2]
    assert list(clock.lengths(range(7, 9))) == [7]


def test_first_set_hit_stops_after_the_length_that_spends_the_budget():
    # Lengths 1-3 hold no hit.  The sweep steps each distinct level key once
    # and reads the hit 0000 off the complete length-4 level: 8 charges (7
    # when the sweep stopped at the first passing key, 11 on the depth-first
    # walk before it); with 7 the 8th charge, at length 4, runs out.
    clock = SearchClock(SearchBudget(max_words=10))
    assert first_set_hit(CLAMPED, [U], [V], range(1, 9), clock)[0] == (0, 0, 0, 0)
    assert (clock.count, clock.exceeded) == (8, False)
    clock = SearchClock(SearchBudget(max_words=7))
    assert first_set_hit(CLAMPED, [U], [V], range(1, 9), clock) is None
    assert (clock.count, clock.exceeded) == (8, True)


def test_first_set_hit_takes_lengths_in_increasing_order():
    # (0,) hits at length 1; lengths given longest first must not return
    # the length-3 hit.
    source = IntervalSet.of(F(1, 10), F(3, 10))
    target = IntervalSet.of(F(3, 10), F(7, 10))
    clock = SearchClock(SearchBudget())
    hit = first_set_hit(CLAMPED, [source], [target], [3, 2, 1], clock)
    assert hit == first_set_hit(CLAMPED, [source], [target], [1], SearchClock(SearchBudget()))
    assert hit[0] == (0,)


def test_word_lengths_below_one_are_rejected():
    # The source meets its target, so the empty word would pass as a hit.
    clock = SearchClock(SearchBudget())
    for lengths in ([0], [-3], [2, 0]):
        with pytest.raises(ValueError, match="at least 1"):
            first_set_hit(CLAMPED, [V], [V], lengths, clock)
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            list(iter_set_hits(CLAMPED, [V], [V], n, clock))
        with pytest.raises(ValueError, match="at least 1"):
            list(iter_point_hits(CLAMPED, [(F(1, 2),)], [(F(1, 2),)], [F(1, 4)], n, clock))
        with pytest.raises(ValueError, match="at least 1"):
            list(walk(CLAMPED.automaton, n, (), lambda value, sym: value))
    assert clock.count == 0


def test_step_images_and_points_respect_kill_box():
    img = (IntervalSet.of(F(3, 5), F(7, 10)),)
    # Map 0 doubles into (1.2, 1.4), fully outside the closed box.
    assert step_images(CLAMPED, img, 0) is None
    assert step_images(TENT, img, 0) is not None
    assert step_points(CLAMPED, (F(3, 5),), 0) is None
    assert step_points(TENT, (F(3, 5),), 0) == (F(6, 5),)
    # The rotation pieces cover (0, 1) only, so (4/5, 6/5) maps partially.
    rot = rotation_system(F(1, 3))
    across = (IntervalSet.of(F(4, 5), F(6, 5)),)
    assert step_images(rot, across, 0) == (IntervalSet.of(F(2, 15), F(1, 3)),)
    assert step_images(rot, across, 0, partial=False) is None
    inside = (IntervalSet.of(F(1, 10), F(1, 5)),)
    assert step_images(rot, inside, 0, partial=False) == (IntervalSet.of(F(13, 30), F(8, 15)),)


def test_iter_point_hits_accept():
    # The clamped tent orbit of 2/5 is 4/5, 2/5, 4/5, ..: every other map
    # leaves the box.  So each stage takes the least length above the last
    # one that lands on 4/5, with the one word that reaches it.
    clock = SearchClock(SearchBudget())
    stages = list(
        iter_point_hits(CLAMPED, [(F(2, 5),)], [(F(4, 5),)], [F(1, 100), F(1, 1000)], 4, clock)
    )
    assert stages == [(1, (((0,), (F(4, 5),)),)), (3, (((0, 1, 0), (F(4, 5),)),))]
    # A stage needs a hit of every group at one length: the orbit of 2/5
    # reaches 4/5 at odd lengths only, that of 4/5 at even ones.
    groups, targets = [(F(2, 5),), (F(4, 5),)], [(F(4, 5),), (F(4, 5),)]
    assert list(iter_point_hits(CLAMPED, groups, targets, [F(1, 100)], 4, clock)) == []
    assert not clock.exceeded


def test_budget_validation():
    for fields, error in [
        ({"max_horizon": 0}, ValueError),
        ({"required": 0}, ValueError),
        ({"max_horizon": 3.5}, TypeError),
        ({"max_horizon": True}, TypeError),
        ({"max_words": "5"}, TypeError),
        ({"required": 2.5}, TypeError),
        ({"max_seconds": "5"}, TypeError),
        ({"max_seconds": True}, TypeError),
        ({"max_seconds": 0}, ValueError),
        ({"max_seconds": -1.5}, ValueError),
        ({"max_seconds": float("nan")}, ValueError),
    ]:
        with pytest.raises(error):
            SearchBudget(**fields)
    assert SearchBudget(max_seconds=5).max_seconds == 5
    assert SearchBudget(max_seconds=0.5).max_seconds == 0.5


# Frozen node counts: the clock is charged once per admissible edge, before
# the step, so pruned branches count and dead automaton edges do not.  The
# walker charges no edge inside a subtree already refuted on the same clock;
# the sweep behind first_set_hit charges the edges of each distinct level
# key once per length.


def test_refuted_first_set_hit_node_count():
    # Rotations commute, so the levels of lengths 1-6 hold few distinct
    # enclosures: the 240 edges of the six plain walks, 100 with
    # dead-subtree sets, fall to 48 on one sweep.
    system = rotation_system(F(1, 3), F(2, 7))
    clock = SearchClock(SearchBudget())
    source = IntervalSet.of(F(1, 10), F(1, 5))
    target = IntervalSet.of(F(21, 100), F(11, 50))
    assert first_set_hit(system, [source], [target], range(1, 7), clock) is None
    assert (clock.count, clock.exceeded) == (48, False)


def _record_set_steps(monkeypatch, calls):
    """Wrap ``search._set_search`` so that every step of the set searches it
    builds appends ``(images, sym)`` to ``calls[-1]`` and is checked against
    the generic loop's step (``helpers.reference_set_step``): the same sets,
    and a branch that dies exactly where that step dies.  The sweep's
    stepper is rebuilt on the recording step, which keeps its levels on one
    denominator only for integer slopes (``K = 1``)."""
    real = search._set_search

    def recording(system, inside, *args, **kwargs):
        assert system._exact().K == 1
        root, step, _, fits, build = real(system, inside, *args, **kwargs)

        def checked(images, sym):
            calls[-1].append((images, sym))
            child = step(images, sym)
            want = reference_set_step(system, tuple(map(build, images)), sym, not inside)
            assert (None if child is None else tuple(map(build, child))) == want
            return child

        return root, checked, search._stepper(checked, system.automaton), fits, build

    monkeypatch.setattr(search, "_set_search", recording)


def test_refuted_first_set_hit_memoises_steps(monkeypatch):
    # No memo: the sweep steps each (key, symbol) of a level once.  The 48
    # charged edges of the refuted search above are 48 set steps over six
    # levels, none repeated within its level (full shift, so a key is its
    # enclosure).  12 of them repeat a step of an earlier level: the
    # cross-length memo it replaced computed 36.
    calls = []
    _record_set_steps(monkeypatch, calls)
    real_level = search._level_step
    monkeypatch.setattr(
        search, "_level_step", lambda *args: calls.append([]) or real_level(*args)
    )
    system = rotation_system(F(1, 3), F(2, 7))
    clock = SearchClock(SearchBudget())
    source = IntervalSet.of(F(1, 10), F(1, 5))
    target = IntervalSet.of(F(21, 100), F(11, 50))
    assert first_set_hit(system, [source], [target], range(1, 7), clock) is None
    assert len(calls) == 6 and all(len(set(level)) == len(level) for level in calls)
    steps = [step for level in calls for step in level]
    assert (clock.count, len(steps), len(set(steps))) == (48, 48, 36)


def test_sets_reached_through_different_slopes_share_one_memo_entry(monkeypatch):
    # x -> 2x and x -> 3x both take (0, inf) to itself.  Its infinite end
    # must stay one infinite float under both maps: then both children of
    # the root are the root's set, the second child is the first one's
    # refuted subtree, and only the root's two steps are computed.  Ends
    # scaled with the slope would make three sets, and walk and step each:
    # (6, 6).
    calls = [[]]
    _record_set_steps(monkeypatch, calls)
    system = SwitchedSystem(
        maps=(PiecewiseAffineMap.globally(F(2), F(0)), PiecewiseAffineMap.globally(F(3), F(0))),
        language=FullShift(2),
        bounds=Interval(F(0), F(1)),
    )
    clock = SearchClock(SearchBudget())
    half_line = IntervalSet.of(F(0), POS_INF)
    miss = IntervalSet.of(F(-2), F(-1))
    assert list(iter_set_hits(system, [half_line], [miss], 2, clock)) == []
    assert (clock.count, len(calls[0])) == (4, 2)


def test_shared_clock_keeps_systems_and_modes_apart():
    # Same sources throughout: a memo or dead set keyed on enclosures and
    # symbol alone would hand the 2/7 rotation the 1/3 rotation's images,
    # and with them its hit: 00 takes (4/5, 1) to (7/15, 2/3) under the 1/3
    # rotation, which meets the target, and to (13/35, 4/7) under the 2/7
    # one, which misses it.  (The level sweeps keep no memo or dead set on
    # the clock.)
    rot3, rot7 = rotation_system(F(1, 3)), rotation_system(F(2, 7))
    across = [IntervalSet.of(F(4, 5), F(6, 5))]
    target = [IntervalSet.of(F(3, 5), F(13, 20))]
    searches = [
        lambda clock: list(iter_set_hits(rot3, across, target, 2, clock)),
        lambda clock: list(iter_set_hits(rot7, across, target, 2, clock)),
    ]
    fresh = [run(SearchClock(SearchBudget())) for run in searches]
    assert fresh[0] != fresh[1]
    shared = SearchClock(SearchBudget())
    assert [run(shared) for run in searches] == fresh


def test_truncated_iter_set_hits_node_count():
    clock = SearchClock(SearchBudget(max_words=20))
    words = ["".join(map(str, syms)) for syms in iter_set_hits(CLAMPED, [U], [V], 7, clock)]
    assert words == [
        "0000000", "0000001", "0000010", "0000011",
        "0000100", "0000101", "0000110", "0000111",
    ]
    assert (clock.count, clock.exceeded) == (21, True)


def test_iter_point_hits_node_count():
    # Golden-mean language: the dead edge after a 1 is never charged.
    golden = SwitchedSystem(
        maps=CLAMPED.maps,
        language=ForbiddenWords(2, ((1, 1),)),
        bounds=CLAMPED.bounds,
        clamp=True,
    )
    clock = SearchClock(SearchBudget())
    # The clamped orbit of 1/5 is 2/5, 4/5, 2/5, 4/5, ..: each level holds
    # one key, whose 2 edges after a 0 and 1 after a 1 are charged once for
    # every stage, 10 over six lengths.  The depth-first point walk this
    # sweep replaced charged these 10 for its length-6 walk alone.
    stages = list(
        iter_point_hits(golden, [(F(1, 5),)], [(F(3, 4),)], [F(1, 4), F(1, 8), F(1, 16)], 6, clock)
    )
    assert stages == [
        (2, (((0, 0), (F(4, 5),)),)),
        (4, (((0, 0, 1, 0), (F(4, 5),)),)),
        (6, (((0, 0, 1, 0, 1, 0), (F(4, 5),)),)),
    ]
    assert (clock.count, clock.exceeded) == (10, False)


# The staged point sweep against plain Fraction orbits of every word: the
# first piece whose open domain holds the value, the closed clamp box, and
# |v - t| < eps; each stage at the least length above the last one where
# every group has a word within eps, with each group's least such word.
# Charges: one per admissible edge out of each distinct (state, values) key
# of every group's levels, up to the last stage's length, or up to the
# first length where a group's orbits have all died.


def reference_point_sweep(system, groups, targets, tolerances, horizon, max_words):
    aut = system.automaton
    box = system.bounds

    def level(points, n):
        """Each surviving word of length n, in lexicographic order, with
        its automaton state and end values."""
        out = []
        for word in itertools.product(range(aut.m), repeat=n):
            state, values = aut.start, points
            for sym in word:
                state = aut.transitions[state][sym]
                values = tuple(reference_value(system.maps[sym], v) for v in values)
                if state < 0 or any(
                    v is None or (system.clamp and not box.lo <= v <= box.hi) for v in values
                ):
                    break
            else:
                out.append((word, state, values))
        return out

    stages, spent, last = [], 0, 0
    tolerances = iter(tolerances)
    eps = next(tolerances, None)
    for n in range(1, horizon + 1):
        if eps is None:
            break
        before = [{(q, v) for _, q, v in level(points, n - 1)} for points in groups]
        spent += sum(
            1 for keys in before for q, _ in keys for r in aut.transitions[q] if r >= 0
        )
        if spent > max_words:
            return stages, max_words + 1, True
        levels = [level(points, n) for points in groups]
        if not all(levels):
            break
        hits = [
            next(((w, v) for w, _, v in words if all(abs(x - t) < eps for x, t in zip(v, ts))), None)
            for words, ts in zip(levels, targets)
        ]
        if None not in hits:
            stages.append((n, tuple(hits)))
            eps = next(tolerances, None)
    return stages, spent, False


SYSTEMS = st.integers(0, 2**32).map(lambda seed: random_system(random.Random(seed)))
VALUES = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.integers(-1, 2),
)
EPSILONS = st.one_of(
    st.fractions(min_value=F(1, 100), max_value=2, max_denominator=100),
    st.integers(1, 2),
)


@settings(max_examples=300, deadline=None)
@given(
    SYSTEMS,
    st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=3),
    st.booleans(),
    st.lists(EPSILONS, min_size=1, max_size=3),
    st.integers(1, 5),
    st.one_of(st.integers(1, 200), st.just(500_000)),
)
# |4/5 - 3/4| is exactly eps: the strict test rejects the only surviving word.
@example(CLAMPED, [(F(2, 5), F(3, 4))], True, [F(1, 20)], 3, 500_000)
# 1/2 lands on the clamp bound 1 under both tent maps, and survives.
@example(CLAMPED, [(F(1, 2), 1), (F(1, 4), F(1, 2))], True, [1], 1, 500_000)
def test_point_hits_match_plain_fraction_orbits(
    system, pairs, shared, tolerances, horizon, max_words
):
    starts, ends = (tuple(v) for v in zip(*pairs))
    if shared:
        groups, targets = [starts], [ends]
    else:
        groups, targets = [(x,) for x in starts], [(t,) for t in ends]
    assert system._exact() is not None
    clock = SearchClock(SearchBudget(max_words=max_words))
    stages = list(iter_point_hits(system, groups, targets, tolerances, horizon, clock))
    want, spent, exceeded = reference_point_sweep(
        system, groups, targets, tolerances, horizon, max_words
    )
    assert stages == want
    assert all(type(v) is F for _, hits in stages for _, values in hits for v in values)
    assert (clock.count, clock.exceeded) == (spent, exceeded)


ENDS = st.fractions(min_value=-1, max_value=2, max_denominator=12)
SETS = st.tuples(ENDS, ENDS).filter(lambda p: p[0] != p[1]).map(
    lambda p: IntervalSet.of(min(p), max(p))
)


@settings(max_examples=150, deadline=None)
@given(
    SYSTEMS,
    st.lists(st.tuples(SETS, SETS), min_size=1, max_size=2),
    st.lists(st.tuples(VALUES, VALUES), min_size=1, max_size=2),
    EPSILONS,
)
def test_walks_with_a_dead_set_yield_the_plain_walks(system, set_pairs, point_pairs, eps):
    # One dead set serves lengths 1..5 in turn, as in a length-first search.
    aut = system.automaton
    min_overlap = system.numerics.min_overlap
    sources, set_targets = zip(*set_pairs)
    starts, point_targets = zip(*point_pairs)
    searches = [
        (
            sources,
            lambda images, sym: step_images(system, images, sym),
            lambda images: all(
                img.intersects(t, min_overlap) for img, t in zip(images, set_targets)
            ),
        ),
        (
            starts,
            lambda values, sym: step_points(system, values, sym),
            lambda values: all(abs(v - t) < eps for v, t in zip(values, point_targets)),
        ),
    ]
    for root, step, leaf in searches:
        dead = set()
        for n in range(1, 6):
            plain = list(walk(aut, n, root, step, leaf=leaf))
            assert list(walk(aut, n, root, step, leaf=leaf, dead=dead)) == plain


# Set walks on flat ends against the walk on sets: step_images through a
# memo as the step, IntervalSet.intersects as the leaf test, and one dead
# set for lengths 1..5, as a length-first search runs them.

WALK_SETS = st.one_of(
    SETS,
    st.sampled_from(
        [
            IntervalSet.of(NEG_INF, F(1, 2)),
            IntervalSet.of(F(1, 3), POS_INF),
            IntervalSet.of(NEG_INF, POS_INF),
            IntervalSet.from_pairs([(F(-1), F(0)), (F(1, 2), F(3, 2))]),
        ]
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    SYSTEMS,
    st.lists(st.tuples(WALK_SETS, WALK_SETS), min_size=1, max_size=2),
    st.one_of(st.integers(1, 200), st.just(500_000)),
)
def test_row_set_walks_match_the_memoised_set_walk(system, set_pairs, max_words):
    sources, targets = zip(*set_pairs)
    rows_clock = SearchClock(SearchBudget(max_words=max_words))
    sets_clock = SearchClock(SearchBudget(max_words=max_words))
    assert system._exact() is not None
    memo = {}

    def step(images, sym):
        if (images, sym) not in memo:
            memo[images, sym] = step_images(system, images, sym)
        return memo[images, sym]

    min_overlap = system.numerics.min_overlap

    def leaf(images):
        return all(img.intersects(t, min_overlap) for img, t in zip(images, targets))

    dead = set()
    for n in range(1, 6):
        got = list(iter_set_hits(system, sources, targets, n, rows_clock))
        walks = walk(system.automaton, n, sources, step, sets_clock.spend, leaf, dead)
        assert got == [word for word, _ in walks]
        assert (rows_clock.count, rows_clock.exceeded) == (sets_clock.count, sets_clock.exceeded)


# The sweep behind first_set_hit (and so extend_witness; test_spread.py
# checks the spread-table rows, whose leaf test is inside) against the
# depth-first walks it replaced (helpers.reference_first_set_hit): the same
# least word, the same sets and the same None, over random automata and
# forbidden factors, clamp on and off, rational and float mode and gapped
# length lists.


LENGTHS = st.one_of(
    st.sampled_from([(2, 5), range(3, 7), (1,), (4, 1, 2), range(1, 6)]),
    st.lists(st.integers(1, 6), min_size=1, max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    sweep_systems(),
    st.lists(st.tuples(WALK_SETS, WALK_SETS), min_size=1, max_size=3),
    LENGTHS,
)
def test_first_set_hit_sweep_matches_the_walk(system, set_pairs, lengths):
    sources, targets = zip(*set_pairs)
    clock = SearchClock(SearchBudget())
    got = first_set_hit(system, sources, targets, lengths, clock)
    want = reference_first_set_hit(system, sources, targets, lengths)
    assert not clock.exceeded
    assert (got is None) == (want is None)
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(
    sweep_systems(),
    SETS,
    SETS,
    st.lists(st.integers(0, 2), min_size=1, max_size=3),
    st.integers(1, 5),
)
def test_extend_witness_sweep_matches_the_walk(system, source, target, s, horizon):
    assume(max(s) < system.automaton.m)
    s = Word(tuple(s))
    budget = SearchBudget(max_horizon=horizon)
    try:
        got = extend_witness(system, source, target, s, budget=budget)
    except (PreconditionFailed, EmptyRefinement, BudgetExceeded) as exc:
        got = type(exc)
    if got in (PreconditionFailed, EmptyRefinement):
        return
    pulled = word_preimage(system, s, target).intersect(source)
    want = reference_first_set_hit(system, [source], [pulled], range(1, horizon + 1), suffix=s)
    assert got == (BudgetExceeded if want is None else Word(want[0]) + s)


def test_an_unfinished_walk_records_no_frame_on_its_stack():
    # Words with two or three 1s out of four hit; the first hit, 0011,
    # follows the refuted subtrees 000 and 0010.
    system = rotation_system(F(1, 3), F(2, 7))
    aut = system.automaton
    root = (IntervalSet.of(F(1, 10), F(1, 5)),)
    target = IntervalSet.of(F(9, 25), F(19, 50))

    def step(images, sym):
        return step_images(system, images, sym)

    def leaf(images):
        return images[0].intersects(target)

    plain = list(walk(aut, 4, root, step, leaf=leaf))
    assert len(plain) == 10 and plain[0][0] == (0, 0, 1, 1)
    stack = [(aut.start, root, 4)]
    for sym in plain[0][0]:
        state, images, rest = stack[-1]
        stack.append((aut.transitions[state][sym], step(images, sym), rest - 1))

    dead = set()
    walker = walk(aut, 4, root, step, leaf=leaf, dead=dead)
    assert next(walker) == plain[0]
    walker.close()
    assert dead and not dead.intersection(stack)
    assert list(walk(aut, 4, root, step, leaf=leaf, dead=dead)) == plain

    # The same holds wherever the clock stops the walk, which has 30 edges.
    for max_words in range(1, 30):
        clock = SearchClock(SearchBudget(max_words=max_words))
        dead = set()
        stopped = list(walk(aut, 4, root, step, clock.spend, leaf, dead))
        assert clock.exceeded and stopped == plain[: len(stopped)]
        assert list(walk(aut, 4, root, step, leaf=leaf, dead=dead)) == plain


def _variant(**changes):
    fields = dict(maps=CLAMPED.maps, language=CLAMPED.language, bounds=CLAMPED.bounds)
    return SwitchedSystem(**{**fields, "clamp": True, **changes})


FLOAT_MAPS = (PiecewiseAffineMap.globally(2.0, 0.0), PiecewiseAffineMap.globally(-2.0, 2.0))


def test_point_search_path_follows_the_mode():
    # The numeric mode alone picks the path: rational mode steps integer
    # points even with float maps or a float clamp end, and float mode the
    # generic loop.  Only the integer path's scalar reads N over D: it gives
    # N/D, the generic one N.
    def exact_path(system):
        return search._point_search(system)[3](1, 2) == F(1, 2)

    assert exact_path(CLAMPED)
    assert exact_path(_variant(bounds=Interval(0.0, 1.0)))
    assert exact_path(_variant(maps=FLOAT_MAPS))
    assert not exact_path(_variant(numerics=Numerics(mode="float")))


def test_point_search_reads_floats_at_their_exact_value():
    # A float point and target in rational mode give the hits of their
    # exact values, as Fractions.
    def hits(x, t, eps):
        clock = SearchClock(SearchBudget())
        return list(iter_point_hits(CLAMPED, [(x,)], [(t,)], [eps], 6, clock))

    got = hits(0.1, 0.4, 0.05)
    assert got == hits(F(0.1), F(0.4), F(0.05))
    assert got and all(type(v) is F for _, hit in got for _, values in hit for v in values)


def test_set_search_path_follows_the_mode(monkeypatch):
    # The set search counterpart: rational mode steps flat ends on one
    # denominator with a float clamp end, float maps or a float source end,
    # float mode steps sets.
    calls = []
    image_ends = search._image_ends
    monkeypatch.setattr(
        search, "step_images", lambda *a, **k: calls.append("sets") or step_images(*a, **k)
    )
    monkeypatch.setattr(
        search, "_image_ends", lambda *a, **k: calls.append("ends") or image_ends(*a, **k)
    )

    def path(system, source=U):
        calls.clear()
        hits = list(iter_set_hits(system, [source], [V], 4, SearchClock(SearchBudget())))
        assert hits
        return set(calls)

    assert path(CLAMPED) == {"ends"}
    assert path(CLAMPED, IntervalSet.of(0.0, 0.1)) == {"ends"}
    assert path(_variant(bounds=Interval(0.0, 1.0))) == {"ends"}
    assert path(_variant(maps=FLOAT_MAPS)) == {"ends"}
    assert path(_variant(numerics=Numerics(mode="float"))) == {"sets"}
    assert path(_variant(numerics=Numerics(mode="float")), IntervalSet.of(0.0, 0.1)) == {"sets"}


SEEDS = (IntervalSet.of(F(1, 4), F(3, 4)), IntervalSet.of(F(3, 8), F(5, 8)))
NET = QNet(radius=F(1, 2), centers=(F(2, 5), F(7, 15), F(8, 15), F(3, 5)))


@pytest.fixture
def spread_clocks(monkeypatch):
    clocks = []

    class RecordingClock(SearchClock):
        def __init__(self, budget):
            super().__init__(budget)
            clocks.append(self)

    monkeypatch.setattr(spread, "SearchClock", RecordingClock)
    return clocks


def test_certify_spread_node_count(spread_clocks):
    # Each candidate sweeps its levels once for all 16 rows, and every row
    # reads its hit off them: 1,146 charges (2,316 when each row swept its
    # own levels, 2,420 on the depth-first walk before that).
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    assert {row.word.as_string() for row in cert.rows} == {"010010"}
    assert len(cert.rows) == 16
    assert [(c.count, c.exceeded) for c in spread_clocks] == [(1146, False)]


def test_certify_spread_budget_node_count(spread_clocks):
    with pytest.raises(BudgetExceeded, match=r"assignment \(0, 3\)"):
        certify_spread(
            TENT, SEEDS, UNIT, F(1, 5), build_qnet(UNIT, F(1, 6)),
            budget=SearchBudget(max_horizon=10, max_words=20_000),
        )
    assert [(c.count, c.exceeded) for c in spread_clocks] == [(20_001, True)]


# The set kernel on one denominator against the generic loops at exact
# values (helpers.reference_set_step and reference_pull_back): random
# rational systems with slopes of both signs whose denominators make K > 1,
# piece domains with infinite ends and with a gap right of the box (so
# total images die there), clamp on and off, min_overlap zero or positive,
# and sets of several components with infinite ends.

KERNEL_SLOPES = st.builds(
    lambda n, d, sign: F(sign * n, d),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([1, -1]),
)
KERNEL_OFFSETS = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
KERNEL_ENDS = st.fractions(min_value=-2, max_value=3, max_denominator=12)


@st.composite
def kernel_maps(draw):
    if draw(st.booleans()):
        return PiecewiseAffineMap.globally(draw(KERNEL_SLOPES), draw(KERNEL_OFFSETS))
    cuts = sorted(draw(st.sets(st.sampled_from([F(k, 6) for k in range(1, 6)]), max_size=2)))
    first = draw(st.sampled_from([NEG_INF, F(-1, 3), F(0)]))
    last = draw(st.sampled_from([POS_INF, F(1), F(4, 3)]))
    ends = [first, *cuts, last]
    if last != POS_INF and draw(st.booleans()):
        ends.append(last + 1)  # a piece past a gap (last, last + 1/2)
    pieces = []
    for lo, hi in zip(ends, ends[1:]):
        if pieces and lo == last:
            lo = last + F(1, 2)
        pieces.append(AffinePiece(Interval(lo, hi), draw(KERNEL_SLOPES), draw(KERNEL_OFFSETS)))
    return PiecewiseAffineMap(tuple(pieces))


@st.composite
def kernel_systems(draw):
    m = draw(st.integers(1, 2))
    return SwitchedSystem(
        maps=tuple(draw(kernel_maps()) for _ in range(m)),
        language=FullShift(m),
        bounds=draw(st.sampled_from([Interval(F(0), F(1)), Interval(F(1, 5), F(4, 5))])),
        clamp=draw(st.booleans()),
        numerics=Numerics(min_overlap=draw(st.sampled_from([0, F(1, 10), F(1, 3)]))),
    )


@st.composite
def kernel_sets(draw):
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(KERNEL_ENDS), draw(KERNEL_ENDS)
        assume(a != b)
        pairs.append([min(a, b), max(a, b)])
    unbounded = draw(st.sampled_from(["", "", "", "", "lo", "hi", "lo hi"]))
    if "lo" in unbounded:
        pairs[0][0] = NEG_INF
    if "hi" in unbounded:
        pairs[-1][1] = POS_INF
    return IntervalSet.from_pairs(pairs)


@settings(max_examples=300, deadline=None)
@given(
    kernel_systems(),
    st.lists(kernel_sets(), min_size=1, max_size=2),
    st.lists(kernel_sets(), min_size=2, max_size=2),
    st.booleans(),
    st.data(),
)
def test_set_kernel_matches_the_generic_loops(system, sources, targets, inside, data):
    # Both set searches follow the word: the sweep one level of one key at a
    # time, whose every child must be the generic loop's step of its symbol
    # (the level's D moving by K per level), and the walker's step on one D
    # that holds the whole word, as iter_set_hits asks its walk record for.
    word = data.draw(st.lists(st.integers(0, system.m - 1), min_size=1, max_size=12))
    goals = targets[: len(sources)]
    min_overlap = system.numerics.min_overlap
    aut = system.automaton
    exact = system._exact()
    for D in (None, search._end_lcm(sources, exact.L) * exact.K ** len(word)):
        clock = SearchClock(SearchBudget())
        values, step, advance, fits, build = search._set_search(system, inside, sources, D)
        sets = tuple(sources)
        test = fits(goals)
        for sym in word:
            children = [reference_set_step(system, sets, s, not inside) for s in range(system.m)]
            if D is not None:
                values = step(values, sym)
            else:
                level = advance({(aut.start, values): ()}, clock)
                want = {}
                for s, child in enumerate(children):
                    if child is not None:
                        want.setdefault(child, (s,))
                got = {tuple(map(build, v)): w for (_, v), w in level.items()}
                assert got == want
                values = next((v for _, v in level if tuple(map(build, v)) == children[sym]), None)
            sets = children[sym]
            assert (values is None) == (sets is None)
            if values is None:
                break
            assert tuple(map(build, values)) == sets
            if inside:
                want_fit = all(s.subset_of(t) for s, t in zip(sets, goals))
            else:
                want_fit = all(s.intersects(t, min_overlap) for s, t in zip(sets, goals))
            assert test(values) == want_fit
    source, target = sources[0], targets[0]
    got = pull_back_hit(system, word, source, target)
    assert got == reference_pull_back(system, word, source, target)
    assert got is None or fraction_ends(got)


# One clock's step memo and dead-subtree sets serve every set walk of a
# system, so their keys must be equal exactly when their sets are.  The
# clock holds the walks' one denominator per system and rescales its keys
# when a later walk needs a larger one.  Words and charges are frozen from
# the row kernel that the set searches stepped before, whose rows were
# canonical on their own.


def _walk_words(system, source, target, n, clock):
    return ["".join(map(str, w)) for w in iter_set_hits(system, [source], [target], n, clock)]


def test_walks_from_sources_on_other_denominators_share_their_keys():
    # Rotation by 1/4 and 1/2: every key of A's walk lies on quarters.  B
    # adds a component on the 1/1000 grid outside the maps' domain, dropped
    # at the first step, so each child of B is a child of A; the second walk
    # rescales the clock's keys from 4 to 1000 and then skips A's refuted
    # subtrees: 26 charges, against 30 on a fresh clock.
    system = rotation_system(F(1, 4), F(1, 2))
    A = IntervalSet.of(F(1, 2), F(3, 4))
    B = IntervalSet.from_pairs([(F(1, 2), F(3, 4)), (F(1), F(1001, 1000))])
    V = IntervalSet.of(F(1, 8), F(3, 16))
    words = ["0011", "0101", "0110", "1001", "1010", "1100"]
    clock = SearchClock(SearchBudget())
    assert _walk_words(system, A, V, 4, clock) == words
    assert clock.count == 30
    assert _walk_words(system, B, V, 4, clock) == words
    assert clock.count == 56
    assert clock._walks(system).D == 1000


def test_walks_over_lengths_with_fractional_slopes_share_their_keys():
    # Slopes 3/2 and -1/3 (K = 6), domain ends on thirds, clamped: a walk of
    # length n asks for a denominator on K**H, n rounded up to a power of
    # two H, so over lengths 1..6, as hitting_sets walks them, the clock
    # rescales its keys at lengths 2, 3 and 5 and ends on 90 * K**8 (90 the
    # lcm of the system's 18 and the source's tenths).
    def pieces(*rows):
        return PiecewiseAffineMap(
            tuple(AffinePiece(Interval(lo, hi), a, b) for lo, hi, a, b in rows)
        )

    system = SwitchedSystem(
        maps=(
            pieces((NEG_INF, F(2, 3), F(3, 2), F(0)), (F(2, 3), POS_INF, F(-1, 3), F(11, 9))),
            pieces((NEG_INF, F(1, 3), F(-1, 3), F(1, 3)), (F(1, 3), POS_INF, F(3, 2), F(-1, 2))),
        ),
        language=FullShift(2),
        bounds=Interval(F(0), F(1)),
        clamp=True,
    )
    U, V = IntervalSet.of(F(1, 10), F(1, 5)), IntervalSet.of(F(7, 10), F(3, 4))
    clock = SearchClock(SearchBudget(max_horizon=6))
    words = [_walk_words(system, U, V, n, clock) for n in range(1, 7)]
    assert words == [
        [],
        [],
        [],
        ["0000"],
        ["00001", "00010", "10010"],
        ["000001", "000010", "000011", "000100", "001100", "010001", "110001"],
    ]
    assert clock.count == 236
    assert clock._walks(system).D == 90 * 6**8


def test_sweep_denominator_grows_with_the_depth_reached():
    # x/2 + 1/3 and 2x - 1/5 (K = 2), clamped: a sweep's level on D steps to
    # one on D*K, whatever its horizon, so its integers grow with the depth
    # it reaches.  The first hit is at length 9 (284 charges) whether the
    # sweep may go on to length 9 or to 10**6, and after 9 levels of a sweep
    # to 10**6 every end lies on 30 * 2**9 (30 the lcm of the offsets'
    # fifteenths and the source's tenths), as the exact images' ends do.
    system = SwitchedSystem(
        maps=(
            PiecewiseAffineMap.globally(F(1, 2), F(1, 3)),
            PiecewiseAffineMap.globally(F(2), F(-1, 5)),
        ),
        language=FullShift(2),
        bounds=Interval(F(0), F(1)),
        clamp=True,
    )
    U, T = IntervalSet.of(F(1, 10), F(1, 5)), IntervalSet.of(F(5), F(6))
    for far in (9, 10**6):
        clock = SearchClock(SearchBudget(max_words=200_000))
        word, _ = first_set_hit(system, [U], [T], [9, far], clock)
        assert (word, clock.count) == ((1, 1, 1, 0, 1, 1, 1, 1, 1), 284)
    clock = SearchClock(SearchBudget())
    root, _, advance, _, build = search._set_search(system, False, [U])
    level = {(system.automaton.start, root): ()}
    for _ in range(9):
        level = advance(level, clock)
    for (_, (ends,)), word in level.items():
        assert _ends_set(ends, 30 * 2**9) == build(ends) == eval_interval(system, word, U)


# The walker's set-up (root ends, memoised step, leaf test) is built once
# per (sources, targets) in the clock's walk record and reused over lengths
# while the record's D holds; the record drops every set-up when it
# rescales.


def _count_builds(monkeypatch):
    """Wrap ``search._set_search`` to record the ``D`` of each walker build
    (a rational set search given the walk record's ``D``)."""
    builds, real = [], search._set_search

    def counting(system, inside, sources, D=None):
        if D is not None:
            builds.append(D)
        return real(system, inside, sources, D)

    monkeypatch.setattr(search, "_set_search", counting)
    return builds


def test_hitting_sets_builds_one_walk_set_up(monkeypatch):
    builds = _count_builds(monkeypatch)
    report = hitting_sets(CLAMPED, U, V, budget=SearchBudget(max_horizon=8))
    assert report.type1 and report.exhausted
    assert len(builds) == 1


def test_wm1_builds_one_walk_set_up_per_pair(monkeypatch):
    builds = _count_builds(monkeypatch)
    pairs = [
        (IntervalSet.of(F(1, 10), F(1, 5)), IntervalSet.of(F(3, 5), F(7, 10))),
        (IntervalSet.of(F(3, 10), F(2, 5)), IntervalSet.of(F(4, 5), F(9, 10))),
    ]
    cert = wm_certificate(CLAMPED, UNIT, UNIT, pairs, kind="wm1")
    assert cert.lengths == (3, 4, 5)
    assert len(builds) == 2


def test_walks_on_fractional_slopes_rebuild_only_when_the_clock_rescales(monkeypatch):
    # x/2 + 1/3 and 2x - 1/5 (K = 2), clamped: a walk of length n needs
    # 30 * K**H, n rounded up to a power of two H, so over lengths 1..10 the
    # clock's D grows at lengths 1, 2, 3, 5 and 9 and the set-up is built
    # again there and only there.  A second source with ends on sixths has
    # the same lcm(L, ends) = 30, so the held D serves all its lengths: one
    # build, at length 1.
    builds = _count_builds(monkeypatch)
    system = SwitchedSystem(
        maps=(
            PiecewiseAffineMap.globally(F(1, 2), F(1, 3)),
            PiecewiseAffineMap.globally(F(2), F(-1, 5)),
        ),
        language=FullShift(2),
        bounds=Interval(F(0), F(1)),
        clamp=True,
    )
    T = IntervalSet.of(F(2, 5), F(3, 5))
    clock = SearchClock(SearchBudget())
    held, built = [], []
    for n in range(1, 11):
        before = len(builds)
        list(iter_set_hits(system, [IntervalSet.of(F(1, 10), F(1, 5))], [T], n, clock))
        held.append(clock._walks(system).D)
        built += [n] * (len(builds) - before)
    grew = [n for n in range(1, 11) if n == 1 or held[n - 1] != held[n - 2]]
    assert grew == [1, 2, 3, 5, 9]
    assert built == grew and builds == [held[n - 1] for n in grew]
    assert held[-1] == 30 * 2**16
    builds.clear()
    for n in range(1, 11):
        list(iter_set_hits(system, [IntervalSet.of(F(1, 3), F(1, 2))], [T], n, clock))
    assert builds == [30 * 2**16]


def test_a_rescale_scales_the_dead_sets_of_its_own_walk_record_only():
    # Each system's walk record holds its own dead sets, so the rescale at
    # length 5 of the K = 2 system above moves its dead keys to the new D
    # and leaves the tent's record as it was.
    system = SwitchedSystem(
        maps=(
            PiecewiseAffineMap.globally(F(1, 2), F(1, 3)),
            PiecewiseAffineMap.globally(F(2), F(-1, 5)),
        ),
        language=FullShift(2),
        bounds=Interval(F(0), F(1)),
        clamp=True,
    )
    S, T = [IntervalSet.of(F(1, 10), F(1, 5))], (IntervalSet.of(F(2, 5), F(3, 5)),)
    clock = SearchClock(SearchBudget())
    for s in (system, CLAMPED):
        list(iter_set_hits(s, S, T, 3, clock))
    record, tent = clock._walks(system), clock._walks(CLAMPED).dead
    D, dead = record.D, record.dead[T]
    list(iter_set_hits(system, S, T, 5, clock))
    f = record.D // D
    assert dead and f > 1 and clock._walks(CLAMPED).dead is tent
    want = {(q, tuple(tuple(e * f for e in ends) for ends in v), r) for q, v, r in dead}
    assert want <= record.dead[T]


def test_set_searches_refuse_unmatched_sources_and_targets():
    # all(map(test, values, goals)) stops at the shorter list, so on the
    # clamped tent the walk yielded 001 and the sweep returned 00, though no
    # image meets (5, 6).
    source = IntervalSet.of(F(1, 10), F(1, 5))
    near, far = IntervalSet.of(F(7, 10), F(4, 5)), IntervalSet.of(F(5), F(6))
    for numerics in (Numerics(), Numerics(mode="float")):
        system = tent_system(clamp=True, numerics=numerics)
        for sources, targets in (([source], [near, far]), ([source, source], [near])):
            clock = SearchClock(SearchBudget())
            with pytest.raises(ValueError, match="one target per source"):
                list(iter_set_hits(system, sources, targets, 3, clock))
            with pytest.raises(ValueError, match="one target per source"):
                first_set_hit(system, sources, targets, [1, 2, 3], clock)


# Interleaved walks on one clock against a fresh clock per call: two groups
# of (sources, targets) whose ends lie on tenths and on sevenths, so the
# second group's first walk rescales the clock's keys and drops the first
# group's set-up, in both modes, on integer slopes (K = 1) and on
# fractional ones (K > 1, rescaling again with the length).

SETUP_SLOPES = {False: [F(2), F(-2), F(3), F(1), F(-1)], True: [F(1, 2), F(3, 2), F(-1, 3), F(2)]}


@st.composite
def setup_systems(draw):
    slopes = SETUP_SLOPES[draw(st.booleans())]
    maps = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            maps.append(
                PiecewiseAffineMap.globally(
                    draw(st.sampled_from(slopes)), F(draw(st.integers(-3, 3)), 4)
                )
            )
        else:
            cut = draw(st.sampled_from([F(1, 3), F(1, 2), F(2, 3)]))
            maps.append(
                PiecewiseAffineMap(
                    tuple(
                        AffinePiece(dom, draw(st.sampled_from(slopes)), F(draw(st.integers(-3, 3)), 4))
                        for dom in (Interval(NEG_INF, cut), Interval(cut, POS_INF))
                    )
                )
            )
    mode = draw(st.sampled_from(["rational", "float"]))
    return SwitchedSystem(
        maps=tuple(maps),
        language=FullShift(len(maps)),
        bounds=Interval(F(0), F(1)),
        clamp=draw(st.booleans()),
        numerics=Numerics(mode=mode),
    )


def setup_sets(grid, mode):
    # The left end's numerator is prime to the grid, so every tuple of these
    # sets has an end denominator of exactly the grid.
    value = F if mode == "rational" else (lambda n, d: n / d)

    @st.composite
    def sets(draw):
        lo = draw(st.integers(-grid, 2 * grid - 1).filter(lambda n: gcd(n, grid) == 1))
        hi = draw(st.integers(lo + 1, 2 * grid))
        return IntervalSet.of(value(lo, grid), value(hi, grid))

    return sets()


@st.composite
def setup_groups(draw, system):
    mode = system.numerics.mode
    groups = []
    for grid in (10, 7):
        k = draw(st.integers(1, 2))
        sets = setup_sets(grid, mode)
        groups.append(
            (draw(st.lists(sets, min_size=k, max_size=k)), draw(st.lists(sets, min_size=k, max_size=k)))
        )
    return groups


@settings(max_examples=150, deadline=None)
@given(setup_systems(), st.data())
def test_interleaved_walks_on_one_clock_match_fresh_clocks(system, data):
    groups = data.draw(setup_groups(system))
    order = data.draw(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=10))
    clock = SearchClock(SearchBudget())
    lengths = [1, 1]
    for g in order:
        sources, targets = groups[g]
        n = lengths[g]
        lengths[g] += 1
        got = list(iter_set_hits(system, sources, targets, n, clock))
        want = list(iter_set_hits(system, sources, targets, n, SearchClock(SearchBudget())))
        assert repr(got) == repr(want)
    assert not clock.exceeded
    if system._exact() is not None and set(order) == {0, 1}:
        assert clock._walks(system).D % 70 == 0
