"""Budgeted lexicographic word searches over enclosures and point orbits."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swmix.search as search
import swmix.spread as spread
from swmix.core import Numerics, PiecewiseAffineMap, SwitchedSystem
from swmix.demo import tent_system
from swmix.errors import BudgetExceeded
from swmix.intervals import NEG_INF, POS_INF, Interval, IntervalSet
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

from helpers import UNIT, random_system, reference_value, rotation_system

TENT = tent_system()
CLAMPED = tent_system(clamp=True)
U = IntervalSet.of(F(0), F(1, 10))
V = IntervalSet.of(F(9, 10), F(1))


def test_iter_set_hits_lexicographic():
    clock = SearchClock(SearchBudget(max_horizon=4))
    words = [syms for syms, _ in iter_set_hits(CLAMPED, [U], [V], 4, clock)]
    assert words == [(0, 0, 0, 0), (0, 0, 0, 1)]
    assert not clock.exceeded


def test_iter_set_hits_yields_final_enclosures():
    clock = SearchClock(SearchBudget())
    syms, images = next(iter(iter_set_hits(CLAMPED, [U], [V], 4, clock)))
    assert syms == (0, 0, 0, 0)
    assert images[0].intersects(V)


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
    # Lengths 1-3 hold no hit; the 11th charge, at length 4, runs out.
    clock = SearchClock(SearchBudget(max_words=10))
    assert first_set_hit(CLAMPED, [U], [V], range(1, 9), clock) is None
    assert (clock.count, clock.exceeded) == (11, True)


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
    clock = SearchClock(SearchBudget())
    hits = [
        syms
        for syms, _ in iter_point_hits(
            CLAMPED, (F(2, 5),), (F(4, 5),), F(1, 1000), 3, clock
        )
    ]
    # Clamped tent orbits are single-branch away from 1/2, so exactly one word.
    assert hits == [(0, 1, 0)]


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
# the step, so pruned branches count and dead automaton edges do not, and
# neither do the edges inside a subtree already refuted on the same clock.


def test_refuted_first_set_hit_node_count():
    # Rotations commute, so most prefixes of one length reach an enclosure
    # and a remaining depth that an earlier prefix already refuted: the 240
    # edges of the six plain walks fall to 100.
    system = rotation_system(F(1, 3), F(2, 7))
    clock = SearchClock(SearchBudget())
    source = IntervalSet.of(F(1, 10), F(1, 5))
    target = IntervalSet.of(F(21, 100), F(11, 50))
    assert first_set_hit(system, [source], [target], range(1, 7), clock) is None
    assert (clock.count, clock.exceeded) == (100, False)


def test_refuted_first_set_hit_memoises_steps(monkeypatch):
    # The 100 charged edges of the refuted search above reach only 36
    # distinct (enclosures, symbol) steps across its six word lengths; the
    # exact search steps rows, so its memo misses are _step_rows calls.
    calls = []
    real = search._step_rows
    monkeypatch.setattr(search, "_step_rows", lambda *args: calls.append(args) or real(*args))
    system = rotation_system(F(1, 3), F(2, 7))
    clock = SearchClock(SearchBudget())
    source = IntervalSet.of(F(1, 10), F(1, 5))
    target = IntervalSet.of(F(21, 100), F(11, 50))
    assert first_set_hit(system, [source], [target], range(1, 7), clock) is None
    assert (clock.count, len(calls)) == (100, 36)


def test_sets_reached_through_different_slopes_share_one_memo_entry(monkeypatch):
    # x -> 2x and x -> 3x both take (0, inf) to itself.  Its infinite end
    # must be one row, (1, 0), under both maps: then both children of the
    # root are the root's set, the second child is the first one's refuted
    # subtree, and only the root's two steps are computed.  Rows (2, 0) and
    # (3, 0) would make three sets, and walk and step each: (6, 6).
    calls = []
    real = search._step_rows
    monkeypatch.setattr(search, "_step_rows", lambda *args: calls.append(args) or real(*args))
    system = SwitchedSystem(
        maps=(PiecewiseAffineMap.globally(F(2), F(0)), PiecewiseAffineMap.globally(F(3), F(0))),
        language=FullShift(2),
        bounds=Interval(F(0), F(1)),
    )
    clock = SearchClock(SearchBudget())
    half_line = IntervalSet.of(F(0), POS_INF)
    miss = IntervalSet.of(F(-2), F(-1))
    assert list(iter_set_hits(system, [half_line], [miss], 2, clock)) == []
    assert (clock.count, len(calls)) == (4, 2)


def test_shared_clock_keeps_systems_and_modes_apart():
    # Same sources throughout: a memo keyed on enclosures and symbol alone
    # would hand the 2/7 rotation the 1/3 rotation's images, and the strict
    # search the partial search's surviving branch.
    rot3, rot7 = rotation_system(F(1, 3)), rotation_system(F(2, 7))
    across = [IntervalSet.of(F(4, 5), F(6, 5))]
    searches = [
        lambda clock: list(iter_set_hits(rot3, across, [UNIT], 2, clock)),
        lambda clock: list(iter_set_hits(rot7, across, [UNIT], 2, clock)),
        lambda clock: spread._inclusion_word(rot3, across, [UNIT], range(1, 3), clock),
        lambda clock: spread._inclusion_word(rot7, across, [UNIT], range(1, 3), clock),
    ]
    fresh = [run(SearchClock(SearchBudget())) for run in searches]
    assert fresh[0] != fresh[1] and fresh[2] is None
    shared = SearchClock(SearchBudget())
    assert [run(shared) for run in searches] == fresh


def test_truncated_iter_set_hits_node_count():
    clock = SearchClock(SearchBudget(max_words=20))
    words = ["".join(map(str, syms)) for syms, _ in iter_set_hits(CLAMPED, [U], [V], 7, clock)]
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
    # Within 1/4 of 3/4: the orbit ends in (1/2, 1).
    hits = list(iter_point_hits(golden, (F(1, 5),), (F(3, 4),), F(1, 4), 6, clock))
    assert hits == [((0, 0, 1, 0, 1, 0), (F(4, 5),))]
    assert (clock.count, clock.exceeded) == (10, False)


# Point searches against a plain Fraction orbit loop: depth-first in symbol
# order, one clock charge per admissible edge before its step, the first
# piece whose open domain holds the value, the closed clamp box, |v - t| <
# eps at every leaf, and a child not entered when a finished subtree above the
# leaves with the same (state, values, remaining) key held no hit.


def reference_point_hits(system, starts, targets, eps, length, max_words):
    aut = system.automaton
    box = system.bounds
    hits = []
    dead = set()
    spent = 0

    def visit(state, values, word) -> bool:
        nonlocal spent
        found = len(hits)
        if len(word) == length:
            if all(abs(v - t) < eps for v, t in zip(values, targets)):
                hits.append((word, values))
        else:
            for sym in range(aut.m):
                nxt = aut.transitions[state][sym]
                if nxt < 0:
                    continue
                spent += 1
                if spent > max_words:
                    return False
                vals = tuple(reference_value(system.maps[sym], v) for v in values)
                if any(
                    v is None or (system.clamp and not box.lo <= v <= box.hi)
                    for v in vals
                ):
                    continue
                if (nxt, vals, length - len(word) - 1) in dead:
                    continue
                if not visit(nxt, vals, word + (sym,)):
                    return False
            if len(hits) == found:
                dead.add((state, values, length - len(word)))
        return True

    visit(aut.start, tuple(starts), ())
    return hits, spent, spent > max_words


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
    EPSILONS,
    st.integers(1, 5),
    st.one_of(st.integers(1, 200), st.just(500_000)),
)
# |4/5 - 3/4| is exactly eps: the strict test rejects the only surviving word.
@example(CLAMPED, [(F(2, 5), F(3, 4))], F(1, 20), 3, 500_000)
# 1/2 lands on the clamp bound 1 under both tent maps, and survives.
@example(CLAMPED, [(F(1, 2), 1), (F(1, 4), F(1, 2))], 1, 1, 500_000)
def test_point_hits_match_plain_fraction_orbits(system, pairs, eps, length, max_words):
    starts, targets = (tuple(v) for v in zip(*pairs))
    assert search.ratio_point_step(system, starts + targets + (eps,)) is not None
    clock = SearchClock(SearchBudget(max_words=max_words))
    hits = list(iter_point_hits(system, starts, targets, eps, length, clock))
    want, spent, exceeded = reference_point_hits(
        system, starts, targets, eps, length, max_words
    )
    assert hits == want
    assert all(type(v) is F for _, values in hits for v in values)
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


# Set searches on rows against the walk on sets: step_images through the
# clock's memo as the step, IntervalSet.intersects or subset_of as the leaf
# test, and one dead set for lengths 1..5, as a length-first search runs them.

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
    st.booleans(),
    st.one_of(st.integers(1, 200), st.just(500_000)),
)
def test_row_set_walks_match_the_memoised_set_walk(system, set_pairs, inside, max_words):
    sources, targets = zip(*set_pairs)
    partial = not inside
    rows_clock = SearchClock(SearchBudget(max_words=max_words))
    sets_clock = SearchClock(SearchBudget(max_words=max_words))
    assert system._exact() is not None
    step = search._memo_step(sets_clock, system, partial, step_images, system)
    min_overlap = system.numerics.min_overlap

    def leaf(images):
        if inside:
            return all(img.subset_of(t) for img, t in zip(images, targets))
        return all(img.intersects(t, min_overlap) for img, t in zip(images, targets))

    dead = set()
    for n in range(1, 6):
        if inside:
            got = list(search.walk_sets(system, sources, targets, n, rows_clock, inside=True))
        else:
            got = list(iter_set_hits(system, sources, targets, n, rows_clock))
        want = list(walk(system.automaton, n, sources, step, sets_clock.spend, leaf, dead))
        assert repr(got) == repr(want)
        assert (rows_clock.count, rows_clock.exceeded) == (sets_clock.count, sets_clock.exceeded)


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


def test_point_search_path_follows_value_types():
    # A float anywhere, a float map or a finite float clamp end keeps the
    # generic loop; the integer path needs exact values on exact maps.
    exact = (F(2, 5), 1, F(1, 4))
    assert search.ratio_point_step(CLAMPED, exact) is not None
    assert search.ratio_point_step(CLAMPED, exact + (0.25,)) is None
    assert search.ratio_point_step(CLAMPED, (True,)) is None
    float_box = SwitchedSystem(
        maps=CLAMPED.maps, language=CLAMPED.language, bounds=Interval(0.0, 1.0), clamp=True
    )
    assert search.ratio_point_step(float_box, exact) is None
    float_maps = SwitchedSystem(
        maps=(PiecewiseAffineMap.globally(0.5, 0.25),),
        language=FullShift(1),
        bounds=CLAMPED.bounds,
    )
    assert search.ratio_point_step(float_maps, exact) is None
    float_mode = SwitchedSystem(
        maps=CLAMPED.maps, language=CLAMPED.language, bounds=CLAMPED.bounds,
        numerics=Numerics(mode="float"),
    )
    assert search.ratio_point_step(float_mode, exact) is None


def test_set_search_path_follows_value_types(monkeypatch):
    # The set search counterpart: a finite float clamp end, a float map, float
    # mode or a float source end keeps the generic loop; a float end of a box
    # that does not clamp is never read and keeps the rows.
    calls = []
    step_rows = search._step_rows
    monkeypatch.setattr(search, "step_images", lambda *a: calls.append("sets") or step_images(*a))
    monkeypatch.setattr(search, "_step_rows", lambda *a: calls.append("rows") or step_rows(*a))

    def path(system, source=U):
        calls.clear()
        hits = list(iter_set_hits(system, [source], [V], 4, SearchClock(SearchBudget())))
        assert hits
        return set(calls)

    def variant(**changes):
        fields = dict(maps=CLAMPED.maps, language=CLAMPED.language, bounds=CLAMPED.bounds)
        return SwitchedSystem(**{**fields, "clamp": True, **changes})

    assert path(CLAMPED) == {"rows"}
    assert path(CLAMPED, IntervalSet.of(0.0, F(1, 10))) == {"sets"}
    assert path(variant(bounds=Interval(0.0, 1.0))) == {"sets"}
    assert path(variant(bounds=Interval(0.0, 1.0), clamp=False)) == {"rows"}
    float_maps = (PiecewiseAffineMap.globally(2.0, 0.0), PiecewiseAffineMap.globally(-2.0, 2.0))
    assert path(variant(maps=float_maps)) == {"sets"}
    assert path(variant(numerics=Numerics(mode="float"))) == {"sets"}


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
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    assert {row.word.as_string() for row in cert.rows} == {"010010"}
    assert len(cert.rows) == 16
    assert [(c.count, c.exceeded) for c in spread_clocks] == [(2420, False)]


def test_certify_spread_budget_node_count(spread_clocks):
    with pytest.raises(BudgetExceeded, match=r"assignment \(0, 3\)"):
        certify_spread(
            TENT, SEEDS, UNIT, F(1, 5), build_qnet(UNIT, F(1, 6)),
            budget=SearchBudget(max_horizon=10, max_words=20_000),
        )
    assert [(c.count, c.exceeded) for c in spread_clocks] == [(20_001, True)]
