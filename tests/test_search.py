"""Budgeted lexicographic word searches over enclosures and point orbits."""

from fractions import Fraction as F

import pytest

import swmix.search as search
import swmix.spread as spread
from swmix.core import SwitchedSystem
from swmix.demo import tent_system
from swmix.errors import BudgetExceeded
from swmix.intervals import IntervalSet
from swmix.language import ForbiddenWords
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

from helpers import UNIT, rotation_system

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


def test_first_set_hit_shortest_then_lex():
    clock = SearchClock(SearchBudget())
    hit = first_set_hit(CLAMPED, [U], [V], range(1, 9), clock)
    assert hit is not None
    assert hit[0] == (0, 0, 0, 0)
    assert first_set_hit(CLAMPED, [U], [V], range(1, 4), SearchClock(SearchBudget())) is None


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
            CLAMPED, (F(2, 5),), lambda vals: vals[0] == F(4, 5), 3, clock
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
# the step, so pruned branches count and dead automaton edges do not.


def test_refuted_first_set_hit_node_count():
    system = rotation_system(F(1, 3), F(2, 7))
    clock = SearchClock(SearchBudget())
    source = IntervalSet.of(F(1, 10), F(1, 5))
    target = IntervalSet.of(F(21, 100), F(11, 50))
    assert first_set_hit(system, [source], [target], range(1, 7), clock) is None
    assert (clock.count, clock.exceeded) == (240, False)


def test_refuted_first_set_hit_memoises_steps(monkeypatch):
    # The 240 charged edges of the refuted search above reach only 36
    # distinct (enclosures, symbol) steps across its six word lengths.
    calls = []
    real = search.step_images
    monkeypatch.setattr(search, "step_images", lambda *args: calls.append(args) or real(*args))
    system = rotation_system(F(1, 3), F(2, 7))
    clock = SearchClock(SearchBudget())
    source = IntervalSet.of(F(1, 10), F(1, 5))
    target = IntervalSet.of(F(21, 100), F(11, 50))
    assert first_set_hit(system, [source], [target], range(1, 7), clock) is None
    assert (clock.count, len(calls)) == (240, 36)


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
    hits = list(iter_point_hits(golden, (F(1, 5),), lambda vals: vals[0] > F(1, 2), 6, clock))
    assert hits == [((0, 0, 1, 0, 1, 0), (F(4, 5),))]
    assert (clock.count, clock.exceeded) == (10, False)


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
    cert = certify_spread(TENT, SEEDS, UNIT, UNIT, F(1, 5), NET)
    assert {row.word.as_string() for row in cert.rows} == {"010010"}
    assert len(cert.rows) == 16
    assert [(c.count, c.exceeded) for c in spread_clocks] == [(2420, False)]


def test_certify_spread_budget_node_count(spread_clocks):
    with pytest.raises(BudgetExceeded, match=r"assignment \(0, 3\)"):
        certify_spread(
            TENT, SEEDS, UNIT, UNIT, F(1, 5), build_qnet(UNIT, F(1, 6)),
            budget=SearchBudget(max_horizon=10, max_words=20_000),
        )
    assert [(c.count, c.exceeded) for c in spread_clocks] == [(20_001, True)]
