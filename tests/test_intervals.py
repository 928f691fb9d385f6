"""Open interval-union algebra: the layer everything else certifies against."""

import dataclasses
import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swmix.intervals import (
    NEG_INF,
    POS_INF,
    Interval,
    IntervalSet,
    _cut_ends,
    _ends_inside,
    _ends_meet,
    _ends_set,
    _inside_goal,
    _meet_goal,
    _merge_pairs,
    _scaled,
    _set_ends,
    covers_closed_interval,
    is_finite,
)

from helpers import greedy_covers_closed_interval


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        Interval(F(1), F(0))


def test_normalise_merges_strict_overlap_only():
    s = IntervalSet.from_intervals(
        [Interval(F(0), F(1)), Interval(F(1, 2), F(2)), Interval(F(2), F(3))]
    )
    # (0,1) and (1/2,2) merge; (2,3) abuts and must stay a separate component.
    assert s.components == (Interval(F(0), F(2)), Interval(F(2), F(3)))


def test_contains_is_open():
    s = IntervalSet.of(F(0), F(1))
    assert s.contains(F(1, 2))
    assert not s.contains(F(0))
    assert s.closure_contains(F(0))


def test_intersect_exact():
    a = IntervalSet.from_intervals([Interval(F(0), F(1)), Interval(F(2), F(3))])
    b = IntervalSet.of(F(1, 2), F(5, 2))
    assert a.intersect(b).components == (
        Interval(F(1, 2), F(1)),
        Interval(F(2), F(5, 2)),
    )
    assert a.intersect(IntervalSet.empty()).is_empty


def test_intersects_needs_interior_overlap():
    a = IntervalSet.of(F(0), F(1))
    assert a.intersects(IntervalSet.of(F(1, 2), F(2)))
    # Touching at one point is not an open overlap.
    assert not a.intersects(IntervalSet.of(F(1), F(2)))
    # min_overlap demands width strictly above the threshold.
    assert not a.intersects(IntervalSet.of(F(9, 10), F(2)), min_overlap=F(1, 10))
    assert a.intersects(IntervalSet.of(F(9, 10), F(2)), min_overlap=F(1, 20))


def test_intersects_passes_an_unbounded_overlap_whose_finite_end_is_past_float_range():
    # An overlap with an infinite end is wider than any min_overlap.  It must
    # pass on the end's type, before hi - lo turns the Fraction end 10**400
    # into a float, which raised OverflowError.
    big = F(10**400)
    line = IntervalSet.of(NEG_INF, POS_INF)
    assert line.intersects(IntervalSet.of(big, POS_INF))
    assert IntervalSet.of(big, POS_INF).intersects(line, min_overlap=F(1, 2))
    assert IntervalSet.of(NEG_INF, -big).intersects(IntervalSet.of(NEG_INF, F(0)), F(1))
    assert not IntervalSet.of(big, POS_INF).intersects(IntervalSet.of(NEG_INF, big))
    assert IntervalSet.of(-big, big).intersects(line, min_overlap=F(1))


def test_subset_of_respects_component_gaps():
    inner = IntervalSet.of(F(1, 4), F(3, 4))
    assert inner.subset_of(IntervalSet.of(F(0), F(1)))
    # Abutting components of the cover miss their shared point, so a component
    # straddling the joint is not contained.
    split = IntervalSet.from_intervals(
        [Interval(F(0), F(1, 2)), Interval(F(1, 2), F(1))]
    )
    assert not inner.subset_of(split)
    assert IntervalSet.of(F(0), F(1, 2)).subset_of(split)


def test_union_and_widest_component():
    s = IntervalSet.of(F(0), F(1)).union(IntervalSet.of(F(2), F(4)))
    assert len(s.components) == 2
    assert s.widest_component() == Interval(F(2), F(4))
    assert s.total_width == F(3)
    assert s.hull() == Interval(F(0), F(4))


def test_touches_closed():
    s = IntervalSet.of(F(1), F(2))
    assert s.touches_closed(F(3, 2), F(3))
    # The open set (1,2) excludes its own endpoints, so closed boxes that
    # reach only an endpoint stay untouched.
    assert not s.touches_closed(F(0), F(1))
    assert not s.touches_closed(F(2), F(3))
    assert not IntervalSet.of(F(3), F(4)).touches_closed(F(0), F(1))


def test_covers_closed_interval():
    assert covers_closed_interval(
        [Interval(F(-1, 10), F(6, 10)), Interval(F(1, 2), F(11, 10))], F(0), F(1)
    )
    # Abutting opens miss the joint point of the closed target.
    assert not covers_closed_interval(
        [Interval(F(-1, 10), F(1, 2)), Interval(F(1, 2), F(11, 10))], F(0), F(1)
    )
    # Degenerate target: a single point.
    assert covers_closed_interval([Interval(F(0), F(1))], F(1, 2), F(1, 2))


# Ends on a coarse grid, so that balls often abut, repeat or share a right
# end with the target; the infinities enter as ball ends and target ends.
COVER_ENDS = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.sampled_from([NEG_INF, POS_INF, -1.5, 0.25]),
)
BALLS = st.tuples(COVER_ENDS, COVER_ENDS).filter(lambda p: p[0] < p[1]).map(
    lambda p: Interval(*p)
)


@settings(max_examples=500, deadline=None)
@given(st.lists(BALLS, max_size=8), COVER_ENDS, COVER_ENDS, st.booleans())
# A single point, inside one ball and on a ball's end.
@example([Interval(F(0), F(1))], F(1, 2), F(1, 2), False)
@example([Interval(F(0), F(1))], F(1), F(1), False)
# Abutting balls miss their shared point; an overlap covers it.
@example([Interval(F(-1), F(1, 2)), Interval(F(1, 2), F(2))], F(0), F(1), False)
@example([Interval(F(-1), F(1, 2)), Interval(F(1, 3), F(2))], F(0), F(1), False)
# Duplicate balls, and infinite ends on both sides.
@example([Interval(F(-1), F(2))] * 3, F(0), F(1), True)
@example([Interval(NEG_INF, POS_INF)], NEG_INF, F(0), False)
@example([Interval(NEG_INF, POS_INF)], F(0), POS_INF, False)
@example([Interval(NEG_INF, F(1)), Interval(F(0), POS_INF)], F(-5), F(5), False)
def test_covers_closed_interval_matches_the_greedy_rescan(balls, lo, hi, doubled):
    # The sorted sweep decides what the quadratic rescan decides, whatever
    # the order of the balls and however often each repeats.
    if doubled:
        balls = balls + balls[::-1]
    assert covers_closed_interval(balls, lo, hi) is greedy_covers_closed_interval(balls, lo, hi)
    assert covers_closed_interval(balls[::-1], lo, hi) is covers_closed_interval(balls, lo, hi)


def test_is_finite_on_every_scalar_type():
    for x in (F(0), F(-7, 3), 0, -5, 10**30, 0.0, -2.5, 1e308):
        assert is_finite(x), x
    for x in (NEG_INF, POS_INF, float("inf"), float("-inf")):
        assert not is_finite(x), x
    assert not Interval(F(0), POS_INF).bounded
    assert Interval(0, 1).bounded and Interval(0.5, 1.5).bounded


def test_equal_sets_hash_equal_before_and_after_first_hash():
    def variants():
        return [
            IntervalSet.of(F(1), F(2)),
            IntervalSet.of(1, 2),
            IntervalSet.of(1.0, 2.0),
            IntervalSet.from_pairs([(1, 2)]),
            IntervalSet.from_pairs([(F(1), 2.0), (F(3, 2), F(7, 4))]),
        ]

    fresh = variants()
    hashed = variants()
    hashes = {hash(s) for s in hashed}
    assert len(hashes) == 1
    for a in fresh + hashed:
        for b in fresh + hashed:
            assert a == b
    # Cached hashes agree with hashes computed later, and with equality.
    assert {hash(s) for s in fresh} == hashes
    assert {fresh[3]: "found"}[hashed[0]] == "found"
    assert IntervalSet.of(F(1), F(2)) != IntervalSet.of(F(1), F(3))


def test_cached_hash_is_not_a_field():
    s = IntervalSet.of(F(1), F(2))
    before = repr(s)
    hash(s)
    assert repr(s) == before
    assert [f.name for f in dataclasses.fields(IntervalSet)] == ["components"]
    assert dataclasses.replace(s) == s and hash(dataclasses.replace(s)) == hash(s)


# Set operations against plain-operator loops, on (lo, hi) pairs: max/min keep
# their first argument on a tie, so an int endpoint equal to a Fraction one
# stays whichever it was; results must agree in value, type and repr.


def exact(x) -> tuple:
    return (x, type(x), repr(x))


def exact_pairs(pairs) -> list:
    return [(exact(lo), exact(hi)) for lo, hi in pairs]


def as_pairs(s: IntervalSet) -> list:
    return [(c.lo, c.hi) for c in s]


def reference_normalise(pairs):
    out = []
    for lo, hi in sorted(pairs):
        if out and lo < out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def reference_intersect(a, b):
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def reference_intersects(a, b, min_overlap):
    return any(
        min(ahi, bhi) - max(alo, blo) > min_overlap
        for alo, ahi in a
        for blo, bhi in b
        if max(alo, blo) < min(ahi, bhi)
    )


def reference_subset_of(a, b):
    return all(any(blo <= lo and hi <= bhi for blo, bhi in b) for lo, hi in a)


# Small grid values, whole numbers as ints or Fractions, and the infinities.
ENDS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.integers(-4, 4),
    st.sampled_from([NEG_INF, POS_INF]),
)


@st.composite
def pair_lists(draw):
    """Unnormalised lists of up to five open intervals: overlapping,
    nested, abutting, unbounded or the whole line."""
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(ENDS), draw(ENDS)
        if a == b:
            continue
        pairs.append((a, b) if a < b else (b, a))
    return pairs


@settings(max_examples=500, deadline=None)
@given(
    pair_lists(),
    pair_lists(),
    st.sampled_from([0, F(0), F(1, 4), 1, F(-1, 2)]),
)
# _merge_pairs on: strictly overlapping pairs, merged, a nested one among
# them; abutting pairs, kept apart; and equal keys, an int and a Fraction.
@example([(0, 2), (F(3, 2), 3)], [(1, F(5, 4)), (F(-1, 2), 0)], 0)
@example([(0, 1), (1, 2)], [(2, POS_INF), (NEG_INF, 0)], 0)
@example([(0, 1), (F(0), 1), (0, 2)], [(0, 1), (1, 2)], F(1, 4))
def test_set_operations_match_plain_loops(raw_a, raw_b, min_overlap):
    a = IntervalSet.from_pairs(raw_a)
    b = IntervalSet.from_pairs(raw_b)
    pa, pb = reference_normalise(raw_a), reference_normalise(raw_b)
    assert exact_pairs(as_pairs(a)) == exact_pairs(pa)
    assert exact_pairs(as_pairs(b)) == exact_pairs(pb)
    want = reference_intersect(pa, pb)
    assert exact_pairs(as_pairs(a.intersect(b))) == exact_pairs(want)
    meets = reference_intersects(pa, pb, min_overlap)
    assert a.intersects(b, min_overlap) == meets
    # The set kernel's tests on one denominator D that a's ends lie on and
    # b's need not (b's thirds are thresholds on D), and its cut and merge
    # on a D shared by both.
    D = lcm(*(e.as_integer_ratio()[1] for c in a for e in (c.lo, c.hi) if is_finite(e)))
    m = max(min_overlap, 0)
    assert _ends_meet(_set_ends(a, D), _meet_goal(b, D, m)) == meets
    assert _ends_inside(_set_ends(a, D), _inside_goal(b, D)) == reference_subset_of(pa, pb)
    E = lcm(*(e.as_integer_ratio()[1] for pair in raw_a + raw_b for e in pair if is_finite(e)))
    cut = _cut_ends(_set_ends(a, E), _set_ends(b, E))
    assert _ends_set([e for pair in cut for e in pair], E) == a.intersect(b)
    union = _merge_pairs([(_scaled(lo, E), _scaled(hi, E)) for lo, hi in raw_a + raw_b])
    assert _ends_set(union, E) == a.union(b)
    assert a.subset_of(b) == reference_subset_of(pa, pb)
    want = reference_normalise(pa + pb)
    assert exact_pairs(as_pairs(a.union(b))) == exact_pairs(want)


def test_long_lists_normalise_like_short_ones():
    # The flat-end merge behind the set kernel's images and preimages must
    # keep the (lo, hi) order at any length, ties between ints and
    # Fractions included, as the generic sort of from_pairs does, and a
    # merge must keep the first pair's lo and the second pair's hi.
    rng = random.Random(3)
    for size in (3, 17, 40):
        pairs = []
        for _ in range(size):
            lo = 10 * rng.randrange(-5, 5)  # a few shared left ends
            hi = lo + F(rng.randrange(1, 8), rng.choice([1, 2]))
            pairs.append((F(lo) if rng.random() < 0.5 else lo, hi))
        want = reference_normalise(pairs)
        assert exact_pairs(as_pairs(IntervalSet.from_pairs(pairs))) == exact_pairs(want)
        got = _ends_set(_merge_pairs([(_scaled(lo, 2), _scaled(hi, 2)) for lo, hi in pairs]), 2)
        assert as_pairs(got) == want
        assert all(type(e) is F for c in got for e in (c.lo, c.hi))


def test_threshold_tests_on_one_denominator_match_the_set_tests():
    # Every one-component set with ends on k/D (and the infinities) against
    # target components whose ends lie off D (sevenths, quarters and an
    # infinity), with min_overlap 0, 1/5 and 1/3: the integer floor and
    # ceiling thresholds must decide intersects and subset_of exactly, the
    # ends that sit one step from a threshold included.
    targets = [
        IntervalSet.of(F(2, 7), F(5, 4)),
        IntervalSet.of(NEG_INF, F(3, 7)),
        IntervalSet.from_pairs([(F(-3, 4), F(1, 7)), (F(6, 7), POS_INF)]),
    ]
    for D in (1, 2, 3, 6):
        grid = [NEG_INF, *(F(k, D) for k in range(-2 * D, 2 * D + 1)), POS_INF]
        for lo, hi in itertools.combinations(grid, 2):
            s = IntervalSet.of(lo, hi)
            ends = _set_ends(s, D)
            assert _ends_set(ends, D) == s
            for t in targets:
                assert _ends_inside(ends, _inside_goal(t, D)) == s.subset_of(t)
                for m in (0, F(1, 5), F(1, 3)):
                    assert _ends_meet(ends, _meet_goal(t, D, m)) == s.intersects(t, m)
