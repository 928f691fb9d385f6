"""Open interval-union algebra: the layer everything else certifies against."""

import dataclasses
from fractions import Fraction as F

import pytest

from swmix.intervals import (
    NEG_INF,
    POS_INF,
    Interval,
    IntervalSet,
    covers_closed_interval,
    is_finite,
)


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
