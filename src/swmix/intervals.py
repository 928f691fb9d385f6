"""Open intervals and finite unions of open intervals on the real line.

Endpoints are exact rationals (:class:`fractions.Fraction`) in the default
numeric mode or machine floats in outward-rounded mode; the two float
infinities serve as unbounded endpoints in either mode.  Every operation in
this module is exact endpoint algebra -- approximation enters the package only
where endpoint *arithmetic* happens (map images and preimages in
:mod:`swmix.core`).

All sets here are open.  Normalisation merges only strictly overlapping
components and keeps abutting ones separate, so ``(0,1) | (1,2)`` remains two
components: the stored components always union to exactly the represented set.

Sets are hashed often (search memos key on them), so :class:`IntervalSet`
caches its hash.  :func:`is_finite` tests the endpoint type before comparing
with the infinities, since only a float endpoint can be infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[Fraction, float]

NEG_INF = float("-inf")
POS_INF = float("inf")


def is_finite(x: Scalar) -> bool:
    # Only a float can be infinite.  Testing the type first keeps Fraction
    # endpoints out of Fraction.__eq__(float), whose numbers-ABC isinstance
    # checks are the dearest part of a comparison in the interval kernel.
    return type(x) is not float or (x != NEG_INF and x != POS_INF)


@dataclass(frozen=True)
class Interval:
    """Non-empty open interval ``(lo, hi)``; endpoints may be infinite."""

    lo: Scalar
    hi: Scalar

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"open interval needs lo < hi, got ({self.lo}, {self.hi})")

    @classmethod
    def real_line(cls) -> "Interval":
        return cls(NEG_INF, POS_INF)

    @property
    def bounded(self) -> bool:
        return is_finite(self.lo) and is_finite(self.hi)

    @property
    def width(self) -> Scalar:
        if not self.bounded:
            return POS_INF
        return self.hi - self.lo

    @property
    def midpoint(self) -> Scalar:
        if not self.bounded:
            raise ValueError("midpoint of an unbounded interval")
        return (self.lo + self.hi) / 2

    def contains(self, x: Scalar) -> bool:
        return self.lo < x < self.hi

    def closure_contains(self, x: Scalar) -> bool:
        return self.lo <= x <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo < hi:
            return Interval(lo, hi)
        return None

    def touches_closed(self, lo: Scalar, hi: Scalar) -> bool:
        """True iff this open interval meets the closed interval [lo, hi]."""
        return self.lo < hi and self.hi > lo


def _normalise(items: Iterable[Interval]) -> tuple[Interval, ...]:
    comps = sorted(items, key=lambda c: (c.lo, c.hi))
    out: list[Interval] = []
    for c in comps:
        if out and c.lo < out[-1].hi:  # strict overlap only; abutting stays split
            if c.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, c.hi)
        else:
            out.append(c)
    return tuple(out)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint open intervals, sorted by left endpoint."""

    components: tuple[Interval, ...]

    def __hash__(self) -> int:
        # Same value as the generated dataclass hash, computed once: search
        # memos hash their keys of sets on every lookup, and hashing each
        # Fraction endpoint again costs a modular inverse.  The cache is a
        # plain attribute, not a field, so equality and repr are unchanged.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.components,))
            object.__setattr__(self, "_hash", h)
            return h

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def of(cls, lo: Scalar, hi: Scalar) -> "IntervalSet":
        return cls((Interval(lo, hi),))

    @classmethod
    def from_intervals(cls, items: Iterable[Interval]) -> "IntervalSet":
        return cls(_normalise(items))

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[Scalar]]) -> "IntervalSet":
        return cls.from_intervals(Interval(lo, hi) for lo, hi in pairs)

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def bounded(self) -> bool:
        return all(c.bounded for c in self.components)

    @property
    def total_width(self) -> Scalar:
        if not self.bounded:
            return POS_INF
        return sum((c.width for c in self.components), Fraction(0))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def contains(self, x: Scalar) -> bool:
        return any(c.contains(x) for c in self.components)

    def closure_contains(self, x: Scalar) -> bool:
        return any(c.closure_contains(x) for c in self.components)

    def hull(self) -> Interval | None:
        if self.is_empty:
            return None
        return Interval(self.components[0].lo, self.components[-1].hi)

    def widest_component(self) -> Interval:
        if self.is_empty:
            raise ValueError("empty set has no components")
        return max(self.components, key=lambda c: c.width)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_intervals(self.components + other.components)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        i = j = 0
        a, b = self.components, other.components
        while i < len(a) and j < len(b):
            cut = a[i].intersect(b[j])
            if cut is not None:
                out.append(cut)
            if a[i].hi <= b[j].hi:
                i += 1
            else:
                j += 1
        return IntervalSet(tuple(out))

    def intersects(self, other: "IntervalSet", min_overlap: Scalar = 0) -> bool:
        """True iff the interiors overlap with width strictly above ``min_overlap``."""
        i = j = 0
        a, b = self.components, other.components
        while i < len(a) and j < len(b):
            lo = max(a[i].lo, b[j].lo)
            hi = min(a[i].hi, b[j].hi)
            if hi > lo and (not is_finite(hi - lo) or hi - lo > min_overlap):
                return True
            if a[i].hi <= b[j].hi:
                i += 1
            else:
                j += 1
        return False

    def subset_of(self, other: "IntervalSet") -> bool:
        # Components never straddle a gap of `other`: each must fit in a single
        # component (abutting components of `other` still miss the shared point).
        for c in self.components:
            if not any(o.lo <= c.lo and c.hi <= o.hi for o in other.components):
                return False
        return True

    def touches_closed(self, lo: Scalar, hi: Scalar) -> bool:
        return any(c.touches_closed(lo, hi) for c in self.components)


def covers_closed_interval(opens: Sequence[Interval], lo: Scalar, hi: Scalar) -> bool:
    """Decide ``[lo, hi] ⊆ ∪ opens`` for open intervals, by greedy sweep.

    Works for the degenerate case ``lo == hi`` (a single point) as well.
    """
    comps = list(opens)
    x = lo
    for _ in range(len(comps) + 1):
        best = None
        for c in comps:
            # x must be interior; the sweep then jumps to the farthest right end
            if c.lo < x < c.hi and (best is None or c.hi > best):
                best = c.hi
        if best is None:
            return False
        if best > hi:
            return True
        x = best
    return False
