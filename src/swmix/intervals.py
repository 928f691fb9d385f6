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

Three places compare exact endpoints on integers: the :class:`Interval`
check of two Fraction endpoints, :meth:`IntervalSet.intersects`, and
:func:`_normalise_exact`, the normaliser that :func:`swmix.core.image_of` and
:func:`swmix.core.preimage` call on the integer rows they already hold.  They
read each endpoint as a ratio ``(n, d)`` with ``d > 0`` and compare two of
them by cross-multiplying, ``a < b`` iff ``a_n*b_d < b_n*a_d``, instead of
through Fraction's generic operators.  The infinities are encoded as
``(-1, 0)`` and ``(1, 0)``; that is exact against every finite endpoint and
against the same infinity, but ``-inf < +inf`` would read ``0 < 0``, so
every ``lo < hi`` test that can meet both counts a zero denominator as true.
Ties resolve exactly as ``max``, ``min`` and a stable sort resolve them, so
the results keep the same endpoint objects -- an int endpoint equal to a
Fraction one stays whichever it was.  Any float endpoint, or a float
``min_overlap``, sends :meth:`~IntervalSet.intersects` down the generic
path.  Every other operation, :func:`_normalise` behind
:meth:`IntervalSet.from_intervals`, :meth:`~IntervalSet.intersect` and
:meth:`~IntervalSet.subset_of` among them, uses plain comparisons alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[Fraction, float]

NEG_INF = float("-inf")
POS_INF = float("inf")


def _ratio_end(e: Scalar) -> tuple[int, int] | None:
    """``(numerator, denominator)`` of an exact endpoint, ``(-1, 0)`` and
    ``(1, 0)`` for the infinities, None for a finite float."""
    if type(e) is Fraction or type(e) is int:
        return e.as_integer_ratio()
    if e == NEG_INF:
        return -1, 0
    if e == POS_INF:
        return 1, 0
    return None


def _ratio_rows(comps: Sequence[Interval]) -> list[tuple[int, int, int, int]] | None:
    """``(lo_n, lo_d, hi_n, hi_d)`` per component, or None when an endpoint
    is a finite float."""
    rows = []
    for c in comps:
        lo, hi = c.lo, c.hi
        if type(lo) is Fraction and type(hi) is Fraction:
            rows.append(lo.as_integer_ratio() + hi.as_integer_ratio())
        else:
            lo_r, hi_r = _ratio_end(lo), _ratio_end(hi)
            if lo_r is None or hi_r is None:
                return None
            rows.append(lo_r + hi_r)
    return rows


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
        lo, hi = self.lo, self.hi
        if type(lo) is Fraction and type(hi) is Fraction:
            lo_n, lo_d = lo.as_integer_ratio()
            hi_n, hi_d = hi.as_integer_ratio()
            if lo_n * hi_d < hi_n * lo_d:
                return
        elif lo < hi:
            return
        raise ValueError(f"open interval needs lo < hi, got ({lo}, {hi})")

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


_Row = tuple[int, int, int, int, Interval]


def _normalise_exact(rows: list[_Row]) -> tuple[Interval, ...]:
    """:func:`_normalise` of ``(lo_n, lo_d, hi_n, hi_d, interval)`` rows.

    A stable insertion sort by ``(lo, hi)`` yields the same order as the
    generic stable sort, since both keep equal keys in input order.  It is
    quadratic, but the lists are short: an image or a preimage has at most
    pieces times components rows, and the benchmark workloads send at most
    seven.
    """
    for i in range(1, len(rows)):
        row = rows[i]
        lo_n, lo_d, hi_n, hi_d, _ = row
        j = i
        while j:
            prev = rows[j - 1]
            left, right = prev[0] * lo_d, lo_n * prev[1]
            if left > right or (left == right and prev[2] * hi_d > hi_n * prev[3]):
                rows[j] = prev
                j -= 1
            else:
                break
        rows[j] = row
    out: list[Interval] = []
    top_n = top_d = 0
    for lo_n, lo_d, hi_n, hi_d, c in rows:
        # strict overlap only; -inf on the left or +inf on the right always overlaps
        if out and (not lo_d or not top_d or lo_n * top_d < top_n * lo_d):
            if hi_n * top_d > top_n * hi_d:
                out[-1] = Interval(out[-1].lo, c.hi)
                top_n, top_d = hi_n, hi_d
        else:
            out.append(c)
            top_n, top_d = hi_n, hi_d
    return tuple(out)


def _normalise(items: Iterable[Interval]) -> tuple[Interval, ...]:
    items = list(items)
    if len(items) < 2:  # most images and preimages have one component
        return tuple(items)
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
        m = min_overlap
        if type(m) is Fraction or type(m) is int:
            m_n, m_d = m.as_integer_ratio()
        else:
            m_d = 0
        ra = _ratio_rows(a) if m_d else None
        rb = _ratio_rows(b) if ra is not None else None
        if rb is not None:
            na, nb = len(a), len(b)
            while i < na and j < nb:
                a_ln, a_ld, a_hn, a_hd = ra[i]
                b_ln, b_ld, b_hn, b_hd = rb[j]
                lo_n, lo_d = (b_ln, b_ld) if b_ln * a_ld > a_ln * b_ld else (a_ln, a_ld)
                hi_n, hi_d = (b_hn, b_hd) if b_hn * a_hd < a_hn * b_hd else (a_hn, a_hd)
                if not lo_d or not hi_d:
                    return True  # an infinite overlap
                if lo_n * hi_d < hi_n * lo_d and (
                    m_n <= 0 or (hi_n * lo_d - lo_n * hi_d) * m_d > m_n * hi_d * lo_d
                ):
                    return True
                if a_hn * b_hd <= b_hn * a_hd:
                    i += 1
                else:
                    j += 1
            return False
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
