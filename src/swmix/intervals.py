"""Open intervals and finite unions of open intervals on the real line.

Endpoints are exact rationals (:class:`fractions.Fraction`), ints or machine
floats; the two float infinities serve as unbounded endpoints in either
numeric mode.  Every operation in this module is exact endpoint algebra --
approximation enters the package only where float mode does endpoint
*arithmetic* (map images and preimages in :mod:`swmix.core`).

All sets here are open.  Normalisation merges only strictly overlapping
components and keeps abutting ones separate, so ``(0,1) | (1,2)`` remains two
components: the stored components always union to exactly the represented set.

Sets are hashed often (search memos key on them), so :class:`IntervalSet`
caches its hash.  :func:`is_finite` tests the endpoint type before comparing
with the infinities, since only a float endpoint can be infinite.

Rational mode steps every set in one integer form, flat ends on one
denominator ``D``: the tuple ``(lo1, hi1, lo2, hi2, ..)`` of the
components' ends times ``D`` (:func:`_set_ends`), each an int when the end
lies on ``D`` and an infinite end as the infinite float, which compares
correctly with every int.  The set searches of :mod:`swmix.search`,
:func:`swmix.hitting.pull_back_hit`, :func:`~swmix.core.eval_interval` and
:func:`~swmix.core.word_preimage` work on them through :func:`_merge_pairs`,
their normaliser; :func:`_cut_ends`, the form of
:meth:`~IntervalSet.intersect`; the floor and ceiling thresholds on ``D``
of a target whose ends need not lie on ``D`` (:func:`_meet_goal`,
:func:`_inside_goal`) with the tests :func:`_ends_meet` and
:func:`_ends_inside`, the forms of :meth:`~IntervalSet.intersects` and
:meth:`~IntervalSet.subset_of`; and :func:`_ends_set`, which builds the set
back, every end a Fraction or an infinity.  Equal values on one ``D`` are
equal ints, so no tie rule is needed there.  Rational mode reads every set
through these forms, so a float end counts at its exact binary value there
(:meth:`swmix.core.SwitchedSystem._exact`).  The set verifiers do not: they
re-check on the generic loops at exact values, which step plain ``(lo, hi)``
pairs, normalise them with :func:`_normalise`, their own normaliser, which
also serves :meth:`IntervalSet.from_intervals`, build the result once with
:func:`_pairs_set` and compare with this module's :class:`IntervalSet`
operations; they use neither :func:`_merge_pairs` nor any other flat form.
Besides the flat forms, only the :class:`Interval` check of two Fraction
endpoints cross-multiplies; every other operation, :func:`_normalise`,
:meth:`~IntervalSet.intersect`, :meth:`~IntervalSet.intersects` and
:meth:`~IntervalSet.subset_of` among them, uses plain comparisons alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[Fraction, float]

NEG_INF = float("-inf")
POS_INF = float("inf")

# An interval as integers, (lo_n, lo_d, hi_n, hi_d): a reduced ratio per end
# with d > 0, and (-1, 0) or (1, 0) for an infinite one.
_Ratio = tuple[int, int, int, int]


def _ratio_end(e: Scalar) -> tuple[int, int]:
    """``(numerator, denominator)`` of an endpoint at its exact value, a
    finite float's included, and ``(-1, 0)`` and ``(1, 0)`` for the
    infinities."""
    if type(e) is not float or (e != NEG_INF and e != POS_INF):
        return e.as_integer_ratio()
    return (-1, 0) if e < 0 else (1, 0)


def _exact_value(x: Scalar) -> Scalar:
    """The exact value of a finite float, as a Fraction; any other scalar
    as it is."""
    return Fraction(x) if type(x) is float and is_finite(x) else x


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


def _scaled(e: Scalar, D: int, up: bool = False) -> int | float:
    """``floor(e*D)``, or ``ceil(e*D)`` with ``up``, at ``e``'s exact value;
    an infinite ``e`` as itself."""
    if type(e) is float and (e == NEG_INF or e == POS_INF):
        return e
    n, d = e.as_integer_ratio()
    return -(-n * D // d) if up else n * D // d


def _end_lcm(sets: Iterable["IntervalSet"], base: int) -> int:
    """The lcm of ``base`` and the denominators of the finite ends of
    ``sets`` at their exact values."""
    dens = (e.as_integer_ratio()[1] for s in sets for c in s for e in (c.lo, c.hi) if is_finite(e))
    return lcm(base, *dens)


def _set_ends(s: "IntervalSet", D: int) -> tuple:
    """The flat ends ``(lo1, hi1, lo2, hi2, ..)`` of ``s`` on ``D``: exact
    when every finite end lies on ``D``."""
    return tuple(_scaled(e, D) for c in s.components for e in (c.lo, c.hi))


def _ends_set(ends: Sequence, D: int) -> "IntervalSet":
    """The set of the flat ends ``ends`` on ``D``, with a Fraction or an
    infinity per end."""
    it = iter(ends)
    return IntervalSet(
        tuple(
            Interval(
                Fraction(lo, D) if type(lo) is int else lo,
                Fraction(hi, D) if type(hi) is int else hi,
            )
            for lo, hi in zip(it, it)
        )
    )


def _merge_pairs(pairs: list) -> tuple:
    """The flat-end kernel's normaliser: ``(lo, hi)`` pairs on one
    denominator as flat ends, sorted by ``(lo, hi)``, strictly overlapping
    pairs merged and abutting ones kept apart, as :func:`_normalise` does
    for the generic loops; ``()`` for no pair.  On one denominator equal
    values are equal ints, so no tie rule is needed."""
    if len(pairs) < 2:  # most images and preimages have one component
        return pairs[0] if pairs else ()
    pairs.sort()
    out: list = []
    lo, hi = pairs[0]
    for l, h in pairs:
        if l < hi:
            if h > hi:
                hi = h
        else:
            out += (lo, hi)
            lo, hi = l, h
    out += (lo, hi)
    return tuple(out)


def _cut_ends(a: Sequence, b: Sequence) -> list:
    """:meth:`IntervalSet.intersect` of two sets' flat ends on one
    denominator, as the list of the cut's ``(lo, hi)`` pairs."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        a_hi, b_hi = a[i + 1], b[j + 1]
        lo = a[i] if a[i] > b[j] else b[j]
        hi = a_hi if a_hi < b_hi else b_hi
        if lo < hi:
            out.append((lo, hi))
        if a_hi <= b_hi:
            i += 2
        else:
            j += 2
    return out


def _meet_goal(target: "IntervalSet", D: int, m: Scalar) -> tuple:
    """The thresholds on ``D`` of :func:`_ends_meet` towards ``target`` with
    ``min_overlap = m >= 0``: ``(W, pairs)``, where ``W = floor(m*D)`` for a
    positive ``m`` and -1 for ``m = 0``, and ``pairs`` holds one ``(th,
    tl)`` per component ``(lo, hi)`` that is wider than ``m``, ``th =
    ceil((hi - m)*D)`` and ``tl = floor((lo + m)*D)``, an infinite end as
    itself."""
    if not m:
        return -1, tuple((_scaled(c.hi, D, up=True), _scaled(c.lo, D)) for c in target.components)
    pairs = []
    for c in target.components:
        lo, hi = _exact_value(c.lo), _exact_value(c.hi)
        if is_finite(lo) and is_finite(hi) and hi - lo <= m:
            continue
        th = _scaled(hi - m if is_finite(hi) else hi, D, up=True)
        pairs.append((th, _scaled(lo + m if is_finite(lo) else lo, D)))
    return _scaled(m, D), tuple(pairs)


def _ends_meet(ends: Sequence, goal: tuple) -> bool:
    """:meth:`IntervalSet.intersects` of the flat ends ``ends`` on ``D``:
    some component ``(lo, hi)`` meets some target component ``(th, tl)`` of
    ``goal = (W, pairs)`` (:func:`_meet_goal`) with ``lo < th``, ``tl < hi``
    and, for a positive ``min_overlap = m``, ``hi - lo > W = floor(m*D)``;
    ``W < 0`` stands for ``m = 0``.  For integer ends each test is exact,
    and the overlap is wider than ``m`` exactly when all four of its end
    pairs are ``m`` apart; an infinite overlap always passes."""
    W, pairs = goal
    it = iter(ends)
    for lo, hi in zip(it, it):
        for th, tl in pairs:
            if lo < th and tl < hi and (
                W < 0 or type(lo) is float or type(hi) is float or hi - lo > W
            ):
                return True
    return False


def _inside_goal(target: "IntervalSet", D: int) -> tuple:
    """The thresholds on ``D`` of :func:`_ends_inside` for ``target``: one
    ``(ceil(lo*D), floor(hi*D))`` per component."""
    return tuple((_scaled(c.lo, D, up=True), _scaled(c.hi, D)) for c in target.components)


def _ends_inside(ends: Sequence, goal: tuple) -> bool:
    """:meth:`IntervalSet.subset_of` of the flat ends ``ends`` on ``D``:
    every component ``(lo, hi)`` fits one ``(il, ih)`` of ``goal``
    (:func:`_inside_goal`), ``il <= lo`` and ``hi <= ih``."""
    it = iter(ends)
    for lo, hi in zip(it, it):
        for il, ih in goal:
            if il <= lo and hi <= ih:
                break
        else:
            return False
    return True


def _normalise(pairs: list) -> list:
    """The generic loops' normaliser on ``(lo, hi)`` pairs: sorted by ``(lo,
    hi)`` (a stable sort, so of two equal keys the first stays first),
    strictly overlapping pairs merged into the first one's ``lo`` and the
    largest ``hi``, abutting ones kept apart."""
    if len(pairs) < 2:  # most images and preimages have one component
        return pairs
    it = iter(sorted(pairs))
    lo, hi = next(it)
    out = []
    for l, h in it:
        if l < hi:  # strict overlap only; abutting stays split
            if h > hi:
                hi = h
        else:
            out.append((lo, hi))
            lo, hi = l, h
    out.append((lo, hi))
    return out


def _pairs_set(pairs: Iterable) -> "IntervalSet":
    """The set of normalised ``(lo, hi)`` pairs, one Interval per pair."""
    return IntervalSet(tuple(Interval(lo, hi) for lo, hi in pairs))


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
        items = tuple(items)
        if len(items) < 2:
            return cls(items)
        return _pairs_set(_normalise([(c.lo, c.hi) for c in items]))

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
        a, b = self.components, other.components
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i].lo, b[j].lo)
            hi = min(a[i].hi, b[j].hi)
            # An infinite end is tested by type first: hi - lo would convert
            # a finite Fraction end to a float, which overflows past 1e308.
            if hi > lo and (not (is_finite(lo) and is_finite(hi)) or hi - lo > min_overlap):
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
    """Decide ``[lo, hi] ⊆ ∪ opens`` for open intervals, by one sweep over
    the intervals sorted by left end.

    The reach ``x`` starts at ``lo`` and jumps to the farthest right end of
    the intervals holding it in their interior, until it passes ``hi``.
    Each interval is read once: a jump reads those starting left of ``x``,
    and each of them ends at or before the next ``x``, the farthest of
    their right ends, so none holds a later ``x``; after the sort the sweep
    is linear.  Works for the degenerate case ``lo == hi`` (a single point)
    as well.
    """
    comps = sorted(opens, key=lambda c: c.lo)
    i, n = 0, len(comps)
    x = lo
    while True:
        best = None
        while i < n and comps[i].lo < x:
            # x is interior when the interval also ends right of it
            if comps[i].hi > x and (best is None or comps[i].hi > best):
                best = comps[i].hi
            i += 1
        if best is None:
            return False
        if best > hi:
            return True
        x = best
