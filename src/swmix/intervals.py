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

Every set also has an integer form, rows: one ``(lo_n, lo_d, hi_n, hi_d)``
per component (:func:`_ratio_rows`), each end the ratio ``(n, d)`` of its
exact value with ``d > 0`` -- a finite float's is its
``as_integer_ratio()`` -- and the infinities ``(-1, 0)`` and ``(1, 0)``.
Rational mode reads every set through rows, so a float end counts at its
exact binary value there (:meth:`swmix.core.SwitchedSystem._exact`).  The
row kernels of :mod:`swmix.core` and the set searches of
:mod:`swmix.search` work on them through the helpers here:
:func:`_normalise_rows`, the one normaliser of image and preimage rows;
:func:`_rows_set`, where the rows of an image, a preimage or a pull-back
become an :class:`IntervalSet`, every end a Fraction or an infinity; and
the row forms of :meth:`~IntervalSet.intersects`,
:meth:`~IntervalSet.subset_of` and :meth:`~IntervalSet.touches_closed`
(:func:`_rows_meet`, :func:`_rows_inside`, :func:`_rows_touch`), the leaf
and clamp tests of the set searches; :func:`_cut_rows`, the row form of
:meth:`~IntervalSet.intersect`, serves only the pull-backs of
:func:`swmix.hitting.pull_back_hit`.  Two ends compare by cross-multiplying,
``a < b`` iff ``a_n*b_d < b_n*a_d``, instead of through Fraction's generic
operators.  That is exact against every finite end and against the same
infinity, but ``-inf < +inf`` would read ``0 < 0``, so every test that can
meet both counts a zero denominator apart.  Ties resolve exactly as
``max``, ``min`` and a stable sort resolve them.  Besides the row helpers,
only the :class:`Interval` check of two Fraction endpoints cross-multiplies;
every other operation, :func:`_normalise` behind
:meth:`IntervalSet.from_intervals`, :meth:`~IntervalSet.intersect`,
:meth:`~IntervalSet.intersects` and :meth:`~IntervalSet.subset_of` among
them, uses plain comparisons alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[Fraction, float]

NEG_INF = float("-inf")
POS_INF = float("inf")

# A component as integers, (lo_n, lo_d, hi_n, hi_d): a reduced ratio per end
# with d > 0, and (-1, 0) or (1, 0) for an infinite one.
_Ratio = tuple[int, int, int, int]


def _ratio_end(e: Scalar) -> tuple[int, int]:
    """``(numerator, denominator)`` of an endpoint at its exact value, a
    finite float's included, and ``(-1, 0)`` and ``(1, 0)`` for the
    infinities."""
    if type(e) is not float or (e != NEG_INF and e != POS_INF):
        return e.as_integer_ratio()
    return (-1, 0) if e < 0 else (1, 0)


def _ratio_rows(comps: Sequence[Interval]) -> tuple[_Ratio, ...]:
    """``(lo_n, lo_d, hi_n, hi_d)`` per component, at the ends' exact values."""
    return tuple(_ratio_end(c.lo) + _ratio_end(c.hi) for c in comps)


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


def _ratio_scalar(n: int, d: int) -> Scalar:
    """The endpoint ``n/d``; a zero ``d`` is the infinity of ``n``'s sign."""
    if d:
        return Fraction(n, d)
    return NEG_INF if n < 0 else POS_INF


def _rows_set(rows: Sequence[_Ratio]) -> "IntervalSet":
    """The set of normalised rows, with a Fraction or an infinity per end."""
    return IntervalSet(
        tuple(
            Interval(_ratio_scalar(lo_n, lo_d), _ratio_scalar(hi_n, hi_d))
            for lo_n, lo_d, hi_n, hi_d in rows
        )
    )


def _normalise_rows(rows: list[_Ratio]) -> tuple[_Ratio, ...]:
    """:func:`_normalise` of rows.

    A merge keeps the first row's lo end and the second row's hi end, as
    ``Interval(out[-1].lo, c.hi)`` does.  A stable insertion sort by ``(lo,
    hi)`` yields the same order as the generic stable sort, since both keep
    equal keys in input order.  It is quadratic, but the lists are short: an
    image or a preimage has at most pieces times components rows, and the
    benchmark workloads send at most seven.
    """
    if len(rows) < 2:  # most images and preimages have one component
        return tuple(rows)
    for i in range(1, len(rows)):
        row = rows[i]
        lo_n, lo_d, hi_n, hi_d = row
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
    out: list = []
    top_n = top_d = 0
    for row in rows:
        lo_n, lo_d, hi_n, hi_d = row
        # strict overlap only; -inf on the left or +inf on the right always overlaps
        if out and (not lo_d or not top_d or lo_n * top_d < top_n * lo_d):
            if hi_n * top_d > top_n * hi_d:
                top = out[-1]
                out[-1] = (top[0], top[1], hi_n, hi_d)
                top_n, top_d = hi_n, hi_d
        else:
            out.append(row)
            top_n, top_d = hi_n, hi_d
    return tuple(out)


def _rows_meet(a: Sequence[_Ratio], b: Sequence[_Ratio], m_n: int, m_d: int) -> bool:
    """:meth:`IntervalSet.intersects` on rows, with ``min_overlap = m_n/m_d``."""
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        a_ln, a_ld, a_hn, a_hd = a[i]
        b_ln, b_ld, b_hn, b_hd = b[j]
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


def _cut_rows(a: Sequence[_Ratio], b: Sequence[_Ratio]) -> list[_Ratio]:
    """:meth:`IntervalSet.intersect` on rows.

    A lo end is never ``+inf`` and a hi end never ``-inf``, so ends of one
    side compare by cross-multiplying, and an infinite end makes the cut
    nonempty.
    """
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        a_ln, a_ld, a_hn, a_hd = a[i]
        b_ln, b_ld, b_hn, b_hd = b[j]
        lo_n, lo_d = (b_ln, b_ld) if b_ln * a_ld > a_ln * b_ld else (a_ln, a_ld)
        hi_n, hi_d = (b_hn, b_hd) if b_hn * a_hd < a_hn * b_hd else (a_hn, a_hd)
        if not lo_d or not hi_d or lo_n * hi_d < hi_n * lo_d:
            out.append((lo_n, lo_d, hi_n, hi_d))
        if a_hn * b_hd <= b_hn * a_hd:
            i += 1
        else:
            j += 1
    return out


def _rows_inside(a: Sequence[_Ratio], b: Sequence[_Ratio]) -> bool:
    """:meth:`IntervalSet.subset_of` on rows."""
    for c_ln, c_ld, c_hn, c_hd in a:
        for o_ln, o_ld, o_hn, o_hd in b:
            if o_ln * c_ld <= c_ln * o_ld and c_hn * o_hd <= o_hn * c_hd:
                break
        else:
            return False
    return True


def _rows_touch(rows: Sequence[_Ratio], box: _Ratio) -> bool:
    """:meth:`IntervalSet.touches_closed` on rows, for the closed ``box``.

    An infinite box end is met by every component, and is tested apart:
    ``-inf < +inf`` would read ``0 < 0``.
    """
    b_ln, b_ld, b_hn, b_hd = box
    for lo_n, lo_d, hi_n, hi_d in rows:
        if (not b_hd or lo_n * b_hd < b_hn * lo_d) and (
            not b_ld or hi_n * b_ld > b_ln * hi_d
        ):
            return True
    return False


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
        a, b = self.components, other.components
        i = j = 0
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
