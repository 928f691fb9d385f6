"""Budgeted lexicographic-first searches over admissible words.

Every search is one call of :func:`swmix.language.walk`, the depth-first,
symbol-ordered walk of the pruned automaton, with a step function that folds
interval enclosures (:func:`step_images`) or point orbits
(:func:`step_points`, or :func:`ratio_point_step` on exact inputs) along
each branch, so a shared prefix is evaluated once.  Branches die when any
tracked set becomes empty, any tracked point leaves every piece domain, or
-- with the system's clamp flag -- the branch separates entirely from the
closed bounding box.  The walker charges :meth:`SearchClock.spend` once per
admissible edge before stepping it.

Set steps are also shared across word lengths and spread-table rows: every
set search steps through a memo held by its :class:`SearchClock`, so each
distinct ``(enclosures, symbol)`` step of one system and one ``partial``
mode is computed once per logical search, however many lengths or rows
reach it.  The clock is still charged for every edge, memoised or not, so
node counts and budget cut-offs do not depend on the memo.

Exact set searches step integer rows.  When the system is exact and every
source, target and ``min_overlap`` is a Fraction, an int or infinite,
:func:`walk_sets` (behind :func:`iter_set_hits` and the spread-table
search) carries each enclosure as a tuple of rows (:mod:`swmix.intervals`),
steps it with the row kernel :func:`swmix.core._image_rows` through the
memo (:func:`_memo_step_rows`) and tests leaves by cross-multiplying.  Rows
are canonical, so memo and dead-subtree keys of rows are equal exactly when
their sets are, and the search walks the same nodes as one on sets.  The
sets of a hit are built when it is yielded.  Float mode, float endpoints
and clamp boxes with finite float ends step sets with :func:`step_images`.

Refuted subtrees are walked once per logical search.  Each search passes
its leaf test to the walker, and the clock holds one dead-subtree set per
system, step mode and leaf test (the targets, and ``eps`` for point
searches): the ``(state, value, remaining)`` keys of subtrees that yielded
no hit.  A child whose key is recorded is charged and stepped but not
entered, within one length and at every later length, so a budget-bound
search may decide where it would run out without the set.  Hits and their
order do not depend on the set.

Point steps are not memoised.  When every map is exact and every start,
target and tolerance is a Fraction or an int, :func:`iter_point_hits`
carries the orbits as one flat tuple of reduced integer pairs ``(n1, d1,
n2, d2, ..)``: a step is a few integer products and one ``gcd`` per point,
and the leaf test ``|v - t| < eps`` is cross-multiplied, so no Fraction is
built until a hit is yielded.  Float maps, float values and clamp boxes with
finite float ends step Fractions or floats with :func:`step_points`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .core import SwitchedSystem, _image_rows, image_of
from .errors import UndefinedAtPoint, UndefinedOnSet
from .intervals import (
    IntervalSet,
    Scalar,
    _Ratio,
    _ratio_end,
    _ratio_rows,
    _rows_inside,
    _rows_meet,
    _rows_set,
    _rows_touch,
)
from .language import walk


@dataclass(frozen=True)
class SearchBudget:
    """Caps shared by every search: depth, node count, wall clock, and how
    many certificate elements to exhibit.

    ``max_words`` caps the nodes one :class:`SearchClock` may charge, and so
    also the size of that search's step memo and dead-subtree sets.
    """

    max_horizon: int = 12
    max_words: int = 500_000
    max_seconds: float | None = None
    required: int = 3

    def __post_init__(self) -> None:
        for name in ("max_horizon", "max_words", "required"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.max_horizon < 1 or self.max_words < 1 or self.required < 1:
            raise ValueError("budget fields must be positive")
        seconds = self.max_seconds
        if seconds is not None:
            if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
                raise TypeError(f"max_seconds must be a number, got {seconds!r}")
            if not seconds > 0:
                raise ValueError(f"max_seconds must be positive, got {seconds!r}")


class SearchClock:
    """Mutable node/time meter for one logical search.

    :meth:`spend` charges one node and returns False once the node budget or
    the deadline is spent; from then on every call returns False, so a clock
    shared between searches stops them all.  Every length-first search
    iterates :meth:`lengths`, the one place where running out stops it.

    The clock also owns the search's memo of set steps, one table per
    ``(system, partial)`` pair, and its dead-subtree sets (:meth:`dead_set`).
    A memo entry is added only after a charged edge, and a dead key only
    for a charged node or a walk's root, so ``budget.max_words`` bounds
    both as well as the node count.
    """

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.count = 0
        self.exceeded = False
        self._deadline = (
            time.monotonic() + budget.max_seconds if budget.max_seconds else None
        )
        # (id(system), partial) -> (system, {(images, sym): child or None}),
        # images being sets, or rows on exact searches; holding the system
        # keeps its id from being reused while the clock lives.
        self._steps: dict[tuple[int, bool], tuple[SwitchedSystem, dict]] = {}
        # (id(system), *test) -> (system, {(state, value, remaining)}).
        self._dead: dict[tuple, tuple[SwitchedSystem, set]] = {}

    def spend(self) -> bool:
        self.count += 1
        if self.count > self.budget.max_words or self.exceeded:
            self.exceeded = True
            return False
        if self._deadline is not None and not self.count & 1023:
            if time.monotonic() > self._deadline:
                self.exceeded = True
                return False
        return True

    def dead_set(self, system: SwitchedSystem, *test) -> set:
        """The dead-subtree set (see :func:`~swmix.language.walk`) of
        ``system`` for one step mode and leaf test, named by ``test``."""
        return self._dead.setdefault((id(system), *test), (system, set()))[1]

    def lengths(self, lengths: Iterable[int]) -> Iterator[int]:
        """Yield each word length in turn and stop after the one during
        which the clock ran out: its loop body still runs to the end, and
        no later length starts."""
        for n in lengths:
            yield n
            if self.exceeded:
                return


def step_images(
    system: SwitchedSystem,
    images: tuple[IntervalSet, ...],
    sym: int,
    partial: bool = True,
) -> tuple[IntervalSet, ...] | None:
    """One synchronous map application; None when the branch dies.

    With ``partial=False`` the branch also dies where the map is undefined
    on a positive-width part of any image.
    """
    widen = system.numerics.widen
    pam = system.maps[sym]
    out = []
    for img in images:
        try:
            nxt = image_of(pam, img, widen=widen, partial=partial)
        except UndefinedOnSet:
            return None
        if nxt.is_empty:
            return None
        if system.clamp and not system.inside_kill_box(nxt):
            return None
        out.append(nxt)
    return tuple(out)


def _memo_step_images(
    system: SwitchedSystem, clock: SearchClock, partial: bool
) -> Callable[[tuple[IntervalSet, ...], int], tuple[IntervalSet, ...] | None]:
    """:func:`step_images` as a walk step, memoised in ``clock`` for this
    system and mode; dead branches are stored as None."""
    memo = clock._steps.setdefault((id(system), partial), (system, {}))[1]
    step = step_images

    def memo_step(images, sym):
        key = (images, sym)
        try:
            return memo[key]
        except KeyError:
            child = memo[key] = step(system, images, sym, partial)
            return child

    return memo_step


def _step_rows(
    table: tuple[tuple, ...],
    box: _Ratio | None,
    images: tuple[tuple[_Ratio, ...], ...],
    partial: bool,
) -> tuple[tuple[_Ratio, ...], ...] | None:
    """:func:`step_images` on rows through the map of ``table``; ``box``
    holds the clamp box's rows, or is None when the system does not clamp."""
    out = []
    for rows in images:
        try:
            nxt = _image_rows(table, rows, partial)
        except UndefinedOnSet:
            return None
        if not nxt or (box is not None and not _rows_touch(nxt, box)):
            return None
        out.append(nxt)
    return tuple(out)


def _memo_step_rows(
    system: SwitchedSystem, clock: SearchClock, partial: bool
) -> Callable[[tuple, int], tuple | None] | None:
    """:func:`_memo_step_images` on rows, or None when the system is not
    exact (float mode, a map without an integer table, or a clamp box with
    a finite float end).  Its entries share the memo of
    :func:`_memo_step_images`, whose keys hold sets, never rows."""
    tables = system._ratio_tables()
    if tables is None:
        return None
    box = None
    if system.clamp:
        lo, hi = _ratio_end(system.bounds.lo), _ratio_end(system.bounds.hi)
        if lo is None or hi is None:
            return None
        box = lo + hi
    memo = clock._steps.setdefault((id(system), partial), (system, {}))[1]
    step = _step_rows

    def memo_step(images, sym):
        key = (images, sym)
        try:
            return memo[key]
        except KeyError:
            child = memo[key] = step(tables[sym], box, images, partial)
            return child

    return memo_step


def step_points(
    system: SwitchedSystem, points: tuple[Scalar, ...], sym: int
) -> tuple[Scalar, ...] | None:
    pam = system.maps[sym]
    out = []
    for x in points:
        try:
            y = pam.value_at(x)
        except UndefinedAtPoint:
            return None
        if system.clamp and not system.point_in_kill_box(y):
            return None
        out.append(y)
    return tuple(out)


def ratio_point_step(
    system: SwitchedSystem, values: Sequence[Scalar]
) -> Callable[[tuple[int, ...], int], tuple[int, ...] | None] | None:
    """:func:`step_points` on reduced integer pairs, or None when the
    system or ``values`` are not exact.

    Exact means: every value is a Fraction or an int, every map has an
    integer table (:meth:`~swmix.core.PiecewiseAffineMap._ratio_pieces` is
    not None) and a clamp box has exact or infinite ends.  The returned
    ``step(pairs, sym)`` takes the points as one flat tuple ``(n1, d1, n2,
    d2, ..)`` with ``gcd(n, d) == 1`` and ``d > 0``, so two tuples are equal
    exactly when their Fraction points are.  A value ``n/d`` steps through
    the piece with ``lo_n*d < n*lo_d`` and ``n*hi_d < hi_n*d`` to ``(a*n +
    b*d) / (c*d)``, reduced, and survives the clamp when ``box_lo <= n/d <=
    box_hi``, cross-multiplied; infinite ends are ``(-1, 0)`` and ``(1,
    0)``.  The step returns None where :func:`step_points` does.
    """
    if any(type(v) is not Fraction and type(v) is not int for v in values):
        return None
    if any(pam._ratio_pieces() is None for pam in system.maps):
        return None
    tables = [pam._point_rows for pam in system.maps]
    box_lo_n = box_lo_d = box_hi_n = box_hi_d = 0
    clamp = system.clamp
    if clamp:
        lo, hi = _ratio_end(system.bounds.lo), _ratio_end(system.bounds.hi)
        if lo is None or hi is None:
            return None
        (box_lo_n, box_lo_d), (box_hi_n, box_hi_d) = lo, hi

    def step(pairs: tuple[int, ...], sym: int) -> tuple[int, ...] | None:
        table = tables[sym]
        out = []
        it = iter(pairs)
        for n, d in zip(it, it):
            for lo_n, lo_d, hi_n, hi_d, a, b, c in table:
                if lo_n * d < n * lo_d and n * hi_d < hi_n * d:
                    n, d = a * n + b * d, c * d
                    g = gcd(n, d)
                    if g != 1:
                        n //= g
                        d //= g
                    break
            else:
                return None  # undefined at n/d
            if clamp and not (
                box_lo_n * d <= n * box_lo_d and n * box_hi_d <= box_hi_n * d
            ):
                return None  # outside the closed clamp box
            out.append(n)
            out.append(d)
        return tuple(out)

    return step


def walk_sets(
    system: SwitchedSystem,
    sources: Sequence[IntervalSet],
    targets: Sequence[IntervalSet],
    length: int,
    clock: SearchClock,
    inside: bool = False,
) -> Iterator[tuple[tuple[int, ...], tuple[IntervalSet, ...]]]:
    """Yield, in lexicographic order, every admissible word of exactly
    ``length`` whose branch survives and whose final enclosures all meet
    their targets (``intersects`` with the system's ``min_overlap``), or
    with ``inside=True`` all lie inside them (``subset_of``, total images).

    When :func:`_memo_step_rows` accepts the system and every source,
    target and ``min_overlap`` is exact, the enclosures are stepped as rows
    and the leaf test is cross-multiplied; a hit's sets are built when it is
    yielded.  Otherwise the sets are stepped with :func:`step_images`.  Both
    ways walk the same words and charge the clock alike.  Stops silently
    when the clock runs out (check ``clock.exceeded``).  Subtrees refuted
    for the same targets and test earlier on ``clock`` are skipped.
    """
    partial = not inside
    targets = tuple(targets)
    test = "subset_of" if inside else "intersects"
    dead = clock.dead_set(system, partial, test, targets)
    min_overlap = system.numerics.min_overlap
    step = _memo_step_rows(system, clock, partial)
    root = goals = (None,)  # a None row: the search steps sets
    if step is not None and (inside or type(min_overlap) in (Fraction, int)):
        root = tuple(_ratio_rows(s.components) for s in sources)
        goals = tuple(_ratio_rows(t.components) for t in targets)
    if None in root or None in goals:
        step = _memo_step_images(system, clock, partial)
        root, goals, build = tuple(sources), targets, None
        fits = IntervalSet.subset_of if inside else functools.partial(
            IntervalSet.intersects, min_overlap=min_overlap
        )
    else:
        build = _rows_set
        if inside:
            fits = _rows_inside
        else:
            m_n, m_d = min_overlap.as_integer_ratio()
            fits = functools.partial(_rows_meet, m_n=m_n, m_d=m_d)

    def leaf(values):
        return all(map(fits, values, goals))

    for syms, values in walk(system.automaton, length, root, step, clock.spend, leaf, dead):
        yield syms, values if build is None else tuple(map(build, values))


def iter_set_hits(
    system: SwitchedSystem,
    sources: Sequence[IntervalSet],
    targets: Sequence[IntervalSet],
    length: int,
    clock: SearchClock,
) -> Iterator[tuple[tuple[int, ...], tuple[IntervalSet, ...]]]:
    """Yield, in lexicographic order, every admissible word of exactly
    ``length`` whose branch survives and whose final enclosures all meet their
    targets (:func:`walk_sets`).  Stops silently when the clock runs out
    (check ``clock.exceeded``).
    """
    yield from walk_sets(system, sources, targets, length, clock)


def first_set_hit(
    system: SwitchedSystem,
    sources: Sequence[IntervalSet],
    targets: Sequence[IntervalSet],
    lengths: Sequence[int],
    clock: SearchClock,
) -> tuple[tuple[int, ...], tuple[IntervalSet, ...]] | None:
    """First hit over the given lengths in (length, lexicographic) order."""
    for n in clock.lengths(lengths):
        for hit in iter_set_hits(system, sources, targets, n, clock):
            return hit
    return None


def iter_point_hits(
    system: SwitchedSystem,
    starts: Sequence[Scalar],
    targets: Sequence[Scalar],
    eps: Scalar,
    length: int,
    clock: SearchClock,
) -> Iterator[tuple[tuple[int, ...], tuple[Scalar, ...]]]:
    """Point-orbit counterpart of :func:`iter_set_hits`: yield, in
    lexicographic order, every admissible word of exactly ``length`` whose
    orbit survives and puts every start within ``eps`` of its target
    (``|v - t| < eps``), with the orbit's end values.

    When :func:`ratio_point_step` accepts the system and every start,
    target and ``eps``, the orbits are stepped on reduced integer pairs and
    a leaf ``n/d`` passes when ``|n*td - tn*d| * ed < en * d * td``; one
    Fraction is built per point of each yielded hit.  Otherwise the values
    are stepped with :func:`step_points`.  Both ways walk the same words and
    charge the clock alike.
    """
    targets = tuple(targets)
    step = ratio_point_step(system, (*starts, *targets, eps))
    if step is None:
        yield from walk(
            system.automaton,
            length,
            tuple(starts),
            lambda values, sym: step_points(system, values, sym),
            clock.spend,
            lambda values: all(abs(v - t) < eps for v, t in zip(values, targets)),
            clock.dead_set(system, "points", targets, eps),
        )
        return
    root = tuple(r for x in starts for r in x.as_integer_ratio())
    en, ed = eps.as_integer_ratio()
    goals = tuple((2 * i, *t.as_integer_ratio()) for i, t in enumerate(targets))

    def near(pairs: tuple[int, ...]) -> bool:
        for i, tn, td in goals:
            n, d = pairs[i], pairs[i + 1]
            if abs(n * td - tn * d) * ed >= en * d * td:
                return False
        return True

    dead = clock.dead_set(system, "ratios", targets, eps)
    for syms, pairs in walk(system.automaton, length, root, step, clock.spend, near, dead):
        yield syms, tuple(
            Fraction(pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2)
        )
