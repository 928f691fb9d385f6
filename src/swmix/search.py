"""Budgeted lexicographic-first searches over admissible words.

A search folds interval enclosures or point orbits along admissible words.
Branches die when any tracked set becomes empty, any tracked point leaves
every piece domain, or -- with the system's clamp flag -- the branch
separates entirely from the closed bounding box.  Every search charges
:meth:`SearchClock.spend` once per admissible edge before stepping it.
Searches run in one of two shapes, chosen by what they return:

* **Level sweep** -- searches that return only the least hitting word of a
  length: :func:`first_set_hit` (enclosures that meet their targets), and
  through it :func:`~swmix.hitting.extend_witness` (a ``suffix`` that must
  extend the hit admissibly); the spread-table rows of
  :func:`~swmix.spread.certify_spread` (total images that lie inside their
  targets), which share one sweep per candidate through
  ``_set_search(inside=True)``, not :func:`first_set_hit`; and every point
  search, :func:`iter_point_hits` behind the Xiong witnesses and
  :func:`~swmix.chaos.distance_envelope`.  :func:`_levels` is the one level
  loop: it steps the complete, deduplicated level of ``(state, value)``
  keys of several roots per length up to a horizon, each key with the least
  word reaching it, in word order, so the first key of a level that passes
  a leaf test holds the least hit of that length, the word a walk would
  return.  Every sweep reads its hits or extremes off complete levels.
  Each distinct key of a length is stepped once; there is no step memo
  and no dead-subtree set.
* **Depth-first walk** -- searches that need several words of a length and
  may reject a hit after the search: :func:`iter_set_hits` behind
  ``hitting_sets`` and ``wm_certificate``, one call of
  :func:`swmix.language.walk`, symbol-ordered, so a shared prefix is
  evaluated once.  Set steps go through a memo held by the
  :class:`SearchClock`, so each distinct ``(enclosures, symbol)`` step of
  one system is computed once per logical search, however many lengths
  reach it.  Refuted subtrees are walked once per logical search: the clock
  holds one dead-subtree set per system and targets, the ``(state, value,
  remaining)`` keys of subtrees that yielded no hit.  A child whose key is
  recorded is charged and stepped but not entered, at this length and
  every later one.  Neither the memo nor the dead sets change hits or their
  order, nor whether an edge is charged.

Rational-mode searches step integers.  A search reads its system's exact
form (:meth:`swmix.core.SwitchedSystem._exact`), which exists exactly in
rational mode, so the mode alone sends it to integers or to the generic
loops; every input counts at its exact value, a finite float's included.
Set searches (:func:`_set_search`, shared by the sweeps and the walker)
carry each enclosure as a tuple of rows (:mod:`swmix.intervals`), step it
with the row kernel :func:`swmix.core._image_rows` and test leaves by
cross-multiplying; rows are canonical, so level, memo and dead-subtree keys
of rows are equal exactly when their sets are.  Point searches
(:func:`_point_search`, shared by the Xiong sweep and the envelopes) carry a
group's orbits as one flat tuple of reduced integer pairs ``(n1, d1, n2,
d2, ..)`` and test ``|v - t| < eps`` cross-multiplied; one integer kernel
(:func:`_ratio_point_levels`) steps a whole level per call, every edge
inline, with its own loops for groups of one and of two points.  Either
way, Fractions are built only for the hits returned.  Float mode steps
sets with :func:`step_images` and values with :func:`step_points`, one
call per edge through :func:`_level_step`; rational set sweeps step rows
through it too, but no rational point search does.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .core import SwitchedSystem, _Exact, _image_rows, image_of
from .errors import UndefinedAtPoint, UndefinedOnSet
from .intervals import (
    IntervalSet,
    Scalar,
    _Ratio,
    _ratio_rows,
    _rows_inside,
    _rows_meet,
    _rows_set,
    _rows_touch,
)
from .language import PrunedAutomaton, accepts_prefix, walk


@dataclass(frozen=True)
class SearchBudget:
    """Caps shared by every search: depth, node count, wall clock, and how
    many certificate elements to exhibit.

    ``max_words`` caps the nodes one :class:`SearchClock` may charge, and so
    also the size of that search's step memo, dead-subtree sets and levels.
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
    shared between searches stops them all.  Every length-first walk
    iterates :meth:`lengths`, the one place where running out stops it; a
    level sweep stops at the first refused charge.

    The clock also owns the walker's memo of set steps, one table per
    system, and its dead-subtree sets (:meth:`dead_set`).  A memo entry is
    added only after a charged edge, and a dead key only for a charged node
    or a walk's root, so ``budget.max_words`` bounds both as well as the
    node count.
    """

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.count = 0
        self.exceeded = False
        self._deadline = (
            time.monotonic() + budget.max_seconds if budget.max_seconds else None
        )
        # id(system) -> (system, {(images, sym): child or None}), images
        # being sets, or rows on exact searches; holding the system keeps
        # its id from being reused while the clock lives.
        self._steps: dict[int, tuple[SwitchedSystem, dict]] = {}
        # (id(system), targets) -> (system, {(state, value, remaining)}).
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

    def dead_set(self, system: SwitchedSystem, targets: tuple) -> set:
        """The dead-subtree set (see :func:`~swmix.language.walk`) of
        ``system``'s set walks towards ``targets``."""
        return self._dead.setdefault((id(system), targets), (system, set()))[1]

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


def _memo_step(
    clock: SearchClock, system: SwitchedSystem, step: Callable[[tuple, int], tuple | None]
) -> Callable[[tuple, int], tuple | None]:
    """``step(images, sym)`` of ``system`` memoised in ``clock``; dead
    branches are stored as None."""
    memo = clock._steps.setdefault(id(system), (system, {}))[1]

    def memo_step(images, sym):
        key = (images, sym)
        try:
            return memo[key]
        except KeyError:
            child = memo[key] = step(images, sym)
            return child

    return memo_step


def _step_rows(
    exact: _Exact,
    partial: bool,
    images: tuple[tuple[_Ratio, ...], ...],
    sym: int,
) -> tuple[tuple[_Ratio, ...], ...] | None:
    """:func:`step_images` on rows, with the system's exact form."""
    table, box = exact.tables[sym], exact.box
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


def _level_step(
    step: Callable, aut: PrunedAutomaton, level: dict, clock: SearchClock
) -> dict | None:
    """One synchronous step of a deduplicated level: the next level, or
    None when the budget runs out.

    A level maps ``(state, values)`` keys to the lexicographically first
    word reaching them; ``step(values, sym)`` gives a child's values, or
    None where its branch dies.  The clock is charged once per
    admissible edge, before its step.  Children are inserted in the order
    of their parents and then of their symbols, so the words of a level
    increase in insertion order and the first word met for a key or a
    value is the least.  Each child is inserted with one
    ``dict.setdefault``, so its key is hashed once.
    """
    out: dict = {}
    insert, spend = out.setdefault, clock.spend
    for (state, values), word in level.items():
        row = aut.transitions[state]
        for sym in range(aut.m):
            nxt = row[sym]
            if nxt < 0:
                continue
            if not spend():
                return None
            child = step(values, sym)
            if child is not None:
                insert((nxt, child), word + (sym,))
    return out


# A level stepper: ``advance(aut, level, clock)`` gives the next level, or
# None when the budget runs out.
_Advance = Callable[[PrunedAutomaton, dict, SearchClock], dict | None]


def _stepper(step: Callable) -> _Advance:
    """The level stepper ``advance(aut, level, clock)`` that :func:`_levels`
    takes, from a ``step(values, sym)``: :func:`_level_step` bound to it."""
    return functools.partial(_level_step, step)


def _levels(
    aut: PrunedAutomaton, advance: _Advance, roots: Sequence, clock: SearchClock, horizon: int
) -> Iterator[list[dict]]:
    """Yield, for each length 1, 2, .., ``horizon``, the complete level of
    every root, one list per length, each stepped by ``advance(aut, level,
    clock)`` (:func:`_level_step` bound by :func:`_stepper`, or
    :func:`_ratio_point_levels` on integer pairs), which returns the next
    level or None when the budget runs out.

    The sweep stops at the first refused charge (then ``clock.exceeded``),
    whose length is not yielded, and at the first length where some root's
    level is empty, once every root's level of that length is stepped.
    """
    levels = [{(aut.start, root): ()} for root in roots]
    for _ in range(horizon):
        stepped = []
        for level in levels:
            out = advance(aut, level, clock)
            if out is None:
                return
            stepped.append(out)
        levels = stepped
        if not all(levels):
            return
        yield levels


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


def _ratio_point_levels(exact: _Exact) -> _Advance:
    """The level stepper of point searches on reduced integer pairs, with
    the system's exact form: :func:`_level_step` over :func:`step_points`,
    each edge stepped inline.

    ``advance(aut, level, clock)`` returns the next level of a non-empty
    ``level``, or None at the first refused charge.  A key's values are one
    flat tuple ``(n1, d1, n2, d2, ..)`` (:func:`_ratio_pairs`) with ``gcd(n,
    d) == 1`` and ``d > 0``, so two keys are equal exactly when their
    Fraction points are.  For each key in insertion order and each
    admissible symbol in order, the clock is charged once; then each value
    ``n/d`` steps through the piece with ``lo_n*d < n*lo_d`` and ``n*hi_d <
    hi_n*d`` to ``(a*n + b*d) / (c*d)``, reduced, and survives the clamp
    when ``box_lo <= n/d <= box_hi``, cross-multiplied (infinite ends are
    ``(-1, 0)`` and ``(1, 0)``).  The
    child dies where :func:`step_points` returns None, and a surviving one
    is inserted with ``dict.setdefault``, keeping the least word of its key.
    Groups of one and of two points, the type-1 and type-2 traffic, have
    their own loops; larger groups share one.
    """
    tables, box = exact.points, exact.box
    clamp = box is not None
    bl_n, bl_d, bh_n, bh_d = box or (0, 0, 0, 0)
    # The automaton last stepped and its admissible edges per state, as
    # (next state, (symbol,), point rows of the symbol's map), built once
    # per automaton: rebuilding them for every level was measurably slower.
    edges_of: list = [None, None]

    def one(edges: list, level: dict, spend: Callable[[], bool]) -> dict | None:
        out: dict = {}
        insert = out.setdefault
        for (state, (n, d)), word in level.items():
            for nxt, sym, table in edges[state]:
                if not spend():
                    return None
                for lo_n, lo_d, hi_n, hi_d, a, b, c in table:
                    if lo_n * d < n * lo_d and n * hi_d < hi_n * d:
                        p, q = a * n + b * d, c * d
                        g = gcd(p, q)
                        if g != 1:
                            p //= g
                            q //= g
                        break
                else:
                    continue  # undefined at n/d
                if clamp and not (bl_n * q <= p * bl_d and p * bh_d <= bh_n * q):
                    continue  # outside the closed clamp box
                insert((nxt, (p, q)), word + sym)
        return out

    def two(edges: list, level: dict, spend: Callable[[], bool]) -> dict | None:
        out: dict = {}
        insert = out.setdefault
        for (state, (n1, d1, n2, d2)), word in level.items():
            for nxt, sym, table in edges[state]:
                if not spend():
                    return None
                for lo_n, lo_d, hi_n, hi_d, a, b, c in table:
                    if lo_n * d1 < n1 * lo_d and n1 * hi_d < hi_n * d1:
                        p1, q1 = a * n1 + b * d1, c * d1
                        g = gcd(p1, q1)
                        if g != 1:
                            p1 //= g
                            q1 //= g
                        break
                else:
                    continue
                if clamp and not (bl_n * q1 <= p1 * bl_d and p1 * bh_d <= bh_n * q1):
                    continue
                for lo_n, lo_d, hi_n, hi_d, a, b, c in table:
                    if lo_n * d2 < n2 * lo_d and n2 * hi_d < hi_n * d2:
                        p2, q2 = a * n2 + b * d2, c * d2
                        g = gcd(p2, q2)
                        if g != 1:
                            p2 //= g
                            q2 //= g
                        break
                else:
                    continue
                if clamp and not (bl_n * q2 <= p2 * bl_d and p2 * bh_d <= bh_n * q2):
                    continue
                insert((nxt, (p1, q1, p2, q2)), word + sym)
        return out

    def many(edges: list, level: dict, spend: Callable[[], bool]) -> dict | None:
        out: dict = {}
        insert = out.setdefault
        for (state, pairs), word in level.items():
            for nxt, sym, table in edges[state]:
                if not spend():
                    return None
                child: list[int] = []
                it = iter(pairs)
                for n, d in zip(it, it):
                    for lo_n, lo_d, hi_n, hi_d, a, b, c in table:
                        if lo_n * d < n * lo_d and n * hi_d < hi_n * d:
                            p, q = a * n + b * d, c * d
                            g = gcd(p, q)
                            if g != 1:
                                p //= g
                                q //= g
                            break
                    else:
                        break
                    if clamp and not (bl_n * q <= p * bl_d and p * bh_d <= bh_n * q):
                        break
                    child.append(p)
                    child.append(q)
                else:
                    insert((nxt, tuple(child)), word + sym)
        return out

    loops = {2: one, 4: two}

    def advance(aut: PrunedAutomaton, level: dict, clock: SearchClock) -> dict | None:
        if edges_of[0] is not aut:
            edges_of[:] = aut, [
                [(nxt, (sym,), tables[sym]) for sym, nxt in enumerate(row) if nxt >= 0]
                for row in aut.transitions
            ]
        loop = loops.get(len(next(iter(level))[1]), many)
        return loop(edges_of[1], level, clock.spend)

    return advance


def _ratio_pairs(values: Iterable[Scalar]) -> tuple[int, ...]:
    """Finite points at their exact values, as the flat ``(n1, d1, n2, d2,
    ..)`` tuple that :func:`_ratio_point_levels` steps."""
    return tuple(r for x in values for r in x.as_integer_ratio())


def _point_search(
    system: SwitchedSystem,
) -> tuple[Callable, Callable, Callable, Callable | None]:
    """``(encode, advance, near, decode)`` of a point search on finite
    points and targets: the one place where points are sent to integer
    pairs or to the generic values.

    ``encode(points)`` is a group's root value and ``advance`` the level
    stepper of :func:`_levels`; ``near(targets, eps)`` is the leaf test of
    one group, passing when every point is within ``eps`` of its target
    (``|v - t| < eps``).  In rational mode a value is the flat tuple of
    reduced pairs (:func:`_ratio_pairs`) stepped by
    :func:`_ratio_point_levels`; the test is ``|n*td - tn*d| * ed < en * d *
    td``, every point, target and ``eps = en/ed`` at its exact value; and
    ``decode`` builds the Fraction points.  In float mode a value is the
    tuple of points, a level is stepped by :func:`_level_step` over
    :func:`step_points`, and ``decode`` is None.  Both ways step the same
    words.
    """
    exact = system._exact()
    if exact is None:

        def near(targets: tuple[Scalar, ...], eps: Scalar) -> Callable[[tuple], bool]:
            return lambda points: all(abs(v - t) < eps for v, t in zip(points, targets))

        return tuple, _stepper(functools.partial(step_points, system)), near, None

    def near(targets: tuple[Scalar, ...], eps: Scalar) -> Callable[[tuple], bool]:
        en, ed = eps.as_integer_ratio()
        goals = tuple((2 * i, *t.as_integer_ratio()) for i, t in enumerate(targets))

        def test(pairs: tuple[int, ...]) -> bool:
            for i, tn, td in goals:
                n, d = pairs[i], pairs[i + 1]
                if abs(n * td - tn * d) * ed >= en * d * td:
                    return False
            return True

        return test

    def decode(pairs: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(Fraction(pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2))

    return _ratio_pairs, _ratio_point_levels(exact), near, decode


def _set_search(
    system: SwitchedSystem, inside: bool
) -> tuple[Callable, Callable, Callable, Callable | None]:
    """``(encode, step, fits, build)`` of a set search, shared by the
    sweeps and the walker: the one place where sets are sent to rows or
    kept as sets.

    ``encode(sources)`` is the root value and ``step`` steps it;
    ``fits(targets)`` is the leaf test towards one tuple of targets,
    passing when every final enclosure meets its target (``intersects``
    with the system's ``min_overlap``, partial images), or with ``inside``
    lies inside it (``subset_of``, total images).  In rational mode the
    enclosures are rows stepped by :func:`_step_rows` from the exact values
    of the sources' ends, the test is cross-multiplied on the exact values
    of the targets' ends and of ``min_overlap``, and ``build`` turns rows
    back into sets; in float mode they are sets stepped by
    :func:`step_images`, and ``build`` is None.  Both ways step the same
    words.
    """
    partial = not inside
    min_overlap = system.numerics.min_overlap
    exact = system._exact()
    if exact is not None:
        m_n, m_d = min_overlap.as_integer_ratio()
        test = _rows_inside if inside else functools.partial(_rows_meet, m_n=m_n, m_d=m_d)
        step = functools.partial(_step_rows, exact, partial)
        encode = lambda sets: tuple(_ratio_rows(s.components) for s in sets)
        build = _rows_set
    else:
        if inside:
            test = IntervalSet.subset_of
        else:
            test = functools.partial(IntervalSet.intersects, min_overlap=min_overlap)
        step = functools.partial(step_images, system, partial=partial)
        encode, build = tuple, None

    def fits(targets: Sequence[IntervalSet]) -> Callable[[tuple], bool]:
        goals = encode(targets)
        return lambda values: all(map(test, values, goals))

    return encode, step, fits, build


def iter_set_hits(
    system: SwitchedSystem,
    sources: Sequence[IntervalSet],
    targets: Sequence[IntervalSet],
    length: int,
    clock: SearchClock,
) -> Iterator[tuple[tuple[int, ...], tuple[IntervalSet, ...]]]:
    """Yield, in lexicographic order, every admissible word of exactly
    ``length`` whose branch survives and whose final enclosures all meet
    their targets (``intersects`` with the system's ``min_overlap``), with
    those enclosures.

    The words are walked by :func:`~swmix.language.walk` through the
    clock's step memo and dead-subtree set.  On rows (:func:`_set_search`)
    a hit's sets are built when it is yielded.  Stops silently when the
    clock runs out (check ``clock.exceeded``); raises ValueError for a
    ``length`` below 1.
    """
    targets = tuple(targets)
    encode, step, fits, build = _set_search(system, inside=False)
    step = _memo_step(clock, system, step)
    dead = clock.dead_set(system, targets)
    hits = walk(system.automaton, length, encode(sources), step, clock.spend, fits(targets), dead)
    for syms, values in hits:
        yield syms, values if build is None else tuple(map(build, values))


def first_set_hit(
    system: SwitchedSystem,
    sources: Sequence[IntervalSet],
    targets: Sequence[IntervalSet],
    lengths: Sequence[int],
    clock: SearchClock,
    suffix: Sequence[int] = (),
) -> tuple[tuple[int, ...], tuple[IntervalSet, ...]] | None:
    """First hit over the given lengths in (length, lexicographic) order,
    with its final enclosures, or None.

    A hit is a word whose branch survives and whose final enclosures all
    meet their targets; with a ``suffix``, the word followed by ``suffix``
    must also be admissible.  The search reads its hit off one level sweep
    (:func:`_levels`) from length 1 to the longest given length: at each
    given length, the first key in insertion order whose enclosures fit and
    whose word ``suffix`` extends admissibly holds the least hit.  Returns
    None when the clock runs out (check ``clock.exceeded``) or every branch
    dies; raises ValueError for a length below 1.
    """
    wanted = set(lengths)
    if any(n < 1 for n in wanted):
        raise ValueError("word length must be at least 1")
    aut, suffix = system.automaton, tuple(suffix)
    encode, step, fits, build = _set_search(system, inside=False)
    test = fits(targets)
    sweep = _levels(aut, _stepper(step), [encode(sources)], clock, max(wanted, default=0))
    for n, (level,) in enumerate(sweep, 1):
        if n in wanted:
            for (_, values), word in level.items():
                if test(values) and accepts_prefix(aut, word + suffix):
                    return word, values if build is None else tuple(map(build, values))
    return None


def iter_point_hits(
    system: SwitchedSystem,
    groups: Sequence[Sequence[Scalar]],
    targets: Sequence[Sequence[Scalar]],
    tolerances: Iterable[Scalar],
    horizon: int,
    clock: SearchClock,
) -> Iterator[tuple[int, tuple[tuple[tuple[int, ...], tuple[Scalar, ...]], ...]]]:
    """Staged point sweep: for each tolerance ``eps`` in turn, yield ``(n,
    hits)``, where ``n`` is the least length above the previous stage's (up
    to ``horizon``) at which every group of points has an admissible word
    whose orbit survives and puts each point within ``eps`` of its target
    (``|v - t| < eps``), and ``hits`` holds each group's least such word of
    length ``n`` with its orbit's end values.

    Stage lengths strictly increase, so one level sweep (:func:`_levels`)
    per group serves every stage: each distinct ``(state, values)`` key of a
    length is stepped once per sweep, and a level's first key that passes
    holds its least hit.  Points are stepped as :func:`_point_search` picks;
    in rational mode one Fraction is built per point of each yielded hit.
    Stops silently when the clock runs out (check ``clock.exceeded``), a
    group's orbits all die or the horizon passes; raises ValueError for a
    ``horizon`` below 1.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    encode, advance, near, decode = _point_search(system)
    roots = [encode(g) for g in groups]
    sweep = enumerate(_levels(system.automaton, advance, roots, clock, horizon), 1)
    for eps in tolerances:
        tests = [near(t, eps) for t in targets]
        for n, levels in sweep:
            hits = []
            for level, test in zip(levels, tests):
                hit = next(((w, v) for (_, v), w in level.items() if test(v)), None)
                if hit is None:
                    break  # this group has no hit of length n
                hits.append(hit if decode is None else (hit[0], decode(hit[1])))
            else:
                yield n, tuple(hits)
                break
        else:
            return
