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
  every later one.  The walk's set-up (root, scaled step, leaf test) is
  built once per sources and targets and kept on the clock too, for every
  later length while the clock's ``D`` (below) holds.  Neither the memo,
  the dead sets nor the set-ups change hits or their order, nor whether an
  edge is charged.

Rational-mode searches step integers.  A search reads its system's exact
form (:meth:`swmix.core.SwitchedSystem._exact`), which exists exactly in
rational mode, so the mode alone sends it to integers or to the generic
loops; every input counts at its exact value, a finite float's included.
Two adapters are the only code that knows the mode, and both give every
caller the same value layout.  Set searches (:func:`_set_search`, shared by
the sweeps and the walker) carry each enclosure in rational mode as one flat
tuple of integer ends ``(lo1, hi1, lo2, hi2, ..)``, the ends of its
components times a denominator ``D`` that every key of a level shares, an
infinite end as the infinite float.  The root's ``D`` is the lcm of ``L``,
the system's domain-end, offset and clamp-box lcm, and of the sources' end
denominators; ``K``, the lcm of the slopes' denominators, takes a value on
``D`` to one on ``D*K``.  A sweep's level therefore moves to ``D*K`` with
each depth, as the point levels below do, so its integers grow only with
the depth it reaches; the walker keeps one ``D`` that holds every depth of
its walk, ``K**H`` times the root's for its length rounded up to a power of
two ``H``.  A step (:func:`swmix.core._image_ends`) is two comparisons and
one multiply-add per end and a merge of int pairs, with no gcd and no
cross-multiplication; rotations and tents have ``K = 1``, and keep the
root's ``D`` throughout.  Targets, ``min_overlap`` and the clamp box are
integer floor and ceiling thresholds on ``D``, since their denominators
need not divide it.  Keys on one ``D`` are equal exactly when their sets
are.  The walker's memo, dead-subtree sets and set-ups outlive a walk,
so the :class:`SearchClock` holds one ``D`` per system for them and
rescales their keys once when a later walk needs a ``D`` that the held one
is not a multiple of: new sources' denominators, or a longer walk on ``K >
1`` past the next power of two.  A set-up closes over its ``D``'s ends and
memo, so a rescale drops every set-up of the system, and the next walk of
each builds its own again; while ``D`` holds, a walk of any length
reuses it.  ``build`` turns a hit's ends back into a
set (the identity on float sets).  Point searches (:func:`_point_search`,
shared by the Xiong sweep and the envelopes) carry a group's orbits as one flat tuple
``(D, N1, N2, ..)``, the points ``N1/D, N2/D, ..`` over a denominator ``D``
that every key of a level shares, and ``scalar(N, D)`` gives a point's
value.  In rational mode the ``N`` are integers, the test ``|v - t| < eps``
is cross-multiplied and one integer kernel (:func:`_ratio_point_levels`)
steps a whole level per call, every edge inline, with its own loops for
groups of one and of two points: a level on ``D`` steps to one on ``D*K``,
``K`` the lcm of the slopes' denominators, with two integer comparisons and
one multiply-add per point, and is divided down by a gcd only once its
denominator outgrows a machine word.  Unit slopes, as on circle rotations,
keep one denominator for every level.  In float
mode ``D`` is 1 and the ``N`` are the points themselves.  Either way,
Fractions are built only for the hits returned.  Float mode steps sets with
:func:`step_images` and points with :func:`step_points`, one call per edge
through :func:`_level_step`; rational set sweeps step flat ends through it
too, but no rational point search does.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    _REDUCE_BITS,
    SwitchedSystem,
    _Exact,
    _image_ends,
    _set_tables,
    image_of,
)
from .errors import UndefinedAtPoint, UndefinedOnSet
from .intervals import (
    NEG_INF,
    POS_INF,
    IntervalSet,
    Scalar,
    _end_lcm,
    _ends_inside,
    _ends_meet,
    _ends_set,
    _exact_value,
    _inside_goal,
    _meet_goal,
    _scaled,
    _set_ends,
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

    The clock also owns one walk record per system (:meth:`_walks`): the
    walker's memo of set steps, the one denominator of their keys in
    rational mode (:meth:`_denominator`), the walks' set-ups and their
    dead-subtree sets.  A memo entry is added only after a charged edge, and
    a dead key only for a charged node or a walk's root, so
    ``budget.max_words`` bounds both as well as the node count.
    """

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.count = 0
        self.exceeded = False
        self._deadline = (
            time.monotonic() + budget.max_seconds if budget.max_seconds else None
        )
        # id(system) -> [system, {(images, sym): child or None}, D,
        # {(sources, targets): set-up}, {targets: {(state, value,
        # remaining)}}], images and values being sets, or flat ends on the
        # denominator D on exact searches (D is None until an exact walk
        # sets it); holding the system keeps its id from being reused while
        # the clock lives.
        self._steps: dict[int, list] = {}

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

    def _walks(self, system: SwitchedSystem) -> list:
        """``[system, memo, D, setups, dead]``, the walk record of
        ``system``: the step memo of its set walks, the denominator ``D`` of
        their keys (None until set), the walks' set-ups, keyed by value as
        ``(sources, targets)``, and their dead-subtree sets (see
        :func:`~swmix.language.walk`), one per ``targets``.

        A set-up (filled by :func:`iter_set_hits`) is ``(H, root, step,
        leaf, build)``: the largest walk depth (:func:`_walk_depth`) ``H``
        for which ``D`` is a multiple of ``lcm(L, ends) * K**H``, unbounded
        for ``K = 1`` as in float mode; the root's flat ends on ``D``; the
        memoised step on the maps scaled to ``D``; the leaf test with its
        thresholds on ``D``; and ``build``.  It serves every later walk of
        depth ``H`` at most from those sources to those targets.  Every
        set-up closes over the memo and the ends of the ``D`` it was built
        on, so :meth:`_denominator` drops them all when it rescales.
        """
        return self._steps.setdefault(id(system), [system, {}, None, {}, {}])

    def _denominator(self, system: SwitchedSystem, D: int) -> int:
        """The denominator of every exact set walk of ``system`` on this
        clock, once a walk needs a multiple of ``D``.

        Keys of the step memo and of the dead-subtree sets of ``system``'s
        walk record (:meth:`_walks`) are flat ends on that one denominator,
        so equal sets have equal keys across walks.  When ``D`` does not
        divide the held one, the held one becomes their lcm, and the
        record's memo and dead sets are rebuilt once with each end
        rescaled: as new objects, so that a walk still open keeps the keys
        of its own denominator.  The record's set-ups, built on the old
        denominator, are dropped, to be built again on first use.
        """
        walks = self._walks(system)
        held = walks[2]
        if held is None:
            walks[2] = D
            return D
        if not held % D:
            return held
        new = lcm(held, D)
        f = new // held

        def scale(value: tuple | None) -> tuple | None:
            if value is None:
                return None
            return tuple(tuple(e * f if type(e) is int else e for e in ends) for ends in value)

        walks[1] = {(scale(images), sym): scale(child) for (images, sym), child in walks[1].items()}
        walks[2] = new
        walks[3].clear()
        walks[4] = {t: {(q, scale(v), r) for q, v, r in dead} for t, dead in walks[4].items()}
        return new

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
    memo = clock._walks(system)[1]

    def memo_step(images, sym):
        key = (images, sym)
        try:
            return memo[key]
        except KeyError:
            child = memo[key] = step(images, sym)
            return child

    return memo_step


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


# A level stepper, bound to its search's automaton: ``advance(level,
# clock)`` gives the next level, or None when the budget runs out.
_Advance = Callable[[dict, SearchClock], dict | None]


def _stepper(step: Callable, aut: PrunedAutomaton) -> _Advance:
    """The level stepper ``advance(level, clock)`` that :func:`_levels`
    takes, from a ``step(values, sym)`` on the admissible words of ``aut``:
    :func:`_level_step` bound to both."""
    return functools.partial(_level_step, step, aut)


def _levels(
    aut: PrunedAutomaton, advance: _Advance, roots: Sequence, clock: SearchClock, horizon: int
) -> Iterator[list[dict]]:
    """Yield, for each length 1, 2, .., ``horizon``, the complete level of
    every root, one list per length, each level starting at ``aut.start``
    and stepped by ``advance(level, clock)``, a stepper bound to ``aut``
    (:func:`_stepper`, or :func:`_ratio_point_levels` on integer points),
    which returns the next level or None when the budget runs out.

    The sweep stops at the first refused charge (then ``clock.exceeded``),
    whose length is not yielded, and at the first length where some root's
    level is empty, once every root's level of that length is stepped.
    """
    levels = [{(aut.start, root): ()} for root in roots]
    for _ in range(horizon):
        stepped = []
        for level in levels:
            out = advance(level, clock)
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


def _ratio_point_levels(exact: _Exact, aut: PrunedAutomaton) -> tuple[Callable, _Advance]:
    """``(encode, advance)`` of point searches on integers over one shared
    denominator, with the system's exact form, on the admissible words of
    ``aut``: :func:`_level_step` over :func:`step_points`, each edge
    stepped inline.

    A key's values are one flat tuple ``(D, N1, N2, ..)``, the points
    ``N1/D, N2/D, ..``, and ``D > 0`` is shared by every key of the level,
    so two keys are equal exactly when their points are.  ``K`` is the lcm
    of the slopes' denominators, and a level on ``D`` steps to one on
    ``D*K``, with integers computed once per level: a point ``N`` passes
    the piece with ``floor(lo*D) < N < ceil(hi*D)`` to ``A*N + B``, where
    ``A = slope*K`` and ``B = offset*D*K``, and survives the clamp when
    ``ceil(box_lo*D*K) <= A*N + B <= floor(box_hi*D*K)`` (an infinite end
    is an infinite float).  ``B`` is an integer because every ``D`` is a
    multiple of ``L``, the least number for which ``offset*L*K`` is an
    integer on every piece: ``encode(points)`` takes ``D`` as the lcm of
    ``L`` and the denominators of the points' exact values.  Unit slopes,
    as on circle rotations, give ``K = 1``: every level keeps the root's
    ``D``.

    ``advance(level, clock)`` returns the next level of a non-empty
    ``level``, or None at the first refused charge.  For each key in
    insertion order and each admissible symbol in order, the clock is
    charged once before the step; the child dies where :func:`step_points`
    returns None, and a surviving one is inserted with ``dict.setdefault``,
    keeping the least word of its key.  Once ``D*K`` is wider than
    ``_REDUCE_BITS`` bits, the stepped level is divided by the gcd of
    ``D*K // L`` and all its numerators, so that ``D`` stays a multiple of
    ``L``.  Groups of one and of two points, the type-1 and type-2 traffic,
    have their own loops; larger groups share one.
    """
    box = exact.box
    clamp = box is not None
    bl_n, bl_d, bh_n, bh_d = box or (0, 0, 0, 0)
    # Each table row (a*v + b) / c as its symbol, its piece test, and its
    # slope's and its offset's numerator and denominator in lowest terms.
    pieces = []
    for sym, table in enumerate(exact.tables):
        for lo_n, lo_d, hi_n, hi_d, a, b, c in table:
            g, h = gcd(a, c), gcd(b, c)
            pieces.append((sym, lo_n, lo_d, hi_n, hi_d, a // g, c // g, b // h, c // h))
    K = lcm(*(piece[6] for piece in pieces))
    L = lcm(*(od // gcd(od, K) for *_, od in pieces))
    # Each symbol's rows (lo, hi, A, B) on the denominator of the level being
    # stepped, refilled in place when that denominator changes, so that the
    # edge lists below hold them by reference; filled holds the denominator
    # and the clamp bounds of the child level.
    slots: list[list] = [[] for _ in exact.tables]
    scaled = [
        (slots[sym], lo_n, lo_d, hi_n, hi_d, sn * (K // sd), on * K, od)
        for sym, lo_n, lo_d, hi_n, hi_d, sn, sd, on, od in pieces
    ]
    filled: list = [None, None, None]
    # Each state's admissible edges, as (next state, (symbol,), the symbol's
    # slot), built once: rebuilding them for every level was measurably
    # slower.
    edges = [
        [(nxt, (sym,), slots[sym]) for sym, nxt in enumerate(row) if nxt >= 0]
        for row in aut.transitions
    ]

    def encode(points: Iterable[Scalar]) -> tuple[int, ...]:
        ratios = [x.as_integer_ratio() for x in points]
        D = lcm(L, *(d for _, d in ratios))
        return (D, *(n * (D // d) for n, d in ratios))

    # Each loop takes the child level's denominator D and clamp bounds.

    def one(level: dict, spend: Callable[[], bool], D: int, cl, ch) -> dict | None:
        out: dict = {}
        insert = out.setdefault
        for (state, (_, n)), word in level.items():
            for nxt, sym, rows in edges[state]:
                if not spend():
                    return None
                for lo, hi, a, b in rows:
                    if lo < n < hi:
                        p = a * n + b
                        break
                else:
                    continue  # undefined at n/D
                if clamp and not cl <= p <= ch:
                    continue  # outside the closed clamp box
                insert((nxt, (D, p)), word + sym)
        return out

    def two(level: dict, spend: Callable[[], bool], D: int, cl, ch) -> dict | None:
        out: dict = {}
        insert = out.setdefault
        for (state, (_, n1, n2)), word in level.items():
            for nxt, sym, rows in edges[state]:
                if not spend():
                    return None
                for lo, hi, a, b in rows:
                    if lo < n1 < hi:
                        p1 = a * n1 + b
                        break
                else:
                    continue
                if clamp and not cl <= p1 <= ch:
                    continue
                for lo, hi, a, b in rows:
                    if lo < n2 < hi:
                        p2 = a * n2 + b
                        break
                else:
                    continue
                if clamp and not cl <= p2 <= ch:
                    continue
                insert((nxt, (D, p1, p2)), word + sym)
        return out

    def many(level: dict, spend: Callable[[], bool], D: int, cl, ch) -> dict | None:
        out: dict = {}
        insert = out.setdefault
        for (state, (_, *ns)), word in level.items():
            for nxt, sym, rows in edges[state]:
                if not spend():
                    return None
                child = [D]
                for n in ns:
                    for lo, hi, a, b in rows:
                        if lo < n < hi:
                            p = a * n + b
                            break
                    else:
                        break
                    if clamp and not cl <= p <= ch:
                        break
                    child.append(p)
                else:
                    insert((nxt, tuple(child)), word + sym)
        return out

    loops = {2: one, 3: two}

    def advance(level: dict, clock: SearchClock) -> dict | None:
        values = next(iter(level))[1]
        D = values[0]
        if D != filled[0]:
            for slot in slots:
                slot.clear()
            for slot, lo_n, lo_d, hi_n, hi_d, a, onK, od in scaled:
                lo = lo_n * D // lo_d if lo_d else NEG_INF
                hi = -(-hi_n * D // hi_d) if hi_d else POS_INF
                slot.append((lo, hi, a, onK * D // od))
            cl = ch = None
            if clamp:
                cl = -(-bl_n * D * K // bl_d) if bl_d else NEG_INF
                ch = bh_n * D * K // bh_d if bh_d else POS_INF
            filled[:] = D, cl, ch
        _, cl, ch = filled
        D *= K
        loop = loops.get(len(values), many)
        out = loop(level, clock.spend, D, cl, ch)
        if out and D.bit_length() > _REDUCE_BITS:
            g = D // L
            for _, child in out:
                g = gcd(g, *child)
                if g == 1:
                    break
            else:
                out = {(s, tuple(v // g for v in child)): w for (s, child), w in out.items()}
        return out

    return encode, advance


def _point_search(system: SwitchedSystem) -> tuple[Callable, _Advance, Callable, Callable]:
    """``(encode, advance, near, scalar)`` of a point search on finite
    points and targets: the one place where points are sent to integers
    or kept as they are.

    A value is the flat tuple ``(D, N1, N2, ..)`` of a group's points over
    the level's shared denominator ``D``, and ``scalar(N, D)`` is the point
    ``N/D``.  ``encode(points)`` is a group's root value and ``advance`` the
    level stepper of :func:`_levels`, bound to ``system.automaton``;
    ``near(targets, eps)`` is the leaf test of one group, passing when
    every point is within ``eps`` of its target (``|v - t| < eps``).  In
    rational mode the ``N`` are integers, encoded and stepped by
    :func:`_ratio_point_levels`, the test is ``|N*td - tn*D| * ed < en * D
    * td``, every point, target and ``eps = en/ed`` at its exact value, and
    ``scalar`` builds ``Fraction(N, D)``.  In float mode ``D`` is 1, the
    ``N`` are the points, stepped by :func:`_level_step` over
    :func:`step_points`, and ``scalar`` returns ``N``.  Both ways step the
    same words.
    """
    aut = system.automaton
    exact = system._exact()
    if exact is None:

        def step(values: tuple, sym: int) -> tuple | None:
            points = step_points(system, values[1:], sym)
            return None if points is None else (1, *points)

        def near(targets: tuple[Scalar, ...], eps: Scalar) -> Callable[[tuple], bool]:
            return lambda values: all(abs(v - t) < eps for v, t in zip(values[1:], targets))

        return lambda points: (1, *points), _stepper(step, aut), near, lambda n, D: n

    def near(targets: tuple[Scalar, ...], eps: Scalar) -> Callable[[tuple], bool]:
        en, ed = eps.as_integer_ratio()
        goals = tuple((i, *t.as_integer_ratio()) for i, t in enumerate(targets, 1))

        def test(values: tuple[int, ...]) -> bool:
            D = values[0]
            for i, tn, td in goals:
                if abs(values[i] * td - tn * D) * ed >= en * D * td:
                    return False
            return True

        return test

    encode, advance = _ratio_point_levels(exact, aut)
    return encode, advance, near, Fraction


def _walk_depth(horizon: int, clock: SearchClock) -> int:
    """``H``, the depth a walk's denominator holds: ``horizon`` rounded up
    to a power of two and capped by the node budget."""
    return min(1 << (horizon - 1).bit_length(), clock.budget.max_words)


def _matched(sources: Sequence[IntervalSet], targets: Sequence[IntervalSet]) -> tuple:
    """``targets`` as a tuple, one per source; raises ValueError when the
    counts differ."""
    targets = tuple(targets)
    if len(targets) != len(sources):
        counts = f"{len(sources)} sources, {len(targets)} targets"
        raise ValueError(f"one target per source: got {counts}")
    return targets


def _set_search(
    system: SwitchedSystem,
    inside: bool,
    sources: Sequence[IntervalSet],
    horizon: int,
    clock: SearchClock,
    shared: bool = False,
) -> tuple[tuple, Callable, _Advance, Callable, Callable]:
    """``(root, step, advance, fits, build)`` of a set search from
    ``sources`` to depth ``horizon`` at most: the one place where sets are
    sent to integers or kept as sets.

    ``root`` is the sources' value, ``step(values, sym)`` steps it and
    ``advance`` is the level stepper of a sweep from it (:func:`_levels`);
    ``fits(targets)`` is the leaf test towards one tuple of targets, passing
    when every final enclosure meets its target (``intersects`` with the
    system's ``min_overlap``, partial images), or with ``inside`` lies
    inside it (``subset_of``, total images); ``build`` turns one enclosure
    back into a set.  Float mode carries sets, steps them with
    :func:`step_images`, and ``build`` is the identity.

    In rational mode each enclosure is the flat tuple ``(lo1, hi1, lo2, hi2,
    ..)`` of its components' ends times a denominator ``D``, each an int or
    an infinite float, stepped by :func:`~swmix.core._image_ends` on the
    maps scaled to ``D`` (:func:`~swmix.core._set_tables`).  The root lies
    on ``lcm(L, ends)``: ``L`` is the lcm of the system's domain-end,
    offset and clamp-box denominators and ``ends`` those of the sources'
    finite ends.  ``K``, the lcm of the slopes' denominators, takes a value
    on ``D`` to one on ``D*K``.  A sweep's level therefore lies on
    ``lcm(L, ends) * K**n`` at depth ``n``, and ``advance`` moves ``D``, the
    scaled maps and every leaf test's thresholds to the next level's
    ``D``; ``step`` steps the current level.  The walker (``shared``) keeps
    one ``D`` for every depth of its walk and every walk on the clock
    (:meth:`SearchClock._denominator`), so that the clock's memo and
    dead-subtree keys stay canonical: ``lcm(L, ends) * K**H``, where ``H``
    is ``horizon`` rounded up to a power of two and capped by the node
    budget (:func:`_walk_depth`), so a walk over lengths 1, 2, .. rescales the clock's keys at
    lengths 2, 3, 5, 9, .. only.  Rotations and tents have ``K = 1``,
    and then ``D`` never changes.  Targets, ``min_overlap`` and the clamp
    box are floor and ceiling thresholds on ``D``.  ``build`` gives every
    end as a Fraction or an infinity.  Both modes step the same words.
    """
    aut = system.automaton
    exact = system._exact()
    if exact is None:
        min_overlap = system.numerics.min_overlap
        if inside:
            test = IntervalSet.subset_of
        else:
            test = functools.partial(IntervalSet.intersects, min_overlap=min_overlap)

        def fits(targets: Sequence[IntervalSet]) -> Callable[[tuple], bool]:
            goals = _matched(sources, targets)
            return lambda values: all(map(test, values, goals))

        step = functools.partial(step_images, system, partial=not inside)
        return tuple(sources), step, _stepper(step, aut), fits, lambda s: s
    partial = not inside
    D, k = _end_lcm(sources, exact.L), exact.K
    if shared:
        D, k = clock._denominator(system, D * k ** _walk_depth(horizon, clock)), 1
    if inside:
        goal_of, test = _inside_goal, _ends_inside
    else:
        m = _exact_value(system.numerics.min_overlap)
        goal_of, test = functools.partial(_meet_goal, m=m if m > 0 else 0), _ends_meet
    box = system.bounds
    held = []  # every leaf test's targets and goals, refilled when D moves
    tables = clamp = None

    def scale() -> None:
        """Scale the maps, the clamp box and the leaf tests to ``D``."""
        nonlocal tables, clamp
        tables = _set_tables(exact, D, k)
        E = D * k
        clamp = system.clamp and (-1, ((_scaled(box.hi, E, up=True), _scaled(box.lo, E)),))
        for targets, goals in held:
            goals[:] = [goal_of(t, D) for t in targets]

    def fits(targets: Sequence[IntervalSet]) -> Callable[[tuple], bool]:
        targets = _matched(sources, targets)
        goals = [goal_of(t, D) for t in targets]
        held.append((targets, goals))
        return lambda values: all(map(test, values, goals))

    def step(images: tuple, sym: int) -> tuple | None:
        pieces = tables[sym]
        out = []
        for ends in images:
            try:
                nxt = _image_ends(pieces, ends, partial)
            except UndefinedOnSet:
                return None
            if not nxt or (clamp and not _ends_meet(nxt, clamp)):
                return None
            out.append(nxt)
        return tuple(out)

    def advance(level: dict, clock: SearchClock) -> dict | None:
        nonlocal D
        out = _level_step(step, aut, level, clock)
        if k > 1:
            D *= k
            scale()
        return out

    scale()
    root = tuple(_set_ends(s, D) for s in sources)
    return root, step, advance, fits, lambda ends: _ends_set(ends, D)


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

    The words are walked by :func:`~swmix.language.walk` through the step
    memo and the dead-subtree set of the clock's walk record for
    ``system`` (:meth:`SearchClock._walks`), from a set-up
    (:func:`_set_search`) that the record keeps for these sources and
    targets while its ``D`` serves the walk's depth.  A hit's sets are
    built when it is yielded.  Stops silently when the clock runs out (check
    ``clock.exceeded``); raises ValueError for a ``length`` below 1 or for
    other than one target per source.
    """
    key = sources, targets = tuple(sources), tuple(targets)
    walks = clock._walks(system)
    setup = walks[3].get(key)
    if setup is None or _walk_depth(length, clock) > setup[0]:
        root, step, _, fits, build = _set_search(system, False, sources, length, clock, shared=True)
        exact, H = system._exact(), POS_INF
        if exact is not None and exact.K > 1:
            q, H = walks[2] // _end_lcm(sources, exact.L), 0
            while not q % exact.K:
                q, H = q // exact.K, H + 1
        setup = walks[3][key] = (H, root, _memo_step(clock, system, step), fits(targets), build)
    _, root, step, leaf, build = setup
    dead = walks[4].setdefault(targets, set())
    for syms, values in walk(system.automaton, length, root, step, clock.spend, leaf, dead):
        yield syms, tuple(map(build, values))


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
    dies; raises ValueError for a length below 1 or for other than one
    target per source.
    """
    wanted = set(lengths)
    if any(n < 1 for n in wanted):
        raise ValueError("word length must be at least 1")
    aut, suffix = system.automaton, tuple(suffix)
    horizon = max(wanted, default=0)
    root, _, advance, fits, build = _set_search(system, False, sources, horizon, clock)
    test = fits(targets)
    sweep = _levels(aut, advance, [root], clock, horizon)
    for n, (level,) in enumerate(sweep, 1):
        if n in wanted:
            for (_, values), word in level.items():
                if test(values) and accepts_prefix(aut, word + suffix):
                    return word, tuple(map(build, values))
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
    holds its least hit.  Points are stepped as :func:`_point_search` picks,
    and its ``scalar`` builds each point of a yielded hit: one Fraction in
    rational mode.
    Stops silently when the clock runs out (check ``clock.exceeded``), a
    group's orbits all die or the horizon passes; raises ValueError for a
    ``horizon`` below 1.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    encode, advance, near, scalar = _point_search(system)
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
                word, (D, *ns) = hit
                hits.append((word, tuple(scalar(n, D) for n in ns)))
            else:
                yield n, tuple(hits)
                break
        else:
            return
