"""Proximality/divergence envelopes and staged approximation witnesses.

The envelope of a point pair records, for every word length up to a
horizon, the smallest and largest distance any admissible composition can
put between the two orbits, together with lexicographically first words
attaining each extreme (in float mode a type-1 row may record another pair
where rounding ties an extreme, see below).  Type 2 applies one word to both
points; type 1 lets the two points ride independent words of equal
length.  Envelopes and Xiong witnesses both search groups of points: one
group of every point for type 2, one group per point for type 1.  Both sweep
one deduplicated orbit level per group and length with
:func:`~swmix.search._levels`, the one level loop, off which first-hit set
searches and spread-table rows also read their hits.  An envelope reads each
length's extremes off its levels and keeps a length while every level has
orbits left; a Xiong witness (:func:`~swmix.search.iter_point_hits`) reads
each stage's least hitting words off them, and since stage lengths strictly
increase, one sweep serves every stage.

A finite horizon can only ever produce evidence about the limit behaviour,
so verdicts are explicitly three-valued.

Point orbits are stepped on integers in rational mode, where the system's
exact form (:meth:`swmix.core.SwitchedSystem._exact`) exists; the mode
alone picks the path, in :func:`~swmix.search._point_search`, shared by
both searches, and the envelope rows read values only through it.  Every
level key is ``(state, (D, N1[, N2]))``: the points ``N/D`` over one
denominator ``D`` that every key of the level shares, and the adapter's
``scalar(N, D)`` gives a value.  In rational mode the ``N`` are integers,
each level is stepped whole by the integer kernel
:func:`~swmix.search._ratio_point_levels`, which grows ``D`` by the lcm of
the slopes' denominators per length (not at all on unit slopes) and divides
a level down by a gcd only once ``D`` outgrows a machine word, and
``scalar`` builds a
Fraction; every point, target and tolerance counts at its exact value, a
finite float's included; so does a float target in an error ``|v - t|``
(:func:`_error`).  In float mode ``D`` is 1 and the ``N`` are the float
points.  Type-2 distances are ``|N2 - N1|`` over the level's ``D``; type-1
levels collapse to their distinct ``N * (L // D)``, with ``L`` the lcm of
the two levels' denominators, one multiplier per level, which are sorted,
bisected and scanned as plain numbers.  One scalar is built
per row extreme, and the rows, words, truncation and clock charges are
those of the plain level loop, with one float-mode exception: type-1 words
are read off the extreme values, so where rounding makes another pair's
distance equal an extreme's, the row may record a pair that is not
lexicographically first (:func:`_type1_row`).  Globally affine maps move the
orbit difference on its own, so in rational mode a type-2 envelope of such
maps without a clamp searches the pair ``(0, y - x)`` (``y - x`` at exact
values) under the maps' linear parts, in the same language and bounds: one
key per state and difference, on the same path as any other point
search.  Float mode steps the point pair itself, like every other float
envelope: rounded orbits do not move their difference on its own, and
:func:`verify_envelope` recomputes the distance of the two float orbits.

The verifiers re-check apart from the search: they replay every stored
word with :func:`~swmix.core.eval_point` on the exact form's tables,
never through the search kernel.  In rational mode they compare each
replayed distance or error with its recorded value on integers, by
cross-multiplying the ratios of the exact values, and build no Fraction
beyond :func:`~swmix.core.eval_point`'s results.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from math import isfinite, lcm
from typing import Callable, Sequence

from .core import PiecewiseAffineMap, SwitchedSystem, eval_point
from .errors import UndefinedAtPoint
from .intervals import Scalar, _exact_value
from .language import accepts_prefix
from .search import (
    SearchBudget,
    SearchClock,
    _levels,
    _point_search,
    iter_point_hits,
)
from .words import Word

__all__ = [
    "EnvelopeRow",
    "DistanceEnvelope",
    "ScrambledVerdict",
    "XiongStage",
    "XiongWitness",
    "distance_envelope",
    "verify_envelope",
    "scrambled_verdict",
    "xiong_witness",
    "verify_xiong",
]


@dataclass(frozen=True)
class EnvelopeRow:
    """Extremes at one word length; ``min_words``/``max_words`` hold one word
    for type 2 and an (x-word, y-word) pair for type 1."""

    length: int
    d_min: Scalar
    d_max: Scalar
    min_words: tuple[Word, ...]
    max_words: tuple[Word, ...]


@dataclass(frozen=True)
class DistanceEnvelope:
    kind: str  # "type1" | "type2"
    x: Scalar
    y: Scalar
    horizon: int
    rows: tuple[EnvelopeRow, ...]
    truncated: bool

    def __post_init__(self) -> None:
        if self.kind not in ("type1", "type2"):
            raise ValueError(f"unknown envelope kind {self.kind!r}")


@dataclass(frozen=True)
class ScrambledVerdict:
    verdict: str  # "supported" | "refuted-at-horizon" | "inconclusive"
    prox_hits: int
    div_hits: int
    best_min: Scalar
    best_max: Scalar
    eps_prox: Scalar
    eps_div: Scalar
    k: int


def _require_finite(what: str, values: Sequence[Scalar]) -> None:
    """TypeError for a bool or non-number, ValueError for NaN or infinity."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
            raise TypeError(f"{what} must be numbers, got {x!r}")
        if isinstance(x, float) and not isfinite(x):
            raise ValueError(f"{what} must be finite, got {x!r}")


def _error(system: SwitchedSystem, v: Scalar, t: Scalar) -> Scalar:
    """``|v - t|``; in rational mode on the exact value of a float target,
    so that an exact orbit value keeps an exact error."""
    return abs(v - (t if system._exact() is None else _exact_value(t)))


def _type2_row(n: int, level: dict, scalar: Callable) -> EnvelopeRow:
    """Type-2 extremes of a level in one pass.

    A level holds points ``(D, N1, N2)`` over its one denominator ``D``
    (:func:`~swmix.search._point_search`), whose distance ``|N2 - N1|`` is
    compared as it is and built as ``scalar(|N2 - N1|, D)`` per extreme.
    Words increase in insertion order (:func:`~swmix.search._level_step`),
    so keeping the first of equal distances keeps the least word.
    """
    it = iter(level.items())
    (_, (D, n1, n2)), w = next(it)
    lo = hi = abs(n2 - n1)
    wlo = whi = w
    for (_, (_, n1, n2)), w in it:
        dn = abs(n2 - n1)
        if dn < lo:
            lo, wlo = dn, w
        elif dn > hi:
            hi, whi = dn, w
    return EnvelopeRow(n, scalar(lo, D), scalar(hi, D), (Word(wlo),), (Word(whi),))


def distance_envelope(
    system: SwitchedSystem,
    x: Scalar,
    y: Scalar,
    kind: str = "type2",
    horizon: int = 10,
    budget: SearchBudget = SearchBudget(),
) -> DistanceEnvelope:
    """Per-length orbit-distance extremes with attaining words.

    Deduplicates orbit states level by level, so in rational mode globally
    affine systems cost O(horizon) per level in the shared-word case.  On
    budget exhaustion the envelope is returned truncated at the last
    completed length.

    Rational mode carries each level as integers over one shared
    denominator, at the points' exact values (module docstring); the rows,
    words, truncation and clock charges are those of the plain level loop,
    except that a float-mode type-1 row may record a pair of words other
    than the least where rounding ties an extreme (:func:`_type1_row`).
    ``horizon`` must be an int of at least 1; ``x`` and ``y`` distinct
    finite numbers, not bools.
    """
    if kind not in ("type1", "type2"):
        raise ValueError(f"unknown envelope kind {kind!r}")
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise TypeError(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    _require_finite("points", (x, y))
    if x == y:
        raise ValueError("need two distinct points")
    if (
        kind == "type2"
        and not system.clamp
        and system._exact() is not None
        and all(pam.is_global for pam in system.maps)
    ):
        # The orbit difference moves on its own (module docstring).
        linear = tuple(
            PiecewiseAffineMap.globally(pam.effective_pieces[0].slope, 0) for pam in system.maps
        )
        stepped = replace(system, maps=linear)
        pair = (0, _exact_value(y) - _exact_value(x))
    else:
        stepped, pair = system, (x, y)
    encode, advance, _, scalar = _point_search(stepped)
    # Type 2 steps both points in one level, type 1 each in its own.
    roots = [encode(pair)] if kind == "type2" else [encode((x,)), encode((y,))]
    row = partial(_type2_row if kind == "type2" else _type1_row, scalar=scalar)
    clock = SearchClock(budget)
    levels = _levels(system.automaton, advance, roots, clock, horizon)
    rows = tuple(row(n, *level) for n, level in enumerate(levels, 1))
    return DistanceEnvelope(
        kind=kind, x=x, y=y, horizon=horizon, rows=rows, truncated=clock.exceeded
    )


def _type1_row(n: int, level_x: dict, level_y: dict, scalar: Callable) -> EnvelopeRow:
    """Independent-word extremes via sorted values and nearest-neighbour scan.

    Each level collapses to a ``{N: least word}`` dict of its distinct
    values (the first word met is the least, see
    :func:`~swmix.search._level_step`).  A level holds points ``N`` over its
    one denominator ``D`` (:func:`~swmix.search._point_search`); both levels
    are brought to ``L = lcm(Dx, Dy)`` by the single multiplier ``L // D``
    each (none in float mode, where ``D`` is 1), so the plain ``N`` sort,
    bisect and subtract like the values, and each extreme is built once as
    ``scalar(k, L)``.

    The minimum is scanned on the values alone, over each y value's two
    neighbours among the sorted x values; words are compared only among the
    scanned pairs at the minimum, and the least pair is kept.  At the
    maximum the least of the two extreme pairs is kept.  With exact values
    no other pair reaches an extreme, so these are the lexicographically
    first pairs.  Float distances are rounded, and a pair the scans pass
    over can round to an extreme's distance: the row keeps the scanned
    pair, which need not be the least.  (Float maps {2x - 1 on (0, 1/8), x -
    1 on (1/8, 1)} and -x + 2/3 from -1 and 0.062, length 3: y-words 110
    and 011 both reach the maximum 2.542666666666667, and the row records
    110.)
    """

    def collapse(level: dict) -> dict:
        best: dict = {}
        for (_, v), w in level.items():
            best.setdefault(v[-1], w)
        return best

    bx, by = collapse(level_x), collapse(level_y)
    dx, dy = next(iter(level_x))[1][0], next(iter(level_y))[1][0]
    scale = lcm(dx, dy)
    if scale != dx:
        k = scale // dx
        bx = {v * k: w for v, w in bx.items()}
    if scale != dy:
        k = scale // dy
        by = {v * k: w for v, w in by.items()}
    xs, ys = sorted(bx), sorted(by)
    # Each y value's neighbours: the greatest x below it (i - 1) and the
    # least x at or above it (i), so both differences are non-negative.
    find, top = bisect.bisect_left, len(xs)
    lo, ties = None, []
    for v in ys:
        i = find(xs, v)
        for j in (i - 1, i):
            if 0 <= j < top:
                xv = xs[j]
                d = v - xv if j < i else xv - v
                if lo is None or d < lo:
                    lo, ties = d, [(xv, v)]
                elif d == lo:
                    ties.append((xv, v))
    assert lo is not None
    w_lo = min((bx[xv], by[v]) for xv, v in ties)
    # |a - b| over independent choices peaks at one of the two extreme combos
    hi, *w_hi = min(
        (xs[-1] - ys[0], bx[xs[-1]], by[ys[0]]),
        (ys[-1] - xs[0], bx[xs[0]], by[ys[-1]]),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    return EnvelopeRow(
        n,
        scalar(lo, scale),
        scalar(hi, scale),
        tuple(map(Word, w_lo)),
        tuple(map(Word, w_hi)),
    )


def _ratio(x: object) -> tuple[int, int] | None:
    """The exact value ``n/d`` of a finite int, float or Fraction (a bool
    counts as an int); None for NaN, an infinity or anything else."""
    if isinstance(x, (int, Fraction)) or isinstance(x, float) and isfinite(x):
        return x.as_integer_ratio()
    return None


def verify_envelope(system: SwitchedSystem, env: DistanceEnvelope) -> bool:
    """Recompute each row's extremes from the stored attaining words.

    False, never an exception, when the rows are not the lengths 1, 2, ..,
    r with r at most the horizon (as :func:`distance_envelope` emits them),
    when a row holds the wrong number of words (one per extreme for type 2,
    two for type 1), a word of the wrong length or one the switching
    language does not admit, or a word along which an orbit dies.

    Every orbit is replayed by :func:`~swmix.core.eval_point`.  In rational
    mode a replayed distance ``|u - v|`` is compared with its row's value
    ``c`` on integers, ``|un*vd - vn*ud| * cd == cn * ud * vd`` over the
    ratios ``n/d`` of the exact values, so a NaN, infinite or non-numeric
    row value fails; float mode compares the floats.
    """
    if len(env.rows) > env.horizon or any(
        row.length != n for n, row in enumerate(env.rows, 1)
    ):
        return False
    exact = system._exact() is not None
    per_extreme = 1 if env.kind == "type2" else 2
    for row in env.rows:
        if len(row.min_words) != per_extreme or len(row.max_words) != per_extreme:
            return False
        for w in row.min_words + row.max_words:
            if len(w) != row.length or not accepts_prefix(system.automaton, w):
                return False
        try:
            # ws[0] drives x and ws[-1] drives y: the same word for type 2.
            ends = [
                (eval_point(system, ws[0], env.x), eval_point(system, ws[-1], env.y))
                for ws in (row.min_words, row.max_words)
            ]
        except UndefinedAtPoint:
            return False
        for (u, v), claim in zip(ends, (row.d_min, row.d_max)):
            if not exact:
                if abs(u - v) != claim:
                    return False
                continue
            c = _ratio(claim)
            if c is None:
                return False
            (un, ud), (vn, vd), (cn, cd) = u.as_integer_ratio(), v.as_integer_ratio(), c
            if abs(un * vd - vn * ud) * cd != cn * ud * vd:
                return False
    return True


def scrambled_verdict(
    env: DistanceEnvelope,
    eps_prox: Scalar,
    eps_div: Scalar,
    k: int = 3,
) -> ScrambledVerdict:
    """Three-valued reading of an envelope against proximality/divergence
    thresholds: finite-horizon evidence only, never a proof of the limits.

    ``k``, the number of rows that must pass each threshold, must be an int
    of at least 1; ``eps_prox`` and ``eps_div`` finite numbers, not bools.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be positive, got {k!r}")
    _require_finite("thresholds", (eps_prox, eps_div))
    if not env.rows:
        raise ValueError("empty envelope")
    prox = sum(1 for r in env.rows if r.d_min < eps_prox)
    div = sum(1 for r in env.rows if r.d_max > eps_div)
    best_min = min(r.d_min for r in env.rows)
    best_max = max(r.d_max for r in env.rows)
    if prox >= k and div >= k:
        verdict = "supported"
    elif len(env.rows) < k or env.truncated:
        verdict = "inconclusive"
    else:
        verdict = "refuted-at-horizon"
    return ScrambledVerdict(
        verdict=verdict,
        prox_hits=prox,
        div_hits=div,
        best_min=best_min,
        best_max=best_max,
        eps_prox=eps_prox,
        eps_div=eps_div,
        k=k,
    )


@dataclass(frozen=True)
class XiongStage:
    """One rung of a staged approximation: words of a common length driving
    every tracked point to within ``tolerance`` of its target."""

    tolerance: Scalar
    length: int
    words: tuple[Word, ...]  # one shared word, or one word per point
    errors: tuple[Scalar, ...]


@dataclass(frozen=True)
class XiongWitness:
    kind: str  # "type1" | "type2"
    points: tuple[Scalar, ...]
    targets: tuple[Scalar, ...]
    stages: tuple[XiongStage, ...]
    complete: bool

    def __post_init__(self) -> None:
        if self.kind not in ("type1", "type2"):
            raise ValueError(f"unknown witness kind {self.kind!r}")

    def stage_lengths(self) -> tuple[int, ...]:
        return tuple(s.length for s in self.stages)


def xiong_witness(
    system: SwitchedSystem,
    points: Sequence[Scalar],
    targets: Sequence[Scalar],
    kind: str = "type2",
    tolerances: Sequence[Scalar] = (),
    budget: SearchBudget = SearchBudget(),
) -> XiongWitness:
    """Drive every point of a finite set toward its target simultaneously.

    Stage i looks for the first length (strictly above the previous stage's)
    at which every group of points has a word putting each of its points
    within ``tolerances[i]`` of its target: type 2 needs one shared word,
    type 1 an independent word per point at that same length.  Returns the
    completed stages with ``complete=False`` when the budget or horizon
    stops the construction.

    Points, targets and tolerances must be finite numbers (not bools);
    tolerances must also be positive and strictly decreasing.  In rational
    mode the orbits are stepped on integers, and each error is exact
    (:func:`_error`).  All stages share one level sweep per group
    (:func:`~swmix.search.iter_point_hits`), so the clock is charged once
    per swept ``(state, values)`` key and symbol of the witness.
    """
    if kind not in ("type1", "type2"):
        raise ValueError(f"unknown witness kind {kind!r}")
    pts = tuple(points)
    tgts = tuple(targets)
    tol = tuple(tolerances)
    for what, values in (("points", pts), ("targets", tgts), ("tolerances", tol)):
        _require_finite(what, values)
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    if len(pts) != len(tgts) or not pts:
        raise ValueError("need one target per point")
    if not tol or any(b >= a for a, b in zip(tol, tol[1:])) or tol[-1] <= 0:
        raise ValueError("tolerances must be positive and strictly decreasing")
    groups = [pts] if kind == "type2" else [(x,) for x in pts]
    goals = [tgts] if kind == "type2" else [(t,) for t in tgts]
    clock = SearchClock(budget)
    sweep = iter_point_hits(system, groups, goals, tol, budget.max_horizon, clock)
    stages = []
    for eps, (n, hits) in zip(tol, sweep):
        errs = [_error(system, v, t) for (_, vs), ts in zip(hits, goals) for v, t in zip(vs, ts)]
        stages.append(XiongStage(eps, n, tuple(Word(w) for w, _ in hits), tuple(errs)))
    return XiongWitness(kind, pts, tgts, tuple(stages), complete=len(stages) == len(tol))


def verify_xiong(system: SwitchedSystem, wit: XiongWitness) -> bool:
    """Replay every stage word and confirm the recorded errors and bounds:
    each replayed error at most its recorded one, which lies below the
    stage's finite tolerance; every word must be admitted by the switching
    language.  A witness with no stage, no point, or not one target per
    point carries no evidence and fails, and so does a NaN, infinite or
    non-numeric error, tolerance or target.

    Every orbit is replayed by :func:`~swmix.core.eval_point`.  In rational
    mode the error ``|v - t|`` and the bounds are compared on integers, over
    the ratios ``n/d`` of the exact values of the orbit end ``v``, the
    target ``t``, the recorded error ``c`` and the tolerance ``e``:
    ``|vn*td - tn*vd| * cd <= cn * vd * td`` and ``cn * ed < en * cd``.
    Float mode compares the floats.
    """
    lengths = wit.stage_lengths()
    if not lengths or not wit.points or len(wit.targets) != len(wit.points):
        return False
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        return False
    exact = system._exact() is not None
    for stage in wit.stages:
        words = stage.words
        if wit.kind == "type2":
            if len(words) != 1:
                return False
            words = words * len(wit.points)
        if len(words) != len(wit.points) or len(stage.errors) != len(wit.points):
            return False
        e = _ratio(stage.tolerance)
        if e is None:
            return False
        for w, x, t, claimed in zip(words, wit.points, wit.targets, stage.errors):
            if len(w) != stage.length or not accepts_prefix(system.automaton, w):
                return False
            try:
                v = eval_point(system, w, x)
            except UndefinedAtPoint:
                return False
            g, c = _ratio(t), _ratio(claimed)
            if g is None or c is None:
                return False
            if not exact:
                if not abs(v - t) <= claimed < stage.tolerance:
                    return False
                continue
            (vn, vd), (tn, td), (cn, cd), (en, ed) = v.as_integer_ratio(), g, c, e
            if abs(vn * td - tn * vd) * cd > cn * vd * td or cn * ed >= en * cd:
                return False
    return True
