"""Proximality/divergence envelopes and staged approximation witnesses.

The envelope of a point pair records, for every word length up to a horizon,
the smallest and largest distance any admissible composition can put between
the two orbits, together with lexicographically first words attaining each
extreme.  Type 2 applies one word to both points; type 1 lets the two points
ride independent words of equal length.  Envelopes and Xiong witnesses both
search groups of points: one group of every point for type 2, one group per
point for type 1.  Both sweep one deduplicated orbit level per group and
length with :func:`~swmix.search._levels`, the one level loop, off which
first-hit set searches and spread-table rows also read their hits.  An
envelope reads each length's extremes off its levels and keeps a length
while every level has orbits left; a Xiong witness
(:func:`~swmix.search.iter_point_hits`) reads each stage's least hitting
words off them, and since stage lengths strictly increase, one sweep serves
every stage.

A finite horizon can only ever produce evidence about the limit behaviour,
so verdicts are explicitly three-valued.

Point orbits are stepped on integers in rational mode, where the system's
exact form (:meth:`swmix.core.SwitchedSystem._exact`) exists; the mode
alone picks the path, in :func:`~swmix.search._point_search`, shared by
both searches.  An orbit value ``n/d`` is carried as two reduced integers,
and each level is stepped whole by the integer kernel
:func:`~swmix.search._ratio_point_levels`; every point, target and
tolerance counts at its exact value, a finite float's included; so does a
float target in an error ``|v - t|`` (:func:`_error`).  Envelope
level keys are ``(state, (n1, d1[, n2, d2]))``.  Type-2 distances are
``|ny*dx - nx*dy| / (dx*dy)``; type-1 levels are sorted and bisected on the
integers ``n * (L // d)``, with ``L`` the lcm of both levels' denominators.
One Fraction is built per row extreme, and the rows, words, truncation and
clock charges are those of the generic Fraction loop.  Globally affine maps
move the orbit difference on its own, so in rational mode a type-2
envelope of such maps without a clamp searches the pair ``(0, y - x)``
(``y - x`` at exact values) under the maps' linear parts, in the same
language and bounds: one key per state and difference, on the same path as
any other point search.  Float mode steps the point pair itself, like
every other float envelope: rounded orbits do not move their difference
on its own, and :func:`verify_envelope` recomputes the distance of the two
float orbits.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from math import isfinite, lcm
from operator import itemgetter
from typing import Sequence

from .core import PiecewiseAffineMap, SwitchedSystem, eval_point
from .errors import UndefinedAtPoint
from .intervals import POS_INF, Scalar, _exact_value
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


def _type2_row(n: int, level: dict, exact: bool) -> EnvelopeRow:
    """Type-2 extremes of a level in one pass.

    A level holds a point pair, or a ratio pair ``(nx, dx, ny, dy)``
    (``exact``), whose distance ``|ny*dx - nx*dy| / (dx*dy)`` is compared
    cross-multiplied and built as one Fraction per extreme.  Words increase
    in insertion order (:func:`~swmix.search._level_step`), so keeping the
    first of equal distances keeps the least word.
    """
    it = iter(level.items())
    if exact:
        (_, (nx, dx, ny, dy)), w = next(it)
        lo_n = hi_n = abs(ny * dx - nx * dy)
        lo_d = hi_d = dx * dy
        wlo = whi = w
        for (_, (nx, dx, ny, dy)), w in it:
            dn, dd = abs(ny * dx - nx * dy), dx * dy
            if dn * lo_d < lo_n * dd:
                lo_n, lo_d, wlo = dn, dd, w
            elif dn * hi_d > hi_n * dd:
                hi_n, hi_d, whi = dn, dd, w
        lo, hi = Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)
    else:
        dists = ((abs(v[1] - v[0]), w) for (_, v), w in it)
        (lo, wlo) = (hi, whi) = next(dists)
        for d, w in dists:
            if d < lo:
                lo, wlo = d, w
            elif d > hi:
                hi, whi = d, w
    return EnvelopeRow(n, lo, hi, (Word(wlo),), (Word(whi),))


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

    Rational mode carries the levels as reduced integer ratios of the
    points' exact values (module docstring); the rows, words, truncation
    and clock charges are those of the generic Fraction loop.  ``horizon``
    must be an int of at least 1; ``x`` and ``y`` distinct finite numbers, not bools.
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
    encode, advance, _, decode = _point_search(stepped)
    exact = decode is not None
    # Type 2 steps both points in one level, type 1 each in its own.
    roots = [encode(pair)] if kind == "type2" else [encode((x,)), encode((y,))]
    row = partial(_type2_row if kind == "type2" else _type1_row, exact=exact)
    clock = SearchClock(budget)
    levels = _levels(system.automaton, advance, roots, clock, horizon)
    rows = tuple(row(n, *level) for n, level in enumerate(levels, 1))
    return DistanceEnvelope(
        kind=kind, x=x, y=y, horizon=horizon, rows=rows, truncated=clock.exceeded
    )


def _type1_row(n: int, level_x: dict, level_y: dict, exact: bool) -> EnvelopeRow:
    """Independent-word extremes via sorted values and nearest-neighbour scan.

    Each level collapses to its distinct values, each with its least word
    (the first met, see :func:`~swmix.search._level_step`).  On ratio
    levels (``exact``) a value ``n/d`` becomes the integer ``n * (L // d)``,
    where ``L`` is the lcm of both levels' denominators: it sorts, bisects
    and subtracts like the value, and each extreme is built once as
    ``Fraction(k, L)``.
    """

    def collapse(level: dict) -> dict:
        best: dict = {}
        for key, w in level.items():
            best.setdefault(key[1], w)
        return best

    bx, by = collapse(level_x), collapse(level_y)
    if exact:
        scale = lcm(*{d for _, d in bx}, *{d for _, d in by})
        xs = [(v * (scale // d), w) for (v, d), w in bx.items()]
        ys = [(v * (scale // d), w) for (v, d), w in by.items()]
    else:
        xs = [(v, w) for (v,), w in bx.items()]
        ys = [(v, w) for (v,), w in by.items()]
    # The values are distinct, so sorting on them alone gives the same
    # order as sorting the pairs, without comparing equal values.
    xs.sort(key=itemgetter(0))
    ys.sort(key=itemgetter(0))
    x_vals = [v for v, _ in xs]
    best_min = None
    for v, wy in ys:
        i = bisect.bisect_left(x_vals, v)
        for j in (i - 1, i):
            if 0 <= j < len(xs):
                xv, wx = xs[j]
                cand = (abs(xv - v), wx, wy)
                if best_min is None or cand < best_min:
                    best_min = cand
    assert best_min is not None
    # |a - b| over independent choices peaks at one of the two extreme combos
    spans = sorted(
        [
            (xs[-1][0] - ys[0][0], xs[-1][1], ys[0][1]),
            (ys[-1][0] - xs[0][0], xs[0][1], ys[-1][1]),
        ],
        key=lambda t: (-t[0], t[1], t[2]),
    )
    d_min, d_max = best_min[0], spans[0][0]
    if exact:
        d_min, d_max = Fraction(d_min, scale), Fraction(d_max, scale)
    return EnvelopeRow(
        n,
        d_min,
        d_max,
        (Word(best_min[1]), Word(best_min[2])),
        (Word(spans[0][1]), Word(spans[0][2])),
    )


def verify_envelope(system: SwitchedSystem, env: DistanceEnvelope) -> bool:
    """Recompute each row's extremes from the stored attaining words.

    False, never an exception, when the rows are not the lengths 1, 2, ..,
    r with r at most the horizon (as :func:`distance_envelope` emits them),
    when a row holds the wrong number of words (one per extreme for type 2,
    two for type 1), a word of the wrong length or one the switching
    language does not admit, or a word along which an orbit dies.
    """
    if len(env.rows) > env.horizon or any(
        row.length != n for n, row in enumerate(env.rows, 1)
    ):
        return False
    per_extreme = 1 if env.kind == "type2" else 2
    for row in env.rows:
        if len(row.min_words) != per_extreme or len(row.max_words) != per_extreme:
            return False
        for w in row.min_words + row.max_words:
            if len(w) != row.length or not accepts_prefix(system.automaton, w):
                return False
        try:
            # ws[0] drives x and ws[-1] drives y: the same word for type 2.
            lo, hi = (
                abs(eval_point(system, ws[0], env.x) - eval_point(system, ws[-1], env.y))
                for ws in (row.min_words, row.max_words)
            )
        except UndefinedAtPoint:
            return False
        if lo != row.d_min or hi != row.d_max:
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
    mode the orbits are stepped on integer ratios, and each error is exact
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
    point carries no evidence and fails, and so does a NaN error or
    tolerance."""
    lengths = wit.stage_lengths()
    if not lengths or not wit.points or len(wit.targets) != len(wit.points):
        return False
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        return False
    for stage in wit.stages:
        words = stage.words
        if wit.kind == "type2":
            if len(words) != 1:
                return False
            words = words * len(wit.points)
        if len(words) != len(wit.points) or len(stage.errors) != len(wit.points):
            return False
        for w, x, t, claimed in zip(words, wit.points, wit.targets, stage.errors):
            if len(w) != stage.length or not accepts_prefix(system.automaton, w):
                return False
            try:
                err = _error(system, eval_point(system, w, x), t)
            except UndefinedAtPoint:
                return False
            # Written so that a NaN error or tolerance fails.
            if not err <= claimed < stage.tolerance < POS_INF:
                return False
    return True
