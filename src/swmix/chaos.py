"""Proximality/divergence envelopes and staged approximation witnesses.

The envelope of a point pair records, for every word length up to a horizon,
the smallest and largest distance any admissible composition can put between
the two orbits, together with lexicographically first words attaining each
extreme.  Type 2 applies one word to both points; type 1 lets the two points
ride independent words of equal length.  Envelopes and Xiong witnesses both
search groups of points: one group of every point for type 2, one group per
point for type 1.  An envelope steps one orbit level per group and keeps a
length while every level has orbits left.

A finite horizon can only ever produce evidence about the limit behaviour,
so verdicts are explicitly three-valued.

Point orbits are stepped on integers when the system's exact form
(:meth:`swmix.core.SwitchedSystem._exact`, where a system is sent to
integers or to the generic loops) exists and every point, target and
tolerance is a Fraction or an int: an orbit value ``n/d`` is carried as two
reduced integers and stepped by :func:`~swmix.search.ratio_point_step`,
which envelope levels and Xiong point searches
(:func:`~swmix.search.iter_point_hits`) share.  Envelope level keys are
``(state, (n1, d1[, n2, d2]))``.  Type-2 distances are ``|ny*dx - nx*dy| /
(dx*dy)``; type-1 levels are sorted and bisected on the integers ``n * (L
// d)``, with ``L`` the lcm of both levels' denominators.  One Fraction is
built per row extreme, and the rows, words, truncation and clock charges
are those of the generic Fraction loop.  Globally affine type-2 envelopes
without a clamp follow the orbit difference instead.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isfinite, lcm
from operator import itemgetter
from typing import Sequence

from .core import SwitchedSystem, eval_point
from .errors import UndefinedAtPoint
from .intervals import Scalar
from .language import accepts_prefix
from .search import (
    SearchBudget,
    SearchClock,
    _ratio_pairs,
    iter_point_hits,
    ratio_point_step,
    step_points,
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


def _level_step(aut, step, level: dict, clock: SearchClock) -> dict | None:
    """One synchronous step of a deduplicated orbit level.

    Keys are ``(state, values)`` pairs, values are the lexicographically
    first word reaching the key; ``step(values, sym)`` gives a child's
    values, or None where its orbit dies.  Children are inserted in the
    order of their parents and then of their symbols, so the words of a
    level increase in insertion order and the first word met for a key or a
    value is the least.  Each child is inserted with one ``dict.setdefault``,
    so its key is hashed once.  Returns None when the budget runs out.
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


def _type2_row(n: int, level: dict, exact: bool, diff: bool) -> EnvelopeRow:
    """Type-2 extremes of a level in one pass.

    A level holds a signed orbit difference (``diff``), a point pair, or a
    ratio pair ``(nx, dx, ny, dy)`` (``exact``), whose distance ``|ny*dx -
    nx*dy| / (dx*dy)`` is compared cross-multiplied and built as one Fraction
    per extreme.  Words increase in insertion order (:func:`_level_step`),
    so keeping the first of equal distances keeps the least word.
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
        dists = ((abs(v) if diff else abs(v[1] - v[0]), w) for (_, v), w in it)
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

    Deduplicates orbit states level by level, so globally affine systems cost
    O(horizon) per level in the shared-word case.  On budget exhaustion the
    envelope is returned truncated at the last completed length.

    Exact systems with Fraction or int points carry their levels as reduced
    integer ratios (module docstring); the rows, words, truncation and clock
    charges are those of the generic Fraction loop.  ``horizon`` must be an
    int of at least 1; ``x`` and ``y`` distinct finite numbers, not bools.
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
    aut = system.automaton
    diff_ok = (
        kind == "type2"
        and not system.clamp
        and all(pam.is_global for pam in system.maps)
    )
    if diff_ok:
        # Globally affine maps act on the orbit difference autonomously, so
        # the level collapses to (state, signed difference) keys.
        slopes = tuple(pam.effective_pieces[0].slope for pam in system.maps)

        def step(d: Scalar, sym: int) -> Scalar:
            return slopes[sym] * d

        exact = False
        roots = [y - x]
    else:
        step = ratio_point_step(system, (x, y))
        exact = step is not None
        if exact:
            x0, y0 = _ratio_pairs((x,)), _ratio_pairs((y,))
        else:
            step, x0, y0 = partial(step_points, system), (x,), (y,)
        # Type 2 steps both points in one level, type 1 each in its own.
        roots = [x0 + y0] if kind == "type2" else [x0, y0]
    if kind == "type2":
        row = partial(_type2_row, exact=exact, diff=diff_ok)
    else:
        row = partial(_type1_row, exact=exact)
    clock = SearchClock(budget)
    levels = [{(aut.start, root): ()} for root in roots]
    rows: list[EnvelopeRow] = []
    truncated = False
    for n in range(1, horizon + 1):
        # A level stepped after another ran out charges a stopped clock only.
        stepped = [_level_step(aut, step, level, clock) for level in levels]
        truncated = None in stepped
        if truncated or not all(stepped):
            break
        rows.append(row(n, *stepped))
        levels = stepped
    return DistanceEnvelope(
        kind=kind, x=x, y=y, horizon=horizon, rows=tuple(rows), truncated=truncated
    )


def _type1_row(n: int, level_x: dict, level_y: dict, exact: bool) -> EnvelopeRow:
    """Independent-word extremes via sorted values and nearest-neighbour scan.

    Each level collapses to its distinct values, each with its least word
    (the first met, see :func:`_level_step`).  On ratio levels (``exact``)
    a value ``n/d`` becomes the integer ``n * (L // d)``, where ``L`` is the
    lcm of both levels' denominators: it sorts, bisects and subtracts like
    the value, and each extreme is built once as ``Fraction(k, L)``.
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

    False, never an exception, when a row holds the wrong number of words
    (one per extreme for type 2, two for type 1), a word of the wrong length
    or one the switching language does not admit, or a word along which an
    orbit dies.
    """
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
    tolerances must also be positive and strictly decreasing.  On an exact
    system with Fraction or int points, targets and tolerances the orbits
    are stepped on integer ratios (:func:`~swmix.search.iter_point_hits`).
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
    items = list(zip(pts, tgts))
    groups = [items] if kind == "type2" else [[item] for item in items]
    clock = SearchClock(budget)
    stages: list[XiongStage] = []
    floor = 0
    for eps in tol:
        found = None
        for n in clock.lengths(range(floor + 1, budget.max_horizon + 1)):
            words: list[Word] = []
            errs: list[Scalar] = []
            for group in groups:
                xs, ts = zip(*group)
                hit = next(iter_point_hits(system, xs, ts, eps, n, clock), None)
                if hit is None:
                    break  # this group has no hit of length n
                words.append(Word(hit[0]))
                errs.extend(abs(v - t) for v, t in zip(hit[1], ts))
            else:
                found = XiongStage(eps, n, tuple(words), tuple(errs))
                break
        if found is None:
            return XiongWitness(kind, pts, tgts, tuple(stages), complete=False)
        stages.append(found)
        floor = found.length
    return XiongWitness(kind, pts, tgts, tuple(stages), complete=True)


def verify_xiong(system: SwitchedSystem, wit: XiongWitness) -> bool:
    """Replay every stage word and confirm the recorded errors and bounds;
    every word must be admitted by the switching language.  A witness with
    no stage, no point, or not one target per point carries no evidence and
    fails."""
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
                err = abs(eval_point(system, w, x) - t)
            except UndefinedAtPoint:
                return False
            if err > claimed or claimed >= stage.tolerance:
                return False
    return True
