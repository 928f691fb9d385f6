"""Switched piecewise-affine interval dynamics.

A switched system is a finite family of piecewise-affine maps on the line,
a switching language, and a working bounding box.  Words act by composition
in storage order: for ``w = (w_0, .., w_{n-1})`` the map ``f_w`` applies
``f_{w_0}`` first and ``f_{w_{n-1}}`` last, so ``f_{u+v} = f_v ∘ f_u``.

Two numeric modes are supported.  In the default rational mode all scalars
are :class:`fractions.Fraction` and every image, preimage and orbit value is
exact.  In float mode scalars are machine floats and each affine application
(two arithmetic operations) widens interval endpoints outward by ``2*tau``,
so computed enclosures stay sound overapproximations.

Maps are defined on open sets.  A piece's domain is an open interval and the
domains are pairwise disjoint; an optional global fallback extends the map to
the interior of the complement of the explicit domains.  Isolated points on
domain boundaries stay undefined -- images and preimages of open sets are
then again open sets, which keeps the rational mode exact.

Each :class:`AffinePiece` stores the sign of its slope and its inverse map
``(1/a, -b/a)``, computed once at construction, so :func:`image_of` and
:func:`preimage` do no per-call division or sign test on the coefficients.

Point orbits run on integers.  When a :class:`Fraction` point meets a map
whose coefficients are Fractions and whose domain endpoints are Fractions,
ints or infinite, :meth:`PiecewiseAffineMap.value_at` finds the piece by
cross-multiplied integer comparisons and builds the image with a single
Fraction constructor; an infinite endpoint is encoded as the pair
``(-1, 0)`` or ``(1, 0)``, so unbounded sides need no branch.  The integer
form of the pieces is built on a map's first such evaluation and cached on
the map, so maps that only ever see sets do not pay for it.  Float points,
int points and float maps take the plain piece loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import OutsidePartition, UndefinedAtPoint, UndefinedOnSet
from .intervals import (
    NEG_INF,
    POS_INF,
    Interval,
    IntervalSet,
    Scalar,
    is_finite,
)
from .language import LanguageSpec, PrunedAutomaton, compile_language
from .words import Word

__all__ = [
    "AffinePiece",
    "PiecewiseAffineMap",
    "Numerics",
    "SwitchedSystem",
    "Word",
    "eval_point",
    "eval_interval",
    "preimage",
    "word_preimage",
    "itinerary_word",
]


@dataclass(frozen=True)
class AffinePiece:
    """``x -> slope*x + offset`` on the open interval ``domain``.

    The slope must be non-zero and both coefficients finite: a constant piece
    would collapse open sets to single points, which the open-set
    representation cannot express.  ``positive`` (the sign of the slope) and
    the inverse map ``x -> inv_slope*x + inv_offset`` are derived once here
    for the interval kernel.
    """

    domain: Interval
    slope: Scalar
    offset: Scalar
    positive: bool = field(init=False, repr=False, compare=False)
    inv_slope: Scalar = field(init=False, repr=False, compare=False)
    inv_offset: Scalar = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.slope == 0:
            raise ValueError("affine pieces must have non-zero slope")
        for c in (self.slope, self.offset):
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError("affine pieces must have finite coefficients")
        # plain ints are promoted so rational mode stays rational throughout
        if isinstance(self.slope, int):
            object.__setattr__(self, "slope", Fraction(self.slope))
        if isinstance(self.offset, int):
            object.__setattr__(self, "offset", Fraction(self.offset))
        a = self.slope
        inv_a = 1.0 / a if isinstance(a, float) else Fraction(1) / a
        object.__setattr__(self, "positive", a > 0)
        object.__setattr__(self, "inv_slope", inv_a)
        object.__setattr__(self, "inv_offset", -self.offset * inv_a)


def _aff_endpoint(a: Scalar, b: Scalar, positive: bool, x: Scalar) -> Scalar:
    if type(x) is float:  # only a float endpoint can be infinite
        if x == NEG_INF:
            return NEG_INF if positive else POS_INF
        if x == POS_INF:
            return POS_INF if positive else NEG_INF
    return a * x + b


def _aff_interval(
    a: Scalar, b: Scalar, positive: bool, lo: Scalar, hi: Scalar, widen: Scalar
) -> Interval:
    """Image of ``(lo, hi)`` under ``x -> a*x + b``; ``positive`` is the sign of ``a``."""
    p = _aff_endpoint(a, b, positive, lo)
    q = _aff_endpoint(a, b, positive, hi)
    if not positive:
        p, q = q, p
    if widen:
        if is_finite(p):
            p -= widen
        if is_finite(q):
            q += widen
    return Interval(p, q)


def _ratio_end(e: Scalar) -> tuple[int, int] | None:
    """``(numerator, denominator)`` of an exact endpoint, ``(-1, 0)`` and
    ``(1, 0)`` for the infinities, None for a finite float."""
    if type(e) is Fraction:
        return e.numerator, e.denominator
    if type(e) is int:
        return e, 1
    if e == NEG_INF:
        return -1, 0
    if e == POS_INF:
        return 1, 0
    return None


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """Finite list of affine pieces with pairwise disjoint open domains.

    ``fallback``, when given, is a ``(slope, offset)`` pair applied on the
    interior of the complement of the explicit domains; a map with no explicit
    pieces and a fallback is simply a globally affine map.
    """

    pieces: tuple[AffinePiece, ...]
    fallback: tuple[Scalar, Scalar] | None = None
    _effective: tuple[AffinePiece, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.pieces, key=lambda p: (p.domain.lo, p.domain.hi)))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.domain.lo < prev.domain.hi:
                raise ValueError("piece domains must be pairwise disjoint")
        effective = list(ordered)
        if self.fallback is not None:
            a, b = self.fallback
            if a == 0:
                raise ValueError("affine pieces must have non-zero slope")
            # Interior of the complement of the closure of the explicit domains.
            cursor = NEG_INF
            gaps: list[Interval] = []
            for p in ordered:
                if cursor < p.domain.lo:
                    gaps.append(Interval(cursor, p.domain.lo))
                cursor = max(cursor, p.domain.hi)
            if cursor < POS_INF:
                gaps.append(Interval(cursor, POS_INF))
            effective.extend(AffinePiece(g, a, b) for g in gaps)
            effective.sort(key=lambda p: (p.domain.lo, p.domain.hi))
        if not effective:
            raise ValueError("a map needs at least one piece or a fallback")
        object.__setattr__(self, "_effective", tuple(effective))

    @classmethod
    def globally(cls, slope: Scalar, offset: Scalar) -> "PiecewiseAffineMap":
        return cls(pieces=(), fallback=(slope, offset))

    @property
    def effective_pieces(self) -> tuple[AffinePiece, ...]:
        """Explicit pieces plus materialised fallback gaps, sorted by domain."""
        return self._effective

    @property
    def is_global(self) -> bool:
        p = self._effective
        return len(p) == 1 and p[0].domain.lo == NEG_INF and p[0].domain.hi == POS_INF

    def value_at(self, x: Scalar) -> Scalar:
        """``slope*x + offset`` of the piece whose open domain contains ``x``.

        A :class:`Fraction` point on an exact map (rational coefficients,
        rational, int or infinite domain endpoints) takes the integer path:
        with ``x = n/d`` the piece test is ``lo_n*d < n*lo_d`` and
        ``n*hi_d < hi_n*d``, and the image is ``(a*n + b*d) / (c*d)`` built
        once as a Fraction -- the same value, type and repr as the Fraction
        expression, without its generic operators.  Infinite endpoints are
        encoded as ``(-1, 0)`` and ``(1, 0)``, which make those tests true
        for every ``x``.  The per-piece integers are built on the first such
        call and cached (:meth:`_ratio_pieces`); other points and maps take
        the plain piece loop.
        """
        if type(x) is Fraction:
            try:
                table = self._ratios
            except AttributeError:
                table = self._ratio_pieces()
            if table is not None:
                n, d = x.numerator, x.denominator
                for lo_n, lo_d, hi_n, hi_d, a, b, c in table:
                    if lo_n * d < n * lo_d and n * hi_d < hi_n * d:
                        return Fraction(a * n + b * d, c * d)
                raise UndefinedAtPoint(f"map undefined at {x}")
        for p in self._effective:
            if p.domain.contains(x):
                return p.slope * x + p.offset
        raise UndefinedAtPoint(f"map undefined at {x}")

    def _ratio_pieces(self) -> tuple[tuple[int, ...], ...] | None:
        """Integer form of the effective pieces for :meth:`value_at`, or None
        when a coefficient or a finite endpoint is not exact.

        A piece with ``slope = sn/sd`` and ``offset = on/od`` becomes
        ``(lo_n, lo_d, hi_n, hi_d, sn*od, on*sd, sd*od)``.  The result is kept
        in a plain attribute, not a field, so equality, hashing and repr are
        unchanged, and maps that never evaluate a point never build it.
        """
        table = []
        for p in self._effective:
            lo, hi = _ratio_end(p.domain.lo), _ratio_end(p.domain.hi)
            slope, offset = p.slope, p.offset
            if (
                lo is None
                or hi is None
                or type(slope) is not Fraction
                or type(offset) is not Fraction
            ):
                ratios = None
                break
            sn, sd = slope.numerator, slope.denominator
            on, od = offset.numerator, offset.denominator
            table.append((*lo, *hi, sn * od, on * sd, sd * od))
        else:
            ratios = tuple(table)
        object.__setattr__(self, "_ratios", ratios)
        return ratios

    def is_continuous(self) -> bool:
        """True iff values agree in the limit across every shared boundary."""
        eff = self._effective
        for prev, cur in zip(eff, eff[1:]):
            join = prev.domain.hi
            if join == cur.domain.lo and is_finite(join):
                left = prev.slope * join + prev.offset
                right = cur.slope * join + cur.offset
                if left != right:
                    return False
        return True

    def covers(self, iv: Interval) -> bool:
        """True iff ``iv`` minus the piece domains has no interior."""
        cursor = iv.lo
        for p in self._effective:
            lo = max(iv.lo, p.domain.lo)
            hi = min(iv.hi, p.domain.hi)
            if lo < hi:
                if lo > cursor:
                    return False
                cursor = max(cursor, hi)
        return cursor >= iv.hi


@dataclass(frozen=True)
class Numerics:
    """Numeric mode: exact rationals, or floats with outward margin ``tau``."""

    mode: str = "rational"
    tau: float = 2.0 ** -40
    min_overlap: Scalar = 0

    def __post_init__(self) -> None:
        if self.mode not in ("rational", "float"):
            raise ValueError(f"unknown numeric mode {self.mode!r}")
        if self.mode == "float" and self.tau <= 0:
            raise ValueError("float mode needs a positive outward margin")

    @property
    def widen(self) -> Scalar:
        # Two arithmetic operations per affine application or inversion.
        return 2 * self.tau if self.mode == "float" else 0


@dataclass(frozen=True)
class SwitchedSystem:
    """Map family + switching language + working box.

    ``bounds`` is a bookkeeping box: orbits may leave it freely unless
    ``clamp`` is set, in which case searches abandon any branch whose
    enclosure separates from the closed box entirely.  Clamping is a pruning
    device only -- use it when escape from the box is known to be permanent.
    """

    maps: tuple[PiecewiseAffineMap, ...]
    language: LanguageSpec
    bounds: Interval
    clamp: bool = False
    numerics: Numerics = Numerics()
    automaton: PrunedAutomaton = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.maps:
            raise ValueError("a switched system needs at least one map")
        aut = compile_language(self.language)
        if aut.m != len(self.maps):
            raise ValueError(
                f"language alphabet {aut.m} does not match {len(self.maps)} maps"
            )
        for k, pam in enumerate(self.maps):
            if not pam.covers(self.bounds):
                raise ValueError(f"map {k} is not defined on the whole bounding box")
        object.__setattr__(self, "automaton", aut)

    @property
    def m(self) -> int:
        return len(self.maps)

    def inside_kill_box(self, values: IntervalSet) -> bool:
        return values.touches_closed(self.bounds.lo, self.bounds.hi)

    def point_in_kill_box(self, x: Scalar) -> bool:
        return self.bounds.lo <= x <= self.bounds.hi


def _check_word(system: SwitchedSystem, word: Word | Sequence[int]) -> tuple[int, ...]:
    symbols = tuple(word)
    if not symbols:
        raise ValueError("empty word")
    if any(not 0 <= s < system.m for s in symbols):
        raise ValueError(f"word {symbols} uses symbols outside the alphabet")
    return symbols


def eval_point(system: SwitchedSystem, word: Word | Sequence[int], x: Scalar) -> Scalar:
    """Orbit endpoint ``f_w(x)``; raises UndefinedAtPoint when the orbit dies."""
    value = x
    for step, sym in enumerate(_check_word(system, word)):
        try:
            value = system.maps[sym].value_at(value)
        except UndefinedAtPoint:
            raise UndefinedAtPoint(
                f"orbit undefined at step {step}: map {sym} has no piece at {value}"
            ) from None
    return value


def image_of(
    pam: PiecewiseAffineMap,
    sets: IntervalSet,
    widen: Scalar = 0,
    partial: bool = False,
) -> IntervalSet:
    """Image of an open interval union under one map application.

    With ``partial=False`` a positive-width part of the input escaping every
    piece domain raises :class:`UndefinedOnSet`; with ``partial=True`` the
    uncovered part is silently dropped (search semantics).
    """
    out: list[Interval] = []
    for comp in sets:
        cursor = comp.lo
        for p in pam.effective_pieces:
            lo = max(comp.lo, p.domain.lo)
            hi = min(comp.hi, p.domain.hi)
            if lo >= hi:
                continue
            if not partial and lo > cursor:
                raise UndefinedOnSet(
                    f"({cursor}, {lo}) has positive width outside all piece domains"
                )
            cursor = max(cursor, hi)
            out.append(_aff_interval(p.slope, p.offset, p.positive, lo, hi, widen))
        if not partial and cursor < comp.hi:
            raise UndefinedOnSet(
                f"({cursor}, {comp.hi}) has positive width outside all piece domains"
            )
    return IntervalSet.from_intervals(out)


def eval_interval(
    system: SwitchedSystem,
    word: Word | Sequence[int],
    sets: IntervalSet,
    partial: bool = False,
) -> IntervalSet:
    """Enclosure of ``f_w`` over an interval union; exact in rational mode."""
    symbols = _check_word(system, word)
    widen = system.numerics.widen
    current = sets
    for sym in symbols:
        if current.is_empty:
            return current
        current = image_of(system.maps[sym], current, widen=widen, partial=partial)
    return current


def preimage(pam: PiecewiseAffineMap, target: IntervalSet, widen: Scalar = 0) -> IntervalSet:
    """Exact preimage of ``target`` inside the map's domain (outer in float mode)."""
    out: list[Interval] = []
    for p in pam.effective_pieces:
        for comp in target:
            # 1/a has the sign of a, so the piece's sign orients the pull-back.
            pulled = _aff_interval(
                p.inv_slope, p.inv_offset, p.positive, comp.lo, comp.hi, widen
            )
            cut = pulled.intersect(p.domain)
            if cut is not None:
                out.append(cut)
    return IntervalSet.from_intervals(out)


def word_preimage(
    system: SwitchedSystem, word: Word | Sequence[int], target: IntervalSet
) -> IntervalSet:
    """Preimage of ``target`` under ``f_w`` (pull back through the word reversed)."""
    symbols = _check_word(system, word)
    widen = system.numerics.widen
    current = target
    for sym in reversed(symbols):
        if current.is_empty:
            return current
        current = preimage(system.maps[sym], current, widen=widen)
    return current


Partition = Sequence[tuple[IntervalSet, int]]


def itinerary_word(
    system: SwitchedSystem, partition: Partition, x: Scalar, steps: int
) -> Word:
    """Symbolic itinerary of ``x``: at each step the first partition cell whose
    closure contains the current iterate names the map to apply.

    First-match resolves boundary ties deterministically, so cells may be
    listed as open sets even when their shared endpoints matter.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    for cells, sym in partition:
        if not 0 <= sym < system.m:
            raise ValueError(f"partition symbol {sym} outside the alphabet")
    symbols: list[int] = []
    value = x
    for step in range(steps):
        for cells, sym in partition:
            if cells.closure_contains(value):
                symbols.append(sym)
                value = system.maps[sym].value_at(value)
                break
        else:
            raise OutsidePartition(f"iterate {value} at step {step} is in no cell")
    return Word(tuple(symbols))
