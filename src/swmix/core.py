"""Switched piecewise-affine interval dynamics.

A switched system is a finite family of piecewise-affine maps on the line,
a switching language, and a working bounding box.  Words act by composition
in storage order: for ``w = (w_0, .., w_{n-1})`` the map ``f_w`` applies
``f_{w_0}`` first and ``f_{w_{n-1}}`` last, so ``f_{u+v} = f_v ∘ f_u``.

Two numeric modes are supported, and the mode alone picks the arithmetic.
In the default rational mode every image, preimage and orbit value is exact:
a Fraction or int scalar counts at its value and a finite float at its exact
binary value (``float.as_integer_ratio()``), so the float ``0.1`` is not
``1/10``.  In float mode scalars are machine floats and each affine application
(two arithmetic operations) widens interval endpoints outward by ``2*tau``.
That absolute margin covers the rounding error only while endpoints stay
small: once they pass about ``2**12`` one rounding step can exceed it, and
the float enclosure can miss part of the exact image (three steps of
``3.0*x + 0.1`` on intervals at magnitude 1e5 to 1e6 miss it most of the
time).  Float enclosures are therefore not guaranteed supersets; outward
rounding that scales with magnitude is an open item of the roadmap.

Maps are defined on open sets.  A piece's domain is an open interval and the
domains are pairwise disjoint; an optional global fallback extends the map to
the interior of the complement of the explicit domains.  Isolated points on
domain boundaries stay undefined -- images and preimages of open sets are
then again open sets, which keeps the rational mode exact.

Each :class:`AffinePiece` stores the sign of its slope and its inverse map
``(1/a, -b/a)``, computed once at construction, so the generic set loops do
no per-step division or sign test on the coefficients.

Rational mode runs on integers.  A map's pieces have one integer form,
``(lo_n, lo_d, hi_n, hi_d, a, b, c)`` (:func:`_ratio_table`), built from the
exact value of every coefficient and finite domain end: the domain ends as
ratios and the piece's map ``v -> (a*v + b) / c`` in lowest terms.

:meth:`SwitchedSystem._exact` is a system's exact form, every map's table,
the clamp box's row and the scale of the set kernel, and it is None exactly
in float mode.  It is the only place that builds the tables and the one
switch between integers and the generic loops: :func:`eval_point`,
:func:`eval_interval`, :func:`word_preimage`,
:func:`swmix.hitting.pull_back_hit`, the set and point searches of
:mod:`swmix.search` and the orbit levels of :mod:`swmix.chaos` run on
integers whenever it exists, whatever the types of their inputs.
The generic loops are the float-mode step and the reference the integer
paths are tested against: :meth:`PiecewiseAffineMap.value_at` for a point,
and for a set one step per direction on a list of ``(lo, hi)`` pairs,
:func:`_image_pairs` and :func:`_preimage_pairs`, normalised by
:func:`~swmix.intervals._normalise`.  :func:`image_of` and :func:`preimage`
wrap one step each; float :func:`eval_interval` (:func:`_loop_image`) and
float :func:`word_preimage` step a whole word on the pairs and build their
Intervals and IntervalSet once, at the end.

* A point is carried as a pair ``(n, d)`` with ``d > 0``, reduced only
  once ``d`` has grown a machine word (``_REDUCE_BITS``) since its last
  reduction; :func:`eval_point` steps a whole word on the tables and builds
  one Fraction at the end.
* A set is carried as flat ends on one denominator ``D``
  (:mod:`swmix.intervals`), chosen so that every end a search, a pull-back,
  :func:`eval_interval` or :func:`word_preimage` reaches lies on it:
  :func:`_set_tables` scales each map's pieces to ``D`` once per call, and
  :func:`_image_ends` and :func:`_preimage_ends`, the one set kernel per
  direction, step a set with two comparisons and one multiply-add per end
  and no gcd.  Fractions, Intervals and an IntervalSet are built only for
  the set returned, with the values, and the :class:`UndefinedOnSet`
  messages, of the generic loops.

The set verifiers (:meth:`swmix.hitting.HitWitness.verify` and through it
:func:`swmix.hitting.verify_wm_certificate`, and
:func:`swmix.spread.verify_certificate`) re-check on the generic pair loop
in both modes (:func:`_loop_image`): in rational mode on an exact-valued
copy of the maps (:meth:`SwitchedSystem._loop_maps`), so that they share no
table, no kernel and no normaliser with the searches whose certificates
they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import OutsidePartition, UndefinedAtPoint, UndefinedOnSet
from .intervals import (
    NEG_INF,
    POS_INF,
    Interval,
    IntervalSet,
    Scalar,
    _end_lcm,
    _ends_set,
    _exact_value,
    _merge_pairs,
    _normalise,
    _pairs_set,
    _Ratio,
    _ratio_end,
    _set_ends,
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
    for the generic set loops.
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
        """``slope*x + offset`` of the piece whose open domain contains ``x``."""
        for p in self._effective:
            if p.domain.contains(x):
                return p.slope * x + p.offset
        raise UndefinedAtPoint(f"map undefined at {x}")

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


def _ratio_table(pam: PiecewiseAffineMap) -> tuple[tuple, ...]:
    """Integer form of the map's effective pieces, at the exact value of
    every coefficient and finite endpoint: one ``(lo_n, lo_d, hi_n, hi_d,
    a, b, c)`` per piece, the domain ends as :func:`_ratio_end` gives them
    and ``v -> (a*v + b) / c`` the piece's map in lowest terms, ``c > 0``,
    so that the lcm of the ``c``, by which the point kernel grows a level's
    denominator, is least."""
    table = []
    for p in pam.effective_pieces:
        sn, sd = p.slope.as_integer_ratio()
        on, od = p.offset.as_integer_ratio()
        a, b, c = sn * od, on * sd, sd * od
        g = gcd(a, b, c)
        table.append((*_ratio_end(p.domain.lo), *_ratio_end(p.domain.hi), a // g, b // g, c // g))
    return tuple(table)


@dataclass(frozen=True)
class Numerics:
    """Numeric mode: exact rationals, or floats with outward margin ``tau``.

    ``tau`` and ``min_overlap`` must be finite numbers, not bools: a NaN or
    infinite ``min_overlap`` would fail every overlap test.
    """

    mode: str = "rational"
    tau: float = 2.0 ** -40
    min_overlap: Scalar = 0

    def __post_init__(self) -> None:
        if self.mode not in ("rational", "float"):
            raise ValueError(f"unknown numeric mode {self.mode!r}")
        for name in ("tau", "min_overlap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.mode == "float" and self.tau <= 0:
            raise ValueError("float mode needs a positive outward margin")

    @property
    def widen(self) -> Scalar:
        # Two arithmetic operations per affine application or inversion.
        return 2 * self.tau if self.mode == "float" else 0


class _Exact(NamedTuple):
    """A system's exact form (:meth:`SwitchedSystem._exact`)."""

    tables: tuple[tuple[tuple, ...], ...]  # every map's _ratio_table()
    box: _Ratio | None  # the clamp box's row; None when the system does not clamp
    # The set kernel's scale (_set_tables): L, the lcm of the finite
    # domain-end, offset and clamp-box denominators; K and J, the lcm of the
    # slopes' denominators and of their numerators' absolute values.
    L: int
    K: int
    J: int


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

    def _exact(self) -> _Exact | None:
        """The system's exact form in rational mode, None in float mode.

        Every integer path of the package reads it, so the numeric mode is
        the one switch between integers and the generic loops, and this is
        the only caller of :func:`_ratio_table`.  Built on the first call
        and cached; a plain attribute, so equality and repr are unchanged.
        """
        try:
            return self._exact_form
        except AttributeError:
            pass
        form = None
        if self.numerics.mode == "rational":
            tables = tuple(_ratio_table(pam) for pam in self.maps)
            box = _ratio_end(self.bounds.lo) + _ratio_end(self.bounds.hi)
            L = lcm(box[1] or 1, box[3] or 1) if self.clamp else 1
            K = J = 1
            for lo_n, lo_d, hi_n, hi_d, a, b, c in (row for t in tables for row in t):
                g = gcd(a, c)
                L = lcm(L, lo_d or 1, hi_d or 1, c // gcd(b, c))
                K, J = lcm(K, c // g), lcm(J, a // g)
            form = _Exact(tables, box if self.clamp else None, L, K, J)
        object.__setattr__(self, "_exact_form", form)
        return form

    def _loop_maps(self) -> tuple[PiecewiseAffineMap, ...]:
        """The maps that :func:`_loop_image` steps: in float mode the maps
        themselves; in rational mode a copy of each with every coefficient
        a Fraction and every finite domain end at its exact value, its
        fallback gaps listed as pieces.  Built from the maps alone, not from
        :meth:`_exact`, on the first call and cached like it."""
        try:
            return self._loop_form
        except AttributeError:
            pass
        maps = self.maps
        if self.numerics.mode == "rational":
            ex = _exact_value
            maps = tuple(
                PiecewiseAffineMap(
                    tuple(
                        AffinePiece(
                            Interval(ex(p.domain.lo), ex(p.domain.hi)),
                            Fraction(p.slope),
                            Fraction(p.offset),
                        )
                        for p in pam.effective_pieces
                    )
                )
                for pam in maps
            )
        object.__setattr__(self, "_loop_form", maps)
        return maps

    def inside_kill_box(self, values: IntervalSet) -> bool:
        return values.touches_closed(self.bounds.lo, self.bounds.hi)

    def point_in_kill_box(self, x: Scalar) -> bool:
        return self.bounds.lo <= x <= self.bounds.hi


def _check_word(system: SwitchedSystem, word: Word | Sequence[int]) -> tuple[int, ...]:
    symbols = word.symbols if isinstance(word, Word) else tuple(word)
    if not symbols:
        raise ValueError("empty word")
    if min(symbols) < 0 or max(symbols) >= len(system.maps):
        raise ValueError(f"word {symbols} uses symbols outside the alphabet")
    return symbols


# An integer point's denominator is reduced, by its gcd with the
# numerator, only once it has grown this many bits: below that its products
# cost about what a machine word's do, and a gcd per step or per level was
# slower on maps that grow the denominator by a small factor.
_REDUCE_BITS = 62


def eval_point(system: SwitchedSystem, word: Word | Sequence[int], x: Scalar) -> Scalar:
    """Orbit endpoint ``f_w(x)``; raises UndefinedAtPoint when the orbit dies.

    Rational mode steps the whole word on the exact form's tables, from
    the exact value ``n/d`` of ``x``: ``n/d`` passes the piece with
    ``lo_n*d < n*lo_d`` and ``n*hi_d < hi_n*d`` to ``(a*n + b*d) / (c*d)``.
    The pair is divided by ``gcd(n, d)`` only once ``d`` has grown
    ``_REDUCE_BITS`` bits past its width at the last reduction (or at the
    start), and one Fraction is built at the end -- the value, type and
    repr of the :meth:`~PiecewiseAffineMap.value_at` loop on exact values.
    An infinite or NaN ``x`` lies in no piece's domain.
    """
    symbols = _check_word(system, word)
    exact = system._exact()
    if exact is not None:
        if type(x) is float and not math.isfinite(x):
            raise UndefinedAtPoint(f"orbit undefined at step 0: {x} is not finite")
        n, d = x.as_integer_ratio()
        cap = d << _REDUCE_BITS
        for step, sym in enumerate(symbols):
            for lo_n, lo_d, hi_n, hi_d, a, b, c in exact.tables[sym]:
                if lo_n * d < n * lo_d and n * hi_d < hi_n * d:
                    n, d = a * n + b * d, c * d
                    break
            else:
                raise UndefinedAtPoint(
                    f"orbit undefined at step {step}: map {sym} has no piece at "
                    f"{Fraction(n, d)}"
                )
            if d > cap:
                g = gcd(n, d)
                n //= g
                d //= g
                cap = d << _REDUCE_BITS
        return Fraction(n, d)
    value = x
    for step, sym in enumerate(symbols):
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
    pairs = [(c.lo, c.hi) for c in sets]
    return _pairs_set(_image_pairs(pam.effective_pieces, pairs, widen, partial))


def _image_pairs(
    pieces: tuple[AffinePiece, ...], pairs: list, widen: Scalar, partial: bool
) -> list:
    """One step of the generic image loop on ``(lo, hi)`` pairs: the
    normalised pairs (:func:`~swmix.intervals._normalise`) of the image of
    the normalised ``pairs`` under the map whose effective pieces are
    ``pieces``.  A component meets a piece's domain on the larger lo and the
    smaller hi, its own end on a tie; an infinite end maps to the infinity
    of the slope's sign and any other ``x`` to ``slope*x + offset``; a
    negative slope swaps the ends, and then each finite end moves outward by
    ``widen``.  An image that does not keep ``lo < hi`` raises the
    :class:`ValueError` of :class:`Interval`."""
    out = []
    for c_lo, c_hi in pairs:
        cursor = c_lo
        for p in pieces:
            dom = p.domain
            lo = dom.lo if dom.lo > c_lo else c_lo
            hi = dom.hi if dom.hi < c_hi else c_hi
            if lo >= hi:
                continue
            if not partial:
                if lo > cursor:
                    raise UndefinedOnSet(
                        f"({cursor}, {lo}) has positive width outside all piece domains"
                    )
                if hi > cursor:
                    cursor = hi
            a, b, positive = p.slope, p.offset, p.positive
            lo = a * lo + b if is_finite(lo) else lo if positive else -lo
            hi = a * hi + b if is_finite(hi) else hi if positive else -hi
            if not positive:
                lo, hi = hi, lo
            if widen:  # an infinite end stays infinite
                lo, hi = lo - widen, hi + widen
            if not lo < hi:
                raise ValueError(f"open interval needs lo < hi, got ({lo}, {hi})")
            out.append((lo, hi))
        if not partial and cursor < c_hi:
            raise UndefinedOnSet(
                f"({cursor}, {c_hi}) has positive width outside all piece domains"
            )
    return _normalise(out)


def eval_interval(
    system: SwitchedSystem,
    word: Word | Sequence[int],
    sets: IntervalSet,
    partial: bool = False,
) -> IntervalSet:
    """Enclosure of ``f_w`` over an interval union; exact in rational mode.

    Rational mode steps the whole word on flat ends (:func:`_image_ends`)
    over one denominator, ``lcm(L, ends) * K**n`` for a word of length
    ``n``, on which every end it reaches lies, and builds the result's
    endpoints once, at the end.  A gap that ``partial=False`` finds is
    named as the generic loop names it.
    """
    exact = system._exact()
    if exact is None:
        return _loop_image(system, word, sets, partial)
    symbols = _check_word(system, word)
    D = _end_lcm((sets,), exact.L) * exact.K ** len(symbols)
    try:
        ends = _image_word(_set_tables(exact, D), symbols, _set_ends(sets, D), partial)
    except UndefinedOnSet as gap:
        lo, hi = (Fraction(e, D) if type(e) is int else e for e in gap.args)
        raise UndefinedOnSet(
            f"({lo}, {hi}) has positive width outside all piece domains"
        ) from None
    return _ends_set(ends, D)


def _loop_image(
    system: SwitchedSystem,
    word: Word | Sequence[int],
    sets: IntervalSet,
    partial: bool = False,
) -> IntervalSet:
    """The generic loop of ``f_w``: :func:`_image_pairs` stepped through
    the word on ``(lo, hi)`` pairs with the maps of
    :meth:`SwitchedSystem._loop_maps`, stopping once empty, and one
    IntervalSet built from the last step's pairs.  It is
    :func:`eval_interval` in float mode, and the set verifiers' re-check in
    both modes: in rational mode it steps the exact-valued maps from the
    exact values of the ends of ``sets``, with no widening.  Nothing here
    reads :meth:`SwitchedSystem._exact`, the flat-end kernel or its
    normaliser, so a fault there cannot pass a certificate that its
    searches built."""
    symbols = _check_word(system, word)
    maps, widen = system._loop_maps(), system.numerics.widen
    if system.numerics.mode == "rational":
        pairs = [(_exact_value(c.lo), _exact_value(c.hi)) for c in sets]
    else:
        pairs = [(c.lo, c.hi) for c in sets]
    for sym in symbols:
        if not pairs:
            break
        pairs = _image_pairs(maps[sym].effective_pieces, pairs, widen, partial)
    return _pairs_set(pairs)


def _set_tables(exact: _Exact, D: int, k: int = 1) -> tuple[tuple[tuple, ...], ...]:
    """Every map's pieces scaled to the denominator ``D``, a multiple of
    ``exact.L``, for images on ``D*k``: one ``(lo, hi, a, d, b)`` per table
    row, in table order, where ``lo`` and ``hi`` are the domain ends times
    ``D`` (an infinite end as the infinite float), ``a/d`` is the slope
    times ``k`` in lowest terms with ``d > 0`` and ``b`` the offset times
    ``D*k``.  A value ``x = N/D`` of the piece maps to ``(a*N // d + b) /
    (D*k)``, exact whenever the image lies on ``D*k``: always when ``k`` is
    a multiple of ``exact.K``, and then ``d = 1``."""
    tables = []
    for table in exact.tables:
        pieces = []
        for lo_n, lo_d, hi_n, hi_d, a, b, c in table:
            g = gcd(a * k, c)
            lo = lo_n * D // lo_d if lo_d else NEG_INF
            hi = hi_n * D // hi_d if hi_d else POS_INF
            pieces.append((lo, hi, a * k // g, c // g, b * D * k // c))
        tables.append(tuple(pieces))
    return tuple(tables)


def _image_ends(pieces: tuple[tuple, ...], ends: tuple, partial: bool) -> tuple:
    """:func:`image_of` on one denominator ``D``: the flat normalised ends
    (:func:`~swmix.intervals._merge_pairs`) on ``D*k`` of the image of the
    set ``ends`` on ``D`` under the map whose pieces are scaled to ``D`` for
    images on ``D*k`` (:func:`_set_tables`), ``()`` when it is empty.  Where
    ``partial=False`` finds a positive-width part outside every piece
    domain, it raises :class:`UndefinedOnSet` with the first such part's
    ends on ``D`` as its two arguments, found as :func:`image_of` finds
    it.  Every end of the image must lie on ``D*k``.  An infinite
    end stays infinite, of the slope's sign; two ends compare as they are,
    int or infinite float."""
    pairs = []
    it = iter(ends)
    for lo, hi in zip(it, it):
        cursor = lo
        for p_lo, p_hi, a, d, b in pieces:
            l = p_lo if p_lo > lo else lo
            h = p_hi if p_hi < hi else hi
            if l >= h:
                continue
            if not partial:
                if l > cursor:
                    raise UndefinedOnSet(cursor, l)
                if h > cursor:
                    cursor = h
            if type(l) is int:
                l = a * l // d + b
            elif a < 0:
                l = -l
            if type(h) is int:
                h = a * h // d + b
            elif a < 0:
                h = -h
            pairs.append((l, h) if a > 0 else (h, l))
        if not partial and cursor < hi:
            raise UndefinedOnSet(cursor, hi)
    return _merge_pairs(pairs)


def _image_word(tables: tuple, symbols: tuple[int, ...], ends: tuple, partial: bool) -> tuple:
    """:func:`_image_ends` stepped through the word ``symbols`` on the
    scaled tables of :func:`_set_tables`, stopping once the set is empty."""
    for sym in symbols:
        if not ends:
            break
        ends = _image_ends(tables[sym], ends, partial)
    return ends


def _preimage_ends(pieces: tuple[tuple, ...], ends: tuple) -> tuple:
    """:func:`preimage` on one denominator ``D``: the flat normalised ends of
    the preimage of the set ``ends`` under the map whose pieces are scaled to
    ``D``, each pulled component cut by its piece's domain.  A value ``N/D``
    pulls back to ``((N - b)*d // a) / D``, so every pulled end must lie on
    ``D``."""
    pairs = []
    for p_lo, p_hi, a, d, b in pieces:
        it = iter(ends)
        for lo, hi in zip(it, it):
            l = (lo - b) * d // a if type(lo) is int else (lo if a > 0 else -lo)
            h = (hi - b) * d // a if type(hi) is int else (hi if a > 0 else -hi)
            if a < 0:
                l, h = h, l
            if p_lo > l:
                l = p_lo
            if p_hi < h:
                h = p_hi
            if l < h:
                pairs.append((l, h))
    return _merge_pairs(pairs)


def _preimage_word(tables: tuple, symbols: tuple[int, ...], ends: tuple) -> tuple:
    """:func:`_preimage_ends` pulled back through the word ``symbols``
    (last symbol first) on the scaled tables of :func:`_set_tables`,
    stopping once the set is empty."""
    for sym in reversed(symbols):
        if not ends:
            break
        ends = _preimage_ends(tables[sym], ends)
    return ends


def preimage(pam: PiecewiseAffineMap, target: IntervalSet, widen: Scalar = 0) -> IntervalSet:
    """Exact preimage of ``target`` inside the map's domain (outer in float mode)."""
    pairs = [(c.lo, c.hi) for c in target]
    return _pairs_set(_preimage_pairs(pam.effective_pieces, pairs, widen))


def _preimage_pairs(pieces: tuple[AffinePiece, ...], pairs: list, widen: Scalar) -> list:
    """One step of the generic preimage loop on ``(lo, hi)`` pairs: each
    component pulled back through each piece by its inverse map, as
    :func:`_image_pairs` maps a cut (1/a has the sign of a), then cut by the
    piece's domain on the larger lo and the smaller hi, the pulled end on a
    tie; the normalised pairs of the pieces' cuts, in piece order."""
    out = []
    for p in pieces:
        a, b, positive, dom = p.inv_slope, p.inv_offset, p.positive, p.domain
        for lo, hi in pairs:
            lo = a * lo + b if is_finite(lo) else lo if positive else -lo
            hi = a * hi + b if is_finite(hi) else hi if positive else -hi
            if not positive:
                lo, hi = hi, lo
            if widen:  # an infinite end stays infinite
                lo, hi = lo - widen, hi + widen
            if not lo < hi:
                raise ValueError(f"open interval needs lo < hi, got ({lo}, {hi})")
            if dom.lo > lo:
                lo = dom.lo
            if dom.hi < hi:
                hi = dom.hi
            if lo < hi:
                out.append((lo, hi))
    return _normalise(out)


def word_preimage(
    system: SwitchedSystem, word: Word | Sequence[int], target: IntervalSet
) -> IntervalSet:
    """Preimage of ``target`` under ``f_w`` (pull back through the word reversed).

    Rational mode steps the whole word on flat ends (:func:`_preimage_ends`)
    over one denominator, ``lcm(L, ends) * J**n`` for a word of length
    ``n``, and float mode on ``(lo, hi)`` pairs (:func:`_preimage_pairs`);
    both build the result's endpoints once, at the end.
    """
    symbols = _check_word(system, word)
    exact = system._exact()
    if exact is not None:
        D = _end_lcm((target,), exact.L) * exact.J ** len(symbols)
        return _ends_set(_preimage_word(_set_tables(exact, D), symbols, _set_ends(target, D)), D)
    widen = system.numerics.widen
    pairs = [(c.lo, c.hi) for c in target]
    for sym in reversed(symbols):
        if not pairs:
            break
        pairs = _preimage_pairs(system.maps[sym].effective_pieces, pairs, widen)
    return _pairs_set(pairs)


Partition = Sequence[tuple[IntervalSet, int]]


def itinerary_word(
    system: SwitchedSystem, partition: Partition, x: Scalar, steps: int
) -> Word:
    """Symbolic itinerary of ``x``: at each step the first partition cell whose
    closure contains the current iterate names the map to apply.

    First-match resolves boundary ties deterministically, so cells may be
    listed as open sets even when their shared endpoints matter.  Each step
    is :func:`eval_point`, so rational mode follows the exact orbit of a
    float ``x``.
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
                value = eval_point(system, (sym,), value)
                break
        else:
            raise OutsidePartition(f"iterate {value} at step {step} is in no cell")
    return Word(tuple(symbols))
