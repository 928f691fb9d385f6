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
``(1/a, -b/a)``, computed once at construction, so :func:`image_of` and
:func:`preimage` do no per-call division or sign test on the coefficients.

Rational mode runs on integers.  A map's pieces have one integer form,
``(lo_n, lo_d, hi_n, hi_d, a, b, c, positive, ia, ib, ic)``
(:func:`_ratio_table`), built from the exact value of every coefficient and
finite domain end.  With ``x = n/d`` the image of ``x`` is ``(a*n + b*d) /
(c*d)`` and its pull-back ``(ia*n + ib*d) / (ic*d)``; two endpoints compare
by cross-multiplying.

:meth:`SwitchedSystem._exact` is a system's exact form, every map's table,
its point rows and the clamp box's row, and it is None exactly in float
mode.  It is the only place that builds the tables and the one switch
between integers and the generic loops: :func:`eval_point`,
:func:`eval_interval`, :func:`word_preimage`,
:func:`swmix.hitting.pull_back_hit`, the set and point searches of
:mod:`swmix.search` and the orbit levels of :mod:`swmix.chaos` run on
integers whenever it exists, whatever the types of their inputs.
:meth:`PiecewiseAffineMap.value_at`, :func:`image_of` and :func:`preimage`
are the generic loops: the float-mode step, and the reference the integer
paths are tested against.

* A point is carried as a pair ``(n, d)`` with ``d > 0``, reduced only
  once ``d`` has grown a machine word (``_REDUCE_BITS``) since its last
  reduction; :func:`eval_point` steps a whole word on it and builds one
  Fraction at the end.
* Sets are carried as rows (:mod:`swmix.intervals`): one ``(lo_n, lo_d,
  hi_n, hi_d)`` per component, every computed end reduced by ``gcd`` with
  ``d > 0`` and an infinite end ``(-1, 0)`` or ``(1, 0)`` whatever the
  slope, so equal sets have equal rows.  :func:`_image_rows` and
  :func:`_preimage_rows` are the one kernel per direction;
  :func:`eval_interval` and :func:`word_preimage` step a whole word on it
  and build Fractions, Intervals and an IntervalSet only for the set they
  return (:func:`~swmix.intervals._rows_set`).  The kernels keep every tie
  rule of the generic loops, so the results equal theirs in value, every
  end a Fraction or an infinity.  They serve the verifiers' re-checks.
* The set searches and the pull-backs carry a set as flat ends on one
  denominator ``D`` (:mod:`swmix.intervals`), chosen so that every end
  they reach lies on it: :func:`_set_tables` scales each map's pieces to
  ``D`` for each search or pull-back, and :func:`_image_ends` and
  :func:`_preimage_ends` step a set with two comparisons and one
  multiply-add per end and no gcd.
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
    _Ratio,
    _merge_pairs,
    _normalise_rows,
    _ratio_end,
    _ratio_rows,
    _ratio_scalar,
    _rows_set,
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
    """Image of ``(lo, hi)`` under ``x -> a*x + b``; ``positive`` is the sign of ``a``.

    The generic path: float maps, float endpoints and widened images.
    """
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
    every coefficient and finite endpoint.

    A piece with ``slope = sn/sd``, ``offset = on/od``, inverse slope
    ``isn/isd`` and inverse offset ``ion/iod`` becomes ``(lo_n, lo_d, hi_n,
    hi_d, sn*od, on*sd, sd*od, positive, isn*iod, ion*isd, isd*iod)``.  The
    inverse is computed from the exact slope, not read from
    :attr:`AffinePiece.inv_slope`, which holds a rounded ``1.0/a`` for a
    float slope.
    """
    table = []
    for p in pam.effective_pieces:
        sn, sd = p.slope.as_integer_ratio()
        on, od = p.offset.as_integer_ratio()
        # 1/slope = sd/sn and -offset/slope = -on*sd/(od*sn), reduced, d > 0
        isn, isd = (sd, sn) if sn > 0 else (-sd, -sn)
        g = gcd(on * isn, od * isd)
        ion, iod = -on * isn // g, od * isd // g
        table.append(
            (
                *_ratio_end(p.domain.lo),
                *_ratio_end(p.domain.hi),
                sn * od,
                on * sd,
                sd * od,
                p.positive,
                isn * iod,
                ion * isd,
                isd * iod,
            )
        )
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
    # Each table row's piece test and image map, (lo_n, lo_d, hi_n, hi_d, a,
    # b, c) for v -> (a*v + b) / c in lowest terms, so that the lcm of the
    # c, by which the point kernel grows a level's denominator, is least.
    points: tuple[tuple[tuple, ...], ...]
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
        the one switch between rows and the generic loops, and this is the
        only caller of :func:`_ratio_table`.  Built on the first call and
        cached; a plain attribute, so equality and repr are unchanged.
        """
        try:
            return self._exact_form
        except AttributeError:
            pass
        form = None
        if self.numerics.mode == "rational":
            tables = tuple(_ratio_table(pam) for pam in self.maps)
            points = tuple(
                tuple((*row[:4], *(k // gcd(*row[4:7]) for k in row[4:7])) for row in t)
                for t in tables
            )
            box = _ratio_end(self.bounds.lo) + _ratio_end(self.bounds.hi)
            L = lcm(box[1] or 1, box[3] or 1) if self.clamp else 1
            K = J = 1
            for lo_n, lo_d, hi_n, hi_d, a, b, c, *_ in (row for t in tables for row in t):
                g = gcd(a, c)
                L = lcm(L, lo_d or 1, hi_d or 1, c // gcd(b, c))
                K, J = lcm(K, c // g), lcm(J, a // g)
            form = _Exact(tables, points, box if self.clamp else None, L, K, J)
        object.__setattr__(self, "_exact_form", form)
        return form

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

    Rational mode steps the whole word on the exact form's point rows,
    from the exact value ``n/d`` of ``x``: ``n/d`` passes the piece with
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
            for lo_n, lo_d, hi_n, hi_d, a, b, c in exact.points[sym]:
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


def _image_rows(table: tuple[tuple, ...], rows, partial: bool) -> tuple:
    """:func:`image_of` on rows: the normalised ``(lo_n, lo_d, hi_n, hi_d)``
    rows of the image of the set ``rows`` under the map of ``table``.

    Each computed end ``(a*n + b*d) / (c*d)`` is reduced by ``gcd``, and an
    infinite end is ``(-1, 0)`` or ``(1, 0)`` whatever the slope, so equal
    sets have equal rows.  ``-inf < +inf`` would read ``0 < 0``; the two
    tests that can meet both infinities, an empty overlap and a cursor
    moving to ``+inf``, count a zero denominator apart.
    """
    out = []
    for c_ln, c_ld, c_hn, c_hd in rows:
        cur_n, cur_d = c_ln, c_ld
        for p_ln, p_ld, p_hn, p_hd, a, b, c, positive, _, _, _ in table:
            if p_ln * c_ld > c_ln * p_ld:
                lo_n, lo_d = p_ln, p_ld
            else:
                lo_n, lo_d = c_ln, c_ld
            if p_hn * c_hd < c_hn * p_hd:
                hi_n, hi_d = p_hn, p_hd
            else:
                hi_n, hi_d = c_hn, c_hd
            if lo_d and hi_d and lo_n * hi_d >= hi_n * lo_d:
                continue
            if not partial and lo_n * cur_d > cur_n * lo_d:
                raise UndefinedOnSet(
                    f"({_ratio_scalar(cur_n, cur_d)}, {_ratio_scalar(lo_n, lo_d)}) "
                    "has positive width outside all piece domains"
                )
            if not hi_d or hi_n * cur_d > cur_n * hi_d:
                cur_n, cur_d = hi_n, hi_d
            if lo_d:
                lo_n, lo_d = a * lo_n + b * lo_d, c * lo_d
                g = gcd(lo_n, lo_d)
                if g != 1:
                    lo_n //= g
                    lo_d //= g
            elif not positive:
                lo_n = -lo_n
            if hi_d:
                hi_n, hi_d = a * hi_n + b * hi_d, c * hi_d
                g = gcd(hi_n, hi_d)
                if g != 1:
                    hi_n //= g
                    hi_d //= g
            elif not positive:
                hi_n = -hi_n
            out.append((lo_n, lo_d, hi_n, hi_d) if positive else (hi_n, hi_d, lo_n, lo_d))
        if not partial and cur_n * c_hd < c_hn * cur_d:
            raise UndefinedOnSet(
                f"({_ratio_scalar(cur_n, cur_d)}, {_ratio_scalar(c_hn, c_hd)}) "
                "has positive width outside all piece domains"
            )
    return _normalise_rows(out)


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


def _word_image_rows(tables: tuple, symbols: tuple[int, ...], rows, partial: bool) -> tuple:
    """The image rows of ``rows`` under ``f_w``: :func:`_image_rows` stepped
    through ``symbols`` with the maps of ``tables``, stopping once empty."""
    for sym in symbols:
        if not rows:
            break
        rows = _image_rows(tables[sym], rows, partial)
    return rows


def eval_interval(
    system: SwitchedSystem,
    word: Word | Sequence[int],
    sets: IntervalSet,
    partial: bool = False,
) -> IntervalSet:
    """Enclosure of ``f_w`` over an interval union; exact in rational mode.

    Rational mode steps the whole word on rows and builds the result's
    endpoints once, at the end.
    """
    symbols = _check_word(system, word)
    exact = system._exact()
    if exact is not None:
        rows = _ratio_rows(sets.components)
        return _rows_set(_word_image_rows(exact.tables, symbols, rows, partial))
    widen = system.numerics.widen
    current = sets
    for sym in symbols:
        if current.is_empty:
            return current
        current = image_of(system.maps[sym], current, widen=widen, partial=partial)
    return current


def _preimage_rows(table: tuple[tuple, ...], rows) -> tuple:
    """:func:`preimage` on rows: the normalised rows of the preimage of the
    set ``rows`` under the map of ``table``.

    Each pulled-back component is cut by the piece domain on integers, with
    the tie rule of ``pulled.intersect(p.domain)``.  A pulled value is
    reduced by ``gcd`` only when it survives the cut.
    """
    out = []
    for p_ln, p_ld, p_hn, p_hd, _, _, _, positive, a, b, c in table:
        for t_ln, t_ld, t_hn, t_hd in rows:
            if not positive:
                t_ln, t_ld, t_hn, t_hd = t_hn, t_hd, t_ln, t_ld
            # (a*n + b*d) / (c*d), or an infinity of the pulled sign at d = 0
            if t_ld:
                lo_n, lo_d = a * t_ln + b * t_ld, c * t_ld
            else:
                lo_n, lo_d = (t_ln if positive else -t_ln), 0
            if t_hd:
                hi_n, hi_d = a * t_hn + b * t_hd, c * t_hd
            else:
                hi_n, hi_d = (t_hn if positive else -t_hn), 0
            if p_ln * lo_d > lo_n * p_ld:
                lo_n, lo_d = p_ln, p_ld
            elif lo_d:
                g = gcd(lo_n, lo_d)
                lo_n //= g
                lo_d //= g
            if p_hn * hi_d < hi_n * p_hd:
                hi_n, hi_d = p_hn, p_hd
            elif hi_d:
                g = gcd(hi_n, hi_d)
                hi_n //= g
                hi_d //= g
            if lo_d and hi_d and lo_n * hi_d >= hi_n * lo_d:
                continue
            out.append((lo_n, lo_d, hi_n, hi_d))
    return _normalise_rows(out)


def _word_preimage_rows(tables: tuple, symbols: tuple[int, ...], rows) -> tuple:
    """The preimage rows of ``rows`` under ``f_w``: :func:`_preimage_rows`
    stepped through ``symbols`` reversed, stopping once empty."""
    for sym in reversed(symbols):
        rows = _preimage_rows(tables[sym], rows)
        if not rows:
            break
    return rows


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
        for lo_n, lo_d, hi_n, hi_d, a, b, c, *_ in table:
            g = gcd(a * k, c)
            lo = lo_n * D // lo_d if lo_d else NEG_INF
            hi = hi_n * D // hi_d if hi_d else POS_INF
            pieces.append((lo, hi, a * k // g, c // g, b * D * k // c))
        tables.append(tuple(pieces))
    return tuple(tables)


def _image_ends(pieces: tuple[tuple, ...], ends: tuple, partial: bool) -> tuple | None:
    """:func:`image_of` on one denominator ``D``: the flat normalised ends
    (:func:`~swmix.intervals._merge_pairs`) on ``D*k`` of the image of the
    set ``ends`` on ``D`` under the map whose pieces are scaled to ``D`` for
    images on ``D*k`` (:func:`_set_tables`), ``()`` when it is empty, and
    None where ``partial=False`` finds a positive-width part outside every
    piece domain.  Every end of the image must lie on ``D*k``.  An infinite
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
                    return None
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
            return None
    return _merge_pairs(pairs)


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
    """Preimage of ``target`` under ``f_w`` (pull back through the word reversed).

    Rational mode steps the whole word on rows and builds the result's
    endpoints once, at the end.
    """
    symbols = _check_word(system, word)
    exact = system._exact()
    if exact is not None:
        rows = _ratio_rows(target.components)
        return _rows_set(_word_preimage_rows(exact.tables, symbols, rows))
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
