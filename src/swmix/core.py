"""Switched piecewise-affine interval dynamics.

A switched system is a finite family of piecewise-affine maps on the line,
a switching language, and a working bounding box.  Words act by composition
in storage order: for ``w = (w_0, .., w_{n-1})`` the map ``f_w`` applies
``f_{w_0}`` first and ``f_{w_{n-1}}`` last, so ``f_{u+v} = f_v ∘ f_u``.

Two numeric modes are supported.  In the default rational mode all scalars
are :class:`fractions.Fraction` and every image, preimage and orbit value is
exact.  In float mode scalars are machine floats and each affine application
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

Exact maps are evaluated on integers.  A map is exact when its coefficients
are Fractions and its domain endpoints are Fractions, ints or infinite; its
pieces then have one integer form, ``(lo_n, lo_d, hi_n, hi_d, a, b, c,
positive, ia, ib, ic, lo, hi)``, built on the map's first exact evaluation
and cached on the map (:meth:`PiecewiseAffineMap._ratio_pieces`).  With
``x = n/d`` the image of ``x`` is ``(a*n + b*d) / (c*d)`` and its pull-back
``(ia*n + ib*d) / (ic*d)``; two endpoints compare by cross-multiplying.

* :meth:`PiecewiseAffineMap.value_at` takes that path for a Fraction point
  and builds one Fraction.
* Sets are carried as rows (:mod:`swmix.intervals`): one ``(lo_n, lo_d,
  hi_n, hi_d)`` per component, every computed end reduced by ``gcd`` with
  ``d > 0`` and an infinite end ``(-1, 0)`` or ``(1, 0)`` whatever the
  slope, so equal sets have equal rows.  :func:`_image_rows` and
  :func:`_preimage_rows` are the one kernel per direction.
  :func:`image_of` and :func:`preimage` run one step of it;
  :func:`eval_interval` and :func:`word_preimage` step a whole word on rows
  when the system is exact (:meth:`SwitchedSystem._ratio_tables`) and every
  input endpoint is a Fraction, an int or infinite.  Each builds Fractions,
  Intervals and an IntervalSet only for the set it returns.  The kernels
  keep every tie rule of the generic loops, so the results equal theirs in
  value, type and repr: an image's ends are computed Fractions or
  infinities, and a preimage end cut by a domain end lying strictly inside
  is that domain end's own object, an int included, which its row carries
  to the result.

Float maps, float endpoints, int points and float mode take the generic
loops, which are the only sound ones for floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import OutsidePartition, UndefinedAtPoint, UndefinedOnSet
from .intervals import (
    NEG_INF,
    POS_INF,
    Interval,
    IntervalSet,
    Scalar,
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
            # The cache read of _ratio_pieces, inlined: point orbits call
            # value_at so often that the extra method call costs about 1.5 %
            # of the benchmark's orbits throughput.
            try:
                rows = self._point_rows
            except AttributeError:
                self._ratio_pieces()
                rows = self._point_rows
            if rows is not None:
                n, d = x.as_integer_ratio()
                for lo_n, lo_d, hi_n, hi_d, a, b, c in rows:
                    if lo_n * d < n * lo_d and n * hi_d < hi_n * d:
                        return Fraction(a * n + b * d, c * d)
                raise UndefinedAtPoint(f"map undefined at {x}")
        for p in self._effective:
            if p.domain.contains(x):
                return p.slope * x + p.offset
        raise UndefinedAtPoint(f"map undefined at {x}")

    def _ratio_pieces(self) -> tuple[tuple, ...] | None:
        """Integer form of the effective pieces for :meth:`value_at`,
        :func:`image_of` and :func:`preimage`, or None when a coefficient or
        a finite endpoint is not exact.

        A piece with ``slope = sn/sd``, ``offset = on/od``, inverse slope
        ``isn/isd`` and inverse offset ``ion/iod`` becomes ``(lo_n, lo_d,
        hi_n, hi_d, sn*od, on*sd, sd*od, positive, isn*iod, ion*isd,
        isd*iod, lo, hi)``, where ``lo`` and ``hi`` are the domain endpoints
        themselves; ``_point_rows`` keeps each row's first seven fields, all
        that a point step reads.  Both are plain attributes, not fields, so
        equality, hashing and repr are unchanged; both are built on the first
        exact evaluation and kept for every later call.
        """
        try:
            return self._ratios
        except AttributeError:
            pass
        table = []
        for p in self._effective:
            lo, hi = p.domain.lo, p.domain.hi
            lo_r, hi_r = _ratio_end(lo), _ratio_end(hi)
            slope, offset = p.slope, p.offset
            if (
                lo_r is None
                or hi_r is None
                or type(slope) is not Fraction
                or type(offset) is not Fraction
            ):
                ratios = None
                break
            sn, sd = slope.as_integer_ratio()
            on, od = offset.as_integer_ratio()
            isn, isd = p.inv_slope.as_integer_ratio()
            ion, iod = p.inv_offset.as_integer_ratio()
            table.append(
                (
                    *lo_r,
                    *hi_r,
                    sn * od,
                    on * sd,
                    sd * od,
                    p.positive,
                    isn * iod,
                    ion * isd,
                    isd * iod,
                    lo,
                    hi,
                )
            )
        else:
            ratios = tuple(table)
        object.__setattr__(self, "_ratios", ratios)
        points = None if ratios is None else tuple(row[:7] for row in ratios)
        object.__setattr__(self, "_point_rows", points)
        return ratios

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

    def _ratio_tables(self) -> tuple[tuple[tuple, ...], ...] | None:
        """Every map's integer table (:meth:`PiecewiseAffineMap._ratio_pieces`),
        or None in float mode or when a map is not exact; built on the first
        call and cached like the tables themselves."""
        try:
            return self._tables
        except AttributeError:
            pass
        tables = tuple(pam._ratio_pieces() for pam in self.maps)
        if self.numerics.widen or any(t is None for t in tables):
            tables = None
        object.__setattr__(self, "_tables", tables)
        return tables

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
        for p_ln, p_ld, p_hn, p_hd, a, b, c, positive, _, _, _, _, _ in table:
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
    uncovered part is silently dropped (search semantics).  An exact map and
    exact endpoints without widening take one step of the row kernel
    (module docstring); its results equal the generic loop's in value, type
    and repr.
    """
    if not widen:
        table = pam._ratio_pieces()
        rows = _ratio_rows(sets.components) if table is not None else None
        if rows is not None:
            return _rows_set(_image_rows(table, rows, partial))
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
    """Enclosure of ``f_w`` over an interval union; exact in rational mode.

    An exact system and exact endpoints step the whole word on rows and
    build the result's endpoints once, at the end.
    """
    symbols = _check_word(system, word)
    tables = system._ratio_tables()
    rows = _ratio_rows(sets.components) if tables is not None else None
    if rows is not None:
        for sym in symbols:
            if not rows:
                break
            rows = _image_rows(tables[sym], rows, partial)
        return _rows_set(rows)
    widen = system.numerics.widen
    current = sets
    for sym in symbols:
        if current.is_empty:
            return current
        current = image_of(system.maps[sym], current, widen=widen, partial=partial)
    return current


def _preimage_rows(table: tuple[tuple, ...], rows) -> tuple:
    """:func:`preimage` on rows: the normalised rows ``(lo_n, lo_d, hi_n,
    hi_d, lo, hi)`` of the preimage of the set ``rows`` (rows of four or of
    six fields) under the map of ``table``.

    Each pulled-back component is cut by the piece domain on integers.  A
    cut end is the domain's own end where the domain is strictly inside,
    otherwise the pulled value (the tie rule of ``pulled.intersect(
    p.domain)``); ``lo`` and ``hi`` hold that domain end object, or None for
    a pulled value, so that an int domain end keeps its type in the result.
    A pulled value is reduced by ``gcd`` only when it survives the cut.
    """
    out = []
    for p_ln, p_ld, p_hn, p_hd, _, _, _, positive, a, b, c, p_lo, p_hi in table:
        for row in rows:
            if positive:
                t_ln, t_ld, t_hn, t_hd = row[0], row[1], row[2], row[3]
            else:
                t_ln, t_ld, t_hn, t_hd = row[2], row[3], row[0], row[1]
            # (a*n + b*d) / (c*d), or an infinity of the pulled sign at d = 0
            if t_ld:
                lo_n, lo_d = a * t_ln + b * t_ld, c * t_ld
            else:
                lo_n, lo_d = (t_ln if positive else -t_ln), 0
            if t_hd:
                hi_n, hi_d = a * t_hn + b * t_hd, c * t_hd
            else:
                hi_n, hi_d = (t_hn if positive else -t_hn), 0
            lo = hi = None
            if p_ln * lo_d > lo_n * p_ld:
                lo, lo_n, lo_d = p_lo, p_ln, p_ld
            elif lo_d:
                g = gcd(lo_n, lo_d)
                lo_n //= g
                lo_d //= g
            if p_hn * hi_d < hi_n * p_hd:
                hi, hi_n, hi_d = p_hi, p_hn, p_hd
            elif hi_d:
                g = gcd(hi_n, hi_d)
                hi_n //= g
                hi_d //= g
            if lo_d and hi_d and lo_n * hi_d >= hi_n * lo_d:
                continue
            out.append((lo_n, lo_d, hi_n, hi_d, lo, hi))
    return _normalise_rows(out)


def _pulled_set(rows) -> IntervalSet:
    """The set of :func:`_preimage_rows`' rows, each end the domain end
    object it holds or else a Fraction or an infinity."""
    return IntervalSet(
        tuple(
            Interval(
                _ratio_scalar(lo_n, lo_d) if lo is None else lo,
                _ratio_scalar(hi_n, hi_d) if hi is None else hi,
            )
            for lo_n, lo_d, hi_n, hi_d, lo, hi in rows
        )
    )


def preimage(pam: PiecewiseAffineMap, target: IntervalSet, widen: Scalar = 0) -> IntervalSet:
    """Exact preimage of ``target`` inside the map's domain (outer in float mode).

    An exact map and exact endpoints without widening take one step of the
    row kernel (module docstring), with the same values, types and reprs.
    """
    if not widen:
        table = pam._ratio_pieces()
        rows = _ratio_rows(target.components) if table is not None else None
        if rows is not None:
            return _pulled_set(_preimage_rows(table, rows))
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

    An exact system and exact endpoints step the whole word on rows and
    build the result's endpoints once, at the end.
    """
    symbols = _check_word(system, word)
    tables = system._ratio_tables()
    rows = _ratio_rows(target.components) if tables is not None else None
    if rows is not None:
        if not rows:
            return target
        for sym in reversed(symbols):
            rows = _preimage_rows(tables[sym], rows)
            if not rows:
                break
        return _pulled_set(rows)
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
