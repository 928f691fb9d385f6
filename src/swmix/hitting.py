"""Hitting-time sets and weak-mixing certificates.

For open sets U, V the type-1 hitting set collects the lengths n admitting
an admissible word w of length n with f_w(U) meeting V; the type-2 set
collects the words themselves.  A weak-mixing certificate of order n packages
such evidence for n set pairs at once, searched as groups of pairs: one group
per pair gives shared lengths with one witness word per pair (type 1), one
group of every pair gives single words serving every pair simultaneously,
listed with strictly increasing lengths (type 2).

Everything a certificate asserts is carried as a :class:`HitWitness` that
re-checks against the core evaluator alone, independent of how the search
found it.  A set witness's source comes from :func:`pull_back_hit`: the
leftmost overlap of f_w(U) with V pulled back and cut by U, kept only when
its image lands in V again.  In rational mode, where the system's exact
form (:meth:`swmix.core.SwitchedSystem._exact`) exists, all three passes
run on the integer rows of :mod:`swmix.core` from the exact values of the
sets' ends, and only the returned set is built; the mode alone picks the
path.

:func:`order_reduction` rests on :func:`maps_commute`, a verdict computed
once per system and cached on it: exact in rational mode, on the exact
values of float coefficients and ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    AffinePiece,
    PiecewiseAffineMap,
    SwitchedSystem,
    _check_word,
    _word_image_rows,
    _word_preimage_rows,
    eval_interval,
    eval_point,
    word_preimage,
)
from .errors import (
    BudgetExceeded,
    EmptyRefinement,
    InadmissiblePair,
    PreconditionFailed,
    UndefinedAtPoint,
)
from .intervals import (
    Interval,
    IntervalSet,
    Scalar,
    _cut_rows,
    _exact_value,
    _ratio_rows,
    _rows_inside,
    _rows_set,
    is_finite,
)
from .language import accepts_prefix
from .search import SearchBudget, SearchClock, first_set_hit, iter_set_hits
from .words import Word

__all__ = [
    "HitWitness",
    "HittingReport",
    "WMCertificate",
    "hitting_sets",
    "wm_certificate",
    "verify_wm_certificate",
    "order_reduction",
    "extend_witness",
    "maps_commute",
    "pull_back_hit",
]


@dataclass(frozen=True)
class HitWitness:
    """Re-checkable evidence that a word sends U into contact with V.

    A set witness carries a sub-source whose whole image provably lands in V;
    a point witness carries a single point of U whose orbit endpoint lies in
    V.  Set witnesses are sound in both numeric modes, point witnesses only
    in rational mode.
    """

    word: Word
    kind: str  # "set" | "point"
    source: IntervalSet | None = None
    point: Scalar | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("set", "point"):
            raise ValueError(f"unknown witness kind {self.kind!r}")
        if self.kind == "set" and (self.source is None or self.source.is_empty):
            raise ValueError("set witness needs a nonempty source")
        if self.kind == "point" and self.point is None:
            raise ValueError("point witness needs a point")

    def verify(self, system: SwitchedSystem, U: IntervalSet, V: IntervalSet) -> bool:
        """Re-evaluate through the core and confirm f_w(U) ∩ V ≠ ∅ for a
        word the switching language admits."""
        if not accepts_prefix(system.automaton, self.word):
            return False
        if self.kind == "set":
            assert self.source is not None
            if not self.source.subset_of(U):
                return False
            image = eval_interval(system, self.word, self.source, partial=True)
            return not image.is_empty and image.subset_of(V)
        assert self.point is not None
        if not U.contains(self.point):
            return False
        try:
            return V.contains(eval_point(system, self.word, self.point))
        except UndefinedAtPoint:
            return False


def pull_back_hit(
    system: SwitchedSystem,
    word: Word | Sequence[int],
    source: IntervalSet,
    target: IntervalSet,
) -> IntervalSet | None:
    """A simple sub-source of ``source`` provably mapped into ``target``, or None.

    Pulls the leftmost component of f_w(source) ∩ target back through the
    word, cuts it by the source, images the cut forward again and returns
    its widest component (the first among equals; an unbounded one is
    widest) when that image is nonempty and inside ``target``.  The result
    is always re-checked, never trusted.

    Rational mode (:meth:`SwitchedSystem._exact`) runs all three passes on
    integer rows and builds only the returned set, every end a Fraction or
    an infinity.  Float mode runs the generic loops and shrinks a
    bounded overlap component inward when the plain round trip fails, so
    the outward-rounded one may still verify; an unbounded one cannot be
    shrunk.
    """
    w = Word(tuple(word))
    exact = system._exact()
    if exact is not None:
        src, tgt = _ratio_rows(source.components), _ratio_rows(target.components)
        return _pull_back_rows(exact.tables, _check_word(system, w), src, tgt)
    image = eval_interval(system, w, source, partial=True)
    overlap = image.intersect(target)
    if overlap.is_empty:
        return None
    comp = overlap.components[0]
    for denom in (0, 8, 4):
        if denom:
            if not comp.bounded:
                return None
            margin = comp.width / denom
            cut = Interval(comp.lo + margin, comp.hi - margin)
        else:
            cut = comp
        sub = word_preimage(system, w, IntervalSet.from_intervals([cut]))
        sub = sub.intersect(source)
        if sub.is_empty:
            continue
        back = eval_interval(system, w, sub, partial=True)
        if not back.is_empty and back.subset_of(target):
            # a single component keeps witnesses flat; the widest one keeps
            # refined working sets as fat as possible
            best = sub.widest_component()
            return IntervalSet.from_intervals([best])
    return None


def _pull_back_rows(tables: tuple, symbols: tuple[int, ...], src, tgt) -> IntervalSet | None:
    """:func:`pull_back_hit` on the rows ``src`` of the source and ``tgt``
    of the target."""
    overlap = _cut_rows(_word_image_rows(tables, symbols, src, True), tgt)
    if not overlap:
        return None
    sub = _cut_rows(_word_preimage_rows(tables, symbols, overlap[:1]), src)
    if not sub:
        return None
    back = _word_image_rows(tables, symbols, sub, True)
    if not back or not _rows_inside(back, tgt):
        return None
    best = None
    for row in sub:
        lo_n, lo_d, hi_n, hi_d = row
        if not lo_d or not hi_d:
            best = row  # unbounded: wider than any later component
            break
        width_n, width_d = hi_n * lo_d - lo_n * hi_d, hi_d * lo_d
        if best is None or width_n * best_d > best_n * width_d:
            best, best_n, best_d = row, width_n, width_d
    return _rows_set((best,))


@dataclass(frozen=True)
class HittingReport:
    """N1/N2 restricted to a horizon.

    ``type1`` lists the lengths with at least one verified witness;
    ``witnesses`` holds the witnesses themselves (several per length up to
    the budget's ``required``).  ``exhausted`` is True only when every length
    up to the horizon was fully decided within budget.
    """

    horizon: int
    type1: tuple[int, ...]
    witnesses: tuple[HitWitness, ...]
    exhausted: bool

    def words(self) -> tuple[Word, ...]:
        return tuple(w.word for w in self.witnesses)


def _require_open(name: str, s: IntervalSet) -> None:
    if s.is_empty:
        raise ValueError(f"{name} must be a nonempty open set")


def hitting_sets(
    system: SwitchedSystem,
    U: IntervalSet,
    V: IntervalSet,
    budget: SearchBudget = SearchBudget(),
) -> HittingReport:
    """Decide n ∈ N1(U, V) for every n up to the horizon.

    Each length is scanned exhaustively (with enclosure pruning) until a
    witness extracts or the level is refuted.  On budget exhaustion the
    partial report is returned with ``exhausted=False`` rather than raised,
    so the lengths already decided stay usable.
    """
    _require_open("U", U)
    _require_open("V", V)
    clock = SearchClock(budget)
    lengths: list[int] = []
    witnesses: list[HitWitness] = []
    exhausted = True
    for n in clock.lengths(range(1, budget.max_horizon + 1)):
        found = 0
        decided = True
        for syms, _ in iter_set_hits(system, [U], [V], n, clock):
            sub = pull_back_hit(system, syms, U, V)
            if sub is None:
                # enclosure hit that does not certify (float slack only)
                decided = False
                continue
            witnesses.append(HitWitness(Word(syms), "set", source=sub))
            found += 1
            if found >= budget.required:
                break
        if found:
            lengths.append(n)
        elif not decided:
            exhausted = False
    return HittingReport(
        horizon=budget.max_horizon,
        type1=tuple(lengths),
        witnesses=tuple(witnesses),
        exhausted=exhausted and not clock.exceeded,
    )


@dataclass(frozen=True)
class WMCertificate:
    """Order-n weak-mixing evidence for pairs (U_i, V_i) anchored in K and Q.

    ``kind`` is "wm1" (shared lengths, per-pair witness words) or "wm2"
    (shared words).  ``witnesses`` pairs each witness with its pair index;
    for wm1 they come grouped length by length, for wm2 word by word.
    ``complete`` records whether the requested number of elements of S was
    reached.
    """

    kind: str
    order: int
    K: IntervalSet
    Q: IntervalSet
    pairs: tuple[tuple[IntervalSet, IntervalSet], ...]
    lengths: tuple[int, ...]
    words: tuple[Word, ...]
    witnesses: tuple[tuple[int, HitWitness], ...]
    complete: bool

    def __post_init__(self) -> None:
        if self.kind not in ("wm1", "wm2"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.order != len(self.pairs):
            raise ValueError("order must equal the number of pairs")


def _admissible_sources(
    K: IntervalSet,
    Q: IntervalSet,
    pairs: Sequence[tuple[IntervalSet, IntervalSet]],
    min_overlap: Scalar,
) -> list[IntervalSet]:
    sources = []
    for i, (U_i, V_i) in enumerate(pairs):
        src = U_i.intersect(K)
        if src.is_empty or not V_i.intersects(Q, min_overlap):
            raise InadmissiblePair(
                f"pair {i} does not anchor: need U∩K and V∩Q nonempty"
            )
        sources.append(src)
    return sources


def wm_certificate(
    system: SwitchedSystem,
    K: IntervalSet,
    Q: IntervalSet,
    pairs: Sequence[tuple[IntervalSet, IntervalSet]],
    kind: str = "wm1",
    budget: SearchBudget = SearchBudget(),
) -> WMCertificate:
    """Search for S with ``budget.required`` elements.

    Scans lengths in increasing order and admits a length when every group
    of pairs (each pair alone for type 1, all pairs at once for type 2) has
    a lexicographic-first word of that length hitting all its targets; for
    type 2 at most one word per length keeps the lengths strictly increasing.
    Raises :class:`BudgetExceeded` carrying the partial certificate when the
    horizon or the node budget runs out first.
    """
    if kind not in ("wm1", "wm2"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    pairs = tuple((U, V) for U, V in pairs)
    sources = _admissible_sources(K, Q, pairs, system.numerics.min_overlap)
    clock = SearchClock(budget)
    lengths: list[int] = []
    words: list[Word] = []
    witnesses: list[tuple[int, HitWitness]] = []

    def make(complete: bool) -> WMCertificate:
        return WMCertificate(
            kind=kind,
            order=len(pairs),
            K=K,
            Q=Q,
            pairs=pairs,
            lengths=tuple(lengths),
            words=tuple(words),
            witnesses=tuple(witnesses),
            complete=complete,
        )

    items = [(src, V) for src, (_, V) in zip(sources, pairs)]
    groups = [items] if kind == "wm2" else [[item] for item in items]
    for n in clock.lengths(range(1, budget.max_horizon + 1)):
        level: list[HitWitness] = []
        for group in groups:
            srcs, tgts = zip(*group)
            for syms, _ in iter_set_hits(system, srcs, tgts, n, clock):
                subs = [pull_back_hit(system, syms, s, t) for s, t in group]
                if all(sub is not None for sub in subs):
                    word = Word(syms)
                    level.extend(HitWitness(word, "set", source=sub) for sub in subs)
                    break
            else:
                break  # this group has no witness of length n
        if len(level) == len(pairs):
            lengths.append(n)
            if kind == "wm2":
                words.append(level[0].word)
            witnesses.extend(enumerate(level))
            if len(lengths) >= budget.required:
                return make(True)
    if clock.exceeded:
        message = f"node budget exhausted at length {n}"
    else:
        message = f"horizon {budget.max_horizon} reached with |S|={len(lengths)}"
    raise BudgetExceeded(message, partial=make(False))


def verify_wm_certificate(system: SwitchedSystem, cert: WMCertificate) -> bool:
    """Structural and evidential re-check, depending only on the core evaluator.

    S must be non-empty and strictly increasing, for both kinds.  Every
    witness must name a pair, have a length in S (for wm2, carry that
    length's shared word) and verify; every (length, pair) needs a witness.
    """
    try:
        sources = _admissible_sources(
            cert.K, cert.Q, cert.pairs, system.numerics.min_overlap
        )
    except InadmissiblePair:
        return False
    if not cert.lengths or any(b <= a for a, b in zip(cert.lengths, cert.lengths[1:])):
        return False
    if cert.kind == "wm2":
        if len(cert.words) != len(cert.lengths):
            return False
        if any(len(w) != n for w, n in zip(cert.words, cert.lengths)):
            return False
    elif cert.words:
        return False
    missing = {(n, i) for n in cert.lengths for i in range(cert.order)}
    for i, wit in cert.witnesses:
        n = len(wit.word)
        if type(i) is not int or not 0 <= i < cert.order or n not in cert.lengths:
            return False
        if cert.words and wit.word != cert.words[cert.lengths.index(n)]:
            return False  # not the shared word of its length
        if not wit.verify(system, sources[i], cert.pairs[i][1]):
            return False
        missing.discard((n, i))
    return not missing


def maps_commute(system: SwitchedSystem) -> bool:
    """Whether every two maps f, g of the family commute, f∘g = g∘f,
    wherever both compositions are defined on the bounding box.

    Decided cell by cell: the box is cut at both maps' breakpoints and at
    each map's pull-backs of the other's, so on every cell each composition
    is one affine piece or undefined throughout.  One interior point names
    the pieces, and the cell passes when the composed coefficients agree or
    a composition is undefined there.  Exact in rational mode, on bounded
    and unbounded boxes alike: the cuts and composed coefficients are
    computed on the exact values of float coefficients and ends
    (:func:`_exact_map`).  Float mode compares floats.  The verdict is
    computed on the first call and cached on the system, whose maps and
    box never change.
    """
    try:
        return system._commutes
    except AttributeError:
        pass
    maps, box = system.maps, system.bounds
    if system._exact() is not None:
        maps = tuple(map(_exact_map, maps))
        box = Interval(_exact_value(box.lo), _exact_value(box.hi))
    verdict = all(_pair_commutes(f, g, box) for i, f in enumerate(maps) for g in maps[i + 1 :])
    object.__setattr__(system, "_commutes", verdict)
    return verdict


def _exact_map(pam: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """``pam`` with every float coefficient and finite domain end at its
    exact value, its fallback gaps listed as pieces."""
    ex = _exact_value
    return PiecewiseAffineMap(
        tuple(
            AffinePiece(Interval(ex(p.domain.lo), ex(p.domain.hi)), ex(p.slope), ex(p.offset))
            for p in pam.effective_pieces
        )
    )


def _pair_commutes(f: PiecewiseAffineMap, g: PiecewiseAffineMap, box: Interval) -> bool:
    cuts = set()
    for outer, inner in ((f, g), (g, f)):
        ends = [e for q in outer.effective_pieces for e in (q.domain.lo, q.domain.hi)]
        ends = [e for e in ends if is_finite(e)]
        cuts.update(ends)
        for p in inner.effective_pieces:
            cuts.update(p.inv_slope * e + p.inv_offset for e in ends)
    edges = [box.lo, *sorted(c for c in cuts if box.lo < c < box.hi), box.hi]
    for lo, hi in zip(edges, edges[1:]):
        if is_finite(lo):
            x = (lo + hi) / 2 if is_finite(hi) else lo + 1
        else:
            x = hi - 1 if is_finite(hi) else 0
        one, two = _composed(f, g, x), _composed(g, f, x)
        if one is not None and two is not None and one != two:
            return False
    return True


def _composed(
    outer: PiecewiseAffineMap, inner: PiecewiseAffineMap, x: Scalar
) -> tuple[Scalar, Scalar] | None:
    """Slope and offset of the piece of ``outer ∘ inner`` at ``x``, or None
    where the composition is undefined at ``x``."""
    for p in inner.effective_pieces:
        if p.domain.contains(x):
            y = p.slope * x + p.offset
            for q in outer.effective_pieces:
                if q.domain.contains(y):
                    return q.slope * p.slope, q.slope * p.offset + q.offset
    return None


def _is_common_hit(
    system: SwitchedSystem,
    s: Word,
    A1: IntervalSet,
    A2: IntervalSet,
    B1: IntervalSet,
    B2: IntervalSet,
) -> bool:
    min_overlap = system.numerics.min_overlap
    img_a = eval_interval(system, s, A1, partial=True)
    img_b = eval_interval(system, s, B1, partial=True)
    return img_a.intersects(A2, min_overlap) and img_b.intersects(B2, min_overlap)


def order_reduction(
    system: SwitchedSystem,
    U1: IntervalSet,
    U2: IntervalSet,
    V1: IntervalSet,
    V2: IntervalSet,
    s: Word,
) -> tuple[IntervalSet, IntervalSet]:
    """Collapse two set pairs into one: (U1 ∩ f_s⁻¹(U2), V1 ∩ f_s⁻¹(V2)).

    Any hitting word for the reduced pair then serves both original pairs,
    provided the map family commutes, so :func:`maps_commute` must pass.
    Requires s to hit U2 from U1 and V2 from V1 (checked by enclosure).
    """
    if not maps_commute(system):
        raise PreconditionFailed("map family does not commute")
    if not _is_common_hit(system, s, U1, U2, V1, V2):
        raise PreconditionFailed("s is not a common hitting word for the two pairs")
    U = U1.intersect(word_preimage(system, s, U2))
    V = V1.intersect(word_preimage(system, s, V2))
    if U.is_empty or V.is_empty:
        raise EmptyRefinement("refined pair collapsed to empty (numeric slack)")
    return U, V


def extend_witness(
    system: SwitchedSystem,
    U: IntervalSet,
    V: IntervalSet,
    s: Word,
    budget: SearchBudget = SearchBudget(),
) -> Word:
    """Extend a hitting word s ∈ N2(U, V) to a strictly longer one.

    Finds the first w, in (length, lexicographic) order, with f_w(U) meeting
    f_s⁻¹(V) ∩ U and w·s admissible (one level sweep,
    :func:`~swmix.search.first_set_hit` with ``suffix=s``), and returns w·s
    (w applied first); the concatenation hits V from U through the returned
    intermediate visit to U, so iterating grows an infinite hitting family.
    """
    min_overlap = system.numerics.min_overlap
    img = eval_interval(system, s, U, partial=True)
    if not img.intersects(V, min_overlap):
        raise PreconditionFailed("s does not hit V from U")
    target = word_preimage(system, s, V).intersect(U)
    if target.is_empty:
        raise EmptyRefinement("pullback of V misses U (numeric slack)")
    clock = SearchClock(budget)
    lengths = range(1, budget.max_horizon + 1)
    hit = first_set_hit(system, [U], [target], lengths, clock, suffix=s)
    if hit is None:
        raise BudgetExceeded("no extension found within budget")
    return Word(hit[0]) + s
