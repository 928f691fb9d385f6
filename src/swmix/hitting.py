"""Hitting-time sets and weak-mixing certificates.

For open sets U, V the type-1 hitting set collects the lengths n admitting
an admissible word w of length n with f_w(U) meeting V; the type-2 set
collects the words themselves.  A weak-mixing certificate of order n packages
such evidence for n set pairs at once: either shared lengths with one witness
word per pair (type 1), or single words serving every pair simultaneously,
listed with strictly increasing lengths (type 2).

Everything a certificate asserts is carried as a :class:`HitWitness` that
re-checks against the core evaluator alone, independent of how the search
found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import SwitchedSystem, eval_interval, eval_point, word_preimage
from .errors import (
    BudgetExceeded,
    EmptyRefinement,
    InadmissiblePair,
    PreconditionFailed,
    UndefinedAtPoint,
)
from .intervals import Interval, IntervalSet, Scalar
from .language import accepts_prefix
from .search import SearchBudget, SearchClock, iter_set_hits
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
    """Largest simple sub-source of ``source`` provably mapped into ``target``.

    Pulls the leftmost overlap component of f_w(source) ∩ target back through
    the word and intersects with the source.  In float mode the component is
    first shrunk inward so the outward-rounded round trip still verifies; the
    result is always re-checked, never trusted.
    """
    w = Word(tuple(word))
    image = eval_interval(system, w, source, partial=True)
    overlap = image.intersect(target)
    if overlap.is_empty:
        return None
    comp = overlap.components[0]
    shrinks = (0, 8, 4) if system.numerics.mode == "float" else (0,)
    for denom in shrinks:
        if denom:
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
    for n in range(1, budget.max_horizon + 1):
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
        if clock.exceeded:
            if found:
                lengths.append(n)
            exhausted = False
            break
        if found:
            lengths.append(n)
        elif not decided:
            exhausted = False
    return HittingReport(
        horizon=budget.max_horizon,
        type1=tuple(lengths),
        witnesses=tuple(witnesses),
        exhausted=exhausted,
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

    Type 1 scans lengths in increasing order and admits a length when every
    pair has a witness word of that length (lexicographic-first per pair).
    Type 2 looks for one word whose enclosures meet every target at once; at
    most one word per length keeps the lengths strictly increasing.  Raises
    :class:`BudgetExceeded` carrying the partial certificate when the horizon
    or the node budget runs out first.
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

    for n in range(1, budget.max_horizon + 1):
        if kind == "wm1":
            level: list[tuple[int, HitWitness]] = []
            for i, src in enumerate(sources):
                got = None
                for syms, _ in iter_set_hits(system, [src], [pairs[i][1]], n, clock):
                    sub = pull_back_hit(system, syms, src, pairs[i][1])
                    if sub is not None:
                        got = HitWitness(Word(syms), "set", source=sub)
                        break
                if clock.exceeded:
                    raise BudgetExceeded(
                        f"node budget exhausted at length {n}", partial=make(False)
                    )
                if got is None:
                    break
                level.append((i, got))
            if len(level) == len(pairs):
                lengths.append(n)
                witnesses.extend(level)
        else:
            targets = [V for _, V in pairs]
            for syms, _ in iter_set_hits(system, sources, targets, n, clock):
                subs = [
                    pull_back_hit(system, syms, src, tgt)
                    for src, tgt in zip(sources, targets)
                ]
                if any(sub is None for sub in subs):
                    continue
                words.append(Word(syms))
                lengths.append(n)
                witnesses.extend(
                    (i, HitWitness(Word(syms), "set", source=sub))
                    for i, sub in enumerate(subs)
                )
                break
            if clock.exceeded:
                raise BudgetExceeded(
                    f"node budget exhausted at length {n}", partial=make(False)
                )
        if len(lengths) >= budget.required:
            return make(True)
    raise BudgetExceeded(
        f"horizon {budget.max_horizon} reached with |S|={len(lengths)}",
        partial=make(False),
    )


def verify_wm_certificate(system: SwitchedSystem, cert: WMCertificate) -> bool:
    """Structural and evidential re-check, depending only on the core evaluator."""
    try:
        sources = _admissible_sources(
            cert.K, cert.Q, cert.pairs, system.numerics.min_overlap
        )
    except InadmissiblePair:
        return False
    if not cert.lengths:
        return False
    by_key: dict[tuple[int, int], list[HitWitness]] = {}
    for i, wit in cert.witnesses:
        if not 0 <= i < cert.order:
            return False
        by_key.setdefault((len(wit.word), i), []).append(wit)
    if cert.kind == "wm1":
        if cert.words:
            return False
        need = cert.lengths
    else:
        if len(cert.words) != len(cert.lengths):
            return False
        if any(len(w) != n for w, n in zip(cert.words, cert.lengths)):
            return False
        if any(b <= a for a, b in zip(cert.lengths, cert.lengths[1:])):
            return False
        need = cert.lengths
    for n in need:
        for i in range(cert.order):
            wits = by_key.get((n, i), [])
            if cert.kind == "wm2":
                wanted = cert.words[cert.lengths.index(n)]
                wits = [w for w in wits if w.word == wanted]
            if not wits:
                return False
            if not all(w.verify(system, sources[i], cert.pairs[i][1]) for w in wits):
                return False
    return True


def maps_commute(system: SwitchedSystem, samples: int = 64) -> bool:
    """Pairwise commutation check for the system's map family.

    Exact when every map is globally affine; otherwise a sampled heuristic
    over the bounding box (orbits through undefined points are skipped).
    """
    maps = system.maps
    if all(pam.is_global for pam in maps):
        # The single effective piece is the map as applied; a fallback may be
        # shadowed by an explicit whole-line piece.
        coeffs = [(p.slope, p.offset) for pam in maps for p in pam.effective_pieces]
        for i, (a_i, b_i) in enumerate(coeffs):
            for a_j, b_j in coeffs[i + 1 :]:
                if a_i * b_j + b_i != a_j * b_i + b_j:
                    return False
        return True
    lo, hi = system.bounds.lo, system.bounds.hi
    for k in range(samples):
        # Fraction weights keep rational-mode samples exact.
        x = lo + (hi - lo) * Fraction(2 * k + 1, 2 * samples)
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                try:
                    one = maps[i].value_at(maps[j].value_at(x))
                    two = maps[j].value_at(maps[i].value_at(x))
                except UndefinedAtPoint:
                    continue
                if one != two:
                    return False
    return True


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
    assume_commuting: bool = False,
) -> tuple[IntervalSet, IntervalSet]:
    """Collapse two set pairs into one: (U1 ∩ f_s⁻¹(U2), V1 ∩ f_s⁻¹(V2)).

    Any hitting word for the reduced pair then serves both original pairs,
    provided the map family commutes; unless the caller asserts commutation,
    :func:`maps_commute` must pass.  Requires s to hit U2 from U1 and V2 from
    V1 (checked by enclosure).
    """
    if not assume_commuting and not maps_commute(system):
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
    f_s⁻¹(V) ∩ U and w·s admissible, and returns w·s (w applied first); the
    concatenation hits V from U through the returned intermediate visit to U,
    so iterating grows an infinite hitting family.
    """
    min_overlap = system.numerics.min_overlap
    img = eval_interval(system, s, U, partial=True)
    if not img.intersects(V, min_overlap):
        raise PreconditionFailed("s does not hit V from U")
    target = word_preimage(system, s, V).intersect(U)
    if target.is_empty:
        raise EmptyRefinement("pullback of V misses U (numeric slack)")
    clock = SearchClock(budget)
    for n in range(1, budget.max_horizon + 1):
        for syms, _ in iter_set_hits(system, [U], [target], n, clock):
            # The automaton is pruned, so an admissible prefix w·s extends.
            word = Word(syms) + s
            if accepts_prefix(system.automaton, word):
                return word
        if clock.exceeded:
            break
    raise BudgetExceeded("no extension found within budget")
