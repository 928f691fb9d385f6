"""Spread certificates: every assignment of centers to net cells is realized
by one short admissible word.

A certificate for resolution ``eps`` consists of centers z_1..z_n, a radius
``delta`` and, for EVERY assignment alpha of centers to cells of a finite net
covering Q, a word of length k (1/k < eps) mapping each ball B(z_i, delta)
inside B(net[alpha[i]], eps).  The builder fixes candidate centers up front
(grid anchors inside the common part of the seed sets) and searches one word
per table row from the same start balls, so no row ever disturbs another;
the table assembles or fails on a named assignment.  A row's word is the
least one over the length range whose total images land inside the row's
balls.  Every row of a candidate starts from the same balls and only its
target balls differ, so the rows share one level sweep
(:func:`~swmix.search._levels`, total images): it steps each distinct
(state, enclosures) key of a length once, and each row reads its word off
the levels as the first key that lies inside its balls.  The final delta
is then read off the intersection of all row pullbacks: the largest power
of two whose center balls still satisfy every recorded row at once.

Certificates chain across decreasing resolutions by re-seeding each stage
with the previous stage's final balls, which yields staged approximation
witnesses for points covered at every stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Iterator, Sequence

from .chaos import XiongStage, XiongWitness, _error
from .core import (
    SwitchedSystem,
    _loop_image,
    eval_point,
    word_preimage,
)
from .errors import (
    BudgetExceeded,
    InadmissibleSeeds,
    NotCovered,
    PreconditionFailed,
    UndefinedAtPoint,
    UndefinedOnSet,
)
from .geometry import CompactRep
from .intervals import POS_INF, Interval, IntervalSet, Scalar, _exact_value, covers_closed_interval
from .language import accepts_prefix
from .search import SearchBudget, SearchClock, _levels, _set_search
from .words import Word

__all__ = [
    "QNet",
    "SpreadRow",
    "SpreadCertificate",
    "SpreadChain",
    "build_qnet",
    "certify_spread",
    "verify_certificate",
    "restrict_certificate",
    "chain_certify",
    "xiong_from_chain",
]


def ball(center: Scalar, radius: Scalar) -> IntervalSet:
    return IntervalSet.of(center - radius, center + radius)


@dataclass(frozen=True)
class QNet:
    """Finite centers whose open radius-r balls cover the target region."""

    radius: Scalar
    centers: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        # Written so that a NaN radius fails.
        if not self.radius > 0 or not self.centers:
            raise ValueError("need a positive radius and at least one center")

    def ball(self, j: int, radius: Scalar | None = None) -> IntervalSet:
        return ball(self.centers[j], self.radius if radius is None else radius)

    def cell_of(self, x: Scalar) -> int:
        """Index of the nearest center, lowest index on ties."""
        return min(range(len(self.centers)), key=lambda j: (abs(x - self.centers[j]), j))


def _closed_components(Q: IntervalSet | CompactRep) -> list[tuple[Scalar, Scalar]]:
    if isinstance(Q, CompactRep):
        return list(Q.components)
    if Q.is_empty or not Q.bounded:
        raise ValueError("need a nonempty bounded region")
    return [(c.lo, c.hi) for c in Q]


def _floor(q: Scalar, what: str) -> int:
    """``floor(q)`` of a count ``q``; ValueError, not OverflowError, when
    ``q`` is an infinite float, the quotient by a float resolution ``what``
    too small to divide by."""
    if q == POS_INF:
        raise ValueError(f"{what} is too small: its count overflows a float")
    return math.floor(q)


def _center_counts(comps: Sequence[tuple[Scalar, Scalar]], r: Scalar) -> list[int]:
    """Centers per component of a radius-``r`` net: floor(w/2r) + 1 for a
    component of width w."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return [_floor((hi - lo) / (2 * r), f"net radius {r!r}") + 1 for lo, hi in comps]


def _check_table(m: int, n: int, max_table: int) -> None:
    """ValueError when a table of ``m`` net cells and ``n`` centers, ``m**n``
    rows, exceeds ``max_table``."""
    if m > max_table or m ** n > max_table:
        raise ValueError(f"table of {m}**{n} rows exceeds the cap {max_table}")


def _check_net(Q: IntervalSet | CompactRep, r: Scalar, n: int, max_table: int) -> None:
    """Refuse, before :func:`build_qnet` builds it, a radius-``r`` net on
    ``Q`` whose table for ``n`` centers would exceed ``max_table`` rows."""
    _check_table(sum(_center_counts(_closed_components(Q), r)), n, max_table)


def build_qnet(Q: IntervalSet | CompactRep, r: Scalar) -> QNet:
    """Evenly spaced net per component, then a coverage re-check.

    A component of width w gets floor(w/2r) + 1 centers, which spaces them
    strictly closer than 2r, so even the component endpoints stay covered.
    """
    comps = _closed_components(Q)
    centers: list[Scalar] = []
    for (lo, hi), k in zip(comps, _center_counts(comps, r)):
        width = hi - lo
        centers.extend(lo + width * Fraction(2 * i + 1, 2 * k) for i in range(k))
    balls = [Interval(c - r, c + r) for c in centers]
    for lo, hi in comps:
        if not covers_closed_interval(balls, lo, hi):
            raise ValueError("net construction failed to cover the region")
    return QNet(radius=r, centers=tuple(centers))


@dataclass(frozen=True)
class SpreadRow:
    alpha: tuple[int, ...]
    word: Word


@dataclass(frozen=True)
class SpreadCertificate:
    eps: Scalar
    delta: Scalar
    centers: tuple[Scalar, ...]
    net: QNet
    rows: tuple[SpreadRow, ...]

    def row_for(self, alpha: Sequence[int]) -> SpreadRow:
        key = tuple(alpha)
        for row in self.rows:
            if row.alpha == key:
                return row
        raise KeyError(f"no table row for assignment {key}")

    def max_word_length(self) -> int:
        return max(len(row.word) for row in self.rows)


def _dyadic_below(bound: Scalar, eps: Scalar) -> Scalar:
    """The largest power of two ``d <= 1`` with ``d < eps`` and ``d <=
    bound``, each at its exact value and an infinite one no limit: a float
    when ``bound`` is one, else a Fraction.  Raises ValueError unless both
    are positive."""
    if not (bound > 0 and eps > 0):
        raise ValueError(f"bound and eps must be positive, got {bound!r} and {eps!r}")
    e = 0
    for x, strict in ((bound, False), (eps, True)):
        if x != POS_INF:
            # 2**(k - 1) < n/d < 2**(k + 1); 2**k against n/d is c against r
            n, d = x.as_integer_ratio()
            k = n.bit_length() - d.bit_length()
            c, r = (d << k, n) if k >= 0 else (d, n << -k)
            e = min(e, k - 1 if c > r or strict and c == r else k)
    d = Fraction(1, 1 << -e)
    return float(d) if isinstance(bound, float) else d


def _grid(lo: Scalar, hi: Scalar, g: int) -> list[Scalar]:
    width = hi - lo
    return [lo + width * Fraction(2 * u + 1, 2 * g) for u in range(g)]


def _center_candidates(
    system: SwitchedSystem,
    working: Sequence[IntervalSet],
    eps: Scalar,
    k0: int,
    budget: SearchBudget,
) -> Iterator[tuple[tuple[Scalar, ...], Scalar, int]]:
    """Yield (centers, start radius, horizon) guesses, shallow horizon first.

    Grid denominators keep an odd factor: integer-slope maps park every
    dyadic anchor on one shared image offset lattice, while an odd factor
    spreads the anchors' images across it.  The start radius is sized so
    images stay narrower than a target ball up to the horizon, and center
    spacing is sized so the images of distinct centers drift apart slower
    than that.
    """
    lam = max(abs(p.slope) for pam in system.maps for p in pam.effective_pieces)
    if system._exact() is not None:
        lam = _exact_value(lam)  # a float slope at its exact value: every guess is exact
    n = len(working)
    shared = working[0]
    for w in working[1:]:
        shared = shared.intersect(w)
    if lam > 1:
        horizons = []
        for extra in (2, 4):
            hi = min(k0 + extra, budget.max_horizon)
            if hi >= k0 and hi not in horizons:
                horizons.append(hi)
    else:
        horizons = [budget.max_horizon] if budget.max_horizon >= k0 else []
    for hi in horizons:
        try:
            growth = lam ** hi
        except OverflowError:
            # A float slope past float range at this power, in float mode,
            # which cannot size a radius.
            raise ValueError(f"slope {lam!r} to the power {hi} overflows a float") from None
        cap = eps * 3 / (4 * growth)
        if not shared.is_empty:
            region = shared.widest_component()
            step = cap / (2 * n)
            for g in (9, 27):
                for anchor in _grid(region.lo, region.hi, g):
                    centers = tuple(anchor + i * step for i in range(n))
                    margin = min(
                        min(z - region.lo, region.hi - z) for z in centers
                    )
                    if margin <= 0:
                        continue
                    yield centers, _dyadic_below(min(margin / 2, cap), eps), hi
        else:
            comps = [w.widest_component() for w in working]
            centers = tuple(c.midpoint for c in comps)
            margin = min(c.width for c in comps) / 2
            yield centers, _dyadic_below(min(margin / 2, cap), eps), hi


def certify_spread(
    system: SwitchedSystem,
    seeds: Sequence[IntervalSet],
    K: IntervalSet,
    eps: Scalar,
    net: QNet,
    budget: SearchBudget = SearchBudget(),
    max_table: int = 4096,
    min_word_len: int = 1,
) -> SpreadCertificate:
    """Fix candidate centers, then realize the full assignment table off one
    level sweep per candidate.

    Candidates pair grid anchors over the common part of the seed sets
    (per-seed midpoints when the seeds are disjoint) with a start radius
    small enough that images stay inside a target ball over the whole length
    range.  Each candidate sweeps its levels once, up to its horizon; from
    length k0 = max(floor(1/eps)+1, min_word_len) on, every open row closes
    at the first key of the level that lies inside its balls, which holds
    its least word, and the sweep stops once every row is closed.  A
    candidate fails at the first row still open, in an order that puts the
    two extreme assignments first.  On success delta grows from the start
    radius to the largest power of two whose center balls still sit inside
    the intersection of all row pullbacks.  Raises BudgetExceeded naming the
    first open row of the last failed candidate.
    """
    m = len(net.centers)
    n = len(seeds)
    if n < 1:
        raise ValueError("need at least one seed set")
    _check_table(m, n, max_table)
    if eps <= 0:
        raise ValueError("eps must be positive")
    start: list[IntervalSet] = []
    for i, seed in enumerate(seeds):
        cut = seed.intersect(K)
        if cut.is_empty:
            raise InadmissibleSeeds(f"seed {i} misses K")
        start.append(cut)
    k0 = max(_floor(1 / eps, f"eps {eps!r}") + 1, min_word_len)
    table = list(product(range(m), repeat=n))
    probes = [
        tuple(m - 1 if i % 2 else 0 for i in range(n)),
        tuple(0 if i % 2 else m - 1 for i in range(n)),
    ]
    order = list(dict.fromkeys(probes + table))
    balls = {alpha: [net.ball(a, eps) for a in alpha] for alpha in order}
    clock = SearchClock(budget)
    failed: tuple[int, ...] | None = None
    for centers, delta0, hi in _center_candidates(system, start, eps, k0, budget):
        sources = [ball(z, delta0) for z in centers]
        root, _, advance, fits, _ = _set_search(system, True, sources)
        tests = {alpha: fits(balls[alpha]) for alpha in order}
        found: dict[tuple[int, ...], Word] = {}
        unfound = order
        sweep = _levels(system.automaton, advance, [root], clock, hi)
        for (level,) in islice(sweep, k0 - 1, None):
            for alpha in unfound:
                test = tests[alpha]
                word = next((w for (_, v), w in level.items() if test(v)), None)
                if word is not None:
                    found[alpha] = Word(word)
            unfound = [alpha for alpha in unfound if alpha not in found]
            if not unfound:
                break
        if unfound:
            failed = unfound[0]
            if clock.exceeded:
                break
            continue
        work = tuple(start)
        for alpha in table:
            work = tuple(
                W.intersect(word_preimage(system, found[alpha], net.ball(a, eps)))
                for W, a in zip(work, alpha)
            )
        margins = []
        for z, W in zip(centers, work):
            comp = next((c for c in W if c.contains(z)), None)
            if comp is None:
                break
            margins.append(min(z - comp.lo, comp.hi - z))
        if len(margins) < n:
            continue
        delta = _dyadic_below(min(margins), eps)
        rows = tuple(SpreadRow(alpha=a, word=found[a]) for a in table)
        return SpreadCertificate(
            eps=eps, delta=delta, centers=tuple(centers), net=net, rows=rows
        )
    if failed is None:
        raise BudgetExceeded(
            f"length law needs words of length {k0}, horizon caps at "
            f"{budget.max_horizon}"
        )
    raise BudgetExceeded(f"no word realizes assignment {failed}")


def verify_certificate(system: SwitchedSystem, cert: SpreadCertificate) -> bool:
    """Full structural and enclosure re-check of a certificate.

    Confirms 0 < delta < eps, table completeness over the net, the 1/k < eps
    length bound on every word, that the switching language admits every
    word, and the eps-ball inclusion of every center ball image, using total
    (non-partial) evaluation so undefined spots fail.  A certificate with no
    center claims nothing about any seed and fails.  ``net.radius`` is not
    checked: the balls of the claim have radius ``eps``, whatever the net's
    radius.
    """
    net = cert.net
    m = len(net.centers)
    n = len(cert.centers)
    if not n or not 0 < cert.delta < cert.eps:
        return False
    seen = {row.alpha: row for row in cert.rows}
    if len(seen) != len(cert.rows) or len(cert.rows) != m ** n:
        return False
    for alpha in product(range(m), repeat=n):
        row = seen.get(alpha)
        if row is None:
            return False
        k = len(row.word)
        if not 1 < k * cert.eps or not accepts_prefix(system.automaton, row.word):
            return False
        for i, z in enumerate(cert.centers):
            source = ball(z, cert.delta)
            try:
                image = _loop_image(system, row.word, source)
            except UndefinedOnSet:
                return False
            if not image.subset_of(net.ball(alpha[i], cert.eps)):
                return False
    return True


def restrict_certificate(
    cert: SpreadCertificate, keep: Sequence[int]
) -> SpreadCertificate:
    """Drop centers; for each restricted assignment reuse the first original
    row realizing it (hereditarity of the spread property)."""
    keep = tuple(keep)
    if not keep or len(set(keep)) != len(keep):
        raise ValueError("need a nonempty list of distinct center indices")
    if any(not 0 <= i < len(cert.centers) for i in keep):
        raise ValueError("center index out of range")
    chosen: dict[tuple[int, ...], Word] = {}
    for row in cert.rows:
        sub = tuple(row.alpha[i] for i in keep)
        if sub not in chosen:
            chosen[sub] = row.word
    rows = tuple(
        SpreadRow(alpha=a, word=chosen[a]) for a in sorted(chosen)
    )
    return SpreadCertificate(
        eps=cert.eps,
        delta=cert.delta,
        centers=tuple(cert.centers[i] for i in keep),
        net=cert.net,
        rows=rows,
    )


@dataclass(frozen=True)
class SpreadChain:
    """Certificates at strictly decreasing resolutions, each stage seeded by
    the previous stage's final balls (so the center balls are nested)."""

    stages: tuple[SpreadCertificate, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a chain needs at least one stage")
        eps = [c.eps for c in self.stages]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("stage resolutions must strictly decrease")


def chain_certify(
    system: SwitchedSystem,
    seeds: Sequence[IntervalSet],
    K: IntervalSet,
    Q: IntervalSet | CompactRep,
    eps_list: Sequence[Scalar],
    budget: SearchBudget = SearchBudget(),
    max_table: int = 4096,
) -> SpreadChain:
    """Build certificates for each resolution, re-seeding with the previous
    stage's balls and keeping word lengths strictly increasing across stages."""
    if not eps_list:
        raise ValueError("need at least one resolution")
    stages: list[SpreadCertificate] = []
    current = list(seeds)
    min_len = 1
    for eps in eps_list:
        _check_net(Q, eps / 2, len(current), max_table)
        net = build_qnet(Q, eps / 2)
        cert = certify_spread(
            system,
            current,
            K,
            eps,
            net,
            budget=budget,
            max_table=max_table,
            min_word_len=min_len,
        )
        stages.append(cert)
        current = [ball(z, cert.delta) for z in cert.centers]
        min_len = cert.max_word_length() + 1
    return SpreadChain(stages=tuple(stages))


def _covering_center(cert: SpreadCertificate, a: Scalar) -> int:
    best = None
    for i, z in enumerate(cert.centers):
        d = abs(a - z)
        if d < cert.delta and (best is None or d < best[0]):
            best = (d, i)
    if best is None:
        raise NotCovered(f"point {a} lies in no stage ball")
    return best[1]


def xiong_from_chain(
    system: SwitchedSystem,
    chain: SpreadChain,
    points: Sequence[Scalar],
    targets: Sequence[Scalar],
) -> XiongWitness:
    """Staged approximation words for finitely many points read off the chain.

    Stage by stage: each point picks its covering center ball, the assignment
    sends that center to the net cell nearest the point's target, and the
    matching table row supplies the word.  The certified per-point bound is
    stage eps plus the distance from the target to its cell center; achieved
    errors are recomputed exactly and always fall under the bound.
    """
    pts = tuple(points)
    tgts = tuple(targets)
    if len(pts) != len(tgts) or not pts:
        raise ValueError("need one target per point")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    stages: list[XiongStage] = []
    for cert in chain.stages:
        covers = [_covering_center(cert, a) for a in pts]
        cells = [cert.net.cell_of(t) for t in tgts]
        alpha = [0] * len(cert.centers)
        assigned: dict[int, int] = {}
        for c, cell in zip(covers, cells):
            if c in assigned and assigned[c] != cell:
                raise PreconditionFailed(
                    "two points share a covering center but need different cells"
                )
            assigned[c] = cell
        for c, cell in assigned.items():
            alpha[c] = cell
        row = cert.row_for(alpha)
        errors = []
        bounds = []
        for a, t, cell in zip(pts, tgts, cells):
            try:
                achieved = _error(system, eval_point(system, row.word, a), t)
            except UndefinedAtPoint:
                raise NotCovered(f"orbit of {a} undefined along the stage word")
            errors.append(achieved)
            bounds.append(cert.eps + abs(cert.net.centers[cell] - t))
        stages.append(
            XiongStage(
                tolerance=max(bounds),
                length=len(row.word),
                words=(row.word,),
                errors=tuple(errors),
            )
        )
    return XiongWitness(
        kind="type2",
        points=pts,
        targets=tgts,
        stages=tuple(stages),
        complete=True,
    )
