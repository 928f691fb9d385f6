"""Shared builders for the test suite: circle rotations, random systems, a
plain reference evaluation of maps, a reference pull-back of hits and a
reference first-hit search."""

from __future__ import annotations

import random
from fractions import Fraction

from swmix.core import (
    AffinePiece,
    PiecewiseAffineMap,
    SwitchedSystem,
    eval_interval,
    word_preimage,
)
from swmix.intervals import Interval, IntervalSet
from swmix.language import ForbiddenWords, FullShift, accepts_prefix, walk
from swmix.search import step_images

BOX = Interval(Fraction(0), Fraction(1))
UNIT = IntervalSet.of(Fraction(0), Fraction(1))


def rotation(c: Fraction) -> PiecewiseAffineMap:
    """x + c modulo 1 as two unit-slope pieces on (0, 1)."""
    c = Fraction(c)
    return PiecewiseAffineMap(
        pieces=(
            AffinePiece(Interval(Fraction(0), 1 - c), Fraction(1), c),
            AffinePiece(Interval(1 - c, Fraction(1)), Fraction(1), c - 1),
        )
    )


def rotation_system(*shifts: Fraction) -> SwitchedSystem:
    return SwitchedSystem(
        maps=tuple(rotation(c) for c in shifts),
        language=FullShift(len(shifts)),
        bounds=BOX,
    )


SLOPES = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]


def random_map(rng: random.Random) -> PiecewiseAffineMap:
    """Global map, or a two-piece map split at a random interior point."""
    if rng.random() < 0.5:
        return PiecewiseAffineMap.globally(
            rng.choice(SLOPES), Fraction(rng.randrange(-2, 3), rng.randrange(1, 4))
        )
    c = Fraction(rng.randrange(1, 8), 8)
    return PiecewiseAffineMap(
        pieces=(
            AffinePiece(
                Interval(Fraction(0), c),
                rng.choice(SLOPES),
                Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)),
            ),
            AffinePiece(
                Interval(c, Fraction(1)),
                rng.choice(SLOPES),
                Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)),
            ),
        )
    )


def reference_value(pam: PiecewiseAffineMap, x):
    """``slope*x + offset`` of the first piece whose open domain holds
    ``x``, or None: the plain piece loop, written out apart from
    :meth:`PiecewiseAffineMap.value_at` so that tests can check it."""
    for p in pam.effective_pieces:
        if p.domain.lo < x < p.domain.hi:
            return p.slope * x + p.offset
    return None


def reference_pull_back(system: SwitchedSystem, word, source, target):
    """:func:`swmix.hitting.pull_back_hit` of an exact system as three passes
    over interval sets: the image, its leftmost overlap with the target
    pulled back and cut by the source, and the cut's image, which must land
    in the target; the widest component of the cut, or None."""
    image = eval_interval(system, word, source, partial=True)
    overlap = image.intersect(target)
    if overlap.is_empty:
        return None
    sub = word_preimage(system, word, IntervalSet.from_intervals([overlap.components[0]]))
    sub = sub.intersect(source)
    if sub.is_empty:
        return None
    back = eval_interval(system, word, sub, partial=True)
    if back.is_empty or not back.subset_of(target):
        return None
    return IntervalSet.from_intervals([sub.widest_component()])


def random_language(rng: random.Random, m: int):
    """Full shift, or one random forbidden factor of length 2 when that
    still leaves an infinite language."""
    if m == 1 or rng.random() < 0.5:
        return FullShift(m)
    # Forbidding a repeated letter over m >= 2 always leaves admissible words.
    s = rng.randrange(m)
    return ForbiddenWords(m, ((s, s),))


def random_system(rng: random.Random, max_alphabet: int = 3) -> SwitchedSystem:
    m = rng.randrange(1, max_alphabet + 1)
    return SwitchedSystem(
        maps=tuple(random_map(rng) for _ in range(m)),
        language=random_language(rng, m),
        bounds=BOX,
        clamp=rng.random() < 0.5,
    )


def reference_first_set_hit(system, sources, targets, lengths, inside=False, suffix=()):
    """:func:`swmix.search.first_set_hit` as depth-first walks: each length
    in increasing order walked by :func:`swmix.language.walk` over
    :func:`swmix.search.step_images` on sets, with no memo or dead set; the
    first word whose enclosures meet their targets (with ``inside``, lie
    inside them on total images) and that ``suffix`` extends admissibly,
    with its enclosures, or None."""
    min_overlap = system.numerics.min_overlap

    def step(images, sym):
        return step_images(system, images, sym, partial=not inside)

    def leaf(images):
        if inside:
            return all(img.subset_of(t) for img, t in zip(images, targets))
        return all(img.intersects(t, min_overlap) for img, t in zip(images, targets))

    for n in sorted(set(lengths)):
        for syms, images in walk(system.automaton, n, tuple(sources), step, leaf=leaf):
            if accepts_prefix(system.automaton, syms + tuple(suffix)):
                return syms, images
    return None
