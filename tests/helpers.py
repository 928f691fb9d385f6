"""Shared builders for the test suite: circle rotations, random systems and
a plain reference evaluation of maps."""

from __future__ import annotations

import random
from fractions import Fraction

from swmix.core import AffinePiece, PiecewiseAffineMap, SwitchedSystem
from swmix.intervals import Interval, IntervalSet
from swmix.language import ForbiddenWords, FullShift

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


_SLOPES = [Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2)]


def random_map(rng: random.Random) -> PiecewiseAffineMap:
    """Global map, or a two-piece map split at a random interior point."""
    if rng.random() < 0.5:
        return PiecewiseAffineMap.globally(
            rng.choice(_SLOPES), Fraction(rng.randrange(-2, 3), rng.randrange(1, 4))
        )
    c = Fraction(rng.randrange(1, 8), 8)
    return PiecewiseAffineMap(
        pieces=(
            AffinePiece(
                Interval(Fraction(0), c),
                rng.choice(_SLOPES),
                Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)),
            ),
            AffinePiece(
                Interval(c, Fraction(1)),
                rng.choice(_SLOPES),
                Fraction(rng.randrange(-2, 3), rng.randrange(1, 4)),
            ),
        )
    )


def reference_value(pam: PiecewiseAffineMap, x):
    """``slope*x + offset`` of the first piece whose open domain holds
    ``x``, or None: :meth:`PiecewiseAffineMap.value_at` without its integer
    path."""
    for p in pam.effective_pieces:
        if p.domain.lo < x < p.domain.hi:
            return p.slope * x + p.offset
    return None


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
