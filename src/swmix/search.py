"""Budgeted lexicographic-first searches over admissible words.

Every search is one call of :func:`swmix.language.walk`, the depth-first,
symbol-ordered walk of the pruned automaton, with a step function that folds
interval enclosures (:func:`step_images`) or point orbits
(:func:`step_points`) along each branch, so a shared prefix is evaluated
once.  Branches die when any tracked set becomes empty, any tracked point
leaves every piece domain, or -- with the system's clamp flag -- the branch
separates entirely from the closed bounding box.  The walker charges
:meth:`SearchClock.spend` once per admissible edge before stepping it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .core import SwitchedSystem, image_of
from .errors import UndefinedAtPoint, UndefinedOnSet
from .intervals import IntervalSet, Scalar
from .language import walk


@dataclass(frozen=True)
class SearchBudget:
    """Caps shared by every search: depth, node count, wall clock, and how
    many certificate elements to exhibit."""

    max_horizon: int = 12
    max_words: int = 500_000
    max_seconds: float | None = None
    required: int = 3

    def __post_init__(self) -> None:
        if self.max_horizon < 1 or self.max_words < 1 or self.required < 1:
            raise ValueError("budget fields must be positive")


class SearchClock:
    """Mutable node/time meter for one logical search."""

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.count = 0
        self.exceeded = False
        self._deadline = (
            time.monotonic() + budget.max_seconds if budget.max_seconds else None
        )

    def spend(self) -> bool:
        self.count += 1
        if self.count > self.budget.max_words:
            self.exceeded = True
            return False
        if self._deadline is not None and not self.count & 1023:
            if time.monotonic() > self._deadline:
                self.exceeded = True
                return False
        return True


def step_images(
    system: SwitchedSystem,
    images: tuple[IntervalSet, ...],
    sym: int,
    partial: bool = True,
) -> tuple[IntervalSet, ...] | None:
    """One synchronous map application; None when the branch dies.

    With ``partial=False`` the branch also dies where the map is undefined
    on a positive-width part of any image.
    """
    widen = system.numerics.widen
    pam = system.maps[sym]
    out = []
    for img in images:
        try:
            nxt = image_of(pam, img, widen=widen, partial=partial)
        except UndefinedOnSet:
            return None
        if nxt.is_empty:
            return None
        if system.clamp and not system.inside_kill_box(nxt):
            return None
        out.append(nxt)
    return tuple(out)


def step_points(
    system: SwitchedSystem, points: tuple[Scalar, ...], sym: int
) -> tuple[Scalar, ...] | None:
    pam = system.maps[sym]
    out = []
    for x in points:
        try:
            y = pam.value_at(x)
        except UndefinedAtPoint:
            return None
        if system.clamp and not system.point_in_kill_box(y):
            return None
        out.append(y)
    return tuple(out)


def iter_set_hits(
    system: SwitchedSystem,
    sources: Sequence[IntervalSet],
    targets: Sequence[IntervalSet],
    length: int,
    clock: SearchClock,
) -> Iterator[tuple[tuple[int, ...], tuple[IntervalSet, ...]]]:
    """Yield, in lexicographic order, every admissible word of exactly
    ``length`` whose branch survives and whose final enclosures all meet their
    targets.  Stops silently when the clock runs out (check ``clock.exceeded``).
    """
    min_overlap = system.numerics.min_overlap
    for syms, images in walk(
        system.automaton,
        length,
        tuple(sources),
        lambda images, sym: step_images(system, images, sym),
        clock.spend,
    ):
        if all(img.intersects(t, min_overlap) for img, t in zip(images, targets)):
            yield syms, images


def first_set_hit(
    system: SwitchedSystem,
    sources: Sequence[IntervalSet],
    targets: Sequence[IntervalSet],
    lengths: Sequence[int],
    clock: SearchClock,
) -> tuple[tuple[int, ...], tuple[IntervalSet, ...]] | None:
    """First hit over the given lengths in (length, lexicographic) order."""
    for n in lengths:
        for hit in iter_set_hits(system, sources, targets, n, clock):
            return hit
        if clock.exceeded:
            return None
    return None


def iter_point_hits(
    system: SwitchedSystem,
    starts: Sequence[Scalar],
    accept: Callable[[tuple[Scalar, ...]], bool],
    length: int,
    clock: SearchClock,
) -> Iterator[tuple[tuple[int, ...], tuple[Scalar, ...]]]:
    """Point-orbit counterpart of :func:`iter_set_hits`."""
    for syms, values in walk(
        system.automaton,
        length,
        tuple(starts),
        lambda values, sym: step_points(system, values, sym),
        clock.spend,
    ):
        if accept(values):
            yield syms, values
