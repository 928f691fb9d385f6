"""Shared builders for the test suite: circle rotations, random systems, a
plain reference evaluation of maps, exact-valued copies of maps and sets,
a reference set step and pull-back of hits on the generic loops at exact
values, a reference first-hit search, a reference
Xiong witness, a reference per-edge point step on reduced integer pairs, a
reference envelope on the orbit difference, a reference envelope on plain
Fraction levels, reference envelope and Xiong verifiers on Fraction
arithmetic, a reference greedy cover check and a reference factor-tracker
construction."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from math import gcd

from hypothesis import assume
from hypothesis import strategies as st

from swmix.core import (
    AffinePiece,
    Numerics,
    PiecewiseAffineMap,
    SwitchedSystem,
    eval_point,
    image_of,
    preimage,
)
from swmix.intervals import POS_INF, Interval, IntervalSet, _exact_value
from swmix.chaos import DistanceEnvelope, EnvelopeRow, XiongStage, XiongWitness
from swmix.errors import EmptyLanguage, UndefinedAtPoint, UndefinedOnSet
from swmix.language import (
    Dfa,
    ForbiddenWords,
    FullShift,
    accepts_prefix,
    compile_language,
    walk,
)
from swmix.search import SearchBudget, SearchClock, step_images, step_points
from swmix.words import Word

BOX = Interval(Fraction(0), Fraction(1))
UNIT = IntervalSet.of(Fraction(0), Fraction(1))

# Rotations by 1/3 and 2/7 as two-piece maps on (0, 1), as scenario JSON.
ROTATIONS = {
    "maps": [
        [
            {"domain": ["0", "2/3"], "a": "1", "b": "1/3"},
            {"domain": ["2/3", "1"], "a": "1", "b": "-2/3"},
        ],
        [
            {"domain": ["0", "5/7"], "a": "1", "b": "2/7"},
            {"domain": ["5/7", "1"], "a": "1", "b": "-5/7"},
        ],
    ],
    "bounds": ["0", "1"],
    "language": {"kind": "full", "m": 2},
    "clamp": False,
}


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


def exact_map(pam: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """``pam`` with every coefficient and finite domain end at its exact
    value and its fallback gaps listed as pieces."""
    ex = _exact_value
    return PiecewiseAffineMap(
        tuple(
            AffinePiece(Interval(ex(p.domain.lo), ex(p.domain.hi)), ex(p.slope), ex(p.offset))
            for p in pam.effective_pieces
        )
    )


def exact_set(s: IntervalSet) -> IntervalSet:
    """``s`` with every finite end at its exact value."""
    return IntervalSet(tuple(Interval(_exact_value(c.lo), _exact_value(c.hi)) for c in s))


# The set kernel's references: the generic loops (image_of, preimage and the
# IntervalSet operations) on exact-valued copies of the maps and sets, which
# share no code with the flat-end kernel of the searches, pull_back_hit,
# eval_interval and word_preimage.


def reference_set_step(system: SwitchedSystem, images, sym: int, partial: bool):
    """One set-search step: each set's image under map ``sym``, None where
    a branch dies (an empty image, a gap with ``partial=False``, or with
    the clamp flag an image that misses the closed box), and the images
    otherwise."""
    pam, box = exact_map(system.maps[sym]), system.bounds
    out = []
    for s in images:
        try:
            image = image_of(pam, exact_set(s), partial=partial)
        except UndefinedOnSet:
            return None
        if image.is_empty or (system.clamp and not image.touches_closed(box.lo, box.hi)):
            return None
        out.append(image)
    return tuple(out)


def reference_pull_back(system: SwitchedSystem, word, source, target):
    """:func:`swmix.hitting.pull_back_hit` of an exact system as three passes
    over interval sets: the image, its leftmost overlap with the target
    pulled back and cut by the source, and the cut's image, which must land
    in the target; the widest component of the cut (the first among equals;
    an unbounded one is widest), or None."""
    maps = tuple(map(exact_map, system.maps))
    source, target = exact_set(source), exact_set(target)

    def forward(s):
        for sym in word:
            if s.is_empty:
                break
            s = image_of(maps[sym], s, partial=True)
        return s

    overlap = forward(source).intersect(target)
    if overlap.is_empty:
        return None
    sub = IntervalSet.from_intervals([overlap.components[0]])
    for sym in reversed(word):
        sub = preimage(maps[sym], sub)
    sub = sub.intersect(source)
    if sub.is_empty:
        return None
    back = forward(sub)
    if back.is_empty or not back.subset_of(target):
        return None
    return IntervalSet.from_intervals([sub.widest_component()])


def fraction_ends(s: IntervalSet) -> bool:
    """Whether every end of ``s`` is a Fraction or an infinity, as every end
    a rational-mode result holds must be."""
    return all(
        type(e) is Fraction or e in (float("-inf"), float("inf"))
        for c in s
        for e in (c.lo, c.hi)
    )


def random_language(rng: random.Random, m: int):
    """Full shift, or one random forbidden factor of length 2 when that
    still leaves an infinite language."""
    if m == 1 or rng.random() < 0.5:
        return FullShift(m)
    # Forbidding a repeated letter over m >= 2 always leaves admissible words.
    s = rng.randrange(m)
    return ForbiddenWords(m, ((s, s),))


def reference_forbidden_automaton(spec: ForbiddenWords) -> tuple[int, list[list[int]]]:
    """``(start, table)`` of the factor tracker of ``spec``, built as
    :func:`swmix.language._forbidden_automaton` did before its one
    breadth-first pass: failure links in a loop of their own, then each
    table entry by walking failure links until a child matches."""
    m = spec.m
    children: list[dict[int, int]] = [{}]
    terminal: list[bool] = [False]
    for w in spec.words:
        node = 0
        for s in w:
            nxt = children[node].get(s)
            if nxt is None:
                nxt = len(children)
                children[node][s] = nxt
                children.append({})
                terminal.append(False)
            node = nxt
        terminal[node] = True

    fail = [0] * len(children)
    order = deque(children[0].values())
    while order:
        node = order.popleft()
        for s, nxt in children[node].items():
            f = fail[node]
            while f and s not in children[f]:
                f = fail[f]
            fail[nxt] = children[f].get(s, 0) if children[f].get(s, 0) != nxt else 0
            terminal[nxt] = terminal[nxt] or terminal[fail[nxt]]
            order.append(nxt)

    def goto(node: int, s: int) -> int:
        while True:
            if s in children[node]:
                return children[node][s]
            if node == 0:
                return 0
            node = fail[node]

    table = [[-1] * m for _ in children]
    for node in range(len(children)):
        if terminal[node]:
            continue
        for s in range(m):
            nxt = goto(node, s)
            table[node][s] = -1 if terminal[nxt] else nxt
    return 0, table


def random_system(rng: random.Random, max_alphabet: int = 3) -> SwitchedSystem:
    m = rng.randrange(1, max_alphabet + 1)
    return SwitchedSystem(
        maps=tuple(random_map(rng) for _ in range(m)),
        language=random_language(rng, m),
        bounds=BOX,
        clamp=rng.random() < 0.5,
    )


@st.composite
def sweep_systems(draw):
    """Random maps on the unit box over a full shift, forbidden factors or
    a random automaton, clamp on or off, rational or float mode."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["full", "forbidden", "dfa"]))
    if kind == "forbidden":
        factors = draw(
            st.lists(
                st.lists(st.integers(0, m - 1), min_size=1, max_size=3).map(tuple),
                min_size=1,
                max_size=3,
            )
        )
        language = ForbiddenWords(m, tuple(factors))
    elif kind == "dfa":
        states = draw(st.integers(1, 4))
        edges = draw(
            st.dictionaries(
                st.tuples(st.integers(0, states - 1), st.integers(0, m - 1)),
                st.integers(0, states - 1),
                min_size=1,
            )
        )
        language = Dfa(m, states, 0, tuple((q, a, r) for (q, a), r in sorted(edges.items())))
    else:
        language = FullShift(m)
    try:
        compile_language(language)
    except EmptyLanguage:
        assume(False)
    return SwitchedSystem(
        maps=tuple(random_map(rng) for _ in range(m)),
        language=language,
        bounds=BOX,
        clamp=draw(st.booleans()),
        numerics=Numerics(mode=draw(st.sampled_from(["rational", "float"]))),
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


def reference_xiong_witness(system, points, targets, kind, tolerances, budget=SearchBudget()):
    """:func:`swmix.chaos.xiong_witness` as depth-first walks: for each
    tolerance, each length above the previous stage's and each group of
    points, one :func:`swmix.language.walk` over
    :func:`swmix.search.step_points` for the group's first word within the
    tolerance, with one dead-subtree set per group and tolerance, on one
    clock.  Returns the witness and whether the clock ran out; the witness
    equals the sweep's wherever neither clock ran out."""
    points, targets = tuple(points), tuple(targets)
    items = list(zip(points, targets))
    groups = [items] if kind == "type2" else [[item] for item in items]
    clock = SearchClock(budget)
    dead_sets = {}

    def step(values, sym):
        return step_points(system, values, sym)

    stages = []
    floor = 0
    for eps in tolerances:
        found = None
        for n in clock.lengths(range(floor + 1, budget.max_horizon + 1)):
            words, errs = [], []
            for group in groups:
                xs, ts = zip(*group)

                def near(values, ts=ts):
                    return all(abs(v - t) < eps for v, t in zip(values, ts))

                dead = dead_sets.setdefault((ts, eps), set())
                walker = walk(system.automaton, n, xs, step, clock.spend, near, dead)
                hit = next(walker, None)
                walker.close()
                if hit is None:
                    break
                words.append(Word(hit[0]))
                errs.extend(abs(v - t) for v, t in zip(hit[1], ts))
            else:
                found = XiongStage(eps, n, tuple(words), tuple(errs))
                break
        if found is None:
            break
        stages.append(found)
        floor = found.length
    complete = len(stages) == len(tolerances)
    return XiongWitness(kind, points, targets, tuple(stages), complete), clock.exceeded


def reference_ratio_point_step(exact):
    """The per-edge integer point step on reduced pairs that
    :func:`swmix.search._ratio_point_levels` replaced, kept as its
    independent reference, as a ``step(pairs, sym)`` for
    :func:`swmix.search._level_step`: the points of one group as a flat
    tuple ``(n1, d1, n2, d2, ..)`` of reduced pairs, each stepped
    through the first piece row of ``exact.tables[sym]`` whose open domain
    holds it to ``(a*n + b*d) / (c*d)``, reduced, then kept inside the
    closed clamp box ``exact.box``; None where a point lies in no piece or
    leaves the box."""
    tables, box = exact.tables, exact.box
    clamp = box is not None
    box_lo_n, box_lo_d, box_hi_n, box_hi_d = box or (0, 0, 0, 0)

    def step(pairs, sym):
        table = tables[sym]
        out = []
        it = iter(pairs)
        for n, d in zip(it, it):
            for lo_n, lo_d, hi_n, hi_d, a, b, c in table:
                if lo_n * d < n * lo_d and n * hi_d < hi_n * d:
                    n, d = a * n + b * d, c * d
                    g = gcd(n, d)
                    if g != 1:
                        n //= g
                        d //= g
                    break
            else:
                return None
            if clamp and not (box_lo_n * d <= n * box_lo_d and n * box_hi_d <= box_hi_n * d):
                return None
            out.append(n)
            out.append(d)
        return tuple(out)

    return step


def reference_difference_envelope(system, x, y, horizon, clock):
    """:func:`swmix.chaos.distance_envelope` of kind ``"type2"`` on a
    rational-mode, globally affine system without a clamp, as the orbit
    difference loop it once ran: the level holds ``(state, d)`` keys from the
    root ``y - x`` at exact values, each edge charges ``clock`` once and
    steps ``d`` to ``slope * d``, the first word met for a key is kept, and
    a row takes the least and greatest ``|d|`` with the first words
    attaining them.  A length during which the clock runs out gives no row
    and truncates the envelope."""
    ex = _exact_value
    slopes = [ex(pam.effective_pieces[0].slope) for pam in system.maps]
    aut = system.automaton
    level = {(aut.start, ex(y) - ex(x)): ()}
    rows = []
    for n in range(1, horizon + 1):
        nxt = {}
        for (state, d), word in level.items():
            for sym in range(aut.m):
                target = aut.transitions[state][sym]
                if target < 0:
                    continue
                if not clock.spend():
                    return DistanceEnvelope("type2", x, y, horizon, tuple(rows), True)
                nxt.setdefault((target, slopes[sym] * d), word + (sym,))
        level = nxt
        dists = [(abs(d), w) for (_, d), w in level.items()]
        lo = min(d for d, _ in dists)
        hi = max(d for d, _ in dists)
        w_lo = next(w for d, w in dists if d == lo)
        w_hi = next(w for d, w in dists if d == hi)
        rows.append(EnvelopeRow(n, lo, hi, (Word(w_lo),), (Word(w_hi),)))
    return DistanceEnvelope("type2", x, y, horizon, tuple(rows), False)


def reference_envelope(system, x, y, kind, horizon, max_words) -> DistanceEnvelope:
    """:func:`swmix.chaos.distance_envelope` as a plain Fraction level loop
    (:func:`reference_value`): the first piece whose open domain holds the
    value, slope*x + offset, the closed clamp box, one clock charge per
    admissible edge up to ``max_words``, the first word per key, and
    extremes taken over every value (type 2) or every pair of values (type
    1) with the lexicographically least words."""
    aut = system.automaton
    spent = 0

    def step(level):
        nonlocal spent
        out = {}
        for key, word in level.items():
            for sym in range(aut.m):
                nxt = aut.transitions[key[0]][sym]
                if nxt < 0:
                    continue
                spent += 1
                if spent > max_words:
                    return None
                vals = [reference_value(system.maps[sym], v) for v in key[1:]]
                if any(
                    v is None
                    or (system.clamp and not system.bounds.lo <= v <= system.bounds.hi)
                    for v in vals
                ):
                    continue
                out.setdefault((nxt, *vals), word + (sym,))
        return out

    def values(level):
        best = {}
        for (_, v), w in level.items():
            best[v] = min(best.get(v, w), w)
        return best.items()

    rows = []
    truncated = False
    levels = [{(aut.start, x, y): ()}] if kind == "type2" else [
        {(aut.start, x): ()},
        {(aut.start, y): ()},
    ]
    for n in range(1, horizon + 1):
        nxt = []
        for level in levels:
            nxt.append(step(level))
            if nxt[-1] is None:
                break
        if nxt[-1] is None:
            truncated = True
            break
        if not all(nxt):
            break
        if kind == "type2":
            dist = [(abs(fy - fx), w) for (_, fx, fy), w in nxt[0].items()]
            lo = min(d for d, _ in dist)
            hi = max(d for d, _ in dist)
            w_lo = min(w for d, w in dist if d == lo)
            w_hi = min(w for d, w in dist if d == hi)
            rows.append(EnvelopeRow(n, lo, hi, (Word(w_lo),), (Word(w_hi),)))
        else:
            pairs = [
                (abs(a - b), wa, wb)
                for a, wa in values(nxt[0])
                for b, wb in values(nxt[1])
            ]
            lo, wx_lo, wy_lo = min(pairs)
            neg_hi, wx_hi, wy_hi = min((-d, wa, wb) for d, wa, wb in pairs)
            rows.append(
                EnvelopeRow(
                    n,
                    lo,
                    -neg_hi,
                    (Word(wx_lo), Word(wy_lo)),
                    (Word(wx_hi), Word(wy_hi)),
                )
            )
        levels = nxt
    return DistanceEnvelope(kind, x, y, horizon, tuple(rows), truncated)


def reference_verify_envelope(system, env):
    """:func:`swmix.chaos.verify_envelope` on Fraction arithmetic, as it was
    before it compared on integers: each row's distances ``|u - v|`` of the
    orbits that :func:`swmix.core.eval_point` replays are compared with the
    row's values by ``!=``."""
    if len(env.rows) > env.horizon or any(
        row.length != n for n, row in enumerate(env.rows, 1)
    ):
        return False
    per_extreme = 1 if env.kind == "type2" else 2
    for row in env.rows:
        if len(row.min_words) != per_extreme or len(row.max_words) != per_extreme:
            return False
        for w in row.min_words + row.max_words:
            if len(w) != row.length or not accepts_prefix(system.automaton, w):
                return False
        try:
            lo, hi = (
                abs(eval_point(system, ws[0], env.x) - eval_point(system, ws[-1], env.y))
                for ws in (row.min_words, row.max_words)
            )
        except UndefinedAtPoint:
            return False
        if lo != row.d_min or hi != row.d_max:
            return False
    return True


def reference_verify_xiong(system, wit):
    """:func:`swmix.chaos.verify_xiong` on Fraction arithmetic, as it was
    before it compared on integers: each error ``|v - t|`` (in rational mode
    on the exact value of a float target) must satisfy ``error <= recorded <
    tolerance < inf``."""
    lengths = wit.stage_lengths()
    if not lengths or not wit.points or len(wit.targets) != len(wit.points):
        return False
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        return False
    exact = system._exact() is not None
    for stage in wit.stages:
        words = stage.words
        if wit.kind == "type2":
            if len(words) != 1:
                return False
            words = words * len(wit.points)
        if len(words) != len(wit.points) or len(stage.errors) != len(wit.points):
            return False
        for w, x, t, claimed in zip(words, wit.points, wit.targets, stage.errors):
            if len(w) != stage.length or not accepts_prefix(system.automaton, w):
                return False
            try:
                err = abs(eval_point(system, w, x) - (_exact_value(t) if exact else t))
            except UndefinedAtPoint:
                return False
            if not err <= claimed < stage.tolerance < POS_INF:
                return False
    return True


def greedy_covers_closed_interval(opens, lo, hi):
    """:func:`swmix.intervals.covers_closed_interval` as a greedy rescan: the
    reach starts at ``lo`` and, at every step, scans every interval for the
    farthest right end among those holding the reach in their interior."""
    comps = list(opens)
    x = lo
    for _ in range(len(comps) + 1):
        best = None
        for c in comps:
            if c.lo < x < c.hi and (best is None or c.hi > best):
                best = c.hi
        if best is None:
            return False
        if best > hi:
            return True
        x = best
    return False


def reference_dyadic_below(bound, eps):
    """:func:`swmix.spread._dyadic_below` as the halving loop it replaced:
    from 1, halve a Fraction until it is below ``eps`` and at most
    ``bound``, comparing at exact values."""
    d = Fraction(1)
    while d >= eps or d > bound:
        d = d / 2
    return float(d) if isinstance(bound, float) else d
