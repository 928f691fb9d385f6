"""Core evaluator: exact images, preimages, orbits, and itineraries."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swmix import core
from swmix.core import (
    AffinePiece,
    Numerics,
    PiecewiseAffineMap,
    SwitchedSystem,
    eval_interval,
    eval_point,
    image_of,
    itinerary_word,
    preimage,
    word_preimage,
)
from swmix.chaos import XiongStage, XiongWitness, distance_envelope, verify_xiong, xiong_witness
from swmix.demo import tent_orbit, tent_partition, tent_system
from swmix.errors import OutsidePartition, UndefinedAtPoint, UndefinedOnSet
from swmix.hitting import hitting_sets, pull_back_hit
from swmix.intervals import NEG_INF, POS_INF, Interval, IntervalSet
from swmix.language import FullShift
from swmix.search import (
    SearchBudget,
    SearchClock,
    first_set_hit,
    iter_point_hits,
    iter_set_hits,
)
from swmix.words import Word

from helpers import (
    fraction_ends,
    random_system,
    reference_pull_back,
    reference_value,
    rotation,
)

TENT = tent_system()


def test_eval_point_frozen_values():
    assert eval_point(TENT, Word.from_string("0"), F(3, 10)) == F(3, 5)
    assert eval_point(TENT, Word.from_string("01"), F(3, 10)) == F(4, 5)
    # Unclamped orbits roam outside the box: 1/3 -> 4/3 -> -2/3.
    assert eval_point(TENT, Word.from_string("11"), F(1, 3)) == F(-2, 3)


def test_eval_point_rejects_bad_words():
    with pytest.raises(ValueError):
        eval_point(TENT, (), F(1, 2))
    with pytest.raises(ValueError):
        eval_point(TENT, Word.of(2), F(1, 2))


def test_eval_interval_frozen_values():
    img = eval_interval(TENT, Word.from_string("0000"), IntervalSet.of(F(0), F(1, 10)))
    assert img == IntervalSet.of(F(0), F(8, 5))
    pre = word_preimage(TENT, Word.from_string("0000"), IntervalSet.of(F(0), F(4, 5)))
    assert pre == IntervalSet.of(F(0), F(1, 20))


def test_concatenation_composes_left_to_right():
    rng = random.Random(7)
    for _ in range(50):
        u = Word(tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5))))
        v = Word(tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5))))
        x = F(rng.getrandbits(16), 2 ** 16)
        assert eval_point(TENT, u + v, x) == eval_point(TENT, v, eval_point(TENT, u, x))


def test_point_orbit_lands_in_enclosure():
    rng = random.Random(11)
    for _ in range(60):
        system = random_system(rng)
        w = Word(tuple(rng.randrange(system.m) for _ in range(rng.randrange(1, 6))))
        x = F(1 + rng.getrandbits(12), 2 ** 13)  # interior of (0, 1/2)
        src = IntervalSet.of(F(0), F(1))
        try:
            y = eval_point(system, w, x)
        except UndefinedAtPoint:
            continue
        img = eval_interval(system, w, src, partial=True)
        assert img.closure_contains(y)


def test_preimage_galois_on_global_maps():
    rng = random.Random(13)
    target = IntervalSet.of(F(1, 3), F(2, 3))
    for _ in range(100):
        w = Word(tuple(rng.randrange(2) for _ in range(rng.randrange(1, 7))))
        x = F(rng.getrandbits(20), 2 ** 20)
        pre = word_preimage(TENT, w, target)
        assert pre.contains(x) == target.contains(eval_point(TENT, w, x))


def test_preimage_confined_to_piece_domains():
    rot = rotation(F(1, 3))
    pre = preimage(rot, IntervalSet.of(F(0), F(1)))
    # Both pieces pull the unit interval back into their own open domains.
    assert pre == IntervalSet.from_intervals(
        [Interval(F(0), F(2, 3)), Interval(F(2, 3), F(1))]
    )


def test_image_of_strict_vs_partial():
    gap = PiecewiseAffineMap(
        pieces=(
            AffinePiece(Interval(F(0), F(1, 4)), F(2), F(0)),
            AffinePiece(Interval(F(1, 2), F(1)), F(1), F(0)),
        )
    )
    src = IntervalSet.of(F(0), F(1))
    with pytest.raises(UndefinedOnSet):
        image_of(gap, src)
    img = image_of(gap, src, partial=True)
    assert img == IntervalSet.from_intervals(
        [Interval(F(0), F(1, 2)), Interval(F(1, 2), F(1))]
    )


def test_value_at_undefined_between_pieces():
    rot = rotation(F(1, 3))
    with pytest.raises(UndefinedAtPoint):
        rot.value_at(F(2, 3))
    assert rot.value_at(F(1, 2)) == F(5, 6)


def test_system_requires_full_coverage():
    gap = PiecewiseAffineMap(
        pieces=(AffinePiece(Interval(F(0), F(1, 4)), F(2), F(0)),)
    )
    with pytest.raises(ValueError, match="not defined on the whole bounding box"):
        SwitchedSystem(
            maps=(gap,), language=FullShift(1), bounds=Interval(F(0), F(1))
        )


def test_clamp_kill_box_is_closed():
    system = tent_system(clamp=True)
    assert system.inside_kill_box(IntervalSet.of(F(1, 2), F(3, 2)))
    assert not system.inside_kill_box(IntervalSet.of(F(1), F(2)))
    assert system.point_in_kill_box(F(1))
    assert not system.point_in_kill_box(F(11, 10))


def test_itinerary_matches_reference_orbit():
    partition = tent_partition()
    for x in (F(3, 10), F(1, 7), F(123, 1024)):
        word = itinerary_word(TENT, partition, x, 12)
        ref = tent_orbit(x, 12)
        for n in range(1, 13):
            assert eval_point(TENT, word.prefix(n), x) == ref[n]


def test_itinerary_frozen_and_boundary_tie():
    partition = tent_partition()
    assert itinerary_word(TENT, partition, F(3, 10), 2) == Word.from_string("01")
    # 1/2 lies in both cell closures; the first listed cell wins.
    assert itinerary_word(TENT, partition, F(1, 2), 1) == Word.of(0)


def test_itinerary_outside_partition():
    half_only = [(IntervalSet.of(F(0), F(1, 2)), 0)]
    with pytest.raises(OutsidePartition):
        itinerary_word(TENT, half_only, F(3, 10), 2)


def test_float_mode_widens_outward():
    system = tent_system(numerics=Numerics(mode="float"))
    img = eval_interval(
        system, Word.from_string("0000"), IntervalSet.of(F(0), F(1, 10))
    )
    comp = img.components[0]
    assert comp.lo <= 0 and comp.hi >= 1.6


def test_numerics_validation():
    with pytest.raises(ValueError):
        Numerics(mode="decimal")
    with pytest.raises(ValueError):
        Numerics(mode="float", tau=0.0)
    assert Numerics().widen == 0


@pytest.mark.parametrize(
    "fields, error",
    [
        ({"min_overlap": float("nan")}, ValueError),
        ({"min_overlap": float("inf")}, ValueError),
        ({"min_overlap": float("-inf")}, ValueError),
        ({"min_overlap": True}, TypeError),
        ({"min_overlap": "0"}, TypeError),
        ({"mode": "float", "tau": float("nan")}, ValueError),
        ({"mode": "float", "tau": float("inf")}, ValueError),
        ({"tau": float("nan")}, ValueError),
        ({"mode": "float", "tau": True}, TypeError),
        ({"mode": "float", "tau": "0.001"}, TypeError),
    ],
)
def test_numerics_rejects_bool_and_non_finite_fields(fields, error):
    # A NaN min_overlap made every overlap test fail, so a search reported
    # that no word exists; a NaN tau passed the positivity check.
    with pytest.raises(error):
        Numerics(**fields)
    assert Numerics(mode="float", tau=1, min_overlap=F(1, 8)).min_overlap == F(1, 8)


# Kernel regression values, frozen from the kernel before it cached per-piece
# inverse slopes; endpoint types are part of the contract.


def endpoints(s: IntervalSet) -> list:
    return [(c.lo, type(c.lo), c.hi, type(c.hi)) for c in s]


def frozen(*pairs) -> list:
    return [(lo, type(lo), hi, type(hi)) for lo, hi in pairs]


NEG_SLOPES = PiecewiseAffineMap(
    pieces=(
        AffinePiece(Interval(F(0), F(1, 2)), F(-3, 2), F(1, 4)),
        AffinePiece(Interval(F(1, 2), F(1)), F(2), F(-1, 3)),
    )
)


def test_kernel_negative_slopes_frozen():
    src = IntervalSet.from_pairs([(F(1, 5), F(3, 4)), (F(7, 8), F(1))])
    assert endpoints(image_of(NEG_SLOPES, src)) == frozen(
        (F(-1, 2), F(-1, 20)), (F(2, 3), F(7, 6)), (F(17, 12), F(5, 3))
    )
    pre = preimage(NEG_SLOPES, IntervalSet.of(F(-1, 2), F(1, 2)))
    assert endpoints(pre) == frozen((F(0), F(1, 2)))


def test_kernel_unbounded_components_frozen():
    flip = PiecewiseAffineMap.globally(F(-2), F(1))
    unb = IntervalSet.from_pairs([(NEG_INF, F(0)), (F(1), F(2)), (F(3), POS_INF)])
    assert endpoints(image_of(flip, unb)) == frozen(
        (NEG_INF, F(-5)), (F(-3), F(-1)), (F(1), POS_INF)
    )
    assert endpoints(preimage(flip, unb)) == frozen(
        (NEG_INF, F(-1)), (F(-1, 2), F(0)), (F(1, 2), POS_INF)
    )
    line = IntervalSet.of(NEG_INF, POS_INF)
    assert endpoints(image_of(flip, line)) == frozen((NEG_INF, POS_INF))
    assert endpoints(preimage(flip, line)) == frozen((NEG_INF, POS_INF))
    # A half-line piece next to its fallback gap (0, inf).
    half = PiecewiseAffineMap(
        pieces=(AffinePiece(Interval(NEG_INF, F(0)), F(3), F(1)),),
        fallback=(F(-1, 2), F(2)),
    )
    assert endpoints(image_of(half, IntervalSet.of(F(-2), F(2)))) == frozen(
        (F(-5), F(1)), (F(1), F(2))
    )
    assert endpoints(preimage(half, IntervalSet.of(F(1, 2), POS_INF))) == frozen(
        (F(-1, 6), F(0)), (F(0), F(3))
    )


def test_kernel_int_endpoints_frozen():
    ints = PiecewiseAffineMap(
        pieces=(
            AffinePiece(Interval(0, 1), 3, -1),
            AffinePiece(Interval(1, 2), -1, 4),
        )
    )
    assert endpoints(image_of(ints, IntervalSet.of(0, 2))) == frozen(
        (F(-1), F(2)), (F(2), F(3))
    )
    # Cuts by an int domain endpoint keep that endpoint's int type.
    assert endpoints(preimage(ints, IntervalSet.of(0, 3))) == frozen(
        (F(1, 3), 1), (F(1), 2)
    )


def test_kernel_float_widening_frozen():
    fl = PiecewiseAffineMap(
        pieces=(
            AffinePiece(Interval(NEG_INF, 0.5), 2.0, 0.1),
            AffinePiece(Interval(0.5, POS_INF), -3.0, 2.6),
        )
    )
    widen = Numerics(mode="float").widen
    assert widen > 0
    src = IntervalSet.from_pairs([(NEG_INF, -1.0), (0.1, 0.9), (1.25, POS_INF)])
    assert endpoints(image_of(fl, src, widen=widen, partial=True)) == frozen(
        (NEG_INF, -1.149999999998181), (-0.10000000000181908, 1.100000000001819)
    )
    assert endpoints(preimage(fl, IntervalSet.of(0.3, 0.7), widen=widen)) == frozen(
        (0.099999999998181, 0.300000000001819),
        (0.6333333333315144, 0.7666666666684857),
    )
    # Infinite endpoints are never widened.
    assert endpoints(preimage(fl, IntervalSet.of(NEG_INF, 0.0), widen=widen)) == frozen(
        (NEG_INF, -0.04999999999818101), (0.8666666666648477, POS_INF)
    )


def test_pieces_carry_inverse_maps():
    for p in NEG_SLOPES.effective_pieces:
        assert p.positive == (p.slope > 0)
        assert p.inv_slope * p.slope == 1
        assert p.inv_slope * (p.slope * F(3, 7) + p.offset) + p.inv_offset == F(3, 7)
    glob = PiecewiseAffineMap.globally(-4.0, 1.0)
    (piece,) = glob.effective_pieces
    assert not piece.positive
    assert (piece.inv_slope, piece.inv_offset) == (-0.25, 0.25)


def test_affine_piece_rejects_non_finite_coefficients():
    nan = float("nan")
    for slope, offset in ((POS_INF, 0.0), (NEG_INF, 1.0), (2.0, nan), (2.0, POS_INF)):
        with pytest.raises(ValueError, match="finite coefficients"):
            AffinePiece(Interval(F(0), F(1)), slope, offset)
    with pytest.raises(ValueError, match="finite coefficients"):
        PiecewiseAffineMap.globally(1.0, POS_INF)


# Point-kernel regression values, frozen from the kernel before value_at
# compared rationals as cross-multiplied integers; result types and reprs are
# part of the contract.

# Piece (1/3, 2/3) with fallback gaps (-inf, 1/3) and (2/3, inf).
GAPPED = PiecewiseAffineMap(
    pieces=(AffinePiece(Interval(F(1, 3), F(2, 3)), F(5, 7), F(-1, 9)),),
    fallback=(F(-4), F(3, 2)),
)
# Explicit half-line piece (-inf, 0) next to the fallback gap (0, inf).
HALF_LINE = PiecewiseAffineMap(
    pieces=(AffinePiece(Interval(NEG_INF, F(0)), F(3), F(1)),),
    fallback=(F(-1, 2), F(2)),
)
INT_ENDPOINTS = PiecewiseAffineMap(
    pieces=(
        AffinePiece(Interval(0, 1), 3, -1),
        AffinePiece(Interval(1, 2), -1, 4),
    )
)
FLOAT_MAP = PiecewiseAffineMap(
    pieces=(
        AffinePiece(Interval(NEG_INF, 0.5), 2.0, 0.1),
        AffinePiece(Interval(0.5, POS_INF), -3.0, 2.6),
    )
)
# Rational coefficients on a float-bounded piece.
MIXED = PiecewiseAffineMap(
    pieces=(AffinePiece(Interval(0.25, 0.75), F(2), F(1, 3)),),
    fallback=(F(1), F(0)),
)


def exact(value) -> tuple:
    return (value, type(value), repr(value))


@pytest.mark.parametrize(
    "pam, x, want",
    [
        (NEG_SLOPES, F(1, 5), F(-1, 20)),
        (NEG_SLOPES, F(3, 7), F(-11, 28)),
        (NEG_SLOPES, F(7, 8), F(17, 12)),
        (GAPPED, F(-5, 2), F(23, 2)),
        (GAPPED, F(1, 2), F(31, 126)),
        (GAPPED, F(9, 10), F(-21, 10)),
        (GAPPED, 1, F(-5, 2)),
        (GAPPED, 0.5, 0.24603174603174605),
        (HALF_LINE, F(-7, 3), F(-6)),
        (HALF_LINE, F(-10**9, 3), F(-999999999)),
        (HALF_LINE, F(5, 2), F(3, 4)),
        (HALF_LINE, F(10**12 + 1, 7), F(-999999999973, 14)),
        (HALF_LINE, -2, F(-5)),
        (HALF_LINE, 3, F(1, 2)),
        (HALF_LINE, 2.5, 0.75),
        (HALF_LINE, -0.25, 0.25),
        (INT_ENDPOINTS, F(1, 2), F(1, 2)),
        (INT_ENDPOINTS, F(3, 2), F(5, 2)),
        (INT_ENDPOINTS, 0.5, 0.5),
        (INT_ENDPOINTS, 1.5, 2.5),
        # A float map keeps a rational point's image a float.
        (FLOAT_MAP, F(1, 3), 0.7666666666666666),
        (FLOAT_MAP, F(2, 3), 0.6000000000000001),
        (FLOAT_MAP, 1, -0.3999999999999999),
        (FLOAT_MAP, 0.25, 0.6),
        (MIXED, F(1, 2), F(4, 3)),
        (MIXED, F(7, 8), F(7, 8)),
        (MIXED, 0.5, 1.3333333333333333),
    ],
)
def test_value_at_frozen(pam, x, want):
    assert exact(pam.value_at(x)) == exact(want)


@pytest.mark.parametrize(
    "pam, x",
    [
        (NEG_SLOPES, F(-1, 3)),
        (NEG_SLOPES, F(1, 2)),
        (NEG_SLOPES, 0),
        (NEG_SLOPES, 1),
        (GAPPED, F(1, 3)),
        (GAPPED, F(2, 3)),
        (HALF_LINE, F(0)),
        (HALF_LINE, 0),
        (INT_ENDPOINTS, 1),
        (INT_ENDPOINTS, F(1)),
        (FLOAT_MAP, F(1, 2)),
        (FLOAT_MAP, 0.5),
        (MIXED, F(1, 4)),
    ],
)
def test_value_at_undefined_on_boundaries(pam, x):
    with pytest.raises(UndefinedAtPoint, match=f"map undefined at {x}$"):
        pam.value_at(x)


RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=60)
NONZERO = RATIONALS.filter(lambda a: a != 0)


@st.composite
def piecewise_maps(draw, floats=False):
    """Two or three pieces over sorted cuts, some domains skipped, with or
    without a fallback; endpoints may be ints or infinite, and with
    ``floats`` also finite floats."""
    k = draw(st.integers(2, 3))
    cuts = sorted(set(draw(st.lists(RATIONALS, min_size=k + 1, max_size=k + 1))))
    cuts = [int(c) if c.denominator == 1 and draw(st.booleans()) else c for c in cuts]
    if floats:
        cuts = [float(c) if draw(st.booleans()) else c for c in cuts]
    if draw(st.booleans()):
        cuts[0] = NEG_INF
    if draw(st.booleans()):
        cuts[-1] = POS_INF
    pieces = tuple(
        AffinePiece(Interval(lo, hi), draw(NONZERO), draw(RATIONALS))
        for lo, hi in zip(cuts, cuts[1:])
        if draw(st.booleans())
    )
    fallback = (draw(NONZERO), draw(RATIONALS)) if draw(st.booleans()) else None
    if not pieces and fallback is None:
        fallback = (F(1), F(0))
    return PiecewiseAffineMap(pieces=pieces, fallback=fallback), cuts


@settings(max_examples=300, deadline=None)
@given(piecewise_maps(), RATIONALS, st.integers(0, 3), st.booleans())
def test_value_at_matches_piece_formula(drawn, x, cut, on_cut):
    pam, cuts = drawn
    if on_cut:  # land exactly on a domain boundary now and then
        x = cuts[cut % len(cuts)]
        if type(x) is float:
            return
        x = F(x)
    want = reference_value(pam, x)
    if want is None:
        with pytest.raises(UndefinedAtPoint):
            pam.value_at(x)
    else:
        assert exact(pam.value_at(x)) == exact(want)


# The set kernel against the plain loops it replaced: max/min with their
# first-argument tie rule, slope*x + offset per endpoint, a stable sort by
# (lo, hi) and a merge of strictly overlapping components.  Sets are lists of
# (lo, hi) pairs, so the reference builds no Interval.


def reference_affine(a, b, x):
    if x in (NEG_INF, POS_INF):
        return x if a > 0 else -x
    return a * x + b


def reference_normalise(pairs):
    out = []
    for lo, hi in sorted(pairs):
        if out and lo < out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def reference_image(pam, pairs, partial):
    out = []
    for c_lo, c_hi in pairs:
        cursor = c_lo
        for p in pam.effective_pieces:
            lo, hi = max(c_lo, p.domain.lo), min(c_hi, p.domain.hi)
            if lo >= hi:
                continue
            if not partial and lo > cursor:
                raise UndefinedOnSet(
                    f"({cursor}, {lo}) has positive width outside all piece domains"
                )
            cursor = max(cursor, hi)
            ends = [reference_affine(p.slope, p.offset, x) for x in (lo, hi)]
            out.append(tuple(ends if p.slope > 0 else ends[::-1]))
        if not partial and cursor < c_hi:
            raise UndefinedOnSet(
                f"({cursor}, {c_hi}) has positive width outside all piece domains"
            )
    return reference_normalise(out)


def reference_preimage(pam, pairs):
    out = []
    for p in pam.effective_pieces:
        for c_lo, c_hi in pairs:
            ends = [
                reference_affine(p.inv_slope, p.inv_offset, x) for x in (c_lo, c_hi)
            ]
            pulled = ends if p.slope > 0 else ends[::-1]
            lo, hi = max(pulled[0], p.domain.lo), min(pulled[1], p.domain.hi)
            if lo < hi:
                out.append((lo, hi))
    return reference_normalise(out)


def exact_pairs(pairs) -> list:
    return [(exact(lo), exact(hi)) for lo, hi in pairs]


def as_pairs(s: IntervalSet) -> list:
    return [(c.lo, c.hi) for c in s]


@st.composite
def exact_endpoints(draw, cuts):
    """A rational or one of the map's cut points, as an int or a Fraction
    whenever its value is whole, so endpoints tie with domain endpoints of
    the other type."""
    x = draw(st.sampled_from(cuts)) if draw(st.booleans()) else draw(RATIONALS)
    if type(x) is float:
        return x
    if x == int(x) and draw(st.booleans()):
        return int(x) if type(x) is F else F(x)
    return x


@st.composite
def pair_lists(draw, cuts):
    """Up to four open intervals, overlapping, abutting or apart; an end may
    be infinite and, now and then, a component is the whole line."""
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 15)) == 0:
            pairs.append((NEG_INF, POS_INF))
            continue
        a, b = draw(exact_endpoints(cuts)), draw(exact_endpoints(cuts))
        if a == b:
            b = a + draw(st.sampled_from([F(1, 3), 1, F(5)]))
        lo, hi = (a, b) if a < b else (b, a)
        if draw(st.integers(0, 5)) == 0:
            lo = NEG_INF
        if draw(st.integers(0, 5)) == 0:
            hi = POS_INF
        pairs.append((lo, hi))
        if draw(st.booleans()):  # an abutting neighbour
            if hi != POS_INF:
                pairs.append((hi, hi + 1))
            elif lo != NEG_INF:
                pairs.append((lo - 1, lo))
    return pairs


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_image_of_and_preimage_match_plain_loops(data):
    pam, cuts = data.draw(piecewise_maps())
    finite_cuts = [c for c in cuts if type(c) is not float] or [F(0)]
    pairs = reference_normalise(data.draw(pair_lists(finite_cuts)))
    sets = IntervalSet.from_pairs(pairs)
    assert exact_pairs(as_pairs(sets)) == exact_pairs(pairs)
    for partial in (True, False):
        try:
            want = reference_image(pam, pairs, partial)
        except UndefinedOnSet as exc:
            with pytest.raises(UndefinedOnSet) as got:
                image_of(pam, sets, partial=partial)
            assert str(got.value) == str(exc)
        else:
            got = image_of(pam, sets, partial=partial)
            assert exact_pairs(as_pairs(got)) == exact_pairs(want)
    got = preimage(pam, sets)
    assert exact_pairs(as_pairs(got)) == exact_pairs(reference_preimage(pam, pairs))


# Whole words on rows against the generic loops: eval_interval, word_preimage
# and eval_point step a word on integers and build endpoints or a value only
# for the result, and must return what image_of, preimage and the plain piece
# loop return step by step.


def common_box(maps):
    """An open interval inside some piece domain of every map, or None."""
    boxes = [p.domain for p in maps[0].effective_pieces]
    for pam in maps[1:]:
        boxes = [
            cut
            for box in boxes
            for p in pam.effective_pieces
            if (cut := box.intersect(p.domain)) is not None
        ]
    return boxes[0] if boxes else None


def stepwise(step, sets, symbols):
    for sym in symbols:
        if sets.is_empty:
            break
        sets = step(sym, sets)
    return sets


def outcome(call):
    try:
        got = call()
    except UndefinedOnSet as exc:
        return "raises", str(exc)
    return exact_pairs(as_pairs(got)), repr(got)


def reference_orbit(maps, word, x):
    """:func:`eval_point` as the plain piece loop, step by step."""
    value = x
    for step, sym in enumerate(word):
        nxt = reference_value(maps[sym], value)
        if nxt is None:
            raise UndefinedAtPoint(
                f"orbit undefined at step {step}: map {sym} has no piece at {value}"
            )
        value = nxt
    return value


def point_outcome(call):
    try:
        got = call()
    except UndefinedAtPoint as exc:
        return "raises", str(exc)
    return exact(got)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_words_on_rows_match_stepwise_images_and_preimages(data):
    drawn = [data.draw(piecewise_maps()) for _ in range(data.draw(st.integers(1, 3)))]
    maps = tuple(pam for pam, _ in drawn)
    box = common_box(maps)
    assume(box is not None)
    system = SwitchedSystem(maps=maps, language=FullShift(len(maps)), bounds=box)
    cuts = [c for _, cs in drawn for c in cs if type(c) is not float] or [F(0)]
    sets = IntervalSet.from_pairs(data.draw(pair_lists(cuts)))
    word = data.draw(st.lists(st.integers(0, len(maps) - 1), min_size=1, max_size=12))
    for partial in (True, False):
        want = outcome(
            lambda: stepwise(
                lambda sym, s: image_of(maps[sym], s, partial=partial), sets, word
            )
        )
        assert outcome(lambda: eval_interval(system, word, sets, partial=partial)) == want
    # A preimage end cut by a domain end is that end's value as a Fraction;
    # the generic loop keeps the domain end's own object, an int included.
    got = word_preimage(system, word, sets)
    assert got == stepwise(lambda sym, s: preimage(maps[sym], s), sets, word[::-1])
    assert fraction_ends(got)
    x = data.draw(exact_endpoints(cuts))  # a Fraction or an int, now and then a cut
    assert system._exact() is not None
    want = point_outcome(lambda: reference_orbit(maps, word, x))
    assert point_outcome(lambda: eval_point(system, word, x)) == want


def test_word_preimage_cuts_at_int_domain_ends_as_fractions():
    # Pulled back through INT_ENDPOINTS last, a wide target is cut by its
    # int domain ends, which the result holds as Fractions; pulled back
    # through it first, those ends are only values for the next step.
    tenth = PiecewiseAffineMap.globally(F(1, 10), F(0))
    system = SwitchedSystem(
        maps=(INT_ENDPOINTS, tenth), language=FullShift(2), bounds=Interval(F(1, 4), F(1, 2))
    )
    wide = IntervalSet.of(-5, 5)
    assert exact_pairs(as_pairs(word_preimage(system, (0, 1), wide))) == exact_pairs(
        [(F(0), F(1)), (F(1), F(2))]
    )
    assert exact_pairs(as_pairs(word_preimage(system, (1, 0), wide))) == exact_pairs(
        [(F(0), F(10)), (F(10), F(20))]
    )


# word_preimage and pull_back_hit on maps whose domain ends, and on sets whose
# ends, are ints, Fractions or floats: each end of a result is a Fraction or
# an infinity, at the value the generic preimage loop and the three-pass
# pull-back give on the exact values of every end.


def exact_end(x):
    """A finite float as its exact Fraction; any other end as it is."""
    return F(x) if type(x) is float and x not in (NEG_INF, POS_INF) else x


def exact_piecewise(pam: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """``pam`` with every domain end exact and its fallback gaps listed as
    pieces."""
    return PiecewiseAffineMap(
        tuple(
            AffinePiece(Interval(*map(exact_end, (p.domain.lo, p.domain.hi))), p.slope, p.offset)
            for p in pam.effective_pieces
        )
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_word_preimage_and_pull_back_hit_return_fractions(data):
    drawn = [data.draw(piecewise_maps(floats=True)) for _ in range(data.draw(st.integers(1, 2)))]
    maps = tuple(pam for pam, _ in drawn)
    box = common_box(maps)
    assume(box is not None)
    system = SwitchedSystem(maps=maps, language=FullShift(len(maps)), bounds=box)
    exact_maps = tuple(map(exact_piecewise, maps))
    cuts = [c for _, cs in drawn for c in cs if c not in (NEG_INF, POS_INF)] or [F(0)]
    pairs = data.draw(pair_lists(cuts))
    target = IntervalSet.from_pairs(pairs)
    source = IntervalSet.from_pairs(data.draw(pair_lists(cuts)))
    word = data.draw(st.lists(st.integers(0, len(maps) - 1), min_size=1, max_size=6))
    got = word_preimage(system, word, target)
    exact_target = IntervalSet.from_pairs([(exact_end(lo), exact_end(hi)) for lo, hi in pairs])
    want = stepwise(lambda sym, s: preimage(exact_maps[sym], s), exact_target, word[::-1])
    assert got == want and fraction_ends(got)
    hit = pull_back_hit(system, word, source, target)
    assert hit == reference_pull_back(system, word, source, target)
    assert hit is None or fraction_ends(hit)


def test_exact_form_is_built_once_per_system(monkeypatch):
    # Every integer path reads the system's one exact form: once it is built,
    # point orbits, word images and preimages, pull-backs, set and point
    # searches and envelope levels build no map's table again.
    system = SwitchedSystem(
        maps=(rotation(F(1, 3)), rotation(F(2, 7))),
        language=FullShift(2),
        bounds=Interval(F(0), F(1)),
        clamp=True,
    )
    calls = []
    ratio_table = core._ratio_table
    monkeypatch.setattr(
        core, "_ratio_table", lambda pam: calls.append(pam) or ratio_table(pam)
    )
    form = system._exact()
    assert calls == list(system.maps) and form.box == (0, 1, 1, 1)
    calls.clear()
    U, V = IntervalSet.of(F(1, 10), F(1, 5)), IntervalSet.of(F(3, 10), F(2, 5))
    word = (0, 0, 1, 1)  # rotates by 2/3 + 4/7 = 5/21 mod 1
    assert eval_point(system, word, F(1, 7)) == F(8, 21)
    assert eval_interval(system, word, U) == IntervalSet.of(F(71, 210), F(92, 210))
    assert word_preimage(system, word, V) == IntervalSet.of(F(13, 210), F(34, 210))
    assert pull_back_hit(system, word, U, V) is not None
    clock = SearchClock(SearchBudget())
    assert word in [syms for syms, _ in iter_set_hits(system, [U], [V], 4, clock)]
    assert list(iter_point_hits(system, [(F(1, 7),)], [(F(1, 2),)], [F(1, 2)], 2, clock))
    assert distance_envelope(system, F(1, 7), F(2, 9), horizon=3).rows
    assert calls == [] and system._exact() is form


# Rational mode reads a float at its exact binary value, wherever it enters:
# a map's coefficients and domain ends, the box, min_overlap, the sets and
# the points.  Each result on floats therefore equals the result on the
# floats' Fraction values.  Decimals k/1000 are mostly not dyadic, so their
# floats are not the decimals.
def decimals(lo, hi):
    return st.integers(lo, hi).map(lambda k: k / 1000)


@st.composite
def float_systems(draw):
    def piece_map():
        slope = draw(st.integers(-25, 25).filter(bool)) / 10
        offset = draw(decimals(-1000, 1000))
        if draw(st.booleans()):
            return PiecewiseAffineMap.globally(slope, offset)
        cut = draw(decimals(1, 999))
        left = AffinePiece(Interval(NEG_INF, cut), slope, offset)
        right = draw(st.integers(-25, 25).filter(bool)) / 10, draw(decimals(-1000, 1000))
        return PiecewiseAffineMap(pieces=(left,), fallback=right)

    m = draw(st.integers(1, 2))
    return SwitchedSystem(
        maps=tuple(piece_map() for _ in range(m)),
        language=FullShift(m),
        bounds=Interval(draw(decimals(-100, 0)), draw(decimals(900, 1100))),
        clamp=draw(st.booleans()),
        numerics=Numerics(min_overlap=draw(st.sampled_from([0, 0.001]))),
    )


def exact_twin(system):
    """``system`` with every float replaced by its Fraction value."""
    ex = exact_end
    maps = tuple(
        PiecewiseAffineMap(
            pieces=tuple(
                AffinePiece(Interval(ex(p.domain.lo), ex(p.domain.hi)), ex(p.slope), ex(p.offset))
                for p in pam.pieces
            ),
            fallback=tuple(map(ex, pam.fallback)),
        )
        for pam in system.maps
    )
    box = Interval(ex(system.bounds.lo), ex(system.bounds.hi))
    numerics = Numerics(min_overlap=ex(system.numerics.min_overlap))
    return SwitchedSystem(maps, system.language, box, system.clamp, numerics), ex


def same(call, twin):
    def run(f):
        try:
            return f()
        except (UndefinedOnSet, UndefinedAtPoint) as exc:
            return type(exc)

    got = run(call)
    assert got == run(twin)
    return got


@settings(max_examples=150, deadline=None)
@given(float_systems(), st.data())
def test_rational_mode_reads_floats_at_their_exact_value(system, data):
    twin, ex = exact_twin(system)
    assert system._exact() is not None
    assert system._exact().tables == twin._exact().tables

    def two_values():
        return data.draw(st.lists(decimals(-200, 1200), min_size=2, max_size=2, unique=True))

    def set_pair():
        lo, hi = sorted(two_values())
        return IntervalSet.of(lo, hi), IntervalSet.of(ex(lo), ex(hi))

    (U, Ue), (V, Ve) = set_pair(), set_pair()
    x, y = two_values()
    word = tuple(data.draw(st.lists(st.integers(0, system.m - 1), min_size=1, max_size=4)))
    for partial in (True, False):
        same(
            lambda: eval_interval(system, word, U, partial),
            lambda: eval_interval(twin, word, Ue, partial),
        )
    same(lambda: word_preimage(system, word, V), lambda: word_preimage(twin, word, Ve))
    same(lambda: pull_back_hit(system, word, U, V), lambda: pull_back_hit(twin, word, Ue, Ve))
    value = same(lambda: eval_point(system, word, x), lambda: eval_point(twin, word, ex(x)))
    assert value is UndefinedAtPoint or type(value) is F
    budget = SearchBudget(max_horizon=3, max_words=3000)
    assert hitting_sets(system, U, V, budget) == hitting_sets(twin, Ue, Ve, budget)
    hits = [
        first_set_hit(s, [u], [v], range(1, 4), SearchClock(budget))
        for s, u, v in ((system, U, V), (twin, Ue, Ve))
    ]
    assert hits[0] == hits[1]
    for kind in ("type1", "type2"):
        env = distance_envelope(system, x, y, kind, horizon=3, budget=budget)
        assert env == distance_envelope(twin, ex(x), ex(y), kind, horizon=3, budget=budget)
        assert all(type(r.d_min) is F and type(r.d_max) is F for r in env.rows)
    tolerances = (0.5, 0.125, 0.01)
    wit = xiong_witness(system, (x,), (y,), "type2", tolerances, budget)
    assert wit == xiong_witness(twin, (ex(x),), (ex(y),), "type2", tolerances, budget)
    assert all(type(e) is F for stage in wit.stages for e in stage.errors)


def test_eval_point_at_a_non_finite_float_is_undefined():
    clamped = tent_system(clamp=True)
    for x in (POS_INF, NEG_INF, float("nan")):
        with pytest.raises(UndefinedAtPoint):
            eval_point(clamped, (0,), x)
        stage = XiongStage(F(1, 2), 1, (Word((0,)),), (F(0),))
        witness = XiongWitness("type2", (x,), (F(1, 2),), (stage,), True)
        assert verify_xiong(clamped, witness) is False


def test_itinerary_follows_the_exact_orbit_of_a_float():
    # f(x) = 3x - 1000000.1 on JSON-like floats: the float image of x is
    # the cut point c, but the exact image lies below it, so in rational
    # mode the second symbol is the lower cell's 0, as on Fraction values.
    def system(offset):
        f = PiecewiseAffineMap.globally(3, offset)
        return SwitchedSystem(maps=(f, f), language=FullShift(2), bounds=Interval(0, 1))

    x = 333333.40655288595
    c = 3 * x - 1000000.1
    assert F(3) * F(x) - F(1000000.1) < c
    partition = [(IntervalSet.of(c, POS_INF), 1), (IntervalSet.of(NEG_INF, c), 0)]
    want = Word.from_string("10")
    assert itinerary_word(system(-1000000.1), partition, x, 2) == want
    assert itinerary_word(system(F(-1000000.1)), partition, F(x), 2) == want
