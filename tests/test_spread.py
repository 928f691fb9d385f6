"""Spread tables: net construction, certification, chains, and staged reads."""

import dataclasses
import math
from fractions import Fraction as F
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swmix import spread
from swmix.chaos import verify_xiong
from swmix.demo import tent_system
from swmix.errors import BudgetExceeded, InadmissibleSeeds, NotCovered
from swmix.geometry import CompactRep
from swmix.intervals import Interval, IntervalSet
from swmix.language import ForbiddenWords
from swmix.search import SearchBudget, SearchClock
from swmix.spread import (
    QNet,
    SpreadRow,
    ball,
    build_qnet,
    certify_spread,
    chain_certify,
    restrict_certificate,
    verify_certificate,
    xiong_from_chain,
)

from helpers import (
    UNIT,
    reference_dyadic_below,
    reference_first_set_hit,
    rotation_system,
    sweep_systems,
)

TENT = tent_system()
SEEDS = (IntervalSet.of(F(1, 4), F(3, 4)), IntervalSet.of(F(3, 8), F(5, 8)))
NET = QNet(radius=F(1, 2), centers=(F(2, 5), F(7, 15), F(8, 15), F(3, 5)))


def test_ball_and_cell_of():
    assert ball(F(1, 2), F(1, 4)) == IntervalSet.of(F(1, 4), F(3, 4))
    net = QNet(radius=F(1, 6), centers=(F(1, 8), F(3, 8), F(5, 8), F(7, 8)))
    assert net.ball(1) == IntervalSet.of(F(3, 8) - F(1, 6), F(3, 8) + F(1, 6))
    # Nearest center, lowest index on ties: 1/2 is equidistant from 3/8 and 5/8.
    assert net.cell_of(F(1, 2)) == 1
    assert net.cell_of(F(9, 10)) == 3


def test_build_qnet_frozen():
    assert build_qnet(UNIT, F(1, 2)).centers == (F(1, 4), F(3, 4))
    assert build_qnet(UNIT, F(26, 100)).centers == (F(1, 4), F(3, 4))
    assert build_qnet(UNIT, F(1, 6)).centers == (F(1, 8), F(3, 8), F(5, 8), F(7, 8))
    two = IntervalSet(components=(Interval(F(0), F(1, 4)), Interval(F(3, 4), F(1))))
    assert build_qnet(two, F(1, 8)).centers == (
        F(1, 16), F(3, 16), F(13, 16), F(15, 16),
    )
    # A degenerate target still gets one covering ball.
    assert build_qnet(CompactRep(((F(1, 2), F(1, 2)),)), F(1, 10)).centers == (F(1, 2),)


def test_certify_spread_frozen_table():
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    assert len(cert.rows) == 16
    assert cert.delta == F(1, 2048)
    assert 0 < cert.delta < cert.eps
    # The net is tight enough that one word serves every assignment.
    assert {r.word.as_string() for r in cert.rows} == {"010010"}
    assert all(len(r.word) > 5 for r in cert.rows)  # length law: 1/len < eps
    assert verify_certificate(TENT, cert)


def test_certificate_row_lookup():
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    row = cert.row_for((2, 3))
    assert row.alpha == (2, 3)
    assert cert.max_word_length() == 6


def test_verify_rejects_truncated_row():
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    rows = list(cert.rows)
    rows[3] = SpreadRow(alpha=rows[3].alpha, word=rows[3].word.prefix(5))
    assert not verify_certificate(TENT, dataclasses.replace(cert, rows=tuple(rows)))


def test_verify_rejects_fat_delta():
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    assert not verify_certificate(TENT, dataclasses.replace(cert, delta=F(1, 5)))


def test_verify_rejects_incomplete_table():
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    assert not verify_certificate(TENT, dataclasses.replace(cert, rows=cert.rows[:15]))


def test_verify_fails_a_certificate_without_centers():
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    # Zero centers need m**0 = 1 row, with the empty assignment.
    bare = dataclasses.replace(
        cert, centers=(), rows=(SpreadRow(alpha=(), word=cert.rows[0].word),)
    )
    assert not verify_certificate(TENT, bare)


def test_certify_spread_on_a_family_that_does_not_expand():
    # Rotations have slope 1, so candidates search up to the budget's horizon.
    rotations = rotation_system(F(1, 3), F(2, 7))
    eps = F(1, 2)
    net = build_qnet(UNIT, eps / 2)
    seeds = (IntervalSet.of(F(1, 3), F(2, 3)),)
    cert = certify_spread(rotations, seeds, UNIT, eps, net)
    assert cert.centers == (F(19, 54),)
    assert cert.delta == F(1, 64)
    assert len(cert.rows) == 3
    assert verify_certificate(rotations, cert)


def test_certify_spread_on_disjoint_seeds_names_the_assignment():
    # Disjoint seeds share no region, so the candidates are their midpoints.
    seeds = (IntervalSet.of(F(1, 10), F(3, 10)), IntervalSet.of(F(3, 5), F(4, 5)))
    with pytest.raises(BudgetExceeded, match=r"no word realizes assignment \(0, 3\)"):
        certify_spread(TENT, seeds, UNIT, F(1, 3), build_qnet(UNIT, F(1, 6)))


def test_restrict_certificate_is_hereditary():
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    sub = restrict_certificate(cert, [0])
    assert len(sub.rows) == 4
    assert sub.centers == (cert.centers[0],)
    assert verify_certificate(TENT, sub)


def test_certify_spread_budget_failure_names_assignment():
    # A spanning net on the same seeds admits no filled table: the doubling
    # family phase-locks the extreme assignments.
    span = build_qnet(UNIT, F(1, 6))
    with pytest.raises(BudgetExceeded, match=r"assignment \(0, 3\)"):
        certify_spread(
            TENT, SEEDS, UNIT, F(1, 5), span,
            budget=SearchBudget(max_horizon=10, max_words=20_000),
        )


def test_certify_spread_validation():
    with pytest.raises(InadmissibleSeeds, match="seed 0 misses K"):
        certify_spread(TENT, (IntervalSet.of(F(2), F(3)),), UNIT, F(1, 5), NET)
    with pytest.raises(ValueError):
        certify_spread(TENT, SEEDS, UNIT, F(0), NET)
    with pytest.raises(ValueError):
        certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET, max_table=8)


def test_chain_certify_refuses_an_oversized_net_before_building_it(monkeypatch):
    # eps = 1/10**12 asks for a net of 10**12 + 1 centers; its table for two
    # seeds is refused from the count, before any center is built.
    monkeypatch.setattr(spread, "build_qnet", lambda *args: pytest.fail("the net was built"))
    tiny = F(1, 10**12)
    with pytest.raises(ValueError, match=r"table of 1000000000001\*\*2 rows exceeds the cap 4096"):
        chain_certify(TENT, SEEDS, UNIT, UNIT, (tiny,))
    # 1/1e-310 overflows to inf, which floor() cannot turn into a count.
    with pytest.raises(ValueError, match="net radius 5e-311 is too small"):
        chain_certify(TENT, SEEDS, UNIT, UNIT, (1e-310,))
    with pytest.raises(ValueError, match="eps 1e-310 is too small"):
        certify_spread(TENT, SEEDS, UNIT, 1e-310, NET)


def test_chain_certify_frozen():
    chain = chain_certify(
        TENT, (IntervalSet.of(F(1, 3), F(2, 3)),), UNIT, UNIT,
        (F(1, 2), F(1, 3), F(1, 4)),
        budget=SearchBudget(max_horizon=16, max_words=5_000_000),
    )
    certs = chain.stages
    assert [c.eps for c in certs] == [F(1, 2), F(1, 3), F(1, 4)]
    assert [c.delta for c in certs] == [F(1, 64), F(1, 2048), F(1, 16384)]
    assert [len(c.net.centers) for c in certs] == [3, 4, 5]
    # Stage word lengths strictly increase across the chain.
    lens = [c.max_word_length() for c in certs]
    assert lens == sorted(set(lens)) == [4, 6, 10]
    for c in certs:
        assert verify_certificate(TENT, c)
    # Later-stage centers stay inside the previous stage's delta balls.
    for prev, nxt in zip(certs, certs[1:]):
        for z in nxt.centers:
            assert any(abs(z - p) < prev.delta for p in prev.centers)


def test_xiong_from_chain_frozen():
    chain = chain_certify(
        TENT, (IntervalSet.of(F(1, 3), F(2, 3)),), UNIT, UNIT,
        (F(1, 2), F(1, 3), F(1, 4)),
        budget=SearchBudget(max_horizon=16, max_words=5_000_000),
    )
    probe = chain.stages[-1].centers[0]
    assert probe == F(9335, 27648)
    wit = xiong_from_chain(TENT, chain, (probe,), (F(1, 2),))
    assert wit.complete and wit.kind == "type2"
    tols = [st.tolerance for st in wit.stages]
    assert tols == [F(1, 2), F(11, 24), F(1, 4)]
    assert all(b <= a for a, b in zip(tols, tols[1:]))  # non-increasing bounds
    assert [len(st.words[0]) for st in wit.stages] == [3, 6, 8]
    for st in wit.stages:
        assert all(e < st.tolerance for e in st.errors)
    assert verify_xiong(TENT, wit)


def test_xiong_from_chain_requires_covered_points():
    chain = chain_certify(
        TENT, (IntervalSet.of(F(1, 3), F(2, 3)),), UNIT, UNIT, (F(1, 2),),
        budget=SearchBudget(max_horizon=16, max_words=5_000_000),
    )
    with pytest.raises(NotCovered):
        xiong_from_chain(TENT, chain, (F(99, 100),), (F(1, 2),))


def test_verify_certificate_rejects_inadmissible_words():
    cert = certify_spread(TENT, SEEDS, UNIT, F(1, 5), NET)
    assert verify_certificate(TENT, cert)
    # Every row word is 010010, which contains the forbidden factor 1 0.
    no_10 = dataclasses.replace(TENT, language=ForbiddenWords(2, ((1, 0),)))
    assert not verify_certificate(no_10, cert)


# The rows of one candidate are read off one level sweep.  Each must be the
# least word over k0..horizon that the per-row depth-first walk
# (helpers.reference_first_set_hit) finds from the candidate's start balls
# into the row's balls, and a table that no candidate fills must name the
# first row, in probe-then-table order, that the last failed candidate left
# unrealized.  Rational and float mode, random maps, automata and nets.

SEED_ENDS = st.fractions(min_value=0, max_value=1, max_denominator=12)
SEED_SETS = st.tuples(SEED_ENDS, SEED_ENDS).filter(lambda p: p[0] != p[1]).map(
    lambda p: IntervalSet.of(min(p), max(p))
)


@settings(max_examples=150, deadline=None)
@given(
    sweep_systems(),
    st.lists(SEED_SETS, min_size=1, max_size=2),
    SEED_SETS,
    st.sampled_from([F(3, 2), F(1), F(1, 2), F(1, 3)]),
    st.sampled_from([F(1, 2), F(1, 3), F(1, 4)]),
    st.integers(1, 5),
    st.integers(1, 3),
)
def test_spread_rows_are_the_least_words_of_the_per_row_search(
    system, seeds, region, eps, radius, horizon, min_len
):
    net = build_qnet(region, radius)
    candidates, clocks = [], []
    real_candidates = spread._center_candidates

    def recorded(*args):
        for candidate in real_candidates(*args):
            candidates.append(candidate)
            yield candidate

    def clock(budget):
        clocks.append(SearchClock(budget))
        return clocks[-1]

    budget = SearchBudget(max_horizon=horizon)
    with mock.patch.object(spread, "_center_candidates", recorded), mock.patch.object(
        spread, "SearchClock", clock
    ):
        try:
            got = certify_spread(system, seeds, UNIT, eps, net, budget, min_word_len=min_len)
        except BudgetExceeded as exc:
            got = str(exc)
    assert not clocks[0].exceeded
    k0 = max(int(1 / eps) + 1, min_len)
    m, n = len(net.centers), len(seeds)
    probes = [tuple((0, m - 1)[(i + p) % 2] for i in range(n)) for p in (0, 1)]
    order = list(dict.fromkeys(probes + list(product(range(m), repeat=n))))

    def rows(candidate):
        """(alpha, least word or None) of each row in order, up to the
        first unrealized one."""
        centers, delta0, hi = candidate
        sources = [ball(z, delta0) for z in centers]
        for alpha in order:
            balls = [net.ball(a, eps) for a in alpha]
            hit = reference_first_set_hit(system, sources, balls, range(k0, hi + 1), inside=True)
            yield alpha, hit and hit[0]
            if hit is None:
                return

    if not isinstance(got, str):
        last = dict(rows(candidates[-1]))
        assert {row.alpha: row.word.symbols for row in got.rows} == last
        return
    for candidate in reversed(candidates):
        alpha, word = list(rows(candidate))[-1]
        if word is None:
            assert got == f"no word realizes assignment {alpha}"
            return
    assert got.startswith("length law needs words of length")


# spread._dyadic_below in closed form against the halving loop it replaced
# (helpers.reference_dyadic_below): the same value and type over positive
# Fractions and floats, subnormal floats, exact powers of two (where "below
# eps" is strict and "at most bound" is not) and infinite limits.

POSITIVE = st.one_of(
    st.fractions(min_value=F(1, 10**30), max_value=10**6, max_denominator=10**30),
    st.floats(min_value=0, exclude_min=True, allow_subnormal=True, allow_infinity=True),
    st.floats(min_value=0, max_value=2.0**-1022, exclude_min=True, allow_subnormal=True),
    st.integers(-1100, 40).map(lambda k: F(2) ** k),
    st.integers(-1074, 40).map(lambda k: math.ldexp(1.0, k)),
    st.integers(1, 10),
)


@settings(max_examples=500, deadline=None)
@given(POSITIVE, POSITIVE)
def test_dyadic_below_matches_the_halving_loop(bound, eps):
    got, want = spread._dyadic_below(bound, eps), reference_dyadic_below(bound, eps)
    assert (got, type(got)) == (want, type(want))


@pytest.mark.parametrize("bound", [0, 0.0, -0.0, F(-1, 2), -math.inf, math.nan])
def test_dyadic_below_refuses_a_bound_that_is_not_positive(bound):
    # The halving loop never ends on these.
    with pytest.raises(ValueError, match="must be positive"):
        spread._dyadic_below(bound, F(1, 10))
    with pytest.raises(ValueError, match="must be positive"):
        spread._dyadic_below(F(1, 10), bound)
