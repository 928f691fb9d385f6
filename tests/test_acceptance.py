"""End-to-end acceptance gate.

One test per advertised guarantee, each with its own wall-clock cap; the
assertions freeze the behaviour the README promises.
"""

import random
import time
from fractions import Fraction as F

from swmix.chaos import verify_xiong
from swmix.core import image_of
from swmix.demo import (
    DEFAULT_SEED,
    itinerary_check,
    random_open_subinterval,
    slope_law_check,
    tent_system,
    wm_batch,
)
from swmix.geometry import CompactRep, hausdorff_distance
from swmix.hitting import (
    extend_witness,
    hitting_sets,
    maps_commute,
    order_reduction,
    pull_back_hit,
)
from swmix.intervals import IntervalSet
from swmix.language import (
    ForbiddenWords,
    FullShift,
    compile_language,
    count_words,
    enumerate_words,
)
from swmix.search import SearchBudget, SearchClock, first_set_hit
from swmix.spread import (
    QNet,
    SpreadRow,
    build_qnet,
    certify_spread,
    chain_certify,
    verify_certificate,
    xiong_from_chain,
)
from swmix.words import Word

from helpers import UNIT, random_system, rotation_system


def elapsed_under(t0: float, cap: float) -> float:
    dt = time.perf_counter() - t0
    assert dt < cap, f"exceeded {cap}s wall-clock cap: {dt:.2f}s"
    return dt


def test_criterion_1_itinerary_identity():
    t0 = time.perf_counter()
    result = itinerary_check(samples=1000, steps=20, seed=DEFAULT_SEED)
    assert result["mismatches"] == 0 and result["ok"]
    dt = elapsed_under(t0, 5.0)
    print(f"criterion 1 PASS: 1000 itineraries x 20 steps exact ({dt:.2f}s)")


def exhaustive_type1(system, U, V, horizon):
    """Pruning-free oracle: evaluate every admissible word in full."""
    hits = []
    for n in range(1, horizon + 1):
        for w in enumerate_words(system.automaton, n):
            img = U
            for sym in w:
                img = image_of(system.maps[sym], img, partial=True)
                if img.is_empty or (system.clamp and not system.inside_kill_box(img)):
                    img = None
                    break
            if img is not None and img.intersects(V):
                hits.append(n)
                break
    return tuple(hits)


def test_criterion_2_search_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    checked = 0
    for _ in range(100):
        system = random_system(rng, max_alphabet=3)
        horizon = rng.randrange(4, 9) if system.m <= 2 else rng.randrange(3, 7)
        U = random_open_subinterval(rng)
        V = random_open_subinterval(rng)
        report = hitting_sets(
            system, U, V, budget=SearchBudget(max_horizon=horizon, required=1)
        )
        assert report.exhausted
        assert report.type1 == exhaustive_type1(system, U, V, horizon)
        checked += 1
    # Frozen window on the clamped tent: the first hit appears exactly at 4.
    tent = tent_system(clamp=True)
    report = hitting_sets(
        tent,
        IntervalSet.of(F(0), F(1, 10)),
        IntervalSet.of(F(9, 10), F(1)),
        budget=SearchBudget(max_horizon=4),
    )
    assert report.type1 == (4,)
    dt = elapsed_under(t0, 30.0)
    print(f"criterion 2 PASS: {checked} random systems match the oracle ({dt:.2f}s)")


def test_criterion_3_language_counting():
    t0 = time.perf_counter()
    full = compile_language(FullShift(2))
    for n in range(1, 21):
        assert count_words(full, n) == 2 ** n
    golden = compile_language(ForbiddenWords(2, ((1, 1),)))
    counts = [count_words(golden, n) for n in range(1, 21)]
    assert counts[:5] == [2, 3, 5, 8, 13]
    assert all(counts[i] == counts[i - 1] + counts[i - 2] for i in range(2, 20))
    rng = random.Random(DEFAULT_SEED + 3)
    specs = [full, golden]
    for _ in range(3):
        m = rng.randrange(2, 4)
        specs.append(
            compile_language(ForbiddenWords(m, (tuple(rng.randrange(m) for _ in range(2)),)))
        )
    for aut in specs:
        for n in range(1, 13):
            assert sum(1 for _ in enumerate_words(aut, n)) == count_words(aut, n)
    dt = elapsed_under(t0, 5.0)
    print(f"criterion 3 PASS: transfer counts match enumeration ({dt:.2f}s)")


def test_criterion_4_weak_mixing_batch():
    t0 = time.perf_counter()
    result = wm_batch(trials=50, horizon=25, seed=DEFAULT_SEED + 1)
    assert result["found"] == 50
    assert result["verified"] == 50
    assert result["failed_trials"] == []
    dt = elapsed_under(t0, 60.0)
    print(f"criterion 4 PASS: 50/50 order-2 certificates verified ({dt:.2f}s)")


def _refined_pair_trial(rng, system, s_horizon, hit_horizon):
    """One seeded quadruple: transfer word, reduction, and common-hit check.

    Returns a reduced-pair witness word, or None when the sampled quadruple
    admits no transfer word (the caller resamples).
    """
    U1, V1 = random_open_subinterval(rng), random_open_subinterval(rng)
    U2, V2 = random_open_subinterval(rng), random_open_subinterval(rng)
    clock = SearchClock(SearchBudget(max_horizon=s_horizon, max_words=200_000))
    hit = first_set_hit(system, [U1, V1], [U2, V2], range(1, s_horizon + 1), clock)
    if hit is None:
        return None
    Ur, Vr = order_reduction(system, U1, U2, V1, V2, Word(hit[0]))
    report = hitting_sets(
        system, Ur, Vr, budget=SearchBudget(max_horizon=hit_horizon, required=2)
    )
    if not report.witnesses:
        return None
    for wit in report.witnesses:
        assert pull_back_hit(system, wit.word, U1, V1) is not None
        assert pull_back_hit(system, wit.word, U2, V2) is not None
    return report.witnesses[0].word


def test_criterion_5_order_reduction_families():
    t0 = time.perf_counter()
    single = rotation_system(F(5, 21))
    pair = rotation_system(F(1, 3), F(2, 7))
    assert maps_commute(single) and maps_commute(pair)
    rng = random.Random(DEFAULT_SEED + 5)
    done = 0
    sample_word = None
    for system, s_horizon, hit_horizon in ((single, 25, 25), (pair, 8, 8)):
        trials = attempts = 0
        while trials < 100:
            attempts += 1
            assert attempts < 2000, "resampling should terminate quickly"
            word = _refined_pair_trial(rng, system, s_horizon, hit_horizon)
            if word is None:
                continue  # no transfer word for this quadruple; resample
            trials += 1
            done += 1
            sample_word = (system, word)
    system, word = sample_word
    U = random_open_subinterval(random.Random(DEFAULT_SEED + 6))
    V = random_open_subinterval(random.Random(DEFAULT_SEED + 7))
    # Anchor the extension chain on a fresh verified hit of the pair family.
    clock = SearchClock(SearchBudget(max_horizon=25, max_words=200_000))
    base = first_set_hit(system, [U], [V], range(1, 26), clock)
    assert base is not None
    lengths = [len(base[0])]
    cur = Word(base[0])
    for _ in range(5):
        cur = extend_witness(system, U, V, cur, budget=SearchBudget(max_horizon=30))
        lengths.append(len(cur))
        assert pull_back_hit(system, cur, U, V) is not None
    assert all(b > a for a, b in zip(lengths, lengths[1:]))
    dt = elapsed_under(t0, 30.0)
    print(f"criterion 5 PASS: {done} refined-pair trials, extension chain {lengths} ({dt:.2f}s)")


def test_criterion_6_spread_certificate():
    t0 = time.perf_counter()
    tent = tent_system()
    seeds = (IntervalSet.of(F(1, 4), F(3, 4)), IntervalSet.of(F(3, 8), F(5, 8)))
    net = QNet(radius=F(1, 2), centers=(F(2, 5), F(7, 15), F(8, 15), F(3, 5)))
    cert = certify_spread(tent, seeds, UNIT, F(1, 5), net)
    assert len(cert.rows) == 4 ** 2 == 16
    assert verify_certificate(tent, cert)
    # Truncating any row's word below the length law must break verification.
    rng = random.Random(DEFAULT_SEED + 8)
    import dataclasses

    idx = rng.randrange(16)
    rows = list(cert.rows)
    rows[idx] = SpreadRow(alpha=rows[idx].alpha, word=rows[idx].word.prefix(len(rows[idx].word) - 1))
    assert not verify_certificate(tent, dataclasses.replace(cert, rows=tuple(rows)))
    dt = elapsed_under(t0, 60.0)
    print(f"criterion 6 PASS: 16-row table verified, truncation refused ({dt:.2f}s)")


def test_criterion_7_spread_chain():
    t0 = time.perf_counter()
    tent = tent_system()
    chain = chain_certify(
        tent, (IntervalSet.of(F(1, 3), F(2, 3)),), UNIT, UNIT,
        (F(1, 2), F(1, 3), F(1, 4)),
        budget=SearchBudget(max_horizon=16, max_words=5_000_000),
    )
    lens = [c.max_word_length() for c in chain.stages]
    assert all(b > a for a, b in zip(lens, lens[1:]))
    for cert in chain.stages:
        assert verify_certificate(tent, cert)
    probe = chain.stages[-1].centers[0]
    wit = xiong_from_chain(tent, chain, (probe,), (F(1, 2),))
    tols = [st.tolerance for st in wit.stages]
    assert tols == [F(1, 2), F(11, 24), F(1, 4)]
    assert all(b <= a for a, b in zip(tols, tols[1:]))  # constant target h = 1/2
    assert verify_xiong(tent, wit)
    for st in wit.stages:
        assert all(e < st.tolerance for e in st.errors)
    dt = elapsed_under(t0, 60.0)
    print(f"criterion 7 PASS: 3-stage chain, bounds {tols} non-increasing ({dt:.2f}s)")


def _random_compact(rng):
    comps = []
    for _ in range(rng.randrange(1, 4)):
        lo = F(rng.randrange(0, 256), 256)
        hi = lo + F(rng.randrange(0, 64), 256)
        comps.append((lo, hi))
    return CompactRep(tuple(comps))


def test_criterion_8_hausdorff_metric_axioms():
    t0 = time.perf_counter()
    rng = random.Random(DEFAULT_SEED + 9)
    for _ in range(1000):
        a, b, c = (_random_compact(rng) for _ in range(3))
        dab = hausdorff_distance(a, b)
        assert dab == hausdorff_distance(b, a)
        assert hausdorff_distance(a, a) == 0
        assert hausdorff_distance(a, c) <= dab + hausdorff_distance(b, c)
    dt = elapsed_under(t0, 5.0)
    print(f"criterion 8 PASS: 1000 triples satisfy the metric axioms exactly ({dt:.2f}s)")


def test_criterion_9_shared_word_envelope_law():
    t0 = time.perf_counter()
    result = slope_law_check(pairs=100, horizon=20, seed=DEFAULT_SEED + 2)
    assert result["slope_law_violations"] == 0
    assert result["refuted"] == 100
    dt = elapsed_under(t0, 10.0)
    print(f"criterion 9 PASS: 100 envelopes equal 2^i * d exactly to depth 20 ({dt:.2f}s)")
