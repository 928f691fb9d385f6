"""Switching languages: compilation, counting, enumeration, prefix closure."""

import random
from itertools import product

import pytest

from swmix.errors import EmptyLanguage
from swmix.language import (
    Dfa,
    ForbiddenWords,
    FullShift,
    accepts_prefix,
    compile_language,
    count_words,
    enumerate_words,
)

GOLDEN = ForbiddenWords(2, ((1, 1),))


def test_full_shift_counts():
    aut = compile_language(FullShift(2))
    for n in range(1, 21):
        assert count_words(aut, n) == 2 ** n


def test_golden_mean_counts_are_fibonacci():
    aut = compile_language(GOLDEN)
    assert [count_words(aut, n) for n in range(1, 6)] == [2, 3, 5, 8, 13]
    a, b = 2, 3
    for n in range(3, 21):
        a, b = b, a + b
        assert count_words(aut, n) == b


def test_golden_mean_enumeration_frozen():
    aut = compile_language(GOLDEN)
    assert [w.as_string() for w in enumerate_words(aut, 3)] == [
        "000",
        "001",
        "010",
        "100",
        "101",
    ]


def test_dfa_spec_matches_forbidden_factor():
    # Explicit two-state automaton for "no factor 11".
    dfa = Dfa(m=2, num_states=2, start=0, transitions=((0, 0, 0), (0, 1, 1), (1, 0, 0)))
    aut = compile_language(dfa)
    ref = compile_language(GOLDEN)
    for n in range(1, 13):
        assert count_words(aut, n) == count_words(ref, n)


def test_enumeration_cardinality_matches_transfer_count():
    rng = random.Random(23)
    specs = [FullShift(2), FullShift(3), GOLDEN]
    for _ in range(5):
        m = rng.randrange(2, 4)
        factor = tuple(rng.randrange(m) for _ in range(2))
        specs.append(ForbiddenWords(m, (factor,)))
    for spec in specs:
        aut = compile_language(spec)
        for n in range(1, 13):
            assert sum(1 for _ in enumerate_words(aut, n)) == count_words(aut, n)


def test_enumeration_matches_brute_force_filter():
    aut = compile_language(GOLDEN)
    for n in range(1, 7):
        expected = [
            syms
            for syms in product(range(2), repeat=n)
            if all(syms[i : i + 2] != (1, 1) for i in range(n - 1))
        ]
        assert [tuple(w) for w in enumerate_words(aut, n)] == expected


def test_enumeration_is_prefix_closed():
    aut = compile_language(GOLDEN)
    for w in enumerate_words(aut, 8):
        for n in range(1, len(w) + 1):
            assert accepts_prefix(aut, w.prefix(n))
    assert not accepts_prefix(aut, (1, 1))


def test_empty_language_rejected():
    with pytest.raises(EmptyLanguage):
        compile_language(ForbiddenWords(2, ((0,), (1,))))


def test_stranded_symbol_is_pruned():
    # Forbidding both successors of 1 strands every word through 1, so 1 is
    # never the prefix of an infinite sequence and only plain zeros remain.
    aut = compile_language(ForbiddenWords(2, ((1, 0), (1, 1))))
    assert [count_words(aut, n) for n in range(1, 4)] == [1, 1, 1]
    assert not accepts_prefix(aut, (1,))


def test_validation():
    with pytest.raises(ValueError):
        compile_language(FullShift(0))
    with pytest.raises(ValueError):
        compile_language(ForbiddenWords(2, ((2, 0),)))
