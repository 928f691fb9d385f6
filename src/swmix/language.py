"""Switching languages and their pruned automata.

A switching constraint is given in one of three forms over the alphabet
``{0, .., m-1}``:

* ``FullShift(m)`` -- every sequence is admissible;
* ``ForbiddenWords(m, words)`` -- sequences avoiding a finite list of factors;
* ``Dfa(m, ...)`` -- infinite labelled paths of an explicit partial automaton.

The admissible finite words are the prefixes of admissible *infinite*
sequences.  :func:`compile_language` therefore prunes every state that has no
outgoing transition into the surviving set; once the fixpoint is reached,
every remaining state carries an infinite path, so a word is admissible
exactly when it can be read from the start state.  An empty surviving set
raises :class:`~swmix.errors.EmptyLanguage`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar, Union

from .errors import EmptyLanguage
from .words import Word

MAX_ALPHABET = 64

_T = TypeVar("_T")


@dataclass(frozen=True)
class FullShift:
    m: int


@dataclass(frozen=True)
class ForbiddenWords:
    m: int
    words: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Dfa:
    """Explicit partial deterministic automaton.

    ``transitions`` maps ``(state, symbol)`` pairs to successor states; pairs
    that are absent are dead ends.
    """

    m: int
    num_states: int
    start: int
    transitions: tuple[tuple[int, int, int], ...]  # (state, symbol, next)


LanguageSpec = Union[FullShift, ForbiddenWords, Dfa]


@dataclass(frozen=True)
class PrunedAutomaton:
    """Deterministic automaton whose every state admits an infinite path.

    ``transitions[state][symbol]`` is the successor index or -1.
    """

    m: int
    num_states: int
    start: int
    transitions: tuple[tuple[int, ...], ...]

    def step(self, state: int, symbol: int) -> int:
        if not 0 <= symbol < self.m:
            return -1
        return self.transitions[state][symbol]


def _validate_alphabet(m: int) -> None:
    if not 1 <= m <= MAX_ALPHABET:
        raise ValueError(f"alphabet size must be in 1..{MAX_ALPHABET}, got {m}")


def _forbidden_automaton(spec: ForbiddenWords) -> tuple[int, list[list[int]]]:
    """Aho-Corasick style factor tracker with forbidden-suffix states removed."""
    m = spec.m
    for w in spec.words:
        if not w:
            raise ValueError("forbidden words must be non-empty")
        if any(not 0 <= s < m for s in w):
            raise ValueError(f"forbidden word {w} uses symbols outside the alphabet")

    # Trie over proper prefixes; terminal nodes mark completed forbidden words.
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

    # Failure links; a node whose suffix chain hits a terminal is dead too.
    fail = [0] * len(children)
    order = deque(children[0].values())
    for node in children[0].values():
        fail[node] = 0
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


def compile_language(spec: LanguageSpec) -> PrunedAutomaton:
    """Build the pruned automaton recognising the admissible finite words."""
    if isinstance(spec, FullShift):
        _validate_alphabet(spec.m)
        return PrunedAutomaton(spec.m, 1, 0, (tuple(0 for _ in range(spec.m)),))

    if isinstance(spec, ForbiddenWords):
        _validate_alphabet(spec.m)
        start, table = _forbidden_automaton(spec)
        m = spec.m
    elif isinstance(spec, Dfa):
        _validate_alphabet(spec.m)
        m = spec.m
        if not 0 <= spec.start < spec.num_states:
            raise ValueError("start state out of range")
        table = [[-1] * m for _ in range(spec.num_states)]
        for q, s, r in spec.transitions:
            if not (0 <= q < spec.num_states and 0 <= r < spec.num_states):
                raise ValueError(f"transition ({q},{s},{r}) out of range")
            if not 0 <= s < m:
                raise ValueError(f"transition symbol {s} outside the alphabet")
            if table[q][s] != -1:
                raise ValueError(f"duplicate transition for state {q}, symbol {s}")
            table[q][s] = r
        start = spec.start
    else:
        raise TypeError(f"unsupported language spec: {spec!r}")

    # Drop states with no future, then states unreachable from the start.
    alive = set(range(len(table)))
    changed = True
    while changed:
        changed = False
        for q in list(alive):
            if not any(t in alive for t in table[q] if t >= 0):
                alive.discard(q)
                changed = True
    if start not in alive:
        raise EmptyLanguage("the switching constraint admits no infinite sequence")

    reach = {start}
    frontier = [start]
    while frontier:
        q = frontier.pop()
        for t in table[q]:
            if t in alive and t not in reach:
                reach.add(t)
                frontier.append(t)

    keep = sorted(reach)
    index = {q: i for i, q in enumerate(keep)}
    packed = tuple(
        tuple(index.get(t, -1) if t in alive else -1 for t in table[q]) for q in keep
    )
    return PrunedAutomaton(m, len(keep), index[start], packed)


def accepts_prefix(aut: PrunedAutomaton, word: Word | Sequence[int]) -> bool:
    """True iff ``word`` is the prefix of some admissible infinite sequence."""
    state = aut.start
    for s in word:
        state = aut.step(state, s)
        if state < 0:
            return False
    return True


def walk(
    aut: PrunedAutomaton,
    n: int,
    root: _T,
    step: Callable[[_T, int], _T | None],
    spend: Callable[[], bool] | None = None,
    leaf: Callable[[_T], bool] | None = None,
    dead: set | None = None,
) -> Iterator[tuple[tuple[int, ...], _T]]:
    """Depth-first walk over the admissible words of length ``n``.

    ``root`` is folded along each branch: ``step(value, sym)`` returns the
    child value, or None to prune the branch.  ``spend`` is called once per
    admissible edge, before its step; a False return ends the walk.  Yields
    ``(symbols, value)`` for every surviving word whose value passes
    ``leaf`` (every surviving word when ``leaf`` is None), in lexicographic
    order.

    ``dead`` is a set of ``(state, value, remaining)`` keys of subtrees known
    to yield nothing; ``remaining >= 1`` counts the symbols still to read
    below the node.  A child whose key is in ``dead`` is charged and stepped
    but not entered.  A node's key is added once all its children have been
    walked and none of its leaves was yielded; a node still on the stack
    when the walk ends, because ``spend`` stopped it or the consumer closed
    the generator, is not added.  Leaves are tested, never recorded.  One
    set serves any number of walks and lengths that share ``step`` and
    ``leaf``.  Raises ValueError for ``n`` below 1.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    m, transitions = aut.m, aut.transitions
    # A frame is [state, value, next symbol, hits yielded before its push].
    frames: list[list] = [[aut.start, root, 0, 0]]
    path: list[int] = []
    hits = 0
    while frames:
        frame = frames[-1]
        depth = len(path)
        if depth < n:
            state, value, sym, _ = frame
            row = transitions[state]
            rest = n - depth - 1
            child = None
            while sym < m:
                nxt = row[sym]
                sym += 1
                if nxt >= 0:
                    if spend is not None and not spend():
                        return
                    child = step(value, sym - 1)
                    if child is not None:
                        if not rest or dead is None or (nxt, child, rest) not in dead:
                            break
                        child = None
            if child is not None:
                frame[2] = sym
                path.append(sym - 1)
                frames.append([nxt, child, 0, hits])
                continue
            if dead is not None and frame[3] == hits:
                dead.add((state, value, n - depth))
        elif leaf is None or leaf(frame[1]):
            hits += 1
            yield tuple(path), frame[1]
        frames.pop()
        if path:
            path.pop()


def enumerate_words(aut: PrunedAutomaton, n: int) -> Iterator[Word]:
    """Yield the admissible words of length ``n`` in lexicographic order."""
    for syms, _ in walk(aut, n, (), lambda value, sym: value):
        yield Word(syms)


def count_words(aut: PrunedAutomaton, n: int) -> int:
    """Number of admissible words of length ``n`` (exact big-integer count)."""
    if n < 0:
        raise ValueError("length must be non-negative")
    if n == 0:
        return 1
    size = aut.num_states
    base = [[0] * size for _ in range(size)]
    for q in range(size):
        for t in aut.transitions[q]:
            if t >= 0:
                base[q][t] += 1

    def mat_mul(a, b):
        out = [[0] * size for _ in range(size)]
        for i in range(size):
            row = a[i]
            acc = out[i]
            for k in range(size):
                if row[k]:
                    f = row[k]
                    brow = b[k]
                    for j in range(size):
                        acc[j] += f * brow[j]
        return out

    result = None
    power = base
    e = n
    while e:
        if e & 1:
            result = power if result is None else mat_mul(result, power)
        e >>= 1
        if e:
            power = mat_mul(power, power)
    return sum(result[aut.start])
