"""``bfs_equal_oracle`` against the search it replaced.

The replaced search kept its own copies of the move rules: a table of
far-commuting letter pairs, the set of palindrome windows as frozensets of
letter ids, and a window test of its own.  Each edge recorded only where it
inserted and reversed, and rebuilding a path redid that surgery to recover
the cancellations.  ``reference_oracle`` below keeps that search, written
against the public letter order only, and ``bfs_equal_oracle`` must return
an identical ``OracleResult`` (verdict, trace and state count) on seeded
pairs in square and non-square groups.  Every Equal trace must also replay
under ``check_trace``.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import combinations

import pytest

from projbraid.solver import check_trace
from projbraid.words import (
    CancelPair,
    GroupParams,
    IllegalMoveError,
    InsertPair,
    Letter,
    Move,
    OracleResult,
    ReverseWindow,
    SwapAdjacent,
    Word,
    apply_move,
    bfs_equal_oracle,
    free_cancel,
    free_reduce_with_trace,
    invert_move,
)


@lru_cache(maxsize=None)
def reference_relations(params: GroupParams):
    """The far-commutation table and the palindrome windows as frozensets of
    letter ids, built as the replaced searcher built them on every call."""
    table = params.all_letters()
    ids = {letter: i for i, letter in enumerate(table)}
    k = params.k
    commutes = [
        [len(set(table[i].subset) & set(table[j].subset)) < k - 1 for j in range(len(table))]
        for i in range(len(table))
    ]
    window_sets = {
        frozenset(ids[Letter(s)] for s in combinations(u, k))
        for u in combinations(range(1, params.n + 1), k + 1)
    }
    return commutes, window_sets


class ReferenceSearcher:
    """The replaced searcher: its own commutation table, window sets and surgery."""

    def __init__(self, params: GroupParams, max_len: int):
        self.k = params.k
        self.max_len = max_len
        self.table = params.all_letters()
        self.ids = {letter: i for i, letter in enumerate(self.table)}
        self.square = params.is_square
        if not self.square:
            self.commutes, self.window_sets = reference_relations(params)

    def encode(self, word: Word) -> tuple[int, ...]:
        return tuple(self.ids[letter] for letter in word.letters)

    def window_ok(self, window: tuple[int, ...]) -> bool:
        if self.square:
            return len(set(window)) == self.k + 1
        return frozenset(window) in self.window_sets and len(set(window)) == self.k + 1

    def successors(self, state: tuple[int, ...]):
        k = self.k
        length = len(state)
        for pos in range(length - k):
            window = state[pos : pos + k + 1]
            if self.window_ok(window):
                nxt, _ = free_cancel(state[:pos] + tuple(reversed(window)) + state[pos + k + 1 :])
                yield nxt, (-1, -1, pos)
        if length + 2 <= self.max_len and length >= k:
            for ins in range(length + 1):
                variants = [(ins + 1, state[ins : ins + k])]
                if ins - k >= 0:
                    variants.append((ins - k, state[ins - k : ins]))
                for wpos, present in variants:
                    if len(present) != k or len(set(present)) != k:
                        continue
                    for ins_id in [x for x in range(len(self.table)) if x not in present]:
                        grown = state[:ins] + (ins_id, ins_id) + state[ins:]
                        window = grown[wpos : wpos + k + 1]
                        if len(window) == k + 1 and self.window_ok(window):
                            nxt, _ = free_cancel(grown[:wpos] + tuple(reversed(window)) + grown[wpos + k + 1 :])
                            yield nxt, (ins, ins_id, wpos)
        if not self.square:
            for pos in range(length - 1):
                if self.commutes[state[pos]][state[pos + 1]]:
                    yield state[:pos] + (state[pos + 1], state[pos]) + state[pos + 2 :], ("swap", pos)

    def edge_moves(self, state: tuple[int, ...], edge) -> list[Move]:
        if edge[0] == "swap":
            return [SwapAdjacent(edge[1])]
        ins, ins_id, wpos = edge
        moves: list[Move] = []
        current = state
        if ins >= 0:
            moves.append(InsertPair(ins, self.table[ins_id]))
            current = current[:ins] + (ins_id, ins_id) + current[ins:]
        moves.append(ReverseWindow(wpos))
        window = current[wpos : wpos + self.k + 1]
        current = current[:wpos] + tuple(reversed(window)) + current[wpos + self.k + 1 :]
        moves.extend(CancelPair(pos, self.table[x]) for pos, x in free_cancel(current)[1])
        return moves


def rebuild(searcher: ReferenceSearcher, parents, state) -> list[Move]:
    chain = []
    while parents[state][0] is not None:
        chain.append(parents[state])
        state = parents[state][0]
    moves: list[Move] = []
    for parent, edge in reversed(chain):
        moves.extend(searcher.edge_moves(parent, edge))
    return moves


def reference_oracle(w1: Word, w2: Word, max_len: int, max_states: int) -> OracleResult:
    """The replaced ``bfs_equal_oracle``, frontier order and state count included."""
    if w1.letters == w2.letters:
        return OracleResult(True, (), 0)
    searcher = ReferenceSearcher(w1.params, max_len)
    reduce1, cancels1 = free_reduce_with_trace(w1)
    reduce2, cancels2 = free_reduce_with_trace(w2)
    start, end = searcher.encode(reduce1), searcher.encode(reduce2)

    def finish(fwd_moves: list[Move], bwd_moves: list[Move], states: int) -> OracleResult:
        trace = list(cancels1) + fwd_moves
        trace += [invert_move(m) for m in reversed(bwd_moves)]
        trace += [invert_move(m) for m in reversed(cancels2)]
        return OracleResult(True, tuple(trace), states)

    if start == end:
        return finish([], [], 0)
    fwd_parents = {start: (None, None)}
    bwd_parents = {end: (None, None)}
    fwd_frontier: deque = deque([start])
    bwd_frontier: deque = deque([end])
    states = 0
    while fwd_frontier or bwd_frontier:
        if not bwd_frontier or (fwd_frontier and len(fwd_frontier) <= len(bwd_frontier)):
            frontier, parents, other, forward = fwd_frontier, fwd_parents, bwd_parents, True
        else:
            frontier, parents, other, forward = bwd_frontier, bwd_parents, fwd_parents, False
        next_frontier: deque = deque()
        while frontier:
            state = frontier.popleft()
            for nxt, edge in searcher.successors(state):
                if nxt in parents:
                    continue
                parents[nxt] = (state, edge)
                states += 1
                if nxt in other:
                    return finish(rebuild(searcher, fwd_parents, nxt), rebuild(searcher, bwd_parents, nxt), states)
                next_frontier.append(nxt)
                if states >= max_states:
                    return OracleResult(False, None, states)
        if forward:
            fwd_frontier = next_frontier
        else:
            bwd_frontier = next_frontier
    return OracleResult(False, None, states)


def legal_moves(word: Word) -> list[Move]:
    """Every window reversal, swap and cancellation that ``apply_move`` accepts on ``word``."""
    moves: list[Move] = []
    for pos in range(len(word)):
        for move in (ReverseWindow(pos), SwapAdjacent(pos), CancelPair(pos, word.letters[pos])):
            try:
                apply_move(word, move)
            except IllegalMoveError:
                continue
            moves.append(move)
    return moves


def scramble(word: Word, rng: random.Random, steps: int, max_len: int) -> Word:
    """Apply ``steps`` random legal moves, so the result equals ``word`` in the group."""
    letters = word.params.all_letters()
    for _ in range(steps):
        moves = legal_moves(word)
        if len(word) + 2 <= max_len and (not moves or rng.random() < 0.3):
            moves = [InsertPair(rng.randint(0, len(word)), rng.choice(letters))]
        if moves:
            word = apply_move(word, rng.choice(moves))
    return word


def pairs(params: GroupParams, seed: int, count: int, max_len: int):
    """Seeded pairs: half scrambles of one word (often Equal), half unrelated words."""
    rng = random.Random(seed)
    letters = params.all_letters()

    def random_word() -> Word:
        return Word(params, tuple(rng.choice(letters) for _ in range(rng.randint(params.k, max_len - 2))))

    for i in range(count):
        w1 = random_word()
        yield w1, random_word() if i % 2 else scramble(w1, rng, rng.randint(2, 8), max_len)


# (n, k), seed, pairs, max_len, max_states: bounds small enough that the
# Unknown answers stay cheap and large enough that the insertion edges run
GROUPS = [
    ((4, 3), 41, 300, 10, 400),
    ((5, 4), 51, 300, 10, 400),
    ((4, 2), 42, 300, 8, 400),
    ((5, 2), 52, 160, 8, 150),
    ((5, 3), 53, 200, 8, 300),
    ((6, 3), 63, 100, 8, 100),
    ((6, 2), 62, 100, 8, 100),
]


@pytest.mark.parametrize(("nk", "seed", "count", "max_len", "max_states"), GROUPS)
def test_oracle_matches_reference(nk, seed, count, max_len, max_states):
    params = GroupParams(*nk)
    equal = 0
    for w1, w2 in pairs(params, seed, count, max_len):
        result = bfs_equal_oracle(w1, w2, max_len, max_states)
        assert result == reference_oracle(w1, w2, max_len, max_states), (str(w1), str(w2))
        if result.equal:
            equal += 1
            assert check_trace(w1, result.trace, w2)
    assert 0 < equal < count
