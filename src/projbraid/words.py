"""Words over subset-indexed involutive generators, and the moves that rewrite them.

A group in this family is parametrized by ``(n, k)`` with ``n > k >= 2``.  Its
generators are indexed by the k-element subsets of ``{1, ..., n}`` and every
generator squares to the identity.  Two generators commute when their index
subsets share fewer than ``k - 1`` elements, and any ``k + 1`` generators whose
subsets are exactly the k-subsets of a common (k+1)-set satisfy a palindrome
relation: the product read left to right equals the product read right to left.

For the square case ``n = k + 1`` (the only case the rest of the package
decides anything about) the generators carry short aliases ``b1 .. b(k+1)``,
assigned in lexicographic order of the subsets: ``b1 = a{1..k}`` up to
``b(k+1) = a{2..k+1}``.  In that case the commutation relation is void, since
any two distinct k-subsets of a (k+1)-set share exactly k - 1 elements.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple, TypeVar

T = TypeVar("T")


class WordSyntaxError(ValueError):
    """A word string failed to parse; carries the offending token position."""

    def __init__(self, message: str, token_index: int | None = None, token: str | None = None):
        self.token_index = token_index
        self.token = token
        if token_index is not None:
            # a token of any length may arrive; the message shows its start
            shown = repr(token) if len(token) <= 32 else f"{token[:32]!r}..."
            message = f"token {token_index + 1} ({shown}): {message}"
        super().__init__(message)


@dataclass(frozen=True, order=True)
class GroupParams:
    """Group parameters: generators are the k-subsets of {1, ..., n}."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        if self.n <= self.k:
            raise ValueError(f"n must exceed k, got n={self.n}, k={self.k}")

    @property
    def is_square(self) -> bool:
        """True when n = k + 1, the case with b-aliases and the sign action."""
        return self.n == self.k + 1

    def require_square(self) -> None:
        if not self.is_square:
            raise ValueError(f"operation requires n = k + 1, got n={self.n}, k={self.k}")

    def all_letters(self) -> tuple[Letter, ...]:
        return _letter_table(self).letters

    def b_letter(self, j: int) -> Letter:
        """The j-th aliased generator (1-based), defined only when n = k + 1."""
        self.require_square()
        if not 1 <= j <= self.k + 1:
            raise ValueError(f"b-index out of range: {j}")
        return _letter_table(self).letters[j - 1]


# Largest C(n, k) accepted from a command line or a path file, and the
# largest group whose letter table is built.  The letter table, the
# general-position check and event detection enumerate every k-subset, and
# the oracle alone takes about 1 s at C(n, k) = 924.
MAX_SUBSETS = 1000


def check_subset_count(params: GroupParams) -> None:
    """Raise ValueError when C(n, k) exceeds ``MAX_SUBSETS``.

    C(n, k) >= n for 0 < k < n, so a large n is rejected before ``comb`` runs.
    """
    if params.n > MAX_SUBSETS or comb(params.n, params.k) > MAX_SUBSETS:
        raise ValueError(
            f"C(n, k) for n={params.n}, k={params.k} exceeds the cap of {MAX_SUBSETS} subsets"
        )


@dataclass(frozen=True, order=True)
class Letter:
    """A single generator, identified by its sorted index subset."""

    subset: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.subset)) != len(self.subset):
            raise ValueError(f"subset has repeated indices: {self.subset}")
        if tuple(sorted(self.subset)) != self.subset:
            raise ValueError(f"subset must be sorted: {self.subset}")
        if self.subset and self.subset[0] < 1:
            raise ValueError(f"indices are 1-based: {self.subset}")

    def omitted_index(self, params: GroupParams) -> int:
        """The unique element of {1, ..., n} missing from the subset (n = k+1 only).

        The subset is sorted, so the first i with ``subset[i-1] != i`` is the
        gap; with no such i the subset is 1..k and n is missing.
        """
        params.require_square()
        if len(self.subset) != params.k or self.subset[-1] > params.n:
            raise ValueError(f"letter {self} is not a k-subset of 1..n for k={params.k}")
        for i, element in enumerate(self.subset, 1):
            if element != i:
                return i
        return params.n

    def b_index(self, params: GroupParams) -> int:
        """Position of this letter in the b-alias order (n = k + 1 only)."""
        return params.k + 2 - self.omitted_index(params)

    def __str__(self) -> str:
        return "a{" + ",".join(str(i) for i in self.subset) + "}"


@dataclass(frozen=True)
class Word:
    """An immutable word in the generators of the group given by ``params``."""

    params: GroupParams
    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        for letter in self.letters:
            if len(letter.subset) != self.params.k:
                raise ValueError(f"letter {letter} has wrong cardinality for k={self.params.k}")
            if letter.subset[-1] > self.params.n:
                raise ValueError(f"letter {letter} out of range for n={self.params.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


class _LetterTable(NamedTuple):
    """Every letter of a group in ``all_letters`` order, the code of each
    letter (its position in that order), and, when n = k + 1, the letter
    of each token ``bj``: code j - 1 is ``bj``."""

    letters: tuple[Letter, ...]
    codes: dict[Letter, int]
    aliases: dict[str, Letter]


@lru_cache(maxsize=64)
def _letter_table(params: GroupParams) -> _LetterTable:
    check_subset_count(params)
    letters = tuple(Letter(s) for s in combinations(range(1, params.n + 1), params.k))
    aliases = {f"b{j}": letter for j, letter in enumerate(letters, 1)} if params.is_square else {}
    return _LetterTable(letters, {letter: code for code, letter in enumerate(letters)}, aliases)


_B_TOKEN = re.compile(r"b(\d+)\Z")
_A_TOKEN = re.compile(r"a\{(\d+(?:,\d+)*)\}\Z")


def parse_word(text: str, params: GroupParams) -> Word:
    """Parse a word from whitespace-separated tokens.

    Tokens are either ``bJ`` (only when n = k + 1) or ``a{i1,...,ik}`` with no
    spaces inside the braces.  The empty string denotes the empty word.
    """
    letters: list[Letter] = []
    # only b-tokens need the table, and only a square group has them
    aliases = _letter_table(params).aliases if params.is_square else {}
    for index, token in enumerate(text.split()):
        letter = aliases.get(token)
        if letter is not None:
            letters.append(letter)
            continue
        m = _B_TOKEN.match(token)
        if m:
            if not params.is_square:
                raise WordSyntaxError("b-aliases require n = k + 1", index, token)
            try:
                j = int(m.group(1))
            except ValueError:  # more digits than int() converts
                j = 0
            if not 1 <= j <= params.k + 1:
                raise WordSyntaxError(f"b-index must lie in 1..{params.k + 1}", index, token)
            letters.append(params.b_letter(j))
            continue
        m = _A_TOKEN.match(token)
        if m:
            try:
                indices = tuple(int(part) for part in m.group(1).split(","))
            except ValueError:  # an index with more digits than int() converts
                raise WordSyntaxError(f"index out of range 1..{params.n}", index, token) from None
            if len(set(indices)) != len(indices):
                raise WordSyntaxError("repeated index in subset", index, token)
            if len(indices) != params.k:
                raise WordSyntaxError(f"subset must have exactly k={params.k} indices", index, token)
            if any(i < 1 or i > params.n for i in indices):
                raise WordSyntaxError(f"index out of range 1..{params.n}", index, token)
            letters.append(Letter(tuple(sorted(indices))))
            continue
        raise WordSyntaxError("expected 'bJ' or 'a{i1,...,ik}'", index, token)
    return Word(params, tuple(letters))


def format_word(word: Word, style: str = "subset") -> str:
    """Render a word as tokens; ``style`` is 'subset' or 'b-index'."""
    if style == "subset":
        return " ".join(str(letter) for letter in word.letters)
    if style == "b-index":
        return " ".join(f"b{letter.b_index(word.params)}" for letter in word.letters)
    raise ValueError(f"unknown style: {style!r}")


def free_cancel(items: Iterable[T]) -> tuple[tuple[T, ...], list[tuple[int, T]]]:
    """Cancel adjacent equal items until none remain.

    The result is independent of cancellation order, so a single left-to-right
    stack pass suffices.  Returns the reduced sequence and the cancellations in
    the order made, each as ``(position, item)``: the pair occupied
    ``position`` and ``position + 1`` of the sequence at that moment.
    """
    stack: list[T] = []
    cancels: list[tuple[int, T]] = []
    for item in items:
        if stack and stack[-1] == item:
            stack.pop()
            cancels.append((len(stack), item))
        else:
            stack.append(item)
    return tuple(stack), cancels


def free_reduce(word: Word) -> Word:
    """Cancel adjacent equal letters until none remain."""
    return Word(word.params, free_cancel(word.letters)[0])


def inverse(word: Word) -> Word:
    """The inverse word: letters reversed (every generator is an involution)."""
    return Word(word.params, tuple(reversed(word.letters)))


def concat(*words: Word) -> Word:
    if not words:
        raise ValueError("concat needs at least one word")
    params = words[0].params
    letters: list[Letter] = []
    for w in words:
        if w.params != params:
            raise ValueError("cannot concatenate words over different groups")
        letters.extend(w.letters)
    return Word(params, tuple(letters))


# --- primitive moves and traces --------------------------------------------

@dataclass(frozen=True)
class CancelPair:
    """Delete the equal adjacent letters at positions pos, pos+1."""

    pos: int
    letter: Letter


@dataclass(frozen=True)
class InsertPair:
    """Insert two copies of ``letter`` so they occupy positions pos, pos+1."""

    pos: int
    letter: Letter


@dataclass(frozen=True)
class ReverseWindow:
    """Reverse the palindrome window of k+1 letters starting at ``pos``."""

    pos: int


@dataclass(frozen=True)
class SwapAdjacent:
    """Swap the far-commuting letters at positions pos, pos+1."""

    pos: int


Move = CancelPair | InsertPair | ReverseWindow | SwapAdjacent


class IllegalMoveError(ValueError):
    """Raised when a recorded move cannot be replayed on the current word."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)


class _Tape:
    """A word as a mutable list of letter codes, rewritten in place by moves.

    ``apply`` decides whether a move is legal from the cells it touches
    alone: a cancel or an insert costs O(1) checks and one list splice, a
    window O(k) checks.
    """

    def __init__(self, word: Word):
        self.params = word.params
        self.k = word.params.k
        table = _letter_table(word.params)
        self.letters, self.codes = table.letters, table.codes
        self.cells = [self.codes[letter] for letter in word.letters]

    def word(self) -> Word:
        return Word(self.params, tuple(self.letters[code] for code in self.cells))

    def apply(self, move: Move) -> None:
        """Apply one primitive move, raising ``IllegalMoveError`` when it is illegal here."""
        cells = self.cells
        if isinstance(move, CancelPair):
            pos = move.pos
            if not 0 <= pos <= len(cells) - 2:
                raise IllegalMoveError(f"cancel position {pos} out of bounds")
            if cells[pos] != cells[pos + 1]:
                raise IllegalMoveError(f"letters at {pos}, {pos + 1} differ")
            letter = self.letters[cells[pos]]
            if letter != move.letter:
                raise IllegalMoveError(f"recorded letter {move.letter} does not match {letter}")
            del cells[pos : pos + 2]
        elif isinstance(move, InsertPair):
            pos = move.pos
            if not 0 <= pos <= len(cells):
                raise IllegalMoveError(f"insert position {pos} out of bounds")
            code = self.codes.get(move.letter)
            if code is None:
                Word(self.params, (move.letter,))  # raises on a letter of another group
                raise ValueError(f"letter {move.letter} is not a letter of the group")
            cells[pos:pos] = (code, code)
        elif isinstance(move, ReverseWindow):
            start, end = move.pos, move.pos + self.k + 1
            if start < 0 or end > len(cells):
                raise IllegalMoveError(f"window [{start}, {end}) out of bounds for length {len(cells)}")
            window = cells[start:end]
            if not self._is_window(window):
                raise IllegalMoveError(
                    f"letters at [{start}, {end}) do not cover a common (k+1)-set once each"
                )
            cells[start:end] = window[::-1]
        elif isinstance(move, SwapAdjacent):
            # legal only when the subsets share fewer than k - 1 indices, which
            # never happens when n = k + 1
            pos = move.pos
            if not 0 <= pos <= len(cells) - 2:
                raise IllegalMoveError(f"position {pos} out of bounds for length {len(cells)}")
            a, b = self.letters[cells[pos]], self.letters[cells[pos + 1]]
            if len(set(a.subset) & set(b.subset)) >= self.k - 1:
                raise IllegalMoveError(f"{a} and {b} do not far-commute")
            cells[pos], cells[pos + 1] = cells[pos + 1], cells[pos]
        else:
            raise IllegalMoveError(f"unknown move {move!r}")

    def _is_window(self, window: list[int]) -> bool:
        """k+1 distinct letters qualify when their subsets are exactly the
        k-subsets of a single (k+1)-set, i.e. their union has k+1 elements;
        when n = k + 1 every union does."""
        if len(set(window)) != self.k + 1:
            return False
        if self.params.is_square:
            return True
        return len(set().union(*(self.letters[code].subset for code in window))) == self.k + 1


def apply_move(word: Word, move: Move) -> Word:
    """Apply a single primitive move, validating its legality."""
    tape = _Tape(word)
    tape.apply(move)
    return tape.word()


def invert_move(move: Move) -> Move:
    if isinstance(move, CancelPair):
        return InsertPair(move.pos, move.letter)
    if isinstance(move, InsertPair):
        return CancelPair(move.pos, move.letter)
    return move  # window reversal and far-commutation swaps are involutions


def free_reduce_with_trace(word: Word) -> tuple[Word, list[Move]]:
    """Left-to-right reduction, recording each cancellation as a move."""
    reduced, cancels = free_cancel(word.letters)
    return Word(word.params, reduced), [CancelPair(pos, letter) for pos, letter in cancels]


# --- bounded equality oracle ------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    """Outcome of the bounded search: Equal with a trace, or Unknown.

    ``equal=False`` never means "not equal"; it only reports that the search
    bounds were exhausted first.
    """

    equal: bool
    trace: tuple[Move, ...] | None
    states: int


class _Searcher:
    """Bidirectional search over freely reduced words.

    States are freely reduced letter-id tuples.  Edges apply one palindrome
    reversal, optionally preceded by one pair insertion overlapping the window
    (an insertion elsewhere cancels straight back on a reduced word), or one
    far-commutation swap; trailing cancellations are folded into the edge.
    Each edge expands to a short list of primitive moves during trace replay,
    so every Equal answer remains certified move by move.
    """

    def __init__(self, params: GroupParams, max_len: int, max_states: int):
        self.params = params
        self.k = params.k
        self.max_len = max_len
        self.max_states = max_states
        table = _letter_table(params)
        self.table, self.ids = table.letters, table.codes
        self.square = params.is_square
        if not self.square:
            n_ids = len(self.table)
            self.commutes = [
                [
                    len(set(self.table[i].subset) & set(self.table[j].subset)) < self.k - 1
                    for j in range(n_ids)
                ]
                for i in range(n_ids)
            ]
            self.window_sets = {
                frozenset(self.ids[Letter(s)] for s in combinations(u, self.k))
                for u in combinations(range(1, params.n + 1), self.k + 1)
            }

    def encode(self, word: Word) -> tuple[int, ...]:
        return tuple(self.ids[letter] for letter in word.letters)

    def _window_ok(self, window: tuple[int, ...]) -> bool:
        if self.square:
            return len(set(window)) == self.k + 1
        return frozenset(window) in self.window_sets and len(set(window)) == self.k + 1

    def successors(self, state: tuple[int, ...]):
        """Yield (next_state, edge) pairs; an edge is (insert_pos, insert_id, window_pos)
        with insert_pos = -1 when no insertion happens, or ('swap', pos)."""
        k = self.k
        length = len(state)
        # plain window reversal
        for pos in range(length - k):
            window = state[pos : pos + k + 1]
            if self._window_ok(window):
                nxt, _ = free_cancel(state[:pos] + tuple(reversed(window)) + state[pos + k + 1 :])
                yield nxt, (-1, -1, pos)
        # one pair insertion feeding a window that uses exactly one inserted copy
        if length + 2 <= self.max_len and length >= k:
            for ins in range(length + 1):
                variants = [(ins + 1, state[ins : ins + k])]
                if ins - k >= 0:
                    variants.append((ins - k, state[ins - k : ins]))
                for wpos, present in variants:
                    if len(present) != k or len(set(present)) != k:
                        continue
                    candidates = [x for x in range(len(self.table)) if x not in present]
                    for ins_id in candidates:
                        grown = state[:ins] + (ins_id, ins_id) + state[ins:]
                        window = grown[wpos : wpos + k + 1]
                        if len(window) == k + 1 and self._window_ok(window):
                            nxt, _ = free_cancel(
                                grown[:wpos] + tuple(reversed(window)) + grown[wpos + k + 1 :]
                            )
                            yield nxt, (ins, ins_id, wpos)
        # far commutation (void when n = k + 1)
        if not self.square:
            for pos in range(length - 1):
                if self.commutes[state[pos]][state[pos + 1]]:
                    yield state[:pos] + (state[pos + 1], state[pos]) + state[pos + 2 :], ("swap", pos)

    def edge_moves(self, state: tuple[int, ...], edge) -> tuple[list[Move], tuple[int, ...]]:
        """Expand one search edge into primitive moves starting at ``state``."""
        moves: list[Move] = []
        if edge[0] == "swap":
            moves.append(SwapAdjacent(edge[1]))
            pos = edge[1]
            current = state[:pos] + (state[pos + 1], state[pos]) + state[pos + 2 :]
            return moves, current
        ins, ins_id, wpos = edge
        current = state
        if ins >= 0:
            moves.append(InsertPair(ins, self.table[ins_id]))
            current = current[:ins] + (ins_id, ins_id) + current[ins:]
        moves.append(ReverseWindow(wpos))
        window = current[wpos : wpos + self.k + 1]
        current = current[:wpos] + tuple(reversed(window)) + current[wpos + self.k + 1 :]
        reduced, cancels = free_cancel(current)
        moves.extend(CancelPair(pos, self.table[x]) for pos, x in cancels)
        return moves, reduced


def _rebuild_moves(searcher: _Searcher, parents, state) -> list[Move]:
    """Reconstruct the primitive-move path from a search root to ``state``."""
    chain = []
    cur = state
    while True:
        parent, edge = parents[cur]
        if parent is None:
            break
        chain.append((parent, edge))
        cur = parent
    chain.reverse()
    moves: list[Move] = []
    for parent, edge in chain:
        moves.extend(searcher.edge_moves(parent, edge)[0])
    return moves


def bfs_equal_oracle(w1: Word, w2: Word, max_len: int = 12, max_states: int = 100_000) -> OracleResult:
    """Bounded bidirectional search for a rewrite path from ``w1`` to ``w2``.

    Returns Equal together with a primitive-move trace replayable by
    ``apply_move``, or Unknown when the state or length bound is exhausted.
    """
    if w1.params != w2.params:
        raise ValueError("words live in different groups")
    if w1.letters == w2.letters:
        return OracleResult(True, (), 0)

    searcher = _Searcher(w1.params, max_len, max_states)
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
        # an empty side has fully explored its component; keep growing the
        # other side toward the explored set
        if not bwd_frontier or (fwd_frontier and len(fwd_frontier) <= len(bwd_frontier)):
            frontier, parents, other = fwd_frontier, fwd_parents, bwd_parents
            forward = True
        else:
            frontier, parents, other = bwd_frontier, bwd_parents, fwd_parents
            forward = False
        next_frontier: deque = deque()
        while frontier:
            state = frontier.popleft()
            for nxt, edge in searcher.successors(state):
                if nxt in parents:
                    continue
                parents[nxt] = (state, edge)
                states += 1
                if nxt in other:
                    fwd_moves = _rebuild_moves(searcher, fwd_parents, nxt)
                    bwd_moves = _rebuild_moves(searcher, bwd_parents, nxt)
                    return finish(fwd_moves, bwd_moves, states)
                next_frontier.append(nxt)
                if states >= max_states:
                    return OracleResult(False, None, states)
        if forward:
            fwd_frontier = next_frontier
        else:
            bwd_frontier = next_frontier

    return OracleResult(False, None, states)
