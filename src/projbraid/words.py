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

    def require_path_k(self) -> None:
        if self.k > MAX_PATH_K:
            raise ValueError(f"k={self.k} is beyond the cap of MAX_PATH_K = {MAX_PATH_K} for paths")

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
# general-position check and event detection enumerate every k-subset; at
# C(45, 2) = 990 the oracle takes 0.07 s to build its move rules (once per
# group), and a 1438-state search between six-letter words 0.02 s after that.
MAX_SUBSETS = 1000

# Largest k of path geometry, in realize and in path files: realize then
# certify of b1, each a new process, take 0.9 s at k = 64 and 3.8 s at k = 128.
MAX_PATH_K = 64


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

        ``bj`` omits k + 2 - j, since the aliases follow lexicographic order.
        """
        return params.k + 2 - self.b_index(params)

    def b_index(self, params: GroupParams) -> int:
        """Position of this letter in the b-alias order (n = k + 1 only): code j - 1 is ``bj``."""
        params.require_square()
        code = _letter_table(params).codes.get(self)
        if code is None:
            raise ValueError(f"letter {self} is not a k-subset of 1..n for k={params.k}")
        return code + 1

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


@lru_cache(maxsize=64)
def _relations(params: GroupParams) -> tuple[frozenset[frozenset[int]], tuple[int, ...]]:
    """The move rules of a group on letter codes, read by the tape and the oracle.

    Returns ``(windows, near)``: each palindrome window as the frozenset of
    the codes of its k+1 letters, the k-subsets of one (k+1)-set; and in bit
    b of ``near[a]`` whether letters a and b share k - 1 or k indices, i.e.
    are equal or lie in a common window (they far-commute exactly when it is
    clear).
    """
    codes = {letter.subset: code for letter, code in _letter_table(params).codes.items()}
    windows = []
    near = [0] * len(codes)
    for union in combinations(range(1, params.n + 1), params.k + 1):
        window = [codes[subset] for subset in combinations(union, params.k)]
        bits = sum(1 << code for code in window)
        for code in window:
            near[code] |= bits
        windows.append(frozenset(window))
    return frozenset(windows), tuple(near)


@lru_cache(maxsize=64)
def _completions(params: GroupParams) -> dict[frozenset[int], int]:
    """Any k letters of a window, as a frozenset of codes, to the one completing them."""
    return {window - {code}: code for window in _relations(params)[0] for code in window}


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
        self.windows, self.near = _relations(word.params)
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
            if frozenset(window) not in self.windows:
                raise IllegalMoveError(
                    f"letters at [{start}, {end}) do not cover a common (k+1)-set once each"
                )
            cells[start:end] = window[::-1]
        elif isinstance(move, SwapAdjacent):
            pos = move.pos
            if not 0 <= pos <= len(cells) - 2:
                raise IllegalMoveError(f"position {pos} out of bounds for length {len(cells)}")
            a, b = cells[pos], cells[pos + 1]
            if self.near[a] >> b & 1:
                raise IllegalMoveError(f"{self.letters[a]} and {self.letters[b]} do not far-commute")
            cells[pos], cells[pos + 1] = b, a
        else:
            raise IllegalMoveError(f"unknown move {move!r}")


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


def _rebuild_moves(letters: tuple[Letter, ...], parents, state) -> list[Move]:
    """The primitive moves from a search root to ``state``, read off the stored edges."""
    edges = []
    while parents[state][0] is not None:
        state, edge = parents[state]
        edges.append(edge)
    moves: list[Move] = []
    for edge in reversed(edges):
        if edge[0] == "swap":
            moves.append(SwapAdjacent(edge[1]))
            continue
        ins, ins_code, wpos, cancels = edge
        if ins >= 0:
            moves.append(InsertPair(ins, letters[ins_code]))
        moves.append(ReverseWindow(wpos))
        moves.extend(CancelPair(pos, letters[code]) for pos, code in cancels)
    return moves


def bfs_equal_oracle(w1: Word, w2: Word, max_len: int = 12, max_states: int = 100_000) -> OracleResult:
    """Bounded bidirectional search for a rewrite path from ``w1`` to ``w2``.

    Returns Equal together with a primitive-move trace that replays under
    ``check_trace``, or Unknown when the state or length bound is exhausted.

    States are words as tuples of letter codes.  An edge applies one
    palindrome reversal, optionally preceded by one pair insertion
    overlapping the window (an insertion elsewhere cancels straight back on
    a reduced word), then cancels freely and keeps the cancellations it
    made; or it applies one far-commutation swap and cancels nothing.  So
    the roots and the ends of window edges are freely reduced, but a swap
    may bring equal letters together: at (n, k) = (4, 2) a swap at 0 turns
    ``a{3,4} a{1,2} a{3,4}`` into the state ``a{1,2} a{3,4} a{3,4}``.

    An inserted copy must complete the k letters beside it to a window.
    Those k letters lie in at most one window (k >= 2 distinct k-subsets of
    a (k+1)-set have that set as their union), so each insertion point has
    at most one candidate letter, read from ``_completions``.  Stored edges
    read off as primitive moves, so every Equal answer is certified move by move.
    """
    if w1.params != w2.params:
        raise ValueError("words live in different groups")
    if w1.letters == w2.letters:
        return OracleResult(True, (), 0)

    k = w1.params.k
    table = _letter_table(w1.params)
    (windows, near), completion = _relations(w1.params), _completions(w1.params)

    # yields (next_state, edge): a window edge is (insert_pos, insert_code,
    # window_pos, cancellations) with insert_pos = -1 when nothing is
    # inserted; a swap edge is ('swap', pos)
    def successors(state: tuple[int, ...]):
        length = len(state)
        for pos in range(length - k):
            window = state[pos : pos + k + 1]
            if frozenset(window) in windows:
                nxt, cancels = free_cancel(state[:pos] + window[::-1] + state[pos + k + 1 :])
                yield nxt, (-1, -1, pos, cancels)
        if length + 2 <= max_len:
            for ins in range(length + 1):
                # the run of k letters beside the inserted pair c c starts at lo;
                # reversing the window c run (or run c) leaves c rev(run) c
                for wpos, lo in [(ins + 1, ins)] + ([(ins - k, ins - k)] if ins >= k else []):
                    run = state[lo : lo + k]
                    code = completion.get(frozenset(run))
                    if code is not None:
                        nxt, cancels = free_cancel(state[:lo] + (code, *run[::-1], code) + state[lo + k :])
                        yield nxt, (ins, code, wpos, cancels)
        # far commutation (void when n = k + 1)
        if not w1.params.is_square:
            for pos in range(length - 1):
                if not near[state[pos]] >> state[pos + 1] & 1:
                    yield state[:pos] + (state[pos + 1], state[pos]) + state[pos + 2 :], ("swap", pos)

    reduce1, cancels1 = free_reduce_with_trace(w1)
    reduce2, cancels2 = free_reduce_with_trace(w2)
    start = tuple(table.codes[letter] for letter in reduce1.letters)
    end = tuple(table.codes[letter] for letter in reduce2.letters)

    def finish(fwd_moves: list[Move], bwd_moves: list[Move], states: int) -> OracleResult:
        trace = list(cancels1) + fwd_moves
        trace += [invert_move(m) for m in reversed(bwd_moves)]
        trace += [invert_move(m) for m in reversed(cancels2)]
        return OracleResult(True, tuple(trace), states)

    if start == end:
        return finish([], [], 0)

    # side 0 searches forward from w1, side 1 backward from w2
    parents = ({start: (None, None)}, {end: (None, None)})
    frontiers = [[start], [end]]
    states = 0

    while frontiers[0] or frontiers[1]:
        # grow the smaller side, the forward one on a tie; an empty side has
        # fully explored its component, so the other keeps growing toward it
        side = 0 if frontiers[0] and (not frontiers[1] or len(frontiers[0]) <= len(frontiers[1])) else 1
        own, other = parents[side], parents[1 - side]
        next_frontier = []
        for state in frontiers[side]:
            for nxt, edge in successors(state):
                if nxt in own:
                    continue
                own[nxt] = (state, edge)
                states += 1
                if nxt in other:
                    fwd_moves = _rebuild_moves(table.letters, parents[0], nxt)
                    bwd_moves = _rebuild_moves(table.letters, parents[1], nxt)
                    return finish(fwd_moves, bwd_moves, states)
                next_frontier.append(nxt)
                if states >= max_states:
                    return OracleResult(False, None, states)
        frontiers[side] = next_frontier

    return OracleResult(False, None, states)
