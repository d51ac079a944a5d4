"""Words over subset-indexed involutive generators, and the moves that rewrite them.

The group G_{k+1}^k, parametrized by ``(n, k)`` with ``n = k + 1`` and
``k >= 2``, has one generator for each k-element subset of ``{1, ..., n}``,
and every generator squares to the identity.  The k + 1 generators together
satisfy a palindrome relation: any product of all of them, each once, read
left to right equals the same product read right to left.

The generators carry short aliases ``b1 .. b(k+1)``, assigned in
lexicographic order of the subsets: ``b1 = a{1..k}`` up to
``b(k+1) = a{2..k+1}``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, TypeVar

T = TypeVar("T")


def _short_repr(value) -> str:
    """``repr(value)``, cut to its first 32 characters for a message: a value
    of any length may arrive from outside.  A string is cut before it is
    quoted."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 32 else f"{value[:32]!r}..."
    text = repr(value)
    return text if len(text) <= 32 else f"{text[:32]}..."


class WordSyntaxError(ValueError):
    """A word string failed to parse; carries the offending token position."""

    def __init__(self, message: str, token_index: int | None = None, token: str | None = None):
        self.token_index = token_index
        self.token = token
        if token_index is not None:
            message = f"token {token_index + 1} ({_short_repr(token)}): {message}"
        super().__init__(message)


@dataclass(frozen=True, order=True)
class GroupParams:
    """Group parameters: generators are the k-subsets of {1, ..., n}, n = k + 1."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
        # the cap first, so a huge n is refused with the reason it cannot be built
        if self.n > MAX_SUBSETS:
            raise ValueError(
                f"C(n, k) for n={self.n}, k={self.k} exceeds the cap of {MAX_SUBSETS} subsets"
            )
        if self.n != self.k + 1:
            raise ValueError(f"only square groups n = k + 1 are supported, got n={self.n}, k={self.k}")

    def require_path_k(self) -> None:
        if self.k > MAX_PATH_K:
            raise ValueError(f"k={self.k} is beyond the cap of MAX_PATH_K = {MAX_PATH_K} for paths")

    def all_letters(self) -> tuple[Letter, ...]:
        return _letter_table(self).letters

    def b_letter(self, j: int) -> Letter:
        """The j-th aliased generator (1-based)."""
        if not 1 <= j <= self.k + 1:
            raise ValueError(f"b-index out of range: {j}")
        return _letter_table(self).letters[j - 1]


# Largest C(n, k) = k + 1 of any group: GroupParams refuses more, so the
# command line, path files and library calls all stop before a letter table
# or a subset list is built.  The letter table, the singular-subset check
# and event detection enumerate every k-subset.
MAX_SUBSETS = 1000

# Largest k of path geometry, in realize and in path files: realize then
# certify of b1, each a new process, take 0.9 s at k = 64 and 3.8 s at k = 128.
MAX_PATH_K = 64


@dataclass(frozen=True, order=True)
class Letter:
    """A single generator, identified by its sorted index subset: a letter of a group
    exactly when the group's letter table holds that subset (see ``_encode``)."""

    subset: tuple[int, ...]

    def __str__(self) -> str:
        return "a{" + ",".join(str(i) for i in self.subset) + "}"


@dataclass(frozen=True)
class Word:
    """An immutable word in the generators of the group given by ``params``.

    ``codes``, each letter's position in ``params.all_letters()``, is set once
    and is not a field: equality, hashing and the repr ignore it."""

    params: GroupParams
    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", _encode(self.params, self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)


class _LetterTable(NamedTuple):
    """Every letter of a group in ``all_letters`` order, the code of each
    letter (its position in that order) keyed by the letter's subset, and
    the code of each token ``bj``: code j - 1 is ``bj``."""

    letters: tuple[Letter, ...]
    codes: dict[tuple[int, ...], int]
    aliases: dict[str, int]


@lru_cache(maxsize=64)
def _letter_table(params: GroupParams) -> _LetterTable:
    letters = tuple(Letter(s) for s in combinations(range(1, params.n + 1), params.k))
    aliases = {f"b{j}": j - 1 for j in range(1, len(letters) + 1)}
    return _LetterTable(letters, {letter.subset: code for code, letter in enumerate(letters)}, aliases)


def _foreign(params: GroupParams, letter: Letter) -> ValueError:
    return ValueError(f"letter {letter} is not a k-subset of 1..{params.n} for k={params.k}")


def _encode(params: GroupParams, letters: Iterable[Letter]) -> tuple[int, ...]:
    """The code of each letter; the one test that a letter belongs to the group."""
    codes = _letter_table(params).codes
    try:
        return tuple([codes[letter.subset] for letter in letters])
    except KeyError as exc:
        raise _foreign(params, Letter(exc.args[0])) from None


def _from_codes(params: GroupParams, codes: tuple[int, ...]) -> Word:
    """The word of ``codes``, each already a code of the group: its letters
    are read from the letter table, and nothing is encoded again."""
    word = object.__new__(Word)
    object.__setattr__(word, "params", params)
    letters = _letter_table(params).letters
    object.__setattr__(word, "letters", tuple([letters[code] for code in codes]))
    object.__setattr__(word, "codes", codes)
    return word


_B_TOKEN = re.compile(r"b([0-9]+)\Z")
_A_TOKEN = re.compile(r"a\{([0-9]+(?:,[0-9]+)*)\}\Z")


def parse_word(text: str, params: GroupParams) -> Word:
    """Parse a word from whitespace-separated tokens.

    Tokens are either ``bJ`` or ``a{i1,...,ik}`` with no spaces inside the
    braces.  The empty string denotes the empty word.
    """
    table = _letter_table(params)
    aliases = table.aliases
    codes: list[int] = []
    for token in text.split():
        code = aliases.get(token)
        if code is None:
            code = _token_code(token, len(codes), params, table)
        codes.append(code)
    return _from_codes(params, tuple(codes))


def _token_code(token: str, index: int, params: GroupParams, table: _LetterTable) -> int:
    """The code of a token that is no plain alias ``bj``, or the error that
    names it as token ``index``."""
    m = _B_TOKEN.match(token)
    if m:
        try:
            j = int(m.group(1))
        except ValueError:  # more digits than int() converts
            j = 0
        if not 1 <= j <= params.k + 1:
            raise WordSyntaxError(f"b-index must lie in 1..{params.k + 1}", index, token)
        return j - 1
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
        return table.codes[tuple(sorted(indices))]
    raise WordSyntaxError("expected 'bJ' or 'a{i1,...,ik}'", index, token)


def format_word(word: Word, style: str = "subset") -> str:
    """Render a word as tokens; ``style`` is 'subset' or 'b-index'."""
    if style == "subset":
        return " ".join(str(letter) for letter in word.letters)
    if style == "b-index":
        return " ".join(f"b{code + 1}" for code in word.codes)
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
    return _from_codes(word.params, free_cancel(word.codes)[0])


def inverse(word: Word) -> Word:
    """The inverse word: letters reversed (every generator is an involution)."""
    return _from_codes(word.params, word.codes[::-1])


def concat(*words: Word) -> Word:
    if not words:
        raise ValueError("concat needs at least one word")
    params = words[0].params
    codes: list[int] = []
    for w in words:
        if w.params != params:
            raise ValueError("cannot concatenate words over different groups")
        codes.extend(w.codes)
    return _from_codes(params, tuple(codes))


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


Move = CancelPair | InsertPair | ReverseWindow

# A move on letter codes is a triple (kind, pos, code), code -1 for a window:
# what a tape records, and what ``decode_moves`` turns into ``Move`` objects.
CANCEL, INSERT, REVERSE = range(3)
CodeMove = tuple[int, int, int]


class IllegalMoveError(ValueError):
    """Raised when a recorded move cannot be replayed on the current word."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)


class _Tape:
    """A word as a mutable list of letter codes, rewritten in place by moves.

    Each move kind has one legality check, made on codes from the cells the
    move touches alone: ``cancel`` wants the pair in bounds, equal, and of
    the code given; ``insert`` a position in bounds; ``reverse`` a window in
    bounds of k + 1 distinct codes.  A cancel or an insert costs O(1) checks
    and one list splice, a window O(k).  Each move made is appended to
    ``moves`` as its (kind, pos, code) triple.  ``play`` replays a triple and
    ``apply`` a ``Move``, whose letter it decodes through the letter table,
    by the same checks.
    """

    def __init__(self, word: Word):
        table = _letter_table(word.params)
        self.params = word.params
        self.k = word.params.k
        self.letters = table.letters
        self.codes = table.codes
        self.cells = list(word.codes)
        self.moves: list[CodeMove] = []

    def word(self) -> Word:
        return _from_codes(self.params, tuple(self.cells))

    def cancel(self, pos: int, code: int | None, letter: Letter | None = None) -> None:
        """Delete the pair of ``code`` at pos, pos + 1.  ``letter`` names the
        recorded letter in the error, and is the only name of one the group
        does not hold (``code`` None)."""
        cells = self.cells
        if not 0 <= pos <= len(cells) - 2:
            raise IllegalMoveError(f"cancel position {pos} out of bounds")
        if cells[pos] != cells[pos + 1]:
            raise IllegalMoveError(f"letters at {pos}, {pos + 1} differ")
        if cells[pos] != code:
            recorded = self.letters[code] if letter is None else letter
            raise IllegalMoveError(f"recorded letter {recorded} does not match {self.letters[cells[pos]]}")
        del cells[pos : pos + 2]
        self.moves.append((CANCEL, pos, code))

    def insert(self, pos: int, code: int | None, letter: Letter | None = None) -> None:
        """Insert two copies of ``code`` at pos; ``letter`` as for ``cancel``."""
        cells = self.cells
        if not 0 <= pos <= len(cells):
            raise IllegalMoveError(f"insert position {pos} out of bounds")
        if code is None:
            raise _foreign(self.params, letter)
        cells[pos:pos] = (code, code)
        self.moves.append((INSERT, pos, code))

    def reverse(self, start: int) -> None:
        """Reverse the window of k + 1 cells from ``start``."""
        cells = self.cells
        end = start + self.k + 1
        if start < 0 or end > len(cells):
            raise IllegalMoveError(f"window [{start}, {end}) out of bounds for length {len(cells)}")
        window = cells[start:end]
        if len(set(window)) != self.k + 1:
            raise IllegalMoveError(f"letters at [{start}, {end}) do not cover a common (k+1)-set once each")
        cells[start:end] = window[::-1]
        self.moves.append((REVERSE, start, -1))

    def play(self, move: CodeMove) -> None:
        """Replay one (kind, pos, code) triple of this group."""
        kind, pos, code = move
        if kind == REVERSE:
            self.reverse(pos)
        elif kind == CANCEL:
            self.cancel(pos, code)
        else:
            self.insert(pos, code)

    def apply(self, move: Move) -> None:
        """Replay one ``Move``, raising ``IllegalMoveError`` when it is illegal
        here, and ``ValueError`` for an inserted letter the group does not hold."""
        if isinstance(move, ReverseWindow):
            self.reverse(move.pos)
        elif isinstance(move, CancelPair):
            self.cancel(move.pos, self.codes.get(move.letter.subset), move.letter)
        elif isinstance(move, InsertPair):
            self.insert(move.pos, self.codes.get(move.letter.subset), move.letter)
        else:
            raise IllegalMoveError(f"unknown move {move!r}")


def decode_moves(codes: Iterable[CodeMove], letters: tuple[Letter, ...]) -> tuple[Move, ...]:
    """The ``Move`` of each (kind, pos, code) triple, its letter read from ``letters``."""
    return tuple([
        ReverseWindow(pos) if kind == REVERSE
        else (CancelPair if kind == CANCEL else InsertPair)(pos, letters[code])
        for kind, pos, code in codes
    ])


def encode_moves(params: GroupParams, moves: Iterable[Move]) -> list[CodeMove]:
    """The (kind, pos, code) triple of each move over the letters of ``params``."""
    codes = _letter_table(params).codes
    return [
        (REVERSE, move.pos, -1) if isinstance(move, ReverseWindow)
        else (CANCEL if isinstance(move, CancelPair) else INSERT, move.pos, codes[move.letter.subset])
        for move in moves
    ]


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
    return move  # a window reversal is an involution


def free_reduce_with_trace(word: Word) -> tuple[Word, list[Move]]:
    """Left-to-right reduction, recording each cancellation as a move."""
    reduced, cancels = free_cancel(word.codes)
    letters = _letter_table(word.params).letters
    return _from_codes(word.params, reduced), [CancelPair(pos, letters[code]) for pos, code in cancels]


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

    States are words as tuples of letter codes, each freely reduced.  An
    edge applies one palindrome reversal, optionally preceded by one pair
    insertion overlapping the window (an insertion elsewhere cancels
    straight back on a reduced word), then cancels freely and keeps the
    cancellations it made.

    A window is k + 1 distinct codes, all k + 1 letters of the group.  An
    inserted copy must complete the k letters beside it to a window, so
    each insertion point has at most one candidate letter: when those k
    codes are distinct, the one code they miss.  Stored edges read off as
    primitive moves, so every Equal answer is certified move by move.
    """
    if w1.params != w2.params:
        raise ValueError("words live in different groups")
    if w1.letters == w2.letters:
        return OracleResult(True, (), 0)

    k = w1.params.k
    letters = w1.params.all_letters()
    code_sum = k * (k + 1) // 2     # of all k + 1 codes

    # yields (next_state, edge), an edge being (insert_pos, insert_code,
    # window_pos, cancellations) with insert_pos = -1 when nothing is inserted
    def successors(state: tuple[int, ...]):
        length = len(state)
        for pos in range(length - k):
            window = state[pos : pos + k + 1]
            if len(set(window)) == k + 1:
                nxt, cancels = free_cancel(state[:pos] + window[::-1] + state[pos + k + 1 :])
                yield nxt, (-1, -1, pos, cancels)
        if length + 2 <= max_len:
            for ins in range(length + 1):
                # the run of k letters beside the inserted pair c c starts at lo;
                # reversing the window c run (or run c) leaves c rev(run) c
                for wpos, lo in [(ins + 1, ins)] + ([(ins - k, ins - k)] if ins >= k else []):
                    run = state[lo : lo + k]
                    if len(set(run)) == k:
                        code = code_sum - sum(run)
                        nxt, cancels = free_cancel(state[:lo] + (code, *run[::-1], code) + state[lo + k :])
                        yield nxt, (ins, code, wpos, cancels)

    reduce1, cancels1 = free_reduce_with_trace(w1)
    reduce2, cancels2 = free_reduce_with_trace(w2)
    start, end = reduce1.codes, reduce2.codes

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
                    fwd_moves = _rebuild_moves(letters, parents[0], nxt)
                    bwd_moves = _rebuild_moves(letters, parents[1], nxt)
                    return finish(fwd_moves, bwd_moves, states)
                next_frontier.append(nxt)
                if states >= max_states:
                    return OracleResult(False, None, states)
        frontiers[side] = next_frontier

    return OracleResult(False, None, states)
