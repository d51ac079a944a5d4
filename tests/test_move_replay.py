"""Move replay on the integer tape against the tuple replay it replaced.

``reference_apply_move`` below is the earlier ``apply_move``: it rebuilds the
letter tuple on every move and lets ``Word`` revalidate every letter.  The
tape checks only the cells a move touches.  On seeded random sequences of
legal and illegal moves both must give the same words, or the same exception
type and message, and ``check_trace`` must stop at the same step.
"""

import random

import pytest

from projbraid.solver import EliminationTrace, check_trace
from projbraid.words import (
    CancelPair,
    GroupParams,
    IllegalMoveError,
    InsertPair,
    Letter,
    ReverseWindow,
    Word,
    apply_move,
)


def _window_is_palindromic(letters, k):
    if len(set(letters)) != k + 1:
        return False
    union = set()
    for letter in letters:
        union.update(letter.subset)
    return len(union) == k + 1


def reference_apply_move(word, move):
    letters = word.letters
    if isinstance(move, CancelPair):
        if not 0 <= move.pos <= len(letters) - 2:
            raise IllegalMoveError(f"cancel position {move.pos} out of bounds")
        if letters[move.pos] != letters[move.pos + 1]:
            raise IllegalMoveError(f"letters at {move.pos}, {move.pos + 1} differ")
        if letters[move.pos] != move.letter:
            raise IllegalMoveError(f"recorded letter {move.letter} does not match {letters[move.pos]}")
        return Word(word.params, letters[: move.pos] + letters[move.pos + 2 :])
    if isinstance(move, InsertPair):
        if not 0 <= move.pos <= len(letters):
            raise IllegalMoveError(f"insert position {move.pos} out of bounds")
        return Word(word.params, letters[: move.pos] + (move.letter, move.letter) + letters[move.pos :])
    if isinstance(move, ReverseWindow):
        start, end = move.pos, move.pos + word.params.k + 1
        if start < 0 or end > len(letters):
            raise IllegalMoveError(f"window [{start}, {end}) out of bounds for length {len(letters)}")
        window = letters[start:end]
        if not _window_is_palindromic(window, word.params.k):
            raise IllegalMoveError(f"letters at [{start}, {end}) do not cover a common (k+1)-set once each")
        return Word(word.params, letters[:start] + window[::-1] + letters[end:])
    raise IllegalMoveError(f"unknown move {move!r}")


def outcome(apply, word, move):
    """("ok", the resulting letters) or ("error", the exception's type and message)."""
    try:
        return "ok", apply(word, move).letters
    except ValueError as exc:
        return "error", type(exc), str(exc)


def foreign_letters(params):
    """Letters outside the group: one of the wrong size, one out of range."""
    return [Letter(tuple(range(1, params.k))), Letter(tuple(range(2, params.k + 1)) + (params.n + 1,))]


def random_word(params, rng, length):
    """Random letters, with runs of all k + 1 letters, so that windows are
    legal somewhere."""
    letters = params.all_letters()
    out = []
    while len(out) < length:
        if rng.random() < 0.3:
            run = list(letters)
            rng.shuffle(run)
            out.extend(run)
        else:
            out.append(rng.choice(letters))
    return Word(params, tuple(out))


def random_move(word, rng):
    """A move for ``word``: legal about half the time, otherwise illegal in
    one of the ways the replay checks."""
    params, letters = word.params, word.letters
    n = len(letters)
    alphabet = params.all_letters()
    kind = rng.choice([0, 1, 2] * 10 + [3])
    if kind == 0:
        pairs = [i for i in range(n - 1) if letters[i] == letters[i + 1]]
        if pairs and rng.random() < 0.6:
            pos = rng.choice(pairs)
            wrong = alphabet + tuple(foreign_letters(params))
            letter = letters[pos] if rng.random() < 0.8 else rng.choice(wrong)
        else:
            pos = rng.randint(-2, n + 1)
            letter = rng.choice(alphabet)
        return CancelPair(pos, letter)
    if kind == 1:
        letter = rng.choice(alphabet) if rng.random() < 0.85 else rng.choice(foreign_letters(params))
        return InsertPair(rng.randint(-2, n + 2), letter)
    if kind == 2:
        k = params.k
        windows = [i for i in range(n - k) if _window_is_palindromic(letters[i : i + k + 1], k)]
        if windows and rng.random() < 0.6:
            return ReverseWindow(rng.choice(windows))
        return ReverseWindow(rng.randint(-2, n + 1))
    return "not a move"


PARAMS = [GroupParams(4, 3), GroupParams(5, 4), GroupParams(6, 5), GroupParams(3, 2), GroupParams(7, 6)]


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"n{p.n}-k{p.k}")
def test_each_move_matches_the_tuple_replay(params):
    rng = random.Random(1000 * params.n + params.k)
    kinds = {True: set(), False: set()}
    for _ in range(20):
        word = random_word(params, rng, rng.randint(0, 24))
        for _ in range(60):
            move = random_move(word, rng)
            expected = outcome(reference_apply_move, word, move)
            assert outcome(apply_move, word, move) == expected, (str(word), move)
            kinds[expected[0] == "ok"].add(type(move).__name__)
            if expected[0] == "ok":
                word = Word(params, expected[1])
    # every move kind was seen applied and refused
    assert kinds[False] >= {"CancelPair", "InsertPair", "ReverseWindow", "str"}
    assert kinds[True] >= {"CancelPair", "InsertPair", "ReverseWindow"}


def reference_replay(word, moves):
    """The ``check_trace`` replay over the tuple moves: the end word, or the
    failing step and the exception's type and message.  Every refused step
    is an ``IllegalMoveError`` with its index, an inserted letter the group
    does not hold (a plain ``ValueError`` from ``Word``) included."""
    for step, move in enumerate(moves):
        try:
            word = reference_apply_move(word, move)
        except ValueError as exc:
            return step, IllegalMoveError, f"step {step}: {exc}"
    return word


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"n{p.n}-k{p.k}")
def test_check_trace_stops_at_the_same_step(params):
    rng = random.Random(7 * params.n + params.k)
    stopped = 0
    for _ in range(40):
        start = random_word(params, rng, rng.randint(0, 20))
        moves, word = [], start
        for _ in range(rng.randint(1, 40)):
            move = random_move(word, rng)
            moves.append(move)
            result = outcome(reference_apply_move, word, move)
            if result[0] == "error":
                break
            word = Word(params, result[1])
        trace = EliminationTrace(tuple(moves))
        expected = reference_replay(start, moves)
        if isinstance(expected, Word):
            assert check_trace(start, trace, expected)
            assert not check_trace(start, trace, Word(params, expected.letters + params.all_letters()[:1]))
            continue
        stopped += 1
        step, kind, message = expected
        with pytest.raises(ValueError) as err:
            check_trace(start, trace, start)
        assert (type(err.value), str(err.value)) == (kind, message)
        assert getattr(err.value, "step", None) == step
    assert stopped >= 10


def test_replay_refuses_a_group_beyond_the_subset_cap():
    # C(1001, 1000) letters would be enumerated for the letter table; no word
    # over such a group can be built, so no move on one can be replayed
    with pytest.raises(ValueError, match="exceeds the cap of 1000 subsets"):
        GroupParams(1001, 1000)
