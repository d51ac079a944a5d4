"""Traces kept as (kind, pos, code) triples against the moves built before.

Elimination used to build a ``CancelPair``, ``InsertPair`` or
``ReverseWindow`` for every move it made; now the tape records triples and
``EliminationTrace.steps`` builds the moves when it is first read.
``reference_eliminate`` below is the earlier surgery, on a plain list of
codes, building each ``Move`` as it goes; the steps of a code trace must be
those moves, and ``check_trace`` must treat a trace of codes and the same
trace given as moves alike, down to the step an error names.
"""

import random

import pytest

from projbraid.invariants import free_product_reduce, last_alias_occurrences
from projbraid.solver import EliminationTrace, Status, check_trace, eliminate_last, equal, solve
from projbraid.words import (
    CANCEL,
    INSERT,
    REVERSE,
    CancelPair,
    GroupParams,
    IllegalMoveError,
    InsertPair,
    ReverseWindow,
    Word,
    concat,
    decode_moves,
    encode_moves,
    free_cancel,
    free_reduce,
    free_reduce_with_trace,
    inverse,
    parse_word,
)

PARAMS = [GroupParams(k + 1, k) for k in (3, 4, 5, 6)]


def reference_block(cells: list[int], first: int, second: int, k: int, letters, moves: list) -> None:
    """The earlier ``_eliminate_block``: the same rounds, each move built as a
    ``Move`` and applied to ``cells`` without checks."""
    last = k

    def cancel(pos, code):
        del cells[pos : pos + 2]
        moves.append(CancelPair(pos, letters[code]))

    def insert(pos, code):
        cells[pos:pos] = (code, code)
        moves.append(InsertPair(pos, letters[code]))

    def reverse(pos):
        cells[pos : pos + k + 1] = cells[pos : pos + k + 1][::-1]
        moves.append(ReverseWindow(pos))

    for pos, code in free_cancel(cells[first + 1 : second])[1]:
        cancel(first + 1 + pos, code)
        second -= 2
    while second > first + 1:
        head = cells[first + 1 : min(second, first + k + 2)]
        if len(set(head)) == len(head):
            reverse(first)
            first += k
            break
        repeat = next(p for p in range(1, len(head)) if head[p] in head[:p])
        prefix, repeated = head[:repeat], head[repeat]
        p_codes = [code for code in range(k) if code not in prefix]
        q_codes = sorted(set(prefix) - {repeated})
        for mirrored, tail in ((p_codes, repeat), (q_codes, len(p_codes) + 1)):
            for j, code in enumerate(reversed(mirrored)):
                insert(first + j, code)
            reverse(first + len(mirrored))
            first += len(mirrored) + tail
            second += 2 * len(mirrored)
        junction = first + 1 + len(q_codes)
        while first + 1 < junction < second and cells[junction - 1] == cells[junction]:
            junction -= 1
            cancel(junction, cells[junction])
            second -= 2
    cancel(first, last)


def reference_eliminate(word: Word) -> tuple[tuple[int, ...], list]:
    """The earlier ``eliminate_last``: its residue codes and its moves."""
    positions, indices = last_alias_occurrences(word)
    assert not free_product_reduce(tuple(indices))
    k, letters = word.params.k, word.params.all_letters()
    cells, moves, unmatched, shift = list(word.codes), [], [], 0
    for pos, index in zip(positions, indices):
        if unmatched and unmatched[-1][1] == index:
            left, _ = unmatched.pop()
            length = len(cells)
            reference_block(cells, left, pos + shift, k, letters, moves)
            shift += len(cells) - length
        else:
            unmatched.append((pos + shift, index))
    return tuple(cells), moves


def trivial_word(params: GroupParams, length: int, rng: random.Random) -> Word:
    """A word equal to the identity: windows, each followed by itself, at
    random places (a window squared is a relator), then letter pairs."""
    k = params.k
    codes: list[int] = []
    while len(codes) < length:
        pos = rng.randint(0, len(codes))
        if rng.random() < 0.5:
            window = rng.sample(range(k + 1), k + 1)
            codes[pos:pos] = window + window
        else:
            code = rng.randrange(k + 1)
            codes[pos:pos] = [code, code]
    letters = params.all_letters()
    return Word(params, tuple(letters[code] for code in codes))


def words():
    rng = random.Random(36)
    return [trivial_word(params, length, rng) for params in PARAMS for length in (8, 40, 160, 400)]


@pytest.mark.parametrize("word", words(), ids=lambda w: f"k{w.params.k}-len{len(w)}")
def test_code_trace_steps_are_the_moves_built_before(word):
    residue, expected = reference_eliminate(word)
    rewritten, trace = eliminate_last(word)
    assert trace.codes is not None and len(trace) == len(expected)
    assert rewritten.codes == residue
    assert list(trace.steps) == expected
    assert trace.steps is trace.steps   # built once
    given = EliminationTrace(expected)
    assert trace == given and hash(trace) == hash(given) and list(trace) == expected

    verdict = solve(word)
    residue, cancels = free_reduce_with_trace(rewritten)
    if residue.codes:   # k >= 4 may leave a residue
        assert verdict.status is Status.UNKNOWN and verdict.trace is None
        return
    assert list(verdict.trace.steps) == expected + cancels
    assert verdict == type(verdict)(Status.TRIVIAL, trace=EliminationTrace(expected + cancels))


def test_codes_and_moves_convert_both_ways():
    params = GroupParams(5, 4)
    word = trivial_word(params, 400, random.Random(7))
    trace = eliminate_last(word)[1]
    assert decode_moves(trace.codes, trace.letters) == trace.steps
    assert tuple(encode_moves(params, trace.steps)) == trace.codes
    assert {kind for kind, _, _ in trace.codes} == {CANCEL, INSERT, REVERSE}


def outcome(word: Word, trace: EliminationTrace, output: Word):
    try:
        return "replays", check_trace(word, trace, output)
    except IllegalMoveError as exc:
        return "illegal", exc.step, str(exc)


def broken(codes: list, rng: random.Random, k: int) -> list:
    """``codes`` with one triple changed, or one dropped: a shifted position,
    another letter, or a cancel and an insert swapped."""
    codes = list(codes)
    i = rng.randrange(len(codes))
    kind, pos, code = codes[i]
    change = rng.choice(["pos", "letter", "kind", "drop"])
    if change == "pos":
        codes[i] = (kind, pos + rng.choice([-2, -1, 1, 2]), code)
    elif change == "letter" and kind != REVERSE:
        codes[i] = (kind, pos, (code + rng.randint(1, k)) % (k + 1))
    elif change == "kind" and kind != REVERSE:
        codes[i] = (INSERT if kind == CANCEL else CANCEL, pos, code)
    else:
        del codes[i]
    return codes


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"k{p.k}")
def test_check_trace_names_the_same_step_for_codes_and_moves(params):
    rng = random.Random(params.k)
    outcomes = set()
    for _ in range(60):
        word = trivial_word(params, rng.choice((12, 40, 100)), rng)
        rewritten, trace = eliminate_last(word)
        if not trace.codes:
            continue
        codes = tuple(broken(trace.codes, rng, params.k))
        as_codes = EliminationTrace(codes=codes, letters=trace.letters)
        as_moves = EliminationTrace(decode_moves(codes, trace.letters))
        got = outcome(word, as_codes, rewritten)
        assert got == outcome(word, as_moves, rewritten)
        outcomes.add(got[0])
    assert outcomes == {"replays", "illegal"}


def test_a_trace_of_another_group_replays_its_moves():
    """Codes are only read against the letters they were made over."""
    word = parse_word("b4 b1 b2 b3 b4", GroupParams(4, 3))
    other = parse_word("b5 b1 b2 b3 b4 b5", GroupParams(5, 4))
    trace = eliminate_last(other)[1]
    assert outcome(word, trace, word) == outcome(word, EliminationTrace(trace.steps), word)
    with pytest.raises(IllegalMoveError):
        check_trace(word, trace, word)


def test_equal_traces_replay():
    rng = random.Random(11)
    params = GroupParams(4, 3)
    w1, w2 = trivial_word(params, 30, rng), trivial_word(params, 30, rng)
    verdict = equal(w1, w2)
    assert verdict.status is Status.TRIVIAL and verdict.trace.codes
    assert check_trace(free_reduce(concat(w1, inverse(w2))), verdict.trace, Word(params, ()))
