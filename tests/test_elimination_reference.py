"""``eliminate_last`` against the elimination it replaced.

The replaced algorithm recomputed the index string of every ``b(k+1)``
occurrence from the current word in every round and took the leftmost
adjacent pair with equal strings; ``eliminate_last`` computes them once,
relies on their invariance, and matches pairs with a stack in one
left-to-right pass.  ``reference_eliminate`` below keeps the old per-round
rescan, with an index scan written here rather than taken from the
package, and both must agree on the residue and on the trace, move for
move.
"""

import dataclasses
import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from projbraid.invariants import occurrence_index
from projbraid.solver import EliminationTrace, check_trace, eliminate_last, inner_eliminate
from projbraid.words import CancelPair, GroupParams, InsertPair, ReverseWindow, Word

P43 = GroupParams(4, 3)
P54 = GroupParams(5, 4)
P65 = GroupParams(6, 5)
P76 = GroupParams(7, 6)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def scan_indices(word: Word) -> list[tuple[int, ...]]:
    """Index strings of all last-alias occurrences, recomputed from scratch:
    parities of b1..bk before each one, flipped when the bk bit is 1, bk dropped."""
    k = word.params.k
    counts = [0] * k
    out = []
    for code in word.codes:
        if code == k:   # b(k+1)
            flip = counts[k - 1]
            out.append(tuple(c ^ flip for c in counts[: k - 1]))
        else:
            counts[code] ^= 1
    return out


def reduces_to_identity(indices: list[tuple[int, ...]]) -> bool:
    stack: list[tuple[int, ...]] = []
    for gen in indices:
        if stack and stack[-1] == gen:
            stack.pop()
        else:
            stack.append(gen)
    return not stack


def reference_eliminate(word: Word) -> tuple[Word, EliminationTrace]:
    """The replaced ``eliminate_last``: every round rescans the current word."""
    params = word.params
    last = params.b_letter(params.k + 1)
    moves = []
    current = word
    while True:
        positions = [i for i, letter in enumerate(current.letters) if letter == last]
        if not positions:
            break
        indices = scan_indices(current)
        candidates = [j for j in range(len(positions) - 1) if indices[j] == indices[j + 1]]
        choice = candidates[0]
        left, right = positions[choice], positions[choice + 1]
        replacement, trace = inner_eliminate(Word(params, current.letters[left + 1 : right]))
        moves.extend(dataclasses.replace(move, pos=move.pos + left) for move in trace)
        current = Word(params, current.letters[:left] + replacement.letters + current.letters[right + 1 :])
    return current, EliminationTrace(tuple(moves))


def empty_image_words(params: GroupParams, max_len: int) -> list[Word]:
    """Every word of length <= max_len with empty image; at max_len only the
    freely reduced ones, which keeps the k = 3 sweep to about a second."""
    alphabet = [params.b_letter(j) for j in range(1, params.k + 2)]
    words = []
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            if length == max_len and any(a == b for a, b in zip(letters, letters[1:])):
                continue
            word = Word(params, letters)
            if reduces_to_identity(scan_indices(word)):
                words.append(word)
    return words


def scrambled(params: GroupParams, seed_word: list[int], length: int, rng: random.Random) -> Word:
    """Grow ``seed_word`` to ``length`` letters by pair insertions and window
    reversals; both keep the image, so an empty-image seed stays empty."""
    k = params.k
    ids = list(seed_word)
    while len(ids) < length:
        pos = rng.randint(0, max(len(ids) - k - 1, 0))
        window = ids[pos : pos + k + 1]
        if rng.random() < 0.4 and len(set(window)) == k + 1:
            ids[pos : pos + k + 1] = window[::-1]
        else:
            x = rng.randint(1, k + 1)
            ids[pos:pos] = [x, x]
    return Word(params, tuple(params.b_letter(j) for j in ids))


def wwinv(length: int, seed: int) -> Word:
    rng = random.Random(seed)
    half = [P43.b_letter(rng.randint(1, 4)) for _ in range(length // 2)]
    return Word(P43, tuple(half + half[::-1]))


def long_words() -> list[Word]:
    rng = random.Random(2024)
    words = []
    for length in (64, 128, 256, 512):
        for seed_word in ([], [1, 2, 1, 2], [4, 1, 1, 4]):
            words.append(scrambled(P43, seed_word, length, rng))
    words += [scrambled(params, [], length, rng) for params in (P54, P65, P76) for length in (64, 128)]
    return words + [wwinv(400, 1), wwinv(800, 2)]


def assert_matches_reference(word: Word) -> None:
    expected = reference_eliminate(word)
    got = eliminate_last(word)
    assert got[0].letters == expected[0].letters, str(word)
    assert got[1].steps == expected[1].steps, str(word)
    assert check_trace(word, got[1], got[0]), str(word)


@pytest.mark.parametrize("params, max_len", [(P43, 8), (P54, 6)], ids=["k3-len8", "k4-len6"])
def test_all_short_words_match_reference(params, max_len):
    words = empty_image_words(params, max_len)
    assert len(words) > 1000
    for word in words:
        assert_matches_reference(word)


@pytest.mark.parametrize("word", long_words(), ids=lambda w: f"k{w.params.k}-len{len(w)}")
def test_long_words_match_reference(word):
    assert_matches_reference(word)


def test_scan_agrees_with_occurrence_index():
    for word in empty_image_words(P43, 6)[::7] + long_words()[:4]:
        positions = [i for i, letter in enumerate(word.letters) if letter == P43.b_letter(4)]
        assert scan_indices(word) == [occurrence_index(word, p) for p in positions]


def reference_block_moves(block: list[int], k: int) -> tuple[list[int], list]:
    """The rounds of the replaced ``inner_eliminate`` on b(k+1) . block . b(k+1),
    played on a plain list of b-indices: every round reduces the whole
    enclosed block freely again and rescans it for the leftmost repeat.
    Returns the rewritten b-indices and the moves."""
    params = GroupParams(k + 1, k)
    word = [k + 1] + list(block) + [k + 1]
    moves = []

    def cancel(pos):
        moves.append(CancelPair(pos, params.b_letter(word[pos])))
        del word[pos : pos + 2]

    def insert(pos, j):
        moves.append(InsertPair(pos, params.b_letter(j)))
        word[pos:pos] = [j, j]

    def reverse(pos):
        moves.append(ReverseWindow(pos))
        word[pos : pos + k + 1] = word[pos : pos + k + 1][::-1]

    first, second = 0, len(word) - 1
    while True:
        stack = []
        for j in word[first + 1 : second]:
            if stack and stack[-1] == j:
                stack.pop()
                cancel(first + 1 + len(stack))
                second -= 2
            else:
                stack.append(j)
        if not stack:
            cancel(first)
            return word, moves
        repeat = next((p for p in range(len(stack)) if stack[p] in stack[:p]), None)
        if repeat is None:
            reverse(first)
            cancel(first + k)
            return word, moves
        prefix, repeated = stack[:repeat], stack[repeat]
        missing = [j for j in range(1, k + 1) if j not in prefix]
        others = sorted(set(prefix) - {repeated})
        for mirrored, tail in ((missing, repeat), (others, len(missing) + 1)):
            for i, j in enumerate(reversed(mirrored)):
                insert(first + i, j)
            reverse(first + len(mirrored))
            first += len(mirrored) + tail
            second += 2 * len(mirrored)


def equal_parity_block(k: int, m: int, rng: random.Random) -> list[int]:
    """A freely reduced block of m b-indices from 1..k whose alias counts share one parity."""
    while True:
        block = [rng.randint(1, k)]
        while len(block) < m:
            block.append(rng.choice([j for j in range(1, k + 1) if j != block[-1]]))
        if len({block.count(j) % 2 for j in range(1, k + 1)}) == 1:
            return block


def assert_block_matches_the_full_rescan(k: int, block: list[int]) -> None:
    params = GroupParams(k + 1, k)
    word = Word(params, tuple(params.b_letter(j) for j in [k + 1] + block + [k + 1]))
    expected_word, expected_moves = reference_block_moves(block, k)
    rewritten, trace = eliminate_last(word)
    assert [code + 1 for code in rewritten.codes] == expected_word
    assert list(trace.steps) == expected_moves
    assert len(trace) > len(block)
    assert check_trace(word, trace, rewritten)


def test_long_block_matches_the_full_rescan():
    assert_block_matches_the_full_rescan(3, equal_parity_block(3, 256, random.Random(256)))


@pytest.mark.parametrize("k", [4, 5, 6])
def test_long_block_matches_the_full_rescan_at_higher_k(k):
    assert_block_matches_the_full_rescan(k, equal_parity_block(k, 128, random.Random(k)))


@pytest.fixture(scope="module")
def solve_long_words(tmp_path_factory):
    """The words of the benchmark's ``solve-long`` workload, seed 7, whose image is empty."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    ops = inputs.build("solve-long", 7, tmp_path_factory.mktemp("solve-long"))["ops"]
    words = [Word(P43, tuple(P43.b_letter(j) for j in op["word"])) for op in ops]
    return [word for word in words if reduces_to_identity(scan_indices(word))]


def test_benchmark_words_match_reference(solve_long_words):
    assert len(solve_long_words) > 200
    for word in solve_long_words:
        assert_matches_reference(word)
