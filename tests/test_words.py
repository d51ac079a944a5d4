"""Words, parsing, primitive moves, relations, and the bounded oracle."""

import dataclasses
import random
import re
import time
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from projbraid.invariants import last_alias_occurrences, parity_vector
from projbraid.realization import letter_path
from projbraid.words import (
    CancelPair,
    GroupParams,
    IllegalMoveError,
    InsertPair,
    Letter,
    ReverseWindow,
    Word,
    WordSyntaxError,
    apply_move,
    bfs_equal_oracle,
    concat,
    format_word,
    free_reduce,
    free_reduce_with_trace,
    inverse,
    invert_move,
    parse_word,
)

P32 = GroupParams(3, 2)
P43 = GroupParams(4, 3)
P54 = GroupParams(5, 4)


def b(j: int, params: GroupParams = P43) -> Letter:
    return params.b_letter(j)


def word(*indices: int, params: GroupParams = P43) -> Word:
    return Word(params, tuple(b(j, params) for j in indices))


def replay(start: Word, moves, expected: Word) -> None:
    current = start
    for move in moves:
        current = apply_move(current, move)
    assert current.letters == expected.letters


class TestParams:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GroupParams(3, 3)
        with pytest.raises(ValueError):
            GroupParams(4, 1)

    def test_square_detection(self):
        for k in range(2, 9):
            GroupParams(k + 1, k)
        for n, k in [(5, 3), (3, 3), (4, 2), (6, 4), (1000, 2)]:
            message = f"only square groups n = k + 1 are supported, got n={n}, k={k}"
            with pytest.raises(ValueError, match=re.escape(message)):
                GroupParams(n, k)

    def test_subset_cap_boundary(self):
        assert len(GroupParams(1000, 999).all_letters()) == 1000
        with pytest.raises(ValueError, match=r"C\(n, k\) for n=1001, k=1000 exceeds the cap of 1000 subsets"):
            GroupParams(1001, 1000)

    # the cap on n comes first, so a huge n is refused without building anything
    @pytest.mark.parametrize("n, k", [(10**9, 2), (10**6, 5 * 10**5)])
    def test_huge_n_is_refused_before_comb_runs(self, n, k):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the cap of 1000 subsets"):
            GroupParams(n, k)
        assert time.perf_counter() - start < 1.0

    def test_letters_are_lexicographic(self):
        subsets = [l.subset for l in P43.all_letters()]
        assert subsets == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_b_alias_omits_descending_index(self):
        # b1 omits k+1, b_{k+1} omits 1
        assert b(1).subset == (1, 2, 3)
        assert b(4).subset == (2, 3, 4)
        assert Word(P43, (b(1), b(4))).codes == (0, 3)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_omitted_index_is_the_set_difference(self, k):
        params = GroupParams(k + 1, k)
        # the letter of code j - 1, bj, omits k + 2 - j (see realization.path_from_word)
        for code, letter in enumerate(params.all_letters()):
            (missing,) = set(range(1, k + 2)) - set(letter.subset)
            assert Word(params, (letter,)).codes == (k + 1 - missing,)
            assert params.b_letter(code + 1) == letter

    @pytest.mark.parametrize("subset", [(1, 2), (1, 2, 3, 4), (1, 2, 5)])
    def test_omitted_index_rejects_letters_of_other_groups(self, subset):
        # a letter path reads the omitted index off the letter's code
        with pytest.raises(ValueError, match="is not a k-subset of 1..4 for k=3"):
            letter_path(P43, Letter(subset), (1, 1))

    # a malformed subset is no key of the letter table, so a word refuses it
    # with the message of any other foreign letter
    @pytest.mark.parametrize(
        "subset, flaw",
        [((1, 1, 2), "repeated indices"), ((2, 1, 3), "must be sorted"), ((0, 1, 2), "1-based")],
    )
    def test_letter_rejects_malformed_subsets(self, subset, flaw):
        message = f"letter {Letter(subset)} is not a k-subset of 1..4 for k=3"
        with pytest.raises(ValueError, match=re.escape(message)):
            Word(P43, (Letter(subset),))


class TestLetterRule:
    """A letter of a group is exactly a k-subset of 1..n: one that its letter table holds."""

    @staticmethod
    def _verdicts(check, params):
        """The tuples over 0..n+1 of length 0..k+1 that ``check`` accepts, and
        each refused tuple's message (None when ``Letter`` itself refuses it)."""
        accepted, refused = set(), {}
        for length in range(params.k + 2):
            for t in product(range(params.n + 2), repeat=length):
                try:
                    letter = Letter(t)
                except ValueError:
                    refused[t] = None
                    continue
                try:
                    check(letter)
                except ValueError as exc:
                    refused[t] = str(exc)
                else:
                    accepted.add(t)
        return accepted, refused

    @pytest.mark.parametrize("n, k", [(3, 2), (4, 3), (5, 4)])
    def test_exactly_the_k_subsets_are_letters(self, n, k):
        params = GroupParams(n, k)
        checks = [
            lambda letter: Word(params, (letter,)),
            lambda letter: apply_move(Word(params, ()), InsertPair(0, letter)),
        ]
        for check in checks:
            accepted, refused = self._verdicts(check, params)
            assert accepted == set(combinations(range(1, n + 1), k))
            for t, message in refused.items():
                assert message is None or message.startswith(f"letter {Letter(t)} "), message

    @pytest.mark.parametrize("subset", [(1, 2), (1, 2, 3, 4), (1, 2, 5), (3, 2, 1), (0, 1, 2)])
    def test_one_message_from_every_lookup(self, subset):
        letter = Letter(subset)
        message = f"letter {letter} is not a k-subset of 1..4 for k=3"
        for refuse in (
            lambda: Word(P43, (letter,)),
            lambda: apply_move(word(1), InsertPair(0, letter)),
        ):
            with pytest.raises(ValueError) as err:
                refuse()
            assert str(err.value) == message


class TestParsing:
    def test_b_tokens(self):
        w = parse_word("b4 b1 b2 b3 b4", P43)
        assert w.codes == (3, 0, 1, 2, 3)

    def test_subset_tokens(self):
        w = parse_word("a{1,2} a{2,3}", P32)
        assert [l.subset for l in w.letters] == [(1, 2), (2, 3)]

    def test_empty_text_is_empty_word(self):
        assert parse_word("", P43).letters == ()
        assert parse_word("   ", P43).letters == ()

    def test_mixed_styles_allowed(self):
        w = parse_word("b4 a{1,2,3}", P43)
        assert w.letters == (b(4), b(1))

    @pytest.mark.parametrize(
        "text", ["b5", "b0", "a{1,2}", "a{1,2,5}", "a{1,1,2}", "zzz", "a{1,2,3"]
    )
    def test_bad_tokens_rejected(self, text):
        with pytest.raises(WordSyntaxError):
            parse_word(text, P43)

    def test_error_carries_token_position(self):
        with pytest.raises(WordSyntaxError) as err:
            parse_word("b1 b2 b9", P43)
        assert err.value.token_index == 2
        assert str(err.value) == "token 3 ('b9'): b-index must lie in 1..4"

    @pytest.mark.parametrize(
        "token, message",
        [("b" + "9" * 5000, "b-index must lie in 1..4"), ("a{1,2," + "9" * 5000 + "}", "index out of range 1..4")],
    )
    def test_index_beyond_the_int_conversion_limit(self, token, message):
        # int() refuses strings of more than 4300 digits with its own ValueError
        with pytest.raises(WordSyntaxError, match=message) as err:
            parse_word("b1 " + token, P43)
        assert err.value.token_index == 1
        assert err.value.token == token

    def test_format_roundtrip(self):
        w = word(4, 1, 2)
        assert parse_word(format_word(w, "b-index"), P43).letters == w.letters
        assert parse_word(format_word(w, "subset"), P43).letters == w.letters


class TestFreeReduction:
    def test_adjacent_equal_cancel(self):
        assert free_reduce(word(1, 1)).letters == ()
        assert free_reduce(word(2, 1, 1, 2)).letters == ()
        assert free_reduce(word(1, 2, 2, 3)).letters == word(1, 3).letters

    def test_trace_replays(self):
        w = word(2, 1, 1, 2, 4)
        reduced, moves = free_reduce_with_trace(w)
        assert reduced.letters == word(4).letters
        replay(w, moves, reduced)

    @given(st.lists(st.integers(1, 4), max_size=12))
    def test_idempotent(self, indices):
        w = word(*indices)
        once = free_reduce(w)
        assert free_reduce(once).letters == once.letters

    @given(st.lists(st.integers(1, 4), max_size=10))
    def test_word_times_inverse_reduces_to_nothing(self, indices):
        w = word(*indices)
        assert free_reduce(concat(w, inverse(w))).letters == ()

    def test_inverse_is_reversal(self):
        # every generator is an involution, so inversion just reverses
        assert inverse(word(1, 2, 3)).letters == word(3, 2, 1).letters


class TestMoves:
    def test_insert_then_cancel(self):
        w = word(1, 2)
        grown = apply_move(w, InsertPair(1, b(4)))
        assert grown.letters == word(1, 4, 4, 2).letters
        back = apply_move(grown, CancelPair(1, b(4)))
        assert back.letters == w.letters

    def test_cancel_requires_equal_pair(self):
        with pytest.raises(IllegalMoveError):
            apply_move(word(1, 2), CancelPair(0, b(1)))
        with pytest.raises(IllegalMoveError):
            apply_move(word(1, 1), CancelPair(0, b(2)))

    def test_reverse_window(self):
        w = word(4, 1, 2, 3)
        flipped = apply_move(w, ReverseWindow(0))
        assert flipped.letters == word(3, 2, 1, 4).letters

    def test_reverse_needs_distinct_window(self):
        with pytest.raises(IllegalMoveError):
            apply_move(word(1, 2, 1, 3), ReverseWindow(0))
        with pytest.raises(IllegalMoveError):
            apply_move(word(1, 2, 3), ReverseWindow(0))

    def test_invert_move_undoes(self):
        cases = [
            (word(1, 2, 3), InsertPair(1, b(4))),
            (word(1, 1, 2), CancelPair(0, b(1))),
            (word(2, 1, 3, 4), ReverseWindow(0)),
        ]
        for w, move in cases:
            forward = apply_move(w, move)
            back = apply_move(forward, invert_move(move))
            assert back.letters == w.letters, move


def _random_words(rng: random.Random, params: GroupParams, count: int = 20):
    letters = params.all_letters()
    return [Word(params, tuple(rng.choice(letters) for _ in range(rng.randint(0, 30)))) for _ in range(count)]


class TestCodes:
    """``Word.codes`` is every letter's position in ``all_letters()``."""

    def test_codes_are_positions_in_all_letters(self):
        rng = random.Random(20)
        for k in range(2, 9):
            params = GroupParams(k + 1, k)
            for w in _random_words(rng, params):
                assert w.codes == tuple(params.all_letters().index(l) for l in w.letters)
        assert Word(P43, ()).codes == ()

    def test_codes_leave_the_word_as_it_was(self):
        assert [f.name for f in dataclasses.fields(Word)] == ["params", "letters"]
        w = word(1, 4, 2, 4)
        before = (repr(w), hash(w))
        assert w.codes == (0, 3, 1, 3)
        assert (repr(w), hash(w)) == before
        assert w == word(1, 4, 2, 4)

    def test_invariants_match_a_lookup_by_index(self):
        rng = random.Random(21)
        for k in range(3, 6):
            params = GroupParams(k + 1, k)
            letters = params.all_letters()
            for w in _random_words(rng, params):
                codes = [letters.index(l) for l in w.letters]
                parity = [0] * (k + 1)
                counts, positions, indices = [0] * k, [], []
                for pos, code in enumerate(codes):
                    parity[code] ^= 1
                    if code == k:
                        raw = counts[: k - 1]
                        positions.append(pos)
                        indices.append(tuple(1 - c for c in raw) if counts[k - 1] else tuple(raw))
                    else:
                        counts[code] ^= 1
                assert parity_vector(w) == tuple(parity)
                assert last_alias_occurrences(w) == (positions, indices)


class TestRelations:
    """Window reversals through ``apply_move``, with their messages."""

    def test_window_reversal_square(self):
        w = word(2, 4, 1, 3)
        assert apply_move(w, ReverseWindow(0)).letters == word(3, 1, 4, 2).letters
        with pytest.raises(IllegalMoveError, match=r"^window \[1, 5\) out of bounds for length 4$"):
            apply_move(w, ReverseWindow(1))
        with pytest.raises(IllegalMoveError, match=r"^window \[-1, 3\) out of bounds for length 4$"):
            apply_move(w, ReverseWindow(-1))

    def test_window_reversal_general(self):
        # three letters covering all 2-subsets of {1,2,3}
        w = Word(P32, (Letter((1, 2)), Letter((1, 3)), Letter((2, 3))))
        out = apply_move(w, ReverseWindow(0))
        assert [l.subset for l in out.letters] == [(2, 3), (1, 3), (1, 2)]

    def test_window_must_cover_a_common_superset(self):
        w = Word(P32, (Letter((1, 2)), Letter((1, 3)), Letter((1, 2))))
        message = r"^letters at \[0, {}\) do not cover a common \(k\+1\)-set once each$"
        with pytest.raises(IllegalMoveError, match=message.format(3)):
            apply_move(w, ReverseWindow(0))
        with pytest.raises(IllegalMoveError, match=message.format(4)):
            apply_move(word(1, 2, 1, 3), ReverseWindow(0))

    @pytest.mark.parametrize("params, max_len", [(P43, 5), (P32, 3), (P54, 3)])
    def test_matches_the_relation_functions(self, params, max_len):
        # every window position, in bounds or not, on every short word
        table = params.all_letters()
        for length in range(max_len + 1):
            for letters in product(table, repeat=length):
                w = Word(params, letters)
                for pos in range(-1, length + 1):
                    try:
                        expected = _relation3(w, pos).letters
                    except ValueError as exc:
                        expected = str(exc)
                    try:
                        got = apply_move(w, ReverseWindow(pos)).letters
                    except IllegalMoveError as exc:
                        got = str(exc)
                    assert got == expected, (w, pos)


def _relation3(word: Word, start: int) -> Word:
    """The window reversal as a separate function, before ``apply_move`` took it in."""
    k = word.params.k
    if not 0 <= start <= len(word) - (k + 1):
        raise ValueError(f"window [{start}, {start + k + 1}) out of bounds for length {len(word)}")
    window = word.letters[start : start + k + 1]
    union = {i for letter in window for i in letter.subset}
    if len(set(window)) != k + 1 or len(union) != k + 1:
        raise ValueError(f"letters at [{start}, {start + k + 1}) do not cover a common (k+1)-set once each")
    return Word(word.params, word.letters[:start] + tuple(reversed(window)) + word.letters[start + k + 1 :])


class TestOracle:
    def test_identical_words_trivially_equal(self):
        w = word(1, 2, 3)
        res = bfs_equal_oracle(w, w)
        assert res.equal and res.trace == ()

    def test_freely_equal_words(self):
        w1, w2 = word(1, 2, 2, 3), word(1, 1, 1, 3)
        res = bfs_equal_oracle(w1, w2)
        assert res.equal
        replay(w1, res.trace, w2)

    def test_window_reversal_distance_one(self):
        w1, w2 = word(4, 1, 2, 3), word(3, 2, 1, 4)
        res = bfs_equal_oracle(w1, w2)
        assert res.equal
        replay(w1, res.trace, w2)

    def test_elimination_pair(self):
        w1, w2 = word(4, 1, 2, 3, 4), word(3, 2, 1)
        res = bfs_equal_oracle(w1, w2)
        assert res.equal
        replay(w1, res.trace, w2)

    def test_needs_insertion_edge(self):
        # b4 b1 b2 b1 b2 b4 = b3 b2 b1 b2 b1 b3 requires growing the word
        w1 = word(4, 1, 2, 1, 2, 4)
        w2 = word(3, 2, 1, 2, 1, 3)
        res = bfs_equal_oracle(w1, w2, max_len=14)
        assert res.equal
        replay(w1, res.trace, w2)

    def test_unknown_is_not_a_proof(self):
        res = bfs_equal_oracle(word(1), word(2), max_len=8, max_states=1000)
        assert not res.equal
        assert res.trace is None

    def test_rejects_mismatched_params(self):
        with pytest.raises(ValueError):
            bfs_equal_oracle(word(1), Word(P54, ()))

    def test_empty_target_reachable(self):
        w = word(1, 2, 3, 4, 1, 2, 3, 4)
        res = bfs_equal_oracle(w, Word(P43, ()), max_len=10)
        assert res.equal
        replay(w, res.trace, Word(P43, ()))
