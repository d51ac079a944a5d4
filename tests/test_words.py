"""Words, parsing, primitive moves, relations, and the bounded oracle."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from projbraid.words import (
    CancelPair,
    GroupParams,
    IllegalMoveError,
    InsertPair,
    Letter,
    ReverseWindow,
    SwapAdjacent,
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

P43 = GroupParams(4, 3)
P54 = GroupParams(5, 4)
P52 = GroupParams(5, 2)


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
        assert P43.is_square
        assert not P52.is_square
        with pytest.raises(ValueError):
            P52.require_square()

    def test_letters_are_lexicographic(self):
        subsets = [l.subset for l in P43.all_letters()]
        assert subsets == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_b_alias_omits_descending_index(self):
        # b1 omits k+1, b_{k+1} omits 1
        assert b(1).subset == (1, 2, 3)
        assert b(4).subset == (2, 3, 4)
        assert b(1).omitted_index(P43) == 4
        assert b(4).b_index(P43) == 4

    @pytest.mark.parametrize("k", range(2, 8))
    def test_omitted_index_is_the_set_difference(self, k):
        params = GroupParams(k + 1, k)
        for letter in params.all_letters():
            (missing,) = set(range(1, k + 2)) - set(letter.subset)
            assert letter.omitted_index(params) == missing
            assert params.b_letter(letter.b_index(params)) == letter

    @pytest.mark.parametrize("subset", [(1, 2), (1, 2, 3, 4), (1, 2, 5)])
    def test_omitted_index_rejects_letters_of_other_groups(self, subset):
        with pytest.raises(ValueError):
            Letter(subset).omitted_index(P43)

    def test_omitted_index_needs_square_params(self):
        with pytest.raises(ValueError):
            Letter((1, 2)).omitted_index(P52)


class TestParsing:
    def test_b_tokens(self):
        w = parse_word("b4 b1 b2 b3 b4", P43)
        assert [l.b_index(P43) for l in w.letters] == [4, 1, 2, 3, 4]

    def test_subset_tokens(self):
        w = parse_word("a{1,2} a{3,4}", P52)
        assert [l.subset for l in w.letters] == [(1, 2), (3, 4)]

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
        assert "b9" in str(err.value)

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

    def test_b_tokens_need_square_params(self):
        with pytest.raises(WordSyntaxError):
            parse_word("b1", P52)

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

    def test_swap_is_void_on_square_params(self):
        with pytest.raises(IllegalMoveError):
            apply_move(word(1, 2), SwapAdjacent(0))

    def test_swap_on_disjoint_subsets(self):
        w = Word(P52, (Letter((1, 2)), Letter((3, 4))))
        swapped = apply_move(w, SwapAdjacent(0))
        assert [l.subset for l in swapped.letters] == [(3, 4), (1, 2)]

    def test_swap_rejects_overlapping_subsets(self):
        w = Word(P52, (Letter((1, 2)), Letter((2, 3))))
        with pytest.raises(IllegalMoveError):
            apply_move(w, SwapAdjacent(0))

    def test_invert_move_undoes(self):
        cases = [
            (word(1, 2, 3), InsertPair(1, b(4))),
            (word(1, 1, 2), CancelPair(0, b(1))),
            (word(2, 1, 3, 4), ReverseWindow(0)),
            (Word(P52, (Letter((1, 2)), Letter((4, 5)))), SwapAdjacent(0)),
        ]
        for w, move in cases:
            forward = apply_move(w, move)
            back = apply_move(forward, invert_move(move))
            assert back.letters == w.letters, move


class TestRelations:
    """Window reversals and swaps through ``apply_move``, with their messages."""

    def test_far_commutation_needs_small_overlap(self):
        w = Word(P52, (Letter((1, 2)), Letter((3, 4))))
        swapped = apply_move(w, SwapAdjacent(0))
        assert [l.subset for l in swapped.letters] == [(3, 4), (1, 2)]
        overlapping = Word(P52, (Letter((1, 2)), Letter((2, 3))))
        with pytest.raises(IllegalMoveError, match=r"^a\{1,2\} and a\{2,3\} do not far-commute$"):
            apply_move(overlapping, SwapAdjacent(0))
        with pytest.raises(IllegalMoveError, match=r"^position 1 out of bounds for length 2$"):
            apply_move(w, SwapAdjacent(1))
        with pytest.raises(IllegalMoveError, match=r"^position -1 out of bounds for length 2$"):
            apply_move(w, SwapAdjacent(-1))

    def test_far_commutation_void_when_square(self):
        with pytest.raises(IllegalMoveError, match=r"^a\{1,2,3\} and a\{1,2,4\} do not far-commute$"):
            apply_move(word(1, 2), SwapAdjacent(0))

    def test_window_reversal_square(self):
        w = word(2, 4, 1, 3)
        assert apply_move(w, ReverseWindow(0)).letters == word(3, 1, 4, 2).letters
        with pytest.raises(IllegalMoveError, match=r"^window \[1, 5\) out of bounds for length 4$"):
            apply_move(w, ReverseWindow(1))
        with pytest.raises(IllegalMoveError, match=r"^window \[-1, 3\) out of bounds for length 4$"):
            apply_move(w, ReverseWindow(-1))

    def test_window_reversal_general(self):
        # three letters covering all 2-subsets of {1,2,3}
        w = Word(P52, (Letter((1, 2)), Letter((1, 3)), Letter((2, 3))))
        out = apply_move(w, ReverseWindow(0))
        assert [l.subset for l in out.letters] == [(2, 3), (1, 3), (1, 2)]

    def test_window_must_cover_a_common_superset(self):
        w = Word(P52, (Letter((1, 2)), Letter((1, 3)), Letter((1, 4))))
        message = r"^letters at \[0, {}\) do not cover a common \(k\+1\)-set once each$"
        with pytest.raises(IllegalMoveError, match=message.format(3)):
            apply_move(w, ReverseWindow(0))
        with pytest.raises(IllegalMoveError, match=message.format(4)):
            apply_move(word(1, 2, 1, 3), ReverseWindow(0))

    @pytest.mark.parametrize("params, max_len", [(P43, 5), (P52, 3), (P54, 3)])
    def test_matches_the_relation_functions(self, params, max_len):
        # every window and swap position, in bounds or not, on every short word
        table = params.all_letters()
        for length in range(max_len + 1):
            for letters in product(table, repeat=length):
                w = Word(params, letters)
                for pos in range(-1, length + 1):
                    for move, relation in ((ReverseWindow(pos), _relation3), (SwapAdjacent(pos), _relation2)):
                        try:
                            expected = relation(w, pos).letters
                        except ValueError as exc:
                            expected = str(exc)
                        try:
                            got = apply_move(w, move).letters
                        except IllegalMoveError as exc:
                            got = str(exc)
                        assert got == expected, (w, move)


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


def _relation2(word: Word, i: int) -> Word:
    """The far-commutation swap as a separate function, before ``apply_move`` took it in."""
    if not 0 <= i <= len(word) - 2:
        raise ValueError(f"position {i} out of bounds for length {len(word)}")
    a, b = word.letters[i], word.letters[i + 1]
    if len(set(a.subset) & set(b.subset)) >= word.params.k - 1:
        raise ValueError(f"{a} and {b} do not far-commute")
    return Word(word.params, word.letters[:i] + (b, a) + word.letters[i + 2 :])


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

    def test_commutation_edge_on_wide_params(self):
        w1 = Word(P52, (Letter((1, 2)), Letter((3, 4))))
        w2 = Word(P52, (Letter((3, 4)), Letter((1, 2))))
        res = bfs_equal_oracle(w1, w2)
        assert res.equal
        replay(w1, res.trace, w2)

    def test_rejects_mismatched_params(self):
        with pytest.raises(ValueError):
            bfs_equal_oracle(word(1), Word(P54, ()))

    def test_empty_target_reachable(self):
        w = word(1, 2, 3, 4, 1, 2, 3, 4)
        res = bfs_equal_oracle(w, Word(P43, ()), max_len=10)
        assert res.equal
        replay(w, res.trace, Word(P43, ()))
