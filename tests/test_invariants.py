"""Occurrence indices, the obstruction map, parities, and the sign action."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from projbraid.invariants import (
    f_image,
    format_obstruction,
    format_sign_string,
    free_product_reduce,
    in_tilde_subgroup,
    occurrence_index,
    parity_vector,
    parse_sign_string,
    reference_signs,
    sign_action,
    sign_orbit,
)
from projbraid.selftest import _random_legal_move
from projbraid.words import GroupParams, Letter, Word, apply_move, concat, inverse, parse_word

P43 = GroupParams(4, 3)
P54 = GroupParams(5, 4)


def w43(text: str) -> Word:
    return parse_word(text, P43)


# hand-computed: bits are the parities of b1..bk before the occurrence,
# flipped wholesale when the bk bit is set, then truncated to k-1 entries
class TestOccurrenceIndex:
    def test_first_occurrence_is_zero(self):
        assert occurrence_index(w43("b4 b1 b4"), 0) == (0, 0)

    def test_counts_preceding_letters(self):
        assert occurrence_index(w43("b4 b1 b4"), 2) == (1, 0)
        assert occurrence_index(w43("b1 b2 b4"), 2) == (1, 1)

    def test_normalization_flips_on_bk(self):
        assert occurrence_index(w43("b3 b4"), 1) == (1, 1)
        assert occurrence_index(w43("b1 b3 b4"), 2) == (0, 1)

    def test_last_alias_occurrences_not_counted(self):
        assert occurrence_index(w43("b4 b4"), 1) == (0, 0)

    def test_position_must_hold_last_alias(self):
        with pytest.raises(ValueError):
            occurrence_index(w43("b1 b4"), 0)


class TestFImage:
    def test_empty_without_last_alias(self):
        assert f_image(w43("b1 b2 b3 b1")) == ()

    def test_distinct_indices_stay(self):
        assert format_obstruction(f_image(w43("b4 b1 b4"))) == "c(0,0) c(1,0)"

    def test_equal_adjacent_indices_cancel(self):
        assert f_image(w43("b4 b1 b1 b4")) == ()
        assert f_image(w43("b4 b1 b2 b3 b4")) == ()

    def test_nested_cancellation(self):
        # the two right-hand occurrences share their index and cancel
        assert f_image(w43("b4 b4 b4 b4")) == ()
        assert format_obstruction(f_image(w43("b4 b1 b4 b4"))) == "c(0,0)"

    def test_free_product_reduce(self):
        assert free_product_reduce(((0, 0), (0, 0), (1, 0))) == ((1, 0),)
        assert free_product_reduce(((0, 1), (1, 1), (1, 1), (0, 1))) == ()

    def test_format_empty_is_one(self):
        assert format_obstruction(()) == "1"

    @given(st.lists(st.integers(1, 4), max_size=10))
    def test_word_times_inverse_has_trivial_image(self, indices):
        w = Word(P43, tuple(P43.b_letter(j) for j in indices))
        assert f_image(concat(w, inverse(w))) == ()


class TestParity:
    def test_counts_mod_two_in_letter_order(self):
        assert parity_vector(w43("b4 b1 b4")) == (1, 0, 0, 0)
        assert parity_vector(w43("b1 b2 b3 b4")) == (1, 1, 1, 1)
        assert parity_vector(Word(P43, ())) == (0, 0, 0, 0)

    def test_wide_params(self):
        w = Word(P54, (Letter((1, 2, 3, 5)), Letter((1, 2, 3, 5)), Letter((2, 3, 4, 5))))
        vec = parity_vector(w)
        letters = P54.all_letters()
        assert len(vec) == len(letters) == 5
        assert vec[letters.index(Letter((1, 2, 3, 5)))] == 0
        assert vec[letters.index(Letter((2, 3, 4, 5)))] == 1


def reference_sign_action(word: Word, signs) -> tuple[int, ...]:
    """The sign action letter by letter: a letter omitting c <= k - 1 flips
    sign c, and a letter omitting k or k + 1 flips every sign."""
    k = word.params.k
    current = list(signs)
    for letter in word.letters:
        (c,) = set(range(1, k + 2)) - set(letter.subset)
        if c <= k - 1:
            current[c - 1] = -current[c - 1]
        else:
            current = [-s for s in current]
    return tuple(current)


class TestSignAction:
    # single-letter table, k=3: omitting one of the first k-1 indices flips
    # that sign; omitting k or k+1 flips everything
    @pytest.mark.parametrize(
        "text,expected",
        [("b1", (-1, -1)), ("b2", (-1, -1)), ("b3", (1, -1)), ("b4", (-1, 1))],
    )
    def test_single_letters_k3(self, text, expected):
        assert sign_action(w43(text), (1, 1)) == expected

    def test_single_letters_k4(self):
        ref = reference_signs(P54)
        picks = {j: sign_action(Word(P54, (P54.b_letter(j),)), ref) for j in range(1, 6)}
        assert picks[1] == picks[2] == (-1, -1, -1)
        assert picks[3] == (1, 1, -1)
        assert picks[4] == (1, -1, 1)
        assert picks[5] == (-1, 1, 1)

    def test_action_composes(self):
        u, v = w43("b4 b2"), w43("b3 b4 b1")
        s = (1, -1)
        assert sign_action(concat(u, v), s) == sign_action(v, sign_action(u, s))

    @given(st.lists(st.integers(1, 4), max_size=12))
    def test_inverse_undoes_action(self, indices):
        w = Word(P43, tuple(P43.b_letter(j) for j in indices))
        s = reference_signs(P43)
        assert sign_action(inverse(w), sign_action(w, s)) == s

    def test_matches_the_letter_walk_on_every_short_k3_word(self):
        starts = sign_orbit(P43)
        words = 0
        for length in range(7):
            for letters in product(P43.all_letters(), repeat=length):
                word = Word(P43, letters)
                for s in starts:
                    assert sign_action(word, s) == reference_sign_action(word, s)
                words += 1
        assert words == sum(4 ** length for length in range(7))   # 5461

    @pytest.mark.parametrize("k", range(4, 8))
    def test_matches_the_letter_walk_on_seeded_words(self, k):
        params = GroupParams(k + 1, k)
        rng = random.Random(f"sign-action:{k}")
        letters = params.all_letters()
        for _ in range(300):
            word = Word(params, tuple(rng.choice(letters) for _ in range(rng.randint(0, 24))))
            s = tuple(rng.choice((-1, 1)) for _ in range(k - 1))
            assert sign_action(word, s) == reference_sign_action(word, s)

    def test_rejects_bad_sign_string(self):
        with pytest.raises(ValueError):
            sign_action(w43("b1"), (1, 1, 1))
        with pytest.raises(ValueError):
            sign_action(w43("b1"), (1, 0))

    @pytest.mark.parametrize("k", range(3, 8))
    def test_orbit_is_the_breadth_first_letter_walk(self, k):
        params = GroupParams(k + 1, k)
        order = [reference_signs(params)]
        for s in order:   # grows while it is read: breadth first
            for letter in params.all_letters():
                image = reference_sign_action(Word(params, (letter,)), s)
                if image not in order:
                    order.append(image)
        assert sign_orbit(params) == order

    def test_orbit_sizes(self):
        assert len(sign_orbit(P43)) == 4
        assert len(sign_orbit(P54)) == 8

    def test_tilde_membership(self):
        assert in_tilde_subgroup(w43("b4 b4"))
        assert in_tilde_subgroup(w43("b1 b2"))
        assert not in_tilde_subgroup(w43("b4"))

    def test_sign_string_formats(self):
        assert format_sign_string((1, -1)) == "(+,-)"
        assert parse_sign_string("(+,-)", P43) == (1, -1)
        assert parse_sign_string("-+", P43) == (-1, 1)
        assert parse_sign_string(" +- ", P43) == (1, -1)
        with pytest.raises(ValueError):
            parse_sign_string("+", P43)

    # two signs in all, but some entry between the parentheses is empty or holds both
    @pytest.mark.parametrize("text", ["(+,,-)", "(,+-)", "(+-)", "(+,-,)"])
    def test_malformed_sign_strings_are_refused(self, text):
        with pytest.raises(ValueError, match="is not a single"):
            parse_sign_string(text, P43)


def move_invariants(w, s):
    return f_image(w), parity_vector(w), sign_action(w, s)


class TestMoveInvariance:
    @given(st.lists(st.integers(1, 4), max_size=16), st.integers(0, 10_000))
    def test_random_move_preserves_everything(self, indices, seed):
        w = Word(P43, tuple(P43.b_letter(j) for j in indices))
        move = _random_legal_move(w, random.Random(seed))
        s = reference_signs(P43)
        assert move_invariants(w, s) == move_invariants(apply_move(w, move), s)

    def test_window_reversal_example(self):
        w = w43("b1 b4 b2 b3 b1")
        from projbraid.words import ReverseWindow

        moved = apply_move(w, ReverseWindow(1))
        assert f_image(moved) == f_image(w)
        assert parity_vector(moved) == parity_vector(w)
