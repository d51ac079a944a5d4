"""Last-letter elimination, trace checking, and the decision procedures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from projbraid.solver import (
    EliminationTrace,
    H3_FLAG,
    NotInSubgroupError,
    ParityMismatchError,
    Status,
    check_trace,
    eliminate_last,
    equal_k3,
    inner_eliminate,
    is_in_H,
    solve_k3,
    solve_semi,
)
from projbraid.words import (
    GroupParams,
    Word,
    bfs_equal_oracle,
    format_word,
    free_reduce,
    parse_word,
)

P43 = GroupParams(4, 3)
P54 = GroupParams(5, 4)


def w43(text: str) -> Word:
    return parse_word(text, P43)


def w54(text: str) -> Word:
    return parse_word(text, P54)


def bword(word: Word) -> str:
    return format_word(word, "b-index")


class TestInnerEliminate:
    def test_empty_block_cancels(self):
        out, trace = inner_eliminate(Word(P43, ()))
        assert out.letters == ()
        assert len(trace) == 1

    def test_once_each_block_reverses(self):
        out, trace = inner_eliminate(w43("b1 b2 b3"))
        assert bword(out) == "b3 b2 b1"
        assert len(trace) == 2
        assert check_trace(w43("b4 b1 b2 b3 b4"), trace, out)

    def test_repeated_alias_block(self):
        out, trace = inner_eliminate(w43("b1 b2 b1 b2"))
        assert bword(out) == "b3 b2 b1 b2 b1 b3"
        assert check_trace(w43("b4 b1 b2 b1 b2 b4"), trace, out)

    def test_inner_reduction_first(self):
        out, trace = inner_eliminate(w43("b1 b1"))
        assert free_reduce(out).letters == ()
        assert check_trace(w43("b4 b1 b1 b4"), trace, out)

    def test_unequal_parity_rejected(self):
        with pytest.raises(ParityMismatchError):
            inner_eliminate(w43("b1"))

    def test_block_must_avoid_last_alias(self):
        with pytest.raises(ValueError):
            inner_eliminate(w43("b4"))


class TestEliminateLast:
    def test_already_free(self):
        w = w43("b1 b2")
        out, trace = eliminate_last(w)
        assert out.letters == w.letters
        assert len(trace) == 0

    def test_single_pair(self):
        out, trace = eliminate_last(w43("b4 b1 b2 b3 b4"))
        assert bword(out) == "b3 b2 b1"
        assert check_trace(w43("b4 b1 b2 b3 b4"), trace, out)

    def test_obstructed_word_rejected(self):
        with pytest.raises(NotInSubgroupError) as err:
            eliminate_last(w43("b4 b1 b4"))
        assert err.value.obstruction == ((0, 0), (1, 0))

    def test_two_pairs(self):
        w = w43("b4 b1 b1 b4 b4 b2 b2 b4")
        out, trace = eliminate_last(w)
        assert all(l.b_index(P43) != 4 for l in out.letters)
        assert check_trace(w, trace, out)
        assert free_reduce(out).letters == ()

    def test_pair_guard_survives_optimized_mode(self):
        # with the obstruction check bypassed, no equal-index pair exists;
        # the guard must still fire when python -O strips assert statements
        code = (
            "import projbraid.solver as s\n"
            "from projbraid.words import GroupParams, parse_word\n"
            "s.free_product_reduce = lambda obstruction: ()\n"
            "try:\n"
            "    s.eliminate_last(parse_word('b4 b1 b4', GroupParams(4, 3)))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert "adjacent equal-index pair must exist" in out.stdout, out.stderr

    def test_longer_word_with_index_flip(self):
        # third and fourth occurrences only match after the global bit flip
        w = w43("b4 b1 b2 b1 b2 b4 b3 b4 b1 b2 b3 b4")
        out, trace = eliminate_last(w)
        assert all(l.b_index(P43) != 4 for l in out.letters)
        assert check_trace(w, trace, out)
        assert bfs_equal_oracle(w, out, max_len=18, max_states=200_000).equal


class TestCheckTrace:
    def test_rejects_wrong_output(self):
        w = w43("b4 b1 b2 b3 b4")
        out, trace = eliminate_last(w)
        assert not check_trace(w, trace, w43("b1 b2 b3"))

    def test_rejects_illegal_step(self):
        from projbraid.words import IllegalMoveError, ReverseWindow

        bad = EliminationTrace((ReverseWindow(0),))
        with pytest.raises(IllegalMoveError):
            check_trace(w43("b1 b1 b2 b3"), bad, w43("b1 b1 b2 b3"))


class TestMembership:
    def test_member_carries_rewrite(self):
        result = is_in_H(w43("b4 b1 b2 b3 b4"))
        assert result.member
        assert bword(result.rewritten) == "b3 b2 b1"

    def test_nonmember_carries_obstruction(self):
        result = is_in_H(w43("b4"))
        assert not result.member
        assert result.obstruction == ((0, 0),)


class TestSolveK3:
    def test_trivial_with_trace(self):
        verdict = solve_k3(w43("b4 b4"))
        assert verdict.status is Status.TRIVIAL
        assert check_trace(w43("b4 b4"), verdict.trace, Word(P43, ()))

    def test_trivial_window_square(self):
        w = w43("b1 b2 b3 b4 b1 b2 b3 b4")
        verdict = solve_k3(w)
        assert verdict.status is Status.TRIVIAL
        assert check_trace(w, verdict.trace, Word(P43, ()))

    def test_obstruction_witness(self):
        verdict = solve_k3(w43("b4 b1 b4"))
        assert verdict.status is Status.NONTRIVIAL
        assert verdict.obstruction == ((0, 0), (1, 0))
        assert not verdict.assumption_flags

    def test_residue_witness_is_flagged(self):
        verdict = solve_k3(w43("b1 b2"))
        assert verdict.status is Status.NONTRIVIAL
        assert bword(verdict.residue) == "b1 b2"
        assert H3_FLAG in verdict.assumption_flags

    def test_equal_words(self):
        assert equal_k3(w43("b4 b1 b2 b3 b4"), w43("b3 b2 b1")).status is Status.TRIVIAL
        assert equal_k3(w43("b1"), w43("b2")).status is Status.NONTRIVIAL
        assert equal_k3(w43("b4 b1 b2 b1 b2 b4"), w43("b3 b2 b1 b2 b1 b3")).status is Status.TRIVIAL


class TestSolveSemi:
    def test_trivial(self):
        verdict = solve_semi(w54("b2 b2"))
        assert verdict.status is Status.TRIVIAL
        assert check_trace(w54("b2 b2"), verdict.trace, Word(P54, ()))

    def test_unknown_keeps_residue_and_no_flags(self):
        verdict = solve_semi(w54("b1 b2 b1 b2"))
        assert verdict.status is Status.UNKNOWN
        assert verdict.residue is not None
        assert not verdict.assumption_flags

    def test_obstruction(self):
        verdict = solve_semi(w54("b5 b3 b5"))
        assert verdict.status is Status.NONTRIVIAL
        assert verdict.obstruction

    def test_parity_witness(self):
        verdict = solve_semi(w54("b1 b1 b2 b2 b3"))
        assert verdict.status is Status.NONTRIVIAL
        assert verdict.parity is not None
        assert any(verdict.parity)

    def test_k3_agrees_with_solve_k3(self):
        for text in ("b4 b4", "b4 b1 b4", "b1 b2 b3 b4 b1 b2 b3 b4"):
            semi = solve_semi(w43(text))
            full = solve_k3(w43(text))
            if semi.status is not Status.UNKNOWN:
                assert semi.status is full.status
