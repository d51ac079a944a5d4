"""Last-letter elimination, trace checking, and the decision procedures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from projbraid.invariants import f_image, parity_vector
from projbraid.solver import (
    EliminationTrace,
    H3_FLAG,
    NotInSubgroupError,
    ParityMismatchError,
    Status,
    Verdict,
    check_trace,
    eliminate_last,
    equal,
    inner_eliminate,
    solve,
    solve_k3,
    solve_semi,
)
from projbraid.words import (
    GroupParams,
    Word,
    bfs_equal_oracle,
    concat,
    format_word,
    free_reduce,
    free_reduce_with_trace,
    inverse,
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
        assert 3 not in out.codes   # no b4
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
        assert 3 not in out.codes   # no b4
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

    def test_foreign_inserted_letter_names_its_step(self):
        from projbraid.words import IllegalMoveError, InsertPair, Letter, ReverseWindow

        w = w43("b1 b2 b3 b4")
        bad = EliminationTrace((ReverseWindow(0), InsertPair(1, Letter((1, 2, 5)))))
        with pytest.raises(IllegalMoveError) as err:
            check_trace(w, bad, w)
        assert err.value.step == 1
        assert str(err.value) == "step 1: letter a{1,2,5} is not a k-subset of 1..4 for k=3"


class TestMembership:
    """Membership in the b(k+1)-free subgroup is ``eliminate_last`` succeeding."""

    def test_member_carries_rewrite(self):
        rewritten, trace = eliminate_last(w43("b4 b1 b2 b3 b4"))
        assert bword(rewritten) == "b3 b2 b1"
        assert check_trace(w43("b4 b1 b2 b3 b4"), trace, rewritten)

    def test_nonmember_carries_obstruction(self):
        with pytest.raises(NotInSubgroupError) as err:
            eliminate_last(w43("b4"))
        assert err.value.obstruction == ((0, 0),)


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

    def test_odd_word_gets_parity_witness(self):
        verdict = solve_k3(w43("b1 b2"))
        assert verdict.status is Status.NONTRIVIAL
        assert verdict.parity == (1, 1, 0, 0)
        assert verdict.residue is None
        assert not verdict.assumption_flags

    def test_residue_witness_is_flagged(self):
        verdict = solve_k3(w43("b1 b2 b1 b2"))
        assert verdict.status is Status.NONTRIVIAL
        assert bword(verdict.residue) == "b1 b2 b1 b2"
        assert H3_FLAG in verdict.assumption_flags

    def test_requires_k3(self):
        with pytest.raises(ValueError):
            solve_k3(w54("b1"))

    def test_equal_words(self):
        assert equal(w43("b4 b1 b2 b3 b4"), w43("b3 b2 b1")).status is Status.TRIVIAL
        assert equal(w43("b1"), w43("b2")).status is Status.NONTRIVIAL
        assert equal(w43("b4 b1 b2 b1 b2 b4"), w43("b3 b2 b1 b2 b1 b3")).status is Status.TRIVIAL
        assert equal(w54("b1 b2"), w54("b2")).parity == (1, 0, 0, 0, 0)


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

    @pytest.mark.parametrize("params", [P43, P54], ids=["k3", "k4"])
    def test_odd_words_skip_elimination(self, monkeypatch, params):
        import projbraid.solver as solver

        def no_elimination(word):
            raise AssertionError("odd word was eliminated")

        monkeypatch.setattr(solver, "eliminate_last", no_elimination)
        k = params.k

        def w(text: str) -> Word:
            return parse_word(text, params)

        window = " ".join([f"b{k + 1}"] + [f"b{j}" for j in range(1, k + 1)])
        long = w(" ".join([window] * 200))
        assert solve(w(f"b{k + 1}")).obstruction
        short = w(f"{window} b{k + 1} b1")
        assert solve(short).parity == parity_vector(short)
        assert solve(concat(long, w("b1"), inverse(long))).parity == parity_vector(w("b1"))


def _reference_solve(word: Word) -> Verdict:
    """The witness order before ``solve``: an ``f_image`` pass of its own
    before elimination, and a parity step at k >= 4 only."""
    obstruction = f_image(word)
    if obstruction:
        return Verdict(Status.NONTRIVIAL, obstruction=obstruction)
    if word.params.k != 3:
        parity = parity_vector(word)
        if any(parity):
            return Verdict(Status.NONTRIVIAL, parity=parity)
    eliminated, trace = eliminate_last(word)
    residue, cancels = free_reduce_with_trace(eliminated)
    if not residue.letters:
        return Verdict(Status.TRIVIAL, trace=EliminationTrace(trace.steps + tuple(cancels)))
    if word.params.k == 3:
        return Verdict(Status.NONTRIVIAL, residue=residue, assumption_flags=frozenset({H3_FLAG}))
    return Verdict(Status.UNKNOWN, residue=residue)


def _freely_reduced_words(params: GroupParams, max_len: int):
    letters = [params.b_letter(j) for j in range(1, params.k + 2)]
    level = [()]
    for _ in range(max_len + 1):
        yield from (Word(params, w) for w in level)
        level = [w + (x,) for w in level for x in letters if not w or w[-1] != x]


@pytest.mark.parametrize(
    "params, max_len, count, moved", [(P43, 8, 13_121, 1221), (P54, 6, 6826, 0)], ids=["k3", "k4"]
)
def test_verdicts_match_the_f_image_first_reference(params, max_len, count, moved):
    seen = changed = 0
    for word in _freely_reduced_words(params, max_len):
        seen += 1
        # Verdict equality compares status, every witness, the trace and the flags
        verdict, reference = solve(word), _reference_solve(word)
        if verdict == reference:
            continue
        # only an H3-flagged residue may move, and only to the word's own parity
        assert reference.residue is not None and H3_FLAG in reference.assumption_flags, bword(word)
        assert verdict == Verdict(Status.NONTRIVIAL, parity=parity_vector(word)), bword(word)
        assert any(verdict.parity), bword(word)
        changed += 1
    assert (seen, changed) == (count, moved)
