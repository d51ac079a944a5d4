"""Decision procedures built on proof-producing elimination of ``b(k+1)``.

The pipeline: a word with empty obstruction image lies in the subgroup
generated by ``b1 .. bk``, and an explicit rewrite into that subgroup can be
extracted.  Between two consecutive occurrences of ``b(k+1)`` whose index
strings agree, the enclosed block has all alias counts of equal parity; such
a block is removed by palindrome-window surgery that shortens the distance
between the occurrences by two per round.  Every step is recorded as a
primitive move, so the whole derivation replays under ``check_trace``.

``solve`` keeps one witness order at every k: an odd word is nontrivial by
its obstruction image or else its parity vector, and an even word is
eliminated.  For k = 3 a nonempty residue lives in a free product of three
order-two groups, which decides the word problem outright; that last step
leans on an unpublished presentation result and is flagged on every verdict
that uses it.  For k >= 4 such a residue is Unknown.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .invariants import (
    IndexString,
    ObstructionWord,
    ParityVector,
    f_image,
    format_obstruction,
    free_product_reduce,
    last_alias_occurrences,
    parity_vector,
)
from .words import (
    CANCEL,
    CodeMove,
    GroupParams,
    IllegalMoveError,
    Letter,
    Move,
    Word,
    _from_codes,
    _Tape,
    concat,
    decode_moves,
    free_cancel,
    free_reduce,
    inverse,
)

H3_FLAG = "H3-freeness (Karpov, unpublished)"


class NotInSubgroupError(ValueError):
    """Elimination was requested for a word with a nonempty obstruction."""

    def __init__(self, obstruction: ObstructionWord):
        self.obstruction = obstruction
        super().__init__(f"word is not in the b(k+1)-free subgroup: {format_obstruction(obstruction)}")


class ParityMismatchError(ValueError):
    """The block between two occurrences fails the equal-parity precondition."""


class EliminationTrace:
    """A replayable sequence of primitive moves.

    Elimination gives a trace as ``codes``, (kind, pos, code) triples (see
    ``words.CANCEL``) over the group's ``letters``, and ``steps``, its
    ``Move`` objects, is built the first time it is read.  A trace made as
    ``EliminationTrace(moves)`` has no codes.  Length, iteration, equality
    and hashing are those of ``steps``.
    """

    def __init__(self, steps: Iterable[Move] = (), codes: tuple[CodeMove, ...] | None = None,
                 letters: tuple[Letter, ...] | None = None):
        self.codes, self.letters = codes, letters
        if codes is None:
            self.steps = tuple(steps)

    @cached_property
    def steps(self) -> tuple[Move, ...]:
        return decode_moves(self.codes, self.letters)

    def __len__(self) -> int:
        return len(self.steps if self.codes is None else self.codes)

    def __iter__(self):
        return iter(self.steps)

    def __eq__(self, other) -> bool:
        return self.steps == other.steps if isinstance(other, EliminationTrace) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return f"EliminationTrace(steps={self.steps!r})"


class Status(Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    """Decision outcome with its witness.

    Exactly one witness field is populated: a full trace to the empty word
    for TRIVIAL, a nonempty obstruction or residue (or nonzero parity) for
    NONTRIVIAL, and the post-elimination residue for UNKNOWN.  Verdicts that
    rely on an unproven presentation carry that assumption by name.
    """

    status: Status
    trace: EliminationTrace | None = None
    obstruction: ObstructionWord | None = None
    residue: Word | None = None
    parity: ParityVector | None = None
    assumption_flags: frozenset[str] = field(default_factory=frozenset)


def check_trace(input_word: Word, trace: EliminationTrace | Iterable[Move], output_word: Word) -> bool:
    """Replay ``trace`` from ``input_word``; True iff it lands on ``output_word``.

    Every step is validated; an illegal step, an inserted letter the group
    does not hold included, raises ``IllegalMoveError`` with its index.  A
    legal trace with the wrong endpoint returns False.  A trace of codes over
    the input's letters replays its triples, any other its ``Move`` objects,
    through the same checks.
    """
    tape = _Tape(input_word)
    if isinstance(trace, EliminationTrace) and trace.codes is not None and trace.letters == tape.letters:
        moves, replay = trace.codes, tape.play
    else:
        moves, replay = trace, tape.apply
    for step_index, move in enumerate(moves):
        try:
            replay(move)
        except ValueError as exc:   # an IllegalMoveError, or a foreign inserted letter
            raise IllegalMoveError(f"{exc.args[0]}", step=step_index) from exc
    return output_word.params == tape.params and tape.cells == list(output_word.codes)


def inner_eliminate(block: Word) -> tuple[Word, EliminationTrace]:
    """Remove a matched pair of ``b(k+1)`` letters around ``block``.

    Input: a block with no ``b(k+1)`` whose alias counts all share one
    parity.  Output: a word V over ``b1 .. bk`` equal in the group to
    b(k+1) . block . b(k+1), plus a trace transforming that word into V.
    """
    params = block.params
    last = Word(params, (params.b_letter(params.k + 1),))
    tape = _Tape(concat(last, block, last))
    _eliminate_block(tape, 0, len(tape.cells) - 1)
    return tape.word(), EliminationTrace(codes=tuple(tape.moves), letters=tape.letters)


def _eliminate_block(tape: _Tape, first: int, second: int) -> None:
    """Rewrite the ``b(k+1)`` cells ``first`` and ``second`` of ``tape`` and
    the block between them into a word over ``b1 .. bk``, in place; the tape
    records every move at its position.

    Each round frees the leftmost repeated alias: with the block starting
    b_{i_1} .. b_{i_{p-1}} b_{i_p} and i_p = i_q the first repeat, two
    palindrome windows are reversed.  The first, P b(k+1) b_{i_1}..b_{i_{p-1}}
    with P the aliases missing from the prefix, drags b(k+1) rightward; the
    second, Q b(k+1) reverse(P) b_{i_p} with Q the prefix aliases other than
    b_{i_q}, drags it back past the repeat.  The distance between the two
    b(k+1) occurrences drops by exactly two per round, which bounds the loop.

    The block is freely reduced once, left to right.  A round then leaves it
    as reverse(Q), whose letters are distinct, followed by the rest of the
    reduced block, so the left-to-right reduction of the new block cancels
    only pairs across that junction.  With the repeat among the first k+1
    letters, a round costs O(k) checks whatever the length of the block.

    The surgery runs on codes: each move goes through the tape's check for
    its kind as (position, code), and no ``Move`` is built.
    """
    k = tape.k
    last = k                  # the code of b(k+1); code j - 1 is bj
    cells = tape.cells
    cancel, insert, reverse = tape.cancel, tape.insert, tape.reverse
    block = cells[first + 1 : second]
    if last in block:
        raise ValueError("block must not contain the last alias")
    if len({block.count(code) & 1 for code in range(k)}) > 1:
        counts = [block.count(code) for code in range(k)]
        raise ParityMismatchError(f"alias counts {counts} are not of equal parity")

    for pos, code in free_cancel(block)[1]:
        cancel(first + 1 + pos, code)
        second -= 2

    while second > first + 1:
        head = cells[first + 1 : min(second, first + k + 2)]
        if len(set(head)) == len(head):
            # the block is a once-each arrangement of b1..bk: one window
            reverse(first)
            first += k
            break

        repeat = next(p for p in range(1, len(head)) if head[p] in head[:p])
        prefix, repeated = head[:repeat], head[repeat]
        p_codes = [code for code in range(k) if code not in prefix]
        q_codes = sorted(set(prefix) - {repeated})
        distance_before = second - first

        # window 1 is P b(k+1) b_{i_1} .. b_{i_{p-1}}, window 2 is
        # Q b(k+1) reverse(P) b_{i_p}.  Each inserts reverse(mirrored) +
        # mirrored in front of b(k+1), one pair at a time from the inside
        # out; reversing the window then moves b(k+1) past its tail, the
        # letters that followed b(k+1) in the window.
        for mirrored, tail in ((p_codes, repeat), (q_codes, len(p_codes) + 1)):
            for j, code in enumerate(reversed(mirrored)):
                insert(first + j, code)
            reverse(first + len(mirrored))
            first += len(mirrored) + tail
            second += 2 * len(mirrored)

        if second - first != distance_before - 2:
            raise AssertionError("window surgery must shorten the gap by 2")

        junction = first + 1 + len(q_codes)     # the first cell after reverse(Q)
        while first + 1 < junction < second and cells[junction - 1] == cells[junction]:
            junction -= 1
            code = cells[junction]
            cancel(junction, code)
            second -= 2

    cancel(first, last)


def eliminate_last(word: Word) -> tuple[Word, EliminationTrace]:
    """Rewrite a word with empty obstruction image into one avoiding b(k+1).

    Reads the word once, left to right, keeping a stack of the ``b(k+1)``
    occurrences not yet matched.  An occurrence whose index string equals
    the one on top of the stack closes a pair: the two occurrences and the
    letters between them are rewritten in place, as ``inner_eliminate``
    rewrites a block.  This is the free reduction of the unreduced
    obstruction word, so the stack empties exactly when the image is
    trivial, and each pair removed is the leftmost adjacent equal-index pair
    of the word at that moment.  The result is equal in the group, and the
    trace replays under ``check_trace``.

    The index strings come from one prefix-parity pass, which also yields
    the obstruction.  They are never recomputed: the parity vector is
    invariant under the relations and the replacement V equals
    b(k+1) . block . b(k+1), so removing a matched pair leaves the index of
    every other occurrence unchanged.
    """
    positions, indices = last_alias_occurrences(word)
    obstruction = free_product_reduce(tuple(indices))
    if obstruction:
        raise NotInSubgroupError(obstruction)
    tape = _Tape(word)
    unmatched: list[tuple[int, IndexString]] = []   # (position on the tape, index)
    shift = 0       # tape position minus word position, right of every rewrite so far
    for pos, index in zip(positions, indices):
        if unmatched and unmatched[-1][1] == index:
            left, _ = unmatched.pop()
            length = len(tape.cells)
            _eliminate_block(tape, left, pos + shift)
            shift += len(tape.cells) - length
        else:
            unmatched.append((pos + shift, index))
    if unmatched:
        raise AssertionError("an adjacent equal-index pair must exist when the image is empty")
    return tape.word(), EliminationTrace(codes=tuple(tape.moves), letters=tape.letters)


def solve(word: Word) -> Verdict:
    """Decide (k = 3) or semi-decide (k >= 4) the word problem, n = k + 1.

    One witness order at every k.  A word with a nonzero parity vector is
    NONTRIVIAL without elimination: its obstruction image when that is
    nonempty, else its parity, which every move keeps.  An even word is
    eliminated: NONTRIVIAL with the obstruction when that fails, TRIVIAL
    with the full trace when elimination plus free reduction empties it,
    and otherwise its residue decides only at k = 3, as NONTRIVIAL under
    the flagged presentation assumption; at k >= 4 it is UNKNOWN.
    """
    parity = parity_vector(word)
    if any(parity):
        obstruction = f_image(word)
        if obstruction:
            return Verdict(Status.NONTRIVIAL, obstruction=obstruction)
        return Verdict(Status.NONTRIVIAL, parity=parity)
    try:
        eliminated, trace = eliminate_last(word)
    except NotInSubgroupError as exc:
        return Verdict(Status.NONTRIVIAL, obstruction=exc.obstruction)
    residue_codes, cancels = free_cancel(eliminated.codes)
    if not residue_codes:
        codes = trace.codes + tuple([(CANCEL, pos, code) for pos, code in cancels])
        return Verdict(Status.TRIVIAL, trace=EliminationTrace(codes=codes, letters=trace.letters))
    residue = _from_codes(word.params, residue_codes)
    if word.params.k == 3:
        return Verdict(Status.NONTRIVIAL, residue=residue, assumption_flags=frozenset({H3_FLAG}))
    return Verdict(Status.UNKNOWN, residue=residue)


def equal(w1: Word, w2: Word) -> Verdict:
    """Equality via ``solve`` on the freely reduced difference word."""
    return solve(free_reduce(concat(w1, inverse(w2))))


def solve_k3(word: Word) -> Verdict:
    """``solve``, for n = 4, k = 3 only."""
    if word.params != GroupParams(4, 3):
        raise ValueError(f"operation requires n=4, k=3, got n={word.params.n}, k={word.params.k}")
    return solve(word)


def solve_semi(word: Word) -> Verdict:
    """``solve`` under its earlier name."""
    return solve(word)
