"""Decision procedures built on proof-producing elimination of ``b(k+1)``.

The pipeline: a word with empty obstruction image lies in the subgroup
generated by ``b1 .. bk``, and an explicit rewrite into that subgroup can be
extracted.  Between two consecutive occurrences of ``b(k+1)`` whose index
strings agree, the enclosed block has all alias counts of equal parity; such
a block is removed by palindrome-window surgery that shortens the distance
between the occurrences by two per round.  Every step is recorded as a
primitive move, so the whole derivation replays under ``check_trace``.

For k = 3 the residue left after elimination lives in a free product of
three order-two groups, which decides the word problem outright; that final
step leans on an unpublished presentation result and is flagged on every
verdict that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

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
    CancelPair,
    GroupParams,
    IllegalMoveError,
    InsertPair,
    Letter,
    Move,
    ReverseWindow,
    Word,
    apply_move,
    concat,
    free_cancel,
    free_reduce,
    free_reduce_with_trace,
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


@dataclass(frozen=True)
class EliminationTrace:
    """A replayable sequence of primitive moves."""

    steps: tuple[Move, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


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


def check_trace(input_word: Word, trace: EliminationTrace, output_word: Word) -> bool:
    """Replay ``trace`` from ``input_word``; True iff it lands on ``output_word``.

    Every step is validated; an illegal step raises ``IllegalMoveError`` with
    its index.  A legal trace with the wrong endpoint returns False.
    """
    current = input_word
    for step_index, move in enumerate(trace):
        try:
            current = apply_move(current, move)
        except IllegalMoveError as exc:
            raise IllegalMoveError(f"{exc.args[0]}", step=step_index) from exc
    return current.letters == output_word.letters


def inner_eliminate(block: Word) -> tuple[Word, EliminationTrace]:
    """Remove a matched pair of ``b(k+1)`` letters around ``block``.

    Input: a block with no ``b(k+1)`` whose alias counts all share one
    parity.  Output: a word V over ``b1 .. bk`` equal in the group to
    b(k+1) . block . b(k+1), plus a trace transforming that word into V.

    Each round frees the leftmost repeated alias: with the block starting
    b_{i_1} .. b_{i_{p-1}} b_{i_p} and i_p = i_q the first repeat, two
    palindrome windows are reversed.  The first, P b(k+1) b_{i_1}..b_{i_{p-1}}
    with P the aliases missing from the prefix, drags b(k+1) rightward; the
    second, Q b(k+1) reverse(P) b_{i_p} with Q the prefix aliases other than
    b_{i_q}, drags it back past the repeat.  The distance between the two
    b(k+1) occurrences drops by exactly two per round, which bounds the loop.
    """
    params = block.params
    params.require_square()
    k = params.k
    last = params.b_letter(k + 1)
    if any(letter == last for letter in block.letters):
        raise ValueError("block must not contain the last alias")
    counts = [0] * k
    for letter in block.letters:
        counts[letter.b_index(params) - 1] += 1
    if len({c % 2 for c in counts}) > 1:
        raise ParityMismatchError(f"alias counts {counts} are not of equal parity")

    word = concat(Word(params, (last,)), block, Word(params, (last,)))
    moves: list[Move] = []

    def play(move: Move) -> None:
        nonlocal word
        moves.append(move)
        word = apply_move(word, move)

    first = 0          # position of the left b(k+1)
    second = len(word) - 1

    while True:
        # keep the enclosed block freely reduced
        inner, cancels = free_cancel(word.letters[first + 1 : second])
        for pos, letter in cancels:
            play(CancelPair(first + 1 + pos, letter))
        second -= 2 * len(cancels)

        if not inner:
            play(CancelPair(first, last))
            break

        indices = [letter.b_index(params) for letter in inner]
        repeat = next((p for p in range(len(indices)) if indices[p] in indices[:p]), None)

        if repeat is None:
            # the block is a once-each arrangement of b1..bk: one window
            play(ReverseWindow(first))
            play(CancelPair(first + k, last))
            break

        p = repeat + 1            # 1-based position of the first repeated alias
        prefix = indices[: p - 1]
        i_p = indices[p - 1]
        missing = [j for j in range(1, k + 1) if j not in prefix]
        p_letters = [params.b_letter(j) for j in missing]
        q_letters = [params.b_letter(j) for j in sorted(set(prefix) - {i_p})]
        r = len(p_letters)

        distance_before = second - first

        # window 1 is P b(k+1) b_{i_1} .. b_{i_{p-1}}, window 2 is
        # Q b(k+1) reverse(P) b_{i_p}.  Each inserts reverse(mirrored) +
        # mirrored in front of b(k+1), one pair at a time from the inside
        # out; reversing the window then moves b(k+1) past its tail, the
        # letters that followed b(k+1) in the window.
        for mirrored, tail in ((p_letters, p - 1), (q_letters, r + 1)):
            for j, letter in enumerate(reversed(mirrored)):
                play(InsertPair(first + j, letter))
            play(ReverseWindow(first + len(mirrored)))
            first += len(mirrored) + tail
            second += 2 * len(mirrored)

        if second - first != distance_before - 2:
            raise AssertionError("window surgery must shorten the gap by 2")

    return word, EliminationTrace(tuple(moves))


def eliminate_last(word: Word) -> tuple[Word, EliminationTrace]:
    """Rewrite a word with empty obstruction image into one avoiding b(k+1).

    Reads the word once, left to right, keeping a stack of the ``b(k+1)``
    occurrences not yet matched.  An occurrence whose index string equals
    the one on top of the stack closes a pair: ``inner_eliminate`` replaces
    the two occurrences and the letters between them.  This is the free
    reduction of the unreduced obstruction word, so the stack empties
    exactly when the image is trivial, and each pair removed is the
    leftmost adjacent equal-index pair of the word at that moment.  The
    result is equal in the group, and the trace replays under
    ``check_trace``.

    The index strings come from one prefix-parity pass, which also yields
    the obstruction.  They are never recomputed: the parity vector is
    invariant under the relations and the replacement V equals
    b(k+1) . block . b(k+1), so removing a matched pair leaves the index of
    every other occurrence unchanged.
    """
    params = word.params
    positions, indices = last_alias_occurrences(word)
    obstruction = free_product_reduce(tuple(indices))
    if obstruction:
        raise NotInSubgroupError(obstruction)
    moves: list[Move] = []
    letters: list[Letter] = []      # the rewritten word up to the current occurrence
    unmatched: list[tuple[int, IndexString]] = []   # (position in letters, index)
    done = 0
    for pos, index in zip(positions, indices):
        letters.extend(word.letters[done:pos])
        done = pos + 1
        if unmatched and unmatched[-1][1] == index:
            left, _ = unmatched.pop()
            replacement, trace = inner_eliminate(Word(params, tuple(letters[left + 1 :])))
            moves.extend(replace(move, pos=move.pos + left) for move in trace)
            letters[left:] = replacement.letters
        else:
            unmatched.append((len(letters), index))
            letters.append(word.letters[pos])
    if unmatched:
        raise AssertionError("an adjacent equal-index pair must exist when the image is empty")
    letters.extend(word.letters[done:])
    return Word(params, tuple(letters)), EliminationTrace(tuple(moves))


def solve_k3(word: Word) -> Verdict:
    """Decide the word problem for k = 3, n = 4.

    Nonempty obstruction image: NONTRIVIAL with the image as witness.
    Otherwise the word is rewritten over ``b1 .. b3`` and freely reduced;
    an empty residue is TRIVIAL with a full trace, a nonempty one is
    NONTRIVIAL under the flagged presentation assumption for the subgroup.
    """
    if word.params != GroupParams(4, 3):
        raise ValueError("solve_k3 requires n=4, k=3")
    return _eliminate_and_reduce(word, Status.NONTRIVIAL, frozenset({H3_FLAG}))


def equal_k3(w1: Word, w2: Word) -> Verdict:
    """Equality via triviality of the freely reduced difference word."""
    return solve_k3(free_reduce(concat(w1, inverse(w2))))


def solve_semi(word: Word) -> Verdict:
    """Semi-decision for any k >= 3 with n = k + 1, using no unproven input.

    NONTRIVIAL on a nonempty obstruction image or a nonzero parity vector;
    TRIVIAL when elimination plus free reduction empties the word; UNKNOWN
    otherwise, carrying the residue (no presentation of the subgroup is
    assumed for k >= 4).
    """
    word.params.require_square()
    parity = parity_vector(word)
    if any(parity):
        # an odd word needs no elimination; its obstruction still comes first
        obstruction = f_image(word)
        if obstruction:
            return Verdict(Status.NONTRIVIAL, obstruction=obstruction)
        return Verdict(Status.NONTRIVIAL, parity=parity)
    return _eliminate_and_reduce(word, Status.UNKNOWN, frozenset())


def _eliminate_and_reduce(word: Word, residue_status: Status, flags: frozenset[str]) -> Verdict:
    """Eliminate ``b(k+1)`` and reduce freely.

    NONTRIVIAL with the obstruction when elimination is impossible; TRIVIAL
    with the full trace when nothing is left; otherwise ``residue_status``
    with the residue and the assumption ``flags``.
    """
    try:
        eliminated, trace = eliminate_last(word)
    except NotInSubgroupError as exc:
        return Verdict(Status.NONTRIVIAL, obstruction=exc.obstruction)
    residue, cancels = free_reduce_with_trace(eliminated)
    if not residue.letters:
        return Verdict(Status.TRIVIAL, trace=EliminationTrace(trace.steps + tuple(cancels)))
    return Verdict(residue_status, residue=residue, assumption_flags=flags)
