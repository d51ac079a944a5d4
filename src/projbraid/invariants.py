"""Conjugation-stable invariants of words in the square case n = k + 1.

Three invariants live here.  All of them are unchanged when a defining
relation is applied anywhere in a word, which is what makes them usable as
obstructions.

* ``f_image`` maps a word to the free product of 2^(k-1) order-two groups.
  Each occurrence of the last alias ``b(k+1)`` contributes one generator of
  the free product, selected by the pattern of letter counts gathered
  before it; a nonempty image certifies that the word avoids the subgroup
  generated by ``b1 .. bk``.

* ``parity_vector`` counts each generator modulo 2.

* ``sign_action`` pushes a word through its permutation action on the
  2^(k-1) sign strings, the base points of the geometric realization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import GroupParams, Word, _letter_table, free_cancel

IndexString = tuple[int, ...]     # k-1 bits naming a free-product generator
ObstructionWord = tuple[IndexString, ...]
ParityVector = tuple[int, ...]    # one bit per generator, b-alias order
SignString = tuple[int, ...]      # k-1 entries from {+1, -1}


def _normalize_index(counts: list[int], k: int) -> IndexString:
    """Index string from the raw parities of ``b1 .. bk``.

    Opposite strings name the same free-product generator, so all bits are
    flipped when the bit of ``bk`` is 1; that bit is then redundant and
    dropped, leaving k-1 bits.
    """
    if counts[k - 1]:
        return tuple(1 - c for c in counts[: k - 1])
    return tuple(counts[: k - 1])


def occurrence_index(word: Word, pos: int) -> IndexString:
    """Index string of the ``b(k+1)`` occurrence at position ``pos``.

    The raw string has one bit per alias ``b1 .. bk``: the count of that
    alias strictly before ``pos``, mod 2 (other ``b(k+1)`` occurrences do not
    count).  Opposite strings name the same free-product generator, so the
    string is normalized by flipping all bits when the last bit is 1, after
    which the last bit is redundant and dropped: k-1 bits remain.

    The parity vector is invariant under the relations, so the index does
    not change when the prefix before ``pos`` is replaced by any word equal
    to it in the group.  This call scans the prefix up to ``pos`` with
    ``last_alias_occurrences``, which gives every index of a word in one
    pass.
    """
    params = word.params
    params.require_square()
    if not 0 <= pos < len(word):
        raise ValueError(f"position {pos} out of bounds")
    if word.letters[pos] != params.b_letter(params.k + 1):
        raise ValueError(f"letter at {pos} is {word.letters[pos]}, not the last alias")
    _, indices = last_alias_occurrences(Word(params, word.letters[: pos + 1]))
    return indices[-1]


def last_alias_occurrences(word: Word) -> tuple[list[int], list[IndexString]]:
    """Positions and index strings of every ``b(k+1)`` occurrence, in one pass.

    The i-th index string equals ``occurrence_index(word, positions[i])``;
    read in order, the strings are the unreduced image in the free product.
    """
    params = word.params
    params.require_square()
    k = params.k
    codes = _letter_table(params).codes     # code j - 1 is bj, so b(k+1) is k
    counts = [0] * k
    positions: list[int] = []
    indices: list[IndexString] = []
    for pos, letter in enumerate(word.letters):
        code = codes[letter]
        if code == k:
            positions.append(pos)
            indices.append(_normalize_index(counts, k))
        else:
            counts[code] ^= 1
    return positions, indices


def free_product_reduce(obstruction: ObstructionWord) -> ObstructionWord:
    """Reduce in the free product: adjacent equal generators cancel."""
    return free_cancel(obstruction)[0]


def f_image(word: Word) -> ObstructionWord:
    """Image of the word in the free product, reduced.

    Each ``b(k+1)`` occurrence contributes the generator named by its index
    string (see ``last_alias_occurrences``).  Applying any defining relation
    to the word leaves this value unchanged, and it is empty on every word
    of the subgroup avoiding ``b(k+1)``.
    """
    _, indices = last_alias_occurrences(word)
    return free_product_reduce(tuple(indices))


def parity_vector(word: Word) -> ParityVector:
    """Letter counts mod 2, ordered by alias index (length k+1 when n = k+1)."""
    codes = _letter_table(word.params).codes
    counts = [0] * len(codes)
    for letter in word.letters:
        counts[codes[letter]] ^= 1
    return tuple(counts)


def sign_action(word: Word, signs: SignString) -> SignString:
    """Act on a sign string of length k-1 by the word's parity vector.

    ``bj`` omits index k + 2 - j.  A letter omitting c <= k - 1 flips the
    c-th sign, and the letters omitting k and k + 1 (``b2`` and ``b1``) flip
    every sign.  These flips commute and square to the identity, so sign i
    (0-based) is flipped by the word exactly when ``b(k+1-i)``, ``b1`` and
    ``b2`` occur an odd number of times in total.
    """
    params = word.params
    params.require_square()
    check_sign_string(signs, params)
    parity = parity_vector(word)
    flip_all = parity[0] ^ parity[1]
    # parity[k - i] for sign i: the parities of b(k+1) down to b3
    return tuple([-s if f ^ flip_all else s for s, f in zip(signs, parity[params.k:1:-1])])


def check_sign_string(signs: SignString, params: GroupParams) -> None:
    """Raise ValueError unless ``signs`` has k-1 entries, each +1 or -1."""
    if len(signs) != params.k - 1 or any(s not in (-1, 1) for s in signs):
        raise ValueError(f"sign string must have k-1 = {params.k - 1} entries from +-1")


def reference_signs(params: GroupParams) -> SignString:
    params.require_square()
    return (1,) * (params.k - 1)


def in_tilde_subgroup(word: Word) -> bool:
    """Whether the word fixes the all-plus sign string (finite-index test)."""
    ref = reference_signs(word.params)
    return sign_action(word, ref) == ref


# The largest k whose sign orbit ``sign_orbit`` enumerates: 2^12 = 4096
# strings at k = 13 take about 0.13 s (Python 3.11, 2 vCPU), and each step
# of k doubles that.
MAX_ORBIT_K = 13


def sign_orbit(params: GroupParams) -> list[SignString]:
    """Orbit of the all-plus string under all generators; size 2^(k-1).

    Raises ValueError, before enumerating, when k exceeds ``MAX_ORBIT_K``.
    """
    params.require_square()
    if params.k > MAX_ORBIT_K:
        raise ValueError(
            f"the sign orbit for k={params.k} has 2^{params.k - 1} strings, "
            f"beyond the cap of MAX_ORBIT_K = {MAX_ORBIT_K}"
        )
    frontier = [reference_signs(params)]
    # a letter multiplies every sign string by its image of the all-plus one
    masks = [sign_action(Word(params, (letter,)), frontier[0]) for letter in params.all_letters()]
    seen: set[SignString] = {frontier[0]}
    order: list[SignString] = [frontier[0]]
    while frontier:
        nxt: list[SignString] = []
        for s in frontier:
            for mask in masks:
                image = tuple([a * m for a, m in zip(s, mask)])
                if image not in seen:
                    seen.add(image)
                    order.append(image)
                    nxt.append(image)
        frontier = nxt
    return order


def format_sign_string(signs: SignString) -> str:
    return "(" + ",".join("+" if s > 0 else "-" for s in signs) + ")"


def parse_sign_string(text: str, params: GroupParams) -> SignString:
    """Accept ``(+,-)`` or the compact ``+-`` form."""
    params.require_square()
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].replace(",", "")
    signs: list[int] = []
    for ch in body:
        if ch == "+":
            signs.append(1)
        elif ch == "-":
            signs.append(-1)
        else:
            raise ValueError(f"unexpected character {ch!r} in sign string")
    if len(signs) != params.k - 1:
        raise ValueError(f"sign string must have k-1 = {params.k - 1} entries")
    return tuple(signs)


def format_obstruction(obstruction: ObstructionWord) -> str:
    """Render free-product generators as ``c(bits)``; identity prints as 1."""
    if not obstruction:
        return "1"
    return " ".join("c(" + ",".join(str(b) for b in gen) + ")" for gen in obstruction)


@dataclass(frozen=True)
class MoveInvariants:
    """Snapshot of all three invariants, for move-stability checks."""

    obstruction: ObstructionWord
    parity: ParityVector
    action: SignString

    @classmethod
    def of(cls, word: Word, signs: SignString) -> "MoveInvariants":
        return cls(f_image(word), parity_vector(word), sign_action(word, signs))
