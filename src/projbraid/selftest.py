"""Verification suites exercising the solver and realization pipelines.

Each suite checks one advertised property end to end: invariance of the
obstruction data under relation moves, soundness of last-letter elimination
against the bounded rewrite oracle, agreement of the decision procedure with
exhaustive search, sign-orbit sizes, path/word roundtrips, letter-path and
void-path certification, window reversal, and invariance of event lists
under projective transforms.

A suite is a generator ``checks(scale, rng)`` registered once by name with
``@suite``, which adds its runner ``(scale, seed) -> SuiteResult`` to
``SUITES`` in order.  It yields one outcome per check: ``None`` when the
check passed, else one message joining all of that check's findings.

Suites run at two scales: ``quick`` finishes in seconds and is meant for a
smoke check, ``full`` runs the complete advertised volumes.  All randomness
is drawn from ``rng``, seeded from the suite name and the seed, so reports
are reproducible byte for byte.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import product

from .invariants import (
    SignString,
    f_image,
    parity_vector,
    reference_signs,
    sign_action,
    sign_orbit,
)
from .projective import (
    Configuration,
    ProjectiveTransform,
    base_configuration,
    clear_denominators,
    singular_subsets,
)
from .realization import (
    apply_transform_to_path,
    certify_roundtrip,
    detect_events,
    letter_path,
    path_from_word,
    time_eq,
    void_path_to_base,
)
from .solver import Status, check_trace, eliminate_last, equal, solve
from .words import (
    CancelPair,
    GroupParams,
    InsertPair,
    Move,
    ReverseWindow,
    Word,
    apply_move,
    bfs_equal_oracle,
)

MAX_REPORTED_FAILURES = 5


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failures: tuple[str, ...]

    def summary(self) -> str:
        if self.passed:
            return f"PASS {self.name}: {self.checked} checks"
        shown = "; ".join(self.failures[:MAX_REPORTED_FAILURES])
        return f"FAIL {self.name}: {len(self.failures)} of {self.checked} checks failed ({shown})"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "failures": list(self.failures[:MAX_REPORTED_FAILURES]),
        }


SUITES: dict[str, Callable[[str, int], SuiteResult]] = {}


def suite(name: str):
    """Register ``checks(scale, rng)`` as the suite ``name``; return its runner."""

    def register(checks: Callable[[str, random.Random], Iterator[str | None]]):
        @wraps(checks)
        def run(scale: str = "full", seed: int = 0) -> SuiteResult:
            outcomes = list(checks(scale, random.Random(f"{name}:{seed}")))
            failures = tuple(message for message in outcomes if message is not None)
            return SuiteResult(name, not failures, len(outcomes), failures)

        SUITES[name] = run
        return run

    return register


def _random_word(params: GroupParams, rng: random.Random, max_len: int) -> Word:
    letters = params.all_letters()
    return Word(params, tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


def _random_legal_move(word: Word, rng: random.Random) -> Move:
    letters = word.params.all_letters()
    k = word.params.k
    cancels = [
        CancelPair(i, word.letters[i])
        for i in range(len(word.letters) - 1)
        if word.letters[i] == word.letters[i + 1]
    ]
    reversals = [
        ReverseWindow(pos)
        for pos in range(len(word.letters) - k)
        if len(set(word.letters[pos : pos + k + 1])) == k + 1
    ]
    kinds = ["insert"] + (["cancel"] if cancels else []) + (["reverse"] if reversals else [])
    kind = rng.choice(kinds)
    if kind == "cancel":
        return rng.choice(cancels)
    if kind == "reverse":
        return rng.choice(reversals)
    return InsertPair(rng.randint(0, len(word.letters)), rng.choice(letters))


def _move_invariants(word: Word, signs: SignString) -> tuple:
    return f_image(word), parity_vector(word), sign_action(word, signs)


@suite("move-invariance")
def suite_move_invariance(scale: str, rng: random.Random) -> Iterator[str | None]:
    """Relation moves never change the obstruction data.

    Random words get hit with one random legal move each; the reduced
    obstruction word, the parity vector, and the sign action must all
    survive unchanged.
    """
    rounds = {"quick": 60, "full": 1000}[scale]
    lengths = {3: {"quick": 12, "full": 30}[scale], 4: {"quick": 8, "full": 20}[scale]}
    for k, max_len in lengths.items():
        params = GroupParams(k + 1, k)
        signs = reference_signs(params)
        for _ in range(rounds):
            word = _random_word(params, rng, max_len)
            move = _random_legal_move(word, rng)
            moved = apply_move(word, move)
            same = _move_invariants(word, signs) == _move_invariants(moved, signs)
            yield None if same else f"k={k} word {word} move {move}"


@suite("elimination")
def suite_elimination(scale: str, rng: random.Random) -> Iterator[str | None]:
    """Words with trivial obstruction lose their last letter, verifiably.

    Exhaustive over short words: whenever the obstruction word is empty,
    elimination must produce a word free of the last letter, the recorded
    trace must replay, and the bounded oracle must confirm equality.
    """
    max_len = {"quick": 5, "full": 8}[scale]
    oracle_len, oracle_states = {"quick": (12, 100_000), "full": (14, 1_000_000)}[scale]
    params = GroupParams(4, 3)
    letters = params.all_letters()
    last = params.b_letter(4)
    for length in range(max_len + 1):
        for combo in product(letters, repeat=length):
            if sum(letter == last for letter in combo) % 2:
                continue
            word = Word(params, combo)
            if f_image(word):
                continue
            rewritten, trace = eliminate_last(word)
            if any(letter == last for letter in rewritten.letters):
                yield f"{word}: last letter survived as {rewritten}"
            elif not check_trace(word, trace, rewritten):
                yield f"{word}: trace does not replay to {rewritten}"
            else:
                outcome = bfs_equal_oracle(word, rewritten, oracle_len, oracle_states)
                yield None if outcome.equal else (
                    f"{word} vs {rewritten}: oracle exhausted ({outcome.states} states)"
                )


@suite("solver-oracle")
def suite_solver_oracle(scale: str, rng: random.Random) -> Iterator[str | None]:
    """The decision procedure agrees with bounded search on short words.

    Over all freely reduced words up to the length cap, Trivial verdicts
    must coincide exactly with the oracle reaching the empty word, and
    every NonTrivial verdict must carry a concrete witness: an obstruction,
    a residue, or the word's own nonzero parity vector.
    """
    max_len = {"quick": 5, "full": 7}[scale]
    # at max_len 12 the search exhausts every word's component (observed
    # maximum 29 states), so a non-Equal answer certifies that no rewrite
    # stays within 12 letters
    oracle_len, oracle_states = {"quick": (10, 500), "full": (12, 100_000)}[scale]
    params = GroupParams(4, 3)
    letters = params.all_letters()
    empty = Word(params, ())
    for length in range(max_len + 1):
        for combo in product(letters, repeat=length):
            if any(a == b for a, b in zip(combo, combo[1:])):
                continue  # every letter is an involution: not freely reduced
            word = Word(params, combo)
            verdict = solve(word)
            outcome = bfs_equal_oracle(word, empty, oracle_len, oracle_states)
            if (verdict.status is Status.TRIVIAL) != outcome.equal:
                yield f"{word}: solver {verdict.status.name}, oracle equal={outcome.equal}"
            elif verdict.status is Status.UNKNOWN:
                yield f"{word}: solver returned Unknown"
            elif verdict.status is Status.NONTRIVIAL and verdict.obstruction is None and verdict.residue is None:
                parity_witness = any(verdict.parity or ()) and verdict.parity == parity_vector(word)
                yield None if parity_witness else f"{word}: NonTrivial verdict without witness"
            else:
                yield None


@suite("sign-orbit")
def suite_sign_orbit(scale: str, rng: random.Random) -> Iterator[str | None]:
    """The sign action reaches every sign string: orbit size 2^(k-1)."""
    for k, expected in ((3, 4), (4, 8)):
        size = len(sign_orbit(GroupParams(k + 1, k)))
        yield None if size == expected else f"k={k}: orbit size {size}, expected {expected}"


@suite("roundtrip")
def suite_roundtrip(scale: str, rng: random.Random) -> Iterator[str | None]:
    """Realizing a word and reading the path back is the identity.

    Also checks the endpoint base configuration carries the signs predicted
    by the sign action.
    """
    plan = {"quick": ((3, 20, 6), (4, 8, 3)), "full": ((3, 200, 12), (4, 50, 6))}[scale]
    for k, rounds, max_len in plan:
        params = GroupParams(k + 1, k)
        for _ in range(rounds):
            word = _random_word(params, rng, max_len)
            report = certify_roundtrip(word)
            yield None if report.ok else (
                f"k={k} word {word}: recovered {report.recovered}, "
                f"signs {report.endpoint_signs} vs {report.expected_signs}"
            )


@suite("letter-paths")
def suite_letter_paths(scale: str, rng: random.Random) -> Iterator[str | None]:
    """Every (letter, sign string) pair yields a one-event path, certified
    here by detection, although ``letter_path`` derives all but one sign
    string's path from a single certified path per letter."""
    for k in (3, 4):
        params = GroupParams(k + 1, k)
        for letter in params.all_letters():
            for signs in sorted(sign_orbit(params)):
                where = f"k={k} {letter} from {signs}"
                try:
                    path, end_signs = letter_path(params, letter, signs)
                    subsets = [e.subset for e in detect_events(path)]
                except Exception as exc:  # noqa: BLE001 - report, don't abort the sweep
                    yield f"{where}: {exc}"
                    continue
                findings = []
                if end_signs != sign_action(Word(params, (letter,)), signs):
                    findings.append(f"ends at {end_signs}")
                if subsets != [letter.subset]:
                    findings.append(f"events {subsets}")
                yield f"{where}: {', '.join(findings)}" if findings else None


def _random_marked_configuration(params: GroupParams, rng: random.Random) -> Configuration:
    """Rejection-sample a nonsingular configuration with pinned frame points."""
    k = params.k
    units = base_configuration(params, reference_signs(params)).points[: k - 1]
    while True:
        coords = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
            for _ in range(params.n - k + 1)
        ]
        if any(not any(row) for row in coords):
            continue
        tail = tuple(tuple(clear_denominators(row)) for row in coords)
        config = Configuration(params, units + tail)
        if not singular_subsets(config):
            return config


@suite("void-paths")
def suite_void_paths(scale: str, rng: random.Random) -> Iterator[str | None]:
    """Nonsingular marked configurations return to base without events."""
    rounds = {"quick": 25, "full": 100}[scale]
    params = GroupParams(4, 3)
    for _ in range(rounds):
        config = _random_marked_configuration(params, rng)
        try:
            path, signs = void_path_to_base(config)
        except Exception as exc:  # noqa: BLE001 - report, don't abort the sweep
            yield f"{config}: {exc}"
            continue
        if detect_events(path):
            yield f"{config}: events on the return path"
        elif not path.keyframes[-1].same_configuration(base_configuration(params, signs)):
            yield f"{config}: endpoint is not the base configuration"
        else:
            yield None


@suite("window-reversal")
def suite_window_reversal(scale: str, rng: random.Random) -> Iterator[str | None]:
    """A full window of distinct letters equals its own reversal.

    Random orderings of all four letters (k=3) are compared with their
    reverses: the solver must judge them equal and the realized paths must
    share their endpoint.
    """
    rounds = {"quick": 2, "full": 5}[scale]
    params = GroupParams(4, 3)
    signs = reference_signs(params)
    for _ in range(rounds):
        letters = list(params.all_letters())
        rng.shuffle(letters)
        word = Word(params, tuple(letters))
        reverse = Word(params, tuple(reversed(letters)))
        verdict = equal(word, reverse)
        if verdict.status is not Status.TRIVIAL:
            yield f"{word} vs {reverse}: {verdict.status.name}"
        elif sign_action(word, signs) != sign_action(reverse, signs):
            yield f"{word} vs {reverse}: sign actions differ"
        elif not path_from_word(word).keyframes[-1].same_configuration(
            path_from_word(reverse).keyframes[-1]
        ):
            yield f"{word} vs {reverse}: realized endpoints differ"
        else:
            yield None


def _random_transform(k: int, rng: random.Random) -> ProjectiveTransform:
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k))
            for _ in range(k)
        )
        try:
            return ProjectiveTransform(rows)
        except ValueError:  # singular: draw again
            continue


@suite("transform-events")
def suite_transform_events(scale: str, rng: random.Random) -> Iterator[str | None]:
    """Projective transforms leave event lists untouched.

    Each round realizes a random word, applies a random invertible
    transform to every keyframe, and demands the identical (segment,
    subset, parameter) sequence, parameters compared exactly.
    """
    rounds = {"quick": 10, "full": 50}[scale]
    params = GroupParams(4, 3)
    for _ in range(rounds):
        word = _random_word(params, rng, 3)
        path = path_from_word(word)
        transform = _random_transform(params.k, rng)
        before = detect_events(path)
        after = detect_events(apply_transform_to_path(transform, path))
        same = len(before) == len(after) and all(
            a.segment == b.segment and a.subset == b.subset and time_eq(a.t, b.t)
            for a, b in zip(before, after)
        )
        yield None if same else f"{word} under {transform.matrix}: event lists differ"


def run_suites(scale: str = "full", seed: int = 0, names: list[str] | None = None) -> list[SuiteResult]:
    if scale not in ("quick", "full"):
        raise ValueError(f"unknown scale {scale!r}")
    chosen = names if names is not None else list(SUITES)
    unknown = [name for name in chosen if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    return [SUITES[name](scale, seed) for name in chosen]
