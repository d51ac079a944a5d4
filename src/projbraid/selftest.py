"""Verification suites exercising the solver and realization pipelines.

Each suite checks one advertised property end to end: invariance of the
obstruction data under relation moves, soundness of last-letter elimination
against the bounded rewrite oracle, agreement of the decision procedure with
exhaustive search, sign-orbit sizes, path/word roundtrips, letter-path and
void-path certification, window reversal, and invariance of event lists
under projective transforms.

Suites run at two scales: ``quick`` finishes in seconds and is meant for a
smoke check, ``full`` runs the complete advertised volumes.  All randomness
is drawn from a seed derived from the suite name, so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .invariants import (
    MoveInvariants,
    f_image,
    reference_signs,
    sign_action,
    sign_orbit,
)
from .projective import (
    Configuration,
    ProjectivePoint,
    ProjectiveTransform,
    base_configuration,
    det,
    general_position_violation,
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
from .solver import Status, check_trace, eliminate_last, equal_k3, solve_k3
from .words import (
    CancelPair,
    GroupParams,
    InsertPair,
    Move,
    ReverseWindow,
    Word,
    apply_move,
    bfs_equal_oracle,
    free_reduce,
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


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{name}:{seed}")


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


def _result(name: str, checked: int, failures: list[str]) -> SuiteResult:
    return SuiteResult(name, not failures, checked, tuple(failures))


def suite_move_invariance(scale: str = "full", seed: int = 0) -> SuiteResult:
    """Relation moves never change the obstruction data.

    Random words get hit with one random legal move each; the reduced
    obstruction word, the parity vector, and the sign action must all
    survive unchanged.
    """
    rounds = {"quick": 60, "full": 1000}[scale]
    lengths = {3: {"quick": 12, "full": 30}[scale], 4: {"quick": 8, "full": 20}[scale]}
    rng = _rng(seed, "move-invariance")
    failures: list[str] = []
    checked = 0
    for k, max_len in lengths.items():
        params = GroupParams(k + 1, k)
        signs = reference_signs(params)
        for _ in range(rounds):
            word = _random_word(params, rng, max_len)
            move = _random_legal_move(word, rng)
            moved = apply_move(word, move)
            checked += 1
            if MoveInvariants.of(word, signs) != MoveInvariants.of(moved, signs):
                failures.append(f"k={k} word {word} move {move}")
    return _result("move-invariance", checked, failures)


def suite_elimination(scale: str = "full", seed: int = 0) -> SuiteResult:
    """Words with trivial obstruction lose their last letter, verifiably.

    Exhaustive over short words: whenever the obstruction word is empty,
    elimination must produce a word free of the last letter, the recorded
    trace must replay, and the bounded oracle must confirm equality.
    """
    del seed  # exhaustive, nothing random
    max_len = {"quick": 5, "full": 8}[scale]
    oracle_len, oracle_states = {"quick": (12, 100_000), "full": (14, 1_000_000)}[scale]
    params = GroupParams(4, 3)
    letters = params.all_letters()
    last = params.b_letter(4)
    failures: list[str] = []
    checked = 0
    for length in range(max_len + 1):
        for combo in product(letters, repeat=length):
            if sum(letter == last for letter in combo) % 2:
                continue
            word = Word(params, combo)
            if f_image(word):
                continue
            checked += 1
            rewritten, trace = eliminate_last(word)
            if any(letter == last for letter in rewritten.letters):
                failures.append(f"{word}: last letter survived as {rewritten}")
                continue
            if not check_trace(word, trace, rewritten):
                failures.append(f"{word}: trace does not replay to {rewritten}")
                continue
            outcome = bfs_equal_oracle(word, rewritten, oracle_len, oracle_states)
            if not outcome.equal:
                failures.append(f"{word} vs {rewritten}: oracle exhausted ({outcome.states} states)")
    return _result("elimination", checked, failures)


def suite_solver_oracle(scale: str = "full", seed: int = 0) -> SuiteResult:
    """The decision procedure agrees with bounded search on short words.

    Over all freely reduced words up to the length cap, Trivial verdicts
    must coincide exactly with the oracle reaching the empty word, and
    every NonTrivial verdict must carry a concrete witness.
    """
    del seed
    max_len = {"quick": 5, "full": 7}[scale]
    # at max_len 12 the search exhausts every word's component (observed
    # maximum 29 states), so a non-Equal answer certifies that no rewrite
    # stays within 12 letters
    oracle_len, oracle_states = {"quick": (10, 500), "full": (12, 100_000)}[scale]
    params = GroupParams(4, 3)
    letters = params.all_letters()
    empty = Word(params, ())
    seen: set[tuple] = set()
    failures: list[str] = []
    checked = 0
    for length in range(max_len + 1):
        for combo in product(letters, repeat=length):
            reduced = free_reduce(Word(params, combo))
            if reduced.letters in seen:
                continue
            seen.add(reduced.letters)
            checked += 1
            verdict = solve_k3(reduced)
            outcome = bfs_equal_oracle(reduced, empty, oracle_len, oracle_states)
            if (verdict.status is Status.TRIVIAL) != outcome.equal:
                failures.append(f"{reduced}: solver {verdict.status.name}, oracle equal={outcome.equal}")
                continue
            if verdict.status is Status.NONTRIVIAL:
                if verdict.obstruction is None and verdict.residue is None:
                    failures.append(f"{reduced}: NonTrivial verdict without witness")
            elif verdict.status is Status.UNKNOWN:
                failures.append(f"{reduced}: solver returned Unknown")
    return _result("solver-oracle", checked, failures)


def suite_sign_orbit(scale: str = "full", seed: int = 0) -> SuiteResult:
    """The sign action reaches every sign string: orbit size 2^(k-1)."""
    del scale, seed
    failures: list[str] = []
    checked = 0
    for k, expected in ((3, 4), (4, 8)):
        checked += 1
        size = len(sign_orbit(GroupParams(k + 1, k)))
        if size != expected:
            failures.append(f"k={k}: orbit size {size}, expected {expected}")
    return _result("sign-orbit", checked, failures)


def suite_roundtrip(scale: str = "full", seed: int = 0) -> SuiteResult:
    """Realizing a word and reading the path back is the identity.

    Also checks the endpoint base configuration carries the signs predicted
    by the sign action.
    """
    plan = {
        "quick": ((3, 20, 6), (4, 8, 3)),
        "full": ((3, 200, 12), (4, 50, 6)),
    }[scale]
    rng = _rng(seed, "roundtrip")
    failures: list[str] = []
    checked = 0
    for k, rounds, max_len in plan:
        params = GroupParams(k + 1, k)
        for _ in range(rounds):
            word = _random_word(params, rng, max_len)
            checked += 1
            report = certify_roundtrip(word)
            if not report.ok:
                failures.append(
                    f"k={k} word {word}: recovered {report.recovered}, "
                    f"signs {report.endpoint_signs} vs {report.expected_signs}"
                )
    return _result("roundtrip", checked, failures)


def suite_letter_paths(scale: str = "full", seed: int = 0) -> SuiteResult:
    """Every (letter, sign string) pair yields a certified one-event path."""
    del scale, seed
    failures: list[str] = []
    checked = 0
    for k in (3, 4):
        params = GroupParams(k + 1, k)
        for letter in params.all_letters():
            for signs in sorted(sign_orbit(params)):
                checked += 1
                try:
                    path, end_signs = letter_path(params, letter, signs)
                except Exception as exc:  # noqa: BLE001 - report, don't abort the sweep
                    failures.append(f"k={k} {letter} from {signs}: {exc}")
                    continue
                expected = sign_action(Word(params, (letter,)), signs)
                if end_signs != expected:
                    failures.append(f"k={k} {letter} from {signs}: ends at {end_signs}")
    return _result("letter-paths", checked, failures)


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
        tail = tuple(ProjectivePoint(tuple(row)) for row in coords)
        config = Configuration(params, units + tail)
        if general_position_violation(config) is None and not singular_subsets(config):
            return config


def suite_void_paths(scale: str = "full", seed: int = 0) -> SuiteResult:
    """Nonsingular marked configurations return to base without events."""
    rounds = {"quick": 25, "full": 100}[scale]
    rng = _rng(seed, "void-paths")
    params = GroupParams(4, 3)
    failures: list[str] = []
    checked = 0
    for _ in range(rounds):
        config = _random_marked_configuration(params, rng)
        checked += 1
        try:
            path, signs = void_path_to_base(config)
        except Exception as exc:  # noqa: BLE001 - report, don't abort the sweep
            failures.append(f"{config}: {exc}")
            continue
        if detect_events(path):
            failures.append(f"{config}: events on the return path")
        elif not path.keyframes[-1].same_configuration(base_configuration(params, signs)):
            failures.append(f"{config}: endpoint is not the base configuration")
    return _result("void-paths", checked, failures)


def suite_window_reversal(scale: str = "full", seed: int = 0) -> SuiteResult:
    """A full window of distinct letters equals its own reversal.

    Random orderings of all four letters (k=3) are compared with their
    reverses: the solver must judge them equal and the realized paths must
    share their endpoint.
    """
    rounds = {"quick": 2, "full": 5}[scale]
    rng = _rng(seed, "window-reversal")
    params = GroupParams(4, 3)
    failures: list[str] = []
    checked = 0
    for _ in range(rounds):
        letters = list(params.all_letters())
        rng.shuffle(letters)
        word = Word(params, tuple(letters))
        reverse = Word(params, tuple(reversed(letters)))
        checked += 1
        verdict = equal_k3(word, reverse)
        if verdict.status is not Status.TRIVIAL:
            failures.append(f"{word} vs {reverse}: {verdict.status.name}")
            continue
        signs = reference_signs(params)
        if sign_action(word, signs) != sign_action(reverse, signs):
            failures.append(f"{word} vs {reverse}: sign actions differ")
            continue
        end_a = path_from_word(word).keyframes[-1]
        end_b = path_from_word(reverse).keyframes[-1]
        if not end_a.same_configuration(end_b):
            failures.append(f"{word} vs {reverse}: realized endpoints differ")
    return _result("window-reversal", checked, failures)


def _random_transform(k: int, rng: random.Random) -> ProjectiveTransform:
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k))
            for _ in range(k)
        )
        if det(rows) != 0:
            return ProjectiveTransform(rows)


def suite_transform_events(scale: str = "full", seed: int = 0) -> SuiteResult:
    """Projective transforms leave event lists untouched.

    Each round realizes a random word, applies a random invertible
    transform to every keyframe, and demands the identical (segment,
    subset, parameter) sequence, parameters compared exactly.
    """
    rounds = {"quick": 10, "full": 50}[scale]
    rng = _rng(seed, "transform-events")
    params = GroupParams(4, 3)
    failures: list[str] = []
    checked = 0
    for _ in range(rounds):
        word = _random_word(params, rng, 3)
        path = path_from_word(word)
        transform = _random_transform(params.k, rng)
        checked += 1
        before = detect_events(path)
        after = detect_events(apply_transform_to_path(transform, path))
        same = len(before) == len(after) and all(
            a.segment == b.segment and a.subset == b.subset and time_eq(a.t, b.t)
            for a, b in zip(before, after)
        )
        if not same:
            failures.append(f"{word} under {transform.matrix}: event lists differ")
    return _result("transform-events", checked, failures)


SUITES = {
    "move-invariance": suite_move_invariance,
    "elimination": suite_elimination,
    "solver-oracle": suite_solver_oracle,
    "sign-orbit": suite_sign_orbit,
    "roundtrip": suite_roundtrip,
    "letter-paths": suite_letter_paths,
    "void-paths": suite_void_paths,
    "window-reversal": suite_window_reversal,
    "transform-events": suite_transform_events,
}


def run_suites(scale: str = "full", seed: int = 0, names: list[str] | None = None) -> list[SuiteResult]:
    if scale not in ("quick", "full"):
        raise ValueError(f"unknown scale {scale!r}")
    chosen = names if names is not None else list(SUITES)
    unknown = [name for name in chosen if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    return [SUITES[name](scale, seed) for name in chosen]
