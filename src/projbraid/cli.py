"""Command-line front end.

Exposes the solver and realization pipelines in a form scripts can drive:
every command prints either plain text or a structured JSON document, and
solve-style commands triage their verdict through the exit code (0 trivial,
1 nontrivial, 2 unknown).  Exit code 3 covers usage and input errors, so a
pipeline can always distinguish "decided" from "could not run".
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from functools import cache
from pathlib import Path

from . import selftest as selftest_mod
from .invariants import (
    f_image,
    format_obstruction,
    format_sign_string,
    in_tilde_subgroup,
    parity_vector,
    parse_sign_string,
    reference_signs,
    sign_action,
    sign_orbit,
)
from .polys import monic
from .realization import (
    AlgebraicTime,
    PathError,
    check_base_sign,
    detect_events,
    indented_json,
    load_path_file,
    path_from_word,
    save_path_file,
)
from .solver import NotInSubgroupError, Status, Verdict, check_trace, eliminate_last, equal, solve
from .words import (
    CancelPair,
    GroupParams,
    InsertPair,
    Letter,
    ReverseWindow,
    SwapAdjacent,
    Word,
    WordSyntaxError,
    bfs_equal_oracle,
    check_subset_count,
    format_word,
    parse_word,
)

USAGE_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2, which this tool uses for Unknown."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Bad input that ``main`` reports as argparse does: usage, message, exit 3."""


# What a command found, as (key, value, line) entries in text order.  ``main``
# prints the keyed values as the structured document, or the lines that are
# not None as text; a line may hold several lines joined by newlines.
Record = list[tuple[str, object, str | None]]


def _word_text(word: Word) -> str:
    if not word.letters:
        return '""'
    if word.params.is_square:
        return format_word(word, "b-index")
    return format_word(word, "subset")


# move type -> (structured kind, text template over the move's fields)
_MOVE_FORMS = {
    InsertPair: ("insert", "insert {letter}{letter} at {pos}"),
    CancelPair: ("cancel", "cancel {letter}{letter} at {pos}"),
    ReverseWindow: ("reverse", "reverse window at {pos}"),
    SwapAdjacent: ("swap", "swap at {pos}"),
}


def _bits(bits) -> str:
    return " ".join(str(b) for b in bits)


def _lines(lines) -> str | None:
    """Several text lines as one record line; none as no line."""
    return "\n".join(lines) or None


def _trace_entry(moves) -> tuple:
    """The ``trace`` entry: one indented text line and one document per move."""
    docs, lines, names = [], [], {}
    for move in moves:
        kind, template = _MOVE_FORMS[type(move)]
        fields = {"pos": move.pos}
        if hasattr(move, "letter"):
            fields["letter"] = names.get(move.letter) or names.setdefault(move.letter, str(move.letter))
        lines.append("  " + template.format(**fields))
        docs.append({"kind": kind, **fields})
    return ("trace", docs, _lines(lines))


def _time_entry(t) -> tuple:
    """An event time as (document, text): a fraction, or the monic
    polynomial of an algebraic time with its isolating interval."""
    if not isinstance(t, AlgebraicTime):
        return str(t), str(t)
    poly = [str(c) for c in monic(t.poly)]
    lo, hi = str(t.lo), str(t.hi)
    return {"poly": poly, "interval": [lo, hi]}, f"root of [{', '.join(poly)}] in ({lo}, {hi})"


# verdict status -> (exit code, name)
_STATUS = {
    Status.TRIVIAL: (0, "Trivial"),
    Status.NONTRIVIAL: (1, "NonTrivial"),
    Status.UNKNOWN: (2, "Unknown"),
}


def _verdict(verdict: Verdict, show_trace: bool) -> tuple[int, Record]:
    code, name = _STATUS[verdict.status]
    record = [("status", name, name)]
    if verdict.obstruction is not None:
        obstruction = format_obstruction(verdict.obstruction)
        record.append(("obstruction", obstruction, f"witness: obstruction {obstruction}"))
    if verdict.parity is not None:
        record.append(("parity", list(verdict.parity), f"witness: parity {_bits(verdict.parity)}"))
    if verdict.residue is not None:
        label = "witness: residue" if verdict.status is Status.NONTRIVIAL else "residue"
        residue = _word_text(verdict.residue)
        record.append(("residue", residue, f"{label}: {residue}"))
    flags = sorted(verdict.assumption_flags)
    record.append(("assumptions", flags, _lines(f"assumes: {flag}" for flag in flags)))
    if verdict.trace is not None:
        record.append(("trace_moves", len(verdict.trace), f"trace: {len(verdict.trace)} moves"))
        if show_trace:
            record.append(_trace_entry(verdict.trace.steps))
    return code, record


def _cmd_solve(args, word: Word) -> tuple[int, Record]:
    return _verdict(solve(word), args.trace)


def _cmd_equal(args, w1: Word, w2: Word) -> tuple[int, Record]:
    return _verdict(equal(w1, w2), args.trace)


def _cmd_f_image(args, word: Word) -> tuple[int, Record]:
    image = f_image(word)
    text = format_obstruction(image)
    return 0, [("f_image", text, text), ("trivial", not image, None)]


def _cmd_parity(args, word: Word) -> tuple[int, Record]:
    parity = parity_vector(word)
    return 0, [("parity", list(parity), _bits(parity))]


def _signs_or_reference(args, params: GroupParams):
    if args.signs is None:
        return reference_signs(params)
    try:
        return parse_sign_string(args.signs, params)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _cmd_sign_action(args, word: Word) -> tuple[int, Record]:
    start = _signs_or_reference(args, word.params)
    start_text, end_text = format_sign_string(start), format_sign_string(sign_action(word, start))
    return 0, [("start", start_text, f"{start_text} -> {end_text}"), ("end", end_text, None)]


def _cmd_eliminate(args, word: Word) -> tuple[int, Record]:
    try:
        rewritten, trace = eliminate_last(word)
    except NotInSubgroupError as exc:
        obstruction = format_obstruction(exc.obstruction)
        line = f"not in subgroup: obstruction {obstruction}"
        return 1, [("member", False, None), ("obstruction", obstruction, line)]
    ok = check_trace(word, trace, rewritten)
    text = _word_text(rewritten)
    record = [
        ("word", text, text),
        ("trace_ok", ok, None),
        ("trace_moves", len(trace), f"trace-{'ok' if ok else 'BROKEN'} ({len(trace)} moves)"),
    ]
    if args.trace:
        record.append(_trace_entry(trace.steps))
    return (0 if ok else 1), record


def _cmd_in_h(args, word: Word) -> tuple[int, Record]:
    try:
        rewritten, _ = eliminate_last(word)
    except NotInSubgroupError as exc:
        obstruction = format_obstruction(exc.obstruction)
        return 1, [("member", False, None), ("obstruction", obstruction, f"no: obstruction {obstruction}")]
    text = _word_text(rewritten)
    return 0, [("member", True, None), ("rewritten", text, f"yes: {text}")]


def _cmd_in_tilde(args, word: Word) -> tuple[int, Record]:
    inside = in_tilde_subgroup(word)
    return (0 if inside else 1), [("member", inside, "yes" if inside else "no")]


def _check_output(file: str) -> None:
    """Raise, before any work, the error that writing ``file`` would raise
    when it is a directory or its directory is missing or not a directory;
    create nothing."""
    target = Path(file)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    if not target.parent.is_dir():
        target.stat()   # fails, naming the file, as opening it would


def _cmd_realize(args, word: Word) -> tuple[int, Record]:
    word.params.require_path_k()
    start = _signs_or_reference(args, word.params)
    _check_output(args.out)
    path = path_from_word(word, start)
    save_path_file(path, args.out, base_sign=start)
    end = format_sign_string(sign_action(word, start))
    return 0, [
        ("endpoint", end, f"endpoint: {end}"),
        ("keyframes", len(path.keyframes), f"keyframes: {len(path.keyframes)}"),
        ("file", str(args.out), None),
    ]


def _cmd_certify(args) -> tuple[int, Record]:
    try:
        path, base_sign = load_path_file(args.file)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:   # ValueError covers JSONDecodeError
        raise _UsageError(f"bad path file: {exc}") from exc
    try:
        if base_sign is not None:
            check_base_sign(path, base_sign)
        events = detect_events(path)
    except PathError as exc:
        name = type(exc).__name__
        return 1, [("error", name, f"certification failed: {name}: {exc}"), ("message", str(exc), None)]
    word = _word_text(Word(path.params, tuple(Letter(e.subset) for e in events)))
    docs, lines = [], [f"events: {len(events)}"]
    for event in events:
        t_doc, t_text = _time_entry(event.t)
        docs.append({"segment": event.segment, "subset": list(event.subset), "t": t_doc})
        subset = "{" + ",".join(str(i) for i in event.subset) + "}"
        lines.append(f"  segment {event.segment} subset {subset} t = {t_text}")
    return 0, [("word", word, f"word: {word}"), ("events", docs, _lines(lines))]


def _cmd_orbit(args, params: GroupParams) -> tuple[int, Record]:
    orbit = [format_sign_string(signs) for signs in sorted(sign_orbit(params))]
    return 0, [("orbit", orbit, _lines(orbit)), ("size", len(orbit), f"size: {len(orbit)}")]


def _cmd_oracle(args, w1: Word, w2: Word) -> tuple[int, Record]:
    result = bfs_equal_oracle(w1, w2, max_len=args.max_len, max_states=args.max_states)
    if not result.equal:
        return 2, [("equal", None, f"Unknown ({result.states} states)"), ("states", result.states, None)]
    record = [
        ("equal", True, f"Equal ({len(result.trace)} moves, {result.states} states)"),
        ("moves", len(result.trace), None),
        ("states", result.states, None),
    ]
    if args.trace:
        record.append(_trace_entry(result.trace))
    return 0, record


def _cmd_selftest(args) -> tuple[int, Record]:
    try:
        results = selftest_mod.run_suites(args.scale, args.seed, args.suite or None)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    passed = all(r.passed for r in results)
    return (0 if passed else 1), [
        ("scale", args.scale, None),
        ("seed", args.seed, None),
        ("suites", [r.to_dict() for r in results], _lines(r.summary() for r in results)),
        ("passed", passed, "all suites passed" if passed else "FAILURES present"),
    ]


@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="projbraid", description=__doc__)
    parser.add_argument("--k", type=int, default=3, help="subset size (default 3)")
    parser.add_argument("--n", type=int, default=None, help="number of indices (default k + 1)")
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output style"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--max-len", type=int, default=12, help="oracle length bound")
    parser.add_argument("--max-states", type=int, default=100_000, help="oracle state bound")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, handler, help_text: str, *words, group="square", min_k=2, trace=False, signs=False):
        """A subcommand with positional ``words``.  ``main`` rejects k < ``min_k``,
        builds the group of ``--k`` and ``--n`` unless ``group`` is None, requires
        n = k + 1 when it is "square", and parses the words in that group."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, word_args=words, group=group, min_k=min_k)
        for word in words:
            p.add_argument(word)
        if trace:
            p.add_argument("--trace", action="store_true", help="print the move trace")
        if signs:
            p.add_argument("--signs", default=None, help="starting sign string, e.g. '(+,-)'")
        return p

    cmd("solve", _cmd_solve, "decide whether a word is trivial", "word", min_k=3, trace=True)
    cmd("equal", _cmd_equal, "decide whether two words are equal", "word1", "word2", min_k=3, trace=True)
    cmd("f-image", _cmd_f_image, "obstruction image of a word", "word")
    cmd("parity", _cmd_parity, "per-letter occurrence parities", "word", group="any")
    cmd("sign-action", _cmd_sign_action, "action of a word on a sign string", "word", signs=True)
    cmd("eliminate", _cmd_eliminate, "rewrite away the last letter, with trace", "word", trace=True)
    cmd("in-h", _cmd_in_h, "membership in the last-letter-free subgroup", "word")
    cmd("in-tilde", _cmd_in_tilde, "membership in the sign-preserving subgroup", "word")
    realize = cmd("realize", _cmd_realize, "write a path file realizing a word", "word", min_k=3, signs=True)
    realize.add_argument("out", help="output path file")
    certify = cmd("certify", _cmd_certify, "read a path file, recover its word and events", group=None)
    certify.add_argument("file", help="input path file")
    cmd("orbit", _cmd_orbit, "orbit of the reference sign string")
    cmd(
        "oracle", _cmd_oracle, "bounded search for a rewrite between two words", "word1", "word2",
        group="any", trace=True,
    )
    st = cmd("selftest", _cmd_selftest, "run the verification suites", group=None)
    st.add_argument("scale", nargs="?", choices=("quick", "full"), default="quick")
    st.add_argument("--suite", action="append", help="run only this suite (repeatable)")
    return parser


def _inputs(args) -> list:
    """What the handler takes after ``args``: the parsed words, or the group
    for a command without words; nothing for a command without a group."""
    if args.group is None:
        return []
    params = GroupParams(args.n if args.n is not None else args.k + 1, args.k)
    check_subset_count(params)
    if args.group == "square" and not params.is_square:
        raise _UsageError(f"this command needs n = k + 1, got n = {params.n}, k = {params.k}")
    try:
        words = [parse_word(getattr(args, name), params) for name in args.word_args]
    except WordSyntaxError as exc:
        raise _UsageError(str(exc)) from exc
    return words or [params]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.k < 2:
        parser.error("--k must be at least 2")
    if args.k < args.min_k:
        parser.error(f"{args.command} needs k >= {args.min_k}")
    try:
        code, record = args.handler(args, *_inputs(args))
    except _UsageError as exc:
        parser.error(str(exc))
    except OSError as exc:
        # only path files are opened: the input of certify, the output of realize
        reason = "no such file" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"projbraid: error: {reason}: {exc.filename}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"projbraid: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.format == "structured":
        doc = {"command": args.command} | {key: value for key, value, _ in record}
        print(indented_json(doc, sort_keys=True))
    else:
        for _, _, line in record:
            if line is not None:
                print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
