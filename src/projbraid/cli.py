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
from collections.abc import Iterable
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

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
    JSONFragment,
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
    CANCEL,
    INSERT,
    REVERSE,
    CodeMove,
    GroupParams,
    Letter,
    Word,
    WordSyntaxError,
    bfs_equal_oracle,
    encode_moves,
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
# not None as text; a line may hold several lines joined by newlines.  An
# entry rendered for one format only (``_trace_entry``) leaves the other None.
Record = list[tuple[str, object, str | None]]


def _word_text(word: Word) -> str:
    return format_word(word, "b-index") if word.letters else '""'


# move kind -> its (text line, item of the structured list, keys sorted) up to
# the move's position, over its letter; a letter prints as a{...}, which JSON
# writes as it stands
_MOVE_FORMS = {
    INSERT: ("  insert {letter}{letter} at ",
             '  {{\n    "kind": "insert",\n    "letter": "{letter}",\n    "pos": '),
    CANCEL: ("  cancel {letter}{letter} at ",
             '  {{\n    "kind": "cancel",\n    "letter": "{letter}",\n    "pos": '),
    REVERSE: ("  reverse window at ", '  {{\n    "kind": "reverse",\n    "pos": '),
}


def _bits(bits) -> str:
    return " ".join(str(b) for b in bits)


def _lines(lines) -> str | None:
    """Several text lines as one record line; none as no line."""
    return "\n".join(lines) or None


def _trace_entry(codes: Iterable[CodeMove], letters: tuple[Letter, ...], trace_format: str) -> tuple:
    """The ``trace`` entry of the (kind, pos, code) moves over ``letters``,
    rendered in ``trace_format`` only: the text lines, or the structured list
    as one ``JSONFragment``.  Each move is the form of its (kind, code),
    built once per kind and letter, followed by its position."""
    structured = trace_format == "structured"
    forms: dict[tuple[int, int], str] = {}
    parts = []
    for kind, pos, code in codes:
        form = forms.get((kind, code))
        if form is None:
            letter = None if kind == REVERSE else letters[code]
            form = forms[kind, code] = _MOVE_FORMS[kind][structured].format(letter=letter)
        parts.append(form + str(pos))
    if not structured:
        return ("trace", None, _lines(parts))
    text = "[\n" + "\n  },\n".join(parts) + "\n  }\n]" if parts else "[]"
    return ("trace", JSONFragment(text), None)


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


def _verdict(verdict: Verdict, trace_format: str | None) -> tuple[int, Record]:
    """The record of ``verdict``, with its trace rendered in ``trace_format``
    (``--format``), or without it for None."""
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
        if trace_format:
            record.append(_trace_entry(verdict.trace.codes, verdict.trace.letters, trace_format))
    return code, record


def _cmd_solve(args, word: Word) -> tuple[int, Record]:
    return _verdict(solve(word), args.format if args.trace else None)


def _cmd_equal(args, w1: Word, w2: Word) -> tuple[int, Record]:
    return _verdict(equal(w1, w2), args.format if args.trace else None)


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
        record.append(_trace_entry(trace.codes, trace.letters, args.format))
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
    except (ValueError, RecursionError) as exc:   # ValueError covers JSONDecodeError
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
        params = w1.params
        record.append(_trace_entry(encode_moves(params, result.trace), params.all_letters(), args.format))
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


class _Command(NamedTuple):
    """A subcommand.  ``main`` rejects k < ``min_k``, builds the group of
    ``--k`` when ``group`` is true, and parses the positional ``words`` in
    that group; ``args`` are its other arguments, as (name, keywords) pairs."""

    handler: Callable
    help: str
    words: tuple[str, ...] = ()
    min_k: int = 2
    group: bool = True
    args: tuple[tuple[str, dict], ...] = ()


_TRACE = ("--trace", {"action": "store_true", "help": "print the move trace"})
_SIGNS = ("--signs", {
    "default": None,
    "help": "starting sign string, '(+,-)' or '+-'; write '-+' as --signs=-+ or '(-,+)'",
})

COMMANDS = {
    "solve": _Command(_cmd_solve, "decide whether a word is trivial", ("word",), min_k=3, args=(_TRACE,)),
    "equal": _Command(_cmd_equal, "decide whether two words are equal", ("word1", "word2"), min_k=3,
                      args=(_TRACE,)),
    "f-image": _Command(_cmd_f_image, "obstruction image of a word", ("word",)),
    "parity": _Command(_cmd_parity, "per-letter occurrence parities", ("word",)),
    "sign-action": _Command(_cmd_sign_action, "action of a word on a sign string", ("word",), args=(_SIGNS,)),
    "eliminate": _Command(_cmd_eliminate, "rewrite away the last letter, with trace", ("word",), args=(_TRACE,)),
    "in-h": _Command(_cmd_in_h, "membership in the last-letter-free subgroup", ("word",)),
    "in-tilde": _Command(_cmd_in_tilde, "membership in the sign-preserving subgroup", ("word",)),
    "realize": _Command(_cmd_realize, "write a path file realizing a word", ("word",), min_k=3,
                        args=(_SIGNS, ("out", {"help": "output path file"}))),
    "certify": _Command(_cmd_certify, "read a path file, recover its word and events", group=False,
                        args=(("file", {"help": "input path file"}),)),
    "orbit": _Command(_cmd_orbit, "orbit of the reference sign string"),
    "oracle": _Command(_cmd_oracle, "bounded search for a rewrite between two words", ("word1", "word2"),
                       args=(_TRACE,)),
    "selftest": _Command(_cmd_selftest, "run the verification suites", group=False, args=(
        ("scale", {"nargs": "?", "choices": ("quick", "full"), "default": "quick"}),
        ("--suite", {"action": "append", "help": "run only this suite (repeatable)"}),
    )),
}


class _ListingHelp(argparse.Action):
    """``-h`` before the command: the help lists every command, so only this
    path builds a parser with a subparser per command."""

    def __call__(self, parser, namespace, values, option_string=None):
        listing = _global_parser()
        sub = listing.add_subparsers(dest="command", required=True)
        for name, command in COMMANDS.items():
            sub.add_parser(name, help=command.help)
        listing.print_help()
        listing.exit()


def _global_parser() -> _Parser:
    """A top-level parser with the global options and no command."""
    parser = _Parser(prog="projbraid", description=__doc__, add_help=False)
    parser.add_argument(
        "-h", "--help", action=_ListingHelp, nargs=0, default=argparse.SUPPRESS,
        help="show this help message and exit",
    )
    parser.add_argument("--k", type=int, default=3, help="subset size (default 3)")
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output style"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--max-len", type=int, default=12, help="oracle length bound")
    parser.add_argument("--max-states", type=int, default=100_000, help="oracle state bound")
    return parser


@cache
def build_parser() -> _Parser:
    """The top-level parser, built once per process: the global options,
    then the command name and the arguments that ``command_parser`` reads.
    Its usage and errors are those of a parser with a subparser per command,
    since that is an action with the same name, ``nargs`` and choices."""
    parser = _global_parser()
    parser.add_argument("command", nargs=argparse.PARSER, choices=tuple(COMMANDS))
    return parser


@cache
def command_parser(name: str) -> _Parser:
    """The parser of one command's arguments, built once per process."""
    command = COMMANDS[name]
    parser = _Parser(prog=f"projbraid {name}")
    for word in command.words:
        parser.add_argument(word)
    for arg, keywords in command.args:
        parser.add_argument(arg, **keywords)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The global options and the named command's arguments, in one namespace.

    A subparser reports its own errors, and what neither parser knows is
    reported against the top-level usage, as one parser with a subparser
    per command does; parsing leaves both parsers unchanged."""
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    args.command, *rest = args.command
    args, unknown_to_command = command_parser(args.command).parse_known_args(rest, args)
    if unknown or unknown_to_command:
        parser.error("unrecognized arguments: " + " ".join(unknown + unknown_to_command))
    return args


def _inputs(args, command: _Command) -> list:
    """What the handler takes after ``args``: the parsed words, or the group
    for a command without words; nothing for a command without a group."""
    if not command.group:
        return []
    params = GroupParams(args.k + 1, args.k)
    try:
        words = [parse_word(getattr(args, name), params) for name in command.words]
    except WordSyntaxError as exc:
        raise _UsageError(str(exc)) from exc
    return words or [params]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    parser, command = build_parser(), COMMANDS[args.command]
    if args.k < 2:
        parser.error("--k must be at least 2")
    if args.k < command.min_k:
        parser.error(f"{args.command} needs k >= {command.min_k}")
    try:
        code, record = command.handler(args, *_inputs(args, command))
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
