"""Command-line front end.

Exposes the solver and realization pipelines in a form scripts can drive:
every command prints either plain text or a structured JSON document, and
solve-style commands triage their verdict through the exit code (0 trivial,
1 nontrivial, 2 unknown).  Exit code 3 covers usage and input errors, so a
pipeline can always distinguish "decided" from "could not run".
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

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
from .realization import (
    AlgebraicTime,
    PathError,
    check_base_sign,
    detect_events,
    load_path_file,
    path_from_word,
    save_path_file,
    word_from_path,
)
from .solver import NotInSubgroupError, Status, check_trace, eliminate_last, is_in_H, solve_k3, solve_semi
from .words import (
    CancelPair,
    GroupParams,
    InsertPair,
    ReverseWindow,
    SwapAdjacent,
    Word,
    WordSyntaxError,
    bfs_equal_oracle,
    check_subset_count,
    concat,
    format_word,
    free_reduce,
    inverse,
    parse_word,
)

USAGE_ERROR = 3


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2, which this tool uses for Unknown."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


@dataclass
class _Output:
    structured: bool
    lines: list[str]
    doc: dict

    def text(self, line: str) -> None:
        self.lines.append(line)

    def field(self, key: str, value) -> None:
        self.doc[key] = value

    def flush(self) -> None:
        if self.structured:
            print(json.dumps(self.doc, indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


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


def _report_trace(out: _Output, moves) -> None:
    """One indented text line per move, and the ``trace`` field."""
    docs = []
    for move in moves:
        kind, template = _MOVE_FORMS[type(move)]
        fields = {"pos": move.pos}
        if hasattr(move, "letter"):
            fields["letter"] = str(move.letter)
        out.text("  " + template.format(**fields))
        docs.append({"kind": kind, **fields})
    out.field("trace", docs)


def _fraction_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _time_text(t) -> str:
    if isinstance(t, AlgebraicTime):
        coeffs = ", ".join(_fraction_text(c) for c in t.poly)
        return f"root of [{coeffs}] in ({_fraction_text(t.lo)}, {_fraction_text(t.hi)})"
    return _fraction_text(t)


def _time_doc(t):
    if isinstance(t, AlgebraicTime):
        return {
            "poly": [_fraction_text(c) for c in t.poly],
            "interval": [_fraction_text(t.lo), _fraction_text(t.hi)],
        }
    return _fraction_text(t)


def _params(args) -> GroupParams:
    n = args.n if args.n is not None else args.k + 1
    params = GroupParams(n, args.k)
    check_subset_count(params)
    return params


def _square_params(parser: _Parser, args) -> GroupParams:
    params = _params(args)
    if not params.is_square:
        parser.error(f"this command needs n = k + 1, got n = {params.n}, k = {params.k}")
    return params


def _parse(parser: _Parser, text: str, params: GroupParams) -> Word:
    try:
        return parse_word(text, params)
    except WordSyntaxError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def _status_exit(status: Status) -> int:
    return {Status.TRIVIAL: 0, Status.NONTRIVIAL: 1, Status.UNKNOWN: 2}[status]


def _report_verdict(out: _Output, verdict, show_trace: bool) -> int:
    names = {Status.TRIVIAL: "Trivial", Status.NONTRIVIAL: "NonTrivial", Status.UNKNOWN: "Unknown"}
    out.text(names[verdict.status])
    out.field("status", names[verdict.status])
    if verdict.obstruction is not None:
        out.text(f"witness: obstruction {format_obstruction(verdict.obstruction)}")
        out.field("obstruction", format_obstruction(verdict.obstruction))
    if verdict.parity is not None:
        out.text(f"witness: parity {' '.join(str(b) for b in verdict.parity)}")
        out.field("parity", list(verdict.parity))
    if verdict.residue is not None:
        label = "witness: residue" if verdict.status is Status.NONTRIVIAL else "residue"
        out.text(f"{label}: {_word_text(verdict.residue)}")
        out.field("residue", _word_text(verdict.residue))
    for flag in sorted(verdict.assumption_flags):
        out.text(f"assumes: {flag}")
    out.field("assumptions", sorted(verdict.assumption_flags))
    if verdict.trace is not None:
        out.text(f"trace: {len(verdict.trace)} moves")
        out.field("trace_moves", len(verdict.trace))
        if show_trace:
            _report_trace(out, verdict.trace.steps)
    return _status_exit(verdict.status)


def _cmd_solve(parser: _Parser, args, out: _Output) -> int:
    params = _square_params(parser, args)
    return _decide(out, _parse(parser, args.word, params), args.trace)


def _cmd_equal(parser: _Parser, args, out: _Output) -> int:
    params = _square_params(parser, args)
    w1 = _parse(parser, args.word1, params)
    w2 = _parse(parser, args.word2, params)
    return _decide(out, free_reduce(concat(w1, inverse(w2))), args.trace)


def _decide(out: _Output, word: Word, show_trace: bool) -> int:
    verdict = solve_k3(word) if word.params.k == 3 else solve_semi(word)
    return _report_verdict(out, verdict, show_trace)


def _cmd_f_image(parser: _Parser, args, out: _Output) -> int:
    params = _square_params(parser, args)
    word = _parse(parser, args.word, params)
    image = f_image(word)
    out.text(format_obstruction(image))
    out.field("f_image", format_obstruction(image))
    out.field("trivial", not image)
    return 0


def _cmd_parity(parser: _Parser, args, out: _Output) -> int:
    params = _params(args)
    word = _parse(parser, args.word, params)
    parity = parity_vector(word)
    out.text(" ".join(str(b) for b in parity))
    out.field("parity", list(parity))
    return 0


def _signs_or_reference(parser: _Parser, args, params: GroupParams):
    if args.signs is None:
        return reference_signs(params)
    try:
        return parse_sign_string(args.signs, params)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_sign_action(parser: _Parser, args, out: _Output) -> int:
    params = _square_params(parser, args)
    word = _parse(parser, args.word, params)
    start = _signs_or_reference(parser, args, params)
    end = sign_action(word, start)
    out.text(f"{format_sign_string(start)} -> {format_sign_string(end)}")
    out.field("start", format_sign_string(start))
    out.field("end", format_sign_string(end))
    return 0


def _cmd_eliminate(parser: _Parser, args, out: _Output) -> int:
    params = _square_params(parser, args)
    word = _parse(parser, args.word, params)
    try:
        rewritten, trace = eliminate_last(word)
    except NotInSubgroupError as exc:
        out.text(f"not in subgroup: obstruction {format_obstruction(exc.obstruction)}")
        out.field("member", False)
        out.field("obstruction", format_obstruction(exc.obstruction))
        return 1
    ok = check_trace(word, trace, rewritten)
    out.text(_word_text(rewritten))
    out.text(f"trace-{'ok' if ok else 'BROKEN'} ({len(trace)} moves)")
    out.field("word", _word_text(rewritten))
    out.field("trace_ok", ok)
    out.field("trace_moves", len(trace))
    if args.trace:
        _report_trace(out, trace.steps)
    return 0 if ok else 1


def _cmd_in_h(parser: _Parser, args, out: _Output) -> int:
    params = _square_params(parser, args)
    word = _parse(parser, args.word, params)
    membership = is_in_H(word)
    if membership.member:
        out.text(f"yes: {_word_text(membership.rewritten)}")
        out.field("member", True)
        out.field("rewritten", _word_text(membership.rewritten))
    else:
        out.text(f"no: obstruction {format_obstruction(membership.obstruction)}")
        out.field("member", False)
        out.field("obstruction", format_obstruction(membership.obstruction))
    return 0 if membership.member else 1


def _cmd_in_tilde(parser: _Parser, args, out: _Output) -> int:
    params = _square_params(parser, args)
    word = _parse(parser, args.word, params)
    inside = in_tilde_subgroup(word)
    out.text("yes" if inside else "no")
    out.field("member", inside)
    return 0 if inside else 1


def _cmd_realize(parser: _Parser, args, out: _Output) -> int:
    params = _square_params(parser, args)
    word = _parse(parser, args.word, params)
    start = _signs_or_reference(parser, args, params)
    path = path_from_word(word, start)
    save_path_file(path, args.out, base_sign=start)
    end = sign_action(word, start)
    out.text(f"endpoint: {format_sign_string(end)}")
    out.text(f"keyframes: {len(path.keyframes)}")
    out.field("endpoint", format_sign_string(end))
    out.field("keyframes", len(path.keyframes))
    out.field("file", str(args.out))
    return 0


def _cmd_certify(parser: _Parser, args, out: _Output) -> int:
    try:
        path, base_sign = load_path_file(args.file)
    except FileNotFoundError:
        parser.error(f"no such file: {args.file}")
    except (json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        parser.error(f"bad path file: {exc}")
    try:
        if base_sign is not None:
            check_base_sign(path, base_sign)
        events = detect_events(path)
    except PathError as exc:
        out.text(f"certification failed: {type(exc).__name__}: {exc}")
        out.field("error", type(exc).__name__)
        out.field("message", str(exc))
        return 1
    word = word_from_path(path)
    out.text(f"word: {_word_text(word)}")
    out.text(f"events: {len(events)}")
    for event in events:
        subset = "{" + ",".join(str(i) for i in event.subset) + "}"
        out.text(f"  segment {event.segment} subset {subset} t = {_time_text(event.t)}")
    out.field("word", _word_text(word))
    out.field(
        "events",
        [
            {"segment": e.segment, "subset": list(e.subset), "t": _time_doc(e.t)}
            for e in events
        ],
    )
    return 0


def _cmd_orbit(parser: _Parser, args, out: _Output) -> int:
    params = _square_params(parser, args)
    orbit = sorted(sign_orbit(params))
    for signs in orbit:
        out.text(format_sign_string(signs))
    out.text(f"size: {len(orbit)}")
    out.field("orbit", [format_sign_string(s) for s in orbit])
    out.field("size", len(orbit))
    return 0


def _cmd_oracle(parser: _Parser, args, out: _Output) -> int:
    params = _params(args)
    w1 = _parse(parser, args.word1, params)
    w2 = _parse(parser, args.word2, params)
    result = bfs_equal_oracle(w1, w2, max_len=args.max_len, max_states=args.max_states)
    if result.equal:
        out.text(f"Equal ({len(result.trace)} moves, {result.states} states)")
        out.field("equal", True)
        out.field("moves", len(result.trace))
        if args.trace:
            _report_trace(out, result.trace)
    else:
        out.text(f"Unknown ({result.states} states)")
        out.field("equal", None)
    out.field("states", result.states)
    return 0 if result.equal else 2


def _cmd_selftest(parser: _Parser, args, out: _Output) -> int:
    try:
        results = selftest_mod.run_suites(args.scale, args.seed, args.suite or None)
    except ValueError as exc:
        parser.error(str(exc))
    all_passed = all(r.passed for r in results)
    for result in results:
        out.text(result.summary())
    out.text("all suites passed" if all_passed else "FAILURES present")
    out.field("scale", args.scale)
    out.field("seed", args.seed)
    out.field("suites", [r.to_dict() for r in results])
    out.field("passed", all_passed)
    return 0 if all_passed else 1


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

    def cmd(name: str, handler, help_text: str, *, word=0, trace=False, signs=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if word == 1:
            p.add_argument("word")
        elif word == 2:
            p.add_argument("word1")
            p.add_argument("word2")
        if trace:
            p.add_argument("--trace", action="store_true", help="print the move trace")
        if signs:
            p.add_argument("--signs", default=None, help="starting sign string, e.g. '(+,-)'")
        return p

    cmd("solve", _cmd_solve, "decide whether a word is trivial", word=1, trace=True)
    cmd("equal", _cmd_equal, "decide whether two words are equal", word=2, trace=True)
    cmd("f-image", _cmd_f_image, "obstruction image of a word", word=1)
    cmd("parity", _cmd_parity, "per-letter occurrence parities", word=1)
    cmd("sign-action", _cmd_sign_action, "action of a word on a sign string", word=1, signs=True)
    cmd("eliminate", _cmd_eliminate, "rewrite away the last letter, with trace", word=1, trace=True)
    cmd("in-h", _cmd_in_h, "membership in the last-letter-free subgroup", word=1)
    cmd("in-tilde", _cmd_in_tilde, "membership in the sign-preserving subgroup", word=1)
    realize = cmd("realize", _cmd_realize, "write a path file realizing a word", word=1, signs=True)
    realize.add_argument("out", help="output path file")
    certify = cmd("certify", _cmd_certify, "read a path file, recover its word and events")
    certify.add_argument("file", help="input path file")
    cmd("orbit", _cmd_orbit, "orbit of the reference sign string")
    cmd("oracle", _cmd_oracle, "bounded search for a rewrite between two words", word=2, trace=True)
    st = cmd("selftest", _cmd_selftest, "run the verification suites")
    st.add_argument("scale", nargs="?", choices=("quick", "full"), default="quick")
    st.add_argument("--suite", action="append", help="run only this suite (repeatable)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.k < 2:
        parser.error("--k must be at least 2")
    if args.command in ("solve", "equal", "realize") and args.k < 3:
        parser.error(f"{args.command} needs k >= 3")
    out = _Output(structured=args.format == "structured", lines=[], doc={"command": args.command})
    try:
        code = args.handler(parser, args, out)
    except (WordSyntaxError, ValueError) as exc:
        print(f"projbraid: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
