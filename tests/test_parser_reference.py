"""The command line parses as the single parser it replaces.

``cli.parse_args`` builds the top-level parser and the parser of the one
command named, where the reference below built a subparser for every
command.  For any argv both must end with the same exit code, standard
output and standard error, help included, or parse to the same values.
"""

import contextlib
import io
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from projbraid import cli
from projbraid.cli import (
    COMMANDS,
    _cmd_certify,
    _cmd_eliminate,
    _cmd_equal,
    _cmd_f_image,
    _cmd_in_h,
    _cmd_in_tilde,
    _cmd_oracle,
    _cmd_orbit,
    _cmd_parity,
    _cmd_realize,
    _cmd_selftest,
    _cmd_sign_action,
    _cmd_solve,
    _Parser,
)
from test_fuzz import SHAPES, cli_argv


# The parser before it was split per command, as it was written; only its
# description names the cli module's docstring, which __doc__ meant there.
@cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="projbraid", description=cli.__doc__)
    parser.add_argument("--k", type=int, default=3, help="subset size (default 3)")
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output style"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--max-len", type=int, default=12, help="oracle length bound")
    parser.add_argument("--max-states", type=int, default=100_000, help="oracle state bound")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, handler, help_text: str, *words, group=True, min_k=2, trace=False, signs=False):
        """A subcommand with positional ``words``.  ``main`` rejects k < ``min_k``,
        builds the group of ``--k`` when ``group`` is true, and parses the
        words in that group."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, word_args=words, group=group, min_k=min_k)
        for word in words:
            p.add_argument(word)
        if trace:
            p.add_argument("--trace", action="store_true", help="print the move trace")
        if signs:
            p.add_argument(
                "--signs", default=None,
                help="starting sign string, '(+,-)' or '+-'; write '-+' as --signs=-+ or '(-,+)'",
            )
        return p

    cmd("solve", _cmd_solve, "decide whether a word is trivial", "word", min_k=3, trace=True)
    cmd("equal", _cmd_equal, "decide whether two words are equal", "word1", "word2", min_k=3, trace=True)
    cmd("f-image", _cmd_f_image, "obstruction image of a word", "word")
    cmd("parity", _cmd_parity, "per-letter occurrence parities", "word")
    cmd("sign-action", _cmd_sign_action, "action of a word on a sign string", "word", signs=True)
    cmd("eliminate", _cmd_eliminate, "rewrite away the last letter, with trace", "word", trace=True)
    cmd("in-h", _cmd_in_h, "membership in the last-letter-free subgroup", "word")
    cmd("in-tilde", _cmd_in_tilde, "membership in the sign-preserving subgroup", "word")
    realize = cmd("realize", _cmd_realize, "write a path file realizing a word", "word", min_k=3, signs=True)
    realize.add_argument("out", help="output path file")
    certify = cmd("certify", _cmd_certify, "read a path file, recover its word and events", group=False)
    certify.add_argument("file", help="input path file")
    cmd("orbit", _cmd_orbit, "orbit of the reference sign string")
    cmd("oracle", _cmd_oracle, "bounded search for a rewrite between two words", "word1", "word2", trace=True)
    st = cmd("selftest", _cmd_selftest, "run the verification suites", group=False)
    st.add_argument("scale", nargs="?", choices=("quick", "full"), default="quick")
    st.add_argument("--suite", action="append", help="run only this suite (repeatable)")
    return parser


def outcome(parse, argv):
    """(exit code or None, stdout, stderr, parsed values or None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            values, code = vars(parse(list(argv))), None
        except SystemExit as exc:
            values, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), values


def check_same(argv):
    expected = outcome(build_parser().parse_args, argv)
    got = outcome(cli.parse_args, argv)
    values = expected[3]
    if values is not None:
        # what the reference kept in the namespace for main, which reads COMMANDS now
        command = COMMANDS[values["command"]]
        assert values.pop("handler") is command.handler
        assert values.pop("word_args") == command.words
        assert (values.pop("group"), values.pop("min_k")) == (command.group, command.min_k)
    assert got == expected
    return got


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    # argparse wraps help and usage at the terminal width
    monkeypatch.setenv("COLUMNS", "80")


def test_no_arguments_require_only_the_command():
    code, out, err, _ = check_same([])
    assert (code, out) == (3, "")
    assert err.endswith("projbraid: error: the following arguments are required: command\n")


def test_double_dash_is_an_invalid_command():
    code, out, err, _ = check_same(["--", "solve", "b4 b4"])
    assert (code, out) == (3, "")
    assert "projbraid: error: argument command: invalid choice: '--'" in err


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_top_level_help_lists_every_command(flag):
    code, out, err, _ = check_same([flag])
    assert (code, err) == (0, "")
    assert all(f"    {name} " in out for name in COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_help(name):
    code, out, err, _ = check_same([name, "-h"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: projbraid {name} [-h]")


@pytest.mark.parametrize("argv", [
    ["bogus"],
    ["--k", "3", "bogus", "-h"],
    ["--bogus", "solve", "b1", "--x"],
    ["solve", "b4 b4", "solve"],
    ["--format", "solve", "solve", "b1"],
    ["--k", "realize", "solve", "b1"],
    ["--k=3", "--form", "structured", "solve", "--trace", "b4 b4"],
    ["--m", "3", "solve", "b1"],
    ["--bogus"],
    ["-h", "--k", "x"],
    ["--k", "x", "-h"],
    ["selftest", "full", "--suite", "a", "--suite", "b"],
    ["realize", "--signs=-+", "b1", "out.json"],
    ["certify", "--", "-file"],
])
def test_edge_cases(argv):
    check_same(argv)


# tokens before or in place of the command
HEADS = st.sampled_from([
    [], ["-h"], ["--help"], ["--he"], ["--"], ["bogus"], ["--k=3"], ["--form", "structured"],
    ["--format", "solve"], ["--k", "certify"], ["--seed", "orbit"], ["--bogus"], ["-x"],
    ["solve"], ["orbit"], ["selftest"],
])
TAILS = st.lists(st.sampled_from(sorted(SHAPES) + ["-h", "--help", "--", "--k", "3", "--bogus"]), max_size=2)


@st.composite
def reference_argv(draw) -> list[str]:
    argv = draw(cli_argv())
    at = argv.index("--max-states") + 2   # where cli_argv puts the command
    head = draw(HEADS)
    where = draw(st.sampled_from(["before", "instead", "alone"]))
    if where == "before":
        argv[at:at] = head
    elif where == "instead":
        argv[at:at + 1] = head
    else:
        argv = head
    return argv + draw(TAILS)


@settings(max_examples=400, deadline=None)
@given(reference_argv())
def test_same_outcome_as_reference(argv):
    check_same(argv)


def test_usage_for_errors_after_parsing():
    # main reports bad --k and bad input against the top-level usage
    assert cli.build_parser().format_usage() == build_parser().format_usage()


class TestParsersBuilt:
    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of every parser cli builds, from cold parser caches."""
        progs = []
        init = _Parser.__init__

        def counting(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(_Parser, "__init__", counting)
        cli.build_parser.cache_clear()
        cli.command_parser.cache_clear()
        yield progs
        cli.build_parser.cache_clear()
        cli.command_parser.cache_clear()

    def test_realize_then_certify(self, built, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        assert cli.main(["--k", "5", "realize", "b6 b1 b6", path]) == 0
        assert cli.main(["certify", path]) == 0
        assert built == ["projbraid", "projbraid realize", "projbraid certify"]

    def test_second_solve_builds_none(self, built, capsys):
        assert cli.main(["solve", "b4 b4"]) == 0
        del built[:]
        assert cli.main(["--format", "structured", "solve", "--trace", "b4 b1 b4"]) == 1
        assert built == []
