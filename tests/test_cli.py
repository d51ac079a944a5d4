"""Command-line interface: exact output lines and exit codes."""

import json
import time

import pytest

from projbraid.cli import build_parser, main


def run(capsys, *argv):
    """Run the CLI in-process, normalizing SystemExit into a return code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "--k", "3", "solve", "b4 b4")
        assert code == 0
        assert out.splitlines()[0] == "Trivial"

    def test_nontrivial_with_witness(self, capsys):
        code, out, _ = run(capsys, "--k", "3", "solve", "b4 b1 b4")
        assert code == 1
        assert out.splitlines() == ["NonTrivial", "witness: obstruction c(0,0) c(1,0)"]

    def test_unknown_at_k4(self, capsys):
        code, out, _ = run(capsys, "--k", "4", "solve", "b1 b2 b1 b2")
        assert code == 2
        assert out.splitlines() == ["Unknown", "residue: b1 b2 b1 b2"]

    def test_empty_word(self, capsys):
        code, out, _ = run(capsys, "solve", "")
        assert code == 0
        assert out.startswith("Trivial")

    def test_trace_lists_moves(self, capsys):
        code, out, _ = run(capsys, "solve", "--trace", "b4 b4")
        assert code == 0
        assert "cancel" in out


class TestInvariantCommands:
    def test_f_image(self, capsys):
        code, out, _ = run(capsys, "f-image", "b4 b1 b4")
        assert (code, out) == (0, "c(0,0) c(1,0)\n")

    def test_sign_action(self, capsys):
        code, out, _ = run(capsys, "sign-action", "b4")
        assert (code, out) == (0, "(+,+) -> (-,+)\n")

    def test_sign_action_custom_start(self, capsys):
        code, out, _ = run(capsys, "sign-action", "--signs", "(-,+)", "b3")
        assert (code, out) == (0, "(-,+) -> (-,-)\n")

    def test_parity(self, capsys):
        code, out, _ = run(capsys, "parity", "b4 b1 b4")
        assert (code, out) == (0, "1 0 0 0\n")

    def test_orbit_sizes(self, capsys):
        code, out, _ = run(capsys, "orbit")
        assert code == 0
        assert out.splitlines()[-1] == "size: 4"
        code, out, _ = run(capsys, "--k", "4", "orbit")
        assert code == 0
        assert out.splitlines()[-1] == "size: 8"

    def test_membership(self, capsys):
        code, out, _ = run(capsys, "in-h", "b4 b1 b4")
        assert code == 1
        assert out == "no: obstruction c(0,0) c(1,0)\n"
        code, out, _ = run(capsys, "in-tilde", "b4 b4")
        assert (code, out) == (0, "yes\n")
        code, out, _ = run(capsys, "in-tilde", "b4")
        assert code == 1


class TestEliminate:
    def test_rewrites_away_last_letter(self, capsys):
        code, out, _ = run(capsys, "eliminate", "b4 b1 b2 b3 b4")
        assert code == 0
        assert out.splitlines() == ["b3 b2 b1", "trace-ok (2 moves)"]

    def test_trace_flag(self, capsys):
        code, out, _ = run(capsys, "eliminate", "--trace", "b4 b1 b2 b3 b4")
        assert code == 0
        lines = out.splitlines()
        assert lines[2].lstrip().startswith("reverse window")

    def test_obstructed_word(self, capsys):
        code, out, _ = run(capsys, "eliminate", "b4 b1 b4")
        assert code == 1
        assert "obstruction" in out


class TestEqual:
    def test_equal_words(self, capsys):
        code, out, _ = run(capsys, "equal", "b1 b2 b3 b4", "b4 b3 b2 b1")
        assert code == 0
        assert out.splitlines()[0] == "Trivial"

    def test_verdict_can_lean_on_an_assumption(self, capsys):
        code, out, _ = run(capsys, "equal", "b1 b2 b3", "b3 b2 b1")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "NonTrivial"
        assert any(line.startswith("assumes:") for line in lines)


class TestOracle:
    def test_equal_within_bounds(self, capsys):
        code, out, _ = run(capsys, "oracle", "b4 b4", "")
        assert code == 0
        assert out.startswith("Equal")

    def test_unknown_is_exit_two(self, capsys):
        code, out, _ = run(capsys, "oracle", "b4 b1 b4", "")
        assert code == 2
        assert out.startswith("Unknown")


class TestRealizeCertify:
    def test_roundtrip(self, tmp_path, capsys):
        file = str(tmp_path / "p.json")
        code, out, _ = run(capsys, "realize", "b4 b1", file)
        assert code == 0
        assert out.splitlines() == ["endpoint: (+,-)", "keyframes: 4"]
        code, out, _ = run(capsys, "certify", file)
        assert code == 0
        assert out.splitlines() == [
            "word: b4 b1",
            "events: 2",
            "  segment 0 subset {2,3,4} t = 1/2",
            "  segment 1 subset {1,2,3} t = 1/2",
        ]

    def test_certify_flags_bad_path(self, tmp_path, capsys):
        file = tmp_path / "bad.json"
        frame = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        degenerate = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]
        file.write_text(json.dumps({"k": 3, "n": 4, "keyframes": [frame, degenerate]}))
        code, out, _ = run(capsys, "certify", str(file))
        assert code == 1
        assert out.startswith("certification failed: DegenerateKeyframe")

    def test_certify_detects_events_once(self, tmp_path, capsys, monkeypatch):
        from projbraid import cli, realization

        file = str(tmp_path / "p.json")
        assert run(capsys, "--k", "4", "realize", "b5 b1 b2", file)[0] == 0
        calls, detect_events = [], realization.detect_events

        def counted(path):
            calls.append(path)
            return detect_events(path)

        monkeypatch.setattr(realization, "detect_events", counted)
        monkeypatch.setattr(cli, "detect_events", counted)
        code, out, _ = run(capsys, "certify", file)
        assert (code, out.splitlines()[0]) == (0, "word: b5 b1 b2")
        assert len(calls) == 1

    def test_certify_missing_file(self, capsys):
        code, _, err = run(capsys, "certify", "/does/not/exist.json")
        assert code == 3
        assert "no such file" in err

    def test_certify_rejects_bad_base_sign(self, tmp_path, capsys):
        file = tmp_path / "signs.json"
        frame = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        file.write_text(json.dumps({"k": 3, "n": 4, "keyframes": [frame, frame], "base_sign": "xy"}))
        code, out, err = run(capsys, "certify", str(file))
        assert (code, out) == (3, "")
        assert "bad path file: unexpected character 'x'" in err

    def test_certify_malformed_json(self, tmp_path, capsys):
        file = tmp_path / "junk.json"
        file.write_text("{not json")
        code, _, err = run(capsys, "certify", str(file))
        assert code == 3
        assert "bad path file" in err


FRAME_K3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]


class TestUntrustedInput:
    """Malformed or oversized input exits 3 quickly, without a traceback."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (json.dumps({"k": 3, "n": 4, "keyframes": [FRAME_K3, FRAME_K3[:3] + [[1, "1/0", 1]]]}), "'1/0'"),
            ('{"k": 3, "n": 1e400, "keyframes": []}', "n must be an integer"),
            (json.dumps({"k": 3, "n": 4, "keyframes": [FRAME_K3, FRAME_K3[:3] + [[1, "1e20000000", 1]]]}),
             "'1e20000000'"),
            ('{"k": 3, "n": 4.0, "keyframes": []}', "n must be an integer"),
            ('{"k": true, "n": 4, "keyframes": []}', "k must be an integer"),
            (json.dumps({"k": 3, "n": 4, "keyframes": [FRAME_K3, FRAME_K3[:3] + [[1, 1.5, 1]]]}), "1.5"),
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
            ('{"k": 999, "n": 1000, "keyframes": []}', "k=999 is beyond the cap of MAX_PATH_K = 64"),
            ('{"k": 3, "n": 4, "keyframes": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth"),
        ],
        ids=["zero-denominator", "huge-float-n", "exponent", "float-n", "bool-k", "float-coordinate",
             "deep-nesting", "deep-nesting-in-keyframes", "k-over-the-path-cap"],
    )
    def test_bad_path_file(self, tmp_path, capsys, text, message):
        file = tmp_path / "bad.json"
        file.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", str(file))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "bad path file" in err and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("certify", "."), "Is a directory: ."),
            (("realize", "b4", "."), "Is a directory: ."),
            (("realize", "b4", "missing/dir/x.json"), "no such file: missing/dir/x.json"),
        ],
        ids=["certify-directory", "realize-into-directory", "realize-into-missing-directory"],
    )
    def test_path_file_io_error(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"projbraid: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("token", ["b" + "9" * 5000, "a{1,2," + "9" * 5000 + "}"], ids=["b", "subset"])
    def test_token_beyond_the_int_conversion_limit(self, capsys, token):
        code, out, err = run(capsys, "solve", token)
        assert (code, out) == (3, "")
        assert err.startswith("usage: projbraid")
        assert "projbraid: error: token 1 (" in err
        assert max(len(line) for line in err.splitlines()) < 200
        assert f"({token[:32]!r}...)" in err

    def test_realize_checks_the_output_before_realizing(self, tmp_path, monkeypatch, capsys):
        from projbraid import cli

        def fail(*args):
            raise AssertionError("path_from_word ran before the output was checked")

        monkeypatch.setattr(cli, "path_from_word", fail)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        for out, message in [
            ("missing/dir/x.json", "no such file: missing/dir/x.json"),
            (".", "Is a directory: ."),
            ("file/x.json", "Not a directory: file/x.json"),
        ]:
            code, stdout, err = run(capsys, "--k", "6", "realize", "b1 b7 b2 b7", out)
            assert (code, stdout, err) == (3, "", f"projbraid: error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_realize_over_the_path_cap(self, tmp_path, monkeypatch, capsys):
        # C(1000, 999) = 1000 passes the subset cap; the path cap stops realize
        # before any path geometry and before the output is written
        from projbraid import cli

        def fail(*args):
            raise AssertionError("path_from_word ran above the path cap")

        monkeypatch.setattr(cli, "path_from_word", fail)
        monkeypatch.chdir(tmp_path)
        start = time.perf_counter()
        code, out, err = run(capsys, "--k", "999", "realize", "b1", "out.json")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == "projbraid: error: k=999 is beyond the cap of MAX_PATH_K = 64 for paths\n"
        assert list(tmp_path.iterdir()) == []

    def test_path_file_over_the_subset_cap(self, tmp_path, capsys):
        # C(18, 9) = 48620 subsets from a file of about 1.5 KB
        frame = [[int(i == j) for j in range(9)] for i in range(9)] + [[1] * 9 for _ in range(9)]
        file = tmp_path / "big.json"
        file.write_text(json.dumps({"k": 9, "n": 18, "keyframes": [frame] * 3}))
        assert 1400 < file.stat().st_size < 1700
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", str(file))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "exceeds the cap of 1000 subsets" in err

    def test_oracle_over_the_subset_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "--k", "10", "--n", "24", "oracle", "a{1,2,3,4,5,6,7,8,9,10}", "")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "exceeds the cap of 1000 subsets" in err

    def test_huge_n_over_the_subset_cap(self, capsys):
        code, _, err = run(capsys, "--k", "3", "--n", str(10**9), "parity", "")
        assert code == 3
        assert "exceeds the cap" in err

    @pytest.mark.parametrize("k", ["14", "30", "999"])
    def test_orbit_over_the_orbit_cap(self, capsys, k):
        # C(k + 1, k) = k + 1 passes the subset cap up to k = 999; 2^(k-1) strings do not
        start = time.perf_counter()
        code, out, err = run(capsys, "--k", k, "--n", str(int(k) + 1), "orbit")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert f"the sign orbit for k={k} has 2^{int(k) - 1} strings" in err
        assert "beyond the cap of MAX_ORBIT_K = 13" in err

    def test_orbit_cap_bounds_the_size(self, capsys, monkeypatch):
        from projbraid import invariants

        monkeypatch.setattr(invariants, "MAX_ORBIT_K", 4)
        code, out, _ = run(capsys, "--k", "4", "orbit")
        assert (code, out.splitlines()[-1]) == (0, "size: 8")
        code, out, err = run(capsys, "--k", "5", "orbit")
        assert (code, out) == (3, "")
        assert "beyond the cap of MAX_ORBIT_K = 4" in err


class TestStructuredOutput:
    def test_solve_document(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "solve", "b4 b1 b4")
        assert code == 1
        assert json.loads(out) == {
            "assumptions": [],
            "command": "solve",
            "obstruction": "c(0,0) c(1,0)",
            "status": "NonTrivial",
        }

    def test_f_image_document(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "f-image", "b4 b1 b4")
        assert code == 0
        assert json.loads(out) == {
            "command": "f-image",
            "f_image": "c(0,0) c(1,0)",
            "trivial": False,
        }

    def test_selftest_is_deterministic(self, capsys):
        argv = ("--format", "structured", "selftest", "quick", "--suite", "sign-orbit")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0
        assert json.loads(first[1])["passed"] is True


class TestSelftest:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "quick", "--suite", "sign-orbit")
        assert code == 0
        assert out.splitlines()[-1] == "all suites passed"

    def test_unknown_suite_rejected(self, capsys):
        code, _, err = run(capsys, "selftest", "quick", "--suite", "nope")
        assert code == 3
        assert "unknown suites" in err


class TestRepeatedCalls:
    # main parses with one parser per process; no call may see another's arguments
    SEQUENCE = [
        ("--k", "4", "--format", "structured", "solve", "b1 b2 b1 b2"),
        ("solve", "b4 b4"),
        ("--format", "structured", "selftest", "quick", "--suite", "sign-orbit"),
        ("--format", "structured", "selftest", "quick", "--suite", "sign-orbit"),
        ("--seed", "5", "selftest", "quick", "--suite", "sign-orbit", "--suite", "sign-orbit"),
        ("selftest", "quick", "--suite", "nope"),
        ("sign-action", "--signs", "(-,+)", "b3"),
        ("sign-action", "b3"),
        ("oracle", "--trace", "b4 b4", ""),
        ("oracle", "b4 b4", ""),
        ("--k", "1", "solve", "b1"),
        ("parity", "b4 b1 b4"),
    ]

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_leaks_between_calls(self, capsys):
        fresh = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        shared = [run(capsys, *argv) for argv in self.SEQUENCE]
        shared_reversed = [run(capsys, *argv) for argv in reversed(self.SEQUENCE)]
        assert shared == fresh
        assert shared_reversed[::-1] == fresh
        assert [suite["name"] for suite in json.loads(fresh[3][1])["suites"]] == ["sign-orbit"]
        assert fresh[1][1].startswith("Trivial")
        assert fresh[7][1] == "(+,+) -> (+,-)\n"
        assert "insert" not in fresh[9][1] and "cancel" not in fresh[9][1]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--k", "1", "solve", "b1"),
            ("--k", "2", "solve", "b1 b1"),
            ("solve", "b9"),
            ("solve", "b1 xx"),
            ("--k", "3", "--n", "6", "solve", "b1"),
        ],
    )
    def test_exit_three(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "error:" in err
