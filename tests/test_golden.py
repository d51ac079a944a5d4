"""Golden transcripts of the command line: exit codes, exact stdout, written files.

Every run is made twice, in text and in ``--format structured``, from a
fresh working directory that holds the run's input file, if any.  The
transcript of both is compared with ``tests/golden/<name>.txt`` byte for
byte, and a run that writes a path file also compares that file with
``tests/golden/<name>.path.json``.

After a deliberate change of output, rewrite the golden files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import shutil
import tempfile
from pathlib import Path

import pytest

from projbraid.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv after any format flag
RUNS = {
    # the examples of the README, in its order
    "readme-solve-trivial": ["--k", "3", "solve", "b4 b4"],
    "readme-solve-nontrivial": ["--k", "3", "solve", "b4 b1 b4"],
    "readme-solve-unknown": ["--k", "4", "solve", "b1 b2 b1 b2"],
    "readme-f-image": ["f-image", "b4 b1 b4"],
    "readme-sign-action": ["sign-action", "b4"],
    "readme-eliminate": ["eliminate", "b4 b1 b2 b3 b4"],
    "readme-realize": ["realize", "b4 b1", "path.json"],
    "readme-certify": ["certify", "path.json"],
    "readme-orbit": ["orbit"],
    "readme-oracle": ["oracle", "b4 b4", ""],
    "selftest-quick": ["selftest", "quick"],
    # traces of the decision procedures
    "solve-trace-k3": ["--k", "3", "solve", "--trace", "b1 b2 b3 b4 b1 b2 b3 b4"],
    "solve-trace-k4": ["--k", "4", "solve", "--trace", "b1 b2 b3 b4 b5 b1 b2 b3 b4 b5"],
    "solve-trace-nontrivial-residue": ["--k", "3", "solve", "--trace", "b4 b1 b2 b3 b4 b1"],
    # an even k = 3 word with an empty obstruction and a nonempty residue:
    # the one verdict that rests on H3
    "solve-k3-h3-residue": ["--k", "3", "solve", "b4 b1 b2 b1 b2 b4"],
    "eliminate-trace": ["eliminate", "--trace", "b4 b1 b2 b1 b2 b4 b3 b4 b1 b2 b3 b4"],
    "eliminate-not-member": ["eliminate", "--trace", "b4 b1 b4"],
    "equal-k3": ["--k", "3", "equal", "--trace", "b1 b2 b3 b4", "b4 b3 b2 b1"],
    "equal-k3-no": ["--k", "3", "equal", "b1 b2 b3", "b3 b2 b1"],
    "equal-k4": ["--k", "4", "equal", "--trace", "b1 b2 b3 b4 b5", "b5 b4 b3 b2 b1"],
    "equal-k4-parity": ["--k", "4", "equal", "b1 b2", "b2"],
    # k = 4 witnesses: an obstruction with odd parity reports the obstruction,
    # and an empty obstruction with odd parity reports the parity
    "solve-k4-obstruction-odd": ["--k", "4", "solve", "b5"],
    "solve-k4-parity": ["--k", "4", "solve", "b5 b1 b2 b3 b4 b5 b1"],
    # membership and invariants
    "in-h-yes": ["in-h", "b4 b1 b2 b3 b4"],
    "in-h-no": ["in-h", "b4 b1 b4"],
    "in-h-k4": ["--k", "4", "in-h", "b5 b1 b2 b3 b4 b5"],
    "in-tilde-yes": ["in-tilde", "b4 b4"],
    "in-tilde-no": ["in-tilde", "b4"],
    "parity": ["parity", "b4 b1 b4"],
    "parity-k4": ["--k", "4", "parity", "b5 b1 b2 b5"],
    "sign-action-signs": ["sign-action", "--signs", "(-,+)", "b3 b4"],
    "sign-action-k4": ["--k", "4", "sign-action", "--signs", "(+,-,+)", "b1 b3 b5 b2 b4"],
    # the bounded oracle
    "oracle-trace": ["oracle", "--trace", "b1 b2 b3 b4", "b4 b3 b2 b1"],
    "oracle-insert": ["oracle", "--trace", "b4 b1 b2 b1 b2 b4", "b3 b2 b1 b2 b1 b3"],
    "oracle-cancel": ["oracle", "--trace", "b1 b1 b2 b3 b4 b4", "b2 b3 b2 b2"],
    "oracle-unknown": ["oracle", "b1 b2", "b2 b1"],
    # k = 2 in subset tokens: a window reversal, and an insertion that feeds
    # a window
    "oracle-window-k2": ["--k", "2", "oracle", "--trace", "a{1,2} a{1,3} a{2,3}", "a{2,3} a{1,3} a{1,2}"],
    "oracle-insert-k2": ["--k", "2", "oracle", "--trace", "a{1,2} a{1,3}", "a{2,3} a{1,3} a{1,2} a{2,3}"],
    # realization and certification
    "realize-k4-signs": ["--k", "4", "realize", "--signs", "(+,-,+)", "b5 b2 b4", "out.json"],
    # k = 5: the b(k+1) shear has k - 1 = 4 entries
    "realize-k5-signs": ["--k", "5", "realize", "--signs", "(+,-,+,-)", "b6 b1 b3 b6", "out.json"],
    # b2 negates point 4's representative and b1 negates point 3's, so later
    # pieces are derived with both joint scales at -1
    "realize-joints-k3": ["--k", "3", "realize", "--signs", "(-,+)", "b2 b1 b2 b1", "out.json"],
    "certify-joints-k3": ["certify", "out.json"],
    "certify-algebraic": ["certify", "algebraic.json"],
    # k = 4, two segments, fifteen events (one rational at t = 1/2) whose
    # order needs interval refinement
    "certify-k4-segments": ["certify", "segments.json"],
    # k = 3, every determinant past the divisor search: each event is isolated,
    # and ordering them halves onto the rational root 1/2 of subset {1,2,3}
    "certify-past-divisor-limit": ["certify", "large.json"],
    # k = 3, point 4 alone moves, from (1, 1, 1) to coordinates past the
    # divisor search: the linear minor of {2,3,4} keeps its interval form,
    # and that of {1,2,4} is the rational 1/4
    "certify-linear-past-divisor-limit": ["certify", "linear.json"],
    # k = 3, n = 5: not a square group, so refused as a bad path file
    "certify-k3-n5": ["certify", "events.json"],
    "certify-fails": ["certify", "singular.json"],
    # k = 4, three keyframes: segment 0 sends point 5 through the origin, but
    # the singular last keyframe is reported first
    "certify-k4-last-keyframe-singular": ["certify", "singular.json"],
    "certify-base-sign-mismatch": ["certify", "mismatch.json"],
    # input errors exit 3 with nothing on stdout
    "solve-bad-token": ["solve", "b9"],
    "solve-k2": ["--k", "2", "solve", "a{1,2}"],
}

# name -> file under tests/golden copied into the working directory as argv[-1]
INPUTS = {
    "readme-certify": "readme-realize.path.json",
    "certify-joints-k3": "realize-joints-k3.path.json",
    "certify-algebraic": "inputs/algebraic-event.json",
    "certify-k4-segments": "inputs/k4-segments.json",
    "certify-k3-n5": "inputs/k3n5-events.json",
    "certify-past-divisor-limit": "inputs/past-divisor-limit.json",
    "certify-linear-past-divisor-limit": "inputs/linear-past-divisor-limit.json",
    "certify-fails": "inputs/singular-keyframe.json",
    "certify-k4-last-keyframe-singular": "inputs/k4-last-keyframe-singular.json",
    "certify-base-sign-mismatch": "inputs/base-sign-mismatch.json",
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def transcript(name: str, workdir: Path) -> tuple[str, list[bytes]]:
    """Both formats of one run: the transcript, and the bytes of each written path file."""
    argv = RUNS[name]
    parts: list[str] = []
    written: list[bytes] = []
    for flags in ([], ["--format", "structured"]):
        run_dir = workdir / ("structured" if flags else "text")
        run_dir.mkdir()
        if name in INPUTS:
            shutil.copy(GOLDEN / INPUTS[name], run_dir / argv[-1])
        previous = os.getcwd()
        os.chdir(run_dir)
        try:
            code, stdout = _run(flags + argv)
        finally:
            os.chdir(previous)
        parts.append(f"$ projbraid {shlex.join(flags + argv)}\nexit {code}\n{stdout}")
        if "realize" in argv:
            written.append((run_dir / argv[-1]).read_bytes())
    return "".join(parts), written


@pytest.mark.parametrize("name", sorted(RUNS))
def test_transcript(name, tmp_path):
    text, written = transcript(name, tmp_path)
    assert text == (GOLDEN / f"{name}.txt").read_text()
    for data in written:
        assert data == (GOLDEN / f"{name}.path.json").read_bytes()


def test_every_golden_file_has_a_run():
    expected = {f"{name}.txt" for name in RUNS}
    expected |= {f"{name}.path.json" for name, argv in RUNS.items() if "realize" in argv}
    expected |= set(INPUTS.values())
    found = {str(path.relative_to(GOLDEN)) for path in GOLDEN.rglob("*") if path.is_file()}
    assert found == expected


def regenerate() -> None:
    # runs that write files go first, since other runs read them
    for name in sorted(RUNS, key=lambda name: (name in INPUTS, name)):
        with tempfile.TemporaryDirectory() as tmp:
            text, written = transcript(name, Path(tmp))
        (GOLDEN / f"{name}.txt").write_text(text)
        if written:
            (GOLDEN / f"{name}.path.json").write_bytes(written[0])


if __name__ == "__main__":
    regenerate()
