"""Runs one workload against projbraid in its own process.

Usage: python3 perfbench/worker.py JOB.json OUT.json

The job (written by ``run.py``) holds the generated operations.  The
worker imports projbraid from the checkout's ``src`` several times, each
time followed by the warm-up operations, and keeps the median as set-up
time.  It then runs whole cycles of operations, one at a time, until the
run's seconds are used, timing each operation and checking its output with
``verify`` outside the timed region.  With tracing on it alternates
blocks of traced cycles with untraced replays of the same operations, so
the two can be compared.  Peak resident memory is that of this process.

Each time is also given on the reference host (see ``Sampler``): the
worker times a fixed loop of its own, the probe, right before and right
after each operation and each set-up, and on a timer signal every
SAMPLE_EVERY_S, also in the middle of an operation.  On a shared host the
probe slows down with the program when a neighbour loads the CPU.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from inputs import ORACLE_BOUNDS, word_text
from spans import LAYERS, Tracer
from verify import CHECKS, signs_text

SETUP_REPEATS = 7
# Traced blocks last at least this long before their untraced replay.
TRACE_BLOCK_S = 1.0
# A run that has used this many times its seconds, or its seconds plus
# HARD_STOP_MIN_S if that is more, stops at once, so a very slow commit
# still ends in time.
HARD_STOP = 3.0
HARD_STOP_MIN_S = 30.0
MAX_NOTES = 20
SAMPLE_EVERY_S = 0.02
# The probe does the kinds of work projbraid does: set and tuple handling as
# in its words, and Fraction arithmetic as in its determinants.  A round
# takes about REFERENCE_ROUND_S on an unloaded core of the 2-vCPU host
# described in README.md, the reference host.
EDGE_ROUNDS, SAMPLE_ROUNDS = 1000, 100
REFERENCE_ROUND_S = 1e-6
_FULL = frozenset(range(1, 5))
_SUBSETS = [_FULL - {c} for c in range(1, 5)]


def probe(rounds: int) -> None:
    """A fixed loop that calls nothing of projbraid, so no commit changes it."""
    seen: dict[tuple[int, int], int] = {}
    for i in range(rounds):
        (c,) = _FULL - _SUBSETS[i % 4]
        seen[c, i % 7] = seen.get((c, i % 7), 0) + 1
    acc = Fraction(0)
    for i in range(1, rounds // 10):
        acc += Fraction(i, i + 1) * Fraction(1, 3) - Fraction(1, i)


class Sampler:
    """Scales timed work to the reference host.

    A shared host slows a core down by up to about 1.8 times, for spells of
    a second to minutes, when a neighbour loads it, and a program slows
    down by about the same factor as the probe run next to it.  So a timed
    piece of work runs between two probes of EDGE_ROUNDS, and a timer
    signal runs a probe of SAMPLE_ROUNDS every SAMPLE_EVERY_S; for work
    that lasts seconds, those inside it weigh the most.  The work's time,
    less the time of the signal handlers inside it, is multiplied by the
    probes' reference time over their measured time.
    """

    def __init__(self) -> None:
        self.at, self.took, self.cost = array("d"), array("d"), array("d")

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        probe(SAMPLE_ROUNDS)
        t1 = perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.cost.append(perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _inside(self, first: int, t0: float, t1: float) -> list[int]:
        """The samples from number ``first`` on that ran between t0 and t1."""
        return [j for j in range(first, len(self.at)) if t0 <= self.at[j] <= t1]

    def _edge(self) -> float:
        first = len(self.at)
        t0 = perf_counter()
        probe(EDGE_ROUNDS)
        t1 = perf_counter()
        return t1 - t0 - sum(self.cost[j] for j in self._inside(first, t0, t1))

    def timed(self, work) -> tuple[float, float, object]:
        """Run ``work() -> ((start, end), value)``; returns its raw seconds,
        its seconds on the reference host, and the value."""
        before = self._edge()
        first = len(self.at)
        (t0, t1), value = work()
        inside = self._inside(first, t0, t1)
        after = self._edge()
        raw = t1 - t0 - sum(self.cost[j] for j in inside)
        measured = before + after + sum(self.took[j] for j in inside)
        reference = (2 * EDGE_ROUNDS + len(inside) * SAMPLE_ROUNDS) * REFERENCE_ROUND_S
        return raw, raw * reference / measured, value


SAMPLER = Sampler()


def load_projbraid(src: Path) -> dict[str, object]:
    for name in [m for m in sys.modules if m == "projbraid" or m.startswith("projbraid.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"projbraid.{layer}") for layer in LAYERS}
    where = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"projbraid was imported from {where}, not from {src}")
    return modules


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _b_index(letter, k: int) -> int:
    (c,) = set(range(1, k + 2)) - set(letter.subset)
    return k + 2 - c


_KINDS = {"InsertPair": "insert", "CancelPair": "cancel", "ReverseWindow": "reverse", "SwapAdjacent": "swap"}


def _moves(moves, k: int) -> list[tuple]:
    return [
        (_KINDS[type(m).__name__], m.pos, _b_index(m.letter, k) if hasattr(m, "letter") else None)
        for m in moves
    ]


def _word(word, k: int) -> list[int]:
    return [_b_index(letter, k) for letter in word.letters]


class Runner:
    """Runs one operation of a workload through projbraid's public entry points."""

    def __init__(self, workload: str, modules: dict[str, object], workdir: Path):
        self.m = modules
        self.workdir = workdir
        self.run = {
            "solve-long": self.solve_cli,
            "sweep-short": self.sweep,
            "realize-highk": self.realize,
            "certify-files": self.certify,
        }[workload]
        # A realize command starts from an empty letter-path cache, as a new
        # process would; the caches are found by their cache_clear method.
        self.caches = [
            value for module in modules.values() for value in vars(module).values()
            if callable(getattr(value, "cache_clear", None))
        ]

    def solve_cli(self, op):
        argv = ["--format", "structured", "solve", "--trace", word_text(op["word"])]
        t0 = perf_counter()
        rc, stdout = call_cli(self.m["cli"], argv)
        return (t0, perf_counter()), {"rc": rc, "stdout": stdout}

    def sweep(self, op):
        k, text = op["k"], word_text(op["word"])
        words, solver = self.m["words"], self.m["solver"]
        t0 = perf_counter()
        word = words.parse_word(text, words.GroupParams(k + 1, k))
        verdict = solver.solve_k3(word) if k == 3 else solver.solve_semi(word)
        rewritten, trace = solver.eliminate_last(word)
        trace_ok = solver.check_trace(word, trace, rewritten)
        oracle = words.bfs_equal_oracle(word, rewritten, *ORACLE_BOUNDS)
        t1 = perf_counter()
        return (t0, t1), {
            "status": verdict.status.value,
            "verdict_trace": None if verdict.trace is None else _moves(verdict.trace.steps, k),
            "obstruction": None if verdict.obstruction is None else [list(g) for g in verdict.obstruction],
            "parity": None if verdict.parity is None else list(verdict.parity),
            "residue": None if verdict.residue is None else _word(verdict.residue, k),
            "assumptions": sorted(verdict.assumption_flags),
            "rewritten": _word(rewritten, k),
            "elim_trace": _moves(trace.steps, k),
            "check_trace": trace_ok,
            "oracle_equal": oracle.equal,
            "oracle_trace": None if oracle.trace is None else _moves(oracle.trace, k),
        }

    def realize(self, op):
        k = op["k"]
        path = self.workdir / "realized.json"
        realize = ["--k", str(k), "--format", "structured", "realize", word_text(op["word"]), str(path),
                   "--signs", signs_text(op["signs"])]
        certify = ["--format", "structured", "certify", str(path)]
        for cache in self.caches:
            cache.cache_clear()
        t0 = perf_counter()
        rc_realize, out_realize = call_cli(self.m["cli"], realize)
        rc_certify, out_certify = call_cli(self.m["cli"], certify)
        t1 = perf_counter()
        return (t0, t1), {"rc_realize": rc_realize, "out_realize": out_realize,
                         "file_text": path.read_text() if path.exists() else "",
                         "rc_certify": rc_certify, "out_certify": out_certify}

    def certify(self, op):
        argv = ["--format", "structured", "certify", op["file"]]
        t0 = perf_counter()
        rc, stdout = call_cli(self.m["cli"], argv)
        return (t0, perf_counter()), {"rc": rc, "stdout": stdout}


class Records:
    """Per-operation results in flat arrays, so the benchmark's own memory
    stays small next to projbraid's however many operations a run does."""

    def __init__(self) -> None:
        self.index, self.raw, self.latency = array("i"), array("d"), array("d")
        self.ok, self.decided, self.size = array("b"), array("b"), array("q")
        self.notes: list[str] = []

    def __len__(self) -> int:
        return len(self.index)

    def add(self, index: int, raw: float, latency: float, ok: bool, decided: bool, size: int,
            note: str | None) -> None:
        self.index.append(index)
        self.raw.append(raw)
        self.latency.append(latency)
        self.ok.append(ok)
        self.decided.append(decided)
        self.size.append(size)
        if not ok and len(self.notes) < MAX_NOTES:
            self.notes.append(note)

    def to_json(self) -> dict:
        return {"i": self.index.tolist(), "raw_s": self.raw.tolist(), "s": self.latency.tolist(),
                "ok": self.ok.tolist(), "decided": self.decided.tolist(), "bytes": self.size.tolist(),
                "notes": self.notes}


def execute(runner: Runner, op) -> tuple:
    """((start, end), output) of one operation; the output is the exception
    if the program raised one."""
    t0 = perf_counter()
    try:
        return runner.run(op)
    except Exception as exc:  # a crash of the program is a failed operation
        return (t0, perf_counter()), exc


def judge(check, op, out) -> tuple:
    """(ok, decided, cert_bytes, note) of one operation's output."""
    if isinstance(out, Exception):
        return False, False, 0, f"{type(out).__name__}: {out}"
    try:
        return check(op, out)
    except Exception as exc:  # output the checker cannot read is a failed operation
        return False, False, 0, f"unreadable output: {type(exc).__name__}: {exc}"


def run_op(runner: Runner, check, op) -> tuple:
    """(raw latency, latency on the reference host, ok, decided, cert_bytes,
    note) of one operation, checked outside the timed region."""
    raw, latency, out = SAMPLER.timed(lambda: execute(runner, op))
    return (raw, latency, *judge(check, op, out))


def run_block(runner, check, ops, cycle: int, first: int, seconds: float, deadline: float,
              into: Records) -> int:
    """Run whole cycles of operations from number ``first`` on, wrapping
    around the pool, until ``seconds`` have passed (or the deadline);
    returns how many ran."""
    t0 = perf_counter()
    i = first
    while True:
        into.add(i % len(ops), *run_op(runner, check, ops[i % len(ops)]))
        i += 1
        now = perf_counter()
        if (i % cycle == 0 and now - t0 >= seconds) or now >= deadline:
            return i - first


def run_cycles(runner, check, ops, cycle: int, seconds: float) -> Records:
    """Whole cycles until ``seconds`` have passed."""
    records = Records()
    deadline = perf_counter() + max(HARD_STOP * seconds, seconds + HARD_STOP_MIN_S)
    run_block(runner, check, ops, cycle, 0, seconds, deadline, records)
    return records


def run_traced(runner, check, ops, cycle: int, seconds: float, tracer: Tracer):
    """Alternate blocks run traced with the same operations run untraced
    right after, until the traced blocks have used ``seconds``.

    Replaying each block at once keeps both sides at the same machine
    speed, so their difference is the cost of tracing.
    """
    traced, untraced = Records(), Records()
    traced_s = 0.0
    deadline = perf_counter() + max(HARD_STOP * seconds, seconds + HARD_STOP_MIN_S)
    first = 0
    while traced_s < seconds and perf_counter() < deadline:
        start = len(traced)
        tracer.install()
        t0 = perf_counter()
        first += run_block(runner, check, ops, cycle, first, TRACE_BLOCK_S, deadline, traced)
        traced_s += perf_counter() - t0
        tracer.uninstall()
        for index in traced.index[start:]:
            untraced.add(index, *run_op(runner, check, ops[index]))
    return traced, untraced


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started.

    VmHWM is reset by exec, unlike ru_maxrss, which would also count the
    parent's memory at the time it started this process.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str]) -> int:
    job_path, out_path = Path(argv[0]), Path(argv[1])
    job = json.loads(job_path.read_text())
    workload, ops = job["workload"], job["ops"]
    workdir = job_path.parent
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    check = CHECKS[workload]

    def set_up():
        t0 = perf_counter()
        modules = load_projbraid(src)
        runner = Runner(workload, modules, workdir)
        verdicts = [judge(check, op, execute(runner, op)[1]) for op in job["warmup"]]
        return (t0, perf_counter()), (modules, runner, [note for ok, _, _, note in verdicts if not ok])

    SAMPLER.start()
    setups, warmup_failures = [], []
    for _ in range(SETUP_REPEATS):
        _, setup_s, (modules, runner, notes) = SAMPLER.timed(set_up)
        setups.append(setup_s)
        warmup_failures += notes

    result = {"setup_s": statistics.median(setups), "warmup_failures": warmup_failures}
    if job["trace"]:
        tracer = Tracer()
        tracer.wrap(modules)
        traced, untraced = run_traced(runner, check, ops, job["cycle"], job["seconds"], tracer)
        SAMPLER.stop()
        result["peak_rss_mb"] = peak_rss_mb()
        tracer.dump(workdir / "spans.bin")
        result.update(records=untraced.to_json(), traced_records=traced.to_json(),
                      spans=str(workdir / "spans.bin"))
    else:
        records = run_cycles(runner, check, ops, job["cycle"], job["seconds"])
        SAMPLER.stop()
        result["peak_rss_mb"] = peak_rss_mb()  # before the records become lists
        result["records"] = records.to_json()
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
