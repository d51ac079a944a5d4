"""Time move replay on one long block, and compare two checkouts end to end.

The long block is the word b4 . B . b4 at k = 3, with B a freely reduced
block of m letters over b1 b2 b3 whose alias counts share one parity, so
that the whole word is a single matched pair and elimination rewrites one
block of length m.  Stdlib only; run from the root of a checkout:

    python3 tools/replay_scaling.py                    # this checkout's src/
    python3 tools/replay_scaling.py --src OTHER/src    # another tree

prints, for each m = 64 .. 1024, the median over ``--repeats`` calls of
``eliminate_last``, ``check_trace`` and the in-process command
``--format structured solve --trace`` on the same word (stdout captured) in
milliseconds, the number of moves, and the growth factor per doubling of m.
That word is NonTrivial, so its document has no trace; ``solve_trivial_cli``
times the same command on the trivial word W . W^-1, W = b4 . B . b4 and
W^-1 its reverse (every letter is an involution), whose Trivial verdict
prints a trace of ``trivial_moves`` moves that grows with m, and
``render_ms`` times what that command does after ``solve``: the verdict's
record with its trace in the structured format (``cli._verdict``), then the
writer, ``realization.indented_json``, on the document with sorted keys.

    python3 tools/replay_scaling.py --compare PARENT CHANGE --out BENCH_replay.json

runs that on both checkouts in ``SCALING_ROUNDS`` rounds, alternating
which checkout goes first, and reports each cell's median over the rounds
with every round kept, so that one slow spell of a shared host moves one
round of one side only.  A round that fails (say, a ``src/`` that does not
import) is kept as its exit code and last stderr line, and a side with no
round that ran has no scaling.  Then it runs ``--pairs`` pairs of
``perfbench/run.py`` on each ``--workloads`` entry, one seed per pair from
``--first-seed`` on, alternating which checkout runs first, and writes
every run with the median and quartiles of each end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIZES = (64, 128, 256, 512, 1024)
WORKLOADS = ("solve-long", "sweep-short", "realize-highk", "certify-files")
SCALING_ROUNDS = 3


def long_block(m: int, rng: random.Random) -> list[int]:
    """A freely reduced block of m b-indices from 1..3, all counts of one parity."""
    while True:
        block = [rng.randint(1, 3)]
        while len(block) < m:
            block.append(rng.choice([j for j in (1, 2, 3) if j != block[-1]]))
        if len({block.count(j) % 2 for j in (1, 2, 3)}) == 1:
            return block


def median_ms(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def measure(sizes, repeats: int, seed: int) -> dict:
    from projbraid import cli
    from projbraid.realization import indented_json
    from projbraid.solver import check_trace, eliminate_last, solve
    from projbraid.words import GroupParams, parse_word

    params = GroupParams(4, 3)
    rng = random.Random(seed)
    rows = []
    for m in sizes:
        text = " ".join(f"b{j}" for j in [4] + long_block(m, rng) + [4])
        word = parse_word(text, params)
        rewritten, trace = eliminate_last(word)
        if not check_trace(word, trace, rewritten):
            raise RuntimeError(f"the trace at m = {m} does not replay")
        trivial = " ".join([text] + text.split()[::-1])

        def solve_cli(text, codes=(0, 1, 2)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["--format", "structured", "solve", "--trace", text])
            if code not in codes:
                raise RuntimeError(f"solve exited with {code} at m = {m}")
            return out.getvalue()
        document = json.loads(solve_cli(trivial, (0,)))
        verdict = solve(parse_word(trivial, params))

        def render():
            _, record = cli._verdict(verdict, "structured")
            return indented_json({"command": "solve"} | {key: value for key, value, _ in record}, sort_keys=True)
        rows.append({
            "m": m,
            "moves": len(trace),
            "trivial_moves": document["trace_moves"],
            "eliminate_last_ms": median_ms(lambda: eliminate_last(word), repeats),
            "check_trace_ms": median_ms(lambda: check_trace(word, trace, rewritten), repeats),
            "solve_cli_ms": median_ms(lambda: solve_cli(text), repeats),
            "solve_trivial_cli_ms": median_ms(lambda: solve_cli(trivial, (0,)), repeats),
            "render_ms": median_ms(render, repeats),
        })
    for stage in ("eliminate_last", "check_trace", "solve_cli", "solve_trivial_cli", "render"):
        for before, after in zip(rows, rows[1:]):
            after[f"{stage}_growth"] = round(after[f"{stage}_ms"] / before[f"{stage}_ms"], 2)
    return {"k": 3, "seed": seed, "repeats": repeats, "python": sys.version.split()[0], "rows": rows}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def cell_median(docs: list):
    """The documents' common shape with each number the median of its cells."""
    first = docs[0]
    if isinstance(first, dict):
        return {key: cell_median([doc[key] for doc in docs]) for key in first}
    if isinstance(first, list):
        return [cell_median(list(cells)) for cells in zip(*docs)]
    if isinstance(first, (int, float)) and not isinstance(first, bool):
        return statistics.median(docs)
    return first


def compare(parent: Path, change: Path, args, script: str = __file__) -> dict:
    """``script``'s own measurement on both checkouts, then the benchmark pairs."""
    rounds: dict[str, list] = {"parent": [], "change": []}
    for i in range(SCALING_ROUNDS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            root = parent if side == "parent" else change
            argv = [sys.executable, script, "--src", str(root / "src"), "--repeats", str(args.repeats),
                    "--seed", str(args.seed), "--sizes", *map(str, args.sizes)]
            done = subprocess.run(argv, capture_output=True, text=True)
            if done.returncode == 0:
                rounds[side].append(json.loads(done.stdout))
            else:
                stderr = done.stderr.strip().splitlines()
                rounds[side].append({"exit": done.returncode, "stderr": stderr[-1] if stderr else ""})
    scaling = {}
    for side, docs in rounds.items():
        ran = [doc for doc in docs if "exit" not in doc]
        scaling[side] = cell_median(ran) if ran else None
    runs, summary = [], {}
    for workload in args.workloads:
        values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
        wins = 0
        for i in range(args.pairs):
            seed = args.first_seed + i
            ops = {}
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                        "--seconds", str(args.seconds)]
                done = subprocess.run(argv, cwd=parent if side == "parent" else change,
                                      capture_output=True, text=True)
                result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
                runs.append({"workload": workload, "seed": seed, "side": side, "result": result})
                if result is not None:
                    for name, metric in result["metrics"].items():
                        values[side].setdefault(name, []).append(metric["value"])
                    ops[side] = result["metrics"]["ops_per_s"]["value"]
            wins += ops.get("change", 0.0) > ops.get("parent", float("inf"))
        summary[workload] = {
            name: {side: quartiles(values[side][name])
                   for side in values if len(values[side].get(name, [])) > 1}
            for name in {**values["parent"], **values["change"]}
        }
        # a workload with no result on a side still records its runs and wins
        summary[workload].setdefault("ops_per_s", {})["change_wins"] = wins
    return {"scaling": scaling, "scaling_rounds": rounds, "pairs": args.pairs, "seconds": args.seconds,
            "summary": summary, "runs": runs}


def main(measure=measure, sizes=SIZES, script: str = __file__, doc: str = __doc__) -> None:
    """The command line of ``script``, whose ``measure(sizes, repeats, seed)`` times one checkout."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", default=str(Path(script).resolve().parent.parent / "src"))
    parser.add_argument("--sizes", type=int, nargs="+", default=list(sizes))
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=111)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.compare:
        result = compare(Path(args.compare[0]).resolve(), Path(args.compare[1]).resolve(), args, script)
    else:
        sys.path.insert(0, str(Path(args.src).resolve()))
        result = measure(args.sizes, args.repeats, args.seed)
    text = json.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
