"""Time move replay on one long block, and compare two checkouts end to end.

The long block is the word b4 . B . b4 at k = 3, with B a freely reduced
block of m letters over b1 b2 b3 whose alias counts share one parity, so
that the whole word is a single matched pair and elimination rewrites one
block of length m.  Stdlib only; run from the root of a checkout:

    python3 tools/replay_scaling.py                    # this checkout's src/
    python3 tools/replay_scaling.py --src OTHER/src    # another tree

prints, for each m = 64 .. 1024, the median over ``--repeats`` calls of
``eliminate_last`` and ``check_trace`` in milliseconds, the number of moves,
and the growth factor per doubling of m.

    python3 tools/replay_scaling.py --compare PARENT CHANGE --out BENCH_replay.json

runs that on both checkouts, then ``--pairs`` pairs of ``perfbench/run.py``
on each ``--workloads`` entry, one seed per pair from ``--first-seed`` on,
alternating which checkout runs first, and writes every run with the
median and quartiles of each end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SIZES = (64, 128, 256, 512, 1024)
WORKLOADS = ("solve-long", "sweep-short", "realize-highk", "certify-files")


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
    from projbraid.solver import check_trace, eliminate_last
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
        rows.append({
            "m": m,
            "moves": len(trace),
            "eliminate_last_ms": median_ms(lambda: eliminate_last(word), repeats),
            "check_trace_ms": median_ms(lambda: check_trace(word, trace, rewritten), repeats),
        })
    for stage in ("eliminate_last", "check_trace"):
        for before, after in zip(rows, rows[1:]):
            after[f"{stage}_growth"] = round(after[f"{stage}_ms"] / before[f"{stage}_ms"], 2)
    return {"k": 3, "seed": seed, "repeats": repeats, "python": sys.version.split()[0], "rows": rows}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: Path, change: Path, args) -> dict:
    scaling = {}
    for side, root in (("parent", parent), ("change", change)):
        argv = [sys.executable, __file__, "--src", str(root / "src"), "--repeats", str(args.repeats),
                "--seed", str(args.seed), "--sizes", *map(str, args.sizes)]
        scaling[side] = json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)
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
            for name in values["parent"]
        }
        summary[workload]["ops_per_s"]["change_wins"] = wins
    return {"scaling": scaling, "pairs": args.pairs, "seconds": args.seconds,
            "summary": summary, "runs": runs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
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
        doc = compare(Path(args.compare[0]).resolve(), Path(args.compare[1]).resolve(), args)
    else:
        sys.path.insert(0, str(Path(args.src).resolve()))
        doc = measure(args.sizes, args.repeats, args.seed)
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
