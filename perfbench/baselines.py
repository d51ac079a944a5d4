"""Record the scaling view of a commit and cross-check the ROADMAP baselines.

Usage: python3 perfbench/baselines.py --commit HASH [--seed 1] [--seconds 20] [--out FILE]

Writes a JSON document (default ``perfbench/baseline_seed.json``) with the
Python version, ``nproc`` and the given commit, and:

* ``scaling``: median latency per word length of ``solve-long`` and per k
  of ``realize-highk``, from untraced benchmark runs, and the log-log slope
  of ``eliminate_last`` against word length from a traced ``solve-long``;
* ``roadmap``: the ROADMAP's own measurements, taken again: ``solve_k3`` on
  a trivial word w.w^-1 of length 400 and 800, and a 20-letter
  ``certify_roundtrip`` at k = 3 and k = 6 starting from empty caches.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

import run

ROOT = Path(__file__).resolve().parent.parent


def roadmap_checks(seed: int) -> dict[str, float]:
    sys.path.insert(0, str(ROOT / "src"))
    from projbraid import realization
    from projbraid.realization import certify_roundtrip
    from projbraid.solver import solve_k3
    from projbraid.words import GroupParams, Word

    rng = random.Random(seed)
    out: dict[str, float] = {}
    params = GroupParams(4, 3)
    for length, repeats in ((400, 3), (800, 1)):
        times = []
        for _ in range(repeats):
            half = [params.b_letter(rng.randint(1, 4)) for _ in range(length // 2)]
            word = Word(params, tuple(half + half[::-1]))
            t0 = perf_counter()
            verdict = solve_k3(word)
            times.append(perf_counter() - t0)
            if verdict.status.value != "trivial":
                raise RuntimeError("w.w^-1 was not found trivial")
        out[f"solve_k3_wwinv_len{length}_s"] = statistics.median(times)
    for k in (3, 6):
        params = GroupParams(k + 1, k)
        word = Word(params, tuple(params.b_letter(rng.randint(1, k + 1)) for _ in range(20)))
        for value in vars(realization).values():  # start from empty caches, as a new process would
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        t0 = perf_counter()
        report = certify_roundtrip(word)
        out[f"certify_roundtrip_k{k}_len20_s"] = perf_counter() - t0
        if not report.ok:
            raise RuntimeError(f"roundtrip failed at k = {k}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", default=str(Path(__file__).with_name("baseline_seed.json")))
    args = parser.parse_args()

    scaling: dict[str, float] = {}
    for workload in ("solve-long", "realize-highk"):
        doc = run.run(workload, args.seed, args.seconds, trace=False)
        if not doc["correct"]:
            raise RuntimeError(f"{workload} failed: {doc['notes']}")
        scaling.update({f"{workload}.{cls}.p50_ms": v for cls, v in doc["class_medians_ms"].items()})
    traced = run.run("solve-long", args.seed, args.seconds, trace=True)
    scaling["solver.eliminate_last.slope"] = traced["metrics"]["solver.eliminate_last.slope"]["value"]

    record = {
        "commit": args.commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "units": "scaling: ms on the reference host, as the benchmark reports them; roadmap: raw wall seconds",
        "scaling": scaling,
        "roadmap": roadmap_checks(args.seed),
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
