"""Benchmark of projbraid: the time to produce certificates that check out.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (inputs, sizes and reasons are recorded in BENCHMARK.json):

* ``solve-long``     in-process ``solve --trace`` on k = 3 words of 64..512 letters;
* ``sweep-short``    library solve, eliminate, check_trace and oracle on short words;
* ``realize-highk``  CLI ``realize`` then ``certify`` at k = 5 and 6;
* ``certify-files``  CLI ``certify`` on random path files at k = 3 and 4.

One client runs one operation at a time (a closed loop) in a single worker
process.  Inputs come from the seed; each output is checked against an
answer the benchmark knows by construction or computed with sympy, never
by projbraid.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from spans recorded around projbraid's functions, plus the
tracing overhead and the per-size medians of an untraced replay.
Every latency and set-up time is given on the reference host: scaled by
the speed of a fixed probe loop timed around and during it (see
``worker.Sampler``), so that a shared host's slow spells do not show.

The run exits with a nonzero code and prints no result when projbraid's
sources are not in ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
WORKER_TIMEOUT_S = 150


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles interpolates it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def class_medians_ms(job: dict, records: list) -> dict[str, float]:
    """Median latency per input class, e.g. word length or k."""
    by_class: dict[str, list[float]] = {}
    for index, latency in zip(records["i"], records["s"]):
        by_class.setdefault(job["ops"][index]["cls"], []).append(latency)
    return {cls: statistics.median(v) * 1e3 for cls, v in sorted(by_class.items())}


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    records = result["records"]
    latencies = records["s"]
    n = len(latencies)
    return {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (quantile(latencies, 90) * 1e3, "ms"),
        "pass_ratio": (sum(records["ok"]) / n, "ratio"),
        "decided_ratio": (sum(records["decided"]) / n, "ratio"),
        "cert_bytes_per_op": (sum(records["bytes"]) / n, "bytes"),
        "setup_s": (result["setup_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


# The per-layer metrics, each a per-operation mean over the traced run
# unless its unit says otherwise; see BENCHMARK.json for what each should move.
PER_LAYER = [
    "words.parse_word.busy_s", "words.bfs_equal_oracle.busy_s", "words.bfs_equal_oracle.calls",
    "words.oracle.states", "words.oracle.equal_ratio", "words.free_reduce_with_trace.busy_s",
    "words.apply_move.calls",
    "invariants.f_image.busy_s", "invariants.f_image.calls",
    "invariants.occurrence_index.busy_s", "invariants.occurrence_index.calls",
    "solver.eliminate_last.busy_s", "solver.eliminate_last.self_s", "solver.inner_eliminate.calls",
    "solver.eliminate_last.slope", "solver.check_trace.busy_s",
    "solver.moves.insert", "solver.moves.cancel", "solver.moves.reverse",
    "projective.poly_det.busy_s", "projective.poly_det.calls", "projective.shear_family.busy_s",
    "projective.singular_subsets.busy_s", "projective.general_position_violation.busy_s",
    "polys.isolate_roots.busy_s", "polys.rational_roots_in_unit_interval.busy_s",
    "polys.gcd.calls", "polys.evaluate.calls", "polys.refine_once.calls", "polys.refine_to_exclude.calls",
    "realization.letter_path.busy_s", "realization.path_from_word.busy_s",
    "realization.save_path_file.busy_s", "realization.detect_events.busy_s",
    "realization.path_from_document.busy_s", "realization.time_cmp.calls", "realization.time_eq.calls",
    "realization.events.rational", "realization.events.algebraic",
    "cli.main.self_s",
] + [f"layer.{layer}.self_s" for layer in spans.LAYERS] + ["trace.overhead_ratio"]
SCALING_CLASSES = ("len64", "len128", "len256", "len512", "k5", "k6")
PER_LAYER += [f"scaling.{cls}.p50_ms" for cls in SCALING_CLASSES]


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return {"busy_s": "s/op", "self_s": "s/op", "calls": "calls/op", "slope": "log-log",
            "equal_ratio": "ratio", "overhead_ratio": "ratio", "p50_ms": "ms"}.get(last, "count/op")


def per_layer(job: dict, result: dict) -> dict[str, tuple[float, str]]:
    values = spans.summarize(Path(result["spans"]), len(result["traced_records"]["s"]))
    traced = sum(result["traced_records"]["s"])
    untraced = sum(result["records"]["s"])
    values["trace.overhead_ratio"] = traced / untraced - 1.0
    medians = class_medians_ms(job, result["records"])
    for cls in SCALING_CLASSES:
        values[f"scaling.{cls}.p50_ms"] = medians.get(cls, 0.0)
    return {name: (values[name], unit_of(name)) for name in PER_LAYER}


def run(workload: str, seed: int, seconds: float, trace: bool,
        cycles: int | None = None, flip: bool = False) -> dict:
    """Generate, run and check one workload; returns the result document.

    ``flip`` inverts the expected verdict of every operation, which a
    self-test of the checker uses; the benchmark never sets it.
    """
    if not (ROOT / "src" / "projbraid" / "__init__.py").is_file():
        raise FileNotFoundError(f"no projbraid sources under {ROOT / 'src'}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        job = inputs.build(workload, seed, workdir, cycles)
        if flip:
            for op in job["ops"]:
                flip_expectation(op)
        job.update(root=str(ROOT), seconds=seconds, trace=trace)
        (workdir / "job.json").write_text(json.dumps(job))
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")),
             str(workdir / "job.json"), str(workdir / "result.json")],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads((workdir / "result.json").read_text())
        metrics = per_layer(job, result) if trace else end_to_end(result)
    records = result["records"]
    failed = len(records["ok"]) - sum(records["ok"])
    return {
        "correct": failed == 0 and not result["warmup_failures"],
        "attempted": len(records["ok"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "notes": (records["notes"] + result["warmup_failures"])[:5],
        "class_medians_ms": class_medians_ms(job, records),
        "slowdown": sum(records["raw_s"]) / sum(records["s"]),
    }


def flip_expectation(op: dict) -> None:
    if "kind" in op:
        op["kind"] = {"trivial": "odd", "odd": "trivial", "hword": "trivial"}[op["kind"]]
    elif "endpoint" in op:
        op["endpoint"] = [-s for s in op["endpoint"]]
    else:
        op["events"] = op["events"][::-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and waits for the worker, and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for note in doc.pop("notes"):
        print(f"failed: {note}", file=sys.stderr)
    medians = doc.pop("class_medians_ms")
    print("median ms per class: " + ", ".join(f"{c} {v:.3f}" for c, v in medians.items())
          + f" ({doc['attempted']} operations, raw times {doc.pop('slowdown'):.3f}x these,"
          + f" python {sys.version.split()[0]}, nproc {os.cpu_count()})")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
