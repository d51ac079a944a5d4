"""Self-test of the benchmark itself.

Usage: python3 perfbench/selfcheck.py

* Runs every workload on one cycle of inputs, untraced and traced, and
  checks that every metric BENCHMARK.json names is printed with its unit,
  and that no operation failed.
* Runs every workload again with each expected answer flipped, and checks
  that the checker then fails operations (pass_ratio below 1).
* Runs the command in a directory that holds only BENCHMARK.json and the
  benchmark, and checks that it exits nonzero without printing a result.

Takes about a minute; it is not part of the repository's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from inputs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def expected_metrics(section: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def check_metrics(doc: dict, section: str, label: str) -> None:
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    want = expected_metrics(section)
    assert got == want, f"{label}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}"


def check_workload(workload: str) -> None:
    plain = run.run(workload, seed=0, seconds=0.01, trace=False, cycles=1)
    check_metrics(plain, "end_to_end", workload)
    assert plain["failed"] == 0 and plain["correct"], f"{workload}: failures {plain['notes']}"
    assert plain["metrics"]["pass_ratio"]["value"] == 1.0

    traced = run.run(workload, seed=0, seconds=0.01, trace=True, cycles=1)
    check_metrics(traced, "per_layer", f"{workload} traced")
    assert traced["failed"] == 0 and traced["correct"], f"{workload} traced: failures {traced['notes']}"

    flipped = run.run(workload, seed=0, seconds=0.01, trace=False, cycles=1, flip=True)
    assert flipped["failed"] > 0 and not flipped["correct"], f"{workload}: flipped answers went unnoticed"
    assert flipped["metrics"]["pass_ratio"]["value"] < 1.0
    print(f"ok {workload}: {plain['attempted']} operations checked, "
          f"{flipped['failed']} of {flipped['attempted']} flipped answers caught")


def check_bare_directory() -> None:
    """Without projbraid's sources the command must fail and print no result."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-bare-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solve-long", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0 and not proc.stdout.strip(), "bare directory produced a result"
    print(f"ok bare directory: exit {proc.returncode}, no result")


def main() -> int:
    for workload in WORKLOADS:
        check_workload(workload)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
