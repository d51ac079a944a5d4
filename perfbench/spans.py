"""Spans and counters for the traced run, recorded from outside projbraid.

``Tracer.install`` replaces each traced function at every import site in
the loaded projbraid modules (``solver`` imports ``occurrence_index`` by
name, ``realization`` imports ``poly_det``, and so on), so a call is
recorded whichever module makes it.  A span is (function, parent span,
start, end, size of the first argument); spans are kept in flat arrays
and written to one file when the run ends.  ``summarize`` turns that file
into busy time, self time (busy time minus the time in traced children)
and calls per function.
"""

from __future__ import annotations

import json
import math
import statistics
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("words", "invariants", "solver", "polys", "projective", "realization", "cli")

# (module, function, options).  "count" records calls without a span, for
# functions called too often for a span each; "top" records only the
# outermost call of a recursive function; "sized" keeps len(first argument).
TRACED = [
    ("words", "parse_word", ""),
    ("words", "bfs_equal_oracle", "oracle"),
    ("words", "free_reduce_with_trace", ""),
    ("words", "apply_move", "count"),
    ("invariants", "f_image", ""),
    ("invariants", "occurrence_index", ""),
    ("solver", "solve_k3", ""),
    ("solver", "solve_semi", ""),
    ("solver", "eliminate_last", "sized moves"),
    ("solver", "inner_eliminate", ""),
    ("solver", "check_trace", ""),
    ("polys", "isolate_roots", ""),
    ("polys", "rational_roots_in_unit_interval", ""),
    ("polys", "gcd", "count"),
    ("polys", "evaluate", "count"),
    ("polys", "refine_once", "count"),
    ("polys", "refine_to_exclude", "count"),
    ("projective", "poly_det", "top"),
    ("projective", "shear_family", ""),
    ("projective", "singular_subsets", ""),
    ("projective", "general_position_violation", ""),
    ("realization", "letter_path", ""),
    ("realization", "path_from_word", ""),
    ("realization", "save_path_file", ""),
    ("realization", "detect_events", "events"),
    ("realization", "path_from_document", ""),
    ("realization", "time_cmp", "count"),
    ("realization", "time_eq", "count"),
    ("cli", "main", ""),
]

_MOVE_KINDS = {"InsertPair": "insert", "CancelPair": "cancel", "ReverseWindow": "reverse"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._sites: list[tuple[object, str, object, object]] = []

    def _count(self, name: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _span(self, name: str, func, options: str):
        fid = len(self.names)
        self.names.append(name)
        fn, parent, size, start, end, stack = self.fn, self.parent, self.size, self.start, self.end, self.stack
        sized, top = "sized" in options, "top" in options
        observe = self._observer(options)
        depth = [0]

        def wrapper(*args, **kwargs):
            if top and depth[0]:
                return func(*args, **kwargs)
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            size.append(len(args[0]) if sized else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                depth[0] -= 1
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observer(self, options: str):
        counts = self.counts
        if "oracle" in options:
            def observe(result):
                counts["words.oracle.states"] += result.states
                counts["words.oracle.equal"] += bool(result.equal)
            return observe
        if "moves" in options:
            def observe(result):
                for move in result[1]:
                    counts["solver.moves." + _MOVE_KINDS.get(type(move).__name__, "other")] += 1
            return observe
        if "events" in options:
            def observe(result):
                for event in result:
                    rational = type(event.t).__name__ == "Fraction"
                    counts["realization.events." + ("rational" if rational else "algebraic")] += 1
            return observe
        return None

    def wrap(self, modules: dict[str, object]) -> None:
        """Make a wrapper for every traced function and find every module
        attribute that refers to it; ``install`` then swaps them in."""
        for layer, attr, options in TRACED:
            original = getattr(modules[layer], attr)
            name = f"{layer}.{attr}"
            wrapper = self._count(name, original) if "count" in options else self._span(name, original, options)
            for module in modules.values():
                for key, value in vars(module).items():
                    if value is original:
                        self._sites.append((module, key, original, wrapper))

    def install(self) -> None:
        for module, key, _, wrapper in self._sites:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _ in self._sites:
            setattr(module, key, original)

    def dump(self, path: Path) -> None:
        header = {"names": self.names, "counts": dict(self.counts), "spans": len(self.fn)}
        with open(path, "wb") as fh:
            blob = json.dumps(header).encode()
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            for arr in (self.fn, self.parent, self.size, self.start, self.end):
                arr.tofile(fh)


def load(path: Path):
    with open(path, "rb") as fh:
        header = json.loads(fh.read(int.from_bytes(fh.read(8), "little")))
        n = header["spans"]
        arrays = []
        for code in "iiidd":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def _slope(points: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median time) against log(size)."""
    xs = [math.log(s) for s in sorted(points)]
    ys = [math.log(statistics.median(points[s])) for s in sorted(points)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


SLOPE_SIZES = (64, 128, 256, 512)


def summarize(path: Path, ops: int) -> dict[str, float]:
    """Per-operation busy time, self time and calls of every traced function,
    self time per layer, and the counters."""
    header, (fn, parent, size, start, end) = load(path)
    names = header["names"]
    busy = [0.0] * len(names)
    own = [0.0] * len(names)
    calls = [0] * len(names)
    child = [0.0] * len(fn)
    by_size: dict[int, list[float]] = defaultdict(list)
    eliminate = names.index("solver.eliminate_last")
    for i in range(len(fn)):
        d = end[i] - start[i]
        busy[fn[i]] += d
        calls[fn[i]] += 1
        if parent[i] >= 0:
            child[parent[i]] += d
        if fn[i] == eliminate and size[i] in SLOPE_SIZES:
            by_size[size[i]].append(d)
    for i in range(len(fn)):
        own[fn[i]] += end[i] - start[i] - child[i]

    out: dict[str, float] = {}
    layer_self = Counter()
    for j, name in enumerate(names):
        out[f"{name}.busy_s"] = busy[j] / ops
        out[f"{name}.self_s"] = own[j] / ops
        out[f"{name}.calls"] = calls[j] / ops
        layer_self[name.split(".")[0]] += own[j]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer] / ops
    counts = header["counts"]
    for layer, attr, options in TRACED:
        if "count" in options:
            out[f"{layer}.{attr}.calls"] = counts.get(f"{layer}.{attr}", 0) / ops
    for key in ("words.oracle.states", "solver.moves.insert", "solver.moves.cancel",
                "solver.moves.reverse", "realization.events.rational", "realization.events.algebraic"):
        out[key] = counts.get(key, 0) / ops
    oracle_calls = calls[names.index("words.bfs_equal_oracle")]
    out["words.oracle.equal_ratio"] = counts.get("words.oracle.equal", 0) / oracle_calls if oracle_calls else 0.0
    out["solver.eliminate_last.slope"] = _slope(by_size) if len(by_size) >= 2 else 0.0
    return out
