"""Time path realization and event detection on seeded words, and compare two checkouts.

For k = 5 and 6 and each word length m = 8 .. 64, one seeded word of m
uniform random letters b1 .. b(k+1) is realized from the reference signs
with ``path_from_word`` and read back with ``detect_events``.  Stdlib only;
run from the root of a checkout:

    python3 tools/event_scaling.py                    # this checkout's src/
    python3 tools/event_scaling.py --src OTHER/src    # another tree

prints, per k and m, the median over ``--repeats`` runs of each call in
milliseconds, ``realize_ms`` and ``detect_ms`` (every cache of
``realization`` and ``projective``, found by its ``cache_clear`` method, is
emptied before each realization, as in a new process), the number of
events, the number of eliminations in one realization and detection, and
the growth factor of each time per doubling of m.  Eliminations are
counted by a wrapper this tool installs around ``projective._bareiss``,
which passes on every argument.  Every caller looks ``_bareiss`` up in the
module at call time, so the count covers every elimination:
``singular_subsets``, ``general_position_violation``, ``det``, and the
augmented eliminations of ``pencil_minors``, one per evaluation point t of
each block of k + 1 points.

The times cannot rank two trees.  Each ``realize_ms`` and ``detect_ms``
cell is the median of back-to-back calls on one tree, so one slow spell of
a shared host moves a whole cell: on one tree one cell read 4.45 ms and
then 7.14 ms.  ``bareiss_calls`` is an exact count and does compare trees.
A speed claim needs the perfbench pairs that ``--compare`` runs:

    python3 tools/event_scaling.py --compare PARENT CHANGE \\
        --workloads realize-highk certify-files --out BENCH_letterpaths.json

runs that on both checkouts and then pairs of ``perfbench/run.py``, as
``tools/replay_scaling.py --compare`` does.
"""

from __future__ import annotations

import random
import sys

from replay_scaling import main, median_ms

SIZES = (8, 16, 32, 64)
KS = (5, 6)


def measure(sizes, repeats: int, seed: int) -> dict:
    from projbraid import projective, realization
    from projbraid.words import GroupParams, parse_word

    eliminations = 0
    bareiss = projective._bareiss

    def counted(*args):
        nonlocal eliminations
        eliminations += 1
        return bareiss(*args)

    caches = [value for module in (projective, realization) for value in vars(module).values()
              if callable(getattr(value, "cache_clear", None))]

    def realize(word):
        for cache in caches:
            cache.cache_clear()
        return realization.path_from_word(word)

    rows = []
    for k in KS:
        params = GroupParams(k + 1, k)
        previous = None
        for m in sizes:
            rng = random.Random(f"event-scaling:{k}:{m}:{seed}")
            word = parse_word(" ".join(f"b{rng.randint(1, k + 1)}" for _ in range(m)), params)
            eliminations = 0
            projective._bareiss = counted
            try:
                path = realize(word)
                events = realization.detect_events(path)
            finally:
                projective._bareiss = bareiss
            if len(events) != m:
                raise RuntimeError(f"k = {k}, m = {m}: {len(events)} events for {m} letters")
            row = {"k": k, "m": m, "events": len(events), "bareiss_calls": eliminations,
                   "realize_ms": median_ms(lambda: realize(word), repeats),
                   "detect_ms": median_ms(lambda: realization.detect_events(path), repeats)}
            if previous is not None:
                for stage in ("realize", "detect"):
                    row[f"{stage}_growth"] = round(row[f"{stage}_ms"] / previous[f"{stage}_ms"], 2)
            rows.append(row)
            previous = row
    return {"seed": seed, "repeats": repeats, "python": sys.version.split()[0], "rows": rows}


if __name__ == "__main__":
    main(measure, SIZES, __file__, __doc__)
