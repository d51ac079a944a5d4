"""Time path realization and event detection on seeded words, and compare two checkouts.

For k = 5 and 6 and each word length m = 8 .. 64, one seeded word of m
uniform random letters b1 .. b(k+1) is realized from the reference signs
with ``path_from_word`` and read back with ``detect_events``.  Stdlib only;
run from the root of a checkout:

    python3 tools/event_scaling.py                    # this checkout's src/
    python3 tools/event_scaling.py --src OTHER/src    # another tree

prints, per k and m, the median over ``--repeats`` runs of the two calls in
milliseconds (the letter-path cache is cleared before each, as in a new
process), the number of events, the number of ``_bareiss`` eliminations in
one run (counted by a wrapper this tool installs around
``projective._bareiss``), and the growth factor per doubling of m.

    python3 tools/event_scaling.py --compare PARENT CHANGE \\
        --workloads realize-highk certify-files --out BENCH_keyframes.json

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

    def counted(m):
        nonlocal eliminations
        eliminations += 1
        return bareiss(m)

    def realize_and_detect(word):
        realization._letter_path_cached.cache_clear()
        return realization.detect_events(realization.path_from_word(word))

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
                events = realize_and_detect(word)
            finally:
                projective._bareiss = bareiss
            if len(events) != m:
                raise RuntimeError(f"k = {k}, m = {m}: {len(events)} events for {m} letters")
            row = {"k": k, "m": m, "events": len(events), "bareiss_calls": eliminations,
                   "realize_detect_ms": median_ms(lambda: realize_and_detect(word), repeats)}
            if previous is not None:
                row["growth"] = round(row["realize_detect_ms"] / previous["realize_detect_ms"], 2)
            rows.append(row)
            previous = row
    return {"seed": seed, "repeats": repeats, "python": sys.version.split()[0], "rows": rows}


if __name__ == "__main__":
    main(measure, SIZES, __file__, __doc__)
