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
emptied before each realization, as in a new process), the path file's
stages ``encode_ms`` (``indented_json(path_to_document(path))``),
``decode_ms`` (``path_from_document`` on that text's JSON) and
``rows_ms`` (``_segment_rows`` of every segment of the decoded path, the
rows ``detect_events`` hands to ``pencil_minors``), the number of
events, the number of eliminations in one realization and detection, and
the growth factor of each time per doubling of m.  Eliminations are
counted by a wrapper this tool installs around ``projective._bareiss``,
which passes on every argument, keywords included.  Every caller looks
``_bareiss`` up in the module at call time, so the count covers every
elimination: ``general_position_violation``, ``det``, and those of
``pencil_minors`` (which ``singular_subsets`` calls once), one of the
fixed rows of each block of k + 1 points and, unless they have rank k, one
more per evaluation point t.  ``polys.gcd``, ``polys.sturm_chain`` and
``polys.refine_once`` are counted the same way (``gcd_calls``,
``sturm_chain_calls``, ``refine_once_calls``): the polynomial gcds, the
Sturm chains (one per segment minor, and one more for each minor that
loses a rational root or a repeated factor and still has roots to
isolate) and the interval halvings of event ordering.

The same counts, with ``detect_ms`` and ``decode_ms``, are reported under
``files`` for ``FILES`` seeded random path documents per k = 3 and 4, each
of ``KEYFRAMES`` keyframes with coordinates ``"p/q"``, |p| <= 6,
1 <= q <= 3, as in the benchmark's ``certify-files`` workload, read by
``path_from_document``; a file ``detect_events`` rejects is redrawn, and
``redrawn`` counts them.

The times cannot rank two trees.  Each ``realize_ms`` and ``detect_ms``
cell is the median of back-to-back calls on one tree, so one slow spell of
a shared host moves a whole cell: on one tree one cell read 4.45 ms and
then 7.14 ms.  The call counts are exact and do compare trees.
A speed claim needs the perfbench pairs that ``--compare`` runs:

    python3 tools/event_scaling.py --compare PARENT CHANGE \\
        --workloads realize-highk certify-files --out BENCH_letterpaths.json

runs that on both checkouts, three rounds alternating which goes first
with each cell's median reported, and then pairs of ``perfbench/run.py``,
as ``tools/replay_scaling.py --compare`` does.
"""

from __future__ import annotations

import importlib
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

from replay_scaling import main, median_ms

SIZES = (8, 16, 32, 64)
KS = (5, 6)
FILE_KS = (3, 4)
FILES = 12
KEYFRAMES = 6
COUNTED = (("projective", "_bareiss"), ("polys", "gcd"), ("polys", "sturm_chain"), ("polys", "refine_once"))


@contextmanager
def counting():
    """Count each call of a ``COUNTED`` function while the block runs, into
    the dict it yields, keyed ``<name>_calls``."""
    counts, installed = {}, []
    for module_name, name in COUNTED:
        module = importlib.import_module(f"projbraid.{module_name}")
        original = getattr(module, name)
        key = f"{name.lstrip('_')}_calls"
        counts[key] = 0

        def counted(*args, _key=key, _original=original, **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        installed.append((module, name, original))
        setattr(module, name, counted)
    try:
        yield counts
    finally:
        for module, name, original in installed:
            setattr(module, name, original)


def random_files(k: int, seed: int):
    """``FILES`` random path documents at k whose paths ``detect_events``
    accepts, and how many drawn files it rejected."""
    from projbraid import realization

    rng = random.Random(f"event-scaling:files:{k}:{seed}")
    docs, redrawn = [], 0
    while len(docs) < FILES:
        frames = [[[str(Fraction(rng.randint(-6, 6), rng.randint(1, 3))) for _ in range(k)]
                   for _ in range(k + 1)] for _ in range(KEYFRAMES)]
        doc = {"k": k, "n": k + 1, "keyframes": frames}
        try:
            realization.detect_events(realization.path_from_document(doc)[0])
        except ValueError:  # a zero point, or any PathError
            redrawn += 1
            continue
        docs.append(doc)
    return docs, redrawn


def measure(sizes, repeats: int, seed: int) -> dict:
    import json

    from projbraid import projective, realization
    from projbraid.words import GroupParams, parse_word

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
            with counting() as counts:
                path = realize(word)
                events = realization.detect_events(path)
            if len(events) != m:
                raise RuntimeError(f"k = {k}, m = {m}: {len(events)} events for {m} letters")
            doc = json.loads(realization.indented_json(realization.path_to_document(path)))
            loaded = realization.path_from_document(doc)[0]
            segments = list(zip(loaded.keyframes, loaded.keyframes[1:]))
            row = {"k": k, "m": m, "events": len(events), **counts,
                   "realize_ms": median_ms(lambda: realize(word), repeats),
                   "detect_ms": median_ms(lambda: realization.detect_events(path), repeats),
                   "encode_ms": median_ms(
                       lambda: realization.indented_json(realization.path_to_document(path)), repeats),
                   "decode_ms": median_ms(lambda: realization.path_from_document(doc), repeats),
                   "rows_ms": median_ms(lambda: [realization._segment_rows(*pair) for pair in segments], repeats)}
            if previous is not None:
                for stage in ("realize", "detect", "encode", "decode", "rows"):
                    row[f"{stage}_growth"] = round(row[f"{stage}_ms"] / previous[f"{stage}_ms"], 2)
            rows.append(row)
            previous = row
    files = []
    for k in FILE_KS:
        docs, redrawn = random_files(k, seed)
        paths = [realization.path_from_document(doc)[0] for doc in docs]
        with counting() as counts:
            events = sum(len(realization.detect_events(path)) for path in paths)
        files.append({"k": k, "files": FILES, "keyframes": KEYFRAMES, "redrawn": redrawn, "events": events,
                      **counts,
                      "detect_ms": median_ms(lambda: [realization.detect_events(path) for path in paths], repeats),
                      "decode_ms": median_ms(lambda: [realization.path_from_document(doc) for doc in docs], repeats)})
    return {"seed": seed, "repeats": repeats, "python": sys.version.split()[0], "rows": rows, "files": files}


if __name__ == "__main__":
    main(measure, SIZES, __file__, __doc__)
