"""Seeded inputs for the projbraid benchmark, with answers known by construction.

Nothing here imports projbraid.  Words are plain lists of b-indices
1..k+1.  Two facts make the expected answers independent of the program:

* every move used to scramble a word (inserting a pair ``x x``, inserting a
  relator ``u u`` where ``u`` is an arrangement of all k+1 letters, and
  reversing a window of k+1 distinct letters) keeps its group element, so a
  scramble of the empty word is trivial and a scramble of a seed equals it;
* the per-letter parities are invariant under those moves, so a word with
  an odd letter count is nontrivial.

Path files for ``certify-files`` are checked against sympy: root counts of
each segment determinant by ``Poly.count_roots``, event order by
``Poly.intervals``, computed once when the file is generated.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

WORKLOADS = ("solve-long", "sweep-short", "realize-highk", "certify-files")

# Operations are run in whole cycles, so every run sees the same mix of
# classes and the quantiles of a run fall inside a class, not between two.
# In solve-long the fast operations (length 64, and the odd word, which is
# decided by its obstruction alone) are 3 of 20, length 128 the next 14,
# so the median falls in the middle of the 128s; length 256 is the next 2,
# so the 90th percentile falls between them.
SOLVE_LONG_CYCLE = (
    [(64, "trivial"), (64, "hword"), (128, "odd")]
    + [(128, "trivial")] * 11 + [(128, "hword")] * 3
    + [(256, "trivial"), (256, "hword")]
    + [(512, "trivial")]
)
SOLVE_LONG_CYCLES = 12
SWEEP_SHORT_CYCLES = 400
ORACLE_BOUNDS = (14, 1_000_000)  # the bounds of `selftest full`
# In realize-highk the three k6/8 words of a cycle hold the middle ranks,
# so the median falls among them, and the two k6/16 words the top ranks, so
# the 90th percentile falls between them.
REALIZE_CYCLE = [(5, 8), (5, 16), (6, 8), (6, 8), (6, 8), (6, 16), (6, 16)]
REALIZE_CYCLES = 6
CERTIFY_CYCLE = [3, 3, 4]
CERTIFY_CYCLES = 20
CERTIFY_KEYFRAMES = 6
# Warm-up inputs do not depend on the run's seed, so set-up time does not either.
WARMUP_SEED = "warmup"


# --- words --------------------------------------------------------------

def free_reduce(word: list[int]) -> list[int]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == x:
            out.pop()
        else:
            out.append(x)
    return out


def parity(word: list[int], k: int) -> list[int]:
    bits = [0] * (k + 1)
    for x in word:
        bits[x - 1] ^= 1
    return bits


def f_image(word: list[int], k: int) -> list[tuple[int, ...]]:
    """Free-product image: one generator per b(k+1), named by the parities of
    b1..bk before it, normalized so that the bit of bk is 0."""
    counts = [0] * k
    raw: list[tuple[int, ...]] = []
    for x in word:
        if x == k + 1:
            bits = counts if counts[k - 1] == 0 else [1 - c for c in counts]
            raw.append(tuple(bits[: k - 1]))
        else:
            counts[x - 1] ^= 1
    stack: list[tuple[int, ...]] = []
    for gen in raw:
        if stack and stack[-1] == gen:
            stack.pop()
        else:
            stack.append(gen)
    return stack


def relabel(seed: list[int], k: int, rng: random.Random) -> list[int]:
    """Apply a random permutation of b1..bk; it fixes b(k+1), so it is an
    automorphism that keeps the obstruction image empty or not."""
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    return [x if x == k + 1 else perm[x - 1] for x in seed]


def scramble(seed: list[int], length: int, k: int, rng: random.Random) -> list[int]:
    """A freely reduced word of exactly ``length`` letters, equal to ``seed``."""
    word = free_reduce(seed)
    if length < len(word) or (length - len(word)) % 2:
        raise ValueError(f"cannot scramble a {len(word)}-letter seed to length {length}")
    for _ in range(200_000):
        if len(word) == length:
            return word
        pos = rng.randint(0, len(word))
        if rng.random() < 0.4:
            u = rng.sample(range(1, k + 2), k + 1)
            g = [rng.randint(1, k + 1) for _ in range(rng.randint(0, 2))]
            cand = word[:pos] + g + u + u + g[::-1] + word[pos:]
        else:
            x = rng.randint(1, k + 1)
            cand = word[:pos] + [x, x] + word[pos:]
            start = pos + 1 if rng.random() < 0.5 else pos - k + 1
            window = cand[start : start + k + 1] if start >= 0 else []
            if len(window) != k + 1 or len(set(window)) != k + 1:
                continue
            cand[start : start + k + 1] = window[::-1]
        cand = free_reduce(cand)
        if len(cand) <= length:
            word = cand
    raise RuntimeError(f"scramble did not reach length {length}")


def word_text(word: list[int]) -> str:
    return " ".join(f"b{x}" for x in word)


# Seeds per kind.  "odd": an odd letter count, so nontrivial.  "hword": even
# parities over b1..bk only, nontrivial under the k = 3 freeness assumption
# the solver names.  solve-long's odd seed carries b4 an odd number of times,
# so its verdict is an obstruction; sweep-short's odd seeds avoid b(k+1),
# because its operations eliminate b(k+1) and that needs an empty image.
_LONG_SEEDS = {"trivial": [], "odd": [4, 1], "hword": [1, 2, 3, 2, 1, 3]}
_SHORT_SEEDS = {
    3: {"trivial": ([], range(8, 15, 2)), "odd": ([1, 2, 3], range(5, 14, 2)),
        "hword": ([1, 2, 3, 1, 2, 3], range(8, 15, 2))},
    4: {"trivial": ([], range(10, 15, 2)), "odd": ([1, 2, 3, 4], range(6, 15, 2)),
        "hword": ([1, 2, 3, 4, 1, 2, 3, 4], range(10, 15, 2))},
}


def long_word(kind: str, length: int, rng: random.Random) -> list[int]:
    """A scramble whose count of b4 is within one of length / 4, the count a
    scramble has on average.  Elimination time grows with that count, so
    fixing it keeps the cost of a length class the same from seed to seed."""
    while True:
        word = scramble(relabel(_LONG_SEEDS[kind], 3, rng), length, 3, rng)
        if abs(word.count(4) - length // 4) <= 1:
            return word


def solve_long(rng: random.Random, cycles: int = SOLVE_LONG_CYCLES) -> dict:
    ops = []
    for _ in range(cycles):
        for length, kind in SOLVE_LONG_CYCLE:
            word = long_word(kind, length, rng)
            ops.append({"cls": f"len{length}", "kind": kind, "k": 3, "word": word})
    warm = scramble([], 64, 3, random.Random(WARMUP_SEED))
    return {"ops": ops, "cycle": len(SOLVE_LONG_CYCLE),
            "warmup": [{"cls": "warmup", "kind": "trivial", "k": 3, "word": warm}]}


def sweep_short(rng: random.Random, cycles: int = SWEEP_SHORT_CYCLES) -> dict:
    combos = [(k, kind) for k in (3, 4) for kind in ("trivial", "odd", "hword")]
    ops = []
    for i in range(cycles * len(combos)):
        k, kind = combos[i % len(combos)]
        seed, lengths = _SHORT_SEEDS[k][kind]
        word = scramble(relabel(seed, k, rng), rng.choice(lengths), k, rng)
        ops.append({"cls": f"k{k}", "kind": kind, "k": k, "word": word})
    warm = random.Random(WARMUP_SEED)
    warmup = [{"cls": "warmup", "kind": "trivial", "k": k, "word": scramble([], 14, k, warm)} for k in (3, 4)]
    return {"ops": ops, "cycle": len(combos), "warmup": warmup}


def expected_endpoint(word: list[int], k: int, start: list[int]) -> list[int]:
    """The sign rule: b_j omits c = k + 2 - j; c <= k - 1 flips sign c,
    c = k or k + 1 flips every sign."""
    signs = list(start)
    for x in word:
        c = k + 2 - x
        if c <= k - 1:
            signs[c - 1] = -signs[c - 1]
        else:
            signs = [-s for s in signs]
    return signs


def realize_word(k: int, length: int, rng: random.Random) -> list[int]:
    """Random letters, with exactly round(length / (k + 1)) copies of b1 (the
    number uniform letters would give on average).  The path of b1 takes
    three keyframes and a shear and costs about three times another
    letter's, so fixing its count keeps the cost of a class the same from
    seed to seed while the words differ."""
    ones = round(length / (k + 1))
    word = [1] * ones + [rng.randint(2, k + 1) for _ in range(length - ones)]
    rng.shuffle(word)
    return word


def realize_highk(rng: random.Random, cycles: int = REALIZE_CYCLES) -> dict:
    ops = []
    for _ in range(cycles):
        for k, length in REALIZE_CYCLE:
            word = realize_word(k, length, rng)
            start = [rng.choice((1, -1)) for _ in range(k - 1)]
            ops.append({"cls": f"k{k}", "k": k, "word": word, "signs": start,
                        "endpoint": expected_endpoint(word, k, start)})
    word, start = [1, 2], [1, 1, 1, 1]
    warmup = [{"cls": "warmup", "k": 5, "word": word, "signs": start,
               "endpoint": expected_endpoint(word, 5, start)}]
    return {"ops": ops, "cycle": len(REALIZE_CYCLE), "warmup": warmup}


# --- path files -------------------------------------------------------------

def _det(rows: list[list[Fraction]]) -> Fraction:
    m = [list(r) for r in rows]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return result


def _rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _det_poly(start, end, subset) -> list[Fraction]:
    """Coefficients (constant first) of det of the interpolated rows, by
    evaluation at t = 0..k and Newton interpolation."""
    k = len(subset)
    xs = list(range(k + 1))
    ys = [_det([[p + t * (q - p) for p, q in zip(start[i - 1], end[i - 1])] for i in subset])
          for t in xs]
    coef = list(ys)
    for j in range(1, k + 1):
        for i in range(k, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[k]]
    for i in range(k - 1, -1, -1):  # Horner on the Newton form: poly * (t - x_i) + c_i
        poly = [Fraction(0)] + poly
        for d in range(len(poly) - 1):
            poly[d] -= xs[i] * poly[d + 1]
        poly[0] += coef[i]
    return poly


def _frame_ok(points: list[list[Fraction]], k: int) -> bool:
    n = k + 1
    if any(all(c == 0 for c in p) for p in points):
        return False
    if any(_rank([points[i] for i in s]) < k - 1 for s in combinations(range(n), k - 1)):
        return False
    return all(_det([points[i] for i in s]) != 0 for s in combinations(range(n), k))


def _negative_multiple(p: list[Fraction], q: list[Fraction]) -> bool:
    ratio = None
    for a, b in zip(q, p):
        if b == 0:
            if a != 0:
                return False
            continue
        if ratio is None:
            ratio = a / b
        elif ratio != a / b:
            return False
    return ratio is not None and ratio < 0


def _segment_reference(sympy, t, start, end, k):
    """Events of one segment in time order, or None when the segment is not
    stable (a determinant vanishing throughout, a multiple root in (0, 1),
    or two subsets degenerating at parameters too close to separate)."""
    found = []
    for subset in combinations(range(1, k + 2), k):
        coeffs = _det_poly(start, end, subset)
        d = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], t)
        if d.is_zero:
            return None
        roots = d.intervals(inf=0, sup=1, eps=sympy.Rational(1, 2**64))
        if any(mult > 1 for _, mult in roots) or len(roots) != d.count_roots(0, 1):
            return None
        rational = [-f.nth(0) / f.nth(1) for f, _ in d.factor_list()[1] if f.degree() == 1]
        for (a, b), _ in roots:
            exact = next((r for r in rational if a <= r <= b), None)
            found.append({"subset": list(subset), "lo": str(a), "hi": str(b),
                          "rational": None if exact is None else str(exact)})
    found.sort(key=lambda e: Fraction(e["lo"]))
    for x, y in zip(found, found[1:]):
        if Fraction(x["hi"]) >= Fraction(y["lo"]):
            return None
    return found


def _encode(value: Fraction):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def random_path_file(k: int, rng: random.Random, sympy, t, keyframes: int = CERTIFY_KEYFRAMES):
    """A stable random path with small rational coordinates and its reference events."""
    def coord() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    frames: list[list[list[Fraction]]] = []
    events: list[dict] = []
    while len(frames) < keyframes:
        points = [[coord() for _ in range(k)] for _ in range(k + 1)]
        if not _frame_ok(points, k):
            continue
        if frames:
            prev = frames[-1]
            if any(_negative_multiple(p, q) for p, q in zip(prev, points)):
                continue
            seg = _segment_reference(sympy, t, prev, points, k)
            if seg is None:
                continue
            for e in seg:
                e["segment"] = len(frames) - 1
            events.extend(seg)
        frames.append(points)
    doc = {"k": k, "n": k + 1,
           "keyframes": [[[_encode(c) for c in p] for p in frame] for frame in frames]}
    return doc, events


def certify_files(rng: random.Random, workdir: Path, cycles: int = CERTIFY_CYCLES) -> dict:
    import sympy

    t = sympy.Symbol("t")
    ops = []
    for i, k in enumerate(CERTIFY_CYCLE * cycles):
        doc, events = random_path_file(k, rng, sympy, t)
        name = workdir / f"path{i:03d}.json"
        name.write_text(json.dumps(doc, indent=2) + "\n")
        ops.append({"cls": f"k{k}", "k": k, "file": str(name), "events": events})
    doc, events = random_path_file(3, random.Random(WARMUP_SEED), sympy, t, keyframes=2)
    warm = workdir / "warmup.json"
    warm.write_text(json.dumps(doc, indent=2) + "\n")
    return {"ops": ops, "cycle": len(CERTIFY_CYCLE),
            "warmup": [{"cls": "warmup", "k": 3, "file": str(warm), "events": events}]}


def build(workload: str, seed: int, workdir: Path, cycles: int | None = None) -> dict:
    """All inputs of one run; the same seed gives the same inputs.

    ``cycles`` shrinks the pool of inputs (the benchmark's self-test uses
    one cycle); runs wrap around the pool when they outlast it.
    """
    rng = random.Random(f"{workload}:{seed}")
    extra = {} if cycles is None else {"cycles": cycles}
    if workload == "solve-long":
        job = solve_long(rng, **extra)
    elif workload == "sweep-short":
        job = sweep_short(rng, **extra)
    elif workload == "realize-highk":
        job = realize_highk(rng, **extra)
    elif workload == "certify-files":
        job = certify_files(rng, workdir, **extra)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    job["workload"] = workload
    return job
