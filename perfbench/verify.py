"""Independent checks of every benchmark operation.

Nothing here imports projbraid.  Each ``check_*`` takes one operation (its
inputs and expected answer, from ``inputs``) and the program's output for
it, and returns ``(ok, decided, cert_bytes, note)``: whether the output is
correct, whether it ends in a definite verdict, the size of the
certificate it emitted, and a reason when it is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction

from inputs import f_image, free_reduce, parity

# Moves travel as (kind, pos, letter) with the letter a b-index, or None.
Move = tuple


def letter_of_subset(subset: list[int], k: int) -> int:
    """b-index of the letter whose subset omits c: b = k + 2 - c."""
    (c,) = set(range(1, k + 2)) - set(subset)
    return k + 2 - c


def subset_of_letter(b: int, k: int) -> list[int]:
    c = k + 2 - b
    return [i for i in range(1, k + 2) if i != c]


def parse_subset(text: str) -> list[int]:
    if not (text.startswith("a{") and text.endswith("}")):
        raise ValueError(f"bad letter {text!r}")
    return [int(part) for part in text[2:-1].split(",")]


def parse_b_word(text: str) -> list[int]:
    if text == '""':
        return []
    letters = []
    for token in text.split():
        if not token.startswith("b"):
            raise ValueError(f"bad token {token!r}")
        letters.append(int(token[1:]))
    return letters


def moves_from_docs(docs: list[dict], k: int) -> list[Move]:
    moves = []
    for d in docs:
        letter = letter_of_subset(parse_subset(d["letter"]), k) if "letter" in d else None
        moves.append((d["kind"], d["pos"], letter))
    return moves


def replay(word: list[int], moves: list[Move], k: int) -> list[int] | None:
    """Apply moves one by one, checking each; None on the first illegal one.

    In the square case no two letters far-commute, so a swap is never legal.
    """
    w = list(word)
    for kind, pos, x in moves:
        if kind == "insert":
            if not 0 <= pos <= len(w) or not 1 <= x <= k + 1:
                return None
            w[pos:pos] = [x, x]
        elif kind == "cancel":
            if not 0 <= pos <= len(w) - 2 or not w[pos] == w[pos + 1] == x:
                return None
            del w[pos : pos + 2]
        elif kind == "reverse":
            window = w[pos : pos + k + 1]
            if pos < 0 or len(window) != k + 1 or len(set(window)) != k + 1:
                return None
            w[pos : pos + k + 1] = window[::-1]
        else:
            return None
    return w


def obstruction_text(image: list[tuple[int, ...]]) -> str:
    if not image:
        return "1"
    return " ".join("c(" + ",".join(str(b) for b in gen) + ")" for gen in image)


def _residue_ok(residue: list[int], word: list[int], k: int) -> bool:
    """A residue witness: nonempty, freely reduced, free of b(k+1), and with
    the word's parities (which every move keeps)."""
    return (
        bool(residue)
        and free_reduce(residue) == residue
        and (k + 1) not in residue
        and parity(residue, k) == parity(word, k)
    )


def _json(stdout: str) -> dict:
    doc = json.loads(stdout)
    if not isinstance(doc, dict):
        raise ValueError("structured output is not an object")
    return doc


# --- solve-long ------------------------------------------------------------

_EXIT = {"Trivial": 0, "NonTrivial": 1, "Unknown": 2}


def check_solve_cli(op: dict, out: dict):
    word, k, kind = op["word"], op["k"], op["kind"]
    doc = _json(out["stdout"])
    size = len(out["stdout"].encode())
    status = doc.get("status")
    if out["rc"] != _EXIT.get(status):
        return False, False, size, f"exit {out['rc']} for {status}"
    if kind == "trivial":
        if status != "Trivial" or doc.get("trace_moves") != len(doc.get("trace", [])):
            return False, True, size, f"expected Trivial, got {status}"
        if replay(word, moves_from_docs(doc["trace"], k), k) != []:
            return False, True, size, "trace does not replay to the empty word"
        return True, True, size, None
    if status != "NonTrivial":
        return False, status != "Unknown", size, f"expected NonTrivial, got {status}"
    if "obstruction" in doc:
        image = f_image(word, k)
        ok = bool(image) and doc["obstruction"] == obstruction_text(image) and doc["assumptions"] == []
        return ok, True, size, None if ok else f"obstruction {doc['obstruction']!r}"
    if "residue" in doc:
        ok = _residue_ok(parse_b_word(doc["residue"]), word, k) and bool(doc["assumptions"])
        return ok, True, size, None if ok else f"residue {doc['residue']!r}"
    return False, True, size, "NonTrivial without a witness"


# --- sweep-short -----------------------------------------------------------

def render_verdict(out: dict, k: int) -> str:
    """The verdict as ``solve --format structured --trace`` lays it out."""
    names = {"trivial": "Trivial", "nontrivial": "NonTrivial", "unknown": "Unknown"}
    doc: dict = {"command": "solve", "status": names[out["status"]],
                 "assumptions": sorted(out["assumptions"])}
    if out["obstruction"] is not None:
        doc["obstruction"] = obstruction_text([tuple(g) for g in out["obstruction"]])
    if out["parity"] is not None:
        doc["parity"] = out["parity"]
    if out["residue"] is not None:
        doc["residue"] = " ".join(f"b{x}" for x in out["residue"]) or '""'
    if out["verdict_trace"] is not None:
        doc["trace_moves"] = len(out["verdict_trace"])
        doc["trace"] = [
            {"kind": kind, "pos": pos}
            | ({} if x is None else {"letter": "a{" + ",".join(map(str, subset_of_letter(x, k))) + "}"})
            for kind, pos, x in out["verdict_trace"]
        ]
    return json.dumps(doc, indent=2, sort_keys=True)


# Verdicts each kind may get.  For k >= 4 the procedure only semi-decides:
# a trivial word may stay Unknown, and an hword is Unknown unless the
# program proves it trivial by a trace that replays.
_SWEEP_ALLOWED = {
    ("trivial", False): {"trivial"},
    ("trivial", True): {"trivial", "unknown"},
    ("odd", False): {"nontrivial"},
    ("odd", True): {"nontrivial"},
    ("hword", False): {"nontrivial"},
    ("hword", True): {"unknown", "trivial"},
}


def check_sweep(op: dict, out: dict):
    word, k, kind = op["word"], op["k"], op["kind"]
    size = len(render_verdict(out, k).encode()) + 1
    status = out["status"]
    if status not in _SWEEP_ALLOWED[kind, k >= 4]:
        return False, status != "unknown", size, f"{kind} word got {status}"
    if status == "trivial" and replay(word, out["verdict_trace"], k) != []:
        return False, True, size, "verdict trace does not replay to the empty word"
    if status == "unknown" and (out["residue"] is None or (k + 1) in out["residue"]):
        return False, False, size, "Unknown without a residue over b1..bk"
    if status == "nontrivial":
        if out["parity"] is not None:
            if not any(out["parity"]) or out["parity"] != parity(word, k):
                return False, True, size, f"parity witness {out['parity']}"
        elif out["residue"] is None or not _residue_ok(out["residue"], word, k) or not out["assumptions"]:
            return False, True, size, "NonTrivial without a valid witness"
    rewritten = out["rewritten"]
    if (k + 1) in rewritten:
        return False, True, size, "elimination left b(k+1)"
    if replay(word, out["elim_trace"], k) != rewritten:
        return False, True, size, "elimination trace does not replay"
    if out["check_trace"] is not True:
        return False, True, size, "check_trace rejected the elimination trace"
    if out["oracle_equal"]:
        if replay(word, out["oracle_trace"], k) != rewritten:
            return False, True, size, "oracle trace does not replay"
    decided = status != "unknown" and out["oracle_equal"]
    return True, decided, size, None


# --- realize-highk ---------------------------------------------------------

def signs_text(signs: list[int]) -> str:
    return "(" + ",".join("+" if s > 0 else "-" for s in signs) + ")"


def end_signs_of(frame: list[list], k: int) -> list[int] | None:
    """Sign string of a base configuration: points 1..k on the coordinate
    axes, the last point read with its k-th coordinate scaled to +1."""
    points = [[Fraction(c) for c in p] for p in frame]
    for i in range(k):
        if any((c != 0) != (j == i) for j, c in enumerate(points[i])):
            return None
    last = points[k]
    if last[k - 1] == 0 or any(c == 0 for c in last[: k - 1]):
        return None
    return [1 if c / last[k - 1] > 0 else -1 for c in last[: k - 1]]


def check_realize(op: dict, out: dict):
    word, k = op["word"], op["k"]
    size = sum(len(out[key].encode()) for key in ("out_realize", "file_text", "out_certify"))
    if out["rc_realize"] != 0 or out["rc_certify"] != 0:
        return False, False, size, f"exit codes {out['rc_realize']}, {out['rc_certify']}"
    realized = _json(out["out_realize"])
    if realized.get("endpoint") != signs_text(op["endpoint"]):
        return False, True, size, f"endpoint {realized.get('endpoint')}"
    path = json.loads(out["file_text"])
    frames = path["keyframes"]
    if (path["k"], path["n"]) != (k, k + 1) or realized.get("keyframes") != len(frames):
        return False, True, size, "path file header or keyframe count"
    if path.get("base_sign") != "".join("+" if s > 0 else "-" for s in op["signs"]):
        return False, True, size, "path file base_sign"
    if end_signs_of(frames[0], k) != op["signs"] or end_signs_of(frames[-1], k) != op["endpoint"]:
        return False, True, size, "path does not run between the expected base configurations"
    certified = _json(out["out_certify"])
    if parse_b_word(certified["word"]) != word:
        return False, True, size, f"certify read back {certified['word']!r}"
    subsets = [e["subset"] for e in certified["events"]]
    segments = [e["segment"] for e in certified["events"]]
    if subsets != [subset_of_letter(x, k) for x in word] or segments != sorted(segments):
        return False, True, size, "events do not spell the word in order"
    return True, True, size, None


# --- certify-files ---------------------------------------------------------

def check_certify_file(op: dict, out: dict):
    k, expected = op["k"], op["events"]
    size = len(out["stdout"].encode())
    if out["rc"] != 0:
        return False, False, size, f"exit {out['rc']}"
    doc = _json(out["stdout"])
    events = doc["events"]
    got = [(e["segment"], e["subset"]) for e in events]
    if got != [(e["segment"], e["subset"]) for e in expected]:
        return False, True, size, "event list differs from the sympy reference"
    if parse_b_word(doc["word"]) != [letter_of_subset(s, k) for _, s in got]:
        return False, True, size, "word does not match the events"
    for e, ref in zip(events, expected):
        lo, hi = Fraction(ref["lo"]), Fraction(ref["hi"])
        if isinstance(e["t"], str):
            if ref["rational"] is None or Fraction(e["t"]) != Fraction(ref["rational"]):
                return False, True, size, f"rational time {e['t']} is not a root"
        else:
            a, b = (Fraction(x) for x in e["t"]["interval"])
            if not (a <= lo and hi <= b):
                return False, True, size, f"interval {e['t']['interval']} misses the root"
    return True, True, size, None


CHECKS = {
    "solve-long": check_solve_cli,
    "sweep-short": check_sweep,
    "realize-highk": check_realize,
    "certify-files": check_certify_file,
}
