"""Event ordering against the Fraction refinement it replaced.

``time_cmp`` orders event times on integer ``polys.Interval``s, and inside
the sort of ``_segment_events`` it resumes each time from the interval its
last comparison left.  These tests hold it to a test-local copy of the
earlier ``time_cmp``, which started every comparison from the isolating
intervals and halved them in ``Fraction`` arithmetic: each segment must
come out in the same order, or raise ``SimultaneousEvents`` on the same pair.
``time_cmp`` halves overlapping intervals before it runs ``time_eq``'s gcd,
so the last tests also count ``polys.gcd`` calls: one for a coincidence or
for roots too close for the halving budget, none for a separable pair.
One test pins the bytes ``certify`` prints for the ``certify-files`` inputs.
"""

import hashlib
import importlib.util
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from projbraid import cli, polys, realization
from projbraid.projective import subset_minors
from projbraid.realization import (
    AlgebraicTime,
    SimultaneousEvents,
    _segment_events,
    _segment_rows,
    load_path_file,
    time_cmp,
    time_eq,
)

F = Fraction
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BEYOND = polys._DIVISOR_LIMIT + 1


def reference_refine_once(f, lo, hi):
    mid = (lo + hi) / 2
    at_mid = polys.evaluate(f, mid)
    if at_mid == 0:
        return mid, mid
    if polys.evaluate(f, lo) * at_mid < 0:
        return lo, mid
    return mid, hi


def reference_time_cmp(a, b):
    """``time_cmp`` before integer intervals: every call starts from the
    isolating intervals and halves the wider one in ``Fraction`` arithmetic."""
    if time_eq(a, b):
        return 0
    ia, ib = ((t, t) if isinstance(t, Fraction) else (t.lo, t.hi) for t in (a, b))
    while not (ia[1] <= ib[0] or ib[1] <= ia[0]):
        if ia[1] - ia[0] >= ib[1] - ib[0]:
            ia = reference_refine_once(a.poly, *ia)
        else:
            ib = reference_refine_once(b.poly, *ib)
    return -1 if ia[1] <= ib[0] else 1


def segment_times(pencils):
    """The (time, subset) list ``_segment_events`` sorts, in its order before
    the sort: per subset, its rational roots, then its isolated ones.  The
    pencils here are squarefree, so no tangency check is needed."""
    found = []
    for subset, d in pencils:
        if polys.degree(d) < 1:
            continue
        remaining = polys.squarefree_split(d)[0]
        extracted = polys.rational_roots_in_unit_interval(remaining)
        if extracted is not None:
            roots, remaining = extracted
            found += [(r, subset) for r in roots]
        if polys.degree(remaining) >= 1:
            found += [(AlgebraicTime(remaining, lo, hi), subset)
                      for lo, hi in polys.isolate_roots(remaining, F(0), F(1))]
    return found


def reference_outcome(segment, pencils):
    """The events in order by ``reference_time_cmp``, or the message of the
    simultaneous pair the sort meets first."""
    def order(x, y):
        sign = reference_time_cmp(x[0], y[0])
        if sign == 0:
            first, second = sorted((x[1], y[1]))
            raise SimultaneousEvents(
                f"segment {segment}: subsets {first} and {second} degenerate at the same parameter"
            )
        return sign

    try:
        return sorted(segment_times(pencils), key=cmp_to_key(order))
    except SimultaneousEvents as exc:
        return str(exc)


def outcome(segment, pencils):
    try:
        return [(e.t, e.subset) for e in _segment_events(segment, pencils)]
    except SimultaneousEvents as exc:
        return str(exc)


@pytest.fixture(scope="module")
def certify_files(request, tmp_path_factory):
    """The path files of the benchmark's ``certify-files`` workload, seeds 7 to 9.

    Building them takes most of this module's time, so they are kept in
    pytest's cache under the SHA-256 of the generator's source and sympy's
    version, and built as before when that key misses or the cache plugin
    is disabled.  The file list is stored only once every file is written.
    """
    sympy = pytest.importorskip("sympy")
    source = PERFBENCH / "inputs.py"
    key = hashlib.sha256(source.read_bytes() + sympy.__version__.encode()).hexdigest()
    cache = getattr(request.config, "cache", None)
    if cache is not None:
        files = cache.get(f"projbraid/certify-files/{key}", None)
        if files and all(Path(name).is_file() for name in files):
            return files
    spec = importlib.util.spec_from_file_location("perfbench_inputs", source)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    files = []
    for seed in (7, 8, 9):
        if cache is None:
            workdir = tmp_path_factory.mktemp(f"certify-files-{seed}")
        else:
            workdir = cache.mkdir(f"certify-files-{key[:16]}-{seed}")
        files += [op["file"] for op in inputs.build("certify-files", seed, workdir)["ops"]]
    if cache is not None:
        cache.set(f"projbraid/certify-files/{key}", files)
    return files


def test_certify_files_segments_sort_as_the_reference(certify_files):
    segments = 0
    for name in certify_files:
        path, _ = load_path_file(name)
        for segment, (start, end) in enumerate(zip(path.keyframes, path.keyframes[1:])):
            pencils = subset_minors(*_segment_rows(start, end))
            assert outcome(segment, pencils) == reference_outcome(segment, pencils)
            segments += 1
    assert (len(certify_files), segments) == (180, 900)


# certify of every file, text then structured, as f"{rc}\n{stdout}" with the
# file's directory written as WORK, all into one SHA-256
CERTIFY_DIGEST = "ea5035d09641d3c671e285974a2ab1a8080b6cb327264e23bd2768810f900112"


def test_certify_files_output_is_byte_identical(certify_files, capsys):
    digest = hashlib.sha256()
    for name in certify_files:
        work = str(Path(name).parent)
        for fmt in ("text", "structured"):
            rc = cli.main(["--format", fmt, "certify", name])
            digest.update(f"{rc}\n{capsys.readouterr().out}".replace(work, "WORK").encode())
    assert digest.hexdigest() == CERTIFY_DIGEST


def mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


# factors with roots inside (0, 1): qt - p, and bt^2 - a (rational when a/b
# is a square); roots 1/2, 1/4 and 3/4 recur, so halvings land on them
inner_factors = (
    st.tuples(st.integers(1, 7), st.integers(2, 8)).filter(lambda pq: pq[0] < pq[1]).map(lambda pq: (-pq[0], pq[1]))
    | st.sampled_from(((-1, 2), (-1, 4), (-3, 4)))
    | st.tuples(st.integers(1, 11), st.integers(2, 12)).filter(lambda ab: ab[0] < ab[1]).map(lambda ab: (-ab[0], 0, ab[1]))
)
# factors with roots outside [0, 1]; the last pushes the coefficients past
# the divisor search, so rational roots become isolated, algebraic times
outer_factors = st.sampled_from(((1,), (2, 1), (-5, 1), (-BEYOND, 1)))


@st.composite
def segment_pencils(draw):
    """Two to five squarefree pencils of one segment, sharing roots often."""
    pencils = []
    for index in range(draw(st.integers(2, 5))):
        d = draw(outer_factors)
        for factor in draw(st.lists(inner_factors, min_size=1, max_size=3)):
            d = mul(d, factor)
        if polys.degree(polys.squarefree_split(d)[1]) >= 1:
            continue  # a repeated root is a tangential event, not an ordering question
        pencils.append(((index + 1,), d if draw(st.booleans()) else tuple(-c for c in d)))
    return pencils


@settings(max_examples=300, deadline=None)
@given(segment_pencils())
def test_drawn_time_sets_sort_as_the_reference(pencils):
    assert outcome(0, pencils) == reference_outcome(0, pencils)


# (2t - 1)(t - BEYOND): its root 1/2 is past the divisor search, so it is
# isolated in (0, 1), and the first halving of (0, 1) lands on it
HALF_BEYOND = mul((-1, 2), (-BEYOND, 1))
ROOT_HALF = (-1, 0, 2)  # 2t^2 - 1, root 0.7071...


def test_collapsed_interval_meets_an_equal_rational_later():
    assert polys.rational_roots_in_unit_interval(HALF_BEYOND) is None
    assert polys.isolate_roots(HALF_BEYOND, F(0), F(1)) == [(F(0), F(1))]
    half = AlgebraicTime(HALF_BEYOND, F(0), F(1))
    assert time_cmp(half, AlgebraicTime(ROOT_HALF, F(0), F(1))) == -1
    assert half.refined == (1, 1, 2, 0)
    # touching zero-width intervals are one point: equal, with no halving and no gcd
    assert time_cmp(half, F(1, 2)) == 0
    assert time_cmp(F(2, 4), half) == 0
    assert time_cmp(half, AlgebraicTime(mul((-1, 2), (-BEYOND - 1, 1)), F(0), F(1))) == 0


def test_collapsed_interval_meets_an_equal_event_in_the_sort(monkeypatch):
    pencils = [((1, 2, 3), HALF_BEYOND), ((1, 2, 4), ROOT_HALF), ((1, 3, 4), (-1, 2))]
    seen = []

    def recording(a, b):
        seen.append((a, b, getattr(a, "refined", None), getattr(b, "refined", None)))
        return time_cmp(a, b)

    monkeypatch.setattr(realization, "time_cmp", recording)
    with pytest.raises(SimultaneousEvents, match=r"subsets \(1, 2, 3\) and \(1, 3, 4\)"):
        _segment_events(0, pencils)
    # the last comparison met 1/2 with the interval an earlier one collapsed onto 1/2
    a, b, at_a, at_b = seen[-1]
    assert len(seen) > 1 and {a, b} == {F(1, 2), AlgebraicTime(HALF_BEYOND, F(0), F(1))}
    assert (1, 1, 2, 0) in (at_a, at_b)
    assert reference_outcome(0, pencils) == "segment 0: subsets (1, 2, 3) and (1, 3, 4) degenerate at the same parameter"


@pytest.fixture
def gcd_calls(monkeypatch):
    """Every ``polys.gcd`` call made after the fixture is set up."""
    calls = []
    gcd = polys.gcd

    def counting(f, g):
        calls.append((f, g))
        return gcd(f, g)

    monkeypatch.setattr(polys, "gcd", counting)
    return calls


def test_shared_irrational_root_runs_one_gcd(gcd_calls):
    # (2t^2 - 1)(t + 2) shares 2t^2 - 1's root 0.7071... in (0, 1)
    pencils = [((1, 2, 3), ROOT_HALF), ((1, 2, 4), (-1, 3)), ((1, 3, 4), mul(ROOT_HALF, (2, 1)))]
    message = "segment 0: subsets (1, 2, 3) and (1, 3, 4) degenerate at the same parameter"
    assert outcome(0, pencils) == message
    assert len(gcd_calls) == 1
    assert reference_outcome(0, pencils) == message


def test_roots_closer_than_the_halving_budget_order_after_one_gcd(gcd_calls):
    # b t^2 - (b + 2)/2 with b = 2 * 4^B: its root sqrt(1/2 + 4^-B / 2) is
    # irrational (b is no square) and within 4^-B of 2t^2 - 1's, so B
    # halvings of the two intervals leave them overlapping
    b = 2 * 4 ** polys._HALVINGS_BEFORE_GCD
    near = (-(b // 2 + 1), 0, b)
    pencils = [((1, 2, 3), near), ((1, 2, 4), ROOT_HALF)]
    got = outcome(0, pencils)
    assert [subset for _, subset in got] == [(1, 2, 4), (1, 2, 3)]
    assert len(gcd_calls) == 1
    assert got == reference_outcome(0, pencils)


def test_overlapping_separable_pair_orders_without_gcd(gcd_calls):
    # 2t^2 - 1 and 3t^2 - 1 are both isolated in (0, 1); halvings part them
    pencils = [((1, 2, 3), ROOT_HALF), ((1, 2, 4), (-1, 0, 3))]
    got = outcome(0, pencils)
    assert all(e.lo == 0 and e.hi == 1 for e, _ in got)
    assert [subset for _, subset in got] == [(1, 2, 4), (1, 2, 3)]
    assert gcd_calls == []
    assert got == reference_outcome(0, pencils)
