"""Differential tests: the batch entry points of the symbolic systems
(``subshift.classify_pairs``, ``ternary.pair_types``, ``circles.pair_labels``
and ``circles.round_trip_angles``) against their one-pair and one-step
references in ``oracles``, and the reports that read them in one pass."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    reference_classify_pair,
    reference_pair_grid,
    reference_pair_type,
    reference_round_trip_angles,
)

from flowrel import circles, reports, subshift, ternary
from flowrel.circles import CirclePoint, center, pair_labels, round_trip_angles
from flowrel.subshift import (
    AdicImage,
    ChaconPoint,
    ChaconXi,
    ClassifyParams,
    Dual,
    Shift,
    classify_pair,
    classify_pairs,
    morse_fixed_points,
)
from flowrel.ternary import pair_type, pair_types

MORSE = morse_fixed_points()


def one_by_one(classify, points, pairs, params):
    """Each pair classified alone, in order, or the first error met."""
    try:
        return [classify(points[i], points[j], params) for i, j in pairs]
    except ValueError as exc:
        return type(exc), str(exc)


def batch(points, pairs, params):
    try:
        return classify_pairs(points, pairs, params)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def morse_points(draw, depth=0):
    """A fixed point under shifts, duals and adjacent sums."""
    kind = draw(st.sampled_from(["fixed"] * 3 + (["shift", "dual", "sum"] if depth < 3 else [])))
    if kind == "fixed":
        return MORSE[draw(st.sampled_from(sorted(MORSE)))]
    inner = draw(morse_points(depth + 1))
    if kind == "shift":
        return Shift(inner, draw(st.integers(-40, 40)))
    return Dual(inner) if kind == "dual" else AdicImage(inner)


@st.composite
def chacon_points(draw):
    kind = draw(st.sampled_from(["x1", "x2", "xi"]))
    if kind == "xi":
        point = ChaconXi(tuple(draw(st.lists(st.integers(1, 3), max_size=3))), draw(st.integers(1, 3)))
    else:
        point = ChaconPoint(kind)
    return Shift(point, draw(st.integers(-40, 40))) if draw(st.booleans()) else point


@st.composite
def params(draw):
    depth = draw(st.sampled_from([0, 0, 1, 2, 3, 5, 8]))
    horizon = draw(st.sampled_from([0, 1, 1, 2, 7, 30, 64]))
    gap = draw(st.sampled_from([horizon, horizon, 1, max(horizon // 3, 1), horizon + 1, 0]))
    return ClassifyParams(depth=depth, gap=gap, horizon=horizon)


@st.composite
def point_lists(draw, points):
    """Points with the duals of some of them mixed in, and pairs among
    them: repeated, reversed and diagonal pairs included."""
    base = draw(st.lists(points, min_size=1, max_size=4))
    duals = [Dual(p) for p in base if draw(st.booleans())]
    pts = base + duals
    index = st.integers(0, len(pts) - 1)
    pairs = draw(st.lists(st.tuples(index, index), min_size=1, max_size=8))
    if draw(st.booleans()):
        pairs += [pairs[0], pairs[0][::-1]]
    return pts, pairs


def check_batch(pts, pairs, p, block_bytes):
    expected = one_by_one(reference_classify_pair, pts, pairs, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subshift, "MASK_BLOCK_BYTES", block_bytes)
        assert batch(pts, pairs, p) == expected
    assert one_by_one(classify_pair, pts, pairs, p) == expected


@settings(max_examples=150, deadline=None)
@given(point_lists(morse_points()), params(), st.sampled_from([1, 200, 2**18]))
def test_morse_batches_match_one_pair_at_a_time(points_and_pairs, p, block_bytes):
    # a tiny block puts one row in each, 200 bytes a few: rows meet
    # block edges at every place
    pts, pairs = points_and_pairs
    check_batch(pts, pairs, p, block_bytes)


@settings(max_examples=80, deadline=None)
@given(point_lists(chacon_points()), params(), st.sampled_from([1, 300, 2**18]))
def test_chacon_batches_match_one_pair_at_a_time(points_and_pairs, p, block_bytes):
    pts, pairs = points_and_pairs
    check_batch(pts, pairs, p, block_bytes)


def test_a_batch_with_no_pairs_is_empty():
    assert classify_pairs([MORSE["a"]], []) == []
    with pytest.raises(ValueError, match="depth and horizon"):  # the parameters are checked first
        classify_pairs([MORSE["a"]], [], ClassifyParams(depth=-1))
    assert pair_types([ternary.constant("0")], []) == []


def test_batch_errors_come_in_pair_order():
    a, abar, b = MORSE["a"], MORSE["abar"], MORSE["b"]
    bad_gap = ClassifyParams(depth=2, gap=11, horizon=10)
    # a dual pair needs no gap bound; the scanned pair after it does
    assert classify_pairs([a, abar], [(0, 1)], bad_gap)[0].labels == ("proven-D",)
    with pytest.raises(ValueError, match="gap_bound"):
        classify_pairs([a, abar, b], [(0, 1), (0, 2)], bad_gap)
    with pytest.raises(ValueError, match="depth and horizon"):
        classify_pairs([a, abar], [(0, 1)], ClassifyParams(depth=-1, gap=0, horizon=10))
    # the letter guard fires before any mask, for the first scanned pair
    with pytest.raises(OverflowError, match="letter guard"):
        classify_pairs([a, abar, b], [(0, 1), (0, 2)], ClassifyParams(depth=8, gap=256, horizon=10**18))


def test_each_point_is_normalized_and_cut_once(monkeypatch):
    calls = {"dual": 0, "pieces": 0}
    dual_form = subshift._dual_form

    def counted_dual_form(x):
        calls["dual"] += 1
        return dual_form(x)

    class Counted(Shift):
        def pieces(self, lo, hi):
            calls["pieces"] += 1
            return super().pieces(lo, hi)

    monkeypatch.setattr(subshift, "_dual_form", counted_dual_form)
    monkeypatch.setattr(subshift, "is_dual_pair", None)  # the batch compares the forms itself
    pts = [Counted(MORSE[name], k) for name in ("a", "b", "abar", "bbar") for k in (0, 1)]
    pairs = [(i, j) for i in range(len(pts)) for j in range(len(pts))]
    reps = classify_pairs(pts, pairs, ClassifyParams(depth=4, gap=50, horizon=300))
    assert calls == {"dual": len(pts), "pieces": len(pts)}
    assert sum(rep.labels == ("proven-D",) for rep in reps) == 8


def test_mt_report_scans_its_pairs_once(monkeypatch):
    calls = []
    scan = subshift.agreement_times
    monkeypatch.setattr(subshift, "agreement_times", lambda *args: calls.append(args) or scan(*args))
    monkeypatch.setattr(subshift, "is_dual_pair", None)
    monkeypatch.setattr(reports, "classify_pair", None)
    report = reports.mt_report()
    (call,) = calls
    assert len(call[0]) == 13 and len(report["pairs"]) == 15


def test_a_deep_pair_is_one_row_and_many_shallow_pairs_one_block():
    deep, shallow = 2 * (2 * 10**5 + 16) + 3, 2 * (4096 + 8) + 3
    assert subshift.MASK_BLOCK_BYTES // deep == 0  # one row per block, today's mask
    assert subshift.MASK_BLOCK_BYTES // shallow >= 13  # mt's 13 scanned rows fit one block


# -- the ternary full shift ---------------------------------------------------------


words = st.text(alphabet="012", max_size=6)
periods = st.text(alphabet="012", min_size=1, max_size=3)
ternary_points = st.builds(ternary.ternary, words, st.integers(-15, 15), periods, periods)


@settings(max_examples=150, deadline=None)
@given(st.lists(ternary_points, min_size=1, max_size=5), st.data())
def test_pair_types_match_the_coordinate_loop(pts, data):
    index = st.integers(0, len(pts) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=8))
    expected = [reference_pair_type(pts[i], pts[j]) for i, j in pairs]
    assert pair_types(pts, pairs) == expected
    assert [pair_type(pts[i], pts[j]) for i, j in pairs] == expected


@settings(max_examples=60, deadline=None)
@given(ternary_points)
def test_a_one_point_list(x):
    assert pair_types([x], [(0, 0)]) == ["agreeable"]


@settings(max_examples=80, deadline=None)
@given(st.lists(ternary_points, min_size=2, max_size=4), st.integers(10**9, 10**9 + 10**6), st.data())
def test_centers_far_apart_stay_cheap_and_exact(pts, far, data):
    # moving a point by a multiple of every tail period keeps each tail's
    # phase, so a point far away has the type of a near copy, which the
    # coordinate loop can read; the shared read set stays small
    period = math.lcm(*(len(w) for x in pts for w in (x.left, x.right)))
    spread = 40 + max(len(x.center) for x in pts)
    near = [x.shifted(-k * spread) for k, x in enumerate(pts)]
    moved = [x.shifted(-k * (spread + (far // period) * period)) for k, x in enumerate(pts)]
    index = st.integers(0, len(pts) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=6))
    start = time.perf_counter()
    kinds = pair_types(moved, pairs)
    assert time.perf_counter() - start < 0.5
    assert kinds == [reference_pair_type(near[i], near[j]) for i, j in pairs]


def test_ternary_report_reads_one_batch(monkeypatch):
    monkeypatch.setattr(ternary, "sp_classify", None)
    monkeypatch.setattr(ternary, "pair_type", None)
    assert len(reports.ternary_report()["pairs"]) == 66


# -- the circle cascade ---------------------------------------------------------------


ANGLE_NEAR_TOL = circles.ANGLE_TOL / 2


def cascade_points(rng: random.Random, count: int) -> list[CirclePoint]:
    angles = [0.0, math.nextafter(math.pi, 0.0), math.pi, 1e-300, ANGLE_NEAR_TOL]
    pts = [center()]
    for _ in range(count):
        family = rng.choice("CD")
        index = rng.randint(0 if family == "C" else 2, 12)
        pts.append(CirclePoint(family, index, rng.choice(angles + [rng.uniform(0.0, math.pi)])))
    return pts


@pytest.mark.parametrize("seed", range(5))
def test_pair_labels_match_pair_class(seed):
    rng = random.Random(seed)
    rows, columns = cascade_points(rng, 12), cascade_points(rng, 9)
    columns += rows[:4]  # diagonal pairs, and a tolerance away from them
    assert pair_labels(rows, columns) == reference_pair_grid(rows, columns)
    assert pair_labels([], columns) == [] and pair_labels(rows, []) == [[] for _ in rows]


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_angles_match_the_steps(seed):
    rng = random.Random(100 + seed)
    tiers = [("center", 0), ("C", 0), ("C", 1), ("D", 2)] + [(f, n) for f in "CD" for n in range(3, 14)]
    angles = [0.0, math.nextafter(math.pi, 0.0), math.pi - 1e-9, 1e-12] + [rng.uniform(0.0, math.pi) for _ in range(6)]
    for family, index in tiers:
        for angle in angles:
            p = CirclePoint(family, index, angle)
            assert round_trip_angles(p) == reference_round_trip_angles(p), (family, index, angle)


def test_cc_report_builds_no_pair_dicts_and_no_steps(monkeypatch):
    for name in ("pair_class", "step", "step_back"):
        monkeypatch.setattr(circles, name, None)
    report = reports.cc_report()
    assert report["roundtrip_max_angle_error"] == 4.441e-16
    assert len(report["pair_grid"]) == 10
