import random
import time

import numpy as np
import pytest

from flowrel.reports import ternary_sample
from flowrel.subshift import EventuallyPeriodic
from flowrel.ternary import (
    AGREEABLE,
    EDGE,
    OPPOSED,
    constant,
    pair_type,
    sp_classify,
    ternary,
)

from oracles import letterwise_segment, reference_pair_type
from oracles import ternary_expected_type as expected_type


def test_validation():
    with pytest.raises(ValueError):
        ternary("013", 0, "0", "0")
    with pytest.raises(ValueError):
        ternary("0", 0, "", "0")
    for bad in ("3", "01", ""):
        with pytest.raises(ValueError, match="const:C"):
            constant(bad)


def test_evaluation_and_shift():
    z = ternary_sample()["z"]
    assert z.segment(-8, -1) == "00011000"
    assert z.segment(0, 17) == "110001110001111000"
    s = z.shifted(3)
    assert s.at(0) == z.at(3)
    assert s.segment(-5, 5) == z.segment(-2, 8)


def test_constants_pairwise_edges():
    c0, c1 = constant("0"), constant("1")
    assert pair_type(c0, c1) == EDGE
    assert sp_classify(c0, c1).label == "NotInSP"


def test_published_z_statements():
    pts = ternary_sample()
    assert pair_type(pts["c0"], pts["z"]) == AGREEABLE
    assert sp_classify(pts["c0"], pts["z"]).label == "InSP"
    assert pair_type(pts["z"], pts["c1"]) == OPPOSED
    assert sp_classify(pts["z"], pts["c1"]).label == "NotInSP"


def test_full_sample_against_hand_table():
    pts = ternary_sample()
    names = list(pts)
    assert len(names) == 12
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            got = pair_type(pts[names[i]], pts[names[j]])
            assert got == expected_type(names[i], names[j]), (names[i], names[j], got)


def test_pair_type_symmetric_and_shift_invariant():
    pts = ternary_sample()
    names = list(pts)
    for i in range(len(names)):
        for j in range(len(names)):
            x, y = pts[names[i]], pts[names[j]]
            assert pair_type(x, y) == pair_type(y, x)
            assert pair_type(x.shifted(7), y.shifted(7)) == pair_type(x, y)


def test_sp_equivalence_on_sample():
    pts = ternary_sample()
    names = list(pts)
    in_sp = {
        (a, b): sp_classify(pts[a], pts[b]).label == "InSP"
        for a in names for b in names
    }
    for a in names:
        assert in_sp[(a, a)]
        for b in names:
            assert in_sp[(a, b)] == in_sp[(b, a)]
            for c in names:
                if in_sp[(a, b)] and in_sp[(b, c)]:
                    assert in_sp[(a, c)]


def test_exclusive_exhaustive_labels():
    pts = ternary_sample()
    names = list(pts)
    for a in names:
        for b in names:
            kind = pair_type(pts[a], pts[b])
            assert kind in (EDGE, OPPOSED, AGREEABLE)
            if kind == EDGE:
                assert sp_classify(pts[a], pts[b]).label == "NotInSP"
            if kind == AGREEABLE:
                assert sp_classify(pts[a], pts[b]).label == "InSP"


def test_periodic_tails_infinitely_many_diffs():
    w = ternary("", 0, "01", "01")
    p = ternary("", 0, "012", "012")
    assert pair_type(w, p) == OPPOSED
    # they agree at residues 0 and 1 mod 6 and nowhere else
    for i in range(-60, 60):
        if i % 6 in (0, 1):
            assert w.at(i) == p.at(i)
        else:
            assert w.at(i) != p.at(i)


def random_periodic_pair(rng: random.Random):
    """Two eventually periodic points over "01" or "012", with centers of
    up to 8 letters at starts up to +-200 and tails of period 1 to 4.  The
    second point is drawn independently (mostly opposed pairs), or with
    the first's tails and a nearby center (agreeable when the tails fall
    into phase), or as the first with its letters relabeled, one center
    letter redrawn half of the time (edges)."""
    alphabet = rng.choice(["01", "012"])

    def word(lo: int, hi: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

    x = EventuallyPeriodic(word(0, 8), rng.randint(-200, 200), word(1, 4), word(1, 4), alphabet)
    kind = rng.randrange(3)
    if kind == 0:
        return x, EventuallyPeriodic(word(0, 8), rng.randint(-200, 200), word(1, 4), word(1, 4), alphabet)
    if kind == 1:
        return x, EventuallyPeriodic(word(0, 8), x.start + rng.randint(-8, 8), x.left, x.right, alphabet)
    relabel = str.maketrans(alphabet, alphabet[1:] + alphabet[0])
    center = x.center.translate(relabel)
    if center and rng.random() < 0.5:
        k = rng.randrange(len(center))
        center = center[:k] + rng.choice(alphabet) + center[k + 1:]
    return x, EventuallyPeriodic(center, x.start, x.left.translate(relabel),
                                 x.right.translate(relabel), alphabet)


def test_pair_type_and_windows_match_references_on_random_pairs():
    """pair_type against the coordinate loop, and the windows (hi < lo,
    inside one tail, across the center), of the point and of its normal
    form, against the letter-by-letter reading, on 10,000 seeded pairs."""
    rng = random.Random(22)
    for _ in range(10000):
        x, y = random_periodic_pair(rng)
        assert pair_type(x, y) == reference_pair_type(x, y), (x.describe(), y.describe())
        lo = rng.randint(-260, 260)
        windows = [(lo, lo - rng.randint(1, 3)), (lo, lo + rng.randint(0, 40)),
                   (x.start - rng.randint(1, 30), x.start - 1), (x.end, x.end + rng.randint(0, 30))]
        for lo, hi in windows:
            pieces = x.pieces(lo, hi)
            assert all(p.dtype == np.uint8 and not p.flags.writeable for p in pieces)
            want = letterwise_segment(x, lo, hi)
            assert b"".join(map(bytes, pieces)).decode() == want, (x.describe(), lo, hi)
            assert x.normalized().segment(lo, hi) == want, (x.describe(), lo, hi)


def test_edge_pair_far_apart_is_decided_from_bounded_windows():
    """Centers 2 * 10^9 apart: the windows read do not grow with the
    distance, so the pair is decided at once."""
    x, y = ternary("2", -10**9, "0", "0"), ternary("1", 10**9, "1", "1")
    began = time.perf_counter()
    assert pair_type(x, y) == EDGE
    assert pair_type(x, ternary("1", 10**9, "0", "1")) == OPPOSED
    assert pair_type(x, ternary("1", 10**9, "0", "0")) == AGREEABLE
    assert time.perf_counter() - began < 1.0
