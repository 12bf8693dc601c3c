import pytest

from flowrel.reports import ternary_sample
from flowrel.ternary import (
    AGREEABLE,
    EDGE,
    OPPOSED,
    TernarySeq,
    constant,
    pair_type,
    sp_classify,
)

from oracles import ternary_expected_type as expected_type


def test_validation():
    with pytest.raises(ValueError):
        TernarySeq("013", 0, "0", "0")
    with pytest.raises(ValueError):
        TernarySeq("0", 0, "", "0")
    with pytest.raises(ValueError):
        constant("3")


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
    w = TernarySeq("", 0, "01", "01")
    p = TernarySeq("", 0, "012", "012")
    assert pair_type(w, p) == OPPOSED
    # they agree at residues 0 and 1 mod 6 and nowhere else
    for i in range(-60, 60):
        if i % 6 in (0, 1):
            assert w.at(i) == p.at(i)
        else:
            assert w.at(i) != p.at(i)
