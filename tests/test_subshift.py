import os
import sys
import threading
import time

import pytest
from oracles import reference_chacon_block

from flowrel.subshift import (
    AdicImage,
    BiSeq,
    ChaconPoint,
    ChaconXi,
    ClassifyParams,
    Dual,
    EventuallyPeriodic,
    Shift,
    SubstFixed,
    Substitution,
    _gap_verdict,
    _witness_verdict,
    agreement_times,
    chacon_block,
    classify_pair,
    is_dual_pair,
    morse_fixed_points,
    morse_square,
)


def pair_runs(x, y, n: int, horizon: int):
    """The agreement runs of the one pair (x, y)."""
    return agreement_times([x], [y], n, horizon)[0]


# --- independent oracles -----------------------------------------------


def naive_fixed_segment(left_seed, right_seed, rule, lo, hi):
    """Reference expansion with no sharing with the library code."""
    left, right = left_seed, right_seed
    while len(left) < -lo + 1 or len(right) < hi + 1:
        left = "".join(rule[c] for c in left)
        right = "".join(rule[c] for c in right)
    out = ""
    for i in range(lo, hi + 1):
        out += right[i] if i >= 0 else left[len(left) + i]
    return out


# --- substitutions and fixed points -------------------------------------


def test_morse_square_rule_exact():
    q = morse_square()
    assert q.rule == {"0": "0110", "1": "1001"}
    assert q.is_dual_closed


def test_substitution_validation():
    with pytest.raises(ValueError):
        Substitution("01", {"0": "01"})
    with pytest.raises(ValueError):
        Substitution("01", {"0": "0x", "1": "1"})


def test_seed_validation():
    bad = Substitution("01", {"0": "10", "1": "01"})
    with pytest.raises(ValueError):
        SubstFixed("0", "0", bad)  # rule(0) neither starts nor ends with 0


def test_fixed_point_center_blocks_match_published_display():
    fp = morse_fixed_points()
    assert fp["a"].segment(-4, 3) == "10011001"
    assert fp["b"].segment(-4, 3) == "01101001"
    assert fp["abar"].segment(-4, 3) == "01100110"
    assert fp["bbar"].segment(-4, 3) == "10010110"
    assert fp["a"].window(3) == "0011001"


@pytest.mark.parametrize("name,seeds", [
    ("a", ("1", "1")), ("b", ("0", "1")), ("abar", ("0", "0")), ("bbar", ("1", "0")),
])
def test_fixed_points_match_naive_expansion(name, seeds):
    rule = morse_square().rule
    x = morse_fixed_points()[name]
    for lo, hi in ((-1, 1), (-17, 16), (-64, 63), (-200, 100)):
        assert x.segment(lo, hi) == naive_fixed_segment(*seeds, rule, lo, hi)


def test_fixed_points_are_substitution_fixed():
    # applying the rule to the block on [-4k, 4k-1] reproduces the block
    # on [-16k, 16k-1]: the expansion of coordinate i lands at 4i
    rule = morse_square().rule
    for x in morse_fixed_points().values():
        for k in (1, 4, 16):
            inner = x.segment(-4 * k, 4 * k - 1)
            assert "".join(rule[c] for c in inner) == x.segment(-16 * k, 16 * k - 1)


def test_window_coherence_and_shift():
    a = morse_fixed_points()["a"]
    w9 = a.window(9)
    assert a.window(4) == w9[5:14]
    s = Shift(a, 3)
    assert s.window(5) == a.segment(-2, 8)
    assert Shift(s, -3).window(6) == a.window(6)


def test_dual_involution_and_detection():
    fp = morse_fixed_points()
    a, abar, b = fp["a"], fp["abar"], fp["b"]
    assert Dual(Dual(a)).window(20) == a.window(20)
    assert Dual(a).window(33) == abar.window(33)
    assert is_dual_pair(a, abar)
    assert is_dual_pair(fp["b"], fp["bbar"])
    assert is_dual_pair(Shift(a, 5), Shift(abar, 5))
    assert not is_dual_pair(a, b)
    assert not is_dual_pair(a, Shift(abar, 1))
    assert is_dual_pair(Dual(ChaconPoint("x1")), ChaconPoint("x1"))


def test_eventually_constant_pattern():
    x = EventuallyPeriodic("111", start=-1, left="0", right="0")
    assert x.segment(-3, 3) == "0011100"
    assert Dual(x).segment(-3, 3) == "1100011"
    norm = EventuallyPeriodic("0110", start=0, left="0", right="0").normalized()
    assert norm.center == "11" and norm.start == 1
    # center letters that continue a periodic tail move into it, the
    # period rotated to keep its phase
    y = EventuallyPeriodic("0101", start=3, left="01", right="10")
    norm = y.normalized()
    assert (norm.center, norm.start, norm.left, norm.right) == ("", 7, "01", "10")
    assert norm.segment(-20, 30) == y.segment(-20, 30) == "1" + "01" * 13 + "10" * 12
    assert is_dual_pair(y, EventuallyPeriodic("10", start=5, left="10", right="01"))
    assert not is_dual_pair(y, EventuallyPeriodic("10", start=4, left="10", right="01"))


# --- Chacon --------------------------------------------------------------


def test_chacon_blocks_published_values():
    assert chacon_block(0) == "0"
    assert chacon_block(1) == "0010"
    assert chacon_block(2) == "0010001010010"
    assert len(chacon_block(3)) == 40


def test_chacon_blocks_match_naive_recursion():
    for k in range(9):
        assert chacon_block(k) == reference_chacon_block(k)
        assert len(chacon_block(k)) == (3 ** (k + 1) - 1) // 2


def test_chacon_block_growth_is_thread_safe():
    """More threads than cores grow the shared block core from B_1 at
    once, with a short switch interval; every thread reads the published
    blocks and the core ends as exactly B_10, the longest block asked for."""
    from flowrel import subshift

    expect = [reference_chacon_block(k) for k in range(11)]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_threads = min((cores or 1) + 6, 64)
    saved, interval = subshift._BLOCK_CORE, sys.getswitchinterval()
    deadline = time.monotonic() + 2.0
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(200):
            if time.monotonic() > deadline:
                break
            subshift._BLOCK_CORE = expect[1].encode()
            barrier = threading.Barrier(n_threads, timeout=30)
            got = [None] * n_threads

            def grow(i):
                barrier.wait()
                got[i] = [chacon_block(k) for k in (10, 7, 9)]

            threads = [threading.Thread(target=grow, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert subshift._BLOCK_CORE == expect[10].encode()
            assert all(g == [expect[10], expect[7], expect[9]] for g in got)
    finally:
        sys.setswitchinterval(interval)
        subshift._BLOCK_CORE = saved


def test_chacon_block_guard():
    with pytest.raises(OverflowError):
        chacon_block(20)


def test_chacon_points_align_with_blocks():
    x1, x2 = ChaconPoint("x1"), ChaconPoint("x2")
    b2 = chacon_block(2)
    assert x1.segment(0, 12) == b2
    assert x1.segment(-13, -1) == b2
    assert x2.segment(-13, 13) == b2 + "1" + b2
    assert x2.at(0) == "1"
    # x1 and x2 agree strictly left of the origin and disagree at it
    assert x1.segment(-40, -1) == x2.segment(-40, -1)
    assert x1.at(0) != x2.at(0)


def test_chacon_itineraries():
    # the all-second-slot itinerary is a genuinely two-sided point whose
    # stages reproduce the blocks around the anchor
    xi = ChaconXi((), 2)
    off = 0
    for k in range(1, 6):
        off += len(chacon_block(k - 1))
        assert xi.segment(-off, len(chacon_block(k)) - 1 - off) == chacon_block(k)
    # eventually-first-slot reduces to a shift of x1
    red = ChaconXi((3,), 1)
    assert red.describe()["reduces_to"] == {"type": "shift", "by": 3,
                                            "inner": {"type": "chacon_point", "kind": "x1"}}
    assert red.window(30) == Shift(ChaconPoint("x1"), 3).window(30)
    # eventually-third-slot reduces to a left shift
    red3 = ChaconXi((), 3)
    assert red3.window(30) == Shift(ChaconPoint("x1"), -1).window(30)
    with pytest.raises(ValueError):
        ChaconXi((4,), 2)


# --- evidence checkers ----------------------------------------------------


def test_witness_on_diagonal():
    a = morse_fixed_points()["a"]
    v = _witness_verdict(pair_runs(a, a, 6, 100), 6, 100)
    assert v.outcome == "proximal_witness" and v.witness_time == 0


def test_witness_on_dual_pair_is_proved_distal():
    fp = morse_fixed_points()
    rep = classify_pair(fp["a"], fp["abar"], ClassifyParams(depth=6, gap=100, horizon=100))
    assert rep.proximal.outcome == "distal_at_all_shifts"


def test_witness_tie_break_prefers_positive():
    # agreement zones: (a, b) agree on [0, inf), so the first depth-8
    # witness is t = 8; (a, bbar) agree on (-inf, -1], giving t = -9
    fp = morse_fixed_points()
    assert _witness_verdict(pair_runs(fp["a"], fp["b"], 8, 4096), 8, 4096).witness_time == 8
    assert _witness_verdict(pair_runs(fp["a"], fp["bbar"], 8, 4096), 8, 4096).witness_time == -9
    x = EventuallyPeriodic("1", start=0)
    y = EventuallyPeriodic("1", start=0)
    v = _witness_verdict(pair_runs(x, y, 2, 10), 2, 10)
    assert v.witness_time == 0


def test_witness_monotone_in_depth():
    fp = morse_fixed_points()
    for n in (1, 2, 4, 8):
        v = _witness_verdict(pair_runs(fp["a"], fp["b"], n, 4096), n, 4096)
        assert v.outcome == "proximal_witness"


def test_agreement_times_structure():
    fp = morse_fixed_points()
    starts, ends = pair_runs(fp["a"], fp["b"], 4, 64)
    assert starts.tolist() == [4] and ends.tolist() == [64]


def test_syndetic_check_identical():
    a = morse_fixed_points()["a"]
    v = _gap_verdict(pair_runs(a, a, 4, 64), 4, 16, 64)
    assert v.outcome == "syndetic_up_to_horizon" and v.max_gap == 1


def test_syndetic_gap_violation():
    fp = morse_fixed_points()
    v = _gap_verdict(pair_runs(fp["a"], fp["b"], 4, 4096), 4, 256, 4096)
    assert v.outcome == "gap_violation"
    lo, hi = v.interval
    assert hi - lo + 1 == 256
    assert lo == -4096  # the whole left half is agreement-free
    with pytest.raises(ValueError):
        classify_pair(fp["a"], fp["b"], ClassifyParams(depth=4, gap=0, horizon=64))


def test_gap_violation_monotone_in_depth():
    fp = morse_fixed_points()
    for n in (8, 10, 12):
        rep = classify_pair(fp["a"], fp["b"], ClassifyParams(depth=n, gap=256, horizon=4096))
        assert rep.syndetic.outcome == "gap_violation"


def test_classify_pair_labels():
    fp = morse_fixed_points()
    rep = classify_pair(fp["a"], fp["b"])
    assert rep.labels == ("evidence-P", "evidence-not-SP")
    rep2 = classify_pair(fp["a"], fp["abar"])
    assert rep2.labels == ("proven-D",) and rep2.syndetic is None
    rep3 = classify_pair(fp["a"], Shift(fp["a"], 1))
    assert rep3.labels == ("inconclusive",)


def test_chacon_pair_evidence():
    x1, x2 = ChaconPoint("x1"), ChaconPoint("x2")
    params = ClassifyParams(depth=4, gap=729, horizon=3**8)
    rep = classify_pair(x1, x2, params)
    assert rep.labels == ("evidence-P", "evidence-not-SP")
    assert rep.proximal.witness_time == -5
    assert rep.syndetic.outcome == "gap_violation"


# --- adjacent-sum factor --------------------------------------------------


def test_adic_rejects_nonbinary():
    class Fake(BiSeq):
        alphabet = "012"
    with pytest.raises(ValueError):
        AdicImage(Fake())


def test_adic_constant_zero():
    z = EventuallyPeriodic("", start=0)
    assert AdicImage(z).window(10) == "0" * 21


def test_adic_identifies_duals_only():
    fp = morse_fixed_points()
    ha, habar, hb = AdicImage(fp["a"]), AdicImage(fp["abar"]), AdicImage(fp["b"])
    assert ha.window(128) == habar.window(128)
    assert ha.window(1) != hb.window(1)  # they differ exactly at coordinate -1
    assert ha.at(-1) != hb.at(-1)
    assert ha.segment(0, 64) == hb.segment(0, 64)


def test_two_shift_truncations_pairwise_evidence_only():
    # the family 0^inf 1^M 0^inf: any two members get proximal witnesses
    # (shifting both far left leaves only zeros in the window), and no
    # conclusion about the whole family is drawn from the pairwise facts:
    # the checker works on pairs, set-level claims stay out of scope
    members = [EventuallyPeriodic("1" * m, start=0) for m in (1, 3, 5)]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            v = _witness_verdict(pair_runs(members[i], members[j], 4, 64), 4, 64)
            assert v.outcome == "proximal_witness"
            # far enough left, both windows are all zeros
            t = v.witness_time
            assert members[i].segment(t - 4, t + 4) == members[j].segment(t - 4, t + 4)


def test_adic_window_from_inner_window():
    a = morse_fixed_points()["a"]
    h = AdicImage(a)
    n = 12
    raw = a.segment(-n, n + 1)
    expect = "".join(str((int(raw[i]) + int(raw[i + 1])) % 2) for i in range(2 * n + 1))
    assert h.window(n) == expect


def test_substitution_hash_is_computed_once():
    # equal rules hash alike whatever their insertion order; the hash is
    # kept on the instance after the first call, so no later lookup sorts
    q = morse_square()
    assert "_hash" not in vars(q)
    assert hash(q) == hash(Substitution("01", {"1": "1001", "0": "0110"})) == hash(("01", (("0", "0110"), ("1", "1001"))))
    assert vars(q)["_hash"] == hash(q)
