"""Differential tests: the windows, their pieces and the vectorized
evidence reads of ``flowrel.subshift`` against the one-letter-at-a-time
and ``str``-slicing references in ``oracles``."""

import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from oracles import (
    reference_agreement_times,
    letterwise_segment,
    reference_expand,
    reference_gap_verdict,
    reference_segment,
    reference_witness_time,
    runs_to_times,
    times_to_runs,
)

from flowrel import subshift
from flowrel.subshift import (
    AdicImage,
    ChaconPoint,
    ChaconXi,
    ClassifyParams,
    Dual,
    EventuallyPeriodic,
    Shift,
    SubstFixed,
    Substitution,
    agreement_times,
    classify_pair,
    morse_fixed_points,
    morse_square,
)

THREE_LETTERS = Substitution("abc", {"a": "abca", "b": "cb", "c": "bac"})


def pair_runs(x, y, n: int, horizon: int):
    """The agreement runs of the one pair (x, y)."""
    return agreement_times([x], [y], n, horizon)[0]


def sequences():
    mt = morse_fixed_points()
    x1, x2 = ChaconPoint("x1"), ChaconPoint("x2")
    pattern = EventuallyPeriodic("0110", start=-3, left="1", right="0")
    return {
        **mt,
        "three_letters": SubstFixed("a", "a", THREE_LETTERS),
        "x1": x1,
        "x2": x2,
        "xi_2": ChaconXi((), 2),
        "xi_132_2": ChaconXi((1, 3, 2), 2),
        "xi_12_2": ChaconXi((1, 2), 2),
        "xi_3_1": ChaconXi((3,), 1),
        "xi_2_3": ChaconXi((2,), 3),
        "pattern": pattern,
        "empty_center": EventuallyPeriodic("", start=5, left="1", right="0"),
        "ternary_pattern": EventuallyPeriodic("201", 2, "1", "2", alphabet="012"),
        "periodic_tails": EventuallyPeriodic("2", -7, "0112", "201", alphabet="012"),
        "binary_periodic_tails": EventuallyPeriodic("1101", 40, "10", "001"),
        "x2_shift_7": Shift(x2, 7),
        "x2_shift_-3": Shift(x2, -3),
        "x1_shift_1": Shift(x1, 1),
        "dual_x2": Dual(x2),
        "dual_a_shift_5": Dual(Shift(mt["a"], 5)),
        "adic_x2": AdicImage(x2),
        "adic_pattern_shift": AdicImage(Shift(pattern, -2)),
        "adic_dual_xi": AdicImage(Dual(ChaconXi((1, 3, 2), 2))),
        "adic_b": AdicImage(mt["b"]),
    }


EDGE_WINDOWS = [
    (0, -1), (5, 2), (-3, -4), (1, 0),           # hi < lo
    (0, 0), (-1, -1), (1, 1), (-1, 0), (0, 1),   # around the origin
    (-7, -1), (-1, 6), (0, 9), (-9, 9),          # hi == -1, lo == 0, across 0
    (-40, 40), (3, 30), (-30, -3), (-1000, -1), (0, 1000),
]


def random_windows(rng: random.Random, count: int, reach: int):
    for _ in range(count):
        lo = rng.randint(-reach, reach)
        yield lo, lo + rng.randint(-3, 300) - 1


@pytest.mark.parametrize("name", sorted(sequences()))
def test_segment_matches_reference(name):
    seq = sequences()[name]
    rng = random.Random(name)
    for lo, hi in [*EDGE_WINDOWS, *random_windows(rng, 150, 3000)]:
        assert seq.segment(lo, hi) == letterwise_segment(seq, lo, hi), (name, lo, hi)


# windows around coordinate 0, the Chacon spacers (coordinate 0 of x2;
# 2|B_k| and 2|B_k| + 1 past an anchor) and hi < lo
PIECE_WINDOWS = [
    *EDGE_WINDOWS, (-4, -4), (4, 4), (-13, 13), (-27, -25), (25, 27), (12, 14),
    (-40, -40), (39, 41), (-121, 121), (-1094, 1094), (-9841, 9841),
]


@pytest.mark.parametrize("name", sorted(sequences()))
def test_pieces_match_reference_segment(name):
    """Every kind's pieces are read-only 1-D uint8 arrays whose join is the
    window ``reference_segment`` cuts by ``str`` slicing; on short windows
    that cut is itself checked against the letter-by-letter reading."""
    seq = sequences()[name]
    rng = random.Random(f"pieces/{name}")
    windows = [*PIECE_WINDOWS, *random_windows(rng, 60, 3000)]
    windows += [(lo, lo + rng.randint(0, 30000)) for lo in (rng.randint(-40000, 0) for _ in range(4))]
    for lo, hi in windows:
        pieces = seq.pieces(lo, hi)
        assert all(p.dtype == np.uint8 and p.ndim == 1 and not p.flags.writeable for p in pieces)
        want = reference_segment(seq, lo, hi)
        assert b"".join(map(bytes, pieces)) == want.encode(), (name, lo, hi)
        if hi - lo < 400:
            assert want == letterwise_segment(seq, lo, hi), (name, lo, hi)


@pytest.mark.parametrize("seq", [ChaconPoint("x1"), ChaconPoint("x2"), ChaconXi((1, 2), 2),
                                 ChaconXi((1, 2, 3), 2), Shift(morse_fixed_points()["b"], 7)])
def test_deep_window_pieces_match_reference_segment(seq):
    """The radius-200,013 windows of the deep classify-pair runs."""
    lo, hi = -200013, 200013
    assert b"".join(seq.pieces(lo, hi)) == reference_segment(seq, lo, hi).encode()


def test_chacon_windows_grow_only_the_block_two_below_the_one_that_holds_them():
    """x1's window on [-(|B_k|), |B_k| - 1] is read in B_{k+1} from views
    of B_{k-1}; an itinerary's window in B_k from views of B_{k-2}; and
    the views still join to the window."""
    saved = subshift._BLOCK_CORE
    try:
        subshift._BLOCK_CORE = b"0010"
        pieces = ChaconPoint("x1").pieces(-9841, 9840)  # |B_8| = 9841
        assert len(subshift._BLOCK_CORE) == 3280  # B_7
        assert b"".join(pieces) == reference_segment(ChaconPoint("x1"), -9841, 9840).encode()
        subshift._BLOCK_CORE = b"0010"
        point = ChaconXi((1, 2), 2)
        pieces = point.pieces(-200013, 200013)  # held by B_12 (797,161 letters)
        assert len(subshift._BLOCK_CORE) == 88573  # B_10
        assert b"".join(pieces) == reference_segment(point, -200013, 200013).encode()
    finally:
        subshift._BLOCK_CORE = saved


CONSTANT_LENGTH = Substitution("xyz", {"x": "xzy", "y": "yyx", "z": "zxz"})
UNICODE_LETTERS = Substitution("αβ", {"α": "αβ", "β": "βα"})
# ASCII constant-length rules, one per width L of the gathered V{L} items
ROW_WIDTHS = [
    Substitution("ab", {"a": "b", "b": "a"}),
    Substitution("ab", {"a": "ab", "b": "ba"}),
    Substitution("ab", {"a": "aab", "b": "bba"}),
    Substitution("abc", {"a": "abcab", "b": "bccba", "c": "cabca"}),
    Substitution("01", {"0": "01101001", "1": "10010110"}),
]


def test_expand_matches_reference():
    rng = random.Random(3)
    for sub in (morse_square(), CONSTANT_LENGTH, THREE_LETTERS, UNICODE_LETTERS, *ROW_WIDTHS):
        for _ in range(50):
            word = "".join(rng.choice(sub.alphabet) for _ in range(rng.randint(0, 40)))
            assert sub.expand(word) == reference_expand(sub.rule, word)
            assert sub.image_length(word) == len(reference_expand(sub.rule, word))


@pytest.mark.parametrize("sub", [morse_square(), THREE_LETTERS, UNICODE_LETTERS, *ROW_WIDTHS])
@pytest.mark.parametrize("bad", ["2", "é", "\x00"])
def test_expand_rejects_foreign_letters(sub, bad):
    word = sub.alphabet[0] + bad + sub.alphabet[-1]
    with pytest.raises(KeyError) as exc:
        reference_expand(sub.rule, word)
    with pytest.raises(KeyError) as got:
        sub.expand(word)
    assert got.value.args == exc.value.args


@pytest.mark.parametrize("sub", [*ROW_WIDTHS[1:], THREE_LETTERS, UNICODE_LETTERS])
def test_iterate_guard_refuses_exactly_past_the_bound(sub, monkeypatch):
    """With a 200-letter guard the iterates grow while their images fit and
    stop, before expanding, at the first image that would not.  The cache
    holds each iterate as its ASCII bytes (as str on a non-ASCII alphabet)."""
    letter = sub.alphabet[0]
    want = [letter]
    while len(reference_expand(sub.rule, want[-1])) <= 200:
        want.append(reference_expand(sub.rule, want[-1]))
    if sub.alphabet.isascii():
        want = [w.encode() for w in want]
    monkeypatch.setattr(subshift, "MAX_BLOCK_LENGTH", 200)
    subshift._ITERATE_CACHE.pop((sub, letter), None)
    try:
        with pytest.raises(OverflowError, match="200-letter guard"):
            subshift._substitution_iterate(sub, letter, 201)
        assert subshift._ITERATE_CACHE[(sub, letter)] == want
    finally:
        subshift._ITERATE_CACHE.pop((sub, letter), None)


def test_substitution_iterates_are_shared_across_halves_and_points():
    fresh = Substitution("01", {"0": "0110", "1": "1001"})  # equal to morse_square()
    a, b = morse_fixed_points()["a"], SubstFixed("0", "1", fresh)
    a.segment(-700, 700)
    key = (fresh, "1")
    iterates = subshift._ITERATE_CACHE[key]
    assert [len(w) for w in iterates[:6]] == [1, 4, 16, 64, 256, 1024]
    assert all(fresh.expand(u) == v for u, v in zip(iterates, iterates[1:]))
    before = len(iterates)
    assert b.segment(-700, 700) == letterwise_segment(b, -700, 700)
    assert len(subshift._ITERATE_CACHE[key]) == before


def test_substitution_iterate_growth_is_thread_safe():
    """Threads grow the same halves of a fresh substitution at once, with
    a short switch interval; every thread reads the same window and the
    cache holds each iterate once."""
    sub = Substitution("01", {"0": "010", "1": "101"})
    expect = letterwise_segment(SubstFixed("0", "1", sub), -5000, 5000)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(20):
            subshift._ITERATE_CACHE.pop((sub, "0"), None)
            subshift._ITERATE_CACHE.pop((sub, "1"), None)
            barrier = threading.Barrier(4, timeout=30)
            got = [None] * 4

            def grow(i):
                barrier.wait()
                got[i] = SubstFixed("0", "1", sub).segment(-5000, 5000)

            threads = [threading.Thread(target=grow, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert got == [expect] * 4
            for letter in "01":
                assert [len(w) for w in subshift._ITERATE_CACHE[(sub, letter)]] == [3**k for k in range(9)]
    finally:
        sys.setswitchinterval(interval)
        subshift._ITERATE_CACHE.pop((sub, "0"), None)
        subshift._ITERATE_CACHE.pop((sub, "1"), None)


def test_warm_iterate_cache_still_stops_at_the_guard():
    """Images of 100 letters: the iterates hold 1, 100, 10^4 and 10^6
    letters, and the next one would pass the 10^7-letter guard."""
    body = "0" + "01" * 49 + "0"
    sub = Substitution("01", {"0": body, "1": body.translate(str.maketrans("01", "10"))})
    x = SubstFixed("0", "0", sub)
    try:
        assert len(x.segment(-10**6 + 1, 10**6 - 1)) == 2 * 10**6 - 1
        cached = list(subshift._ITERATE_CACHE[(sub, "0")])
        assert [len(w) for w in cached] == [1, 100, 10**4, 10**6]
        for _ in range(2):
            with pytest.raises(OverflowError, match="letter guard"):
                x.segment(0, 10**6)
            assert subshift._ITERATE_CACHE[(sub, "0")] == cached
        assert x.segment(-3, 3) == letterwise_segment(x, -3, 3)
    finally:
        subshift._ITERATE_CACHE.pop((sub, "0"), None)


def agreement_pairs():
    mt = morse_fixed_points()
    x1, x2 = ChaconPoint("x1"), ChaconPoint("x2")
    return {
        "morse_a_b": (mt["a"], mt["b"]),
        "morse_shifted": (Shift(mt["a"], 7), Shift(mt["b"], 12)),
        "morse_dual_shift": (Dual(Shift(mt["b"], -5)), mt["bbar"]),
        "morse_equal": (mt["a"], mt["a"]),
        "morse_dual_pair": (mt["a"], mt["abar"]),
        "chacon_x1_x2": (x1, x2),
        "chacon_shifted": (Shift(x1, 40), Shift(x2, -3)),
        "chacon_xi": (ChaconXi((1, 2), 2), x1),
        "chacon_xi_xi": (ChaconXi((1, 2, 3), 2), ChaconXi((3, 2, 1), 2)),
        "chacon_xi_reduced": (ChaconXi((3,), 1), Shift(x2, 1)),
        "three_letters": (SubstFixed("a", "a", THREE_LETTERS), Shift(SubstFixed("a", "a", THREE_LETTERS), 9)),
    }


def assert_runs_of(runs, times):
    """``runs`` are the maximal runs of the sorted agreement ``times``:
    int64, sorted, disjoint and never adjacent."""
    starts, ends = runs
    assert starts.dtype == ends.dtype == np.int64 and starts.ndim == ends.ndim == 1
    assert (starts <= ends).all() and (starts[1:] > ends[:-1] + 1).all()
    want_starts, want_ends = times_to_runs(times)
    assert np.array_equal(starts, want_starts) and np.array_equal(ends, want_ends)


@pytest.mark.parametrize("name", sorted(agreement_pairs()))
def test_agreement_times_match_reference(name):
    x, y = agreement_pairs()[name]
    rng = random.Random(name)
    grid = [(0, 0), (0, 1), (1, 0), (0, 40), (5, 0), (3, 64), (16, 100)]
    grid += [(9, 0), (40, 3), (63, 0), (17, 16)]  # n > H and H = 0
    grid += [(n, rng.randint(0, 400)) for n in range(64)]  # every width 2n + 1 up to 127
    grid += [(rng.randint(0, 16), rng.randint(0, 3000)) for _ in range(12)]
    for n, horizon in grid:
        runs = pair_runs(x, y, n, horizon)
        assert_runs_of(runs, reference_agreement_times(x, y, n, horizon))


def random_eventually_constant_pair(rng: random.Random):
    """Two eventually periodic sequences over a binary or ternary alphabet,
    tails of period 1 to 4 (period 1: constant fills), the second a few
    letter changes and a small shift away from the first, with tails
    drawn from the first's, so that their agreement times fall into many
    runs."""
    alphabet = rng.choice(["01", "012"])

    def word(lo: int, hi: int) -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

    center = list(word(0, 300))
    tails = [word(1, 4) for _ in range(4)]
    start = rng.randint(-200, 200)
    x = EventuallyPeriodic("".join(center), start, tails[0], tails[1], alphabet)
    for _ in range(rng.randint(0, 12)):
        if center:
            center[rng.randrange(len(center))] = rng.choice(alphabet)
    y = EventuallyPeriodic("".join(center), start + rng.randint(-2, 2),
                           rng.choice(tails[:3]), rng.choice(tails[1:]), alphabet)
    return x, y


@pytest.mark.parametrize("seed", range(6))
def test_agreement_times_match_reference_on_random_eventually_constant_pairs(seed):
    rng = random.Random(seed)
    for _ in range(50):
        x, y = random_eventually_constant_pair(rng)
        n, horizon = rng.randint(0, 70), rng.randint(0, 400)
        assert_runs_of(pair_runs(x, y, n, horizon), reference_agreement_times(x, y, n, horizon))


def test_agreement_times_on_the_deep_morse_pairs():
    mt = morse_fixed_points()
    counts = []
    for x, y in ((mt["a"], mt["b"]), (Shift(mt["a"], 7), Shift(mt["b"], 12))):
        runs = pair_runs(x, y, 16, 2 * 10**5)
        assert_runs_of(runs, reference_agreement_times(x, y, 16, 2 * 10**5))
        counts.append(runs[0].size)
    assert counts == [1, 0]


def test_agreement_times_on_a_deep_chacon_pair_with_many_runs():
    x, y = ChaconXi((1, 2), 2), ChaconPoint("x1")
    runs = pair_runs(x, y, 6, 2 * 10**5)
    assert_runs_of(runs, reference_agreement_times(x, y, 6, 2 * 10**5))
    assert runs[0].size == 5476


def test_agreement_times_peak_memory_per_letter():
    """The pass holds at most 2 bytes per letter at its peak, plus 32 bytes
    per run, at horizon 10^6 on a pair with 21,170 runs: the windows are
    compared in place from views of the Chacon blocks.  The blocks are
    grown first: they are memoized once per process."""
    x, y, n, horizon = ChaconXi((1, 2), 2), ChaconPoint("x1"), 6, 10**6
    letters = 2 * (horizon + n) + 1
    runs = pair_runs(x, y, n, horizon)[0].size
    assert runs == 21170
    tracemalloc.start()
    try:
        pair_runs(x, y, n, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * letters + 32 * runs


@pytest.mark.parametrize("n, horizon", [(0, 0), (0, 9), (4, 0), (7, 300), (12, 3)])
def test_agreement_times_extremes(n, horizon):
    mt = morse_fixed_points()
    every = np.arange(-horizon, horizon + 1)
    assert_runs_of(pair_runs(mt["b"], mt["b"], n, horizon), every)
    assert_runs_of(pair_runs(ChaconPoint("x2"), ChaconPoint("x2"), n, horizon), every)
    assert_runs_of(pair_runs(mt["a"], mt["abar"], n, horizon), [])


def random_times(rng: random.Random, horizon: int) -> np.ndarray:
    """A sorted array of distinct shift times in [-H, H], from empty to full."""
    density = rng.choice([0.0, 0.002, 0.05, 0.3, 0.9, 1.0])
    ts = [t for t in range(-horizon, horizon + 1) if rng.random() < density]
    return np.array(ts, dtype=np.int64)


def test_evidence_reads_match_reference():
    rng = random.Random(11)
    for _ in range(400):
        horizon = rng.randint(1, 150)
        ts = random_times(rng, horizon)
        runs = times_to_runs(ts)
        pw = subshift._witness_verdict(runs, 3, horizon)
        assert pw.witness_time == reference_witness_time(ts.tolist())
        assert pw.outcome == ("inconclusive" if ts.size == 0 else "proximal_witness")
        for gap in {1, horizon, rng.randint(1, horizon)}:
            assert subshift._gap_verdict(runs, 3, gap, horizon) == reference_gap_verdict(
                ts.tolist(), 3, gap, horizon)


def test_witness_tie_between_opposite_times_prefers_positive():
    for ts in ([-4, 4], [-4, 5], [-5, 4], [-1, 0, 1], [-9], [-9, -8, -7], [3, 4], [-3, -2, 2, 3]):
        runs = times_to_runs(ts)
        assert subshift._witness_verdict(runs, 0, 9).witness_time == reference_witness_time(ts)


def test_classify_pair_scans_agreements_once(monkeypatch):
    calls = []
    scan = subshift.agreement_times

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(subshift, "agreement_times", counted)
    mt = morse_fixed_points()
    params = ClassifyParams(depth=6, gap=40, horizon=500)
    rep = classify_pair(mt["a"], mt["b"], params)
    assert len(calls) == 1
    ts = runs_to_times(scan([mt["a"]], [mt["b"]], 6, 500)[0])
    assert rep.proximal.witness_time == reference_witness_time(ts.tolist())
    assert rep.syndetic == reference_gap_verdict(ts.tolist(), 6, 40, 500)
    calls.clear()
    assert classify_pair(mt["a"], mt["abar"], params).labels == ("proven-D",)
    assert calls == []


def test_classify_pair_validation_order():
    mt = morse_fixed_points()
    # negative depth is reported before the bad gap bound
    with pytest.raises(ValueError, match="depth and horizon"):
        classify_pair(mt["a"], mt["b"], ClassifyParams(depth=-1, gap=0, horizon=10))
    # the gap bound does not apply to dual pairs
    rep = classify_pair(mt["a"], mt["abar"], ClassifyParams(depth=2, gap=0, horizon=10))
    assert rep.labels == ("proven-D",) and rep.syndetic is None
    with pytest.raises(ValueError, match="gap_bound"):
        classify_pair(mt["a"], mt["b"], ClassifyParams(depth=2, gap=11, horizon=10))
