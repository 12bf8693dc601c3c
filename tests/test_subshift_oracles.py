"""Differential tests: the sliced windows and the vectorized evidence reads
of ``flowrel.subshift`` against the one-letter-at-a-time references in
``oracles``."""

import random

import numpy as np
import pytest
from oracles import (
    reference_expand,
    reference_gap_verdict,
    reference_segment,
    reference_witness_time,
)

from flowrel import subshift
from flowrel.subshift import (
    AdicImage,
    ChaconPoint,
    ChaconXi,
    ClassifyParams,
    Dual,
    EventuallyConstant,
    Shift,
    SubstFixed,
    Substitution,
    classify_pair,
    morse_fixed_points,
    morse_square,
)

THREE_LETTERS = Substitution("abc", {"a": "abca", "b": "cb", "c": "bac"})


def sequences():
    mt = morse_fixed_points()
    x1, x2 = ChaconPoint("x1"), ChaconPoint("x2")
    pattern = EventuallyConstant("0110", start=-3, left_fill="1", right_fill="0")
    return {
        **mt,
        "three_letters": SubstFixed("a", "a", THREE_LETTERS),
        "x1": x1,
        "x2": x2,
        "xi_2": ChaconXi((), 2),
        "xi_132_2": ChaconXi((1, 3, 2), 2),
        "xi_3_1": ChaconXi((3,), 1),
        "xi_2_3": ChaconXi((2,), 3),
        "pattern": pattern,
        "empty_center": EventuallyConstant("", start=5, left_fill="1", right_fill="0"),
        "ternary_pattern": EventuallyConstant("201", 2, "1", "2", alphabet="012"),
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
        assert seq.segment(lo, hi) == reference_segment(seq, lo, hi), (name, lo, hi)


def test_expand_matches_reference():
    rng = random.Random(3)
    for sub in (morse_square(), THREE_LETTERS):
        for _ in range(50):
            word = "".join(rng.choice(sub.alphabet) for _ in range(rng.randint(0, 40)))
            assert sub.expand(word) == reference_expand(sub.rule, word)


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
        pw = subshift._witness_verdict(ts, 3, horizon)
        assert pw.witness_time == reference_witness_time(ts.tolist())
        assert pw.outcome == ("inconclusive" if ts.size == 0 else "proximal_witness")
        for gap in {1, horizon, rng.randint(1, horizon)}:
            assert subshift._gap_verdict(ts, 3, gap, horizon) == reference_gap_verdict(
                ts.tolist(), 3, gap, horizon)


def test_witness_tie_between_opposite_times_prefers_positive():
    for ts in ([-4, 4], [-4, 5], [-5, 4], [-1, 0, 1], [-9]):
        arr = np.array(ts, dtype=np.int64)
        assert subshift._witness_verdict(arr, 0, 9).witness_time == reference_witness_time(ts)


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
    ts = scan(mt["a"], mt["b"], 6, 500)
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
