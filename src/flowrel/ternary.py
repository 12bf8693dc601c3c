"""The full-shift group example on three symbols: exact classification of
pairs as edges, opposed or agreeable, and the strongly-proximal verdict
that mutual agreeability determines.

Points are finitely described (a center word with eventually periodic
tails), so the difference set of any pair is eventually periodic and the
classification is exact, not horizon-bounded.  The acting group itself is
never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

ALPHABET = "012"

EDGE = "edge"
OPPOSED = "opposed"
AGREEABLE = "agreeable"

IN_SP = "InSP"
NOT_IN_SP = "NotInSP"


@dataclass(frozen=True)
class TernarySeq:
    """A bi-infinite sequence over {0,1,2}: a center word anchored at
    ``start``, a periodic word repeating leftward before it and a periodic
    word repeating rightward after it (period words are read left to
    right and anchored at the center boundary)."""

    center: str = ""
    start: int = 0
    left: str = "0"
    right: str = "0"

    def __post_init__(self):
        if not self.left or not self.right:
            raise ValueError("tail periods must be nonempty")
        bad = set(self.center + self.left + self.right) - set(ALPHABET)
        if bad:
            raise ValueError(f"letters {bad} outside the ternary alphabet")

    @property
    def end(self) -> int:
        """First coordinate after the center word."""
        return self.start + len(self.center)

    def at(self, i: int) -> str:
        if i < self.start:
            return self.left[(i - self.start) % len(self.left)]
        if i < self.end:
            return self.center[i - self.start]
        return self.right[(i - self.end) % len(self.right)]

    def segment(self, lo: int, hi: int) -> str:
        return "".join(self.at(i) for i in range(lo, hi + 1))

    def window(self, n: int) -> str:
        return self.segment(-n, n)

    def shifted(self, k: int) -> "TernarySeq":
        """value'(i) = value(i + k)."""
        return TernarySeq(self.center, self.start - k, self.left, self.right)

    def describe(self) -> dict:
        return {
            "type": "ternary",
            "center": self.center,
            "start": self.start,
            "left_period": self.left,
            "right_period": self.right,
        }


def constant(c: str) -> TernarySeq:
    if c not in ALPHABET:
        raise ValueError(f"constant letter must be one of {ALPHABET!r}")
    return TernarySeq("", 0, c, c)


def pair_type(x: TernarySeq, y: TernarySeq) -> str:
    """Edge when the points differ at every coordinate, agreeable when
    they differ at finitely many, opposed otherwise.

    Beyond one joint tail period below both centers (and above both) the
    difference pattern repeats, so scanning the center region plus one
    joint period on each side decides all three cases exactly.
    """
    left_period = lcm(len(x.left), len(y.left))
    right_period = lcm(len(x.right), len(y.right))
    lo = min(x.start, y.start)
    hi = max(x.end, y.end)
    diff_left = any(x.at(i) != y.at(i) for i in range(lo - left_period, lo))
    diff_right = any(x.at(i) != y.at(i) for i in range(hi, hi + right_period))
    if not diff_left and not diff_right:
        return AGREEABLE
    if all(x.at(i) != y.at(i) for i in range(lo - left_period, hi + right_period)):
        return EDGE
    return OPPOSED


@dataclass(frozen=True)
class SPVerdict:
    label: str
    pair_type: str

    def as_json(self) -> dict:
        return {"label": self.label, "pair_type": self.pair_type}


def sp_classify(x: TernarySeq, y: TernarySeq) -> SPVerdict:
    """Strongly proximal exactly when the points are mutually agreeable."""
    kind = pair_type(x, y)
    return SPVerdict(IN_SP if kind == AGREEABLE else NOT_IN_SP, kind)
