"""The full-shift group example on three symbols: exact classification of
pairs as edges, opposed or agreeable, and the strongly-proximal verdict
that mutual agreeability determines.

Points are ``subshift.EventuallyPeriodic`` sequences over "012" (a center
word with periodic tails), built by ``ternary`` and ``constant``, so the
difference set of any pair is eventually periodic and the classification
is exact, not horizon-bounded.  The acting group itself is never
enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .subshift import EventuallyPeriodic

ALPHABET = "012"

EDGE = "edge"
OPPOSED = "opposed"
AGREEABLE = "agreeable"

IN_SP = "InSP"
NOT_IN_SP = "NotInSP"


def ternary(center: str = "", start: int = 0, left: str = "0", right: str = "0") -> EventuallyPeriodic:
    """The point of the full shift on "012" with this center word and
    these tail periods."""
    return EventuallyPeriodic(center, start, left, right, ALPHABET)


def constant(c: str) -> EventuallyPeriodic:
    if len(c) != 1 or c not in ALPHABET:
        raise ValueError(f"a constant point (const:C) takes one letter of {ALPHABET!r}, not {c!r}")
    return ternary("", 0, c, c)


def pair_type(x: EventuallyPeriodic, y: EventuallyPeriodic) -> str:
    """Edge when the points differ at every coordinate, agreeable when
    they differ at finitely many, opposed otherwise.

    The four center boundaries cut the line into five regions.  A region
    inside a center is no longer than that center; in any other both
    points read tails, and the difference pattern repeats with their
    joint period.  So no more than ``span`` letters of any region need be
    read: the ``span`` letters on either side of the boundaries, which
    decide agreeability, and the first ``span`` letters of each region
    between, which with them decide the edge case, exactly and however far
    apart the centers are.  Contiguous windows are read as one stretch.
    """
    span = max(len(x.center), len(y.center),
               *(lcm(len(p), len(q)) for p in (x.left, x.right) for q in (y.left, y.right)))
    cuts = sorted((x.start, x.end, y.start, y.end))
    stretches = [[cuts[0] - span, cuts[0]]]
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo > span:
            stretches[-1][1] = lo + span
            stretches.append([hi, hi])
        else:
            stretches[-1][1] = hi
    stretches[-1][1] = cuts[-1] + span
    a, b = ("".join(s.segment(lo, hi - 1) for lo, hi in stretches) for s in (x, y))
    if a[:span] == b[:span] and a[-span:] == b[-span:]:
        return AGREEABLE
    return OPPOSED if any(map(str.__eq__, a, b)) else EDGE


@dataclass(frozen=True)
class SPVerdict:
    label: str
    pair_type: str

    def as_json(self) -> dict:
        return {"label": self.label, "pair_type": self.pair_type}


def sp_classify(x: EventuallyPeriodic, y: EventuallyPeriodic) -> SPVerdict:
    """Strongly proximal exactly when the points are mutually agreeable."""
    kind = pair_type(x, y)
    return SPVerdict(IN_SP if kind == AGREEABLE else NOT_IN_SP, kind)
