"""The full-shift group example on three symbols: exact classification of
pairs as edges, opposed or agreeable, and the strongly-proximal verdict
that mutual agreeability determines.

Points are ``subshift.EventuallyPeriodic`` sequences over "012" (a center
word with periodic tails), built by ``ternary`` and ``constant``, so the
difference set of any pair is eventually periodic and the classification
is exact, not horizon-bounded.  ``pair_types`` types a list of pairs over
a list of points at once: every point is read once, as one string on
one bounded read set around all their centers, and each pair compares
two such strings; ``pair_type`` is its one-pair case.  The acting group itself is never
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
    they differ at finitely many, opposed otherwise: ``pair_types``'
    one-pair case."""
    return pair_types([x, y], [(0, 1)])[0]


def pair_types(points: list[EventuallyPeriodic], pairs: list[tuple[int, int]]) -> list[str]:
    """The type of each pair (i, j) of ``points[i]`` and ``points[j]``,
    in the order of ``pairs``, all read from one shared read set.

    Let S be the largest span of a pair, its longer center or the joint
    period lcm(|p|, |q|) of a tail of each point, and cut the line at every
    point's center boundaries.  The read set is, from left to right, the
    S letters before the first cut, the first S letters of each stretch
    between two consecutive cuts (all of it when it is no longer) and the
    S letters from the last cut on; adjacent windows join into one
    stretch.  Every point is read on it once, as one string, its row, and
    each pair compares its two rows (``_row_type``).

    This is exact for each pair.  Its own four boundaries cut the line
    into regions.  A region inside a center is no longer than that center,
    so no longer than S, and in any other both points read tails, so its
    difference pattern repeats with their joint period, at most S.  Each
    region is read whole or in S consecutive letters.  Its first letters
    after a boundary of the pair are read up to the next shared cut, then
    the first letters after that cut, and so on, so the read set holds
    the region's first min(S, length) letters in a row; the region left of
    the pair's first boundary holds the S letters before the first shared
    cut.  An agreeing coordinate anywhere thus has one of the same
    difference phase in the read set, and every letter read is a real
    coordinate: the pair is an edge exactly when its rows differ
    everywhere.  The first and the last S letters, the two outer windows,
    lie in the left and right tails of both points and read a whole joint
    period of each: the pair is agreeable exactly when its rows agree on
    them.  For one pair this is the read set of its own four boundaries.

    Centers far apart stay cheap: a cut adds at most S letters to the read
    set, so it has at most (2 * points + 1) * S letters, however far apart
    the centers are.
    """
    if not pairs:
        return []
    periods = [(len(x.left), len(x.right)) for x in points]
    span = max(max(len(points[k].center) for pair in pairs for k in pair),
               *(lcm(p, q) for a, b in {(periods[i], periods[j]) for i, j in pairs} for p in a for q in b))
    cuts = sorted({c for x in points for c in (x.start, x.end)})
    stretches = [[cuts[0] - span, cuts[0]]]
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo > span:
            stretches[-1][1] = lo + span
            stretches.append([hi, hi])
        else:
            stretches[-1][1] = hi
    stretches[-1][1] = cuts[-1] + span
    rows = ["".join(x.segment(lo, hi - 1) for lo, hi in stretches) for x in points]
    return [_row_type(rows[i], rows[j], span) for i, j in pairs]


def _row_type(a: str, b: str, span: int) -> str:
    """The type of a pair from its two rows on the read set, whose first
    and last ``span`` letters are the two outer windows."""
    if a[:span] == b[:span] and a[-span:] == b[-span:]:
        return AGREEABLE
    return OPPOSED if any(map(str.__eq__, a, b)) else EDGE


@dataclass(frozen=True)
class SPVerdict:
    label: str
    pair_type: str

    @classmethod
    def of(cls, kind: str) -> "SPVerdict":
        """Strongly proximal exactly when the points are mutually agreeable."""
        return cls(IN_SP if kind == AGREEABLE else NOT_IN_SP, kind)

    def as_json(self) -> dict:
        return {"label": self.label, "pair_type": self.pair_type}


def sp_classify(x: EventuallyPeriodic, y: EventuallyPeriodic) -> SPVerdict:
    """The strongly-proximal verdict of one pair (``SPVerdict.of``)."""
    return SPVerdict.of(pair_type(x, y))
