"""The concentric-circle cascade: a homeomorphism of a nested family of
circles that migrates points along two tier chains while nudging their
angle by a sine term.

Tiers: outer circles C(n), n >= 0, of radius 1 - n/(n^2 + 1), and inner
circles D(n) of radius 1/n, all concentric; D(2) coincides with C(1) and
is canonicalized to it.  The map fixes C(0) and the common center
pointwise.  Forward, even outer circles ascend toward the rim C(0) and
odd inner circles descend then join them through D(3) -> C(2); odd outer
circles descend to C(1) = D(2) and continue outward in the even inner
chain toward the center.  The tier chain is taken as normative; the angle
increment keeps the published coefficient 1/n for tier index n.

Angle coordinates live in [0, pi) with pi identified to 0; every
non-fixed tier uses the update a -> a + sin(a)/n, which never leaves
[0, pi), and whose inverse is computed by bisection.  The radius is a
function of the tier, so a point's asymptotic class and the step at which
it reaches the rim or the center depend on its tier only, never on its
angle.  The migrating tiers lie on two chains on which the forward map
adds one to the position, ... D5, D3, C2, C4, ... with the radius rising
and ... C3, C1, D4, D6, ... with it falling; ``asymptotic_class`` finds
the crossing step by binary search over the positions, in O(log max_iter)
radius evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

ANGLE_TOL = 1e-9

FIXED_RIM = "fixed_rim"        # points of C(0)
FIXED_CENTER = "fixed_center"  # the common center
RIMWARD = "rimward"            # forward asymptotic to C(0), backward to the center
CENTERWARD = "centerward"      # forward asymptotic to the center, backward to C(0)

TO_C0 = "to_c0"
TO_CENTER = "to_center"
FIXED = "fixed"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CirclePoint:
    """A point of the cascade: a tier plus an angle in [0, pi)."""

    family: str  # "C" | "D" | "center"
    index: int
    angle: float

    def __post_init__(self):
        if self.family == "center":
            object.__setattr__(self, "index", 0)
            object.__setattr__(self, "angle", 0.0)
            return
        if self.family not in ("C", "D"):
            raise ValueError("family must be C, D or center")
        if self.family == "C" and self.index < 0:
            raise ValueError("outer tiers start at C(0)")
        if self.family == "D" and self.index < 2:
            raise ValueError("inner tiers start at D(2)")
        if self.family == "D" and self.index == 2:
            object.__setattr__(self, "family", "C")
            object.__setattr__(self, "index", 1)
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be a finite number, got {self.angle}")
        object.__setattr__(self, "angle", float(self.angle) % math.pi)

    def tier(self) -> str:
        return "center" if self.family == "center" else f"{self.family}{self.index}"

    def describe(self) -> dict:
        return {"type": "circle_point", "tier": self.tier(), "angle": self.angle}


def center() -> CirclePoint:
    return CirclePoint("center", 0, 0.0)


def radius(p: CirclePoint) -> float:
    return _tier_radius(p.family, p.index)


def rim_distance(p: CirclePoint) -> float:
    """Radial distance to the fixed rim circle C(0)."""
    return abs(radius(p) - 1.0)


def _tier_radius(family: str, n: int) -> float:
    if family == "center":
        return 0.0
    if family == "C":
        return 1.0 - n / (n**2 + 1)
    return 1 / n


def _coefficient(f: str, n: int) -> float:
    """The angle coefficient of a step from tier (f, n): 1/n, and 1/2 on
    C(1) = D(2).  An int quotient, so a tier past the float range gives
    0.0 rather than an OverflowError."""
    return 1 / 2 if (f, n) == ("C", 1) else 1 / n


def step(p: CirclePoint) -> CirclePoint:
    place = _chain_position(p.family, p.index)
    if place is None:
        return p
    chain, pos = place
    angle = p.angle + _coefficient(p.family, p.index) * math.sin(p.angle)
    return CirclePoint(*_chain_tier(chain, pos + 1), angle)


def _invert_angle(alpha: float, coeff: float) -> float:
    """Solve b + coeff*sin(b) = alpha on [0, pi); strictly monotone since
    coeff <= 1/2.

    Bisection of at most 80 halvings.  It keeps f(lo) < alpha <= f(hi),
    with f(b) = b + coeff*sin(b) as evaluated here, except while lo is
    still 0.  Once mid = (lo + hi) / 2 rounds to lo or to hi, the test
    cannot move either end: mid == lo > 0 gives f(mid) < alpha, so lo =
    mid; mid == hi gives f(mid) >= alpha, so hi = mid; and mid == lo == 0
    would need hi to be the least subnormal, which 80 halvings of pi do
    not reach.  Every later halving then repeats the same state, so
    stopping there returns what all 80 return."""
    lo, hi = 0.0, math.pi
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if mid + coeff * math.sin(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def step_back(p: CirclePoint) -> CirclePoint:
    """The step that ``step`` undoes: the previous tier, with the angle
    inverted under that tier's coefficient."""
    place = _chain_position(p.family, p.index)
    if place is None:
        return p
    chain, pos = place
    f, n = _chain_tier(chain, pos - 1)
    return CirclePoint(f, n, _invert_angle(p.angle, _coefficient(f, n)))


def iterate(p: CirclePoint, count: int) -> CirclePoint:
    """count forward steps when positive, backward steps when negative."""
    fn = step if count >= 0 else step_back
    for _ in range(abs(count)):
        p = fn(p)
    return p


def family_label(p: CirclePoint) -> str:
    """Rimward on chain 0, centerward on chain 1."""
    place = _chain_position(p.family, p.index)
    if place is None:
        return FIXED_CENTER if p.family == "center" else FIXED_RIM
    return (RIMWARD, CENTERWARD)[place[0]]


@dataclass(frozen=True)
class AsymptoticReport:
    forward: str
    forward_steps: int | None
    backward: str
    backward_steps: int | None

    def as_json(self) -> dict:
        return {
            "forward": self.forward,
            "forward_steps": self.forward_steps,
            "backward": self.backward,
            "backward_steps": self.backward_steps,
        }


def _chain_position(f: str, n: int) -> tuple[int, int] | None:
    """(chain, position) of a migrating tier, None for the fixed tiers
    (the center and C(0)).  Chain 0 is ... D5, D3, C2, C4, ... (D3 at 0,
    C2 at 1), where the radius rises with the position; chain 1 is ...
    C3, C1, D4, D6, ... (C1 at 0, D4 at 1), where it falls.  ``step``
    adds one to the position and ``step_back`` subtracts one."""
    if f == "center" or (f, n) == ("C", 0):
        return None
    if f == "C":
        return (0, n // 2) if n % 2 == 0 else (1, -(n // 2))
    return (0, 1 - n // 2) if n % 2 == 1 else (1, n // 2 - 1)


def _chain_tier(chain: int, pos: int) -> tuple[str, int]:
    """The tier at ``pos`` on ``chain``; inverse of ``_chain_position``."""
    if chain == 0:
        return ("C", 2 * pos) if pos >= 1 else ("D", 3 - 2 * pos)
    return ("C", 1 - 2 * pos) if pos <= 0 else ("D", 2 * pos + 2)


def _classify_direction(p: CirclePoint, direction: int, max_iter: int, eps: float) -> tuple[str, int | None]:
    """The first step k <= max_iter, forward for direction 1 and backward
    for -1, at which the rim (tested first) or the center is within eps.

    The radius depends on the tier alone and is monotone along a chain, so
    on a walk where it rises the center test can hold only at step 1 and
    the rim test, once true, stays true; where it falls the roles swap.
    Step 1 is tested as a step-by-step walk would test it; after that the
    test that persists is binary-searched, with the same float
    expressions, in O(log max_iter) radius evaluations."""
    place = _chain_position(p.family, p.index)
    if place is None:
        return FIXED, 0
    chain, pos = place

    def radius_at(k: int) -> float:
        return _tier_radius(*_chain_tier(chain, pos + direction * k))

    r = radius_at(1)
    if abs(r - 1.0) < eps:
        return TO_C0, 1
    if r < eps:
        return TO_CENTER, 1
    if (chain == 0) == (direction == 1):
        target, reached = TO_C0, lambda rad: abs(rad - 1.0) < eps
    else:
        target, reached = TO_CENTER, lambda rad: rad < eps
    lo, hi = 1, max_iter + 1  # not reached at lo; hi is the first step known reached, or past max_iter
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reached(radius_at(mid)):
            hi = mid
        else:
            lo = mid
    return (target, hi) if hi <= max_iter else (INCONCLUSIVE, None)


def asymptotic_class(p: CirclePoint, max_iter: int = 10**4, eps: float = 1e-3) -> AsymptoticReport:
    """The first forward and the first backward step, up to max_iter, at
    which the radial distance to the rim or to the center drops below eps,
    as iterating ``step`` and ``step_back`` would find it.  The report
    depends on p's tier only, so it is read from the tier chains by binary
    search, with no angle."""
    if max_iter < 1 or eps <= 0:
        raise ValueError("need max_iter >= 1 and eps > 0")
    fwd, fsteps = _classify_direction(p, 1, max_iter, eps)
    bwd, bsteps = _classify_direction(p, -1, max_iter, eps)
    return AsymptoticReport(fwd, fsteps, bwd, bsteps)


EVIDENCE_P = "EvidenceP"
EVIDENCE_D = "EvidenceD"


def pair_class(p: CirclePoint, q: CirclePoint) -> dict:
    """Table-driven proximality evidence for a pair of cascade points.

    A pair is proximal exactly when it is diagonal, both points share a
    migrating family (both rimward or both centerward), or one point is
    the center and the other migrates.  Points of the fixed rim are
    proximal to nothing but themselves.  The verdict carries the matched
    clause and both family labels.
    """
    fp, fq = family_label(p), family_label(q)
    same_point = (
        p.family == q.family and p.index == q.index
        and abs(p.angle - q.angle) < ANGLE_TOL
    )
    if same_point:
        clause = "diagonal"
    elif fp == fq and fp in (RIMWARD, CENTERWARD):
        clause = "shared_family"
    elif {fp, fq} in ({FIXED_CENTER, RIMWARD}, {FIXED_CENTER, CENTERWARD}):
        clause = "migrating_with_center"
    else:
        clause = None
    return {
        "x": p.describe(),
        "y": q.describe(),
        "families": [fp, fq],
        "label": EVIDENCE_P if clause else EVIDENCE_D,
        "clause": clause,
    }


def trajectory_rows(p: CirclePoint, steps: int, backward: bool = False) -> list[dict]:
    """Iteration trace (iteration, tier, angle, radial distance to the
    rim) for plotting or CSV dumps."""
    rows = []
    q = p
    advance = step_back if backward else step
    for k in range(steps + 1):
        rows.append({
            "iteration": -k if backward else k,
            "tier": q.tier(),
            "angle": q.angle,
            "radius": radius(q),
            "rim_distance": rim_distance(q),
        })
        q = advance(q)
    return rows
