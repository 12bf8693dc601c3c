import math
import random

import pytest
from oracles import (
    backward_tier,
    circle_family,
    forward_tier,
    reference_asymptotic_class,
    reference_invert_angle,
    reference_pair_grid,
    reference_step,
    reference_step_back,
)

from flowrel import reports
from flowrel.circles import (
    CENTERWARD,
    EVIDENCE_D,
    EVIDENCE_P,
    FIXED_CENTER,
    FIXED_RIM,
    INCONCLUSIVE,
    RIMWARD,
    CirclePoint,
    _chain_position,
    _chain_tier,
    _invert_angle,
    _tier_radius,
    asymptotic_class,
    center,
    family_label,
    iterate,
    pair_class,
    radius,
    rim_distance,
    step,
    step_back,
    trajectory_rows,
)


def test_point_validation_and_aliasing():
    assert CirclePoint("D", 2, 0.5).tier() == "C1"
    assert radius(CirclePoint("D", 2, 0.5)) == pytest.approx(0.5)
    assert radius(CirclePoint("C", 1, 0.5)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        CirclePoint("C", -1, 0.0)
    with pytest.raises(ValueError):
        CirclePoint("D", 1, 0.0)
    with pytest.raises(ValueError):
        CirclePoint("E", 1, 0.0)
    assert CirclePoint("C", 2, math.pi + 0.25).angle == pytest.approx(0.25)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_are_rejected(angle):
    with pytest.raises(ValueError, match="angle must be a finite number"):
        CirclePoint("C", 3, angle)


def test_fixed_tiers():
    p = CirclePoint("C", 0, 1.2)
    assert step(p) == p and step_back(p) == p
    assert step(center()) == center()


def test_forward_chains():
    # even outer circles ascend, odd ones descend into the inner chain,
    # odd inner circles descend and rejoin the outer chain at C2
    assert step(CirclePoint("C", 2, 1.0)).tier() == "C4"
    assert step(CirclePoint("C", 6, 1.0)).tier() == "C8"
    assert step(CirclePoint("C", 5, 1.0)).tier() == "C3"
    assert step(CirclePoint("C", 3, 1.0)).tier() == "C1"
    assert step(CirclePoint("C", 1, 1.0)).tier() == "D4"
    assert step(CirclePoint("D", 4, 1.0)).tier() == "D6"
    assert step(CirclePoint("D", 5, 1.0)).tier() == "D3"
    assert step(CirclePoint("D", 3, 1.0)).tier() == "C2"


def test_angle_update_coefficients():
    alpha = 1.1
    q = step(CirclePoint("C", 2, alpha))
    assert q.angle == pytest.approx(alpha + math.sin(alpha) / 2)
    q = step(CirclePoint("D", 3, alpha))
    assert q.angle == pytest.approx(alpha + math.sin(alpha) / 3)
    q = step(CirclePoint("C", 1, alpha))
    assert q.angle == pytest.approx(alpha + math.sin(alpha) / 2)


def test_angle_zero_is_stationary_but_tier_migrates():
    p = CirclePoint("C", 2, 0.0)
    q = step(p)
    assert q.tier() == "C4" and q.angle == 0.0


def test_angle_stays_in_range():
    p = CirclePoint("C", 2, 3.14)
    for _ in range(50):
        p = step(p)
        assert 0.0 <= p.angle < math.pi


def test_roundtrip_to_tolerance():
    pts = [
        CirclePoint("C", 2, 0.3), CirclePoint("C", 9, 2.9), CirclePoint("C", 1, 1.7),
        CirclePoint("D", 3, 0.01), CirclePoint("D", 8, 2.2), CirclePoint("C", 4, 0.0),
    ]
    for p in pts:
        for q in (step_back(step(p)), step(step_back(p))):
            assert (q.family, q.index) == (p.family, p.index)
            assert abs(q.angle - p.angle) < 1e-9


def test_iterate_directions():
    p = CirclePoint("C", 2, 1.0)
    assert iterate(p, 3).tier() == "C8"
    assert iterate(p, -1).tier() == "D3"
    assert iterate(p, -2).tier() == "D5"


def test_families():
    assert family_label(CirclePoint("C", 0, 0.1)) == FIXED_RIM
    assert family_label(center()) == FIXED_CENTER
    assert family_label(CirclePoint("C", 2, 0.1)) == RIMWARD
    assert family_label(CirclePoint("D", 3, 0.1)) == RIMWARD
    assert family_label(CirclePoint("C", 1, 0.1)) == CENTERWARD
    assert family_label(CirclePoint("C", 7, 0.1)) == CENTERWARD
    assert family_label(CirclePoint("D", 6, 0.1)) == CENTERWARD


def test_fixed_points_are_exactly_rim_and_center():
    assert step(center()) == center()
    for alpha in (0.0, 0.5, 2.0):
        p = CirclePoint("C", 0, alpha)
        assert step(p) == p
    for fam, idx in (("C", 1), ("C", 2), ("C", 3), ("D", 3), ("D", 4), ("D", 9)):
        p = CirclePoint(fam, idx, 1.0)
        assert step(p) != p


def test_asymptotic_classification():
    for alpha in (0.1, 1.0, 3.0):
        rep = asymptotic_class(CirclePoint("C", 2, alpha))
        assert rep.forward == "to_c0" and rep.forward_steps < 10**4
        assert rep.backward == "to_center" and rep.backward_steps < 10**4
    rep = asymptotic_class(CirclePoint("C", 3, 0.5))
    assert rep.forward == "to_center" and rep.backward == "to_c0"
    rep = asymptotic_class(CirclePoint("C", 0, 0.5))
    assert rep.forward == "fixed" and rep.backward == "fixed"
    with pytest.raises(ValueError):
        asymptotic_class(center(), max_iter=0)


TIER_SWEEP = ([("center", 0)] + [("C", n) for n in range(41)] + [("D", n) for n in range(3, 41)])
ANGLES = (0.0, 0.7, 1.9, 3.1)
# far tiers whose first step already sits within eps of the rim or the center
FAR_TIERS = [("C", 10**6 - 1), ("C", 10**6), ("C", 10**6 + 1), ("D", 10**6 - 1), ("D", 10**6),
             ("D", 10**6 + 1), ("C", 10**20)]


def test_asymptotic_class_matches_angle_walk():
    """The binary search over the tier chains against the walk that
    carries the angle, at the default bounds (one angle per tier,
    cycling) and at small max_iter and eps, where INCONCLUSIVE and the
    crossing step sit near the bounds; eps >= 0.5 makes both tests true
    at step 1 on some tiers, where the rim test wins."""
    for i, (fam, idx) in enumerate(TIER_SWEEP):
        p = CirclePoint(fam, idx, ANGLES[i % len(ANGLES)])
        assert asymptotic_class(p) == reference_asymptotic_class(p), p
        for angle in ANGLES:
            p = CirclePoint(fam, idx, angle)
            for max_iter, eps in ((1, 1e-3), (1, 0.3), (3, 0.2), (12, 0.05), (25, 0.05), (40, 0.02),
                                  (1, 0.5), (2, 0.6), (3, 0.9), (5, 2.0), (30, 0.5), (30, 0.6)):
                got = asymptotic_class(p, max_iter, eps)
                assert got == reference_asymptotic_class(p, max_iter, eps), (p, max_iter, eps)
    for fam, idx in FAR_TIERS:
        p = CirclePoint(fam, idx, 1.3)
        for max_iter in (1, 2, 3):
            for eps in (1e-300, 1e-12, 1e-6, 1e-3, 0.5, 0.6, 0.9, 2.0):
                got = asymptotic_class(p, max_iter, eps)
                assert got == reference_asymptotic_class(p, max_iter, eps), (p, max_iter, eps)


FAMILY_LABELS = {"out": RIMWARD, "in": CENTERWARD, "rim": FIXED_RIM, "center": FIXED_CENTER}
CHAIN_TIERS = [t for t in TIER_SWEEP if t not in (("center", 0), ("C", 0))] + FAR_TIERS


def test_chain_maps_match_the_tier_maps():
    """Position + 1 on a chain is ``forward_tier`` and position - 1 is
    ``backward_tier``; a tier's position reads back as the tier.  ``step``
    and ``step_back`` give the table's tier and, bit for bit, its angle,
    also past the float range (coefficient 0.0), and fix the fixed tiers;
    ``family_label`` is the parity table's."""
    for fam, idx in CHAIN_TIERS:
        chain, pos = _chain_position(fam, idx)
        assert _chain_tier(chain, pos) == (fam, idx)
        assert _chain_tier(chain, pos + 1) == forward_tier(fam, idx)[:2], (fam, idx)
        assert _chain_tier(chain, pos - 1) == backward_tier(fam, idx)[:2], (fam, idx)
    for fam, idx in [*TIER_SWEEP, *FAR_TIERS, ("C", 10**400), ("D", 10**400 + 1)]:
        for angle in (*ANGLES, 1.3, 5e-324, math.nextafter(math.pi, 0.0)):
            p = CirclePoint(fam, idx, angle)
            assert step(p) == reference_step(p) and step_back(p) == reference_step_back(p), p
        assert family_label(p) == FAMILY_LABELS[circle_family((fam, idx))], p
    assert _chain_tier(0, 0) == ("D", 3) and _chain_tier(0, 1) == ("C", 2)
    assert _chain_tier(1, 0) == ("C", 1) and _chain_tier(1, 1) == ("D", 4)


def test_radius_is_monotone_along_each_chain():
    """The binary search rests on this: the radius rises along chain 0
    and falls along chain 1, across the C/D junction and far out."""
    positions = range(-10**4, 10**4 + 1)
    rising = [_tier_radius(*_chain_tier(0, k)) for k in positions]
    falling = [_tier_radius(*_chain_tier(1, k)) for k in positions]
    assert all(a < b for a, b in zip(rising, rising[1:]))
    assert all(a > b for a, b in zip(falling, falling[1:]))
    assert rising[10**4] == pytest.approx(1 / 3) and rising[10**4 + 1] == pytest.approx(0.6)
    assert falling[10**4] == pytest.approx(0.5) and falling[10**4 + 1] == pytest.approx(0.25)


def test_invert_angle_stops_early_with_the_same_result():
    """The bisection that stops once its bracket stops shrinking against
    the fixed 80 halvings, for every chain coefficient 1/n."""
    rng = random.Random(18)
    special = [0.0, 5e-324, 1e-20, math.nextafter(math.pi, 0.0)]
    for n in range(2, 42):
        alphas = special + [rng.uniform(0.0, math.pi) for _ in range(200)]
        alphas += [10.0 ** rng.uniform(-300, 0) for _ in range(50)]
        for alpha in alphas:
            assert _invert_angle(alpha, 1.0 / n) == reference_invert_angle(alpha, 1.0 / n), (alpha, n)


@pytest.mark.parametrize("tier", [("C", 2), ("C", 3), ("C", 1), ("D", 3), ("D", 8), ("C", 40)])
def test_asymptotic_step_counts_at_the_iteration_bound(tier):
    """With max_iter at the crossing step the walk still crosses; one
    step fewer is inconclusive, in both walks."""
    p = CirclePoint(*tier, 1.3)
    for eps in (0.05, 0.01):
        rep = asymptotic_class(p, eps=eps)
        for k in (rep.forward_steps, rep.backward_steps):
            for max_iter in {max(k - 1, 1), k}:
                got = asymptotic_class(p, max_iter, eps)
                assert got == reference_asymptotic_class(p, max_iter, eps)
            if k > 1:
                short = asymptotic_class(p, k - 1, eps)
                assert INCONCLUSIVE in (short.forward, short.backward)


def test_radii_decrease_toward_targets():
    p = CirclePoint("C", 2, 1.0)
    rims = [rim_distance(iterate(p, k)) for k in (0, 50, 200)]
    assert rims[0] > rims[1] > rims[2]
    cores = [radius(iterate(p, -k)) for k in (1, 50, 200)]
    assert cores[0] > cores[1] > cores[2]


from oracles import circle_table_says_proximal as table_says_proximal


def test_pair_class_matches_table_on_grid():
    tiers = [("center", 0), ("C", 0), ("C", 1), ("C", 2), ("C", 3),
             ("C", 4), ("C", 5), ("C", 6), ("D", 3), ("D", 4)]
    for t1 in tiers:
        for t2 in tiers:
            p = CirclePoint(t1[0], t1[1], 0.9)
            q = CirclePoint(t2[0], t2[1], 2.3)
            got = pair_class(p, q)["label"]
            want = EVIDENCE_P if table_says_proximal(t1, t2) else EVIDENCE_D
            assert got == want, (t1, t2, got)


def test_pair_class_diagonal_and_rim():
    p = CirclePoint("C", 0, 0.4)
    assert pair_class(p, CirclePoint("C", 0, 0.4))["label"] == EVIDENCE_P
    assert pair_class(p, CirclePoint("C", 0, 1.4))["label"] == EVIDENCE_D
    assert pair_class(p, center())["label"] == EVIDENCE_D
    assert pair_class(center(), center())["label"] == EVIDENCE_P


def test_trajectory_rows():
    rows = trajectory_rows(CirclePoint("C", 2, 1.0), 5)
    assert [r["tier"] for r in rows] == ["C2", "C4", "C6", "C8", "C10", "C12"]
    assert rows[0]["iteration"] == 0 and rows[5]["iteration"] == 5
    back = trajectory_rows(CirclePoint("C", 2, 1.0), 3, backward=True)
    assert [r["tier"] for r in back] == ["C2", "D3", "D5", "D7"]
    assert back[-1]["iteration"] == -3


def test_cc_grid_builds_one_point_per_row_and_column_tier(monkeypatch):
    # 100 cells from 10 row points and 10 column points, each cell still
    # decided as pair_class decides it
    grids = []
    real = reports.pair_labels
    monkeypatch.setattr(reports, "pair_labels", lambda rows, columns: grids.append((rows, columns)) or real(rows, columns))
    grid = reports.cc_report()["pair_grid"]
    ((rows, columns),) = grids
    assert sum(map(len, grid)) == 100
    assert len({id(p) for p in rows}) == len({id(q) for q in columns}) == len(reports.CC_GRID_TIERS)
    assert grid == reference_pair_grid(rows, columns)
