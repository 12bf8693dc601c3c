import random

import numpy as np
import pytest

from flowrel.finflow import (
    FactorMap,
    FiniteFlow,
    FlowParseError,
    MonoidTooLarge,
    NotAFactorMap,
    _row_keys,
    close,
    equivalence_matrix,
    equivalent_idempotents,
    format_flow,
    ideal_structure,
    induced_theta,
    minimal_left_ideals,
    parse_flow,
)
from flowrel.fuzz import CONSTANTS_FLOW, ROTATION3_FLOW, SINGLE_IDEAL_SEED_FLOW, TWO_IDEAL_FLOW, random_flow
from oracles import (
    apply,
    brute_minimal_left_ideals,
    compose,
    element_of,
    image_tuple,
    is_idempotent,
    kernel_signature,
    label_classes,
    monoid_flow,
    reference_close,
)


def test_flow_validation():
    with pytest.raises(ValueError):
        FiniteFlow(0, (tuple(),))
    with pytest.raises(ValueError):
        FiniteFlow(2, ())
    with pytest.raises(ValueError):
        FiniteFlow(2, ((0, 2),))
    with pytest.raises(ValueError):
        FiniteFlow(2, ((0,),))


def test_parse_and_format_roundtrip():
    text = "# demo\nstates: 3\n1 2 0\n0 0 0\n"
    flow = parse_flow(text)
    assert flow.n_states == 3
    assert flow.generators == ((1, 2, 0), (0, 0, 0))
    again = parse_flow(format_flow(flow, comment="roundtrip"))
    assert again == flow


def test_parse_errors():
    for bad in ("", "states: x\n0", "1 0\n", "states: 2\n", "states: 2\n0 2\n"):
        with pytest.raises(FlowParseError):
            parse_flow(bad)


def test_close_identity_only():
    m = close(FiniteFlow(2, ((0, 1),)))
    assert m.size == 1
    assert image_tuple(m, 0) == (0, 1)


def test_close_constants():
    # hand closure: constants absorb, so {id, c0, c1} and nothing else
    m = close(CONSTANTS_FLOW)
    assert [image_tuple(m, i) for i in range(m.size)] == [(0, 1), (0, 0), (1, 1)]


def test_close_rotation_group():
    m = close(ROTATION3_FLOW)
    assert m.size == 3
    assert set(image_tuple(m, i) for i in range(3)) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_close_deterministic_order_and_cap():
    m1 = close(TWO_IDEAL_FLOW)
    m2 = close(TWO_IDEAL_FLOW)
    assert np.array_equal(m1.elements, m2.elements)
    # BFS layer 1 is the lexicographically sorted generator set
    assert image_tuple(m1, 1) == (0, 0, 2, 2)
    assert image_tuple(m1, 2) == (0, 2, 2, 0)
    with pytest.raises(MonoidTooLarge):
        close(TWO_IDEAL_FLOW, cap=4)


def full_transformation_flow(n: int) -> FiniteFlow:
    """A cycle, the swap (0 1) and 1 -> 0: together they generate all n^n maps."""
    return FiniteFlow(n, (tuple((x + 1) % n for x in range(n)), (1, 0, *range(2, n)), (0, 0, *range(2, n))))


def wide_cyclic_flow(n: int) -> FiniteFlow:
    """The rotation and x -> x - (x mod 4): 5n elements when 4 divides n,
    in about n breadth-first layers."""
    return FiniteFlow(n, (tuple((x + 1) % n for x in range(n)), tuple(x - x % 4 for x in range(n))))


def assert_close_matches_the_tuple_bfs(flow, cap=None):
    m, ref = close(flow, cap), reference_close(flow, cap)
    assert m.elements.dtype == ref.elements.dtype
    assert np.array_equal(m.elements, ref.elements)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_close_matches_the_tuple_bfs_on_full_transformation_monoids(n):
    assert_close_matches_the_tuple_bfs(full_transformation_flow(n))


@pytest.mark.parametrize("n", [16, 64, 300])
def test_close_matches_the_tuple_bfs_on_wide_cyclic_flows(n):
    # n = 300 keys each cell by two bytes
    assert_close_matches_the_tuple_bfs(wide_cyclic_flow(n))
    assert close(wide_cyclic_flow(n)).size == 5 * n


def test_close_matches_the_tuple_bfs_on_the_seeded_corpus():
    rng = random.Random(20260810)
    for _ in range(500):
        flow = random_flow(rng)
        try:
            expected = reference_close(flow, cap=50_000)
        except MonoidTooLarge:
            with pytest.raises(MonoidTooLarge):
                close(flow, cap=50_000)
            continue
        m = close(flow, cap=50_000)
        assert m.elements.dtype == expected.elements.dtype
        assert np.array_equal(m.elements, expected.elements), flow


@pytest.mark.parametrize("n", [40_000, 70_000])
def test_close_matches_the_tuple_bfs_past_int16_states(n):
    # int32 rows, keyed by two bytes a cell below 2^16 states and four
    # above: a swap, a constant map and a 4-cycle on states 0..3 give the
    # 24 permutations of 0..3 and the 4 constant maps onto them
    rest = range(4, n)
    flow = FiniteFlow(n, ((1, 0, 2, 3, *rest), (0,) * n, (1, 2, 3, 0, *rest)))
    m = close(flow)
    assert m.elements.dtype == np.int32 and m.size == 28
    assert np.array_equal(m.elements, reference_close(flow).elements)


@pytest.mark.parametrize("flow", [TWO_IDEAL_FLOW, full_transformation_flow(4), wide_cyclic_flow(16)])
def test_close_cap_boundary(flow):
    size = close(flow).size
    assert_close_matches_the_tuple_bfs(flow, cap=size)
    for closure in (close, reference_close):
        with pytest.raises(MonoidTooLarge):
            closure(flow, cap=size - 1)


@pytest.mark.parametrize("width, high", [(7, 7), (256, 256), (300, 300), (70_000, 70_000)])
def test_row_keys_sort_as_the_rows_do(width, high):
    rng = np.random.default_rng(width)
    rows = rng.integers(0, high, size=(40, width))
    rows[:4, :3] = [[1, 0, 0], [0, high - 1, 0], [0, 0, high - 1], [high - 1, 0, 0]]
    rows[4:8] = rows[:4]
    if high > 256:
        # cells of 1 and 256 sort wrongly under little-endian two-byte keys
        rows[8:12, :2] = [[256, 0], [1, 0], [255, 0], [0, 256]]
    keys = _row_keys(rows)
    expected = sorted(range(len(rows)), key=lambda i: tuple(rows[i].tolist()))
    assert np.argsort(keys, kind="stable").tolist() == expected
    assert (keys[:4] == keys[4:8]).all() and len(set(keys.tolist())) == len(set(map(tuple, rows.tolist())))


def test_closure_idempotence():
    for flow in (CONSTANTS_FLOW, ROTATION3_FLOW, TWO_IDEAL_FLOW, SINGLE_IDEAL_SEED_FLOW):
        m = close(flow)
        again = close(monoid_flow(m))
        assert set(map(tuple, m.elements.tolist())) == set(map(tuple, again.elements.tolist()))


def test_compose_convention():
    m = close(TWO_IDEAL_FLOW)
    # (p*q)(x) = p(q(x))
    for i in range(m.size):
        for j in range(m.size):
            k = compose(m, i, j)
            for x in range(4):
                assert apply(m, k, x) == apply(m, i, apply(m, j, x))


def test_minimal_ideals_constants():
    m = close(CONSTANTS_FLOW)
    ideals = minimal_left_ideals(m)
    assert len(ideals) == 1
    assert [image_tuple(m, i) for i in ideals[0].members] == [(0, 0), (1, 1)]
    assert ideal_structure(m).idempotents_by_ideal == (ideals[0].members,)


def test_minimal_ideal_of_group_is_whole_group():
    m = close(ROTATION3_FLOW)
    ideals = minimal_left_ideals(m)
    assert len(ideals) == 1
    assert len(ideals[0].members) == 3
    assert [image_tuple(m, u) for u in ideal_structure(m).idempotents_by_ideal[0]] == [(0, 1, 2)]


def test_two_ideal_fixture_structure():
    # hand computation: nine elements, two kernel classes of rank-two maps
    m = close(TWO_IDEAL_FLOW)
    assert m.size == 9
    st = ideal_structure(m)
    assert len(st.ideals) == 2
    kernels = {ideal.kernel for ideal in st.ideals}
    assert kernels == {(0, 0, 1, 1), (0, 1, 1, 0)}
    idem_images = [
        sorted(image_tuple(m, u) for u in js) for js in st.idempotents_by_ideal
    ]
    assert idem_images == [
        [(0, 0, 2, 2), (1, 1, 3, 3)],
        [(0, 2, 2, 0), (3, 1, 1, 3)],
    ]


def test_minimal_ideals_match_brute_force():
    for flow in (CONSTANTS_FLOW, ROTATION3_FLOW, TWO_IDEAL_FLOW, SINGLE_IDEAL_SEED_FLOW):
        m = close(flow)
        fast = sorted(ideal.members for ideal in minimal_left_ideals(m))
        assert fast == brute_minimal_left_ideals(m)


def test_mp_equals_m_and_pu_equals_p():
    m = close(TWO_IDEAL_FLOW)
    st = ideal_structure(m)
    for k, ideal in enumerate(st.ideals):
        members = set(ideal.members)
        for p in ideal.members:
            assert {compose(m, s, p) for s in range(m.size)} == members
            for u in st.idempotents_by_ideal[k]:
                assert compose(m, p, u) == p


def test_equivalent_idempotents_two_ideal():
    # u1~v1 and u2~v2 in the fixture, nothing else
    m = close(TWO_IDEAL_FLOW)
    st = ideal_structure(m)
    us = st.all_idempotents
    pairs = {
        tuple(sorted((image_tuple(m, u), image_tuple(m, v))))
        for u, v in equivalent_idempotents(st, equivalence_matrix(m, us, us))
    }
    assert pairs == {
        ((0, 0, 2, 2), (0, 2, 2, 0)),
        ((1, 1, 3, 3), (3, 1, 1, 3)),
    }


def test_equivalent_idempotents_single_ideal_empty():
    m = close(CONSTANTS_FLOW)
    st = ideal_structure(m)
    assert equivalent_idempotents(st, equivalence_matrix(m, st.all_idempotents, st.all_idempotents)) == []


def test_idempotent_power():
    m = close(TWO_IDEAL_FLOW)
    e = element_of(m, (1, 3, 3, 1))  # squares to (3,1,1,3)
    powers = m.idempotent_powers([e, 0, e])
    u = int(powers[0])
    assert is_idempotent(m, u)
    assert image_tuple(m, u) == (3, 1, 1, 3)
    assert powers.tolist() == [u, 0, u] and m.idempotent_powers([]).tolist() == []


def test_kernel_signature():
    assert kernel_signature((1, 1, 3, 3)) == (0, 0, 1, 1)
    assert kernel_signature((3, 1, 1, 3)) == (0, 1, 1, 0)
    assert kernel_signature((2, 2, 2, 2)) == (0, 0, 0, 0)
    assert kernel_signature(np.array([5, 2, 5], dtype=np.int16)) == (0, 1, 0)
    # hashable rows: zipped kernels label their common refinement
    assert kernel_signature(zip((0, 0, 1, 1), (0, 1, 1, 0))) == (0, 1, 2, 3)
    assert kernel_signature(zip((0, 0, 1, 1), (0, 0, 1, 1))) == (0, 0, 1, 1)


def test_label_classes_ordered_by_least_member():
    assert label_classes((0, 1, 1, 0)) == [frozenset({0, 3}), frozenset({1, 2})]
    assert label_classes("baab") == [frozenset({0, 3}), frozenset({1, 2})]
    assert label_classes((7,)) == [frozenset({0})]
    assert label_classes(()) == []


def test_factor_map_validation():
    src = CONSTANTS_FLOW
    with pytest.raises(NotAFactorMap):
        FactorMap(src, FiniteFlow(1, ((0,),)), (0,))  # arity mismatch
    with pytest.raises(NotAFactorMap):
        FactorMap(src, FiniteFlow(2, ((0, 0), (1, 1))), (0, 0))  # not onto
    # collapse to a point is fine
    point = FiniteFlow(1, ((0,), (0,)))
    f = FactorMap(src, point, (0, 0))
    assert f.fiber(0) == (0, 1)


def test_induced_theta_identity_and_collapse():
    m = close(CONSTANTS_FLOW)
    ident = FactorMap(CONSTANTS_FLOW, CONSTANTS_FLOW, (0, 1))
    theta = induced_theta(ident, m, m)
    assert list(theta) == list(range(m.size))
    point = FiniteFlow(1, ((0,), (0,)))
    mp = close(point)
    theta2 = induced_theta(FactorMap(CONSTANTS_FLOW, point, (0, 0)), m, mp)
    assert set(int(t) for t in theta2) == {0}


def test_induced_theta_is_homomorphism():
    m = close(TWO_IDEAL_FLOW)
    f = FactorMap(TWO_IDEAL_FLOW, TWO_IDEAL_FLOW, (0, 1, 2, 3))
    theta = induced_theta(f, m, m)
    for i in range(m.size):
        for j in range(m.size):
            assert theta[compose(m, i, j)] == compose(m, int(theta[i]), int(theta[j]))
