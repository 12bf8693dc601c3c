"""The row lookup and the array-gather forms of the minimal-ideal algebra:
each gather against its one-element-at-a-time reference in ``oracles``,
and each ideal-algebra check of the relation suite broken in turn."""

import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowrel.finflow import (
    FactorMap,
    FiniteFlow,
    MonoidTooLarge,
    TransMonoid,
    close,
    equivalence_matrix,
    equivalent_idempotents,
    format_flow,
    induced_theta,
    row_positions,
)
from flowrel.fuzz import (
    CONSTANTS_FLOW,
    IDENTITY_FLOW,
    ROTATION3_FLOW,
    SINGLE_IDEAL_SEED_FLOW,
    TWO_IDEAL_FLOW,
    check_factor_theorems,
    ideal_group_tests,
    left_action_counterexamples,
    random_flow,
    relation_check_suite,
    saturate_icer,
    validate_partitions,
)
from flowrel.relations import (
    analyze_flow,
    is_minimal_flow,
    product_flow,
    quotient_by_icer,
    sp_witnesses,
)
from oracles import (
    compose,
    element_of,
    flat_lists,
    ideal_lists,
    reference_equivalent_idempotents,
    reference_ideal_algebra_details,
    reference_ideal_structure,
    reference_idempotent_power,
    reference_idempotents,
    reference_induced_theta,
    reference_is_group,
    reference_is_minimal_flow,
    reference_mp_counterexample,
    reference_omega,
    reference_right_identity,
    reference_sp_witness,
    reference_validate_partitions,
    square_monoid,
    structure_from_lists,
    tuple_index,
)

# a swap and a constant on three states: the monoid {id, swap, c1, c2}
SWAP_CONSTANT_FLOW = FiniteFlow(3, ((0, 2, 1), (1, 1, 1)))

FIXTURES = (CONSTANTS_FLOW, IDENTITY_FLOW, ROTATION3_FLOW, SINGLE_IDEAL_SEED_FLOW, TWO_IDEAL_FLOW)

small_flows = st.integers(min_value=0, max_value=10**9).map(
    lambda seed: random_flow(random.Random(seed), min_states=1, max_states=7, max_gens=3)
)


def closed_or_none(flow, cap=3000):
    try:
        return close(flow, cap=cap)
    except MonoidTooLarge:
        return None


# -- the row lookup -----------------------------------------------------------


def test_positions_finds_every_element_and_rejects_non_elements():
    m = close(TWO_IDEAL_FLOW)
    assert m.positions(m.elements).tolist() == list(range(m.size))
    assert int(m.positions(np.array([1, 3, 3, 1]))) == element_of(m, (1, 3, 3, 1))
    assert int(m.positions(np.array([0, 1, 2, 2]))) == -1
    stack = m.elements[[[2, 0], [8, 5]]]
    assert m.positions(stack).tolist() == [[2, 0], [8, 5]]
    # rows of another integer type are read as the monoid's own
    assert m.positions(m.elements.astype(np.int64)[::-1]).tolist() == list(range(m.size))[::-1]


def test_row_positions_on_a_local_table():
    table = np.array([[2, 2, 0], [0, 1, 2], [1, 1, 1]], dtype=np.int16)
    rows = np.array([[1, 1, 1], [2, 2, 0], [2, 1, 0], [0, 1, 2]])
    assert row_positions(table, rows).tolist() == [2, 0, -1, 1]
    assert int(row_positions(table, table[1])) == 1


def test_positions_agree_with_a_tuple_index_on_the_fixtures():
    for flow in FIXTURES:
        m = close(flow)
        index = tuple_index(m)  # checks positions on every element
        for p in range(m.size):
            for q in range(m.size):
                row = m.elements[p][m.elements[q]]
                assert int(m.positions(row)) == index[tuple(row.tolist())]


# -- gathers against their references ------------------------------------------


def assert_gathers_match_references(flow):
    try:
        ax = analyze_flow(flow, cap=3000)
    except MonoidTooLarge:
        return
    m, structure = ax.monoid, ax.structure
    lists = ideal_lists(structure)
    assert lists["idempotents"] == [reference_idempotents(m, members) for members in lists["members"]]
    us = structure.all_idempotents
    assert np.array_equal(ax.idempotent_equivalence, equivalence_matrix(m, us, us))
    assert equivalent_idempotents(structure, ax.idempotent_equivalence) == reference_equivalent_idempotents(m, structure)
    assert ax.equivalent_pairs == equivalent_idempotents(structure, ax.idempotent_equivalence)
    assert np.array_equal(ax.omega, reference_omega(m, structure))
    assert ax.is_minimal == is_minimal_flow(m) == reference_is_minimal_flow(m)
    sample = range(m.size) if m.size <= 200 else sorted(set(range(40)) | set(structure.kernel_elements))
    assert m.idempotent_powers(sample).tolist() == [reference_idempotent_power(m, p) for p in sample]
    pairs = np.argwhere(np.triu(np.ones((m.n_states, m.n_states), dtype=bool), 1))
    for (x, y), w in zip(pairs.tolist(), sp_witnesses(ax, pairs)):
        assert w == reference_sp_witness(m, structure, x, y)


def test_equivalence_matrix_needs_both_products():
    # the identity 0 and the idempotent 1 = (0, 0, 2, 2): 0∘1 = 1 but
    # 1∘0 = 1 != 0, so they are not equivalent
    m = close(TWO_IDEAL_FLOW)
    us, vs = [0, 1, 3, 2], [0, 1, 2, 4, 7]
    expected = [[compose(m, u, v) == v and compose(m, v, u) == u for v in vs] for u in us]
    assert equivalence_matrix(m, us, vs).tolist() == expected
    assert not equivalence_matrix(m, [0], [1])[0, 0] and equivalence_matrix(m, [1], [2])[0, 0]


def theta_outcome(fn, *args):
    try:
        return list(fn(*args))
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def assert_induced_theta_matches_reference(flow, seed):
    sm = closed_or_none(flow)
    if sm is None:
        return
    rng = random.Random(seed)
    n = flow.n_states
    f = quotient_by_icer(flow, saturate_icer(flow, [(rng.randrange(n), rng.randrange(n))]))
    tm = close(f.target)
    assert theta_outcome(induced_theta, f, sm, tm) == theta_outcome(reference_induced_theta, f, sm, tm)
    # a target monoid without the induced elements, and a source monoid
    # whose elements do not descend: both error paths name the same element
    trivial = close(FiniteFlow(f.target.n_states, (tuple(range(f.target.n_states)),)))
    assert theta_outcome(induced_theta, f, sm, trivial) == theta_outcome(reference_induced_theta, f, sm, trivial)
    other = closed_or_none(random_flow(rng, min_states=n, max_states=n))
    if other is not None:
        assert theta_outcome(induced_theta, f, other, tm) == theta_outcome(reference_induced_theta, f, other, tm)


def test_gathers_match_references_on_the_fixtures():
    for flow in FIXTURES:
        assert_gathers_match_references(flow)
        assert_induced_theta_matches_reference(flow, 0)


@settings(max_examples=60, deadline=None)
@given(small_flows)
def test_gathers_match_references(flow):
    assert_gathers_match_references(flow)


@settings(max_examples=40, deadline=None)
@given(small_flows, st.integers(min_value=0, max_value=10**9))
def test_induced_theta_matches_reference(flow, seed):
    assert_induced_theta_matches_reference(flow, seed)


def test_induced_theta_error_paths_are_reached():
    m = close(TWO_IDEAL_FLOW)
    f = FactorMap(TWO_IDEAL_FLOW, TWO_IDEAL_FLOW, (0, 1, 2, 3))
    trivial = close(FiniteFlow(4, ((0, 1, 2, 3),)))
    for fn in (induced_theta, reference_induced_theta):
        assert theta_outcome(fn, f, m, trivial) == (
            "NotAFactorMap", "induced element (0, 0, 2, 2) missing from target monoid")
    # fibers {0, 2} and {1, 3}; element 1 of the other monoid sends 0 and 2
    # into different fibers
    halves = quotient_by_icer(TWO_IDEAL_FLOW, saturate_icer(TWO_IDEAL_FLOW, [(0, 2)]))
    splitter = close(FiniteFlow(4, ((0, 1, 1, 3),)))
    for fn in (induced_theta, reference_induced_theta):
        assert theta_outcome(fn, halves, splitter, close(halves.target)) == (
            "NotAFactorMap", "no well-defined target action for element 1")


# -- the square flow, coordinatewise ---------------------------------------------


def assert_square_matches_closure(flow):
    m = closed_or_none(flow)
    if m is None:
        return
    square = square_monoid(m)
    closed = close(product_flow(flow, flow))
    assert square.flow == closed.flow
    assert square.elements.dtype == closed.elements.dtype
    assert np.array_equal(square.elements, closed.elements)


def test_square_monoid_matches_closure_on_the_fixtures():
    for flow in FIXTURES:
        assert_square_matches_closure(flow)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9).map(
    lambda seed: random_flow(random.Random(seed), min_states=1, max_states=6, max_gens=3)))
def test_square_monoid_matches_closure(flow):
    assert_square_matches_closure(flow)


# -- each ideal-algebra check, broken in turn --------------------------------------


def with_structure(ax, **changes):
    """The analysis with some of its structure's per-ideal lists
    (``ideal_lists``: ``members``, ``idempotents``, ``kernels``,
    ``refinement``) replaced; the equivalent pairs keep those whose
    idempotents are still listed."""
    st_ = structure_from_lists(**{**ideal_lists(ax.structure), **changes})
    listed = set(st_.all_idempotents.tolist())
    pairs = [pair for pair in ax.equivalent_pairs if listed.issuperset(pair)]
    return replace(ax, structure=st_, equivalent_pairs=pairs)


def with_first(ax, field, first):
    """``with_structure`` with ideal 0's entry of one per-ideal list replaced."""
    return with_structure(ax, **{field: [first, *ideal_lists(ax.structure)[field][1:]]})


def broken_mp(ax):
    # the identity (element 0) is no member of ideal 0: S¹·id is everything
    return with_first(ax, "members", (0,) + ideal_lists(ax.structure)["members"][0])


def mp_action_leaves(ax):
    # 7 of ideal 0 listed in ideal 1: the generators carry it to 1, 3 and 8,
    # which are not listed, so the least member 2 is the first counterexample
    members = ideal_lists(ax.structure)["members"]
    return with_structure(ax, members=[members[0], (2, 4, 5, 6, 7)])


def mp_least_reaches_part(ax):
    # both ideals as one: closed under the action, but 1 reaches only ideal 0
    return with_first(ax, "members", tuple(range(1, 9)))


def mp_later_member_stuck(ax):
    # the whole monoid {id, swap, c1, c2}: the identity reaches every
    # element, the swap reaches back to it, the constant 2 does not
    return with_first(ax, "members", (0, 1, 2, 3))


def broken_pu(ax):
    # element 7 = (2, 2, 0, 0) of ideal 0 is no idempotent: p∘7 != p
    return with_first(ax, "idempotents", (1, 7))


def rotation_as_idempotent(ax):
    # on the rotation group {e, r, r²}, r listed after e: a monoid of 3
    # rows of 3 states takes p∘u one idempotent at a time, and p∘r != p
    return with_first(ax, "idempotents", (0, 1))


def broken_um(ax):
    # idempotent 2 of ideal 1, listed under ideal 0: 2∘M0 = {1, 7} lacks 2,
    # and 2 is equivalent to idempotent 1 of ideal 0
    return with_first(ax, "idempotents", (1, 2))


def fake_identity_um(ax):
    # 7 = (2, 2, 0, 0) as ideal 0's idempotent: 7∘M0 = {1, 7} is a group,
    # every member has an inverse, but its identity is 1, not 7
    return with_first(ax, "idempotents", (7,))


def unclosed_um(ax):
    # in the rotation group Z4 = {e, r, r², r³}, M = {e, r, r³} has
    # e∘M = M with e in it and every member inverted, but r∘r = r² is
    # not in it
    return with_first(ax, "members", (0, 1, 3))


def identity_without_inverses(ax):
    # the identity 0 as the idempotent of {identity, constant 0}: u∘M is
    # closed with identity u, but the constant has no inverse
    return with_structure(ax, members=[(0, 1)], idempotents=[(0,)])


def broken_omega(ax):
    mat = ax.omega.copy()
    mat[0, 1] = mat[1, 0] = True
    return replace(ax, omega=mat)


def broken_p(ax):
    mat = ax.proximal.copy()
    mat[0, 1] = mat[1, 0] = True
    return replace(ax, proximal=mat)


@pytest.mark.parametrize("flow, breaker, check, detail", [
    (TWO_IDEAL_FLOW, broken_mp, "ideal_absorption_Mp_equals_M", "Mp != M at ideal 0 element 0"),
    (TWO_IDEAL_FLOW, broken_pu, "right_identity_pu_equals_p", "pu != p at ideal 0"),
    (TWO_IDEAL_FLOW, broken_um, "uM_is_group", "uM not a group at ideal 0 idempotent 2"),
    (FiniteFlow(4, ((1, 2, 3, 0),)), unclosed_um, "uM_is_group", "uM not a group at ideal 0 idempotent 0"),
    (TWO_IDEAL_FLOW, broken_um, "intra_ideal_idempotents_not_equivalent", "idempotents 1 and 2 equivalent in ideal 0"),
    (TWO_IDEAL_FLOW, broken_omega, "omega_cells_are_fixed_point_unions", "state 0"),
    (ROTATION3_FLOW, broken_p, "p_cells_are_idempotent_orbits_when_minimal", "state 0"),
    (TWO_IDEAL_FLOW, mp_action_leaves, "ideal_absorption_Mp_equals_M", "Mp != M at ideal 1 element 2"),
    (TWO_IDEAL_FLOW, mp_least_reaches_part, "ideal_absorption_Mp_equals_M", "Mp != M at ideal 0 element 1"),
    (SWAP_CONSTANT_FLOW, mp_later_member_stuck, "ideal_absorption_Mp_equals_M", "Mp != M at ideal 0 element 2"),
    (TWO_IDEAL_FLOW, fake_identity_um, "uM_is_group", "uM not a group at ideal 0 idempotent 7"),
    (ROTATION3_FLOW, rotation_as_idempotent, "right_identity_pu_equals_p", "pu != p at ideal 0"),
    (CONSTANTS_FLOW, identity_without_inverses, "uM_is_group", "uM not a group at ideal 0 idempotent 0"),
])
def test_each_broken_check_fails_with_its_own_detail(flow, breaker, check, detail):
    ax = analyze_flow(flow)
    assert all(r.passed for r in relation_check_suite(ax))
    results = relation_check_suite(breaker(ax))
    (broken,) = [r for r in results if r.name == check]
    assert not broken.passed and broken.detail == detail
    # no other check reports this counterexample as its own
    assert [r.name for r in results if r.detail == detail] == [check]


@pytest.mark.parametrize("flow, breaker, ideal, element", [
    (TWO_IDEAL_FLOW, mp_action_leaves, 1, 2),
    (TWO_IDEAL_FLOW, mp_least_reaches_part, 0, 1),
    (SWAP_CONSTANT_FLOW, mp_later_member_stuck, 0, 2),
])
def test_each_mp_failure_shape_names_the_per_member_loops_element(flow, breaker, ideal, element):
    ax = breaker(analyze_flow(flow))
    members = ideal_lists(ax.structure)["members"][ideal]
    expected = [reference_mp_counterexample(ax.monoid, members)]
    assert left_action_counterexamples(ax.monoid, *flat_lists([members])) == expected == [element]


def test_broken_membership_keeps_each_detail_apart():
    # prepending a non-member breaks both Mp = M and pu = p; each check
    # names its own counterexample
    results = {r.name: r for r in relation_check_suite(broken_mp(analyze_flow(TWO_IDEAL_FLOW)))}
    assert results["ideal_absorption_Mp_equals_M"].detail == "Mp != M at ideal 0 element 0"
    assert results["right_identity_pu_equals_p"].detail == "pu != p at ideal 0"
    assert results["uM_is_group"].passed


@pytest.mark.parametrize("idempotents_of_ideal_0, message", [
    ((7,), "class [0, 1] has no almost periodic point"),  # 7 = (2, 2, 0, 0)
    ((1, 2), "class [0, 1] not closed under idempotent 2"),  # 2 = (0, 2, 2, 0)
])
def test_validate_partitions_rejects_foreign_idempotents(idempotents_of_ideal_0, message):
    ax = analyze_flow(TWO_IDEAL_FLOW)
    result = validate_partitions(with_first(ax, "idempotents", idempotents_of_ideal_0))
    assert not result.passed and result.detail == message


def split_kernel(ax):
    # ideal 0's kernel labelling made finer than its true partition: a
    # state collapsed with state 0 by every member gets a label of its own
    split = list(ideal_lists(ax.structure)["kernels"][0])
    y = next(y for y in range(1, len(split)) if split[y] == split[0])
    split[y] = max(split) + 1
    return with_first(ax, "kernels", tuple(split))


def merged_refinement(ax):
    # the singletons {0} and {1} of SP listed as one refinement class
    return with_structure(ax, refinement=(0, 0, 1, 2))


def regrouped_refinement(ax):
    # as many refinement classes as the ideal kernel (0, 1, 0, 1) has, but
    # not the same ones
    return with_structure(ax, refinement=(0, 0, 1, 1))


def relabelled_refinement(ax):
    # the same refinement classes under labels that are not numbered by
    # least member
    labels = ideal_lists(ax.structure)["refinement"]
    return with_structure(ax, refinement=tuple(max(labels) - v for v in labels))


def identity_as_idempotent(ax):
    # the identity fixes every state and keeps every class, but does not
    # map the class {0, 1} of the constants' flow to one point
    return with_first(ax, "idempotents", ideal_lists(ax.structure)["idempotents"][0] + (0,))


@pytest.mark.parametrize("flow, breaker, detail", [
    (TWO_IDEAL_FLOW, split_kernel, "distinct ideal-proximal classes share an image under element 1"),
    (TWO_IDEAL_FLOW, merged_refinement, "refinement class is not the intersection of per-ideal classes"),
    (SINGLE_IDEAL_SEED_FLOW, regrouped_refinement, "refinement class is not the intersection of per-ideal classes"),
    (TWO_IDEAL_FLOW, relabelled_refinement, ""),
    (CONSTANTS_FLOW, identity_as_idempotent, "idempotent 0 does not collapse class [0, 1]"),
])
def test_validate_partitions_breakers_match_the_class_loops(flow, breaker, detail):
    ax = breaker(analyze_flow(flow))
    result = validate_partitions(ax)
    assert result == reference_validate_partitions(ax)
    assert result.passed == (not detail) and result.detail == detail


def foreign_idempotents(js):
    return lambda ax: with_first(ax, "idempotents", js)


@pytest.mark.parametrize("flow, breaker", [
    *((TWO_IDEAL_FLOW, breaker) for breaker in (
        broken_mp, broken_pu, broken_um, fake_identity_um, mp_action_leaves, mp_least_reaches_part,
        broken_omega, broken_p, split_kernel, foreign_idempotents((7,)), foreign_idempotents((1, 2)))),
    (SWAP_CONSTANT_FLOW, mp_later_member_stuck),
    (FiniteFlow(4, ((1, 2, 3, 0),)), unclosed_um),
])
def test_validate_partitions_matches_the_class_loops_on_every_breaker(flow, breaker):
    ax = breaker(analyze_flow(flow))
    assert validate_partitions(ax) == reference_validate_partitions(ax)


def seeded_partition_breaks(ax, rng):
    """The analysis, and copies with ideal 0's idempotents replaced by 1-3
    random monoid elements or joined by the identity, with the refinement
    replaced by ideal 0's kernel or shifted by one state, and with ideal
    0's kernel replaced by the refinement."""
    lists = ideal_lists(ax.structure)
    refinement = lists["refinement"]
    picked = tuple(rng.sample(range(ax.monoid.size), min(rng.randint(1, 3), ax.monoid.size)))
    return [
        ax,
        with_first(ax, "idempotents", picked),
        with_first(ax, "idempotents", lists["idempotents"][0] + (0,)),
        with_structure(ax, refinement=lists["kernels"][0]),
        with_structure(ax, refinement=refinement[1:] + refinement[:1]),
        with_first(ax, "kernels", refinement),
    ]


def test_validate_partitions_matches_the_class_loops_on_random_flows():
    # 500 seeded flows and their seeded breaks; between them they reach
    # every detail the check can give
    rng = random.Random(16)
    details = set()
    for _ in range(500):
        for ax in seeded_partition_breaks(analyze_flow(random_flow(rng)), rng):
            result = validate_partitions(ax)
            assert result == reference_validate_partitions(ax), format_flow(ax.flow)
            details.add(re.sub(r"\[[^]]*\]|\d+", "_", result.detail))
    assert details == {
        "",
        "distinct ideal-proximal classes share an image under element _",
        "class _ has no almost periodic point",
        "class _ not closed under idempotent _",
        "refinement class is not the intersection of per-ideal classes",
        "idempotent _ does not collapse class _",
    }


# -- the one pass over every (ideal, idempotent) slot, against the loops ----------


def seeded_slot_breaks(ax, rng):
    """Seeded copies of the analysis whose lists are no ideals or whose
    listed idempotents are no idempotents: one ideal's members replaced by
    1-6 random elements, joined by a random element or without their
    least member, or its idempotents replaced by 1-3 random elements or
    joined by one, or the identity as the idempotent of the ideal joined
    by it."""
    lists = ideal_lists(ax.structure)
    size = ax.monoid.size

    def pick(k):
        return tuple(sorted(rng.sample(range(size), min(k, size))))

    def at_b(field, new):
        return [*lists[field][:b], new, *lists[field][b + 1:]]

    b = rng.randrange(ax.structure.ideal_count)
    members, js = lists["members"][b], lists["idempotents"][b]
    ideal_breaks = [pick(rng.randint(1, 6)), tuple(sorted(set(members) | set(pick(1)))), members[1:] or members]
    idempotent_breaks = [pick(rng.randint(1, 3)), tuple(sorted(set(js) | set(pick(1))))]
    # the identity as the only idempotent of the ideal joined by it: uM is
    # closed with identity u, and only the inverse test fails
    return [with_structure(ax, members=at_b("members", new)) for new in ideal_breaks] + \
        [with_structure(ax, idempotents=at_b("idempotents", new)) for new in idempotent_breaks] + \
        [with_structure(ax, members=at_b("members", tuple(sorted({0, *members}))), idempotents=at_b("idempotents", (0,)))]


def test_ideal_algebra_pass_matches_the_loops_on_random_flows():
    # 1000 seeded flows: the batched ideal structure, equivalent pairs and
    # SP witnesses against their loops; the slot pass on the true slots
    # and on slots of non-ideals and non-idempotents, against the
    # one-slot references; and the suite's details on one seeded break,
    # against the per-ideal loop
    rng = random.Random(21)
    outcomes = set()
    for _ in range(1000):
        try:
            ax = analyze_flow(random_flow(rng), cap=3000)
        except MonoidTooLarge:
            continue
        m, st_ = ax.monoid, ax.structure
        assert ideal_lists(st_) == reference_ideal_structure(m), format_flow(ax.flow)
        assert ax.equivalent_pairs == reference_equivalent_idempotents(m, st_)
        pairs = np.argwhere(np.triu(ax.proximal & ~ax.strongly_proximal, 1))
        assert sp_witnesses(ax, pairs) == [reference_sp_witness(m, st_, x, y) for x, y in pairs.tolist()]

        cases = seeded_slot_breaks(ax, rng)
        lists = [members for case in cases for members in ideal_lists(case.structure)["members"]]
        us, slot_list, owner = [], [], 0
        for case in cases:
            for js in ideal_lists(case.structure)["idempotents"]:
                us.extend(js)
                slot_list.extend([owner] * len(js))
                owner += 1
        pu, group = ideal_group_tests(m, *flat_lists(lists), np.array(us), np.array(slot_list))
        expected_pu = [reference_right_identity(m, u, lists[b]) for u, b in zip(us, slot_list)]
        expected_group = [reference_is_group(m, u, m.elements[list(lists[b])]) for u, b in zip(us, slot_list)]
        assert pu.tolist() == expected_pu and group.tolist() == expected_group, format_flow(ax.flow)
        outcomes.update(zip(expected_pu, expected_group))

        case = rng.choice(cases)
        details = {r.name: r.detail for r in relation_check_suite(case)}
        got = tuple(details[name] for name in ("right_identity_pu_equals_p", "uM_is_group",
                                               "intra_ideal_idempotents_not_equivalent"))
        assert got == reference_ideal_algebra_details(case), format_flow(ax.flow)
    # each test passes and fails, alone and together
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_fiber_check_fails_when_the_section_is_no_idempotent(monkeypatch):
    # onto a point every element lies over the identity; a section that
    # returns the non-idempotent (1, 3, 3, 1) moves its own image
    point = quotient_by_icer(TWO_IDEAL_FLOW, np.ones((4, 4), dtype=bool))
    src, tgt = analyze_flow(point.source), analyze_flow(point.target)
    (before,) = [r for r in check_factor_theorems(point, src, tgt) if r.name == "factor_fiber_contains_ap_set"]
    assert before.passed
    monkeypatch.setattr(TransMonoid, "idempotent_powers",
                        lambda self, idx: np.full(len(idx), element_of(self, (1, 3, 3, 1))) if self.n_states == 4 else np.asarray(idx))
    (after,) = [r for r in check_factor_theorems(point, src, tgt) if r.name == "factor_fiber_contains_ap_set"]
    assert not after.passed and after.detail == "u.fiber not an almost periodic subset of fiber over 0"
