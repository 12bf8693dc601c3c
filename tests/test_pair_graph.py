"""The pair-graph forms of the relations and the per-generator invariance
checks, each against its ``(size, n, n)`` tensor reference in ``oracles``;
Omega read from the pair graph's bottom strongly connected components
against the squared flow's monoid, and the transitive closure against one
``reaching`` call per node; the S¹p check read from the generators' left
action, for many member lists in one search, against the per-member loop;
and each replaced invariance check broken in turn."""

import random
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from flowrel.finflow import FiniteFlow, MonoidTooLarge, close, ideal_structure
from flowrel.fuzz import (
    ROTATION3_FLOW,
    TWO_IDEAL_FLOW,
    almost_periodic_pairs,
    check_unique_ideal_equiv,
    invariance_checks,
    left_action_counterexamples,
    relation_check_suite,
    saturate_icer,
)
from flowrel.relations import (
    analyze_flow,
    diagonal,
    invariance_violation,
    pair_graph,
    pairs_reaching,
    reaching,
    transitive_closure,
)
from oracles import (
    flat_lists,
    ideal_lists,
    reference_all_translates_in,
    reference_backward_invariant,
    reference_element_proximal,
    reference_forward_invariant,
    reference_left_ideal_of,
    reference_mp_counterexample,
    reference_omega_via_square,
    reference_saturate_icer,
    reference_some_translate_in,
    reference_transitive_closure,
)

# the full transformation monoid T_5 (3,125 elements): a 5-cycle, the swap
# (0 1) and 1 -> 0
T5_FLOW = FiniteFlow(5, ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 0, 2, 3, 4)))

INVARIANCE_CHECKS = ["omega_forward_invariant", "sp_forward_invariant",
                     "d_invariance_biconditional", "p_backward_invariant"]


@st.composite
def edge_flows(draw):
    """Flows of 1-7 states and 1-3 generators, each generator a random map,
    the identity, a constant or a copy of an earlier one; the random maps
    are drawn from a seed, so they do not shrink towards constants."""
    n = draw(st.integers(min_value=1, max_value=7))
    gens: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(["map", "identity", "constant", "duplicate"]))
        if kind == "identity":
            gens.append(tuple(range(n)))
        elif kind == "constant":
            gens.append((draw(st.integers(min_value=0, max_value=n - 1)),) * n)
        elif kind == "duplicate" and gens:
            gens.append(draw(st.sampled_from(gens)))
        else:
            rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
            gens.append(tuple(rng.randrange(n) for _ in range(n)))
    return FiniteFlow(n, tuple(gens))


def analysis_or_none(flow, cap=3000):
    try:
        return analyze_flow(flow, cap=cap)
    except MonoidTooLarge:
        return None


# -- the pair-graph forms against the tensors -----------------------------------


def assert_pair_graph_matches_tensors(ax, rel):
    m, gens = ax.monoid, np.array(ax.monoid.flow.generators)
    p, d = ax.proximal, ax.distal
    assert np.array_equal(pairs_reaching(gens, diagonal(ax.n_states)), reference_element_proximal(m))
    assert np.array_equal(pairs_reaching(gens, rel), reference_some_translate_in(m, rel))
    for r in (p, d, rel):
        assert np.array_equal(~pairs_reaching(gens, ~r), reference_all_translates_in(m, r))
    for r in (ax.omega, ax.strongly_proximal, p, rel):
        assert (invariance_violation(gens, r) is None) == reference_forward_invariant(m, r)
    for r in (p, rel):
        assert (invariance_violation(gens, ~r) is None) == reference_backward_invariant(m, r)
    assert check_unique_ideal_equiv(ax)["p_forward_invariant"] == reference_forward_invariant(m, p)
    results = invariance_checks(gens, ax.omega, ax.strongly_proximal, p, d)
    assert [r.name for r in results] == INVARIANCE_CHECKS
    assert [r.passed for r in results] == [
        reference_forward_invariant(m, ax.omega),
        reference_forward_invariant(m, ax.strongly_proximal),
        np.array_equal(d, reference_all_translates_in(m, d)),
        reference_backward_invariant(m, p),
    ] == [True] * 4


@settings(max_examples=80, deadline=None)
@given(edge_flows(), st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_graph_forms_match_tensor_references(flow, seed):
    ax = analysis_or_none(flow)
    if ax is None:
        return
    rel = np.random.default_rng(seed).random((flow.n_states, flow.n_states)) < 0.3
    assert_pair_graph_matches_tensors(ax, rel)


def test_pair_graph_forms_on_one_state_and_identity_flows():
    for flow in (FiniteFlow(1, ((0,),)), FiniteFlow(1, ((0,), (0,))), FiniteFlow(3, ((0, 1, 2), (0, 1, 2)))):
        ax = analyze_flow(flow)
        assert np.array_equal(ax.proximal, diagonal(flow.n_states))
        assert_pair_graph_matches_tensors(ax, ~diagonal(flow.n_states))


def test_reaching_follows_paths_backwards():
    # edges 0 -> 1 -> 2 -> 2 and 3 -> 3: only 0, 1 and 2 reach 2
    succ = np.array([[1, 2, 2, 3]])
    assert reaching(succ, np.array([False, False, True, False])).tolist() == [True, True, True, False]
    assert reaching(succ, np.zeros(4, dtype=bool)).tolist() == [False] * 4


def test_pairs_reaching_leaves_its_target_alone():
    target = diagonal(3)
    out = pairs_reaching(np.array([[1, 1, 2]]), target)
    assert out[0, 1] and not out[0, 2]
    out[:] = True
    assert np.array_equal(target, diagonal(3))


# -- Omega from the pair graph against the squared flow's monoid ------------------


def assert_pair_graph_omega_matches_square(ax):
    n, gens = ax.n_states, np.array(ax.flow.generators)
    edges = diagonal(n * n)
    edges[np.arange(n * n), pair_graph(gens, n)] = True
    assert np.array_equal(transitive_closure(edges), reference_transitive_closure(edges))
    omega = almost_periodic_pairs(gens, n)
    assert np.array_equal(omega, reference_omega_via_square(ax.monoid))
    assert np.array_equal(omega, ax.omega)
    assert [r.passed for r in relation_check_suite(ax) if r.name == "omega_agrees_with_product_flow"] == [True]


@settings(max_examples=80, deadline=None)
@given(edge_flows())
def test_pair_graph_omega_matches_the_squared_flow(flow):
    ax = analysis_or_none(flow)
    if ax is not None:
        assert_pair_graph_omega_matches_square(ax)


def test_pair_graph_omega_on_the_fixtures_and_t5():
    for flow in (ROTATION3_FLOW, TWO_IDEAL_FLOW, FiniteFlow(3, ((0, 2, 1), (1, 1, 1))), T5_FLOW):
        assert_pair_graph_omega_matches_square(analyze_flow(flow))


def test_omega_check_fails_on_a_pair_that_is_not_almost_periodic():
    # the swap sends (0, 1) to (0, 2), and the constant sends both to (1, 1)
    # from which nothing leads back: (0, 1) is in no bottom component
    ax = analyze_flow(FiniteFlow(3, ((0, 2, 1), (1, 1, 1))))
    assert not ax.omega[0, 1]
    broken = replace(ax, omega=with_pair(ax.omega, 0, 1, True))
    assert [r.passed for r in relation_check_suite(broken) if r.name == "omega_agrees_with_product_flow"] == [False]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0, max_value=0.3),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_transitive_closure_matches_per_node_reaching(n, density, seed):
    rel = np.random.default_rng(seed).random((n, n)) < density
    closed = transitive_closure(rel)
    assert np.array_equal(closed, reference_transitive_closure(rel))
    assert closed is not rel and np.array_equal(rel, np.random.default_rng(seed).random((n, n)) < density)


@settings(max_examples=80, deadline=None)
@given(edge_flows(), st.lists(st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
                              max_size=4))
def test_saturate_icer_matches_the_boolean_squaring_reference(flow, seeds):
    seeds = [(x % flow.n_states, y % flow.n_states) for x, y in seeds]
    assert np.array_equal(saturate_icer(flow, seeds), reference_saturate_icer(flow, seeds))


def test_transitive_closure_of_a_long_path():
    # 0 -> 1 -> ... -> 39 takes six squarings; no loops, so no node reaches itself
    path = np.eye(40, k=1, dtype=bool)
    assert np.array_equal(transitive_closure(path), np.triu(np.ones((40, 40), dtype=bool), 1))


# -- S¹p from the generators' left action against the per-member loop -------------


def member_sets(m, rng):
    """The minimal ideals, and sets that break S¹p = M in each way: an
    ideal plus or minus an element, the union of the ideals, S¹q for a
    random q, the whole monoid, a random subset and unsorted copies."""
    ideals = ideal_lists(ideal_structure(m))["members"]
    union = tuple(sorted(set().union(*ideals)))
    q = int(rng.integers(m.size))
    subset = tuple(sorted(set(rng.integers(m.size, size=3).tolist())))
    out = [*ideals, union, reference_left_ideal_of(m, q), tuple(range(m.size)), subset, union[::-1]]
    for members in ideals:
        extra = int(rng.integers(m.size))
        out.append(tuple(sorted(set(members) | {extra})))
        if len(members) > 1:
            out.append(members[:-1])
        out.append(members + members[:1])
    return out


@settings(max_examples=80, deadline=None)
@given(edge_flows(), st.integers(min_value=0, max_value=2**32 - 1))
def test_left_action_counterexample_matches_per_member_loop(flow, seed):
    # all the sets in one search, which shares and repeats members across
    # lists; then the same lists again, reversed and followed by themselves
    try:
        m = close(flow, cap=400)
    except MonoidTooLarge:
        return
    sets = member_sets(m, np.random.default_rng(seed))
    expected = [reference_mp_counterexample(m, members) for members in sets]
    assert left_action_counterexamples(m, *flat_lists(sets)) == expected
    assert left_action_counterexamples(m, *flat_lists(sets[::-1] + sets)) == expected[::-1] + expected


# -- each replaced invariance check, broken in turn --------------------------------


def with_pair(mat, x, y, value):
    out = mat.copy()
    out[x, y] = out[y, x] = value
    return out


def relations_of(flow):
    """The generators and the Omega, SP, P and D matrices of a flow."""
    ax = analyze_flow(flow)
    return (np.array(flow.generators), ax.omega, ax.strongly_proximal,
            ax.proximal, ax.distal)


def test_each_invariance_check_fails_alone():
    # TWO_IDEAL_FLOW: the generator (1, 1, 3, 3) collapses the proximal
    # pair (0, 1); in the swap-and-constant flow, the swap (generator 0)
    # sends (0, 1) to (0, 2), which is not almost periodic
    gens, om, sp, p, d = relations_of(TWO_IDEAL_FLOW)
    sc_gens, sc_om, sc_sp, sc_p, sc_d = relations_of(FiniteFlow(3, ((0, 2, 1), (1, 1, 1))))
    assert all(r.passed for r in invariance_checks(gens, om, sp, p, d))
    assert all(r.passed for r in invariance_checks(sc_gens, sc_om, sc_sp, sc_p, sc_d))
    cases = [
        ("omega_forward_invariant", sc_gens, with_pair(sc_om, 0, 1, True), sc_sp, sc_p, sc_d),
        ("sp_forward_invariant", gens, om, with_pair(sp, 0, 1, True), p, d),
        ("d_invariance_biconditional", gens, om, sp, p, with_pair(d, 0, 1, True)),
        ("p_backward_invariant", gens, om, sp, with_pair(p, 0, 1, False), d),
    ]
    for check, *args in cases:
        assert [r.name for r in invariance_checks(*args) if not r.passed] == [check]
    assert invariance_violation(sc_gens, with_pair(sc_om, 0, 1, True)) == (0, 0, 1)


def test_p_forward_invariance_fails_alone_in_the_three_way_equivalence():
    # on the rotation, {0, 1} {2} is an equivalence and equals the SP it is
    # read with, but the rotation moves (0, 1) to (1, 2)
    ax = analyze_flow(ROTATION3_FLOW)
    assert check_unique_ideal_equiv(ax)["consistent"]
    rel = with_pair(diagonal(3), 0, 1, True)
    assert check_unique_ideal_equiv(replace(ax, proximal=rel, strongly_proximal=rel)) == {
        "p_is_equivalence": True,
        "unique_minimal_ideal": True,
        "p_equals_sp": True,
        "p_forward_invariant": False,
        "consistent": False,
    }
