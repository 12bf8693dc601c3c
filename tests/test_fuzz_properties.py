"""Property tests: randomized flows and sequences against the structural
invariants the exact engine is supposed to guarantee."""

import random
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from flowrel.finflow import close, first_collapsers, ideal_structure
from flowrel.fuzz import check_factor_theorems, random_flow, random_icer, relation_check_suite, saturate_icer
from flowrel.proxsets import i_proximal_partition, max_strongly_proximal_sets
from flowrel.relations import analyze_flow, diagonal, quotient_by_icer
from flowrel.subshift import Dual, Shift, morse_fixed_points
from flowrel.ternary import pair_type, ternary
from oracles import (
    apply,
    brute_minimal_left_ideals,
    ideal_lists,
    kernel_signature,
    monoid_flow,
    reference_classes,
    reference_ideal_kernel_matrix,
    reference_minimal_ideal_collapse,
)

flows = st.integers(min_value=0, max_value=10**9).map(
    lambda seed: random_flow(random.Random(seed), max_states=5, max_gens=2)
)


@settings(max_examples=40, deadline=None)
@given(flows)
def test_minimal_ideals_agree_with_brute_force(flow):
    m = close(flow)
    if m.size > 400:
        return  # the quadratic oracle is for small instances
    assert sorted(ideal_lists(ideal_structure(m))["members"]) == brute_minimal_left_ideals(m)


@settings(max_examples=40, deadline=None)
@given(flows)
def test_closure_idempotent(flow):
    m = close(flow)
    again = close(monoid_flow(m))
    assert set(map(tuple, m.elements.tolist())) == set(map(tuple, again.elements.tolist()))


@settings(max_examples=60, deadline=None)
@given(flows)
def test_kernel_labels_match_element_forms(flow):
    # P, SP and every class listing read from the per-ideal kernel labels
    # agree with the element-by-element forms, classes in the same order
    ax = analyze_flow(flow)
    m = ax.monoid
    lists = ideal_lists(ax.structure)
    kernels = [reference_ideal_kernel_matrix(m, members) for members in lists["members"]]
    for k, (kernel, ker) in enumerate(zip(lists["kernels"], kernels)):
        labels = np.array(kernel)
        assert np.array_equal(labels[:, None] == labels[None, :], ker)
        assert list(map(frozenset, i_proximal_partition(ax, k))) == reference_classes(ker)
    p, sp = np.logical_or.reduce(kernels), np.logical_and.reduce(kernels)
    assert np.array_equal(ax.proximal, p)
    assert np.array_equal(ax.strongly_proximal, sp)
    assert list(map(frozenset, max_strongly_proximal_sets(ax))) == reference_classes(sp)
    assert lists["refinement"] == kernel_signature(zip(*lists["kernels"]))


@settings(max_examples=30, deadline=None)
@given(flows)
def test_relation_suite_holds(flow):
    ax = analyze_flow(flow)
    for r in relation_check_suite(ax):
        assert r.passed, (flow, r.name, r.detail)


@settings(max_examples=25, deadline=None)
@given(flows, st.integers(min_value=0, max_value=10**9))
def test_random_icer_quotients_satisfy_factor_theorems(flow, seed):
    ax = analyze_flow(flow)
    icer = random_icer(random.Random(seed), ax)
    f = quotient_by_icer(flow, icer)
    for r in check_factor_theorems(f, ax, analyze_flow(f.target)):
        assert r.passed, (flow, r.name, r.detail)


@settings(max_examples=25, deadline=None)
@given(flows)
def test_sp_icer_quotient_is_weakly_distal(flow):
    ax = analyze_flow(flow)
    f = quotient_by_icer(flow, ax.strongly_proximal)
    assert analyze_flow(f.target).is_weakly_distal_flow


@settings(max_examples=25, deadline=None)
@given(flows, st.integers(min_value=0, max_value=10**9))
def test_saturated_icers_are_icers(flow, seed):
    rng = random.Random(seed)
    n = flow.n_states
    seeds = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
    icer = saturate_icer(flow, seeds)
    rel_ok = quotient_by_icer(flow, icer)  # raises if not an icer
    assert rel_ok.target.n_states <= n
    assert (icer & diagonal(n)).diagonal().all()


@settings(max_examples=30, deadline=None)
@given(flows)
def test_almost_periodic_points_fixed_in_every_ideal(flow):
    # a point fixed by one minimal idempotent is fixed by one in every
    # minimal ideal (transported along equivalent idempotents)
    m = close(flow)
    st_ = ideal_structure(m)
    n = m.n_states
    for x in range(n):
        fixing = [
            any(apply(m, u, x) == x for u in js) for js in ideal_lists(st_)["idempotents"]
        ]
        assert all(fixing) or not any(fixing)


@settings(max_examples=40, deadline=None)
@given(flows)
def test_collapsers_of_a_proximal_set_contain_a_minimal_ideal(flow):
    # the collapsers of a proximal set form a left ideal, hence contain a
    # minimal one; checked on every nonempty state set
    ax = analyze_flow(flow)
    sets = [c for k in range(1, flow.n_states + 1) for c in combinations(range(flow.n_states), k)]
    for members, c in zip(sets, first_collapsers(ax.monoid, sets).tolist()):
        assert (reference_minimal_ideal_collapse(ax, members) is not None) == (c >= 0), members


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=0, max_value=24))
def test_shift_window_reindexing(k, n):
    a = morse_fixed_points()["a"]
    assert Shift(a, k).window(n) == a.segment(k - n, k + n)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=20))
def test_dual_shift_normal_forms(k, n):
    a = morse_fixed_points()["a"]
    x = Dual(Shift(a, k))
    y = Shift(Dual(a), k)
    assert x.window(n) == y.window(n)
    assert x.normalized().describe() == y.normalized().describe()


ternary_points = st.builds(
    ternary,
    center=st.text(alphabet="012", max_size=6),
    start=st.integers(min_value=-8, max_value=8),
    left=st.text(alphabet="012", min_size=1, max_size=3),
    right=st.text(alphabet="012", min_size=1, max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(ternary_points, ternary_points, st.integers(min_value=-9, max_value=9))
def test_ternary_pair_type_symmetric_and_shift_invariant(x, y, k):
    assert pair_type(x, y) == pair_type(y, x)
    assert pair_type(x.shifted(k), y.shifted(k)) == pair_type(x, y)


@settings(max_examples=60, deadline=None)
@given(ternary_points, ternary_points)
def test_ternary_pair_type_matches_wide_scan(x, y):
    # classification agrees with a brute scan over a window wide enough
    # to contain all centers plus several joint periods
    kind = pair_type(x, y)
    span = 80
    diffs = [i for i in range(-span, span + 1) if x.at(i) != y.at(i)]
    if kind == "edge":
        assert len(diffs) == 2 * span + 1
    elif kind == "agreeable":
        assert all(abs(i) < 40 for i in diffs)
    else:
        assert len(diffs) > 0 and len(diffs) < 2 * span + 1
