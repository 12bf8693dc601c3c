import random
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from flowrel import fuzz
from flowrel.finflow import FiniteFlow, MonoidTooLarge, close, first_collapsers
from flowrel.fuzz import (
    CONSTANTS_FLOW,
    ROTATION3_FLOW,
    SINGLE_IDEAL_SEED_FLOW,
    TWO_IDEAL_FLOW,
    check_rA_proximal_equiv,
    invertible_image_check,
    max_sp_sets_fixed_by_all_idempotents,
    proximal_candidates,
    proximal_subsets,
    proxset_check_suite,
    random_flow,
    sp_matches_class_squares,
    validate_partitions,
)
from flowrel.proxsets import i_proximal_partition, max_strongly_proximal_sets
from flowrel.relations import analyze_flow, proximal_sets
from flowrel.reports import flow_report
from oracles import (
    apply,
    element_of,
    ideal_lists,
    candidate_tuples,
    image_tuple,
    label_classes,
    reference_invertible_image_check,
    reference_minimal_ideal_collapse,
    reference_proximal_candidates,
    reference_rA_proximal_equiv,
    reference_sp_matches_class_squares,
    structure_from_lists,
)


def test_singletons_are_proximal():
    m = close(ROTATION3_FLOW)
    assert first_collapsers(m, [{1}])[0] >= 0


def test_whole_space_proximal_in_constants_model():
    m = close(CONSTANTS_FLOW)
    p = first_collapsers(m, [{0, 1}])[0]
    assert p >= 0 and len(set(image_tuple(m, p))) == 1


def test_distal_pair_not_proximal_set():
    ax = analyze_flow(ROTATION3_FLOW)
    assert first_collapsers(ax.monoid, [{0, 1}])[0] == -1
    assert reference_minimal_ideal_collapse(ax, {0, 1}) is None


def test_minimal_ideal_collapse():
    ax = analyze_flow(CONSTANTS_FLOW)
    ideal = reference_minimal_ideal_collapse(ax, {0, 1})
    assert ideal is not None
    assert [image_tuple(ax.monoid, i) for i in ideal_lists(ax.structure)["members"][ideal]] == [(0, 0), (1, 1)]
    ax2 = analyze_flow(TWO_IDEAL_FLOW)
    ideal2 = reference_minimal_ideal_collapse(ax2, {0, 1})
    assert ideal2 is not None and ideal_lists(ax2.structure)["kernels"][ideal2] == (0, 0, 1, 1)
    assert reference_minimal_ideal_collapse(ax2, {0, 2}) is None


def test_partitions_differ_across_ideals():
    ax = analyze_flow(TWO_IDEAL_FLOW)
    parts = [
        sorted(sorted(c) for c in i_proximal_partition(ax, k))
        for k in range(ax.structure.ideal_count)
    ]
    assert parts == [[[0, 1], [2, 3]], [[0, 3], [1, 2]]]


def test_partition_singletons_in_distal_model():
    ax = analyze_flow(ROTATION3_FLOW)
    parts = i_proximal_partition(ax, 0)
    assert sorted(sorted(c) for c in parts) == [[0], [1], [2]]


def test_partition_single_class_in_proximal_model():
    ax = analyze_flow(CONSTANTS_FLOW)
    parts = i_proximal_partition(ax, 0)
    assert [sorted(c) for c in parts] == [[0, 1]]


def test_max_strongly_proximal_sets():
    ax = analyze_flow(TWO_IDEAL_FLOW)
    assert sorted(sorted(s) for s in max_strongly_proximal_sets(ax)) == [[0], [1], [2], [3]]
    ax2 = analyze_flow(CONSTANTS_FLOW)
    assert [sorted(s) for s in max_strongly_proximal_sets(ax2)] == [[0, 1]]
    ax3 = analyze_flow(SINGLE_IDEAL_SEED_FLOW)
    assert sorted(sorted(s) for s in max_strongly_proximal_sets(ax3)) == [[0, 2], [1, 3]]


def test_sp_equals_union_of_class_squares():
    for flow in (CONSTANTS_FLOW, ROTATION3_FLOW, TWO_IDEAL_FLOW, SINGLE_IDEAL_SEED_FLOW):
        assert sp_matches_class_squares(analyze_flow(flow)).passed


def test_rA_biconditional():
    for flow in (CONSTANTS_FLOW, ROTATION3_FLOW, SINGLE_IDEAL_SEED_FLOW, TWO_IDEAL_FLOW):
        ax = analyze_flow(flow)
        r = check_rA_proximal_equiv(ax, proximal_candidates(ax, proximal_subsets(ax)))
        assert r.passed, r.detail


def test_rA_counterexample_exists_when_p_not_equivalence():
    # with two ideals some element must carry some proximal set outside
    # the proximal family; the check passes because both sides of the
    # biconditional are false together
    ax = analyze_flow(TWO_IDEAL_FLOW)
    m = ax.monoid
    r = check_rA_proximal_equiv(ax, proximal_candidates(ax, proximal_subsets(ax)))
    assert r.passed
    # explicit witness: {0,1} is collapsed by the first ideal, its image
    # under the idempotent (0,2,2,0) is {0,2}, which nothing collapses
    u = element_of(m, (0, 2, 2, 0))
    image = {apply(m, u, x) for x in (0, 1)}
    assert image == {0, 2}
    assert first_collapsers(m, [image])[0] == -1


def test_max_sp_closure_claim_holds_with_unique_ideal():
    for flow in (CONSTANTS_FLOW, ROTATION3_FLOW, SINGLE_IDEAL_SEED_FLOW):
        assert max_sp_sets_fixed_by_all_idempotents(analyze_flow(flow)).passed


def test_max_sp_closure_claim_fails_with_two_ideals():
    # the published closure claim u(A) <= A for maximal strongly proximal
    # sets holds iff the flow has one minimal left ideal; the
    # four-fixed-point model has two, its SP classes are singletons, and
    # the idempotent (1,1,3,3) sends class {0} to {1}, so the check is
    # kept separate from the always-true suite
    r = max_sp_sets_fixed_by_all_idempotents(analyze_flow(TWO_IDEAL_FLOW))
    assert not r.passed
    assert r.detail == "u=(1, 1, 3, 3) A=[0] uA=[1]"


def test_partition_assertions_run_once_per_flow_report(monkeypatch):
    calls = []
    real = fuzz.validate_partitions
    monkeypatch.setattr(fuzz, "validate_partitions", lambda ax: calls.append(ax) or real(ax))
    ax = analyze_flow(TWO_IDEAL_FLOW)
    report = flow_report(ax)
    assert calls == [ax]
    assert [c["pass"] for c in report["checks"] if c["name"] == "per_ideal_partitions_valid"] == [True]


def test_validate_partitions_rejects_a_split_kernel():
    # a kernel labelling finer than the ideal's true partition separates
    # two states that every member of the ideal collapses
    ax = analyze_flow(TWO_IDEAL_FLOW)
    lists = ideal_lists(ax.structure)
    split = list(lists["kernels"][0])
    y = next(y for y in range(1, len(split)) if split[y] == split[0])
    split[y] = max(split) + 1
    ax = replace(ax, structure=structure_from_lists(**{**lists, "kernels": [tuple(split), *lists["kernels"][1:]]}))
    result = validate_partitions(ax)
    assert not result.passed and "distinct ideal-proximal classes share an image" in result.detail
    assert [r for r in proxset_check_suite(ax) if r.name == "per_ideal_partitions_valid"] == [result]


def test_invertible_image_check_reports_the_first_counterexample(monkeypatch):
    # with two candidate images rejected, the detail names the first
    # (candidate, generator) in scan order, not the last
    ax = analyze_flow(ROTATION3_FLOW)
    check = "invertible_generator_image_of_proximal_set_proximal"
    assert [r.passed for r in proxset_check_suite(ax) if r.name == check] == [True]
    real = fuzz.proximal_sets
    rejected = [{1}, {2}]  # images of (0,) and (1,) under the rotation
    monkeypatch.setattr(fuzz, "proximal_sets", lambda ax, sets: np.array(
        [ok and set(s) not in rejected for s, ok in zip(sets, real(ax, sets).tolist())]))
    (result,) = [r for r in proxset_check_suite(ax) if r.name == check]
    assert not result.passed
    assert result.detail == "tA not proximal: A=[0] g=(1, 2, 0)"


# -- the suite's array passes against their loop forms ------------------------------


def random_flow_with_invertibles(rng: random.Random) -> FiniteFlow:
    """A flow on 1..14 states whose generators are each a permutation or
    an arbitrary map, one of them repeated in about a third of the flows."""
    n = rng.randint(1, 14)
    gens = [tuple(rng.sample(range(n), n)) if rng.random() < 0.5 else tuple(rng.randrange(n) for _ in range(n))
            for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.3:
        gens.insert(rng.randrange(len(gens) + 1), rng.choice(gens))
    return FiniteFlow(n, tuple(gens))


def seeded_analyses(count: int, seed: int):
    rng = random.Random(seed)
    while count:
        try:
            ax = analyze_flow(random_flow_with_invertibles(rng), cap=3000)
        except MonoidTooLarge:
            continue
        count -= 1
        yield ax


def assert_candidates_match(ax, candidates, expected):
    # the rows hold the sorted tuples, in their order, each with its size
    # and whether it is a per-ideal class
    classes = {tuple(sorted(c)) for kernel in ideal_lists(ax.structure)["kernels"] for c in label_classes(kernel)}
    assert candidate_tuples(candidates) == expected
    assert candidates.sizes.tolist() == list(map(len, expected))
    assert candidates.classes.tolist() == [c in classes for c in expected]


def test_image_and_class_square_checks_match_their_loop_forms():
    kinds = {"invertible": 0, "repeated": 0, "subsets": 0, "no subsets": 0}
    for ax in seeded_analyses(1200, 20261019):
        gens = ax.flow.generators
        kinds["invertible"] += any(len(set(g)) == ax.n_states for g in gens)
        kinds["repeated"] += len(set(gens)) < len(gens)
        subsets = proximal_subsets(ax)
        kinds["subsets" if subsets else "no subsets"] += 1
        candidates = proximal_candidates(ax, subsets)
        expected = reference_proximal_candidates(ax, subsets)
        assert_candidates_match(ax, candidates, expected)
        assert invertible_image_check(ax, candidates, subsets) == reference_invertible_image_check(ax, expected, subsets)
        assert check_rA_proximal_equiv(ax, candidates) == reference_rA_proximal_equiv(ax, expected)
        assert sp_matches_class_squares(ax) == reference_sp_matches_class_squares(ax)
        if ax.n_states > 1:  # one off-diagonal SP entry flipped fails both forms
            sp = ax.strongly_proximal.copy()
            sp[0, 1] ^= True
            broken = replace(ax, strongly_proximal=sp)
            assert not sp_matches_class_squares(broken).passed
            assert sp_matches_class_squares(broken) == reference_sp_matches_class_squares(broken)
    assert min(kinds.values()) >= 100, kinds


def test_injected_image_failures_match_the_loop_form(monkeypatch):
    # every set whose members sum to 1 mod 3 is rejected, in the subset
    # table and in the image tests alike; both forms of the image check
    # name the same first (candidate, generator) and the same detail text,
    # and both forms of the r(A) check the same first (candidate, element)
    real = fuzz.proximal_sets

    def rejecting(ax, sets):
        rows = sets.tolist() if isinstance(sets, np.ndarray) else sets
        return real(ax, sets) & np.array([sum(set(s)) % 3 != 1 for s in rows], dtype=bool)

    monkeypatch.setattr(fuzz, "proximal_sets", rejecting)
    failed = ra_failed = 0
    for ax in seeded_analyses(300, 7):
        subsets = proximal_subsets(ax)
        candidates = proximal_candidates(ax, subsets)
        expected = reference_proximal_candidates(ax, subsets)
        assert_candidates_match(ax, candidates, expected)
        result = invertible_image_check(ax, candidates, subsets)
        assert result == reference_invertible_image_check(ax, expected, subsets)
        failed += not result.passed
        ra_result = check_rA_proximal_equiv(ax, candidates)
        assert ra_result == reference_rA_proximal_equiv(ax, expected)
        ra_failed += not ra_result.passed
    assert failed >= 30 and ra_failed >= 30


# -- the kernel-label set test against the whole-monoid scan -----------------------


def assert_proximal_sets_match_the_monoid_scan(ax, rng):
    n = ax.n_states
    subsets = [c for k in (3, 4) for c in combinations(range(n), k)]
    sets = subsets + [rng.sample(range(n), rng.randint(1, n)) for _ in range(20)]
    expected = (first_collapsers(ax.monoid, sets) >= 0).tolist()
    assert proximal_sets(ax, sets).tolist() == expected
    assert [bool(proximal_sets(ax, [s])[0]) for s in sets] == expected
    assert proximal_subsets(ax) == dict(zip(subsets, expected))
    images = ax.monoid.elements[:, sorted(sets[-1])]  # the r(A) check's input: one row per element
    assert proximal_sets(ax, images).tolist() == (first_collapsers(ax.monoid, images) >= 0).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_proximal_sets_match_first_collapsers(seed):
    rng = random.Random(seed)
    try:
        ax = analyze_flow(random_flow(rng, min_states=1, max_states=7), cap=3000)
    except MonoidTooLarge:
        return
    assert_proximal_sets_match_the_monoid_scan(ax, rng)


def test_proximal_sets_on_the_fixtures_and_t5():
    t5 = FiniteFlow(5, ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4), (0, 0, 2, 3, 4)))
    for flow in (CONSTANTS_FLOW, ROTATION3_FLOW, SINGLE_IDEAL_SEED_FLOW, TWO_IDEAL_FLOW, t5):
        assert_proximal_sets_match_the_monoid_scan(analyze_flow(flow), random.Random(0))
    assert proximal_sets(analyze_flow(TWO_IDEAL_FLOW), []).tolist() == []


def test_candidates_order_long_classes_as_tuples():
    # seeded kernel rows on 6-12 states drawn from two or three labels, so
    # that classes of six or more states share their first five members
    # across ideals, or repeat whole; the proximal relation is a seeded
    # symmetric one, and the subsets a seeded table
    rng = random.Random(26)
    ties = 0
    for _ in range(300):
        n = rng.randint(6, 12)
        rows = []
        for _ in range(rng.randint(2, 4)):
            values = rng.sample(range(5), rng.randint(2, 3))
            rows.append(tuple(rng.choice(values) if rng.random() < 0.3 else values[0] for _ in range(n)))
        lists = {"members": [()] * len(rows), "idempotents": [()] * len(rows), "kernels": rows, "refinement": rows[0]}
        proximal = np.triu(np.array([[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]))
        ax = replace(analyze_flow(FiniteFlow(n, (tuple(range(n)),))), structure=structure_from_lists(**lists),
                     proximal=proximal | proximal.T)
        subsets = {c: rng.random() < 0.5 for k in (3, 4) for c in combinations(range(n), k)}
        expected = reference_proximal_candidates(ax, subsets)
        assert_candidates_match(ax, proximal_candidates(ax, subsets), expected)
        long = [c for c in expected if len(c) > 5]
        ties += len({c[:5] for c in long}) < len(long)
    assert ties >= 30


def test_proxset_suite_pads_no_pair_to_a_class_width():
    # a rotation and a constant map on 120 states: one class of all the
    # states and 7,140 proximal pairs.  The candidates and the image
    # gathers stay within a small multiple of n² cells; padding every pair
    # to the class's width would take n³/2
    n = 120
    ax = analyze_flow(FiniteFlow(n, (tuple((x + 1) % n for x in range(n)), (0,) * n)))
    tracemalloc.start()
    try:
        assert all(r.passed for r in proxset_check_suite(ax))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 8 * n * n
