import random
import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowrel import fuzz
from flowrel.finflow import FiniteFlow, MonoidTooLarge, close, first_collapsers
from flowrel.fuzz import (
    CONSTANTS_FLOW,
    CheckResult,
    ROTATION3_FLOW,
    SINGLE_IDEAL_SEED_FLOW,
    TWO_IDEAL_FLOW,
    check_rA_proximal_equiv,
    invertible_image_check,
    max_sp_sets_fixed_by_all_idempotents,
    proxset_check_suite,
    random_flow,
    sp_matches_class_squares,
    validate_partitions,
)
from flowrel.proxsets import i_proximal_partition, max_strongly_proximal_sets
from flowrel.relations import analyze_flow, first_nonproximal_image
from flowrel.reports import flow_report
from oracles import (
    apply,
    element_of,
    ideal_lists,
    image_tuple,
    kernel_signature,
    reference_first_nonproximal_image,
    reference_invertible_image_check,
    reference_minimal_ideal_collapse,
    reference_proximal_candidates,
    reference_proximal_sets,
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
        r = check_rA_proximal_equiv(ax)
        assert r.passed, r.detail


def test_rA_counterexample_exists_when_p_not_equivalence():
    # with two ideals some element must carry some proximal set outside
    # the proximal family; the check passes because both sides of the
    # biconditional are false together
    ax = analyze_flow(TWO_IDEAL_FLOW)
    m = ax.monoid
    r = check_rA_proximal_equiv(ax)
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


def test_invertible_image_check_reports_the_first_counterexample():
    # a kernel row claiming {0, 1} on the rotation: the class {0, 1} is
    # carried to {1, 2}, which the row splits, while {2} stays a point
    ax = analyze_flow(ROTATION3_FLOW)
    check = "invertible_generator_image_of_proximal_set_proximal"
    assert [r.passed for r in proxset_check_suite(ax) if r.name == check] == [True]
    lists = ideal_lists(ax.structure)
    ax = replace(ax, structure=structure_from_lists(**{**lists, "kernels": [(0, 0, 1)]}))
    (result,) = [r for r in proxset_check_suite(ax) if r.name == check]
    assert not result.passed
    assert result.detail == "tA not proximal: A=[0, 1] g=(1, 2, 0)"


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


def subset_table(ax) -> dict[tuple[int, ...], bool]:
    """Whether each state set of 3 or 4 states is proximal, on at most 12
    states (empty above)."""
    n = ax.n_states
    sets = [c for k in (3, 4) for c in combinations(range(n), k)] if n <= 12 else []
    return dict(zip(sets, reference_proximal_sets(ax, sets).tolist()))


def pass_order_classes(ax) -> list[tuple[int, ...]]:
    """The per-ideal classes in (ideal, label) order, the class pass's."""
    return [c for row in ax.structure.classes[:-1] for c in row]


def assert_checks_match_the_candidate_oracles(ax) -> tuple[CheckResult, CheckResult]:
    # on the classes alone the checks reach the all-candidates verdicts,
    # and each names the first counterexample of its reference run on the
    # classes in the pass's order
    subsets = subset_table(ax)
    candidates = reference_proximal_candidates(ax, subsets)
    classes = pass_order_classes(ax)
    image = invertible_image_check(ax)
    assert image.passed == reference_invertible_image_check(ax, candidates, subsets).passed
    assert image == reference_invertible_image_check(ax, classes, {})
    ra = check_rA_proximal_equiv(ax)
    assert ra.passed == reference_rA_proximal_equiv(ax, candidates).passed
    assert ra == reference_rA_proximal_equiv(ax, classes)
    return image, ra


def test_image_and_class_square_checks_match_their_loop_forms():
    kinds = {"invertible": 0, "repeated": 0, "subsets": 0, "no subsets": 0}
    for ax in seeded_analyses(1200, 20261019):
        gens = ax.flow.generators
        kinds["invertible"] += any(len(set(g)) == ax.n_states for g in gens)
        kinds["repeated"] += len(set(gens)) < len(gens)
        kinds["subsets" if 3 <= ax.n_states <= 12 else "no subsets"] += 1
        assert_checks_match_the_candidate_oracles(ax)
        assert sp_matches_class_squares(ax) == reference_sp_matches_class_squares(ax)
        if ax.n_states > 1:  # one off-diagonal SP entry flipped fails both forms
            sp = ax.strongly_proximal.copy()
            sp[0, 1] ^= True
            broken = replace(ax, strongly_proximal=sp)
            assert not sp_matches_class_squares(broken).passed
            assert sp_matches_class_squares(broken) == reference_sp_matches_class_squares(broken)
    assert min(kinds.values()) >= 100, kinds


def rejecting_both(ax, x: int, y: int):
    """The analysis with every set that holds both x and y made not
    proximal, and nothing else: each kernel row collapsing x and y becomes
    two rows, one with x split off its class and one with y, and (x, y)
    leaves P.  Non-proximality stays upward-closed, as it is in a flow."""
    lists = ideal_lists(ax.structure)
    kernels, members, idempotents = [], [], []
    for row, ms, us in zip(lists["kernels"], lists["members"], lists["idempotents"]):
        split = [row] if row[x] != row[y] else [tuple(-1 if s == z else v for s, v in enumerate(row)) for z in (x, y)]
        kernels += split
        members += [ms] * len(split)
        idempotents += [us] * len(split)
    p = ax.proximal.copy()
    p[x, y] = p[y, x] = False
    refinement = kernel_signature(list(zip(*kernels)))
    return replace(ax, proximal=p, structure=structure_from_lists(members, idempotents, kernels, refinement))


def test_injected_image_failures_match_the_loop_form():
    # two seeded states, a proximal pair where there is one, are never
    # together in a proximal set; both checks still reach the verdicts of
    # their all-candidates references and name the first counterexample
    # of the reference run on the classes in the pass's order
    rng = random.Random(7)
    failed = ra_failed = 0
    for ax in seeded_analyses(300, 7):
        if ax.n_states < 2:
            continue
        pairs = np.argwhere(np.triu(ax.proximal, 1)).tolist()
        x, y = rng.choice(pairs) if pairs else rng.sample(range(ax.n_states), 2)
        image, ra = assert_checks_match_the_candidate_oracles(rejecting_both(ax, x, y))
        failed += not image.passed
        ra_failed += not ra.passed
    assert failed >= 30 and ra_failed >= 30, (failed, ra_failed)


# -- the kernel-label set test against the whole-monoid scan -----------------------


def assert_proximal_sets_match_the_monoid_scan(ax, rng):
    n = ax.n_states
    subsets = [c for k in (3, 4) for c in combinations(range(n), k)]
    sets = subsets + [rng.sample(range(n), rng.randint(1, n)) for _ in range(20)]
    expected = (first_collapsers(ax.monoid, sets) >= 0).tolist()
    assert reference_proximal_sets(ax, sets).tolist() == expected
    assert [bool(reference_proximal_sets(ax, [s])[0]) for s in sets] == expected
    assert subset_table(ax) == dict(zip(subsets, expected))
    images = ax.monoid.elements[:, sorted(sets[-1])]  # one row per element
    assert reference_proximal_sets(ax, images).tolist() == (first_collapsers(ax.monoid, images) >= 0).tolist()


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
    assert reference_proximal_sets(analyze_flow(TWO_IDEAL_FLOW), []).tolist() == []


def test_class_pass_matches_the_one_class_reference():
    # seeded kernel rows on 2-80 states from 1-12 labels, so classes run
    # wide, and up to 400 maps, each the identity or a constant (images
    # of classes stay proximal), rarely with one entry changed: the first
    # failure falls anywhere from the first pass to past the last, across
    # passes of several classes and classes split into blocks of maps
    rng = random.Random(31)
    kinds = {"none": 0, "first pass": 0, "later": 0, "blocks": 0}
    for _ in range(500):
        n = rng.randint(2, 80)
        rows = [tuple(rng.choices(range(rng.randint(1, 12)), k=n)) for _ in range(rng.randint(1, 3))]
        refinement = kernel_signature(list(zip(*rows)))
        ax = replace(analyze_flow(FiniteFlow(n, (tuple(range(n)),))),
                     structure=structure_from_lists([()] * len(rows), [()] * len(rows), rows, refinement))
        k = rng.choice((1, 3, rng.randint(100, 400), rng.randint(100, 400)))
        bad = rng.choice((0.0, 1 / k, 2 / k, 0.05))
        maps = np.array([[rng.randrange(n)] * n if rng.random() < 0.5 else list(range(n)) for _ in range(k)])
        for r in [r for r in range(k) if rng.random() < bad]:
            maps[r, rng.randrange(n)] = rng.randrange(n)  # fails on the classes holding that state at most
        maps = maps.astype(rng.choice((np.int16, np.intp)))
        found = first_nonproximal_image(ax, maps)
        expected = reference_first_nonproximal_image(ax, maps)
        assert (found if found is None else (found[0].tolist(), found[1])) == expected
        classes = pass_order_classes(ax)
        if found is None:
            kinds["none"] += 1
        else:  # the image entries of the wide classes before the failing one
            before = k * sum(len(c) for c in classes[:classes.index(tuple(expected[0]))] if len(c) > 1)
            kinds["first pass" if before < 4096 else "later"] += 1
        kinds["blocks"] += k * max(map(len, classes)) > max(4096, maps.nbytes // (10 + 3 * len(rows)))
    assert min(kinds.values()) >= 10, kinds


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


@pytest.mark.parametrize("name", ["T_6", "wide4_300"])
def test_class_pass_stays_within_twice_the_monoid_rows(name):
    # both checks read the class images under every element (or invertible
    # generator) in passes whose temporaries stay within a small multiple
    # of elements.nbytes: T_6 has one class of all 6 states and 46,656
    # elements, the wide flow 4 ideals of 75 classes each
    n = 6 if name == "T_6" else 300
    gens = [tuple((x + 1) % n for x in range(n))]
    gens += [(1, 0, *range(2, n)), (0, 0, *range(2, n))] if name == "T_6" else [tuple(x - x % 4 for x in range(n))]
    ax = analyze_flow(FiniteFlow(n, tuple(gens)))
    tracemalloc.start()
    try:
        assert check_rA_proximal_equiv(ax).passed and invertible_image_check(ax).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ax.monoid.elements.nbytes + 8 * n * n
