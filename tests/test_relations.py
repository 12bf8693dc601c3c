from dataclasses import replace

import numpy as np
import pytest

from flowrel import finflow, fuzz, relations
from flowrel.finflow import FiniteFlow, close, first_collapsers
from flowrel.fuzz import (
    CONSTANTS_FLOW,
    IDENTITY_FLOW,
    ROTATION3_FLOW,
    SINGLE_IDEAL_SEED_FLOW,
    TWO_IDEAL_FLOW,
    check_factor_theorems,
    check_product_theorems,
    check_unique_ideal_equiv,
    factor_check_suite,
    product_d_published_biconditional,
    pullback,
    relation_check_suite,
    saturate_icer,
)
from flowrel.relations import (
    NotAnIcer,
    analyze_flow,
    diagonal,
    is_equivalence,
    is_minimal_flow,
    product_flow,
    quotient_by_icer,
    sp_witnesses,
    verify_relation_forms,
)
from flowrel.reports import flow_report
from oracles import (
    apply,
    element_of,
    ideal_lists,
    is_idempotent,
    reference_is_equivalence,
    sp_witness_dicts,
    structure_from_lists,
)


def pairs(rel):
    return [tuple(p) for p in np.argwhere(np.triu(rel, 1)).tolist()]


def product_analyses(a, b):
    return analyze_flow(a), analyze_flow(b), analyze_flow(product_flow(a, b))


def factor_analyses(f):
    return analyze_flow(f.source), analyze_flow(f.target)


def idempotent_section(f, src, tgt):
    return [r for r in check_factor_theorems(f, src, tgt) if r.name.startswith("idempotent_section")]


def test_flow_analysis_equality_and_hash_are_by_identity():
    ax = analyze_flow(TWO_IDEAL_FLOW)
    copy = replace(ax, omega=ax.omega.copy())
    assert ax == ax and ax != copy and copy != ax
    assert hash(ax) == hash(ax) and len({ax, copy, ax}) == 2
    assert ax in [copy, ax] and {ax: 1}[ax] == 1


def test_identity_flow_relations():
    ax = analyze_flow(IDENTITY_FLOW)
    assert np.array_equal(ax.omega, np.ones((2, 2), dtype=bool))
    assert np.array_equal(ax.proximal, diagonal(2))
    assert ax.is_distal_flow


def test_constants_flow_relations():
    ax = analyze_flow(CONSTANTS_FLOW)
    assert np.array_equal(ax.omega, diagonal(2))
    assert ax.proximal.all()
    assert ax.strongly_proximal.all()
    assert not ax.distal.any()
    assert not ax.weakly_distal.any()
    assert ax.is_proximal_flow and not ax.is_weakly_distal_flow


def test_rotation_flow_relations():
    ax = analyze_flow(ROTATION3_FLOW)
    assert ax.omega.all()
    assert ax.is_distal_flow
    assert ax.is_weakly_distal_flow
    assert pairs(ax.distal) == [(0, 1), (0, 2), (1, 2)]


def test_two_ideal_flow_relations():
    # hand values: P has four off-diagonal pairs, SP is the diagonal,
    # Omega is the union of the squares of {0,2} and {1,3}
    ax = analyze_flow(TWO_IDEAL_FLOW)
    assert pairs(ax.proximal) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert np.array_equal(ax.strongly_proximal, diagonal(4))
    assert pairs(ax.omega) == [(0, 2), (1, 3)]
    assert ax.is_weakly_distal_flow and not ax.is_distal_flow
    assert not is_equivalence(ax.proximal)


def test_single_ideal_seed_relations():
    ax = analyze_flow(SINGLE_IDEAL_SEED_FLOW)
    assert pairs(ax.proximal) == [(0, 2), (1, 3)]
    assert np.array_equal(ax.proximal, ax.strongly_proximal)
    assert pairs(ax.omega) == [(0, 1), (2, 3)]
    assert is_equivalence(ax.proximal)


def seeded_symmetric_relations(rng, count):
    """Seeded reflexive, symmetric relations on 1-12 points: the classes
    of a random partition (transitive), the same with one pair added
    between two classes, and a random symmetric relation (mostly not)."""
    for _ in range(count):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, int(rng.integers(1, n + 1)), n)
        partition = labels[:, None] == labels
        joined = partition.copy()
        x, y = rng.integers(0, n, 2)
        joined[x, y] = joined[y, x] = True
        noise = rng.random((n, n)) < rng.random()
        yield from (partition, joined, noise | noise.T | np.eye(n, dtype=bool))


def test_is_equivalence_matches_the_matmul_form_on_seeded_relations():
    rng = np.random.default_rng(21)
    verdicts = []
    for rel in seeded_symmetric_relations(rng, 400):
        verdicts.append(is_equivalence(rel))
        assert verdicts[-1] == reference_is_equivalence(rel), rel.astype(int).tolist()
        # a relation that is not reflexive, or not symmetric, is refused
        for broken in (rel & ~np.eye(len(rel), dtype=bool), np.triu(rel)):
            assert is_equivalence(broken) == reference_is_equivalence(broken)
    assert 0 < sum(verdicts) < len(verdicts)


def test_each_verdict_on_equivalence_is_computed_once_per_analysis(monkeypatch):
    # P's verdict is read by two checks and the report, SP's by the
    # relation-form assertion and a check; a replaced copy computes its own
    calls = []
    real = relations.is_equivalence
    monkeypatch.setattr(relations, "is_equivalence", lambda rel: calls.append(rel) or real(rel))
    ax = analyze_flow(TWO_IDEAL_FLOW)
    flow_report(ax)
    assert len(calls) == 2
    assert calls[0] is ax.strongly_proximal and calls[1] is ax.proximal
    copy = replace(ax, proximal=ax.proximal.copy())
    check_unique_ideal_equiv(copy)
    assert len(calls) == 3 and calls[2] is copy.proximal


@pytest.mark.parametrize("flow,expect", [
    (CONSTANTS_FLOW, True),
    (ROTATION3_FLOW, True),
    (TWO_IDEAL_FLOW, False),
    (SINGLE_IDEAL_SEED_FLOW, True),
])
def test_three_way_equivalence(flow, expect):
    rep = check_unique_ideal_equiv(analyze_flow(flow))
    assert rep["consistent"]
    assert rep["p_is_equivalence"] is expect
    assert rep["unique_minimal_ideal"] is expect
    assert rep["p_equals_sp"] is expect
    assert rep["p_forward_invariant"] is expect


def test_minimality():
    assert is_minimal_flow(close(TWO_IDEAL_FLOW))
    assert is_minimal_flow(close(CONSTANTS_FLOW))
    assert not is_minimal_flow(close(IDENTITY_FLOW))
    lift = FiniteFlow(3, ((0, 0, 1),))  # 2 -> 1 -> 0 absorbing
    assert not is_minimal_flow(close(lift))


def test_witnesses():
    ax = analyze_flow(TWO_IDEAL_FLOW)
    m = ax.monoid
    c, c2 = first_collapsers(m, np.array([[0, 1], [0, 2]])).tolist()
    assert c >= 0 and apply(m, c, 0) == apply(m, c, 1)
    assert c2 == -1
    out, inside = sp_witness_dicts(sp_witnesses(ax, np.array([[0, 1], [2, 2]])), ax.structure.ideal_count)
    sep, u = out["separator"], out["fixing_idempotent"]
    px, py = apply(m, sep, 0), apply(m, sep, 1)
    assert px != py
    assert apply(m, u, px) == px and apply(m, u, py) == py
    assert inside == {"collapsing_ideals": 2}


def test_product_flow_shapes():
    prod = product_flow(CONSTANTS_FLOW, CONSTANTS_FLOW)
    assert prod.n_states == 4
    point = FiniteFlow(1, ((0,), (0,)))
    same = product_flow(CONSTANTS_FLOW, point)
    ax = analyze_flow(same)
    ref = analyze_flow(CONSTANTS_FLOW)
    assert np.array_equal(ax.proximal, ref.proximal)
    with pytest.raises(ValueError):
        product_flow(CONSTANTS_FLOW, ROTATION3_FLOW)


@pytest.mark.parametrize("a,b", [
    (CONSTANTS_FLOW, CONSTANTS_FLOW),
    (TWO_IDEAL_FLOW, TWO_IDEAL_FLOW),
    (FiniteFlow(3, ((1, 2, 0),)), FiniteFlow(2, ((1, 0),))),
])
def test_product_theorems_on_fixtures(a, b):
    for r in check_product_theorems(*product_analyses(a, b)):
        assert r.passed, (r.name, r.detail)


def test_product_d_published_biconditional_fails_on_correlated_square():
    # both coordinate pairs of ((0,0),(1,3)) are proximal, but through the
    # two different ideals, and no element collapses both at once; the
    # published two-way law therefore fails on the squared fixture while
    # its coordinate-to-product direction always holds
    ax, _, axp = product_analyses(TWO_IDEAL_FLOW, TWO_IDEAL_FLOW)
    r = product_d_published_biconditional(ax, ax, axp)
    assert not r.passed
    assert product_d_published_biconditional(*product_analyses(CONSTANTS_FLOW, CONSTANTS_FLOW)).passed
    s, t = 0 * 4 + 0, 1 * 4 + 3  # points (0,0) and (1,3)
    assert ax.proximal[0, 1] and ax.proximal[0, 3]
    assert axp.distal[s, t]


def test_product_omega_needs_common_idempotent():
    # in the squared two-ideal flow the pair ((0,1),(2,3)) has both
    # coordinate pairs almost periodic but via different idempotent
    # families, so it is not almost periodic in the product
    prod = product_flow(TWO_IDEAL_FLOW, TWO_IDEAL_FLOW)
    axp = analyze_flow(prod)
    ax = analyze_flow(TWO_IDEAL_FLOW)
    s, t = 0 * 4 + 1, 2 * 4 + 3  # states (0,1) and (2,3)
    assert ax.omega[0, 2] and ax.omega[1, 3]
    assert not axp.omega[s, t]


def test_quotient_rejects_non_icers():
    n = TWO_IDEAL_FLOW.n_states
    bad = np.zeros((n, n), dtype=bool)
    with pytest.raises(NotAnIcer) as exc:
        quotient_by_icer(TWO_IDEAL_FLOW, bad)
    assert exc.value.violated == "reflexive"
    asym = diagonal(n).copy()
    asym[0, 1] = True
    with pytest.raises(NotAnIcer) as exc:
        quotient_by_icer(TWO_IDEAL_FLOW, asym)
    assert exc.value.violated == "symmetric"
    intrans = diagonal(n).copy()
    for x, y in ((0, 1), (1, 0), (1, 2), (2, 1)):
        intrans[x, y] = True
    with pytest.raises(NotAnIcer) as exc:
        quotient_by_icer(TWO_IDEAL_FLOW, intrans)
    assert exc.value.violated == "transitive"
    # {0,1}{2}{3} is an equivalence but not invariant under generator 1
    noninv = diagonal(n).copy()
    noninv[0, 1] = noninv[1, 0] = True
    with pytest.raises(NotAnIcer) as exc:
        quotient_by_icer(TWO_IDEAL_FLOW, noninv)
    assert exc.value.violated == "invariant"


def test_quotient_by_diagonal_is_isomorphism():
    f = quotient_by_icer(TWO_IDEAL_FLOW, diagonal(4))
    assert f.target.n_states == 4
    assert f.point_map == (0, 1, 2, 3)


def test_quotient_by_full_relation_is_point():
    full = np.ones((4, 4), dtype=bool)
    f = quotient_by_icer(TWO_IDEAL_FLOW, full)
    assert f.target.n_states == 1


def test_quotient_by_p_closure_of_two_ideal_flow_is_distal_point():
    ax = analyze_flow(TWO_IDEAL_FLOW)
    icer = saturate_icer(TWO_IDEAL_FLOW, np.argwhere(ax.proximal))
    f = quotient_by_icer(TWO_IDEAL_FLOW, icer)
    assert f.target.n_states == 1
    tgt = analyze_flow(f.target)
    assert tgt.is_distal_flow
    for r in check_factor_theorems(f, ax, tgt):
        assert r.passed, (r.name, r.detail)


def test_factor_theorems_on_sp_quotient():
    ax = analyze_flow(SINGLE_IDEAL_SEED_FLOW)
    f = quotient_by_icer(SINGLE_IDEAL_SEED_FLOW, ax.strongly_proximal)
    assert f.target.n_states == 2
    tgt = analyze_flow(f.target)
    for r in check_factor_theorems(f, ax, tgt):
        assert r.passed, (r.name, r.detail)
    assert tgt.is_weakly_distal_flow


def test_idempotent_section_on_minimal_targets():
    ax = analyze_flow(TWO_IDEAL_FLOW)
    f = quotient_by_icer(TWO_IDEAL_FLOW, diagonal(4))
    results = idempotent_section(f, ax, analyze_flow(f.target))
    assert [r.name for r in results] == ["idempotent_section_target", "idempotent_section_source"]
    for r in results:
        assert r.passed, (r.name, r.detail)


def test_idempotent_section_skips_nonminimal_target():
    flow = FiniteFlow(3, ((0, 0, 1),))
    f = quotient_by_icer(flow, diagonal(3))
    results = idempotent_section(f, *factor_analyses(f))
    assert len(results) == 1 and "skipped" in results[0].detail


def test_fiberwise_proximal_does_not_force_idempotence_outside_kernel():
    # swap plus a constant: the swap satisfies the fiberwise-proximal
    # condition (P is full) without being idempotent; the lemma only
    # holds inside minimal ideals, which is what the check quantifies over
    flow = FiniteFlow(2, ((1, 0), (0, 0)))
    ax = analyze_flow(flow)
    assert ax.proximal.all()
    m = ax.monoid
    swap = element_of(m, (1, 0))
    assert not is_idempotent(m, swap)
    kernel = set(ax.structure.kernel_elements)
    assert swap not in kernel
    f = quotient_by_icer(flow, diagonal(2))
    for r in idempotent_section(f, ax, analyze_flow(f.target)):
        assert r.passed, (r.name, r.detail)


def test_distal_factor_d_preimage_equality_is_not_a_theorem():
    # a distal two-to-one quotient of a distal flow: the fiber pairs are
    # distal upstairs but map onto the diagonal, so D(X) is strictly
    # larger than the preimage of D(Y) even though the factor is distal;
    # only the Omega preimage is exact for distal factors
    flow = FiniteFlow(4, ((1, 0, 3, 2),))
    icer = saturate_icer(flow, [(0, 2), (1, 3)])
    f = quotient_by_icer(flow, icer)
    src = analyze_flow(flow)
    tgt = analyze_flow(f.target)
    assert src.is_distal_flow and tgt.is_distal_flow
    d_pre = pullback(tgt.distal, f.point_map)
    assert src.distal[0, 2] and not d_pre[0, 2]
    for r in check_factor_theorems(f, src, tgt):
        assert r.passed, (r.name, r.detail)


def test_verify_relation_forms_rejects_each_broken_form():
    ax = analyze_flow(TWO_IDEAL_FLOW)
    verify_relation_forms(ax)
    flipped = ax.proximal.copy()
    flipped[0, 1] = flipped[1, 0] = not flipped[0, 1]
    with pytest.raises(AssertionError, match="element form and minimal-ideal form disagree"):
        verify_relation_forms(replace(ax, proximal=flipped))

    ax = analyze_flow(ROTATION3_FLOW)
    chain = diagonal(3)
    chain[0, 1] = chain[1, 0] = chain[1, 2] = chain[2, 1] = True
    with pytest.raises(AssertionError, match="SP failed to be an equivalence relation"):
        verify_relation_forms(replace(ax, strongly_proximal=chain))

    ax = analyze_flow(CONSTANTS_FLOW)
    with pytest.raises(AssertionError, match="SP does not match the all-translates-proximal form"):
        verify_relation_forms(replace(ax, strongly_proximal=diagonal(2)))


def test_analyze_flow_verifies_relation_forms_once(monkeypatch):
    calls = []
    real = relations.verify_relation_forms
    monkeypatch.setattr(relations, "verify_relation_forms", lambda ax: calls.append(ax) or real(ax))
    for flow in (TWO_IDEAL_FLOW, CONSTANTS_FLOW):
        ax = analyze_flow(flow)
        assert calls == [ax]
        calls.pop()


def test_distal_and_weakly_distal_are_complements():
    ax = analyze_flow(TWO_IDEAL_FLOW)
    assert np.array_equal(ax.distal, ~ax.proximal)
    assert np.array_equal(ax.weakly_distal, ~ax.strongly_proximal)


def test_cross_ideal_partner_check_reads_the_analysis_pairs():
    ax = analyze_flow(TWO_IDEAL_FLOW)
    check = "cross_ideal_equivalent_idempotent_exists"
    assert [r.passed for r in relation_check_suite(ax) if r.name == check] == [True]
    (result,) = [r for r in relation_check_suite(replace(ax, equivalent_pairs=[])) if r.name == check]
    assert not result.passed
    first = ax.structure.all_idempotents[0]
    assert result.detail == f"idempotent {first} has no partner in ideal 1"


def count_calls(monkeypatch, name):
    """Wrap the flowrel function ``name`` wherever a module binds it, and
    return the list of positional arguments of each call."""
    calls = []
    real = getattr(finflow, name, None) or getattr(relations, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (finflow, relations, fuzz):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("flow", [TWO_IDEAL_FLOW, FiniteFlow(13, (tuple((x + 1) % 13 for x in range(13)),))])
def test_ideal_structure_runs_once_per_report(monkeypatch, flow):
    # also at n <= 12, where the suite checks Omega against the squared flow
    calls = count_calls(monkeypatch, "ideal_structure")
    ax = analyze_flow(flow)
    flow_report(ax)
    assert calls[0][0] is ax.monoid
    assert [m.n_states for (m,) in calls] == [flow.n_states]


def test_a_broken_structure_reaches_the_three_way_equivalence():
    # TWO_IDEAL_FLOW listed with its first ideal only: P is still no
    # equivalence, but the structure now claims a unique minimal ideal
    ax = analyze_flow(TWO_IDEAL_FLOW)
    lists = ideal_lists(ax.structure)
    first_only = structure_from_lists(lists["members"][:1], lists["idempotents"][:1], lists["kernels"][:1],
                                      lists["refinement"])
    one = replace(ax, structure=first_only, equivalent_pairs=[])
    rep = check_unique_ideal_equiv(one)
    assert rep["unique_minimal_ideal"] and not rep["p_is_equivalence"] and not rep["consistent"]
    (result,) = [r for r in relation_check_suite(one) if r.name == "three_way_equivalence"]
    assert not result.passed and result.detail == str(rep)


def test_is_minimal_flow_runs_once_per_report(monkeypatch):
    calls = count_calls(monkeypatch, "is_minimal_flow")
    ax = analyze_flow(TWO_IDEAL_FLOW)
    report = flow_report(ax)
    assert [m for (m,) in calls] == [ax.monoid]
    assert report["verdicts"]["minimal"] is ax.is_minimal is True


def test_factor_check_suite_analyzes_only_the_quotient(monkeypatch):
    ax = analyze_flow(TWO_IDEAL_FLOW)
    analyses = count_calls(monkeypatch, "analyze_flow")
    thetas = count_calls(monkeypatch, "induced_theta")
    results = factor_check_suite(ax, ax.strongly_proximal)
    assert [flow for (flow,) in analyses] == [quotient_by_icer(TWO_IDEAL_FLOW, ax.strongly_proximal).target]
    assert len(thetas) == 1
    assert "quotient_by_sp_weakly_distal" in [r.name for r in results]
    assert all(r.passed for r in results)


def test_product_checks_close_nothing(monkeypatch):
    ax, bx, px = product_analyses(TWO_IDEAL_FLOW, TWO_IDEAL_FLOW)
    closes = count_calls(monkeypatch, "close")
    check_product_theorems(ax, bx, px)
    product_d_published_biconditional(ax, bx, px)
    assert closes == []


def test_product_and_factor_checks_reject_analyses_of_other_flows():
    ax, bx, _ = product_analyses(CONSTANTS_FLOW, CONSTANTS_FLOW)
    for check in (check_product_theorems, product_d_published_biconditional):
        with pytest.raises(ValueError, match="not of the product of the factor flows"):
            check(ax, bx, analyze_flow(TWO_IDEAL_FLOW))
    point = quotient_by_icer(TWO_IDEAL_FLOW, np.ones((4, 4), dtype=bool))
    src = analyze_flow(TWO_IDEAL_FLOW)
    with pytest.raises(ValueError, match="not of the factor map's source and target"):
        check_factor_theorems(point, src, src)


def passing(*names):
    return [(name, True, "") for name in names]


FACTOR_ALWAYS = passing(
    "factor_p_image_subset", "factor_d_image_superset", "factor_omega_image_equal", "factor_sp_image_subset",
    "factor_p_preimage_superset", "factor_d_preimage_subset", "factor_omega_preimage_superset",
    "factor_sp_preimage_superset", "factor_wd_preimage_subset",
)
FACTOR_TAIL = passing(
    "factor_theta_ideals_onto", "factor_fiber_contains_ap_set", "idempotent_section_target", "idempotent_section_source",
)


def test_factor_and_product_check_lists_are_pinned():
    # these suites appear in no report, so no report digest guards their
    # names, order, verdicts and details
    ax = analyze_flow(TWO_IDEAL_FLOW)
    by_sp = factor_check_suite(ax, ax.strongly_proximal)
    assert [(r.name, r.passed, r.detail) for r in by_sp] == FACTOR_ALWAYS + passing(
        "factor_proximal_p_preimage_equal", "factor_proximal_d_preimage_equal", "factor_proximal_sp_preimage_equal",
        "factor_proximal_rpi_subset_sp", "factor_proximal_wd_image_subset", "factor_distal_omega_preimage_equal",
    ) + FACTOR_TAIL + passing("quotient_by_sp_weakly_distal")
    halved = factor_check_suite(ax, saturate_icer(TWO_IDEAL_FLOW, [(0, 2)]))
    assert [(r.name, r.passed, r.detail) for r in halved] == (
        FACTOR_ALWAYS + passing("factor_distal_omega_preimage_equal") + FACTOR_TAIL
    )
    ax, bx, px = product_analyses(TWO_IDEAL_FLOW, TWO_IDEAL_FLOW)
    results = check_product_theorems(ax, bx, px) + [product_d_published_biconditional(ax, bx, px)]
    assert [(r.name, r.passed, r.detail) for r in results] == passing(
        "product_sp_both_coordinates", "product_d_from_coordinates", "product_wd_some_coordinate",
        "product_omega_subset_of_coordinates", "product_omega_common_idempotent", "product_omega_projection_onto",
        "product_sp_projection_onto", "product_p_projection_subset",
    ) + [("product_d_published_biconditional", False, "product pair ((0,0),(1,3)): product D=True, coordinate D=False")]
