"""Randomized theorem verification over finite flows.

Every fuzzed instance runs the full check suites from the relations and
proximal-set modules; a fixed seed fully determines the instances, so runs
are reproducible.  On failure the offending flow is minimized by greedy
generator removal and reported as a replayable text document.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import proxsets
from .finflow import FiniteFlow, MonoidTooLarge, TransMonoid, equivalence_matrix, format_flow, ideal_structure, row_positions
from .relations import (
    CheckResult,
    FlowAnalysis,
    _result,
    analyze_flow,
    check_factor_theorems,
    check_unique_ideal_equiv,
    diagonal,
    idempotent_section_check,
    invariance_violation,
    is_minimal_flow,
    pairs_reaching,
    product_flow,
    quotient_by_icer,
    reaching,
)

# canonical fixtures -------------------------------------------------------

CONSTANTS_FLOW = FiniteFlow(2, ((0, 0), (1, 1)))
ROTATION3_FLOW = FiniteFlow(3, ((1, 2, 0),))
IDENTITY_FLOW = FiniteFlow(2, ((0, 1),))

# Four-state model with two minimal left ideals: the idempotent actions of
# the square substitution system restricted to its fixed points
# (states 0..3 = the four fixed points, paired duals 0-2 and 1-3).
TWO_IDEAL_FLOW = FiniteFlow(4, ((1, 1, 3, 3), (3, 1, 1, 3), (0, 0, 2, 2), (0, 2, 2, 0)))

# Rank-two pair on four states; generates a single minimal ideal and is
# kept as a regression fixture for the ideal machinery.
SINGLE_IDEAL_SEED_FLOW = FiniteFlow(4, ((1, 0, 1, 0), (2, 3, 2, 3)))


def random_flow(rng: random.Random, min_states: int = 2, max_states: int = 6,
                min_gens: int = 1, max_gens: int = 3) -> FiniteFlow:
    n = rng.randint(min_states, max_states)
    k = rng.randint(min_gens, max_gens)
    gens = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))
    return FiniteFlow(n, gens)


# relation-theorem suite ---------------------------------------------------


def relation_check_suite(ax: FlowAnalysis) -> list[CheckResult]:
    """The finite-semigroup theorem suite for one flow."""
    m = ax.monoid
    n = ax.n_states
    st = ax.structure
    delta = diagonal(n)
    p, d = ax.proximal.matrix, ax.distal.matrix
    sp, wd = ax.strongly_proximal.matrix, ax.weakly_distal.matrix
    om = ax.omega.matrix
    out: list[CheckResult] = []

    out.append(_result("sp_is_equivalence", ax.strongly_proximal.is_equivalence))
    out.append(_result("p_d_partition", (p ^ d).all()))
    out.append(_result("sp_wd_partition", (sp ^ wd).all()))
    out.append(_result("sp_subset_p", not (sp & ~p).any()))
    out.append(_result("d_subset_wd", not (d & ~wd).any()))
    out.append(_result("wd_formula", np.array_equal(wd, (p & ~sp) | d)))
    out.append(_result("p_omega_in_diagonal", not (p & om & ~delta).any()))

    # Omega cells equal the union of fixed-point sets of idempotents fixing x.
    e = m.elements
    ar = np.arange(n)
    idem_rows = e[list(st.all_idempotents)]
    images = np.zeros(idem_rows.shape, dtype=bool)
    images[np.arange(len(idem_rows))[:, None], idem_rows] = True
    bad = np.flatnonzero(((idem_rows == ar).T @ images != om).any(axis=1))
    out.append(_result("omega_cells_are_fixed_point_unions", not bad.size, f"state {bad[0]}" if bad.size else ""))

    eq = check_unique_ideal_equiv(ax)
    out.append(_result("three_way_equivalence", eq["consistent"], str(eq)))

    # ideal algebra, each check with its own first counterexample
    mp_detail = pu_detail = group_detail = intra_detail = ""
    for ki, ideal in enumerate(st.ideals):
        members = e[list(ideal.members)]
        pidx = left_action_counterexample(m, ideal.members)
        if pidx is not None and not mp_detail:
            mp_detail = f"Mp != M at ideal {ki} element {pidx}"
        js = st.idempotents_by_ideal[ki]
        for u in js:
            if not (members[:, e[u]] == members).all() and not pu_detail:
                pu_detail = f"pu != p at ideal {ki}"
            if not _is_group(m, u, members) and not group_detail:
                group_detail = f"uM not a group at ideal {ki} idempotent {u}"
        pairs = np.argwhere(np.triu(equivalence_matrix(m, js, js), 1))
        if pairs.size and not intra_detail:
            intra_detail = f"idempotents {js[pairs[0][0]]} and {js[pairs[0][1]]} equivalent in ideal {ki}"
    out.append(_result("ideal_absorption_Mp_equals_M", not mp_detail, mp_detail))
    out.append(_result("right_identity_pu_equals_p", not pu_detail, pu_detail))
    out.append(_result("uM_is_group", not group_detail, group_detail))
    out.append(_result("intra_ideal_idempotents_not_equivalent", not intra_detail, intra_detail))

    # every minimal idempotent has an equivalent partner in every other
    # minimal ideal, read from the analysis' cross-ideal pairs
    ideal_of = {u: a for a, js in enumerate(st.idempotents_by_ideal) for u in js}
    partnered = {(u, ideal_of[v]) for pair in ax.equivalent_pairs for u, v in (pair, pair[::-1])}
    alone = [(u, b) for u, a in ideal_of.items() for b in range(len(st.ideals)) if b != a and (u, b) not in partnered]
    out.append(_result("cross_ideal_equivalent_idempotent_exists", not alone,
                       "idempotent {} has no partner in ideal {}".format(*alone[-1]) if alone else ""))

    # on minimal flows the proximal cell of x is the idempotent orbit Jx
    if is_minimal_flow(m):
        orbits = np.zeros((n, n), dtype=bool)
        orbits[ar, idem_rows] = True
        bad = np.flatnonzero((orbits != p).any(axis=1))
        out.append(_result("p_cells_are_idempotent_orbits_when_minimal", not bad.size, f"state {bad[0]}" if bad.size else ""))

    # Omega agrees with the product-flow definition: its pairs are the
    # almost periodic points of the squared flow (skipped on wide state
    # sets, where the squared flow's rows are quadratically wider)
    if n <= 12:
        sq = square_monoid(m)
        sq_idem = sq.elements[list(ideal_structure(sq).all_idempotents)]
        om_via_square = (sq_idem == np.arange(n * n)).any(axis=0).reshape(n, n)
        out.append(_result("omega_agrees_with_product_flow", np.array_equal(om, om_via_square)))

    out.extend(invariance_checks(np.array(m.flow.generators), om, sp, p, d))
    return out


def invariance_checks(gens: np.ndarray, om, sp, p, d) -> list[CheckResult]:
    """The monoid-model invariance facts (see the module docstring of
    relations), one generator at a time: Omega and SP forward invariant,
    D equal to its all-translates form (no word leads it into ~D), and P
    backward invariant, i.e. D forward invariant."""
    return [
        _result("omega_forward_invariant", invariance_violation(gens, om) is None),
        _result("sp_forward_invariant", invariance_violation(gens, sp) is None),
        _result("d_invariance_biconditional", np.array_equal(d, ~pairs_reaching(gens, ~d))),
        _result("p_backward_invariant", invariance_violation(gens, ~p) is None),
    ]


def left_action_counterexample(m: TransMonoid, members: tuple[int, ...]) -> int | None:
    """The first p in ``members`` with S¹p != M, or None, read from the
    generators' left action p -> g∘p on M (S¹p is what p reaches).  S¹p = M
    for every p exactly when M is closed under the action and every member
    reaches every other.  If the action leaves M, or the first member does
    not reach all of M, the first member is the first counterexample;
    otherwise it is the first member that cannot reach the first back."""
    uniq = np.unique(members)
    pos = m.positions(np.array(m.flow.generators)[:, m.elements[uniq]])  # (k, |M|): g∘p
    succ = np.minimum(np.searchsorted(uniq, pos), uniq.size - 1)
    start = uniq == members[0]
    seen = start.copy()
    while not seen[succ[:, seen]].all():
        seen[succ[:, seen]] = True
    if (uniq[succ] != pos).any() or tuple(uniq[seen].tolist()) != members:
        return members[0]
    back = np.flatnonzero(~reaching(succ, start))
    return int(uniq[back[0]]) if back.size else None


def _is_group(m, u: int, members: np.ndarray) -> bool:
    """Whether uM is a group with identity u, from its Cayley table built
    one row at a time (memory O(|uM| n)): the table is closed, u's row and
    column are the identity, and every member has an inverse."""
    e = m.elements
    group = e[np.unique(m.positions(e[u][members]))]
    table = np.array([row_positions(group, a[group]) for a in group])
    i, ar = int(row_positions(group, e[u])), np.arange(len(group))
    return bool(i >= 0 and (table >= 0).all() and (table[i] == ar).all() and (table[:, i] == ar).all()
                and ((table == i) & (table.T == i)).any(axis=1).all())


def square_monoid(m: TransMonoid) -> TransMonoid:
    """The monoid of ``product_flow(flow, flow)``, read coordinatewise:
    s ↦ s × s maps the monoid one-to-one onto it in the same element
    order, so no second closure is needed."""
    n = m.n_states
    xs, ys = np.divmod(np.arange(n * n), n)
    e = m.elements.astype(np.int16 if n * n < 2**15 else np.int32)
    return TransMonoid(product_flow(m.flow, m.flow), e[:, xs] * n + e[:, ys])


def proxset_check_suite(ax: FlowAnalysis) -> list[CheckResult]:
    """The proximal-set suite: refinement structure, SP decomposition and
    the r(A) biconditional."""
    out: list[CheckResult] = []
    try:
        proxsets.validate_partitions(ax)
        out.append(_result("per_ideal_partitions_valid", True))
    except AssertionError as exc:
        out.append(_result("per_ideal_partitions_valid", False, str(exc)))
    out.append(proxsets.sp_matches_class_squares(ax))
    out.append(proxsets.check_rA_proximal_equiv(ax))

    # the image of a proximal set under an invertible generator stays
    # proximal (the translate lemma; its proof needs the inverse, and it
    # genuinely fails for non-invertible monoid generators)
    invertible = [g for g in ax.flow.generators if len(set(g)) == ax.n_states]
    detail = next((
        f"tA not proximal: A={list(cols)} g={g}"
        for cols in proxsets._proximal_candidates(ax, 3) for g in invertible
        if proxsets.is_proximal_set(ax.monoid, {g[x] for x in cols}) is None
    ), "")
    out.append(_result("invertible_generator_image_of_proximal_set_proximal", not detail, detail))
    return out


# icer generation ----------------------------------------------------------


def saturate_icer(flow: FiniteFlow, seed_pairs) -> np.ndarray:
    """Smallest icer containing the seed pairs: alternate symmetric,
    transitive and generator-invariant closure until stable."""
    n = flow.n_states
    mat = diagonal(n).copy()
    for x, y in seed_pairs:
        mat[x, y] = mat[y, x] = True
    gens = [np.array(g) for g in flow.generators]
    changed = True
    while changed:
        changed = False
        new = mat | mat.T
        closed = new.copy()
        while True:
            step = closed | (closed @ closed)
            if np.array_equal(step, closed):
                break
            closed = step
        for g in gens:
            moved = np.zeros_like(closed)
            xs, ys = np.nonzero(closed)
            moved[g[xs], g[ys]] = True
            closed |= moved
        if not np.array_equal(closed, mat):
            mat = closed
            changed = True
    return mat


def random_icer(rng: random.Random, ax: FlowAnalysis) -> np.ndarray:
    n = ax.n_states
    k = rng.randint(0, max(1, n // 2))
    seeds = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
    return saturate_icer(ax.flow, seeds)


def factor_check_suite(ax: FlowAnalysis, icer: np.ndarray, cap: int | None = None) -> list[CheckResult]:
    """The factor theorems on the quotient of ``ax``'s flow by ``icer``;
    only the quotient is analyzed."""
    f = quotient_by_icer(ax.flow, icer)
    tgt = analyze_flow(f.target, cap=cap)
    out = check_factor_theorems(f, ax, tgt)
    out.extend(idempotent_section_check(f, ax, tgt))
    if np.array_equal(icer, ax.strongly_proximal.matrix):
        out.append(_result(
            "quotient_by_sp_weakly_distal",
            tgt.is_weakly_distal_flow,
            "SP of the quotient is not the diagonal",
        ))
    return out


# harness ------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceOutcome:
    flow: FiniteFlow
    failures: list[CheckResult] = field(default_factory=list)
    skipped: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures and not self.skipped


def run_checks_on_flow(flow: FiniteFlow, cap: int | None = None) -> InstanceOutcome:
    try:
        ax = analyze_flow(flow, cap=cap)
    except MonoidTooLarge:
        return InstanceOutcome(flow, skipped=True)
    except AssertionError as exc:
        return InstanceOutcome(flow, [CheckResult("internal_consistency", False, str(exc))])
    results = relation_check_suite(ax) + proxset_check_suite(ax)
    return InstanceOutcome(flow, [r for r in results if not r.passed])


def minimize_failure(flow: FiniteFlow, cap: int | None = None) -> FiniteFlow:
    """Greedy delta-debugging by generator removal: drop generators while
    some check still fails."""
    current = flow
    improving = True
    while improving and len(current.generators) > 1:
        improving = False
        for i in range(len(current.generators)):
            gens = current.generators[:i] + current.generators[i + 1:]
            candidate = FiniteFlow(current.n_states, gens)
            outcome = run_checks_on_flow(candidate, cap=cap)
            if not outcome.skipped and outcome.failures:
                current = candidate
                improving = True
                break
    return current


def run_fuzz(count: int, seed: int, max_states: int = 6, cap: int | None = None,
             min_states: int = 2, max_gens: int = 3) -> dict:
    if count < 1:
        raise ValueError(f"fuzz count must be at least 1, got {count}")
    if max_states < min_states:
        raise ValueError(f"fuzz max_states must be at least {min_states}, got {max_states}")
    rng = random.Random(seed)
    passed = 0
    skipped = 0
    failures = []
    for i in range(count):
        flow = random_flow(rng, min_states=min_states, max_states=max_states, max_gens=max_gens)
        outcome = run_checks_on_flow(flow, cap=cap)
        if outcome.skipped:
            skipped += 1
        elif outcome.passed:
            passed += 1
        else:
            small = minimize_failure(flow, cap=cap)
            failures.append({
                "instance": i,
                "flow": format_flow(flow),
                "minimized": format_flow(small),
                "checks": [r.as_json() for r in outcome.failures],
            })
    return {
        "schema": 1,
        "kind": "fuzz_summary",
        "count": count,
        "seed": seed,
        "max_states": max_states,
        "passed": passed,
        "skipped_over_cap": skipped,
        "failures": failures,
    }
