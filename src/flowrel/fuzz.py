"""Every theorem check of flowrel, and the randomized harness that runs them.

``finflow`` and ``relations`` compute a ``FlowAnalysis``; each check here
reads one (the product and factor checks one per flow involved) and
returns ``CheckResult``s.  Every report carries
``relation_check_suite`` and ``proxset_check_suite``, and every fuzzed
instance runs them: a fixed seed fully determines the instances, and a
failing flow is minimized by greedy generator removal and reported as a
replayable text document.

The minimal-ideal checks are array passes over all minimal ideals at once,
read from the structure's flat arrays (every ideal's members, and its
idempotents, in ideal order, each with the number of its ideal): one
S¹p = M search over every ideal's members (``left_action_counterexamples``);
"pu = p" and "uM is a group" for every idempotent of every ideal in one
pass (``ideal_group_tests``), whose
Cayley tables are gathered in blocks and looked up together; the
intra-ideal equivalences read from the diagonal blocks of the analysis'
``idempotent_equivalence``; and label-array reductions for the
partitions (``validate_partitions``).  The proximal-set suite
gathers its candidate sets under every invertible generator at once
(``invertible_image_check``) and compares SP with its class squares as
one label comparison.  Each keeps the first counterexample of the
per-ideal, per-idempotent, member-by-member, class-by-class or
per-candidate loop it replaced; those loops are the references in
``tests/oracles.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .finflow import (
    FactorMap,
    FiniteFlow,
    MonoidTooLarge,
    TransMonoid,
    _row_keys,
    _state_sets,
    compose_rows,
    format_flow,
    idempotent_mask,
    induced_theta,
    row_positions,
    sorted_unique,
)
from .relations import (
    FlowAnalysis,
    analyze_flow,
    diagonal,
    invariance_violation,
    pair_graph,
    pairs_reaching,
    product_flow,
    proximal_sets,
    quotient_by_icer,
    transitive_closure,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def as_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "counterexample": self.detail or None}


def _result(name: str, ok: bool | np.bool_, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), "" if ok else detail)


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
    p, d = ax.proximal, ax.distal
    sp, wd = ax.strongly_proximal, ax.weakly_distal
    om = ax.omega
    out: list[CheckResult] = []

    out.append(_result("sp_is_equivalence", ax.sp_is_equivalence))
    out.append(_result("p_d_partition", (p ^ d).all()))
    out.append(_result("sp_wd_partition", (sp ^ wd).all()))
    out.append(_result("sp_subset_p", not (sp & ~p).any()))
    out.append(_result("d_subset_wd", not (d & ~wd).any()))
    out.append(_result("wd_formula", np.array_equal(wd, (p & ~sp) | d)))
    out.append(_result("p_omega_in_diagonal", not (p & om & ~delta).any()))

    # Omega cells equal the union of fixed-point sets of idempotents fixing x.
    e = m.elements
    ar = np.arange(n)
    idem_rows = e[st.all_idempotents]
    images = np.zeros(idem_rows.shape, dtype=bool)
    images[np.arange(len(idem_rows))[:, None], idem_rows] = True
    bad = np.flatnonzero(((idem_rows == ar).T @ images != om).any(axis=1))
    out.append(_result("omega_cells_are_fixed_point_unions", not bad.size, f"state {bad[0]}" if bad.size else ""))

    eq = check_unique_ideal_equiv(ax)
    out.append(_result("three_way_equivalence", eq["consistent"], str(eq)))

    # ideal algebra, each check with its own first counterexample: one
    # pass over every (ideal, idempotent) slot, in ideal then idempotent order
    members, owner = st.kernel_elements, st.member_ideals
    mp = next(((ki, x) for ki, x in enumerate(left_action_counterexamples(m, members, owner)) if x is not None), None)
    mp_detail = "Mp != M at ideal {} element {}".format(*mp) if mp else ""
    us, slot_ideal = st.all_idempotents, st.idempotent_ideals
    pu_ok, group_ok = ideal_group_tests(m, members, owner, us, slot_ideal)
    bad_pu, bad_group = np.flatnonzero(~pu_ok)[:1], np.flatnonzero(~group_ok)[:1]
    pu_detail = "".join(f"pu != p at ideal {slot_ideal[t]}" for t in bad_pu)
    group_detail = "".join(f"uM not a group at ideal {slot_ideal[t]} idempotent {us[t]}" for t in bad_group)
    pairs = np.argwhere(np.triu(ax.idempotent_equivalence & (slot_ideal[:, None] == slot_ideal), 1))
    intra_detail = "idempotents {} and {} equivalent in ideal {}".format(
        *us[pairs[0]], slot_ideal[pairs[0][0]]) if pairs.size else ""
    out.append(_result("ideal_absorption_Mp_equals_M", not mp_detail, mp_detail))
    out.append(_result("right_identity_pu_equals_p", not pu_detail, pu_detail))
    out.append(_result("uM_is_group", not group_detail, group_detail))
    out.append(_result("intra_ideal_idempotents_not_equivalent", not intra_detail, intra_detail))

    # every minimal idempotent has an equivalent partner in every other
    # minimal ideal, read from the analysis' cross-ideal pairs
    ideal_of = dict(zip(us.tolist(), slot_ideal.tolist()))
    partnered = {(u, ideal_of[v]) for pair in ax.equivalent_pairs for u, v in (pair, pair[::-1])}
    alone = [(u, b) for u, a in ideal_of.items() for b in range(st.ideal_count) if b != a and (u, b) not in partnered]
    out.append(_result("cross_ideal_equivalent_idempotent_exists", not alone,
                       "idempotent {} has no partner in ideal {}".format(*alone[0]) if alone else ""))

    # on minimal flows the proximal cell of x is the idempotent orbit Jx
    if ax.is_minimal:
        orbits = np.zeros((n, n), dtype=bool)
        orbits[ar, idem_rows] = True
        bad = np.flatnonzero((orbits != p).any(axis=1))
        out.append(_result("p_cells_are_idempotent_orbits_when_minimal", not bad.size, f"state {bad[0]}" if bad.size else ""))

    # Omega agrees with the product-flow definition: its pairs are the
    # almost periodic points of the squared flow (skipped on wide state
    # sets, where the (n², n²) reach matrix of the pair graph is large)
    gens = np.array(m.flow.generators)
    if n <= 12:
        out.append(_result("omega_agrees_with_product_flow", np.array_equal(om, almost_periodic_pairs(gens, n))))

    out.extend(invariance_checks(gens, om, sp, p, d))
    return out


def check_unique_ideal_equiv(ax: FlowAnalysis) -> dict:
    """The three-way equivalence: P is an equivalence relation iff the
    monoid has a unique minimal ideal iff P = SP, together with the
    forward-invariance form ((x,y) in P implies s(x,y) in P for all s)."""
    p = ax.proximal
    report = {
        "p_is_equivalence": ax.p_is_equivalence,
        "unique_minimal_ideal": ax.structure.ideal_count == 1,
        "p_equals_sp": bool(np.array_equal(p, ax.strongly_proximal)),
        "p_forward_invariant": invariance_violation(np.array(ax.flow.generators), p) is None,
    }
    report["consistent"] = len(set(report.values())) == 1
    return report


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


def left_action_counterexamples(m: TransMonoid, members: np.ndarray, owner: np.ndarray) -> list[int | None]:
    """For each member list M, the first p in M with S¹p != M, or None,
    read from the generators' left action p -> g∘p (S¹p is what p
    reaches).  List b holds the ``members`` whose ``owner`` is b, in their
    order, and the owners run 0, 1, ... in increasing order without a gap:
    the layout of ``IdealStructure.kernel_elements`` and ``member_ideals``.
    S¹p = M for every p exactly when M is closed under the
    action and every member reaches every other.  If the action leaves M,
    or the first member does not reach all of M (listed in increasing
    order, once each), the first member is the first counterexample;
    otherwise it is the first member that cannot reach the first back.

    One search for all the lists: node (b, p) of list b is keyed b·|S| + p,
    so lists that share or repeat a member stay apart; one ``positions``
    gather finds every g∘p, and an edge leaving its list becomes a loop.
    The forward reach from each list's first member and the backward
    reach into it grow in one loop, a pass over all the edges a step."""
    flat, owner = np.asarray(members, dtype=np.intp), np.asarray(owner, dtype=np.intp)
    ids = np.arange(owner[-1] + 1)
    firsts = flat[np.searchsorted(owner, ids)]
    keys = sorted_unique(owner * m.size + flat)
    node_list, node_p = np.divmod(keys, m.size)
    gens = np.array(m.flow.generators, dtype=m.elements.dtype)
    to = node_list * m.size + m.positions(gens[:, m.elements[node_p]])  # (k, nodes): the key of g∘p
    succ = np.minimum(np.searchsorted(keys, to), keys.size - 1)
    stays = keys[succ] == to
    succ = np.where(stays, succ, np.arange(keys.size))
    start = np.zeros(keys.size, dtype=bool)
    start[np.searchsorted(keys, ids * m.size + firsts)] = True
    ahead, back, count = start.copy(), start, 0
    while count < (count := np.count_nonzero(ahead) + np.count_nonzero(back)):  # until neither grows
        ahead[succ[:, ahead]] = True
        back = back | back[succ].any(axis=0)
    # the first member's test: the list is closed, reached, and increasing
    whole = np.logical_and.reduceat(stays.all(axis=0) & ahead, np.searchsorted(node_list, ids))
    whole[owner[1:][(flat[1:] <= flat[:-1]) & (owner[1:] == owner[:-1])]] = False
    stuck = np.flatnonzero(~back)[::-1]  # so that each list's least stuck member is written last
    first_stuck = dict(zip(node_list[stuck].tolist(), node_p[stuck].tolist()))
    return [first_stuck.get(b) if ok else int(firsts[b]) for b, ok in enumerate(whole.tolist())]


def _blocks(total: int, size: int):
    """Consecutive slices of ``range(total)`` of at most ``size`` (at least 1) each."""
    step = max(1, size)
    return (slice(lo, lo + step) for lo in range(0, total, step))


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]) concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def ideal_group_tests(m: TransMonoid, members: np.ndarray, owner: np.ndarray, us: np.ndarray,
                      slot_list: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each slot t, an element u = ``us[t]`` paired with the member list
    M of list ``slot_list[t]``: whether p∘u = p for every p in M, and
    whether uM is a group with identity u, every slot in one pass.  List b
    is the ``members`` whose ``owner`` is b, the owners in increasing order
    (``left_action_counterexamples``' layout).

    Node (t, g) of slot t's set uM is keyed t·|S| + g.  The products u∘p
    and p∘u of every slot's members are gathered in blocks no larger than
    ``elements``, one ``positions`` call a block naming the nodes.  u must
    be a node, and u∘a = a∘u = a on whole rows for every node a; then
    a = a∘u is fixed by its values on the image I of u, so each slot's
    Cayley table is read on rows restricted to I (padded with I's least
    point to the widest image): the products a∘c of every slot's pairs of
    nodes are gathered in blocks of at most ``elements.size`` entries and
    looked up among the restricted rows by their keys, the slot prefixed.
    The table must be closed, and every node's restricted row must have
    rank |I|, which decides the group (the H-classes of a completely
    simple kernel are groups: Clifford & Preston, 1961).  Proof: u = u∘u
    fixes I pointwise and every node a = u∘a maps I into I, so a -> a|I
    is a homomorphism into the maps of I, one-to-one as a = a∘u, taking u
    to the identity.  If each a|I has rank |I| it permutes I, and a closed
    finite set of permutations holding the identity is a group.  If uM is
    a group, a∘c = u gives a|I ∘ c|I = id, so a|I is onto I."""
    e, size = m.elements, m.size
    slots = np.arange(us.size)
    if not us.size:
        return np.ones(0, dtype=bool), np.ones(0, dtype=bool)
    sizes = np.bincount(owner, minlength=slot_list.max() + 1)
    entry_slot = np.repeat(slots, sizes[slot_list])
    entry_p = np.asarray(members, dtype=np.intp)[_ragged((np.cumsum(sizes) - sizes)[slot_list], sizes[slot_list])]
    pu_bad = np.zeros(entry_p.size, dtype=bool)
    up = np.empty(entry_p.size, dtype=np.intp)
    for b in _blocks(entry_p.size, size):
        rows, urows = e[entry_p[b]], e[us[entry_slot[b]]]
        pu_bad[b] = (compose_rows(rows, urows) != rows).any(axis=1)
        up[b] = m.positions(compose_rows(urows, rows))
    pu_ok = np.bincount(entry_slot[pu_bad], minlength=us.size) == 0

    # the nodes of every slot's uM; u must be one, and u∘a = a∘u = a
    keys = sorted_unique(entry_slot * size + up)
    node_slot, node = np.divmod(keys, size)
    start = np.searchsorted(node_slot, slots)
    count = np.diff(np.append(start, keys.size))
    ok = keys[np.minimum(np.searchsorted(keys, slots * size + us), keys.size - 1)] == slots * size + us
    for b in _blocks(keys.size, size):
        rows, urows = e[node[b]], e[us[node_slot[b]]]
        moved = (compose_rows(urows, rows) != rows) | (compose_rows(rows, urows) != rows)
        ok[node_slot[b][moved.any(axis=1)]] = False

    # each node's row on the image of its u, keyed with its slot
    ranked = np.sort(e[us], axis=1)
    first = np.ones(ranked.shape, dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    column = np.cumsum(first, axis=1) - 1
    image = np.repeat(ranked[:, :1], column[:, -1].max() + 1, axis=1)
    image[slots[:, None], column] = ranked
    restricted = e[node[:, None], image[node_slot]]
    table = np.column_stack([node_slot, restricted])
    bound = max(m.n_states, us.size)
    order = np.argsort(_row_keys(table, bound))

    # every slot's Cayley table is closed, and every node's restricted row
    # has the rank of its u
    squares = count * count
    pair_slot = np.repeat(slots, squares)
    row_of, col_of = np.divmod(np.arange(pair_slot.size) - (np.cumsum(squares) - squares)[pair_slot], count[pair_slot])
    a, c = start[pair_slot] + row_of, start[pair_slot] + col_of
    product = np.empty(pair_slot.size, dtype=np.intp)
    for b in _blocks(pair_slot.size, e.size // table.shape[1]):
        query = np.column_stack([pair_slot[b], np.take(e, restricted[c[b]] + (node[a[b]] * m.n_states)[:, None])])
        product[b] = row_positions(table, query, order, bound)
    ok[pair_slot[product < 0]] = False
    spread = np.sort(restricted, axis=1)
    ranks = 1 + np.count_nonzero(spread[:, 1:] != spread[:, :-1], axis=1)
    ok[node_slot[ranks != column[node_slot, -1] + 1]] = False
    return pu_ok, ok


def almost_periodic_pairs(gens: np.ndarray, n: int) -> np.ndarray:
    """The almost periodic points of the squared flow, as an ``(n, n)``
    pair relation.  A point of a finite flow is almost periodic iff its
    orbit closure is minimal, that is iff it lies in a bottom strongly
    connected component of its orbit graph: every node it reaches reaches
    it back.  Read from the reach matrix of the pair graph."""
    edges = diagonal(n * n)
    edges[np.arange(n * n), pair_graph(gens, n)] = True
    reach = transitive_closure(edges)
    return ~(reach & ~reach.T).any(axis=1).reshape(n, n)


# proximal-set suite -------------------------------------------------------


def proxset_check_suite(ax: FlowAnalysis) -> list[CheckResult]:
    """The proximal-set suite: refinement structure, SP decomposition, the
    r(A) biconditional and the invertible-image check.  The small subsets
    are tested once, for both checks that enumerate them."""
    subsets = proximal_subsets(ax)
    candidates = proximal_candidates(ax, subsets)
    return [
        validate_partitions(ax),
        sp_matches_class_squares(ax),
        check_rA_proximal_equiv(ax, candidates),
        invertible_image_check(ax, candidates, subsets),
    ]


def invertible_image_check(ax: FlowAnalysis, candidates: list[tuple[int, ...]],
                           subsets: dict[tuple[int, ...], bool]) -> CheckResult:
    """The image of a proximal set under an invertible generator stays
    proximal (the translate lemma; its proof needs the inverse, and it
    genuinely fails for non-invertible monoid generators); checked on the
    ``candidates`` of at most 3 states and on every per-ideal class.

    The chosen candidates become rows padded with their least member
    (``finflow._state_sets``), gathered under every invertible generator
    at once.  An invertible map keeps a set's size, so the images of 3-
    and 4-sets are read from ``subsets`` (``proximal_subsets``) when it
    lists them, and every other image is tested in one ``proximal_sets``
    call.  The counterexample is the first failing (candidate, generator)
    in candidate order, then generator order."""
    name = "invertible_generator_image_of_proximal_set_proximal"
    n = ax.n_states
    gens = np.array(ax.flow.generators)
    invertible = gens[(np.sort(gens, axis=1) == np.arange(n)).all(axis=1)]
    if not invertible.size:
        return CheckResult(name, True)
    classes = set(chain.from_iterable(ax.structure.classes[:-1]))
    small = [c for c in candidates if len(c) <= 3 or c in classes]
    sizes = np.fromiter(map(len, small), np.intp, len(small))
    rows = _state_sets(small)
    images = invertible[:, rows].transpose(1, 0, 2)  # (candidate, generator, member)
    proximal = np.empty(images.shape[:2], dtype=bool)
    tested = np.ones(len(small), dtype=bool)
    for k in (3, 4) if subsets else ():
        sized = sizes == k
        tested &= ~sized
        sets = np.sort(images[sized, :, :k], axis=2).reshape(-1, k).tolist()
        proximal[sized] = np.reshape([subsets[t] for t in map(tuple, sets)], (-1, len(invertible)))
    proximal[tested] = proximal_sets(ax, images[tested].reshape(-1, rows.shape[1])).reshape(-1, len(invertible))
    if proximal.all():
        return CheckResult(name, True)
    c, g = np.argwhere(~proximal)[0]
    return CheckResult(name, False, f"tA not proximal: A={list(small[c])} g={tuple(invertible[g].tolist())}")


def proximal_subsets(ax: FlowAnalysis) -> dict[tuple[int, ...], bool]:
    """Whether each state set of size 3 or 4 is proximal, all tested in one
    ``proximal_sets`` call; empty above 12 states, where the subset count
    is no longer small."""
    n = ax.n_states
    sets = [c for k in (3, 4) for c in combinations(range(n), k)] if n <= 12 else []
    return dict(zip(sets, proximal_sets(ax, sets).tolist()))


def validate_partitions(ax: FlowAnalysis) -> CheckResult:
    """The structural assertions on the per-ideal partitions and their
    common refinement, failing with the first one broken.

    Per ideal: distinct classes have distinct images under every ideal
    element, every class contains an almost periodic point, and every
    class is closed under the ideal's idempotents.  Refinement: its classes
    are the intersections of one class per ideal, and every minimal
    idempotent maps each class to a singleton.  Failures come ideal by
    ideal, then class by class (by least member, the almost-periodic test
    first), then for the refinement.

    The partitions are read as the structure's first-occurrence
    ``labels``, so class c has the c-th least member; each per-class test
    is a reduction over the columns grouped by label (``_any_by_label``),
    and the refinement is compared with the kernels along one
    lexicographic sort of the states: no ``(n, n)`` array.  Label classes
    are disjoint by construction.
    """
    name = "per_ideal_partitions_valid"
    st = ax.structure
    e = ax.monoid.elements
    labels = st.labels
    least = [np.array([c[0] for c in classes]) for classes in st.classes]  # each class's least member
    for k, (kernel, firsts, classes) in enumerate(zip(labels[:-1], least, st.classes)):
        members, js = st.kernel_elements[st.member_ideals == k], st.all_idempotents[st.idempotent_ideals == k]
        images = e[np.ix_(members, firsts)]
        shared = images[:, :, None] == images[:, None, :]
        pairs = np.argwhere(np.triu(shared.any(axis=0), 1))
        if pairs.size:
            p = members[shared[:, pairs[0][0], pairs[0][1]].argmax()]
            return CheckResult(name, False, f"distinct ideal-proximal classes share an image under element {p}")
        idem_rows = e[js]
        periodic = _any_by_label((idem_rows == np.arange(ax.n_states)).any(axis=0, keepdims=True), kernel)[0]
        leaves = _any_by_label(kernel[idem_rows] != kernel, kernel)  # u(x) outside the class of x
        bad = np.flatnonzero(~periodic | leaves.any(axis=0))
        if bad.size:
            cols = list(classes[bad[0]])
            if not periodic[bad[0]]:
                return CheckResult(name, False, f"class {cols} has no almost periodic point")
            return CheckResult(name, False, f"class {cols} not closed under idempotent {js[leaves[:, bad[0]].argmax()]}")
    # the refinement is constant on each run of equal kernel labels and has
    # as many classes as there are runs
    kernels, refinement = labels[:-1], labels[-1]
    order = np.lexsort(kernels)
    runs = (np.diff(kernels[:, order], axis=1) != 0).any(axis=0)
    splits = np.diff(refinement[order]) != 0
    if (splits & ~runs).any() or np.count_nonzero(runs) != refinement.max():
        return CheckResult(name, False, "refinement class is not the intersection of per-ideal classes")
    idem_rows = e[st.all_idempotents]
    spread = _any_by_label(idem_rows != idem_rows[:, least[-1][refinement]], refinement)
    bad = np.flatnonzero(spread.any(axis=0))
    if bad.size:
        u = st.all_idempotents[spread[:, bad[0]].argmax()]
        return CheckResult(name, False, f"idempotent {u} does not collapse class {list(st.classes[-1][bad[0]])}")
    return CheckResult(name, True)


def _any_by_label(mask: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """For a ``(k, n)`` boolean array and first-occurrence labels of the n
    columns, the ``(k, classes)`` array saying whether row i is True at
    some column of each class: one ``bincount`` of (row, label) over the
    True entries."""
    rows, classes = len(mask), int(labels.max()) + 1
    hits = (np.arange(rows)[:, None] * classes + labels)[mask]
    return np.bincount(hits, minlength=rows * classes).reshape(rows, classes) > 0


def sp_matches_class_squares(ax: FlowAnalysis) -> CheckResult:
    """Cross-module consistency: SP equals the union of A x A over the
    maximal strongly proximal sets A.  These are the classes of the
    refinement labels, so the union pairs exactly the states with equal
    labels: one comparison of the labels with their transpose."""
    labels = ax.structure.labels[-1]
    return _result("sp_equals_union_of_class_squares", np.array_equal(ax.strongly_proximal, labels[:, None] == labels))


def max_sp_sets_fixed_by_all_idempotents(ax: FlowAnalysis) -> CheckResult:
    """The literal closure claim u(A) ⊆ A for every minimal idempotent u
    and every maximal strongly proximal set A.

    The claim holds iff the flow has exactly one minimal left ideal.  With
    ``(p * q)(x) = p(q(x))`` every element of a minimal left ideal I has
    the same kernel K_I, and SP is the intersection of the K_I.

    * If I is the only minimal left ideal and u in I is idempotent, then
      p * u = p for every p in I, so u(x) K_I x, that is u(x) SP x.
    * Conversely let the claim hold, and take minimal left ideals I1, I2
      and an idempotent u in I1.  If x K_1 y then x SP u(x) = u(y) SP y,
      so K_1 is within K_2; by symmetry K_1 = K_2.  An idempotent e in I1
      then gives g * e = g for every g in I2, so g lies in I1 and I2 = I1.

    The published form, without the one-ideal hypothesis, is false; it is
    kept as a standalone check so the failure is visible rather than
    silently weakened.
    """
    st = ax.structure
    labels = st.labels[-1]
    idem_rows = ax.monoid.elements[st.all_idempotents]
    inside = labels[idem_rows] == labels
    for cols in map(list, st.classes[-1]):
        escaping = np.flatnonzero(~inside[:, cols].all(axis=1))
        if escaping.size:
            row = idem_rows[escaping[0]]
            return CheckResult(
                "max_sp_class_fixed_by_all_idempotents",
                False,
                f"u={tuple(row.tolist())} A={cols} uA={sorted(set(row[cols].tolist()))}",
            )
    return CheckResult("max_sp_class_fixed_by_all_idempotents", True)


def proximal_candidates(ax: FlowAnalysis, subsets: dict[tuple[int, ...], bool]) -> list[tuple[int, ...]]:
    """Structured proximal-set candidates, sorted: every singleton, every
    per-ideal class, every proximal pair, and every proximal set among the
    tested ``subsets`` (``proximal_subsets``: all of sizes 3 and 4 on small
    state sets, where the subset count stays polynomial in practice).

    The pair family alone makes the r(A)-image biconditional exact in the
    converse direction, which only ever needs two-element sets.
    """
    n = ax.n_states
    found = {(x,) for x in range(n)} | {c for c, proximal in subsets.items() if proximal}
    found.update(map(tuple, np.argwhere(np.triu(ax.proximal, 1)).tolist()))
    found.update(chain.from_iterable(ax.structure.classes[:-1]))
    return sorted(found)


def check_rA_proximal_equiv(ax: FlowAnalysis, candidates: list[tuple[int, ...]]) -> CheckResult:
    """P is an equivalence relation iff r(A) is proximal for every
    (enumerated) proximal set A and every monoid element r; ``candidates``
    is ``proximal_candidates(ax, proximal_subsets(ax))``.

    The forward direction is sound for any enumeration; the converse needs
    only two-element sets, which the enumeration always includes.
    """
    m = ax.monoid
    p_equiv = ax.p_is_equivalence
    all_images_proximal = True
    witness = ""
    for cols in candidates:
        images = m.elements[:, list(cols)]
        ok = proximal_sets(ax, images)
        if not ok.all():
            r = int(np.nonzero(~ok)[0][0])
            all_images_proximal = False
            witness = f"A={list(cols)} r={tuple(m.elements[r].tolist())} rA={sorted(set(int(v) for v in images[r]))}"
            break
    return _result(
        "rA_proximal_iff_p_equivalence",
        p_equiv == all_images_proximal,
        f"p_equiv={p_equiv} but all r(A) proximal={all_images_proximal}; {witness}",
    )


# product theorems ---------------------------------------------------------


def _coordinates(ax: FlowAnalysis, bx: FlowAnalysis, px: FlowAnalysis) -> tuple[np.ndarray, np.ndarray]:
    """The X and Y coordinate of each product state, once ``px`` is checked
    to be the analysis of the product of the flows of ``ax`` and ``bx``."""
    if px.flow != product_flow(ax.flow, bx.flow):
        raise ValueError("product analysis is not of the product of the factor flows")
    return np.divmod(np.arange(px.n_states), bx.n_states)


def check_product_theorems(ax: FlowAnalysis, bx: FlowAnalysis, px: FlowAnalysis) -> list[CheckResult]:
    """Binary-product characterizations, exhaustively over pairs of pairs,
    from the analyses of the factors X, Y and of their product:

    - SP(XxY) holds iff both coordinate pairs are SP (exact, via ideal
      projections);
    - WD(XxY) holds iff some coordinate pair is WD (exact, complement);
    - a coordinate pair in D forces the product pair into D (the converse
      is not a theorem: two coordinate pairs can be proximal through
      disjoint ideal families with no common collapser, see
      ``product_d_published_biconditional``);
    - Omega(XxY) implies both coordinate pairs are Omega, it decomposes
      through common minimal idempotents, and its projections onto the
      factors are exactly Omega of each factor;
    - the SP projections are onto, the P projections are inclusions only.
    """
    xs, ys = _coordinates(ax, bx, px)
    na, nb = ax.n_states, bx.n_states

    def lift(rel_a: np.ndarray, rel_b: np.ndarray, combine) -> np.ndarray:
        return combine(rel_a[xs[:, None], xs[None, :]], rel_b[ys[:, None], ys[None, :]])

    out = []
    out.append(_result(
        "product_sp_both_coordinates",
        np.array_equal(px.strongly_proximal, lift(ax.strongly_proximal, bx.strongly_proximal, np.logical_and)),
    ))
    out.append(_result(
        "product_d_from_coordinates",
        not (lift(ax.distal, bx.distal, np.logical_or) & ~px.distal).any(),
    ))
    out.append(_result(
        "product_wd_some_coordinate",
        np.array_equal(px.weakly_distal, lift(ax.weakly_distal, bx.weakly_distal, np.logical_or)),
    ))
    out.append(_result(
        "product_omega_subset_of_coordinates",
        not (px.omega & ~lift(ax.omega, bx.omega, np.logical_and)).any(),
    ))

    # Omega decomposes through common minimal idempotents of the product.
    rows = px.monoid.elements[px.structure.all_idempotents]
    wa, wb = rows[:, ys == 0] // nb, rows[:, xs == 0] % nb  # actions on X (column y = 0) and on Y
    if not ((rows // nb == wa[:, xs]).all() and (rows % nb == wb[:, ys]).all()):
        raise AssertionError("product monoid element is not coordinatewise")
    fixed = (wa == np.arange(na))[:, xs] & (wb == np.arange(nb))[:, ys]
    via_common = fixed.T @ fixed
    out.append(_result(
        "product_omega_common_idempotent",
        np.array_equal(px.omega, via_common),
    ))

    shape = (na, nb, na, nb)
    for name, rel_p, rel_a, rel_b, exact in (
        ("omega", px.omega, ax.omega, bx.omega, True),
        ("sp", px.strongly_proximal, ax.strongly_proximal, bx.strongly_proximal, True),
        ("p", px.proximal, ax.proximal, bx.proximal, False),
    ):
        proj_a = rel_p.reshape(shape).any(axis=(1, 3))
        proj_b = rel_p.reshape(shape).any(axis=(0, 2))
        if exact:
            ok = np.array_equal(proj_a, rel_a) and np.array_equal(proj_b, rel_b)
            out.append(_result(f"product_{name}_projection_onto", ok))
        else:
            ok = not (proj_a & ~rel_a).any() and not (proj_b & ~rel_b).any()
            out.append(_result(f"product_{name}_projection_subset", ok))
    return out


def product_d_published_biconditional(ax: FlowAnalysis, bx: FlowAnalysis, px: FlowAnalysis) -> CheckResult:
    """The published two-way product law for D: a product pair is distal
    exactly when some coordinate pair is.

    Only the coordinate-to-product direction is a theorem.  The converse
    needs one minimal ideal of the product to project onto any prescribed
    pair of coordinate ideals, which fails for correlated factors: in the
    squared two-ideal fixture the coordinate pairs can be proximal through
    the two different ideals while nothing collapses both at once.
    """
    xs, ys = _coordinates(ax, bx, px)
    nb = bx.n_states
    lifted = ax.distal[xs[:, None], xs[None, :]] | bx.distal[ys[:, None], ys[None, :]]
    ok = np.array_equal(px.distal, lifted)
    detail = ""
    if not ok:
        s, t = np.argwhere(px.distal != lifted)[0]
        detail = (
            f"product pair (({s // nb},{s % nb}),({t // nb},{t % nb})): "
            f"product D={bool(px.distal[s, t])}, coordinate D={bool(lifted[s, t])}"
        )
    return CheckResult("product_d_published_biconditional", ok, detail)


# factor theorems ----------------------------------------------------------


def pushforward(rel: np.ndarray, point_map: tuple[int, ...], n_target: int) -> np.ndarray:
    out = np.zeros((n_target, n_target), dtype=bool)
    pm = np.array(point_map)
    xs, ys = np.nonzero(rel)
    out[pm[xs], pm[ys]] = True
    return out


def pullback(rel_target: np.ndarray, point_map: tuple[int, ...]) -> np.ndarray:
    pm = np.array(point_map)
    return rel_target[pm[:, None], pm[None, :]]


def detect_fiber_type(f: FactorMap, src: FlowAnalysis) -> dict:
    """A factor is proximal iff all fibers are pairwise proximal, distal
    iff pairwise distal; detected, never declared."""
    pm = np.array(f.point_map)
    same_fiber = np.equal.outer(pm, pm) & ~diagonal(f.source.n_states)
    return {"proximal": bool(src.proximal[same_fiber].all()),
            "distal": bool(src.distal[same_fiber].all())}


def check_factor_theorems(f: FactorMap, src: FlowAnalysis, tgt: FlowAnalysis) -> list[CheckResult]:
    """Image/preimage behaviour of the five relations under a factor map,
    from the analyses of its source and target.

    Always: pi x pi maps P into P, D onto a superset of D, Omega onto
    Omega exactly, SP into SP; the WD preimage is contained in WD; theta
    carries minimal ideals onto minimal ideals.  When the factor is
    detected proximal: P, D and SP preimages are exact, R_pi sits inside
    SP, and WD maps into WD.  When detected distal: the Omega preimage is
    exact.  Every almost periodic base point's fiber contains an almost
    periodic set of the form u . fiber.

    Then, on a minimal target, the idempotent section: a minimal-ideal
    element w of the target is idempotent iff (w(y), y) is proximal for
    every y; and for every source element p of a minimal ideal with
    theta(p) = w, w is idempotent iff (pi(p(x)), pi(x)) is proximal in the
    target for every x.  Skipped (with notice) when the target is not
    minimal.  The quantification stays inside minimal ideals: for
    arbitrary elements the fiberwise-proximal condition does not force
    idempotence on monoid models (a state swap plus a constant map already
    breaks it), while for kernel elements the idempotent left identity of
    the element's ideal fixes its image pointwise and the implication is
    unconditional.
    """
    if src.flow != f.source or tgt.flow != f.target:
        raise ValueError("analyses are not of the factor map's source and target")
    theta = induced_theta(f, src.monoid, tgt.monoid)
    pm = f.point_map
    nt = f.target.n_states
    out: list[CheckResult] = []

    p_img = pushforward(src.proximal, pm, nt)
    d_img = pushforward(src.distal, pm, nt)
    o_img = pushforward(src.omega, pm, nt)
    sp_img = pushforward(src.strongly_proximal, pm, nt)
    out.append(_result("factor_p_image_subset", not (p_img & ~tgt.proximal).any()))
    out.append(_result("factor_d_image_superset", not (tgt.distal & ~d_img).any()))
    out.append(_result("factor_omega_image_equal", np.array_equal(o_img, tgt.omega)))
    out.append(_result("factor_sp_image_subset", not (sp_img & ~tgt.strongly_proximal).any()))

    p_pre = pullback(tgt.proximal, pm)
    d_pre = pullback(tgt.distal, pm)
    o_pre = pullback(tgt.omega, pm)
    sp_pre = pullback(tgt.strongly_proximal, pm)
    wd_pre = pullback(tgt.weakly_distal, pm)
    out.append(_result("factor_p_preimage_superset", not (src.proximal & ~p_pre).any()))
    out.append(_result("factor_d_preimage_subset", not (d_pre & ~src.distal).any()))
    out.append(_result("factor_omega_preimage_superset", not (src.omega & ~o_pre).any()))
    out.append(_result("factor_sp_preimage_superset", not (src.strongly_proximal & ~sp_pre).any()))
    out.append(_result("factor_wd_preimage_subset", not (wd_pre & ~src.weakly_distal).any()))

    kind = detect_fiber_type(f, src)
    if kind["proximal"]:
        out.append(_result("factor_proximal_p_preimage_equal", np.array_equal(src.proximal, p_pre)))
        out.append(_result("factor_proximal_d_preimage_equal", np.array_equal(src.distal, d_pre)))
        out.append(_result("factor_proximal_sp_preimage_equal", np.array_equal(src.strongly_proximal, sp_pre)))
        rpi = np.equal.outer(np.array(pm), np.array(pm))
        out.append(_result("factor_proximal_rpi_subset_sp", not (rpi & ~src.strongly_proximal).any()))
        wd_img = pushforward(src.weakly_distal, pm, nt)
        out.append(_result("factor_proximal_wd_image_subset", not (wd_img & ~tgt.weakly_distal).any()))
    if kind["distal"]:
        out.append(_result("factor_distal_omega_preimage_equal", np.array_equal(src.omega, o_pre)))

    # theta maps minimal ideals onto minimal ideals, covering all of them.
    src_kernel, src_owner = src.structure.kernel_elements, src.structure.member_ideals
    tgt_ideal_sets = {frozenset(tgt.structure.kernel_elements[tgt.structure.member_ideals == k].tolist())
                      for k in range(tgt.structure.ideal_count)}
    images = {frozenset(theta[src_kernel[src_owner == k]].tolist()) for k in range(src.structure.ideal_count)}
    out.append(_result(
        "factor_theta_ideals_onto",
        images == tgt_ideal_sets,
        f"theta images {sorted(map(sorted, images))} vs target ideals {sorted(map(sorted, tgt_ideal_sets))}",
    ))

    # every almost periodic base point's fiber contains u . fiber with
    # theta(u) fixing the base point and u fixing u . fiber pointwise.
    ok_fibers = True
    detail = ""
    tgt_idempotents = tgt.structure.all_idempotents
    fixes = tgt.monoid.elements[tgt_idempotents] == np.arange(nt)
    pm_arr = np.array(pm)
    for y in range(nt):
        if not fixes[:, y].any():
            continue  # y is not almost periodic; hypothesis fails
        w = int(tgt_idempotents[fixes[:, y].argmax()])
        over_w = np.flatnonzero(theta[src_kernel] == w)  # the first is in the first ideal over w
        u = int(src.monoid.idempotent_powers(src_kernel[over_w[:1]])[0]) if over_w.size else None
        if u is None or theta[u] != w:
            ok_fibers = False
            detail = f"no idempotent over {w} for base point {y}"
            break
        urow = src.monoid.elements[u]
        ufib = urow[pm_arr == y]
        if not ((pm_arr[ufib] == y).all() and (urow[ufib] == ufib).all()):
            ok_fibers = False
            detail = f"u.fiber not an almost periodic subset of fiber over {y}"
            break
    out.append(_result("factor_fiber_contains_ap_set", ok_fibers, detail))

    if not tgt.is_minimal:
        out.append(CheckResult("idempotent_section", True, "skipped: target not minimal"))
        return out
    pmat = tgt.proximal
    te = tgt.monoid.elements
    tgt_kernel = np.sort(tgt.structure.kernel_elements)
    rows = te[tgt_kernel]
    bad = np.flatnonzero(idempotent_mask(rows) != pmat[rows, np.arange(nt)].all(axis=1))
    out.append(_result("idempotent_section_target", not bad.size, f"element {tgt_kernel[bad[0]]}" if bad.size else ""))
    fiberwise = pmat[pm_arr[src.monoid.elements[src_kernel]], pm_arr].all(axis=1)
    bad = np.flatnonzero(idempotent_mask(te[theta[src_kernel]]) != fiberwise)
    out.append(_result("idempotent_section_source", not bad.size, f"element {src_kernel[bad[0]]}" if bad.size else ""))
    return out


# icer generation ----------------------------------------------------------


def saturate_icer(flow: FiniteFlow, seed_pairs) -> np.ndarray:
    """Smallest icer containing the seed pairs: alternate symmetric,
    transitive and generator-invariant closure until stable."""
    n = flow.n_states
    mat = diagonal(n).copy()
    for x, y in seed_pairs:
        mat[x, y] = mat[y, x] = True
    gens = np.array(flow.generators)
    while True:
        closed = transitive_closure(mat | mat.T)
        xs, ys = np.nonzero(closed)
        closed[gens[:, xs], gens[:, ys]] = True
        if np.array_equal(closed, mat):
            return mat
        mat = closed


def random_icer(rng: random.Random, ax: FlowAnalysis) -> np.ndarray:
    n = ax.n_states
    k = rng.randint(0, max(1, n // 2))
    seeds = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
    return saturate_icer(ax.flow, seeds)


def factor_check_suite(ax: FlowAnalysis, icer: np.ndarray) -> list[CheckResult]:
    """The factor theorems on the quotient of ``ax``'s flow by ``icer``;
    only the quotient is analyzed."""
    f = quotient_by_icer(ax.flow, icer)
    tgt = analyze_flow(f.target)
    out = check_factor_theorems(f, ax, tgt)
    if np.array_equal(icer, ax.strongly_proximal):
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


def run_fuzz(count: int, seed: int, max_states: int = 6, cap: int | None = None) -> dict:
    if count < 1:
        raise ValueError(f"fuzz count must be at least 1, got {count}")
    if max_states < 2:
        raise ValueError(f"fuzz max_states must be at least 2, got {max_states}")
    rng = random.Random(seed)
    passed = 0
    skipped = 0
    failures = []
    for i in range(count):
        flow = random_flow(rng, max_states=max_states)
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
