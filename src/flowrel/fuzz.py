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
idempotents, in ideal order, each with the number of its ideal), each run
a small number of times, not once per step of a path or per product of a
table: one S¹p = M search over every ideal's members
(``left_action_counterexamples``), whose passes cross many steps of a
generator at once through the generators' step powers
(``relations.step_powers``); "pu = p" and "uM
is a group" for every idempotent of every ideal in one pass
(``ideal_group_tests``), p∘u = p read from each ideal's common kernel and
uM's closure tested on a generating set that at least doubles what it
reaches each round; the intra-ideal equivalences read from the diagonal
blocks of the analysis' ``idempotent_equivalence``; and the partitions
(``validate_partitions``) by one sort of every member's images of the
class representatives and label-array reductions.  The proximal-set suite
reads the r(A) biconditional and the invertible-image lemma on the
per-ideal classes alone, the maximal proximal sets, which decides both
for every proximal set (``relations.first_nonproximal_image``), and
compares SP with its class squares as one label comparison.  Each keeps
the first counterexample of the per-ideal, per-idempotent,
member-by-member or class-by-class loop it replaced; those loops, the
all-candidates forms of the two proximal-set checks, the one-step search
and the whole-table group test are the references in
``tests/oracles.py``.
Every graph search here is a ``relations.reach`` call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .finflow import (
    FactorMap,
    FiniteFlow,
    MonoidTooLarge,
    TransMonoid,
    _cell_code,
    _row_keys,
    compose_rows,
    find,
    format_flow,
    idempotent_mask,
    induced_theta,
    sorted_unique,
)
from .relations import (
    FlowAnalysis,
    analyze_flow,
    diagonal,
    first_nonproximal_image,
    invariance_violation,
    pair_graph,
    pairs_reaching,
    product_flow,
    quotient_by_icer,
    reach,
    step_powers,
    upper_pairs,
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
    pairs = upper_pairs(ax.idempotent_equivalence & (slot_ideal[:, None] == slot_ideal), 1)
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
    # sets, where the reach from every pair-graph node is (n², n²))
    gens = ax.generators
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
        "p_forward_invariant": invariance_violation(ax.generators, p) is None,
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
    reach into it are two ``reach`` calls over ``step_powers`` tables:
    each generator's steps and their powers g^2, g^4, ... up to the
    longest list, so a pass crosses up to that many steps of one
    generator (a rotation's cycle of length L takes about log₂ L passes,
    not L), and no table has more entries than ``elements``."""
    flat, owner = np.asarray(members, dtype=np.intp), np.asarray(owner, dtype=np.intp)
    ids = np.arange(owner[-1] + 1)
    firsts = flat[np.searchsorted(owner, ids)]
    keys = sorted_unique(owner * m.size + flat)
    node_list, node_p = np.divmod(keys, m.size)
    to = node_list * m.size + m.positions(m.generators.take(m.elements[node_p], axis=1))  # (k, nodes): the key of g∘p
    succ = find(keys, to)
    stays = succ >= 0
    succ = np.where(stays, succ, np.arange(keys.size))
    longest = int(np.bincount(node_list).max())
    steps = step_powers(succ, min((longest - 1).bit_length(), m.elements.size // succ.size))
    start = np.zeros(keys.size, dtype=bool)
    start[np.searchsorted(keys, ids * m.size + firsts)] = True
    ahead, back = reach(steps, start), reach(steps, start, backward=True)
    # the first member's test: the list is closed, reached, and increasing
    whole = np.logical_and.reduceat(stays.all(axis=0) & ahead, np.searchsorted(node_list, ids))
    whole[owner[1:][(flat[1:] <= flat[:-1]) & (owner[1:] == owner[:-1])]] = False
    stuck = np.flatnonzero(~back)[::-1]  # so that each list's least stuck member is written last
    first_stuck = dict(zip(node_list[stuck].tolist(), node_p[stuck].tolist()))
    return [first_stuck.get(b) if ok else int(firsts[b]) for b, ok in enumerate(whole.tolist())]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``values`` starts."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1]))) if values.size else values


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

    p∘u = p for every p in M iff u(x) and x share their class in M's
    common kernel (x ~ y iff every member maps them together), read for
    every slot at once from each list's codes of the states.  u must be
    idempotent and a∘u = a on whole rows for every a = u∘p, which holds
    where p∘u = p and is tested row by row only in the other slots; then
    a is fixed by its values on the image I of u, so each a is held as
    its row of columns of I (a(I_j) = I_c), padded with column 0 to the
    widest image, gathered in blocks no larger than ``elements``; the
    products of such rows are gathers of their columns.  The rows of each
    uM are deduplicated by one sort of their keys, the slot prefixed: the
    identity columns must be among them (then u = u∘u is in uM), and
    every row must be a permutation of I's columns.  Proof that this and
    closure decide the group: u = u∘u fixes I pointwise and every a = u∘a
    maps I into I, so a -> a|I is a homomorphism into the maps of I,
    one-to-one as a = a∘u, taking u to the identity.  If each a|I
    permutes I, a closed finite set of permutations holding the identity
    is a group; if uM is a group, a∘c = u gives a|I ∘ c|I = id, so a|I is
    onto I.

    Closure is tested on a generating set X, not on all |uM|² products:
    uM is closed iff uM∘x ⊆ uM for every x in X and right multiplication
    by X reaches all of uM from u (each node is then u∘x1∘...∘xm, and
    a∘u∘x1∘...∘xm stays in uM one factor at a time).  X grows greedily,
    each slot adding its first node not yet reached, in one round for all
    slots: a lookup of every product a∘x among the sorted keys, then a
    ``reach`` over the successor tables of the chosen x and their powers
    (``relations.step_powers``).  What is reached is the subgroup X
    generates, so each new x at least doubles it (Lagrange): at most
    log₂|uM| + 1 rounds."""
    e, size = m.elements, m.size
    if not us.size:
        return np.ones(0, dtype=bool), np.ones(0, dtype=bool)
    slots = np.arange(us.size)
    sizes = np.bincount(owner)
    starts = np.cumsum(sizes) - sizes
    entry_slot = np.repeat(slots, sizes[slot_list])
    entry_p = np.asarray(members, dtype=np.intp)[_ragged(starts[slot_list], sizes[slot_list])]
    urows = e[us]
    ok = idempotent_mask(urows)

    # p∘u = p for every p in M iff u(x) and x share their class in M's
    # common kernel (x ~ y iff every member maps them together), coded by
    # the byte key of x's column of M's rows (padded with M's first member)
    longest = np.arange(sizes.max())
    columns = e[members[starts[:, None] + np.where(longest < sizes[:, None], longest, 0)]]
    keys = _row_keys(columns.transpose(0, 2, 1), m.n_states)
    code = np.searchsorted(sorted_unique(keys), keys)[slot_list]
    pu_ok = (np.take_along_axis(code, urows, axis=1) == code).all(axis=1)

    # the image I of each u, padded with its least point, and each state's
    # column in it, read through u: a = u∘p has a(I_j) = I_c for
    # c = column(u(p(I_j)))
    ranked = np.sort(urows, axis=1)
    first = np.ones(ranked.shape, dtype=bool)
    first[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    column = np.cumsum(first, axis=1) - 1
    rank = column[:, -1] + 1
    image = np.repeat(ranked[:, :1], rank.max(), axis=1)
    image[slots[:, None], column] = ranked
    col = np.zeros(urows.shape, dtype=np.intp)
    col[slots[:, None], ranked] = column
    flat = slots[:, None] * m.n_states
    through_u = np.take(col, urows + flat)
    bound = max(int(rank.max()), us.size)
    cells = np.empty((entry_p.size, 1 + image.shape[1]), dtype=_cell_code(bound))
    cells[:, 0] = entry_slot
    for b in _blocks(entry_p.size, e.size // image.shape[1]):
        t = entry_slot[b]
        cells[b, 1:] = np.take(through_u, np.take(e, entry_p[b, None] * m.n_states + image[t]) + flat[t])

    # u∘u = u, and a∘u = a on whole rows, which needs a test only where
    # p∘u != p for some p of M (else a∘u = u∘p∘u = a)
    bad = np.flatnonzero(~pu_ok[entry_slot])
    for b in _blocks(bad.size, size):
        ur = urows[entry_slot[bad[b]]]
        a = compose_rows(ur, e[entry_p[bad[b]]])
        ok[entry_slot[bad[b]][(compose_rows(a, ur) != a).any(axis=1)]] = False

    # the nodes of every uM, sorted by key; the identity columns among them
    keys = sorted_unique(_row_keys(cells, bound))
    nodes = keys.view(cells.dtype).reshape(keys.size, -1).astype(np.intp)
    node_slot, rows = nodes[:, 0], nodes[:, 1:]
    width = np.arange(rows.shape[1])
    identity = _row_keys(np.column_stack([slots, np.where(width < rank[:, None], width, 0)]), bound)
    unit = find(keys, identity)
    ok &= unit >= 0
    seen = np.zeros(rows.shape, dtype=bool)
    seen[np.arange(len(rows))[:, None], rows] = True
    ok[node_slot[np.count_nonzero(seen, axis=1) != rank[node_slot]]] = False

    # closure on a growing generating set, every slot's round at once
    reached = np.zeros(keys.size, dtype=bool)
    reached[unit[ok]] = True
    levels = (int(np.bincount(node_slot).max()) - 1).bit_length()
    steps = np.empty((0, keys.size), dtype=np.intp)
    while True:
        todo = np.flatnonzero(ok[node_slot] & ~reached)
        if not todo.size:
            return pu_ok, ok
        x = np.full(us.size, -1)
        todo = todo[_run_starts(node_slot[todo])]  # each slot's first node not reached
        x[node_slot[todo]] = todo
        a = np.flatnonzero(x[node_slot] >= 0)
        products = np.take(rows, rows[x[node_slot[a]]] + a[:, None] * rows.shape[1])
        query = _row_keys(np.column_stack([node_slot[a], products]), bound)
        found = find(keys, query)
        hit = found >= 0
        ok[node_slot[a[~hit]]] = False
        succ = np.arange(keys.size)
        succ[a[hit]] = found[hit]
        steps = np.concatenate([steps, step_powers(succ[None], levels)])
        reached = reach(steps, reached)


def almost_periodic_pairs(gens: np.ndarray, n: int) -> np.ndarray:
    """The almost periodic points of the squared flow, as an ``(n, n)``
    pair relation.  A point of a finite flow is almost periodic iff its
    orbit closure is minimal, that is iff it lies in a bottom strongly
    connected component of its orbit graph: every node it reaches reaches
    it back.  Read from one backward ``reach`` in the pair graph from
    every node: row w holds the nodes that reach w."""
    reached_by = reach(pair_graph(gens, n), diagonal(n * n), backward=True)
    return ~(reached_by & ~reached_by.T).any(axis=0).reshape(n, n)


# proximal-set suite -------------------------------------------------------


def proxset_check_suite(ax: FlowAnalysis) -> list[CheckResult]:
    """The proximal-set suite: refinement structure, SP decomposition, the
    r(A) biconditional and the invertible-image check."""
    return [check(ax) for check in (validate_partitions, sp_matches_class_squares, check_rA_proximal_equiv,
                                    invertible_image_check)]


def invertible_image_check(ax: FlowAnalysis) -> CheckResult:
    """The image of a proximal set under an invertible generator stays
    proximal (the translate lemma; its proof needs the inverse, and it
    genuinely fails for non-invertible monoid generators).  Checked on the
    per-ideal classes, the maximal proximal sets, under every invertible
    generator at once (``relations.first_nonproximal_image``), which
    decides it for every proximal set.  The counterexample is the first
    failing (class, generator) in (ideal, label) order, then generator
    order."""
    gens = ax.generators
    invertible = gens[(np.sort(gens, axis=1) == np.arange(ax.n_states)).all(axis=1)]
    found = first_nonproximal_image(ax, invertible)
    detail = "" if found is None else f"tA not proximal: A={found[0].tolist()} g={tuple(invertible[found[1]].tolist())}"
    return _result("invertible_generator_image_of_proximal_set_proximal", found is None, detail)


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
    ``labels``, so class c has the c-th least member, and all ideals are
    tested in one pass.  Distinct images: every member's images of its
    ideal's class representatives are sorted once, keyed (member, image,
    class), so equal neighbours share an image; each ideal's least such
    class pair (c1 < c2), and the first member sharing it, is the first
    collision in row-major order, in O(members · classes) memory with no
    (members, classes, classes) array.  Each per-class test is a
    reduction over the columns grouped by (idempotent or ideal, label)
    (``_any_by_label``), and the refinement is compared with the kernels
    along one lexicographic sort of the states: no ``(n, n)`` array.
    Label classes are disjoint by construction.
    """
    name = "per_ideal_partitions_valid"
    st = ax.structure
    e = ax.monoid.elements
    n = ax.n_states
    labels = st.labels
    kernels, refinement = labels[:-1], labels[-1]
    states, starts = st.class_arrays
    least = states[starts]  # each class's least member, row by row, class by class
    offset = np.searchsorted(starts, np.arange(0, labels.size, n))  # each row's first class
    count = np.diff(offset, append=starts.size)  # classes per row

    members, ideal = st.kernel_elements, st.member_ideals
    classes = count[ideal]
    entry = np.repeat(np.arange(members.size), classes)
    cls = _ragged(np.zeros(members.size, dtype=np.intp), classes)
    images = np.take(e, np.repeat(members * n, classes) + least[np.repeat(offset[ideal], classes) + cls])
    c = int(count.max())
    keys = np.sort((entry * n + images) * c + cls)
    pair = np.flatnonzero(keys[1:] // c == keys[:-1] // c)
    hit = keys[pair] // (n * c)
    hit = hit[np.lexsort((hit, (keys[pair] % c) * c + keys[pair + 1] % c, ideal[hit]))]
    hit = hit[_run_starts(ideal[hit])]  # each ideal's least pair, its first member
    shared = np.full(len(kernels), -1)
    shared[ideal[hit]] = members[hit]

    us, u_ideal = st.all_idempotents, st.idempotent_ideals
    idem_rows = e[us]
    own = kernels[u_ideal]  # each idempotent's ideal kernel
    leaves = _any_by_label(np.take_along_axis(own, idem_rows, axis=1) != own, own, c)  # u(x) outside x's class
    periodic = _any_by_label(idem_rows == np.arange(n), own, c, u_ideal, len(kernels))
    escaped = _any_by_label(leaves, np.arange(c), c, u_ideal, len(kernels))
    bad = (~periodic | escaped) & (np.arange(c) < count[:-1, None])
    failed = np.flatnonzero((shared >= 0) | bad.any(axis=1))
    if failed.size:
        k = failed[0]
        if shared[k] >= 0:
            return CheckResult(name, False, f"distinct ideal-proximal classes share an image under element {shared[k]}")
        first = bad[k].argmax()
        cols = list(st.classes[k][first])
        if not periodic[k, first]:
            return CheckResult(name, False, f"class {cols} has no almost periodic point")
        u = us[np.flatnonzero((u_ideal == k) & leaves[:, first])[0]]
        return CheckResult(name, False, f"class {cols} not closed under idempotent {u}")
    # the refinement is constant on each run of equal kernel labels and has
    # as many classes as there are runs
    order = np.lexsort(kernels)
    runs = (np.diff(kernels[:, order], axis=1) != 0).any(axis=0)
    splits = np.diff(refinement[order]) != 0
    if (splits & ~runs).any() or np.count_nonzero(runs) != refinement.max():
        return CheckResult(name, False, "refinement class is not the intersection of per-ideal classes")
    spread = _any_by_label(idem_rows != idem_rows[:, least[offset[-1]:][refinement]], refinement)
    bad = np.flatnonzero(spread.any(axis=0))
    if bad.size:
        u = st.all_idempotents[spread[:, bad[0]].argmax()]
        return CheckResult(name, False, f"idempotent {u} does not collapse class {list(st.classes[-1][bad[0]])}")
    return CheckResult(name, True)


def _any_by_label(mask: np.ndarray, labels: np.ndarray, classes: int | None = None,
                  groups: np.ndarray | None = None, group_count: int | None = None) -> np.ndarray:
    """For a ``(k, n)`` boolean array and labels of its columns (one row
    for all rows, or one row per row), whether row i is True at some
    column of each class: a ``(k, classes)`` array from one ``bincount``
    of (row, label) over the True entries.  With ``groups``, the group of
    each row, the rows of a group are merged: ``(group_count, classes)``."""
    classes = int(labels.max()) + 1 if classes is None else classes
    rows, count = (np.arange(len(mask)), len(mask)) if groups is None else (groups, group_count)
    hits = (rows[:, None] * classes + labels)[mask]
    return np.bincount(hits, minlength=count * classes).reshape(count, classes) > 0


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


def check_rA_proximal_equiv(ax: FlowAnalysis) -> CheckResult:
    """P is an equivalence relation iff r(A) is proximal for every
    proximal set A and every monoid element r.  Read on the per-ideal
    classes (``relations.first_nonproximal_image``), which decides it for
    every proximal set A: every proximal pair lies in a class, so the
    converse, which needs only two-element sets, is covered too."""
    p_equiv, e = ax.p_is_equivalence, ax.monoid.elements
    found = first_nonproximal_image(ax, e)
    witness = ""
    if found is not None:
        cols, row = found[0], e[found[1]]
        witness = f"A={cols.tolist()} r={tuple(row.tolist())} rA={sorted(set(row[cols].tolist()))}"
    return _result("rA_proximal_iff_p_equivalence", p_equiv == (found is None),
                   f"p_equiv={p_equiv} but all r(A) proximal={found is None}; {witness}")


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
    """The smallest icer (closed invariant equivalence relation) holding
    the seed pairs.  A forward ``reach`` in the pair graph from the seeds,
    their swaps and the diagonal gives E, the least invariant relation
    holding them; E is symmetric, as the swap commutes with the action on
    pairs and fixes the start set.  A backward ``reach`` from every state
    over E's edges, each state's padded to n successors with self-loops,
    gives E's transitive closure T (row w: the states that reach w).  T is
    invariant, since a generator maps a chain x E z1 E ... E y to a chain
    from g(x) to g(y), so T is an icer holding the seeds; and any icer
    holding them holds E (reflexive, symmetric, invariant), hence T."""
    n = flow.n_states
    start = diagonal(n)
    seeds = np.asarray(seed_pairs, dtype=np.intp).reshape(-1, 2)
    start[seeds[:, 0], seeds[:, 1]] = start[seeds[:, 1], seeds[:, 0]] = True
    rel = reach(pair_graph(np.array(flow.generators), n), start.reshape(-1)).reshape(n, n)
    succ = np.where(rel.T, np.arange(n)[:, None], np.arange(n))  # succ[i, v] = i if v E i, else v
    return reach(succ, diagonal(n), backward=True)


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
