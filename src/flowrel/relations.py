"""The relation families P, D, Omega, SP, WD on finite flows.

All relations are plain boolean ``(n, n)`` arrays over state pairs.
On a finite flow the generated monoid is the orbit-closure machinery, so
statements about orbit closures become statements quantified over monoid
elements and are computed exactly.  ``analyze_flow`` computes the ideal
structure, the relations and minimality once, and returns them as a
``FlowAnalysis``; this module also builds product flows, quotients by
closed invariant equivalence relations and replayable SP witnesses.  The
theorem checks that read an analysis live in ``fuzz``.

The monoid is generated by the flow's maps and contains the identity, so
"for every s in S" is "for every word in the generators, the empty word
included".  Invariance is therefore checked one generator at a time
(induction on word length makes that exact), and the all-elements forms
are read in the pair graph, whose edges are (x, y) -> (g(x), g(y)) for
each generator g: P's element form is "the diagonal is reachable" and
SP's translate form is the complement of the pairs that reach ~P, a
forward closure.  Neither builds an array of shape ``(size, n, n)``; the
tensor forms live on in ``tests/oracles.py`` as their references, and
set proximality is read from the minimal ideals' kernels
(``proximal_sets``), not from a scan of the monoid.

The report's witnesses are batched: the P witness of every pair is
``finflow.first_collapsers`` on all pairs at once, and ``sp_witnesses``
finds the first separating ideal and member of every pair out of SP with
one blocked scan of all the ideals' members, and the idempotent powers of
all distinct separators together; the per-pair loops are references in
``tests/oracles.py``.  Whether P and SP are equivalence relations is read
once per analysis (``FlowAnalysis.p_is_equivalence``, ``sp_is_equivalence``).

Caveat for non-invertible generators: the classical invariance facts
refine as follows on monoid models.  P is backward invariant and D forward
invariant unconditionally; Omega and SP are forward invariant, WD backward
invariant.  Forward invariance of P is equivalent to P being an
equivalence relation (equivalently, to the monoid having a unique minimal
ideal), and that equivalence is part of the checked theorem suite rather
than an unconditional assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .finflow import (
    FactorMap,
    FiniteFlow,
    IdealStructure,
    TransMonoid,
    _state_sets,
    close,
    equivalence_matrix,
    equivalent_idempotents,
    first_rows,
    ideal_structure,
)


class NotAnIcer(ValueError):
    """Raised when a relation offered for quotienting is not a closed
    invariant equivalence relation; carries the violated property."""

    def __init__(self, prop: str, detail: str = ""):
        self.violated = prop
        super().__init__(f"not an icer: {prop}" + (f" ({detail})" if detail else ""))


def is_equivalence(m: np.ndarray) -> bool:
    """Whether the boolean ``(n, n)`` relation is reflexive, symmetric and
    transitive, in O(n²): a reflexive, symmetric relation is transitive iff
    each row equals the row of its least member (if x ~ y, the least members
    of x and y are related to both, so they are equal and so are the rows)."""
    return bool(m.diagonal().all() and (m == m.T).all() and (m[m.argmax(axis=1)] == m).all())


def diagonal(n: int) -> np.ndarray:
    return np.eye(n, dtype=bool)


def reaching(succ: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The nodes from which some path along the edges v -> succ[i, v], the
    empty path included, leads into the node set ``target``: a fixed-point
    iteration, O(k N) a pass over the k rows of ``succ`` on N nodes, with
    as many passes as the longest shortest path into ``target``."""
    reached = target.copy()
    while True:
        grown = reached | reached[succ].any(axis=0)
        if np.array_equal(grown, reached):
            return reached
        reached = grown


def transitive_closure(rel: np.ndarray) -> np.ndarray:
    """The transitive closure of a boolean ``(N, N)`` relation, squared
    until stable in float32 matmuls: BLAS, exact below N = 2**24, and at
    N = 144 about 20 times faster than numpy's boolean matmul."""
    f = rel.astype(np.float32)
    closed = rel | (f @ f > 0)
    return closed if np.array_equal(closed, rel) else transitive_closure(closed)


def pair_graph(gens: np.ndarray, n: int) -> np.ndarray:
    """The successor array of the pair graph (x, y) -> (g(x), g(y)), one
    row per generator (a row of ``gens``), pair (x, y) numbered x * n + y."""
    g = np.asarray(gens, dtype=np.intp)
    return (g[:, :, None] * n + g[:, None, :]).reshape(len(g), n * n)


def pairs_reaching(gens: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The state pairs from which some word in the generators (rows of
    ``gens``), the empty word included, leads into the pair set ``target``:
    ``reaching`` in the pair graph, O(k n²) a pass."""
    n = target.shape[0]
    return reaching(pair_graph(gens, n), target.reshape(-1)).reshape(n, n)


def invariance_violation(gens: np.ndarray, rel: np.ndarray) -> tuple[int, int, int] | None:
    """The first (generator, x, y) with (x, y) in ``rel`` but its image
    pair not, from one ``(k, n, n)`` gather; None when ``rel`` is forward
    invariant, which checked per generator is exact for the whole monoid."""
    g = np.asarray(gens, dtype=np.intp)
    bad = rel & ~rel[g[:, :, None], g[:, None, :]]
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def verify_relation_forms(ax: FlowAnalysis) -> None:
    """The cross-form assertions on P and SP, run once per ``analyze_flow``.

    P read from the minimal ideals equals the element form (the diagonal
    is reachable in the pair graph); SP is an equivalence relation; SP
    membership is equivalent to every monoid translate of the pair staying
    proximal (no path to ~P).  Disagreement would be an implementation bug,
    since each pair of forms is provably equal.
    """
    p, sp = ax.proximal, ax.strongly_proximal
    gens = np.array(ax.flow.generators)
    direct = pairs_reaching(gens, diagonal(ax.n_states))
    if not np.array_equal(direct, p):
        raise AssertionError(
            "proximal relation: element form and minimal-ideal form disagree; "
            f"diff pairs {np.argwhere(direct != p).tolist()}"
        )
    if not ax.sp_is_equivalence:
        raise AssertionError("SP failed to be an equivalence relation")
    if not np.array_equal(sp, ~pairs_reaching(gens, ~p)):
        raise AssertionError("SP does not match the all-translates-proximal form")


@dataclass(frozen=True, eq=False)
class FlowAnalysis:
    """Everything computed once for a flow: closure, ideal structure,
    minimality and the five relations as boolean ``(n, n)`` arrays (D and
    WD are the complements of P and SP).  Every check reads these fields,
    so an analysis changed with ``dataclasses.replace`` reaches all of
    them.  Equality and hashing are by identity: comparing array fields
    has no single truth value.  Whether P and SP are equivalence relations,
    and which idempotents are equivalent, is computed at most once per
    analysis (a replaced copy computes its own)."""

    flow: FiniteFlow
    monoid: TransMonoid
    structure: IdealStructure
    omega: np.ndarray
    proximal: np.ndarray
    strongly_proximal: np.ndarray
    equivalent_pairs: list[tuple[int, int]]
    is_minimal: bool

    @property
    def n_states(self) -> int:
        return self.flow.n_states

    @property
    def distal(self) -> np.ndarray:
        return ~self.proximal

    @property
    def weakly_distal(self) -> np.ndarray:
        return ~self.strongly_proximal

    @cached_property
    def p_is_equivalence(self) -> bool:
        return is_equivalence(self.proximal)

    @cached_property
    def sp_is_equivalence(self) -> bool:
        return is_equivalence(self.strongly_proximal)

    @cached_property
    def idempotent_equivalence(self) -> np.ndarray:
        """``equivalence_matrix`` with ``structure.all_idempotents`` on both axes."""
        us = self.structure.all_idempotents
        return equivalence_matrix(self.monoid, us, us)

    @property
    def is_distal_flow(self) -> bool:
        return bool((self.proximal == diagonal(self.n_states)).all())

    @property
    def is_proximal_flow(self) -> bool:
        return bool(self.proximal.all())

    @property
    def is_weakly_distal_flow(self) -> bool:
        return bool((self.strongly_proximal == diagonal(self.n_states)).all())


def analyze_flow(flow: FiniteFlow, cap: int | None = None) -> FlowAnalysis:
    """Close the flow and read everything from its minimal ideals once.

    Minimal ideal i collapses (x, y) iff its kernel labels agree there: P
    is the pairs some ideal collapses, SP those every ideal collapses, and
    Omega the pairs fixed by some minimal idempotent (the almost periodic
    pairs of the product flow).  ``verify_relation_forms`` checks P and SP
    against their element and translate forms."""
    m = close(flow, cap=cap)
    st = ideal_structure(m)
    labels = st.labels[:-1]
    collapsed = labels[:, :, None] == labels[:, None, :]
    p, sp = collapsed.any(axis=0), collapsed.all(axis=0)
    us = st.all_idempotents
    fixed = m.elements[us] == np.arange(flow.n_states)
    equivalence = equivalence_matrix(m, us, us)
    ax = FlowAnalysis(
        flow=flow,
        monoid=m,
        structure=st,
        omega=fixed.T @ fixed,
        proximal=p,
        strongly_proximal=sp,
        equivalent_pairs=equivalent_idempotents(st, equivalence),
        is_minimal=is_minimal_flow(m),
    )
    vars(ax)["idempotent_equivalence"] = equivalence  # its cached property, computed once
    verify_relation_forms(ax)
    return ax


def is_minimal_flow(m: TransMonoid) -> bool:
    """Minimal iff every orbit S¹x is the whole state set."""
    reached = np.zeros((m.n_states, m.n_states), dtype=bool)
    reached[np.arange(m.n_states), m.elements] = True  # [x, s(x)] for every s
    return bool(reached.all())


def proximal_sets(ax: FlowAnalysis, sets) -> np.ndarray:
    """Whether each state set (``finflow.first_collapsers``' input) is
    proximal.  If s collapses A so does p∘s for p in a minimal ideal, and
    p∘s lies in a minimal ideal, whose members share one kernel: A is
    proximal iff some minimal ideal's kernel labels are constant on A."""
    labels = ax.structure.labels[:-1, _state_sets(sets).T]
    return (labels == labels[:, :1]).all(axis=1).any(axis=0)  # (ideal, member, set)


# ---------------------------------------------------------------------------
# Witness construction


def sp_witnesses(ax: FlowAnalysis, pairs: np.ndarray) -> list[dict]:
    """The SP witness of each pair (a row of the ``(k, 2)`` array
    ``pairs``).  A pair in SP cites that every minimal ideal collapses it.
    A pair out of SP gets the first ideal with a member separating it, the
    first such member, and that element's idempotent power, which fixes
    the separated images (an almost periodic non-diagonal limit of the
    pair).  One blocked scan (``first_rows``) of the structure's
    ``kernel_elements``, every ideal's members in ideal order, finds every
    separator: its first hit is
    the first member of the first separating ideal.  The idempotent powers
    of all distinct separators come from one ``idempotent_powers`` call."""
    m, st = ax.monoid, ax.structure
    members, owner = st.kernel_elements, st.member_ideals
    hit = first_rows(m.elements, members, pairs, collapsed=False)
    out = hit >= 0
    separator = members[hit[out]]
    fixing = m.idempotent_powers(separator)
    images = m.elements[separator[:, None], pairs[out]]
    if (m.elements[fixing[:, None], images] != images).any():
        raise AssertionError("idempotent power failed to fix the image pair")
    found = zip(owner[hit[out]].tolist(), separator.tolist(), fixing.tolist())
    return [
        dict(zip(("ideal", "separator", "fixing_idempotent"), next(found))) if h >= 0
        else {"collapsing_ideals": st.ideal_count}
        for h in hit.tolist()
    ]


# ---------------------------------------------------------------------------
# Products


def product_flow(a: FiniteFlow, b: FiniteFlow) -> FiniteFlow:
    """Cartesian product with generators paired by index (diagonal action
    of the same generating set).  State (x, y) is encoded as x * |Y| + y."""
    if len(a.generators) != len(b.generators):
        raise ValueError("product flow needs the same number of generators on both sides")
    nb = b.n_states
    gens = []
    for g, h in zip(a.generators, b.generators):
        gens.append(tuple(g[s // nb] * nb + h[s % nb] for s in range(a.n_states * nb)))
    return FiniteFlow(a.n_states * nb, tuple(gens))


# ---------------------------------------------------------------------------
# Quotients and factor maps


def icer_violation(flow: FiniteFlow, matrix: np.ndarray) -> tuple[str, str] | None:
    n = flow.n_states
    if matrix.shape != (n, n):
        return ("shape", f"expected {(n, n)}")
    if not matrix.diagonal().all():
        return ("reflexive", f"missing ({int(np.nonzero(~matrix.diagonal())[0][0])},) loop")
    if not (matrix == matrix.T).all():
        x, y = np.argwhere(matrix != matrix.T)[0]
        return ("symmetric", f"pair ({x},{y})")
    closed = matrix @ matrix
    if (closed & ~matrix).any():
        x, y = np.argwhere(closed & ~matrix)[0]
        return ("transitive", f"pair ({x},{y})")
    bad = invariance_violation(np.array(flow.generators), matrix)
    if bad is not None:
        return ("invariant", "generator {} breaks pair ({},{})".format(*bad))
    return None


def quotient_by_icer(flow: FiniteFlow, matrix: np.ndarray) -> FactorMap:
    """Quotient by a closed invariant equivalence relation.  Target states
    are the classes ordered by least member; generators descend."""
    bad = icer_violation(flow, matrix)
    if bad is not None:
        raise NotAnIcer(*bad)
    least, class_of = np.unique(matrix.argmax(axis=1), return_inverse=True)
    gens = []
    for g in flow.generators:
        img = class_of[np.array(g)]
        if not (img == img[least][class_of]).all():
            raise NotAnIcer("invariant", "generator does not descend to classes")
        gens.append(tuple(img[least].tolist()))
    return FactorMap(flow, FiniteFlow(len(least), tuple(gens)), tuple(class_of.tolist()))
