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
forward closure, each one ``reach``, the package's one graph search.
Neither builds an array of shape ``(size, n, n)``; the tensor forms live
on in ``tests/oracles.py`` as their references, and set proximality is
read from the minimal ideals' kernels (``first_nonproximal_image``, on
the per-ideal classes), not from a scan of the monoid.

The report's witnesses are batched: the P witness of every pair is
``finflow.first_collapsers`` on all pairs at once, and ``sp_witnesses``
reads the first separating ideal and member of every pair out of SP from
the ideals' kernel labels, and the idempotent powers of all distinct
separators together, as int columns; the per-pair loops and
their dicts are references in ``tests/oracles.py``.  Whether P and SP are
equivalence relations is read once per analysis
(``FlowAnalysis.p_is_equivalence``, ``sp_is_equivalence``).

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
    close,
    equivalence_matrix,
    equivalent_idempotents,
    ideal_structure,
    sorted_unique,
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


def upper_pairs(matrix: np.ndarray, offset: int = 0) -> np.ndarray:
    """The pairs (x, y) with y >= x + offset of a boolean ``(n, n)``
    relation, in row-major order: ``np.argwhere(np.triu(matrix, offset))``
    from one ``flatnonzero``, without the triangle mask."""
    xs, ys = np.divmod(np.flatnonzero(matrix), matrix.shape[1])
    keep = ys - xs >= offset
    return np.stack((xs[keep], ys[keep]), axis=1)


def diagonal(n: int) -> np.ndarray:
    return np.eye(n, dtype=bool)


def reach(steps: np.ndarray, start: np.ndarray, backward: bool = False) -> np.ndarray:
    """The nodes reached from the boolean node set ``start`` along the
    edges v -> steps[i, v] (one successor table per row), the empty path
    included; with ``backward``, the nodes with such a path into
    ``start``, which may then hold one set per row of its leading axes.
    One gather over all k tables a pass, O(k N) on N nodes, until the
    count of reached nodes stops growing."""
    reached = start.copy()
    count = -1
    while count < (count := np.count_nonzero(reached)):
        if backward:
            reached |= reached.take(steps, axis=-1).any(axis=-2)
        else:
            reached[steps[:, reached]] = True
    return reached


def step_powers(succ: np.ndarray, count: int) -> np.ndarray:
    """The successor tables ``succ`` (one row per kind of step, each a map
    of the nodes) and their powers 2, 4, ..., 2^(count - 1), squared one
    from the last: a search over all of them crosses up to 2^count - 1
    steps of one kind in one pass.  At least ``succ`` itself."""
    rows, nodes = succ.shape
    tables = [succ]
    for _ in range(count - 1):
        tables.append(np.take(tables[-1], tables[-1] + np.arange(0, rows * nodes, nodes)[:, None]))
    return np.concatenate(tables)


def pair_graph(gens: np.ndarray, n: int) -> np.ndarray:
    """The successor array of the pair graph (x, y) -> (g(x), g(y)), one
    row per generator (a row of ``gens``), pair (x, y) numbered x * n + y."""
    g = np.asarray(gens, dtype=np.intp)
    return (g[:, :, None] * n + g[:, None, :]).reshape(len(g), n * n)


def pairs_reaching(gens: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The state pairs from which some word in the generators (rows of
    ``gens``), the empty word included, leads into the pair set ``target``:
    a backward ``reach`` in the pair graph, O(k n²) a pass."""
    n = target.shape[0]
    return reach(pair_graph(gens, n), target.reshape(-1), backward=True).reshape(n, n)


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
    gens = ax.generators
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
    has no single truth value.  Whether P and SP are equivalence
    relations, and which idempotents are equivalent, is computed at most
    once per analysis (a replaced copy computes its own); the generator
    array is the monoid's, built once."""

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

    @property
    def generators(self) -> np.ndarray:
        """The flow's maps as one ``(k, n)`` int array (``TransMonoid.generators``)."""
        return self.monoid.generators

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


def first_nonproximal_image(ax: FlowAnalysis, maps: np.ndarray) -> tuple[np.ndarray, int] | None:
    """The first per-ideal class C and map r (a row of the ``(k, n)`` array
    ``maps``) such that r(C) is not a proximal set, as (C's states in
    increasing order, r's row), or None: the classes in (ideal, label)
    order (``IdealStructure.class_arrays``), then the maps in row order.

    A set is proximal iff some minimal ideal's kernel labels are constant
    on it: if s collapses A so does p∘s for p in a minimal ideal, and p∘s
    lies in a minimal ideal, whose members share one kernel.  So the
    proximal sets are exactly the subsets of the per-ideal classes, and
    the classes are the maximal proximal sets.  If A ⊆ C then r(A) ⊆ r(C),
    and a subset of a proximal set is proximal, so "r(A) is proximal for
    every proximal set A" holds iff it holds for every class: read on the
    classes it is exact for all proximal sets, with no enumeration.

    A point's image is a point, so only the classes of two or more states
    are read.  A pass takes whole classes, up to ``width`` image entries
    (maps × states), 4,096 at first and doubling up to ``budget``, so a
    failing flow stops after a small gather and a passing one makes
    O(log n) passes; a single class past the budget takes the maps in
    blocks of rows.  The classes of one size are gathered together as an
    ``(ideal, state, class, map)`` label array, so no class is padded, and
    r(C) is proximal where some ideal's labels all equal those of C's
    least member.  The temporaries stay within a small multiple of
    ``maps.nbytes``."""
    kernels = ax.structure.labels[:-1].astype(maps.dtype)  # labels are states, so they fit
    states, starts = ax.structure.class_arrays
    starts = starts[:np.searchsorted(starts, kernels.size)]
    sizes = np.diff(starts, append=kernels.size)
    starts, sizes = starts[sizes > 1], sizes[sizes > 1]
    reach = np.concatenate(([0], np.cumsum(sizes)))  # a map's image entries up to each class
    k = len(maps)
    budget = max(4096, maps.nbytes // (10 + 3 * len(kernels)))  # an entry: its index as intp, labels, mask
    width, a = 4096, 0
    while a < sizes.size and k:
        b = max(a + 1, int(np.searchsorted(reach, reach[a] + width // k, side="right")) - 1)
        step = max(1, budget // int(reach[b] - reach[a]))
        for lo in range(0, k, step):
            rows = maps[lo:lo + step].T
            ok = np.empty((b - a, rows.shape[1]), dtype=bool)  # (class, map)
            for size in sorted_unique(sizes[a:b]).tolist():
                group = np.flatnonzero(sizes[a:b] == size)
                cells = states[starts[a + group] + np.arange(size)[:, None]]  # (state, class)
                labels = kernels.take(rows[cells], axis=1)  # (ideal, state, class, map)
                ok[group] = (labels == labels[:, :1]).all(axis=1).any(axis=0)
            if not ok.all():
                c, r = np.argwhere(~ok)[0].tolist()
                return states[starts[a + c]:starts[a + c] + sizes[a + c]], lo + r
        a, width = b, min(2 * width, budget)
    return None


# ---------------------------------------------------------------------------
# Witness construction


def sp_witnesses(ax: FlowAnalysis, pairs: np.ndarray) -> dict[str, np.ndarray]:
    """The SP witness of each pair (a row of the ``(k, 2)`` array
    ``pairs``) as three int columns: ``ideal``, the first ideal with a
    member separating the pair, ``separator``, the first such member, and
    ``fixing_idempotent``, that element's idempotent power, which fixes
    the separated images (an almost periodic non-diagonal limit of the
    pair).  A pair in SP, which every minimal ideal collapses, reads -1 in
    all three.  Every member of a minimal left ideal has the ideal's
    kernel (q = s∘p and p = t∘q for members p, q), so the first
    separating ideal is the first whose kernel labels differ on the pair,
    and its first member separates it.  The idempotent powers of all
    distinct separators come from one ``idempotent_powers`` call."""
    m, st = ax.monoid, ax.structure
    labels = st.labels[:-1]
    split = labels[:, pairs[:, 0]] != labels[:, pairs[:, 1]]  # (ideal, pair)
    out = split.any(axis=0)
    ideal = split.argmax(axis=0)[out]
    separator = st.kernel_elements[np.searchsorted(st.member_ideals, ideal)]
    fixing = m.idempotent_powers(separator)
    images = m.elements[separator[:, None], pairs[out]]
    if (m.elements[fixing[:, None], images] != images).any():
        raise AssertionError("idempotent power failed to fix the image pair")
    found = np.full((3, len(pairs)), -1, dtype=np.intp)
    found[:, out] = ideal, separator, fixing
    return dict(zip(("ideal", "separator", "fixing_idempotent"), found))


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
