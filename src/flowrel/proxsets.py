"""Proximal sets, per-ideal proximal partitions, and maximal strongly
proximal sets on finite flows.

A set is proximal when some monoid element collapses it to a point.  For
each minimal ideal I the maximal I-collapsed sets are exactly the classes
of the relation "p(x) = p(y) for all p in I", and the maximal strongly
proximal sets are the classes of the common refinement over all minimal
ideals.  Set proximality is never inferred from pairwise proximality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .finflow import LeftIdeal, TransMonoid, label_classes
from .relations import CheckResult, FlowAnalysis, _result


@dataclass(frozen=True)
class IProximalSet:
    ideal_index: int
    members: frozenset[int]


@dataclass(frozen=True)
class StronglyProximalSet:
    members: frozenset[int]


def is_proximal_set(m: TransMonoid, members) -> int | None:
    """Some element index collapsing the set to a single point, or None.

    Scans all monoid elements directly; agrees with the tuple formulation
    because a collapser of the set collapses every tuple ranging over it.
    """
    cols = sorted(set(int(x) for x in members))
    if not cols:
        raise ValueError("proximal-set test needs a nonempty set")
    images = m.elements[:, cols]
    hits = np.nonzero((images == images[:, :1]).all(axis=1))[0]
    return int(hits[0]) if hits.size else None


def minimal_ideal_collapse(ax: FlowAnalysis, members) -> LeftIdeal | None:
    """A minimal ideal all of whose elements collapse the set.

    The collapsers of a proximal set form a left ideal, hence contain a
    minimal one; if the set is proximal but no minimal ideal qualifies,
    that breaks the theorem and is reported as a contract violation.
    """
    cols = sorted(set(int(x) for x in members))
    images = ax.monoid.elements[:, cols]
    collapsers = set(np.nonzero((images == images[:, :1]).all(axis=1))[0].tolist())
    for ideal in ax.structure.ideals:
        if set(ideal.members) <= collapsers:
            return ideal
    if collapsers:
        raise AssertionError(
            f"set {cols} is proximal but no minimal ideal collapses it (theorem breach)"
        )
    return None


def i_proximal_partition(ax: FlowAnalysis, ideal: LeftIdeal) -> list[IProximalSet]:
    """Classes of x ~ y iff p(x) = p(y) for every p in the ideal, read
    from the ideal's kernel labels and ordered by least member.

    These are the maximal sets collapsed by every element of the ideal;
    ``validate_partitions`` checks their structure.
    """
    idx = ax.structure.ideals.index(ideal)
    return [IProximalSet(idx, c) for c in label_classes(ideal.kernel)]


def max_strongly_proximal_sets(ax: FlowAnalysis) -> list[StronglyProximalSet]:
    """Classes of the common refinement x ~ y iff p(x) = p(y) for every
    element of every minimal ideal, ordered by least member;
    ``validate_partitions`` checks their structure."""
    return [StronglyProximalSet(c) for c in label_classes(ax.structure.refinement_labels)]


def validate_partitions(ax: FlowAnalysis) -> None:
    """The structural assertions on the per-ideal partitions and their
    common refinement.

    Per ideal: distinct classes have distinct images under every ideal
    element, every class contains an almost periodic point, and every
    class is closed under the ideal's idempotents.  Refinement: each class
    is an intersection of one class per ideal, distinct classes are
    disjoint, and every minimal idempotent maps each class to a singleton.
    """
    st = ax.structure
    e = ax.monoid.elements
    for ideal, js in zip(st.ideals, st.idempotents_by_ideal):
        classes = label_classes(ideal.kernel)
        least = e[np.ix_(ideal.members, [min(c) for c in classes])]
        shared = least[:, :, None] == least[:, None, :]
        pairs = np.argwhere(np.triu(shared.any(axis=0), 1))
        if pairs.size:
            p = ideal.members[shared[:, pairs[0][0], pairs[0][1]].argmax()]
            raise AssertionError(f"distinct ideal-proximal classes share an image under element {p}")
        idem_rows = e[list(js)]
        labels = np.array(ideal.kernel)
        stays = labels[idem_rows] == labels  # u(x) in the class of x
        for c in classes:
            cols = sorted(c)
            if not (idem_rows[:, cols] == cols).any():
                raise AssertionError(f"class {cols} has no almost periodic point")
            for u, closed in zip(js, stays[:, cols].all(axis=1)):
                if not closed:
                    raise AssertionError(f"class {cols} not closed under idempotent {u}")
    classes = label_classes(st.refinement_labels)
    kernels = np.array([ideal.kernel for ideal in st.ideals])
    for c in classes:
        x = min(c)
        if set(np.flatnonzero((kernels == kernels[:, [x]]).all(axis=0)).tolist()) != c:
            raise AssertionError("refinement class is not the intersection of per-ideal classes")
    if sum(map(len, classes)) != len(frozenset().union(*classes)):
        raise AssertionError("maximal strongly proximal sets must be disjoint")
    idem_rows = e[list(st.all_idempotents)]
    for c in classes:
        images = idem_rows[:, sorted(c)]
        for u, collapsed in zip(st.all_idempotents, (images == images[:, :1]).all(axis=1)):
            if not collapsed:
                raise AssertionError(f"idempotent {u} does not collapse class {sorted(c)}")


def sp_matches_class_squares(ax: FlowAnalysis) -> CheckResult:
    """Cross-module consistency: SP equals the union of A x A over the
    maximal strongly proximal sets A."""
    sp = ax.strongly_proximal.matrix
    n = ax.n_states
    built = np.zeros((n, n), dtype=bool)
    for s in max_strongly_proximal_sets(ax):
        idxs = sorted(s.members)
        built[np.ix_(idxs, idxs)] = True
    return _result("sp_equals_union_of_class_squares", np.array_equal(sp, built))


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
    labels = np.array(st.refinement_labels)
    idem_rows = ax.monoid.elements[list(st.all_idempotents)]
    inside = labels[idem_rows] == labels
    for s in max_strongly_proximal_sets(ax):
        cols = sorted(s.members)
        escaping = np.flatnonzero(~inside[:, cols].all(axis=1))
        if escaping.size:
            row = idem_rows[escaping[0]]
            return CheckResult(
                "max_sp_class_fixed_by_all_idempotents",
                False,
                f"u={tuple(row.tolist())} A={cols} uA={sorted(set(row[cols].tolist()))}",
            )
    return CheckResult("max_sp_class_fixed_by_all_idempotents", True)


def _proximal_candidates(ax: FlowAnalysis, size_cap: int = 4,
                         exhaustive_below: int = 13) -> list[tuple[int, ...]]:
    """Structured proximal-set candidates: every per-ideal class, every
    proximal pair, and (on small state sets, where the subset count stays
    polynomial in practice) every proximal subset of size <= cap.

    The pair family alone makes the r(A)-image biconditional exact in the
    converse direction, which only ever needs two-element sets.
    """
    n = ax.n_states
    found: set[tuple[int, ...]] = set()
    found.update((x,) for x in range(n))
    found.update(map(tuple, np.argwhere(np.triu(ax.proximal.matrix, 1)).tolist()))
    if n < exhaustive_below:
        for size in range(3, min(size_cap, n) + 1):
            for combo in combinations(range(n), size):
                if is_proximal_set(ax.monoid, combo) is not None:
                    found.add(combo)
    for ideal in ax.structure.ideals:
        found.update(tuple(sorted(c)) for c in label_classes(ideal.kernel))
    return sorted(found)


def check_rA_proximal_equiv(ax: FlowAnalysis, size_cap: int = 4) -> CheckResult:
    """P is an equivalence relation iff r(A) is proximal for every
    (enumerated) proximal set A and every monoid element r.

    The forward direction is sound for any enumeration; the converse needs
    only two-element sets, which the enumeration always includes.
    """
    m = ax.monoid
    p_equiv = ax.proximal.is_equivalence
    kernels = [np.array(ideal.kernel) for ideal in ax.structure.ideals]
    all_images_proximal = True
    witness = ""
    for cols in _proximal_candidates(ax, size_cap):
        images = m.elements[:, list(cols)]
        ok = np.zeros(m.size, dtype=bool)
        for labels in kernels:
            labelled = labels[images]
            ok |= (labelled == labelled[:, :1]).all(axis=1)
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
