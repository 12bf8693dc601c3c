"""Proximal sets, per-ideal proximal partitions, and maximal strongly
proximal sets on finite flows.

A set is proximal when some monoid element collapses it to a point, that
is when some minimal ideal's kernel labels are constant on it
(``relations.first_nonproximal_image`` reads this on class images).  For
each minimal ideal I the maximal I-collapsed sets are exactly the classes
of the relation "p(x) = p(y) for all p in I", and the maximal strongly
proximal sets are the classes of the common refinement over all minimal
ideals; both are read from ``IdealStructure.classes``, the classes of its
label rows (the refinement in the last row).  Set proximality is never
inferred from pairwise proximality.  The checks of this structure live in
``fuzz``.
"""

from __future__ import annotations

from .relations import FlowAnalysis


def i_proximal_partition(ax: FlowAnalysis, k: int) -> tuple[tuple[int, ...], ...]:
    """Classes of x ~ y iff p(x) = p(y) for every p in minimal ideal k,
    ordered by least member, each in increasing order.

    These are the maximal sets collapsed by every element of the ideal;
    ``fuzz.validate_partitions`` checks their structure.
    """
    return ax.structure.classes[k]


def max_strongly_proximal_sets(ax: FlowAnalysis) -> tuple[tuple[int, ...], ...]:
    """Classes of the common refinement x ~ y iff p(x) = p(y) for every
    element of every minimal ideal, ordered by least member, each in
    increasing order; ``fuzz.validate_partitions`` checks their structure."""
    return ax.structure.classes[-1]
