"""Proximal sets, per-ideal proximal partitions, and maximal strongly
proximal sets on finite flows.

A set is proximal when some monoid element collapses it to a point.  For
each minimal ideal I the maximal I-collapsed sets are exactly the classes
of the relation "p(x) = p(y) for all p in I", and the maximal strongly
proximal sets are the classes of the common refinement over all minimal
ideals.  Set proximality is never inferred from pairwise proximality.
The checks of this structure live in ``fuzz``.
"""

from __future__ import annotations

import numpy as np

from .finflow import LeftIdeal, TransMonoid, first_collapsers, label_classes
from .relations import FlowAnalysis


def is_proximal_set(m: TransMonoid, members) -> int | None:
    """The first element index collapsing the set to a single point, or
    None; ``first_collapsers`` on one set."""
    hit = int(first_collapsers(m, [members])[0])
    return hit if hit >= 0 else None


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


def i_proximal_partition(ideal: LeftIdeal) -> list[frozenset[int]]:
    """Classes of x ~ y iff p(x) = p(y) for every p in the ideal, read
    from the ideal's kernel labels and ordered by least member.

    These are the maximal sets collapsed by every element of the ideal;
    ``fuzz.validate_partitions`` checks their structure.
    """
    return label_classes(ideal.kernel)


def max_strongly_proximal_sets(ax: FlowAnalysis) -> list[frozenset[int]]:
    """Classes of the common refinement x ~ y iff p(x) = p(y) for every
    element of every minimal ideal, ordered by least member;
    ``fuzz.validate_partitions`` checks their structure."""
    return label_classes(ax.structure.refinement_labels)
