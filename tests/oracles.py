"""Hand-derived expected values and reference implementations shared by
the unit and acceptance tests.

The tables were worked out independently of the library code (by direct
reasoning about the sample points and the published proximality table)
and act as the oracles the implementations are checked against.  The
symbolic references are the simple one-letter-at-a-time forms of the
library's vectorized fast paths, kept as differential oracles for them:
``letterwise_segment`` reads windows one coordinate at a time (an
eventually periodic point through ``periodic_at``), and
``reference_segment`` cuts them by ``str`` slicing from whole cores, the
reference for the views that ``BiSeq.pieces`` hands out;
``reference_pair_type``, a coordinate loop over the centers plus one
joint period on each side, is the reference for ``ternary.pair_type``'s
bounded windows; with the gather
form of the agreement scan (its times, which
``times_to_runs`` turns into the library's runs) and the asymptotic
class read off a walk that carries the angle (the reference for the
binary search over the tier chains), that walk stepping by the case
tables ``forward_tier`` and ``backward_tier`` (the references for
``step`` and ``step_back``, which read the tier chains), and the fixed
80-halving bisection is the reference for ``circles._invert_angle``'s
early stop; the
brute-force minimal
left ideals, the element-by-element ideal kernel matrix and the row-scan
class listing are the references for the minimal ideals of
``ideal_structure`` and the kernel-label forms of the relations.

The scalar element API (``compose``, ``apply``, ``is_idempotent``,
``image_tuple``) answers "which element is this product?" through a tuple
index built here once per monoid, and the one-element-at-a-time forms of
the ideal algebra built on it are the references for the library's row
lookup (``TransMonoid.positions``) and array gathers.

The ``(size, n, n)`` translate tensors quantify over every monoid element
at once; they are the references for the library's pair-graph searches
and per-generator invariance checks, and the per-member S¹p loop is the
reference for the S¹p check read from the generators' left action, one
search over every member list (``fuzz.left_action_counterexamples``).
``reference_validate_partitions`` tests the partitions one class at a
time and is the reference for the label-array reductions of
``fuzz.validate_partitions``; ``reference_invertible_image_check``
and ``reference_rA_proximal_equiv`` test each (candidate, map) image on
its own and are the references for the class pass
(``relations.first_nonproximal_image``) of ``fuzz.invertible_image_check``
and ``fuzz.check_rA_proximal_equiv``: given every proximal set of up to
four states and every per-ideal class (``reference_proximal_candidates``)
they must reach the verdict the pass reaches on the classes alone, and
given the classes in the pass's order its counterexample, and the pass
itself reads one class at a time in ``reference_first_nonproximal_image``;
and ``reference_sp_matches_class_squares`` builds SP's class squares one
``np.ix_`` block at a time, the reference for the label comparison of
``fuzz.sp_matches_class_squares``.  The
squared flow's monoid (``square_monoid``) and its minimal idempotents are
the product-flow reference for Omega read from the pair graph
(``fuzz.almost_periodic_pairs``).  ``reference_reaching``, one edge step
a pass until a pass changes nothing, is the reference for
``relations.reach``, and one such call per node
(``reference_transitive_closure``) for the closure that
``fuzz.saturate_icer`` reads from a backward ``reach``; the closure by
boolean squaring with one generator at a time is the reference for
``fuzz.saturate_icer``.

The one-pair, one-set and one-row forms of the report's batched passes
(P and SP witnesses, set collapse tests, the uM Cayley table and the
minimal-ideal kernel labels) are the references for ``first_collapsers``,
``sp_witnesses``, ``fuzz.ideal_group_tests`` and ``ideal_structure``'s ideals;
the per-ideal and per-idempotent loops of the ideal algebra
(``reference_ideal_algebra_details``, ``reference_ideal_structure``) are
the references for the relation suite's one pass over every (ideal,
idempotent) slot and for ``finflow.ideal_structure``;
``reference_is_equivalence`` (one boolean matmul) is the reference for
the O(n²) ``relations.is_equivalence``;
``first_collapsers``' whole-monoid scan is in turn the reference for the
kernel-label set test ``reference_proximal_sets``, which those two
references read;
``kernel_signature`` labels one row at a time and is the reference for
``finflow.kernel_labels`` and the refinement row of ``IdealStructure.labels``, and
``label_classes``, a dict loop over the states, is the reference for the
class lists of ``IdealStructure.classes``.

The report's per-pair witness dicts are the references for its array
form: ``sp_witness_dicts`` reads ``sp_witnesses``' int columns as the
dicts of ``reference_sp_witness``.

The minimal-ideal passes keep their earlier forms as references:
``reference_kernel_labels`` labels each row by one stable argsort (for
``finflow.kernel_labels``' scatter), ``reference_left_action_counterexamples``
grows the S¹p = M reach one edge step per pass (for the step powers of
``fuzz.left_action_counterexamples``), and ``reference_ideal_group_tests``
gathers and looks up every slot's whole uM Cayley table (for the
generating-set closure of ``fuzz.ideal_group_tests``).

``structure_from_lists`` builds an ``IdealStructure`` from per-ideal
lists, and ``ideal_lists`` reads them back: the per-ideal form of the
structure's flat arrays, in which the references read it and the tests
break it.

``reference_close`` is the tuple-per-element breadth-first closure, the
reference for ``finflow.close``'s layer-at-a-time array search, element
order and cap included.

``build_parser`` is the argparse form of the command line, written out
flag by flag, the reference for ``cli.parse_args``: for the exact forms
it reads itself and for the argparse parser it builds from its table.
"""

import argparse
import functools
import math
import weakref

import numpy as np

from flowrel import fuzz
from flowrel.circles import (
    FIXED,
    INCONCLUSIVE,
    TO_C0,
    TO_CENTER,
    AsymptoticReport,
    CirclePoint,
    radius,
    rim_distance,
)
from flowrel.finflow import (
    FiniteFlow,
    IdealStructure,
    MonoidTooLarge,
    NotAFactorMap,
    TransMonoid,
    _row_keys,
    _state_sets,
    compose_rows,
    element_cap,
    ideal_structure,
    kernel_labels,
    row_positions,
    sorted_unique,
)
from flowrel.fuzz import CheckResult
from flowrel.relations import product_flow
from flowrel.subshift import (
    AdicImage,
    ChaconPoint,
    ChaconXi,
    Dual,
    EventuallyPeriodic,
    EvidenceVerdict,
    Shift,
    SubstFixed,
)

# -- ternary 12-point sample ------------------------------------------------
# The z family is the single nontrivial mutual-agreeability class; the edge
# pairs are exactly those with no agreeing coordinate anywhere.

TERNARY_AGREEABLE_CLASSES = [
    {"c0", "z", "z_shift2", "z_shift40", "z_flip"},
    {"c1"}, {"c2"}, {"alt01"}, {"alt01_shift"}, {"mix01"}, {"mix10"}, {"per012"},
]

TERNARY_EDGE_PAIRS = {
    frozenset(p) for p in [
        ("c0", "c1"), ("c0", "c2"), ("c1", "c2"),
        ("c2", "z"), ("c2", "z_shift2"), ("c2", "z_shift40"),
        ("c2", "alt01"), ("c2", "alt01_shift"), ("c2", "mix10"),
        ("alt01", "alt01_shift"), ("mix01", "mix10"),
    ]
}


def ternary_expected_type(n1: str, n2: str) -> str:
    if any(n1 in cls and n2 in cls for cls in TERNARY_AGREEABLE_CLASSES):
        return "agreeable"
    if frozenset((n1, n2)) in TERNARY_EDGE_PAIRS:
        return "edge"
    return "opposed"


# -- circle-cascade proximality table ----------------------------------------
# A pair is proximal iff it is diagonal, both tiers move outward (even
# outer circles, odd inner circles), both move inward (odd outer circles,
# even inner circles), or one point is the center and the other migrates.


def circle_family(t) -> str:
    f, n = t
    if f == "center":
        return "center"
    if (f, n) == ("C", 0):
        return "rim"
    if f == "C":
        return "out" if (n % 2 == 0 and n >= 2) else "in"
    return "in" if n % 2 == 0 else "out"


def circle_table_says_proximal(t1, t2) -> bool:
    if t1 == t2 == ("center", 0):
        return True  # the center carries no angle: both points are equal
    f1, f2 = circle_family(t1), circle_family(t2)
    if f1 == f2 and f1 in ("in", "out"):
        return True
    if {f1, f2} in ({"center", "in"}, {"center", "out"}):
        return True
    return False


# -- symbolic sequences, one coordinate at a time ------------------------------


def reference_expand(rule: dict[str, str], word: str) -> str:
    return "".join(rule[c] for c in word)


@functools.cache
def reference_chacon_block(k: int) -> str:
    b = "0"
    for _ in range(k):
        b = b + b + "1" + b
    return b


def _chacon_block_covering(need: int) -> str:
    k = 0
    while (3 ** (k + 1) - 1) // 2 < need:
        k += 1
    return reference_chacon_block(k)


def _chacon_anchor_offset(seq, k: int) -> int:
    """Offset of the innermost block's origin inside block k."""
    off = 0
    for j in range(k):
        step = seq.prefix[j] if j < len(seq.prefix) else seq.tail
        blen = len(reference_chacon_block(j))
        off += {1: 0, 2: blen, 3: 2 * blen + 1}[step]
    return off


def letterwise_segment(seq, lo: int, hi: int, recurse=None) -> str:
    """The letters of ``seq`` at coordinates lo..hi, read one coordinate at
    a time from cores grown here, with no call into ``seq.segment``.  The
    window of an inner sequence comes from ``recurse`` (by default this
    function)."""
    recurse = recurse or letterwise_segment
    coords = range(lo, hi + 1)
    if isinstance(seq, SubstFixed):
        left, right = seq.left_seed, seq.right_seed
        while len(left) < max(-lo, 1) or len(right) < max(hi + 1, 1):
            left = reference_expand(seq.sub.rule, left)
            right = reference_expand(seq.sub.rule, right)
        return "".join(right[i] if i >= 0 else left[len(left) + i] for i in coords)
    if isinstance(seq, ChaconPoint):
        b = _chacon_block_covering(max(-lo, hi + 1, 1) + 1)
        out = []
        for i in coords:
            if seq.kind == "x1":
                out.append(b[i] if i >= 0 else b[len(b) + i])
            elif i == 0:
                out.append("1")
            else:
                out.append(b[i - 1] if i > 0 else b[len(b) + i])
        return "".join(out)
    if isinstance(seq, ChaconXi):
        if seq.tail != 2:
            return recurse(seq.normalized(), lo, hi)
        if hi < lo:
            return ""
        k = len(seq.prefix)
        while True:
            off = _chacon_anchor_offset(seq, k)
            b = reference_chacon_block(k)
            if -off <= lo and hi <= len(b) - 1 - off:
                return "".join(b[i + off] for i in coords)
            k += 1
    if isinstance(seq, EventuallyPeriodic):
        return "".join(periodic_at(seq, i) for i in coords)
    if isinstance(seq, Shift):
        return recurse(seq.inner, lo + seq.k, hi + seq.k)
    if isinstance(seq, Dual):
        return "".join({"0": "1", "1": "0"}[c] for c in recurse(seq.inner, lo, hi))
    if isinstance(seq, AdicImage):
        raw = recurse(seq.inner, lo, hi + 1)
        return "".join(str((int(raw[j]) + int(raw[j + 1])) % 2) for j in range(hi - lo + 1))
    raise TypeError(f"no reference for {type(seq).__name__}")


def periodic_at(seq, i: int) -> str:
    """The letter of an eventually periodic point at coordinate i, read
    from its tails and center one coordinate at a time."""
    if i < seq.start:
        return seq.left[(i - seq.start) % len(seq.left)]
    end = seq.start + len(seq.center)
    if i < end:
        return seq.center[i - seq.start]
    return seq.right[(i - end) % len(seq.right)]


def reference_pair_type(x, y) -> str:
    """``ternary.pair_type`` by a coordinate loop over the center region
    plus one joint tail period on each side: beyond it the difference
    pattern repeats."""
    left_period = math.lcm(len(x.left), len(y.left))
    right_period = math.lcm(len(x.right), len(y.right))
    lo, hi = min(x.start, y.start), max(x.end, y.end)
    diff = [periodic_at(x, i) != periodic_at(y, i) for i in range(lo - left_period, hi + right_period)]
    if not any(diff[:left_period]) and not any(diff[len(diff) - right_period:]):
        return "agreeable"
    return "edge" if all(diff) else "opposed"


_REFERENCE_ITERATES: dict = {}


def _reference_iterate(rule: dict[str, str], letter: str, need: int) -> str:
    """The first iterate of ``letter`` under ``rule`` with at least
    ``need`` letters, grown by ``reference_expand`` and kept per rule."""
    iterates = _REFERENCE_ITERATES.setdefault((tuple(sorted(rule.items())), letter), [letter])
    while len(iterates[-1]) < need:
        iterates.append(reference_expand(rule, iterates[-1]))
    return next(w for w in iterates if len(w) >= need)


def _two_sided(left: str, right: str, lo: int, hi: int) -> str:
    """Coordinates lo..hi (empty when hi < lo) of the sequence that reads
    ``left`` up to coordinate -1 and ``right`` from coordinate 0 on."""
    head = left[len(left) + lo:len(left) + min(hi, -1) + 1] if lo < 0 else ""
    return head + right[max(lo, 0):hi + 1] if hi >= 0 else head


def reference_segment(seq, lo: int, hi: int) -> str:
    """The window lo..hi cut by ``str`` slicing from whole cores: a
    fixed point's halves from one iterate of each seed, a Chacon point
    from one block covering the window on both sides of the origin, a
    Chacon itinerary from the first whole block k >= len(prefix) that
    holds it.  The combinators and the eventually constant sequences are
    read as in ``letterwise_segment``, on windows cut here."""
    if isinstance(seq, SubstFixed):
        if hi < lo:
            return ""
        need = max(-lo, hi + 1, 1)
        return _two_sided(_reference_iterate(seq.sub.rule, seq.left_seed, need),
                          _reference_iterate(seq.sub.rule, seq.right_seed, need), lo, hi)
    if isinstance(seq, ChaconPoint):
        if hi < lo:
            return ""
        b = _chacon_block_covering(max(-lo, hi + 1, 1) + 1)
        if seq.kind == "x1":
            return _two_sided(b, b, lo, hi)
        # x2: the spacer at coordinate 0, then the block from coordinate 1 on
        return _two_sided(b, "1", lo, min(hi, 0)) + b[max(lo, 1) - 1:max(hi, 0)]
    if isinstance(seq, ChaconXi) and seq.tail == 2:
        if hi < lo:
            return ""
        k = len(seq.prefix)
        while True:
            off, b = _chacon_anchor_offset(seq, k), reference_chacon_block(k)
            if -off <= lo and hi <= len(b) - 1 - off:
                return b[lo + off:hi + off + 1]
            k += 1
    return letterwise_segment(seq, lo, hi, recurse=reference_segment)


def reference_agreement_times(x, y, n: int, horizon: int) -> np.ndarray:
    """The gather form of ``agreement_times``: the int64 mismatch counts,
    then one window difference per shift time t in [-H, H]."""
    lo, hi = -horizon - n, horizon + n
    xa = np.frombuffer(x.segment(lo, hi).encode(), dtype=np.uint8)
    ya = np.frombuffer(y.segment(lo, hi).encode(), dtype=np.uint8)
    mism = np.concatenate(([0], np.cumsum(xa != ya)))
    ts = np.arange(-horizon, horizon + 1)
    starts = ts - n - lo
    return ts[mism[starts + 2 * n + 1] - mism[starts] == 0]


def times_to_runs(ts) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct times as maximal inclusive runs ``(starts, ends)``."""
    ts = [int(t) for t in ts]
    starts = [t for i, t in enumerate(ts) if i == 0 or ts[i - 1] != t - 1]
    ends = [t for i, t in enumerate(ts) if i + 1 == len(ts) or ts[i + 1] != t + 1]
    return np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)


def runs_to_times(runs) -> np.ndarray:
    """Every time of the inclusive runs ``(starts, ends)``, in order."""
    return np.array([t for s, e in zip(*runs) for t in range(s, e + 1)], dtype=np.int64)


# -- evidence read from sorted agreement times ---------------------------------


def reference_witness_time(ts) -> int | None:
    """Smallest |t|, the positive one on a tie; None without agreements."""
    if len(ts) == 0:
        return None
    return int(min(ts, key=lambda t: (abs(int(t)), int(t) < 0)))


def reference_gap_verdict(ts, n: int, gap_bound: int, horizon: int) -> EvidenceVerdict:
    """The first agreement-free interval of ``gap_bound`` shifts in [-H, H],
    found by walking the gaps between consecutive agreement times."""
    bounds = [-horizon - 1, *(int(t) for t in ts), horizon + 1]
    for left, right in zip(bounds[:-1], bounds[1:]):
        if right - left - 1 >= gap_bound:
            return EvidenceVerdict(
                "gap_violation", n, horizon, gap_bound=gap_bound,
                interval=(left + 1, left + gap_bound),
            )
    max_gap = max(b - a for a, b in zip(ts[:-1], ts[1:])) if len(ts) > 1 else 1
    return EvidenceVerdict(
        "syndetic_up_to_horizon", n, horizon, gap_bound=gap_bound, max_gap=int(max_gap),
    )


# -- the circle cascade's asymptotics, one point at a time ------------------------


def forward_tier(f: str, n: int) -> tuple[str, int, float] | None:
    """Next tier and angle coefficient, or None for fixed tiers: the case
    table ``circles.step`` reads from the tier chains."""
    if f == "center" or (f, n) == ("C", 0):
        return None
    if f == "C":
        if n == 1:
            return ("D", 4, 1 / 2)  # C(1) = D(2) continues the inner even chain
        if n % 2 == 0:
            return ("C", n + 2, 1 / n)
        return ("C", n - 2, 1 / n)
    if n == 3:
        return ("C", 2, 1 / 3)
    if n % 2 == 1:
        return ("D", n - 2, 1 / n)
    return ("D", n + 2, 1 / n)


def backward_tier(f: str, n: int) -> tuple[str, int, float] | None:
    """Predecessor tier and its angle coefficient, or None for fixed
    tiers: the case table ``circles.step_back`` reads from the chains."""
    if f == "center" or (f, n) == ("C", 0):
        return None
    if f == "C":
        if n == 1:
            return ("C", 3, 1 / 3)
        if n == 2:
            return ("D", 3, 1 / 3)
        if n % 2 == 0:
            return ("C", n - 2, 1 / (n - 2))
        return ("C", n + 2, 1 / (n + 2))
    if n == 4:
        return ("C", 1, 1 / 2)
    if n % 2 == 0:
        return ("D", n - 2, 1 / (n - 2))
    return ("D", n + 2, 1 / (n + 2))


def reference_step(p):
    """``circles.step`` read from ``forward_tier``."""
    nxt = forward_tier(p.family, p.index)
    if nxt is None:
        return p
    f, n, c = nxt
    return CirclePoint(f, n, p.angle + c * math.sin(p.angle))


def reference_step_back(p):
    """``circles.step_back`` read from ``backward_tier``."""
    prev = backward_tier(p.family, p.index)
    if prev is None:
        return p
    f, n, c = prev
    return CirclePoint(f, n, reference_invert_angle(p.angle, c))


def reference_asymptotic_class(p, max_iter: int = 10**4, eps: float = 1e-3):
    """``asymptotic_class`` by iterating ``reference_step`` and
    ``reference_step_back`` on the point itself, angle included, until the
    rim or the center is within eps."""
    if max_iter < 1 or eps <= 0:
        raise ValueError("need max_iter >= 1 and eps > 0")

    def direction(advance):
        if reference_step(p) == p:
            return FIXED, 0
        q = p
        for k in range(1, max_iter + 1):
            q = advance(q)
            if rim_distance(q) < eps:
                return TO_C0, k
            if radius(q) < eps:
                return TO_CENTER, k
        return INCONCLUSIVE, None

    return AsymptoticReport(*direction(reference_step), *direction(reference_step_back))


def reference_invert_angle(alpha: float, coeff: float) -> float:
    """Solve b + coeff*sin(b) = alpha on [0, pi) by exactly 80 halvings."""
    lo, hi = 0.0, math.pi
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if mid + coeff * math.sin(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# -- the closure, one tuple per element ----------------------------------------


def reference_close(flow: FiniteFlow, cap: int | None = None) -> TransMonoid:
    """Least unital composition-closed superset of the generators.

    Breadth-first from the generators; each new layer is sorted by image
    tuple before being appended, so the element order is deterministic.
    Raises MonoidTooLarge when the closure would exceed ``cap`` elements.
    The tuple-per-element form of ``finflow.close``, element order included.
    """
    if cap is None:
        cap = element_cap()
    n = flow.n_states
    ident = tuple(range(n))
    index: dict[tuple[int, ...], int] = {ident: 0}
    order: list[tuple[int, ...]] = [ident]
    gens = [tuple(g) for g in flow.generators]
    frontier = sorted(set(gens) - {ident})
    for e in frontier:
        index[e] = len(order)
        order.append(e)
    while frontier:
        fresh: set[tuple[int, ...]] = set()
        for g in gens:
            for e in frontier:
                comp = tuple(g[v] for v in e)
                if comp not in index:
                    fresh.add(comp)
        frontier = sorted(fresh)
        for e in frontier:
            index[e] = len(order)
            order.append(e)
        if len(order) > cap:
            raise MonoidTooLarge(f"monoid too large: more than {cap} elements")
    dtype = np.int16 if n < 2**15 else np.int32
    elements = np.array(order, dtype=dtype)
    return TransMonoid(flow, elements)


# -- minimal left ideals by brute force ------------------------------------------


def brute_minimal_left_ideals(m) -> list[tuple[int, ...]]:
    """Form S¹p for every p and keep the inclusion-minimal ones.
    Quadratic; the reference for ``ideal_structure``'s member lists."""
    all_ideals = {reference_left_ideal_of(m, p) for p in range(m.size)}
    minimal = []
    for ideal in all_ideals:
        s = set(ideal)
        if not any(set(other) < s for other in all_ideals):
            minimal.append(ideal)
    return sorted(minimal)


def reference_ideal_kernel_matrix(m, members) -> np.ndarray:
    """Pairs collapsed by every member of an ideal, one element at a time."""
    out = np.ones((m.n_states, m.n_states), dtype=bool)
    for p in members:
        row = m.elements[p]
        out &= row[:, None] == row[None, :]
    return out


def reference_classes(matrix) -> list[frozenset[int]]:
    """Classes of an equivalence matrix, ordered by least member, by
    scanning its rows."""
    seen: set[int] = set()
    out = []
    for x in range(matrix.shape[0]):
        if x not in seen:
            c = frozenset(int(y) for y in np.nonzero(matrix[x])[0])
            seen |= c
            out.append(c)
    return out


# -- the scalar element API over a tuple index -----------------------------------

_TUPLE_INDEX: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def tuple_index(m) -> dict[tuple[int, ...], int]:
    """Image tuple -> element index, built once per monoid.  Building it
    checks that ``m.positions`` finds every element at its own index."""
    if m not in _TUPLE_INDEX:
        index = {row: i for i, row in enumerate(map(tuple, m.elements.tolist()))}
        assert len(index) == m.size, "monoid elements are not distinct"
        assert m.positions(m.elements).tolist() == list(range(m.size))
        _TUPLE_INDEX[m] = index
    return _TUPLE_INDEX[m]


def image_tuple(m, i: int) -> tuple[int, ...]:
    return tuple(int(v) for v in m.elements[i])


def element_of(m, images) -> int:
    """The index of the element with these images."""
    return tuple_index(m)[tuple(images)]


def apply(m, i: int, state: int) -> int:
    return int(m.elements[i][state])


def compose(m, i: int, j: int) -> int:
    """Index of elements[i] ∘ elements[j] by the tuple index, checked
    against ``m.positions``."""
    row = m.elements[i][m.elements[j]]
    k = tuple_index(m)[tuple(row.tolist())]
    assert int(m.positions(row)) == k
    return k


def is_idempotent(m, i: int) -> bool:
    return compose(m, i, i) == i


# -- the ideal algebra, one element at a time -------------------------------------


def reference_left_ideal_of(m, p: int) -> tuple[int, ...]:
    """Sorted indices of {s ∘ p}: the distinct rows, then a tuple lookup each."""
    uniq = np.unique(m.elements[:, m.elements[p]], axis=0)
    return tuple(sorted(tuple_index(m)[tuple(r.tolist())] for r in uniq))


def reference_idempotent_power(m, i: int) -> int:
    j = i
    for _ in range(m.size + 1):
        if compose(m, j, j) == j:
            return j
        j = compose(m, j, i)
    raise AssertionError("no idempotent power found")


def reference_idempotents(m, members) -> tuple[int, ...]:
    return tuple(i for i in members if is_idempotent(m, i))


def reference_equivalent_idempotents(m, structure) -> list[tuple[int, int]]:
    """Cross-ideal pairs (u, v) with u∘v = v and v∘u = u, in (ideal a <
    ideal b, u, v) order."""
    js = ideal_lists(structure)["idempotents"]
    return [
        (u, v)
        for a in range(len(js)) for b in range(a + 1, len(js))
        for u in js[a] for v in js[b]
        if compose(m, u, v) == v and compose(m, v, u) == u
    ]


def reference_omega(m, structure) -> np.ndarray:
    n = m.n_states
    mat = np.zeros((n, n), dtype=bool)
    for u in structure.all_idempotents:
        fixed = [x for x in range(n) if apply(m, u, x) == x]
        mat[np.ix_(fixed, fixed)] = True
    return mat


def reference_is_minimal_flow(m) -> bool:
    n = m.n_states
    return all(len({apply(m, s, x) for s in range(m.size)}) == n for x in range(n))


def reference_sp_witness(m, structure, x: int, y: int) -> dict:
    """The SP witness of ``sp_witnesses``: the first member of the first
    ideal separating the pair, and its idempotent power."""
    member_lists = ideal_lists(structure)["members"]
    for k, members in enumerate(member_lists):
        for p in members:
            if apply(m, p, x) != apply(m, p, y):
                return {"ideal": k, "separator": p, "fixing_idempotent": reference_idempotent_power(m, p)}
    return {"collapsing_ideals": len(member_lists)}


SP_WITNESS_FIELDS = ("ideal", "separator", "fixing_idempotent")


def sp_witness_dicts(columns: dict[str, np.ndarray], ideal_count: int) -> list[dict]:
    """``relations.sp_witnesses``' int columns as one dict per pair, the
    form of ``reference_sp_witness``: the three fields of a separated
    pair, and ``{"collapsing_ideals": ideal_count}`` for a pair that every
    ideal collapses (-1 in every column)."""
    assert list(columns) == list(SP_WITNESS_FIELDS)
    rows = zip(*(columns[name].tolist() for name in SP_WITNESS_FIELDS))
    return [dict(zip(SP_WITNESS_FIELDS, row)) if row[0] >= 0 else {"collapsing_ideals": ideal_count} for row in rows]


def reference_proximal_sets(ax, sets) -> np.ndarray:
    """Whether each state set (``finflow.first_collapsers``' input) is
    proximal: some minimal ideal's kernel labels are constant on it."""
    labels = ax.structure.labels[:-1, _state_sets(sets).T]
    return (labels == labels[:, :1]).all(axis=1).any(axis=0)  # (ideal, member, set)


def reference_first_nonproximal_image(ax, maps) -> tuple[list[int], int] | None:
    """``relations.first_nonproximal_image`` one per-ideal class at a time,
    every map's image of it tested in one ``reference_proximal_sets``
    call."""
    for kernel in ideal_lists(ax.structure)["kernels"]:
        for cols in (sorted(c) for c in label_classes(kernel)):
            ok = reference_proximal_sets(ax, np.asarray(maps)[:, cols])
            if not ok.all():
                return cols, int(np.argmin(ok))
    return None


def reference_proximal_candidates(ax, subsets) -> list[tuple[int, ...]]:
    """The sorted tuples of every singleton, every per-ideal class, every
    proximal pair and every proximal set among ``subsets`` (a dict from
    sorted tuples to whether each is proximal), sorted in Python."""
    n = ax.n_states
    found = {(x,) for x in range(n)} | {c for c, proximal in subsets.items() if proximal}
    found.update(map(tuple, np.argwhere(np.triu(ax.proximal, 1)).tolist()))
    found.update(tuple(sorted(c)) for kernel in ideal_lists(ax.structure)["kernels"] for c in label_classes(kernel))
    return sorted(found)


def reference_rA_proximal_equiv(ax, candidates) -> CheckResult:
    """``fuzz.check_rA_proximal_equiv`` on candidates given as tuples, one
    ``reference_proximal_sets`` call per candidate."""
    m = ax.monoid
    witness = ""
    for cols in candidates:
        images = m.elements[:, list(cols)]
        ok = reference_proximal_sets(ax, images)
        if not ok.all():
            r = int(np.nonzero(~ok)[0][0])
            witness = f"A={list(cols)} r={tuple(m.elements[r].tolist())} rA={sorted(set(int(v) for v in images[r]))}"
            break
    all_images_proximal = not witness
    return CheckResult(
        "rA_proximal_iff_p_equivalence",
        ax.p_is_equivalence == all_images_proximal,
        "" if ax.p_is_equivalence == all_images_proximal
        else f"p_equiv={ax.p_is_equivalence} but all r(A) proximal={all_images_proximal}; {witness}",
    )


def reference_induced_theta(f, sm, tm) -> list[int]:
    """θ(p) for each source element, one element at a time, with the same
    errors as ``induced_theta``."""
    pm = f.point_map
    reps = {}
    for x in range(f.source.n_states):
        reps.setdefault(pm[x], x)
    theta = []
    for i in range(sm.size):
        candidate = tuple(pm[apply(sm, i, reps[y])] for y in range(f.target.n_states))
        if any(candidate[pm[x]] != pm[apply(sm, i, x)] for x in range(f.source.n_states)):
            raise NotAFactorMap(f"no well-defined target action for element {i}")
        if candidate not in tuple_index(tm):
            raise NotAFactorMap(f"induced element {candidate} missing from target monoid")
        theta.append(tuple_index(tm)[candidate])
    return theta


# -- the relations over every monoid element: (size, n, n) tensors ----------------


def translates(m, rel) -> np.ndarray:
    """``(size, n, n)``: entry [s, x, y] is rel at (s(x), s(y))."""
    e = m.elements
    return rel[e[:, :, None], e[:, None, :]]


def reference_element_proximal(m) -> np.ndarray:
    """P's element form: pairs collapsed by some monoid element."""
    e = m.elements
    return (e[:, :, None] == e[:, None, :]).any(axis=0)


def reference_some_translate_in(m, rel) -> np.ndarray:
    return translates(m, rel).any(axis=0)


def reference_all_translates_in(m, rel) -> np.ndarray:
    """SP's translate form for rel = P; D's for rel = D."""
    return translates(m, rel).all(axis=0)


def reference_forward_invariant(m, rel) -> bool:
    return not (rel & ~reference_all_translates_in(m, rel)).any()


def reference_backward_invariant(m, rel) -> bool:
    return not (translates(m, rel) & ~rel[None, :, :]).any()


def square_monoid(m) -> TransMonoid:
    """The monoid of ``product_flow(flow, flow)``, read coordinatewise:
    s ↦ s × s maps the monoid one-to-one onto it in the same element
    order, so no second closure is needed."""
    n = m.n_states
    xs, ys = np.divmod(np.arange(n * n), n)
    e = m.elements.astype(np.int16 if n * n < 2**15 else np.int32)
    return TransMonoid(product_flow(m.flow, m.flow), e[:, xs] * n + e[:, ys])


def reference_omega_via_square(m) -> np.ndarray:
    """Omega as the almost periodic points of the squared flow: the pairs
    fixed by some minimal idempotent of ``square_monoid(m)``."""
    n = m.n_states
    sq = square_monoid(m)
    idem = sq.elements[list(ideal_structure(sq).all_idempotents)]
    return (idem == np.arange(n * n)).any(axis=0).reshape(n, n)


def reference_reaching(succ: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The nodes from which some path along the edges v -> succ[i, v], the
    empty path included, leads into the node set ``target``: one edge step
    a pass, until a pass changes nothing.  The reference for a backward
    ``relations.reach``."""
    reached = target.copy()
    while True:
        grown = reached | reached[succ].any(axis=0)
        if np.array_equal(grown, reached):
            return reached
        reached = grown


def reference_transitive_closure(rel) -> np.ndarray:
    """Column w of the closure holds the nodes with an edge into a node
    that reaches w, the empty path included: one ``reference_reaching``
    call per w.  Each node's edges are padded to N successors with
    self-loops, which change no reachability."""
    n = len(rel)
    succ = np.where(rel.T, np.arange(n)[:, None], np.arange(n))  # succ[i, v] = i if v -> i, else v
    reach = np.array([reference_reaching(succ, np.arange(n) == w) for w in range(n)]).T
    return (rel.astype(np.int64) @ reach.astype(np.int64)) > 0


def reference_saturate_icer(flow, seed_pairs) -> np.ndarray:
    """The smallest icer containing the seed pairs: symmetric closure,
    transitive closure by repeated boolean squaring, then each generator's
    image pairs added in turn, until nothing changes."""
    mat = np.eye(flow.n_states, dtype=bool)
    for x, y in seed_pairs:
        mat[x, y] = mat[y, x] = True
    while True:
        closed = mat | mat.T
        while not np.array_equal(closed | (closed @ closed), closed):
            closed = closed | (closed @ closed)
        for g in map(np.array, flow.generators):
            xs, ys = np.nonzero(closed)
            closed[g[xs], g[ys]] = True
        if np.array_equal(closed, mat):
            return mat
        mat = closed


def reference_mp_counterexample(m, members) -> int | None:
    """The first p in ``members`` with S¹p != M, one whole-monoid left
    ideal per member."""
    for p in members:
        if reference_left_ideal_of(m, p) != tuple(members):
            return p
    return None


def reference_validate_partitions(ax) -> CheckResult:
    """``fuzz.validate_partitions`` one class at a time: the per-ideal
    classes and the refinement classes listed by ``label_classes``, each
    tested with its own gather, and the refinement tested class by class
    against the states sharing every ideal kernel value with its least
    member."""
    name = "per_ideal_partitions_valid"
    lists = ideal_lists(ax.structure)
    e = ax.monoid.elements
    for members, js, kernel in zip(lists["members"], lists["idempotents"], lists["kernels"]):
        classes = label_classes(kernel)
        least = e[np.ix_(members, [min(c) for c in classes])]
        shared = least[:, :, None] == least[:, None, :]
        pairs = np.argwhere(np.triu(shared.any(axis=0), 1))
        if pairs.size:
            p = members[shared[:, pairs[0][0], pairs[0][1]].argmax()]
            return CheckResult(name, False, f"distinct ideal-proximal classes share an image under element {p}")
        idem_rows = e[list(js)]
        labels = np.array(kernel)
        stays = labels[idem_rows] == labels  # u(x) in the class of x
        for c in classes:
            cols = sorted(c)
            if not (idem_rows[:, cols] == cols).any():
                return CheckResult(name, False, f"class {cols} has no almost periodic point")
            for u, closed in zip(js, stays[:, cols].all(axis=1)):
                if not closed:
                    return CheckResult(name, False, f"class {cols} not closed under idempotent {u}")
    classes = label_classes(lists["refinement"])
    kernels = np.array(lists["kernels"])
    for c in classes:
        x = min(c)
        if set(np.flatnonzero((kernels == kernels[:, [x]]).all(axis=0)).tolist()) != c:
            return CheckResult(name, False, "refinement class is not the intersection of per-ideal classes")
    if sum(map(len, classes)) != len(frozenset().union(*classes)):
        return CheckResult(name, False, "maximal strongly proximal sets must be disjoint")
    us = [u for js in lists["idempotents"] for u in js]
    idem_rows = e[us]
    for c in classes:
        images = idem_rows[:, sorted(c)]
        for u, collapsed in zip(us, (images == images[:, :1]).all(axis=1)):
            if not collapsed:
                return CheckResult(name, False, f"idempotent {u} does not collapse class {sorted(c)}")
    return CheckResult(name, True)


def reference_invertible_image_check(ax, candidates, subsets) -> CheckResult:
    """``fuzz.invertible_image_check`` one (candidate, generator) at a time,
    on the candidates of at most 3 states and the per-ideal classes: each
    image set is sorted into a dict, the images not among ``subsets`` are
    tested in one ``reference_proximal_sets`` call, and the first failing
    key in insertion order is the counterexample."""
    invertible = [g for g in ax.flow.generators if len(set(g)) == ax.n_states]
    classes = {tuple(sorted(c)) for kernel in ideal_lists(ax.structure)["kernels"] for c in label_classes(kernel)}
    small = [c for c in candidates if len(c) <= 3 or c in classes]
    image = {(cols, g): tuple(sorted({g[x] for x in cols})) for cols in small for g in invertible}
    rest = sorted(set(image.values()) - subsets.keys())
    proximal = {**subsets, **dict(zip(rest, reference_proximal_sets(ax, rest).tolist()))}
    detail = next((f"tA not proximal: A={list(cols)} g={g}" for (cols, g), t in image.items() if not proximal[t]), "")
    return CheckResult("invertible_generator_image_of_proximal_set_proximal", not detail, detail)


def reference_sp_matches_class_squares(ax) -> CheckResult:
    """``fuzz.sp_matches_class_squares`` as the union of one ``np.ix_``
    block A x A per maximal strongly proximal set A."""
    n = ax.n_states
    built = np.zeros((n, n), dtype=bool)
    for s in label_classes(ideal_lists(ax.structure)["refinement"]):
        idxs = sorted(s)
        built[np.ix_(idxs, idxs)] = True
    return CheckResult("sp_equals_union_of_class_squares", bool(np.array_equal(ax.strongly_proximal, built)))


# -- the report's batched passes, one pair, set or row at a time -------------------


def reference_is_proximal_set(m, members) -> int | None:
    """The first element collapsing the set, by a scan of the whole monoid."""
    cols = sorted(set(int(x) for x in members))
    if not cols:
        raise ValueError("proximal-set test needs a nonempty set")
    images = m.elements[:, cols]
    hits = np.nonzero((images == images[:, :1]).all(axis=1))[0]
    return int(hits[0]) if hits.size else None


def reference_proximal_verdict(m, x: int, y: int) -> int:
    """The first element collapsing the pair, or -1: the P witness."""
    e = m.elements
    hits = np.flatnonzero(e[:, x] == e[:, y])
    return int(hits[0]) if hits.size else -1


def reference_sp_verdict(ax, x: int, y: int) -> dict:
    """The SP witness: a pair in SP cites that every minimal ideal
    collapses it; a pair out of SP gets the first ideal with a member
    separating it, that member, and its idempotent power, asserted to fix
    the images."""
    m = ax.monoid
    member_lists = ideal_lists(ax.structure)["members"]
    for k, members in enumerate(member_lists):
        rows = m.elements[list(members)]
        separating = np.flatnonzero(rows[:, x] != rows[:, y])
        if separating.size:
            p = members[separating[0]]
            row = rows[separating[0]]
            u = int(m.idempotent_powers([p])[0])
            urow = m.elements[u]
            if urow[row[x]] != row[x] or urow[row[y]] != row[y]:
                raise AssertionError("idempotent power failed to fix the image pair")
            return {"ideal": k, "separator": int(p), "fixing_idempotent": int(u)}
    return {"collapsing_ideals": len(member_lists)}


def reference_minimal_ideal_collapse(ax, members) -> int | None:
    """The number of the first minimal ideal all of whose members collapse
    the set, or None.  The collapsers of a proximal set form a left ideal, so they
    contain a minimal one: None means the set is not proximal."""
    cols = sorted(set(int(x) for x in members))
    images = ax.monoid.elements[:, cols]
    collapsers = set(np.flatnonzero((images == images[:, :1]).all(axis=1)).tolist())
    member_lists = ideal_lists(ax.structure)["members"]
    return next((k for k, ideal in enumerate(member_lists) if set(ideal) <= collapsers), None)


def reference_is_group(m, u: int, members: np.ndarray) -> bool:
    """Whether uM is a group with identity u (``members`` are the rows of
    M), with its Cayley table built one row at a time: the table is closed,
    u's row and column are the identity, and every member has an inverse."""
    e = m.elements
    group = e[np.unique(m.positions(e[u][members]))]
    table = np.array([row_positions(group, a[group]) for a in group])
    i, ar = int(row_positions(group, e[u])), np.arange(len(group))
    return bool(i >= 0 and (table >= 0).all() and (table[i] == ar).all() and (table[:, i] == ar).all()
                and ((table == i) & (table.T == i)).any(axis=1).all())


def reference_right_identity(m, u: int, members) -> bool:
    """Whether p∘u = p for every member p, one product at a time."""
    e = m.elements
    return all((e[p][e[u]] == e[p]).all() for p in members)


def reference_ideal_algebra_details(ax) -> tuple[str, str, str]:
    """The details of the suite's "pu = p", "uM is a group" and intra-ideal
    equivalence checks ("" where a check passes), from the loop over each
    ideal and each of its idempotents that the one pass replaced."""
    m, e, lists = ax.monoid, ax.monoid.elements, ideal_lists(ax.structure)
    pu_detail = group_detail = intra_detail = ""
    for ki, (ideal, js) in enumerate(zip(lists["members"], lists["idempotents"])):
        members = e[list(ideal)]
        if not pu_detail and not all(reference_right_identity(m, u, ideal) for u in js):
            pu_detail = f"pu != p at ideal {ki}"
        for u in js:
            if not group_detail and not reference_is_group(m, u, members):
                group_detail = f"uM not a group at ideal {ki} idempotent {u}"
        pairs = [(u, v) for i, u in enumerate(js) for v in js[i + 1:]
                 if compose(m, u, v) == v and compose(m, v, u) == u]
        if pairs and not intra_detail:
            intra_detail = f"idempotents {pairs[0][0]} and {pairs[0][1]} equivalent in ideal {ki}"
    return pu_detail, group_detail, intra_detail


def reference_ideal_structure(m) -> dict:
    """``finflow.ideal_structure`` one ideal at a time, in ``ideal_lists``'
    form: the row-by-row minimal ideals, each checked against its least
    member's S¹p, their idempotents one element at a time, and the
    refinement labels folded in one kernel at a time by
    ``kernel_signature`` of zipped labels."""
    ideals = reference_minimal_left_ideals(m)
    for members, _ in ideals:
        assert reference_left_ideal_of(m, members[0]) == members
    labels = tuple(0 for _ in range(m.n_states))
    for _, kernel in ideals:
        labels = kernel_signature(list(zip(labels, kernel)))
    return {
        "members": [members for members, _ in ideals],
        "idempotents": [reference_idempotents(m, members) for members, _ in ideals],
        "kernels": [kernel for _, kernel in ideals],
        "refinement": labels,
    }


def flat_lists(lists) -> tuple[np.ndarray, np.ndarray]:
    """The values of some lists as one flat array, and the number of each
    value's list: the layout of ``IdealStructure``'s member and idempotent
    arrays, and the input of ``fuzz.left_action_counterexamples``."""
    return (np.array([x for xs in lists for x in xs], dtype=np.intp),
            np.repeat(np.arange(len(lists)), [len(xs) for xs in lists]))


def structure_from_lists(members, idempotents, kernels, refinement) -> IdealStructure:
    """An ``IdealStructure`` from per-ideal member and idempotent lists,
    the ideal kernels' label rows and the refinement's.  Every label row
    goes through ``kernel_labels``, so a row not in first-occurrence form
    is read as the classes it names."""
    rows = np.array([*kernels, refinement]).reshape(len(kernels) + 1, -1)
    return IdealStructure(*flat_lists(members), *flat_lists(idempotents), kernel_labels(rows))


def ideal_lists(structure) -> dict:
    """``structure_from_lists``' arguments read back from a structure: the
    per-ideal member and idempotent lists, the kernels' label rows and the
    refinement's, as tuples of ints."""
    st, ideals = structure, range(structure.ideal_count)
    rows = [tuple(row) for row in st.labels.tolist()]
    return {
        "members": [tuple(st.kernel_elements[st.member_ideals == k].tolist()) for k in ideals],
        "idempotents": [tuple(st.all_idempotents[st.idempotent_ideals == k].tolist()) for k in ideals],
        "kernels": rows[:-1],
        "refinement": rows[-1],
    }


def reference_is_equivalence(rel) -> bool:
    """Reflexive, symmetric and transitive, transitivity read from one
    boolean matmul: R∘R ⊆ R."""
    return bool(rel.diagonal().all() and (rel == rel.T).all() and (~(rel @ rel) | rel).all())


def label_classes(labels) -> list[frozenset[int]]:
    """The classes {x : labels[x] = c}, ordered by least member, one state
    at a time into a dict: the reference for ``IdealStructure.classes``."""
    classes: dict = {}
    for x, c in enumerate(labels):
        classes.setdefault(c, []).append(x)
    return [frozenset(c) for c in classes.values()]


def kernel_signature(row) -> tuple[int, ...]:
    """First-occurrence labelling of a row of hashable values, one value at
    a time: the reference for ``finflow.kernel_labels``.  Zipped kernels
    label their common refinement."""
    labels: dict = {}
    values = row.tolist() if isinstance(row, np.ndarray) else row
    return tuple(labels.setdefault(v, len(labels)) for v in values)


def monoid_flow(m) -> FiniteFlow:
    """The flow whose generators are all elements of the monoid ``m``."""
    return FiniteFlow(m.n_states, tuple(map(tuple, m.elements.tolist())))


def reference_minimal_left_ideals(m) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each minimal ideal's (members, kernel labels): the minimum-rank
    elements grouped by ``kernel_signature``, one row at a time, ordered
    by least member."""
    ranks = m.ranks()
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in np.nonzero(ranks == ranks.min())[0]:
        groups.setdefault(kernel_signature(m.elements[i]), []).append(int(i))
    return sorted((tuple(sorted(mem)), sig) for sig, mem in groups.items())


# -- the command line, read by argparse ----------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``flowrel``: one top-level parser with
    ``--config`` and one subparser per command."""
    from flowrel import cli, reports

    top = argparse.ArgumentParser(prog="flowrel", description=cli.__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--config", help="JSON file supplying defaults for any flag")
    sub = top.add_subparsers(dest="command", required=True)

    def out_and_cap(p, cap=True):
        p.add_argument("--out", default=None, help="also write the report to this path")
        if cap:
            p.add_argument("--cap", type=int, default=None, help="monoid element cap override")

    p = sub.add_parser("analyze", help="full pipeline on a flow file")
    p.add_argument("flow_file")
    p.add_argument("--format", choices=cli.FORMATS, default=None)
    out_and_cap(p)
    p.set_defaults(func=cli.cmd_analyze)

    p = sub.add_parser("fuzz", help="randomized theorem verification")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-states", dest="max_states", type=int, default=None)
    out_and_cap(p)
    p.set_defaults(func=cli.cmd_fuzz)

    p = sub.add_parser("reproduce", help="rerun a canonical scenario against its golden file")
    p.add_argument("example", choices=sorted(reports.REPRODUCERS))
    p.add_argument("--bless", action="store_true", help="regenerate the golden file")
    p.set_defaults(func=cli.cmd_reproduce)

    p = sub.add_parser("classify-pair", help="evidence verdict for a pair of points")
    p.add_argument("--system", required=True, choices=("morse", "chacon", "ternary", "cc"))
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--gap", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    out_and_cap(p, cap=False)
    p.set_defaults(func=cli.cmd_classify_pair)
    return top


# -- the minimal-ideal checks, one step or one product at a time -------------------


def reference_kernel_labels(rows: np.ndarray) -> np.ndarray:
    """``finflow.kernel_labels`` by one stable argsort of each row: the sort
    puts every kernel class in one run, led by its least member, and the
    label of x numbers the least member of x's class among all least
    members, which is its order of first appearance."""
    k, n = rows.shape
    flat = np.arange(0, k * n, n)[:, None]
    order = np.argsort(rows, axis=1, kind="stable")
    ranked = np.take(rows, order + flat)
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    run_start = np.maximum.accumulate(np.where(starts, np.arange(n), 0), axis=1)
    least = np.empty_like(order)
    least.ravel()[order + flat] = np.take(order, run_start + flat)
    return np.take(np.cumsum(least == np.arange(n), axis=1) - 1, least + flat)


def reference_left_action_counterexamples(m, members, owner) -> list[int | None]:
    """``fuzz.left_action_counterexamples`` with the forward and backward
    reach grown one edge step per pass, over the generators' successor
    table alone."""
    flat, owner = np.asarray(members, dtype=np.intp), np.asarray(owner, dtype=np.intp)
    ids = np.arange(owner[-1] + 1)
    firsts = flat[np.searchsorted(owner, ids)]
    keys = sorted_unique(owner * m.size + flat)
    node_list, node_p = np.divmod(keys, m.size)
    gens = np.array(m.flow.generators, dtype=m.elements.dtype)
    to = node_list * m.size + m.positions(gens[:, m.elements[node_p]])
    succ = np.minimum(np.searchsorted(keys, to), keys.size - 1)
    stays = keys[succ] == to
    succ = np.where(stays, succ, np.arange(keys.size))
    start = np.zeros(keys.size, dtype=bool)
    start[np.searchsorted(keys, ids * m.size + firsts)] = True
    ahead, back, count = start.copy(), start, 0
    while count < (count := np.count_nonzero(ahead) + np.count_nonzero(back)):
        ahead[succ[:, ahead]] = True
        back = back | back[succ].any(axis=0)
    whole = np.logical_and.reduceat(stays.all(axis=0) & ahead, np.searchsorted(node_list, ids))
    whole[owner[1:][(flat[1:] <= flat[:-1]) & (owner[1:] == owner[:-1])]] = False
    stuck = np.flatnonzero(~back)[::-1]
    first_stuck = dict(zip(node_list[stuck].tolist(), node_p[stuck].tolist()))
    return [first_stuck.get(b) if ok else int(firsts[b]) for b, ok in enumerate(whole.tolist())]


def reference_ideal_group_tests(m, members, owner, us, slot_list) -> tuple[np.ndarray, np.ndarray]:
    """``fuzz.ideal_group_tests`` with every slot's whole uM Cayley table:
    the |uM|² products of each slot's nodes, on rows restricted to the
    image of u, gathered in blocks and looked up among the restricted rows
    by their keys, the slot prefixed; p∘u = p and the whole-row identity
    tests member by member."""
    e, size = m.elements, m.size
    slots = np.arange(us.size)
    if not us.size:
        return np.ones(0, dtype=bool), np.ones(0, dtype=bool)
    sizes = np.bincount(owner, minlength=slot_list.max() + 1)
    entry_slot = np.repeat(slots, sizes[slot_list])
    entry_p = np.asarray(members, dtype=np.intp)[fuzz._ragged((np.cumsum(sizes) - sizes)[slot_list], sizes[slot_list])]
    pu_bad = np.zeros(entry_p.size, dtype=bool)
    up = np.empty(entry_p.size, dtype=np.intp)
    for b in fuzz._blocks(entry_p.size, size):
        rows, urows = e[entry_p[b]], e[us[entry_slot[b]]]
        pu_bad[b] = (compose_rows(rows, urows) != rows).any(axis=1)
        up[b] = m.positions(compose_rows(urows, rows))
    pu_ok = np.bincount(entry_slot[pu_bad], minlength=us.size) == 0
    keys = sorted_unique(entry_slot * size + up)
    node_slot, node = np.divmod(keys, size)
    start = np.searchsorted(node_slot, slots)
    count = np.diff(np.append(start, keys.size))
    ok = keys[np.minimum(np.searchsorted(keys, slots * size + us), keys.size - 1)] == slots * size + us
    for b in fuzz._blocks(keys.size, size):
        rows, urows = e[node[b]], e[us[node_slot[b]]]
        moved = (compose_rows(urows, rows) != rows) | (compose_rows(rows, urows) != rows)
        ok[node_slot[b][moved.any(axis=1)]] = False
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
    squares = count * count
    pair_slot = np.repeat(slots, squares)
    row_of, col_of = np.divmod(np.arange(pair_slot.size) - (np.cumsum(squares) - squares)[pair_slot], count[pair_slot])
    a, c = start[pair_slot] + row_of, start[pair_slot] + col_of
    product = np.empty(pair_slot.size, dtype=np.intp)
    for b in fuzz._blocks(pair_slot.size, e.size // table.shape[1]):
        query = np.column_stack([pair_slot[b], np.take(e, restricted[c[b]] + (node[a[b]] * m.n_states)[:, None])])
        product[b] = row_positions(table, query, order, bound)
    ok[pair_slot[product < 0]] = False
    spread = np.sort(restricted, axis=1)
    ranks = 1 + np.count_nonzero(spread[:, 1:] != spread[:, :-1], axis=1)
    ok[node_slot[ranks != column[node_slot, -1] + 1]] = False
    return pu_ok, ok
