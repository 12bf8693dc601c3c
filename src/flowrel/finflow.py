"""Exact transformation-monoid algebra for finite state flows.

A finite flow is a finite state set acted on by a list of total self-maps
(the generators).  The acting object is the generated unital transformation
monoid.  Because the product topology on maps of a finite set is discrete,
this monoid coincides with the pointwise-convergence closure of the
generated action, so minimal left ideals, minimal idempotents and the
relations built on them are computed exactly, not approximately.

Composition convention: ``(p * q)(x) = p(q(x))``, and the left ideal of
``p`` is ``{s * p : s in S}``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

DEFAULT_ELEMENT_CAP = 10**6
ELEMENT_CAP_ENV = "FLOWREL_ELEMENT_CAP"


class MonoidTooLarge(RuntimeError):
    """Raised when a closure would exceed the configured element cap."""


class FlowParseError(ValueError):
    """Raised on malformed flow text documents."""


class NotAFactorMap(ValueError):
    """Raised when a claimed factor map fails equivariance or surjectivity."""


def element_cap(default: int = DEFAULT_ELEMENT_CAP) -> int:
    """The cap from FLOWREL_ELEMENT_CAP, or ``default`` when it is unset."""
    raw = os.environ.get(ELEMENT_CAP_ENV)
    return default if raw is None else checked_cap(raw, ELEMENT_CAP_ENV)


def checked_cap(value: object, source: str) -> int:
    """``value`` (an integer, or its decimal text) as an element cap; a
    ValueError naming ``source`` unless it is an integer of at least 1."""
    try:
        cap = int(value) if isinstance(value, str) else value
    except ValueError:
        cap = None
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise ValueError(f"{source} must be an integer of at least 1, got {value!r}")
    return cap


@dataclass(frozen=True)
class FiniteFlow:
    """A finite state set with a nonempty list of total self-maps.

    ``generators[i][x]`` is the image of state ``x`` under generator ``i``.
    The identity map is implicitly adjoined when the monoid is generated,
    so the acting monoid is always unital.
    """

    n_states: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("flow needs at least one state")
        if not self.generators:
            raise ValueError("flow needs at least one generator")
        for g in self.generators:
            if len(g) != self.n_states:
                raise ValueError(f"generator {g} has wrong arity for {self.n_states} states")
            for v in g:
                if not (0 <= v < self.n_states):
                    raise ValueError(f"generator {g} maps outside the state set")


def parse_flow(text: str) -> FiniteFlow:
    """Parse the flow text format: a ``states: N`` line, then one
    space-separated image list per generator.  ``#`` starts a comment."""
    n = None
    gens: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.lower().startswith("states:"):
                raise FlowParseError(f"line {lineno}: expected 'states: N' header")
            try:
                n = int(line.split(":", 1)[1])
            except ValueError as exc:
                raise FlowParseError(f"line {lineno}: bad state count") from exc
            continue
        try:
            images = tuple(int(tok) for tok in line.split())
        except ValueError as exc:
            raise FlowParseError(f"line {lineno}: bad generator line {line!r}") from exc
        gens.append(images)
    if n is None:
        raise FlowParseError("missing 'states: N' header")
    if not gens:
        raise FlowParseError("no generator lines")
    try:
        return FiniteFlow(n, tuple(gens))
    except ValueError as exc:
        raise FlowParseError(str(exc)) from exc


def format_flow(flow: FiniteFlow, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"states: {flow.n_states}")
    lines.extend(" ".join(str(v) for v in g) for g in flow.generators)
    return "\n".join(lines) + "\n"


def _row_keys(rows, bound: int | None = None) -> np.ndarray:
    """One byte string per row (the last axis) of ``rows``, ordered as the
    rows are lexicographically.  Invariant: every value is below ``bound``,
    by default the row width w (rows are maps of a w-point set, or labels
    of one), so a cell takes one byte when the bound is at most 256 and two
    big-endian bytes otherwise (four past 2^16); byte strings compare byte
    by byte from the first."""
    w = np.shape(rows)[-1]
    rows = np.ascontiguousarray(rows, dtype=_cell_code(w if bound is None else bound))
    return rows.view(f"S{w * rows.itemsize}")[..., 0]


def _cell_code(bound: int) -> str:
    """The dtype of one row-key cell for values below ``bound``."""
    return "u1" if bound <= 256 else ">u2" if bound <= 2**16 else ">u4"


def find(keys: np.ndarray, query, order: np.ndarray | None = None) -> np.ndarray:
    """The index in the nonempty ``keys`` (sorted, or sorted by ``order``)
    of each entry of ``query``, or -1 where it is absent."""
    at = np.minimum(np.searchsorted(keys, query, sorter=order), keys.size - 1)
    at = at if order is None else order[at]
    return np.where(keys[at] == query, at, -1)


def row_positions(table: np.ndarray, rows, order: np.ndarray | None = None, bound: int | None = None) -> np.ndarray:
    """``find`` on row keys: the index in ``table`` of each row (last axis)
    of ``rows``, or -1; ``order`` sorts the row keys of ``table`` when the
    caller keeps it, and ``bound`` is ``_row_keys``'."""
    keys = _row_keys(table, bound)
    return find(keys, _row_keys(rows, bound), np.argsort(keys) if order is None else order)


def compose_rows(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """outer[i] ∘ inner[i] for each row i of two ``(k, n)`` arrays of maps
    of an n-point set: one ``np.take`` at flat indices, which costs less
    than ``take_along_axis``."""
    k, n = np.shape(inner)
    return np.take(outer, inner + np.arange(0, k * n, n)[:, None])


def idempotent_mask(rows: np.ndarray) -> np.ndarray:
    """For each row r of a ``(k, n)`` array, whether r ∘ r = r."""
    return (compose_rows(rows, rows) == rows).all(axis=1)


def sorted_unique(values) -> np.ndarray:
    """The distinct entries of ``values`` in increasing order, by one sort:
    ``np.unique`` on a flat array without its first-call import of
    ``numpy.ma`` (numpy 2.x), which costs more than the sort.  Row keys
    sort stably, which keeps their sorted runs; numbers by quicksort."""
    a = np.asarray(values).ravel()
    a = np.sort(a, kind="stable" if a.dtype.kind == "S" else None)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if a.size else a


def kernel_labels(rows: np.ndarray) -> np.ndarray:
    """The first-occurrence labelling of every row of a ``(k, n)`` array in
    one pass: equal values in a row get equal labels, numbered in order of
    first appearance, so rows with equal labels are maps with the same
    kernel partition.  The label of x counts the first occurrences
    (``first_positions``) before x's, one ``cumsum`` over the flat rows."""
    k, n = rows.shape
    least = first_positions(rows)
    counts = np.cumsum(least.ravel() == np.arange(k * n))
    return counts[least] - counts[np.arange(0, k * n, n)][:, None]


def first_positions(rows: np.ndarray) -> np.ndarray:
    """For every entry of a ``(k, n)`` array, the flat position of the
    first entry of its row with the same value: equal in two rows, less
    the row offsets, iff the rows have the same kernel partition.  One
    ``np.minimum.at`` scatter of the flat positions into one slot per
    (row, value) (``ufunc.at`` is defined on repeated indices, where a
    plain repeated-index assignment leaves the order open), no argsort
    along the rows.  The slots span the values from the least (or 0) to
    the greatest, so the table has k·n entries for maps of an n-point
    set."""
    k, n = rows.shape
    lo = rows.min(initial=0)
    span = int(rows.max(initial=0)) - int(lo) + 1
    slot = rows + (np.arange(0, k * span, span) - int(lo))[:, None]  # in index width, so no cell overflows
    first = np.full(k * span, k * n, dtype=np.intp)
    np.minimum.at(first, slot.ravel(), np.arange(k * n))
    return first[slot]


def _state_sets(sets) -> np.ndarray:
    """State sets as the rows of an int array: an array passes through, and
    a list of sets is sorted set by set and padded with each set's least
    member, which changes no collapse test."""
    if isinstance(sets, np.ndarray):
        return sets
    rows = [sorted({int(x) for x in s}) for s in sets]
    if not all(rows):
        raise ValueError("proximal-set test needs a nonempty set")
    width = max(map(len, rows), default=1)
    return np.array([r + r[:1] * (width - len(r)) for r in rows], dtype=np.intp).reshape(len(rows), width)


def first_rows(elements: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """For each state set (a row of ``sets``), the first row of
    ``elements`` that maps the set to one point, or -1.

    The images are gathered for blocks of element rows and of sets, sized
    from the inputs so that no gathered array has more entries than
    ``elements``; a set leaves the scan once it has its row.  A block's
    images are laid out set member first, and the collapse test compares
    each member's slab with the first one's: a reduction over the short
    member axis of the gathered layout costs many times more."""
    out = np.full(len(sets), -1, dtype=np.intp)
    width = sets.shape[1]
    rows = np.arange(len(elements))[:, None]
    columns = sets.T[:, None]  # (width, 1, sets)
    chunk = max(1, elements.size // width)
    for lo in range(0, len(sets), chunk):
        todo = np.arange(lo, min(lo + chunk, len(sets)))
        start = 0
        while todo.size and start < len(rows):
            stop = start + max(1, elements.size // (todo.size * width))
            images = elements[rows[start:stop], columns[:, :, todo]]  # (width, rows, sets)
            hit = np.ones(images.shape[1:], dtype=bool)
            for slab in images[1:]:
                hit &= slab == images[0]
            found = hit.any(axis=0)
            out[todo[found]] = start + hit.argmax(axis=0)[found]
            todo, start = todo[~found], stop
    return out


class TransMonoid:
    """The closed transformation monoid generated by a flow.

    ``elements`` is an ``(m, n)`` integer array (int16, or int32 from
    2^15 states); row 0 is the identity and the remaining rows are ordered
    breadth-first from the generators, in lexicographic row order inside
    each layer (``close``), so the ordering is reproducible bit-for-bit.
    Products are gathers on these rows: the row of p ∘ q is
    ``elements[p][elements[q]]``, and ``positions`` turns rows back into
    element indices by their row keys.
    """

    def __init__(self, flow: FiniteFlow, elements: np.ndarray):
        self.flow = flow
        self.elements = elements
        self.identity_index = 0
        self._order: np.ndarray | None = None

    @property
    def n_states(self) -> int:
        return self.flow.n_states

    @property
    def size(self) -> int:
        return int(self.elements.shape[0])

    def positions(self, rows) -> np.ndarray:
        """``row_positions`` on ``elements``, whose keys are sorted once."""
        if self._order is None:
            self._order = np.argsort(_row_keys(self.elements))
        return row_positions(self.elements, rows, self._order)

    @cached_property
    def generators(self) -> np.ndarray:
        """The flow's maps as one ``(k, n)`` int array, built once per monoid."""
        return np.array(self.flow.generators)

    def ranks(self) -> np.ndarray:
        return 1 + (np.diff(np.sort(self.elements, axis=1), axis=1) > 0).sum(axis=1)

    def idempotent_powers(self, indices) -> np.ndarray:
        """For each element index, the unique idempotent among the positive
        powers of that element.  The distinct elements step together, p^k to
        p^(k+1) = p^k ∘ p in one gather, and each leaves once its power is
        idempotent; every gather has at most ``elements.size`` entries, one
        row per distinct element.  One ``positions`` call names the powers."""
        wanted = np.asarray(indices, dtype=np.intp)
        distinct = sorted_unique(wanted)
        base = self.elements[distinct]
        power, found = base, np.empty_like(base)
        todo = np.arange(distinct.size)
        for _ in range(self.size + 1):
            done = idempotent_mask(power)
            found[todo[done]] = power[done]
            todo, power, base = todo[~done], power[~done], base[~done]
            if not todo.size:
                return self.positions(found)[np.searchsorted(distinct, wanted)]
            power = compose_rows(power, base)
        raise AssertionError("no idempotent power found; monoid not closed?")


def first_collapsers(m: TransMonoid, sets) -> np.ndarray:
    """For each state set, the first element index that collapses it to a
    single point, or -1 where none does (the set is not proximal): one
    blocked scan of the monoid for all the sets (``first_rows``)."""
    return first_rows(m.elements, _state_sets(sets))


def close(flow: FiniteFlow, cap: int | None = None) -> TransMonoid:
    """Least unital composition-closed superset of the generators.

    Breadth-first from the identity, one layer at a time.  The generators
    are held in the cell dtype of the row keys (``_row_keys``, which sort
    as the rows do), so one ``take`` along them at the frontier rows gives
    the keys of every product g ∘ e of a generator g and a frontier row e.
    The keys are deduplicated by one sort (``sorted_unique``) and the
    known ones dropped by a binary search; the new ones are merged into
    the sorted known keys at their search slots, each shifted by the new
    keys before it.  The new rows, decoded from their keys, are stored
    in the element dtype in key order; only the frontier is widened to
    index width.  Raises MonoidTooLarge once a layer would take the
    closure past ``cap`` elements, before that layer is stored.
    """
    if cap is None:
        cap = element_cap()
    n = flow.n_states
    dtype = np.int16 if n < 2**15 else np.int32
    code = _cell_code(n)
    gens = np.array(flow.generators, dtype=code)
    frontier = np.arange(n)[None]
    layers = [frontier.astype(dtype)]
    known = _row_keys(frontier)  # sorted keys of every row so far
    while frontier.size:
        keys = sorted_unique(gens.take(frontier, axis=1).view(known.dtype))
        at = np.searchsorted(known, keys)
        new = known[np.minimum(at, known.size - 1)] != keys
        fresh = keys[new]
        if known.size + fresh.size > cap:
            raise MonoidTooLarge(f"monoid too large: more than {cap} elements")
        slots = at[new] + np.arange(fresh.size)
        kept = np.ones(known.size + fresh.size, dtype=bool)
        kept[slots] = False
        merged = np.empty(kept.size, dtype=known.dtype)
        merged[slots] = fresh
        merged[kept] = known
        known = merged
        rows = fresh.view(code).reshape(-1, n)
        layers.append(rows.astype(dtype))
        frontier = rows.astype(np.intp)
    return TransMonoid(flow, np.concatenate(layers))


@dataclass(frozen=True, eq=False)
class IdealStructure:
    """The minimal left ideals, their idempotents, and the first-occurrence
    labels of each ideal kernel and of their common refinement, as arrays:

    * ``kernel_elements``: every ideal's members in ideal order, each
      ideal's in increasing order; ``member_ideals`` names their ideals;
    * ``all_idempotents``: every ideal's idempotents, in the same order;
      ``idempotent_ideals`` names their ideals;
    * ``labels``: one row per ideal kernel, so x and y are collapsed by
      every member of ideal i iff ``labels[i, x] == labels[i, y]``, and the
      refinement in the last row: x and y share its label iff every
      minimal ideal collapses them.  Every row is in first-occurrence form
      (``kernel_labels``): the c-th class of a row has the c-th least
      member.

    Ideals are numbered by least member."""

    kernel_elements: np.ndarray
    member_ideals: np.ndarray
    all_idempotents: np.ndarray
    idempotent_ideals: np.ndarray
    labels: np.ndarray

    @property
    def ideal_count(self) -> int:
        return len(self.labels) - 1

    @cached_property
    def class_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The classes of every row of ``labels`` as two flat arrays: the
        states class by class, each class's in increasing order and the
        rows one after another (one stable argsort of ``labels``, row by
        row), and the start of each class in it.  Row r's classes fill
        positions r·n to (r + 1)·n, in order of least member."""
        order = np.argsort(self.labels, axis=1, kind="stable")
        ranked = np.sort(self.labels, axis=1)
        lead = np.ones(order.shape, dtype=bool)
        lead[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
        return order.ravel(), np.flatnonzero(lead)

    @cached_property
    def classes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The classes of each row of ``labels`` in order, each listing its
        states in increasing order, read from ``class_arrays``."""
        states, starts = self.class_arrays
        flat, ends = states.tolist(), [*starts[1:].tolist(), states.size]
        sets = [tuple(flat[a:b]) for a, b in zip(starts.tolist(), ends)]
        rows = np.searchsorted(starts, np.arange(1, len(self.labels) + 1) * self.labels.shape[1]).tolist()
        return tuple(tuple(sets[a:b]) for a, b in zip([0, *rows], rows))


def ideal_structure(m: TransMonoid) -> IdealStructure:
    """The minimal left ideals, their idempotents and the labels, computed
    afresh on every call; ``analyze_flow`` calls it once and keeps the
    result.

    In a finite transformation monoid the minimal left ideals are exactly
    the classes of minimum-rank elements grouped by kernel partition: one
    ``first_positions`` pass over every minimum-rank row gives each state
    the least state of its kernel class, and one stable sort of those
    rows' byte keys groups them, each group led by its least member; only
    the groups' first rows are labelled (``kernel_labels``).  That each
    is S¹p for every member p is checked by the relation check suite
    (``fuzz.left_action_counterexamples``), not here.
    One ``idempotent_mask`` over every kernel element finds the
    idempotents of all ideals.  State x's refinement code is the rank of
    its byte key, which reads x's label in every ideal kernel; a second
    ``kernel_labels`` pass over the kernels and the codes gives the
    structure's ``labels``, the refinement labels last."""
    ranks = m.ranks()
    lowest = np.flatnonzero(ranks == ranks.min())
    rows = m.elements[lowest]
    keys = _row_keys(first_positions(rows) - np.arange(0, rows.size, m.n_states)[:, None])
    order = np.argsort(keys, kind="stable")
    leads = np.concatenate(([True], keys[order][1:] != keys[order][:-1]))
    group = np.empty(keys.size, dtype=np.intp)
    group[order] = np.cumsum(leads) - 1
    firsts = order[leads]  # each group's least row
    owner = np.searchsorted(np.sort(firsts), firsts)[group]  # ideals numbered by least member
    by_ideal = np.argsort(owner, kind="stable")
    members, owner, kernels = lowest[by_ideal], owner[by_ideal], kernel_labels(rows[np.sort(firsts)])
    mask = idempotent_mask(m.elements[members])
    counts = np.bincount(owner[mask], minlength=len(kernels))
    if not counts.all():
        raise AssertionError(f"minimal ideal {tuple(members[owner == counts.argmin()].tolist())} has no idempotent")
    codes = _row_keys(kernels.T, m.n_states)
    labels = kernel_labels(np.vstack([kernels, np.searchsorted(sorted_unique(codes), codes)]))
    return IdealStructure(members, owner, members[mask], owner[mask], labels)


def equivalence_matrix(m: TransMonoid, us, vs) -> np.ndarray:
    """Boolean ``(len(us), len(vs))``: entry [i, j] says u∘v = v and
    v∘u = u for u = us[i], v = vs[j], read from the gathered product
    tables ``EU[:, EV]`` and ``EV[:, EU]``, in blocks of rows of ``us``
    that keep each gathered table within ``elements.size`` entries."""
    eu, ev = m.elements[np.asarray(us, dtype=np.intp)], m.elements[np.asarray(vs, dtype=np.intp)]
    block = max(1, m.elements.size // max(1, ev.size))
    return np.concatenate([
        (eu[lo:lo + block][:, ev] == ev).all(axis=2) & (ev[:, eu[lo:lo + block]] == eu[lo:lo + block]).all(axis=2).T
        for lo in range(0, max(1, len(eu)), block)
    ])


def equivalent_idempotents(structure: IdealStructure, equivalence: np.ndarray) -> list[tuple[int, int]]:
    """All cross-ideal pairs (u, u') of ``structure``'s idempotents with
    u∘u' = u' and u'∘u = u, ordered by (ideal of u < ideal of u', u, u'),
    masked from ``equivalence``, the ``equivalence_matrix`` over all the
    idempotents (whose row-major order is (ideal of u, u, ideal of u', u')).
    The existence claim (every minimal idempotent has a partner in every
    other minimal ideal) is checked on these pairs by the relation check
    suite."""
    us, ideal_of = structure.all_idempotents, structure.idempotent_ideals
    i, j = np.nonzero(equivalence & (ideal_of[:, None] < ideal_of))
    order = np.lexsort((j, i, ideal_of[j], ideal_of[i]))
    return list(zip(us[i[order]].tolist(), us[j[order]].tolist()))


@dataclass(frozen=True)
class FactorMap:
    """An equivariant surjection between finite flows.

    Generators are paired by index: source generator i corresponds to
    target generator i, and ``point_map[g_i(x)] = g'_i(point_map[x])``.
    """

    source: FiniteFlow
    target: FiniteFlow
    point_map: tuple[int, ...]

    def __post_init__(self):
        if len(self.point_map) != self.source.n_states:
            raise NotAFactorMap("point map arity mismatch")
        if set(self.point_map) != set(range(self.target.n_states)):
            raise NotAFactorMap("point map is not onto the target states")
        if len(self.source.generators) != len(self.target.generators):
            raise NotAFactorMap("generator count mismatch")
        pm = self.point_map
        for gi, (g, h) in enumerate(zip(self.source.generators, self.target.generators)):
            for x in range(self.source.n_states):
                if pm[g[x]] != h[pm[x]]:
                    raise NotAFactorMap(
                        f"equivariance fails for generator {gi} at state {x}"
                    )

    def fiber(self, y: int) -> tuple[int, ...]:
        return tuple(x for x in range(self.source.n_states) if self.point_map[x] == y)


def induced_theta(f: FactorMap, sm: TransMonoid, tm: TransMonoid) -> np.ndarray:
    """For each source monoid element p, the unique target element θ(p)
    with θ(p)∘π = π∘p, as an index array into the target monoid.

    θ is automatically a monoid homomorphism (π is onto), and it maps
    minimal ideals onto minimal ideals; both facts are exercised by tests.
    """
    pm = np.array(f.point_map, dtype=tm.elements.dtype)
    reps = np.full(f.target.n_states, -1, dtype=int)
    for x in range(f.source.n_states - 1, -1, -1):
        reps[f.point_map[x]] = x
    mapped = pm[sm.elements]  # row i, column x: π(p_i(x))
    candidates = mapped[:, reps]
    undefined = ~(candidates[:, pm] == mapped).all(axis=1)
    theta = tm.positions(candidates)
    bad = np.flatnonzero(undefined | (theta < 0))
    if bad.size:
        i = int(bad[0])
        if undefined[i]:
            raise NotAFactorMap(f"no well-defined target action for element {i}")
        raise NotAFactorMap(f"induced element {tuple(candidates[i].tolist())} missing from target monoid")
    return theta
