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

    @property
    def states(self) -> range:
        return range(self.n_states)

    def apply(self, gen_index: int, state: int) -> int:
        return self.generators[gen_index][state]


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


def kernel_signature(row) -> tuple[int, ...]:
    """First-occurrence labelling of a map's images; maps with equal
    signatures induce the same partition of the state set."""
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(int(v), len(labels)) for v in row)


class TransMonoid:
    """The closed transformation monoid generated by a flow.

    ``elements`` is an ``(m, n)`` integer array; row 0 is the identity and
    the remaining rows are ordered breadth-first from the generators with a
    lexicographic tie-break inside each layer, so the ordering is
    reproducible bit-for-bit.
    """

    def __init__(self, flow: FiniteFlow, elements: np.ndarray, index: dict[tuple[int, ...], int]):
        self.flow = flow
        self.elements = elements
        self.index = index
        self.identity_index = 0
        self._structure: IdealStructure | None = None

    @property
    def n_states(self) -> int:
        return self.flow.n_states

    @property
    def size(self) -> int:
        return int(self.elements.shape[0])

    def row(self, i: int) -> np.ndarray:
        return self.elements[i]

    def image_tuple(self, i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.elements[i])

    def compose(self, i: int, j: int) -> int:
        """Index of elements[i] ∘ elements[j]."""
        row = self.elements[i][self.elements[j]]
        return self.index[tuple(row.tolist())]

    def apply(self, i: int, state: int) -> int:
        return int(self.elements[i][state])

    def ranks(self) -> np.ndarray:
        srt = np.sort(self.elements, axis=1)
        if self.n_states == 1:
            return np.ones(self.size, dtype=int)
        return 1 + (np.diff(srt, axis=1) > 0).sum(axis=1)

    def rank(self, i: int) -> int:
        return len(set(self.image_tuple(i)))

    def is_idempotent(self, i: int) -> bool:
        return self.compose(i, i) == i

    def idempotent_power(self, i: int) -> int:
        """The unique idempotent among the positive powers of element i."""
        j = i
        for _ in range(self.size + 1):
            if self.compose(j, j) == j:
                return j
            j = self.compose(j, i)
        raise AssertionError("no idempotent power found; monoid not closed?")

    def left_ideal_of(self, p: int) -> tuple[int, ...]:
        """Sorted indices of {s ∘ p : s in the monoid}."""
        rows = self.elements[:, self.elements[p]]
        uniq = np.unique(rows, axis=0)
        return tuple(sorted(self.index[tuple(r.tolist())] for r in uniq))

    def as_flow(self) -> FiniteFlow:
        """The flow whose generators are all monoid elements (closure idempotence)."""
        return FiniteFlow(self.n_states, tuple(self.image_tuple(i) for i in range(self.size)))

    def compose_table(self, limit: int = 2000) -> np.ndarray:
        """Full index-based composition table; guarded because it is quadratic."""
        if self.size > limit:
            raise MonoidTooLarge(f"compose table for {self.size} elements exceeds limit {limit}")
        table = np.empty((self.size, self.size), dtype=np.int32)
        for i in range(self.size):
            rows = self.elements[i][self.elements]
            for j in range(self.size):
                table[i, j] = self.index[tuple(rows[j].tolist())]
        return table


def close(flow: FiniteFlow, cap: int | None = None) -> TransMonoid:
    """Least unital composition-closed superset of the generators.

    Breadth-first from the generators; each new layer is sorted by image
    tuple before being appended, so the element order is deterministic.
    Raises MonoidTooLarge when the closure would exceed ``cap`` elements.
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
    return TransMonoid(flow, elements, index)


@dataclass(frozen=True)
class LeftIdeal:
    """A minimal left ideal: a kernel(-partition) class of the minimum-rank
    elements.  ``kernel`` is the common partition signature of its members."""

    members: tuple[int, ...]
    kernel: tuple[int, ...]
    is_minimal: bool = True


@dataclass(frozen=True)
class IdealStructure:
    ideals: tuple[LeftIdeal, ...]
    idempotents_by_ideal: tuple[tuple[int, ...], ...]

    @property
    def all_idempotents(self) -> tuple[int, ...]:
        return tuple(u for js in self.idempotents_by_ideal for u in js)

    @property
    def kernel_elements(self) -> tuple[int, ...]:
        return tuple(i for ideal in self.ideals for i in ideal.members)

    def ideal_of_element(self, p: int) -> int:
        for k, ideal in enumerate(self.ideals):
            if p in ideal.members:
                return k
        raise KeyError(p)


def minimal_left_ideals(m: TransMonoid) -> list[LeftIdeal]:
    """All distinct inclusion-minimal left ideals.

    In a finite transformation monoid these are exactly the classes of
    minimum-rank elements grouped by kernel partition; the computation is
    linear in the monoid size.  Each returned ideal is verified against
    ``S¹p`` for its least member.
    """
    ranks = m.ranks()
    rmin = int(ranks.min())
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in np.nonzero(ranks == rmin)[0]:
        groups.setdefault(kernel_signature(m.elements[i]), []).append(int(i))
    ideals = [
        LeftIdeal(members=tuple(sorted(mem)), kernel=sig)
        for sig, mem in groups.items()
    ]
    ideals.sort(key=lambda ideal: ideal.members[0])
    for ideal in ideals:
        got = m.left_ideal_of(ideal.members[0])
        if got != ideal.members:
            raise AssertionError(
                f"minimal-ideal computation inconsistent: S^1 p = {got} vs kernel class {ideal.members}"
            )
    return ideals


def brute_minimal_left_ideals(m: TransMonoid) -> list[tuple[int, ...]]:
    """Reference computation: form S¹p for every p and keep the
    inclusion-minimal ones.  Quadratic; used as a cross-check oracle."""
    all_ideals = {m.left_ideal_of(p) for p in range(m.size)}
    minimal = []
    for ideal in all_ideals:
        s = set(ideal)
        if not any(set(other) < s for other in all_ideals):
            minimal.append(ideal)
    return sorted(minimal)


def idempotents(m: TransMonoid, ideal: LeftIdeal) -> tuple[int, ...]:
    """All u in the ideal with u ∘ u = u; nonempty for minimal ideals."""
    out = tuple(i for i in ideal.members if m.is_idempotent(i))
    if not out:
        raise AssertionError(f"minimal ideal {ideal.members} has no idempotent")
    return out


def ideal_structure(m: TransMonoid) -> IdealStructure:
    if m._structure is None:
        ideals = tuple(minimal_left_ideals(m))
        js = tuple(idempotents(m, ideal) for ideal in ideals)
        m._structure = IdealStructure(ideals=ideals, idempotents_by_ideal=js)
    return m._structure


def equivalent_idempotents(m: TransMonoid) -> list[tuple[int, int]]:
    """All cross-ideal pairs (u, u') with u∘u' = u' and u'∘u = u.

    Also asserts the existence claim: every minimal idempotent has at least
    one equivalent partner inside every other minimal ideal.
    """
    st = ideal_structure(m)
    pairs: list[tuple[int, int]] = []
    k = len(st.ideals)
    for a in range(k):
        for b in range(a + 1, k):
            for u in st.idempotents_by_ideal[a]:
                for v in st.idempotents_by_ideal[b]:
                    if m.compose(u, v) == v and m.compose(v, u) == u:
                        pairs.append((u, v))
    for a in range(k):
        for u in st.idempotents_by_ideal[a]:
            for b in range(k):
                if b == a:
                    continue
                if not any(
                    (m.compose(u, v) == v and m.compose(v, u) == u)
                    for v in st.idempotents_by_ideal[b]
                ):
                    raise AssertionError(
                        f"idempotent {u} has no equivalent partner in ideal {b}"
                    )
    return pairs


def fixed_point_set(m: TransMonoid, u: int) -> frozenset[int]:
    """{x : u(x) = x} for an idempotent u; equals the image of u."""
    if not m.is_idempotent(u):
        raise ValueError(f"element {u} is not idempotent")
    row = m.elements[u]
    fixed = frozenset(int(x) for x in np.nonzero(row == np.arange(m.n_states))[0])
    if fixed != frozenset(int(v) for v in row):
        raise AssertionError("fixed points of an idempotent must equal its image")
    return fixed


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


def identity_factor(flow: FiniteFlow) -> FactorMap:
    return FactorMap(flow, flow, tuple(range(flow.n_states)))


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
    theta = np.empty(sm.size, dtype=np.int64)
    mapped = pm[sm.elements]  # row i, column x: π(p_i(x))
    for i in range(sm.size):
        candidate = mapped[i][reps]
        if not np.array_equal(candidate[pm], mapped[i]):
            raise NotAFactorMap(f"no well-defined target action for element {i}")
        key = tuple(int(v) for v in candidate)
        if key not in tm.index:
            raise NotAFactorMap(f"induced element {key} missing from target monoid")
        theta[i] = tm.index[key]
    return theta
