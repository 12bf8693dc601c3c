"""The relation families P, D, Omega, SP, WD on finite flows.

All relations are represented as dense boolean matrices over state pairs.
On a finite flow the generated monoid is the orbit-closure machinery, so
statements about orbit closures become statements quantified over monoid
elements and are checked exactly.  ``analyze_flow`` computes the ideal
structure and the relations once, and every check reads the resulting
``FlowAnalysis``: the factor and product checks take one per flow
involved, so none of them closes a flow again.

The monoid is generated by the flow's maps and contains the identity, so
"for every s in S" is "for every word in the generators, the empty word
included".  Invariance is therefore checked one generator at a time
(induction on word length makes that exact), and the all-elements forms
are read in the pair graph, whose edges are (x, y) -> (g(x), g(y)) for
each generator g: P's element form is "the diagonal is reachable" and
SP's translate form is the complement of the pairs that reach ~P, a
forward closure.  Neither builds an array of shape ``(size, n, n)``; the
tensor forms live on in ``tests/oracles.py`` as their references.

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

import numpy as np

from .finflow import (
    FactorMap,
    FiniteFlow,
    IdealStructure,
    TransMonoid,
    close,
    equivalent_idempotents,
    ideal_structure,
    idempotent_mask,
    induced_theta,
    label_classes,
)


class NotAnIcer(ValueError):
    """Raised when a relation offered for quotienting is not a closed
    invariant equivalence relation; carries the violated property."""

    def __init__(self, prop: str, detail: str = ""):
        self.violated = prop
        super().__init__(f"not an icer: {prop}" + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class PairRelation:
    """A symmetric set of state pairs, stored as a dense boolean matrix."""

    n_states: int
    matrix: np.ndarray
    kind: str = "custom"

    def contains(self, x: int, y: int) -> bool:
        return bool(self.matrix[x, y])

    def pairs(self) -> list[tuple[int, int]]:
        return [(int(x), int(y)) for x, y in zip(*np.nonzero(self.matrix))]

    @property
    def is_symmetric(self) -> bool:
        return bool((self.matrix == self.matrix.T).all())

    @property
    def is_reflexive(self) -> bool:
        return bool(self.matrix.diagonal().all())

    @property
    def is_transitive(self) -> bool:
        m = self.matrix
        return bool((~(m @ m) | m).all())

    @property
    def is_equivalence(self) -> bool:
        return self.is_reflexive and self.is_symmetric and self.is_transitive

    def classes(self) -> list[frozenset[int]]:
        """Equivalence classes, ordered by least member (requires equivalence)."""
        return label_classes(self.matrix.argmax(axis=1).tolist())


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


def pairs_reaching(gens: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The state pairs from which some word in the generators (rows of
    ``gens``), the empty word included, leads into the pair set ``target``:
    ``reaching`` in the pair graph (x, y) -> (g(x), g(y)), O(k n²) a pass."""
    n = target.shape[0]
    g = np.asarray(gens, dtype=np.intp)
    succ = (g[:, :, None] * n + g[:, None, :]).reshape(len(g), n * n)
    return reaching(succ, target.reshape(-1)).reshape(n, n)


def invariance_violation(gens: np.ndarray, rel: np.ndarray) -> tuple[int, int, int] | None:
    """The first (generator, x, y) with (x, y) in ``rel`` but its image
    pair not, from one ``(k, n, n)`` gather; None when ``rel`` is forward
    invariant, which checked per generator is exact for the whole monoid."""
    g = np.asarray(gens, dtype=np.intp)
    bad = rel & ~rel[g[:, :, None], g[:, None, :]]
    return tuple(np.argwhere(bad)[0].tolist()) if bad.any() else None


def verify_relation_forms(m: TransMonoid, p: PairRelation, sp: PairRelation) -> None:
    """The cross-form assertions on P and SP, run once per ``analyze_flow``.

    P read from the minimal ideals equals the element form (the diagonal
    is reachable in the pair graph); SP is an equivalence relation; SP
    membership is equivalent to every monoid translate of the pair staying
    proximal (no path to ~P).  Disagreement would be an implementation bug,
    since each pair of forms is provably equal.
    """
    gens = np.array(m.flow.generators)
    direct = pairs_reaching(gens, diagonal(m.n_states))
    if not np.array_equal(direct, p.matrix):
        raise AssertionError(
            "proximal relation: element form and minimal-ideal form disagree; "
            f"diff pairs {np.argwhere(direct != p.matrix).tolist()}"
        )
    if not sp.is_equivalence:
        raise AssertionError("SP failed to be an equivalence relation")
    if not np.array_equal(sp.matrix, ~pairs_reaching(gens, ~p.matrix)):
        raise AssertionError("SP does not match the all-translates-proximal form")


@dataclass(frozen=True)
class FlowAnalysis:
    """Everything computed once for a flow: closure, ideal structure and
    the five relations (D and WD are the complements of P and SP).  Every
    check reads these fields, so an analysis changed with
    ``dataclasses.replace`` reaches all of them."""

    flow: FiniteFlow
    monoid: TransMonoid
    structure: IdealStructure
    omega: PairRelation
    proximal: PairRelation
    strongly_proximal: PairRelation
    equivalent_pairs: list[tuple[int, int]]

    @property
    def n_states(self) -> int:
        return self.flow.n_states

    @property
    def distal(self) -> PairRelation:
        return PairRelation(self.n_states, ~self.proximal.matrix, "D")

    @property
    def weakly_distal(self) -> PairRelation:
        return PairRelation(self.n_states, ~self.strongly_proximal.matrix, "WD")

    def relation(self, kind: str) -> PairRelation:
        return {
            "P": self.proximal,
            "D": self.distal,
            "Omega": self.omega,
            "SP": self.strongly_proximal,
            "WD": self.weakly_distal,
        }[kind]

    @property
    def is_distal_flow(self) -> bool:
        return bool((self.proximal.matrix == diagonal(self.n_states)).all())

    @property
    def is_proximal_flow(self) -> bool:
        return bool(self.proximal.matrix.all())

    @property
    def is_weakly_distal_flow(self) -> bool:
        return bool((self.strongly_proximal.matrix == diagonal(self.n_states)).all())


def analyze_flow(flow: FiniteFlow, cap: int | None = None) -> FlowAnalysis:
    """Close the flow and read everything from its minimal ideals once.

    Minimal ideal i collapses (x, y) iff its kernel labels agree there: P
    is the pairs some ideal collapses, SP those every ideal collapses, and
    Omega the pairs fixed by some minimal idempotent (the almost periodic
    pairs of the product flow).  ``verify_relation_forms`` checks P and SP
    against their element and translate forms."""
    m = close(flow, cap=cap)
    st = ideal_structure(m)
    n = flow.n_states
    labels = np.array([ideal.kernel for ideal in st.ideals])
    collapsed = labels[:, :, None] == labels[:, None, :]
    p = PairRelation(n, collapsed.any(axis=0), "P")
    sp = PairRelation(n, collapsed.all(axis=0), "SP")
    verify_relation_forms(m, p, sp)
    fixed = m.elements[list(st.all_idempotents)] == np.arange(n)
    return FlowAnalysis(
        flow=flow,
        monoid=m,
        structure=st,
        omega=PairRelation(n, fixed.T @ fixed, "Omega"),
        proximal=p,
        strongly_proximal=sp,
        equivalent_pairs=equivalent_idempotents(m, st),
    )


def is_minimal_flow(m: TransMonoid) -> bool:
    """Minimal iff every orbit S¹x is the whole state set."""
    reached = np.zeros((m.n_states, m.n_states), dtype=bool)
    reached[np.arange(m.n_states), m.elements] = True  # [x, s(x)] for every s
    return bool(reached.all())


def check_unique_ideal_equiv(ax: FlowAnalysis) -> dict:
    """The three-way equivalence: P is an equivalence relation iff the
    monoid has a unique minimal ideal iff P = SP, together with the
    forward-invariance form ((x,y) in P implies s(x,y) in P for all s)."""
    p = ax.proximal
    report = {
        "p_is_equivalence": p.is_equivalence,
        "unique_minimal_ideal": len(ax.structure.ideals) == 1,
        "p_equals_sp": bool(np.array_equal(p.matrix, ax.strongly_proximal.matrix)),
        "p_forward_invariant": invariance_violation(np.array(ax.flow.generators), p.matrix) is None,
    }
    report["consistent"] = len(set(report.values())) == 1
    return report


# ---------------------------------------------------------------------------
# Witness construction


@dataclass(frozen=True)
class Verdict:
    """A membership answer for one pair, with a replayable witness."""

    kind: str
    pair: tuple[int, int]
    answer: str  # "in" | "out"
    witness: dict | None = None


def proximal_verdict(m: TransMonoid, x: int, y: int) -> Verdict:
    e = m.elements
    hits = np.flatnonzero(e[:, x] == e[:, y])
    if hits.size:
        return Verdict("P", (x, y), "in", {"collapser": int(hits[0])})
    return Verdict("P", (x, y), "out", None)


def sp_verdict(ax: FlowAnalysis, x: int, y: int) -> Verdict:
    """In-SP verdicts cite that every minimal ideal collapses the pair;
    out-verdicts carry an ideal, an element separating the pair, and the
    idempotent power of that element, which fixes the separated images (an
    almost periodic non-diagonal limit of the pair)."""
    m, st = ax.monoid, ax.structure
    for k, ideal in enumerate(st.ideals):
        rows = m.elements[list(ideal.members)]
        separating = np.flatnonzero(rows[:, x] != rows[:, y])
        if separating.size:
            p = ideal.members[separating[0]]
            row = rows[separating[0]]
            u = m.idempotent_power(p)
            urow = m.elements[u]
            if urow[row[x]] != row[x] or urow[row[y]] != row[y]:
                raise AssertionError("idempotent power failed to fix the image pair")
            return Verdict(
                "SP",
                (x, y),
                "out",
                {"ideal": k, "separator": int(p), "fixing_idempotent": int(u)},
            )
    return Verdict("SP", (x, y), "in", {"collapsing_ideals": len(st.ideals)})


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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def as_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "counterexample": self.detail or None}


def _result(name: str, ok: bool | np.bool_, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(ok), "" if ok else detail)


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
        np.array_equal(px.strongly_proximal.matrix, lift(ax.strongly_proximal.matrix, bx.strongly_proximal.matrix, np.logical_and)),
    ))
    out.append(_result(
        "product_d_from_coordinates",
        not (lift(ax.distal.matrix, bx.distal.matrix, np.logical_or) & ~px.distal.matrix).any(),
    ))
    out.append(_result(
        "product_wd_some_coordinate",
        np.array_equal(px.weakly_distal.matrix, lift(ax.weakly_distal.matrix, bx.weakly_distal.matrix, np.logical_or)),
    ))
    out.append(_result(
        "product_omega_subset_of_coordinates",
        not (px.omega.matrix & ~lift(ax.omega.matrix, bx.omega.matrix, np.logical_and)).any(),
    ))

    # Omega decomposes through common minimal idempotents of the product.
    rows = px.monoid.elements[list(px.structure.all_idempotents)]
    wa, wb = rows[:, ys == 0] // nb, rows[:, xs == 0] % nb  # actions on X (column y = 0) and on Y
    if not ((rows // nb == wa[:, xs]).all() and (rows % nb == wb[:, ys]).all()):
        raise AssertionError("product monoid element is not coordinatewise")
    fixed = (wa == np.arange(na))[:, xs] & (wb == np.arange(nb))[:, ys]
    via_common = fixed.T @ fixed
    out.append(_result(
        "product_omega_common_idempotent",
        np.array_equal(px.omega.matrix, via_common),
    ))

    shape = (na, nb, na, nb)
    for name, rel_p, rel_a, rel_b, exact in (
        ("omega", px.omega, ax.omega, bx.omega, True),
        ("sp", px.strongly_proximal, ax.strongly_proximal, bx.strongly_proximal, True),
        ("p", px.proximal, ax.proximal, bx.proximal, False),
    ):
        proj_a = rel_p.matrix.reshape(shape).any(axis=(1, 3))
        proj_b = rel_p.matrix.reshape(shape).any(axis=(0, 2))
        if exact:
            ok = np.array_equal(proj_a, rel_a.matrix) and np.array_equal(proj_b, rel_b.matrix)
            out.append(_result(f"product_{name}_projection_onto", ok))
        else:
            ok = not (proj_a & ~rel_a.matrix).any() and not (proj_b & ~rel_b.matrix).any()
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
    lifted = ax.distal.matrix[xs[:, None], xs[None, :]] | bx.distal.matrix[ys[:, None], ys[None, :]]
    ok = np.array_equal(px.distal.matrix, lifted)
    detail = ""
    if not ok:
        s, t = np.argwhere(px.distal.matrix != lifted)[0]
        detail = (
            f"product pair (({s // nb},{s % nb}),({t // nb},{t % nb})): "
            f"product D={bool(px.distal.matrix[s, t])}, coordinate D={bool(lifted[s, t])}"
        )
    return CheckResult("product_d_published_biconditional", ok, detail)


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


def quotient_by_icer(flow: FiniteFlow, relation: PairRelation | np.ndarray) -> FactorMap:
    """Quotient by a closed invariant equivalence relation.  Target states
    are the classes ordered by least member; generators descend."""
    matrix = relation.matrix if isinstance(relation, PairRelation) else relation
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


def _factor_theta(f: FactorMap, src: FlowAnalysis, tgt: FlowAnalysis) -> np.ndarray:
    """``induced_theta`` of the factor map, once ``src`` and ``tgt`` are
    checked to be the analyses of its source and target."""
    if src.flow != f.source or tgt.flow != f.target:
        raise ValueError("analyses are not of the factor map's source and target")
    return induced_theta(f, src.monoid, tgt.monoid)


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
    return {"proximal": bool(src.proximal.matrix[same_fiber].all()),
            "distal": bool(src.distal.matrix[same_fiber].all())}


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
    """
    theta = _factor_theta(f, src, tgt)
    pm = f.point_map
    nt = f.target.n_states
    out: list[CheckResult] = []

    p_img = pushforward(src.proximal.matrix, pm, nt)
    d_img = pushforward(src.distal.matrix, pm, nt)
    o_img = pushforward(src.omega.matrix, pm, nt)
    sp_img = pushforward(src.strongly_proximal.matrix, pm, nt)
    out.append(_result("factor_p_image_subset", not (p_img & ~tgt.proximal.matrix).any()))
    out.append(_result("factor_d_image_superset", not (tgt.distal.matrix & ~d_img).any()))
    out.append(_result("factor_omega_image_equal", np.array_equal(o_img, tgt.omega.matrix)))
    out.append(_result("factor_sp_image_subset", not (sp_img & ~tgt.strongly_proximal.matrix).any()))

    p_pre = pullback(tgt.proximal.matrix, pm)
    d_pre = pullback(tgt.distal.matrix, pm)
    o_pre = pullback(tgt.omega.matrix, pm)
    sp_pre = pullback(tgt.strongly_proximal.matrix, pm)
    wd_pre = pullback(tgt.weakly_distal.matrix, pm)
    out.append(_result("factor_p_preimage_superset", not (src.proximal.matrix & ~p_pre).any()))
    out.append(_result("factor_d_preimage_subset", not (d_pre & ~src.distal.matrix).any()))
    out.append(_result("factor_omega_preimage_superset", not (src.omega.matrix & ~o_pre).any()))
    out.append(_result("factor_sp_preimage_superset", not (src.strongly_proximal.matrix & ~sp_pre).any()))
    out.append(_result("factor_wd_preimage_subset", not (wd_pre & ~src.weakly_distal.matrix).any()))

    kind = detect_fiber_type(f, src)
    if kind["proximal"]:
        out.append(_result("factor_proximal_p_preimage_equal", np.array_equal(src.proximal.matrix, p_pre)))
        out.append(_result("factor_proximal_d_preimage_equal", np.array_equal(src.distal.matrix, d_pre)))
        out.append(_result("factor_proximal_sp_preimage_equal", np.array_equal(src.strongly_proximal.matrix, sp_pre)))
        rpi = np.equal.outer(np.array(pm), np.array(pm))
        out.append(_result("factor_proximal_rpi_subset_sp", not (rpi & ~src.strongly_proximal.matrix).any()))
        wd_img = pushforward(src.weakly_distal.matrix, pm, nt)
        out.append(_result("factor_proximal_wd_image_subset", not (wd_img & ~tgt.weakly_distal.matrix).any()))
    if kind["distal"]:
        out.append(_result("factor_distal_omega_preimage_equal", np.array_equal(src.omega.matrix, o_pre)))

    # theta maps minimal ideals onto minimal ideals, covering all of them.
    src_ideals = src.structure.ideals
    tgt_ideal_sets = {frozenset(ideal.members) for ideal in tgt.structure.ideals}
    images = {frozenset(int(theta[p]) for p in ideal.members) for ideal in src_ideals}
    out.append(_result(
        "factor_theta_ideals_onto",
        images == tgt_ideal_sets,
        f"theta images {sorted(map(sorted, images))} vs target ideals {sorted(map(sorted, tgt_ideal_sets))}",
    ))

    # every almost periodic base point's fiber contains u . fiber with
    # theta(u) fixing the base point and u fixing u . fiber pointwise.
    ok_fibers = True
    detail = ""
    tgt_idempotents = np.array(tgt.structure.all_idempotents)
    fixes = tgt.monoid.elements[tgt_idempotents] == np.arange(nt)
    pm_arr = np.array(pm)
    for y in range(nt):
        if not fixes[:, y].any():
            continue  # y is not almost periodic; hypothesis fails
        w = int(tgt_idempotents[fixes[:, y].argmax()])
        u = None
        for ideal in src_ideals:
            over_w = np.flatnonzero(theta[list(ideal.members)] == w)
            if over_w.size:
                u = src.monoid.idempotent_power(ideal.members[over_w[0]])
                break
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
    return out


def idempotent_section_check(f: FactorMap, src: FlowAnalysis, tgt: FlowAnalysis) -> list[CheckResult]:
    """On a minimal target: a minimal-ideal element w of the target is
    idempotent iff (w(y), y) is proximal for every y; and for every source
    element p of a minimal ideal with theta(p) = w, w is idempotent iff
    (pi(p(x)), pi(x)) is proximal in the target for every x.

    Skipped (with notice) when the target is not minimal.  The
    quantification stays inside minimal ideals: for arbitrary elements the
    fiberwise-proximal condition does not force idempotence on monoid
    models (a state swap plus a constant map already breaks it), while for
    kernel elements the idempotent left identity of the element's ideal
    fixes its image pointwise and the implication is unconditional.
    """
    theta = _factor_theta(f, src, tgt)
    if not is_minimal_flow(tgt.monoid):
        return [CheckResult("idempotent_section", True, "skipped: target not minimal")]
    pm = np.array(f.point_map)
    pmat = tgt.proximal.matrix
    ar = np.arange(f.target.n_states)
    te = tgt.monoid.elements
    tgt_kernel = np.array(sorted(tgt.structure.kernel_elements))
    rows = te[tgt_kernel]
    bad = np.flatnonzero(idempotent_mask(rows) != pmat[rows, ar].all(axis=1))
    out = [_result("idempotent_section_target", not bad.size, f"element {tgt_kernel[bad[0]]}" if bad.size else "")]
    src_kernel = np.array(src.structure.kernel_elements)
    fiberwise = pmat[pm[src.monoid.elements[src_kernel]], pm].all(axis=1)
    bad = np.flatnonzero(idempotent_mask(te[theta[src_kernel]]) != fiberwise)
    out.append(_result("idempotent_section_source", not bad.size, f"element {src_kernel[bad[0]]}" if bad.size else ""))
    return out
