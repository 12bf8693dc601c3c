"""JSON report assembly.

Reports are dicts with a ``schema`` version; the CLI serializes them
with sorted keys so identical inputs produce byte-identical output.  Their
values are JSON values, except that ``flow_report`` keeps the monoid rows
and each relation's pairs as integer arrays and each witness map as a
``RecordMap`` of int columns, which the writer encodes as json encodes
their ``tolist()``.
The human-readable text renderings are projections of these dicts, never
a separate source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import proxsets
from .circles import CirclePoint, asymptotic_class, center, pair_class, step, step_back
from .finflow import first_collapsers
from .fuzz import proxset_check_suite, relation_check_suite
from .relations import FlowAnalysis, is_equivalence, sp_witnesses, upper_pairs
from .subshift import (
    ChaconPoint,
    ClassifyParams,
    EventuallyPeriodic,
    Shift,
    chacon_block,
    classify_pair,
    morse_fixed_points,
)
from .ternary import constant, sp_classify, ternary

SCHEMA = 1


@dataclass(frozen=True, eq=False)
class RecordMap:
    """A witness map: state pairs, the rows of the ``(k, 2)`` int array
    ``pairs``, each with a record of named int fields, held as one int
    column per field.  Its JSON form, ``tolist()``, maps the key "x,y" of
    each pair to the dict of its fields."""

    pairs: np.ndarray
    columns: dict[str, np.ndarray]

    def tolist(self) -> dict[str, dict[str, int]]:
        names = list(self.columns)
        records = zip(*(column.tolist() for column in self.columns.values()))
        return {f"{x},{y}": dict(zip(names, record)) for (x, y), record in zip(self.pairs.tolist(), records)}


def flow_report(ax: FlowAnalysis) -> dict:
    """Full pipeline report for one flow: monoid, relations, proximal-set
    structure and every theorem check."""
    m = ax.monoid
    st = ax.structure
    ideals = range(st.ideal_count)
    relations = {
        kind: {"pairs": upper_pairs(rel)}
        for kind, rel in (("P", ax.proximal), ("D", ax.distal), ("Omega", ax.omega),
                          ("SP", ax.strongly_proximal), ("WD", ax.weakly_distal))
    }
    p_pairs = relations["P"]["pairs"]
    relations["P"]["witnesses"] = RecordMap(p_pairs, {"collapser": first_collapsers(m, p_pairs)})
    out_pairs = upper_pairs(ax.proximal & ~ax.strongly_proximal)
    relations["SP"]["out_witnesses"] = RecordMap(out_pairs, sp_witnesses(ax, out_pairs))
    checks = [r.as_json() for r in relation_check_suite(ax) + proxset_check_suite(ax)]
    return {
        "schema": SCHEMA,
        "kind": "flow_analysis",
        "model": "finite semigroup model",
        "flow": {
            "states": ax.flow.n_states,
            "generators": [list(g) for g in ax.flow.generators],
        },
        "monoid": {
            "size": m.size,
            "identity_index": m.identity_index,
            "elements": m.elements,
            "minimal_ideals": [st.kernel_elements[st.member_ideals == k].tolist() for k in ideals],
            "idempotents_by_ideal": [st.all_idempotents[st.idempotent_ideals == k].tolist() for k in ideals],
            "equivalent_idempotent_pairs": [list(p) for p in ax.equivalent_pairs],
        },
        "relations": relations,
        "proximal_sets": {
            "per_ideal_partitions": {str(k): proxsets.i_proximal_partition(ax, k) for k in ideals},
            "max_strongly_proximal_sets": proxsets.max_strongly_proximal_sets(ax),
        },
        "checks": checks,
        "verdicts": {
            "minimal": ax.is_minimal,
            "distal": ax.is_distal_flow,
            "proximal_flow": ax.is_proximal_flow,
            "weakly_distal": ax.is_weakly_distal_flow,
            "p_is_equivalence": ax.p_is_equivalence,
        },
    }


def flow_report_text(report: dict) -> str:
    v = report["verdicts"]
    lines = [
        f"flow: {report['flow']['states']} states, {len(report['flow']['generators'])} generators ({report['model']})",
        f"monoid: {report['monoid']['size']} elements, {len(report['monoid']['minimal_ideals'])} minimal ideal(s)",
        f"relation sizes: "
        + ", ".join(f"{k}={len(report['relations'][k]['pairs'])}" for k in ("P", "D", "Omega", "SP", "WD")),
        "verdicts: "
        + ", ".join(f"{k}={'yes' if val else 'no'}" for k, val in sorted(v.items())),
    ]
    failed = [c for c in report["checks"] if not c["pass"]]
    if failed:
        lines.append(f"FAILED checks ({len(failed)}):")
        lines.extend(f"  {c['name']}: {c['counterexample']}" for c in failed)
    else:
        lines.append(f"all {len(report['checks'])} theorem checks passed")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Reproduction scenarios


def _mt_points():
    fp = morse_fixed_points()
    return {
        "a": fp["a"],
        "b": fp["b"],
        "abar": fp["abar"],
        "bbar": fp["bbar"],
        "sigma_a": Shift(fp["a"], 1),
        "sigma_b": Shift(fp["b"], 1),
    }


def mt_report(params: ClassifyParams = ClassifyParams()) -> dict:
    """All 15 unordered pairs among the four fixed points and the shifts
    of the first two, classified at the default evidence parameters."""
    pts = _mt_points()
    names = list(pts)
    rows = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rep = classify_pair(pts[names[i]], pts[names[j]], params)
            rows.append({
                "x": names[i],
                "y": names[j],
                "labels": list(rep.labels),
                "proximal": rep.proximal.as_json(),
                "syndetic": rep.syndetic.as_json() if rep.syndetic else None,
            })
    return {
        "schema": SCHEMA,
        "kind": "reproduction",
        "example": "mt",
        "params": params.as_json(),
        "pairs": rows,
    }


def chacon_report() -> dict:
    """Block recursion to depth 8 plus the evidence verdicts for the two
    distinguished points."""
    blocks = {str(k): len(chacon_block(k)) for k in range(9)}
    recursion_ok = all(
        chacon_block(k + 1) == chacon_block(k) + chacon_block(k) + "1" + chacon_block(k)
        for k in range(8)
    )
    x1, x2 = ChaconPoint("x1"), ChaconPoint("x2")
    params = ClassifyParams(depth=4, gap=729, horizon=3**8)
    rep = classify_pair(x1, x2, params)
    return {
        "schema": SCHEMA,
        "kind": "reproduction",
        "example": "chacon",
        "blocks": blocks,
        "recursion_ok": recursion_ok,
        "b2": chacon_block(2),
        "x2_center_window": x2.segment(-13, 13),
        "pair_x1_x2": {
            "labels": list(rep.labels),
            "proximal": rep.proximal.as_json(),
            "syndetic": rep.syndetic.as_json() if rep.syndetic else None,
        },
        "density_of_proximal_pairs": "out of evidence at finite horizon",
    }


def ternary_sample() -> dict[str, EventuallyPeriodic]:
    z = ternary("11000110001110001111", -5, "0", "0")
    return {
        "c0": constant("0"),
        "c1": constant("1"),
        "c2": constant("2"),
        "z": z,
        "z_shift2": z.shifted(2),
        "z_shift40": z.shifted(40),
        "z_flip": ternary("11000110001110001112", -5, "0", "0"),
        "alt01": ternary("", 0, "01", "01"),
        "alt01_shift": ternary("", 0, "01", "01").shifted(1),
        "mix01": ternary("2", 0, "0", "1"),
        "mix10": ternary("0", 0, "1", "0"),
        "per012": ternary("", 0, "012", "012"),
    }


def ternary_report() -> dict:
    """Pairwise classification of the 12-point sample, plus transitivity
    of the strongly-proximal verdict over the sample."""
    pts = ternary_sample()
    names = list(pts)
    rows = []
    in_sp = np.eye(len(names), dtype=bool)  # reflexive and symmetric by construction
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            verdict = sp_classify(pts[names[i]], pts[names[j]])
            rows.append({
                "x": names[i],
                "y": names[j],
                "pair_type": verdict.pair_type,
                "sp": verdict.label,
            })
            in_sp[i, j] = in_sp[j, i] = verdict.label == "InSP"
    return {
        "schema": SCHEMA,
        "kind": "reproduction",
        "example": "ternary",
        "points": {k: v.describe() for k, v in pts.items()},
        "pairs": rows,
        "in_sp_transitive_on_sample": is_equivalence(in_sp),
    }


CC_GRID_TIERS = (
    ("center", 0), ("C", 0), ("C", 1), ("C", 2), ("C", 3),
    ("C", 4), ("C", 5), ("D", 3), ("D", 4), ("D", 5),
)


def cc_report() -> dict:
    """Asymptotic classification of sample points, the pair grid over ten
    tiers, and the forward/backward round-trip error."""
    asym = []
    for alpha in (0.1, 1.0, 3.0):
        p = CirclePoint("C", 2, alpha)
        rep = asymptotic_class(p)
        asym.append({"point": p.describe(), "angle": round(alpha, 9), **rep.as_json()})
    for p in (CirclePoint("C", 0, 1.0), center()):
        rep = asymptotic_class(p)
        asym.append({"point": p.describe(), **rep.as_json()})

    rows = [CirclePoint(fam, idx, 0.7) for fam, idx in CC_GRID_TIERS]
    columns = [CirclePoint(fam, idx, 2.1) for fam, idx in CC_GRID_TIERS]
    grid = [[pair_class(p, q)["label"] for q in columns] for p in rows]

    worst = 0.0
    for fam, idx in CC_GRID_TIERS:
        for alpha in (0.0, 0.3, 1.1, 2.9):
            p = CirclePoint(fam, idx, alpha)
            for q in (step_back(step(p)), step(step_back(p))):
                worst = max(worst, abs(q.angle - p.angle))
    return {
        "schema": SCHEMA,
        "kind": "reproduction",
        "example": "cc",
        "asymptotics": asym,
        "pair_grid_tiers": [f"{f}{i}" if f != "center" else "center" for f, i in CC_GRID_TIERS],
        "pair_grid": grid,
        "roundtrip_max_angle_error": float(f"{worst:.3e}"),
        "roundtrip_within_1e-9": worst < 1e-9,
    }


REPRODUCERS = {
    "mt": mt_report,
    "chacon": chacon_report,
    "ternary": ternary_report,
    "cc": cc_report,
}
