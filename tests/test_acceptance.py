"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Criteria 1-4 run over fuzzed finite-flow corpora with fixed seeds;
criteria 5-9 reproduce the symbolic example systems at pinned parameters.

Criterion 4 also runs the published closure claim (u(A) within A for
every maximal strongly proximal set A and every minimal idempotent u)
exactly as stated, and asserts its exact form: the claim holds on a flow
iff the flow has one minimal left ideal (proof in the docstring of
fuzz.max_sp_sets_fixed_by_all_idempotents).  The published form is
false, and the PASS line counts the multi-ideal corpus flows on which it
fails; the minimal counterexample is in test_proxsets.
"""

import random
import time

from flowrel.finflow import MonoidTooLarge
from flowrel.fuzz import (
    check_product_theorems,
    factor_check_suite,
    max_sp_sets_fixed_by_all_idempotents,
    product_d_published_biconditional,
    proxset_check_suite,
    random_flow,
    random_icer,
    relation_check_suite,
)
from flowrel.relations import analyze_flow, product_flow
from flowrel.subshift import (
    AdicImage,
    ChaconPoint,
    ClassifyParams,
    Shift,
    chacon_block,
    classify_pair,
    morse_fixed_points,
)
from flowrel.circles import CirclePoint, asymptotic_class, pair_class, step, step_back
from flowrel.reports import ternary_sample
from flowrel.ternary import sp_classify

CORPUS_SEED = 20260810
CORPUS_SIZE = 500

RELATION_SUITE_NAMES = {
    "sp_is_equivalence", "p_d_partition", "sp_wd_partition", "sp_subset_p",
    "d_subset_wd", "wd_formula", "p_omega_in_diagonal",
    "omega_cells_are_fixed_point_unions", "three_way_equivalence",
    "ideal_absorption_Mp_equals_M", "right_identity_pu_equals_p",
    "uM_is_group", "intra_ideal_idempotents_not_equivalent",
    "cross_ideal_equivalent_idempotent_exists",
}


def criterion(num: int, ok: bool, detail: str = ""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else "")
    print(line)
    assert ok, line


_corpus_cache = {}


def corpus():
    if "flows" not in _corpus_cache:
        rng = random.Random(CORPUS_SEED)
        _corpus_cache["flows"] = [random_flow(rng) for _ in range(CORPUS_SIZE)]
    return _corpus_cache["flows"]


def test_criterion_1_finite_semigroup_theorem_suite():
    t0 = time.monotonic()
    failures = []
    for i, flow in enumerate(corpus()):
        try:
            ax = analyze_flow(flow)
        except MonoidTooLarge:
            continue
        for r in relation_check_suite(ax):
            if not r.passed:
                failures.append((i, r.name, r.detail))
    elapsed = time.monotonic() - t0
    names_seen = {r.name for r in relation_check_suite(analyze_flow(corpus()[0]))}
    missing = RELATION_SUITE_NAMES - names_seen
    criterion(
        1,
        not failures and elapsed < 60.0 and not missing,
        f"{CORPUS_SIZE} flows, {len(failures)} counterexamples, {elapsed:.1f}s"
        + (f", missing checks {missing}" if missing else ""),
    )


def test_criterion_2_product_suite():
    rng = random.Random(CORPUS_SEED + 1)
    failures = []
    skipped = 0
    for i in range(100):
        k = rng.randint(1, 2)
        a = random_flow(rng, min_states=2, max_states=4, min_gens=k, max_gens=k)
        b = random_flow(rng, min_states=2, max_states=4, min_gens=k, max_gens=k)
        try:
            ax, bx, px = analyze_flow(a), analyze_flow(b), analyze_flow(product_flow(a, b))
        except MonoidTooLarge:
            skipped += 1
            continue
        results = check_product_theorems(ax, bx, px)
        results.append(product_d_published_biconditional(ax, bx, px))
        failures.extend((i, r.name, r.detail) for r in results if not r.passed)
    criterion(2, not failures, f"100 pairs, {len(failures)} counterexamples, {skipped} over cap")


def test_criterion_3_factor_suite():
    rng = random.Random(CORPUS_SEED + 2)
    failures = []
    skipped = 0
    for i in range(100):
        flow = random_flow(rng, min_states=2, max_states=5, max_gens=2)
        try:
            ax = analyze_flow(flow)
            icer = ax.strongly_proximal if i % 2 else random_icer(rng, ax)
            results = factor_check_suite(ax, icer)
        except MonoidTooLarge:
            skipped += 1
            continue
        failures.extend((i, r.name, r.detail) for r in results if not r.passed)
    criterion(3, not failures, f"100 quotients, {len(failures)} counterexamples, {skipped} over cap")


def test_criterion_4_proximal_set_suite():
    failures = []
    mismatches = []
    published_failures = []
    checked = single_ideal_passes = 0
    for i, flow in enumerate(corpus()):
        try:
            ax = analyze_flow(flow)
        except MonoidTooLarge:
            continue
        checked += 1
        failures.extend((i, r.name, r.detail) for r in proxset_check_suite(ax) if not r.passed)
        n_ideals = len(ax.structure.ideals)
        r = max_sp_sets_fixed_by_all_idempotents(ax)
        if r.passed != (n_ideals == 1):
            mismatches.append((i, n_ideals, r.detail or "claim holds"))
        elif r.passed:
            single_ideal_passes += 1
        else:
            published_failures.append((i, n_ideals, r.detail))
    detail = (
        f"{len(failures)} structural counterexamples; the u(A) within A closure "
        f"check passes iff the flow has one minimal left ideal on "
        f"{checked - len(mismatches)} of {checked} flows"
    )
    if mismatches:
        i, n_ideals, why = mismatches[0]
        detail += f" (first exception: corpus #{i}, {n_ideals} ideals, {why})"
    if published_failures:
        i, n_ideals, why = published_failures[0]
        detail += (
            f"; the published claim is false: it fails on {len(published_failures)} "
            f"multi-ideal flows (first: corpus #{i}, {n_ideals} ideals, {why}) "
            f"and holds on {single_ideal_passes} single-ideal flows"
        )
    criterion(4, not failures and not mismatches and bool(published_failures), detail)


def test_criterion_5_morse_golden_table():
    t0 = time.monotonic()
    fp = morse_fixed_points()
    pts = {
        "a": fp["a"], "b": fp["b"], "abar": fp["abar"], "bbar": fp["bbar"],
        "sigma_a": Shift(fp["a"], 1), "sigma_b": Shift(fp["b"], 1),
    }
    params = ClassifyParams(depth=8, gap=256, horizon=4096)
    expected_p = {
        frozenset(p) for p in [
            ("a", "b"), ("a", "bbar"), ("b", "abar"), ("abar", "bbar"),
            ("sigma_a", "sigma_b"),
        ]
    }
    expected_d = {frozenset(("a", "abar")), frozenset(("b", "bbar"))}
    names = list(pts)
    got_p, got_d, got_not_sp, total = set(), set(), set(), 0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            key = frozenset((names[i], names[j]))
            rep = classify_pair(pts[names[i]], pts[names[j]], params)
            total += 1
            if "evidence-P" in rep.labels:
                got_p.add(key)
            if "proven-D" in rep.labels:
                got_d.add(key)
            if "evidence-not-SP" in rep.labels:
                got_not_sp.add(key)
    elapsed = time.monotonic() - t0
    ok = (
        total == 15 and got_p == expected_p and got_d == expected_d
        and got_not_sp == expected_p and elapsed < 30.0
    )
    criterion(5, ok, f"15 pairs in {elapsed:.1f}s; P={len(got_p)}, D={len(got_d)}, notSP={len(got_not_sp)}")


def test_criterion_6_chacon_golden():
    lengths_ok = True
    expect_len = 1
    for k in range(9):
        b = chacon_block(k)
        if len(b) != expect_len or len(b) != (3 ** (k + 1) - 1) // 2:
            lengths_ok = False
        if k < 8 and chacon_block(k + 1) != b + b + "1" + b:
            lengths_ok = False
        expect_len = 3 * expect_len + 1
    ok_len = lengths_ok and len(chacon_block(8)) == 9841
    rep = classify_pair(ChaconPoint("x1"), ChaconPoint("x2"),
                        ClassifyParams(depth=4, gap=729, horizon=3**8))
    ok_pair = (
        rep.proximal.outcome == "proximal_witness"
        and rep.syndetic is not None and rep.syndetic.outcome == "gap_violation"
        and set(rep.labels) == {"evidence-P", "evidence-not-SP"}
    )
    criterion(6, ok_len and ok_pair,
              f"|B_8|={len(chacon_block(8))}, witness={rep.proximal.witness_time}, "
              f"gap interval={rep.syndetic.interval if rep.syndetic else None}")


def test_criterion_7_adic_factor():
    fp = morse_fixed_points()
    ha, habar, hb = AdicImage(fp["a"]), AdicImage(fp["abar"]), AdicImage(fp["b"])
    agree = ha.window(512) == habar.window(512)
    differ_radius = next((n for n in range(1, 513) if ha.window(n) != hb.window(n)), None)
    criterion(7, agree and differ_radius is not None,
              f"dual images agree to radius 512; non-dual images differ at radius {differ_radius}")


def test_criterion_8_ternary_golden():
    from oracles import ternary_expected_type as expected_type
    pts = ternary_sample()
    names = list(pts)
    ok = len(names) == 12
    mism = []
    in_sp = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            verdict = sp_classify(pts[names[i]], pts[names[j]])
            want_agreeable = expected_type(names[i], names[j]) == "agreeable"
            if (verdict.label == "InSP") != want_agreeable:
                mism.append((names[i], names[j]))
            in_sp[frozenset((names[i], names[j]))] = verdict.label == "InSP"
    transitive = True
    for a in names:
        for b in names:
            for c in names:
                if len({a, b, c}) < 3:
                    continue
                def rel(u, v):
                    return in_sp[frozenset((u, v))]
                if rel(a, b) and rel(b, c) and not rel(a, c):
                    transitive = False
    criterion(8, ok and not mism and transitive,
              f"12 points, {len(mism)} mismatches, transitive={transitive}")


def test_criterion_9_circle_cascade():
    asym_ok = True
    for alpha in (0.1, 1.0, 3.0):
        rep = asymptotic_class(CirclePoint("C", 2, alpha), max_iter=10**4, eps=1e-3)
        if not (rep.forward == "to_c0" and rep.forward_steps is not None and rep.forward_steps <= 10**4):
            asym_ok = False
        if not (rep.backward == "to_center" and rep.backward_steps is not None and rep.backward_steps <= 10**4):
            asym_ok = False

    from oracles import circle_table_says_proximal as table_says_proximal
    tiers = [("center", 0), ("C", 0), ("C", 1), ("C", 2), ("C", 3),
             ("C", 4), ("C", 5), ("C", 6), ("D", 3), ("D", 4)]
    grid_ok = True
    for t1 in tiers:
        for t2 in tiers:
            p = CirclePoint(t1[0], t1[1], 0.9)
            q = CirclePoint(t2[0], t2[1], 2.3)
            want = "EvidenceP" if table_says_proximal(t1, t2) else "EvidenceD"
            if pair_class(p, q)["label"] != want:
                grid_ok = False

    worst = 0.0
    rng = random.Random(CORPUS_SEED + 3)
    for _ in range(200):
        fam = rng.choice(["C", "C", "D"])
        idx = rng.randint(0 if fam == "C" else 3, 11)
        p = CirclePoint(fam, idx, rng.uniform(0.0, 3.14))
        for q in (step_back(step(p)), step(step_back(p))):
            worst = max(worst, abs(q.angle - p.angle))
    criterion(9, asym_ok and grid_ok and worst < 1e-9,
              f"asymptotics ok={asym_ok}, 10x10 grid ok={grid_ok}, roundtrip={worst:.2e}")
