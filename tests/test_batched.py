"""The batched passes of the analyze report against their one-pair,
one-set and one-row references in ``oracles``: P witnesses and SP
out-witnesses, set collapse tests, the uM Cayley table, the minimal-ideal
kernel labels and class lists, ``sorted_unique`` and the report writer
(against ``json.dumps``, also on integer arrays and across its row
blocks); and one ``analyze`` computing each minimal-ideal fact once.
Random flows of 1-7 states, plus wide cyclic flows, whose 4n proximal
pairs make the blocked scan run several blocks."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from flowrel import cli, finflow
from flowrel.cli import dump
from flowrel.finflow import (
    FiniteFlow,
    MonoidTooLarge,
    TransMonoid,
    close,
    equivalence_matrix,
    equivalent_idempotents,
    first_collapsers,
    first_rows,
    format_flow,
    ideal_structure,
    kernel_labels,
    sorted_unique,
)
from flowrel.fuzz import TWO_IDEAL_FLOW, ideal_group_tests, proxset_check_suite, random_flow, relation_check_suite
from flowrel.relations import analyze_flow, sp_witnesses
from flowrel.reports import RecordMap, flow_report
from oracles import (
    element_of,
    flat_lists,
    ideal_lists,
    kernel_signature,
    label_classes,
    reference_is_group,
    reference_is_proximal_set,
    reference_minimal_left_ideals,
    reference_proximal_verdict,
    reference_sp_verdict,
    sp_witness_dicts,
    structure_from_lists,
)

SRC = Path(__file__).resolve().parent.parent / "src"

small_flows = st.integers(min_value=0, max_value=10**9).map(
    lambda seed: random_flow(random.Random(seed), min_states=1, max_states=7)
)


def wide_flow(n: int, seed: int) -> FiniteFlow:
    """The rotation and x -> x - (x mod 4) on n states, relabelled by a
    seeded permutation: 5n elements, 4 minimal ideals, 4n proximal pairs."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    inv = np.argsort(perm)
    gens = [[(x + 1) % n for x in range(n)], [x - x % 4 for x in range(n)]]
    return FiniteFlow(n, tuple(tuple(perm[g[inv[x]]] for x in range(n)) for g in gens))


WIDE = [wide_flow(n, seed) for n, seed in ((16, 1), (32, 2), (64, 3))]


def analysis_or_none(flow):
    try:
        return analyze_flow(flow, cap=3000)
    except MonoidTooLarge:
        return None


def all_pairs(n: int) -> np.ndarray:
    return np.argwhere(np.triu(np.ones((n, n), dtype=bool)))


def assert_witnesses_match(ax):
    m = ax.monoid
    pairs = all_pairs(ax.n_states)
    ideals = ax.structure.ideal_count
    collapsers = first_collapsers(m, pairs).tolist()
    witnesses = sp_witness_dicts(sp_witnesses(ax, pairs), ideals)
    for (x, y), c, w in zip(pairs.tolist(), collapsers, witnesses):
        pair = np.array([[x, y]])
        p_ref = reference_proximal_verdict(m, x, y)
        assert c == first_collapsers(m, pair)[0] == p_ref
        sp_ref = reference_sp_verdict(ax, x, y)
        assert w == sp_witness_dicts(sp_witnesses(ax, pair), ideals)[0] == sp_ref


@settings(max_examples=60, deadline=None)
@given(small_flows)
def test_pair_witnesses_match_the_per_pair_references(flow):
    ax = analysis_or_none(flow)
    if ax is not None:
        assert_witnesses_match(ax)


@pytest.mark.parametrize("flow", WIDE, ids=lambda f: f"wide{f.n_states}")
def test_pair_witnesses_match_on_wide_flows(flow):
    ax = analyze_flow(flow)
    m = ax.monoid
    p_pairs = np.argwhere(np.triu(ax.proximal))
    assert len(p_pairs) == 4 * flow.n_states
    # the scan of the proximal pairs runs in several blocks of rows
    assert m.elements.size // (len(p_pairs) * 2) < m.size
    assert_witnesses_match(ax)


def test_sp_witnesses_keep_the_fixing_assertion(monkeypatch):
    # a "power" that fixes no state: (1, 3, 3, 1) moves every image pair
    ax = analyze_flow(TWO_IDEAL_FLOW)
    out = np.argwhere(np.triu(ax.proximal & ~ax.strongly_proximal))
    assert out.size
    monkeypatch.setattr(TransMonoid, "idempotent_powers",
                        lambda self, idx: np.full(len(idx), element_of(self, (1, 3, 3, 1))))
    with pytest.raises(AssertionError, match="failed to fix the image pair"):
        reference_sp_verdict(ax, *out[0].tolist())
    with pytest.raises(AssertionError, match="failed to fix the image pair"):
        sp_witnesses(ax, out)


def test_sp_witnesses_compute_each_idempotent_power_once(monkeypatch):
    # one batched call, whose distinct elements are exactly the separators;
    # the batch steps each distinct element once
    ax = analyze_flow(WIDE[2])
    out = np.argwhere(np.triu(ax.proximal & ~ax.strongly_proximal))
    calls, steps = [], []
    real = TransMonoid.idempotent_powers
    monkeypatch.setattr(TransMonoid, "idempotent_powers", lambda self, idx: calls.append(list(idx)) or real(self, idx))
    real_mask = finflow.idempotent_mask
    monkeypatch.setattr(finflow, "idempotent_mask", lambda rows: steps.append(len(rows)) or real_mask(rows))
    witnesses = sp_witnesses(ax, out)
    (batch,) = calls
    separators = set(witnesses["separator"].tolist())
    assert len(out) == len(batch) > len(separators) == len(set(batch)) and set(batch) == separators
    assert steps[0] == len(separators)


@settings(max_examples=60, deadline=None)
@given(small_flows, st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=12))
def test_collapse_tests_match_the_per_set_reference(flow, raw_sets):
    try:
        m = close(flow, cap=3000)
    except MonoidTooLarge:
        return
    sets = [[x % flow.n_states for x in s] for s in raw_sets]
    expected = [-1 if e is None else e for e in (reference_is_proximal_set(m, s) for s in sets)]
    assert first_collapsers(m, sets).tolist() == expected
    assert [first_collapsers(m, [s])[0] for s in sets] == expected


def test_collapse_test_rejects_an_empty_set():
    m = close(TWO_IDEAL_FLOW)
    with pytest.raises(ValueError, match="nonempty"):
        first_collapsers(m, [[0], []])
    with pytest.raises(ValueError, match="nonempty"):
        first_collapsers(m, [set()])


class Recorded(np.ndarray):
    """An array that records the size of every array indexed out of it."""

    sizes: list[int] = []

    def __getitem__(self, key):
        out = super().__getitem__(key)
        Recorded.sizes.append(np.size(out))
        return out


@pytest.mark.parametrize("size, n, count, width", [(320, 64, 256, 2), (5, 6, 40, 4), (1, 8, 8, 2), (60, 12, 715, 4)])
def test_blocked_scan_gathers_no_more_than_the_monoid_rows(size, n, count, width):
    rng = np.random.default_rng(size + n)
    elements = rng.integers(0, n, size=(size, n)).astype(np.int16)
    elements[0] = np.arange(n)
    sets = rng.integers(0, n, size=(count, width))
    Recorded.sizes = []
    got = first_rows(elements.view(Recorded), sets)
    assert max(Recorded.sizes) <= elements.size
    images = elements[:, sets]
    hit = (images == images[:, :, :1]).all(axis=2)
    assert got.tolist() == np.where(hit.any(axis=0), hit.argmax(axis=0), -1).tolist()


@settings(max_examples=40, deadline=None)
@given(small_flows)
def test_cayley_table_matches_the_row_at_a_time_reference(flow):
    # every idempotent of every ideal, then each again with 5 random
    # elements for its members: one pass over all the slots
    ax = analysis_or_none(flow)
    if ax is None:
        return
    m = ax.monoid
    e = m.elements
    rng = random.Random(m.size)
    st_ = ax.structure
    us = st_.all_idempotents
    others = [sorted(rng.sample(range(m.size), min(m.size, 5))) for _ in us]
    lists = ideal_lists(st_)["members"] + others
    slot_list = np.concatenate([st_.idempotent_ideals, st_.ideal_count + np.arange(len(us))])
    _, groups = ideal_group_tests(m, *flat_lists(lists), np.concatenate([us, us]), slot_list)
    expected = [reference_is_group(m, u, e[list(lists[b])]) for u, b in zip(np.concatenate([us, us]).tolist(), slot_list.tolist())]
    assert groups.tolist() == expected
    assert groups[:len(us)].all()


def test_cayley_table_of_a_group_is_built_in_blocks():
    # the monoid is a cyclic group of order 64: uM is all of it, with 4096
    # products of whole rows, gathered in blocks no larger than the rows
    m = close(FiniteFlow(64, (tuple((x + 1) % 64 for x in range(64)),)))
    assert reference_is_group(m, 0, m.elements)
    Recorded.sizes = []
    recorded = TransMonoid(m.flow, m.elements.view(Recorded))
    pu, group = ideal_group_tests(recorded, *flat_lists([range(64)]), np.array([0]), np.array([0]))
    assert pu.tolist() == group.tolist() == [True]
    assert max(Recorded.sizes) <= m.elements.size


@pytest.mark.parametrize("flow", [*WIDE, TWO_IDEAL_FLOW, FiniteFlow(64, (tuple((x + 1) % 64 for x in range(64)),))],
                         ids=lambda f: f"n{f.n_states}")
def test_ideal_algebra_gathers_no_more_than_the_monoid_rows(flow):
    # the batched ideal structure, equivalences, slot pass, SP witnesses
    # and idempotent powers, on a monoid that records every indexed array
    m = close(flow)
    recorded = TransMonoid(m.flow, m.elements.view(Recorded))
    Recorded.sizes = []
    st_ = ideal_structure(recorded)
    equivalent_idempotents(st_, equivalence_matrix(recorded, st_.all_idempotents, st_.all_idempotents))
    ideal_group_tests(recorded, st_.kernel_elements, st_.member_ideals, st_.all_idempotents, st_.idempotent_ideals)
    recorded.idempotent_powers(np.arange(m.size))
    ax = analyze_flow(flow)
    sp_witnesses(replace(ax, monoid=recorded), np.argwhere(np.triu(ax.proximal & ~ax.strongly_proximal)))
    assert Recorded.sizes and max(Recorded.sizes) <= m.elements.size


@settings(max_examples=60, deadline=None)
@given(small_flows)
def test_minimal_ideal_kernels_match_per_row_signatures(flow):
    ax = analysis_or_none(flow)
    if ax is None:
        return
    m = ax.monoid
    lists = ideal_lists(ideal_structure(m))
    ideals = list(zip(lists["members"], lists["kernels"]))
    assert ideals == reference_minimal_left_ideals(m)
    for members, kernel in ideals:
        assert all(kernel_signature(m.elements[p]) == kernel for p in members)


@pytest.mark.parametrize("flow", WIDE, ids=lambda f: f"wide{f.n_states}")
def test_minimal_ideal_kernels_match_on_wide_flows(flow):
    m = close(flow)
    lists = ideal_lists(ideal_structure(m))
    assert list(zip(lists["members"], lists["kernels"])) == reference_minimal_left_ideals(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 20), min_size=n, max_size=n), min_size=1, max_size=8)))
def test_kernel_labels_match_kernel_signature(rows):
    rows = np.array(rows)
    assert [tuple(r) for r in kernel_labels(rows).tolist()] == [kernel_signature(r) for r in rows]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 40), max_size=30), st.sampled_from([np.int16, np.int64, np.intp]))
def test_sorted_unique_matches_np_unique(values, dtype):
    a = np.array(values, dtype=dtype)
    assert sorted_unique(a).tolist() == np.unique(a).tolist()
    assert sorted_unique(a.reshape(-1, 1)).tolist() == np.unique(a).tolist()


int_lists = st.lists(st.integers(-10**6, 10**6), max_size=4)
mixed_lists = st.lists(st.one_of(st.integers(-5, 5), st.booleans()), max_size=4)
sublists = st.one_of(int_lists, int_lists.map(tuple), mixed_lists, mixed_lists.map(tuple))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(sublists, max_size=5),
    st.lists(sublists, max_size=5).map(tuple),
    st.dictionaries(st.text(max_size=3), st.lists(sublists, max_size=4), max_size=3),
    st.lists(st.lists(sublists, max_size=3), max_size=3),
))
def test_writer_matches_json_on_lists_of_int_lists(value):
    assert dump({"v": value}) == json.dumps({"v": value}, indent=2, sort_keys=True) + "\n"


def plain(value):
    """``value`` with every ndarray and witness map replaced by its
    ``tolist()``: what the writer must encode it as."""
    if isinstance(value, (np.ndarray, RecordMap)):
        return value.tolist()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def oracle_dump(value) -> str:
    return json.dumps(plain(value), indent=2, sort_keys=True) + "\n"


@st.composite
def int_arrays(draw):
    dtype = draw(st.sampled_from([np.int16, np.int32, np.int64, np.intp]))
    shape = draw(st.one_of(
        st.sampled_from([(0, 2), (1, 1)]),
        st.integers(1, 12).map(lambda k: (k, 1)),
        st.tuples(st.integers(0, 12), st.integers(0, 6)),
    ))
    top = min(draw(st.sampled_from([9, 10, 99, 1000, 10**7])), np.iinfo(dtype).max)
    value = draw(arrays(dtype, shape, elements=st.integers(0, top)))
    if value.size and draw(st.booleans()):
        value.flat[draw(st.integers(0, value.size - 1))] = -draw(st.integers(1, top))
    return value


arrays_or_dicts_of_them = st.one_of(int_arrays(), st.dictionaries(st.text(max_size=2), int_arrays(), max_size=2))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(max_size=2), arrays_or_dicts_of_them, max_size=3))
def test_array_writer_matches_json_on_int_arrays(value):
    assert dump(value) == oracle_dump(value)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([np.int8, np.uint8, np.int16, np.uint16, np.int32, np.int64, np.uint64]).flatmap(
    lambda dtype: arrays(dtype, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                         elements=st.integers(0, int(np.iinfo(dtype).max)))))
def test_array_writer_matches_json_on_entries_of_every_width(value):
    # entries up to each dtype's maximum: 3 to 20 digits, so the digit
    # slots are gathered in one to five chunks, the top one partial
    assert dump({"v": value}) == oracle_dump({"v": value})


def test_digit_table_rows():
    for width in (1, 2, 4):
        table = cli._digit_table(width)
        text = [item.tobytes().decode() for item in table]
        assert text[:10**width] == [str(c).zfill(width) for c in range(10**width)]
        assert text[10**width:-1] == [str(c).rjust(width, "\0") for c in range(10**width)]
        assert text[-1] == "\0" * width


# numbers that are prefixes of one another ("1", "10", "100") and others
key_numbers = st.one_of(st.sampled_from([0, 1, 2, 9, 10, 11, 19, 20, 21, 100, 101, 110]), st.integers(0, 120))
pair_keys = st.tuples(key_numbers, key_numbers)
field_names = st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True)


@settings(max_examples=150, deadline=None)
@given(st.sets(pair_keys, max_size=40).map(sorted), field_names, st.randoms(use_true_random=False))
def test_record_maps_match_the_dict_of_records(pairs, names, rng):
    # pairs in 0..120 sort differently as strings ("10,3" before "2,5",
    # "1,5" before "10,3") and as numbers; the map is given in shuffled pair order, with one
    # field or several, against the dict of records it stands for; fields
    # of up to 13 digits, and in some maps a negative one
    rng.shuffle(pairs)
    array = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    columns = {name: np.array([rng.choice([rng.randint(0, 99), rng.randint(0, 10**12)]) for _ in pairs],
                              dtype=np.int64) for name in names}
    if pairs and rng.random() < 0.2:
        columns[names[-1]][rng.randrange(len(pairs))] = -rng.randint(1, 10**6)
    records = {f"{x},{y}": {name: int(columns[name][i]) for name in names} for i, (x, y) in enumerate(pairs)}
    value = RecordMap(array, columns)
    assert value.tolist() == records
    assert dump({"w": value, "z": [value]}) == json.dumps({"w": records, "z": [records]}, indent=2, sort_keys=True) + "\n"


scalars = st.one_of(st.text(max_size=4), st.integers(-10**20, 10**20), st.booleans(), st.none())


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.lists(st.integers(-10**20, 10**20), max_size=4), min_size=1, max_size=5),
    st.lists(st.lists(st.integers(0, 9), max_size=3).map(tuple), min_size=1, max_size=5),
    field_names.flatmap(lambda names: st.lists(st.fixed_dictionaries({name: scalars for name in names}),
                                               min_size=1, max_size=5)),
    st.lists(st.dictionaries(st.text(max_size=2), scalars, max_size=3), min_size=1, max_size=4),
    st.lists(st.one_of(st.lists(st.integers(0, 9), max_size=2), st.integers(0, 9), st.booleans(),
                       st.dictionaries(st.text(max_size=2), st.floats(allow_nan=False), max_size=2)),
             min_size=1, max_size=4),
))
def test_flat_lists_match_json(value):
    # ragged int lists, lists of flat records sharing one key set, and
    # lists whose records differ in their keys or hold floats, or that mix
    # kinds, which take the general path
    assert dump({"v": value}) == json.dumps({"v": value}, indent=2, sort_keys=True) + "\n"


def test_flat_lists_take_one_pass_and_differing_records_the_general_path(monkeypatch):
    calls = []
    real = cli._write
    monkeypatch.setattr(cli, "_write", lambda value, *args: calls.append(value) or real(value, *args))
    checks = [{"name": "a", "pass": True, "counterexample": None}, {"counterexample": "x %s", "pass": False, "name": "b"}]
    value = {"checks": checks, "ideals": [[0, 3], [], (1, 2)]}
    assert dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert len(calls) == 3  # the dict and each list, no item
    calls.clear()
    mixed = [checks[0], {"name": "c", "pass": True}]
    assert dump(mixed) == json.dumps(mixed, indent=2, sort_keys=True) + "\n"
    assert len(calls) == 1  # records of differing keys and small values: one join of small records
    calls.clear()
    nested = [{"name": "c", "inner": {"pass": True}}]
    assert dump(nested) == json.dumps(nested, indent=2, sort_keys=True) + "\n"
    assert len(calls) == 1  # a record inside a record is still a small record
    calls.clear()
    deep = [checks[0], {"name": "c", "ideals": [[0, 1]]}]
    assert dump(deep) == json.dumps(deep, indent=2, sort_keys=True) + "\n"
    # a list of int lists is no small value: the list and each record, the
    # first one join, the second through each of its values
    assert len(calls) == 1 + 2 + 2


def test_a_dict_of_flat_scalars_takes_no_per_value_write(monkeypatch):
    # a symbolic report's params: str keys, str, int, bool and None values
    calls = []
    real = cli._write
    monkeypatch.setattr(cli, "_write", lambda value, *args: calls.append(value) or real(value, *args))
    params = {"depth": 6, "gap": None, "horizon": 200000, "system": "chacon", "dual": False, "é": "\u00e9\n"}
    value = {"params": params, "floats": {"x": 0.5}, "ints": {3: 1, 1: 2}}
    assert dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert [call is params for call in calls].count(True) == 1
    assert len(calls) == 1 + 3 + 2  # the report, each dict (a float is flat), the int-keyed dict's two values


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_a_negative_entry_takes_the_list_path(monkeypatch, dtype):
    written = []
    real = cli._write_rows
    monkeypatch.setattr(cli, "_write_rows", lambda value, *args: written.append(value) or real(value, *args))
    value = {"a": np.array([[3, -1], [10**4, 0]], dtype=dtype), "b": np.arange(6, dtype=dtype).reshape(3, 2)}
    assert dump(value) == oracle_dump(value)
    assert len(written) == 1 and written[0] is value["b"]


@pytest.mark.parametrize("block", [1, 3])
def test_array_writer_row_blocks_join_seamlessly(monkeypatch, block):
    rng = np.random.default_rng(block)
    value = {
        "elements": rng.integers(0, 1000, size=(7, 5)).astype(np.int16),
        "pairs": {"P": rng.integers(0, 10**6, size=(10, 2)), "one": np.array([[4]])},
        "rows": np.arange(3 * block, dtype=np.intp).reshape(block, 3),
    }
    whole = dump(value)
    calls = []
    monkeypatch.setattr(cli, "_block_rows", lambda value, row_bytes: calls.append(value) or block)
    assert dump(value) == whole == oracle_dump(value)
    assert len(calls) == 4


@pytest.mark.parametrize("shape,dtype", [((823, 7), np.int16), ((500, 2), np.intp), ((3, 1), np.int16)])
def test_array_writer_blocks_fit_in_the_array_bytes(shape, dtype):
    value = np.zeros(shape, dtype=dtype)
    for row_bytes in (9, 95, 4096):
        rows = cli._block_rows(value, row_bytes)
        assert rows >= 1 and rows * row_bytes <= max(value.nbytes, row_bytes)


def test_array_writer_temporaries_stay_within_a_multiple_of_the_array():
    # the text itself is held twice (the StringIO buffer and its value);
    # the row blocks keep everything else within a few times the array's bytes
    value = np.random.default_rng(0).integers(0, 7, size=(50_000, 7)).astype(np.int16)
    tracemalloc.start()
    try:
        text = dump({"elements": value})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * len(text) + 4 * value.nbytes


def test_both_suites_stay_within_a_few_times_the_monoid_rows_on_a_wide_flow():
    # x -> x - (x mod 2) and the rotation on 300 states: 900 elements, two
    # ideals of 300 members with 150 classes each.  No check builds a
    # (members, classes, classes) array (6.75 MB per ideal here, 21.7 times
    # the bound's unit) or a |uM|² Cayley table; the largest arrays left are
    # the pair graph's k·n² successors, about 8 times the unit
    n = 300
    ax = analyze_flow(FiniteFlow(n, (tuple((x + 1) % n for x in range(n)), tuple(x - x % 2 for x in range(n)))))
    tracemalloc.start()
    try:
        relation_check_suite(ax)
        proxset_check_suite(ax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * (ax.monoid.elements.nbytes + n * n)


def test_analyze_report_keeps_monoid_rows_and_pairs_as_arrays():
    ax = analyze_flow(wide_flow(12, 3))
    report = flow_report(ax)
    assert report["monoid"]["elements"] is ax.monoid.elements
    for kind, rel in (("P", ax.proximal), ("D", ax.distal), ("Omega", ax.omega),
                      ("SP", ax.strongly_proximal), ("WD", ax.weakly_distal)):
        pairs = report["relations"][kind]["pairs"]
        assert isinstance(pairs, np.ndarray)
        assert pairs.tolist() == [[x, y] for x, y in zip(*np.nonzero(rel)) if x <= y]
    assert dump(report) == oracle_dump(report)


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy < 2 imports numpy.ma eagerly")
def test_analyze_never_imports_numpy_ma(tmp_path):
    flow = tmp_path / "wide.flow"
    flow.write_text("states: 16\n" + "\n".join(" ".join(map(str, g)) for g in wide_flow(16, 1).generators) + "\n")
    code = (
        "import contextlib, io, sys\n"
        "from flowrel import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['analyze', {str(flow)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert done.stdout == "False\n"


def test_class_lists_match_the_dict_loop_on_random_label_rows():
    # seeded label rows on 1-12 states as the ideal kernels and the
    # refinement of one structure: values drawn from a few spread-out
    # numbers, so labels repeat and are mostly not first-occurrence
    rng = random.Random(24)
    kinds = set()
    for trial in range(400):
        n = 1 if trial % 8 == 0 else rng.randint(2, 12)
        values = rng.sample(range(-5, 40), rng.randint(1, 5))
        rows = [tuple(rng.choice(values) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        st_ = structure_from_lists([()] * (len(rows) - 1), [()] * (len(rows) - 1), rows[:-1], rows[-1])
        assert st_.labels.tolist() == [list(kernel_signature(row)) for row in rows]
        assert st_.classes == tuple(tuple(tuple(sorted(c)) for c in label_classes(row)) for row in rows)
        kinds.update((n == 1, kernel_signature(row) == row, len(set(row)) < n) for row in rows)
    assert {(True, True, False), (True, False, False), (False, False, True)} <= kinds


def test_one_analyze_computes_each_minimal_ideal_fact_once(monkeypatch, capsys, tmp_path):
    # every binding of the counted functions in the package's modules is
    # wrapped: one analyze of a wide flow builds one equivalence matrix over
    # all idempotents, runs at most two kernel-label passes (the minimum-rank
    # rows, then the kernels with the refinement) and no dict-loop lister
    counts = dict.fromkeys(("equivalence_matrix", "kernel_labels", "label_classes"), 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "flowrel"]:
        for name in counts:
            if callable(vars(module).get(name)):
                monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
    flow = tmp_path / "wide64.flow"
    flow.write_text(format_flow(wide_flow(64, 3)))
    assert cli.main(["analyze", str(flow)]) == 0
    capsys.readouterr()
    assert counts["equivalence_matrix"] == 1
    assert counts["kernel_labels"] <= 2
    assert counts["label_classes"] == 0


def test_one_analysis_builds_its_generator_array_once(monkeypatch):
    # the closure's key-cell copy and the monoid's one cached array: the
    # relation forms and the report with both suites read that array
    flow = wide_flow(64, 3)
    real = np.array
    built = []
    monkeypatch.setattr(np, "array", lambda *a, **k: (built.append(a[0] is flow.generators), real(*a, **k))[1])
    ax = analyze_flow(flow)
    flow_report(ax)
    assert built.count(True) == 2
    assert ax.generators is ax.monoid.generators
