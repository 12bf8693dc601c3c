import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import build_parser

from flowrel import cli
from flowrel.cli import (
    dump,
    main,
    parse_args,
    parse_chacon_point,
    parse_circle_point,
    parse_morse_point,
    parse_ternary_point,
)
from flowrel.finflow import FiniteFlow
from flowrel.relations import analyze_flow
from flowrel.reports import flow_report

FLOWS = Path(__file__).resolve().parent.parent / "flows"
SRC = FLOWS.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_two_ideal(capsys):
    code, out, err = run(capsys, "analyze", str(FLOWS / "two_ideal.flow"))
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["monoid"]["size"] == 9
    assert len(report["monoid"]["minimal_ideals"]) == 2
    assert report["verdicts"]["weakly_distal"] is True
    assert report["verdicts"]["p_is_equivalence"] is False
    assert all(c["pass"] for c in report["checks"])


def test_analyze_text_verdicts(capsys):
    code, out, _ = run(capsys, "analyze", str(FLOWS / "constants2.flow"), "--format", "text")
    assert code == 0
    assert "proximal_flow=yes" in out
    code, out, _ = run(capsys, "analyze", str(FLOWS / "identity1.flow"), "--format", "text")
    assert code == 0
    assert "distal=yes" in out


def test_analyze_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.flow"
    bad.write_text("states: 2\n0 7\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "analyze", str(tmp_path / "missing.flow"))
    assert code == 2


def test_analyze_cap_exit_3(capsys):
    code, _, err = run(capsys, "analyze", str(FLOWS / "two_ideal.flow"), "--cap", "3")
    assert code == 3 and "too large" in err


def test_fuzz_deterministic_bytes(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    code1, _, _ = run(capsys, "fuzz", "--count", "20", "--seed", "5", "--out", str(out1))
    code2, _, _ = run(capsys, "fuzz", "--count", "20", "--seed", "5", "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    summary = json.loads(out1.read_text())
    assert summary["passed"] + summary["skipped_over_cap"] == 20
    assert summary["failures"] == []


def test_fuzz_rejects_zero_count(capsys):
    code, _, err = run(capsys, "fuzz", "--count", "0")
    assert code == 2


@pytest.mark.parametrize("max_states", [1, 0])
def test_fuzz_rejects_max_states_below_two(capsys, tmp_path, max_states):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_states": max_states}))
    for argv in (["fuzz", "--max-states", str(max_states)], ["--config", str(cfg), "fuzz"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == f"error: fuzz max_states must be at least 2, got {max_states}\n"


def test_element_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FLOWREL_ELEMENT_CAP", "3")
    code, _, err = run(capsys, "analyze", str(FLOWS / "two_ideal.flow"))
    assert code == 3 and "too large" in err
    monkeypatch.delenv("FLOWREL_ELEMENT_CAP")
    code, _, _ = run(capsys, "analyze", str(FLOWS / "two_ideal.flow"))
    assert code == 0


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "2.5", ""])
def test_element_cap_env_rejects_bad_values(capsys, monkeypatch, raw):
    monkeypatch.setenv("FLOWREL_ELEMENT_CAP", raw)
    code, out, err = run(capsys, "analyze", str(FLOWS / "identity1.flow"))
    assert code == 2 and out == ""
    assert "FLOWREL_ELEMENT_CAP must be an integer of at least 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["analyze", str(FLOWS / "identity1.flow"), "--cap", "-1"],
    ["analyze", str(FLOWS / "identity1.flow"), "--cap", "0"],
    ["fuzz", "--count", "3", "--cap", "0"],
])
def test_cap_flag_rejects_values_below_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "cap must be an integer of at least 1" in err


def test_cap_flag_rejects_non_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(FLOWS / "identity1.flow"), "--cap", "abc"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [0, -3, "abc", 2.5, True])
def test_config_cap_rejects_bad_values(capsys, tmp_path, cap):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": cap}))
    code, out, err = run(capsys, "--config", str(cfg), "analyze", str(FLOWS / "identity1.flow"))
    assert code == 2 and out == ""
    assert "cap must be an integer of at least 1" in err


def test_valid_cap_from_config_and_env(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cap": 3}))
    code, _, err = run(capsys, "--config", str(cfg), "analyze", str(FLOWS / "two_ideal.flow"))
    assert code == 3 and "too large" in err
    monkeypatch.setenv("FLOWREL_ELEMENT_CAP", " 9 ")
    code, _, _ = run(capsys, "analyze", str(FLOWS / "two_ideal.flow"))
    assert code == 0


def test_fuzz_counts_cap_exceeding_instances(capsys):
    code, out, _ = run(capsys, "fuzz", "--count", "30", "--seed", "2", "--cap", "8")
    assert code == 0
    summary = json.loads(out)
    assert summary["skipped_over_cap"] > 0
    assert summary["passed"] + summary["skipped_over_cap"] == 30


def test_fuzz_canonical_invocation_all_pass(capsys):
    code, out, _ = run(capsys, "fuzz", "--count", "100", "--seed", "1", "--max-states", "5")
    assert code == 0
    summary = json.loads(out)
    assert summary["passed"] == 100 and not summary["failures"]


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 7, "seed": 9}))
    code, out, _ = run(capsys, "--config", str(cfg), "fuzz")
    assert code == 0
    summary = json.loads(out)
    assert summary["count"] == 7 and summary["seed"] == 9


@pytest.mark.parametrize("config", [
    [1], "x", 3, None,
    {"count": "abc"}, {"count": True}, {"seed": 1.5}, {"max_states": None},
    {"horizon": "4096"}, {"format": 1}, {"format": "xml"}, {"out": 7},
])
def test_config_shape_rejected(capsys, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for argv in (["fuzz", "--count", "2"], ["analyze", str(FLOWS / "identity1.flow")]):
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2 and out == "", (config, argv)
        assert err.startswith("error: config") and "Traceback" not in err


def test_config_null_out_and_string_format_accepted(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": None, "format": "text"}))
    code, out, _ = run(capsys, "--config", str(cfg), "analyze", str(FLOWS / "identity1.flow"))
    assert code == 0 and "distal=yes" in out


def test_morse_horizon_past_the_letter_guard_exits_2(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "classify-pair", "--system", "morse", "--x", "a", "--y", "b",
                         "--horizon", "100000000")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == "" and "letter guard" in err


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_classify_pair_non_finite_circle_angle_exits_2(capsys, angle):
    code, out, err = run(capsys, "classify-pair", "--system", "cc", "--x", f"C:3:{angle}", "--y", "center")
    assert code == 2 and out == "" and err.startswith("error: angle must be a finite number")


def test_morse_horizon_of_a_million_runs(capsys):
    code, out, _ = run(capsys, "classify-pair", "--system", "morse", "--x", "a", "--y", "b",
                       "--horizon", "1000000")
    assert code == 0
    assert json.loads(out)["params"]["horizon"] == 10**6
    # recorded while the agreement times were read from a prefix sum
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f1570482439871e8c418683b220958f4f416b7f868e27708dfbececa706754fa")


# sha256 of `flowrel analyze` stdout, recorded before P, SP and the class
# listings were read from per-ideal kernel labels
ANALYZE_SHA256 = {
    "constants2": "02e947e59c91da5c9c168c104e6302d24b8ab254d4f65dd6c7876a315035f930",
    "identity1": "497daed2e25991dea8a1a50f1a225a6ff183dfe6ef1e7f7abccff05469166c2f",
    "rotation3": "6045d3f129768810e9eda58686a702441021bde4c2d7a4d6ba29362f3edd98eb",
    "single_ideal_seed": "28db8133b4b94f339a9b0fafdd15b63bbd92785a6b390cffc6e92086d54c7ae3",
    "two_ideal": "ae51f2c4edb1ac3276c8fbefc051f863c90926cd52476fe44e955112d9cd1872",
}

# rotation x -> x + 1 and x -> x - (x mod 4) on 16 states: 80 elements,
# 4 minimal ideals, 24 equivalent idempotent pairs
FOUR_IDEAL_FLOW = "states: 16\n{}\n{}\n".format(
    " ".join(str((x + 1) % 16) for x in range(16)),
    " ".join(str(x - x % 4) for x in range(16)),
)
FOUR_IDEAL_SHA256 = "1f35d64eb67dbeaec9a21754edd91a05c2808cb29a4be0e4e82f627d6dddd376"


def test_pinned_flows_are_the_sample_flows():
    assert sorted(p.stem for p in FLOWS.glob("*.flow")) == sorted(ANALYZE_SHA256)


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_report_bytes_pinned(capsys, name):
    code, out, _ = run(capsys, "analyze", str(FLOWS / f"{name}.flow"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256[name]


def test_analyze_four_ideal_report_bytes_pinned(capsys, tmp_path):
    flow = tmp_path / "four_ideal.flow"
    flow.write_text(FOUR_IDEAL_FLOW)
    code, out, _ = run(capsys, "analyze", str(flow))
    assert code == 0
    report = json.loads(out)
    assert report["monoid"]["size"] == 80
    assert len(report["monoid"]["minimal_ideals"]) == 4
    assert len(report["monoid"]["equivalent_idempotent_pairs"]) == 24
    assert hashlib.sha256(out.encode()).hexdigest() == FOUR_IDEAL_SHA256


# the same two maps on 12 states: 60 elements, 4 minimal ideals; the widest
# flow on which the Omega product-flow check and the 3- and 4-subsets run
TWELVE_STATE_FLOW = "states: 12\n{}\n{}\n".format(
    " ".join(str((x + 1) % 12) for x in range(12)),
    " ".join(str(x - x % 4) for x in range(12)),
)
TWELVE_STATE_SHA256 = "6072c5187307579b88fb06a6e65ec5f4303b6f068841df35c31d35beb12299cc"

# sha256 of `flowrel fuzz --count 500 --seed 1` stdout
FUZZ_500_SHA256 = "aa0aa75626df6d89ff2c7d69d5ab64146180c08d7df06f4edbd6238ab599ddb9"


def test_analyze_twelve_state_report_bytes_pinned(capsys, tmp_path):
    flow = tmp_path / "twelve.flow"
    flow.write_text(TWELVE_STATE_FLOW)
    code, out, _ = run(capsys, "analyze", str(flow))
    assert code == 0
    report = json.loads(out)
    assert report["monoid"]["size"] == 60
    assert len(report["monoid"]["minimal_ideals"]) == 4
    assert "omega_agrees_with_product_flow" in [c["name"] for c in report["checks"]]
    assert hashlib.sha256(out.encode()).hexdigest() == TWELVE_STATE_SHA256


def test_fuzz_500_bytes_pinned(capsys):
    code, out, _ = run(capsys, "fuzz", "--count", "500", "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_500_SHA256


@pytest.mark.parametrize("example", ["mt", "chacon", "ternary", "cc"])
def test_reproduce_matches_golden(capsys, example):
    code, out, _ = run(capsys, "reproduce", example)
    assert code == 0, out
    assert "golden match" in out


def test_reproduce_mismatch_exits_1_with_diff(capsys, monkeypatch):
    from flowrel import reports

    def tampered():
        rep = reports.chacon_report()
        rep["recursion_ok"] = False
        return rep

    monkeypatch.setitem(reports.REPRODUCERS, "chacon", tampered)
    code, out, _ = run(capsys, "reproduce", "chacon")
    assert code == 1
    assert "recursion_ok" in out and "---" in out


def test_classify_pair_morse(capsys):
    code, out, _ = run(capsys, "classify-pair", "--system", "morse", "--x", "a", "--y", "b")
    assert code == 0
    report = json.loads(out)
    assert report["labels"] == ["evidence-P", "evidence-not-SP"]
    assert report["proximal"]["witness_time"] == 8


@pytest.mark.parametrize("extra, gap", [
    ([], 64), (["--gap", "16"], 16), (["--horizon", "300"], 256), (["--horizon", "256"], 256),
])
def test_default_gap_follows_a_short_horizon(capsys, extra, gap):
    # the default gap is min(256, horizon); an explicit gap still wins
    argv = ["classify-pair", "--system", "morse", "--x", "a", "--y", "b", "--horizon", "64", *extra]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert json.loads(out)["params"]["gap"] == gap


def test_config_gap_wins_over_the_horizon_default(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gap": 8, "horizon": 32}))
    code, out, _ = run(capsys, "--config", str(cfg), "classify-pair", "--system", "morse", "--x", "a", "--y", "b")
    assert code == 0 and json.loads(out)["params"] == {"depth": 8, "gap": 8, "horizon": 32}
    cfg.write_text(json.dumps({"horizon": 32}))
    code, out, _ = run(capsys, "--config", str(cfg), "classify-pair", "--system", "morse", "--x", "a", "--y", "b")
    assert code == 0 and json.loads(out)["params"]["gap"] == 32


def test_classify_pair_dual_descriptor(capsys):
    code, out, _ = run(capsys, "classify-pair", "--system", "morse", "--x", "a", "--y", "dual:a")
    report = json.loads(out)
    assert report["labels"] == ["proven-D"]


def test_classify_pair_chacon_params(capsys):
    code, out, _ = run(
        capsys, "classify-pair", "--system", "chacon", "--x", "x1", "--y", "x2",
        "--depth", "4", "--gap", "729", "--horizon", "6561",
    )
    report = json.loads(out)
    assert report["proximal"]["witness_time"] == -5
    assert report["syndetic"]["outcome"] == "gap_violation"


# sha256 of `flowrel classify-pair --system <args> --horizon 200000` stdout,
# recorded while the agreement times were read from a prefix sum of mismatches
DEEP_CLASSIFY_SHA256 = {
    "morse --x a --y b --depth 16": "852727b76a5fed5f2af58b0482c46f0f5d92feed34985b2be3a07adae577e5ad",
    "morse --x shift:7:a --y shift:12:b --depth 16": "6cae80abb7d8b0ba921eadddb2761fb08672df8adf800887c350190c6cb194f8",
    "chacon --x x1 --y x2 --depth 6": "190a848fd28f0f16399647b9711abbc36a1ff16d3c73eebbdbbf4a4bb5aa3e67",
    "chacon --x xi:12:2 --y x1 --depth 6": "92aae8208fdd15c8ff46493efe63f8a3296619c6f642b7a889cdd3e0fab26c3b",
    "chacon --x xi:123:2 --y xi:321:2 --depth 6": "7ee65eb24cab2d04ccf1d919d00b479f56408b62013013ec38126914a0617adf",
}


@pytest.mark.parametrize("args", sorted(DEEP_CLASSIFY_SHA256))
def test_deep_classify_pair_bytes_pinned(capsys, args):
    code, out, _ = run(capsys, "classify-pair", "--system", *args.split(), "--horizon", "200000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_CLASSIFY_SHA256[args]


def test_chacon_itinerary_at_a_horizon_of_four_million(capsys):
    """The window is read in B_15 from views of B_14 (7,174,453 letters),
    so no block past the 10^7-letter guard is grown."""
    code, out, err = run(capsys, "classify-pair", "--system", "chacon", "--x", "xi:12:2", "--y", "x1",
                         "--depth", "6", "--horizon", "4000000")
    assert code == 0 and err == ""
    assert json.loads(out)["params"]["horizon"] == 4 * 10**6


@pytest.mark.parametrize("family", ["C", "D"])
def test_cc_tier_past_the_float_range_gets_a_class(capsys, family):
    code, out, err = run(capsys, "classify-pair", "--system", "cc", "--x", f"{family}:{10**400}:0.5",
                         "--y", "center")
    assert code == 0 and err == ""
    assert json.loads(out)["labels"]


def test_classify_pair_ternary_and_cc(capsys):
    code, out, _ = run(capsys, "classify-pair", "--system", "ternary", "--x", "const:0", "--y", "z")
    assert json.loads(out)["labels"] == ["InSP"]
    code, out, _ = run(capsys, "classify-pair", "--system", "cc", "--x", "C:2:0.5", "--y", "C:4:1.0")
    report = json.loads(out)
    assert report["labels"] == ["EvidenceP"]
    assert report["verdicts"]["pair"]["clause"] == "shared_family"


def test_classify_pair_bad_descriptor(capsys):
    code, _, err = run(capsys, "classify-pair", "--system", "morse", "--x", "nope", "--y", "a")
    assert code == 2


@pytest.mark.parametrize("desc", ["const:01", "const:", "const:3", "shift:2:const:00"])
def test_ternary_const_takes_exactly_one_letter(capsys, desc):
    code, out, err = run(capsys, "classify-pair", "--system", "ternary", "--x", desc, "--y", "z")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "const:C" in err


def test_descriptor_parsers():
    assert parse_morse_point("shift:2:dual:a").window(4) == parse_morse_point("shift:2:abar").window(4)
    assert parse_chacon_point("xi:32:2").describe()["prefix"] == [3, 2]
    assert parse_ternary_point("pat:12:0:0:1").at(0) == "1"
    assert parse_circle_point("D:3:0.25").tier() == "D3"
    assert parse_circle_point("center").tier() == "center"
    with pytest.raises(ValueError):
        parse_circle_point("C:1")
    # a shift:K: prefix reads its inner descriptor before K
    for parse, point in ((parse_morse_point, "a"), (parse_chacon_point, "x1"), (parse_ternary_point, "z")):
        with pytest.raises(ValueError, match="unknown point 'nope'"):
            parse("shift:x:shift:2:nope")
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse(f"shift:x:shift:2:{point}")


# the full transformation monoid T_5 (3,125 elements) from a 5-cycle, the
# swap (0 1) and 1 -> 0; sha256 of `flowrel analyze` stdout, recorded before
# the ideal algebra was computed by array gathers
T5_FLOW = "states: 5\n1 2 3 4 0\n1 0 2 3 4\n0 0 2 3 4\n"
T5_SHA256 = "b2b5c8bc6e077d19b622a22f357e5ba3a655e8eba8c5b16ef877294f8f446d45"


# T_6 (46,656 elements in a deep breadth-first order) and the rotation with
# x -> x - (x mod 4) on 300 states (1,500 elements, two-byte row keys);
# sha256 of `flowrel analyze` stdout, recorded before the closure became a
# layer-at-a-time array search
T6_FLOW = "states: 6\n1 2 3 4 5 0\n1 0 2 3 4 5\n0 0 2 3 4 5\n"
T6_SHA256 = "9ebf25259cacb4a5221a2769cbaaab69fff32e4a6213547240ec7e6d7e438c88"
WIDE300_FLOW = "states: 300\n{}\n{}\n".format(
    " ".join(str((x + 1) % 300) for x in range(300)),
    " ".join(str(x - x % 4) for x in range(300)),
)
WIDE300_SHA256 = "b65d721f012b5459668dc1e24ce0624ede2cc833d13182468eea22a70d065f2f"


def test_analyze_full_transformation_monoid_bytes_pinned(capsys, tmp_path):
    flow = tmp_path / "t5.flow"
    flow.write_text(T5_FLOW)
    code, out, _ = run(capsys, "analyze", str(flow))
    assert code == 0
    assert json.loads(out)["monoid"]["size"] == 5**5
    assert hashlib.sha256(out.encode()).hexdigest() == T5_SHA256


@pytest.mark.parametrize("text, size, digest", [(T6_FLOW, 6**6, T6_SHA256), (WIDE300_FLOW, 5 * 300, WIDE300_SHA256)],
                         ids=["t6", "wide300"])
def test_analyze_deep_and_wide_report_bytes_pinned(capsys, tmp_path, text, size, digest):
    flow = tmp_path / "pinned.flow"
    flow.write_text(text)
    code, out, _ = run(capsys, "analyze", str(flow))
    assert code == 0
    assert json.loads(out)["monoid"]["size"] == size
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("text, message", [
    ("states: 100000000000\n0 1\n", "wrong arity"),
    ("states: 10^11\n0 1\n", "bad state count"),
    ("states: 2\n-1 0\n", "maps outside the state set"),
    ("states: 2\n# no generators\n", "no generator lines"),
    ("states: -2\n0 1\n", "at least one state"),
    ("states: 2\n0 1 1\n", "wrong arity"),
    ("states:\n0 1\n", "bad state count"),
])
def test_analyze_parse_edge_cases_exit_2(capsys, tmp_path, text, message):
    bad = tmp_path / "edge.flow"
    bad.write_text(text)
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


MORSE_PAIR = ["classify-pair", "--system", "morse", "--x", "a", "--y", "b"]


@pytest.mark.parametrize("argv", [
    ["reproduce", "mt", "--out", "x.json"],
    ["reproduce", "mt", "--format", "json"],
    ["reproduce", "mt", "--cap", "5"],
    [*MORSE_PAIR, "--cap", "5"],
    [*MORSE_PAIR, "--format", "text"],
    ["fuzz", "--count", "1", "--format", "text"],
])
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_element_cap_is_resolved_only_where_a_monoid_is_closed(capsys, monkeypatch):
    monkeypatch.setenv("FLOWREL_ELEMENT_CAP", "abc")
    code, out, _ = run(capsys, "reproduce", "mt")
    assert code == 0 and "golden match" in out
    code, out, _ = run(capsys, *MORSE_PAIR)
    assert code == 0 and json.loads(out)["labels"] == ["evidence-P", "evidence-not-SP"]
    for argv in (["analyze", str(FLOWS / "identity1.flow")], ["fuzz", "--count", "1"]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "FLOWREL_ELEMENT_CAP must be an integer" in err


def test_out_writes_the_printed_report(capsys, tmp_path):
    for argv in (MORSE_PAIR, ["fuzz", "--count", "2"], ["analyze", str(FLOWS / "two_ideal.flow"), "--format", "text"]):
        path = tmp_path / "report.out"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and path.read_text() == out


def test_emit_writes_a_payload_of_several_slices(capsys, tmp_path, monkeypatch):
    # a report cut into many slices reaches stdout and --out as the same
    # bytes as one whole write; a payload of several default slices, with
    # non-ASCII text across the cuts, arrives whole, a slice a write at most
    flow, path = str(FLOWS / "two_ideal.flow"), tmp_path / "report.out"
    code, whole, _ = run(capsys, "analyze", flow)
    monkeypatch.setattr(cli, "EMIT_SLICE", 1000)
    code, out, _ = run(capsys, "analyze", flow, "--out", str(path))
    assert code == 0 and len(whole) > 3000 and out == whole and path.read_bytes() == whole.encode("utf-8")
    monkeypatch.undo()

    writes = []

    class Sink(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    payload = "".join(f"{i}:é∘\n" for i in range(cli.EMIT_SLICE // 2))
    assert len(payload) > 3 * cli.EMIT_SLICE
    monkeypatch.setattr(sys, "stdout", Sink())
    assert cli.emit(payload, str(path))
    assert sys.stdout.getvalue() == payload and path.read_bytes() == payload.encode("utf-8")
    assert max(writes) == cli.EMIT_SLICE and sum(writes) == len(payload)


def test_analyze_non_utf8_flow_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "utf16.flow"
    bad.write_bytes(b"\xff\xfes\x00t\x00")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad} is not UTF-8 text") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["analyze", str(FLOWS / "two_ideal.flow")],
    ["fuzz", "--count", "2"],
    MORSE_PAIR,
], ids=["analyze", "fuzz", "classify-pair"])
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "dir" / "x.json"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --out:") and str(target) in err
    assert not target.exists()


def test_ternary_z_descriptor_is_the_sample_point():
    from flowrel import reports

    z = reports.ternary_sample()["z"]
    assert parse_ternary_point("z").describe() == z.describe()
    assert parse_ternary_point("shift:2:z").describe() == z.shifted(2).describe()
    assert parse_ternary_point("shift:2:z").segment(-30, 30) == z.segment(-28, 32)


# -- the report writer against json ------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2**200, max_value=2**200),
    st.floats(),  # nan and both infinities included
    st.floats().map(lambda x: round(x, 9)),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), -float("inf")]),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x20)),  # control characters
)
int_lists = st.lists(st.one_of(st.integers(), st.booleans()), min_size=1)
json_values = st.recursive(
    st.one_of(json_scalars, int_lists),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=20,
)


@settings(max_examples=120, deadline=None)
@given(json_values)
def test_dump_is_byte_identical_to_json(value):
    assert dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": [], "b": {}, "c": ()}, [True, 1, False, 0], [1, True], [-0.0, 0, -1],
    {"\u00e9\x00\n\t\"": ["\ud83d\ude00", "\x1f"]}, [2**64, -2**64], [[1, 2], (3, 4)],
])
def test_dump_edge_values(value):
    assert dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def as_plain(value):
    """The report with every ndarray replaced by its ``tolist()``."""
    if isinstance(value, dict):
        return {key: as_plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_plain(item) for item in value]
    return value.tolist() if hasattr(value, "tolist") else value


def test_witness_maps_are_written_as_json_sorts_their_keys():
    # on 12 states the pair keys sort as strings ("10,11" before "2,3"),
    # not as pairs of numbers; both witness maps take the one-pass writer
    flow = FiniteFlow(12, (tuple((x + 1) % 12 for x in range(12)), tuple(x - x % 4 for x in range(12))))
    report = flow_report(analyze_flow(flow))
    witnesses = report["relations"]["P"]["witnesses"], report["relations"]["SP"]["out_witnesses"]
    for keys in map(list, witnesses):
        assert "10,11" in keys and any(key.startswith("2,") for key in keys)
    assert dump(report) == json.dumps(as_plain(report), indent=2, sort_keys=True) + "\n"
    for witness_map in witnesses:
        value = {"pairs": witness_map}
        assert dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


int_records = st.lists(st.text(max_size=3), min_size=1, max_size=3, unique=True).flatmap(
    lambda fields: st.dictionaries(st.text(max_size=5), st.fixed_dictionaries(
        {field: st.one_of(st.integers(), st.integers(min_value=-2**70, max_value=2**70)) for field in fields})))


@settings(max_examples=80, deadline=None)
@given(st.lists(int_records, min_size=1, max_size=3), st.dictionaries(st.text(max_size=3), json_values, max_size=2))
def test_dump_writes_record_maps_as_json_does(maps, stray):
    # maps of records sharing one field tuple, next to maps that mix
    # field tuples, values or key types and so take the general path
    value = {f"m{i}": m for i, m in enumerate(maps)}
    value["mixed"] = {**maps[0], "x": {"other": 1}, "y": {"flag": True}}
    value["stray"] = stray
    assert dump(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_one_parser_serves_successive_calls_like_separate_runs(capsys):
    # an analyze, a usage error and a reproduce in one process give the
    # exit codes and stdout of three fresh processes
    calls = [["analyze", str(FLOWS / "two_ideal.flow")], ["fuzz", "--count", "abc"], ["reproduce", "mt"]]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out))
    separate = [
        (done.returncode, done.stdout) for done in (
            subprocess.run([sys.executable, "-m", "flowrel", *argv], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(SRC)})
            for argv in calls)
    ]
    assert [code for code, _ in in_process] == [0, 2, 0]
    assert in_process == separate


# -- the exact-form reader and the argparse fallback against argparse ------------

# the argv forms the benchmark runs, which the exact-form reader takes
EXACT_ARGV = [
    ["analyze", str(FLOWS / "identity1.flow")],
    ["reproduce", "mt"],
    ["classify-pair", "--system", "morse", "--x", "shift:3:a", "--y", "b", "--depth", "16", "--horizon", "2000"],
    ["fuzz", "--count", "3"],
]
FRESH_INTERPRETER = """
import contextlib, io, json, sys
from flowrel import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert "argparse" not in sys.modules, argv
namespace = vars(cli.parse_args(json.loads(sys.argv[2])))
assert "argparse" in sys.modules
print(json.dumps(namespace))
"""


def test_exact_argv_is_read_without_argparse(capsys):
    """In a fresh interpreter the benchmark's argv forms run without
    importing argparse; an abbreviated flag imports it and reads like the
    reference parser."""
    abbreviated = [*MORSE_PAIR, "--hor", "64"]
    done = subprocess.run([sys.executable, "-c", FRESH_INTERPRETER, json.dumps(EXACT_ARGV), json.dumps(abbreviated)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert ("ok", json.loads(done.stdout)) == outcome(build_parser().parse_args, abbreviated, capsys)


README_ARGV = [
    "analyze flows/two_ideal.flow",
    "analyze flows/two_ideal.flow --format text",
    "fuzz --count 100 --seed 1 --max-states 5",
    "reproduce mt",
    "reproduce cc --bless",
    "classify-pair --system morse --x a --y b",
    "classify-pair --system morse --x a --y dual:a",
    "classify-pair --system chacon --x x1 --y x2 --depth 4 --gap 729 --horizon 6561",
    "classify-pair --system ternary --x const:0 --y z",
    "classify-pair --system cc --x C:2:0.5 --y center",
]
GOOD_ARGV = [
    *README_ARGV,
    # = forms
    "analyze flows/two_ideal.flow --format=text --out=r.json --cap=9",
    "classify-pair --system=chacon --x=shift:-3:x1 --y=xi:12:2 --depth=6 --horizon=200000",
    "fuzz --count=3 --max-states=4 --seed=-7",
    "classify-pair --system morse --x a --y b --out=",
    "classify-pair --system morse --x a --y b --out=a=b",
    # unique prefixes
    "classify-pair --sys morse --x a --y b --hor 100 --dep 3 --ga 50",
    "fuzz --co 2 --ca 5 --max 3 --se 2 --o f.json",
    "analyze f.flow --form text --ca 4",
    "reproduce mt --bl",
    "--conf c.json fuzz --count 2",
    "--con=c.json reproduce chacon",
    # --config before the command, flags before and after the positional
    "--config c.json analyze f.flow",
    "--config c.json --config d.json analyze --cap 3 f.flow",
    "--config=c.json classify-pair --x a --system morse --y b",
    "--config c.json reproduce --bless ternary",
    # negative numbers and "-" as values, repeats, "--"
    "classify-pair --system morse --x a --y b --depth -1 --horizon -5",
    "classify-pair --system morse --x - --y b --gap -25",
    "fuzz --count 1 --count 2 --seed 3 --seed 4",
    "analyze -- -f.flow",
    "analyze --cap 2 -- f.flow",
    "analyze f.flow --",
    "classify-pair --system morse --x 'a b' --y b",
    "classify-pair --system morse --x '-a b' --y b",
]
BAD_ARGV = [
    "",
    "--config c.json",
    "--config",
    "frobnicate",
    "--bogus analyze f.flow",
    "analyze f.flow --bogus",
    "analyze f.flow --config c.json",
    "analyze",
    "analyze a.flow b.flow",
    "analyze f.flow --format xml",
    "analyze f.flow --cap abc",
    "analyze f.flow --cap",
    "analyze f.flow --cap --format text",
    "fuzz --count 1.5",
    "fuzz --c 3",
    "fuzz --seed= ",
    "reproduce",
    "reproduce nope",
    "reproduce mt --bless=yes",
    "reproduce mt --out x.json",
    "classify-pair --x a --y b",
    "classify-pair --system morse --x a",
    "classify-pair --system klein --x a --y b",
    "classify-pair --system morse --x a --y b --h 5",
    "classify-pair --system morse --x a --y b --depth",
    "classify-pair --system morse --x a --y b --cap 5",
    "classify-pair --system morse --x a --y b --format text",
    "classify-pair --system morse --x --y b",
    "classify-pair --system morse --x a --y b --depth x",
    "classify-pair --system morse --x a --y b --depth --",
    "-- analyze f.flow",
    "-x analyze f.flow",
    "--help=1",
    "classify-pair --system morse --x - --y b --gap -2.5e3",
    "classify-pair --system morse --y b --x -- a",
    "analyze --out -- --cap",
    "analyze '--format=a b'",
    "analyze f.flow --cap 3 --",
    "reproduce mt --bless --",
    "fuzz --",
    "analyze f.flow -- --cap 2",
]


def outcome(parse, argv, capsys):
    """("ok", namespace without func) or ("exit", code, wrote stdout, wrote an error line)."""
    try:
        found = vars(parse(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return "exit", exc.code, bool(captured.out), "error:" in captured.err
    found.pop("func", None)
    return "ok", found


@pytest.mark.parametrize("line", GOOD_ARGV)
def test_table_reads_argv_like_argparse(line, capsys):
    argv = shlex.split(line)
    got = outcome(parse_args, argv, capsys)
    assert got[0] == "ok" and got == outcome(build_parser().parse_args, argv, capsys)


def exit_and_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("line", BAD_ARGV)
def test_table_refuses_argv_like_argparse(line, capsys):
    argv = shlex.split(line)
    for parse in (parse_args, build_parser().parse_args):
        code, out, err = exit_and_output(parse, argv, capsys)
        assert code == 2 and out == "" and "error:" in err, (parse, line)
        assert err.startswith("usage: flowrel")


@pytest.mark.parametrize("line", ["--help", "-h", "analyze --help", "reproduce -h mt",
                                  "classify-pair --he", "fuzz --count 3 -h", "analyze f.flow --bogus -h"])
def test_help_exits_0_under_both(line, capsys):
    argv = shlex.split(line)
    for parse in (parse_args, build_parser().parse_args):
        code, out, err = exit_and_output(parse, argv, capsys)
        assert code == 0 and out.startswith("usage: flowrel") and err == "", (parse, line)


def test_help_lists_every_command_and_flag(capsys):
    code, out, _ = exit_and_output(parse_args, ["--help"], capsys)
    assert code == 0 and all(name in out for name in ("analyze", "fuzz", "reproduce", "classify-pair", "--config"))
    code, out, _ = exit_and_output(parse_args, ["classify-pair", "--help"], capsys)
    assert code == 0
    for flag in ("--system {morse,chacon,ternary,cc}", "--x X", "--y Y", "--depth", "--gap", "--horizon", "--out"):
        assert flag in out


ARGV_WORDS = [
    "analyze", "fuzz", "reproduce", "classify-pair", "mt", "cc", "f.flow", "--config", "c.json", "--format",
    "text", "json", "--out", "--cap", "3", "-1", "abc", "--count", "--seed", "--max-states", "--bless",
    "--system", "morse", "--x", "--y", "a", "--depth", "--gap", "--horizon", "--", "-", "--hor", "--c",
    "--co", "--x=a", "--out=", "--bless=1", "--bogus", "-x", "--fo=text", "--sys=cc", "--h", "--ca", "-h",
    "--help", "x y", "-a b",
]


@pytest.mark.parametrize("seed", range(4))
def test_random_argv_read_alike_by_table_and_argparse(seed, capsys):
    """Seeded argv over flags, prefixes, values, "--" and unknown words,
    most of them after a command: the same namespace, or the same exit."""
    rng = random.Random(seed)
    reference = build_parser().parse_args
    for _ in range(500):
        argv = [rng.choice(ARGV_WORDS) for _ in range(rng.randint(0, 9))]
        if rng.random() < 0.6:
            argv.insert(0, rng.choice(["analyze", "fuzz", "reproduce", "classify-pair"]))
        assert outcome(parse_args, argv, capsys) == outcome(reference, argv, capsys), argv
