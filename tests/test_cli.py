import json
from pathlib import Path

import pytest

from flowrel.cli import (
    main,
    parse_chacon_point,
    parse_circle_point,
    parse_morse_point,
    parse_ternary_point,
)

FLOWS = Path(__file__).resolve().parent.parent / "flows"


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


def test_descriptor_parsers():
    assert parse_morse_point("shift:2:dual:a").window(4) == parse_morse_point("shift:2:abar").window(4)
    assert parse_chacon_point("xi:32:2").describe()["prefix"] == [3, 2]
    assert parse_ternary_point("pat:12:0:0:1").at(0) == "1"
    assert parse_circle_point("D:3:0.25").tier() == "D3"
    assert parse_circle_point("center").tier() == "center"
    with pytest.raises(ValueError):
        parse_circle_point("C:1")
