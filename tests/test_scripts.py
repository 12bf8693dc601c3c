"""The scripts in ``scripts/``, run in-process at the sizes CI runs them:
each exits 0 and prints its summary, so a renamed field or function of the
package they read fails here."""

import re
import runpy
import sys
from pathlib import Path

import pytest

from flowrel.finflow import parse_flow

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    """The exit code and stdout of ``scripts/name`` run as a program."""
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return done.value.code, capsys.readouterr().out


def test_find_multi_ideal_flows_prints_its_hits_and_summary(monkeypatch, capsys):
    code, out = run_script("find_multi_ideal_flows.py", ["--count", "200"], monkeypatch, capsys)
    assert code == 0
    *documents, summary = out.strip().split("\n\n")
    assert summary == "# 5 multi-ideal instances out of 200"
    assert len(documents) == 5
    for text in documents:
        ideals = int(re.search(r"ideals=(\d+)", text).group(1))
        assert ideals >= 2 and parse_flow(text).n_states <= 6


def test_circle_trajectories_prints_every_step_both_ways(monkeypatch, capsys):
    code, out = run_script("circle_trajectories.py", ["--steps", "200"], monkeypatch, capsys)
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "iteration,tier,angle,radius,rim_distance"
    assert [int(row.split(",")[0]) for row in rows] == list(range(-200, 201))
