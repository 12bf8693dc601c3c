"""The fuzz harness's failure path: a failing check is reported with the
offending flow and a minimized flow that replays the failure."""

from flowrel import fuzz
from flowrel.finflow import parse_flow
from flowrel.fuzz import CheckResult


def test_failure_is_reported_minimized_and_replayable(monkeypatch):
    # one suite check is made to fail on every flow with a generator that
    # is not a permutation; minimization must then keep exactly one such
    # generator, dropping the others
    real_suite = fuzz.relation_check_suite

    def suite(ax):
        collapsing = [g for g in ax.flow.generators if len(set(g)) < ax.n_states]
        return [
            CheckResult(r.name, False, f"injected: collapsing generator {collapsing[0]}")
            if r.name == "sp_subset_p" and collapsing else r
            for r in real_suite(ax)
        ]

    monkeypatch.setattr(fuzz, "relation_check_suite", suite)
    count = 40
    summary = fuzz.run_fuzz(count, seed=3)
    failures = summary["failures"]
    assert summary["passed"] + summary["skipped_over_cap"] + len(failures) == count
    assert summary["passed"] > 0
    multi = [f for f in failures if len(parse_flow(f["flow"]).generators) >= 2]
    assert multi, "no failing instance with two or more generators to minimize"
    for f in failures:
        flow = parse_flow(f["flow"])
        assert [c["name"] for c in f["checks"]] == ["sp_subset_p"]
        assert f["checks"][0]["pass"] is False
        assert f["checks"][0]["counterexample"].startswith("injected: collapsing generator")
        small = parse_flow(f["minimized"])
        assert small.n_states == flow.n_states
        assert len(small.generators) == 1
        assert small.generators[0] in flow.generators
        replay = fuzz.run_checks_on_flow(small)
        assert not replay.skipped
        assert [r.name for r in replay.failures] == ["sp_subset_p"]

