"""Self-test of the benchmark, at reduced input sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it runs ``run.py --small`` untraced and traced and
checks that:

- every metric BENCHMARK.json names is printed, with its unit, and no
  item fails on this code;
- the spans of the traced run are well formed: every parent exists and
  encloses its children, and no self time exceeds its span's duration;
- calls and work counts repeat exactly from one traced round to the next;
- tracing leaves every item's output bytes unchanged.

It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}, got
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"  {name} " in proc.stdout, f"{name} is not printed by name"
    return result


def check_trace(workload: str) -> None:
    trace = json.loads((HERE / "out" / f"trace-{workload}.json").read_text(encoding="utf-8"))
    assert trace["untraced_digests"] == trace["traced_digests"], "tracing changed an output"
    assert trace["counts_repeat"], "calls or counts differ between traced rounds"
    with np.load(HERE / "out" / f"trace-{workload}-spans.npz") as spans:
        parent, start, end = (spans[k].tolist() for k in ("parent", "start", "end"))
        names = [trace["span_names"][i] for i in spans["name"]]
    child = [0.0] * (len(parent) + 1)
    for i, p in enumerate(parent):
        assert 0 <= p <= len(parent) and p != i + 1, f"span {i + 1} has no valid parent"
        assert (p == 0) == (names[i] == "bench.item"), f"{names[i]} outside an item span"
        if p:
            assert start[p - 1] <= start[i] <= end[i] <= end[p - 1], f"span {i + 1} escapes its parent"
        child[p] += end[i] - start[i]
    for i in range(len(parent)):
        own = end[i] - start[i] - child[i + 1]
        assert -1e-9 <= own <= end[i] - start[i], f"span {i + 1} self time {own}"
    for name, f in trace["functions"].items():
        assert f["calls"] >= 1 and f["self_s"] >= -1e-9, name


def check_refuses_without_program() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, "ran without the program"
        assert '"metrics"' not in proc.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        check_result(run(name, 0), SPEC["end_to_end"])
        check_result(run(name, 1), SPEC["per_layer"])
        check_trace(name)
        print(f"{name}: ok")
    check_refuses_without_program()
    print("bare directory: refused")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
