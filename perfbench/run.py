"""flowrel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Workloads: report-wide and
symbolic-deep; see ``workloads.py`` and BENCHMARK.json.

Workers (``worker.py``) run one at a time, with BLAS/OpenMP pinned to one
thread and the default element cap.  Untraced, each round of the workload
runs in a fresh worker, so every round starts cold, as a ``flowrel``
invocation does; rounds follow one another until ``--seconds`` would be
exceeded.  Every round runs the same item slots on fresh inputs of equal
cost (see ``workloads.py``), and the timings use each slot's best time
over the rounds.  A cold round in a fresh process repeats the program's
cache fills and garbage collections at the same places every time, so
the best time keeps them; what it drops is the host's own slowdowns, which
only ever add time.

Set-up time is measured here, from starting a worker to its ``READY``
line, for every worker; extra workers that stop at ``READY`` bring the
samples to ``SETUP_SAMPLES``, and the median is reported.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and writes its summary and spans to
``perfbench/out/trace-<workload>.json`` and ``trace-<workload>-spans.npz``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; failed / attempted is the
failed_frac of the item checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
    if (ROOT / "BENCHMARK.json").exists() else None

SETUP_SAMPLES = 15  # worker start-ups per run, at least; round workers count
MIN_ROUNDS = 2
DEADLINE_S = 170.0  # the whole run, set-up samples included

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("FLOWREL_ELEMENT_CAP", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, extra: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run a worker to its end; return (seconds until READY, its RESULT or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.small:
        cmd.append("--small")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    lines: list[tuple[float, str]] = []

    def read() -> None:
        for line in proc.stdout:
            lines.append((perf_counter(), line))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        rc = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    setup_s = next((t - t0 for t, line in lines if line == "READY\n"), None)
    result = next((json.loads(line[len("RESULT "):]) for _, line in lines
                   if line.startswith("RESULT ")), None)
    if rc != 0 or setup_s is None:
        raise WorkerFailed(f"worker exited with code {rc}")
    return setup_s, result


def timed_rounds(args, deadline: float) -> tuple[list[float], list[dict]]:
    """Rounds 0, 1, ... in fresh workers, one after another.  Another round
    starts only while the slowest round so far would still end within
    ``--seconds``; at least ``MIN_ROUNDS`` run."""
    setups, results = [], []
    t0 = perf_counter()
    longest = 0.0
    while len(results) < MIN_ROUNDS or perf_counter() - t0 + longest <= args.seconds:
        started = perf_counter()
        setup_s, result = start_worker(args, ["--round", str(len(results))], deadline)
        longest = max(longest, perf_counter() - started)
        setups.append(setup_s)
        results.append(result)
    return setups, results


def end_to_end(results: list[dict], passed_share: float) -> dict:
    """Each slot's best time over the rounds; items_per_s counts only the
    share of items that passed their checks."""
    best = [min(r["seconds"][key] for r in results) for key in results[0]["seconds"]]
    return {
        "items_per_s": len(best) / sum(best) * passed_share,
        "item_p50_ms": statistics.median(best) * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs, for the self-test")
    args = ap.parse_args()

    if SPEC is None or not (ROOT / "src" / "flowrel" / "__init__.py").exists():
        print("error: run from a flowrel checkout (BENCHMARK.json and src/flowrel are needed)",
              file=sys.stderr)
        return 2
    names = {w["name"] for w in SPEC["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(names)}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through start_worker's cleanup, which stops the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = perf_counter() + DEADLINE_S
    try:
        if args.trace:
            setups, results = [], [start_worker(args, [], deadline)[1]]
        else:
            setups, results = timed_rounds(args, deadline)
            while len(setups) < SETUP_SAMPLES:
                setups.append(start_worker(args, ["--setup-only"], deadline)[0])
    except (WorkerFailed, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if None in results:
        print("error: a worker printed no result", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    if args.trace:
        values = results[0]["per_layer"]
        wanted = SPEC["per_layer"]
        print(f"traced run of {args.workload}; summary in {results[0]['trace_file']}, spans beside it")
    else:
        values = dict(end_to_end(results, (attempted - failed) / attempted),
                      setup_s=statistics.median(setups))
        wanted = SPEC["end_to_end"]
        print(f"{args.workload}: {len(results)} rounds of {len(results[0]['seconds'])} items, "
              f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    failed_frac = failed / attempted
    for name, m in metrics.items():
        print(f"  {name:58s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':58s} {failed_frac:>14.6g} 1 "
          f"({failed} of {attempted} items)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
