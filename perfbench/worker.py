"""One worker process of a workload run; ``run.py`` starts it.

Protocol on stdout: the line ``READY`` once the inputs are built, then one
line ``RESULT <json>``.  The program's own stdout is captured per item, so
nothing else reaches the pipe.

Untraced, a worker runs one round (``--round``) and exits, so every round
starts from a cold program: nothing a round leaves in module-level caches
reaches the next one.  Closed loop, one caller: each item starts when the
previous one returns.  An item's time covers its public call only;
building the inputs and checking outputs are not timed.

Traced, one worker alternates untraced and traced rounds on round 0's
inputs for about ``--seconds`` (see ``traced_run``).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracer import ITEM_SPAN, Tracer, per_layer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
EXPECTED_FILE = HERE / "expected_sha256.json"


class Round:
    """Per item key: seconds, correctness and output digest."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.ok: dict[str, bool] = {}
        self.digests: dict[str, str | None] = {}

    @property
    def busy_s(self) -> float:
        return sum(self.seconds.values())


def run_item(item, tracer: Tracer | None) -> tuple[float, object, bool]:
    t0 = perf_counter()
    try:
        out = tracer.span(ITEM_SPAN, item.call) if tracer else item.call()
    except (Exception, SystemExit):  # a raising item is a failed item; keep going
        elapsed = perf_counter() - t0
        print(f"item {item.key} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, False
    return perf_counter() - t0, out, True


def run_round(items, reference: dict, tracer: Tracer | None = None) -> Round:
    """Run every item once.  An item fails when it raises, when its check
    fails, or when its output digest differs from the one ``reference``
    holds for it."""
    rnd = Round()
    for item in items:
        seconds, out, ok = run_item(item, tracer)
        digest = None
        if ok:
            try:
                ok, digest = item.check(out)
            except Exception:  # malformed output counts as a failed check
                traceback.print_exc(file=sys.stderr)
                ok = False
        if ok and item.key in reference:
            ok = reference[item.key] == digest
            if not ok:
                print(f"item {item.key}: output digest differs from the reference", file=sys.stderr)
        rnd.seconds[item.key] = seconds
        rnd.ok[item.key] = ok
        rnd.digests[item.key] = digest
    return rnd


def tally(rounds: list[Round]) -> tuple[int, int]:
    attempted = sum(len(r.ok) for r in rounds)
    return attempted, attempted - sum(sum(r.ok.values()) for r in rounds)


def traced_run(args, items, expected: dict) -> dict:
    """Round 0's inputs in untraced and traced rounds that alternate, so a
    change of machine speed hits both alike.  Another pair of rounds starts
    only while the slowest pair so far would still end within ``--seconds``;
    at least one pair runs.  Repeating one round's inputs makes calls and
    counts repeat exactly.  Tracing overhead compares the best untraced and
    traced round times; every output must match the first round's byte for
    byte."""
    tracer = Tracer()
    untraced: list[Round] = []
    traced: list[Round] = []
    stats: list[dict] = []
    t0 = perf_counter()
    longest = 0.0
    while not traced or perf_counter() - t0 + longest <= args.seconds:
        started = perf_counter()
        untraced.append(run_round(items, {**(untraced[0].digests if untraced else {}), **expected}))
        tracer.install()
        try:
            traced.append(run_round(items, {**untraced[0].digests, **expected}, tracer))
        finally:
            tracer.uninstall()
        stats.append(tracer.take(keep_spans=not stats))
        longest = max(longest, perf_counter() - started)
    untraced_s = min(r.busy_s for r in untraced)
    metrics = per_layer(stats, min(r.busy_s for r in traced) - untraced_s, untraced_s)
    counts_repeat = all(
        s["calls"] == stats[0]["calls"] and s["counts"] == stats[0]["counts"] for s in stats
    )
    spans = stats[0].pop("spans")
    stem = OUT_DIR / f"trace-{args.workload}"
    np.savez_compressed(f"{stem}-spans.npz", **{k: spans[k] for k in ("parent", "name", "start", "end")})
    trace_file = stem.with_suffix(".json")
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "untraced_round_s": [r.busy_s for r in untraced],
        "traced_round_s": [r.busy_s for r in traced],
        "counts_repeat": counts_repeat,
        "untraced_digests": untraced[0].digests,
        "traced_digests": traced[0].digests,
        "span_names": spans["names"],
        "functions": {name: {"calls": c, "self_s": stats[0]["self_s"][name],
                             "total_s": stats[0]["total_s"][name]}
                      for name, c in stats[0]["calls"].items()},
        "metrics": metrics,
    }, indent=1), encoding="utf-8")
    attempted, failed = tally(untraced + traced)
    return {"attempted": attempted, "failed": failed, "per_layer": metrics,
            "trace_file": str(trace_file.relative_to(HERE.parent))}


def load_expected(args) -> dict:
    """Output digests recorded from the seed commit for round 0 of the
    default seed at full size; empty otherwise."""
    if args.small or args.seed != workloads.DEFAULT_SEED or args.round != 0:
        return {}
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8")).get(args.workload, {})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0, help="the round whose inputs to build and run")
    ap.add_argument("--seconds", type=float, required=True, help="length of a traced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs, for the self-test")
    ap.add_argument("--setup-only", action="store_true", help="build the inputs and exit")
    args = ap.parse_args()

    proto = sys.stdout
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR))
    try:
        items = workloads.build(args.workload, args.seed, args.round, args.small, workdir)
        print("READY", file=proto, flush=True)
        if args.setup_only:
            return 0
        expected = load_expected(args)
        if args.trace:
            result = traced_run(args, items, expected)
        else:
            rnd = run_round(items, expected)
            attempted, failed = tally([rnd])
            result = {"attempted": attempted, "failed": failed, "seconds": rnd.seconds,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        print("RESULT " + json.dumps(result), file=proto, flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
