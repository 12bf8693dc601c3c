"""Seeded inputs, public calls and output checks for the two workloads.

A run is a sequence of *rounds*.  A round is a fixed list of item slots;
its inputs are generated from (workload, seed, round index), so every
round of every run does the same mix of work on inputs the program has
not seen before in that process, and no cache keyed on inputs can help.
Where an item's cost depends on the shape of its input (monoid shape,
agreement structure), the seed changes the input without changing that
shape: flows are relabelled by a seeded permutation of the states, and
symbolic pairs get a seeded common shift, a seeded swap and a seeded
choice between equivalent descriptors.  The work is then the same for
every seed and round while the bytes the program sees are not.

Every call goes through a public entry point, looked up on its module at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from flowrel import cli
from flowrel.finflow import FiniteFlow

# the seed whose outputs are recorded in expected_sha256.json
DEFAULT_SEED = 1

MORSE_DEPTH = 16
CHACON_DEPTH = 6
HORIZON = 2 * 10**5


@dataclass
class Item:
    """One closed-loop request: ``call`` is timed, ``check`` is not.

    ``check`` maps the call's output to ``(correct, digest)``, where the
    digest is the sha256 of the output bytes.
    """

    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``flowrel <argv>`` in this process, with stdout kept in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# --------------------------------------------------------------------------
# flows, relabelled


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def conjugate(gens, perm: list[int]) -> tuple[tuple[int, ...], ...]:
    """Generators g' = perm . g . perm^-1 (state x is renamed perm[x])."""
    inv = [0] * len(perm)
    for x, px in enumerate(perm):
        inv[px] = x
    return tuple(tuple(perm[g[inv[x]]] for x in range(len(perm))) for g in gens)


def relabel(flow: FiniteFlow, perm: list[int], gen_order: list[int]) -> FiniteFlow:
    gens = [flow.generators[i] for i in gen_order]
    return FiniteFlow(flow.n_states, conjugate(gens, perm))


def flow_text(flow: FiniteFlow) -> str:
    lines = [f"states: {flow.n_states}"]
    lines.extend(" ".join(str(v) for v in g) for g in flow.generators)
    return "\n".join(lines) + "\n"


def wide_cyclic_flow(n: int, rng: random.Random) -> FiniteFlow:
    """Rotation and x -> x - (x mod 4), conjugated by a seeded permutation:
    5n elements and 4 minimal left ideals."""
    rotation = tuple((x + 1) % n for x in range(n))
    floor4 = tuple(x - x % 4 for x in range(n))
    base = FiniteFlow(n, (rotation, floor4))
    return relabel(base, random_permutation(n, rng), random_permutation(2, rng))


# --------------------------------------------------------------------------
# report-wide


def check_wide_report(n: int, out) -> tuple[bool, str]:
    """5n elements, 4 minimal ideals, 7n ordered proximal pairs, SP the
    diagonal, exit code 0."""
    rc, text = out
    ok = rc == 0
    if ok:
        rep = json.loads(text)
        p_pairs = rep["relations"]["P"]["pairs"]
        ordered_p = sum(1 if x == y else 2 for x, y in p_pairs)
        ok = (
            rep["monoid"]["size"] == 5 * n
            and len(rep["monoid"]["minimal_ideals"]) == 4
            and ordered_p == 7 * n
            and rep["relations"]["SP"]["pairs"] == [[x, x] for x in range(n)]
        )
    return ok, sha256(text.encode())


def report_wide(rng: random.Random, small: bool, workdir: Path) -> list[Item]:
    items = []
    for n in ((8, 12) if small else range(16, 65, 16)):
        path = workdir / f"wide{n}.flow"
        path.write_text(flow_text(wide_cyclic_flow(n, rng)), encoding="utf-8")
        argv = ["analyze", str(path)]
        items.append(Item(
            f"wide{n}",
            lambda argv=argv: run_cli(argv),
            lambda out, n=n: check_wide_report(n, out),
        ))
    return items


# --------------------------------------------------------------------------
# symbolic-deep

# Pairs of Morse points (fixed point, shift).  The seed adds a common
# shift below 1000, which moves only the edges of the 2 * HORIZON window, so
# the agreement structure and the cost stay the same.
MORSE_PAIRS = (
    (("a", 0), ("b", 0)),
    (("a", 7), ("b", 12)),
)
MORSE_DUAL_POINTS = (("a", 0),)
DUAL_NAME = {"a": "abar", "abar": "a", "b": "bbar", "bbar": "b"}

CHACON_PAIRS = (
    (("x1", 0), ("x2", 0)),
    (("xi:12:2", 0), ("x1", 0)),
    (("xi:123:2", 0), ("xi:321:2", 0)),
)
TERNARY_NAMES = ("c0", "c1", "c2", "z", "z_shift2", "z_shift40", "z_flip",
                 "alt01", "alt01_shift", "mix01", "mix10", "per012")
REPRODUCE_EXAMPLES = ("mt", "chacon", "ternary", "cc")


def shifted(base: str, k: int) -> str:
    return base if k == 0 else f"shift:{k}:{base}"


def check_pair(dual: bool, out) -> tuple[bool, str]:
    """proven-D exactly when the pair is a structural dual pair."""
    rc, text = out
    ok = rc == 0
    if ok:
        rep = json.loads(text)
        labels = rep["labels"]
        ok = rep["kind"] == "pair_classification" and (
            labels == ["proven-D"] if dual else bool(labels) and "proven-D" not in labels
        )
    return ok, sha256(text.encode())


def reproduce_all() -> list[tuple[int, str]]:
    return [run_cli(["reproduce", ex]) for ex in REPRODUCE_EXAMPLES]


def check_reproduce(outs) -> tuple[bool, str]:
    """A golden match for each reproduce scenario."""
    ok = all(rc == 0 and text == f"{ex}: golden match\n"
             for ex, (rc, text) in zip(REPRODUCE_EXAMPLES, outs))
    return ok, sha256("".join(text for _, text in outs).encode())


def classify_item(key: str, system: str, x: str, y: str, extra: list[str], dual: bool) -> Item:
    argv = ["classify-pair", "--system", system, "--x", x, "--y", y, *extra]
    return Item(key, lambda: run_cli(argv), lambda out: check_pair(dual, out))


def symbolic_deep(rng: random.Random, small: bool, workdir: Path) -> list[Item]:
    horizon = str(HORIZON // 100 if small else HORIZON)
    morse_args = ["--depth", str(MORSE_DEPTH), "--horizon", horizon]
    chacon_args = ["--depth", str(CHACON_DEPTH), "--horizon", horizon]
    deep, fast = [], []
    for i, ((p, s), (q, t)) in enumerate(MORSE_PAIRS):
        k = rng.randrange(1000)
        if rng.random() < 0.5:  # the dual of both points: same agreement times
            p, q = DUAL_NAME[p], DUAL_NAME[q]
        x, y = shifted(p, s + k), shifted(q, t + k)
        if rng.random() < 0.5:
            x, y = y, x
        deep.append(classify_item(f"morse{i}", "morse", x, y, morse_args, False))
    for i, ((p, s), (q, t)) in enumerate(CHACON_PAIRS):
        k = rng.randrange(1000)
        x, y = shifted(p, s + k), shifted(q, t + k)
        if rng.random() < 0.5:
            x, y = y, x
        deep.append(classify_item(f"chacon{i}", "chacon", x, y, chacon_args, False))
    for i, (p, s) in enumerate(MORSE_DUAL_POINTS):
        k = s + rng.randrange(1000)
        x = shifted(p, k)
        y = f"dual:{x}" if rng.random() < 0.5 else shifted(DUAL_NAME[p], k)
        fast.append(classify_item(f"morse_dual{i}", "morse", x, y, morse_args, True))
    x = rng.choice(TERNARY_NAMES)
    y = shifted(rng.choice(TERNARY_NAMES), rng.randrange(50))
    fast.append(classify_item("ternary", "ternary", x, y, [], False))
    x = f"C:{rng.randint(0, 6)}:{rng.uniform(0.0, 3.14):.6f}"
    y = rng.choice(("center", f"D:{rng.randint(3, 6)}:{rng.uniform(0.0, 3.14):.6f}"))
    fast.append(classify_item("cc", "cc", x, y, [], False))
    fast.append(Item("reproduce", reproduce_all, check_reproduce))
    # Deep calls outnumber the rest so that the median item is a deep call.
    # There are few of them so that a round stays short (about 1 s) and a
    # run holds enough rounds for each slot's best time to be steady.
    # The order is the same in every round, so the call that fills the
    # program's caches in a fresh process is the same slot every round.
    return deep + fast


BUILDERS = {
    "report-wide": report_wide,
    "symbolic-deep": symbolic_deep,
}


def build(workload: str, seed: int, round_index: int, small: bool, workdir: Path) -> list[Item]:
    """The items of one round; each round of a run gets fresh inputs."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    return BUILDERS[workload](rng, small, workdir)
