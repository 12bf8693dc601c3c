#!/usr/bin/env python3
"""Search random finite flows for monoids with several minimal left
ideals and print them in the flow text format.

Multi-ideal instances are where the strongly-proximal machinery earns its
keep (P strictly bigger than SP, cross-ideal idempotent equivalences);
hits found here are worth freezing as regression fixtures.
"""

import argparse
import random

import numpy as np

from flowrel.finflow import MonoidTooLarge, format_flow
from flowrel.fuzz import random_flow
from flowrel.relations import analyze_flow


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--max-states", type=int, default=6)
    ap.add_argument("--min-ideals", type=int, default=2)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    hits = 0
    for i in range(args.count):
        flow = random_flow(rng, max_states=args.max_states)
        try:
            ax = analyze_flow(flow)
        except MonoidTooLarge:
            continue
        if ax.structure.ideal_count < args.min_ideals:
            continue
        hits += 1
        p_pairs = int(np.triu(ax.proximal, 1).sum())
        sp_pairs = int(np.triu(ax.strongly_proximal, 1).sum())
        comment = (
            f"instance {i}: |S|={ax.monoid.size}, ideals={ax.structure.ideal_count}, "
            f"off-diagonal P pairs={p_pairs}, off-diagonal SP pairs={sp_pairs}"
        )
        print(format_flow(flow, comment=comment))
    print(f"# {hits} multi-ideal instances out of {args.count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
