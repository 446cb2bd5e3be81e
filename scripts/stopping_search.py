#!/usr/bin/env python3
"""Randomized search for extremal behavior of the stopping-scale machinery.

Draws admissible random ratio sequences, classifies each one, verifies the
hard inequality checks, and keeps track of (a) the tightest observed margin
per check and (b) any profiles whose spike blocks come out non-standard.
Useful for convincing yourself the frozen constants have real slack, and
for harvesting interesting fixtures.

    python3 scripts/stopping_search.py --trials 2000 --depth 32 --seed 7
"""

import argparse
import sys
from collections import Counter

from cantor_riesz import CantorParams, StopConfig, build_profile, classify, verify_sequence_lemmas
from cantor_riesz.rng import case_stream


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--depth", type=int, default=32)
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--s", type=float, default=0.5)
    parser.add_argument("--lo", type=float, default=0.05)
    parser.add_argument("--hi", type=float, default=0.49)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    cfg = StopConfig()
    margins = {}  # name -> (ratio lhs/rhs-limit, trial index)
    kind_counts = Counter()
    nonstandard = []
    hard_failures = []

    for trial in range(args.trials):
        stream = case_stream(args.seed, trial)
        lam = tuple(args.lo + stream.uniform() * (args.hi - args.lo)
                    for _ in range(args.depth))
        params = CantorParams(d=args.d, s=args.s, lam=lam)
        prof = build_profile(params)
        cls = classify(prof.theta, prof.p, prof.ell, cfg, n=args.depth)
        rep = verify_sequence_lemmas(cls)
        for check in rep:
            if not check.hard or check.constant is None or check.rhs <= 0:
                continue
            ratio = check.lhs / (check.constant * check.rhs)
            if check.name not in margins or ratio > margins[check.name][0]:
                margins[check.name] = (ratio, trial)
        if not rep.hard_pass:
            hard_failures.append((trial, list(rep.failures())))

        for rec in cls.intervals:
            kind_counts[rec.kind] += 1
        for block in cls.j_intervals:
            if not block.standard:
                nonstandard.append((trial, block.h, block.t_h))

    print(f"{args.trials} trials, depth {args.depth}, "
          f"ratios in ({args.lo}, {args.hi})")
    print(f"interval kinds: {dict(kind_counts)}")
    print(f"non-standard blocks: {len(nonstandard)}"
          + (f", e.g. trial {nonstandard[0][0]}" if nonstandard else ""))
    print("\ntightest margins (lhs as a fraction of the allowed bound):")
    for name, (ratio, trial) in sorted(margins.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name:16} {ratio:8.4f}  (trial {trial})")
    if hard_failures:
        print(f"\nHARD CHECK FAILURES in {len(hard_failures)} trials: "
              f"{hard_failures[:5]}")
        return 1
    print("\nno hard check ever failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
