#!/usr/bin/env python3
"""Scan the capacity formula and its measured lower bound across ratios.

For each constant contraction ratio in a range this computes the closed-form
capacity, the positive-measure lower bound from the discrete field sup, and
their quotient, then prints the table (optionally CSV to a file).  The
quotient staying in a narrow band across the scan is the sanity signal.

    python3 scripts/capacity_scan.py --ratios 0.1 0.2 0.25 0.3 0.4 --depth 6
"""

import argparse
import sys

from cantor_riesz import (
    CantorParams,
    atomize,
    capacity_wolff,
    gamma_plus_lower_bound,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ratios", type=float, nargs="+",
                        default=[0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45])
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--d", type=int, default=1)
    parser.add_argument("--s", type=float, default=0.5)
    parser.add_argument("--refine-k", type=int, default=4, dest="refine_k")
    parser.add_argument("--csv", help="also write the table here")
    args = parser.parse_args(argv)

    rows = []
    for lam in args.ratios:
        params = CantorParams(d=args.d, s=args.s, lam=(lam,) * args.depth)
        cap = capacity_wolff(params)
        est = gamma_plus_lower_bound(atomize(params, args.refine_k))
        rows.append((lam, cap, est.value, est.value / cap, est.halo_points))

    print(f"{'lam':>6} {'formula':>12} {'lower bound':>12} {'quotient':>9} {'halo':>6}")
    for lam, cap, est, quot, halo in rows:
        print(f"{lam:>6.3f} {cap:>12.6f} {est:>12.6f} {quot:>9.4f} {halo:>6}")

    if args.csv:
        lines = ["lam,cap_formula,gamma_plus_est,quotient,halo_points"]
        for lam, cap, est, quot, halo in rows:
            lines.append(f"{lam:.17g},{cap:.17g},{est:.17g},{quot:.17g},{halo}")
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
