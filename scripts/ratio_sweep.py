#!/usr/bin/env python3
"""Sweep empirical Cauchy-Schwarz ratios across exponents and targets.

Writes one CSV row per (p, target) cell with the maximum observed ratio
against the constant-1 right-hand side.  The recorded maxima stay near 1 in
practice; the guaranteed cap is 2 for p > 1 (sqrt(2) at p = 2).
"""

import argparse
import csv
import sys

from nclp import suites


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", default="ratio_sweep.csv")
    args = ap.parse_args()

    p_values = [1.25, 1.5, 2.0, 3.0, 4.0]
    rows = []
    for label, pool in (("generic", suites.target_pool()),
                        ("commutative", suites.commutative_pool())):
        sweep = suites.cs_lp_sweep(args.trials, p_values, seed=args.seed, pool=pool)
        for p, stats in sweep["per_p"].items():
            rows.append({"targets": label, "p": p, "trials": stats["trials"],
                         "max_ratio": stats["max_ratio"],
                         "worst_lhs": stats["worst_report"]["lhs"],
                         "worst_rhs": stats["worst_report"]["rhs"]})
        print(f"{label}: " + ", ".join(
            f"p={p} max={stats['max_ratio']:.9f}"
            for p, stats in sweep["per_p"].items()))

    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
