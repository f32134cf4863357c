#!/usr/bin/env python3
"""Explore the L^2 radius norm |||F|||_2 across block structures.

For random F in several traced algebras, reports the sandwich
w(F) <= |||F|||_2 <= ||F||_2 and the ratio |||F|||_2 / ||F||_2, giving an
empirical picture of how the norm behaves as the block layout and trace
weights change.
"""

import argparse
import sys

import numpy as np

from nclp.algebra import TracedAlgebra, schatten_norm
from nclp.radius import SearchBudget, numerical_radius, triple_norm
from nclp.sampling import random_element, substreams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--starts", type=int, default=8)
    args = ap.parse_args()

    layouts = [
        ("M2", TracedAlgebra([2])),
        ("M4", TracedAlgebra([4])),
        ("M2+M2", TracedAlgebra([2, 2])),
        ("M2+M2 weighted", TracedAlgebra([2, 2], [1.0, 0.25])),
        ("M3+M1 weighted", TracedAlgebra([3, 1], [0.5, 2.0])),
    ]
    budget = SearchBudget(starts=args.starts, iters=30, seed=args.seed)
    # with every trace weight w_k >= 1, |||F|||_2 = w(F): a unitary Z bounds
    # |tr(Z W_k F_k W_k)| by w(F_k) tr(W_k^2), so ||W F W||_1 <= w(F) ||W||_2^2,
    # and W = w_k^{-1/2} h h* attains w(F_k); with a weight below 1,
    # W_k = t_k^{1/2} h_k h_k* gives L <= |||F|||_2 <= w(F), L the knapsack of
    # the rates w(F_k) with capacities w_k, so that feasible rank-one bound
    # (rank1_bound) is what gets asserted per sample
    print(f"{'layout':>16} {'mean val/||F||_2':>16} {'min':>8} {'max':>8} "
          f"{'mean val/w(F)':>14}")
    for name, alg in layouts:
        ratios, vs_radius = [], []
        weights_at_least_one = all(w >= 1.0 for w in alg.weights)
        for rng in substreams(args.seed, args.samples):
            f = random_element(alg, rng)
            res = triple_norm(f, budget)
            up = schatten_norm(f, 2.0)
            wf = numerical_radius(f, grid=512)
            low = wf if weights_at_least_one else res.rank1_bound
            assert low - 1e-6 <= res.value <= up + 1e-9, (name, res.value, low, up)
            ratios.append(res.value / up)
            vs_radius.append(res.value / wf)
        r = np.asarray(ratios)
        print(f"{name:>16} {r.mean():>16.4f} {r.min():>8.4f} {r.max():>8.4f} "
              f"{np.mean(vs_radius):>14.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
