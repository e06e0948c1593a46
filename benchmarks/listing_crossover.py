#!/usr/bin/env python3
"""Measure where listing the shared pairs beats testing every pair.

``_kernels.shared_pairs`` lists the member pairs that share a t-subset
only when _LISTING_COST + R * _ROW_COST + E * _PAIR_COST stays within
the C(F, 2) pairs (R t-subset rows, E pairs within groups).  This
script times both paths of ``laminar verify``'s first two checks on
random families, the 1625-set tower, four copies of it and the 49-set
family of ``search --n 9``, each check doing its full work: the
pairwise predicate at t = n + 1 and a 2 x n configuration of ones hold
for no pair, so no scan stops early.  It then prints the costs (L, a, b)
of a grid under which the rule's choices lose least time, as the sum
over families of (chosen time / faster time - 1), next to the costs in
use.

Usage: OPENBLAS_NUM_THREADS=1 python benchmarks/listing_crossover.py
           [--families 60] [--seeds 1 2] [--repeats 5]

``--families`` random families are drawn from each seed.
"""

import argparse
import random
import time
from itertools import product

import numpy as np

from laminar import _kernels
from laminar.construct import fano_tower
from laminar.search import max_laminar_exact
from laminar.setfam import Family, contains_config, incidence_matrix


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _random_family(rng):
    t = rng.choice([1, 2, 2, 3])
    n = rng.choice([30, 49, 64, 82, 130, 196, 300])
    f = int(10 ** rng.uniform(1.3, 3.5))
    s = rng.randint(t + 1, min(30, n // 2))
    sets = set()
    while len(sets) < f:
        size = rng.randint(max(1, s // 2), s)
        sets.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return f"random n={n} F={f} |S|<={s} t={t}", Family.of(n, sorted(sets)), t


def _copies(fam, k):
    """k disjoint relabelled copies of fam on k * fam.n points, copy by copy."""
    size = fam.points.size
    points = np.concatenate([fam.points + fam.n * c for c in range(k)])
    offsets = np.concatenate([fam.offsets[:-1] + size * c for c in range(k)] + [[k * size]])
    return Family(k * fam.n, points, offsets)


def _time_paths(fam, t, repeats):
    """(R, E, C(F, 2), listed seconds, blocked seconds) of one family,
    or None when it has more than _ROWS_MAX t-subset rows."""
    words, m = fam.words, incidence_matrix(fam)
    pairs = _kernels.shared_pairs(fam.points, fam.offsets, t)
    if pairs is None:
        return None
    never = np.ones((2, fam.n), dtype=np.uint8)

    def checks(pairs):
        # the listing at t holds every candidate of both never-holding
        # predicates, so they test every listed pair
        _kernels.find_violation(words, fam.n + 1, pairs)
        contains_config(m, never, pairs)

    listed = _best(lambda: checks(_kernels.shared_pairs(fam.points, fam.offsets, t)), repeats)
    blocked = _best(lambda: checks(None), repeats)
    f = len(fam)
    return pairs.rows, pairs.within, f * (f - 1) // 2, listed, blocked


def _regret(rows, costs):
    listing, per_row, per_pair = costs
    total = worst = 0.0
    for _, (r, e, every, listed, blocked) in rows:
        chosen = listed if listing + r * per_row + e * per_pair <= every else blocked
        total += chosen / min(listed, blocked) - 1
        worst = max(worst, chosen / min(listed, blocked))
    return total, worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--families", type=int, default=60)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    in_use = (_kernels._LISTING_COST, _kernels._ROW_COST, _kernels._PAIR_COST)
    # time both paths whatever they cost
    _kernels._LISTING_COST = _kernels._ROW_COST = _kernels._PAIR_COST = 0
    _, tower = fano_tower(1, materialize=True)
    families = [
        ("tower n=49 (1625 sets) t=2", tower, 2),
        ("4x tower n=196 (6500 sets) t=2", _copies(tower, 4), 2),
        ("n=9 search (49 sets) t=2", max_laminar_exact(9, 2).family, 2),
    ]
    for seed in args.seeds:
        rng = random.Random(seed)
        families += [_random_family(rng) for _ in range(args.families)]
    rows = []
    print(f"{'family':<36} {'R':>8} {'E':>9} {'C(F,2)':>9} {'listed ms':>10} {'blocked ms':>10}")
    for label, fam, t in families:
        timed = _time_paths(fam, t, args.repeats)
        if timed is None:
            print(f"{label:<36} more than {_kernels._ROWS_MAX} rows: never listed")
            continue
        rows.append((label, timed))
        r, e, every, listed, blocked = timed
        print(f"{label:<36} {r:>8} {e:>9} {every:>9} {listed*1e3:>10.2f} {blocked*1e3:>10.2f}")
    grid = product([0, 1000, 2000, 3000, 5000, 8000], [0.5, 1, 1.5, 2, 3],
                   [1.5, 2, 2.5, 3, 3.5, 4, 5])
    best = min(grid, key=lambda costs: _regret(rows, costs))
    for name, costs in (("least-regret", best), ("in use", in_use)):
        total, worst = _regret(rows, costs)
        print(f"{name} costs L={costs[0]} a={costs[1]} b={costs[2]}:"
              f" summed excess {total:.3f}, worst {worst:.3f}x the faster path")


if __name__ == "__main__":
    main()
