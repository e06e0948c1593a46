#!/usr/bin/env python3
"""Time the hot kernels and checks on representative workloads.

Prints the best of ``--repeats`` runs, in ms, for the pairwise
violation check over the member pairs that share a t-subset (on
laminar towers, which it checks to the end, and on the tower with a
crossing set), and over every pair of the 49-set search family, too
small to repay listing its shared pairs; the config and chain checks
of ``laminar verify`` (the chain check also on the circle tower r = 1,
114,842 sets at t = 3), the cover-count kernel, and the build,
validation and text of the two designs of the lower-bound
constructions, and the bound table built at N = 10^4 and 10^5, where
almost every step is a window step.

Usage: python benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import random
import time

import numpy as np

from laminar import _kernels
from laminar.bounds import obf_table
from laminar.construct import circle_tower, fano_tower
from laminar.geometry import affine_plane, circle_geometry, design_to_text, is_design
from laminar.search import max_laminar_exact
from laminar.setfam import (
    Family,
    MemberError,
    contains_config,
    forbidden_matrix,
    incidence_matrix,
    unique_chain_check,
    violating_pair,
)


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _row(name, fn, repeats):
    print(f"{name:<60} {_time(fn, repeats)*1e3:9.2f} ms")


def _towers():
    """The 1625-set tower, and four disjoint relabeled copies of it:
    6500 sets over 196 points, laminar, so every check runs to the end."""
    _, fam49 = fano_tower(1, materialize=True)
    size = fam49.points.size
    points = np.concatenate([fam49.points + 49 * c for c in range(4)])
    offsets = np.concatenate([fam49.offsets[:-1] + size * c for c in range(4)] + [[4 * size]])
    return (
        ("tower n=49 (1625 sets)", fam49),
        ("4x tower n=196 (6500 sets)", Family(196, points, offsets)),
    )


def _shared(fam):
    """The pairs of fam's members that share 2 points, as verify lists them."""
    return _kernels.shared_pairs(fam.points, fam.offsets, 2)


def bench_violation(towers, repeats):
    for label, fam in towers:
        words = fam.words
        _row(
            f"violation check, shared pairs: {label}",
            lambda: _kernels.find_violation(words, 2, _shared(fam)),
            repeats,
        )
    # what the two verify workloads with a crossing or a small family
    # check: the tower with a random crossing set appended, and the
    # family of a search (through violating_pair, so packing the words
    # is included)
    tower = towers[0][1]
    rng = random.Random(0)
    while True:
        extra = sorted(rng.sample(range(tower.n), rng.randint(3, 8)))
        try:
            corrupt = Family(tower.n, np.append(tower.points, extra),
                             np.append(tower.offsets, tower.points.size + len(extra)))
        except MemberError:  # extra repeats a member
            continue
        if violating_pair(corrupt, 2) is not None:
            break
    words = corrupt.words
    _row(
        "violation check, shared pairs: tower + crossing set",
        lambda: _kernels.find_violation(words, 2, _shared(corrupt)),
        repeats,
    )
    found = max_laminar_exact(9, 2).family
    _row(
        f"violation check, blocked rows: n=9 search ({len(found)} sets)",
        lambda: violating_pair(found, 2),
        repeats,
    )


def bench_verify_checks(towers, repeats):
    """The config check over shared pairs and the incidence-driven chain
    check."""
    z = forbidden_matrix(2)
    for label, fam in towers:
        m = incidence_matrix(fam)
        _row(
            f"config check, shared pairs: {label}",
            lambda: contains_config(m, z, _shared(fam)),
            repeats,
        )
    for label, fam in towers:
        _row(f"chain check: {label}", lambda: unique_chain_check(fam, 2), repeats)
    _, circles = circle_tower(1, materialize=True)
    _row(
        f"chain check: circle tower r=1 ({len(circles)} sets, t=3)",
        lambda: unique_chain_check(circles, 3),
        repeats,
    )


def bench_designs(repeats):
    """Generation, exhaustive validation and text of the two designs."""
    for label, design_name, build in (
        ("affine_plane(49)", "2-(2401,49,1)", lambda: affine_plane(49)),
        ("circle_geometry(9)", "3-(82,10,1)", lambda: circle_geometry(9)),
    ):
        design = build()
        _row(label, build, repeats)
        _row(f"is_design: {design_name}", lambda: is_design(design), repeats)
        _row(f"design_to_text: {design_name}", lambda: design_to_text(design), repeats)


def bench_cover_counts(repeats):
    for label, design in (
        ("pair cover counts: 2-(2401,49,1)", affine_plane(49)),
        ("triple cover counts: 3-(82,10,1)", circle_geometry(9)),
    ):
        _row(
            label,
            lambda: _kernels.cover_counts(design.points, design.offsets, design.v, design.t),
            repeats,
        )


def bench_bound_table(repeats):
    _row("obf_table(10000)", lambda: obf_table(10000), repeats)
    _row("obf_table(100000)", lambda: obf_table(100000), repeats)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    towers = _towers()
    bench_violation(towers, args.repeats)
    bench_verify_checks(towers, args.repeats)
    bench_cover_counts(args.repeats)
    bench_designs(args.repeats)
    bench_bound_table(args.repeats)


if __name__ == "__main__":
    main()
