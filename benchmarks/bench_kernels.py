#!/usr/bin/env python3
"""Time the hot kernels and checks on representative workloads.

Prints the best of ``--repeats`` runs, in ms, for the pairwise
violation scan, the config and chain checks of ``laminar verify``, the
cover-count kernel, and the build, validation and text of the two
designs of the lower-bound constructions.

Usage: python benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import time

from laminar import _kernels
from laminar.construct import fano_tower
from laminar.geometry import affine_plane, circle_geometry, design_to_text, is_design
from laminar.setfam import (
    Family,
    contains_config,
    csr_points,
    forbidden_matrix,
    incidence_matrix,
    unique_chain_check,
)


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _row(name, fn, repeats):
    print(f"{name:<44} {_time(fn, repeats)*1e3:9.2f} ms")


def _towers():
    """The 1625-set tower, and four disjoint relabeled copies of it:
    6500 sets over 196 points, laminar, so every scan runs to the end."""
    _, fam49 = fano_tower(1, materialize=True)
    shifted = []
    for copy in range(4):
        for b in fam49:
            shifted.append(b.mask << (49 * copy))
    return (
        ("tower n=49 (1625 sets)", fam49),
        ("4x tower n=196 (6500 sets)", Family.from_masks(196, shifted)),
    )


def bench_violation(towers, repeats):
    for label, fam in towers:
        words = fam.to_words()
        _row(f"violation scan: {label}", lambda: _kernels.find_violation(words, 2), repeats)


def bench_verify_checks(towers, repeats):
    """The Gram-matrix config check and the incidence-driven chain check."""
    z = forbidden_matrix(2)
    for label, fam in towers:
        m = incidence_matrix(fam)
        _row(f"config check: {label}", lambda: contains_config(m, z), repeats)
    for label, fam in towers:
        _row(f"chain check: {label}", lambda: unique_chain_check(fam, 2), repeats)


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
        pts, offs = csr_points(design.blocks)
        _row(label, lambda: _kernels.cover_counts(pts, offs, design.v, design.t), repeats)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    towers = _towers()
    bench_violation(towers, args.repeats)
    bench_verify_checks(towers, args.repeats)
    bench_cover_counts(args.repeats)
    bench_designs(args.repeats)


if __name__ == "__main__":
    main()
