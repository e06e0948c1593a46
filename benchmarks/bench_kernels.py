#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks.

Runs each hot kernel on representative workloads through both code
paths in one process (the env flag LAMINAR_NO_NUMBA only changes which
path the library dispatches to; here both are called directly).  When
numba is not importable the ``@njit`` twins are plain Python, so their
column prints ``n/a`` instead of timing them.  The config and chain
checks of ``laminar verify`` have one implementation each; their rows
print ``-`` in the numba column, as do the rows that build, validate
and serialize the two designs of the lower-bound constructions.

Usage: python benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import time

import numpy as np

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


def _row(name, nb_fn, np_fn, repeats):
    np_s = _time(np_fn, repeats)
    if not _kernels._HAS_NUMBA:
        print(f"{name:<44} numba       n/a      numpy {np_s*1e3:9.2f} ms")
        return
    nb_s = _time(nb_fn, repeats)
    ratio = np_s / nb_s if nb_s > 0 else float("inf")
    print(f"{name:<44} numba {nb_s*1e3:9.2f} ms   numpy {np_s*1e3:9.2f} ms   x{ratio:5.1f}")


def _single_row(name, fn, repeats):
    s = _time(fn, repeats)
    print(f"{name:<44} numba         -      numpy {s*1e3:9.2f} ms")


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
        _row(
            f"violation scan: {label}",
            lambda: _kernels._nb_violation(words, 2),
            lambda: _kernels._np_violation(words, 2),
            repeats,
        )


def bench_verify_checks(towers, repeats):
    """The Gram-matrix config check and the incidence-driven chain check."""
    z = forbidden_matrix(2)
    for label, fam in towers:
        m = incidence_matrix(fam)
        _single_row(f"config check: {label}", lambda: contains_config(m, z), repeats)
    for label, fam in towers:
        _single_row(f"chain check: {label}", lambda: unique_chain_check(fam, 2), repeats)


def bench_designs(repeats):
    """Generation, exhaustive validation and text of the two designs."""
    for label, design_name, build in (
        ("affine_plane(49)", "2-(2401,49,1)", lambda: affine_plane(49)),
        ("circle_geometry(9)", "3-(82,10,1)", lambda: circle_geometry(9)),
    ):
        design = build()
        _single_row(label, build, repeats)
        _single_row(f"is_design: {design_name}", lambda: is_design(design), repeats)
        _single_row(f"design_to_text: {design_name}", lambda: design_to_text(design), repeats)


def bench_cover_counts(repeats):
    for label, design in (
        ("pair cover counts: 2-(2401,49,1)", affine_plane(49)),
        ("triple cover counts: 3-(82,10,1)", circle_geometry(9)),
    ):
        pts, offs = csr_points(design.blocks)
        nb = _kernels._nb_pair_counts if design.t == 2 else _kernels._nb_triple_counts
        _row(
            label,
            lambda: nb(pts, offs, design.v),
            lambda: _kernels._np_cover_counts(pts, offs, design.v, design.t),
            repeats,
        )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    print(f"active dispatch backend: {_kernels.backend()}")
    if _kernels._HAS_NUMBA:
        # warm up JIT so compile time stays out of the numbers
        _kernels._nb_violation(np.zeros((2, 1), dtype=np.uint64), 1)
        _kernels._nb_pair_counts(
            np.array([0, 1], dtype=np.int64), np.array([0, 2], dtype=np.int64), 3
        )
        _kernels._nb_triple_counts(
            np.array([0, 1, 2], dtype=np.int64), np.array([0, 3], dtype=np.int64), 4
        )

    towers = _towers()
    bench_violation(towers, args.repeats)
    bench_verify_checks(towers, args.repeats)
    bench_cover_counts(args.repeats)
    bench_designs(args.repeats)


if __name__ == "__main__":
    main()
