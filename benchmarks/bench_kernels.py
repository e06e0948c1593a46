#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks.

Runs each hot kernel on representative workloads through both code
paths in one process (the env flag LAMINAR_NO_NUMBA only changes which
path the library dispatches to; here both are called directly).  When
numba is not importable the ``@njit`` twins are plain Python, so their
column prints ``n/a`` instead of timing them.

Usage: python benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import time

import numpy as np

from laminar import _kernels
from laminar.construct import fano_tower
from laminar.geometry import affine_plane, circle_geometry
from laminar.setfam import Family


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


def bench_violation(repeats):
    _, fam49 = fano_tower(1, materialize=True)
    words49 = fam49.to_words()

    # four disjoint relabeled copies: 6500 sets over 196 points, laminar,
    # so the scan visits every pair
    shifted = []
    for copy in range(4):
        for b in fam49:
            shifted.append(b.mask << (49 * copy))
    fam196 = Family.from_masks(196, shifted)
    words196 = fam196.to_words()

    for label, words, t in (
        ("violation scan: tower n=49 (1625 sets)", words49, 2),
        ("violation scan: 4x tower n=196 (6500 sets)", words196, 2),
    ):
        _row(
            label,
            lambda: _kernels._nb_violation(words, t),
            lambda: _kernels._np_violation(words, t),
            repeats,
        )


def _csr(design):
    pts, offs = [], [0]
    for b in design.blocks:
        pts.extend(i - 1 for i in b.members)
        offs.append(len(pts))
    return (
        np.asarray(pts, dtype=np.int64),
        np.asarray(offs, dtype=np.int64),
        design.v,
    )


def bench_cover_counts(repeats):
    pts, offs, v = _csr(affine_plane(49))
    _row(
        "pair cover counts: 2-(2401,49,1)",
        lambda: _kernels._nb_pair_counts(pts, offs, v),
        lambda: _kernels._np_pair_counts(pts, offs, v),
        repeats,
    )

    pts3, offs3, v3 = _csr(circle_geometry(9))
    _row(
        "triple cover counts: 3-(82,10,1)",
        lambda: _kernels._nb_triple_counts(pts3, offs3, v3),
        lambda: _kernels._np_triple_counts(pts3, offs3, v3),
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

    bench_violation(args.repeats)
    bench_cover_counts(args.repeats)


if __name__ == "__main__":
    main()
