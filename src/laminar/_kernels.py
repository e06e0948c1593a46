"""Hot numeric kernels, one vectorized numpy implementation each.

Two inner loops dominate runtime in this package:

  * pairwise laminarity scans over bit-packed set families
    (``find_violation``),
  * covered-t-subset counting when validating designs and packings
    (``cover_counts``, any strength t >= 1).  Blocks are grouped by
    size, each size has one table of t-subset positions, and the colex
    ranks of the t-subsets of a run of blocks, at most ``_COVER_CHUNK``
    = 2^17 at a time, go into one preallocated C(v, t) int32 count
    array through ``np.add.at``, which counts a rank repeated inside a
    chunk once per repeat.  On the 2-(2401,49,1) affine plane that is
    2.9M pair ranks in about 40 ms, with 3 MB of temporaries beside the
    11.5 MB count array.

A third kernel, ``scan_topk``, is the double-precision top-K scan that
used to shortlist argmax candidates for the bound table.  The bound
engine no longer calls it (its max over m is an exact integer
branch-and-bound).  It stays, with no caller in the package, because
the benchmark harness (``perfbench/tracer.py``) wraps it by name and
fails on a missing name; it goes when the harness drops that span.

Bit packing convention: a set over ground points 1..n occupies
``ceil(n/64)`` little-endian uint64 words; ground point i sets bit
``(i-1) % 64`` of word ``(i-1) // 64``.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_H01 = 0x0101010101010101


def popcount_u64(x: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array (SWAR, wrap-safe)."""
    x = x - ((x >> np.uint64(1)) & np.uint64(_M1))
    x = (x & np.uint64(_M2)) + ((x >> np.uint64(2)) & np.uint64(_M2))
    x = (x + (x >> np.uint64(4))) & np.uint64(_M4)
    return (x * np.uint64(_H01)) >> np.uint64(56)


# ---------------------------------------------------------------------------
# pairwise laminarity violation scan


def find_violation(words: np.ndarray, t: int) -> tuple[int, int] | None:
    """First index pair (i < j) violating t-laminarity, or None.

    A pair violates when the sets share >= t points and neither contains
    the other.  Scan order is row order, so the result is deterministic.
    """
    for i in range(words.shape[0] - 1):
        rest = words[i + 1 :]
        inter = words[i] & rest
        counts = popcount_u64(inter).sum(axis=1)
        sub_i = (inter == words[i]).all(axis=1)
        sub_j = (inter == rest).all(axis=1)
        hits = np.nonzero((counts >= t) & ~sub_i & ~sub_j)[0]
        if hits.size:
            return i, i + 1 + int(hits[0])
    return None


# ---------------------------------------------------------------------------
# covered t-subset counting for design/packing validation

# t-subsets ranked per np.add.at call in cover_counts; bounds its
# temporaries to a few MB next to the C(v, t) count array
_COVER_CHUNK = 1 << 17


def cover_counts(points: np.ndarray, offsets: np.ndarray, v: int, t: int) -> np.ndarray:
    """Count how many blocks cover each t-subset of {0..v-1}, colex-ranked.

    ``points`` holds all block members (0-based, sorted within a block)
    concatenated; ``offsets`` delimits blocks CSR-style.  Any t >= 1.
    Counts are int32: none can exceed the number of blocks.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    points = np.ascontiguousarray(points, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    # np.add.at, unlike ``counts[r] += 1``, counts a rank that repeats
    # inside a chunk once per repeat, so a t-subset that two blocks of
    # one chunk share is never lost.  Its increment is np.int32(1): with
    # a Python int 1, np.add.at on int32 counts leaves its fast path
    # (0.61 s instead of 38 ms on the 2-(2401,49,1) plane).
    counts = np.zeros(comb(v, t), dtype=np.int32)
    # binom[i][x] = C(x, i + 1); the colex rank of {a_0 < ... < a_{t-1}}
    # is the sum of binom[i][a_i], and binom[0] is the identity.  Since
    # a_i <= v - t + i, no entry exceeds C(v, t).
    binom = [
        np.array([comb(x, i + 1) for x in range(v - t + i + 1)], dtype=np.int64)
        for i in range(t)
    ]
    sizes = np.diff(offsets)
    for s in sorted(set(sizes[sizes >= t].tolist())):
        starts = offsets[:-1][sizes == s]
        # row i: the position in the block of each t-subset's i-th point
        table = np.array(list(combinations(range(s), t)), dtype=np.intp).T
        per_block = table.shape[1]
        step = max(1, _COVER_CHUNK // per_block)
        for lo in range(0, starts.size, step):
            members = points[starts[lo : lo + step, None] + np.arange(s)]
            for c0 in range(0, per_block, _COVER_CHUNK):
                cols = table[:, c0 : c0 + _COVER_CHUNK]
                rank = members[:, cols[0]]
                for i in range(1, t):
                    rank += binom[i][members[:, cols[i]]]
                np.add.at(counts, rank, np.int32(1))
    return counts


# ---------------------------------------------------------------------------
# double-precision top-K scan over the bound table (no caller in the package)


def scan_topk(
    n: int,
    obf_f: np.ndarray,
    seg_starts: np.ndarray,
    seg_voff: np.ndarray,
    seg_vcnt: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    k_top: int,
) -> np.ndarray:
    """Candidate m values (descending float objective), -1-padded.

    For fixed n it evaluates, for every 2 <= m < n,
        obj(m) = obf(m) + min over frontier vertices of Theta_m of
                 C(n-m,2)*x + (C(n,2)-C(m,2))*y
    in float64 and reports the k_top largest.  The frontier is piecewise
    constant in m, encoded as segments with CSR vertex storage.
    """
    vx = np.ascontiguousarray(vx, dtype=np.float64)
    vy = np.ascontiguousarray(vy, dtype=np.float64)
    ms = np.arange(2, n, dtype=np.float64)
    c1 = (n - ms) * (n - ms - 1) / 2.0
    c2 = n * (n - 1) / 2.0 - ms * (ms - 1) / 2.0
    obj = np.empty(ms.size)
    for s in range(len(seg_starts)):
        lo_m = max(int(seg_starts[s]), 2)
        hi_m = int(seg_starts[s + 1]) if s + 1 < len(seg_starts) else n
        hi_m = min(hi_m, n)
        if hi_m <= lo_m:
            continue
        sl = slice(lo_m - 2, hi_m - 2)
        vs = slice(int(seg_voff[s]), int(seg_voff[s]) + int(seg_vcnt[s]))
        vals = c1[sl, None] * vx[None, vs] + c2[sl, None] * vy[None, vs]
        obj[sl] = obf_f[2:n][sl] + vals.min(axis=1)
    k = min(k_top, ms.size)
    top = np.argpartition(-obj, k - 1)[:k]
    best = np.full(k_top, -1, dtype=np.int64)
    order = top[np.argsort(-obj[top])]
    best[: order.size] = order + 2
    return best
