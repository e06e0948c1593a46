"""Hot numeric kernels with numba-accelerated and pure-numpy implementations.

Two inner loops dominate runtime in this package:

  * pairwise laminarity scans over bit-packed set families,
  * covered-t-subset counting when validating designs and packings
    (``cover_counts``, t = 2 and t = 3).  Its numpy version is one
    kernel for both strengths: blocks are grouped by size, each size
    has one table of t-subset positions, and the colex ranks of the
    t-subsets of a run of blocks, at most ``_COVER_CHUNK`` = 2^17 at a
    time, go into one preallocated C(v, t) count array through
    ``np.add.at``, which counts a rank repeated inside a chunk once per
    repeat.  On the 2-(2401,49,1) affine plane that is 2.9M pair ranks
    in about 50 ms, with 3 MB of temporaries beside the 23 MB count
    array.

A third kernel, ``scan_topk``, is the double-precision top-K scan that
used to shortlist argmax candidates for the bound table.  The bound
engine no longer calls it (its max over m is an exact integer
branch-and-bound); it stays because ``perfbench/tracer.py`` wraps it by
name.

Each kernel exists twice: an ``@njit`` version and a vectorized numpy
version (for cover counts, ``_nb_pair_counts`` and ``_nb_triple_counts``
against ``_np_cover_counts``; run as plain Python, the loops are the
tests' reference).  The numba path is used when numba imports cleanly and the
environment variable ``LAMINAR_NO_NUMBA`` is unset; setting it to ``1``
(or ``true``/``yes``) forces the numpy fallback.  ``benchmarks/bench_kernels.py``
compares the two paths on representative workloads.

Bit packing convention: a set over ground points 1..n occupies
``ceil(n/64)`` little-endian uint64 words; ground point i sets bit
``(i-1) % 64`` of word ``(i-1) // 64``.
"""

from __future__ import annotations

import os
from itertools import combinations
from math import comb

import numpy as np

_ENV_DISABLED = os.environ.get("LAMINAR_NO_NUMBA", "").lower() in {"1", "true", "yes"}

try:
    from numba import njit

    _HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return wrap


USE_NUMBA = _HAS_NUMBA and not _ENV_DISABLED

_M1 = 0x5555555555555555
_M2 = 0x3333333333333333
_M4 = 0x0F0F0F0F0F0F0F0F
_H01 = 0x0101010101010101


def backend() -> str:
    """Name of the active kernel backend ("numba" or "numpy")."""
    return "numba" if USE_NUMBA else "numpy"


def popcount_u64(x: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array (SWAR, wrap-safe)."""
    x = x - ((x >> np.uint64(1)) & np.uint64(_M1))
    x = (x & np.uint64(_M2)) + ((x >> np.uint64(2)) & np.uint64(_M2))
    x = (x + (x >> np.uint64(4))) & np.uint64(_M4)
    return (x * np.uint64(_H01)) >> np.uint64(56)


# ---------------------------------------------------------------------------
# pairwise laminarity violation scan


@njit(cache=True)
def _nb_popcnt(x):
    x = x - ((x >> 1) & _M1)
    x = (x & _M2) + ((x >> 2) & _M2)
    x = (x + (x >> 4)) & _M4
    return (x * _H01) >> 56


@njit(cache=True)
def _nb_violation(words, t):
    n_sets, n_words = words.shape
    for i in range(n_sets):
        for j in range(i + 1, n_sets):
            inter = 0
            sub_i = True
            sub_j = True
            for w in range(n_words):
                a = words[i, w]
                b = words[j, w]
                c = a & b
                inter += _nb_popcnt(c)
                if c != a:
                    sub_i = False
                if c != b:
                    sub_j = False
            if inter >= t and not sub_i and not sub_j:
                return i, j
    return -1, -1


def _np_violation(words: np.ndarray, t: int) -> tuple[int, int]:
    n_sets = words.shape[0]
    for i in range(n_sets - 1):
        rest = words[i + 1 :]
        inter = words[i] & rest
        counts = popcount_u64(inter).sum(axis=1)
        sub_i = (inter == words[i]).all(axis=1)
        sub_j = (inter == rest).all(axis=1)
        viol = (counts >= t) & ~sub_i & ~sub_j
        hits = np.nonzero(viol)[0]
        if hits.size:
            return i, i + 1 + int(hits[0])
    return -1, -1


def find_violation(words: np.ndarray, t: int) -> tuple[int, int] | None:
    """First index pair (i < j) violating t-laminarity, or None.

    A pair violates when the sets share >= t points and neither contains
    the other.  Scan order is row order, so the result is deterministic.
    """
    if words.shape[0] < 2:
        return None
    if USE_NUMBA:
        i, j = _nb_violation(words, t)
    else:
        i, j = _np_violation(words, t)
    if i < 0:
        return None
    return int(i), int(j)


# ---------------------------------------------------------------------------
# covered t-subset counting for design/packing validation (t = 2, 3)


@njit(cache=True)
def _nb_pair_counts(points, offsets, v):
    counts = np.zeros(v * (v - 1) // 2, dtype=np.int64)
    for b in range(offsets.size - 1):
        lo, hi = offsets[b], offsets[b + 1]
        for jj in range(lo + 1, hi):
            pj = points[jj]
            base = pj * (pj - 1) // 2
            for ii in range(lo, jj):
                counts[base + points[ii]] += 1
    return counts


@njit(cache=True)
def _nb_triple_counts(points, offsets, v):
    counts = np.zeros(v * (v - 1) * (v - 2) // 6, dtype=np.int64)
    for b in range(offsets.size - 1):
        lo, hi = offsets[b], offsets[b + 1]
        for kk in range(lo + 2, hi):
            pk = points[kk]
            base_k = pk * (pk - 1) * (pk - 2) // 6
            for jj in range(lo + 1, kk):
                pj = points[jj]
                base = base_k + pj * (pj - 1) // 2
                for ii in range(lo, jj):
                    counts[base + points[ii]] += 1
    return counts


# t-subsets ranked per np.add.at call in _np_cover_counts; bounds its
# temporaries to a few MB next to the C(v, t) count array
_COVER_CHUNK = 1 << 17


def _np_cover_counts(points: np.ndarray, offsets: np.ndarray, v: int, t: int) -> np.ndarray:
    # np.add.at, unlike ``counts[r] += 1``, counts a rank that repeats
    # inside a chunk once per repeat, so a t-subset that two blocks of
    # one chunk share is never lost.
    counts = np.zeros(comb(v, t), dtype=np.int64)
    # binom[i][x] = C(x, i + 1); the colex rank of {a_0 < ... < a_{t-1}}
    # is the sum of binom[i][a_i], and binom[0] is the identity
    binom = [np.array([comb(x, i + 1) for x in range(v)], dtype=np.int64) for i in range(t)]
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
                np.add.at(counts, rank, 1)
    return counts


def cover_counts(points: np.ndarray, offsets: np.ndarray, v: int, t: int) -> np.ndarray:
    """Count how many blocks cover each t-subset of {0..v-1}, colex-ranked.

    ``points`` holds all block members (0-based, sorted within a block)
    concatenated; ``offsets`` delimits blocks CSR-style.  Supports t in
    {2, 3}; callers handle other strengths by direct enumeration.
    """
    points = np.ascontiguousarray(points, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if t not in (2, 3):
        raise ValueError("cover_counts kernels support t in {2, 3}")
    if USE_NUMBA:
        return (_nb_pair_counts if t == 2 else _nb_triple_counts)(points, offsets, v)
    return _np_cover_counts(points, offsets, v, t)


# ---------------------------------------------------------------------------
# double-precision top-K scan over the bound table (no caller in the package)
#
# For fixed n the scan evaluates, for every 2 <= m < n,
#     obj(m) = obf(m) + min over frontier vertices of Theta_m of
#              C(n-m,2)*x + (C(n,2)-C(m,2))*y
# in float64 and reports the K largest candidates.  The frontier is
# piecewise constant in m, encoded as segments with CSR vertex storage.


@njit(cache=True)
def _nb_scan_topk(n, obf_f, seg_starts, seg_voff, seg_vcnt, vx, vy, k_top):
    cn2 = n * (n - 1) / 2.0
    best_val = np.full(k_top, -np.inf)
    best_m = np.full(k_top, -1, dtype=np.int64)
    s = 0
    n_seg = seg_starts.size
    for m in range(2, n):
        while s + 1 < n_seg and seg_starts[s + 1] <= m:
            s += 1
        c1 = (n - m) * (n - m - 1) / 2.0
        c2 = cn2 - m * (m - 1) / 2.0
        lo = np.inf
        off = seg_voff[s]
        for iv in range(seg_vcnt[s]):
            val = c1 * vx[off + iv] + c2 * vy[off + iv]
            if val < lo:
                lo = val
        obj = obf_f[m] + lo
        if obj > best_val[k_top - 1]:
            pos = k_top - 1
            while pos > 0 and best_val[pos - 1] < obj:
                best_val[pos] = best_val[pos - 1]
                best_m[pos] = best_m[pos - 1]
                pos -= 1
            best_val[pos] = obj
            best_m[pos] = m
    return best_m


def _np_scan_topk(n, obf_f, seg_starts, seg_voff, seg_vcnt, vx, vy, k_top):
    ms = np.arange(2, n, dtype=np.float64)
    c1 = (n - ms) * (n - ms - 1) / 2.0
    c2 = n * (n - 1) / 2.0 - ms * (ms - 1) / 2.0
    obj = np.empty(ms.size)
    for s in range(seg_starts.size):
        lo_m = max(int(seg_starts[s]), 2)
        hi_m = int(seg_starts[s + 1]) if s + 1 < seg_starts.size else n
        hi_m = min(hi_m, n)
        if hi_m <= lo_m:
            continue
        sl = slice(lo_m - 2, hi_m - 2)
        xs = vx[seg_voff[s] : seg_voff[s] + seg_vcnt[s]]
        ys = vy[seg_voff[s] : seg_voff[s] + seg_vcnt[s]]
        vals = c1[sl, None] * xs[None, :] + c2[sl, None] * ys[None, :]
        obj[sl] = obf_f[2:n][sl] + vals.min(axis=1)
    k = min(k_top, ms.size)
    top = np.argpartition(-obj, k - 1)[:k]
    best = np.full(k_top, -1, dtype=np.int64)
    order = top[np.argsort(-obj[top])]
    best[: order.size] = order + 2
    return best


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
    """Candidate m values (descending float objective), -1-padded."""
    f = _nb_scan_topk if USE_NUMBA else _np_scan_topk
    return f(
        n,
        obf_f,
        np.ascontiguousarray(seg_starts, dtype=np.int64),
        np.ascontiguousarray(seg_voff, dtype=np.int64),
        np.ascontiguousarray(seg_vcnt, dtype=np.int64),
        np.ascontiguousarray(vx, dtype=np.float64),
        np.ascontiguousarray(vy, dtype=np.float64),
        k_top,
    )
