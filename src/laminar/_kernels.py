"""Hot numeric kernels with numba-accelerated and pure-numpy implementations.

Two inner loops dominate runtime in this package:

  * pairwise laminarity scans over bit-packed set families,
  * covered-t-subset counting when validating designs and packings.

A third kernel, ``scan_topk``, is the double-precision top-K scan that
used to shortlist argmax candidates for the bound table.  The bound
engine no longer calls it (its max over m is an exact integer
branch-and-bound); it stays because ``perfbench/tracer.py`` wraps it by
name.

Each kernel exists twice: an ``@njit`` version and a vectorized numpy
version.  The numba path is used when numba imports cleanly and the
environment variable ``LAMINAR_NO_NUMBA`` is unset; setting it to ``1``
(or ``true``/``yes``) forces the numpy fallback.  ``benchmarks/bench_kernels.py``
compares the two paths on representative workloads.

Bit packing convention: a set over ground points 1..n occupies
``ceil(n/64)`` little-endian uint64 words; ground point i sets bit
``(i-1) % 64`` of word ``(i-1) // 64``.
"""

from __future__ import annotations

import os

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


def _np_pair_counts(points: np.ndarray, offsets: np.ndarray, v: int) -> np.ndarray:
    # One count array, filled block by block: the ranks within a block
    # are distinct, so the buffered ``counts[r] += 1`` adds exactly 1 to
    # each and no rank list for the whole design is ever held.
    counts = np.zeros(v * (v - 1) // 2, dtype=np.int64)
    for b in range(offsets.size - 1):
        pts = points[offsets[b] : offsets[b + 1]]
        if pts.size < 2:
            continue
        i, j = np.triu_indices(pts.size, 1)
        a, c = pts[i], pts[j]
        counts[c * (c - 1) // 2 + a] += 1
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


def _np_triple_counts(points: np.ndarray, offsets: np.ndarray, v: int) -> np.ndarray:
    total = v * (v - 1) * (v - 2) // 6
    ranks = []
    idx_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for b in range(offsets.size - 1):
        pts = points[offsets[b] : offsets[b + 1]].astype(np.int64)
        s = pts.size
        if s < 3:
            continue
        if s not in idx_cache:
            i, j = np.triu_indices(s, 1)
            # expand (i<j) pairs with every k > j
            ii, jj, kk = [], [], []
            for k in range(2, s):
                mask = j < k
                ii.append(i[mask])
                jj.append(j[mask])
                kk.append(np.full(int(mask.sum()), k, dtype=np.int64))
            idx_cache[s] = (
                np.concatenate(ii),
                np.concatenate(jj),
                np.concatenate(kk),
            )
        i, j, k = idx_cache[s]
        a, bb, c = pts[i], pts[j], pts[k]
        ranks.append(c * (c - 1) * (c - 2) // 6 + bb * (bb - 1) // 2 + a)
    if not ranks:
        return np.zeros(total, dtype=np.int64)
    flat = np.concatenate(ranks)
    return np.bincount(flat, minlength=total).astype(np.int64)


def cover_counts(points: np.ndarray, offsets: np.ndarray, v: int, t: int) -> np.ndarray:
    """Count how many blocks cover each t-subset of {0..v-1}, colex-ranked.

    ``points`` holds all block members (0-based, sorted within a block)
    concatenated; ``offsets`` delimits blocks CSR-style.  Supports t in
    {2, 3}; callers handle other strengths by direct enumeration.
    """
    points = np.ascontiguousarray(points, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if t == 2:
        f = _nb_pair_counts if USE_NUMBA else _np_pair_counts
    elif t == 3:
        f = _nb_triple_counts if USE_NUMBA else _np_triple_counts
    else:
        raise ValueError("cover_counts kernels support t in {2, 3}")
    return f(points, offsets, v)


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
