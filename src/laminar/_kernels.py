"""Hot numeric kernels, one vectorized numpy implementation each.

Two inner loops dominate runtime in this package:

  * pairwise laminarity scans over bit-packed set families
    (``find_violation``).  Rows are taken in blocks: rows i0..i1-1
    against every later row, one (B x R) array per word, with B set so
    that B * R * W stays within ``_VIOLATION_BLOCK_CELLS`` = 2^17 row-pair
    words, so no temporary exceeds 1 MB whatever the family size.  Only
    the cells with j > i and a nonempty intersection go on to the
    popcount and the two containment tests, and the first hit in
    row-major order is the first violating pair in row order.  On four
    disjoint copies of the 1625-set tower (6500 sets, 4 words) the scan
    takes about 0.3 s at a 1 MB ``tracemalloc`` peak,
  * covered-t-subset counting when validating designs and packings
    (``cover_counts``, any strength t >= 1).  Blocks are grouped by
    size, each size has one table of t-subset positions, and the colex
    ranks of the t-subsets of a run of blocks, at most ``_COVER_CHUNK``
    = 2^17 at a time, go into one preallocated C(v, t) uint8 count
    array through ``np.add.at``, which counts a rank repeated inside a
    chunk once per repeat.  Ranks are int32 whenever C(v, t) < 2^31.
    The counts are exact iff they sum to the number of ranks added (a
    count of 256 or more wraps and breaks that sum); otherwise they are
    recounted into int32.  On the 2-(2401,49,1) affine plane that is
    2.9M pair ranks in about 20 ms, with 3 MB of temporaries beside the
    2.9 MB count array.

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


# row pairs times words per block in find_violation: a block of B rows
# against the R rows after its first has B * R * W <= this, so each of
# its temporaries holds at most 2^17 words (1 MB)
_VIOLATION_BLOCK_CELLS = 1 << 17


def find_violation(words: np.ndarray, t: int) -> tuple[int, int] | None:
    """First index pair (i < j) violating t-laminarity, or None.

    A pair violates when the sets share >= t points and neither contains
    the other.  The pairs are visited in row order: the smallest i with
    a violation, then the smallest j > i.  Any t >= 1.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    f, w = words.shape
    i0 = 0
    while i0 < f - 1:
        rest = words[i0 + 1 :]
        i1 = min(f - 1, i0 + max(1, _VIOLATION_BLOCK_CELLS // (rest.shape[0] * w)))
        b = i1 - i0
        # cell (k, c) pairs row i = i0 + k with row j = i0 + 1 + c; the
        # candidates have a nonempty intersection (t >= 1 needs one),
        # found one word at a time over the (B x R) block, and j > i
        # (a cell with j <= i pairs a row with itself or mirrors a cell
        # of an earlier row, so dropping those only saves work, up to
        # half of a late block)
        block = words[i0:i1]
        cand = (block[:, 0, None] & rest[:, 0]) != 0
        for q in range(1, w):
            cand |= (block[:, q, None] & rest[:, q]) != 0
        k = np.arange(b)
        cand[:, :b] &= k[None, :] >= k[:, None]
        rows, cols = np.nonzero(cand)  # row-major: ascending (i, j)
        if rows.size:
            wi = block[rows]
            wj = rest[cols]
            common = wi & wj
            hit = popcount_u64(common).sum(axis=1) >= t
            hit &= (common != wi).any(axis=1)
            hit &= (common != wj).any(axis=1)
            first = np.flatnonzero(hit)
            if first.size:
                h = first[0]
                return i0 + int(rows[h]), i0 + 1 + int(cols[h])
        i0 = i1
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
    Counts are exact, uint8 when every count is below 256 and int32
    otherwise.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    total = comb(v, t)
    # every rank, and every binomial a rank sums, is below C(v, t)
    rank_dtype = np.int32 if total < 2**31 else np.int64
    points = np.ascontiguousarray(points, dtype=rank_dtype)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    counts = np.zeros(total, dtype=np.uint8)
    added = _add_cover_ranks(counts, points, offsets, v, t)
    # a count of 256 or more wraps in uint8, and only a wrap makes the
    # stored counts sum to less than the ranks added
    if int(counts.sum(dtype=np.int64)) != added:
        counts = np.zeros(total, dtype=np.int32)
        _add_cover_ranks(counts, points, offsets, v, t)
    return counts


def _add_cover_ranks(
    counts: np.ndarray, points: np.ndarray, offsets: np.ndarray, v: int, t: int
) -> int:
    """Add one to ``counts`` at the colex rank of every t-subset of
    every block; returns the number of ranks added."""
    # np.add.at, unlike ``counts[r] += 1``, counts a rank that repeats
    # inside a chunk once per repeat, so a t-subset that two blocks of
    # one chunk share is never lost.  Its increment has the counts'
    # dtype: with a Python int 1, np.add.at leaves its fast path (0.61 s
    # instead of 38 ms on the 2-(2401,49,1) plane with int32 counts).
    one = counts.dtype.type(1)
    # binom[i, x] = C(x, i + 1); the colex rank of {a_0 < ... < a_{t-1}}
    # is the sum of binom[i, a_i], and binom[0] is the identity.  Since
    # a_i <= v - t + i, no entry used exceeds C(v, t); the entries past
    # v - t + i are never summed, so they stay 0 rather than overflow.
    binom = np.zeros((t, v), dtype=points.dtype)
    for i in range(t):
        used = range(v - t + i + 1)
        binom[i, : len(used)] = [comb(x, i + 1) for x in used]
    added = 0
    sizes = np.diff(offsets)
    for s in sorted(set(sizes[sizes >= t].tolist())):
        starts = offsets[:-1][sizes == s]
        # row i: the position in the block of each t-subset's i-th point
        table = np.array(list(combinations(range(s), t)), dtype=np.intp).T
        per_block = table.shape[1]
        step = max(1, _COVER_CHUNK // per_block)
        for lo in range(0, starts.size, step):
            members = points[starts[lo : lo + step, None] + np.arange(s)]
            # C(member, i + 1) once per member and position i
            terms = [members] + [binom[i, members] for i in range(1, t)]
            for c0 in range(0, per_block, _COVER_CHUNK):
                cols = table[:, c0 : c0 + _COVER_CHUNK]
                rank = terms[0][:, cols[0]]
                for i in range(1, t):
                    rank += terms[i][:, cols[i]]
                np.add.at(counts, rank, one)
                added += rank.size
    return added


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
