"""Hot numeric kernels, one vectorized numpy implementation each.

Two inner loops dominate runtime in this package:

  * pairwise laminarity scans over bit-packed set families
    (``find_violation``).  Only members sharing t points can break
    t-laminarity, so the caller lists those pairs from the members' CSR
    points with ``shared_pairs``: one ``np.argsort`` of the members'
    t-subsets (4,704 rows against 1,319,500 pairs on the 1625-set
    tower), in chunks of at most ``_CHUNK`` = 2^17 pairs.  Where
    listing costs more, by measured costs, or would hold more than
    ``_ROWS_MAX`` = 2^20 rows, shared_pairs returns None and the pairs
    sharing a point are found in blocks of rows (``block_pairs``).  Both
    are tested in pieces of at most _CHUNK row-pair words (1 MB,
    ``pair_pieces``) and stop at the first piece with a hit,
  * covered-t-subset counting when validating designs
    (``cover_counts``, any t >= 1): ``np.add.at`` adds the colex ranks
    of the blocks' t-subsets (``colex_ranks``, which also drives
    `setfam.unique_chain_check`) into one C(v, t) uint8 count array,
    recounted into int32 if a count wraps.  On the 2-(2401,49,1)
    affine plane that is 2.9M pair ranks in about 20 ms.

A third kernel, ``scan_topk``, is the double-precision top-K scan that
used to shortlist argmax candidates for the bound table.  The bound
engine no longer calls it (its max over m is certified by exact integer
horizons).  It stays, with no caller in the package, because
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


# eight-byte elements per temporary of every chunked kernel (1 MB): the
# pairs of a PairChunks chunk, the row-pair words (pairs times words per
# row) of a block_pairs block or a pair_pieces piece, and the t-subset
# ranks of a colex_ranks chunk
_CHUNK = 1 << 17


# ---------------------------------------------------------------------------
# pairwise laminarity violation scan


def find_violation(words: np.ndarray, t: int, pairs=None) -> tuple[int, int] | None:
    """First index pair (i < j) violating t-laminarity, or None.

    A pair violates when the sets share >= t points and neither contains
    the other.  The pairs are visited in row order: the smallest i with
    a violation, then the smallest j > i.  Any t >= 1.

    Only a pair that shares a t-subset can violate, so a caller holding
    the rows' points passes ``pairs`` = ``shared_pairs`` of them at t,
    tested piece by piece in row order (``pair_pieces``), stopping at
    the first piece with a hit.  With None, the default and
    shared_pairs' refusal, the pairs that share a point are found in
    blocks of rows (``block_pairs``).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    words = np.ascontiguousarray(words)
    for i, j in pair_pieces(words, pairs):
        first = np.flatnonzero(_violates(words[i], words[j], t))
        if first.size:
            h = first[0]
            return int(i[h]), int(j[h])
    return None


def _violates(wi: np.ndarray, wj: np.ndarray, t: int) -> np.ndarray:
    """Which word rows wi[k], wj[k] share >= t points, neither holding
    the other."""
    common = wi & wj
    hit = popcount_u64(common).sum(axis=1) >= t
    hit &= (common != wi).any(axis=1)
    hit &= (common != wj).any(axis=1)
    return hit


def block_pairs(words: np.ndarray, cells: int, meeting: bool = True):
    """Every pair (i < j) of bit-packed rows, or with ``meeting`` only
    those sharing a point (found one word at a time), in ascending (i, j)
    order: int arrays i, j per block of rows i0..i1-1 against the R rows
    after i0, with B x R x W <= cells."""
    f, w = words.shape
    i0 = 0
    while i0 < f - 1:
        rest = words[i0 + 1 :]
        i1 = min(f - 1, i0 + max(1, cells // (rest.shape[0] * w)))
        cand = np.full((i1 - i0, rest.shape[0]), not meeting)
        for q in range(w if meeting else 0):
            cand |= (words[i0:i1, q, None] & rest[:, q]) != 0
        cand[:, : i1 - i0] &= ~np.tri(i1 - i0, k=-1, dtype=bool)  # j > i
        rows, cols = np.nonzero(cand)  # row-major: ascending (i, j)
        yield rows + i0, cols + i0 + 1
        i0 = i1


def pair_pieces(words: np.ndarray, pairs=None, meeting: bool = True):
    """The pairs of bit-packed rows to test, in their order, as int
    arrays i, j of at most _CHUNK row-pair words each: every chunk of
    ``pairs`` cut into pieces, or with None the blocks of
    ``block_pairs(words, _CHUNK, meeting)``."""
    if pairs is None:
        pairs = block_pairs(words, _CHUNK, meeting)
    step = max(1, _CHUNK // words.shape[1])
    for i_all, j_all in pairs:
        for lo in range(0, i_all.size, step):
            yield i_all[lo : lo + step], j_all[lo : lo + step]


# ---------------------------------------------------------------------------
# member pairs that share a t-subset

# shared_pairs lists the pairs only when that costs less than testing
# all C(F, 2) pairs in blocks.  In units of one blocked pair test (of
# find_violation and contains_config together), listing and testing
# the pairs costs _LISTING_COST once, _ROW_COST per t-subset row and
# _PAIR_COST per pair within a group; benchmarks/listing_crossover.py
# measured these (see shared_pairs)
_LISTING_COST = 2000
_ROW_COST = 0.5
_PAIR_COST = 1.5

# t-subset rows shared_pairs builds at most: they peak at about 67
# bytes each while they are built and sorted, so 2^20 rows bound them
# to about 70 MB; the circle tower r = 1 has 354,240 (a 23 MB peak)
_ROWS_MAX = 1 << 20


def row_count(sizes: np.ndarray, t: int) -> int:
    """R, the sum of C(s, t) over ``sizes``: the number of t-subset rows
    of members with these sizes."""
    held = np.bincount(sizes)
    present = np.flatnonzero(held[t:]) + t
    return sum(int(held[s]) * comb(s, t) for s in present.tolist())


class PairChunks:
    """Every member pair (i < j) sharing at least t points, in ascending
    (i, j) order, as chunks: each iteration yields int64 arrays i and
    j, all the pairs of a run of consecutive i, at most _CHUNK of
    them unless one member alone has more.  It can be iterated again;
    each pass lists the pairs anew from the sorted rows.  ``rows`` is
    the number R of t-subset rows, and ``within`` the number E of
    pairs within groups, a pair counted once per t-subset it shares."""

    def __init__(self, f: int, ids: np.ndarray, later: np.ndarray, pos: np.ndarray,
                 row_offsets: np.ndarray):
        # ids and later are per sorted row: its member, and the rows
        # after it in its group, all of later members; pos[r] is the
        # sorted position of row r in member order, in which member i
        # has rows row_offsets[i]..row_offsets[i+1]-1
        self._f, self._ids, self._later, self._pos = f, ids, later, pos
        self._rows = row_offsets
        # pairs listed for the members before member i, duplicates counted
        before = np.zeros(later.size + 1, dtype=np.int64)
        np.cumsum(later[pos], out=before[1:])
        self._before = before[row_offsets]
        self.rows, self.within = later.size, int(before[-1])

    def __iter__(self):
        f, ids, later, before = self._f, self._ids, self._later, self._before
        i0 = 0
        while before[i0] < before[f]:
            i1 = max(i0 + 1, int(np.searchsorted(before, before[i0] + _CHUNK, "right")) - 1)
            # the rows of members i0..i1-1 with a later row in their
            # group; output position p of row a's run, which starts at
            # run[a], pairs a with b = a + 1 + (p - run[a])
            a = self._pos[self._rows[i0] : self._rows[i1]]
            a = a[later[a] > 0]
            count = later[a]
            run = np.cumsum(count) - count
            b = np.arange(int(before[i1] - before[i0])) - np.repeat(run - a - 1, count)
            keys = np.repeat(ids[a] * f, count) + ids[b]
            keys.sort()
            keep = np.empty(keys.size, dtype=bool)
            keep[:1] = True
            keep[1:] = keys[1:] != keys[:-1]
            keys = keys[keep]
            yield keys // f, keys % f
            i0 = i1


def shared_pairs(points: np.ndarray, offsets: np.ndarray, t: int) -> PairChunks | None:
    """The member pairs (i < j) sharing at least t points, or None.

    ``points`` holds all members' points (0-based, strictly increasing
    within a member) concatenated; ``offsets`` delimits the F members
    CSR-style.  Builds one row per t-subset of a member, R = sum of
    C(|S|, t) rows, each one int64 key: the t-subset's points in base
    v = 1 + the largest point, then the member.  One ``np.argsort``
    orders the keys, so equal t-subsets form groups with their members
    ascending, and a group lists the pairs of its members.  Any t >= 1.

    Returns None, having built nothing, unless there are at most
    _ROWS_MAX rows and _LISTING_COST + R * _ROW_COST is at most the
    C(F, 2) pairs.  With no rows (R = 0, as for any t past the largest
    member) the listing is empty.  Returns None also when v^t * F, which
    bounds the keys, exceeds int64, and when the E = sum of C(g, 2)
    pairs within the groups add E * _PAIR_COST to that cost and take it
    above C(F, 2).  A caller then tests the pairs that `block_pairs`
    finds.

    The three costs are where this choice loses least time, summed
    over (chosen time / faster time - 1), when ``laminar verify``'s
    first two checks run at full work on 119 random families (F =
    20..3137 members of up to 30 points, n = 30..300, t = 1..3), the
    tower, four copies of it and the 49-set search family
    (``benchmarks/listing_crossover.py``, one thread of a 2-core VM):
    the summed excess was 1.21, and one family took 1.82 times the
    faster path's time, the rest at most 1.17 times.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    offsets = np.asarray(offsets, dtype=np.int64)
    f = offsets.size - 1
    sizes = np.diff(offsets)
    r = row_count(sizes, t)
    if r > _ROWS_MAX or _LISTING_COST + r * _ROW_COST > f * (f - 1) // 2:
        return None
    if not r:
        none = np.zeros(0, dtype=np.int64)
        return PairChunks(f, none, none, none, np.zeros(f + 1, dtype=np.int64))
    points = np.asarray(points, dtype=np.int64)
    v = int(points.max()) + 1 if points.size else 1
    if v**t * f >= 2**63:
        return None
    held = np.bincount(sizes)
    present = (np.flatnonzero(held[t:]) + t).tolist()
    # one row per t-subset of a member, members in order: member i has
    # rows for the first C(|S_i|, t) t-subsets of positions in colex
    # order, which are those of range(|S_i|); every count is at most R
    per_size = np.zeros(held.size, dtype=np.int64)
    per_size[present] = [comb(s, t) for s in present]
    count = per_size[sizes]
    row_offsets = np.zeros(f + 1, dtype=np.int64)
    np.cumsum(count, out=row_offsets[1:])
    first = np.repeat(offsets[:-1], count)
    k = np.arange(r) - np.repeat(row_offsets[:-1], count)
    colex = np.array(list(combinations(range(present[-1] - 1, -1, -1), t)),
                     dtype=np.int64)[::-1, ::-1]
    key = points[first + colex[k, 0]]
    for q in range(1, t):
        key *= v
        key += points[first + colex[k, q]]
    del first, k
    key *= f
    key += np.repeat(np.arange(f), count)
    # keys are distinct, so the order is that of (t-subset, member)
    order = np.argsort(key)
    key = key[order]
    ids = key % f
    key //= f
    cut = np.empty(r + 1, dtype=bool)
    cut[0] = cut[r] = True
    np.not_equal(key[1:], key[:-1], out=cut[1:r])
    del key
    bounds = np.flatnonzero(cut)
    g = bounds[1:] - bounds[:-1]
    cost = _LISTING_COST + r * _ROW_COST + int((g * (g - 1)).sum()) // 2 * _PAIR_COST
    if cost > f * (f - 1) // 2:
        return None
    later = np.repeat(bounds[1:], g) - np.arange(r) - 1
    pos = np.empty(r, dtype=np.int64)
    pos[order] = np.arange(r)
    return PairChunks(f, ids, later, pos, row_offsets)


def row_order(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of a 2-d array's rows (one ``np.lexsort``
    of its columns) and, per sorted position, whether that row repeats the last."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(rows.shape[0])
    ranked = rows[order]
    same = np.zeros(order.size, dtype=bool)
    same[1:] = (ranked[1:] == ranked[:-1]).all(axis=1)
    return order, same


def repeated_rows(points: np.ndarray, offsets: np.ndarray, below: int | None = None):
    """Which CSR rows equal an earlier row, as a bool array: the rows of
    each size s (s < ``below`` only, when given) gathered into an
    s-column array and sorted by row_order, so no row is hashed."""
    sizes = np.diff(offsets)
    out = np.zeros(sizes.size, dtype=bool)
    for s in np.flatnonzero(np.bincount(sizes)[:below]).tolist():
        rows = np.flatnonzero(sizes == s)
        order, same = row_order(points[offsets[rows, None] + np.arange(s)])
        out[rows[order[same]]] = True
    return out


# ---------------------------------------------------------------------------
# covered t-subset counting for design validation


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
    added = 0
    # every rank, and every binomial a rank sums, is below C(v, t)
    dtype = np.int32 if counts.size < 2**31 else np.int64
    for _, rank in colex_ranks(points, offsets, v, t, dtype):
        np.add.at(counts, rank, one)
        added += rank.size
        # else three chunks are alive while colex_ranks sums the next one
        # (a 4.4 instead of 3.9 MB peak for the 2-(2401,49,1) plane)
        del rank
    return added


def _colex_table(s: int, t: int) -> np.ndarray:
    """The t-subsets of range(s) in colex order, as a (t, C(s, t)) int64
    array whose row i holds each subset's i-th smallest element; the
    first C(r, t) columns are the t-subsets of range(r).  Built in lex
    order of the complements s - 1 - x, each prefix extended by every
    element allowed after its last in one broadcast: element i is at
    most s - t + i, so no step holds more than C(s, t) prefixes."""
    rows = [np.arange(s - t + 1)]
    for i in range(1, t):
        last = rows[-1]
        count = s - t + i - last
        start = count.cumsum() - count - last - 1
        rows = [r.repeat(count) for r in rows]
        rows.append(np.arange(len(rows[0])) - start.repeat(count))
    return (s - 1 - np.array(rows))[::-1, ::-1]


def colex_ranks(points: np.ndarray, offsets: np.ndarray, v: int, t: int, dtype=np.int64):
    """The t-subsets of every block, as colex ranks, chunk by chunk.

    ``points`` and ``offsets`` are as for cover_counts.  Yields
    (blocks, rank): the indices of a run of blocks of one size s, runs
    by ascending s and blocks ascending within a size, and rank[k, c],
    the colex rank in [0, C(v, t)) of t-subset c of block blocks[k], at
    most _CHUNK ranks a chunk (a block with more t-subsets comes
    in several).  Ranks have ``dtype``: an integer type that holds
    C(v, t) - 1, or object, whose Python ints hold any rank.
    """
    points = np.asarray(points, dtype=np.intp)
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = offsets[1:] - offsets[:-1]
    present = sorted(set(sizes[sizes >= t].tolist()))
    if not present:  # nothing to rank, and t may exceed v: build no t x v table
        return
    # binom[i, x] = C(x, i + 1); the colex rank of {a_0 < ... < a_{t-1}}
    # is the sum of binom[i, a_i].  Since a_i <= v - t + i, no entry used
    # exceeds the rank of the last t-subset; the entries past v - t + i
    # are never summed, so they stay 0 rather than overflow.
    binom = np.zeros((t, v), dtype=dtype)
    for i in range(t):
        used = range(v - t + i + 1)
        binom[i, : len(used)] = [comb(x, i + 1) for x in used]
    # row i: the position in the block of each t-subset's i-th point
    table = _colex_table(present[-1], t)
    for s in present:
        blocks = np.flatnonzero(sizes == s)
        per_block = comb(s, t)
        step = max(1, _CHUNK // per_block)
        for lo in range(0, blocks.size, step):
            run = blocks[lo : lo + step]
            members = points[offsets[run, None] + np.arange(s)]
            # C(member, i + 1) once per member and position i
            terms = [binom[i, members] for i in range(t)]
            for c0 in range(0, per_block, _CHUNK):
                cols = table[:, c0 : min(c0 + _CHUNK, per_block)]
                rank = terms[0][:, cols[0]]
                for i in range(1, t):
                    rank += terms[i][:, cols[i]]
                yield run, rank


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
