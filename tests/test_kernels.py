"""The numpy kernels must agree exactly with plain-Python references."""

import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from laminar import _kernels
from laminar.geometry import Design, is_design, is_packing
from laminar.setfam import Family, csr_points, is_t_laminar


def _random_words(rng, n_sets, n_bits):
    n = rng.randint(1, n_sets)
    masks: set = set()
    while len(masks) < n:
        m = rng.getrandbits(n_bits)
        if m:
            masks.add(m)
    fam = Family.from_masks(n_bits, sorted(masks))
    return fam, fam.to_words()


class TestPopcount:
    def test_matches_bit_count(self):
        rng = random.Random(1)
        vals = [rng.getrandbits(64) for _ in range(500)] + [0, 2**64 - 1]
        arr = np.array(vals, dtype=np.uint64)
        got = _kernels.popcount_u64(arr)
        assert [int(x) for x in got] == [v.bit_count() for v in vals]


class TestViolationKernel:
    @pytest.mark.parametrize("n_bits", [6, 63, 64, 100, 130])
    def test_backends_agree(self, n_bits):
        rng = random.Random(n_bits)
        for _ in range(40):
            fam, words = _random_words(rng, 30, n_bits)
            for t in (1, 2, 3):
                # reference: first violating pair in scan order
                ref = None
                masks = [b.mask for b in fam]
                for i in range(len(masks)):
                    for j in range(i + 1, len(masks)):
                        c = masks[i] & masks[j]
                        if c.bit_count() >= t and c != masks[i] and c != masks[j]:
                            ref = (i, j)
                            break
                    if ref is not None:
                        break
                assert _kernels.find_violation(words, t) == ref

    def test_dispatcher_none_for_laminar(self):
        fam = Family.of(3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]])
        assert _kernels.find_violation(fam.to_words(), 2) is None

    def test_large_family_uses_kernel_path(self):
        # families over the kernel threshold go through bit-matrix code
        masks = list(range(1, 400))
        fam = Family.from_masks(16, masks)
        direct = is_t_laminar(fam, 2)
        ref = True
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                c = masks[i] & masks[j]
                if c.bit_count() >= 2 and c != masks[i] and c != masks[j]:
                    ref = False
                    break
            if not ref:
                break
        assert direct == ref


def _random_csr(rng, t, v_cap=14, blocks_cap=10):
    """Random blocks of mixed sizes >= t as CSR (0-based sorted points)."""
    v = rng.randint(t + 1, v_cap)
    blocks = [
        sorted(rng.sample(range(v), rng.randint(t, v)))
        for _ in range(rng.randint(1, blocks_cap))
    ]
    pts = np.array([p for b in blocks for p in b], dtype=np.int64)
    offs = np.cumsum([0] + [len(b) for b in blocks]).astype(np.int64)
    return pts, offs, v


def _colex_counts(pts, offs, v, t):
    """Reference cover counts: every t-subset of every block, colex-ranked
    as sum of C(a_i, i + 1) over its points a_0 < ... < a_{t-1}."""
    counts = [0] * comb(v, t)
    for lo, hi in zip(offs[:-1], offs[1:]):
        for sub in combinations(pts[lo:hi].tolist(), t):
            counts[sum(comb(x, i + 1) for i, x in enumerate(sub))] += 1
    return counts


class TestCoverCounts:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_backends_agree(self, t):
        rng = random.Random(t)
        for _ in range(30):
            pts, offs, v = _random_csr(rng, t)
            got = _kernels.cover_counts(pts, offs, v, t)
            assert got.tolist() == _colex_counts(pts, offs, v, t)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_small_chunks_agree(self, t, chunk, monkeypatch):
        # chunks smaller than one block's t-subsets split the block's
        # subset table; larger ones hold several blocks
        monkeypatch.setattr(_kernels, "_COVER_CHUNK", chunk)
        rng = random.Random(100 * t + chunk)
        for _ in range(10):
            pts, offs, v = _random_csr(rng, t, v_cap=12, blocks_cap=6)
            got = _kernels.cover_counts(pts, offs, v, t)
            assert got.tolist() == _colex_counts(pts, offs, v, t)

    def test_counts_are_int32(self):
        pts = np.array([0, 1, 2], dtype=np.int64)
        offs = np.array([0, 3], dtype=np.int64)
        assert _kernels.cover_counts(pts, offs, 4, 2).dtype == np.int32

    def test_extreme_strength_tables_fit_int64(self):
        # C(69, 35) overflows int64, but no t-subset of [70] with t = 69
        # reaches that binomial: the block [70] covers each once
        pts = np.arange(70, dtype=np.int64)
        offs = np.array([0, 70], dtype=np.int64)
        assert _kernels.cover_counts(pts, offs, 70, 69).tolist() == [1] * 70

    def test_repeat_inside_one_chunk_counts_twice(self):
        # the same block twice: every t-subset of it is covered twice
        for t in (2, 3):
            pts = np.array([0, 1, 2, 0, 1, 2], dtype=np.int64)
            offs = np.array([0, 3, 6], dtype=np.int64)
            counts = _kernels.cover_counts(pts, offs, 3, t)
            assert counts.tolist() == [2] * (3 if t == 2 else 1)

    @pytest.mark.parametrize(
        "t,v,blocks",
        [
            # {1,2} lies in two blocks; every other pair in exactly one
            (2, 4, [[1, 2, 3], [1, 2, 4], [3, 4]]),
            # {1,2,3} lies in two blocks; every other triple in exactly one
            (3, 5, [[1, 2, 3, 4], [1, 2, 3, 5], [1, 4, 5], [2, 4, 5], [3, 4, 5]]),
        ],
    )
    def test_doubly_covered_subset_fails_design_and_packing(self, t, v, blocks):
        d = Design(t=t, v=v, lam=1, blocks=Family.of(v, blocks), kind="design")
        counts = _kernels.cover_counts(*csr_points(d.blocks), v, t)
        assert sorted(counts.tolist()) == [1] * (len(counts) - 1) + [2]
        assert not is_design(d)
        assert not is_packing(d)

    def test_reference_counting(self):
        # one block [0,1,2] on v=4: pairs (0,1),(0,2),(1,2) covered once
        pts = np.array([0, 1, 2], dtype=np.int64)
        offs = np.array([0, 3], dtype=np.int64)
        counts = _kernels.cover_counts(pts, offs, 4, 2)
        assert counts.tolist() == [1, 1, 1, 0, 0, 0]

    def test_pair_counts_peak_memory(self):
        import tracemalloc

        from laminar.geometry import affine_plane, is_design

        design = affine_plane(49)
        tracemalloc.start()
        try:
            assert is_design(design)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the C(2401, 2) int32 count array alone is 11.5 MB; measured
        # 15.1 MB in all
        assert peak < 16 * 2**20

    def test_circle_geometry_peak_memory(self):
        import tracemalloc

        from laminar.geometry import circle_geometry

        tracemalloc.start()
        try:
            circle_geometry(9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # enumerating PGL(2, 81) map by map peaked at about 75 MB
        assert peak < 8 * 2**20

    def test_rejects_t_below_one(self):
        for t in (0, -1):
            with pytest.raises(ValueError):
                _kernels.cover_counts(
                    np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64), 4, t
                )


class TestKnownDesigns:
    """Strengths outside {2, 3} through is_design and is_packing."""

    def test_all_5_subsets_of_7_are_a_4_design(self):
        # every 4-subset of [7] lies in the 3 five-subsets that add one
        # of the remaining 3 points
        fam = Family.of(7, [list(c) for c in combinations(range(1, 8), 5)])
        assert is_design(Design(t=4, v=7, lam=3, blocks=fam, kind="design"))
        assert not is_design(Design(t=4, v=7, lam=2, blocks=fam, kind="design"))
        assert is_packing(Design(t=4, v=7, lam=3, blocks=fam, kind="packing"))

    @pytest.mark.parametrize("v", [1, 6, 70])
    def test_partition_is_a_1_design(self, v):
        parts = [list(range(lo, min(lo + 4, v + 1))) for lo in range(1, v + 1, 4)]
        assert is_design(Design(t=1, v=v, lam=1, blocks=Family.of(v, parts), kind="design"))

    def test_overlapping_cover_is_not_a_1_design(self):
        fam = Family.of(4, [[1, 2], [2, 3, 4]])
        assert not is_design(Design(t=1, v=4, lam=1, blocks=fam, kind="design"))

    def test_doubly_covered_4_subset_fails(self):
        # {1,2,3,4} lies in both blocks; all other 4-subsets in at most one
        fam = Family.of(6, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]])
        d = Design(t=4, v=6, lam=1, blocks=fam, kind="packing")
        counts = _kernels.cover_counts(*csr_points(fam), 6, 4)
        assert sorted(counts.tolist()) == [0] * 6 + [1] * 8 + [2]
        assert not is_packing(d)
        assert not is_design(d)


class TestScanTopK:
    def test_contains_true_argmax(self):
        from laminar.bounds import obf_table, lp_dual_value

        table = obf_table(200)
        obf_f = np.zeros(320, dtype=np.float64)
        for k in range(2, 201):
            obf_f[k] = float(table.obf(k))
        starts = [s for s, _ in table.frontier_log]
        fronts = [table.frontier_at(s) for s in starts]
        cnts = [len(f.vertices) for f in fronts]
        voff = np.concatenate([[0], np.cumsum(cnts)[:-1]]).astype(np.int64)
        vx = np.array([float(x) for f in fronts for x, _ in f.vertices])
        vy = np.array([float(y) for f in fronts for _, y in f.vertices])
        starts = np.array(starts, dtype=np.int64)
        cnts = np.array(cnts, dtype=np.int64)
        for n in (50, 120, 200):
            exact_vals = {
                m: lp_dual_value(n, m, table.frontier_at(m), table)
                for m in range(2, n)
            }
            best = max(exact_vals.values())
            true_arg = min(m for m, v in exact_vals.items() if v == best)
            got = _kernels.scan_topk(n, obf_f, starts, voff, cnts, vx, vy, 32)
            assert true_arg in {int(m) for m in got if m >= 0}
