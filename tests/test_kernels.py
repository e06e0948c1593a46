"""The numba and numpy kernel implementations must agree exactly."""

import random

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
                nb = _kernels._nb_violation(words, t)
                np_ = _kernels._np_violation(words, t)
                # reference: first violating pair in scan order
                ref = (-1, -1)
                masks = [b.mask for b in fam]
                for i in range(len(masks)):
                    for j in range(i + 1, len(masks)):
                        c = masks[i] & masks[j]
                        if c.bit_count() >= t and c != masks[i] and c != masks[j]:
                            ref = (i, j)
                            break
                    if ref != (-1, -1):
                        break
                assert tuple(nb) == np_ == ref

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


class TestCoverCounts:
    @pytest.mark.parametrize("t", [2, 3])
    def test_backends_agree(self, t):
        # the _nb_* loops (plain Python without numba) are the reference
        rng = random.Random(t)
        nb = _kernels._nb_pair_counts if t == 2 else _kernels._nb_triple_counts
        for _ in range(30):
            pts, offs, v = _random_csr(rng, t)
            assert np.array_equal(nb(pts, offs, v), _kernels._np_cover_counts(pts, offs, v, t))

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_small_chunks_agree(self, t, chunk, monkeypatch):
        # chunks smaller than one block's t-subsets split the block's
        # subset table; larger ones hold several blocks
        monkeypatch.setattr(_kernels, "_COVER_CHUNK", chunk)
        rng = random.Random(100 * t + chunk)
        nb = _kernels._nb_pair_counts if t == 2 else _kernels._nb_triple_counts
        for _ in range(10):
            pts, offs, v = _random_csr(rng, t, v_cap=12, blocks_cap=6)
            assert np.array_equal(nb(pts, offs, v), _kernels._np_cover_counts(pts, offs, v, t))

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
        # the C(2401, 2) int64 count array alone is 23 MB
        assert peak < 40 * 2**20

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

    def test_rejects_unsupported_t(self):
        with pytest.raises(ValueError):
            _kernels.cover_counts(
                np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64), 4, 4
            )


class TestScanTopK:
    def test_both_backends_contain_true_argmax(self):
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
            for impl in (_kernels._nb_scan_topk, _kernels._np_scan_topk):
                got = impl(n, obf_f, starts, voff, cnts, vx, vy, 32)
                assert true_arg in {int(m) for m in got if m >= 0}
