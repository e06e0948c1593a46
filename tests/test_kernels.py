"""The numpy kernels must agree exactly with plain-Python references."""

import random
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest

from conftest import int_masks, lp_dual_value, of_masks, sparse_family
from laminar import _kernels
from laminar.construct import fano_tower
from laminar.geometry import Design, is_design
from laminar.setfam import Family, is_t_laminar, violating_pair


def _random_words(rng, n_sets, n_bits):
    n = rng.randint(1, n_sets)
    masks: set = set()
    while len(masks) < n:
        m = rng.getrandbits(n_bits)
        if m:
            masks.add(m)
    fam = of_masks(n_bits, sorted(masks))
    return fam, fam.words


class TestPopcount:
    def test_matches_bit_count(self):
        rng = random.Random(1)
        vals = [rng.getrandbits(64) for _ in range(500)] + [0, 2**64 - 1]
        arr = np.array(vals, dtype=np.uint64)
        got = _kernels.popcount_u64(arr)
        assert [int(x) for x in got] == [v.bit_count() for v in vals]


def _first_violation(masks, t):
    """Reference: the first violating pair in row order, by plain Python."""
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            c = masks[i] & masks[j]
            if c.bit_count() >= t and c != masks[i] and c != masks[j]:
                return i, j
    return None


class TestViolationKernel:
    @pytest.mark.parametrize("n_bits", [6, 63, 64, 100, 130])
    def test_backends_agree(self, n_bits):
        rng = random.Random(n_bits)
        for _ in range(40):
            fam, words = _random_words(rng, 30, n_bits)
            masks = list(int_masks(fam))
            for t in (1, 2, 3):
                assert _kernels.find_violation(words, t) == _first_violation(masks, t)

    @pytest.mark.parametrize("cells", [1, 3, 64])
    @pytest.mark.parametrize("n_bits", [6, 64, 130, 200])
    def test_block_edges_agree(self, cells, n_bits, monkeypatch):
        # a budget below one row pair gives one-row blocks; 3 and 64
        # cells give blocks of a few rows, so violations fall on the
        # first and last rows of blocks and blocks hold several words
        monkeypatch.setattr(_kernels, "_CHUNK", cells)
        rng = random.Random(1000 * cells + n_bits)
        families = [of_masks(n_bits, [])]
        for _ in range(3):
            families.append(of_masks(n_bits, [rng.getrandbits(n_bits) | 1]))
            # two members: nested either way, then overlapping in the
            # first word, then sharing only the two highest points
            low = rng.getrandbits(n_bits - 1) | 1
            families.append(of_masks(n_bits, [low, low | 1 << (n_bits - 1)]))
            families.append(of_masks(n_bits, [low | 1 << (n_bits - 1), low]))
            families.append(of_masks(n_bits, [low, 1 << (n_bits - 1) | 3]))
            top = 3 << (n_bits - 2)
            families.append(of_masks(n_bits, [top | 1, top | 1 << (n_bits - 3)]))
        families += [_random_words(rng, 30, n_bits)[0] for _ in range(15)]
        for fam in families:
            masks = list(int_masks(fam))
            words = fam.words
            for t in (1, 2, 3, n_bits + 1):
                assert _kernels.find_violation(words, t) == _first_violation(masks, t)

    def test_rejects_t_below_one(self):
        words = Family.of(3, [[1, 2], [2, 3]]).words
        for t in (0, -1):
            with pytest.raises(ValueError):
                _kernels.find_violation(words, t)

    def test_dispatcher_none_for_laminar(self):
        fam = Family.of(3, [[1, 2], [1, 3], [2, 3], [1, 2, 3]])
        assert _kernels.find_violation(fam.words, 2) is None

    def test_large_family_uses_kernel_path(self):
        # every family goes through the bit-matrix kernel
        masks = list(range(1, 400))
        fam = of_masks(16, masks)
        assert is_t_laminar(fam, 2) == (_first_violation(masks, 2) is None)


@pytest.fixture(scope="module")
def tower4():
    """Four disjoint relabeled copies of the 1625-set tower: 6500 laminar
    sets over 196 points, four words per row."""
    _, fam49 = fano_tower(1, materialize=True)
    return [m << (49 * copy) for copy in range(4) for m in int_masks(fam49)]


class TestViolationOnTower:
    # the last two points of the last copy and the first point of the
    # first: it crosses last-copy members through both of those points,
    # and only in the fourth of the four words
    CROSSING = 1 << 0 | 1 << 194 | 1 << 195

    def test_laminar_tower_has_no_violation(self, tower4):
        assert violating_pair(of_masks(196, tower4), 2) is None

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_inserted_crossing_set(self, tower4, where):
        pos = {"first": 0, "middle": len(tower4) // 2, "last": len(tower4)}[where]
        masks = tower4[:pos] + [self.CROSSING] + tower4[pos:]
        # O(F) reference: the tower is laminar, so every violating pair
        # holds the inserted set; the row scan meets the smallest other
        # index that crosses it first
        x = self.CROSSING
        crossing = [
            i
            for i, m in enumerate(masks)
            if i != pos and (m & x).bit_count() >= 2 and m & x not in (m, x)
        ]
        assert crossing
        want = tuple(sorted((crossing[0], pos)))
        got = violating_pair(of_masks(196, masks), 2)
        assert got == want

    def test_peak_memory(self, tower4, monkeypatch):
        import tracemalloc

        fam = of_masks(196, tower4)
        fam.words  # packed before the trace starts
        for path in ("grouped", "blocked"):
            if path == "blocked":
                monkeypatch.setattr(_kernels, "shared_pairs", lambda points, offsets, t: None)
            tracemalloc.start()
            try:
                assert violating_pair(fam, 2) is None
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # each block's temporaries hold at most _CHUNK
            # words (1 MB); measured about 1 MB in all, and 4.7 MB on
            # the grouped path (t-subset rows and a chunk)
            assert peak < 16 * 2**20, (path, peak)


def _csr(sets):
    """0-based sorted point lists as CSR points and int64 offsets."""
    pts = np.array([p for s in sets for p in s], dtype=np.int64)
    offs = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], out=offs[1:])
    return pts, offs


def _listed(chunks):
    """All pairs of a PairChunks listing, chunk by chunk, as (i, j) tuples."""
    out = []
    for i, j in chunks:
        assert i.dtype == j.dtype == np.int64
        out += zip(i.tolist(), j.tolist())
    return out


class TestSharedPairs:
    @pytest.mark.parametrize("costs, chunk", [
        ((0, 0, 0), 3), ((0, 0, 0), _kernels._CHUNK), ((0, 1, 1), 3), ((10, 1, 3), 3),
    ])
    @pytest.mark.parametrize("n", [63, 64, 65, 128])
    def test_matches_brute_force(self, n, costs, chunk, monkeypatch):
        # members of 0..5 points from a small pool: some smaller than t,
        # some repeated, families of 0 and 1 members among them; a chunk
        # of 3 pairs splits the listing between and inside members' runs
        listing, per_row, per_pair = costs
        monkeypatch.setattr(_kernels, "_LISTING_COST", listing)
        monkeypatch.setattr(_kernels, "_ROW_COST", per_row)
        monkeypatch.setattr(_kernels, "_PAIR_COST", per_pair)
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        rng = random.Random(n)
        outcomes = Counter()
        for _ in range(150):
            pool = rng.sample(range(n), rng.randint(3, 12))
            sets = [
                sorted(rng.sample(pool, rng.randint(0, min(5, len(pool)))))
                for _ in range(rng.randint(0, 25))
            ]
            pts, offs = _csr(sets)
            every = comb(len(sets), 2)
            for t in (1, 2, 3):
                got = _kernels.shared_pairs(pts, offs, t)
                rows = sum(comb(len(s), t) for s in sets)
                groups = Counter(sub for s in sets for sub in combinations(s, t))
                within = sum(comb(g, 2) for g in groups.values())
                if listing + rows * per_row > every:
                    assert got is None, (sets, t)
                    outcomes["rows"] += 1
                elif listing + rows * per_row + within * per_pair > every:
                    assert got is None, (sets, t)
                    outcomes["pairs"] += 1
                else:
                    want = [
                        (i, j)
                        for i, j in combinations(range(len(sets)), 2)
                        if len(set(sets[i]) & set(sets[j])) >= t
                    ]
                    assert _listed(got) == want, (sets, t)
                    # a second pass lists the same pairs again
                    assert _listed(got) == want, (sets, t)
                    outcomes["listed"] += 1
        if costs == (0, 0, 0):
            assert outcomes.keys() == {"listed"}
        else:
            assert min(outcomes[k] for k in ("rows", "pairs", "listed")) >= 10, outcomes

    def test_fewer_than_two_members(self, monkeypatch):
        # listing has a fixed cost, which no pair of so few members repays
        assert _kernels.shared_pairs(*_csr([]), 1) is None
        assert _kernels.shared_pairs(*_csr([[0, 1, 2]]), 2) is None
        monkeypatch.setattr(_kernels, "_LISTING_COST", 0)
        assert _listed(_kernels.shared_pairs(*_csr([]), 1)) == []
        # one member: no pair, but its C(3, t) rows already exceed the 0 pairs
        assert _kernels.shared_pairs(*_csr([[0, 1, 2]]), 2) is None
        assert _listed(_kernels.shared_pairs(*_csr([[0, 1, 2]]), 4)) == []

    def test_rows_max(self, monkeypatch):
        # 30,000 members of 16 points: R = 3.6M rows, below the 4.5e8
        # pairs, but above _ROWS_MAX, so nothing is built; the points
        # are never read
        offs = np.arange(0, 16 * 30_001, 16, dtype=np.int64)
        assert 30_000 * comb(16, 2) > _kernels._ROWS_MAX
        assert _kernels.shared_pairs(np.zeros(0, dtype=np.int64), offs, 2) is None
        monkeypatch.setattr(_kernels, "_LISTING_COST", 0)
        sets = [[0, 1, 2], [1, 2, 3], [2, 3, 4]] + [[5 + k] for k in range(6)]
        assert _listed(_kernels.shared_pairs(*_csr(sets), 2)) == [(0, 1), (1, 2)]
        monkeypatch.setattr(_kernels, "_ROWS_MAX", 8)
        assert _kernels.shared_pairs(*_csr(sets), 2) is None

    def test_key_range(self, monkeypatch):
        # keys run up to v^t * F: 65^10 * 2 fits int64, 65^11 * 2 does not
        monkeypatch.setattr(_kernels, "_LISTING_COST", 0)
        monkeypatch.setattr(_kernels, "_ROW_COST", 0)
        monkeypatch.setattr(_kernels, "_PAIR_COST", 0)
        sets = [list(range(64 - 11, 65)), list(range(64 - 12, 64)) + [64]]
        assert _listed(_kernels.shared_pairs(*_csr(sets), 10)) == [(0, 1)]
        assert _kernels.shared_pairs(*_csr(sets), 11) is None

    def test_dense_family_memory(self):
        import tracemalloc

        # 2000 random 12-point members of [196] at t = 2: 132,000 rows
        # and 456,386 pairs within groups, listed since that costs less
        # than the 2M pairs; the pairs come in chunks of 2^17, so they
        # are never all held at once (17 MB in five int64 arrays).
        # Measured: 6.5 MB for the rows, 9.4 MB with the chunks
        rng = random.Random(5)
        sets = [sorted(rng.sample(range(196), 12)) for _ in range(2000)]
        pts, offs = _csr(sets)
        tracemalloc.start()
        try:
            chunks = _kernels.shared_pairs(pts, offs, 2)
            assert chunks is not None
            listed = sum(i.size for i, j in chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = np.zeros((len(sets), 196))
        m[np.repeat(np.arange(len(sets)), 12), pts] = 1
        assert listed == int(np.triu(m @ m.T >= 2, 1).sum())  # exact: entries <= 12
        assert peak < 12 * 2**20, peak

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            _kernels.shared_pairs(*_csr([[0, 1], [1, 2]]), 0)

    def test_t_past_every_member_builds_nothing(self):
        # no member has t points: the listing is empty, with no v^t key
        # bound, and no colex rank needs the t x v binomial table
        _, tower = fano_tower(1, materialize=True)
        listing = _kernels.shared_pairs(tower.points, tower.offsets, 10**8)
        assert (listing.rows, listing.within, _listed(listing)) == (0, 0, [])
        assert list(_kernels.colex_ranks(tower.points, tower.offsets, 49, 10**12)) == []


class TestViolationPaths:
    """find_violation's grouped and blocked paths against the references."""

    @pytest.mark.parametrize("cells", [3, _kernels._CHUNK])
    @pytest.mark.parametrize("n_bits", [6, 63, 64, 65, 130])
    def test_sparse_families(self, n_bits, cells, pair_path, monkeypatch):
        # 3 cells give chunks of a pair or a few pairs on the grouped path
        monkeypatch.setattr(_kernels, "_CHUNK", cells)
        name, listed = pair_path
        rng = random.Random(7 * n_bits + cells)
        seen = set()
        for _ in range(40):
            fam = sparse_family(rng, n_bits)
            for t in (1, 2, 3):
                got = violating_pair(fam, t)
                assert got == _first_violation(list(int_masks(fam)), t), (fam, t)
                # pairs=None scans every pair whatever the path
                assert _kernels.find_violation(fam.words, t, None) == got
                seen.add(got is None)
        assert seen == {True, False}
        assert any(listed) == (name == "grouped")

    def test_many_rows_take_the_blocked_scan(self):
        import tracemalloc

        # 30,000 random 16-point members of [196] at t = 2 have 3.6M
        # t-subset rows, too many to list (the pairs within groups
        # would be about 3.4e8); the blocked scan stops at its first
        # block with a violation
        rng = random.Random(11)
        masks = sorted({sum(1 << p for p in rng.sample(range(196), 16)) for _ in range(30_000)})
        fam = of_masks(196, masks)
        fam.words  # packed before the trace starts
        tracemalloc.start()
        try:
            got = violating_pair(fam, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == _first_violation(masks, 2)
        assert peak < 8 * 2**20, peak

    def test_crossed_4x_tower(self, tower4, pair_path):
        name, listed = pair_path
        crossing = TestViolationOnTower.CROSSING
        pos = len(tower4) // 2
        masks = tower4[:pos] + [crossing] + tower4[pos:]
        # the tower is laminar, so the first violating pair is the
        # inserted set's first crossing partner, paired in row order
        partner = next(
            i for i, m in enumerate(masks)
            if i != pos and (m & crossing).bit_count() >= 2 and m & crossing not in (m, crossing)
        )
        got = violating_pair(of_masks(196, masks), 2)
        assert got == tuple(sorted((partner, pos)))
        assert violating_pair(of_masks(196, tower4), 2) is None
        assert listed == [name == "grouped"] * 2


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
        monkeypatch.setattr(_kernels, "_CHUNK", chunk)
        rng = random.Random(100 * t + chunk)
        for _ in range(10):
            pts, offs, v = _random_csr(rng, t, v_cap=12, blocks_cap=6)
            got = _kernels.cover_counts(pts, offs, v, t)
            assert got.tolist() == _colex_counts(pts, offs, v, t)

    def test_count_dtype_contract(self):
        # one block repeated: uint8 while every count is below 256; a
        # count of 256 or more wraps there, fails the sum certificate
        # and is recounted in int32, with exact values either way
        block = [0, 2, 3, 5]
        for repeats in (1, 255, 256, 300):
            pts = np.array(block * repeats, dtype=np.int64)
            offs = np.arange(0, pts.size + 1, len(block), dtype=np.int64)
            for t in (1, 2, 3):
                once = _colex_counts(pts[:4], offs[:2], 7, t)
                counts = _kernels.cover_counts(pts, offs, 7, t)
                assert counts.dtype == (np.uint8 if repeats < 256 else np.int32)
                assert counts.tolist() == [repeats * c for c in once]

    def test_colex_tables(self):
        for s in range(1, 10):
            for t in range(1, s + 1):
                want = sorted(combinations(range(s), t), key=lambda c: c[::-1])
                got = _kernels._colex_table(s, t)
                assert got.shape == (t, comb(s, t)) and list(zip(*got.tolist())) == want, (s, t)
        # the prefixes never outnumber the subsets: C(70, 35) would not fit
        assert _kernels._colex_table(70, 69).shape == (69, 70)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_colex_ranks_visit_every_subset_once(self, t, monkeypatch):
        # blocks by nondecreasing size, each t-subset of each once, and
        # the same ranks as int64 and as Python ints
        monkeypatch.setattr(_kernels, "_CHUNK", 5)
        rng = random.Random(t)
        for _ in range(10):
            pts, offs, v = _random_csr(rng, t, v_cap=12, blocks_cap=6)
            sizes = np.diff(offs).tolist()
            chunks = zip(
                _kernels.colex_ranks(pts, offs, v, t),
                _kernels.colex_ranks(pts, offs, v, t, object),
            )
            seen, visited = [], []
            for (run, rank), (run2, big) in chunks:
                assert np.array_equal(run, run2) and big.dtype == object
                assert rank.tolist() == big.tolist()
                visited += [sizes[b] for b in run.tolist()]
                seen += [(b, r) for b, row in zip(run.tolist(), rank.tolist()) for r in row]
            assert visited == sorted(visited)
            want = [
                (b, sum(comb(x, i + 1) for i, x in enumerate(c)))
                for b in range(len(sizes))
                for c in combinations(pts[offs[b] : offs[b + 1]].tolist(), t)
            ]
            assert sorted(seen) == sorted(want)

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
        d = Design.of(t, v, 1, blocks)
        counts = _kernels.cover_counts(d.points, d.offsets, v, t)
        assert sorted(counts.tolist()) == [1] * (len(counts) - 1) + [2]
        assert not is_design(d)

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
        # the C(2401, 2) uint8 count array is 2.9 MB; measured 5.5 MB
        # in all (15.1 MB with int32 counts and the blocks unpacked
        # from masks)
        assert peak < 8 * 2**20

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
    """Strengths outside {2, 3}, and large indices, through is_design."""

    def test_all_5_subsets_of_7_are_a_4_design(self):
        # every 4-subset of [7] lies in the 3 five-subsets that add one
        # of the remaining 3 points
        blocks = list(combinations(range(1, 8), 5))
        assert is_design(Design.of(4, 7, 3, blocks))
        assert not is_design(Design.of(4, 7, 2, blocks))

    @pytest.mark.parametrize("v", [1, 6, 70])
    def test_partition_is_a_1_design(self, v):
        parts = [list(range(lo, min(lo + 4, v + 1))) for lo in range(1, v + 1, 4)]
        assert is_design(Design.of(1, v, 1, parts))

    def test_overlapping_cover_is_not_a_1_design(self):
        assert not is_design(Design.of(1, 4, 1, [[1, 2], [2, 3, 4]]))

    def test_doubly_covered_4_subset_fails(self):
        # {1,2,3,4} lies in both blocks; all other 4-subsets in at most one
        d = Design.of(4, 6, 1, [[1, 2, 3, 4, 5], [1, 2, 3, 4, 6]])
        counts = _kernels.cover_counts(d.points, d.offsets, 6, 4)
        assert sorted(counts.tolist()) == [0] * 6 + [1] * 8 + [2]
        assert not is_design(d)


    @pytest.mark.parametrize("lam", [255, 256, 300])
    def test_index_past_uint8(self, lam):
        # one block repeated lam times covers each of its t-subsets lam
        # times and every other one never: a 2-(4, 4, lam) design on
        # its own points, and no design once a fifth point is added
        blocks = [[1, 2, 3, 4]] * lam
        assert is_design(Design.of(2, 4, lam, blocks))
        assert not is_design(Design.of(2, 5, lam, blocks))
        assert not is_design(Design.of(2, 4, lam - 1, blocks))
        assert not is_design(Design.of(2, 4, lam + 1, blocks))

    def test_all_6_subsets_of_13_have_index_330(self):
        # every pair of [13] lies in C(11, 4) = 330 of the 6-subsets
        blocks = list(combinations(range(1, 14), 6))
        assert is_design(Design.of(2, 13, 330, blocks))
        assert not is_design(Design.of(2, 13, 330 - 256, blocks))


class TestScanTopK:
    def test_contains_true_argmax(self):
        from laminar.bounds import obf_table

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
