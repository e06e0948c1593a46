import json
import random
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from conftest import (
    contains_config_general, int_masks, members, of_masks, random_family, sparse_family,
)
from laminar import _kernels, setfam
from laminar.construct import fano_tower
from laminar.search import _int_bits, _row_ints
from laminar.setfam import (
    ChecksDisagree,
    Family,
    FamilyParseError,
    MemberError,
    contains_config,
    family_from_json,
    family_from_text,
    family_to_json,
    family_to_text,
    forbidden_matrix,
    incidence_matrix,
    is_t_laminar,
    unique_chain_check,
    verify_t_laminar,
    violating_pair,
)


def fam(n, *sets):
    return Family.of(n, sets)


# every reader of point lists, each taking the sets of a family over
# [3], with the prefix naming member k (0-based) in its errors
_READERS = [
    (lambda sets: Family.of(3, sets), lambda k: ""),
    (lambda sets: family_from_text("n=3\n" + "\n".join(" ".join(map(str, s)) for s in sets))[0],
     lambda k: f"line {k + 2}: "),
    (lambda sets: family_from_json({"n": 3, "sets": sets})[0], lambda k: f"member {k + 1}: "),
]


class TestBlockFamily:
    def test_block_members_roundtrip(self):
        f = fam(5, [2, 4, 5])
        assert members(f) == [(2, 4, 5)]
        assert family_to_json(f)["sets"] == [[2, 4, 5]]

    def test_members_beyond_one_word(self):
        pts = [1, 64, 65, 130, 200]
        f = fam(200, pts, [], range(1, 71))
        assert members(f) == [tuple(pts), (), tuple(range(1, 71))]
        assert family_to_json(f)["sets"] == [pts, [], list(range(1, 71))]

    def test_block_rejects_out_of_range(self):
        for read, at in _READERS:
            for sets, bad, k in (([[1], [4]], 4, 1), ([[1, 2, 4, 5]], 4, 0), ([[0]], 0, 0)):
                with pytest.raises(ValueError) as info:
                    read(sets)
                assert str(info.value) == f"{at(k)}point {bad} outside 1..3"
        with pytest.raises(ValueError, match="outside 1..3"):
            fam(3, [2**70])
        with pytest.raises(TypeError):
            fam(3, [1.0])

    def test_family_rejects_duplicates(self):
        # the member named is the first that repeats an earlier one
        for read, at in _READERS:
            for sets, k in (([[1, 2], [1, 2]], 1), ([[3], [1], [3]], 2),
                            ([[1], [2, 3], [2, 3], [1]], 2)):
                with pytest.raises(ValueError) as info:
                    read(sets)
                assert str(info.value) == f"{at(k)}duplicate blocks in family"
        with pytest.raises(ValueError, match="duplicate"):
            fam(3, [1, 2], [2, 1])
        # members past one word, and equal sizes that differ in a late point
        sets = [[1, 70, 130], [70], [1, 70, 131], [2, 70, 130], [70], [1, 70, 130]]
        for k in range(2, len(sets) + 1):
            with pytest.raises(MemberError, match="^duplicate") as info:
                Family.of(200, sets[:k] + [[1, 70, 130]])
            assert info.value.member == min(k, 4)

    def test_repeated_point_counts_once(self):
        # Family.of and a JSON member take a set of points; the CSR
        # constructor and a text line must list them strictly increasing
        assert Family.of(3, [[1], [2, 2]]) == fam(3, [1], [2])
        assert family_from_json({"n": 3, "sets": [[3, 1, 3]]})[0] == fam(3, [1, 3])
        with pytest.raises(MemberError, match=r"^points must be strictly increasing$"):
            Family(3, [0, 1, 1], [0, 1, 3])
        with pytest.raises(FamilyParseError, match=r"^line 3: points must be strictly increasing$"):
            family_from_text("n=3\n1\n2 2\n")


def _words_loop(f: Family) -> np.ndarray:
    """Oracle: Family.words one point at a time."""
    out = np.zeros((len(f), (f.n + 63) // 64), dtype=np.uint64)
    for i, (a, b) in enumerate(zip(f.offsets, f.offsets[1:])):
        for p in f.points[a:b].tolist():
            out[i, p // 64] |= np.uint64(1 << p % 64)
    return out


class TestToWords:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130, 196, 200])
    def test_matches_word_loop(self, n):
        rng = random.Random(n)
        masks = {rng.getrandbits(n) for _ in range(200)}
        masks |= {0, 1, 1 << (n - 1), (1 << n) - 1}
        f = of_masks(n, sorted(masks))
        words = f.words
        assert words.dtype == np.uint64 and words.shape == (len(f), (n + 63) // 64)
        assert np.array_equal(words, _words_loop(f))

    def test_tower_and_empty(self):
        _, tower = fano_tower(1, materialize=True)
        assert np.array_equal(tower.words, _words_loop(tower))
        for n in (1, 64, 65, 200):
            assert of_masks(n, ()).words.shape == (0, (n + 63) // 64)


class TestIsTLaminar:
    def test_triangle_plus_universe(self):
        f = fam(3, [1, 2], [1, 3], [2, 3], [1, 2, 3])
        assert is_t_laminar(f, 2)

    def test_two_triples_sharing_pair(self):
        f = fam(4, [1, 2, 3], [1, 2, 4])
        assert not is_t_laminar(f, 2)

    def test_fano_level0(self):
        _, f0 = fano_tower(0, materialize=True)
        assert is_t_laminar(f0, 2)

    def test_empty_family_vacuous(self):
        assert is_t_laminar(of_masks(5, ()), 1)

    def test_monotone_in_t(self):
        rng = random.Random(11)
        for _ in range(120):
            f = random_family(rng)
            for s in (1, 2):
                if is_t_laminar(f, s):
                    for t in range(s + 1, 4):
                        assert is_t_laminar(f, t)


class TestWitness:
    def test_only_candidate_pair(self):
        f = fam(4, [1, 2, 3], [1, 2, 4])
        assert violating_pair(f, 2) == (0, 1)

    def test_absent_on_laminar(self):
        f = fam(3, [1, 2], [1, 3], [2, 3], [1, 2, 3])
        assert violating_pair(f, 2) is None

    def test_classic_overlap(self):
        f = fam(3, [1, 2], [2, 3])
        assert violating_pair(f, 1) == (0, 1)

    def test_witness_recheck(self):
        rng = random.Random(5)
        for _ in range(200):
            f = random_family(rng)
            for t in (1, 2, 3):
                w = violating_pair(f, t)
                assert (w is None) == is_t_laminar(f, t)
                if w is not None:
                    a, b = (int_masks(f)[i] for i in w)
                    c = a & b
                    assert c.bit_count() >= t and c != a and c != b


class TestMatrices:
    def test_incidence_rows(self):
        m = incidence_matrix(fam(2, [1], [1, 2]))
        assert m.tolist() == [[1, 0], [1, 1]]

    def test_incidence_empty(self):
        for n in (1, 3, 8, 9, 200):
            m = incidence_matrix(of_masks(n, ()))
            assert m.shape == (0, n) and m.dtype == np.uint8

    def test_incidence_single(self):
        assert incidence_matrix(fam(3, [2, 3])).tolist() == [[0, 1, 1]]

    def test_incidence_beyond_one_word(self):
        f = fam(130, [1, 64, 65, 130], [2], [129, 130])
        m = incidence_matrix(f)
        assert m.shape == (3, 130) and m.dtype == np.uint8
        assert [tuple(np.flatnonzero(row) + 1) for row in m] == members(f)
        rng = random.Random(130)
        for n in (1, 7, 8, 9, 63, 64, 65, 200):
            f = of_masks(n, {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(20)})
            m = incidence_matrix(f)
            assert m.shape == (len(f), n) and m.dtype == np.uint8
            assert [tuple(np.flatnonzero(row) + 1) for row in m] == members(f)

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16, 17, 24])
    def test_byte_codec_round_trip(self, width):
        # the int-mask codec lives in search, its one user: masks of
        # `width` bytes to zero-one rows and back
        rng = random.Random(width)
        bits = 8 * width
        masks = [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(50)]
        masks += [1 << rng.randrange(bits) for _ in range(10)]
        rows = _int_bits(masks, bits)
        assert rows.shape == (len(masks), bits)
        back = _row_ints(rows)
        assert back == masks and all(type(m) is int for m in back)
        assert _row_ints(rows[:0]) == []
        # a sliced, non-contiguous block of rows converts alike
        assert _row_ints(rows[::2]) == masks[::2]

    @pytest.mark.parametrize("width", [3, 8, 9, 11, 16, 17, 31])
    def test_byte_masks_match_int_from_bytes(self, width):
        rng = np.random.default_rng(width)
        packed = rng.integers(0, 256, (200, width), dtype=np.uint8)
        packed[:, -1] |= 0x80  # the top bit of every row is set
        packed[0] = 0
        bits = np.unpackbits(packed, axis=1, bitorder="little")
        want = [int.from_bytes(row.tobytes(), "little") for row in packed]
        assert _row_ints(bits) == want
        assert np.array_equal(_int_bits(want, 8 * width), bits)

    def test_csr_points_match_members(self):
        rng = random.Random(64)
        for n in (1, 7, 8, 9, 63, 64, 65, 130, 200):
            masks = {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(20)}
            f = of_masks(n, sorted(masks))
            points, offsets = f.points, f.offsets
            assert points.dtype == offsets.dtype == np.int64
            assert offsets[0] == 0 and offsets[-1] == points.size
            got = [tuple(points[a:b] + 1) for a, b in zip(offsets, offsets[1:])]
            assert got == [tuple(p + 1 for p in range(n) if m >> p & 1) for m in sorted(masks)]
            # the readers all build alike
            assert Family(n, points, offsets) == f
            assert Family.of(n, got) == f
            assert family_from_json(family_to_json(f)) == (f, None)
            # a blank line is no member in the text format, so the
            # empty member cannot be written
            with pytest.raises(ValueError, match="empty member"):
                family_to_text(f, t=2)
            nonempty = of_masks(n, [m for m in int_masks(f) if m])
            assert family_from_text(family_to_text(nonempty, t=2))[:2] == (nonempty, 2)

    def test_csr_points_empty(self):
        for n in (1, 3, 8, 9, 64, 65, 200):
            f = of_masks(n, ())
            points, offsets = f.points, f.offsets
            assert points.size == 0 and offsets.tolist() == [0]
            assert f.words.shape == (0, (n + 63) // 64)
            assert Family.of(n, []) == f
            assert family_from_text(family_to_text(f))[0] == f
            assert family_from_json(family_to_json(f))[0] == f

    def test_from_rows_matches_of(self):
        """Rows of equal length are packed as uniform CSR, as the design
        generators do."""
        rng = random.Random(65)
        for n in (3, 8, 9, 70):
            k = rng.randint(1, n)
            rows = {tuple(sorted(rng.sample(range(1, n + 1), k))) for _ in range(15)}
            rows = np.array(sorted(rows))
            offsets = np.arange(0, rows.size + 1, k)
            assert Family(n, rows.ravel() - 1, offsets) == Family.of(n, rows.tolist())

    def test_from_rows_rejects_points_outside_ground_set(self):
        offsets = np.array([0, 2])
        with pytest.raises(MemberError, match=r"^point 5 outside 1\.\.4$"):
            Family(4, np.array([0, 4]), offsets)
        with pytest.raises(MemberError, match=r"^point 0 outside 1\.\.4$"):
            Family(4, np.array([-1, 1]), offsets)

    def test_forbidden_t2(self):
        assert forbidden_matrix(2).tolist() == [[0, 1, 1, 1], [1, 0, 1, 1]]

    def test_forbidden_t1_t3(self):
        assert forbidden_matrix(1).tolist() == [[0, 1, 1], [1, 0, 1]]
        z = forbidden_matrix(3)
        assert z.shape == (2, 5)
        assert int(z.sum()) == 8

    def test_contains_defining_violation(self):
        m = incidence_matrix(fam(4, [1, 2, 3], [1, 2, 4]))
        assert contains_config(m, forbidden_matrix(2))

    def test_avoids_on_laminar(self):
        f = fam(3, [1, 2], [1, 3], [2, 3], [1, 2, 3])
        assert not contains_config(incidence_matrix(f), forbidden_matrix(2))

    def test_identity_embedding(self):
        z = forbidden_matrix(2)
        assert contains_config(z, z)

    def test_too_large_config(self):
        assert not contains_config(np.ones((2, 2), dtype=np.uint8), forbidden_matrix(2))

    def test_general_fallback_three_rows(self):
        # three-row z are left to the tests' enumerating oracle
        m = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=np.uint8)
        z3 = np.eye(3, dtype=np.uint8)
        assert contains_config_general(m, z3)
        z_impossible = np.zeros((3, 3), dtype=np.uint8)
        z_impossible[0] = 1
        assert not contains_config_general(np.eye(3, dtype=np.uint8), z_impossible)
        assert not contains_config_general(m[:3], z_impossible)
        words = Family.of(3, [[1], [2], [3], [1, 2, 3]]).words
        assert not contains_config(words, np.ones((2, 4), dtype=np.uint8), n=3)

    def test_rejects_z_without_two_rows(self):
        m = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=np.uint8)
        words = Family.of(3, [[1], [2], [3], [1, 2, 3]]).words
        for z in (np.eye(3, dtype=np.uint8), np.ones((1, 2), dtype=np.uint8),
                  np.ones(2, dtype=np.uint8), np.ones((5, 1), dtype=np.uint8)):
            with pytest.raises(ValueError, match="two rows"):
                contains_config(m, z)
            with pytest.raises(ValueError, match="two rows"):
                contains_config(words, z, n=3)


def _tower4(crossing=None):
    """Four disjoint relabelled copies of the 1625-set tower on 196 points."""
    _, f49 = fano_tower(1, materialize=True)
    masks = [m << (49 * c) for c in range(4) for m in int_masks(f49)]
    if crossing is not None:
        masks.append(sum(1 << (p - 1) for p in crossing))
    return of_masks(196, masks)


class TestGramConfig:
    """The config check that scans every pair in blocks, its Gram entries
    popcounts of packed words, against the enumerating oracle."""

    @pytest.fixture(params=[3, 256])
    def block_rows(self, request, monkeypatch):
        # blocks of at most 3 row-pair words hold one row of a random
        # family against at most 3 others, so most families span several
        # blocks; 256 words hold every pair of one in a single block
        monkeypatch.setattr(_kernels, "_CHUNK", request.param)

    def test_forbidden_matrix_random(self, block_rows):
        rng = random.Random(1009)
        hits = misses = 0
        for _ in range(220):
            f = random_family(rng)
            m = incidence_matrix(f)
            for t in (1, 2, 3):
                z = forbidden_matrix(t)
                got = contains_config(m, z)
                assert got == contains_config_general(m, z), (f, t)
                assert contains_config(f.words, z, n=f.n) == got
                hits += got
                misses += not got
        assert hits > 50 and misses > 50

    def test_random_two_row_z_with_00_column(self, block_rows):
        rng = random.Random(2017)
        hits = misses = 0
        for _ in range(220):
            f = random_family(rng)
            m = incidence_matrix(f)
            width = rng.randint(1, min(5, f.n))
            z = np.array(
                [[rng.randint(0, 1) for _ in range(width)] for _ in range(2)],
                dtype=np.uint8,
            )
            z[:, 0] = 0  # always one 00 column
            got = contains_config(m, z)
            assert got == contains_config_general(m, z), (f, z.tolist())
            hits += got
            misses += not got
        assert hits > 20 and misses > 20

    def test_diagonal_excluded(self):
        # one row matches z against itself but there is no second row
        m = np.array([[1, 1, 0, 0], [0, 0, 0, 0]], dtype=np.uint8)
        z = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        assert not contains_config(m, z)
        assert contains_config(np.vstack([m[:1], m[:1]]), z)

    def test_4x_tower_agrees_with_pairwise(self):
        assert not contains_config(incidence_matrix(_tower4()), forbidden_matrix(2))
        bad = _tower4(crossing=[1, 2, 60, 61])
        assert contains_config(incidence_matrix(bad), forbidden_matrix(2))

    def test_memory_is_blocked(self, monkeypatch):
        f = of_masks(196, int_masks(_tower4())[:4000])
        m = incidence_matrix(f)
        assert m.shape == (4000, 196)
        # the tower takes the grouped path; forced off it, the scan of
        # every pair must stay blocked too
        for path in ("grouped", "blocked"):
            if path == "blocked":
                monkeypatch.setattr(
                    setfam._kernels, "shared_pairs", lambda points, offsets, t: None)
            tracemalloc.start()
            try:
                pairs = setfam._kernels.shared_pairs(f.points, f.offsets, 2)
                found = contains_config(m, forbidden_matrix(2), pairs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # laminar, so every block is scanned; four dense 4000 x 4000
            # int64 count matrices would need 512 MB
            assert not found
            assert peak < 64 * 2**20, (path, peak)


def _listing(f, z):
    """contains_config's ``pairs`` for the rows of f and a z with an 11
    column: f's shared pairs at z's number of 11 columns."""
    return _kernels.shared_pairs(f.points, f.offsets, int((z[0] & z[1]).sum()))


class TestConfigPaths:
    """contains_config's grouped and blocked paths against the
    enumerating oracle and the pairwise predicate."""

    def test_random_two_row_z(self, pair_path):
        name, listed = pair_path
        rng = random.Random(4099)
        hits = misses = 0
        for _ in range(80):
            f = sparse_family(rng, rng.randint(3, 9), f_cap=20)
            m = incidence_matrix(f)
            width = rng.randint(1, min(5, f.n))
            z = np.array(
                [[rng.randint(0, 1) for _ in range(width)] for _ in range(2)],
                dtype=np.uint8,
            )
            z[:, 0] = 1  # at least one 11 column
            for zz in (z, forbidden_matrix(1), forbidden_matrix(2), forbidden_matrix(3)):
                pairs = _listing(f, zz)
                got = contains_config(m, zz, pairs)
                assert got == contains_config_general(m, zz), (f, zz.tolist())
                assert contains_config(f.words, zz, pairs, n=f.n) == got
                hits += got
                misses += not got
        assert hits > 50 and misses > 50
        assert any(listed) == (name == "grouped")

    def test_crossed_4x_tower(self, pair_path):
        name, listed = pair_path
        z = forbidden_matrix(2)
        good, bad = _tower4(), _tower4(crossing=[1, 2, 60, 61])
        assert not contains_config(incidence_matrix(good), z, _listing(good, z))
        assert contains_config(incidence_matrix(bad), z, _listing(bad, z))
        assert violating_pair(bad, 2) is not None
        assert listed[:2] == [name == "grouped"] * 2

    def test_shared_columns_past_uint8(self, pair_path):
        # rows 0 and 1 share 300 columns and differ in one each; 40
        # singleton rows make the pairs outnumber the rows' points, so
        # the grouped path takes the family.  z needs a 00 column, whose
        # count n - s_i - s_j + G = 40 is negative if G wraps to 44
        name, listed = pair_path
        n = 342
        m = np.zeros((42, n), dtype=np.uint8)
        m[0, :301] = 1
        m[1, :300] = 1
        m[1, 301] = 1
        m[np.arange(2, 42), np.arange(302, 342)] = 1
        z = np.array([[0, 1, 1, 0], [1, 0, 1, 0]], dtype=np.uint8)
        f = Family.of(n, [np.flatnonzero(row) + 1 for row in m])
        assert contains_config(m, z, _listing(f, z))
        assert listed == [name == "grouped"]


def _dict_chain_check(fam, t):
    """Reference for unique_chain_check: members of size >= t by
    nondecreasing size, and one dictionary step per t-subset of each,
    which must contain the last member seen holding that t-subset."""
    top = {}  # t-subset -> largest member seen containing it
    for pts in sorted((s for s in members(fam) if len(s) >= t), key=len):
        mask = sum(1 << (p - 1) for p in pts)
        for sub in combinations([1 << (p - 1) for p in pts], t):
            below = top.get(sum(sub))
            if below is not None and below & mask != below:
                return False
            top[sum(sub)] = mask
    return True


class TestUniqueChain:
    def test_fano_level0(self):
        _, f0 = fano_tower(0, materialize=True)
        assert unique_chain_check(f0, 2)

    def test_incomparable_pair_over_shared_t_subset(self):
        assert not unique_chain_check(fam(4, [1, 2, 3], [1, 2, 4]), 2)

    def test_t_equal_n(self):
        f = fam(3, [1, 2, 3], [1, 2], [1, 3])
        assert unique_chain_check(f, 3)

    def test_t_above_n_and_small_members(self):
        f = fam(3, [1, 2], [2, 3])
        assert unique_chain_check(f, 4)
        assert unique_chain_check(f, 2)  # no member holds 2 common points
        assert not unique_chain_check(f, 1)

    def test_equal_size_members_break_the_chain(self):
        assert not unique_chain_check(fam(5, [1, 2, 3], [1, 2, 4], [1, 2, 3, 4, 5]), 2)
        assert unique_chain_check(fam(5, [1, 2, 3], [1, 4, 5], [1, 2, 3, 4, 5]), 2)

    @pytest.fixture(params=["sorted", "sorted in small chunks"])
    def path(self, request, monkeypatch):
        # chunks of one rank split a member's t-subsets over several
        # chunks and test one neighbour pair at a time
        if request.param == "sorted in small chunks":
            monkeypatch.setattr(_kernels, "_CHUNK", 1)

    def test_against_pairwise_beyond_one_word(self):
        rng = random.Random(65)
        seen = set()
        for _ in range(150):
            n = rng.randint(65, 140)
            # points drawn from a small pool, so members often overlap
            pool = rng.sample(range(1, n + 1), rng.randint(6, 14))
            sets = {
                tuple(sorted(rng.sample(pool, rng.randint(1, min(7, len(pool))))))
                for _ in range(rng.randint(0, 14))
            }
            f = Family.of(n, sets)
            for t in (1, 2, 3):
                lam = is_t_laminar(f, t)
                assert unique_chain_check(f, t) == lam, (f, t)
                seen.add(lam)
        assert seen == {True, False}

    def test_4x_tower(self):
        assert unique_chain_check(_tower4(), 2)
        assert not unique_chain_check(_tower4(crossing=[1, 2, 60, 61]), 2)

    @pytest.mark.parametrize("n", [5, 40, 64, 65, 130])
    def test_against_dict_reference(self, n, path):
        # one word up to n = 64, several beyond; members smaller than t
        # and members of equal size that break a chain are frequent
        rng = random.Random(n)
        seen = set()
        for _ in range(60):
            f = sparse_family(rng, n, f_cap=20, size_cap=7)
            for t in (1, 2, 3, 4):
                want = _dict_chain_check(f, t)
                assert unique_chain_check(f, t) == want, (f, t)
                seen.add(want)
        assert seen == {True, False}

    def test_edge_cases_match_reference(self, path):
        cases = [
            (of_masks(4, ()), 2),  # the empty family
            (fam(3, [1, 2], [2, 3]), 4),  # t > n
            (fam(3, [1], [2], [3]), 2),  # every member smaller than t
            (fam(6, [1, 2, 3], [1, 2, 4], [1, 2, 5]), 2),  # equal sizes
            (fam(6, [1, 2], [1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5, 6]), 2),  # a chain
            (fam(6, [], [1, 2, 3], [4, 5, 6]), 1),  # the empty member
        ]
        for f, t in cases:
            assert unique_chain_check(f, t) == _dict_chain_check(f, t) == is_t_laminar(f, t)

    def test_binomial_beyond_int64_sorts_python_ints(self, path):
        # C(200, 20) >= 2^63: no colex rank fits int64, so the sort keys
        # are Python ints
        n, t = 200, 20
        assert comb(n, t) >= 2**63
        rng = random.Random(20)
        pool = rng.sample(range(1, n + 1), 24)
        chain = [sorted(pool[:k]) for k in (20, 21, 23)]
        assert unique_chain_check(Family.of(n, chain), t)
        seen = set()
        for _ in range(12):
            sets = {tuple(sorted(rng.sample(pool, rng.randint(20, 23)))) for _ in range(4)}
            f = Family.of(n, sorted(sets))
            want = _dict_chain_check(f, t)
            assert unique_chain_check(f, t) == want == is_t_laminar(f, t)
            seen.add(want)
        assert seen == {True, False}
        crossed = Family.of(n, chain + [sorted(pool[:20] + pool[23:])])  # crosses pool[:21]
        assert not unique_chain_check(crossed, t)

    def test_dense_family_stops_at_the_first_chunk(self):
        # 3000 random 60-subsets of [120] have about 10^8 rows at t = 3
        # (0.8 GB as int64); equal-size members share t-subsets, so the
        # first chunk breaks a chain and nothing grows with the rows
        rng = random.Random(3)
        f = Family.of(120, [sorted(rng.sample(range(1, 121), 60)) for _ in range(3000)])
        tracemalloc.start()
        try:
            assert not unique_chain_check(f, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_independent_of_the_pair_listing(self, monkeypatch):
        # check 3 is the witness for checks 1 and 2, so it must reach no
        # kernel that they share
        def broken(*args, **kwargs):
            raise AssertionError("check 3 reached a kernel of checks 1 and 2")

        _, tower = fano_tower(1, materialize=True)
        crossed = _tower4(crossing=[1, 2, 60, 61])
        for name in ("shared_pairs", "find_violation"):
            monkeypatch.setattr(_kernels, name, broken)
        assert unique_chain_check(tower, 2)
        assert not unique_chain_check(crossed, 2)


class TestEquivalences:
    """The three characterizations agree on random families."""

    def test_random_suite(self):
        rng = random.Random(427)
        checked = 0
        for _ in range(220):
            f = random_family(rng)
            for t in (1, 2, 3):
                lam = is_t_laminar(f, t)
                avoid = not contains_config(incidence_matrix(f), forbidden_matrix(t))
                chain = unique_chain_check(f, t)
                assert lam == avoid == chain, (f, t)
                checked += 1
        assert checked >= 600


class TestVerifyThreeWays:
    def test_returns_first_violating_pair(self):
        f = fam(4, [1, 2], [1, 2, 3], [1, 2, 4], [2, 3, 4])
        assert verify_t_laminar(f, 2) == violating_pair(f, 2) == (1, 2)
        assert verify_t_laminar(fam(3, [1, 2], [1, 2, 3]), 2) is None

    @pytest.mark.parametrize("crossing", [None, [1, 2, 60, 61]])
    def test_lists_the_shared_pairs_once(self, crossing, monkeypatch):
        # checks 1 and 2 test one listing; the crossed tower's verdict
        # and witness are those of violating_pair, which lists its own
        f = _tower4(crossing)
        calls = []
        real = setfam._kernels.shared_pairs

        def shared_pairs(points, offsets, t):
            calls.append(t)
            return real(points, offsets, t)

        monkeypatch.setattr(setfam._kernels, "shared_pairs", shared_pairs)
        assert verify_t_laminar(f, 2) == (None if crossing is None else violating_pair(f, 2))
        assert calls == [2] * (1 if crossing is None else 2)

    def test_disagreement_is_typed(self, monkeypatch):
        monkeypatch.setattr(setfam, "unique_chain_check", lambda f, t: False)
        with pytest.raises(ChecksDisagree) as info:
            verify_t_laminar(fam(3, [1, 2], [1, 2, 3]), 2)
        assert info.value.verdicts == (True, True, False)
        assert "unique-chain=False" in str(info.value)

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            verify_t_laminar(fam(3, [1, 2]), 0)

    def test_reports_its_paths(self):
        _, tower = fano_tower(1, materialize=True)
        paths = {}
        assert verify_t_laminar(tower, 2, paths) is None
        assert (paths["pairs"].rows, paths["pairs"].within) == (4704, 7056)
        assert paths["chain_rows"] == 4704
        # three 2-sets and one 3-set: listing would cost more than the
        # three pairs it could save
        paths = {}
        verify_t_laminar(fam(4, [1, 2], [1, 3], [2, 3], [1, 2, 3]), 2, paths)
        assert paths == {"pairs": None, "chain_rows": 6}


class TestSerialization:
    def test_text_roundtrip(self):
        f = fam(5, [1, 2], [2, 4, 5], [1, 2, 3, 4, 5])
        text = family_to_text(f, t=2, comments=["fixture"])
        back, t, comments = family_from_text(text)
        assert back == f and t == 2 and comments == ["fixture"]

    def test_json_roundtrip(self):
        f = fam(4, [1, 3], [2, 4])
        back, t = family_from_json(family_to_json(f, t=3))
        assert back == f and t == 3

    @pytest.mark.parametrize("field", ["n", "t"])
    @pytest.mark.parametrize("value", [3.9, 2.5, 3.0, "3", True, None, float("inf")],
                             ids=["3.9", "2.5", "3.0", "str", "bool", "null", "1e400"])
    def test_json_n_and_t_must_be_integers(self, field, value):
        # the text header takes only n=<int>; json.loads reads 1e400 as inf
        doc = {"n": 3, "t": 2, "sets": [[1, 2]], field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not "):
            family_from_json(doc)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(FamilyParseError, match="line 2"):
            family_from_text("n=3\n2 1\n")
        with pytest.raises(FamilyParseError, match="header"):
            family_from_text("1 2\n")

    @pytest.mark.parametrize("text, error", [
        ("n=5\n1 2\n\n# c\n3 4\n4 3\n", "line 6: points must be strictly increasing"),
        ("n=5\n1 2\n2 2\n1 x\n", "line 3: points must be strictly increasing"),
        ("n=5\n1 2\n1 x\n2 1\n", "line 3: non-integer point"),
        (f"n=5\n1 {2**70}\n2 1\n", "line 3: points must be strictly increasing"),
        (f"n=5\n1 {2**70}\n", "line 2: point outside 1..5"),
        # neighbours whose difference overflows int64
        ("n=5\n-9000000000000000000 9000000000000000000\n",
         "line 2: point -9000000000000000000 outside 1..5"),
        ("n=5\n9000000000000000000 -9000000000000000000\n",
         "line 2: points must be strictly increasing"),
        # the smallest int64, which the shift to 0-based wraps
        (f"n=5\n{-2**63} 1\n", f"line 2: point {-2**63} outside 1..5"),
        (f"n=5\n1 2\n{2**63 - 1} {-2**63}\n", "line 3: points must be strictly increasing"),
    ])
    def test_parse_errors_name_the_first_bad_line(self, text, error):
        with pytest.raises(ValueError) as info:
            family_from_text(text)
        assert str(info.value) == error


def _random_text(rng: random.Random) -> str:
    """A family file whose member lines vary in every way the format
    allows or rejects: tabs, blank lines, trailing spaces, leading zeros,
    signs, tokens of over 18 digits, comments, and now and then a point
    outside 1..n, a repeated member, points out of order or a token that
    is no integer."""
    n = rng.choice([1, 5, 9, 64, 200])
    rows = {tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(n, 6)))))
            for _ in range(rng.randint(0, 12))}
    rows = [list(r) for r in rows]
    rng.shuffle(rows)
    odd = rng.random() < 0.5  # only digits, spaces and newlines otherwise
    lines = ["# drawn"] * rng.randint(0, 2) + [f"n={n}" + rng.choice(["", " t=2"])]
    for row in rows:
        if rng.random() < 0.05:
            row[rng.randrange(len(row))] = rng.choice([0, n + 1, 2**70])
        if rng.random() < 0.05 and len(row) > 1:
            row.reverse()
        tokens = [str(p) for p in row]
        k = rng.randrange(len(tokens))
        tokens[k] = rng.choice(["0" * rng.randint(1, 20), ""]) + tokens[k]
        if odd:
            tokens[k] = rng.choice(["+", "", " "]) + tokens[k]
            if rng.random() < 0.05:
                tokens[k] = "x"
        sep = rng.choice(["\t", " "]) if odd else rng.choice([" ", "  "])
        lines += [" " * rng.randint(0, 1)] * rng.randint(0, 1)  # blank lines
        lines.append(sep.join(tokens) + " " * rng.randint(0, 2))
        if rng.random() < 0.05:
            lines.append(lines[-1])  # a repeated member
        if odd and rng.random() < 0.1:
            lines.append("# between members")
    return "\n".join(lines) + rng.choice(["", "\n"])


class TestParserPaths:
    """The bulk byte pass of family_from_text against the line-by-line
    pass, and the text and JSON round trips."""

    def _parse(self, text):
        try:
            fam, t, comments = family_from_text(text)
        except ValueError as exc:
            return type(exc), str(exc)
        return fam.n, fam.points.tolist(), fam.offsets.tolist(), t, comments

    def test_bulk_pass_matches_line_by_line(self, monkeypatch):
        rng = random.Random(1618)
        texts = [_random_text(rng) for _ in range(1500)]
        real = setfam._bulk_members
        taken = []

        def spy(n, body):
            got = real(n, body)
            taken.append(got is not None)
            if got is not None:
                # what the bulk pass returns, the line-by-line pass reads alike
                monkeypatch.setattr(setfam, "_bulk_members", lambda n, body: None)
                try:
                    assert family_from_text(f"n={n}\n" + body)[0] == got
                finally:
                    monkeypatch.setattr(setfam, "_bulk_members", spy)
            return got

        monkeypatch.setattr(setfam, "_bulk_members", spy)
        bulk = [self._parse(text) for text in texts]
        monkeypatch.setattr(setfam, "_bulk_members", lambda n, body: None)
        by_line = [self._parse(text) for text in texts]
        for text, a, b in zip(texts, bulk, by_line):
            assert a == b, text
        # both passes were taken, and both parsed and rejected files
        assert 300 < sum(taken) < len(taken)
        errors = [a for a in bulk if isinstance(a[0], type)]
        assert 100 < len(errors) < len(texts) - 300
        assert {a[0] for a in errors} == {FamilyParseError}

    def test_text_round_trip_is_byte_identical(self):
        rng = random.Random(2)
        _, tower = fano_tower(1, materialize=True)
        families = [tower] + [sparse_family(rng, rng.choice([3, 64, 65, 130])) for _ in range(60)]
        for f in families:
            if (np.diff(f.offsets) == 0).any():
                continue  # the empty member has no text form
            text = family_to_text(f, t=2, comments=["a", "b c"])
            back, t, comments = family_from_text(text)
            assert (back, t, comments) == (f, 2, ["a", "b c"])
            assert family_to_text(back, t=t, comments=comments) == text

    def test_json_round_trip_is_byte_identical(self):
        rng = random.Random(3)
        _, tower = fano_tower(1, materialize=True)
        families = [tower] + [sparse_family(rng, rng.choice([3, 64, 65, 130])) for _ in range(60)]
        for f in families:
            doc = json.dumps(family_to_json(f, t=3))
            back, t = family_from_json(json.loads(doc))
            assert (back, t) == (f, 3)
            assert json.dumps(family_to_json(back, t=t)) == doc
