import random
import tracemalloc

import numpy as np
import pytest

from conftest import random_family
from laminar import setfam
from laminar.construct import fano_tower
from laminar.setfam import (
    Block,
    ChecksDisagree,
    Family,
    FamilyParseError,
    _contains_config_general,
    contains_config,
    csr_points,
    family_from_json,
    family_from_text,
    family_to_json,
    family_to_text,
    forbidden_matrix,
    incidence_matrix,
    is_t_laminar,
    maximal_sets,
    unique_chain_check,
    verify_t_laminar,
    violating_pair,
)


def fam(n, *sets):
    return Family.of(n, sets)


class TestBlockFamily:
    def test_block_members_roundtrip(self):
        b = Block.of(5, [2, 4, 5])
        assert b.members == (2, 4, 5)
        assert b.size == 3
        assert 4 in b and 3 not in b

    def test_members_beyond_one_word(self):
        pts = [1, 64, 65, 130, 200]
        b = Block.of(200, pts)
        assert b.members == tuple(pts)
        assert Block(200, 0).members == ()
        assert Block.universe(70).members == tuple(range(1, 71))

    def test_block_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Block.of(3, [4])

    def test_family_rejects_duplicates(self):
        with pytest.raises(ValueError):
            fam(3, [1, 2], [2, 1])

    def test_family_rejects_mixed_ground(self):
        with pytest.raises(ValueError):
            Family(3, (Block.of(3, [1]), Block.of(4, [1])))

    def test_canonical_order(self):
        f = fam(4, [1, 2, 3], [4], [1, 2]).canonical()
        assert [b.members for b in f] == [(4,), (1, 2), (1, 2, 3)]


def _words_loop(f: Family) -> np.ndarray:
    """Oracle: to_words one 64-bit word at a time."""
    n_words = (f.n + 63) // 64
    out = np.zeros((len(f), n_words), dtype=np.uint64)
    for i, b in enumerate(f.sets):
        m = b.mask
        for w in range(n_words):
            out[i, w] = m & 0xFFFFFFFFFFFFFFFF
            m >>= 64
    return out


class TestToWords:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 196])
    def test_matches_word_loop(self, n):
        rng = random.Random(n)
        masks = {rng.getrandbits(n) for _ in range(200)}
        masks |= {0, 1, 1 << (n - 1), (1 << n) - 1}
        f = Family.from_masks(n, sorted(masks))
        words = f.to_words()
        assert words.dtype == np.uint64 and words.shape == (len(f), (n + 63) // 64)
        assert np.array_equal(words, _words_loop(f))

    def test_tower_and_empty(self):
        _, tower = fano_tower(1, materialize=True)
        assert np.array_equal(tower.to_words(), _words_loop(tower))
        assert Family(70, ()).to_words().shape == (0, 2)


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
        assert is_t_laminar(Family(5, ()), 1)

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
                    a, b = (f.sets[i] for i in w)
                    c = a.mask & b.mask
                    assert c.bit_count() >= t and c != a.mask and c != b.mask


class TestMaximalSets:
    def test_basic(self):
        f = fam(5, [1, 2], [1, 2, 3], [4, 5])
        out = maximal_sets(f)
        assert {b.members for b in out} == {(1, 2, 3), (4, 5)}

    def test_universe_dropped(self):
        f = fam(5, [1, 2, 3, 4, 5], [1, 2], [3, 4])
        out = maximal_sets(f, exclude_universe=True)
        assert {b.members for b in out} == {(1, 2), (3, 4)}

    def test_fano_blocks_are_maximal(self):
        _, f0 = fano_tower(0, materialize=True)
        out = maximal_sets(f0, exclude_universe=True)
        assert len(out) == 7
        assert all(b.size == 3 for b in out)

    def test_antichain_and_coverage(self):
        rng = random.Random(23)
        for _ in range(150):
            f = random_family(rng)
            out = maximal_sets(f, exclude_universe=True)
            for a in out:
                for b in out:
                    assert a == b or not (a.mask & b.mask == a.mask)
            full = (1 << f.n) - 1
            for b in f:
                if b.mask == full:
                    continue
                containers = [c for c in out if b.mask & c.mask == b.mask]
                assert containers
                # container unique when the family is 2-laminar
                if is_t_laminar(f, 2) and b.mask not in {c.mask for c in out}:
                    assert len(containers) >= 1


class TestMatrices:
    def test_incidence_rows(self):
        m = incidence_matrix(fam(2, [1], [1, 2]))
        assert m.tolist() == [[1, 0], [1, 1]]

    def test_incidence_empty(self):
        m = incidence_matrix(Family(3, ()))
        assert m.shape == (0, 3)

    def test_incidence_single(self):
        assert incidence_matrix(fam(3, [2, 3])).tolist() == [[0, 1, 1]]

    def test_incidence_beyond_one_word(self):
        f = fam(130, [1, 64, 65, 130], [2], [129, 130])
        m = incidence_matrix(f)
        assert m.shape == (3, 130) and m.dtype == np.uint8
        assert [tuple(np.flatnonzero(row) + 1) for row in m] == [b.members for b in f]

    def test_csr_points_match_members(self):
        rng = random.Random(64)
        for n in (1, 7, 8, 9, 64, 65, 130):
            masks = {rng.getrandbits(n) for _ in range(20)}
            f = Family.from_masks(n, sorted(masks))
            points, offsets = csr_points(f)
            assert points.dtype == offsets.dtype == np.int64
            assert offsets[0] == 0 and offsets[-1] == points.size
            got = [tuple(points[a:b] + 1) for a, b in zip(offsets, offsets[1:])]
            assert got == [b.members for b in f]

    def test_csr_points_empty(self):
        points, offsets = csr_points(Family(3, ()))
        assert points.size == 0 and offsets.tolist() == [0]

    def test_from_rows_matches_of(self):
        rng = random.Random(65)
        for n in (3, 8, 9, 70):
            k = rng.randint(1, n)
            rows = {tuple(sorted(rng.sample(range(1, n + 1), k))) for _ in range(15)}
            rows = sorted(rows)
            assert Family.from_rows(n, np.array(rows)) == Family.of(n, rows)

    def test_from_rows_rejects_points_outside_ground_set(self):
        with pytest.raises(ValueError, match="outside"):
            Family.from_rows(4, np.array([[1, 5]]))
        with pytest.raises(ValueError, match="outside"):
            Family.from_rows(4, np.array([[0, 2]]))
        with pytest.raises(ValueError, match="2-d"):
            Family.from_rows(4, np.array([1, 2]))

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
        m = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=np.uint8)
        z3 = np.eye(3, dtype=np.uint8)
        assert contains_config(m, z3)
        z_impossible = np.zeros((3, 3), dtype=np.uint8)
        z_impossible[0] = 1
        assert not contains_config(np.eye(3, dtype=np.uint8), z_impossible)


def _tower4(crossing=None):
    """Four disjoint relabelled copies of the 1625-set tower on 196 points."""
    _, f49 = fano_tower(1, materialize=True)
    masks = [b.mask << (49 * c) for c in range(4) for b in f49]
    if crossing is not None:
        masks.append(Block.of(196, crossing).mask)
    return Family.from_masks(196, masks)


class TestGramConfig:
    """The blocked Gram-matrix config check against the general enumerator."""

    @pytest.fixture(params=[3, setfam._GRAM_BLOCK_ROWS])
    def block_rows(self, request, monkeypatch):
        # 3 rows makes most random families span several blocks
        monkeypatch.setattr(setfam, "_GRAM_BLOCK_ROWS", request.param)

    def test_forbidden_matrix_random(self, block_rows):
        rng = random.Random(1009)
        hits = misses = 0
        for _ in range(220):
            f = random_family(rng)
            m = incidence_matrix(f)
            for t in (1, 2, 3):
                z = forbidden_matrix(t)
                got = contains_config(m, z)
                assert got == _contains_config_general(m, z), (f, t)
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
            assert got == _contains_config_general(m, z), (f, z.tolist())
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

    def test_memory_is_blocked(self):
        m = incidence_matrix(Family(196, _tower4().sets[:4000]))
        assert m.shape == (4000, 196)
        tracemalloc.start()
        try:
            found = contains_config(m, forbidden_matrix(2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # laminar, so every block is scanned; four dense 4000 x 4000
        # int64 count matrices would need 512 MB
        assert not found
        assert peak < 64 * 2**20, peak


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

    def test_disagreement_is_typed(self, monkeypatch):
        monkeypatch.setattr(setfam, "unique_chain_check", lambda f, t: False)
        with pytest.raises(ChecksDisagree) as info:
            verify_t_laminar(fam(3, [1, 2], [1, 2, 3]), 2)
        assert info.value.verdicts == (True, True, False)
        assert "unique-chain=False" in str(info.value)

    def test_rejects_t_below_one(self):
        with pytest.raises(ValueError):
            verify_t_laminar(fam(3, [1, 2]), 0)


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

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(FamilyParseError, match="line 2"):
            family_from_text("n=3\n2 1\n")
        with pytest.raises(FamilyParseError, match="header"):
            family_from_text("1 2\n")
