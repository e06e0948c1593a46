import random
from math import comb

import numpy as np
import pytest

from laminar.geometry import (
    Design,
    NotPrimePower,
    _unique_rows,
    affine_plane,
    circle_geometry,
    design_from_text,
    design_to_text,
    field_make,
    greedy_packing,
    is_design,
    is_packing,
    prime_power,
    projective_plane,
)
from laminar.setfam import Family


class TestFields:
    def test_prime_field(self):
        f = field_make(7, 1)
        assert f.q == 7
        assert f.mul(3, 5) == 1
        assert f.add(4, 5) == 2

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            field_make(6, 1)

    @pytest.mark.parametrize("p,k", [(7, 2), (3, 4)])
    def test_multiplicative_order_exhaustive(self, p, k):
        f = field_make(p, k)
        q = f.q
        for x in range(1, q):
            assert f.pow(x, q - 1) == 1

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (7, 2), (3, 4)])
    def test_frobenius_is_automorphism(self, p, k):
        f = field_make(p, k)
        frob = [f.pow(x, p) for x in range(f.q)]
        assert sorted(frob) == list(range(f.q))  # bijective
        for x in range(f.q):
            for y in range(f.q):
                assert frob[f.add(x, y)] == f.add(frob[x], frob[y])
                assert frob[f.mul(x, y)] == f.mul(frob[x], frob[y])

    def test_modulus_deterministic(self):
        # lowest-degree-first lexicographic minimum among irreducibles
        assert field_make(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
        assert field_make(7, 2).modulus == (1, 0, 1)  # x^2 + 1

    def test_elem_coeff_roundtrip(self):
        f = field_make(3, 4)
        for code in (0, 1, 40, 80):
            assert f.code(f.elem(code)) == code

    def test_prime_power(self):
        assert prime_power(49) == (7, 2)
        assert prime_power(81) == (3, 4)
        assert prime_power(6) is None
        assert prime_power(1) is None


def _block_count_matches(d: Design) -> bool:
    k = d.blocks.sets[0].size
    return d.block_count() == comb(d.v, d.t) // comb(k, d.t)


class TestPlanes:
    def test_affine_q2_all_pairs(self):
        d = affine_plane(2)
        assert d.v == 4 and d.block_count() == 6
        assert {b.members for b in d.blocks} == {
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
        }
        assert is_design(d)

    def test_affine_q7(self):
        d = affine_plane(7)
        assert (d.v, d.block_count()) == (49, 56)
        assert is_design(d)
        assert _block_count_matches(d)

    def test_affine_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            affine_plane(6)

    def test_projective_q2_is_fano(self):
        d = projective_plane(2)
        assert (d.v, d.block_count()) == (7, 7)
        assert all(b.size == 3 for b in d.blocks)
        assert is_design(d)

    def test_projective_q3(self):
        d = projective_plane(3)
        assert (d.v, d.block_count()) == (13, 13)
        assert is_design(d)
        assert _block_count_matches(d)

    def test_projective_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            projective_plane(6)


class TestCircleGeometries:
    @pytest.mark.parametrize("q,v,b", [(3, 10, 30), (5, 26, 130)])
    def test_small_orders(self, q, v, b):
        d = circle_geometry(q)
        assert (d.t, d.v, d.block_count()) == (3, v, b)
        assert all(blk.size == q + 1 for blk in d.blocks)
        assert is_design(d)
        assert _block_count_matches(d)

    def test_block_count_formula(self):
        d = circle_geometry(3)
        assert d.block_count() == comb(10, 3) // comb(4, 3)

    def test_infinity_is_last_point(self):
        d = circle_geometry(3)
        # the point at infinity lies on blocks through the sub-line copies
        assert any(d.v in b.members for b in d.blocks)

    def test_unique_rows_matches_numpy(self):
        rng = random.Random(82)
        for base, cols in ((2, 70), (3, 5), (82, 10), (200, 9), (2**20, 4)):
            rows = np.array(
                [[rng.randrange(base) for _ in range(cols)] for _ in range(300)],
                dtype=np.int64,
            )
            rows = np.vstack([rows, rows[::3]])  # force duplicates
            assert np.array_equal(_unique_rows(rows, base), np.unique(rows, axis=0))

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            circle_geometry(6)


class TestValidators:
    def test_fano_is_design(self):
        assert is_design(projective_plane(2))

    def test_fano_minus_block_is_packing_not_design(self):
        fano = projective_plane(2)
        trimmed = Design(
            t=2, v=7, lam=1,
            blocks=Family(7, fano.blocks.sets[1:]),
            kind="packing",
        )
        assert not is_design(trimmed)
        assert is_packing(trimmed)

    def test_shared_pair_fails_packing(self):
        d = Design(
            t=2, v=5, lam=1,
            blocks=Family.of(5, [[1, 2, 3], [1, 2, 4]]),
            kind="packing",
        )
        assert not is_packing(d)

    def test_undersized_block_fails(self):
        d = Design(t=2, v=4, lam=1, blocks=Family.of(4, [[1]]), kind="packing")
        assert not is_packing(d)

    def test_general_t_path(self):
        # t=4 exercises the non-kernel counting branch
        d = Design(t=4, v=6, lam=1, blocks=Family.of(6, [[1, 2, 3, 4]]), kind="packing")
        assert is_packing(d)


class TestGreedyPacking:
    @pytest.mark.parametrize("seed", range(8))
    def test_seven_three_reaches_five(self, seed):
        d = greedy_packing(7, 3, 2, seed)
        assert d.block_count() >= 5
        assert is_packing(d)

    def test_all_pairs(self):
        d = greedy_packing(4, 2, 2, 3)
        assert d.block_count() == 6

    def test_single_full_block(self):
        d = greedy_packing(5, 5, 2, 0)
        assert d.block_count() == 1

    def test_block_count_upper_bound(self):
        for seed in range(4):
            d = greedy_packing(9, 3, 2, seed)
            assert is_packing(d)
            assert d.block_count() <= comb(9, 2) // comb(3, 2)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            greedy_packing(4, 5, 2, 0)


class TestDesignSerialization:
    def test_roundtrip(self):
        d = circle_geometry(3)
        back = design_from_text(design_to_text(d))
        assert back == d

    def test_missing_metadata(self):
        with pytest.raises(ValueError):
            design_from_text("n=3 t=2\n1 2\n")
