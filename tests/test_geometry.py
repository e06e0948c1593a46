import hashlib
import random
from math import comb

import numpy as np
import pytest

from laminar import geometry
from laminar.geometry import (
    Design,
    GeometryError,
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


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _loop_tables(f):
    """Oracle: add/mul/inv/neg of GF(p^k), one code pair at a time."""
    p, q = f.p, f.q
    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        ca = f.coeffs(a)
        for b in range(a, q):
            cb = f.coeffs(b)
            add[a, b] = add[b, a] = f.from_coeffs([(x + y) % p for x, y in zip(ca, cb)])
            prod = geometry._poly_rem(_poly_mul(list(ca), list(cb), p), f.modulus, p)
            mul[a, b] = mul[b, a] = f.from_coeffs(prod)
    inv = np.zeros(q, dtype=np.int64)
    for a in range(1, q):
        inv[a] = int(np.nonzero(mul[a] == 1)[0][0])
    neg = np.array([int(np.nonzero(add[a] == 0)[0][0]) for a in range(q)])
    return add, mul, inv, neg


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

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81])
    def test_tables_match_scalar_loop(self, q):
        f = geometry.FiniteField(*prime_power(q))
        add, mul, inv, neg = _loop_tables(f)
        assert np.array_equal(f.add_table, add)
        assert np.array_equal(f.mul_table, mul)
        assert np.array_equal(f.inv_table, inv)
        assert np.array_equal(f.neg_table, neg)

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


def _affine_scalar(q: int) -> list[list[int]]:
    """Lines of AG(2, q) in affine_plane's order, one field call at a time."""
    f = geometry.field_for_order(q)
    blocks = [
        [x * q + f.add(f.mul(m, x), b) + 1 for x in range(q)]
        for m in range(q)
        for b in range(q)
    ]
    blocks += [[c * q + y + 1 for y in range(q)] for c in range(q)]
    return [sorted(bl) for bl in blocks]


def _pgl_orbit(q: int) -> np.ndarray:
    """The orbit of GF(q) u {inf} under PGL(2, q^2), map by map.

    Rows are 0-based sorted blocks (infinity = q^2), deduplicated and in
    lexicographic order.  Every invertible (a, b; c, d) is normalised so
    its first nonzero entry is 1.
    """
    f = geometry.field_for_order(q * q)
    big = f.q
    sub = [x for x in range(big) if f.pow(x, q) == x]
    assert len(sub) == q
    mul, add, inv = f.mul_table, f.add_table, f.inv_table
    ar = np.arange(big, dtype=mul.dtype)
    b3, c3, d3 = (m.ravel() for m in np.meshgrid(ar, ar, ar, indexing="ij"))
    keep = d3 != mul[b3, c3]  # a = 1, det = d - b*c
    c0, d0 = (m.ravel() for m in np.meshgrid(ar[1:], ar, indexing="ij"))  # a = 0, b = 1
    a = np.concatenate([np.ones(int(keep.sum()), dtype=mul.dtype), np.zeros(c0.size, mul.dtype)])
    b = np.concatenate([b3[keep], np.ones(c0.size, dtype=mul.dtype)])
    c = np.concatenate([c3[keep], c0])
    d = np.concatenate([d3[keep], d0])
    assert a.size == big**3 - big  # |PGL(2, q^2)|
    line = [(s, 1) for s in sub] + [(1, 0)]  # homogeneous (u : v), inf = (1 : 0)
    images = np.empty((a.size, len(line)), dtype=mul.dtype)
    for col, (u, v) in enumerate(line):
        num = add[mul[a, u], mul[b, v]]
        den = add[mul[c, u], mul[d, v]]
        images[:, col] = np.where(den == 0, big, mul[num, inv[den]])
    images.sort(axis=1)
    return np.unique(images, axis=0)


class TestClosedForms:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_circle_geometry_is_the_pgl_orbit(self, q):
        got = [b.members for b in circle_geometry(q).blocks]
        want = [tuple(int(x) + 1 for x in row) for row in _pgl_orbit(q)]
        assert got == want

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 49])
    def test_affine_plane_matches_scalar_loop(self, q):
        got = [list(b.members) for b in affine_plane(q).blocks]
        assert got == _affine_scalar(q)

    @pytest.mark.parametrize(
        "build,digest",
        [
            (lambda: affine_plane(49),
             "5d928fd34ecd769a09b5df94c6614e4ee18ad312f20960880ec815957b1df2b9"),
            (lambda: circle_geometry(9),
             "095da9ac90c335255a76047e82441e823e494ad92cb052c559089a9f750f9e19"),
        ],
        ids=["affine-49", "circle-9"],
    )
    def test_design_text_bytes_pinned(self, build, digest):
        text = design_to_text(build())
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest

    def test_block_count_mismatch_raises(self, monkeypatch):
        real = geometry._unique_rows
        monkeypatch.setattr(geometry, "_unique_rows", lambda rows, base: real(rows, base)[1:])
        with pytest.raises(GeometryError, match="block count 29 != 30"):
            circle_geometry(3)


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
        for t in (0, -1):
            with pytest.raises(ValueError, match="t must be >= 1"):
                greedy_packing(5, 2, t, 0)


class TestDesignSerialization:
    def test_roundtrip(self):
        d = circle_geometry(3)
        back = design_from_text(design_to_text(d))
        assert back == d

    def test_missing_metadata(self):
        with pytest.raises(ValueError):
            design_from_text("n=3 t=2\n1 2\n")
