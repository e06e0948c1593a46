import hashlib
import random
from functools import reduce
from itertools import combinations
from math import comb

import numpy as np
import pytest

from conftest import int_masks, members
from laminar import geometry
from laminar.geometry import (
    Design,
    GeometryError,
    NotPrimePower,
    _unique_rows,
    affine_plane,
    circle_geometry,
    design_to_text,
    field_make,
    is_design,
    prime_power,
    projective_plane,
)
from laminar.setfam import Family, family_from_text


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _loop_tables(f):
    """Oracle: add/mul of GF(p^k), one code pair at a time.  A code's
    base-p digits, lowest first, are its polynomial's coefficients."""
    p, k, q = f.p, f.k, f.q

    def coeffs(code):
        return [code // p**j % p for j in range(k)]

    def code(cs):
        return sum(c * p**j for j, c in enumerate(cs))

    add = np.zeros((q, q), dtype=np.int64)
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        ca = coeffs(a)
        for b in range(a, q):
            cb = coeffs(b)
            add[a, b] = add[b, a] = code([(x + y) % p for x, y in zip(ca, cb)])
            mul[a, b] = mul[b, a] = code(geometry._poly_rem(_poly_mul(ca, cb, p), f.modulus, p))
    return add, mul


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
        assert (f.powers(f.q - 1)[1:] == 1).all()

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (7, 2), (3, 4)])
    def test_frobenius_is_automorphism(self, p, k):
        f = field_make(p, k)
        frob = f.powers(p).tolist()
        assert sorted(frob) == list(range(f.q))  # bijective
        for x in range(f.q):
            for y in range(f.q):
                assert frob[f.add(x, y)] == f.add(frob[x], frob[y])
                assert frob[f.mul(x, y)] == f.mul(frob[x], frob[y])

    def test_modulus_deterministic(self):
        # lowest-degree-first lexicographic minimum among irreducibles
        assert field_make(2, 3).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
        assert field_make(7, 2).modulus == (1, 0, 1)  # x^2 + 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81])
    def test_tables_match_scalar_loop(self, q):
        f = geometry.FiniteField(*prime_power(q))
        add, mul = _loop_tables(f)
        assert np.array_equal(f.add_table, add)
        assert np.array_equal(f.mul_table, mul)

    def test_prime_power(self):
        assert prime_power(49) == (7, 2)
        assert prime_power(81) == (3, 4)
        assert prime_power(6) is None
        assert prime_power(1) is None


def _block_count_matches(d: Design) -> bool:
    k = int_masks(d.blocks)[0].bit_count()
    return d.block_count() == comb(d.v, d.t) // comb(k, d.t)


class TestPlanes:
    def test_affine_q2_all_pairs(self):
        d = affine_plane(2)
        assert d.v == 4 and d.block_count() == 6
        assert set(members(d.blocks)) == {
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
        assert all(b.bit_count() == 3 for b in int_masks(d.blocks))
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
    mul, add = f.mul_table, f.add_table
    sub = [x for x in range(big) if reduce(f.mul, [x] * q) == x]
    assert len(sub) == q
    inv = np.argmax(mul == 1, axis=1)  # inv[0] = 0: row 0 holds no 1
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
        got = members(circle_geometry(q).blocks)
        want = [tuple(int(x) + 1 for x in row) for row in _pgl_orbit(q)]
        assert got == want

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 49])
    def test_affine_plane_matches_scalar_loop(self, q):
        got = [list(b) for b in members(affine_plane(q).blocks)]
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
        monkeypatch.setattr(geometry, "_unique_rows", lambda rows: real(rows)[1:])
        with pytest.raises(GeometryError, match="block count 29 != 30"):
            circle_geometry(3)


class TestCircleGeometries:
    @pytest.mark.parametrize("q,v,b", [(3, 10, 30), (5, 26, 130)])
    def test_small_orders(self, q, v, b):
        d = circle_geometry(q)
        assert (d.t, d.v, d.block_count()) == (3, v, b)
        assert all(blk.bit_count() == q + 1 for blk in int_masks(d.blocks))
        assert is_design(d)
        assert _block_count_matches(d)

    def test_block_count_formula(self):
        d = circle_geometry(3)
        assert d.block_count() == comb(10, 3) // comb(4, 3)

    def test_infinity_is_last_point(self):
        d = circle_geometry(3)
        # the point at infinity lies on blocks through the sub-line copies
        assert any(b >> (d.v - 1) & 1 for b in int_masks(d.blocks))

    def test_unique_rows_matches_numpy(self):
        rng = random.Random(82)
        for base, cols in ((2, 70), (3, 5), (82, 10), (200, 9), (2**20, 4)):
            rows = np.array(
                [[rng.randrange(base) for _ in range(cols)] for _ in range(300)],
                dtype=np.int64,
            )
            rows = np.vstack([rows, rows[::3]])  # force duplicates
            assert np.array_equal(_unique_rows(rows), np.unique(rows, axis=0))

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            circle_geometry(6)


class TestDesignArrays:
    @pytest.mark.parametrize(
        "points,offsets",
        [
            ([0, 1, 4], [0, 3]),  # point 4 outside 0..3
            ([-1, 1, 2], [0, 3]),  # negative point
            ([0, 2, 1], [0, 3]),  # block not increasing
            ([0, 1, 1], [0, 3]),  # repeated point inside a block
            ([0, 1, 2], [1, 3]),  # offsets not starting at 0
            ([0, 1, 2], [0, 2]),  # offsets not ending at the point count
            ([0, 1, 2], [0, 3, 2, 3]),  # offsets decreasing
            ([0, 1, 2], []),  # no offsets at all
        ],
    )
    def test_malformed_arrays_raise(self, points, offsets):
        with pytest.raises(ValueError):
            Design(t=2, v=4, lam=1, points=np.array(points), offsets=np.array(offsets))

    def test_blocks_may_restart_low(self):
        # points fall between blocks, and empty blocks are allowed
        d = Design(t=1, v=4, lam=1, points=np.array([2, 3, 0, 1]),
                   offsets=np.array([0, 2, 2, 4]))
        assert d.block_count() == 3
        assert members(d.blocks) == [(3, 4), (), (1, 2)]

    def test_arrays_are_read_only_copies(self):
        points = np.array([0, 1, 2])
        d = Design(t=2, v=3, lam=1, points=points, offsets=np.array([0, 3]))
        points[0] = 2
        assert d.points.tolist() == [0, 1, 2]
        assert d.points.dtype == d.offsets.dtype == np.int64
        for arr in (d.points, d.offsets):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_of_sorts_each_block(self):
        d = Design.of(2, 5, 1, [[3, 1, 2], [5, 4]])
        assert d.points.tolist() == [0, 1, 2, 3, 4]
        assert d.offsets.tolist() == [0, 3, 5]
        with pytest.raises(ValueError):
            Design.of(2, 5, 1, [[1, 6]])

    @pytest.mark.parametrize(
        "build",
        [affine_plane, circle_geometry, projective_plane],
        ids=["affine", "circle", "projective"],
    )
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_blocks_are_the_point_lists(self, build, q):
        d = build(q)
        ends = d.offsets.tolist()
        sets = [(d.points[a:b] + 1).tolist() for a, b in zip(ends, ends[1:])]
        assert d.blocks == Family.of(d.v, sets)
        assert d.blocks is d.blocks  # derived once


class TestValidators:
    def test_fano_is_design(self):
        assert is_design(projective_plane(2))

    def test_fano_minus_block_is_packing_not_design(self):
        fano = projective_plane(2)
        trimmed = Design.of(2, 7, 1, members(fano.blocks)[1:])
        assert not is_design(trimmed)

    def test_shared_pair_fails_packing(self):
        # the Fano plane plus a second line through {1, 2}
        fano = members(projective_plane(2).blocks)
        assert not is_design(Design.of(2, 7, 1, fano + [(1, 2)]))

    def test_undersized_block_fails(self):
        # the Fano plane plus a block too small to hold a pair: every
        # pair is still covered once, so only the size check catches it
        fano = members(projective_plane(2).blocks)
        assert not is_design(Design.of(2, 7, 1, fano + [(1,)]))

    def test_general_t_path(self):
        # t=4 exercises the non-kernel counting branch
        blocks = list(combinations(range(1, 7), 4))
        assert is_design(Design.of(4, 6, 1, blocks))
        assert not is_design(Design.of(4, 6, 1, blocks[1:]))


class TestDesignSerialization:
    def test_roundtrip(self):
        """A design file reads back as its block family."""
        d = circle_geometry(3)
        fam, t, comments = family_from_text(design_to_text(d))
        assert (fam, t) == (d.blocks, d.t)
        assert comments == ["design t=3 v=10 lambda=1 kind=design"]
