import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from conftest import int_masks, members, of_masks, random_laminar_family
from laminar import cli, search
from laminar.construct import (
    CapExceeded,
    circle_tower,
    fano_tower,
    nested,
)
from laminar.geometry import Design, affine_plane, circle_geometry, projective_plane
from laminar.setfam import Family, family_from_text, family_to_text, is_t_laminar


class TestNested:
    def test_blocks_as_singletons(self):
        fano = projective_plane(2)
        out = nested(fano, Family.of(3, [[1, 2, 3]]))
        assert len(out) == 7
        assert set(members(out)) == set(members(fano.blocks))
        assert is_t_laminar(out, 2)

    def test_blocks_with_pairs(self):
        fano = projective_plane(2)
        pairs = Family.of(3, [*combinations(range(1, 4), 2), [1, 2, 3]])
        out = nested(fano, pairs)
        # every pair of [7] lies in exactly one block: 21 pairs + 7 blocks
        assert len(out) == 28
        assert is_t_laminar(out, 2)

    def test_affine_49_nesting_count(self):
        _, f0 = fano_tower(0, materialize=True)
        out = nested(affine_plane(7), f0)
        assert len(out) == 56 * 29
        out_with_universe = of_masks(49, int_masks(out) + ((1 << 49) - 1,))
        assert len(out_with_universe) == 1625

    def test_rejects_non_laminar_replacement(self):
        packing = Design.of(1, 6, 1, [[1, 2, 3], [4, 5, 6]])
        bad = Family.of(3, [[1, 2], [2, 3]])  # overlapping, incomparable
        with pytest.raises(ValueError, match="not t-laminar"):
            nested(packing, bad)

    def test_rejects_ground_mismatch(self):
        fano = projective_plane(2)
        with pytest.raises(ValueError, match="ground size 4 != block size 3"):
            nested(fano, Family.of(4, [[1, 2]]))
        # blocks of two sizes: the family fits the first block, not the second
        mixed = Design.of(2, 5, 1, [[1, 2, 3], [3, 4]])
        with pytest.raises(ValueError, match="ground size 3 != block size 2"):
            nested(mixed, Family.of(3, [[1, 2]]))

    def test_random_property(self):
        rng = random.Random(99)
        for _ in range(25):
            packing = _random_packing(rng, rng.randint(1, 3))
            k = int(packing.offsets[1])
            repl = random_laminar_family(rng, k, packing.t)
            out = nested(packing, repl)
            assert is_t_laminar(out, packing.t)
            assert int_masks(out) == _nested_loop(packing, repl)


def _random_packing(rng, t):
    """A t-wise packing (no t points in two blocks): a random nonempty
    subset of the blocks of a t-(v,k,1) design, or for t = 1 disjoint
    k-sets of a shuffled [n]."""
    if t == 1:
        n = rng.randint(5, 9)
        k = rng.randint(2, 4)
        pts = rng.sample(range(1, n + 1), n)
        return Design.of(1, n, 1, [pts[i:i + k] for i in range(0, n - k + 1, k)])
    build = rng.choice([affine_plane, projective_plane] if t == 2 else [circle_geometry])
    design = build(rng.choice([2, 3]))
    blocks = members(design.blocks)
    return Design.of(t, design.v, 1, rng.sample(blocks, rng.randint(1, len(blocks))))


def _nested_loop(packing, repl):
    """Oracle: relabel bit by bit, block by block, keeping first sightings."""
    seen = {}
    for block in int_masks(packing.blocks):
        points = [p for p in range(packing.v) if block >> p & 1]
        for m in int_masks(repl):
            seen.setdefault(sum(1 << points[i] for i in range(repl.n) if m >> i & 1), None)
    return tuple(seen)


class TestSevenSeries:
    """The t = 2 tower's ratio at n = 7^(2^r) is the bracket series
    1 + 1/C(3,2) + 1/C(7,2) + 1/C(49,2) + ... + 1/C(n,2)."""

    def test_level_values(self):
        assert fano_tower(0)[0].ratio == Fraction(29, 21)
        assert fano_tower(1)[0].ratio == Fraction(1625, 1176)

    def test_level2_exceeds_threshold(self):
        assert fano_tower(2)[0].ratio >= Fraction(13818, 10000)

    def test_matches_bracket_shape(self):
        series = 1 + Fraction(1, 3) + Fraction(1, 21)
        assert fano_tower(0)[0].ratio == series
        assert fano_tower(1)[0].ratio == series + Fraction(1, comb(49, 2))


class TestFanoTower:
    def test_r0(self):
        rep, fam = fano_tower(0, materialize=True)
        assert rep.count_geq_t == 29
        assert len(fam) == 29
        assert is_t_laminar(fam, 2)

    def test_r1(self):
        rep, fam = fano_tower(1, materialize=True)
        assert (rep.n, rep.count_geq_t) == (49, 1625)
        assert rep.ratio == Fraction(1625, 1176)
        assert fam.count_size_geq(2) == 1625
        assert is_t_laminar(fam, 2)

    def test_r2_count_only(self):
        rep, fam = fano_tower(2)
        assert (rep.n, rep.count_geq_t) == (2401, 3981251)
        assert fam is None
        assert rep.count_geq_t == 2450 * 1625 + 1

    @pytest.mark.slow
    def test_r2_materializes(self, tmp_path, capsys):
        """`construct fano-tower --r 2 --materialize` writes the 3,981,251
        members on 2401 points, as many of each size as the recursion
        gives and no two alike, read back from the file.  About 15 s at
        a 1 GB peak RSS on a 2-core VM."""
        path = tmp_path / "r2.family"
        argv = ["construct", "fano-tower", "--r", "2", "--materialize", "--out", str(path), "--json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["count_geq_t"] == 3981251
        fam, t, _ = family_from_text(path.read_text(encoding="ascii"))
        assert (fam.n, t, len(fam)) == (2401, 2, 3981251)
        # level 0: 21 pairs, 7 lines and [7]; each level puts the last
        # into every line of the affine plane of order q (q^2 + q lines)
        # and adds the universe
        want = {2: 21, 3: 7, 7: 1}
        for q in (7, 49):
            want = {s: c * (q * q + q) for s, c in want.items()} | {q * q: 1}
        sizes = np.diff(fam.offsets)
        assert dict(zip(*(a.tolist() for a in np.unique(sizes, return_counts=True)))) == want
        for s in want:
            rows = fam.points[fam.offsets[:-1][sizes == s, None] + np.arange(s)]
            if s <= 3:  # one int64 key per row
                rows = rows @ 2401 ** np.arange(s)
            assert len(np.unique(rows, axis=0)) == want[s]

    def test_ratio_strictly_increases(self):
        ratios = [fano_tower(r)[0].ratio for r in range(4)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(r >= Fraction(29, 21) for r in ratios)

    def test_materialization_cap(self):
        with pytest.raises(CapExceeded, match="cap"):
            fano_tower(3, materialize=True)

    def test_one_cap_class(self):
        # construct and search raise the same class, which the CLI maps to exit 3
        assert CapExceeded is search.CapExceeded
        with pytest.raises(CapExceeded, match="cap"):
            search.max_laminar_exact(search.MAX_SEARCH_N + 1, 2)

    def test_report_json(self):
        rep, _ = fano_tower(1)
        doc = rep.to_json()
        assert doc["count_geq_t"] == 1625
        assert doc["formula_value"] == "1625/1"
        assert doc["ratio_decimal"].startswith("1.3818")


class TestCircleTower:
    def test_r0_counts(self):
        rep, fam = circle_tower(0, materialize=True)
        assert rep.count_geq_t == 120 + 30 + 1 == 151
        assert fam.count_size_geq(3) == 151
        assert len(fam) == 151 + 10 + 45 == 206
        assert is_t_laminar(fam, 3)

    def test_r1_count_only(self):
        rep, _ = circle_tower(1)
        assert rep.n == 82
        assert rep.count_geq_t == 738 * 151 + 1

    def test_r1_full_size(self):
        rep, fam = circle_tower(1, materialize=True)
        assert rep.count_geq_t == fam.count_size_geq(3) == 111439
        assert len(fam) == 82 + comb(82, 2) + 111439 == 114842

    def test_bracket(self):
        """The displayed t = 3 bracket 1 + 1/C(4,3) + ...: the count is
        1 + C(n,3) * bracket, the universe carried by the leading 1."""
        for r, bracket in ((0, Fraction(5, 4)), (1, Fraction(5, 4) + Fraction(1, 120))):
            rep, _ = circle_tower(r)
            assert rep.formula_value == 1 + comb(rep.n, 3) * bracket

    def test_bracket_limit_partial_sum(self):
        """The series sums to about 1.2583, not the 1.5083 sometimes
        quoted alongside the displayed formula; the level on 6562 points
        is within 1/C(6562,3) of the sum through 82 points."""
        limit = 1 + Fraction(1, 4) + Fraction(1, 120) + Fraction(1, 88560)
        assert abs(float(limit) - 1.25834) < 5e-6
        assert circle_tower(2)[0].ratio == limit + Fraction(1, comb(6562, 3))


class TestThreeSeriesReport:
    def test_r0(self):
        """The displayed t = 3 full-size formula 1 + n + C(n,2) + C(n,3) *
        bracket, bracket 5/4 on the 10-point base, equals the size of the
        materialized family."""
        rep, fam = circle_tower(0, materialize=True)
        n = rep.n
        printed_total = 1 + n + comb(n, 2) + comb(n, 3) * Fraction(5, 4)
        assert rep.count_geq_t == 151
        assert printed_total == 206 == len(fam)
        assert printed_total == n + comb(n, 2) + rep.formula_value


@pytest.mark.parametrize(
    "build,t,digest",
    [
        (lambda: fano_tower(1, materialize=True)[1], 2,
         "e1ebe4bcc2f6c759f3afd26a1262e3044eb7e7a0cc46f69d4fe733ce3e598987"),
        (lambda: circle_tower(1, materialize=True)[1], 3,
         "c70f10c8e2133eeb5f56605bd3c95bf40ca1dc55e679e508a36a0b1984f7d2ca"),
    ],
    ids=["fano-tower-1", "circle-tower-1"],
)
def test_tower_text_bytes_pinned(build, t, digest):
    """The tower files, member order included, are byte-reproducible."""
    text = family_to_text(build(), t)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def _report_digest(reports) -> str:
    text = "".join(json.dumps(rep.to_json(), sort_keys=True) + "\n" for rep in reports)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_tower_reports_pinned():
    """Every level whose report prints, byte for byte, and its count
    against each tower's own recursion: b*g + 1 with b = C(n,2)/C(m,2)
    for t = 2, and q(q^2+1)*g + 1 on q^2 + 1 points for t = 3."""
    fano = [fano_tower(r)[0] for r in range(12)]
    circle = [circle_tower(r)[0] for r in range(11)]
    assert _report_digest(fano) == (
        "be9f952513f8d77d3b0dca5cb9cfe729ddc49cbc61d09c9fac7eb74297f63817")
    assert _report_digest(circle) == (
        "912f4fc6fbb53c802521693a161d881d9d4f04fcabc760dc8d942350ec54652d")
    m, g = 7, 29
    for rep in fano:
        assert (rep.t, rep.n, rep.count_geq_t) == (2, m, g)
        m, g = m * m, comb(m * m, 2) // comb(m, 2) * g + 1
    q, g = 3, 151
    for rep in circle:
        assert (rep.t, rep.n, rep.count_geq_t) == (3, q * q + 1, g)
        q, g = q * q, q * q * (q**4 + 1) * g + 1


class TestGeneralLowerBound:
    """f(n) >= b * g(k) + 1 from a 2-(n,k,1) packing with b blocks and a
    2-laminar family of g(k) members on k points: nest it into every
    block and add the universe."""

    def test_fano_packing(self):
        f3 = Family.of(3, [*combinations(range(1, 4), 2), [1, 2, 3]])
        out = nested(projective_plane(2), f3)
        full = of_masks(7, int_masks(out) + ((1 << 7) - 1,))
        assert len(full) == 7 * 4 + 1 == 29
        assert is_t_laminar(full, 2)

    def test_projective_13_minus_blocks(self):
        # PG(2, 3): 13 points, 13 lines of 4; any 9 of them are a packing
        rng = random.Random(7)
        p = Design.of(2, 13, 1, rng.sample(members(projective_plane(3).blocks), 9))
        f4 = Family.of(4, [*combinations(range(1, 5), 2), [1, 2, 3, 4]])
        out = nested(p, f4)
        assert len(out) == 7 * p.block_count() == 63
        assert is_t_laminar(out, 2)
