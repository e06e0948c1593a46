import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import random_laminar_family
from laminar.construct import (
    CapExceeded,
    circle_tower,
    fano_tower,
    general_n_lower_bound,
    known_laminar_lower,
    nested,
    seven_series,
    three_bracket,
    three_series_report,
)
from laminar.geometry import greedy_packing, projective_plane
from laminar.setfam import Block, Family, is_t_laminar


class TestNested:
    def test_blocks_as_singletons(self):
        fano = projective_plane(2)
        out = nested(fano, lambda k: Family(k.size, (Block.universe(k.size),)))
        assert len(out) == 7
        assert {b.members for b in out} == {b.members for b in fano.blocks}
        assert is_t_laminar(out, 2)

    def test_blocks_with_pairs(self):
        fano = projective_plane(2)

        def repl(k):
            sets = [list(p) for p in combinations(range(1, 4), 2)] + [[1, 2, 3]]
            return Family.of(3, sets)

        out = nested(fano, repl)
        # every pair of [7] lies in exactly one block: 21 pairs + 7 blocks
        assert len(out) == 28
        assert is_t_laminar(out, 2)

    def test_affine_49_nesting_count(self):
        _, f0 = fano_tower(0, materialize=True)
        from laminar.geometry import affine_plane

        out = nested(affine_plane(7), lambda k: f0)
        assert len(out) == 56 * 29
        out_with_universe = Family(49, out.sets + (Block.universe(49),))
        assert len(out_with_universe) == 1625

    def test_rejects_non_laminar_replacement(self):
        from laminar.geometry import Design

        packing = Design(
            t=1, v=6, lam=1, blocks=Family.of(6, [[1, 2, 3], [4, 5, 6]]),
            kind="packing",
        )
        bad = Family.of(3, [[1, 2], [2, 3]])  # overlapping, incomparable
        with pytest.raises(ValueError, match="not t-laminar"):
            nested(packing, lambda k: bad)

    def test_rejects_ground_mismatch(self):
        fano = projective_plane(2)
        with pytest.raises(ValueError, match="ground size"):
            nested(fano, lambda k: Family.of(4, [[1, 2]]))

    def test_random_property(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(5, 9)
            k = rng.randint(2, min(4, n))
            t = rng.randint(1, k)
            packing = greedy_packing(n, k, t, rng.randint(0, 999))
            repl = random_laminar_family(rng, k, t)
            out = nested(packing, lambda _b: repl)
            assert is_t_laminar(out, t)


class TestSevenSeries:
    def test_level_values(self):
        assert seven_series(0) == Fraction(29, 21)
        assert seven_series(1) == Fraction(1625, 1176)

    def test_level2_exceeds_threshold(self):
        assert seven_series(2) >= Fraction(13818, 10000)

    def test_matches_bracket_shape(self):
        assert seven_series(0) == 1 + Fraction(1, 3) + Fraction(1, 21)


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

    def test_ratio_strictly_increases(self):
        ratios = [fano_tower(r)[0].ratio for r in range(4)]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert all(r >= Fraction(29, 21) for r in ratios)

    def test_materialization_cap(self):
        with pytest.raises(CapExceeded, match="cap"):
            fano_tower(2, materialize=True)

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

    def test_bracket(self):
        assert three_bracket(0) == Fraction(5, 4)
        assert three_bracket(1) == Fraction(5, 4) + Fraction(1, 120)


class TestThreeSeriesReport:
    def test_r0(self):
        rep = three_series_report(0)
        assert rep.printed_bracket == Fraction(5, 4)
        assert rep.count_geq3 == 151
        assert rep.printed_total == 206 == rep.full_size

    def test_r1(self):
        rep = three_series_report(1)
        assert rep.count_geq3 == 111439
        assert rep.printed_total == rep.full_size == 114842

    def test_discrepancy_flagged_not_asserted(self):
        rep = three_series_report(0)
        assert "1.5083" in rep.note
        assert "1.2583" in rep.note
        pair = rep.as_pair()
        assert pair[0] == 206 and pair[1] == 151

    def test_bracket_limit_partial_sum(self):
        limit = 1 + Fraction(1, 4) + Fraction(1, 120) + Fraction(1, 88560)
        assert abs(float(limit) - 1.25834) < 5e-6


class TestGeneralLowerBound:
    def test_fano_packing(self):
        fano = projective_plane(2)
        assert general_n_lower_bound(7, 3, fano) == 29

    def test_greedy_13(self):
        p = greedy_packing(13, 3, 2, 7)
        b = p.block_count()
        assert general_n_lower_bound(13, 3, p) == 4 * b + 1

    def test_rejects_full_block(self):
        p = greedy_packing(5, 5, 2, 0)
        with pytest.raises(ValueError, match="k < n"):
            general_n_lower_bound(5, 5, p)

    def test_rejects_invalid_packing(self):
        from laminar.geometry import Design

        bad = Design(
            t=2, v=5, lam=1, blocks=Family.of(5, [[1, 2, 3], [1, 2, 4]]),
            kind="packing",
        )
        with pytest.raises(ValueError, match="invalid packing"):
            general_n_lower_bound(5, 3, bad)

    def test_known_lower_values(self):
        assert known_laminar_lower(2) == 1
        assert known_laminar_lower(3) == 4
        assert known_laminar_lower(7) == 29
        assert known_laminar_lower(49) == 1625
