import random
from fractions import Fraction
from math import comb

import pytest

from laminar.bounds import (
    BoundTable,
    CacheError,
    Frontier,
    Halfspace,
    _interval_bounds,
    _max_lp,
    frontier_update,
    load_cache,
    lp_dual_value,
    lp_primal_oracle,
    obf_table,
    projective_series,
    rat_to_decimal,
    rec_bound_audit,
    rec_bound_check,
    tail_sum,
    upper_limit_report,
)


@pytest.fixture(scope="module")
def table60():
    return obf_table(60)


@pytest.fixture(scope="module")
def table600():
    return obf_table(600)


class TestBaseValues:
    def test_base(self, table60):
        assert table60.obf(2) == 1
        assert table60.obf(3) == 4
        assert table60.obf(4) == 8

    def test_small_values(self, table60):
        assert table60.obf(5) == 13
        assert table60.obf(6) == 20
        assert table60.obf(7) == 29

    def test_nondecreasing(self, table600):
        for n in range(3, 601):
            assert table600.obf(n) >= table600.obf(n - 1)

    def test_ratio_window(self, table600):
        # n = 5 dips to 13/10 (obf(5) = 13 is exact: primal, dual and
        # the clique oracle agree), so 4/3 is only a floor from n = 6 on
        assert table600.ratio(5) == Fraction(13, 10)
        for n in range(3, 601):
            assert 1 < table600.ratio(n) <= 2
            if n != 5:
                assert table600.ratio(n) >= Fraction(4, 3)

    def test_doubling_bound(self, table600):
        for n in range(3, 601):
            assert table600.obf(n) <= 2 * comb(n, 2)


class TestPrimalDual:
    def test_dual_4_3(self, table60):
        theta3 = table60.frontier_at(3)
        assert theta3.vertices == (
            (Fraction(1), Fraction(1)),
            (Fraction(0), Fraction(4, 3)),
        )
        assert lp_dual_value(4, 3, theta3, table60) == 7

    def test_dual_4_2(self, table60):
        theta2 = table60.frontier_at(2)
        assert theta2.vertices == ((Fraction(0), Fraction(1)),)
        assert lp_dual_value(4, 2, theta2, table60) == 6

    def test_primal_4_3_and_4_2(self, table60):
        assert lp_primal_oracle(4, 3, table60) == 7
        assert lp_primal_oracle(4, 2, table60) == 6

    def test_equality_everywhere(self, table60):
        for n in range(4, 61):
            for m in range(2, n):
                p = lp_primal_oracle(n, m, table60)
                d = lp_dual_value(n, m, table60.frontier_at(m), table60)
                assert p == d, (n, m)

    def test_range_validation(self, table60):
        with pytest.raises(ValueError):
            lp_primal_oracle(4, 4, table60)
        with pytest.raises(ValueError):
            lp_dual_value(4, 1, table60.frontier_at(2), table60)


class TestFrontier:
    def test_eta4_tight_but_redundant(self, table60):
        theta3 = table60.frontier_at(3)
        theta4 = frontier_update(theta3.with_stage(3), 4, table60.obf(4))
        assert theta4.ks == (2, 3)  # eta_4 touches (0, 4/3) but does not cut

    def test_eta7_cuts(self, table60):
        assert table60.frontier_at(7).critical == (1, 2, 3, 7)
        assert table60.frontier_at(6).critical == (1, 2, 3)

    def test_critical_at_60(self, table60):
        assert table60.critical == (1, 2, 3, 7, 43)

    def test_vertices_sorted_decreasing_x(self, table600):
        for m in (3, 10, 43, 100, 600):
            f = table600.frontier_at(m)
            xs = [x for x, _ in f.vertices]
            assert xs == sorted(xs, reverse=True)
            assert xs[-1] == 0

    def test_soundness_full_rescan(self, table600):
        # every vertex of Theta_m satisfies every eta_k, k <= m
        for m in (2, 3, 7, 42, 43, 99, 300, 600):
            f = table600.frontier_at(m)
            for x, y in f.vertices:
                assert x >= 0
                for k in range(2, m + 1):
                    h = Halfspace.from_index(k, table600.obf(k))
                    assert h.holds(x, y), (m, k, x, y)

    def test_minimality_witnesses(self, table600):
        # dropping any retained k >= 2 line admits a point violating it
        from laminar.bounds import _rebuild_frontier

        f = table600.frontier_at(600)
        for drop in f.ks:
            if drop == 2:
                # y >= 1 bounds the unbounded right edge: the point
                # (X, y0) below it is feasible for the rest at large X
                continue
            ks = [k for k in f.ks if k != drop]
            cs = [c for k, c in zip(f.ks, f.cs) if k != drop]
            reduced = _rebuild_frontier(600, ks, cs)
            dropped = Halfspace.from_index(drop, table600.obf(drop))
            assert any(
                not dropped.holds(x, y) for x, y in reduced.vertices
            ), drop

    def test_stage_advance_guard(self, table60):
        with pytest.raises(ValueError):
            frontier_update(table60.frontier_at(10), 12, Fraction(1))


def _exhaustive_obf(table, n_max):
    """1 + max_m LP(n, m) by scanning every m, for 4 <= n <= n_max."""
    fronts = [None, None] + [table.frontier_at(m) for m in range(2, n_max)]
    return {
        n: 1 + max(lp_dual_value(n, m, fronts[m], table) for m in range(2, n))
        for n in range(4, n_max + 1)
    }


class TestExactMax:
    def test_matches_exhaustive_to_600(self, table600):
        for n, value in _exhaustive_obf(table600, 600).items():
            assert table600.obf(n) == value, n

    @pytest.mark.slow
    def test_matches_exhaustive_to_2000(self):
        table = obf_table(2000)
        for n, value in _exhaustive_obf(table, 2000).items():
            assert table.obf(n) == value, n

    def test_any_warm_start(self, table600):
        rng = random.Random(7)
        for n in (4, 5, 8, 43, 44, 100, 357, 600):
            want = table600.obf(n) - 1
            for m0 in {2, n - 1, rng.randint(2, n - 1)}:
                num, den, arg = _max_lp(table600, n, m0)
                assert Fraction(num, den) == want, (n, m0)
                fm = table600.frontier_at(arg)
                assert lp_dual_value(n, arg, fm, table600) == want

    def test_interval_bounds_sound(self, table600):
        # each bound is >= the exact max of LP(n, m) over its interval
        rng = random.Random(2014)
        starts = [s for s, _ in table600.frontier_log]
        for _ in range(400):
            n = rng.randint(4, 600)
            seg = rng.choice([s for s in starts if s < n])
            nxt = [s for s in starts if s > seg]
            top = min(nxt[0] - 1 if nxt else n - 1, n - 1)
            lo = rng.randint(seg, top)
            hi = rng.randint(lo, top)
            f = table600.frontier_at(hi)
            exact = max(lp_dual_value(n, m, f, table600) for m in range(lo, hi + 1))
            mono, quad = _interval_bounds(
                n, lo, hi, f, table600.obf(hi), table600._ratio_max(hi)
            )
            assert Fraction(*mono) >= exact, (n, lo, hi)
            assert quad is not None
            assert Fraction(*quad) >= exact, (n, lo, hi)

    def test_ratio_max_is_prefix_max(self, table600):
        best = Fraction(0)
        for k in range(2, 601):
            best = max(best, table600.ratio(k))
            assert Fraction(*table600._ratio_max(k)) == best, k


class TestSeriesAndTail:
    def test_tail_values(self):
        assert tail_sum(50000) == Fraction(1, 25000)
        assert tail_sum(2) == 1
        assert tail_sum(4) == Fraction(1, 2)

    def test_projective_series(self):
        assert projective_series(1).value == Fraction(4, 3)
        assert projective_series(2).value == Fraction(29, 21)
        four = projective_series(4)
        assert four.indices == (3, 7, 43, 1807)
        assert four.value == 1 + Fraction(1, 3) + Fraction(1, 21) + Fraction(
            1, 903
        ) + Fraction(1, 1631721)
        assert Fraction(138206, 100000) <= four.value <= Fraction(138207, 100000)

    def test_decimal_rendering(self):
        assert rat_to_decimal(Fraction(29, 21), 6).startswith("1.38095")
        assert rat_to_decimal(Fraction(1, 2)) == "0.5"


class TestAudits:
    def test_rec_bound_small(self, table60):
        assert rec_bound_check(table60, 4)  # 8/6 <= 1/6 + 4/3
        assert rec_bound_check(table60, 3)  # vacuous

    def test_audit_sweep(self, table600):
        assert rec_bound_audit(table600)

    def test_upper_limit_small(self, table60):
        rep = upper_limit_report(table60, 4)
        assert rep.upper_limit == Fraction(8, 6) + Fraction(1, 2) == Fraction(11, 6)


class TestCache:
    def test_roundtrip_and_idempotence(self, tmp_path):
        path = str(tmp_path / "obf.cache")
        obf_table(80, cache_path=path)
        first = open(path).read()
        t2 = obf_table(80, cache_path=path)
        assert open(path).read() == first
        assert t2.obf(80) == obf_table(80).obf(80)

    def test_extension_appends(self, tmp_path):
        path = str(tmp_path / "obf.cache")
        obf_table(50, cache_path=path)
        lines_before = open(path).read().splitlines()
        t = obf_table(90, cache_path=path)
        lines_after = open(path).read().splitlines()
        assert lines_after[: len(lines_before)] == lines_before
        assert len(lines_after) == 89
        assert t.obf(90) == obf_table(90).obf(90)

    def test_resume_preserves_frontier(self, tmp_path):
        path = str(tmp_path / "obf.cache")
        obf_table(100, cache_path=path)
        resumed = obf_table(100, cache_path=path)
        direct = obf_table(100)
        assert resumed.critical == direct.critical
        assert resumed.frontier_log == direct.frontier_log

    def test_corrupt_value_detected(self, tmp_path):
        path = str(tmp_path / "obf.cache")
        obf_table(50, cache_path=path)
        lines = open(path).read().splitlines()
        lines[0] = "2\t5/1"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CacheError, match="obf\\(2\\)"):
            load_cache(path)

    def test_gap_detected(self, tmp_path):
        path = str(tmp_path / "obf.cache")
        obf_table(50, cache_path=path)
        lines = open(path).read().splitlines()
        del lines[10]
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CacheError, match="expected n="):
            load_cache(path)

    def test_malformed_line(self, tmp_path):
        path = str(tmp_path / "obf.cache")
        with open(path, "w") as fh:
            fh.write("2\t1/1\n3\tfour\n")
        with pytest.raises(CacheError, match="line 2"):
            load_cache(path)

    def test_audit_catches_inflated_value(self, tmp_path):
        path = str(tmp_path / "obf.cache")
        obf_table(250, cache_path=path)
        lines = open(path).read().splitlines()
        # inflate obf(100) (an audited index) beyond the recursion bound
        assert lines[98].startswith("100\t")
        lines[98] = "100\t99999/1"
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(CacheError, match="ratio recursion"):
            load_cache(path)
