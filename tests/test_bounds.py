import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np
import pytest

from conftest import (
    lp_dual_value,
    lp_primal_oracle,
    rec_bound_audit,
)
from laminar import bounds
from laminar.bounds import (
    BoundTable,
    Frontier,
    _cuts,
    _horizon,
    _max_lp,
    _rebuild_frontier,
    frontier_update,
    obf_table,
    projective_series,
    rat_to_decimal,
    tail_sum,
    upper_limit_report,
)


@dataclass(frozen=True)
class Halfspace:
    """Oracle: the constraint a*x + b*y >= c on Fractions; index 1 is the
    special x >= 0."""

    k: int
    a: int
    b: int
    c: Fraction

    @classmethod
    def from_index(cls, k: int, obf_k: Fraction) -> "Halfspace":
        if k == 1:
            return cls(1, 1, 0, Fraction(0))
        return cls(k, comb(k - 1, 2), comb(k, 2), Fraction(obf_k))

    def holds(self, x: Fraction, y: Fraction) -> bool:
        return self.a * x + self.b * y >= self.c


@pytest.fixture(scope="module")
def table60():
    return obf_table(60)


@pytest.fixture(scope="module")
def table600():
    return obf_table(600)


@pytest.fixture(scope="module")
def table2000():
    # crosses the one-stage segments 1802-1807
    return obf_table(2000)


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
        p, q = table60.obf(4).numerator, table60.obf(4).denominator
        # eta_4 touches (0, 4/3) but does not cut, and a rebuild drops it
        assert not _cuts(theta3, 4, p, q)
        assert frontier_update(theta3, 4, p, q).ks == (2, 3)

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
        f = table600.frontier_at(600)
        for drop in f.ks:
            if drop == 2:
                # y >= 1 bounds the unbounded right edge: the point
                # (X, y0) below it is feasible for the rest at large X
                continue
            ks = [k for k in f.ks if k != drop]
            cs = [c for k, c in zip(f.ks, f.cs) if k != drop]
            reduced = _rebuild_frontier(ks, cs)
            dropped = Halfspace.from_index(drop, table600.obf(drop))
            assert any(
                not dropped.holds(x, y) for x, y in reduced.vertices
            ), drop



def _rebuild_frontier_fractions(ks, cs):
    """Oracle: the essential-set rebuild on Fraction vertices.

    Returns the retained (k, obf(k)) pairs and the vertex chain.
    """
    lines = [Halfspace.from_index(k, c) for k, c in zip(ks, cs)]
    lines.append(Halfspace.from_index(1, Fraction(0)))
    verts = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            l1, l2 = lines[i], lines[j]
            det = l1.a * l2.b - l2.a * l1.b
            if det == 0:
                continue
            x = Fraction(l1.c * l2.b - l2.c * l1.b, det)
            y = Fraction(l1.a * l2.c - l2.a * l1.c, det)
            if x >= 0 and all(l.holds(x, y) for l in lines):
                verts.add((x, y))
    retained = []
    for k, c in zip(ks, cs):
        line = Halfspace.from_index(k, c)
        if k == 2 or sum(1 for x, y in verts if line.a * x + line.b * y == line.c) >= 2:
            retained.append((k, c))
    retained.sort()
    chain = [Halfspace.from_index(k, c) for k, c in retained]
    pts = []
    for l1, l2 in zip(chain, chain[1:]):
        det = l1.a * l2.b - l2.a * l1.b
        pts.append(
            (Fraction(l1.c * l2.b - l2.c * l1.b, det), Fraction(l1.a * l2.c - l2.a * l1.c, det))
        )
    pts.append((Fraction(0), chain[-1].c / chain[-1].b))
    return retained, tuple(pts)


class TestIntegerRebuild:
    def test_matches_fraction_rebuild_to_2000(self, table2000):
        changes = [s for s, _ in table2000.frontier_log if s > 2]
        assert 1802 in changes and 1807 in changes
        for n in changes:
            prev = table2000.frontier_at(n - 1)
            ks = [*prev.ks, n]
            cs = [*prev.cs, (table2000.obf(n).numerator, table2000.obf(n).denominator)]
            got = _rebuild_frontier(ks, cs)
            want, verts = _rebuild_frontier_fractions(ks, [Fraction(*c) for c in cs])
            assert [(k, Fraction(*c)) for k, c in zip(got.ks, got.cs)] == want, n
            assert got.vertices == verts, n
            assert got.scale == lcm(*(v.denominator for xy in verts for v in xy)), n
            assert got.critical == table2000.frontier_at(n).critical

    def test_touching_line_dropped(self):
        # eta_4 (obf 8) only touches the vertex (0, 4/3) of eta_2, eta_3
        cs = [(1, 1), (4, 1), (8, 1)]
        got = _rebuild_frontier([2, 3, 4], cs)
        want, verts = _rebuild_frontier_fractions([2, 3, 4], [Fraction(*c) for c in cs])
        assert got.ks == (2, 3) and [k for k, _ in want] == [2, 3]
        assert got.vertices == verts == ((1, 1), (0, Fraction(4, 3)))


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

    def test_ratio_max_is_prefix_max(self, table600):
        best = Fraction(0)
        for k in range(2, 601):
            best = max(best, table600.ratio(k))
            assert Fraction(*table600._ratio_max(k)) == best, k
            # the vertex on x = 0 is (0, best), so a new record cuts it
            assert table600.frontier_at(k).vertices[-1] == (0, best), k
        assert set(table600._rec_ks) <= {s for s, _ in table600.frontier_log}


def _brute_horizon(a, b, c, n0):
    """Scan k = n0, n0+1, ... for the first P(k) < 0, past every real root."""
    # every real root has |root| <= 1 + max(|b|, |c|)
    limit = max(n0, 0) + 2 + max(abs(b), abs(c))
    for k in range(n0, limit + 1):
        if (a * k + b) * k + c < 0:
            return k - 1
    return None


def _issued(n_max, name):
    """obf_table(n_max) and (*args, E) for every E that the horizon
    function `name` returned while it was built, args after the table."""
    issued = []
    issue = getattr(bounds, name)

    def record(table, *args, **kwargs):
        e = issue(table, *args, **kwargs)
        issued.append((*args, e))
        return e

    setattr(bounds, name, record)
    try:
        table = obf_table(n_max)
    finally:
        setattr(bounds, name, issue)
    return table, issued


def _binom2(k):
    return k * (k - 1) // 2


def _g(k, m, x, y):
    return _binom2(k - m) * x + (_binom2(k) - _binom2(m)) * y


def _warm_start(table, m0):
    """k -> F_k(m0) = LP(k, m0) on Fractions, cached."""
    vertices = table.frontier_at(m0).vertices
    cache = {}

    def f_m0(k):
        if k not in cache:
            cache[k] = table.obf(m0) + min(_g(k, m0, x, y) for x, y in vertices)
        return cache[k]

    return f_m0


def _prefix_ratio_max(table):
    """r[m] = max of obf(k)/C(k,2) over 2 <= k <= m, on Fractions."""
    r = [Fraction(0)] * 2
    for m in range(2, table.n_max + 1):
        r.append(max(r[-1], table.ratio(m)))
    return r


def _assert_exact(candidates, holds, first, e, span=300):
    """Some candidate holds at every step of [first, min(E, first + span)]
    and at E; when E is finite, each one that holds at E + 1 fails at some
    step <= E."""
    top = first + span if e is None else min(e, first + span)
    window = [*range(first, top + 1), *([] if e is None or e <= top else [e])]
    assert any(all(holds(c, k) for k in window) for c in candidates)
    if e is not None:
        for c in candidates:
            if holds(c, e + 1):
                assert not all(holds(c, k) for k in range(first, e + 1))


def _assert_below_warm_start(table, f, f_m0, ks, m_lo, m_hi):
    """LP(k, m) <= F_k(m0) at every k in ks and m_lo <= m <= min(m_hi, k - 1),
    on Fractions.  A float grid only selects the cells not clear by 1e-3,
    and each of those is compared exactly; returns how many were."""
    if not len(ks):
        return 0
    obf = np.array([float(table.obf(m)) for m in range(m_lo, m_hi + 1)])
    kk = np.asarray(ks, dtype=np.float64)[:, None]
    mm = np.arange(m_lo, m_hi + 1, dtype=np.float64)[None, :]
    d = np.min(
        [((kk - mm) * (kk - mm - 1) / 2 * float(x) + (kk * (kk - 1) - mm * (mm - 1)) / 2 * float(y))
         for x, y in f.vertices],
        axis=0,
    )
    f0 = np.array([float(f_m0(k)) for k in ks])
    close = (obf + d > f0[:, None] - 1e-3) & (mm < kk)
    for i, j in np.argwhere(close):
        k, m = ks[int(i)], m_lo + int(j)
        assert lp_dual_value(k, m, f, table) <= f_m0(k), (k, m)
    return int(close.sum())


def _per_step_table(n_max, max_lp=_max_lp):
    """Oracle: the table built with one `max_lp` call per step and the
    cut test wherever the argmax moved or the cut horizon has passed,
    as `obf_table` built it before windows."""
    table = BoundTable()
    frontier = Frontier((2,), ((1, 1),))
    table._append_value(2, 1, 1)
    table._push_frontier(2, frontier)

    def install(n, p, q, uncut):
        nonlocal frontier
        table._append_value(n, p, q)
        if not uncut and _cuts(frontier, n, p, q):
            frontier = frontier_update(frontier, n, p, q)
            table._push_frontier(n, frontier)

    install(3, 4, 1, False)
    argmax = None
    horizons = bounds._Horizons()
    for n in range(4, n_max + 1):
        m0 = argmax or table._seg_starts[-1]
        num, den, argmax = max_lp(table, n, m0, horizons)
        g = gcd(num, den)
        end = horizons.no_cut
        install(n, (num + den) // g, den // g, argmax == m0 and (end is None or n <= end))
    return table


def _table_digest(table):
    """sha256 of every value as "n<TAB>p/q" and every frontier segment as
    "start<TAB>critical indices", one line each."""
    h = hashlib.sha256()
    for n in range(2, table.n_max + 1):
        h.update(f"{n}\t{table._num[n]}/{table._den[n]}\n".encode())
    for s, crit in table.frontier_log:
        h.update(f"{s}\t{' '.join(map(str, crit))}\n".encode())
    return h.hexdigest()


class TestHorizons:
    def test_horizon_matches_brute_force(self):
        rng = random.Random(1406)
        cases = [
            (0, 0, 0, 5), (0, 3, -15, 5), (0, -3, 15, 5), (0, -3, 14, 5),
            (1, -10, 25, 0), (1, -10, 25, 5), (1, -10, 25, 6),  # double root 5
            (-1, 10, -25, 5), (-2, 20, -50, 5),  # concave double root: P(n0) = 0
            (1, -11, 30, 5), (1, -11, 30, 6), (1, -11, 30, 2),  # roots 5, 6
            (4, -20, 24, 0),  # roots 2, 3: nothing strictly between
            (4, -22, 24, 0),  # roots 1.5, 4
            (-1, 0, 100, -10), (-1, 0, 100, 10), (-1, 0, 99, 0),
            (2, 1, 0, -1), (3, 0, -1, 0),
        ]
        for _ in range(3000):
            a = rng.choice([0, rng.randint(-6, 6)])
            cases.append((a, rng.randint(-300, 300), rng.randint(-900, 900), rng.randint(-40, 60)))
        for _ in range(300):
            # integer double roots and P(n0) = 0 at an integer root
            a, r, s = rng.choice([-3, -1, 1, 2]), rng.randint(-20, 40), rng.randint(-20, 40)
            cases.append((a, -a * (r + s), a * r * s, rng.choice([r, s, r - 1, s + 1])))
            cases.append((a, -2 * a * r, a * r * r, rng.choice([r, r - 3, r + 2])))
        for a, b, c, n0 in cases:
            assert _horizon(a, b, c, n0) == _brute_horizon(a, b, c, n0), (a, b, c, n0)

    def test_horizon_far_roots(self):
        r = 10**12
        # (k - r)(k - r - 5): nonnegative up to r, negative until r + 5
        assert _horizon(1, -(2 * r + 5), r * (r + 5), 10) == r
        assert _horizon(-1, 2 * r - 7, -r * (r - 7), r - 7) == r  # -(k - r)(k - r + 7)
        assert _horizon(-3, 0, 3 * r * r, 0) == r
        assert _horizon(-3, 0, 3 * r * r + 1, 0) == r  # root just above r
        assert _horizon(-3, 0, 3 * r * r - 1, 0) == r - 1  # root just below r
        assert _horizon(7, -14 * r, 7 * r * r, 0) is None  # double root
        assert _horizon(0, -1, r, 0) == r
        assert _horizon(1, -(2 * r + 1), r * (r + 1), 0) is None  # roots r, r + 1

    def test_issued_horizons_hold_to_3000(self):
        """Each seed horizon E issued from step n is sound and exact.

        Sound: at every step n <= k <= min(E, n + 300) the seed's
        exhaustive max of LP(k, m), computed with Fractions, is at most
        LP(k, m0).  Exact: the one-vertex bounds, rebuilt here on
        Fractions, include one that holds at every step of that window
        (and at E), and when E is finite every one of them fails at some
        step <= E + 1.
        """
        table, issued = _issued(3000, "_seed_horizon")
        assert len(issued) > 50 and any(e is None for *_, e in issued)
        ratio_max = _prefix_ratio_max(table)
        exact_checks = 0
        for n, lo, hi, si, m0, e in issued:
            f = table.frontier_at(lo)
            assert table.frontier_at(hi) is f and not lo <= m0 <= hi
            f_m0 = _warm_start(table, m0)
            top = n + 300 if e is None else min(e, n + 300)
            ks = list(range(n, top + 1))
            exact_checks += _assert_below_warm_start(table, f, f_m0, ks, lo, hi)

            # the one-vertex bounds: monotone, and quadratic where convex
            candidates = []
            r = ratio_max[hi]
            for x, y in f.vertices:
                candidates.append((x, y, [(table.obf(hi), lo)]))
                if r + x - y >= 0:
                    candidates.append((x, y, [(r * _binom2(lo), lo), (r * _binom2(hi), hi)]))

            def holds(c, k):
                x, y, terms = c
                return all(alpha + _g(k, a, x, y) <= f_m0(k) for alpha, a in terms)

            _assert_exact(candidates, holds, n, e)
        assert exact_checks > 0  # the near ties, next to m0, were compared exactly

    def test_tail_horizons_hold_to_3000(self):
        """Each tail horizon is sound and exact while it is in use.

        A tail horizon issued at step n for the tail (c, k-1] is in use up
        to the step before the next one is issued, which is at most E.  At
        every step k of that window, every m of the tail has LP(k, m) <=
        LP(k, m0) on Fractions.  Exact: some convex vertex's quadratic bound
        at m = c + 1 and at m = k - 1, rebuilt on Fractions, holds from
        step c + 2 on, and when E is finite each one fails by E + 1.
        """
        table, issued = _issued(3000, "_tail_horizon")
        assert len(issued) > 5 and any(e is not None and e > 10**4 for *_, e in issued)
        ratio_max = _prefix_ratio_max(table)
        ends = [n for n, *_ in issued[1:]] + [table.n_max + 1]
        exact_checks = 0
        for (n, c, si, m0, e), end in zip(issued, ends):
            assert c == n - 1 and not c < m0 < n
            f = table._seg_frontiers[si]
            assert table.frontier_at(c) is f
            assert e is None or end - 1 <= e, (n, e, end)
            f_m0 = _warm_start(table, m0)
            exact_checks += _assert_below_warm_start(
                table, f, f_m0, list(range(c + 2, end)), c + 1, end - 2
            )

            r = ratio_max[n - 1]
            candidates = [(x, y) for x, y in f.vertices if r + x - y >= 0]

            def holds(v, k):
                x, y = v
                return (
                    r * _binom2(c + 1) + _g(k, c + 1, x, y) <= f_m0(k)
                    and r * _binom2(k - 1) + (k - 1) * y <= f_m0(k)
                )

            _assert_exact(candidates, holds, c + 2, e)
        assert exact_checks > 0

    def test_cut_horizons_hold_to_3000(self):
        """Each skipped cut test would have found no cut, and each cut
        horizon is exact: some vertex u of Theta_{m0}, rebuilt on Fractions,
        keeps 1 + obf(m0) + g_u(k, m0) <= C(k-1,2) x_v + C(k,2) y_v at every
        vertex v over the window and at E, and when E is finite each u fails
        by E + 1."""
        tested = set()
        cuts = bounds._cuts

        def record(theta, k, p, q):
            tested.add(k)
            return cuts(theta, k, p, q)

        bounds._cuts = record
        try:
            table, issued = _issued(3000, "_cut_horizon")
        finally:
            bounds._cuts = cuts
        skipped = [k for k in range(4, 3001) if k not in tested]
        assert len(skipped) > 2900
        for k in skipped:
            obf_k = table.obf(k)
            assert not cuts(table.frontier_at(k - 1), k, obf_k.numerator, obf_k.denominator), k

        assert len(issued) > 5 and any(e is None for *_, e in issued)
        for n, si, m0, e in issued:
            f = table._seg_frontiers[si]
            assert table.frontier_at(n - 1) is f

            def holds(u, k):
                value = 1 + table.obf(m0) + _g(k, m0, *u)
                return all(value <= _binom2(k - 1) * x + _binom2(k) * y for x, y in f.vertices)

            _assert_exact(table.frontier_at(m0).vertices, holds, n, e)

    def test_kept_horizons_equal_fresh_ones_to_3000(self, monkeypatch):
        """Every seed that `_Horizons` issues while obf_table runs to
        N = 3000 gets the horizon a fresh `_seed_horizon` gives on that
        table, also where it is issued again and reuses kept options."""
        issue = bounds._seed_horizon
        reissued = 0

        def checked(table, n, lo, hi, si, m0, kept=None):
            nonlocal reissued
            reissued += bool(kept)
            e = issue(table, n, lo, hi, si, m0, kept=kept)
            assert e == issue(table, n, lo, hi, si, m0), (n, lo, hi, si, m0)
            return e

        monkeypatch.setattr(bounds, "_seed_horizon", checked)
        obf_table(3000)
        assert reissued > 50

    def test_warm_cut_keeps_horizons_to_3000(self, monkeypatch):
        """The warm start cut to the vertices from the first one minimal at
        the issuing step gives the horizon of the full warm start, on
        every seed and tail issued to N = 3000."""
        table, seeds = _issued(3000, "_seed_horizon")
        _, tails = _issued(3000, "_tail_horizon")
        warm = bounds._warm_start
        assert any(len(warm(table, m0, n)) < len(warm(table, m0)) for n, *_, m0, _e in seeds)
        monkeypatch.setattr(bounds, "_warm_start", lambda table, m0, n=None: warm(table, m0))
        for n, lo, hi, si, m0, e in seeds:
            assert bounds._seed_horizon(table, n, lo, hi, si, m0) == e, (n, lo, hi)
        for n, c, si, m0, e in tails:
            assert bounds._tail_horizon(table, n, c, si, m0) == e, (n, c)

    def test_seeds_partition_every_step(self, table2000, monkeypatch):
        """Driven as obf_table drives it, across the segments 1802-1807:
        at every step the seeds, the tail and m0 partition [2, n-1], each
        piece inside one frontier segment, the tail's horizon has not
        passed, and the bounded intervals are the seeds past their
        horizon, each held with the horizon n - 1.  The seeds and their
        horizons are recorded from `_issue`: a call that issues no half
        adds a seed, whose horizon is its entry on `pending` (None when
        it has none), and a new key drops every seed."""
        issued = {}
        key = [None]
        calls = [0]
        issue = bounds._Horizons._issue

        def recorded(self, table, n, lo, hi, si, fails):
            if self.key != key[0]:
                key[0] = self.key
                issued.clear()
            issued.pop((lo, hi, si), None)
            calls[0] += 1
            before = calls[0]
            issue(self, table, n, lo, hi, si, fails)
            if calls[0] == before:
                issued[lo, hi, si] = next(
                    (e for e, *seed in self.pending if seed == [lo, hi, si]), None)

        monkeypatch.setattr(bounds._Horizons, "_issue", recorded)
        starts = [s for s, _ in table2000.frontier_log]
        horizons = bounds._Horizons()
        m0 = None
        for n in range(4, 2001):
            m0 = m0 or starts[bisect_right(starts, n - 1) - 1]
            num, den, argmax = _max_lp(table2000, n, m0, horizons)
            assert Fraction(num, den) == table2000.obf(n) - 1, n
            last = bisect_right(starts, n - 1) - 1
            seeds = list(issued)
            tail = [(horizons.cut + 1, n - 1, last)] if horizons.cut < n - 1 else []
            pieces = sorted(seeds + tail + [(m0, m0, None)])
            assert pieces[0][0] == 2 and pieces[-1][1] == n - 1, n
            assert all(a[1] + 1 == b[0] for a, b in zip(pieces, pieces[1:])), n
            for lo, hi, si in seeds + tail:
                assert table2000.frontier_at(lo) is table2000.frontier_at(hi)
                assert table2000.frontier_at(lo) is table2000._seg_frontiers[si]
            assert horizons.tail is None or horizons.tail >= n, n
            failed = [s for s, e in issued.items() if e is not None and e < n]
            assert all(issued[s] == n - 1 for s in failed), n
            assert sorted(horizons.intervals(table2000, n, m0)) == sorted(failed), n
            m0 = argmax

    def test_bounded_leaves_fail_their_bound(self, monkeypatch):
        """Driven one step at a time to N = 3000: every interval that
        `intervals` returns at step n is a leaf whose bound fails at n
        (`_seed_horizon` gives n - 1), so `_max_lp` evaluates no point
        that a horizon covers.  `_seed_horizon` is called again on the
        finished table, which holds the same values up to n - 1."""
        returned = []
        intervals = bounds._Horizons.intervals

        def recorded(self, table, n, m0):
            got = intervals(self, table, n, m0)
            returned.extend((n, lo, hi, si, m0) for lo, hi, si in got)
            return got

        monkeypatch.setattr(bounds._Horizons, "intervals", recorded)
        table = _per_step_table(3000)
        assert returned
        for n, lo, hi, si, m0 in returned:
            assert hi - lo < bounds._LEAF, (n, lo, hi)
            assert bounds._seed_horizon(table, n, lo, hi, si, m0) == n - 1, (n, lo, hi)

    def test_one_exact_evaluation_per_step(self, monkeypatch):
        # the counts are deterministic: at N = 10000 a step outside the
        # windows evaluates the warm start and almost never scans a leaf
        # or tests a cut; almost every step sits in a window, with no
        # call to _max_lp and no exact evaluation from scratch
        calls = {"exact": 0, "cuts": 0, "max_lp": 0, "horizon": 0}

        def count(key, fn):
            def counted(*args):
                calls[key] += 1
                return fn(*args)

            return counted

        for key, name in (
            ("exact", "_dual_min_scaled"),
            ("cuts", "_cuts"),
            ("max_lp", "_max_lp"),
            ("horizon", "_horizon"),
        ):
            monkeypatch.setattr(bounds, name, count(key, getattr(bounds, name)))
        kernel = bounds._window
        windowed = 0

        def window(table, m0, lo, hi, shared):
            nonlocal windowed
            before = calls["exact"]
            kernel(table, m0, lo, hi, shared)
            assert calls["exact"] == before, (lo, hi)
            windowed += hi - lo + 1

        monkeypatch.setattr(bounds, "_window", window)
        obf_table(10000)
        steps = 10000 - 3
        # only the 28 steps outside the windows evaluate exactly: the warm
        # start at each, and 17 points of the leaves that fail.  Issuing
        # the horizons solves 985 quadratics (2426 with no kept options
        # and the full warm start)
        assert calls == {"exact": 45, "cuts": 13, "max_lp": 28, "horizon": 985}
        assert windowed == steps - 28

    @pytest.mark.parametrize("n_max", [3000, 20000])
    def test_windows_match_per_step_oracle(self, n_max):
        """Windows change nothing: the values, the ratio records and the
        frontier_log equal those of one `_max_lp` call per step."""
        table = obf_table(n_max)
        want = _per_step_table(n_max)
        assert table._num == want._num and table._den == want._den
        assert table._rec_ks == want._rec_ks and table._rec_ratios == want._rec_ratios
        assert table.frontier_log == want.frontier_log

    def test_windows_are_idle_steps(self, monkeypatch):
        """Driven one step at a time to N = 20000: at every step of a
        window `_max_lp` returns the warm start, `intervals` returns
        nothing and the horizons stay as they were; the step after a
        window that ends before N bounds a leaf, changes them or is past
        the cut horizon, so each window is as long as it may be."""
        n_max = 20000
        until = 0
        idle = []
        leaves = []
        intervals = bounds._Horizons.intervals

        def recorded(self, table, n, m0):
            leaves[:] = intervals(self, table, n, m0)
            return leaves

        monkeypatch.setattr(bounds._Horizons, "intervals", recorded)

        def state(h):
            return h.key, h.cut, h.tail, h.no_cut, list(h.pending)

        def checked_max_lp(table, n, m0, horizons):
            nonlocal until
            before = state(horizons)
            num, den, argmax = _max_lp(table, n, m0, horizons)
            after = state(horizons)
            if n <= until:
                assert after == before and not leaves and argmax == m0, n
                idle.append(n)
                return num, den, argmax
            if until and n == until + 1:
                # this step bounds a leaf, changes the horizons or tests for a cut
                end = before[3]
                assert after != before or leaves or (end is not None and n > end), n
            end = horizons.no_cut
            if argmax == m0 and (end is None or n <= end):
                until = horizons.until(n, n_max)
            return num, den, argmax

        _per_step_table(n_max, checked_max_lp)
        assert len(idle) > 0.99 * (n_max - 3)

    def test_far_table_digest(self):
        """The values and frontier_log of obf_table(100000), which the
        horizons carry across about 98k steps from one reset."""
        table = obf_table(100000)
        assert _table_digest(table) == "6ff301b3c637235c8d9e9f7f638433830e7a0f750433d3489bddd5b5a580272f"
        assert table.obf(100000) == Fraction(2446055802901537, 353976)

    @pytest.mark.slow
    def test_million_table_digest(self):
        """obf_table(10**6) by the same digest: about 1 s on a 2-core VM,
        a third of it formatting the digest's million lines."""
        table = obf_table(1000000)
        assert _table_digest(table) == "5ff5e160de31b19e6e183c3c602eb467e2d5762fb126ac57faf2c172fd1d67b4"
        assert table.obf(1000000) == Fraction(4991997099704113, 7224)
        assert table.critical == (1, 2, 3, 7, 43, 1807)


def _window_exact(table, n, m0):
    """1 + LP(n, m0) in lowest terms from one exact evaluation, as
    `obf_table` computed a window step before the finite differences."""
    f0 = table.frontier_at(m0)
    q0 = table._den[m0]
    num = table._num[m0] * f0.scale + bounds._dual_min_scaled(n, m0, f0) * q0
    den = q0 * f0.scale
    g = gcd(num, den)
    return (num + den) // g, den // g


class TestWindowKernel:
    """`_window` appends 1 + LP(n, m0) by finite differences."""

    def test_windows_match_exact_evaluation_to_20000(self, monkeypatch):
        kernel = bounds._window
        runs = []

        def window(table, m0, lo, hi, shared):
            runs.append((m0, lo, hi))
            kernel(table, m0, lo, hi, shared)

        monkeypatch.setattr(bounds, "_window", window)
        table = obf_table(20000)
        steps = [(n, m0) for m0, lo, hi in runs for n in range(lo, hi + 1)]
        assert len(steps) > 0.99 * (20000 - 3)
        for n, m0 in steps:
            assert (table._num[n], table._den[n]) == _window_exact(table, n, m0), n
        # one int object per distinct denominator
        dens = [table._den[n] for n, _ in steps]
        assert len(set(map(id, dens))) == len(set(dens))

    @pytest.mark.parametrize("m0, hi", [(3, 50), (7, 200), (43, 2000)])
    def test_kernel_follows_the_minimal_vertex(self, table2000, m0, hi):
        """One run from m0 + 1 to hi passes every step at which the
        minimal vertex of Theta_{m0} moves on (for m0 = 43 at 87, 259 and
        1807), so each vertex is the minimum somewhere in it, and matches
        the exact evaluation at every step."""
        part = BoundTable()
        part._num, part._den = table2000._num[: m0 + 1], table2000._den[: m0 + 1]
        part._seg_starts, part._seg_frontiers = table2000._seg_starts, table2000._seg_frontiers
        bounds._window(part, m0, m0 + 1, hi, {})
        assert part.n_max == hi
        pts = table2000.frontier_at(m0).scaled_pts
        minimal = set()
        for n in range(m0 + 1, hi + 1):
            assert (part._num[n], part._den[n]) == _window_exact(table2000, n, m0), n
            c1, c2 = comb(n - m0, 2), comb(n, 2) - comb(m0, 2)
            values = [c1 * x + c2 * y for x, y in pts]
            minimal.add(values.index(min(values)))
        assert minimal == set(range(len(pts)))


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
        assert rec_bound_audit(table60, 4)  # 8/6 <= 1/6 + 4/3
        assert rec_bound_audit(table60, 3)  # vacuous

    def test_audit_sweep(self, table600):
        assert rec_bound_audit(table600)

    def test_upper_limit_small(self, table60):
        rep = upper_limit_report(table60, 4)
        assert rep.upper_limit == Fraction(8, 6) + Fraction(1, 2) == Fraction(11, 6)
