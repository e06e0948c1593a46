"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from conftest import lp_dual_value, lp_primal_oracle, rec_bound_audit, random_family
from laminar.bounds import obf_table, projective_series, upper_limit_report
from laminar.construct import circle_tower, fano_tower
from laminar.geometry import affine_plane, circle_geometry, is_design
from laminar.search import max_laminar_exact
from laminar.setfam import (
    contains_config,
    forbidden_matrix,
    incidence_matrix,
    is_t_laminar,
    unique_chain_check,
)


def _report(num: int, detail: str, elapsed: float, budget: float):
    line = f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s) {detail}"
    print(line, flush=True)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def table10000():
    return obf_table(10000)


def test_criterion_1_base_table_and_duality():
    t0 = time.monotonic()
    table = obf_table(60)
    assert table.obf(2) == 1
    assert table.obf(3) == 4
    assert table.obf(4) == 8
    for n in range(4, 61):
        for m in range(2, n):
            assert lp_primal_oracle(n, m, table) == lp_dual_value(
                n, m, table.frontier_at(m), table
            ), (n, m)
    _report(
        1,
        "obf base values 1/4/8; primal == dual exactly for all 4<=n<=60",
        time.monotonic() - t0,
        budget=10,
    )


def test_criterion_2_critical_set_at_10000(table10000):
    t0 = time.monotonic()
    crit = table10000.critical
    assert crit == (1, 2, 3, 7, 43, 1807)
    ks = crit[1:]
    for a, b in zip(ks, ks[1:]):
        assert b == a * a - a + 1
    _report(
        2,
        f"Theta_10000 critical set {list(crit)}; indices follow k -> k^2-k+1",
        time.monotonic() - t0,
        budget=1800,
    )


def test_criterion_3_headline_ratio_50000():
    t0 = time.monotonic()
    table = obf_table(50000)
    assert table.obf(50000) == Fraction(519989600301, 301)
    rep = upper_limit_report(table, 50000)
    assert abs(rep.ratio - Fraction(138206, 100000)) <= Fraction(1, 100000)
    assert rep.upper_limit <= Fraction(138211, 100000)
    _report(
        3,
        f"obf(50000)/C(50000,2) = {rep.ratio_decimal[:9]} (target 1.38206 +- 1e-5);"
        f" upper limit {rep.upper_limit_decimal[:9]} <= 1.38211",
        time.monotonic() - t0,
        budget=3600,
    )


def test_criterion_4_projective_series():
    t0 = time.monotonic()
    val = projective_series(4).value
    assert val == 1 + Fraction(1, 3) + Fraction(1, 21) + Fraction(1, 903) + Fraction(
        1, 1631721
    )
    assert Fraction(138206, 100000) <= val <= Fraction(138207, 100000)
    _report(
        4,
        f"4-term series = {projective_series(4).decimal[:10]} in [1.38206, 1.38207]",
        time.monotonic() - t0,
        budget=60,
    )


def test_criterion_5_fano_tower():
    t0 = time.monotonic()
    rep0, fam0 = fano_tower(0, materialize=True)
    assert rep0.count_geq_t == 29 and fam0.count_size_geq(2) == 29
    assert is_t_laminar(fam0, 2)

    rep1, fam1 = fano_tower(1, materialize=True)
    assert rep1.count_geq_t == 1625 and fam1.count_size_geq(2) == 1625
    assert rep1.ratio == Fraction(1625, 1176) >= Fraction(13818, 10000)
    assert is_t_laminar(fam1, 2)  # exhaustive pairwise check at n = 49

    rep2, _ = fano_tower(2)
    assert rep2.count_geq_t == 3981251
    big = affine_plane(49)
    assert (big.v, big.block_count()) == (2401, 2450)
    assert is_design(big)  # exhaustive 2-(2401,49,1) validation
    _report(
        5,
        "tower counts 29/1625/3981251; laminarity exhaustive to n=49;"
        " 2-(2401,49,1) design validated",
        time.monotonic() - t0,
        budget=300,
    )


def test_criterion_6_circle_geometries():
    t0 = time.monotonic()
    for q in (3, 5, 9):
        d = circle_geometry(q)
        assert d.block_count() == q * (q * q + 1)
        assert is_design(d)
    rep, fam = circle_tower(0, materialize=True)
    assert rep.count_geq_t == 151 and fam.count_size_geq(3) == 151
    assert is_t_laminar(fam, 3)
    # the displayed bracket 1 + 1/C(4,3) + 1/C(10,3) + ...: count = 1 + C(n,3) * bracket
    assert rep.formula_value == 1 + comb(10, 3) * Fraction(5, 4) == 151
    bracket1 = Fraction(5, 4) + Fraction(1, 120)
    assert circle_tower(1)[0].formula_value == 1 + comb(82, 3) * bracket1
    # the series sums to about 1.2583, not the 1.5083 sometimes quoted with it
    assert abs(float(circle_tower(2)[0].ratio) - 1.2583) < 1e-4
    _report(
        6,
        "3-(q^2+1,q+1,1) validated for q in {3,5,9}; tower r=0 has 151"
        " members of size>=3; bracket series limit ~1.2583",
        time.monotonic() - t0,
        budget=120,
    )


def test_criterion_7_equivalence_suite():
    t0 = time.monotonic()
    rng = random.Random(1234)
    families = 0
    for _ in range(210):
        fam = random_family(rng, n_cap=7, size_cap=12)
        for t in (1, 2, 3):
            lam = is_t_laminar(fam, t)
            assert lam == (
                not contains_config(incidence_matrix(fam), forbidden_matrix(t))
            )
            assert lam == unique_chain_check(fam, t)
        families += 1
    assert families >= 200
    _report(
        7,
        f"three laminarity characterizations agree on {families} random families",
        time.monotonic() - t0,
        budget=60,
    )


def test_criterion_8_exact_search(table10000):
    t0 = time.monotonic()
    frozen = {3: 4, 4: 8, 5: 13, 6: 20}
    for n, expected in frozen.items():
        res = max_laminar_exact(n, 2)
        assert res.exact and res.size == expected
        assert is_t_laminar(res.family, 2)
        assert comb(n, 2) + 1 <= res.size <= table10000.obf(n)
    res7 = max_laminar_exact(7, 2, budget_seconds=600)
    assert res7.size >= 29
    assert is_t_laminar(res7.family, 2)
    for n in range(1, 7):
        assert max_laminar_exact(n, 1, min_size=1).size == 2 * n - 1
    tag = "= 29 (exact)" if res7.exact and res7.size == 29 else f">= {res7.size}"
    _report(
        8,
        f"f(3..6) = 4/8/13/20 sandwiched; search(7,2) {tag}; classic = 2n-1",
        time.monotonic() - t0,
        budget=900,
    )


def test_criterion_9_audit(table10000):
    t0 = time.monotonic()
    assert rec_bound_audit(table10000)
    for n in range(3, table10000.n_max + 1):
        assert table10000.obf(n) <= 2 * comb(n, 2)
    _report(
        9,
        f"ratio recursion audit and obf(n) <= 2*C(n,2) hold for all n <= "
        f"{table10000.n_max}",
        time.monotonic() - t0,
        budget=300,
    )
