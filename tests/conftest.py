"""Shared generators for randomized harnesses (all seeded, deterministic),
the enumerating oracle of configuration containment, the Fraction
oracles of the bound table's ratio recursion and of LP(n, m) (primal
and dual)."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from laminar import _kernels, bounds
from laminar.setfam import Family


def members(fam: Family) -> list[tuple[int, ...]]:
    """Every member's 1-based points, read off its CSR points."""
    ends, points = fam.offsets.tolist(), (fam.points + 1).tolist()
    return [tuple(points[a:b]) for a, b in zip(ends, ends[1:])]


def int_masks(fam: Family) -> tuple[int, ...]:
    """Every member as an int mask, bit i-1 for point i, set one point
    at a time from its CSR points: the form of the plain-Python
    references."""
    ends, points = fam.offsets.tolist(), fam.points.tolist()
    return tuple(sum(1 << p for p in points[a:b]) for a, b in zip(ends, ends[1:]))


def of_masks(n: int, masks) -> Family:
    """The family with one member per int mask, bit i-1 for point i,
    read one bit at a time."""
    return Family.of(n, ([p + 1 for p in range(m.bit_length()) if m >> p & 1] for m in masks))


def contains_config_general(m, z) -> bool:
    """Oracle for contains_config on any z: some selection of z's row
    count of m's rows, in some order, holds at least as many columns of
    each type as z.  Exponential; desk-scale only."""
    need = Counter(map(tuple, z.T.tolist()))  # z's columns by type
    for rows in permutations(range(m.shape[0]), z.shape[0]):
        have = Counter(map(tuple, m[list(rows)].T.tolist()))
        if all(have[k] >= v for k, v in need.items()):
            return True
    return False


def random_family(rng: random.Random, n_cap: int = 7, size_cap: int = 12) -> Family:
    """A duplicate-free random family on a random small ground set."""
    n = rng.randint(2, n_cap)
    want = rng.randint(0, size_cap)
    masks = set()
    while len(masks) < want:
        m = rng.randint(1, (1 << n) - 1)
        masks.add(m)
        if len(masks) >= (1 << n) - 1:
            break
    return of_masks(n, sorted(masks))


def sparse_family(rng: random.Random, n: int, f_cap: int = 30, size_cap: int = 5) -> Family:
    """A duplicate-free random family on [n] of members with at most
    size_cap points, all drawn from a small pool, so that members often
    share points and few members' t-subsets outnumber the member pairs."""
    pool = rng.sample(range(1, n + 1), rng.randint(min(3, n), min(12, n)))
    sets = {
        tuple(sorted(rng.sample(pool, rng.randint(1, min(size_cap, len(pool))))))
        for _ in range(rng.randint(0, f_cap))
    }
    return Family.of(n, sorted(sets))


@pytest.fixture(params=["grouped", "blocked"])
def pair_path(request, monkeypatch):
    """Run a test on each path of the pairwise and config checks: the
    grouped one over `_kernels.shared_pairs`, forced by pricing its
    listing at zero, and the blocked one, forced by making shared_pairs
    return None.  Yields the path's name and a list that records, per
    shared_pairs call, whether it listed pairs."""
    real = _kernels.shared_pairs
    listed = []
    for cost in ("_LISTING_COST", "_ROW_COST", "_PAIR_COST"):
        monkeypatch.setattr(_kernels, cost, 0)

    def shared_pairs(points, offsets, t):
        got = real(points, offsets, t) if request.param == "grouped" else None
        listed.append(got is not None)
        return got

    monkeypatch.setattr(_kernels, "shared_pairs", shared_pairs)
    yield request.param, listed


def random_laminar_family(rng: random.Random, n: int, t: int, tries: int = 60) -> Family:
    """Greedy random t-laminar family on [n]: add subsets while legal."""
    masks: list[int] = []
    for _ in range(tries):
        cand = rng.randint(1, (1 << n) - 1)
        if cand in masks:
            continue
        ok = True
        for m in masks:
            c = m & cand
            if c.bit_count() >= t and c != m and c != cand:
                ok = False
                break
        if ok:
            masks.append(cand)
    return of_masks(n, masks)


def rec_bound_audit(table, n_max=None) -> bool:
    """Oracle: the ratio recursion obf(n)/C(n,2) <= 1/C(n,2) + max_{k<n}
    obf(k)/C(k,2) at every 3 < n <= n_max, with a running maximum, on
    Fractions; a property every computed table must have."""
    n_max = n_max or table.n_max
    running = table.ratio(2)
    for n in range(3, n_max + 1):
        r = table.ratio(n)
        if n > 3 and r > Fraction(1, comb(n, 2)) + running:
            return False
        if r > running:
            running = r
    return True


def lp_dual_value(n: int, m: int, theta_m, table) -> Fraction:
    """LP(n, m) via the two-variable dual: obf(m) + vertex minimum.

    The vertex minimum is exact because both objective coefficients are
    nonnegative and the region recedes into the nonnegative quadrant.
    """
    if not 2 <= m < n:
        raise ValueError("need 2 <= m < n")
    return table.obf(m) + Fraction(bounds._dual_min_scaled(n, m, theta_m), theta_m.scale)


def lp_primal_oracle(n: int, m: int, table) -> Fraction:
    """LP(n, m) by direct enumeration of primal basic solutions.

    After substituting b_m = 1 + b'_m the residual program has two
    constraints, so some optimum has at most two variables above zero:
    try the empty support, every single k, and every pair (k1, k2) that
    makes both constraints tight.  Independent of the dual path.
    """
    if not 2 <= m < n:
        raise ValueError("need 2 <= m < n")
    if comb(m, 2) > comb(n, 2):
        raise ValueError("infeasible: block larger than ground set")
    r1 = comb(n, 2) - comb(m, 2)
    r2 = comb(n - m, 2)
    base = table.obf(m)
    best = base
    obf = [Fraction(0)] * (m + 1)
    for k in range(2, m + 1):
        obf[k] = table.obf(k)
    for k in range(2, m + 1):
        a1, a2 = comb(k, 2), comb(k - 1, 2)
        bound = Fraction(r1, a1)
        if a2:
            bound = min(bound, Fraction(r2, a2))
        cand = base + obf[k] * bound
        if cand > best:
            best = cand
    for k1 in range(2, m + 1):
        a11, a21 = comb(k1, 2), comb(k1 - 1, 2)
        for k2 in range(k1 + 1, m + 1):
            a12, a22 = comb(k2, 2), comb(k2 - 1, 2)
            det = a11 * a22 - a12 * a21
            if det == 0:
                continue
            b1 = Fraction(r1 * a22 - a12 * r2, det)
            b2 = Fraction(a11 * r2 - a21 * r1, det)
            if b1 >= 0 and b2 >= 0:
                cand = base + obf[k1] * b1 + obf[k2] * b2
                if cand > best:
                    best = cand
    return best
