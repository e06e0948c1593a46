"""Recursive upper-bound engine for 2-laminar family sizes.

The bound obf(n) on f(n) (members of size >= 2, universe included) obeys

    obf(2) = 1,  obf(3) = 4,
    obf(n) = 1 + max_{2 <= m < n} LP(n, m),

where LP(n, m) is the optimum of a small linear program over block-size
multiplicities b_k of the maximal-set packing: maximize sum obf(k) b_k
subject to b_m >= 1, b_k >= 0, the all-pairs count
sum C(k,2) b_k <= C(n,2), and the large-block constraint
sum C(k-1,2) b_k <= C(n-m,2) + C(m-1,2).

After substituting b_m = 1 + b'_m the dual is a two-variable program

    minimize  C(n-m,2) x + (C(n,2) - C(m,2)) y
    over      Theta_m = intersection of eta_k, k <= m,

with eta_k = {C(k-1,2) x + C(k,2) y >= obf(k)}, eta_1 = {x >= 0}, so
LP(n, m) = obf(m) + (dual optimum); the additive obf(m) is the constant
produced by the substitution and is required for primal/dual agreement
(n=4, m=3: primal 7, dual minimum 3).  Almost every eta_k is redundant:
the critical indices follow 2, 3, 7, 43, 1807, ... (k -> k^2 - k + 1),
so the dual minimum is an evaluation at a handful of extreme points.

The max over m is certified, not sampled: a best-bound branch-and-bound
over intervals [lo, hi] inside each frontier segment, warm-started at
the previous step's argmax.  An interval is pruned when one of two
sound upper bounds on obf(m) + (dual minimum at m) is <= the incumbent:

  * monotone:  obf(hi) + D(lo), since obf is nondecreasing and the dual
    minimum D(m) is nonincreasing (both objective coefficients fall in
    m, and every vertex has x >= 0, y >= 1);
  * quadratic: obf(m) <= R C(m,2) with R the prefix max of
    obf(k)/C(k,2) up to hi, so for any vertex v the function
    R C(m,2) + C(n-m,2) x_v + (C(n,2)-C(m,2)) y_v bounds the objective;
    it is convex in m when R + x_v - y_v >= 0, hence maximal at an
    endpoint.

Surviving short intervals are evaluated exactly point by point.  Every
comparison runs on cross-multiplied Python integers (vertices pre-scaled
to a common denominator, rationals split into numerator and
denominator); the only inexact arithmetic in this module is the
Decimal rendering in `rat_to_decimal`.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, lcm
from typing import Callable, NamedTuple, Optional

#: exact rational scalar used throughout the bound engine
Rat = Fraction


def rat_to_decimal(value: Fraction, digits: int = 20) -> str:
    """Round an exact rational to `digits` significant decimal digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


class CacheError(RuntimeError):
    """Raised when a persisted bound table fails verification."""


@dataclass(frozen=True)
class Halfspace:
    """Constraint a*x + b*y >= c; index 1 is the special x >= 0."""

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


class Frontier:
    """Extreme points of Theta_n, the non-redundant dual feasible region.

    `ks` lists retained constraint indices >= 2 in increasing order;
    eta_1 is always implicitly retained.  Vertices run along the
    boundary in decreasing x: vertex i is the intersection of lines
    ks[i] and ks[i+1], and the last vertex sits on x = 0.  Vertices are
    also pre-scaled to a common integer denominator so objective
    minimization runs on plain integers.
    """

    __slots__ = ("n", "ks", "cs", "vertices", "scale", "scaled_pts")

    def __init__(self, n: int, ks: tuple[int, ...], cs: tuple[Fraction, ...]):
        self.n = n
        self.ks = ks
        self.cs = cs
        self.vertices = self._chain_vertices(ks, cs)
        self.scale = lcm(*(v.denominator for xy in self.vertices for v in xy))
        self.scaled_pts = tuple(
            (int(x * self.scale), int(y * self.scale)) for x, y in self.vertices
        )

    @staticmethod
    def _chain_vertices(
        ks: tuple[int, ...], cs: tuple[Fraction, ...]
    ) -> tuple[tuple[Fraction, Fraction], ...]:
        lines = [Halfspace.from_index(k, c) for k, c in zip(ks, cs)]
        verts: list[tuple[Fraction, Fraction]] = []
        for l1, l2 in zip(lines, lines[1:]):
            det = l1.a * l2.b - l2.a * l1.b
            x = Fraction(l1.c * l2.b - l2.c * l1.b, det)
            y = Fraction(l1.a * l2.c - l2.a * l1.c, det)
            verts.append((x, y))
        last = lines[-1]
        verts.append((Fraction(0), Fraction(last.c, last.b)))
        return tuple(verts)

    @property
    def critical(self) -> tuple[int, ...]:
        """Retained halfspace indices including the special eta_1."""
        return (1,) + self.ks

    def contains(self, x: Fraction, y: Fraction) -> bool:
        if x < 0:
            return False
        return all(
            Halfspace.from_index(k, c).holds(x, y) for k, c in zip(self.ks, self.cs)
        )

    def with_stage(self, n: int) -> "Frontier":
        f = Frontier.__new__(Frontier)
        f.n = n
        f.ks = self.ks
        f.cs = self.cs
        f.vertices = self.vertices
        f.scale = self.scale
        f.scaled_pts = self.scaled_pts
        return f


def _rebuild_frontier(n: int, ks: list[int], cs: list[Fraction]) -> Frontier:
    """Essential-set computation from scratch (runs only on critical steps).

    Brute force over the handful of candidate lines: collect feasible
    pairwise intersection vertices, keep k >= 3 lines tight at two or
    more of them (eta_1 and eta_2 bound unbounded edges and are always
    kept), then rebuild the canonical vertex chain.  A line that merely
    touches an existing vertex is redundant and dropped.
    """
    lines = [Halfspace.from_index(k, c) for k, c in zip(ks, cs)]
    lines.append(Halfspace.from_index(1, Fraction(0)))
    verts: set[tuple[Fraction, Fraction]] = set()
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
        if k == 2:
            retained.append((k, c))
            continue
        line = Halfspace.from_index(k, c)
        tight = sum(1 for (x, y) in verts if line.a * x + line.b * y == line.c)
        if tight >= 2:
            retained.append((k, c))
    retained.sort()
    return Frontier(n, tuple(k for k, _ in retained), tuple(c for _, c in retained))


def frontier_update(theta: Frontier, k_new: int, obf_k: Fraction) -> Frontier:
    """Advance Theta by one stage, adding eta_{k_new} only if it cuts.

    If every current vertex satisfies the new constraint (tightness
    included) the constraint is eliminated; once redundant it stays
    redundant because later regions only shrink.  With obf_k = p/q and
    vertices (xs, ys)/S the test is q (a xs + b ys) >= p S on integers.
    """
    if k_new != theta.n + 1:
        raise ValueError("stages must advance one at a time")
    a, b = comb(k_new - 1, 2), comb(k_new, 2)
    q = obf_k.denominator
    ps = obf_k.numerator * theta.scale
    if all(q * (a * xs + b * ys) >= ps for xs, ys in theta.scaled_pts):
        return theta.with_stage(k_new)
    return _rebuild_frontier(
        k_new, list(theta.ks) + [k_new], list(theta.cs) + [Fraction(obf_k)]
    )


# ---------------------------------------------------------------------------
# the bound table


class BoundTable:
    """obf values for 2 <= n <= N plus the frontier change log."""

    def __init__(self):
        self._values: list[Optional[Fraction]] = [None, None]
        self.frontier_log: list[tuple[int, tuple[int, ...]]] = []
        self._seg_starts: list[int] = []
        self._seg_frontiers: list[Frontier] = []
        # indices k where obf(k)/C(k,2) exceeds every earlier ratio, and
        # those ratios as (numerator, denominator) integer pairs
        self._rec_ks: list[int] = []
        self._rec_ratios: list[tuple[int, int]] = []

    @property
    def n_max(self) -> int:
        return len(self._values) - 1

    def obf(self, n: int) -> Fraction:
        if n < 2 or n > self.n_max or self._values[n] is None:
            raise KeyError(f"obf({n}) not in table")
        return self._values[n]

    def ratio(self, n: int) -> Fraction:
        return self.obf(n) / comb(n, 2)

    def frontier_at(self, m: int) -> Frontier:
        """Theta_m: the frontier state at the last change index <= m."""
        if m < 2:
            raise KeyError("frontiers start at stage 2")
        return self._seg_frontiers[bisect_right(self._seg_starts, m) - 1].with_stage(m)

    @property
    def critical(self) -> tuple[int, ...]:
        return self._seg_frontiers[-1].critical

    # -- construction internals -------------------------------------------

    def _append_value(self, n: int, value: Fraction):
        if n != len(self._values):
            raise ValueError("values must be appended in order")
        self._values.append(value)
        num, den = value.numerator, value.denominator * (n * (n - 1) // 2)
        recs = self._rec_ratios
        if not recs or num * recs[-1][1] > recs[-1][0] * den:
            self._rec_ks.append(n)
            recs.append((num, den))

    def _ratio_max(self, hi: int) -> tuple[int, int]:
        """max of obf(k)/C(k,2) over 2 <= k <= hi, as (numerator, denominator)."""
        return self._rec_ratios[bisect_right(self._rec_ks, hi) - 1]

    def _push_frontier(self, start: int, frontier: Frontier):
        self._seg_starts.append(start)
        self._seg_frontiers.append(frontier)
        self.frontier_log.append((start, frontier.critical))


def _dual_min_scaled(n: int, m: int, frontier: Frontier) -> int:
    """min of C(n-m,2) x + (C(n,2)-C(m,2)) y over the frontier vertices,
    times frontier.scale (so an exact integer)."""
    c1 = (n - m) * (n - m - 1) // 2
    c2 = (n * (n - 1) - m * (m - 1)) // 2
    best = None
    for xs, ys in frontier.scaled_pts:
        v = c1 * xs + c2 * ys
        if best is None or v < best:
            best = v
    return best


# ---------------------------------------------------------------------------
# certified max over m: interval branch-and-bound on integers
#
# For fixed n the objective is F(m) = obf(m) + D(m), with D(m) the dual
# minimum over the frontier segment holding m, and obf(n) = 1 + max F.
# Rationals travel as (numerator, denominator) pairs with positive
# denominators, so every comparison is one cross-multiplication.

#: intervals with at most this many points are evaluated point by point
_LEAF = 8


def _interval_bounds(
    n: int,
    lo: int,
    hi: int,
    frontier: Frontier,
    obf_hi: Fraction,
    ratio_max: tuple[int, int],
) -> tuple[tuple[int, int], Optional[tuple[int, int]]]:
    """(monotone, quadratic) upper bounds on max F(m) over lo <= m <= hi.

    `frontier` is the segment holding the whole interval and
    `ratio_max` = (P, Q) is at least every obf(k)/C(k,2), k <= hi.  The
    quadratic bound is None when no vertex makes h_v convex.
    """
    s = frontier.scale
    p_r, q_r = ratio_max
    cn2 = n * (n - 1) // 2
    a_lo, a_hi = lo * (lo - 1) // 2, hi * (hi - 1) // 2
    c1_lo, c1_hi = (n - lo) * (n - lo - 1) // 2, (n - hi) * (n - hi - 1) // 2
    c2_lo, c2_hi = cn2 - a_lo, cn2 - a_hi
    # endpoint values of h_v times Q*S: P*C(m,2)*S + Q*(c1 xs + c2 ys)
    r_lo, r_hi = p_r * a_lo * s, p_r * a_hi * s
    convex_floor = -p_r * s  # R + x_v - y_v >= 0  <=>  Q (xs - ys) >= -P S
    d_lo = None
    quad = None
    for xs, ys in frontier.scaled_pts:
        g_lo = c1_lo * xs + c2_lo * ys
        if d_lo is None or g_lo < d_lo:
            d_lo = g_lo
        if q_r * (xs - ys) >= convex_floor:
            h = max(r_lo + q_r * g_lo, r_hi + q_r * (c1_hi * xs + c2_hi * ys))
            if quad is None or h < quad:
                quad = h
    p, q = obf_hi.numerator, obf_hi.denominator
    mono = (p * s + d_lo * q, q * s)
    return mono, (None if quad is None else (quad, q_r * s))


def _max_lp(table: BoundTable, n: int, m0: int) -> tuple[int, int, int]:
    """Exact max over 2 <= m < n of LP(n, m), warm-started at m0.

    Returns (numerator, denominator, argmax).  Intervals are expanded
    best bound first and dropped once their bound is <= the incumbent,
    so the value equals that of the exhaustive scan.
    """
    values = table._values
    starts = table._seg_starts
    fronts = table._seg_frontiers

    def value_at(m: int, f: Frontier) -> tuple[int, int]:
        v = values[m]
        q = v.denominator
        return v.numerator * f.scale + _dual_min_scaled(n, m, f) * q, q * f.scale

    best_num, best_den = value_at(m0, fronts[bisect_right(starts, m0) - 1])
    best_m = m0
    heap: list[tuple[int, int, int, int, int, int]] = []

    def push(lo: int, hi: int, si: int):
        mono, quad = _interval_bounds(
            n, lo, hi, fronts[si], values[hi], table._ratio_max(hi)
        )
        num, den = mono
        if quad is not None and quad[0] * den < num * quad[1]:
            num, den = quad
        if num * best_den > best_num * den:
            # priority: floor of the bound times 2^32, an integer
            heapq.heappush(heap, (-((num << 32) // den), lo, hi, si, num, den))

    def scan(lo: int, hi: int, si: int):
        nonlocal best_num, best_den, best_m
        f = fronts[si]
        for m in range(lo, hi + 1):
            vn, vd = value_at(m, f)
            if vn * best_den > best_num * vd:
                best_num, best_den, best_m = vn, vd, m

    # one interval per frontier segment; segments start at stages >= 2
    for si, lo in enumerate(starts):
        hi = min(starts[si + 1] - 1 if si + 1 < len(starts) else n - 1, n - 1)
        if lo == hi:
            scan(lo, hi, si)
        elif lo < hi:
            push(lo, hi, si)
    while heap:
        _, lo, hi, si, num, den = heapq.heappop(heap)
        if num * best_den <= best_num * den:
            continue
        if hi - lo < _LEAF:
            scan(lo, hi, si)
            continue
        mid = (lo + hi) // 2
        push(lo, mid, si)
        push(mid + 1, hi, si)
    return best_num, best_den, best_m


def lp_dual_value(n: int, m: int, theta_m: Frontier, table: BoundTable) -> Fraction:
    """LP(n, m) via the two-variable dual: obf(m) + vertex minimum.

    The vertex minimum is exact because both objective coefficients are
    nonnegative and the region recedes into the nonnegative quadrant.
    """
    if not 2 <= m < n:
        raise ValueError("need 2 <= m < n")
    return table.obf(m) + Fraction(_dual_min_scaled(n, m, theta_m), theta_m.scale)


def lp_primal_oracle(n: int, m: int, table: BoundTable) -> Fraction:
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


# ---------------------------------------------------------------------------
# cache persistence: append-only "n<TAB>p/q" lines


def _parse_cache_line(raw: str, ln: int) -> tuple[int, Fraction]:
    try:
        n_str, v_str = raw.rstrip("\n").split("\t")
        n = int(n_str)
        if "/" in v_str:
            p, q = v_str.split("/")
            return n, Fraction(int(p), int(q))
        return n, Fraction(int(v_str))
    except (ValueError, ZeroDivisionError):
        raise CacheError(f"cache line {ln}: malformed entry {raw!r}") from None


def load_cache(path: str, audit_stride: int = 100) -> list[Fraction]:
    """Read and verify a persisted table; returns values indexed from 2.

    Verifies the base values, contiguous indices and that values never
    decrease (the branch-and-bound's monotone bound relies on it), and
    re-audits a sample of lines against the ratio recursion; any
    failure raises CacheError naming the offending line.
    """
    values: list[Fraction] = []
    # running max of obf(k)/C(k,2) as an integer pair
    run_p, run_q = 0, 1
    with open(path, "r", encoding="ascii") as fh:
        for ln, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            n, v = _parse_cache_line(raw, ln)
            expect = len(values) + 2
            if n != expect:
                raise CacheError(f"cache line {ln}: expected n={expect}, got n={n}")
            if n == 2 and v != 1:
                raise CacheError(f"cache line {ln}: obf(2) must be 1, got {v}")
            if n == 3 and v != 4:
                raise CacheError(f"cache line {ln}: obf(3) must be 4, got {v}")
            p, q = v.numerator, v.denominator
            if values and p * values[-1].denominator < values[-1].numerator * q:
                raise CacheError(
                    f"cache line {ln}: obf({n}) = {v} is below obf({n - 1})"
                )
            c = n * (n - 1) // 2
            # v/c <= 1/c + run_p/run_q, times c * q * run_q
            if n > 3 and n % audit_stride == 0 and p * run_q > q * (run_q + run_p * c):
                raise CacheError(
                    f"cache line {ln}: obf({n}) fails the ratio recursion audit"
                )
            if p * run_q > run_p * q * c:
                run_p, run_q = p, q * c
            values.append(v)
    if len(values) < 2:
        raise CacheError("cache must contain at least obf(2) and obf(3)")
    return values


def _append_cache(path: str, rows: list[tuple[int, Fraction]]):
    with open(path, "a", encoding="ascii") as fh:
        for n, v in rows:
            fh.write(f"{n}\t{v.numerator}/{v.denominator}\n")


# ---------------------------------------------------------------------------
# table construction


def obf_table(
    n_max: int,
    *,
    cache_path: Optional[str] = None,
    progress: Optional[Callable[[int], None]] = None,
    progress_every: int = 1000,
) -> BoundTable:
    """Build (or extend from cache) the bound table up to n_max.

    Each new value takes the certified max over m from `_max_lp`,
    warm-started at the previous step's argmax.
    """
    if n_max < 2:
        raise ValueError("table starts at n = 2")
    table = BoundTable()
    cached: list[Fraction] = []
    if cache_path and os.path.exists(cache_path):
        cached = load_cache(cache_path)

    frontier: Optional[Frontier] = None
    fresh: list[tuple[int, Fraction]] = []

    def install(n: int, value: Fraction, from_cache: bool):
        nonlocal frontier
        table._append_value(n, value)
        if n == 2:
            frontier = Frontier(2, (2,), (Fraction(1),))
            table._push_frontier(2, frontier)
        else:
            updated = frontier_update(frontier, n, value)
            if updated.ks != frontier.ks:
                table._push_frontier(n, updated)
            frontier = updated
        if not from_cache:
            fresh.append((n, value))
        if progress and n % progress_every == 0:
            progress(n)

    install(2, Fraction(1), from_cache=bool(cached))
    if n_max >= 3 or len(cached) >= 2:
        install(3, Fraction(4), from_cache=len(cached) >= 2)

    top = max(n_max, len(cached) + 1)
    argmax = None
    for n in range(4, top + 1):
        if n - 2 < len(cached):
            install(n, cached[n - 2], from_cache=True)
            continue
        # cold start at the newest critical index, where the argmax sits
        num, den, argmax = _max_lp(table, n, argmax or table._seg_starts[-1])
        install(n, Fraction(num + den, den), from_cache=False)
        if cache_path and len(fresh) >= 2000:
            _append_cache(cache_path, fresh)
            fresh.clear()
    if cache_path and fresh:
        _append_cache(cache_path, fresh)
        fresh.clear()
    return table


# ---------------------------------------------------------------------------
# derived reports


def tail_sum(n: int) -> Fraction:
    """sum_{k>n} 1/C(k,2) = 2/n by telescoping sum 2/(k(k-1))."""
    if n < 2:
        raise ValueError("tail starts at n = 2")
    return Fraction(2, n)


class SeriesValue(NamedTuple):
    value: Fraction
    decimal: str
    indices: tuple[int, ...]


def projective_series(terms: int) -> SeriesValue:
    """1 + sum of 1/C(k_i, 2) along k_1 = 3, k_{i+1} = k_i^2 - k_i + 1.

    These are the orders of nested hypothetical projective planes; the
    partial sums approach the limiting ratio from the bound table.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    total = Fraction(1)
    k = 3
    ks = []
    for _ in range(terms):
        ks.append(k)
        total += Fraction(1, comb(k, 2))
        k = k * k - k + 1
    return SeriesValue(total, rat_to_decimal(total), tuple(ks))


def rec_bound_check(table: BoundTable, n: int) -> bool:
    """Audit one step of the ratio recursion for the filled table."""
    if n <= 3:
        return True
    best = max(table.ratio(k) for k in range(2, n))
    return table.ratio(n) <= Fraction(1, comb(n, 2)) + best


def rec_bound_audit(table: BoundTable, n_max: Optional[int] = None) -> bool:
    """Sweep rec_bound_check over every cached n with a running maximum."""
    n_max = n_max or table.n_max
    running = table.ratio(2)
    for n in range(3, n_max + 1):
        r = table.ratio(n)
        if n > 3 and r > Fraction(1, comb(n, 2)) + running:
            return False
        if r > running:
            running = r
    return True


@dataclass(frozen=True)
class UpperLimitReport:
    n: int
    obf_n: Fraction
    ratio: Fraction
    tail: Fraction
    upper_limit: Fraction
    ratio_decimal: str
    upper_limit_decimal: str


def upper_limit_report(table: BoundTable, n: int) -> UpperLimitReport:
    """obf(n)/C(n,2) + tail_sum(n): a rigorous limsup bound on the ratio."""
    ratio = table.ratio(n)
    tail = tail_sum(n)
    limit = ratio + tail
    return UpperLimitReport(
        n=n,
        obf_n=table.obf(n),
        ratio=ratio,
        tail=tail,
        upper_limit=limit,
        ratio_decimal=rat_to_decimal(ratio),
        upper_limit_decimal=rat_to_decimal(limit),
    )
