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

The max over m is certified, not sampled.  For an interval
lo <= m <= hi inside one frontier segment there are two sound upper
bounds on F_n(m) = LP(n, m) = obf(m) + D(m), with D(m) the dual minimum
at m:

  * monotone:  obf(hi) + D(lo), since obf is nondecreasing and the dual
    minimum D(m) is nonincreasing (both objective coefficients fall in
    m, and every vertex has x >= 0, y >= 1);
  * quadratic: obf(m) <= R C(m,2) with R the prefix max of
    obf(k)/C(k,2) up to hi, so for any vertex v the function
    R C(m,2) + C(n-m,2) x_v + (C(n,2)-C(m,2)) y_v bounds the objective;
    it is convex in m when R + x_v - y_v >= 0, hence maximal at an
    endpoint.

They are certified once across many steps, not at every n.  Step n
starts at the warm start m0, the previous step's argmax, and covers
the other m with seeds: each frontier segment with m0 cut out, the
open last segment only up to a cut c.  A seed carries a horizon E, the
last step up to which one vertex v's bound on it (the monotone one, or
the quadratic one at both endpoints) stays <= F_k(m0), and it is
skipped, with no arithmetic, at every step n <= E.  Skipping is sound
whichever m wins: no m of such a seed has F_k(m) > F_k(m0), so none
could raise the max.  For fixed v and a vertex u of Theta_{m0} both
sides are quadratics in k with integer coefficients (2 C(k-m,2) =
k^2 - (2m+1) k + m(m+1)), so E is exact: a root from `math.isqrt`,
settled by evaluation at E and E + 1.  A seed whose horizon has passed
is issued again from that step, split in halves down to the leaf width
_LEAF where its bound fails.  A leaf whose bound fails at step n gets
the horizon n - 1: step n evaluates each of its points exactly, and
step n + 1 issues it again.  So the max at step n is the warm start
and a point-by-point scan of the leaves that fail at n.  Seeds wait
in a heap keyed by E, so a step touches only those that expire.

The tail (c, n-1] of the open segment has a horizon too.  Its
monotone bound needs obf(n-1), not yet known at issue, but with R the
largest ratio so far the quadratic bound R C(m,2) + g_v(k, m) is
convex in m where R + x_v - y_v >= 0, so its values at m = c + 1 and
at m = k - 1, R C(k-1,2) + (k-1) y_v, bound the whole tail, and both
are quadratics in k.  When the tail's horizon passes, the tail
becomes a seed and c moves to n - 1.  The cut test has one as well:
a step whose argmax is m0 gives obf(k) = 1 + F_k(m0), at most
1 + obf(m0) + g_u(k, m0) for each vertex u of Theta_{m0}, so one u
whose quadratic stays <= C(k-1,2) x_v + C(k,2) y_v at every vertex v
of the newest frontier proves that eta_k cuts nothing there.  Every
pending horizon is dropped, and every seed issued again, when m0
changes or the frontier gains a segment, since the comparisons assume
both fixed.  That covers R too: the frontier's vertex on x = 0 is
(0, R), so a value with a larger ratio cuts it and starts a segment.
But a seed issued again at step n re-solves only the options (a
vertex v with one bound) whose kept horizon is below n: one kept at
E >= n holds on [n, E] and fails at E + 1.  Seeds and tails pair each
bound only with the u from the first one minimal at n on, since the
minimal vertex only moves up as k grows (`_window`).  Neither changes
a horizon.  The cut test keeps every u: each is an option there.

Most steps then need no call to `_max_lp` at all: they form windows.
After a step whose argmax is m0 and whose cut test the cut horizon
covers, `_Horizons.until` gives the last step at which nothing is
due: the least of the first pending seed horizon, the tail's and the
cut test's, capped at the table's end.  A leaf that failed at step n
holds the horizon n - 1, so no window follows that step.  Each step n
of the window takes obf(n) = 1 + LP(n, m0) and is appended with no
call to `_max_lp` and no cut or record test.  That is exact: at such a
step `intervals` returns nothing and changes no state, so `_max_lp`
would return LP(n, m0) with argmax m0; the cut horizon proves that
eta_n cuts nothing, and a value with a new ratio record would cut the
vertex (0, R).  The step after the window goes through `_max_lp`, so
the horizons evolve as before.  At N = 10^4 only 28 of the 9997 steps call
`_max_lp`.  The kernel `_window` runs the window's steps by finite
differences: with m0 and Theta_{m0} fixed, each vertex's numerator of
1 + LP(n, m0) is an integer quadratic in n, so a step costs a few
integer additions, a gcd and two divisions, with no exact evaluation
from scratch.  A run of window steps ends at each progress step.

The table stores each obf(n) as an integer pair (numerator,
denominator) in lowest terms; a Fraction is made only when a caller
asks for one (`BoundTable.obf`, the reports).  Window steps keep one
int object per distinct denominator: 129 for the first 10^6 values.
Frontier vertices are homogeneous integer points (X, Y, D) while the
frontier is rebuilt, and pre-scaled to a common denominator after, so
every comparison runs on cross-multiplied Python integers.  The only
inexact arithmetic in this module is the Decimal rendering in
`rat_to_decimal`.  No float or fixed-width integer is used: the
products in the bounds outgrow 64 bits as N grows.

`obf_table` builds the table in memory, cold, on every call; it
reads and writes no file.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from typing import BinaryIO, Callable, NamedTuple, Optional


def rat_to_decimal(value: Fraction, digits: int = 20) -> str:
    """Round an exact rational to `digits` significant decimal digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _line(k: int, p: int, q: int) -> tuple[int, int, int]:
    """eta_k with obf(k) = p/q as integers (A, B, C): A x + B y >= C."""
    return q * (k - 1) * (k - 2) // 2, q * k * (k - 1) // 2, p


def _meet(l1: tuple[int, int, int], l2: tuple[int, int, int]) -> Optional[tuple[int, int, int]]:
    """Intersection of two boundary lines as a homogeneous point (X, Y, D),
    meaning (X/D, Y/D), in lowest terms with D > 0; None if parallel."""
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    d = a1 * b2 - a2 * b1
    if d == 0:
        return None
    x, y = c1 * b2 - c2 * b1, a1 * c2 - a2 * c1
    if d < 0:
        x, y, d = -x, -y, -d
    g = gcd(x, y, d)
    return x // g, y // g, d // g


class Frontier:
    """Extreme points of Theta_n, the non-redundant dual feasible region.

    `ks` lists retained constraint indices >= 2 in increasing order and
    `cs` their obf values as (numerator, denominator) pairs; eta_1 is
    always implicitly retained.  Vertices run along the boundary in
    decreasing x: vertex i is the intersection of lines ks[i] and
    ks[i+1], and the last vertex sits on x = 0.  They are stored
    pre-scaled to a common integer denominator, `scaled_pts` over
    `scale`, so objective minimization runs on plain integers.
    """

    __slots__ = ("ks", "cs", "scale", "scaled_pts")

    def __init__(self, ks: tuple[int, ...], cs: tuple[tuple[int, int], ...]):
        self.ks = ks
        self.cs = cs
        lines = [_line(k, p, q) for k, (p, q) in zip(ks, cs)]
        pts = [_meet(l1, l2) for l1, l2 in zip(lines, lines[1:])]
        pts.append(_meet(lines[-1], (1, 0, 0)))
        # each D is the lcm of its point's two reduced denominators
        self.scale = lcm(*(d for _, _, d in pts))
        self.scaled_pts = tuple(
            (x * (self.scale // d), y * (self.scale // d)) for x, y, d in pts
        )

    @property
    def vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The vertices as exact rationals (x, y)."""
        s = self.scale
        return tuple((Fraction(xs, s), Fraction(ys, s)) for xs, ys in self.scaled_pts)

    @property
    def critical(self) -> tuple[int, ...]:
        """Retained halfspace indices including the special eta_1."""
        return (1,) + self.ks


def _rebuild_frontier(ks: list[int], cs: list[tuple[int, int]]) -> Frontier:
    """Essential-set computation from scratch (runs only on critical steps).

    Brute force over the handful of candidate lines: collect feasible
    pairwise intersection vertices, keep k >= 3 lines tight at two or
    more of them (eta_1 and eta_2 bound unbounded edges and are always
    kept), then rebuild the canonical vertex chain.  A line that merely
    touches an existing vertex is redundant and dropped.  Vertices are
    homogeneous integer points (X, Y, D) in lowest terms, so equal
    vertices coincide in the set and every test is on integers.
    """
    lines = [_line(k, p, q) for k, (p, q) in zip(ks, cs)]
    lines.append((1, 0, 0))
    verts: set[tuple[int, int, int]] = set()
    for i, l1 in enumerate(lines):
        for l2 in lines[i + 1 :]:
            pt = _meet(l1, l2)
            if pt is None:
                continue
            x, y, d = pt
            if x >= 0 and all(a * x + b * y >= c * d for a, b, c in lines):
                verts.add(pt)
    retained = [
        (k, pq)
        for k, pq, (a, b, c) in zip(ks, cs, lines)
        if k == 2 or sum(a * x + b * y == c * d for x, y, d in verts) >= 2
    ]
    retained.sort()
    return Frontier(tuple(k for k, _ in retained), tuple(pq for _, pq in retained))


def _cuts(theta: Frontier, k: int, p: int, q: int) -> bool:
    """Whether eta_k with obf(k) = p/q strictly cuts a vertex of theta.

    With vertices (xs, ys)/S the vertex holds when q (a xs + b ys) >= p S.
    """
    a, b = (k - 1) * (k - 2) // 2, k * (k - 1) // 2
    ps = p * theta.scale
    for xs, ys in theta.scaled_pts:
        if q * (a * xs + b * ys) < ps:
            return True
    return False


def frontier_update(theta: Frontier, k: int, p: int, q: int) -> Frontier:
    """Theta with eta_k added, obf(k) = p/q in lowest terms.

    `obf_table` calls this only where `_cuts` finds a strict cut, which
    always retains eta_k.  A constraint that cuts nothing is dropped by
    the rebuild (no two eta lines are parallel, so it is tight at one
    vertex at most); once redundant it stays redundant because later
    regions only shrink.
    """
    return _rebuild_frontier([*theta.ks, k], [*theta.cs, (p, q)])


# ---------------------------------------------------------------------------
# the bound table


class BoundTable:
    """obf values for 2 <= n <= N plus the frontier change log.

    obf(n) is stored as the integer pair _num[n]/_den[n] in lowest terms
    with a positive denominator; `obf(n)` makes the Fraction on request.
    """

    def __init__(self):
        self._num: list[int] = [0, 0]
        self._den: list[int] = [1, 1]
        self._seg_starts: list[int] = []
        self._seg_frontiers: list[Frontier] = []
        # indices k where obf(k)/C(k,2) exceeds every earlier ratio, and
        # those ratios as (numerator, denominator) integer pairs
        self._rec_ks: list[int] = []
        self._rec_ratios: list[tuple[int, int]] = []

    @property
    def n_max(self) -> int:
        return len(self._num) - 1

    def obf(self, n: int) -> Fraction:
        if not 2 <= n <= self.n_max:
            raise KeyError(f"obf({n}) not in table")
        return Fraction(self._num[n], self._den[n])

    def ratio(self, n: int) -> Fraction:
        return self.obf(n) / comb(n, 2)

    def frontier_at(self, m: int) -> Frontier:
        """Theta_m: the frontier state at the last change index <= m."""
        if m < 2:
            raise KeyError("frontiers start at stage 2")
        return self._seg_frontiers[bisect_right(self._seg_starts, m) - 1]

    @property
    def frontier_log(self) -> list[tuple[int, tuple[int, ...]]]:
        """(first stage, critical indices) of every frontier segment."""
        return [(s, f.critical) for s, f in zip(self._seg_starts, self._seg_frontiers)]

    @property
    def critical(self) -> tuple[int, ...]:
        return self._seg_frontiers[-1].critical

    # -- construction internals -------------------------------------------

    def _append_value(self, n: int, p: int, q: int):
        """Append obf(n) = p/q, given in lowest terms with q > 0."""
        if n != len(self._num):
            raise ValueError("values must be appended in order")
        self._num.append(p)
        self._den.append(q)
        den = q * (n * (n - 1) // 2)
        recs = self._rec_ratios
        if not recs or p * recs[-1][1] > recs[-1][0] * den:
            self._rec_ks.append(n)
            recs.append((p, den))

    def _ratio_max(self, hi: int) -> tuple[int, int]:
        """max of obf(k)/C(k,2) over 2 <= k <= hi, as (numerator, denominator)."""
        return self._rec_ratios[bisect_right(self._rec_ks, hi) - 1]

    def _push_frontier(self, start: int, frontier: Frontier):
        self._seg_starts.append(start)
        self._seg_frontiers.append(frontier)


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


def _lp_value(table: BoundTable, n: int, m: int, f: Frontier) -> tuple[int, int]:
    """LP(n, m) = obf(m) + (dual minimum at m) as an unreduced
    (numerator, denominator) pair; f is the frontier segment holding m."""
    q, s = table._den[m], f.scale
    return table._num[m] * s + _dual_min_scaled(n, m, f) * q, q * s


def _window(table: BoundTable, m0: int, lo: int, hi: int, shared: dict[int, int]):
    """Append obf(n) = 1 + LP(n, m0) for every window step lo <= n <= hi.

    In a window m0, obf(m0) = p0/q0 and the vertices (x_v, y_v)/S of
    Theta_{m0} are fixed, so with g_v(n) = C(n-m0,2) x_v +
    (C(n,2) - C(m0,2)) y_v and D(n) = min_v g_v(n)

        obf(n) = ((p0 + q0) S + q0 D(n)) / (q0 S).

    Each numerator N_v(n) = (p0 + q0) S + q0 g_v(n) is an integer
    quadratic in n, with first difference q0 ((n - m0) x_v + n y_v) and
    second difference q0 (x_v + y_v); a step costs two additions per
    tracked vertex, a gcd against the fixed q0 S and two divisions.
    Denominators share one int object each through `shared`.

    The minimum is tracked, not searched.  Vertex i and vertex i + 1
    both lie on eta_k, k = ks[i+1], whose points with decreasing x run
    along (-k, k-2); so from vertex i to i + 1 the objective changes by
    a positive multiple of (k-2) c2 - k c1, with c1 = C(n-m0,2) and
    c2 = C(n,2) - C(m0,2) > 0.  Its sign is that of (k-2)/k - r with
    r = c1/c2 = (n-m0-1)/(n+m0-1).  The ks increase along the chain, so
    the values along it fall, then rise (the ray past the last vertex,
    x = 0, only rises): a vertex no worse than the next one is a
    minimum.  r only grows with n, so an edge that falls keeps falling
    and the first minimal vertex only moves to higher indices.  The
    kernel keeps that vertex and the next one by finite differences and
    moves on while the next one is no worse.
    """
    nums, dens = table._num, table._den
    f0 = table.frontier_at(m0)
    pts = f0.scaled_pts
    q0, s = dens[m0], f0.scale
    base, den, a0 = (nums[m0] + q0) * s, q0 * s, m0 * (m0 - 1) // 2

    def at(v: int, n: int) -> tuple[int, int, int]:
        # N_v(n) and its first and second differences at n; past the last
        # vertex a copy of the last one plus 1, which never wins
        if v == len(pts):
            num, d, dd = at(v - 1, n)
            return num + 1, d, dd
        x, y = pts[v]
        g = (n - m0) * (n - m0 - 1) // 2 * x + (n * (n - 1) // 2 - a0) * y
        return base + q0 * g, q0 * ((n - m0) * x + n * y), q0 * (x + y)

    v = 0
    num, d, dd = at(0, lo)
    nxt, nd, ndd = at(1, lo)
    add_num, add_den, share = nums.append, dens.append, shared.setdefault
    for n in range(lo, hi + 1):
        while nxt <= num:
            v += 1
            num, d, dd = nxt, nd, ndd
            nxt, nd, ndd = at(v + 1, n)
        g = gcd(num, den)
        add_num(num // g)
        q = den // g
        add_den(share(q, q))
        num += d
        d += dd
        nxt += nd
        nd += ndd


# ---------------------------------------------------------------------------
# the certified max over m: seeds and their horizons

#: a seed whose bound fails is split down to at most this many points
_LEAF = 8


def _horizon(a: int, b: int, c: int, n0: int) -> Optional[int]:
    """Largest e >= n0 - 1 with P(k) = a k^2 + b k + c >= 0 at every
    integer n0 <= k <= e; None when P(k) >= 0 at every k >= n0.

    The root comes from `math.isqrt` and is then settled by exact
    evaluation at e and e + 1, so e is exact.
    """

    def p(k: int) -> int:
        return (a * k + b) * k + c

    if p(n0) < 0:
        return n0 - 1
    if a == 0:
        return None if b >= 0 else c // -b
    if a > 0 and 2 * a * n0 + b >= 0:
        return None  # P is nondecreasing from n0 on
    d = b * b - 4 * a * c
    if d < 0:
        return None  # a > 0 here: P has no real root
    s = isqrt(d)
    # the root that ends the run from n0: the smaller one when a > 0
    # (n0 lies before the vertex), the larger one when a < 0
    e = (-b - s) // (2 * a) if a > 0 else (b + s + 1) // (-2 * a)
    while p(e) < 0:
        e -= 1
    if p(e + 1) >= 0:
        return None  # a > 0 and no integer falls strictly between the roots
    return e


def _maxmin(n0: int, options, kept: Optional[list] = None) -> Optional[int]:
    """Largest E >= n0 - 1 such that, for one option, lo(k) <= hi(k) at
    every n0 <= k <= E for each of its pairs (lo, hi) of quadratics in k
    (as `_plus_g` gives them); None when one option holds at every
    k >= n0.  An option stops at its first pair that cannot beat the
    best so far.  `kept`, the options' horizons from an earlier issue
    (empty at the first), is updated in place; only the options kept
    below n0 are solved, and one that stops early stays below."""
    kept = [] if kept is None else kept
    if None in kept:
        return None
    best = max([n0 - 1, *kept])
    for i, pairs in enumerate(options):
        if i == len(kept):
            kept.append(n0 - 1)
        elif kept[i] >= n0:
            continue
        e = None
        for (a1, b1, c1, d1), (a2, b2, c2, d2) in pairs:
            h = _horizon(a2 * d1 - a1 * d2, b2 * d1 - b1 * d2, c2 * d1 - c1 * d2, n0)
            if h is not None and (e is None or h < e):
                e = h
                if e <= best:
                    break
        else:
            # no pair stopped it: e is the option's exact horizon
            kept[i] = e
            if e is None:
                return None
            best = e
    return best


def _plus_g(p: int, q: int, a: int, s: int, x: int, y: int) -> tuple[int, int, int, int]:
    """p/q + g_v(k, a) for the vertex v = (x, y)/s as a quadratic
    (A, B, C, D) in k, meaning (A k^2 + B k + C)/D with D > 0."""
    # 2 g_v(k, a) s = (k^2 - (2a+1) k + a(a+1)) x + (k^2 - k - a(a-1)) y
    return (
        q * (x + y),
        -q * ((2 * a + 1) * x + y),
        q * (a * (a + 1) * x - a * (a - 1) * y) + 2 * s * p,
        2 * q * s,
    )


def _warm_start(
    table: BoundTable, m0: int, n: Optional[int] = None
) -> list[tuple[int, int, int, int]]:
    """obf(m0) + g_u(k, m0) for each vertex u of Theta_{m0}; F_k(m0) is
    the least of these quadratics.  With n, only those from the first
    one minimal at n on, one of which is minimal at every k >= n."""
    f0 = table.frontier_at(m0)
    p0, q0 = table._num[m0], table._den[m0]
    warm = [_plus_g(p0, q0, m0, f0.scale, x, y) for x, y in f0.scaled_pts]
    if n is None:
        return warm
    at_n = [(a * n + b) * n + c for a, b, c, _ in warm]
    return warm[at_n.index(min(at_n)):]


def _seed_horizon(
    table: BoundTable, n: int, lo: int, hi: int, si: int, m0: int,
    kept: Optional[list] = None,
) -> Optional[int]:
    """How long the seed [lo, hi] of segment si may be skipped from step n.

    Returns the largest E >= n - 1 such that, for one vertex v of the
    segment, the monotone bound obf(hi) + g_v(k, lo) or (when h_v is
    convex) both endpoint values of the quadratic bound stay <= F_k(m0)
    at every step n <= k <= E; None when one does at every k >= n.
    Here g_v(k, m) = C(k-m,2) x_v + (C(k,2) - C(m,2)) y_v, so with u a
    vertex of Theta_{m0} each comparison is an integer quadratic in k,
    solved by `_horizon`.  `kept` is as for `_maxmin`.
    """

    def options():
        # built on first use: an option kept as None settles the seed first
        f = table._seg_frontiers[si]
        s = f.scale
        warm = _warm_start(table, m0, n)
        p_r, q_r = table._ratio_max(hi)
        # each bound as its terms (p, q, a): p/q plus g_v(k, a)
        mono = ((table._num[hi], table._den[hi], lo),)
        quad = ((p_r * lo * (lo - 1), 2 * q_r, lo), (p_r * hi * (hi - 1), 2 * q_r, hi))
        for xv, yv in f.scaled_pts:
            for terms in (mono, quad) if q_r * (xv - yv) >= -p_r * s else (mono,):
                yield ((_plus_g(*t, s, xv, yv), u) for t in terms for u in warm)

    return _maxmin(n, options(), kept)


def _tail_horizon(table: BoundTable, n: int, c: int, si: int, m0: int) -> Optional[int]:
    """How long the tail (c, k-1] of the open segment si may be skipped
    from step n, as `_seed_horizon` gives it for a seed.

    Only the quadratic bound applies, since obf(k-1) is not known yet:
    with R the largest ratio so far, R C(m,2) + g_v(k, m) is convex in m
    for R + x_v - y_v >= 0, so its values at m = c + 1 and at m = k - 1,
    R C(k-1,2) + (k-1) y_v, bound the tail, and both are quadratics in k.
    The tail is empty before step c + 2.
    """
    f = table._seg_frontiers[si]
    s = f.scale
    warm = _warm_start(table, m0, n)
    p_r, q_r = table._ratio_max(n - 1)
    a = c + 1

    def options():
        for xv, yv in f.scaled_pts:
            if q_r * (xv - yv) >= -p_r * s:
                ends = (
                    _plus_g(p_r * a * (a - 1), 2 * q_r, a, s, xv, yv),
                    # R C(k-1,2) + (k-1) y_v
                    (p_r * s, 2 * q_r * yv - 3 * p_r * s, 2 * (p_r * s - q_r * yv), 2 * q_r * s),
                )
                yield ((end, u) for end in ends for u in warm)

    return _maxmin(max(n, c + 2), options())


def _cut_horizon(table: BoundTable, n: int, si: int, m0: int) -> Optional[int]:
    """Largest E >= n - 1 such that at every step n <= k <= E whose
    argmax is m0, eta_k cuts no vertex of segment si's frontier; None
    when that holds at every k >= n.

    Such a step has obf(k) = 1 + F_k(m0) <= 1 + obf(m0) + g_u(k, m0) for
    each vertex u of Theta_{m0}, so one u with that right side <=
    C(k-1,2) x_v + C(k,2) y_v at every vertex v certifies it.
    """
    f = table._seg_frontiers[si]
    # C(k-1,2) x_v + C(k,2) y_v = g_v(k, 1)
    eta = [_plus_g(0, 1, 1, f.scale, x, y) for x, y in f.scaled_pts]
    warm = _warm_start(table, m0)
    return _maxmin(n, ((((a, b, c + d, d), v) for v in eta) for a, b, c, d in warm))


def _seeds(starts: list[int], top: int, m0: int):
    """(lo, hi, si) for every frontier segment, clipped to m <= top, with
    the warm start m0 cut out."""
    for si in range(bisect_right(starts, top)):
        lo = starts[si]
        hi = min(starts[si + 1] - 1, top) if si + 1 < len(starts) else top
        if lo <= m0 <= hi:
            if lo < m0:
                yield lo, m0 - 1, si
            if m0 < hi:
                yield m0 + 1, hi, si
        else:
            yield lo, hi, si


class _Horizons:
    """The seeds of consecutive steps, with horizons.

    A seed (lo, hi, si) with horizon E may be skipped at every step
    n <= E.  `pending` is a heap of the seeds with a finite horizon, a
    leaf that failed at step n with E = n - 1; a seed that may be
    skipped at every step is kept nowhere.  The open last segment is a seed only up to `cut`; the
    tail (cut, n-1] is skipped up to step `tail`, and `_cuts` up to step
    `no_cut` at steps whose argmax is m0.  All of it holds for the `key`
    (m0, index of the open segment).  `kept` maps each seed issued, as
    (lo, hi, si, m0), to its options' horizons.
    """

    __slots__ = ("key", "cut", "tail", "no_cut", "pending", "kept")

    def __init__(self):
        self.key = None
        self.cut = 0
        self.tail: Optional[int] = None
        self.no_cut: Optional[int] = None
        self.pending: list[tuple[int, int, int, int]] = []
        self.kept: dict = {}

    def _issue(
        self, table: BoundTable, n: int, lo: int, hi: int, si: int,
        fails: list[tuple[int, int, int]],
    ):
        """Add the seed [lo, hi] of segment si with its horizon from step
        n.  A seed whose bound fails at n is split in two halves while it
        is wider than _LEAF; a leaf that fails is added to `fails`."""
        m0 = self.key[0]
        kept = self.kept.setdefault((lo, hi, si, m0), [])
        e = _seed_horizon(table, n, lo, hi, si, m0, kept=kept)
        if e is not None and e < n and hi - lo >= _LEAF:
            mid = (lo + hi) // 2
            self._issue(table, n, lo, mid, si, fails)
            self._issue(table, n, mid + 1, hi, si, fails)
            return
        if e is not None:
            heapq.heappush(self.pending, (e, lo, hi, si))
            if e < n:
                fails.append((lo, hi, si))

    def intervals(self, table: BoundTable, n: int, m0: int) -> list[tuple[int, int, int]]:
        """The leaves (lo, hi, si) whose bound fails at step n.

        Every seed past its horizon is issued again from n; the due
        entries are all taken off the heap first, since a leaf that
        fails goes back with a horizon below n.
        """
        last = bisect_right(table._seg_starts, n - 1) - 1
        moved = (m0, last) != self.key
        due = []
        if moved:
            self.key, self.pending = (m0, last), []
            self.no_cut = _cut_horizon(table, n, last, m0)
            due.extend(_seeds(table._seg_starts, n - 1, m0))
        elif self.tail is not None and self.tail < n:
            # the tail's horizon has passed: it becomes a seed
            due.append((self.cut + 1, n - 1, last))
            moved = True
        if moved:
            self.cut = n - 1
            self.tail = _tail_horizon(table, n, self.cut, last, m0)
        while self.pending and self.pending[0][0] < n:
            due.append(heapq.heappop(self.pending)[1:])
        fails: list[tuple[int, int, int]] = []
        for lo, hi, si in due:
            self._issue(table, n, lo, hi, si, fails)
        return fails

    def until(self, n: int, top: int) -> int:
        """The last step up to `top` at which `intervals`, having just run
        for step n, would change nothing and return no interval: no seed,
        tail or cut horizon has passed by then.  It is below n + 1 when
        a leaf failed at n."""
        ends = [e for e in (self.tail, self.no_cut) if e is not None]
        if self.pending:
            ends.append(self.pending[0][0])
        return min(top, *ends)


def _max_lp(
    table: BoundTable, n: int, m0: int, horizons: Optional[_Horizons] = None
) -> tuple[int, int, int]:
    """Exact max over 2 <= m < n of LP(n, m), warm-started at m0.

    Returns (numerator, denominator, argmax).  The horizons certify
    LP(n, m) <= LP(n, m0) for every m outside the leaves that fail at
    n, so the warm start and a scan of those leaves give the value of
    the exhaustive scan.  `horizons` keeps the seeds and their horizons
    from one step to the next; without one, the seeds are issued for
    step n alone.
    """
    fronts = table._seg_frontiers
    best_num, best_den = _lp_value(table, n, m0, table.frontier_at(m0))
    best_m = m0
    for lo, hi, si in (horizons or _Horizons()).intervals(table, n, m0):
        f = fronts[si]
        for m in range(lo, hi + 1):
            vn, vd = _lp_value(table, n, m, f)
            if vn * best_den > best_num * vd:
                best_num, best_den, best_m = vn, vd, m
    return best_num, best_den, best_m


# ---------------------------------------------------------------------------
# table construction

#: obf_table calls `progress(n)` at every computed n divisible by this
_PROGRESS_EVERY = 1000


def obf_table(n_max: int, progress: Optional[Callable[[int], None]] = None) -> BoundTable:
    """The bound table up to max(n_max, 3), computed cold in memory.

    Each value takes the certified max over m from `_max_lp`,
    warm-started at the previous step's argmax, and is tested for a cut
    unless its argmax is the warm start and the cut horizon covers the
    step.  After such a step the steps up to `_Horizons.until` form a
    window: `_window` appends 1 + LP(n, m0) for each by finite
    differences, with no call to `_max_lp` and no cut or record test.
    The table always holds the base values obf(2) and obf(3).
    `progress(n)` is called at every n divisible by _PROGRESS_EVERY.
    """
    if n_max < 2:
        raise ValueError("table starts at n = 2")
    top = max(n_max, 3)
    table = BoundTable()
    frontier = Frontier((2,), ((1, 1),))
    table._append_value(2, 1, 1)
    table._push_frontier(2, frontier)

    def install(n: int, p: int, q: int, uncut: bool = False):
        nonlocal frontier
        table._append_value(n, p, q)
        # a strict cut always retains eta_n, so the frontier changes
        if not uncut and _cuts(frontier, n, p, q):
            frontier = frontier_update(frontier, n, p, q)
            table._push_frontier(n, frontier)

    install(3, 4, 1)
    argmax = None
    horizons = _Horizons()
    until = 0  # the last step of the current window
    shared: dict[int, int] = {}
    n = 4
    while n <= top:
        if n <= until:
            # window steps: argmax m0 and no cut, hence no ratio record;
            # each run ends at the next progress step
            last = min(until, n + (-n) % _PROGRESS_EVERY)
            _window(table, m0, n, last, shared)
            n = last
        else:
            # cold start at the newest critical index, where the argmax sits
            m0 = argmax or table._seg_starts[-1]
            num, den, argmax = _max_lp(table, n, m0, horizons)
            g = gcd(num, den)
            end = horizons.no_cut
            uncut = argmax == m0 and (end is None or n <= end)
            install(n, (num + den) // g, den // g, uncut)
            if uncut:
                until = horizons.until(n, top)
        if progress and n % _PROGRESS_EVERY == 0:
            progress(n)
        n += 1
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


# ---------------------------------------------------------------------------
# the reader and writer of the retired bound cache, append-only
# "n<TAB>p/q" lines.  Nothing in the package calls them: the benchmark
# tracer (perfbench/tracer.py) wraps `load_cache` and `_append_cache` by
# name, and they go when it stops (ROADMAP item 7).

#: row (n, p, q) -> b"n\tp/q\n"
_cache_line = b"%d\t%d/%d\n".__mod__


class _CacheLines:
    """How many non-blank lines a cache file holds; not the lines."""

    __slots__ = ("count",)

    def __init__(self, path: str):
        with open(path, "rb") as fh:
            self.count = sum(map(bool, map(bytes.strip, fh)))

    def __len__(self) -> int:
        return self.count


def load_cache(path: str) -> _CacheLines:
    """The cache at path; its length is the count of non-blank lines.
    Neither parses nor checks a line.  OSError from opening or reading
    the file propagates."""
    return _CacheLines(path)


def _append_cache(fh: BinaryIO, rows: list[tuple[int, int, int]]):
    """Write rows (n, p, q) as cache lines and flush them to the OS."""
    fh.writelines(map(_cache_line, rows))
    fh.flush()
