"""Exact maximum t-laminar families on small ground sets.

t-laminarity is a pairwise condition, so the members of size >= s form
a t-laminar family exactly when they induce a clique in the
compatibility graph on candidate blocks (A ~ B iff |A n B| < t or one
contains the other).  Maximum families are therefore maximum cliques.

The search first takes every universal block (compatible with all
others, e.g. every block of size <= t and the ground set), then uses
that S_n permutes the remaining blocks with the size classes as
orbits: one branch-and-bound per size, rooted at a single
representative block, with greedy-coloring upper bounds, bit-parallel
candidate sets and the incumbent carried from one size to the next.
This settles t = 2 up to n = 10 (f(8) = 37, f(9) = 49 = obf(9) in
about 0.3 s, f(10) = 61 = obf(10) in about 5 s) and t = 3 up to n = 9
(71 on [8], 103 on [9]), and runs best-effort under a time budget
beyond that, downgrading the result to a certified lower bound when
the budget runs out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import BoundTable
from .setfam import Block, Family, _bit_positions

_BUDGET_CHECK_MASK = 0xFFF


@dataclass(frozen=True)
class CompatGraph:
    """Compatibility graph over all blocks of [n] with size >= min_size."""

    n: int
    t: int
    min_size: int
    vertices: tuple[Block, ...]
    adj: tuple[int, ...]  # bitset rows, irreflexive and symmetric

    @classmethod
    def build(cls, n: int, t: int, min_size: int) -> "CompatGraph":
        masks = [m for m in range(1, 1 << n) if m.bit_count() >= min_size]
        masks.sort(key=lambda m: (m.bit_count(), m))
        adj = [0] * len(masks)
        for i, a in enumerate(masks):
            for j in range(i + 1, len(masks)):
                b = masks[j]
                c = a & b
                if c.bit_count() < t or c == a or c == b:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        return cls(
            n=n,
            t=t,
            min_size=min_size,
            vertices=tuple(Block(n, m) for m in masks),
            adj=tuple(adj),
        )


class _Budget(Exception):
    pass


def _induced(adj: Sequence[int], verts: list[int]) -> list[int]:
    """Adjacency rows of the subgraph induced on verts, vertex verts[i] as i."""
    pos = {v: i for i, v in enumerate(verts)}
    keep = sum(1 << v for v in verts)
    return [sum(1 << pos[u] for u in _bit_positions(adj[v] & keep)) for v in verts]


def _max_clique(
    adj: list[int], deadline: Optional[float], floor: int = 0
) -> tuple[int, int, bool, int]:
    """(best size, best vertex bitset, exact?, nodes) for an adjacency bitset list.

    Only cliques with more than ``floor`` vertices count: the search
    prunes against ``floor`` from the first node and returns
    ``(floor, 0, ...)`` when it proves (or, out of budget, has not
    found) none that large.  ``nodes`` is the number of expansions.

    Tomita-style expansion: vertices ordered by degree descending,
    greedy coloring on each candidate set, branches visited in reverse
    color order so the color bound prunes early.
    """
    n = len(adj)
    if n == 0:
        return floor, 0, True, 0
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    radj = _induced(adj, order)

    # greedy warm start for the initial bound
    best, best_mask = floor, 0
    greedy, cur = 0, 0
    cand = (1 << n) - 1
    while cand:
        v = (cand & -cand).bit_length() - 1
        greedy |= 1 << v
        cur += 1
        cand &= radj[v]
    if cur > best:
        best, best_mask = cur, greedy
    calls = 0

    def expand(r_size: int, r_mask: int, p: int):
        nonlocal best, best_mask, calls
        calls += 1
        if deadline is not None and calls & _BUDGET_CHECK_MASK == 0:
            if time.monotonic() > deadline:
                raise _Budget
        # greedy coloring of p; color number bounds the clique extension
        colored: list[tuple[int, int]] = []
        rest = p
        color = 0
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                colored.append((v, color))
                avail &= avail - 1
                avail &= ~radj[v]
                rest &= ~(1 << v)
        for v, c in reversed(colored):
            if r_size + c <= best:
                return
            new_p = p & radj[v]
            if new_p:
                expand(r_size + 1, r_mask | (1 << v), new_p)
            elif r_size + 1 > best:
                best = r_size + 1
                best_mask = r_mask | (1 << v)
            p &= ~(1 << v)

    exact = True
    try:
        expand(0, 0, (1 << n) - 1)
    except _Budget:
        exact = False

    return best, sum(1 << order[v] for v in _bit_positions(best_mask)), exact, calls


@dataclass(frozen=True)
class SearchResult:
    size: int
    family: Family
    exact: bool  # False: budget ran out, size is a certified lower bound
    nodes: int  # branch-and-bound expansions, summed over all orbits
    forced: int  # universal blocks, put in the family without search


def max_laminar_exact(
    n: int,
    t: int,
    budget_seconds: Optional[float] = 60.0,
    min_size: Optional[int] = None,
) -> SearchResult:
    """Maximum t-laminar family among blocks of size >= min_size.

    min_size defaults to max(t, 2), the counting convention behind
    f(n) (universe included, singletons excluded).

    Two exact reductions of the compatibility graph come before the
    clique search.  A universal block (compatible with every other,
    e.g. every block of size <= t and the ground set) lies in some
    maximum family, so all of them are taken outright.  On the rest,
    S_n acts by automorphisms with the size classes as orbits.  Take
    sizes in descending order and let k be the first size that a
    maximum family C meets: a permutation maps C's k-block onto the
    lowest k-block ``rep`` and C onto an equally large family that
    contains ``rep`` and still avoids every larger size.  So one search
    per size, in the neighbourhood of ``rep`` among the sizes not yet
    dropped and pruned against the incumbent, covers every case.

    Within the default budget this proves f(9) = 49 = obf(9) in well
    under a second and f(10) = 61 = obf(10) in a few seconds; for
    t = 3 it proves 71 on [8] and 103 on [9].  When the shared budget
    runs out the best family found so far is returned with
    ``exact=False``, a certified lower bound; ``budget_seconds=None``
    sets no deadline.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if min_size is None:
        min_size = max(t, 2)
    graph = CompatGraph.build(n, t, min_size)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    adj, verts = graph.adj, graph.vertices
    full = (1 << len(adj)) - 1
    forced = sum(1 << v for v, row in enumerate(adj) if row | 1 << v == full)
    remaining = full & ~forced
    best, best_mask, nodes, exact = 0, 0, 0, True
    for k in range(n, 0, -1):
        orbit = [v for v in _bit_positions(remaining) if verts[v].size == k]
        if not orbit:
            continue
        if deadline is not None and time.monotonic() > deadline:
            exact = False
            break
        rep = orbit[0]  # vertices are sorted by (size, mask)
        sub = _bit_positions(adj[rep] & remaining)
        # rep plus more than best - 1 neighbours beats the incumbent
        size, mask, exact, count = _max_clique(
            _induced(adj, sub), deadline, floor=max(best - 1, 0)
        )
        nodes += count
        if size + 1 > best:
            best = size + 1
            best_mask = (1 << rep) | sum(1 << sub[i] for i in _bit_positions(mask))
        if not exact:
            break
        remaining &= ~sum(1 << v for v in orbit)
    # index order is (size, mask) order
    members = tuple(verts[i] for i in _bit_positions(forced | best_mask))
    return SearchResult(
        size=len(members),
        family=Family(n, members),
        exact=exact,
        nodes=nodes,
        forced=forced.bit_count(),
    )


def max_laminar_classic(n: int, budget_seconds: Optional[float] = 60.0) -> int:
    """Exact maximum laminar (t = 1) family counting all nonempty sets.

    The chain-plus-singletons pattern gives 2n - 1; adding the empty
    set recovers the textbook 2n.
    """
    if n > 8:
        raise ValueError("classic search supported for n <= 8")
    return max_laminar_exact(n, 1, budget_seconds, min_size=1).size


@dataclass(frozen=True)
class GapReport:
    n: int
    t: int
    construct_value: int
    search_value: int
    search_exact: bool
    obf_value: Optional[Fraction]
    ok: bool

    def __str__(self):
        upper = f" <= obf={self.obf_value}" if self.obf_value is not None else ""
        mark = "ok" if self.ok else "FAIL"
        tag = "" if self.search_exact else " (search is a lower bound)"
        return (
            f"n={self.n} t={self.t}: construct={self.construct_value}"
            f" <= search={self.search_value}{upper} [{mark}]{tag}"
        )


def verify_gap(
    n: int,
    t: int,
    table: Optional[BoundTable],
    construct_value: int,
    budget_seconds: Optional[float] = 60.0,
) -> GapReport:
    """Sandwich audit: construction <= exact search <= bound table."""
    res = max_laminar_exact(n, t, budget_seconds)
    obf_val = table.obf(n) if table is not None and t == 2 else None
    ok = construct_value <= res.size
    if ok and res.exact and obf_val is not None:
        ok = res.size <= obf_val
    return GapReport(
        n=n,
        t=t,
        construct_value=construct_value,
        search_value=res.size,
        search_exact=res.exact,
        obf_value=obf_val,
        ok=ok,
    )
