"""Exact maximum t-laminar families on small ground sets.

t-laminarity is a pairwise condition, so the members of size >= s form
a t-laminar family exactly when they induce a clique in the
compatibility graph on candidate blocks (A ~ B iff |A n B| < t or one
contains the other).  Maximum families are therefore maximum cliques;
a branch-and-bound search with greedy-coloring upper bounds and
bit-parallel candidate sets settles t = 2 up to n = 9 (f(8) = 37,
f(9) = 49 = obf(9), the last in a few seconds) and runs best-effort
under a time budget beyond that, downgrading the result to a certified
lower bound when the budget runs out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bounds import BoundTable
from .setfam import Block, Family

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


def _max_clique(adj: list[int], deadline: Optional[float]) -> tuple[int, int, bool]:
    """(best size, best vertex bitset, exact?) for an adjacency bitset list.

    Tomita-style expansion: vertices ordered by degree descending,
    greedy coloring on each candidate set, branches visited in reverse
    color order so the color bound prunes early.
    """
    n = len(adj)
    if n == 0:
        return 0, 0, True
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    pos = {v: i for i, v in enumerate(order)}
    radj = [0] * n
    for new_i, v in enumerate(order):
        row = adj[v]
        rel = 0
        while row:
            u = (row & -row).bit_length() - 1
            rel |= 1 << pos[u]
            row &= row - 1
        radj[new_i] = rel

    # greedy warm start for the initial bound
    best_mask, cur = 0, 0
    cand = (1 << n) - 1
    while cand:
        v = (cand & -cand).bit_length() - 1
        best_mask |= 1 << v
        cur += 1
        cand &= radj[v]
    best = cur
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

    orig_mask = 0
    m = best_mask
    while m:
        v = (m & -m).bit_length() - 1
        orig_mask |= 1 << order[v]
        m &= m - 1
    return best, orig_mask, exact


@dataclass(frozen=True)
class SearchResult:
    size: int
    family: Family
    exact: bool  # False: budget ran out, size is a certified lower bound


def max_laminar_exact(
    n: int,
    t: int,
    budget_seconds: Optional[float] = 60.0,
    min_size: Optional[int] = None,
) -> SearchResult:
    """Maximum t-laminar family among blocks of size >= min_size.

    min_size defaults to max(t, 2), the counting convention behind
    f(n) (universe included, singletons excluded).  Exact within the
    default budget for t = 2 up to n = 9 (f(9) = 49 in 3-6 s) and for
    t = 3 up to n = 8 (71); t = 2 at n = 10 and t = 3 at n = 9 run out
    of it.  Larger ground sets are best-effort and flagged via
    SearchResult.exact.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if min_size is None:
        min_size = max(t, 2)
    graph = CompatGraph.build(n, t, min_size)
    deadline = time.monotonic() + budget_seconds if budget_seconds else None
    size, mask, exact = _max_clique(list(graph.adj), deadline)
    members = [graph.vertices[i] for i in range(len(graph.vertices)) if mask >> i & 1]
    fam = Family(n, tuple(sorted(members, key=lambda b: (b.size, b.mask))))
    return SearchResult(size=size, family=fam, exact=exact)


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
