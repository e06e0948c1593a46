"""Exact maximum t-laminar families on small ground sets.

t-laminarity is a pairwise condition, so the members of size >= s form
a t-laminar family exactly when they induce a clique in the
compatibility graph on candidate blocks (A ~ B iff |A n B| < t or one
contains the other).  Maximum families are therefore maximum cliques.

The search first takes every universal block (compatible with all
others, e.g. every block of size <= t and the ground set), then uses
that S_n permutes the remaining blocks with the size classes as
orbits: one branch-and-bound per size, rooted at a single
representative block, with greedy-coloring upper bounds and
bit-parallel candidate sets, all pruned against an incumbent that a
greedy clique per orbit sets before any of them runs.  For t = 2 and
the counting convention of f(n) the search stops as soon as the
incumbent reaches floor(obf(n)) from the bound table, which caps f(n).
The graph is built, and its rows relabelled, in numpy blocks of 64
rows.  Its blocks and adjacency rows are int masks (bit j for 0-based
point or vertex j); the family returned is built from their points.
This settles t = 2 up to n = 13,
and n = 15: f(8) = 37 by search (its greedy seed holds 37 of
floor(obf(8)) = 38), and f(9) = 49, f(10) = 61, f(11) = 74, f(12) = 89,
f(13) = 105 and f(15) = 142, each floor(obf(n)), by the greedy seed
alone, in 0.005 to 0.5 s up to
n = 13 and 7.7 s at n = 15.  For t = 3 it settles n up to 10 (71 on
[8], 103 on [9], 151 on [10] in 781,017 branch nodes and about 40 s).
Beyond that it runs best-effort under a time budget, downgrading the
result to a certified lower bound when the budget runs out.  The maximum family returned may differ from the one
earlier versions returned; its size does not.

The budget starts after the graph is built, so ground sets above
MAX_SEARCH_N = 15 are refused with CapExceeded before it is: with a
zero budget, n = 14 runs 2.0 s at 87 MB max RSS and n = 15 7.1 s at
219 MB (one thread of a 2-core VM), and each further point quadruples
the rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels, bounds
from .setfam import CapExceeded, Family

_BUDGET_CHECK_MASK = 0xFFF

#: largest ground set max_laminar_exact accepts (see the module docstring)
MAX_SEARCH_N = 15

#: rows per numpy block when building or relabelling adjacency rows; a
#: block holds _ROW_BLOCK x V cells, never V x V
_ROW_BLOCK = 64


def _bit_positions(mask: int) -> list[int]:
    """0-based positions of the set bits of mask, ascending; O(popcount)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _row_ints(bits: np.ndarray) -> list[int]:
    """Each zero-one row as an int, column j at bit j: the rows packed
    little-endian, then one ``int.from_bytes`` per row."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    buf, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(buf[k * width : (k + 1) * width], "little") for k in range(len(packed))]


def _int_bits(ints: Sequence[int], width: int) -> np.ndarray:
    """Inverse of _row_ints: a len(ints) x width zero-one uint8 matrix,
    bit j of each int (below 2^(8 ceil(width/8))) in column j."""
    nbytes = (width + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in ints), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(ints), nbytes), axis=1, count=width, bitorder="little")


@dataclass(frozen=True)
class CompatGraph:
    """Compatibility graph over all blocks of [n] with size >= min_size."""

    n: int
    t: int
    min_size: int
    vertices: tuple[int, ...]  # block masks
    adj: tuple[int, ...]  # bitset rows, irreflexive and symmetric

    @classmethod
    def build(cls, n: int, t: int, min_size: int) -> "CompatGraph":
        # size_of[m] = |m| for every mask m; a table lookup, because
        # np.bitwise_count needs numpy 2 and pyproject allows numpy 1.24
        size_of = _kernels.popcount_u64(np.arange(1 << n, dtype=np.uint64))
        masks = np.arange(1, 1 << n)
        masks = masks[size_of[masks] >= min_size]
        # vertices in (size, mask) order
        masks = masks[np.lexsort((masks, size_of[masks]))]
        adj: list[int] = []
        for lo in range(0, len(masks), _ROW_BLOCK):
            a = masks[lo : lo + _ROW_BLOCK, None]
            c = a & masks
            compat = (size_of.take(c) < t) | (c == a) | (c == masks)
            compat[np.arange(len(a)), np.arange(lo, lo + len(a))] = False
            adj += _row_ints(compat)
        return cls(
            n=n,
            t=t,
            min_size=min_size,
            vertices=tuple(masks.tolist()),
            adj=tuple(adj),
        )


class _Budget(Exception):
    pass


def _induced(adj: Sequence[int], verts: list[int]) -> list[int]:
    """Adjacency rows of the subgraph induced on verts, vertex verts[i] as i."""
    cols = np.array(verts, dtype=np.intp)
    out: list[int] = []
    for lo in range(0, len(verts), _ROW_BLOCK):
        rows = [adj[v] for v in verts[lo : lo + _ROW_BLOCK]]
        out += _row_ints(_int_bits(rows, len(adj))[:, cols])
    return out


def _greedy_clique(adj: Sequence[int], cand: int) -> int:
    """Bitset of a clique inside cand, built by repeatedly adding the
    candidate with the most candidate neighbours (lowest index on ties)."""
    clique = 0
    while cand:
        v = max(_bit_positions(cand), key=lambda u: (adj[u] & cand).bit_count())
        clique |= 1 << v
        cand &= adj[v]
    return clique


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
    S_n acts by automorphisms with the size classes as orbits.  Let k
    be the largest size among the unforced blocks of a maximum family
    C: a permutation maps one of them onto the lowest unforced k-block
    ``rep`` and C onto an equally large family that contains ``rep``
    and no unforced block larger than k.  So the answer is the maximum
    over k of ``rep`` plus a maximum clique in its neighbourhood among
    sizes <= k; it does not depend on the order in which the orbits
    are searched.

    Before any exact search, each orbit contributes ``rep`` plus a
    greedy clique in that neighbourhood (repeatedly taking the
    candidate with the most candidate neighbours), and the best of
    these is the incumbent.  The orbit searches then run in ascending
    k, each pruned against the incumbent, which only prunes: a search
    that proves nothing larger leaves it in place.  For t = 2 and the
    default min_size, f(n) <= floor(obf(n)) (`bounds.obf_table`), so
    the search stops, exact, once the family holds that many blocks;
    no budget is needed then.

    This proves f(8) = 37 by search (223 branch nodes) and f(9) to
    f(13) = 49, 61, 74, 89, 105 and f(15) = 142 by the greedy seed
    meeting the bound, with no branch node; for t = 3 it proves 71 on
    [8], 103 on [9] and 151 on [10].
    The maximum family returned may differ from the one earlier
    versions returned; its size does not.  When the shared budget runs
    out the best family found so far is returned with ``exact=False``,
    a certified lower bound; ``budget_seconds=None`` sets no deadline.
    n above MAX_SEARCH_N raises CapExceeded before the graph is built.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_SEARCH_N:
        raise CapExceeded(f"search on n={n} points exceeds the cap {MAX_SEARCH_N}")
    if min_size is None:
        min_size = max(t, 2)
    graph = CompatGraph.build(n, t, min_size)
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    adj, verts = graph.adj, graph.vertices
    full = (1 << len(adj)) - 1
    forced = sum(1 << v for v, row in enumerate(adj) if row | 1 << v == full)
    # (rep, its neighbours among the unforced blocks of size <= k), k ascending
    orbits: list[tuple[int, int]] = []
    free, allowed = _bit_positions(full & ~forced), 0
    for k in range(1, n + 1):
        orbit = [v for v in free if verts[v].bit_count() == k]
        if orbit:
            allowed |= sum(1 << v for v in orbit)
            rep = orbit[0]  # vertices are sorted by (size, mask)
            orbits.append((rep, adj[rep] & allowed))
    best_mask = max(
        ((1 << rep) | _greedy_clique(adj, cand) for rep, cand in orbits),
        key=int.bit_count,
        default=0,
    )
    best, nodes, exact = best_mask.bit_count(), 0, True
    # unforced blocks a maximum family can hold at most
    cap = None
    if t == 2 and min_size == 2 and n >= 2:
        value = bounds.obf_table(n).obf(n)
        cap = value.numerator // value.denominator - forced.bit_count()
    for rep, cand in orbits:
        if best == cap:
            break
        if deadline is not None and time.monotonic() > deadline:
            exact = False
            break
        sub = _bit_positions(cand)
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
    # index order is (size, mask) order
    members = [verts[i] for i in _bit_positions(forced | best_mask)]
    return SearchResult(
        size=len(members),
        family=Family.of(n, ([p + 1 for p in _bit_positions(m)] for m in members)),
        exact=exact,
        nodes=nodes,
        forced=forced.bit_count(),
    )
