import random
from math import comb

import numpy as np
import pytest

from conftest import int_masks, random_family
from laminar.bounds import obf_table
from laminar.search import (
    CompatGraph,
    _bit_positions,
    _induced,
    _int_bits,
    _max_clique,
    _row_ints,
    max_laminar_exact,
)
from laminar.setfam import is_t_laminar


@pytest.fixture(scope="module")
def table10():
    return obf_table(10)


class TestExactSearch:
    @pytest.mark.parametrize(
        "n,expected", [(2, 1), (3, 4), (4, 8), (5, 13), (6, 20)]
    )
    def test_f_values(self, n, expected):
        res = max_laminar_exact(n, 2)
        assert res.exact
        assert res.size == expected
        assert res.forced == _t_sets_and_universe(n, 2)
        assert len(res.family) == expected
        assert is_t_laminar(res.family, 2)
        assert all(b.bit_count() >= 2 for b in int_masks(res.family))

    def test_f7_within_budget(self):
        res = max_laminar_exact(7, 2, budget_seconds=120)
        assert res.size >= 29
        assert is_t_laminar(res.family, 2)
        if res.exact:
            assert res.size == 29

    def test_f8_f9(self, table10):
        res8 = max_laminar_exact(8, 2, budget_seconds=120)
        assert res8.exact and res8.size == 37
        assert res8.forced == _t_sets_and_universe(8, 2)
        _assert_valid(res8, 2, 2)
        res9 = max_laminar_exact(9, 2, budget_seconds=120)
        assert res9.exact and res9.size == 49 == table10.obf(9)
        assert res9.forced == _t_sets_and_universe(9, 2)
        _assert_valid(res9, 2, 2)

    def test_t3_on_seven_points(self):
        res = max_laminar_exact(7, 3, budget_seconds=60)
        assert res.exact
        # all 35 triples, the 7 Fano blocks, and the universe coexist
        assert res.size == 43
        assert res.forced == _t_sets_and_universe(7, 3)


def _t_sets_and_universe(n, t):
    """The universal blocks of the default search for n >= t: every
    t-set and [n], which coincide when n = t."""
    return comb(n, t) + 1 if n > t else 1


def _assert_valid(res, t, min_size):
    masks = list(int_masks(res.family))
    assert len(masks) == len(set(masks)) == res.size
    assert all(m.bit_count() >= min_size for m in masks)
    assert is_t_laminar(res.family, t)


class TestSymmetrySearch:
    """Universal blocks forced, one branch per size orbit, against plain B&B."""

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_plain_clique_search(self, n, t):
        for min_size in sorted({1, 2, t}):
            graph = CompatGraph.build(n, t, min_size)
            size, _, exact, _ = _max_clique(list(graph.adj), None)
            res = max_laminar_exact(n, t, budget_seconds=None, min_size=min_size)
            assert exact and res.exact
            assert res.size == size, (n, t, min_size)
            _assert_valid(res, t, min_size)
            universal = [
                v for v, row in enumerate(graph.adj)
                if row | 1 << v == (1 << len(graph.adj)) - 1
            ]
            assert res.forced == len(universal)

    @pytest.mark.parametrize("n", [7, 8, 9, 11])
    def test_expired_budget(self, n):
        res = max_laminar_exact(n, 2, budget_seconds=-1.0)
        # exact only where the greedy incumbent already meets floor(obf(n));
        # at n = 8 it holds 37 of 38
        value = obf_table(n).obf(n)
        assert res.exact == (res.size == value.numerator // value.denominator)
        assert res.exact == (n != 8)
        assert res.forced == n * (n - 1) // 2 + 1  # the pairs and [n]
        # the greedy incumbent is built before the first deadline check
        assert res.size > res.forced
        _assert_valid(res, 2, 2)

    @pytest.mark.parametrize("n,size", [(11, 74), (12, 89), (13, 105)])
    def test_greedy_meets_the_bound(self, n, size):
        # the greedy seed reaches floor(obf(n)), so no search and no budget is needed
        res = max_laminar_exact(n, 2, budget_seconds=0)
        assert res.exact and res.size == size and res.nodes == 0
        value = obf_table(n).obf(n)
        assert size == value.numerator // value.denominator
        assert res.forced == _t_sets_and_universe(n, 2)
        _assert_valid(res, 2, 2)

    def test_bound_stop_only_for_the_counting_convention(self):
        # t = 3 has no bound table, so an expired budget leaves it inexact
        res = max_laminar_exact(8, 3, budget_seconds=-1.0)
        assert not res.exact and res.size > res.forced

    @pytest.mark.parametrize("n", range(1, 9))
    def test_classic_metadata(self, n):
        res = max_laminar_exact(n, 1, budget_seconds=None, min_size=1)
        forced = n + 1 if n > 1 else 1  # the singletons and [n]
        assert (res.size, res.exact, res.forced) == (2 * n - 1, True, forced)
        _assert_valid(res, 1, 1)

    @pytest.mark.parametrize("n,t", [(6, 2), (7, 2), (6, 3), (7, 1)])
    def test_floor_is_sound(self, n, t):
        adj = list(CompatGraph.build(n, t, max(t, 2)).adj)
        opt, _, _, _ = _max_clique(adj, None)
        size, mask, exact, _ = _max_clique(adj, None, floor=opt - 1)
        assert exact and size == opt == mask.bit_count()
        members = [v for v in range(len(adj)) if mask >> v & 1]
        assert all(adj[u] >> v & 1 for u in members for v in members if u != v)
        assert _max_clique(adj, None, floor=opt)[:3] == (opt, 0, True)

    def test_f10_equals_obf10(self, table10):
        res = max_laminar_exact(10, 2)
        assert res.exact and res.size == 61 == table10.obf(10)
        assert res.forced == _t_sets_and_universe(10, 2)
        _assert_valid(res, 2, 2)

    def test_t3_on_eight_points(self):
        res = max_laminar_exact(8, 3)
        assert res.exact and res.size == 71
        assert res.forced == _t_sets_and_universe(8, 3)
        _assert_valid(res, 3, 3)

    def test_t3_on_nine_points(self):
        res = max_laminar_exact(9, 3)
        assert res.exact and res.size == 103
        assert res.forced == _t_sets_and_universe(9, 3)
        _assert_valid(res, 3, 3)


class TestClassic:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 5), (5, 9), (6, 11)])
    def test_chain_plus_singletons(self, n, expected):
        assert max_laminar_exact(n, 1, min_size=1).size == expected == 2 * n - 1


def _build_oracle(n, t, min_size):
    """The O(V^2) pairwise build that CompatGraph.build replaced."""
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
    return masks, tuple(adj)


def _induced_oracle(adj, verts):
    """The dict-based relabelling that _induced replaced."""
    pos = {v: i for i, v in enumerate(verts)}
    keep = sum(1 << v for v in verts)
    return [sum(1 << pos[u] for u in _bit_positions(adj[v] & keep)) for v in verts]


class TestCompatGraph:
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_build_matches_pairwise_oracle(self, n, t):
        for min_size in sorted({1, 2, t}):
            graph = CompatGraph.build(n, t, min_size)
            masks, adj = _build_oracle(n, t, min_size)
            assert list(graph.vertices) == masks
            assert all(type(m) is int for m in graph.vertices)
            assert graph.adj == adj, (n, t, min_size)

    def test_induced_matches_oracle(self):
        rng = random.Random(2007)
        # 247 vertices: several 64-row blocks and a partial last byte
        adj = CompatGraph.build(8, 2, 2).adj
        full = list(range(len(adj)))
        cases = [[], full, full[::-1]]
        for _ in range(40):
            cases.append(rng.sample(full, rng.randint(1, len(full))))
        for verts in cases:
            assert _induced(adj, verts) == _induced_oracle(adj, verts)

    def test_vertex_counts(self):
        assert len(CompatGraph.build(6, 2, 2).vertices) == 57
        assert len(CompatGraph.build(7, 2, 2).vertices) == 120

    def test_clique_iff_laminar(self):
        rng = random.Random(314)
        graphs = {}
        for _ in range(150):
            f = random_family(rng, n_cap=6, size_cap=8)
            t = rng.choice([1, 2, 3])
            key = (f.n, t)
            if key not in graphs:
                graphs[key] = CompatGraph.build(f.n, t, 1)
            g = graphs[key]
            index = {m: i for i, m in enumerate(g.vertices)}
            ids = [index[m] for m in int_masks(f)]
            clique = all(
                g.adj[i] >> j & 1 for i in ids for j in ids if i != j
            )
            assert clique == is_t_laminar(f, t)


class TestBitRows:
    """The search's int-mask codec: zero-one rows to ints (`_row_ints`)
    and back (`_int_bits`), column j at bit j."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_round_trip(self, n):
        rng = random.Random(n)
        ints = sorted({0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(100)})
        bits = _int_bits(ints, n)
        assert bits.shape == (len(ints), n) and bits.dtype == np.uint8
        assert bits.tolist() == [[m >> j & 1 for j in range(n)] for m in ints]
        back = _row_ints(bits)
        assert back == ints and all(type(m) is int for m in back)
        assert _row_ints(bits.astype(bool)) == ints
        # a sliced, non-contiguous block of rows converts alike
        assert _row_ints(bits[::2]) == ints[::2]
        assert _row_ints(bits[:0]) == [] and _int_bits([], n).shape == (0, n)
