"""Finite fields and the classical designs behind the constructions.

Provides GF(p^k) arithmetic with a deterministically chosen modulus,
affine and projective planes of prime-power order, circle geometries
(the 3-(q^2+1, q+1, 1) inversive planes), exhaustive design/packing
validators, and a seeded greedy packing fallback for desk-scale runs.

Field elements are integer codes 0..q-1: the code's base-p digits are
the coefficient vector of the residue polynomial, lowest degree first.
Arithmetic goes through dense numpy tables, which also lets the design
generators run vectorized.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Optional

import numpy as np

from . import _kernels
from .setfam import Family, csr_points


class NotPrimePower(ValueError):
    pass


class GeometryError(RuntimeError):
    """A field or design construction produced an impossible result.

    Every check that raises it holds by theorem (an irreducible of each
    degree exists, GF(q) sits inside GF(q^2), a circle geometry has
    q(q^2+1) circles), so it means a bug, never bad input.
    """


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """Decompose q = p^k with p prime, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            k, m = 0, q
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (q, 1)


# ---------------------------------------------------------------------------
# GF(p^k)

# polynomials over GF(p) are coefficient tuples, lowest degree first


def _poly_rem(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            f = c * inv_lead % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - f * mod[j]) % p
    return a[:dm]


def _is_irreducible(poly, p):
    k = len(poly) - 1
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for tail in product(range(p), repeat=d):
            div = list(tail) + [1]
            if any(_poly_rem(poly, div, p)):
                continue
            return False
    return True


@dataclass(frozen=True)
class FieldElem:
    """Coefficient vector of a field element, lowest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("coefficient vector must have length k >= 1")


class FiniteField:
    """GF(p^k) with dense add/mul/inv tables over integer element codes.

    The modulus is the lexicographically smallest monic irreducible of
    degree k over GF(p), comparing coefficient vectors lowest degree
    first, so fields (and everything generated from them) are
    byte-reproducible.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = self._smallest_irreducible(p, k)
        self._build_tables()

    @staticmethod
    def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
        for tail in product(range(p), repeat=k):
            cand = list(tail) + [1]
            if _is_irreducible(cand, p):
                return tuple(cand)
        raise GeometryError(f"no monic irreducible of degree {k} over GF({p}) found")

    def _build_tables(self):
        """add/mul/inv/neg tables over all code pairs at once.  add sums
        the base-p digits mod p.  mul forms the coefficient arrays of
        the product polynomial, then reduces them by the monic modulus
        from the top degree down."""
        p, k, q = self.p, self.k, self.q
        dtype = np.int64 if q > 2**15 else np.int32
        place = (p ** np.arange(k)).astype(dtype)
        digits = (np.arange(q)[:, None] // place % p).astype(dtype)  # (q, k)
        a = [d[:, None] for d in digits.T]  # coefficient j of the row code
        b = [d[None, :] for d in digits.T]  # coefficient j of the column code
        add = sum((a[j] + b[j]) % p * place[j] for j in range(k))
        prod = [
            sum(a[i] * b[m - i] for i in range(max(0, m - k + 1), min(m, k - 1) + 1))
            for m in range(2 * k - 1)
        ]
        for m in range(2 * k - 2, k - 1, -1):
            c = prod[m] % p
            for j in range(k):
                prod[m - k + j] -= c * self.modulus[j]
        mul = sum(prod[j] % p * place[j] for j in range(k))
        self.add_table = add
        self.mul_table = mul
        # row 0 of mul holds no 1, so argmax leaves inv[0] = 0
        self.inv_table = np.argmax(mul == 1, axis=1).astype(dtype)
        self.neg_table = np.argmax(add == 0, axis=1).astype(dtype)

    def coeffs(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + c % self.p
        return code

    def elem(self, code: int) -> FieldElem:
        return FieldElem(self.coeffs(code))

    def code(self, e: FieldElem) -> int:
        if len(e.coeffs) != self.k:
            raise ValueError("coefficient vector length mismatch")
        return self.from_coeffs(e.coeffs)

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r, b = 1, a
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def powers(self, e: int) -> np.ndarray:
        """x**e for every element code x (e >= 1), by square-and-multiply
        over the whole element array at once."""
        mul = self.mul_table
        base = np.arange(self.q, dtype=mul.dtype)
        out = np.ones(self.q, dtype=mul.dtype)
        while e:
            if e & 1:
                out = mul[out, base]
            base = mul[base, base]
            e >>= 1
        return out

    def __repr__(self):
        return f"GF({self.q})"


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def field_make(p: int, k: int) -> FiniteField:
    """GF(p^k) with the deterministic modulus choice (cached)."""
    key = (p, k)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FiniteField(p, k)
    return _FIELD_CACHE[key]


def field_for_order(q: int) -> FiniteField:
    pk = prime_power(q)
    if pk is None:
        raise NotPrimePower(f"{q} is not a prime power")
    return field_make(*pk)


# ---------------------------------------------------------------------------
# designs and packings


@dataclass(frozen=True)
class Design:
    """A block system with declared strength t and index lambda.

    kind "design" claims every t-subset lies in exactly lambda blocks;
    kind "packing" claims at most lambda.  Claims are checked by
    is_design / is_packing, not at construction.
    """

    t: int
    v: int
    lam: int
    blocks: Family
    kind: str  # "design" | "packing"

    def __post_init__(self):
        if self.kind not in ("design", "packing"):
            raise ValueError("kind must be 'design' or 'packing'")
        if self.blocks.n != self.v:
            raise ValueError("block family ground size must equal v")

    def block_count(self) -> int:
        return len(self.blocks)


def _subset_cover_counts(d: Design) -> np.ndarray:
    """Block-coverage count of every t-subset of [v], colex-ranked."""
    points, offsets = csr_points(d.blocks)
    return _kernels.cover_counts(points, offsets, d.v, d.t)


def is_design(d: Design) -> bool:
    """Exhaustively: every t-subset of [v] lies in exactly lambda blocks."""
    if any(b.size < d.t for b in d.blocks):
        return False
    counts = _subset_cover_counts(d)
    return bool((counts == d.lam).all())


def is_packing(d: Design) -> bool:
    """Exhaustively: every t-subset of [v] lies in at most lambda blocks."""
    if any(b.size < d.t for b in d.blocks):
        return False
    counts = _subset_cover_counts(d)
    return bool((counts <= d.lam).all())


def affine_plane(q: int) -> Design:
    """The 2-(q^2, q, 1) design of lines in GF(q)^2.

    Points are pairs (x, y) ordered lexicographically by coordinate
    code, indexed 1..q^2.  Lines are the q^2 graphs y = m*x + b, in
    (m, b) order, then the q verticals x = c: q^2 + q blocks in total.
    Every line is one row of field-table lookups.
    """
    f = field_for_order(q)
    x = np.arange(q)
    # graphs[m, b, x] = point (x, m*x + b), increasing in x
    graphs = x * q + f.add_table[f.mul_table[:, None, :], x[None, :, None]] + 1
    verticals = x[:, None] * q + x[None, :] + 1
    rows = np.concatenate([graphs.reshape(q * q, q), verticals])
    return Design(t=2, v=q * q, lam=1, blocks=Family.from_rows(q * q, rows), kind="design")


def projective_plane(q: int) -> Design:
    """The 2-(q^2+q+1, q+1, 1) design from the projective plane PG(2, q).

    Points are 1-dimensional subspaces of GF(q)^3, named by their
    normalized vector (first nonzero coordinate 1) and ordered
    lexicographically; blocks are the 2-dimensional subspaces.  q = 2
    gives the Fano plane.
    """
    f = field_for_order(q)
    vecs = []
    for a, b, c in product(range(q), repeat=3):
        if (a, b, c) == (0, 0, 0):
            continue
        lead = a if a else (b if b else c)
        if lead == 1:
            vecs.append((a, b, c))
    vecs.sort()
    index = {v: i + 1 for i, v in enumerate(vecs)}

    blocks = []
    for u in vecs:
        line = []
        for v in vecs:
            s = 0
            for uu, vv in zip(u, v):
                s = f.add(s, f.mul(uu, vv))
            if s == 0:
                line.append(index[v])
        blocks.append(sorted(line))
    fam = Family.of(len(vecs), blocks)
    return Design(t=2, v=len(vecs), lam=1, blocks=fam, kind="design")


def circle_geometry(q: int) -> Design:
    """The 3-(q^2+1, q+1, 1) circle geometry (Miquelian inversive plane)
    of order q.

    Points are GF(q^2) plus a point at infinity (the last index).  The
    circles are the orbit of the sub-line GF(q) u {inf} under the
    fractional linear maps z -> (a z + b)/(c z + d) of PGL(2, q^2).
    They are written down in closed form, not enumerated map by map:

      * the q(q+1) circles through inf.  A map that fixes inf is
        affine, z -> a z + b, so these are the lines
        {a s + b : s in GF(q)} u {inf}.  a GF(q) is one of the q+1
        one-dimensional GF(q)-subspaces D_0..D_q of GF(q^2) (x and y
        span the same one iff x^(q-1) = y^(q-1)); b runs over
        D_{i+1}, indices mod q+1, which is a complement of D_i, so
        each line appears once.
      * the q^2(q-1) circles that miss inf: the norm circles
        {z : (z - c)^(q+1) = r} with c in GF(q^2) and r in GF(q)*, each
        c plus the q+1 elements of norm r.

    The orbit has |PGL(2, q^2)| / |PGL(2, q)| = q(q^2+1) circles, and
    q(q+1) + q^2(q-1) = q(q^2+1), so the two families are all of it.
    Both come from vectorised power maps over the field tables.  Blocks
    are sorted lexicographically, and the block count q(q^2+1) is
    checked.
    """
    pk = prime_power(q)
    if pk is None:
        raise NotPrimePower(f"{q} is not a prime power")
    p, e = pk
    f = field_make(p, 2 * e)
    big = f.q  # q^2
    codes = np.arange(big)
    if np.count_nonzero(f.powers(q) == codes) != q:
        raise GeometryError(f"GF({q}) is not the fixed field of x -> x^{q} in GF({big})")
    add = f.add_table

    def classes(key: np.ndarray, count: int) -> np.ndarray:
        """The nonzero codes grouped into `count` rows by equal key."""
        return codes[1:][np.argsort(key[1:], kind="stable")].reshape(count, -1)

    subspaces = np.hstack([np.zeros((q + 1, 1), dtype=codes.dtype),
                           classes(f.powers(q - 1), q + 1)])
    # lines[i, j] = D_i + (the j-th element of D_{i+1})
    lines = add[subspaces[:, None, :], np.roll(subspaces, -1, axis=0)[:, :, None]]
    lines = np.concatenate(
        [lines.reshape(-1, q), np.full((q * (q + 1), 1), big)], axis=1
    )
    norms = classes(f.powers(q + 1), q - 1)  # row r: the q+1 elements of one norm
    circles = add[codes[:, None, None], norms[None, :, :]].reshape(-1, q + 1)
    rows = np.concatenate([lines, circles])
    rows.sort(axis=1)
    uniq = _unique_rows(rows, big + 1)
    expected = q * (q * q + 1)
    if uniq.shape[0] != expected:
        raise GeometryError(
            f"circle geometry block count {uniq.shape[0]} != {expected}"
        )
    fam = Family.from_rows(big + 1, uniq + 1)
    return Design(t=3, v=big + 1, lam=1, blocks=fam, kind="design")


def _unique_rows(rows: np.ndarray, base: int) -> np.ndarray:
    """The distinct rows of a matrix with entries in [0, base), sorted
    lexicographically: np.unique(rows, axis=0), by one lexsort over the
    rows packed base-`base` into as few int64 keys as hold them."""
    width = 1  # columns per key
    while base ** (width + 1) < 2**63:
        width += 1
    keys = []
    for c0 in range(0, rows.shape[1], width):
        key = np.zeros(rows.shape[0], dtype=np.int64)
        for col in rows[:, c0 : c0 + width].T:
            key = key * base + col
        keys.append(key)
    order = np.lexsort(keys[::-1])  # lexsort's primary key is its last
    packed = np.stack(keys, axis=1)[order]
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = (packed[1:] != packed[:-1]).any(axis=1)
    return rows[order[keep]]


def greedy_packing(n: int, k: int, t: int, order_seed: int = 0) -> Design:
    """Seeded greedy t-(n, k, 1) packing: desk-scale plumbing.

    Visits candidate k-subsets in a seeded pseudo-random order and keeps
    a block iff it shares < t points with everything kept so far.  When
    C(n, k) is too large to shuffle outright, falls back to seeded
    random sampling with a patience cutoff; either way the output
    passes is_packing.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if not t <= k <= n:
        raise ValueError("need t <= k <= n")
    rng = random.Random(order_seed)
    accepted: list[int] = []

    def try_add(points):
        m = 0
        for pt in points:
            m |= 1 << (pt - 1)
        for other in accepted:
            if (m & other).bit_count() >= t:
                return
        accepted.append(m)

    if comb(n, k) <= 2_000_000:
        cands = list(combinations(range(1, n + 1), k))
        rng.shuffle(cands)
        for cand in cands:
            try_add(cand)
    else:
        misses = 0
        while misses < 20_000:
            before = len(accepted)
            try_add(rng.sample(range(1, n + 1), k))
            misses = 0 if len(accepted) > before else misses + 1
    fam = Family.from_masks(n, sorted(accepted, key=lambda m: (m.bit_count(), m)))
    return Design(t=t, v=n, lam=1, blocks=fam, kind="packing")


# ---------------------------------------------------------------------------
# serialization: Family text format plus a metadata comment


def design_to_text(d: Design) -> str:
    from .setfam import family_to_text

    meta = f"design t={d.t} v={d.v} lambda={d.lam} kind={d.kind}"
    return family_to_text(d.blocks, t=d.t, comments=[meta])


def design_from_text(text: str) -> Design:
    from .setfam import family_from_text

    fam, t, comments = family_from_text(text)
    meta = next((c for c in comments if c.startswith("design ")), None)
    if meta is None:
        raise ValueError("missing design metadata comment")
    kv = dict(item.split("=", 1) for item in meta.split()[1:])
    return Design(
        t=int(kv["t"]),
        v=int(kv["v"]),
        lam=int(kv["lambda"]),
        blocks=fam,
        kind=kv["kind"],
    )


def design_to_json(d: Design) -> dict:
    from .setfam import family_to_json

    doc = family_to_json(d.blocks, t=d.t)
    doc["design"] = {"t": d.t, "v": d.v, "lambda": d.lam, "kind": d.kind}
    return doc


def design_from_json(doc: dict) -> Design:
    from .setfam import family_from_json

    fam, _t = family_from_json(doc)
    meta = doc["design"]
    return Design(
        t=int(meta["t"]),
        v=int(meta["v"]),
        lam=int(meta["lambda"]),
        blocks=fam,
        kind=meta["kind"],
    )
