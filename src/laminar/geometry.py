"""Finite fields and the classical designs behind the constructions.

Provides GF(p^k) arithmetic with a deterministically chosen modulus,
affine and projective planes of prime-power order, circle geometries
(the 3-(q^2+1, q+1, 1) inversive planes), and an exhaustive design
validator.

Field elements are integer codes 0..q-1: the code's base-p digits are
the coefficient vector of the residue polynomial, lowest degree first.
Arithmetic goes through dense numpy tables, which also lets the design
generators run vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .setfam import Family, csr_arrays, csr_from_sets, csr_to_text


class NotPrimePower(ValueError):
    pass


class GeometryError(RuntimeError):
    """A field or design construction produced an impossible result.

    Every check that raises it holds by theorem (an irreducible of each
    degree exists, GF(q) sits inside GF(q^2), a circle geometry has
    q(q^2+1) circles, a tower level holds its counted members), so it
    means a bug, never bad input.
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


class FiniteField:
    """GF(p^k) with dense add/mul tables over integer element codes.

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
        """add/mul tables over all code pairs at once.  add sums
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

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

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
# designs


@dataclass(frozen=True, eq=False)
class Design:
    """A t-design of index lambda on v points: every t-subset of the
    points lies in exactly lambda blocks.

    The blocks are CSR arrays: ``points`` holds every block's 0-based
    points, strictly increasing within a block, concatenated in block
    order, and block i is ``points[offsets[i]:offsets[i+1]]``.  Both are
    stored as read-only int64 copies, so designs compare by identity.

    The claim is checked by is_design, not at construction.
    """

    t: int
    v: int
    lam: int
    points: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        points, offsets = csr_arrays(self.v, self.points, self.offsets)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def of(cls, t: int, v: int, lam: int, sets: Iterable[Iterable[int]]) -> "Design":
        """One block per iterable of points in 1..v, in any order."""
        points, offsets = csr_from_sets(v, (sorted(s) for s in sets))
        return cls(t=t, v=v, lam=lam, points=points, offsets=offsets)

    @cached_property
    def blocks(self) -> Family:
        """The blocks as a Family, in block order."""
        return Family(self.v, self.points, self.offsets)

    def block_count(self) -> int:
        return len(self.offsets) - 1


def is_design(d: Design) -> bool:
    """Exhaustively: every t-subset of [v] lies in exactly lambda blocks."""
    if (np.diff(d.offsets) < d.t).any():
        return False
    counts = _kernels.cover_counts(d.points, d.offsets, d.v, d.t)
    # min and max as Python ints, so lambda compares exactly with any
    # count dtype
    return counts.size == 0 or int(counts.min()) == int(counts.max()) == d.lam


def affine_plane(q: int) -> Design:
    """The 2-(q^2, q, 1) design of lines in GF(q)^2.

    Points are pairs (x, y) ordered lexicographically by coordinate
    code, indexed 1..q^2.  Lines are the q^2 graphs y = m*x + b, in
    (m, b) order, then the q verticals x = c: q^2 + q blocks in total.
    Every line is one row of field-table lookups.
    """
    f = field_for_order(q)
    x = np.arange(q)
    # graphs[m, b, x] = 0-based point (x, m*x + b), increasing in x
    graphs = x * q + f.add_table[f.mul_table[:, None, :], x[None, :, None]]
    verticals = x[:, None] * q + x[None, :]
    rows = np.concatenate([graphs.reshape(q * q, q), verticals])
    return Design(t=2, v=q * q, lam=1, points=rows.ravel(),
                  offsets=np.arange(0, rows.size + 1, q))


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
        blocks.append(line)
    return Design.of(2, len(vecs), 1, blocks)


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
    uniq = _unique_rows(rows)
    expected = q * (q * q + 1)
    if uniq.shape[0] != expected:
        raise GeometryError(
            f"circle geometry block count {uniq.shape[0]} != {expected}"
        )
    return Design(t=3, v=big + 1, lam=1, points=uniq.ravel(),
                  offsets=np.arange(0, uniq.size + 1, q + 1))


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a matrix, sorted lexicographically:
    np.unique(rows, axis=0), by `_kernels.row_order`."""
    order, same = _kernels.row_order(rows)
    return rows[order[~same]]


# ---------------------------------------------------------------------------
# serialization: Family text format plus a metadata comment


def design_to_text(d: Design) -> str:
    """The blocks in the family text format, headed by a ``design t=..
    v=.. lambda=.. kind=design`` comment; `family_from_text` reads the
    file back as the block family."""
    meta = f"design t={d.t} v={d.v} lambda={d.lam} kind=design"
    return csr_to_text(d.v, d.points, d.offsets, t=d.t, comments=[meta])
