"""Ground-set subsets, set families, and t-laminarity.

A family F over [n] is t-laminar when any two members sharing at least t
points are nested.  The classical laminar condition is t = 1.  Three
equivalent views are implemented and cross-checked (`verify_t_laminar`
runs all three, as `laminar verify` does):

  1. the pairwise predicate itself (`is_t_laminar`, `violating_pair`):
     O(|F|^2) pair tests, bit-packed through `_kernels.find_violation`
     from 256 members on, stopping at the first violating pair;
     memory O(|F| n / 64).
  2. avoidance of a forbidden 2 x (t+2) zero-one configuration in the
     family's incidence matrix (`contains_config` / `forbidden_matrix`):
     the row-pair column-type counts come from a float64 Gram matrix,
     |F|^2 n / 2 multiply-adds through BLAS, taken in blocks of 256
     rows and stopping at the first block with a hit; memory
     O(256 |F|), never a dense |F| x |F| matrix.
  3. a unique-chain condition on t-subsets after augmenting the family
     with all of them (`unique_chain_check`): sum over members S of
     C(|S|, t) dictionary steps, and memory one entry per t-subset
     that some member covers.

On the 1625-set tower (n = 49, t = 2) the three take about 80, 10 and
6 ms; on four disjoint copies of it (6500 sets, n = 196) about 2.5 s,
0.23 s and 25 ms, all under a 100 MB process peak (one thread of a
2-core VM).

Blocks are bit vectors: ground point i (1-based) is bit i-1 of an int
mask.  Families order their members; canonical order is by (cardinality,
mask value) so derived artifacts are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Iterator, Optional

import numpy as np

from . import _kernels

# families at or above this size go through the bit-matrix kernel
_KERNEL_MIN_SETS = 256


def _bit_positions(mask: int) -> list[int]:
    """0-based positions of the set bits of mask, ascending; O(popcount)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Block:
    """A subset of {1..n} with bit-vector semantics (bit i-1 = point i)."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground-set size must be positive")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside 1..n")

    @classmethod
    def of(cls, n: int, points: Iterable[int]) -> "Block":
        mask = 0
        for p in points:
            if not 1 <= p <= n:
                raise ValueError(f"point {p} outside 1..{n}")
            mask |= 1 << (p - 1)
        return cls(n, mask)

    @classmethod
    def universe(cls, n: int) -> "Block":
        return cls(n, (1 << n) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in _bit_positions(self.mask))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, point: int) -> bool:
        return 1 <= point <= self.n and bool(self.mask >> (point - 1) & 1)

    def issubset(self, other: "Block") -> bool:
        return self.mask & other.mask == self.mask

    def intersection_size(self, other: "Block") -> int:
        return (self.mask & other.mask).bit_count()

    def __repr__(self):
        return f"Block({self.n}, {{{','.join(map(str, self.members))}}})"


@dataclass(frozen=True)
class Family:
    """A duplicate-free ordered list of Blocks over a common ground set."""

    n: int
    sets: tuple[Block, ...]

    def __post_init__(self):
        for b in self.sets:
            if b.n != self.n:
                raise ValueError("all blocks must share the family's ground size")
        if len({b.mask for b in self.sets}) != len(self.sets):
            raise ValueError("duplicate blocks in family")

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "Family":
        return cls(n, tuple(Block.of(n, s) for s in sets))

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "Family":
        return cls(n, tuple(Block(n, m) for m in masks))

    @classmethod
    def from_rows(cls, n: int, rows: np.ndarray) -> "Family":
        """One member per row of an integer array of points in 1..n.

        The points are set as bits of one little-endian byte matrix by
        a single ``np.bitwise_or.at``, not point by point as
        ``Family.of`` does.
        """
        rows = np.asarray(rows, dtype=np.int64) - 1
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d array")
        if rows.size and not (0 <= rows.min() and rows.max() < n):
            raise ValueError(f"point outside 1..{n}")
        width = (n + 7) // 8
        packed = np.zeros((rows.shape[0], width), dtype=np.uint8)
        bit = (1 << (rows & 7)).astype(np.uint8)
        np.bitwise_or.at(packed, (np.arange(rows.shape[0])[:, None], rows >> 3), bit)
        buf = packed.tobytes()
        return cls.from_masks(
            n,
            (int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)),
        )

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.sets)

    def canonical(self) -> "Family":
        """Members sorted by (cardinality, mask value)."""
        return Family(self.n, tuple(sorted(self.sets, key=lambda b: (b.size, b.mask))))

    def count_size_geq(self, k: int) -> int:
        return sum(1 for b in self.sets if b.size >= k)

    def to_words(self) -> np.ndarray:
        """Bit-pack into a (len, ceil(n/64)) uint64 matrix for the kernels."""
        n_words = (self.n + 63) // 64
        out = np.zeros((len(self.sets), n_words), dtype=np.uint64)
        for i, b in enumerate(self.sets):
            m = b.mask
            for w in range(n_words):
                out[i, w] = m & 0xFFFFFFFFFFFFFFFF
                m >>= 64
        return out


def violating_pair(fam: Family, t: int) -> Optional[tuple[int, int]]:
    """0-based indices (i < j) of the first violating pair in family order.

    Pairs are visited row by row: the smallest i with a violation, then
    the smallest j > i.  None when fam is t-laminar.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if len(fam) >= _KERNEL_MIN_SETS:
        return _kernels.find_violation(fam.to_words(), t)
    masks = [b.mask for b in fam.sets]
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            c = mi & masks[j]
            if c.bit_count() >= t and c != mi and c != masks[j]:
                return i, j
    return None


def is_t_laminar(fam: Family, t: int) -> bool:
    """True iff every pair A != B in fam has |A n B| < t or is nested.

    The empty family and singleton families are vacuously laminar.
    """
    return violating_pair(fam, t) is None


def laminarity_witness(fam: Family, t: int) -> Optional[tuple[Block, Block]]:
    """First violating pair in family order, or None when t-laminar."""
    hit = violating_pair(fam, t)
    if hit is None:
        return None
    i, j = hit
    return fam.sets[i], fam.sets[j]


def maximal_sets(fam: Family, exclude_universe: bool = False) -> Family:
    """Blocks not strictly contained in another eligible block (an antichain).

    With exclude_universe the full set [n] is removed before taking
    maximal elements, matching the structural decomposition that feeds
    the packing inequalities.
    """
    full = (1 << fam.n) - 1
    eligible = [b for b in fam.sets if not (exclude_universe and b.mask == full)]
    out = []
    for b in eligible:
        dominated = any(
            b.mask != c.mask and b.mask & c.mask == b.mask for c in eligible
        )
        if not dominated:
            out.append(b)
    return Family(fam.n, tuple(out))


def _unpack(fam: Family) -> np.ndarray:
    """The members' bits as a |F| x 8*ceil(n/8) zero-one uint8 matrix.

    Every mask becomes ``ceil(n/8)`` little-endian bytes (``int.to_bytes``)
    and one ``np.unpackbits`` spreads them out, so column i holds point
    i+1; the columns from n on are 0.
    """
    width = (fam.n + 7) // 8
    buf = b"".join(b.mask.to_bytes(width, "little") for b in fam.sets)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(fam), width)
    return np.unpackbits(packed, axis=1, bitorder="little")


def incidence_matrix(fam: Family) -> np.ndarray:
    """|F| x n zero-one matrix; entry (A, i) = 1 iff point i+1 in A."""
    return _unpack(fam)[:, : fam.n]


def csr_points(fam: Family) -> tuple[np.ndarray, np.ndarray]:
    """Every member's 0-based points, ascending, concatenated in family
    order, and the int64 offsets delimiting the members CSR-style."""
    bits = _unpack(fam)
    points = np.flatnonzero(bits.view(bool)) % bits.shape[1]
    offsets = np.zeros(len(fam) + 1, dtype=np.int64)
    np.cumsum([b.mask.bit_count() for b in fam.sets], out=offsets[1:])
    return points, offsets


def forbidden_matrix(t: int) -> np.ndarray:
    """The 2 x (t+2) configuration: columns 01, 10, and t copies of 11."""
    if t < 1:
        raise ValueError("t must be >= 1")
    z = np.ones((2, t + 2), dtype=np.uint8)
    z[0, 0] = 0
    z[1, 1] = 0
    return z


# rows of the incidence matrix per Gram block in contains_config; a
# block holds one or two (block x F) float64 arrays and a few bool ones
_GRAM_BLOCK_ROWS = 256


def contains_config(m: np.ndarray, z: np.ndarray) -> bool:
    """True iff some row/column permutation of z is a submatrix of m.

    Two-row z reduces exactly to column-type counting over row pairs of
    m: rows i, j host z iff, for each column type 00/01/10/11, m has at
    least as many columns of that type on (i, j) as z has on its rows
    in one of the two orders.  With G = m m^T and row sums s, the
    counts of the pair are 11 = G, 10 = s_i - G, 01 = s_j - G and
    00 = n - s_i - s_j + G.  G is a float64 matmul, exact because every
    entry is at most n, taken over the upper triangle in blocks of
    _GRAM_BLOCK_ROWS rows, so memory is O(block x F) and the scan stops
    at the first block with a hit.

    Arbitrary z falls back to enumerating row selections and
    permutations with multiset matching on columns; that search is
    exponential and intended for desk-scale oracles only.
    """
    m = np.asarray(m, dtype=np.uint8)
    z = np.asarray(z, dtype=np.uint8)
    if z.shape[0] > m.shape[0] or z.shape[1] > m.shape[1]:
        return False
    if z.shape[0] == 2:
        return _contains_two_row(m, z)
    return _contains_config_general(m, z)


def _contains_two_row(m: np.ndarray, z: np.ndarray) -> bool:
    z0, z1 = z.astype(np.int64)
    z11 = int((z0 & z1).sum())
    z00 = int(((1 - z0) & (1 - z1)).sum())
    # the unordered pair of counts {10, 01} = {s_i - G, s_j - G} covers
    # z's pair in some order iff min >= the smaller and max >= the larger;
    # both are compared side by side, with no (block x F) float temporary
    z_lo, z_hi = sorted((int((z0 & (1 - z1)).sum()), int(((1 - z0) & z1).sum())))
    n = m.shape[1]
    a = m.astype(np.float64)
    s = a.sum(axis=1)
    for r0 in range(0, a.shape[0], _GRAM_BLOCK_ROWS):
        r1 = min(r0 + _GRAM_BLOCK_ROWS, a.shape[0])
        g = a[r0:r1] @ a[r0:].T  # rows r0..r1 against rows r0..F
        si = s[r0:r1, None]
        sj = s[None, r0:]
        hit = g >= z11
        hit &= g <= si - z_lo
        hit &= g <= sj - z_lo
        if z_hi > z_lo:
            hit &= (g <= si - z_hi) | (g <= sj - z_hi)
        if z00:
            hit &= g >= si + sj + (z00 - n)
        k = np.arange(r1 - r0)
        hit[:, : r1 - r0] &= k[None, :] > k[:, None]  # j > i only
        if hit.any():
            return True
    return False


def _contains_config_general(m: np.ndarray, z: np.ndarray) -> bool:
    r = z.shape[0]

    def col_counts(mat: np.ndarray) -> dict[tuple[int, ...], int]:
        counts: dict[tuple[int, ...], int] = {}
        for col in mat.T:
            key = tuple(int(x) for x in col)
            counts[key] = counts.get(key, 0) + 1
        return counts

    for rows in combinations(range(m.shape[0]), r):
        sub = m[list(rows)]
        for perm in permutations(range(r)):
            need = col_counts(z)
            have = col_counts(sub[list(perm)])
            if all(have.get(k, 0) >= v for k, v in need.items()):
                return True
    return False


def unique_chain_check(fam: Family, t: int) -> bool:
    """Chain condition on t-subsets after augmenting fam with all of them.

    For each t-subset T of [n], the members of size >= t containing T,
    together with T itself, must be totally ordered by inclusion; this
    is equivalent to t-laminarity.  (Without the augmentation the
    condition would be vacuous for families lacking size-t members.)

    The check is driven by the incidences: every member S of size >= t
    emits its C(|S|, t) subsets T by bit iteration, and members are
    visited by nondecreasing size, so each T's group arrives in chain
    order and must grow by inclusion.  The added t-sets never need to
    be visited: a t-set contains no other t-set, so T is the only
    added set in T's group, and T lies below every member of it.
    Adding it cannot break a chain.  Cost: sum of C(|S|, t) steps, and
    the t-subsets no member covers cost nothing.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    top: dict[int, int] = {}  # t-subset -> largest member seen containing it
    for mask in sorted((b.mask for b in fam.sets if b.size >= t), key=int.bit_count):
        bits = [1 << p for p in _bit_positions(mask)]
        for sub in combinations(bits, t):
            key = sum(sub)
            below = top.get(key)
            if below is not None and below & mask != below:
                return False
            top[key] = mask
    return True


class ChecksDisagree(RuntimeError):
    """The three equivalent t-laminarity checks returned different verdicts.

    The three characterizations are equivalent, so this means a bug or
    corrupted memory, never a property of the family.
    """

    def __init__(self, pairwise: bool, config_free: bool, chained: bool):
        self.verdicts = (pairwise, config_free, chained)
        super().__init__(
            "equivalent laminarity checks disagree:"
            f" pairwise={pairwise} config-free={config_free} unique-chain={chained}"
        )


def verify_t_laminar(fam: Family, t: int) -> Optional[tuple[int, int]]:
    """Run all three characterizations; the first violating pair or None.

    Each check runs on its own, so a fault in one shows up as a
    disagreement (ChecksDisagree) rather than a wrong verdict.  The pair
    is violating_pair's, in family order.
    """
    hit = violating_pair(fam, t)
    avoided = not contains_config(incidence_matrix(fam), forbidden_matrix(t))
    chained = unique_chain_check(fam, t)
    if not (hit is None) == avoided == chained:
        raise ChecksDisagree(hit is None, avoided, chained)
    return hit


# ---------------------------------------------------------------------------
# text / JSON serialization
#
# Text format: optional leading '#' comment lines, then a header line
# "n=<int>" or "n=<int> t=<int>", then one line per set listing its
# points in strictly increasing order.


class FamilyParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def family_to_text(fam: Family, t: int | None = None, comments: Iterable[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    header = f"n={fam.n}" if t is None else f"n={fam.n} t={t}"
    lines.append(header)
    points, offsets = csr_points(fam)
    names = [str(i) for i in range(1, fam.n + 1)]
    words = [names[p] for p in points.tolist()]
    ends = offsets.tolist()
    lines.extend(" ".join(words[a:b]) for a, b in zip(ends, ends[1:]))
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> tuple[Family, int | None, list[str]]:
    """Parse the text format; returns (family, t or None, comment lines)."""
    comments: list[str] = []
    header: str | None = None
    header_line = 0
    sets: list[list[int]] = []
    n = 0
    t: int | None = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        if header is None:
            header = line
            header_line = ln
            parts = dict(
                kv.split("=", 1) for kv in line.split() if "=" in kv
            )
            if "n" not in parts:
                raise FamilyParseError("header must contain n=<int>", ln)
            try:
                n = int(parts["n"])
                t = int(parts["t"]) if "t" in parts else None
            except ValueError:
                raise FamilyParseError("malformed header values", ln) from None
            continue
        try:
            pts = [int(x) for x in line.split()]
        except ValueError:
            raise FamilyParseError("non-integer point", ln) from None
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise FamilyParseError("points must be strictly increasing", ln)
        sets.append(pts)
    if header is None:
        raise FamilyParseError("missing header line", header_line or 1)
    return Family.of(n, sets), t, comments


def family_to_json(fam: Family, t: int | None = None) -> dict:
    doc: dict = {"n": fam.n, "sets": [list(b.members) for b in fam.sets]}
    if t is not None:
        doc["t"] = t
    return doc


def family_from_json(doc: dict) -> tuple[Family, int | None]:
    return Family.of(int(doc["n"]), doc["sets"]), (
        int(doc["t"]) if "t" in doc else None
    )
