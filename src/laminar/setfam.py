"""Ground-set subsets, set families, and t-laminarity.

A family F over [n] is t-laminar when any two members sharing at least t
points are nested.  The classical laminar condition is t = 1.  Three
equivalent views are implemented and cross-checked (`verify_t_laminar`
runs all three, as `laminar verify` does):

  1. the pairwise predicate (`is_t_laminar`, `violating_pair`) on
     bit-packed words (`_kernels.find_violation`),
  2. avoidance of a forbidden 2 x (t+2) zero-one configuration in the
     incidence matrix (`contains_config` / `forbidden_matrix`),
  3. a unique-chain condition on t-subsets after augmenting the family
     with all of them (`unique_chain_check`).

Only member pairs sharing t points can break 1 or 2, and
`verify_t_laminar` lists them once for both (`_kernels.shared_pairs`),
or scans every pair in blocks where listing costs more.  Check 3
shares no code with that listing and is the independent witness.  On
the 1625-set tower (n = 49, t = 2) the three take about 2, 2 and 1 ms;
on the circle tower r = 1 (114,842 sets, n = 82, t = 3) about 0.2, 0.2
and 0.1 s (one thread of a 2-core VM).

Members are int masks: ground point i (1-based) is bit i-1.  A Family
is a ground-set size n and a tuple of masks; it keeps its members in
order, so derived artifacts are byte-reproducible.  Every conversion
between masks and other forms goes through one codec: `csr_from_sets`
turns 1-based point lists into 0-based points delimited CSR-style by
offsets, `masks_from_csr` packs such points into masks with one
``np.bitwise_or.at``; `mask_bits` unpacks masks into zero-one uint8 bit
rows, and `masks_from_bits` packs such rows back.  The text writer `csr_to_text` reads CSR points, so a design, whose blocks
are CSR arrays already (`geometry.Design`), is written with no masks.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, combinations, permutations
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _kernels


def _bit_positions(mask: int) -> list[int]:
    """0-based positions of the set bits of mask, ascending; O(popcount)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# codec: CSR points and zero-one bit rows to int masks and back


def _mask_bytes(masks: Sequence[int], width: int) -> np.ndarray:
    """Every mask as ``width`` little-endian bytes (``int.to_bytes``), one
    read-only len(masks) x width uint8 row per mask."""
    buf = b"".join(m.to_bytes(width, "little") for m in masks)
    return np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), width)


def _byte_masks(packed: np.ndarray) -> list[int]:
    """Inverse of _mask_bytes: each little-endian uint8 row as an int.

    Rows of at most 16 bytes are zero-padded to 8 or 16 and read as one
    or two little-endian uint64 columns, each in one ``tolist``.
    """
    width = packed.shape[1]
    if width <= 16:
        wide = np.zeros((len(packed), 8 if width <= 8 else 16), dtype=np.uint8)
        wide[:, :width] = packed
        cols = wide.view("<u8").T.tolist()
        return cols[0] if width <= 8 else [a | b << 64 for a, b in zip(*cols)]
    buf = packed.tobytes()
    return [
        int.from_bytes(buf[i * width : (i + 1) * width], "little") for i in range(len(packed))
    ]


# bits unpacked at a time by _csr_of_bytes: 1 MB of zero-one bytes
_UNPACK_BITS = 1 << 20


def _csr_of_bytes(packed: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based points below n of _mask_bytes rows, ascending within a
    row and concatenated in row order, and the int64 offsets delimiting
    the rows CSR-style; _UNPACK_BITS zero-one bytes at a time."""
    f = len(packed)
    step = max(1, _UNPACK_BITS // n)
    flat = [np.zeros(0, dtype=np.intp)]
    for lo in range(0, f, step):
        bits = np.unpackbits(packed[lo : lo + step], axis=1, count=n, bitorder="little")
        flat.append(np.flatnonzero(bits.view(bool)) + lo * n)
    rows, points = np.divmod(np.concatenate(flat), n)
    offsets = np.zeros(f + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=f), out=offsets[1:])
    return points, offsets


def csr_from_sets(
    n: int, sets: Iterable[Iterable], point: Callable[[object], int] = operator.index
) -> tuple[np.ndarray, np.ndarray]:
    """The 1-based point iterables as 0-based int64 points, concatenated
    in order, and the int64 offsets delimiting them CSR-style.  Every
    point goes through ``point`` (``int`` reads text tokens), whose
    ValueError passes through; a point too large for int64 raises
    ValueError too.  The range 1..n is left to the caller."""
    rows = [list(s) for s in sets]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    try:
        points = np.fromiter(map(point, chain.from_iterable(rows)), np.int64, int(offsets[-1]))
    except OverflowError:
        raise ValueError(f"point outside 1..{n}") from None
    return points - 1, offsets


def masks_from_csr(n: int, points: np.ndarray, offsets: np.ndarray) -> list[int]:
    """One mask per member, member i holding the 0-based points
    ``points[offsets[i]:offsets[i+1]]`` of the ground set [n].

    A point outside 0..n-1 raises ValueError naming the first one as a
    1-based point.  The points are set as bits of one little-endian
    byte matrix by a single ``np.bitwise_or.at``.
    """
    if n < 1:
        raise ValueError("ground-set size must be positive")
    points = np.asarray(points, dtype=np.int64)
    outside = np.flatnonzero((points < 0) | (points >= n))
    if outside.size:
        # csr_from_sets' shift to 0-based wraps the point -2^63 round to
        # 2^63 - 1, and adding the 1 back wraps it home
        with np.errstate(over="ignore"):
            first = points[outside[0]] + 1
        raise ValueError(f"point {first} outside 1..{n}")
    members = len(offsets) - 1
    packed = np.zeros((members, (n + 7) // 8), dtype=np.uint8)
    rows = np.repeat(np.arange(members), np.diff(offsets))
    np.bitwise_or.at(packed, (rows, points >> 3), (1 << (points & 7)).astype(np.uint8))
    return _byte_masks(packed)


def mask_bits(masks: Sequence[int], width: int) -> np.ndarray:
    """The masks as a len(masks) x width zero-one uint8 matrix, bit j of
    each mask in column j.  Every mask must be below 2^(8 ceil(width/8)).

    One ``np.unpackbits`` spreads the ``ceil(width/8)`` bytes of each
    mask out.
    """
    packed = _mask_bytes(masks, (width + 7) // 8)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def masks_from_bits(bits: np.ndarray) -> list[int]:
    """Inverse of mask_bits: column j of each zero-one row becomes bit j."""
    return _byte_masks(np.packbits(bits, axis=1, bitorder="little"))


@dataclass(frozen=True)
class Family:
    """A duplicate-free ordered tuple of member masks over the ground set
    [n]; bit i-1 of a mask is point i.  Any iterable of masks is stored
    as a tuple."""

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(self.masks))
        if self.n < 1:
            raise ValueError("ground-set size must be positive")
        if self.masks and (min(self.masks) < 0 or max(self.masks) >> self.n):
            raise ValueError("mask has bits outside 1..n")
        if len(set(self.masks)) != len(self.masks):
            raise ValueError("duplicate blocks in family")

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "Family":
        """One member per iterable of points in 1..n, packed by masks_from_csr."""
        return cls(n, masks_from_csr(n, *csr_from_sets(n, sets)))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def count_size_geq(self, k: int) -> int:
        return sum(1 for m in self.masks if m.bit_count() >= k)

    def to_words(self) -> np.ndarray:
        """Bit-pack into a read-only (len, ceil(n/64)) uint64 matrix for the
        kernels: the 8*ceil(n/64) little-endian bytes of every mask, viewed
        as little-endian words."""
        return _mask_bytes(self.masks, 8 * ((self.n + 63) // 64)).view("<u8")


def violating_pair(fam: Family, t: int) -> Optional[tuple[int, int]]:
    """0-based indices (i < j) of the first violating pair in family order.

    Pairs are visited row by row: the smallest i with a violation, then
    the smallest j > i.  None when fam is t-laminar.
    """
    return _kernels.find_violation(fam.to_words(), t)


def is_t_laminar(fam: Family, t: int) -> bool:
    """True iff every pair A != B in fam has |A n B| < t or is nested.

    The empty family and singleton families are vacuously laminar.
    """
    return violating_pair(fam, t) is None


def incidence_matrix(fam: Family) -> np.ndarray:
    """|F| x n zero-one matrix; entry (A, i) = 1 iff point i+1 in A."""
    return mask_bits(fam.masks, fam.n)


def csr_points(fam: Family) -> tuple[np.ndarray, np.ndarray]:
    """Every member's 0-based points, ascending, concatenated in family
    order, and the int64 offsets delimiting the members CSR-style."""
    return _csr_of_bytes(_mask_bytes(fam.masks, (fam.n + 7) // 8), fam.n)


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

# row-pair words (pairs times words per row) per chunk of shared pairs
# in contains_config: two uint64 gathers of at most 1 MB each
_PAIR_CHUNK_WORDS = 1 << 17


def contains_config(m: np.ndarray, z: np.ndarray, pairs=_kernels.FROM_ROWS) -> bool:
    """True iff some row/column permutation of z is a submatrix of m.

    Two-row z reduces exactly to column-type counting over row pairs of
    m: rows i, j host z iff, for each column type 00/01/10/11, m has at
    least as many columns of that type on (i, j) as z has on its rows
    in one of the two orders.  With G = m m^T and row sums s, the
    counts of the pair are 11 = G, 10 = s_i - G, 01 = s_j - G and
    00 = n - s_i - s_j + G.

    Rows that host z share z's z11 columns of type 11.  So when z11 >= 1
    the candidate pairs are `_kernels.shared_pairs` of m's rows at
    t = z11, and G is the popcount of the bit-packed words both rows of
    a candidate pair hold, in chunks of _PAIR_CHUNK_WORDS.  ``pairs``
    is that listing when the caller has built it, and None to test
    every pair; by default it is built here (`_kernels.row_pairs`).
    When z11 = 0, or the listing is None, G is a float64 matmul, exact
    because every entry is at most n, taken over the upper triangle in
    blocks of _GRAM_BLOCK_ROWS rows, so memory is O(block x F) and the
    scan stops at the first block with a hit.

    Arbitrary z falls back to enumerating row selections and
    permutations with multiset matching on columns; that search is
    exponential and intended for desk-scale oracles only.
    """
    m = np.asarray(m, dtype=np.uint8)
    z = np.asarray(z, dtype=np.uint8)
    if z.shape[0] > m.shape[0] or z.shape[1] > m.shape[1]:
        return False
    if z.shape[0] == 2:
        return _contains_two_row(m, z, pairs)
    return _contains_config_general(m, z)


def _contains_two_row(m: np.ndarray, z: np.ndarray, pairs) -> bool:
    z0, z1 = z.astype(np.int64)
    z11 = int((z0 & z1).sum())
    z00 = int(((1 - z0) & (1 - z1)).sum())
    # the unordered pair of counts {10, 01} = {s_i - G, s_j - G} covers
    # z's pair in some order iff min >= the smaller and max >= the larger;
    # both are compared side by side, with no (block x F) float temporary
    z_lo, z_hi = sorted((int((z0 & (1 - z1)).sum()), int(((1 - z0) & z1).sum())))
    n = m.shape[1]

    def hosts(g, si, sj):
        """Which pairs with 11-counts g and row sums si, sj host z."""
        hit = g >= z11
        hit &= g <= si - z_lo
        hit &= g <= sj - z_lo
        if z_hi > z_lo:
            hit &= (g <= si - z_hi) | (g <= sj - z_hi)
        if z00:
            hit &= g >= si + sj + (z00 - n)
        return hit

    if not z11:
        pairs = None
    elif pairs is _kernels.FROM_ROWS:
        pairs = _kernels.row_pairs(m, z11)
    if pairs is not None:
        s = m.sum(axis=1, dtype=np.int64)
        # the rows bit-packed into little-endian words: G of a pair is
        # the popcount of the words both rows hold, summed in int64
        packed = np.packbits(m, axis=1, bitorder="little")
        words = np.zeros((m.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        words = words.view("<u8")
        step = max(1, _PAIR_CHUNK_WORDS // words.shape[1])
        for i_all, j_all in pairs:
            for lo in range(0, i_all.size, step):
                i, j = i_all[lo : lo + step], j_all[lo : lo + step]
                g = _kernels.popcount_u64(words[i] & words[j]).sum(axis=1, dtype=np.int64)
                if hosts(g, s[i], s[j]).any():
                    return True
        return False
    a = m.astype(np.float64)
    s = a.sum(axis=1)
    for r0 in range(0, a.shape[0], _GRAM_BLOCK_ROWS):
        r1 = min(r0 + _GRAM_BLOCK_ROWS, a.shape[0])
        g = a[r0:r1] @ a[r0:].T  # rows r0..r1 against rows r0..F
        hit = hosts(g, s[r0:r1, None], s[None, r0:])
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


# up to this many t-subset rows a dictionary beats the sort's fixed
# cost: 0.1 against 0.4 ms on the 108 rows of `search --n 9`'s 49 sets
_CHAIN_DICT_ROWS = 256


def unique_chain_check(fam: Family, t: int) -> bool:
    """Chain condition on t-subsets after augmenting fam with all of them.

    For each t-subset T of [n], the members of size >= t containing T,
    together with T itself, must be totally ordered by inclusion; this
    is equivalent to t-laminarity.  (Without the augmentation the
    condition would be vacuous for families lacking size-t members.)
    T itself, below every member holding it, never needs a visit.

    Members S of size >= t are met by nondecreasing size, and each of
    their C(|S|, t) t-subsets T (a row) must lie in the last member met
    holding T.  Up to _CHAIN_DICT_ROWS rows, that is one dictionary step
    per row.  Beyond, the check packs the masks itself and ranks the
    rows (`_kernels.colex_ranks`) in chunks of at most _COVER_CHUNK.
    One sort of a chunk with the t-subsets met before it, each with its
    last member, lines up every T's members in the order met, and each
    pair of neighbours (a, b) is tested for a & ~b == 0 on bit-packed
    words, _PAIR_CHUNK_WORDS pair words at a time; the first chunk with
    a broken chain ends the check.  Keys are int64, or Python ints where
    C(n, t) is too large.  Memory is a chunk plus a rank and a member
    per t-subset met.  The circle tower r = 1 (354,240 rows) takes about
    0.1 s, against 0.4 s for the dictionary.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if _chain_by_dict(fam, t):
        holder: dict[int, int] = {}  # t-subset -> the last member met holding it
        for mask in sorted((m for m in fam.masks if m.bit_count() >= t), key=int.bit_count):
            for sub in combinations([1 << p for p in _bit_positions(mask)], t):
                key = sum(sub)
                below = holder.get(key)
                if below is not None and below & mask != below:
                    return False
                holder[key] = mask
        return True
    packed = _mask_bytes(fam.masks, 8 * ((fam.n + 63) // 64))
    words = packed.view("<u8")
    points, offsets = _csr_of_bytes(packed, fam.n)
    # a sort key is rank << shift | place: place 0 for a t-subset met
    # in an earlier chunk, and 1, 2, ... for the chunk's ranks in order
    shift = _kernels._COVER_CHUNK.bit_length()
    dtype = np.int64 if comb(fam.n, t) << shift <= 2**63 else object
    seen = np.zeros(0, dtype=dtype)  # the t-subsets met so far, ascending
    top = np.zeros(0, dtype=np.intp)  # the last member met holding each
    step = max(1, _PAIR_CHUNK_WORDS // words.shape[1])
    for run, chunk in _kernels.colex_ranks(points, offsets, fam.n, t, dtype):
        key = np.concatenate([seen << shift, chunk.ravel() << shift | np.arange(1, chunk.size + 1)])
        key.sort()
        rank, place = key >> shift, key & ((1 << shift) - 1)
        # chunk row j holds places j c + 1 ... (j + 1) c of run[j]
        member = run[(place.astype(np.intp) - 1) // chunk.shape[1]]
        member[place == 0] = top
        same = np.flatnonzero(rank[1:] == rank[:-1])
        for lo in range(0, same.size, step):
            k = same[lo : lo + step]
            if (words[member[k]] & ~words[member[k + 1]]).any():
                return False
        last = np.ones(rank.size, dtype=bool)
        last[same] = False
        seen, top = rank[last], member[last]
    return True


def _chain_by_dict(fam: Family, t: int) -> bool:
    """Whether unique_chain_check takes one dictionary step per t-subset
    row: fam has at most _CHAIN_DICT_ROWS of them."""
    return len(fam) <= _CHAIN_DICT_ROWS and (
        sum(comb(m.bit_count(), t) for m in fam.masks) <= _CHAIN_DICT_ROWS
    )


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


def verify_t_laminar(
    fam: Family, t: int, paths: Optional[dict] = None
) -> Optional[tuple[int, int]]:
    """Run all three characterizations; the first violating pair or None.

    One packing of the masks gives the words of check 1 and the
    incidence rows of check 2, and the member pairs sharing t points
    are listed once for both; check 3 shares no code with that listing.
    So a fault in one check, or in the listing, shows up as a
    disagreement (ChecksDisagree) rather than a wrong verdict.  The pair
    is violating_pair's, in family order.

    A ``paths`` dict receives, before the checks run, the listing of
    checks 1-2 under "pairs" (a `_kernels.PairChunks`, or None when they
    scan every pair in blocks), check 3's t-subset rows under
    "chain_rows", and under "chain_dict" whether it steps through them.
    """
    packed = _mask_bytes(fam.masks, 8 * ((fam.n + 63) // 64))
    m = np.unpackbits(packed, axis=1, count=fam.n, bitorder="little")
    pairs = _kernels.row_pairs(m, t)
    if paths is not None:
        rows = _kernels.row_count(m.sum(axis=1, dtype=np.int64), t)
        paths.update(pairs=pairs, chain_rows=rows, chain_dict=_chain_by_dict(fam, t))
    hit = _kernels.find_violation(packed.view("<u8"), t, pairs)
    avoided = not contains_config(m, forbidden_matrix(t), pairs)
    chained = unique_chain_check(fam, t)
    if not (hit is None) == avoided == chained:
        raise ChecksDisagree(hit is None, avoided, chained)
    return hit


# ---------------------------------------------------------------------------
# text / JSON serialization
#
# Text format: optional leading '#' comment lines, then a header line
# "n=<int>" or "n=<int> t=<int>", then one line per set listing its
# points in strictly increasing order.  A blank line is no member, so
# the empty member has no text form.


class FamilyParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def csr_to_text(
    n: int, points: np.ndarray, offsets: np.ndarray,
    t: int | None = None, comments: Iterable[str] = (),
) -> str:
    """The members given as CSR points (0-based, ascending within a
    member) in the text format.  Every label comes from one gather of
    the 1-based point names."""
    if (np.diff(offsets) == 0).any():
        raise ValueError("the text format cannot hold the empty member")
    lines = [f"# {c}" for c in comments]
    lines.append(f"n={n}" if t is None else f"n={n} t={t}")
    names = np.array([str(i) for i in range(1, n + 1)], dtype=object)
    words = names[points].tolist()
    ends = offsets.tolist()
    lines.extend(" ".join(words[a:b]) for a, b in zip(ends, ends[1:]))
    return "\n".join(lines) + "\n"


def family_to_text(fam: Family, t: int | None = None, comments: Iterable[str] = ()) -> str:
    return csr_to_text(fam.n, *csr_points(fam), t=t, comments=comments)


def family_from_text(text: str) -> tuple[Family, int | None, list[str]]:
    """Parse the text format; returns (family, t or None, comment lines).

    Every member's tokens go through one ``int`` pass into CSR points
    (``csr_from_sets``), and one comparison of neighbouring points tests
    that they increase within each member.  A file that fails either
    test is named by its first bad line.
    """
    comments: list[str] = []
    header: str | None = None
    header_line = 0
    rows: list[list[str]] = []
    row_lines: list[int] = []
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
        rows.append(line.split())
        row_lines.append(ln)
    if header is None:
        raise FamilyParseError("missing header line", header_line or 1)
    try:
        points, offsets = csr_from_sets(n, rows, int)
    except ValueError:
        # a token int() rejects, or a point past int64: the first line
        # that fails a check line by line is the error, else the point
        # past int64 is
        for ln, row in zip(row_lines, rows):
            try:
                pts = [int(x) for x in row]
            except ValueError:
                raise FamilyParseError("non-integer point", ln) from None
            if any(b <= a for a, b in zip(pts, pts[1:])):
                raise FamilyParseError("points must be strictly increasing", ln)
        raise
    # position k compares points k and k + 1, unless point k + 1 is the
    # first of a member; they are compared as read, since the shift to
    # 0-based wraps the point -2^63 round to 2^63 - 1
    read = points + 1
    down = read[1:] <= read[:-1]
    down[offsets[1:-1] - 1] = False
    bad = np.flatnonzero(down)
    if bad.size:
        member = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise FamilyParseError("points must be strictly increasing", row_lines[member])
    return Family(n, masks_from_csr(n, points, offsets)), t, comments


def family_to_json(fam: Family, t: int | None = None) -> dict:
    points, offsets = csr_points(fam)
    flat, ends = (points + 1).tolist(), offsets.tolist()
    doc: dict = {"n": fam.n, "sets": [flat[a:b] for a, b in zip(ends, ends[1:])]}
    if t is not None:
        doc["t"] = t
    return doc


def family_from_json(doc: dict) -> tuple[Family, int | None]:
    return Family.of(int(doc["n"]), doc["sets"]), (
        int(doc["t"]) if "t" in doc else None
    )
