"""Ground-set subsets, set families, and t-laminarity.

A family F over [n] is t-laminar when any two members sharing at least t
points are nested.  The classical laminar condition is t = 1.  Three
equivalent views are implemented and cross-checked (`verify_t_laminar`
runs all three, as `laminar verify` does):

  1. the pairwise predicate (`is_t_laminar`, `violating_pair`) on
     bit-packed words (`_kernels.find_violation`),
  2. avoidance of a forbidden 2 x (t+2) zero-one configuration in the
     incidence matrix (`forbidden_matrix`; `contains_config` takes any
     two-row configuration),
  3. a unique-chain condition on t-subsets after augmenting the family
     with all of them (`unique_chain_check`).

Only member pairs sharing t points can break 1 or 2, and
`verify_t_laminar` lists them once for both from the members' points
(`_kernels.shared_pairs`), or scans every pair in blocks where listing
costs more.  Check 3, one chunked sort of the t-subsets' colex ranks,
shares no code with that listing and is the independent witness.  On
the 1625-set tower (n = 49, t = 2) the three take about 0.8, 0.9 and
0.5 ms; on the circle tower r = 1 (114,842 sets, n = 82, t = 3) about
0.10, 0.10 and 0.04 s (one thread of a 2-core VM).

A Family holds its members as CSR arrays, as `geometry.Design` holds
its blocks.  The parsers build them, the writers read them, and the
kernels take them or the words packed from them once (`Family.words`).
These are its only two forms: the int masks (bit i-1 for point i) of
the clique search are `search`'s alone, and it builds its result from
their points with `Family.of`.
"""

from __future__ import annotations

import io
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import comb
from typing import Iterable, Optional

import numpy as np

from . import _kernels


class CapExceeded(ValueError):
    """A request is larger than the cap that `construct` or `search`
    sets on it (the CLI exits 3)."""


class MemberError(ValueError):
    """A member that a Family cannot hold; ``member`` is its 0-based index."""

    def __init__(self, message: str, member: int):
        super().__init__(message)
        self.member = member


def csr_from_sets(n: int, sets: Iterable[Iterable]) -> tuple[np.ndarray, np.ndarray]:
    """The 1-based point iterables as 0-based int64 points, concatenated
    in order, and the int64 offsets delimiting them CSR-style.  A point
    ``operator.index`` rejects raises TypeError, one past int64
    MemberError; the range 1..n is left to the caller."""
    rows = [list(s) for s in sets]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    try:
        points = np.fromiter(map(operator.index, chain.from_iterable(rows)), np.int64,
                             int(offsets[-1]))
    except OverflowError:
        member = next(i for i, r in enumerate(rows) if any(not -2**63 <= p < 2**63 for p in r))
        raise MemberError(f"point outside 1..{n}", member) from None
    return points - 1, offsets


def csr_arrays(n: int, points, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int64 copies of CSR arrays of members of [n], checked:
    offsets run nondecreasing from 0 to the point count, and every point
    lies in 0..n-1 (the first one outside is named 1-based) and strictly
    increases within its member (MemberError names the member)."""
    if n < 1:
        raise ValueError("ground-set size must be positive")
    points = np.array(points, dtype=np.int64)
    offsets = np.array(offsets, dtype=np.int64)
    if points.ndim != 1 or offsets.ndim != 1 or offsets.size == 0:
        raise ValueError("points and offsets must be 1-D, offsets nonempty")
    sizes = offsets[1:] - offsets[:-1]
    if offsets[0] != 0 or offsets[-1] != points.size or (sizes < 0).any():
        raise ValueError("offsets must run nondecreasing from 0 to the point count")
    bad, message = ((points < 0) | (points >= n)).nonzero()[0], "point {} outside 1..{}"
    if not bad.size:
        first = np.zeros(points.size, dtype=bool)  # the first point of a member
        first[offsets[:-1][sizes > 0]] = True
        bad = ((points[1:] <= points[:-1]) & ~first[1:]).nonzero()[0] + 1
        message = "points must be strictly increasing"
    if bad.size:
        # csr_from_sets' shift to 0-based wraps the point -2^63 round to
        # 2^63 - 1, and adding the 1 back wraps it home
        with np.errstate(over="ignore"):
            name = points[bad[0]] + 1
        member = int(np.searchsorted(offsets, bad[0], side="right")) - 1
        raise MemberError(message.format(name, n), member)
    points.flags.writeable = False
    offsets.flags.writeable = False
    return points, offsets


@dataclass(frozen=True, eq=False)
class Family:
    """A duplicate-free ordered family of members of [n]: member i is the
    0-based points ``points[offsets[i]:offsets[i+1]]``, read-only int64
    copies (`csr_arrays`).  A repeated member, found by sorting the
    members of each size (`_kernels.repeated_rows`), raises MemberError
    naming the later one.  Families compare by value."""

    n: int
    points: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        points, offsets = csr_arrays(self.n, self.points, self.offsets)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "offsets", offsets)
        repeats = np.flatnonzero(_kernels.repeated_rows(points, offsets))
        if repeats.size:
            raise MemberError("duplicate blocks in family", int(repeats.min()))

    @classmethod
    def of(cls, n: int, sets: Iterable[Iterable[int]]) -> "Family":
        """One member per iterable of points in 1..n, in any order; a point
        listed twice counts once."""
        return cls(n, *csr_from_sets(n, (sorted(set(s)) for s in sets)))

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Family) and self.n == other.n and np.array_equal(
            self.offsets, other.offsets) and np.array_equal(self.points, other.points)

    def count_size_geq(self, k: int) -> int:
        return int(np.count_nonzero(np.diff(self.offsets) >= k))

    @cached_property
    def words(self) -> np.ndarray:
        """The members bit-packed for the kernels: a read-only (len,
        ceil(n/64)) uint64 matrix, point i at bit (i-1) % 64 of word
        (i-1) // 64, set by one ``np.bitwise_or.at``."""
        words = np.zeros((len(self), (self.n + 63) // 64), dtype=np.uint64)
        rows = np.repeat(np.arange(len(self)), self.offsets[1:] - self.offsets[:-1])
        bits = np.left_shift(np.uint64(1), (self.points & 63).astype(np.uint64))
        np.bitwise_or.at(words, (rows, self.points >> 6), bits)
        words.flags.writeable = False
        return words


def violating_pair(fam: Family, t: int) -> Optional[tuple[int, int]]:
    """0-based indices (i < j) of the first violating pair in family order.

    Pairs are visited row by row: the smallest i with a violation, then
    the smallest j > i.  None when fam is t-laminar.
    """
    pairs = _kernels.shared_pairs(fam.points, fam.offsets, t)
    return _kernels.find_violation(fam.words, t, pairs)


def is_t_laminar(fam: Family, t: int) -> bool:
    """True iff every pair A != B in fam has |A n B| < t or is nested.

    The empty family and singleton families are vacuously laminar.
    """
    return violating_pair(fam, t) is None


def incidence_matrix(fam: Family) -> np.ndarray:
    """|F| x n zero-one matrix (the words unpacked); entry (A, i) = 1 iff point i+1 in A."""
    return np.unpackbits(fam.words.view(np.uint8), axis=1, count=fam.n, bitorder="little")


def forbidden_matrix(t: int) -> np.ndarray:
    """The 2 x (t+2) configuration: columns 01, 10, and t copies of 11."""
    if t < 1:
        raise ValueError("t must be >= 1")
    z = np.ones((2, t + 2), dtype=np.uint8)
    z[0, 0] = 0
    z[1, 1] = 0
    return z


def contains_config(m: np.ndarray, z: np.ndarray, pairs=None, n: int | None = None) -> bool:
    """True iff some row/column permutation of the two-row z is a
    submatrix of m; a z without two rows raises ValueError.

    m is a zero-one matrix or, with ``n`` given, the rows of one with n
    columns bit-packed as `Family.words` packs members.

    Two-row z reduces exactly to column-type counting over row pairs of
    m: rows i, j host z iff, for each column type 00/01/10/11, m has at
    least as many columns of that type on (i, j) as z has on its rows
    in one of the two orders.  With the Gram entry G = (m m^T)_ij, the
    popcount of the bit-packed words both rows hold, and row sums s,
    the counts of the pair are 11 = G, 10 = s_i - G, 01 = s_j - G and
    00 = n - s_i - s_j + G.

    Rows that host z share z's z11 columns of type 11.  So when z11 >= 1
    a caller holding m's rows as CSR points passes ``pairs`` =
    `_kernels.shared_pairs` of them at t = z11.  When z11 = 0, or
    ``pairs`` is None (the default and shared_pairs' refusal),
    `_kernels.block_pairs` finds the pairs (sharing a point, if z11 >=
    1).  Either way they are tested in pieces of at most
    `_kernels._CHUNK` pair words (`_kernels.pair_pieces`), and the scan
    stops at the first hit.
    """
    z = np.asarray(z, dtype=np.uint8)
    if z.ndim != 2 or z.shape[0] != 2:
        raise ValueError("contains_config takes a z of two rows")
    if n is None:  # pack the rows into little-endian words
        m = np.asarray(m, dtype=np.uint8)
        f, n = m.shape
        words = np.zeros((f, -(-n // 64) * 8), dtype=np.uint8)
        words[:, : -(-n // 8)] = np.packbits(m, axis=1, bitorder="little")
        m = words.view("<u8")
    if z.shape[0] > m.shape[0] or z.shape[1] > n:
        return False
    return _contains_two_row(m, n, z, pairs)


def _contains_two_row(words: np.ndarray, n: int, z: np.ndarray, pairs) -> bool:
    """contains_config for two-row z on rows bit-packed into words: G of
    a pair is the popcount of the words both rows hold."""
    z0, z1 = z.astype(np.int64)
    z11 = int((z0 & z1).sum())
    z00 = int(((1 - z0) & (1 - z1)).sum())
    # the unordered pair of counts {10, 01} = {s_i - G, s_j - G} covers
    # z's pair in some order iff min >= the smaller and max >= the larger;
    # both are compared side by side
    z_lo, z_hi = sorted((int((z0 & (1 - z1)).sum()), int(((1 - z0) & z1).sum())))

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

    s = _kernels.popcount_u64(words).sum(axis=1, dtype=np.int64)
    for i, j in _kernels.pair_pieces(words, pairs if z11 else None, meeting=z11 > 0):
        g = _kernels.popcount_u64(words[i] & words[j]).sum(axis=1, dtype=np.int64)
        if hosts(g, s[i], s[j]).any():
            return True
    return False


def unique_chain_check(fam: Family, t: int) -> bool:
    """Chain condition on t-subsets after augmenting fam with all of them.

    For each t-subset T of [n], the members of size >= t containing T,
    together with T itself, must be totally ordered by inclusion; this
    is equivalent to t-laminarity.  (Without the augmentation the
    condition would be vacuous for families lacking size-t members.)
    T itself, below every member holding it, never needs a visit.

    Members S of size >= t are met by nondecreasing size, and each of
    their C(|S|, t) t-subsets T (a row) must lie in the last member met
    holding T.  The check ranks the rows from the members' points
    (`_kernels.colex_ranks`) in chunks of at most `_kernels._CHUNK`.
    One sort of a chunk with the t-subsets met before it, each with its
    last member, lines up every T's members in the order met, and each
    pair of neighbours (a, b) is tested for a & ~b == 0 on the members'
    words, _CHUNK pair words at a time; the first chunk with a broken
    chain ends the check.  Keys are int64, or Python ints where
    C(n, t) is too large.  Memory is a chunk plus a rank and a member
    per t-subset met.  The circle tower r = 1 (354,240 rows) takes about
    0.04 s.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    words = fam.words
    # a sort key is rank << shift | place: place 0 for a t-subset met
    # in an earlier chunk, and 1, 2, ... for the chunk's ranks in order
    shift = _kernels._CHUNK.bit_length()
    dtype = np.int64 if comb(fam.n, t) << shift <= 2**63 else object
    seen = np.zeros(0, dtype=dtype)  # the t-subsets met so far, ascending
    top = np.zeros(0, dtype=np.intp)  # the last member met holding each
    step = max(1, _kernels._CHUNK // words.shape[1])
    for run, chunk in _kernels.colex_ranks(fam.points, fam.offsets, fam.n, t, dtype):
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

    The members' words (packed once) are the rows of checks 1 and 2 and
    check 3's subset test; the member pairs sharing t points are listed
    once for checks 1-2; check 3 shares no code with that listing.  So a fault in one
    check, or in the listing, shows up as a disagreement (ChecksDisagree)
    rather than a wrong verdict.  The pair is violating_pair's.

    The checks run at min(t, n + 1), which gives every t > n the same
    verdict, since no two members of [n] share n + 1 points, and keeps
    the forbidden matrix within n + 3 columns.

    A ``paths`` dict receives, before the checks run, the listing of
    checks 1-2 under "pairs" (a `_kernels.PairChunks`, or None when they
    scan every pair in blocks) and check 3's t-subset rows under
    "chain_rows".
    """
    t = min(t, fam.n + 1)
    pairs = _kernels.shared_pairs(fam.points, fam.offsets, t)
    if paths is not None:
        paths.update(pairs=pairs, chain_rows=_kernels.row_count(np.diff(fam.offsets), t))
    hit = _kernels.find_violation(fam.words, t, pairs)
    avoided = not contains_config(fam.words, forbidden_matrix(t), pairs, n=fam.n)
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
    return csr_to_text(fam.n, fam.points, fam.offsets, t=t, comments=comments)


# the line breaks of str.splitlines other than "\n", and the bytes of a
# body that _bulk_members reads: digits, spaces and newlines
_OTHER_BREAKS = re.compile("[\r\v\f\x1c-\x1e\x85\u2028\u2029]")
_BULK_BYTES = np.zeros(256, dtype=bool)
_BULK_BYTES[list(b"0123456789 \n")] = True


def _numbered(text: str):
    """(line number, line, offset past it) per line as str.splitlines breaks
    them; the offset is None when a line breaks at more than "\n"."""
    plain, end = _OTHER_BREAKS.search(text) is None, 0
    for ln, raw in enumerate(io.StringIO(text, newline="\n") if plain else text.splitlines(), 1):
        end = end + len(raw) if plain else None
        yield ln, raw, end


def family_from_text(text: str) -> tuple[Family, int | None, list[str]]:
    """Parse the text format; returns (family, t or None, comment lines).

    The lines up to the header are read one by one.  The rest is read
    in bulk when it holds only digits, spaces and newlines
    (`_bulk_members`).  Any other rest, or one the bulk pass does not
    accept, is read line by line: the first line holding a token
    ``int`` rejects or points that do not increase is the error, else
    the line of the member that Family (or a point past int64) rejects.
    """
    comments: list[str] = []
    numbered = _numbered(text)
    for ln, raw, end in numbered:
        line = raw.strip()
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif line:
            break
    else:
        raise FamilyParseError("missing header line", 1)
    parts = dict(kv.split("=", 1) for kv in line.split() if "=" in kv)
    if "n" not in parts:
        raise FamilyParseError("header must contain n=<int>", ln)
    try:
        n = int(parts["n"])
        t = int(parts["t"]) if "t" in parts else None
    except ValueError:
        raise FamilyParseError("malformed header values", ln) from None
    fam = None if end is None else _bulk_members(n, text[end:])
    if fam is not None:
        return fam, t, comments
    rows: list[list[int]] = []
    row_lines: list[int] = []
    for ln, raw, _ in numbered:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        try:
            pts = [int(x) for x in line.split()]
        except ValueError:
            raise FamilyParseError("non-integer point", ln) from None
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise FamilyParseError("points must be strictly increasing", ln)
        rows.append(pts)
        row_lines.append(ln)
    try:
        return Family(n, *csr_from_sets(n, rows)), t, comments
    except MemberError as exc:
        raise FamilyParseError(str(exc), row_lines[exc.member]) from None


def _bulk_members(n: int, body: str) -> Optional[Family]:
    """The family of a body made only of digits, spaces and newlines, in
    one numpy pass over its bytes: a token is a run of digits, read digit
    by digit, and a member is the tokens of one line.  None for any other
    body, a token of over 18 digits, or members that Family rejects."""
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    if not _BULK_BYTES[b].all():
        return None
    edges = np.flatnonzero(np.diff(b > 32, prepend=False, append=False))
    start, stop = edges[::2], edges[1::2]
    length = stop - start
    longest = int(length.max()) if length.size else 0
    if longest > 18:
        return None
    value = np.zeros(start.size, dtype=np.int64)
    for k in range(longest):
        value = np.where(k < length, value * 10 + b[np.minimum(start + k, stop - 1)] - 48, value)
    per_line = np.bincount(np.searchsorted(np.flatnonzero(b == 10), start))
    try:
        return Family(n, value - 1, np.append(0, np.cumsum(per_line[per_line > 0])))
    except ValueError:
        return None


def family_to_json(fam: Family, t: int | None = None) -> dict:
    flat, ends = (fam.points + 1).tolist(), fam.offsets.tolist()
    doc: dict = {"n": fam.n, "sets": [flat[a:b] for a, b in zip(ends, ends[1:])]}
    if t is not None:
        doc["t"] = t
    return doc


def family_from_json(doc: dict) -> tuple[Family, int | None]:
    """The family and t of a JSON document; a member Family rejects is
    named by its 1-based index.  n and t must be JSON integers, as in
    the text header: a float, string or boolean is refused, not cast."""
    for field in ("n", "t"):
        if field in doc and type(doc[field]) is not int:
            raise ValueError(f"{field} must be an integer, not {doc[field]!r}")
    try:
        fam = Family.of(doc["n"], doc["sets"])
    except MemberError as exc:
        raise ValueError(f"member {exc.member + 1}: {exc}") from None
    return fam, (doc["t"] if "t" in doc else None)
