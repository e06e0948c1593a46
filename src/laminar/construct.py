"""Lower-bound constructions: nested packings and the design towers.

Replacing every block of a t-wise packing by a t-laminar family on that
block yields a t-laminar family on the whole ground set: members inside
one block inherit the replacement's guarantee, and members from
different blocks share fewer than t points because the packing does.
Iterating over affine planes of order 7^(2^(r-1)) gives the t = 2 tower
on 7^(2^r) points; iterating over circle geometries gives the t = 3
tower on 3^(2^(r+1)) + 1 points.  Both towers walk one chain of
t-(v,k,1) designs in `_tower`.

Counting uses the exact recursion g(n) = b*g(m) + 1 (b blocks, +1 for
the universe), cross-checked against the closed-form bracket series and
against materialized families wherever those are affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb
from typing import Callable, Optional

import numpy as np

from .bounds import rat_to_decimal
from .geometry import Design, affine_plane, circle_geometry, is_packing, projective_plane
from .setfam import Family, csr_points, is_t_laminar, masks_from_csr

# materialization caps: beyond these the towers are counted, not built
FANO_TOWER_CAP = 2401
CIRCLE_TOWER_CAP = 82

# CPython prints ints of at most 4300 digits, and 2^14284 < 10^4300.  A
# report's integers stay below n^t, so a level with t * bits(n) above
# this bound is refused before any count is computed.
_REPORT_BITS = 14284


class CapExceeded(ValueError):
    """A tower level is too large to materialize under its cap."""


@dataclass(frozen=True)
class TowerReport:
    """Exact census of one tower level."""

    t: int
    r: int
    n: int
    count_geq_t: int
    formula_value: Fraction
    ratio: Fraction

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "r": self.r,
            "n": self.n,
            "count_geq_t": self.count_geq_t,
            "formula_value": f"{self.formula_value.numerator}/{self.formula_value.denominator}",
            "ratio_decimal": rat_to_decimal(self.ratio, 20),
        }

    def __str__(self):
        return (
            f"tower t={self.t} r={self.r}: n={self.n},"
            f" members of size>={self.t}: {self.count_geq_t},"
            f" ratio {self.ratio} = {rat_to_decimal(self.ratio, 12)}"
        )


def nested(packing: Design, replacements: Callable[[int], Family]) -> Family:
    """Replace each block of a t-wise packing by a t-laminar family on it.

    ``replacements`` receives each block's mask and returns a family on
    ground set {1..|K|}, mapped into the block K by sending point i to
    the i-th smallest member of K.  The relabeled families are packed
    at once and deduplicated in first-seen order; the result is
    t-laminar on the packing's point set whenever the inputs satisfy
    the preconditions (checked here for the replacements; validate the
    packing separately, it may be expensive).
    """
    t = packing.t
    block_points, block_offsets = csr_points(packing.blocks)
    points = [np.zeros(0, dtype=np.int64)]
    offsets = [np.zeros(1, dtype=np.int64)]
    # id -> (family, its csr_points); holding the family keeps its id unique
    seen: dict[int, tuple[Family, np.ndarray, np.ndarray]] = {}
    for block, lo, hi in zip(packing.blocks, block_offsets, block_offsets[1:]):
        fam = replacements(block)
        if fam.n != hi - lo:
            raise ValueError(f"replacement ground size {fam.n} != block size {hi - lo}")
        if id(fam) not in seen:
            if not is_t_laminar(fam, t):
                raise ValueError("replacement family is not t-laminar")
            seen[id(fam)] = (fam, *csr_points(fam))
        _, rel_points, rel_offsets = seen[id(fam)]
        points.append(block_points[lo:hi][rel_points])
        offsets.append(rel_offsets[1:] + offsets[-1][-1])
    masks = masks_from_csr(packing.v, np.concatenate(points), np.concatenate(offsets))
    return Family(packing.v, tuple(dict.fromkeys(masks)))


def _fano_level0() -> Family:
    pairs = Family.of(7, combinations(range(1, 8), 2))
    return Family(7, pairs.masks + projective_plane(2).blocks.masks + ((1 << 7) - 1,))


def _circle_level0() -> Family:
    small = Family.of(10, (p for k in (1, 2, 3) for p in combinations(range(1, 11), k)))
    return Family(10, small.masks + circle_geometry(3).blocks.masks + ((1 << 10) - 1,))


def _chain(t: int):
    """Ground sizes s_0, s_1, ... of the t-tower; level r lives on s_{r+1}.

    For t = 2: 3, 7, 49, 2401, ... (the Fano plane, then affine planes
    of order s).  For t = 3: 4, 10, 82, ... (circle geometries of order
    s - 1).
    """
    s0, s = (3, 7) if t == 2 else (4, 10)
    yield s0
    while True:
        yield s
        s = s * s if t == 2 else (s - 1) ** 2 + 1


def _tower(t: int, r: int, materialize: bool) -> tuple[TowerReport, Optional[Family]]:
    """Level r of the t-tower on n = s_{r+1} points.

    Level i + 1 nests level i into the C(v,t)/C(k,t) blocks of a
    t-(v,k,1) design, k = s_{i+1} and v = s_{i+2}, and adds the universe,
    so the count starts at C(s_0,t) + 1 and steps to C(v,t)/C(k,t) *
    count + 1.  It must equal the closed form C(n,t) * (1 + sum of
    1/C(s,t) over s_0..s_{r+1}), and a materialized family must hold as
    many members of size >= t.
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    sizes = []
    for s in islice(_chain(t), r + 2):
        if t * s.bit_length() > _REPORT_BITS:
            raise CapExceeded(f"level r={r} of the t={t} tower is too large to report:"
                              " its count would exceed 4300 digits")
        sizes.append(s)
    n = sizes[-1]
    count = comb(sizes[0], t) + 1
    for k, v in zip(sizes, sizes[1:]):
        count = comb(v, t) // comb(k, t) * count + 1
    formula = comb(n, t) * (1 + sum(Fraction(1, comb(s, t)) for s in sizes))
    if formula != count:
        raise AssertionError("tower count disagrees with the bracket series")
    report = TowerReport(
        t=t, r=r, n=n, count_geq_t=count, formula_value=formula,
        ratio=Fraction(count, comb(n, t)),
    )
    if not materialize:
        return report, None
    cap = FANO_TOWER_CAP if t == 2 else CIRCLE_TOWER_CAP
    if n > cap:
        raise CapExceeded(f"materializing n={n} exceeds the cap {cap}")
    fam = _fano_level0() if t == 2 else _circle_level0()
    for k, v in zip(sizes[1:], sizes[2:]):
        design = affine_plane(k) if t == 2 else circle_geometry(k - 1)
        prev = fam
        fam = nested(design, lambda _b: prev)
        fam = Family(v, fam.masks + ((1 << v) - 1,))
    if fam.count_size_geq(t) != count:
        raise AssertionError("materialized tower count mismatch")
    return report, fam


def fano_tower(r: int, materialize: bool = False) -> tuple[TowerReport, Optional[Family]]:
    """Level r of the t = 2 tower on n = 7^(2^r) points.

    Level 0 is all pairs of [7], the seven blocks of the Fano plane,
    and [7] itself (29 sets).  Level i nests level i-1 into the affine
    plane of order 7^(2^(i-1)) and adds the universe.  Materialization
    is capped at n <= FANO_TOWER_CAP = 2401 (r <= 2; the r = 2 level
    has about 4M members); levels past r = 11 are refused.
    """
    return _tower(2, r, materialize)


def circle_tower(r: int, materialize: bool = False) -> tuple[TowerReport, Optional[Family]]:
    """Level r of the t = 3 tower on n = 3^(2^(r+1)) + 1 points.

    Level 0 on 10 points holds every subset of size 1..3, the 30 blocks
    of the 3-(10,4,1) circle geometry, and [10]; level i nests level
    i-1 into the circle geometry of order 3^(2^i).  count_geq_t
    counts members of size >= 3 (universe included); the size-1 and
    size-2 layers ride along in materialized families and are reported
    separately.  Materialization is capped at n <= CIRCLE_TOWER_CAP = 82

# CPython prints ints of at most 4300 digits, and 2^14284 < 10^4300.  A
# report's integers stay below n^t, so a level with t * bits(n) above
# this bound is refused before any count is computed.
_REPORT_BITS = 14284
    (r <= 1); levels past r = 10 are refused.
    """
    return _tower(3, r, materialize)


def seven_series(r: int) -> Fraction:
    """Bracket series for the t = 2 tower at n = 7^(2^r):

        1 + 1/C(3,2) + 1/C(7,2) + 1/C(49,2) + ... + 1/C(n,2),

    whose product with C(n,2) is the exact tower count (the final term
    contributes the universe).
    """
    rep, _ = _tower(2, r, False)
    return rep.formula_value / comb(rep.n, 2)


def three_bracket(r: int) -> Fraction:
    """Bracket of the t = 3 tower as displayed: 1 + 1/C(4,3) + sums of
    1/C(n_i,3) over earlier levels; the universe is carried by the
    leading 1 of the full-size formula rather than by a final term.
    """
    rep, _ = _tower(3, r, False)
    return (rep.formula_value - 1) / comb(rep.n, 3)


@dataclass(frozen=True)
class ThreeSeriesReport:
    """Displayed-formula value vs recursive count for the t = 3 tower.

    The two are reported side by side; the note records that the
    bracket series sums to about 1.2583, not the 1.5083 sometimes
    quoted alongside the formula, without asserting either constant.
    """

    r: int
    n: int
    printed_bracket: Fraction
    printed_total: Fraction
    count_geq3: int
    full_size: int
    note: str

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "printed_bracket": str(self.printed_bracket),
            "printed_total": str(self.printed_total),
            "count_geq3": self.count_geq3,
            "full_size": self.full_size,
            "note": self.note,
        }


def three_series_report(r: int) -> ThreeSeriesReport:
    """Evaluate the t = 3 size formula as displayed and recursively.

    The displayed full-size value is 1 + C(n,1) + C(n,2) + C(n,3) * bracket
    (leading 1 = universe); the recursive count tallies members of size
    >= 3 via g(n) = b*g(m) + 1.  Both are exact rationals.
    """
    rep, _ = _tower(3, r, False)
    n = rep.n
    bracket = three_bracket(r)
    printed_total = 1 + n + comb(n, 2) + comb(n, 3) * bracket
    full = n + comb(n, 2) + rep.count_geq_t
    # the sum through the 82-point level; later terms are below 1e-10
    limit = three_bracket(2)
    note = (
        f"bracket series limit ~ {rat_to_decimal(limit, 6)} per direct summation; "
        "the constant 1.5083 quoted alongside the displayed formula does not "
        "match it -- both values are reported, neither is asserted"
    )
    return ThreeSeriesReport(
        r=r,
        n=n,
        printed_bracket=bracket,
        printed_total=printed_total,
        count_geq3=rep.count_geq_t,
        full_size=full,
        note=note,
    )


def known_laminar_lower(k: int) -> int:
    """Best construction-backed lower value for f(k) used when nesting.

    Tower values at k = 7^(2^r), the exact small value f(3) = 4, and
    the all-pairs-plus-universe floor C(k,2) + 1 elsewhere.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        return 1
    for r, s in enumerate(islice(_chain(2), 1, None)):
        if s >= k:
            break
    return _tower(2, r, False)[0].count_geq_t if s == k else comb(k, 2) + 1


def general_n_lower_bound(
    n: int, k: int, packing: Design, g_block: Optional[int] = None
) -> Fraction:
    """Lower bound b*g(k) + 1 on f(n) from a 2-(n,k,1) packing with b blocks.

    The packing is validated; blocks must be proper subsets (k < n) so
    the universe contributes the +1 separately.
    """
    if packing.t != 2 or packing.lam != 1 or packing.v != n:
        raise ValueError("need a 2-(n,k,1) packing on n points")
    if k >= n:
        raise ValueError("block size must satisfy k < n")
    if any(b.bit_count() != k for b in packing.blocks):
        raise ValueError("packing blocks must all have size k")
    if not is_packing(packing):
        raise ValueError("invalid packing: some pair is covered twice")
    g = g_block if g_block is not None else known_laminar_lower(k)
    return Fraction(packing.block_count() * g + 1)
