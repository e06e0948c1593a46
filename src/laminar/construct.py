"""Lower-bound constructions: nested packings and the design towers.

Replacing every block of a t-wise packing by a t-laminar family on that
block yields a t-laminar family on the whole ground set: members inside
one block inherit the replacement's guarantee, and members from
different blocks share fewer than t points because the packing does.
Iterating over affine planes of order 7^(2^(r-1)) gives the t = 2 tower
on 7^(2^r) points; iterating over circle geometries gives the t = 3
tower on 3^(2^r) + 1 points.

Counting uses the exact recursion g(n) = b*g(m) + 1 (b blocks, +1 for
the universe), cross-checked against the closed-form bracket series and
against materialized families wherever those are affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Optional

from .bounds import rat_to_decimal
from .geometry import Design, affine_plane, circle_geometry, is_packing, projective_plane
from .setfam import Block, Family, is_t_laminar

# materialization guards: beyond these the towers are counted, not built
FANO_TOWER_DEFAULT_CAP = 49
CIRCLE_TOWER_DEFAULT_CAP = 82


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


def nested(packing: Design, replacements: Callable[[Block], Family]) -> Family:
    """Replace each block of a t-wise packing by a t-laminar family on it.

    Each replacement family lives on ground set {1..|K|} and is mapped
    into K by sending point i to the i-th smallest member of K.  The
    relabeled families are merged and deduplicated; the result is
    t-laminar on the packing's point set whenever the inputs satisfy
    the preconditions (checked here for the replacements; validate the
    packing separately, it may be expensive).
    """
    t = packing.t
    n = packing.v
    seen: dict[int, None] = {}
    checked: set[int] = set()
    for block in packing.blocks:
        fam = replacements(block)
        if fam.n != block.size:
            raise ValueError(
                f"replacement ground size {fam.n} != block size {block.size}"
            )
        if id(fam) not in checked:
            if not is_t_laminar(fam, t):
                raise ValueError("replacement family is not t-laminar")
            checked.add(id(fam))
        points = block.members
        for b in fam:
            m, rel = b.mask, 0
            while m:
                i = (m & -m).bit_length() - 1
                rel |= 1 << (points[i] - 1)
                m &= m - 1
            seen.setdefault(rel, None)
    return Family.from_masks(n, list(seen.keys()))


def seven_series(r: int) -> Fraction:
    """Bracket series for the t = 2 tower at n = 7^(2^r):

        1 + 1/C(3,2) + 1/C(7,2) + 1/C(49,2) + ... + 1/C(n,2),

    whose product with C(n,2) is the exact tower count (the final term
    contributes the universe).
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    total = 1 + Fraction(1, 3)
    m = 7
    for _ in range(r + 1):
        total += Fraction(1, comb(m, 2))
        m *= m
    return total


def _fano_level0() -> Family:
    fano = projective_plane(2)
    sets = [list(p) for p in combinations(range(1, 8), 2)]
    sets += [list(b.members) for b in fano.blocks]
    sets += [list(range(1, 8))]
    return Family.of(7, sets)


def fano_tower(
    r: int, materialize: bool = False, large_ok: bool = False
) -> tuple[TowerReport, Optional[Family]]:
    """Level r of the t = 2 tower on n = 7^(2^r) points.

    Level 0 is all pairs of [7], the seven blocks of the Fano plane,
    and [7] itself (29 sets).  Level i nests level i-1 into the affine
    plane of order 7^(2^(i-1)) and adds the universe.  Counts follow
    g(n) = b*g(m) + 1 exactly; materialization is guarded (n <= 49 by
    default, n = 2401 with large_ok) and verified against the count.
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    n, count = 7, 29
    for _ in range(r):
        m = n
        n = m * m
        blocks = comb(n, 2) // comb(m, 2)
        count = blocks * count + 1
    formula = comb(n, 2) * seven_series(r)
    report = TowerReport(
        t=2, r=r, n=n, count_geq_t=count, formula_value=formula,
        ratio=Fraction(count, comb(n, 2)),
    )
    if formula != count:
        raise AssertionError("tower count disagrees with the bracket series")
    if not materialize:
        return report, None
    cap = 2401 if large_ok else FANO_TOWER_DEFAULT_CAP
    if n > cap:
        raise CapExceeded(
            f"materializing n={n} exceeds the cap {cap}; pass large_ok or lower r"
        )
    fam = _fano_level0()
    size = 7
    while size < n:
        plane = affine_plane(size)
        prev = fam
        fam = nested(plane, lambda _k: prev)
        size = size * size
        fam = Family(size, fam.sets + (Block.universe(size),))
    if fam.count_size_geq(2) != count:
        raise AssertionError("materialized tower count mismatch")
    return report, fam


def _three_tower_sizes(r: int) -> list[int]:
    """Ground sizes 10, 82, ... of circle-tower levels 0..r."""
    out, q = [], 3
    for _ in range(r + 1):
        out.append(q * q + 1)
        q *= q
    return out


def three_bracket(r: int) -> Fraction:
    """Bracket of the t = 3 tower as displayed: 1 + 1/C(4,3) + sums of
    1/C(n_i,3) over earlier levels; the universe is carried by the
    leading 1 of the full-size formula rather than by a final term.
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    total = 1 + Fraction(1, comb(4, 3))
    for n_i in _three_tower_sizes(r - 1) if r > 0 else []:
        total += Fraction(1, comb(n_i, 3))
    return total


def _circle_count_geq3(r: int) -> int:
    count = 5  # on 4 points: the four triples and the universe
    q = 3
    for _ in range(r + 1):
        count = q * (q * q + 1) * count + 1
        q *= q
    return count


def _circle_level0() -> Family:
    geom = circle_geometry(3)
    sets = []
    for size in (1, 2, 3):
        sets += [list(p) for p in combinations(range(1, 11), size)]
    sets += [list(b.members) for b in geom.blocks]
    sets += [list(range(1, 11))]
    return Family.of(10, sets)


def circle_tower(r: int, materialize: bool = False) -> tuple[TowerReport, Optional[Family]]:
    """Level r of the t = 3 tower on n = 3^(2^r) + 1 points.

    Level 0 on 10 points holds every subset of size 1..3, the 30 blocks
    of the 3-(10,4,1) circle geometry, and [10]; level i nests level
    i-1 into the circle geometry of order 3^(2^(i-1)).  count_geq_t
    counts members of size >= 3 (universe included); the size-1 and
    size-2 layers ride along in materialized families and are reported
    separately.
    """
    if r < 0:
        raise ValueError("level must be >= 0")
    n = _three_tower_sizes(r)[-1]
    count = _circle_count_geq3(r)
    formula = comb(n, 3) * three_bracket(r) + 1
    if formula != count:
        raise AssertionError("tower count disagrees with the bracket series")
    report = TowerReport(
        t=3, r=r, n=n, count_geq_t=count, formula_value=formula,
        ratio=Fraction(count, comb(n, 3)),
    )
    if not materialize:
        return report, None
    if n > CIRCLE_TOWER_DEFAULT_CAP:
        raise CapExceeded(f"materializing n={n} exceeds the cap {CIRCLE_TOWER_DEFAULT_CAP}")
    fam = _circle_level0()
    size = 10
    while size < n:
        geom = circle_geometry(size - 1)  # order q^2 where size = q^2 + 1
        prev = fam
        fam = nested(geom, lambda _k: prev)
        size = geom.v
        fam = Family(size, fam.sets + (Block.universe(size),))
    if fam.count_size_geq(3) != count:
        raise AssertionError("materialized tower count mismatch")
    return report, fam


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

    def as_pair(self) -> tuple[Fraction, Fraction]:
        return self.printed_total, Fraction(self.count_geq3)

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
    n = _three_tower_sizes(r)[-1]
    bracket = three_bracket(r)
    printed_total = 1 + n + comb(n, 2) + comb(n, 3) * bracket
    count = _circle_count_geq3(r)
    full = n + comb(n, 2) + count
    limit = 1 + Fraction(1, 4) + Fraction(1, 120) + Fraction(1, 88560)
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
        count_geq3=count,
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
    m, r = 7, 0
    while m < k:
        m, r = m * m, r + 1
    if m == k:
        return int(comb(k, 2) * seven_series(r))
    return comb(k, 2) + 1


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
    if any(b.size != k for b in packing.blocks):
        raise ValueError("packing blocks must all have size k")
    if not is_packing(packing):
        raise ValueError("invalid packing: some pair is covered twice")
    g = g_block if g_block is not None else known_laminar_lower(k)
    return Fraction(packing.block_count() * g + 1)
