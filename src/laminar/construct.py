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
from itertools import chain, combinations, islice
from math import comb
from typing import Optional

import numpy as np

from . import _kernels
from .bounds import rat_to_decimal
from .geometry import Design, GeometryError, affine_plane, circle_geometry, projective_plane
from .setfam import CapExceeded, Family, is_t_laminar

# materialization caps: beyond these the towers are counted, not built
FANO_TOWER_CAP = 2401
CIRCLE_TOWER_CAP = 82

# CPython prints ints of at most 4300 digits, and 2^14284 < 10^4300.  A
# report's integers stay below n^t, so a level with t * bits(n) above
# this bound is refused before any count is computed.
_REPORT_BITS = 14284


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


def nested(packing: Design, fam: Family) -> Family:
    """Replace every block of a t-wise packing by the t-laminar family fam.

    fam lives on the ground set {1..k}, and every block must have k
    points; point i goes to the i-th smallest point of each block.  All
    blocks are relabeled by one fancy index of fam's points, block by
    block.  Members of size >= t from different blocks share fewer than
    t points, so only smaller members can repeat; the later repeats are
    dropped (found by sorting, `_kernels.repeated_rows`).  The result is
    t-laminar on the packing's point set whenever the inputs satisfy the
    preconditions: fam is checked here, the packing is not (validate it
    separately, it may be expensive).
    """
    return Family(packing.v, *_nested_csr(packing, fam))


def _nested_csr(packing: Design, fam: Family) -> tuple[np.ndarray, np.ndarray]:
    """The CSR points and offsets of nested(packing, fam)'s members."""
    sizes = np.diff(packing.offsets)
    wrong = np.flatnonzero(sizes != fam.n)
    if wrong.size:
        raise ValueError(f"replacement ground size {fam.n} != block size {sizes[wrong[0]]}")
    if not is_t_laminar(fam, packing.t):
        raise ValueError("replacement family is not t-laminar")
    b = packing.block_count()
    points = packing.points.reshape(b, fam.n)[:, fam.points].ravel()
    counts = np.tile(np.diff(fam.offsets), b)
    keep = ~_kernels.repeated_rows(points, np.append(0, np.cumsum(counts)), below=packing.t)
    return points[np.repeat(keep, counts)], np.append(0, np.cumsum(counts[keep]))


def _level0(t: int) -> Family:
    """Level 0 of the t-tower: for t = 2 the pairs of [7], the Fano plane
    and [7]; for t = 3 the 1- to 3-subsets of [10], 3-(10,4,1) and [10]."""
    n, small, design = ((7, (2,), projective_plane(2)) if t == 2
                        else (10, (1, 2, 3), circle_geometry(3)))
    subsets = (p for k in small for p in combinations(range(1, n + 1), k))
    blocks = design.points.reshape(design.block_count(), -1) + 1
    return Family.of(n, chain(subsets, blocks.tolist(), [range(1, n + 1)]))


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
        raise GeometryError("tower count disagrees with the bracket series")
    report = TowerReport(
        t=t, r=r, n=n, count_geq_t=count, formula_value=formula,
        ratio=Fraction(count, comb(n, t)),
    )
    if not materialize:
        return report, None
    cap = FANO_TOWER_CAP if t == 2 else CIRCLE_TOWER_CAP
    if n > cap:
        raise CapExceeded(f"materializing n={n} exceeds the cap {cap}")
    fam = _level0(t)
    for k, v in zip(sizes[1:], sizes[2:]):
        design = affine_plane(k) if t == 2 else circle_geometry(k - 1)
        points, offsets = _nested_csr(design, fam)
        # one Family per level: the universe is checked with the rest
        fam = Family(v, np.concatenate([points, np.arange(v)]),
                     np.append(offsets, offsets[-1] + v))
    if fam.count_size_geq(t) != count:
        raise GeometryError("materialized tower count mismatch")
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
    (r <= 1); levels past r = 10 are refused.
    """
    return _tower(3, r, materialize)
