"""Maximum t-laminar set families: constructions and exact LP bounds.

A family is t-laminar when any two members sharing at least t points
are nested.  This package builds large 2- and 3-laminar families by
nesting one t-laminar family into every block of a finite-geometry
design (`nested`; the Fano tower over affine planes and the circle
tower over circle geometries), searches small n exactly, and bounds
the maximum size from above with an exact-rational recursive linear
program, bracketing the limiting ratio f(n)/C(n,2) inside
[1.3818, 1.3821].
"""

from .bounds import (
    BoundTable,
    Frontier,
    frontier_update,
    lp_dual_value,
    lp_primal_oracle,
    obf_table,
    projective_series,
    rat_to_decimal,
    tail_sum,
    upper_limit_report,
)
from .construct import (
    TowerReport,
    circle_tower,
    fano_tower,
    nested,
)
from .geometry import (
    Design,
    FiniteField,
    affine_plane,
    circle_geometry,
    field_make,
    greedy_packing,
    is_design,
    is_packing,
    projective_plane,
)
from .search import CompatGraph, max_laminar_exact
from .setfam import (
    Family,
    contains_config,
    forbidden_matrix,
    incidence_matrix,
    is_t_laminar,
    unique_chain_check,
)

__version__ = "0.1.0"
