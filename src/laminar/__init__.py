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

__version__ = "0.1.0"
