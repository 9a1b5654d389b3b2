"""Exact census of the moduli spaces Mbar_{0,n} of stable n-pointed
genus-zero curves: Betti numbers and Poincare polynomials by Keel's
recurrence, point counts over finite fields by independent routes, factored
Hasse-Weil zeta functions, and Getzler's inverse pair of generating
functions, all in exact arithmetic.
"""

from .algebra import (
    BiSeries,
    InexactDivisionError,
    IntPoly,
    intpoly,
    poly_add,
    poly_eval,
    poly_mul,
    poly_str,
    series_compose,
)
from .forget import (
    FiberBreakdown,
    fiber_size,
    fiber_size_breakdown,
    verify_fiber_sum,
    verify_lemma3,
    verify_lemma4,
)
from .getzler import (
    HomologyDims,
    open_homology_dims,
    series_f,
    series_g,
    verify_inverse,
)
from .keel import betti, point_count, poincare_poly, verify_count_recurrence
from .report import VerificationReport, all_pass
from .strata import (
    DualTree,
    StratumInfo,
    boundary_edge_sum,
    enumerate_stable_trees,
    make_tree,
    open_stratum_poly,
    orbit_count_direct,
    strata_table,
    stratified_count,
    tree_serial,
)
from .zeta import (
    FactoredZeta,
    log_derivative_series,
    verify_zeta_counts,
    zeta_moduli,
    zeta_projective,
    zeta_str,
)

__version__ = "0.1.0"

__all__ = [
    "BiSeries",
    "DualTree",
    "FactoredZeta",
    "FiberBreakdown",
    "HomologyDims",
    "InexactDivisionError",
    "IntPoly",
    "StratumInfo",
    "VerificationReport",
    "all_pass",
    "betti",
    "boundary_edge_sum",
    "enumerate_stable_trees",
    "fiber_size",
    "fiber_size_breakdown",
    "intpoly",
    "log_derivative_series",
    "make_tree",
    "open_homology_dims",
    "open_stratum_poly",
    "orbit_count_direct",
    "point_count",
    "poincare_poly",
    "poly_add",
    "poly_eval",
    "poly_mul",
    "poly_str",
    "series_compose",
    "series_f",
    "series_g",
    "strata_table",
    "stratified_count",
    "tree_serial",
    "verify_count_recurrence",
    "verify_fiber_sum",
    "verify_inverse",
    "verify_lemma3",
    "verify_lemma4",
    "verify_zeta_counts",
    "zeta_moduli",
    "zeta_projective",
    "zeta_str",
]
