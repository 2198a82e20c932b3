"""Stability laboratory for Yee-type FD-TD schemes in dispersive media.

Analytic root-location verdicts (polyloc, schemes, analyzer) are
cross-validated by an actual time-stepping simulator; the cli module drives
both and writes CSV reports.
"""

from .errors import InvalidInputError, NumericalFailureError
from .polyloc import Polynomial, is_simple_von_neumann
from .schemes import (
    DimensionlessParams,
    MediumModel,
    Scheme,
    Wavenumber,
    char_poly_closed,
    courant_q,
    dimensionless_params,
)
from .analyzer import (
    Argument,
    StabilityVerdict,
    classify_at_q,
    classify_point,
    classify_point_2d,
    reproduce_argument_table,
    stability_boundary_k,
    worst_case_verdict,
)
from .simulator import (
    FieldState,
    GrowthReport,
    empirical_verdict,
    init_plane_wave,
    run_growth,
)

__version__ = "0.1.0"

__all__ = [
    "Argument",
    "DimensionlessParams",
    "FieldState",
    "GrowthReport",
    "InvalidInputError",
    "MediumModel",
    "NumericalFailureError",
    "Polynomial",
    "Scheme",
    "StabilityVerdict",
    "Wavenumber",
    "char_poly_closed",
    "classify_at_q",
    "classify_point",
    "classify_point_2d",
    "courant_q",
    "dimensionless_params",
    "empirical_verdict",
    "init_plane_wave",
    "is_simple_von_neumann",
    "reproduce_argument_table",
    "run_growth",
    "stability_boundary_k",
    "worst_case_verdict",
]
