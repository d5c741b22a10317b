"""Exact invariants of cone singularities and Durfee-type bound checks.

Compute the Milnor number and geometric genus of the cone over a smooth
projective complete intersection with exact integer arithmetic, evaluate
the bound coefficients C(n, r) that replace the classical (n+1)!, and
search degree grids for violations of either bound.
"""

__version__ = "0.1.0"

from .exactmath import (
    CrossCheckError,
    binomial,
    compositions,
    falling_factorial,
    stirling2,
)
from .invariants import (
    GENUS_METHODS,
    MILNOR_METHODS,
    DegreeSpec,
    InvariantReport,
    SmoothGermError,
    geometric_genus,
    invariant_report,
    milnor_fiber_euler,
    milnor_number,
)
from .bounds import (
    BoundCoefficient,
    balanced_min_product,
    bound_coefficient,
    composition_factorial_sum,
    composition_sum_inequality,
    dominance_inequality_checks,
    falling_composition_sum,
    falling_sum_recursion_check,
    min_product_bound,
    monotone_scan,
    multinomial_recursion_check,
    power_composition_sum,
    stirling_factorial_sum,
    stirling_growth_inequality,
)
from .conjecture import (
    SearchResult,
    TracePoint,
    VerdictReport,
    Violation,
    curve_identity,
    degree_grid,
    hypersurface_identity,
    min_product_inequality,
    search,
    surface_excess,
    surface_identity,
    trace_ratio,
    verify,
)

__all__ = [
    "CrossCheckError",
    "binomial",
    "compositions",
    "falling_factorial",
    "stirling2",
    "GENUS_METHODS",
    "MILNOR_METHODS",
    "DegreeSpec",
    "InvariantReport",
    "SmoothGermError",
    "geometric_genus",
    "invariant_report",
    "milnor_fiber_euler",
    "milnor_number",
    "BoundCoefficient",
    "balanced_min_product",
    "bound_coefficient",
    "composition_factorial_sum",
    "composition_sum_inequality",
    "dominance_inequality_checks",
    "falling_composition_sum",
    "falling_sum_recursion_check",
    "min_product_bound",
    "monotone_scan",
    "multinomial_recursion_check",
    "power_composition_sum",
    "stirling_factorial_sum",
    "stirling_growth_inequality",
    "SearchResult",
    "TracePoint",
    "VerdictReport",
    "Violation",
    "curve_identity",
    "degree_grid",
    "hypersurface_identity",
    "min_product_inequality",
    "search",
    "surface_excess",
    "surface_identity",
    "trace_ratio",
    "verify",
]
