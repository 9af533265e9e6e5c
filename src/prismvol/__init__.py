"""Exact computational toolkit for a prism-manifold link-volume audit.

The package mechanizes the computable steps behind the bound lv = 2 * V0 for
the one-parameter prism family: Seifert symbol arithmetic and first homology,
Montesinos double branched covers, horizontal-surface degree equations over
2-orbifolds, constrained slope enumeration on the torus, twisted torus braid
invariants, and bounded-degree branched-cover counting, assembled by
``prism_verify`` into per-parameter reports that are explicit about which
finiteness steps are computed and which remain conditional.
"""

from .braids import (
    BraidWord,
    bennequin_chi,
    bennequin_genus,
    closure_components,
    exponent_sum,
    twisted_torus_braid,
    word_from_json,
)
from .covers import (
    FIGURE_EIGHT_VOLUME,
    ONE_CUSP_VOLUME_FLOOR,
    WHITEHEAD_VOLUME,
    CoverCertificate,
    EnumerationTooLargeError,
    GroupPresentation,
    VolumeConstant,
    complexity,
    count_representations,
    degree_bound_for_budget,
    presentation_from_json,
    prism_rows,
    prism_verify,
    upper_bound_value,
)
from .exact import (
    IntMatrix,
    elementary_divisors,
    extended_gcd,
    frac_str,
)
from .montesinos import (
    MontesinosLink,
    double_branched_cover,
    is_lens_space_symbol,
    link_from_json,
    ln_link,
)
from .orbifolds import (
    CaseResult,
    InfiniteSolutionsError,
    Orbifold2D,
    SurfaceData,
    case_analysis_report,
    chi_orb,
    fiber_surface,
    horizontal_degree_solutions,
    nonorientable_base_solutions,
    orbifold_from_json,
    orientation_double_cover,
    prism_case_analysis,
    riemann_hurwitz_cover,
)
from .seifert import (
    SeifertSymbol,
    UnsupportedBaseClass,
    base_orbifold,
    euler_number,
    first_homology,
    homology_order,
    normalize,
    prism_fibrations,
    symbol_from_json,
)
from .slopes import Slope, delta, enumerate_constrained_slopes, slope_from_json

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "CaseResult",
    "CoverCertificate",
    "EnumerationTooLargeError",
    "FIGURE_EIGHT_VOLUME",
    "GroupPresentation",
    "InfiniteSolutionsError",
    "IntMatrix",
    "MontesinosLink",
    "ONE_CUSP_VOLUME_FLOOR",
    "Orbifold2D",
    "SeifertSymbol",
    "Slope",
    "SurfaceData",
    "UnsupportedBaseClass",
    "VolumeConstant",
    "WHITEHEAD_VOLUME",
    "base_orbifold",
    "bennequin_chi",
    "bennequin_genus",
    "case_analysis_report",
    "chi_orb",
    "closure_components",
    "complexity",
    "count_representations",
    "degree_bound_for_budget",
    "delta",
    "double_branched_cover",
    "elementary_divisors",
    "enumerate_constrained_slopes",
    "euler_number",
    "exponent_sum",
    "extended_gcd",
    "fiber_surface",
    "first_homology",
    "frac_str",
    "homology_order",
    "horizontal_degree_solutions",
    "is_lens_space_symbol",
    "link_from_json",
    "ln_link",
    "nonorientable_base_solutions",
    "normalize",
    "orbifold_from_json",
    "orientation_double_cover",
    "presentation_from_json",
    "prism_case_analysis",
    "prism_fibrations",
    "prism_rows",
    "prism_verify",
    "riemann_hurwitz_cover",
    "slope_from_json",
    "symbol_from_json",
    "twisted_torus_braid",
    "upper_bound_value",
    "word_from_json",
]
