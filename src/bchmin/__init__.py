"""Minimum-weight codeword supports for (extended) binary BCH codes of
designed distance 2^(m-1-s) - 2^(m-1-i-s): solvers, support assembly,
support-level distance conversions, and independent verification."""

from .construct import (
    CodewordSupport,
    SupportSpec,
    build_support,
    down_convert,
    expand,
    gk_support,
    gold_support,
    puncture,
    quadform_rows,
    up_convert,
)
from .gf2m import GF2m, default_field, parse_poly
from .linearized import affine_cubic_roots
from .solvers import (
    SolutionVector,
    SolverReport,
    check_system,
    f_j,
    solve_i2_composite,
    solve_i2_even,
    solve_i2_odd,
    solve_i3_even,
    solve_i3_heuristic,
    solve_i4,
)
from .verify import Verdict, designed_distance, is_min_weight, power_sums

__version__ = "0.1.0"

__all__ = [
    "GF2m",
    "default_field",
    "parse_poly",
    "affine_cubic_roots",
    "SolutionVector",
    "SolverReport",
    "f_j",
    "check_system",
    "solve_i2_even",
    "solve_i2_odd",
    "solve_i2_composite",
    "solve_i3_even",
    "solve_i3_heuristic",
    "solve_i4",
    "SupportSpec",
    "CodewordSupport",
    "quadform_rows",
    "build_support",
    "expand",
    "down_convert",
    "up_convert",
    "gold_support",
    "gk_support",
    "puncture",
    "Verdict",
    "designed_distance",
    "power_sums",
    "is_min_weight",
]
