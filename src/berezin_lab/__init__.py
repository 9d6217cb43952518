"""Numerical laboratory for spectral bounds of the Dirichlet Laplacian.

The package enumerates exact spectra of boxes, box unions, and disks,
evaluates Riesz means and eigenvalue sums against the semiclassical
family of bounds (including a boundary-corrected upper bound with an
explicitly computed correction weight), and reports pass/fail verdicts
for every inequality on user-chosen grids.
"""

from .constants import SemiclassicalParams, c_const, lt_value
from .errors import (
    ConvergenceError,
    CutoffExceededError,
    DomainParseError,
    EnumerationLimitError,
    InsufficientCutoffError,
    NumericFailure,
    UnsupportedDomainError,
)
from .geometry import (
    AxisBox,
    BoxUnion,
    Disk,
    Domain,
    SlicingStats,
    critical_length,
    moment_J,
    parse_domain,
    render_domain,
    slicing_stats,
    surface,
    volume,
)
from .remainder import RemainderResult, epsilon_mu, f_mu, nu_bounds
from .specfun import bessel_j, bessel_zeros_below, beta
from .spectra import Spectrum, counting, enumerate_spectrum, riesz_mean
from .bounds import (
    eigenvalue_lower,
    improved_rhs,
    li_yau_rhs,
    melas_rhs,
    phase_space_eta,
    s_classical,
    sliced_bound,
    sum_classical,
    two_term_riesz,
    two_term_sum,
)
from .harness import BoundReport, asymptotic_diagnostics, sweep_riesz, sweep_sums
from .version import TOOL_VERSION

__version__ = TOOL_VERSION

__all__ = [
    "AxisBox",
    "BoundReport",
    "BoxUnion",
    "ConvergenceError",
    "CutoffExceededError",
    "Disk",
    "Domain",
    "DomainParseError",
    "EnumerationLimitError",
    "InsufficientCutoffError",
    "NumericFailure",
    "RemainderResult",
    "SemiclassicalParams",
    "SlicingStats",
    "Spectrum",
    "TOOL_VERSION",
    "UnsupportedDomainError",
    "asymptotic_diagnostics",
    "bessel_j",
    "bessel_zeros_below",
    "beta",
    "c_const",
    "counting",
    "critical_length",
    "eigenvalue_lower",
    "enumerate_spectrum",
    "epsilon_mu",
    "f_mu",
    "improved_rhs",
    "li_yau_rhs",
    "lt_value",
    "melas_rhs",
    "moment_J",
    "nu_bounds",
    "parse_domain",
    "phase_space_eta",
    "render_domain",
    "riesz_mean",
    "s_classical",
    "sliced_bound",
    "slicing_stats",
    "sum_classical",
    "surface",
    "sweep_riesz",
    "sweep_sums",
    "two_term_riesz",
    "two_term_sum",
    "volume",
]
