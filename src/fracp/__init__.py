"""fracp: desk-scale verification of singular fractional p-Laplacian problems
on an interval.

The package computes the sharp exponent and threshold formulas of the regime
(core), evaluates the nonlocal operator and its discrete energy (kernel),
builds barrier profiles and regularized singular weights (barrier), solves
the regularized problems by convex minimization with epsilon-continuation
(solver), and turns solutions into exponent fits, Sobolev scans, comparison
and nonexistence verdicts (analysis).  The CLI in fracp.cli orchestrates
experiments from a JSON config.
"""

__version__ = "0.1.0"

from .core import (
    CASE_ALPHA_STAR,
    CASE_S,
    Constant,
    Grid,
    GridFunction,
    PowerTail,
    ProblemParams,
    RegimeReport,
    Zero,
    build_grid,
    classify_regime,
    default_grading,
    make_params,
)
from .kernel import (
    DiscreteOperator,
    PowerKernelOracle,
    assemble_operator,
    eval_fplap_pv,
    gagliardo_energy,
    bracket_constants,
    phi_constant,
    updiff,
)
from .barrier import (
    BarrierSpec,
    VerificationRecord,
    WeightSpec,
    barrier_profile,
    singular_weight,
    verify_boundary_barrier,
    verify_power_estimate,
)
from .solver import (
    SingularEnergy,
    SolveResult,
    continuation,
    residual_check,
    solve_approximated,
    solve_fixed_rhs,
)
from .analysis import (
    ExponentFit,
    ScanTable,
    barrier_scales,
    comparison_check,
    fit_boundary_exponent,
    hardy_quotient,
    inequality_props,
    nonexistence_scan,
    sobolev_scan,
    suggested_theta_list,
)
