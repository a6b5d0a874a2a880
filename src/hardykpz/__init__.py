"""Radial fractional-Laplacian toolkit for the Hardy-potential gradient problem.

Layout
------
``specfun``   Gamma-ratio constants, singular exponents, critical exponents.
``radialop``  Graded radial grids and the calibrated collocation operator.
``construct`` Closed-form radial solutions and supersolutions.
``solver``    Monotone truncation scheme, blow-up classification, threshold probe.
``sweep``     Existence-region maps and exponent tables.
``cli``       Command-line front end (``hardykpz``).
"""

from .errors import (
    AssemblyError,
    ConfigError,
    ConstructionError,
    DomainError,
    GridMismatchError,
    HardyKPZError,
    NumericalDivergenceError,
    SolveError,
)
from .specfun import (
    ExponentReport,
    ProblemParams,
    alpha_of_lambda,
    exponents_for,
    gamma_multiplier,
    hardy_constant,
    lambda_of_alpha,
    log_gamma,
    normalizing_constant,
)
from .radialop import (
    OperatorMatrix,
    RadialField,
    RadialGrid,
    assemble_operator,
    build_grid,
    oracle_power_test,
    rayleigh_quotient,
)
from .construct import (
    SupersolutionSpec,
    damped_supersolution,
    dirichlet_supersolution,
    exact_radial_solution,
)
from .solver import (
    PowerSource,
    ProbeResult,
    SolverControls,
    SolverReport,
    mu_threshold_probe,
    solve_damped,
    solve_kpz,
)
from .sweep import RegionMap, SweepAxis, SweepPlan, exponent_table, run_sweep

__version__ = "0.1.0"
