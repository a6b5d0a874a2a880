"""Exception types shared across the package.

The split matters for the CLI: analytic-domain and configuration problems
exit with code 2, everything else (tolerance failures, internal errors)
with code 1.  Solver blow-up is *not* an error; it is a classification.
"""


class HardyKPZError(Exception):
    """Base class for all package errors."""


class DomainError(HardyKPZError, ValueError):
    """A parameter violates its analytic domain (e.g. N <= 2s, lambda >= Lambda)."""


class ConfigError(HardyKPZError, ValueError):
    """A grid/controls/plan configuration is invalid (e.g. M < 16)."""


class GridMismatchError(HardyKPZError, ValueError):
    """Operator and field were built on different grids."""


class AssemblyError(HardyKPZError, RuntimeError):
    """Operator assembly failed its internal convergence checks."""


class ConstructionError(HardyKPZError, RuntimeError):
    """A supersolution construction found no admissible amplitude/exponent."""


class NumericalDivergenceError(HardyKPZError, RuntimeError):
    """NaN/Inf appeared in solver iterates (distinct from a BlowUp classification)."""


class SolveError(HardyKPZError, RuntimeError):
    """Internal solver failure (e.g. singular linear operator, or a root that
    misses its residual rule)."""
