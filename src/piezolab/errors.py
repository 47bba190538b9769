"""Exception types shared across the package."""


class PiezolabError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveParameter(PiezolabError, ValueError):
    """A physical constant that must be strictly positive is not.

    The offending field name is stored in ``field``.
    """

    def __init__(self, field: str, value: float):
        self.field = field
        self.value = value
        super().__init__(f"parameter {field!r} must be strictly positive, got {value!r}")


class GridTooCoarse(PiezolabError, ValueError):
    """Fewer cells than the minimum needed for the staggered stencils."""

    def __init__(self, n_cells: int, minimum: int):
        self.n_cells = n_cells
        self.minimum = minimum
        super().__init__(f"n_cells={n_cells} is below the minimum of {minimum}")


class GaugeDrift(PiezolabError, RuntimeError):
    """Gauge residual grew beyond the abort threshold during a simulation."""


class NonFiniteState(PiezolabError, RuntimeError):
    """A simulated state holds NaN or Inf, e.g. from a non-finite input."""


class AssemblyInconsistent(PiezolabError, RuntimeError):
    """An assembled operator failed its structural certificate (e.g. skewness)."""


class FreeBlockCoupling(AssemblyInconsistent):
    """The reduced Gram matrix is not block diagonal over the free blocks.

    The dense reference factors M_red one free block at a time, so an entry
    between two free blocks, or a nonlocal part that is not one free block,
    is refused rather than factored.
    """


class SolverFailure(PiezolabError, RuntimeError):
    """An elliptic solve failed; cannot happen for a well-posed factorization."""


class LinearSolveFailure(PiezolabError, RuntimeError):
    """The shifted time-stepping system could not be factorized."""


class ConfigParseError(PiezolabError, ValueError):
    """Experiment configuration is malformed; message names the key at fault."""


class GaugeViolation(ConfigParseError):
    """A tabulated start's gauge-bound rows violate the gauge constraint."""


class DegenerateWindow(PiezolabError, ValueError):
    """A fit window contains too few records to be meaningful."""


class NotPositiveDefinite(PiezolabError, RuntimeError):
    """The Gram matrix restricted to the constrained subspace is not SPD."""


class SecularNotConverged(PiezolabError, RuntimeError):
    """The closed-loop root solve used up its sweeps with a root still moving."""
