"""Physical parameters, staggered grid geometry, and the simulation state.

The beam occupies (0, L).  All fields live on a uniform staggered grid with
N cells of width dx = L/N:

* cell centers   x_{j+1/2} = (j + 1/2) dx,  j = 0..N-1,
* nodes          x_j       = j dx,          j = 0..N,
* interior nodes x_j,                       j = 1..N-1.

State layout (contiguous blocks, total 6N - 1 coordinates):

    y1  strain v_x           on cells          (N)
    y2  theta                on interior nodes (N-1), zero at both ends
    y3  eta                  on cells          (N)
    y4  velocity v_dot       on all nodes      (N+1)
    y5  theta_dot            on interior nodes (N-1)
    y6  eta_dot              on cells          (N)

theta carries homogeneous Dirichlet conditions, so only interior values are
stored; eta and the potential moment are Neumann fields and live on cells.
The gauge constraint ties the pairs: y3 = xi * grad(y2) and y6 = xi * grad(y5)
with xi = eps1 h^2 / (12 eps3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import GridTooCoarse, NonPositiveParameter

MIN_CELLS = 8

_POSITIVE_FIELDS = ("rho", "alpha", "eps1", "eps3", "mu", "h", "L")
_ALL_FIELDS = ("rho", "alpha", "gamma", "eps1", "eps3", "mu", "h", "L")


@dataclass(frozen=True)
class BeamParameters:
    """Material and geometry constants (SI units).

    gamma may take either sign (poling direction); everything else is
    strictly positive.  xi = eps1*h^2/(12*eps3) is derived, never set
    directly; use :func:`validate_parameters`.
    """

    rho: float    # mass density (kg/m^3)
    alpha: float  # elastic stiffness (Pa)
    gamma: float  # piezoelectric coupling (C/m^2)
    eps1: float   # transverse permittivity (F/m)
    eps3: float   # axial permittivity (F/m)
    mu: float     # magnetic permeability (H/m)
    h: float      # beam thickness (m)
    L: float      # beam length (m)
    xi: float     # eps1*h^2/(12*eps3) (m^2)


def validate_parameters(raw: Mapping[str, float]) -> BeamParameters:
    """Build :class:`BeamParameters` from a plain mapping of the 8 constants.

    Raises :class:`NonPositiveParameter` naming the offending field when a
    required-positive constant is not strictly positive, ValueError when a
    constant is missing or non-finite, and reports if the derived xi
    underflows to zero.
    """
    for name in _ALL_FIELDS:
        if name not in raw:
            raise ValueError(f"missing parameter {name!r}")
    values = {}
    for name in _ALL_FIELDS:
        v = float(raw[name])
        if not np.isfinite(v):
            raise ValueError(f"parameter {name!r} is not finite: {v!r}")
        values[name] = v
    for name in _POSITIVE_FIELDS:
        if values[name] <= 0.0:
            raise NonPositiveParameter(name, values[name])
    xi = values["eps1"] * values["h"] ** 2 / (12.0 * values["eps3"])
    if xi == 0.0:
        raise NonPositiveParameter("xi", 0.0)
    return BeamParameters(xi=xi, **values)


def toy_parameters(gamma: float = 1.0) -> BeamParameters:
    """All-O(1) parameter preset used throughout the test experiments."""
    return validate_parameters(
        {"rho": 1.0, "alpha": 1.0, "gamma": gamma,
         "eps1": 1.0, "eps3": 1.0, "mu": 1.0, "h": 1.0, "L": 1.0}
    )


@dataclass(frozen=True)
class StaggeredGrid:
    """Uniform staggered grid on (0, L) with N cells."""

    n_cells: int
    dx: float
    node_coords: np.ndarray  # shape (N+1,)
    cell_coords: np.ndarray  # shape (N,)

    @property
    def L(self) -> float:
        return float(self.node_coords[-1])

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def n_interior(self) -> int:
        return self.n_cells - 1

    @property
    def state_dim(self) -> int:
        # 3 cell fields + 2 interior-node fields + 1 node field
        return 6 * self.n_cells - 1


def build_grid(L: float, n_cells: int) -> StaggeredGrid:
    """Uniform grid; node j at j*L/N, cell j at (j + 1/2)*L/N."""
    if L <= 0:
        raise NonPositiveParameter("L", L)
    n_cells = int(n_cells)
    if n_cells < MIN_CELLS:
        raise GridTooCoarse(n_cells, MIN_CELLS)
    dx = L / n_cells
    nodes = np.arange(n_cells + 1) * dx
    # pin both endpoints exactly
    nodes[-1] = L
    cells = (np.arange(n_cells) + 0.5) * dx
    nodes.setflags(write=False)
    cells.setflags(write=False)
    return StaggeredGrid(n_cells=n_cells, dx=dx, node_coords=nodes, cell_coords=cells)


def node_to_cell_gradient(w_interior: np.ndarray, grid: StaggeredGrid) -> np.ndarray:
    """First difference of an interior-node field onto cells.

    The implicit boundary values are zero (Dirichlet), so the result has
    N entries for N-1 interior inputs.
    """
    w = np.asarray(w_interior, dtype=float)
    if w.shape != (grid.n_interior,):
        raise ValueError(f"expected {grid.n_interior} interior-node values, got {w.shape}")
    ext = np.concatenate(([0.0], w, [0.0]))
    return np.diff(ext) / grid.dx


_BLOCKS = ("y1", "y2", "y3", "y4", "y5", "y6")


@dataclass(frozen=True)
class StateVector:
    """Simulation state split into its six field blocks.

    Instances are immutable; the flat coordinate vector (block order
    y1|y2|y3|y4|y5|y6) is what the assembled matrices act on.
    """

    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray
    y4: np.ndarray
    y5: np.ndarray
    y6: np.ndarray
    grid: StaggeredGrid = field(repr=False)

    def __post_init__(self):
        n = self.grid.n_cells
        expected = {"y1": n, "y2": n - 1, "y3": n, "y4": n + 1, "y5": n - 1, "y6": n}
        for name, size in expected.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (size,):
                raise ValueError(f"{name} must have shape ({size},), got {arr.shape}")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def flat(self) -> np.ndarray:
        return np.concatenate([getattr(self, b) for b in _BLOCKS])

    @classmethod
    def from_flat(cls, vec: np.ndarray, grid: StaggeredGrid) -> "StateVector":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (grid.state_dim,):
            raise ValueError(f"flat state must have {grid.state_dim} entries, got {vec.shape}")
        return cls(*(vec[sl] for sl in block_slices(grid).values()), grid=grid)

    @classmethod
    def zero(cls, grid: StaggeredGrid) -> "StateVector":
        return cls.from_flat(np.zeros(grid.state_dim), grid)

    @classmethod
    def gauge_projected(cls, y1, y2, y4, y5, grid: StaggeredGrid,
                        params: BeamParameters) -> "StateVector":
        """Construct a state on the gauge manifold from the free fields.

        y3 and y6 are set to xi*grad(y2) and xi*grad(y5); the residual of the
        result is exactly zero by construction.
        """
        y3 = params.xi * node_to_cell_gradient(y2, grid)
        y6 = params.xi * node_to_cell_gradient(y5, grid)
        return cls(np.asarray(y1, float), np.asarray(y2, float), y3,
                   np.asarray(y4, float), np.asarray(y5, float), y6, grid=grid)


def block_slices(grid: StaggeredGrid) -> dict:
    """Index ranges of the six blocks inside the flat coordinate vector."""
    n = grid.n_cells
    sizes = [n, n - 1, n, n + 1, n - 1, n]
    out = {}
    start = 0
    for name, size in zip(_BLOCKS, sizes):
        out[name] = slice(start, start + size)
        start += size
    return out
