"""Physical parameters, staggered grid geometry, and the block layout of the state.

The beam occupies (0, L).  All fields live on a uniform staggered grid with
N cells of width dx = L/N:

* cell centers   x_{j+1/2} = (j + 1/2) dx,  j = 0..N-1,
* nodes          x_j       = j dx,          j = 0..N,
* interior nodes x_j,                       j = 1..N-1.

A state is one flat float array of 6N - 1 coordinates, in contiguous named
blocks (:func:`block_slices`; a six-field assembly holds them as ``blocks``):

    y1  strain v_x           on cells          (N)
    y2  theta                on interior nodes (N-1), zero at both ends
    y3  eta                  on cells          (N)
    y4  velocity v_dot       on all nodes      (N+1)
    y5  theta_dot            on interior nodes (N-1)
    y6  eta_dot              on cells          (N)

theta carries homogeneous Dirichlet conditions, so only interior values are
stored; eta and the potential moment are Neumann fields and live on cells.
The gauge constraint ties the pairs: y3 = xi * grad(y2) and y6 = xi * grad(y5)
with xi = eps1 h^2 / (12 eps3).  The lift of an assembled model
(:meth:`piezolab.generator.GeneratorAssembly.lift`) fills y3 and y6 from the
free blocks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
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
    constant is missing, not a real number (booleans and numeric strings
    are refused) or non-finite, and reports if the derived xi underflows
    to zero.
    """
    for name in _ALL_FIELDS:
        if name not in raw:
            raise ValueError(f"missing parameter {name!r}")
    values = {}
    for name in _ALL_FIELDS:
        if not isinstance(raw[name], numbers.Real) or isinstance(raw[name], bool):
            raise ValueError(f"parameter {name!r} is not a number: {raw[name]!r}")
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


def block_slices(grid: StaggeredGrid) -> dict:
    """Index ranges of the six blocks inside the flat state vector."""
    n = grid.n_cells
    sizes = {"y1": n, "y2": n - 1, "y3": n, "y4": n + 1, "y5": n - 1, "y6": n}
    out = {}
    start = 0
    for name, size in sizes.items():
        out[name] = slice(start, start + size)
        start += size
    return out
