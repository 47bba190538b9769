"""Staggered difference operators, the Helmholtz inverse P_xi, and the energy.

Operator conventions
--------------------
With N cells of width dx the package uses four first-difference stencils:

    div_int : cells -> interior nodes   (u_j - u_{j-1})/dx
    grad_nc : interior nodes -> cells   built as -div_int.T, which equals the
              forward difference with implicit zero boundary values
    grad_f  : all nodes -> cells        (w_{j+1} - w_j)/dx
    div_f   : cells -> all nodes        stress divergence with zero boundary
              faces; boundary rows use the half-cell spacing dx/2

and the cell Laplacian

    lap_cc = grad_nc @ div_int

which is exactly the three-point stencil with mirror (zero-flux) ghost cells.
Two summation-by-parts identities hold to machine precision and everything
downstream leans on them:

    sum_int  w * (div_int u)        = -sum_cells u * (grad_nc w)
    sum_node omega_j z * (div_f s)  = -dx * sum_cells s * (grad_f z)

where omega is the trapezoid weight vector dx*(1/2, 1, ..., 1, 1/2) and the
second identity assumes the stress s carries zero boundary faces (built into
div_f).

P_xi is the inverse of A = I - xi*lap_cc (a Neumann problem; A is SPD and
tridiagonal).  A dense, exactly symmetric realization, built from the banded
Cholesky factorization of A, backs the dense reference generator, the
energy and the spectra.  Time stepping does not use it: the stepper keeps
A itself as tridiagonal constraint rows of a sparse augmented system (see
:mod:`piezolab.dynamics`).
The companion matrix ``one_minus_p`` realizes I - P_xi through the algebraic
identity lap_cc P_xi = (P_xi - I)/xi, so that the gauge-preservation
cancellation in the generator holds to rounding rather than to solver
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, SolverFailure
from .model import BeamParameters, StaggeredGrid, StateVector, block_slices

NORM_FLOOR = 1e-30


def _div_interior(grid: StaggeredGrid) -> np.ndarray:
    """Cells -> interior nodes first difference, shape (N-1, N)."""
    n = grid.n_cells
    d = np.zeros((n - 1, n))
    inv = 1.0 / grid.dx
    for r in range(n - 1):
        d[r, r] = -inv
        d[r, r + 1] = inv
    return d


def _grad_full(grid: StaggeredGrid) -> np.ndarray:
    """All nodes -> cells first difference, shape (N, N+1)."""
    n = grid.n_cells
    g = np.zeros((n, n + 1))
    inv = 1.0 / grid.dx
    for j in range(n):
        g[j, j] = -inv
        g[j, j + 1] = inv
    return g


def _div_free(grid: StaggeredGrid) -> np.ndarray:
    """Cells -> all nodes divergence of a stress with zero boundary faces.

    Boundary rows divide by the half spacing dx/2; this is the exact
    negative adjoint of grad_f under trapezoid node weights.
    """
    n = grid.n_cells
    d = np.zeros((n + 1, n))
    inv = 1.0 / grid.dx
    d[0, 0] = 2.0 * inv
    for r in range(1, n):
        d[r, r - 1] = -inv
        d[r, r] = inv
    d[n, n - 1] = -2.0 * inv
    return d


@dataclass(frozen=True)
class DiscreteOperators:
    """Immutable bundle of difference operators and the P_xi realization."""

    grid: StaggeredGrid
    xi: float
    div_int: np.ndarray     # (N-1, N)
    grad_nc: np.ndarray     # (N, N-1), equals -div_int.T
    grad_f: np.ndarray      # (N, N+1)
    div_f: np.ndarray       # (N+1, N)
    lap_cc: np.ndarray      # (N, N) = grad_nc @ div_int
    p_dense: np.ndarray     # (N, N) symmetric realization of P_xi
    one_minus_p: np.ndarray  # (N, N) = -xi * sym(lap_cc @ p_dense)
    node_weights: np.ndarray  # (N+1,) trapezoid weights including dx

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells


def build_operators(params: BeamParameters, grid: StaggeredGrid) -> DiscreteOperators:
    """Assemble the stencils and the P_xi realization for one grid."""
    xi = params.xi
    div_int = _div_interior(grid)
    grad_nc = -div_int.T  # bit-exact negative adjoint
    lap_cc = grad_nc @ div_int

    n = grid.n_cells
    grad_f = _grad_full(grid)
    div_f = _div_free(grid)

    a_mat = np.eye(n) - xi * lap_cc
    # upper banded storage for the SPD tridiagonal Helmholtz matrix
    ab = np.zeros((2, n))
    ab[1, :] = np.diag(a_mat)
    ab[0, 1:] = np.diag(a_mat, 1)
    try:
        bands = scipy.linalg.cholesky_banded(ab)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - xi > 0 rules this out
        raise SolverFailure(f"Helmholtz factorization failed: {exc}") from exc

    p_raw = scipy.linalg.cho_solve_banded((bands, False), np.eye(n))
    # one Newton correction sharpens the inverse before symmetrizing
    p_raw = p_raw @ (2.0 * np.eye(n) - a_mat @ p_raw)
    p_dense = 0.5 * (p_raw + p_raw.T)

    lp = lap_cc @ p_dense
    one_minus_p = -xi * 0.5 * (lp + lp.T)

    weights = np.full(n + 1, grid.dx)
    weights[0] = 0.5 * grid.dx
    weights[-1] = 0.5 * grid.dx

    for arr in (div_int, grad_nc, grad_f, div_f, lap_cc,
                p_dense, one_minus_p, weights):
        arr.setflags(write=False)

    return DiscreteOperators(
        grid=grid, xi=xi, div_int=div_int, grad_nc=grad_nc, grad_f=grad_f,
        div_f=div_f, lap_cc=lap_cc, p_dense=p_dense,
        one_minus_p=one_minus_p, node_weights=weights,
    )


def p_xi_identity_check(ops: DiscreteOperators) -> float:
    """Relative residual of the algebraic identity lap_cc P = (P - I)/xi."""
    n = ops.n_cells
    lhs = ops.lap_cc @ ops.p_dense
    rhs = (ops.p_dense - np.eye(n)) / ops.xi
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


class ActuationMode(Enum):
    NONE = "none"
    CURRENT = "current"
    CHARGE_MAGNETIC = "charge_magnetic"
    CHARGE_ELECTROSTATIC = "charge_electrostatic"


def assemble_mass(params: BeamParameters, grid: StaggeredGrid,
                  ops: DiscreteOperators) -> np.ndarray:
    """Gram matrix of the energy inner product over the 6N-1 coordinates.

    Symmetric positive semidefinite on the full coordinate space, positive
    definite on the gauge-constrained subspace.  The magnetic term couples
    (y2, y3) through |y2 - div(y3)|^2 on interior nodes; boundary nodes
    contribute nothing because theta and the flux of eta vanish there.
    """
    n = grid.n_cells
    dx = grid.dx
    sl = block_slices(grid)
    dim = grid.state_dim
    m = np.zeros((dim, dim))

    m[sl["y1"], sl["y1"]] = dx * (params.alpha * np.eye(n)
                                  + (params.gamma ** 2 / params.eps3) * ops.p_dense)
    m[sl["y4"], sl["y4"]] = params.rho * np.diag(ops.node_weights)
    m[sl["y5"], sl["y5"]] = (params.eps1 * params.h ** 2 / 12.0) * dx * np.eye(n - 1)
    m[sl["y6"], sl["y6"]] = params.eps3 * dx * np.eye(n)

    d = ops.div_int
    mu_dx = params.mu * dx
    m[sl["y2"], sl["y2"]] = mu_dx * np.eye(n - 1)
    m[sl["y2"], sl["y3"]] = -mu_dx * d
    m[sl["y3"], sl["y2"]] = -mu_dx * d.T
    m[sl["y3"], sl["y3"]] = mu_dx * (d.T @ d)
    return m


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split into its six nonnegative quadratic contributions."""

    kinetic_v: float
    kinetic_theta: float
    kinetic_eta: float
    elastic: float
    nonlocal_: float
    magnetic: float

    @property
    def total(self) -> float:
        return (self.kinetic_v + self.kinetic_theta + self.kinetic_eta
                + self.elastic + self.nonlocal_ + self.magnetic)

    def as_row(self) -> list:
        return [self.total, self.kinetic_v, self.kinetic_theta, self.kinetic_eta,
                self.elastic, self.nonlocal_, self.magnetic]


def gauge_residual(y: StateVector, ops: DiscreteOperators,
                   interior: bool = False) -> tuple:
    """Relative gauge residuals (pos, vel) of a six-field state.

    The residual cell fields y3 - xi grad(y2) and y6 - xi grad(y5) are
    measured against |y3| and |y6|.  ``interior`` drops the first and last
    cell: forced trajectories with the distributed current influence develop
    a discretization layer there (the influence has a boundary jump that the
    interior-node gradient cannot represent), so the interior residual is
    the meaningful drift diagnostic for them.
    """
    cells = slice(1, -1) if interior else slice(None)
    r_pos = (-ops.xi * (ops.grad_nc @ y.y2) + y.y3)[cells]
    r_vel = (-ops.xi * (ops.grad_nc @ y.y5) + y.y6)[cells]
    rp = float(np.linalg.norm(r_pos) / max(np.linalg.norm(y.y3), NORM_FLOOR))
    rv = float(np.linalg.norm(r_vel) / max(np.linalg.norm(y.y6), NORM_FLOOR))
    return rp, rv


def energy(y: StateVector, params: BeamParameters, grid: StaggeredGrid,
           ops: DiscreteOperators) -> EnergyBreakdown:
    """Energy of a state; equals (1/2) y^T M y.

    The energy is only coercive on the gauge-constrained subspace; the run
    loop and tabulated starts guard the gauge with :func:`gauge_residual`.
    """
    dx = grid.dx
    kin_v = 0.5 * params.rho * float(np.dot(ops.node_weights, y.y4 ** 2))
    kin_theta = 0.5 * (params.eps1 * params.h ** 2 / 12.0) * dx * float(np.dot(y.y5, y.y5))
    kin_eta = 0.5 * params.eps3 * dx * float(np.dot(y.y6, y.y6))
    elastic = 0.5 * params.alpha * dx * float(np.dot(y.y1, y.y1))
    nonloc = 0.5 * (params.gamma ** 2 / params.eps3) * dx * float(y.y1 @ ops.p_dense @ y.y1)
    mag_field = y.y2 - ops.div_int @ y.y3
    magnetic = 0.5 * params.mu * dx * float(np.dot(mag_field, mag_field))
    return EnergyBreakdown(kinetic_v=kin_v, kinetic_theta=kin_theta,
                           kinetic_eta=kin_eta, elastic=elastic,
                           nonlocal_=nonloc, magnetic=magnetic)


def mass_cholesky(m_reduced: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor R with M = R^T R; raises NotPositiveDefinite."""
    try:
        return scipy.linalg.cholesky(m_reduced, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "Gram matrix on the constrained subspace is not positive definite") from exc
