"""Staggered difference operators and the Helmholtz inverse P_xi.

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
tridiagonal).  Its banded Cholesky factor is kept: the nonlocal energy of a
record is evaluated from it at O(N).  A dense, exactly symmetric realization
of P_xi, built from that factor, backs the dense reference generator and the
spectra, and is the one dense block of the Gram matrix.
Time stepping does not use it: the stepper keeps A itself as tridiagonal
constraint rows of a sparse augmented system (see :mod:`piezolab.dynamics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import NotPositiveDefinite, SolverFailure
from .model import BeamParameters, StaggeredGrid


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
    a_chol: np.ndarray      # (2, N) upper banded Cholesky factor of A, LAPACK layout
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
        bands = np.asfortranarray(scipy.linalg.cholesky_banded(ab))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - xi > 0 rules this out
        raise SolverFailure(f"Helmholtz factorization failed: {exc}") from exc

    p_raw = scipy.linalg.cho_solve_banded((bands, False), np.eye(n))
    # one Newton correction sharpens the inverse before symmetrizing
    p_raw = p_raw @ (2.0 * np.eye(n) - a_mat @ p_raw)
    p_dense = 0.5 * (p_raw + p_raw.T)

    weights = np.full(n + 1, grid.dx)
    weights[0] = 0.5 * grid.dx
    weights[-1] = 0.5 * grid.dx

    for arr in (div_int, grad_nc, grad_f, div_f, lap_cc, p_dense, bands, weights):
        arr.setflags(write=False)

    return DiscreteOperators(
        grid=grid, xi=xi, div_int=div_int, grad_nc=grad_nc, grad_f=grad_f,
        div_f=div_f, lap_cc=lap_cc, p_dense=p_dense, a_chol=bands,
        node_weights=weights,
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


def mass_cholesky(m_reduced: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor R with M = R^T R; raises NotPositiveDefinite."""
    try:
        return scipy.linalg.cholesky(m_reduced, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "Gram matrix on the constrained subspace is not positive definite") from exc
