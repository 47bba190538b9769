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
All five are read-only ``scipy.sparse`` CSR arrays built from their
diagonals: two entries per row (one in the boundary rows of grad_nc and
div_f) and three in lap_cc.  Two summation-by-parts identities hold to machine precision and everything
downstream leans on them:

    sum_int  w * (div_int u)        = -sum_cells u * (grad_nc w)
    sum_node omega_j z * (div_f s)  = -dx * sum_cells s * (grad_f z)

where omega is the trapezoid weight vector dx*(1/2, 1, ..., 1, 1/2) and the
second identity assumes the stress s carries zero boundary faces (built into
div_f).

P_xi is the inverse of A = I - xi*lap_cc (a Neumann problem; A is SPD and
tridiagonal).  A is formed here once, as a sparse array that every model's
split generator places on its auxiliary fields.  Its banded Cholesky factor
is kept: the nonlocal energy of a
record, and every P_xi product of the assembly certificates, is evaluated
from it at O(N).  A dense, exactly symmetric realization of P_xi
(``p_dense``), built from that factor, is formed only on demand: it backs
the dense reference (the Gram matrix's one dense block, the energy-space
system of the spectra) and check 5.  Time stepping does not use it: the
stepper keeps A itself as tridiagonal constraint rows of a sparse augmented
system (see :mod:`piezolab.dynamics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy import sparse

from .errors import SolverFailure
from .model import BeamParameters, StaggeredGrid


def _frozen(matrix: sparse.csr_array) -> sparse.csr_array:
    """``matrix`` with its data and index arrays made read-only."""
    for part in (matrix.data, matrix.indices, matrix.indptr):
        part.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class DiscreteOperators:
    """Immutable bundle of the sparse stencils, A and its Cholesky factor.

    Everything held is O(N).  The dense P_xi is ``p_dense``, formed on the
    first read and kept from then on.
    """

    grid: StaggeredGrid
    xi: float
    div_int: sparse.csr_array   # (N-1, N), 2 entries per row
    grad_nc: sparse.csr_array   # (N, N-1), equals -div_int.T
    grad_f: sparse.csr_array    # (N, N+1), 2 entries per row
    div_f: sparse.csr_array     # (N+1, N), 2 entries per column
    lap_cc: sparse.csr_array    # (N, N) = grad_nc @ div_int, tridiagonal
    a: sparse.csr_array         # (N, N) Helmholtz matrix I - xi lap_cc
    a_chol: np.ndarray      # (2, N) upper banded Cholesky factor of A, LAPACK layout
    node_weights: np.ndarray  # (N+1,) trapezoid weights including dx

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    @cached_property
    def p_dense(self) -> np.ndarray:
        """(N, N) symmetric realization of P_xi = A^{-1}, read-only."""
        n = self.n_cells
        p_raw = scipy.linalg.cho_solve_banded((self.a_chol, False), np.eye(n))
        # one Newton correction sharpens the inverse before symmetrizing
        p_raw = p_raw @ (2.0 * np.eye(n) - self.a.toarray() @ p_raw)
        p = 0.5 * (p_raw + p_raw.T)
        p.setflags(write=False)
        return p


def build_operators(params: BeamParameters, grid: StaggeredGrid) -> DiscreteOperators:
    """Assemble the stencils, A and its banded Cholesky factor for one grid."""
    xi = params.xi
    n = grid.n_cells
    inv = 1.0 / grid.dx
    div_int = sparse.diags_array([np.full(n - 1, -inv), np.full(n - 1, inv)],
                                 offsets=(0, 1), shape=(n - 1, n), format="csr")
    grad_nc = (-div_int.T).tocsr()  # bit-exact negative adjoint
    lap_cc = grad_nc @ div_int
    grad_f = sparse.diags_array([np.full(n, -inv), np.full(n, inv)],
                                offsets=(0, 1), shape=(n, n + 1), format="csr")
    # zero boundary faces: the end rows divide by the half spacing dx/2, the
    # exact negative adjoint of grad_f under trapezoid node weights
    diag, lower = np.full(n, inv), np.full(n, -inv)
    diag[0], lower[-1] = 2.0 * inv, -2.0 * inv
    div_f = sparse.diags_array([diag, lower], offsets=(0, -1), shape=(n + 1, n),
                               format="csr")
    a = sparse.eye_array(n, format="csr") - xi * lap_cc

    # upper banded storage for the SPD tridiagonal Helmholtz matrix
    ab = np.zeros((2, n))
    ab[1, :] = a.diagonal()
    ab[0, 1:] = a.diagonal(1)
    try:
        bands = np.asfortranarray(scipy.linalg.cholesky_banded(ab))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - xi > 0 rules this out
        raise SolverFailure(f"Helmholtz factorization failed: {exc}") from exc

    weights = np.full(n + 1, grid.dx)
    weights[0] = 0.5 * grid.dx
    weights[-1] = 0.5 * grid.dx

    for arr in (bands, weights):
        arr.setflags(write=False)

    return DiscreteOperators(
        grid=grid, xi=xi, div_int=_frozen(div_int), grad_nc=_frozen(grad_nc),
        grad_f=_frozen(grad_f), div_f=_frozen(div_f), lap_cc=_frozen(lap_cc),
        a=_frozen(a), a_chol=bands, node_weights=weights,
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
