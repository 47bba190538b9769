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
from it at O(N).  A dense realization of P_xi (``p_dense``) is formed only
on demand: it backs the dense reference (the Gram matrix's one dense
block, the energy-space system of the spectra) and check 5.  It is built
from that factor alone, with no dense matrix product: P0 = A^{-1} I by
banded solves, then one step of iterative refinement
P = P0 + A^{-1}(I - A P0), whose residual over A's three diagonals is
summed with error-free transformations (Dekker's TwoProduct and Knuth's
TwoSum, as in Ogita, Rump and Oishi's Dot2, SIAM J. Sci. Comput. 26
(2005)).  The result is the inverse to within rounding of each entry, so
it is symmetric and, like A, persymmetric (P = J P J, J the flip); it is
still symmetrized, so that symmetry holds whatever the rounding.  Time stepping does not use it: the
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


# Dekker's splitting constant 2^27 + 1: a double splits into two halves of
# at most 26 significant bits, so the product of two halves is exact
_SPLITTER = 134217729.0
# the residual is formed this many columns at a time, so its temporaries
# stay a small fraction of one N x N array
_RESIDUAL_COLUMNS = 16


def _split(a: np.ndarray) -> tuple:
    """Dekker's split of ``a`` into (high, low) with high + low = a exactly."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _two_product(a: np.ndarray, a_halves: tuple, b: np.ndarray,
                 b_halves: tuple) -> tuple:
    """Dekker's TwoProduct: (x, y) with x = fl(a b) and x + y = a b exactly."""
    x = a * b
    (a_hi, a_lo), (b_hi, b_lo) = a_halves, b_halves
    return x, a_lo * b_lo - (((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple:
    """Knuth's TwoSum: (s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _residual(a: sparse.csr_array, p: np.ndarray) -> np.ndarray:
    """I - A p for the tridiagonal A, in Fortran order, accurate to rounding.

    Each entry is a dot product of three terms and the identity, summed by
    Ogita, Rump and Oishi's Dot2 (error-free TwoProduct and TwoSum, their
    errors summed apart): the result is as accurate as if it were formed
    in twice the working precision and rounded once.  The columns are
    formed ``_RESIDUAL_COLUMNS`` at a time.
    """
    n = p.shape[0]
    diag, off = -a.diagonal()[:, None], -a.diagonal(1)[:, None]
    diag_halves, off_halves = _split(diag), _split(off)
    out = np.empty((n, n), order="F")
    for start in range(0, n, _RESIDUAL_COLUMNS):
        cols = slice(start, min(start + _RESIDUAL_COLUMNS, n))
        block = p[:, cols]
        halves = _split(block)
        above = block[:-1], tuple(h[:-1] for h in halves)  # p_{i-1,j} of rows 1:
        below = block[1:], tuple(h[1:] for h in halves)    # p_{i+1,j} of rows :-1
        total, err = _two_product(diag, diag_halves, block, halves)
        for rows, (terms, term_halves) in ((slice(1, None), above),
                                           (slice(None, -1), below)):
            x, y = _two_product(off, off_halves, terms, term_halves)
            total[rows], q = _two_sum(total[rows], x)
            err[rows] += q + y
        # the identity's ones, on the diagonal entries of this block
        j = np.arange(cols.stop - start)
        total[start + j, j], q = _two_sum(total[start + j, j], 1.0)
        err[start + j, j] += q
        np.add(total, err, out=out[:, cols])
    return out


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
        """(N, N) symmetric realization of P_xi = A^{-1}, read-only.

        P0 comes from the banded factor and one refinement step
        P = P0 + A^{-1} (I - A P0) corrects it, with the residual formed by
        :func:`_residual` as if in twice the working precision.  Both
        solves overwrite their right-hand side, so from N = 256 up the
        traced peak stays below 3 N^2 doubles.
        """
        n = self.n_cells
        factor = (self.a_chol, False)
        p = scipy.linalg.cho_solve_banded(factor, np.eye(n, order="F"),
                                          overwrite_b=True, check_finite=False)
        p += scipy.linalg.cho_solve_banded(factor, _residual(self.a, p),
                                           overwrite_b=True, check_finite=False)
        p_sym = p + p.T
        p_sym *= 0.5
        p_sym.setflags(write=False)
        return p_sym


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
