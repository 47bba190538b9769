"""Eigenstructure in the energy inner product and stabilizability analysis.

All spectra are computed on the gauge-constrained subspace, where the Gram
matrix is positive definite: with M_red = R^T R (Cholesky), the matrix
S = R G_red R^{-1} is similar to the reduced generator and skew-symmetric up
to rounding.  Closed-loop spectra perturb S by the rank-one collocated
feedback -k g g^T, whose symmetric negative-semidefinite structure forces
Re(lambda) <= 0, with g = R^{-T} T^T M b.  R, S and g are read from the
assembly's dense reference
(:attr:`~piezolab.generator.GeneratorAssembly.reference`), which the first
spectrum of an assembly forms once for every spectral call; state
dimensions above :data:`~piezolab.generator.DENSE_DIM_GUARD` are refused
there, before any dense array is formed.

Every per-mode fact is read from eigenvectors in energy coordinates (see
:func:`_mode_table`); only a returned state is lifted (:func:`lift_modes`).

The one dense eigensolve is that of the open-loop S.  It splits S where
the model does, twice over, reading the matrix itself (:func:`_plan`):

* if it holds exact zeros between the mechanical coordinates
  (``reduction.mechanical``, the blocks y1 and y4) and the field ones, as
  at gamma = 0, the mechanical block is solved first and the field block
  second;
* a block whose position-position and velocity-velocity sub-blocks
  (``reduction.velocity``, the blocks y4 and y5) are exact zeros is
  bipartite, S = [[0, B], [C, 0]] with C = -B^T to rounding.  That holds
  for every electrostatic S and both blocks at gamma = 0.  Its pairs come
  from one real SVD Bs = (B - C^T)/2 = U diag(sigma) V^T, by the
  Jordan-Wielandt relation: x = (u; -+ i v)/sqrt(2) belongs to
  lam = -+ i sigma, and a rectangular Bs adds its null vectors at 0.
  Re lam = 0 is structure, not rounding: the spectrum of a real bipartite
  matrix is symmetric under lam -> -lam and lam -> conj(lam), so a simple
  eigenvalue cannot leave the imaginary axis.  The Rayleigh quotient of S
  itself on x is x^H S x = -+ i u_k^T Bs v_k exactly, and the SVD's sigma_k
  is u_k^T Bs v_k to rounding.  The coupling |g^T x| is read from the real
  products g.u and g.v (:func:`_svd_block`).

Any other block of S, which is skew to rounding, is solved by its skew
part K = (S - S^T)/2 (:func:`_skew_block`): an orthogonal similarity
Q^T K Q = T makes K skew tridiagonal, and T's even rows against its odd
columns are a bidiagonal Bs, so the same SVD gives every pair (Ward and
Gray, ACM TOMS 4 (1978) 278-285), with vectors
x = (Q_e u -+ i Q_o v)/sqrt(2).  Its real parts are the first-order ones
Re(x^H S x)/||x||^2, read from the symmetric part of S itself, so the
imaginary-axis verdict still measures S; only the open-loop report reads
them, and they are formed on its first read.

Each block is formed only when it is solved, and a block that is all of S
goes to its solver without a copy.  The spectra and the shifts read only
each mode's facts |g^T x|, ||x|| and ||x[mech]||, which every block's own
solve gives before any sort; an eigenvector is built only when asked for,
one new vector at a time, by the ``mode`` getter of :func:`_blockwise`
(:func:`open_loop_modes`), so no solve forms a (dim, dim) array of sorted
or placed eigenvectors.  The solve is kept on the assembly, so every
spectral call on it shares one (:func:`_open_loop`).  :func:`solve_route`
names the route of a matrix.

The closed loop S - k g g^T is a rank-one update of S, solved in the
eigenbasis of the skew part without an eigensolve of its own.  Its
eigenvalues are the roots of the secular equation
1 + k sum_l |c_l|^2/(lam - i omega_l) = 0 with c_l = x_l^H g (Golub, SIAM
Rev. 15 (1973) 318-334), found by one Aberth-Ehrlich solve of every root
from the first-order guesses i omega - k |c|^2; a mode with k |c|^2 = 0
keeps its pole.  A root stops once its step is below ABERTH_RTOL of its
shift, part by part, one still moving after ABERTH_MAX_SWEEPS sweeps
raises :class:`~piezolab.errors.SecularNotConverged`, and the root started
from a mode is that mode's value.  The roots keep small relative error in
the high-frequency tail, whose decay rates shrink like 1/omega^2 far below
the noise floor of a dense eigensolve (about machine epsilon times ||S||).
Each root's eigenvector is sum_l c_l/(lam - i omega_l) x_l (Bunch, Nielsen
and Sorensen, Numer. Math. 31 (1978) 31-48), whose facts are read from the
coefficients and the real halves of the x_l (:func:`closed_loop_spectrum`).
The closed loop reads S only through its skew part: a symmetric part of S
shows in the open-loop real parts, not in the closed-loop roots.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from .errors import DegenerateWindow, SecularNotConverged
from .generator import GeneratorAssembly

ZERO_MODE_REL_TOL = 1e-10
# largest max|Re| / spectral radius of an open-loop spectrum on the imaginary
# axis (acceptance check 4 and the verdict of ``piezolab spectrum``)
IMAGINARY_AXIS_TOL = 1e-10
# feedback reaches a mode phi when |B* phi| > STABILIZABLE_TOL ||phi||_M: the
# mode table's stabilizable flag and the coupling rule of acceptance checks 7-9
STABILIZABLE_TOL = 1e-8
TABLE_BLOCK = 128
ABERTH_MAX_SWEEPS = 100  # sweeps of the closed-loop root solve before it gives up
ABERTH_RTOL = 1e-12      # relative step at which a closed-loop root has converged
HALF = np.sqrt(0.5)      # the scale of each half of a bipartite eigenvector


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of one assembly, sorted by |Im|, with its mode-table columns."""

    eigenvalues: np.ndarray
    max_abs_real: float
    kernel_dimension: int
    bstar_abs: np.ndarray = field(repr=False)
    stabilizable: np.ndarray = field(repr=False)
    dominant_block: np.ndarray = field(repr=False)
    g_norm: float = 0.0          # spectral radius, the scale for tolerances

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "bstar_abs", "stabilizable", "dominant_block"])
            columns = zip(self.eigenvalues, self.bstar_abs, self.stabilizable,
                          self.dominant_block)
            for lam, bstar_abs, flag, block in columns:
                writer.writerow([f"{lam.real:.17g}", f"{lam.imag:.17g}",
                                 f"{bstar_abs:.17g}", int(flag), block])


def _sort_order(values: np.ndarray) -> np.ndarray:
    # |Im| ascending, positive imaginary part first among a conjugate pair
    return np.lexsort((values.real, -np.sign(values.imag), np.abs(values.imag)))


def _dominant_block(mech_fraction: np.ndarray) -> np.ndarray:
    """Each mode's label from the fraction of its energy that is mechanical."""
    return np.where(mech_fraction >= 0.9, "mechanical",
                    np.where(mech_fraction <= 0.1, "electromagnetic", "mixed"))


def _column_norms(v: np.ndarray, mech: np.ndarray) -> tuple:
    """(||x||, ||x[mech]||) of each column x of v, over blocks of TABLE_BLOCK columns."""
    norms, mech_norms = np.empty((2, v.shape[1]))
    for start in range(0, v.shape[1], TABLE_BLOCK):
        cols = slice(start, start + TABLE_BLOCK)
        norms[cols] = np.linalg.norm(v[:, cols], axis=0)
        mech_norms[cols] = np.linalg.norm(v[mech, cols], axis=0)
    return norms, mech_norms


def _mode_table(bstar_abs: np.ndarray, norms: np.ndarray, mech_norms: np.ndarray) -> tuple:
    """Columns (stabilizable, dominant_block) of modes with energy-coordinate vectors v.

    The inputs are |g^T v|, ||v|| and ||v[mech]|| of each mode, read
    without a lift to phi = T R^{-1} v: B* phi = g^T v, ||phi||_M = ||v||,
    and the mechanical energy fraction is ||v[mech]||^2 / ||v||^2 (both
    mechanical/field blocks of R are exactly zero).  A mode is
    stabilizable when |B* phi| > STABILIZABLE_TOL ||phi||_M.
    """
    return (bstar_abs > STABILIZABLE_TOL * norms,
            _dominant_block(mech_norms ** 2 / norms ** 2))


def _decoupled_blocks(s: np.ndarray, mechanical: np.ndarray) -> list:
    """[mechanical, field] coordinates if S holds exact zeros between them.

    Only the two cross blocks of S are read; where they are zero, so are
    those of its skew part.  Otherwise (a nonzero or NaN cross entry, or no
    field coordinate) the one block of every index.
    """
    fields = np.setdiff1d(np.arange(len(s)), mechanical)
    if (len(fields) and len(mechanical)
            and not np.any(s[np.ix_(mechanical, fields)])
            and not np.any(s[np.ix_(fields, mechanical)])):
        return [mechanical, fields]
    return [np.arange(len(s))]


def _bipartite(s: np.ndarray, idx: np.ndarray, velocity: np.ndarray):
    """(positions, velocities) of the block idx of S if it is bipartite, else None.

    The block is bipartite when its position-position and its
    velocity-velocity sub-blocks of S hold exact zeros (a NaN is not zero)
    and neither is empty.
    """
    moving = np.isin(idx, velocity)
    p, q = idx[~moving], idx[moving]
    if (len(p) and len(q) and not np.any(s[np.ix_(p, p)])
            and not np.any(s[np.ix_(q, q)])):
        return p, q
    return None


def _plan(s: np.ndarray, reduction) -> list:
    """[(block, its (positions, velocities) or None)] of every dense solve of S."""
    return [(idx, _bipartite(s, idx, reduction.velocity))
            for idx in _decoupled_blocks(s, reduction.mechanical)]


def solve_route(s_matrix: np.ndarray, reduction) -> str:
    """How the dense eigenpairs of ``s_matrix`` are solved, block by block.

    ``"svd"`` for a bipartite block and ``"skew"`` (its skew part) for any
    other, joined by ``"+"`` when the matrix splits into its mechanical and
    field blocks.
    """
    return "+".join("svd" if halves else "skew" for _, halves in _plan(s_matrix, reduction))


def _block(s: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The block idx of S; S itself if it is all of S."""
    return s if len(idx) == len(s) else s[np.ix_(idx, idx)]


def _pairs(r: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-vector magnitudes of the r pairs (a; -+ i b)/sqrt(2), then the null vectors.

    ``a`` holds a value per left singular vector and ``b`` per right one;
    |(a; -+ i b)|/sqrt(2) = hypot(a, b)/sqrt(2) belongs to both members of
    a pair, and a null vector (a; 0) or (0; b) keeps its own.
    """
    pair = np.hypot(a[:r], b[:r]) * HALF
    return np.concatenate((pair, pair, np.abs(a[r:]), np.abs(b[r:])))


def _pair_coupling(r: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c = x^H g of the r pairs x = (a; -+ i b)/sqrt(2), then of the null vectors.

    ``a`` and ``b`` are g's products with the two halves, as in
    :func:`_pairs`; g is real, so g^T x = (g.a -+ i g.b)/sqrt(2) and c is
    its conjugate.
    """
    pair = HALF * (a[:r] + 1j * b[:r])
    return np.concatenate((pair, pair.conj(), a[r:], b[r:]))


def _halves(r: int, z: np.ndarray) -> tuple:
    """(alpha, beta) with sum_k z_k x_k = sum_j alpha_j a_j + i beta_j b_j over
    the r pairs x = (a -+ i b)/sqrt(2), for each column of z in block order."""
    return HALF * (z[:r] + z[r:2 * r]), HALF * (z[r:2 * r] - z[:r])


def _squares(parts: tuple, m: int) -> np.ndarray:
    """Squared norms of m complex columns, the real parts of each the first m
    columns of the real arrays ``parts`` and the imaginary parts the last m."""
    squares = sum(np.einsum("ij,ij->j", part, part) for part in parts)
    return squares[:m] + squares[m:]


def _pair_values(sigma: np.ndarray, size: int) -> np.ndarray:
    """lam = -+ i sigma of the pairs, then 0 for the null vectors, real parts +0."""
    values = np.zeros(size, dtype=complex)
    values.imag[:2 * len(sigma)] = np.concatenate((-sigma, sigma))
    return values


class _Part(NamedTuple):
    """One block's eigenpairs in block order: the pairs at -+ i sigma, then the null vectors.

    ``facts`` are (|g^T x|, ||x||, ||x[mech]||) of each vector x and
    ``coupling`` its c = x^H g; ``column(k)`` builds vector k as a new
    (dim,) array; ``mech_squares(z)`` is ||x[mech]||^2 of x = sum_k z_k x_k
    for each column of z, from real products with the block's real
    factors; ``real_parts()`` forms the real parts of the values, which
    ``values`` holds as +0.
    """

    values: np.ndarray
    facts: tuple
    coupling: np.ndarray
    column: Callable
    mech_squares: Callable
    real_parts: Callable


def _svd_block(s: np.ndarray, p: np.ndarray, q: np.ndarray, coupling: np.ndarray,
               mechanical: np.ndarray) -> _Part:
    """The bipartite block (p, q) of S.

    With Bs = (S_pq - S_qp^T)/2 = U diag(sigma) V^T (one real SVD), the
    vectors x = (u; -+ i v)/sqrt(2) belong to lam = -+ i sigma of S; the
    null vectors (u; 0) or (0; v) of a rectangular Bs close the list at 0.
    Their facts and couplings come from real products with the factors
    (:func:`_pairs`), as do the mechanical parts of their combinations, and
    their real parts are 0.
    """
    bst = s[np.ix_(q, p)]  # Bs^T in C order is Bs in Fortran order: no copy for LAPACK
    bst -= s[np.ix_(p, q)].T
    bst *= -0.5
    u, sigma, vt = scipy.linalg.svd(bst.T, overwrite_a=True)
    del bst
    r = len(sigma)
    pm, qm = np.isin(p, mechanical), np.isin(q, mechanical)
    a, b = coupling[p] @ u, vt @ coupling[q]
    facts = (_pairs(r, a, b),
             _pairs(r, np.linalg.norm(u, axis=0), np.linalg.norm(vt, axis=1)),
             _pairs(r, np.linalg.norm(u[pm], axis=0), np.linalg.norm(vt[:, qm], axis=1)))

    def column(k: int) -> np.ndarray:
        x = np.zeros(len(coupling), dtype=complex)
        if k < 2 * r:  # the pairs (u; - i v) first, then (u; + i v)
            sign, j = (-1.0, k) if k < r else (1.0, k - r)
            x.real[p] = HALF * u[:, j]
            x.imag[q] = sign * (HALF * vt[j])
        elif len(p) > len(q):
            x.real[p] = u[:, k - r]
        else:
            x.real[q] = vt[k - r]
        return x

    def mech_squares(z: np.ndarray) -> np.ndarray:
        alpha, beta = _halves(r, z)
        if len(p) > len(q):  # the null vectors (u; 0)
            alpha = np.concatenate((alpha, z[2 * r:]))
        else:                # (0; v) = i (0; v) times -i
            beta = np.concatenate((beta, -1j * z[2 * r:]))
        return _squares((u[pm] @ np.hstack((alpha.real, alpha.imag)),
                         vt[:, qm].T @ np.hstack((beta.real, beta.imag))), z.shape[1])

    size = len(p) + len(q)
    return _Part(_pair_values(sigma, size), facts, _pair_coupling(r, a, b), column,
                 mech_squares, lambda: np.zeros(size))


def _skew_bidiagonal(m: np.ndarray) -> tuple:
    """(Q, Bs) of K = (m - m^T)/2: Q^T K Q = T is skew tridiagonal, Bs = T[0::2, 1::2].

    K is formed once in Fortran order and reduced in place (``dgehrd``),
    and Q is formed in the same memory (``dorghr``).  With T's subdiagonal
    e, T[i + 1, i] = e_i = -T[i, i + 1], so T's even rows against its odd
    columns are the lower bidiagonal Bs.  A matrix that is not finite
    raises ValueError, as ``svd`` does.
    """
    k = np.subtract(m, m.T, order="F")
    k *= 0.5
    if not np.isfinite(k).all():
        raise ValueError("array must not contain infs or NaNs")
    lapack, n = scipy.linalg.lapack, len(k)
    h, tau, _ = lapack.dgehrd(k, lwork=int(lapack.dgehrd_lwork(n)[0]), overwrite_a=1)
    e = np.diagonal(h, -1)
    bs = np.zeros(((n + 1) // 2, n // 2), order="F")
    np.fill_diagonal(bs, -e[0::2])     # T[2i, 2i + 1]
    np.fill_diagonal(bs[1:], e[1::2])  # T[2i, 2i - 1]
    q, _ = lapack.dorghr(h, tau, lwork=int(lapack.dorghr_lwork(n)[0]), overwrite_a=1)
    return q, bs


def _symmetric_forms(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y_j^T sym(m) y_j of each column y_j of y, sym(m) = (m + m^T)/2.

    sym(m) is formed TABLE_BLOCK rows at a time, before any product, so
    the forms carry the rounding of sym(m), not of m.
    """
    forms = np.zeros(y.shape[1])
    for start in range(0, len(m), TABLE_BLOCK):
        rows = slice(start, start + TABLE_BLOCK)
        forms += np.einsum("ij,ij->j", y[rows], (m[rows] + m[:, rows].T) @ y)
    return 0.5 * forms


def _skew_block(s: np.ndarray, idx: np.ndarray, coupling: np.ndarray,
                mechanical: np.ndarray) -> _Part:
    """The block idx of an open-loop S, by its skew part.

    With Q^T K Q = T (:func:`_skew_bidiagonal`), T's even rows against its
    odd columns are the lower bidiagonal Bs = U diag(sigma) V^T (one real
    SVD), so x = (Q_e u -+ i Q_o v)/sqrt(2) belongs to -+ i sigma, with Q_e
    and Q_o the even and odd columns of Q (see :func:`_svd_block`).  The
    halves Q_e U and Q_o V overwrite Q_e and Q_o in row chunks of
    TABLE_BLOCK, so Q's memory holds every half-vector y.  The facts of
    each x, and the mechanical parts of combinations, are combined from
    those of its halves (:func:`_pairs`).  Its real part,
    Re(x^H S x)/||x||^2 = x^H sym(S) x/||x||^2, is formed only when read
    (:func:`_symmetric_forms`); a pair shares it.
    """
    y, bs = _skew_bidiagonal(_block(s, idx))
    u, sigma, vt = scipy.linalg.svd(bs, overwrite_a=True)
    del bs
    for start in range(0, len(y), TABLE_BLOCK):
        rows = slice(start, start + TABLE_BLOCK)
        y[rows, 0::2] = y[rows, 0::2] @ u
        y[rows, 1::2] = y[rows, 1::2] @ vt.T
    del u, vt
    mech = np.flatnonzero(np.isin(idx, mechanical))
    norms, mech_norms = _column_norms(y, mech)
    r, f = len(sigma), coupling[idx] @ y
    facts = tuple(_pairs(r, h[0::2], h[1::2]) for h in (f, norms, mech_norms))

    def column(k: int) -> np.ndarray:
        x = np.zeros(len(coupling), dtype=complex)
        if k < 2 * r:  # the pairs (Q_e u - i Q_o v) first, then (Q_e u + i Q_o v)
            sign, j = (-1.0, k) if k < r else (1.0, k - r)
            x.real[idx] = HALF * y[:, 2 * j]
            x.imag[idx] = sign * (HALF * y[:, 2 * j + 1])
        else:
            x.real[idx] = y[:, 2 * (k - r)]
        return x

    def mech_squares(z: np.ndarray) -> np.ndarray:
        alpha, beta = _halves(r, z)
        alpha = np.concatenate((alpha, z[2 * r:]))  # and the null vector's, if any
        m = z.shape[1]
        coef = np.empty((len(y), 2 * m))  # rows in the order of y's columns
        coef[0::2, :m], coef[0::2, m:] = alpha.real, alpha.imag
        coef[1::2, :m], coef[1::2, m:] = -beta.imag, beta.real
        return _squares((y[mech] @ coef,), m)

    def real_parts() -> np.ndarray:
        forms = _symmetric_forms(_block(s, idx), y)
        pair = (forms[0:2 * r:2] + forms[1::2]) / 2
        return np.concatenate((pair, pair, forms[2 * r::2])) / facts[1] ** 2

    return _Part(_pair_values(sigma, len(y)), facts, _pair_coupling(r, f[0::2], f[1::2]),
                 column, mech_squares, real_parts)


class _OpenLoop:
    """The eigenpairs of an open-loop S, in spectrum order (:func:`_sort_order`).

    ``omega`` holds the imaginary parts of the eigenvalues, ``facts``
    (|g^T x|, ||x||, ||x[mech]||) and ``coupling`` c = x^H g of each
    eigenvector x, read from the blocks' own solves (:class:`_Part`) and
    sorted with them; ``values`` adds the real parts, formed on the first
    read.  These arrays are read-only, since every caller shares them.
    ``mode(j)`` builds the j-th eigenvector as a new (dim,) array, and
    :meth:`mech_norms` reads the mechanical parts of combinations of them,
    so no (dim, dim) array of sorted or placed vectors is formed.
    """

    def __init__(self, parts: list):
        self._parts = parts
        self._starts = np.cumsum([0] + [len(part.values) for part in parts[:-1]])
        self._order = _sort_order(np.concatenate([part.values for part in parts]))
        self.omega = np.concatenate([part.values.imag for part in parts])[self._order]
        self.facts = tuple(np.concatenate(fact)[self._order]
                           for fact in zip(*(part.facts for part in parts)))
        self.coupling = np.concatenate([part.coupling for part in parts])[self._order]
        for arr in (self.omega, self.coupling, *self.facts):
            arr.setflags(write=False)

    @cached_property
    def values(self) -> np.ndarray:
        w = np.concatenate([part.values for part in self._parts])
        w.real = np.concatenate([part.real_parts() for part in self._parts])
        w = w[self._order]
        w.setflags(write=False)
        return w

    def mode(self, j: int) -> np.ndarray:
        i = self._order[j]
        block = np.searchsorted(self._starts, i, side="right") - 1
        return self._parts[block].column(i - self._starts[block])

    def mech_norms(self, z: np.ndarray) -> np.ndarray:
        """||x[mech]|| of x = sum_j z_j mode(j) for each column of z."""
        placed = np.empty_like(z)
        placed[self._order] = z
        return np.sqrt(sum(part.mech_squares(placed[start:start + len(part.values)])
                           for part, start in zip(self._parts, self._starts)))


def _blockwise(s: np.ndarray, reduction, coupling: np.ndarray) -> _OpenLoop:
    """The eigenpairs of an open-loop S, solved block by block (:func:`_plan`).

    A bipartite block is solved by one SVD (:func:`_svd_block`), any other
    by its skew part (:func:`_skew_block`), each block formed only when it
    is solved and a block that is all of S given to its solver without a
    copy; the facts read g = ``coupling`` and mech =
    ``reduction.mechanical``.  A matrix that is not finite raises
    ValueError.
    """
    mech = reduction.mechanical
    return _OpenLoop([_svd_block(s, *halves, coupling, mech) if halves
                      else _skew_block(s, idx, coupling, mech)
                      for idx, halves in _plan(s, reduction)])


def _open_loop(assembly: GeneratorAssembly) -> _OpenLoop:
    """The solve of the assembly's S, formed on the first call and kept.

    It is kept on the assembly as its dense reference is
    (:attr:`~piezolab.generator.GeneratorAssembly.reference`), so every
    spectral call on one assembly shares one solve.
    """
    kept = assembly.__dict__
    if "open_loop" not in kept:
        ref = assembly.reference
        kept["open_loop"] = _blockwise(ref.s, assembly.reduction, ref.coupling)
    return kept["open_loop"]


def open_loop_modes(assembly: GeneratorAssembly) -> tuple:
    """(omega, mode) of S in spectrum order, without a mode table.

    omega holds the imaginary parts of the eigenvalues of
    :func:`compute_spectrum`, whose real parts are not formed here;
    ``mode(j)`` builds the energy-coordinate eigenvector v of eigenvalue j
    as a new vector, whose unit M-norm mode is T R^{-1} v
    (:func:`lift_modes`).
    """
    solve = _open_loop(assembly)
    return solve.omega, solve.mode


def lift_modes(assembly: GeneratorAssembly, v: np.ndarray) -> np.ndarray:
    """The full states T R^{-1} v of energy coordinates v (a vector or columns)."""
    return assembly.reduction.t_map @ scipy.linalg.solve_triangular(
        assembly.reference.r, v)


def _build_report(w: np.ndarray, facts: tuple) -> SpectrumReport:
    """The report of eigenvalues w in spectrum order, with the facts of their vectors."""
    bstar_abs, norms, mech_norms = facts
    g_norm = float(np.max(np.abs(w))) if len(w) else 0.0
    kernel_dim = int(np.count_nonzero(np.abs(w) <= ZERO_MODE_REL_TOL * g_norm))
    stabilizable, block = _mode_table(bstar_abs, norms, mech_norms)
    return SpectrumReport(eigenvalues=w, max_abs_real=float(np.max(np.abs(w.real))),
                          kernel_dimension=kernel_dim, bstar_abs=bstar_abs,
                          stabilizable=stabilizable, dominant_block=block,
                          g_norm=g_norm)


def compute_spectrum(assembly: GeneratorAssembly) -> SpectrumReport:
    """Dense spectrum of the generator on the constrained subspace.

    Each block of S is solved by one SVD, of a bipartite block or of the
    bidiagonal form of a block's skew part (:func:`_blockwise`); each real
    part is the Rayleigh quotient of S on its eigenvector, exactly 0 on a
    bipartite block, so ``max_abs_real`` is the largest first-order real
    part of S's pairs.
    """
    solve = _open_loop(assembly)
    return _build_report(solve.values, solve.facts)


def checked_gain(gain: float) -> float:
    """A feedback gain as a float; ValueError unless finite and nonnegative."""
    if not (np.isfinite(gain) and gain >= 0):
        raise ValueError(f"feedback gain must be finite and nonnegative, got {gain}")
    return float(gain)


def closed_loop_spectrum(assembly: GeneratorAssembly, gain: float) -> SpectrumReport:
    """Spectrum of the collocated-feedback generator G - gain * b (b^T M).

    In energy coordinates that is S - gain g g^T, a rank-one update of S,
    so it is read from the open-loop solve of S (:func:`_blockwise`) with
    no eigensolve of its own.  Each mode's eigenvalue is its root of the
    secular equation (:func:`_closed_loop_roots`): a mode with
    gain |c|^2 = 0 keeps lam = i omega and its open-loop facts.  The
    eigenvector of any other root lam is x = sum_l z_l x_l over the
    open-loop eigenvectors x_l, z_l = c_l/(lam - i omega_l) with
    c_l = x_l^H g (Bunch, Nielsen and Sorensen, Numer. Math. 31 (1978)
    31-48), scaled to ||x|| = ||z|| = 1, whose facts are
    |g^T x| = |sum_l conj(c_l) z_l| and ||x[mech]||
    (:meth:`_OpenLoop.mech_norms`), TABLE_BLOCK roots at a time.

    Collocated feedback keeps the spectrum in the closed left half plane;
    the eigenvalues are returned unchecked, so a caller can report a
    crossing.  A gain that is negative or not finite raises ValueError, as
    does a root or a fact that is not finite; a root still moving after
    ABERTH_MAX_SWEEPS sweeps raises SecularNotConverged.
    """
    gain = checked_gain(gain)
    solve = _open_loop(assembly)
    c, omega, weight = solve.coupling, solve.omega, solve.facts[0] ** 2
    lam = _closed_loop_roots(omega, weight, gain)
    bstar_abs, norms, mech_norms = (fact.copy() for fact in solve.facts)
    coupled = np.flatnonzero(gain * weight > 0)
    for start in range(0, len(coupled), TABLE_BLOCK):
        cols = coupled[start:start + TABLE_BLOCK]
        with np.errstate(divide="ignore", invalid="ignore"):  # checked below
            z = c[:, None] / (lam[cols] - 1j * omega[:, None])
            z /= np.linalg.norm(z, axis=0)
        bstar_abs[cols] = np.abs(c.conj() @ z)
        norms[cols] = 1.0
        mech_norms[cols] = solve.mech_norms(z)
    facts = (bstar_abs, norms, mech_norms)
    if not all(np.isfinite(part).all() for part in (lam, *facts)):
        raise ValueError("a closed-loop root or eigenvector is not finite")
    order = _sort_order(lam)
    return _build_report(lam[order], tuple(fact[order] for fact in facts))


def closed_loop_mode_shifts(assembly: GeneratorAssembly, gain: float):
    """Per-mode closed-loop eigenvalues from the rank-one secular equation.

    Returns (omega, lam, coupling, dominant_block) for the open-loop modes
    with omega above ZERO_MODE_REL_TOL times the largest |omega|, which
    leaves out the kernel whatever the sign of its rounding, sorted by
    omega: the positive-frequency view of the roots of
    :func:`closed_loop_spectrum`.  Each mode is an eigenvector x of the
    assembly's open-loop solve (:func:`_blockwise`), a unit eigenvector of
    the skew part of S, and omega its imaginary part: lam[j] is the root of
    1 + gain * sum_l |c_l|^2/(lam - i w_l) = 0 started from mode j
    (:func:`_closed_loop_roots`), accurate far below the dense-eig noise
    floor; coupling[j] = |c_j| = |g^T x_j| is |B* phi| of its unit M-norm
    lift phi; and dominant_block[j] labels it by its mechanical energy
    fraction ||x[mech]||^2 / ||x||^2, with the rule of the mode table.  No
    eigenvector array is kept.  A gain that is negative or not finite
    raises ValueError, as does an S that is not finite.
    """
    gain = checked_gain(gain)
    solve = _open_loop(assembly)
    omega_all, (c, norms, mech_norms) = solve.omega, solve.facts
    pos = np.where(omega_all > ZERO_MODE_REL_TOL * np.max(np.abs(omega_all)))[0]
    pos = pos[np.argsort(omega_all[pos])]
    lam = _closed_loop_roots(omega_all, c ** 2, gain)
    return (omega_all[pos], lam[pos], c[pos],
            _dominant_block(mech_norms[pos] ** 2 / norms[pos] ** 2))


def _imag_tolerance(d: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The imaginary step below which a root with shift d from its pole has converged."""
    return ABERTH_RTOL * np.abs(d) + 4.0 * np.finfo(float).eps * np.abs(roots)


def _conjugate_pairs(poles: np.ndarray, weight: np.ndarray, roots: np.ndarray) -> None:
    """Set the root of each pole -i w to the conjugate of that of i w, in place,
    where the two poles have one weight and the roots are conjugates to the
    stop tolerance: only rounding tells them apart."""
    w = poles.imag
    top = np.flatnonzero(w > 0)
    by = np.argsort(w)
    k = by[np.searchsorted(w, -w[top], sorter=by)]
    pair = ((w[k] == -w[top]) & (weight[k] == weight[top])
            & (np.abs(roots[k] - roots[top].conj())
               <= _imag_tolerance(roots[top] - poles[top], roots[top])))
    roots[k[pair]] = roots[top[pair]].conj()


def _closed_loop_roots(omega: np.ndarray, weight: np.ndarray, gain: float) -> np.ndarray:
    """Each mode's root of 1 + gain * sum_l weight_l / (lam - i omega_l) = 0.

    A mode with gain * weight = 0 keeps its pole a = i omega.  The others
    start at the first-order guesses a - gain weight, and each Aberth-Ehrlich
    sweep moves every root still moving by its step from the roots of the
    sweep before, TABLE_BLOCK roots at a time (a row sums over all the other
    roots, so the chunks change nothing).  For the root z of pole a that step
    is h / (h' + h r), where h = d (1 + gain s) + gain weight is the equation
    times d = z - a, s sums weight_l / (z - a_l) and r sums
    1/(z - a_l) - 1/(z - z_l) over the others: nothing is divided by d, so a
    small shift keeps its digits.  A root stops once its step is at most
    ABERTH_RTOL of |Re d| in the real part and of |d|, plus rounding of z,
    in the imaginary part (:func:`_imag_tolerance`); one still moving after
    ABERTH_MAX_SWEEPS sweeps raises SecularNotConverged.  S - gain g g^T is
    real, so its spectrum is closed under conjugation: a root whose
    imaginary part is within that tolerance of 0 is taken as real, and the
    roots of a conjugate pair of poles that are conjugates to that
    tolerance are made exact ones (:func:`_conjugate_pairs`), where rounding
    would leave them apart.  The root started from a mode is its value; no
    pairing is claimed where strong coupling moves roots off their poles.
    """
    lam = 1j * omega
    coupled = np.flatnonzero(gain * weight > 0)
    poles, weight = lam[coupled], weight[coupled]
    roots = poles - gain * weight
    cols = np.arange(len(coupled) - 1)
    moving = np.arange(len(coupled))
    for _ in range(ABERTH_MAX_SWEEPS):
        step = np.empty(len(moving), dtype=complex)
        for start in range(0, len(moving), TABLE_BLOCK):
            rows = moving[start:start + TABLE_BLOCK]
            others = cols + (cols >= rows[:, None])  # row j: every root but rows[j]
            z = roots[rows, None]
            inverse = 1.0 / (z - poles[others])
            r = inverse.sum(axis=1) - (1.0 / (z - roots[others])).sum(axis=1)
            terms = weight[others] * inverse
            s, s2 = terms.sum(axis=1), (terms * inverse).sum(axis=1)  # s2 = -ds/dz
            d = z[:, 0] - poles[rows]
            h = d * (1.0 + gain * s) + gain * weight[rows]
            step[start:start + len(rows)] = h / (1.0 + gain * (s - d * s2) + h * r)
        roots[moving] -= step
        d = roots[moving] - poles[moving]
        done = ((np.abs(step.real) <= ABERTH_RTOL * np.abs(d.real))
                & (np.abs(step.imag) <= _imag_tolerance(d, roots[moving])))
        moving = moving[~done]
        if not len(moving):
            roots.imag[np.abs(roots.imag) <= _imag_tolerance(roots - poles, roots)] = 0.0
            _conjugate_pairs(poles, weight, roots)
            lam[coupled] = roots
            return lam
    raise SecularNotConverged(
        f"{len(moving)} of {len(coupled)} closed-loop roots still moved after "
        f"{ABERTH_MAX_SWEEPS} sweeps, the lowest from the mode at |omega| = "
        f"{np.min(np.abs(omega[coupled[moving]])):.6g}")


def kernel_basis(assembly: GeneratorAssembly):
    """M-orthonormal basis of the kernel of G on the constrained subspace.

    Returns an array of full-state columns; contains the rigid translation
    (constant y4).  Computed from the singular values of the energy-coordinate
    similarity of G_red that lie below ZERO_MODE_REL_TOL times the largest.
    """
    _, sing, vt = np.linalg.svd(assembly.reference.s)
    scale = sing[0] if len(sing) else 0.0
    null_mask = sing <= ZERO_MODE_REL_TOL * scale
    return lift_modes(assembly, vt[null_mask].T)  # orthonormal v: M-orthonormal


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential decay fit of log E(t)."""

    rate: float
    r_squared: float


def decay_rate_fit(series, window: tuple) -> DecayFit:
    """Fit log E(t) = c - rate * t over the window (t0, t1).

    Raises :class:`DegenerateWindow` when fewer than 10 records fall inside
    the window or the energy is not strictly positive there.
    """
    t0, t1 = window
    times = np.asarray(series.times)
    energies = series.total_energy()
    mask = (times >= t0) & (times <= t1)
    if np.count_nonzero(mask) < 10:
        raise DegenerateWindow(
            f"window ({t0}, {t1}) contains {np.count_nonzero(mask)} records, need >= 10")
    t = times[mask]
    e = energies[mask]
    if np.any(e <= 0.0):
        raise DegenerateWindow("energy is not strictly positive inside the fit window")
    loge = np.log(e)
    a = np.vstack([np.ones_like(t), t]).T
    coef, *_ = np.linalg.lstsq(a, loge, rcond=None)
    fitted = a @ coef
    ss_res = float(np.sum((loge - fitted) ** 2))
    ss_tot = float(np.sum((loge - loge.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(rate=float(-coef[1]), r_squared=float(r2))
