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
* each block is split into its halves P and Q by the 2-colouring of the
  free blocks that the reference keeps (``colour``): the fields couple
  only in alternation, y1 with y4, y4 with y5 through gamma and y5 with
  y2, so P = {y1, y5} and Q = {y2, y4} at gamma != 0, and the positions
  and the velocities at gamma = 0 and on the electrostatic model.  With
  S_PP and S_QQ exact zeros the block is bipartite,
  S = [[0, B], [C, 0]] with C = -B^T to rounding, and its pairs come from
  one real SVD Bs = (B - C^T)/2 = U diag(sigma) V^T, by the
  Jordan-Wielandt relation (Golub and Kahan, SIAM J. Numer. Anal. B 2
  (1965) 205-224): x = (u; -+ i v)/sqrt(2) belongs to lam = -+ i sigma,
  and a rectangular Bs adds its null vectors at 0.  Re lam = 0 is
  structure, not rounding: the spectrum of a real bipartite matrix is
  symmetric under lam -> -lam and lam -> conj(lam), so a simple
  eigenvalue cannot leave the imaginary axis.  The Rayleigh quotient of S
  itself on x is x^H S x = -+ i u_k^T Bs v_k exactly, and the SVD's
  sigma_k is u_k^T Bs v_k to rounding.  The coupling |g^T x| is read from
  the real products g.u and g.v (:func:`_svd_block`).

A block whose S_PP or S_QQ holds a nonzero or a NaN (an odd cycle of its
free blocks, or an entry off the structure) raises ValueError; there is no
other route.  The vectors x are eigenvectors of the skew part
(S - S^T)/2, and each eigenvalue of S lies within ||sym S||_2 of one of
their i omega (Bauer-Fike, the skew part being normal), which
:func:`symmetric_part_norm` reads on the same halves.

Each block's halves are formed only when it is solved.  The spectra and the
shifts read only each mode's facts |g^T x|, ||x|| and ||x[mech]||, which
every block's own solve gives before any sort; an eigenvector is built
only when asked for, one new vector at a time, by the ``mode`` getter of
the solve, so no solve forms a (dim, dim) array of sorted or placed
eigenvectors.  The solve is kept on the assembly as its one modal object
(:func:`open_loop_modes`), which every spectral call reads, the kernel
basis too, so S is factored once.

The closed loop S - k g g^T is a rank-one update of S, solved in the
eigenbasis of the open-loop solve without an eigensolve of its own.  Its
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
The closed loop reads S only through its skew part, as the open loop
does.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
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


def _bipartite(s: np.ndarray, idx: np.ndarray, colour: np.ndarray, name: str) -> tuple:
    """(p, q), the coordinates of the block idx of S of the colour P and of Q.

    The block must be bipartite on them: neither is empty and S_pp and S_qq
    hold exact zeros (a NaN is not zero); otherwise ValueError names it.
    """
    p, q = idx[~colour[idx]], idx[colour[idx]]
    if not (len(p) and len(q) and not np.any(s[np.ix_(p, p)])
            and not np.any(s[np.ix_(q, q)])):
        raise ValueError(f"the {name} block of S is not bipartite on the 2-colouring "
                         f"of its free blocks: S_PP or S_QQ holds a nonzero or a "
                         f"NaN, or a half is empty")
    return p, q


def _plan(ref, mechanical: np.ndarray) -> list:
    """[(p, q)] of every dense solve of the reference's S, one per block."""
    blocks = _decoupled_blocks(ref.s, mechanical)
    names = ("mechanical", "field") if len(blocks) == 2 else ("whole",)
    return [_bipartite(ref.s, idx, ref.colour, name) for idx, name in zip(blocks, names)]


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
    factors.  The real parts of ``values`` are +0, by structure.
    """

    values: np.ndarray
    facts: tuple
    coupling: np.ndarray
    column: Callable
    mech_squares: Callable


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

    return _Part(_pair_values(sigma, len(p) + len(q)), facts, _pair_coupling(r, a, b),
                 column, mech_squares)


def _zero_modes(values: np.ndarray) -> np.ndarray:
    """Which values are zero modes: |value| <= ZERO_MODE_REL_TOL times the largest."""
    return np.abs(values) <= ZERO_MODE_REL_TOL * np.max(np.abs(values), initial=0.0)


class OpenLoopModes:
    """The eigenpairs of an open-loop S, in spectrum order (:func:`_sort_order`).

    ``values`` holds the eigenvalues, whose real parts are +0, ``omega``
    their imaginary parts, and ``facts`` (|g^T x|, ||x||, ||x[mech]||) and
    ``coupling`` c = x^H g of each eigenvector x, read from the blocks' own
    solves (:class:`_Part`) and sorted with them.  ``kernel`` indexes the
    zero modes (:func:`_zero_modes` of omega) and ``pairs`` the modes with
    omega above them, in ascending omega.  These arrays are read-only,
    since every caller shares them.  ``mode(j)`` builds the j-th
    eigenvector as a new (dim,) array, and :meth:`mech_norms` reads the
    mechanical parts of combinations of them, so no (dim, dim) array of
    sorted or placed vectors is formed.
    """

    def __init__(self, parts: list):
        self._parts = parts
        self._starts = np.cumsum([0] + [len(part.values) for part in parts[:-1]])
        values = np.concatenate([part.values for part in parts])
        self._order = _sort_order(values)
        self.values = values[self._order]
        self.omega = self.values.imag.copy()
        self.facts = tuple(np.concatenate(fact)[self._order]
                           for fact in zip(*(part.facts for part in parts)))
        self.coupling = np.concatenate([part.coupling for part in parts])[self._order]
        zero = _zero_modes(self.omega)
        self.kernel = np.flatnonzero(zero)
        self.pairs = np.flatnonzero(~zero & (self.omega > 0))
        for arr in (self.values, self.omega, self.coupling, self.kernel, self.pairs,
                    *self.facts):
            arr.setflags(write=False)

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


def _blockwise(ref, mechanical: np.ndarray) -> OpenLoopModes:
    """The eigenpairs of the open-loop S of a dense reference, block by block.

    Each block of :func:`_plan` is solved by one SVD on its halves
    (:func:`_svd_block`); the facts read g = ``ref.coupling`` and the
    ``mechanical`` coordinates.  A block that is not bipartite on its
    halves, or a matrix that is not finite, raises ValueError.
    """
    return OpenLoopModes([_svd_block(ref.s, p, q, ref.coupling, mechanical)
                          for p, q in _plan(ref, mechanical)])


def symmetric_part_norm(assembly: GeneratorAssembly) -> float:
    """||sym S||_2 of the assembly's S, sym S = (S + S^T)/2, on the halves of its solve.

    S_PP and S_QQ are exact zeros and so is S between its blocks
    (:func:`_plan`), so this is the largest sigma_max((S_pq + S_qp^T)/2) over
    the blocks: the radius around the computed i omega within which the
    eigenvalues of S lie (Bauer-Fike, the skew part being normal).
    """
    s = assembly.reference.s
    return max(float(np.linalg.norm(0.5 * (s[np.ix_(p, q)] + s[np.ix_(q, p)].T), 2))
               for p, q in _plan(assembly.reference, assembly.reduction.mechanical))


def open_loop_modes(assembly: GeneratorAssembly) -> OpenLoopModes:
    """The modes of the assembly's S (:class:`OpenLoopModes`), solved once and kept.

    They are kept on the assembly as its dense reference is
    (:attr:`~piezolab.generator.GeneratorAssembly.reference`), so every
    spectral call on one assembly shares one solve (:func:`_blockwise`).
    The unit M-norm mode of an eigenvector v is T R^{-1} v (:func:`lift_modes`).
    """
    kept = assembly.__dict__
    if "open_loop" not in kept:
        kept["open_loop"] = _blockwise(assembly.reference, assembly.reduction.mechanical)
    return kept["open_loop"]


def lift_modes(assembly: GeneratorAssembly, v: np.ndarray) -> np.ndarray:
    """The full states T R^{-1} v of energy coordinates v (a vector or columns)."""
    return assembly.reduction.t_map @ scipy.linalg.solve_triangular(
        assembly.reference.r, v)


def _build_report(w: np.ndarray, facts: tuple) -> SpectrumReport:
    """The report of eigenvalues w in spectrum order, with the facts of their vectors."""
    bstar_abs, norms, mech_norms = facts
    g_norm = float(np.max(np.abs(w))) if len(w) else 0.0
    kernel_dim = int(np.count_nonzero(_zero_modes(w)))
    stabilizable, block = _mode_table(bstar_abs, norms, mech_norms)
    return SpectrumReport(eigenvalues=w, max_abs_real=float(np.max(np.abs(w.real))),
                          kernel_dimension=kernel_dim, bstar_abs=bstar_abs,
                          stabilizable=stabilizable, dominant_block=block,
                          g_norm=g_norm)


def compute_spectrum(assembly: GeneratorAssembly) -> SpectrumReport:
    """Dense spectrum of the generator on the constrained subspace.

    Each block of S is solved by one SVD on its bipartite halves
    (:func:`_blockwise`), so every real part, and ``max_abs_real``, is
    exactly 0 by structure; :func:`symmetric_part_norm` measures how far
    the eigenvalues of S can lie from them.
    """
    solve = open_loop_modes(assembly)
    return _build_report(solve.values, solve.facts)


def checked_gain(gain: float) -> float:
    """A feedback gain as a float; ValueError unless finite and nonnegative."""
    if not (np.isfinite(gain) and gain >= 0):
        raise ValueError(f"feedback gain must be finite and nonnegative, got {gain}")
    return float(gain)


def closed_loop_spectrum(assembly: GeneratorAssembly, gain: float) -> SpectrumReport:
    """Spectrum of the collocated-feedback generator G - gain * b (b^T M).

    In energy coordinates that is S - gain g g^T, a rank-one update of S,
    so it is read from the open-loop solve of S (:func:`open_loop_modes`)
    with no eigensolve of its own.  Each mode's eigenvalue is its root of
    the secular equation (:func:`_closed_loop_roots`): a mode with
    gain |c|^2 = 0 keeps lam = i omega and its open-loop facts.  The
    eigenvector of any other root lam is x = sum_l z_l x_l over the
    open-loop eigenvectors x_l, z_l = c_l/(lam - i omega_l) with
    c_l = x_l^H g (Bunch, Nielsen and Sorensen, Numer. Math. 31 (1978)
    31-48), scaled to ||x|| = ||z|| = 1, whose facts are
    |g^T x| = |sum_l conj(c_l) z_l| and ||x[mech]||
    (:meth:`OpenLoopModes.mech_norms`), TABLE_BLOCK roots at a time.

    Collocated feedback keeps the spectrum in the closed left half plane;
    the eigenvalues are returned unchecked, so a caller can report a
    crossing.  A gain that is negative or not finite raises ValueError, as
    does a root or a fact that is not finite; a root still moving after
    ABERTH_MAX_SWEEPS sweeps raises SecularNotConverged.
    """
    gain = checked_gain(gain)
    solve = open_loop_modes(assembly)
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

    Returns (omega, lam, coupling, dominant_block) for the ``pairs`` of the
    assembly's modal object (:func:`open_loop_modes`), which leave out the
    kernel whatever the sign of its rounding, in ascending omega: the
    positive-frequency view of the roots of :func:`closed_loop_spectrum`.
    Each mode is an eigenvector x of that solve, a unit eigenvector of the
    skew part of S, and omega its imaginary part: lam[j] is the root of
    1 + gain * sum_l |c_l|^2/(lam - i w_l) = 0 started from mode j
    (:func:`_closed_loop_roots`), accurate far below the dense-eig noise
    floor; coupling[j] = |c_j| = |g^T x_j| is |B* phi| of its unit M-norm
    lift phi; and dominant_block[j] labels it by its mechanical energy
    fraction ||x[mech]||^2 / ||x||^2, with the rule of the mode table.  No
    eigenvector array is kept.  A gain that is negative or not finite
    raises ValueError, as does an S that is not finite or not bipartite
    (:func:`_plan`).
    """
    gain = checked_gain(gain)
    solve = open_loop_modes(assembly)
    (c, norms, mech_norms), pos = solve.facts, solve.pairs
    lam = _closed_loop_roots(solve.omega, c ** 2, gain)
    return (solve.omega[pos], lam[pos], c[pos],
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
    (constant y4).  They lift the ``kernel`` modes of :func:`open_loop_modes`,
    null vectors that are real and orthonormal by construction, (u; 0) or
    (0; v) of a rectangular Bs.  A zero mode that is not real (a pair at
    +- i 0) raises ValueError.
    """
    solve = open_loop_modes(assembly)
    v = np.array([solve.mode(j) for j in solve.kernel]).reshape(-1, len(solve.omega)).T
    if np.any(v.imag):
        raise ValueError("a zero mode of S is not real")
    return lift_modes(assembly, v.real)


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
