"""Eigenstructure in the energy inner product and stabilizability analysis.

All spectra are computed on the gauge-constrained subspace, where the Gram
matrix is positive definite: with M_red = R^T R (Cholesky), the matrix
S = R G_red R^{-1} is similar to the reduced generator and skew-symmetric up
to rounding, so an honest dense eigensolve of S measures how imaginary the
spectrum really is.  Closed-loop spectra perturb S by the rank-one collocated
feedback -k g g^T, whose symmetric negative-semidefinite structure forces
Re(lambda) <= 0, with g = R^{-T} T^T M b.  R, S and g are read from the
assembly's dense reference
(:attr:`~piezolab.generator.GeneratorAssembly.reference`), which the first
spectrum of an assembly forms once for every spectral call; state
dimensions above :data:`~piezolab.generator.DENSE_DIM_GUARD` are refused
there, before any dense array is formed.

Every per-mode fact is read from eigenvectors in energy coordinates (see
:func:`_mode_table`); only a returned state is lifted (:func:`lift_modes`).

Every dense eigensolve (``eig`` of S or of the closed-loop S, ``eigh`` of
the skew part of S) splits its matrix where the model does: if it holds
exact zeros between the mechanical coordinates (``reduction.mechanical``,
the blocks y1 and y4) and the field ones, as at gamma = 0, the mechanical
block is solved first and the field block second, each formed only when
it is solved (the skew part too), and each block eigenvector goes straight
to its column of the sorted spectrum.  A matrix that does not split goes
to the solver unchanged, so its output is bit-identical to a full solve,
and its eigenvectors are sorted in place.  Either way a solve holds one
(dim, dim) eigenvector array beside the reference, never a sorted copy
(:func:`_blockwise`).

For the high-frequency tail the dense solver's noise floor (about
machine epsilon times ||S||) swamps the true decay rates, which shrink like
1/omega^2; ``closed_loop_mode_shifts`` therefore solves the exact rank-one
secular equation in the eigenbasis of the skew part, giving each mode's
shift with small relative error, and reads each mode's frequency, feedback
coupling |B* phi| and dominant block from the same eigenvectors.  One damped
iteration runs over TABLE_BLOCK modes at a time, each mode frozen once it
has converged; a mode that has not converged after SECULAR_MAX_ITER
iterations raises :class:`~piezolab.errors.SecularNotConverged`.  The
secular and the dense routes agree wherever the dense solver can resolve
the shift, which the test suite checks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

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
SECULAR_MAX_ITER = 60   # damped iterations per mode of the secular equation
SECULAR_RTOL = 1e-12    # relative step at which a mode's shift has converged


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


def _ascending(values: np.ndarray) -> np.ndarray:
    # the order of eigh's values; one eigh of the whole matrix keeps it
    return np.argsort(values, kind="stable")


def _dominant_block(mech_fraction: np.ndarray) -> np.ndarray:
    """Each mode's label from the fraction of its energy that is mechanical."""
    return np.where(mech_fraction >= 0.9, "mechanical",
                    np.where(mech_fraction <= 0.1, "electromagnetic", "mixed"))


def _mode_table(assembly: GeneratorAssembly, v: np.ndarray) -> tuple:
    """Columns (bstar_abs, stabilizable, dominant_block) of the modes v.

    v holds energy coordinates, read without a lift to phi = T R^{-1} v:
    B* phi = g^T v, since T^T M b = R^T g; ||phi||_M = ||v||; and the
    mechanical energy fraction is ||v[mech]||^2 / ||v||^2, as for the shifts
    (both mechanical/field blocks of R are exactly zero).  A mode is
    stabilizable when |B* phi| > STABILIZABLE_TOL ||phi||_M.  The norms run
    over blocks of TABLE_BLOCK columns.
    """
    mech = assembly.reduction.mechanical
    bstar_abs = np.abs(assembly.reference.coupling @ v)
    norms, mech_norms = np.empty((2, v.shape[1]))
    for start in range(0, v.shape[1], TABLE_BLOCK):
        cols = slice(start, start + TABLE_BLOCK)
        norms[cols] = np.linalg.norm(v[:, cols], axis=0)
        mech_norms[cols] = np.linalg.norm(v[mech, cols], axis=0)
    return (bstar_abs, bstar_abs > STABILIZABLE_TOL * norms,
            _dominant_block(mech_norms ** 2 / norms ** 2))


def _whole_or_block(m: np.ndarray):
    """entries(rows, cols) of m: the whole m for None, else that block."""
    return lambda rows, cols: m if rows is None else m[np.ix_(rows, cols)]


def _skew_part(s: np.ndarray):
    """entries(rows, cols) of the Hermitian 0.5j (S - S^T), formed only where read."""
    def entries(rows, cols):
        if rows is None:
            return 0.5j * (s - s.T)
        return 0.5j * (s[np.ix_(rows, cols)] - s[np.ix_(cols, rows)].T)
    return entries


def _decoupled_blocks(entries, dim: int, mechanical: np.ndarray) -> list:
    """[mechanical, field] coordinates if the matrix holds exact zeros between them.

    ``entries(rows, cols)`` gives a block of the (dim, dim) matrix; only the
    two cross blocks are read.  Otherwise (a nonzero or NaN cross entry, or
    no field coordinate) the one block of every index.
    """
    fields = np.setdiff1d(np.arange(dim), mechanical)
    if (len(fields) and len(mechanical)
            and not np.any(entries(mechanical, fields))
            and not np.any(entries(fields, mechanical))):
        return [mechanical, fields]
    return [np.arange(dim)]


def _reorder_columns(v: np.ndarray, order: np.ndarray) -> np.ndarray:
    """v[:, order], formed in v itself by following the cycles of ``order``.

    Each cycle holds one column aside, so no second (n, n) array is made;
    values and memory layout are those of v.
    """
    order = order.tolist()
    seen = [False] * len(order)
    for start in range(len(order)):
        if seen[start] or order[start] == start:
            continue
        held = v[:, start].copy()
        j = start
        while order[j] != start:
            v[:, j] = v[:, order[j]]
            seen[j] = True
            j = order[j]
        v[:, j] = held
        seen[j] = True
    return v


def _blockwise(solver, entries, dim: int, mechanical: np.ndarray, sort) -> tuple:
    """(values, vectors) of ``solver`` on each decoupled block, sorted by ``sort``.

    ``entries(rows, cols)`` gives a block of the (dim, dim) matrix and
    ``entries(None, None)`` all of it (see :func:`_decoupled_blocks`);
    ``sort(values)`` is the order of the values.  A matrix of one block goes
    to the solver as is and its vectors are reordered in place, exactly as
    ``vectors[:, order]``.  Otherwise each diagonal block is formed only
    when it is solved, and each block's vectors go straight to their sorted
    columns of one zero Fortran-order array, the layout ``vectors[:, order]``
    of block-diagonally placed vectors would have; either way no sorted
    copy of the vectors is made.
    """
    blocks = _decoupled_blocks(entries, dim, mechanical)
    if len(blocks) == 1:
        values, vectors = solver(entries(None, None))
        order = sort(values)
        return values[order], _reorder_columns(vectors, order)
    parts = [solver(entries(idx, idx)) for idx in blocks]
    values = np.concatenate([w for w, _ in parts])
    order = sort(values)
    column = np.empty_like(order)
    column[order] = np.arange(dim)  # the sorted column of each unsorted one
    vectors = np.zeros((dim, dim), order="F",
                       dtype=np.result_type(*(v for _, v in parts)))
    start = 0
    for idx, (w, v) in zip(blocks, parts):
        # column by column: a 2-D fancy assignment would buffer its indices
        for k, col in enumerate(column[start:start + len(w)].tolist()):
            vectors[idx, col] = v[:, k]
        start += len(w)
    return values[order], vectors


def _eigenpairs(assembly: GeneratorAssembly, s_matrix: np.ndarray) -> tuple:
    """Eigenvalues and energy-coordinate eigenvectors v of S, sorted as a spectrum.

    ``s_matrix`` is S or the closed-loop S of the assembly.  A unit column
    of v is a mode T R^{-1} v of unit M-norm; none is lifted here.
    """
    return _blockwise(scipy.linalg.eig, _whole_or_block(s_matrix), len(s_matrix),
                      assembly.reduction.mechanical, _sort_order)


def open_loop_modes(assembly: GeneratorAssembly) -> tuple:
    """Eigenvalues and energy-coordinate eigenvectors, in spectrum order.

    The eigenpairs of :func:`compute_spectrum` without its mode table;
    :func:`lift_modes` turns the columns that are wanted into states.
    """
    return _eigenpairs(assembly, assembly.reference.s)


def lift_modes(assembly: GeneratorAssembly, v: np.ndarray) -> np.ndarray:
    """The full states T R^{-1} v of energy coordinates v (a vector or columns)."""
    return assembly.reduction.t_map @ scipy.linalg.solve_triangular(
        assembly.reference.r, v)


def _build_report(assembly: GeneratorAssembly, s_matrix: np.ndarray) -> SpectrumReport:
    w, v = _eigenpairs(assembly, s_matrix)
    g_norm = float(np.max(np.abs(w))) if len(w) else 0.0
    kernel_dim = int(np.count_nonzero(np.abs(w) <= ZERO_MODE_REL_TOL * g_norm))
    bstar_abs, stabilizable, block = _mode_table(assembly, v)
    return SpectrumReport(eigenvalues=w, max_abs_real=float(np.max(np.abs(w.real))),
                          kernel_dimension=kernel_dim, bstar_abs=bstar_abs,
                          stabilizable=stabilizable, dominant_block=block,
                          g_norm=g_norm)


def compute_spectrum(assembly: GeneratorAssembly) -> SpectrumReport:
    """Dense spectrum of the generator on the constrained subspace."""
    return _build_report(assembly, assembly.reference.s)


def checked_gain(gain: float) -> float:
    """A feedback gain as a float; ValueError unless finite and nonnegative."""
    if not (np.isfinite(gain) and gain >= 0):
        raise ValueError(f"feedback gain must be finite and nonnegative, got {gain}")
    return float(gain)


def closed_loop_spectrum(assembly: GeneratorAssembly, gain: float) -> SpectrumReport:
    """Spectrum of the collocated-feedback generator G - gain * b (b^T M).

    Collocated feedback keeps the spectrum in the closed left half plane;
    the eigenvalues are returned unchecked, so a caller can report a
    crossing.  A gain that is negative or not finite raises ValueError.
    """
    gain = checked_gain(gain)
    ref = assembly.reference
    s_cl = ref.s - gain * np.outer(ref.coupling, ref.coupling)
    return _build_report(assembly, s_cl)


def closed_loop_mode_shifts(assembly: GeneratorAssembly, gain: float):
    """Per-mode closed-loop eigenvalues from the rank-one secular equation.

    Returns (omega, lam, coupling, dominant_block) for the open-loop modes
    with omega above ZERO_MODE_REL_TOL times the largest |omega|, which
    leaves out the kernel whatever the sign of its rounding, sorted by
    omega.  Each mode is a unit eigenvector u of the skew part of S: lam[j]
    solves 1 + gain * sum_l |c_l|^2/(lam - i w_l) = 0 near i*omega[j];
    coupling[j] = |c_j| is its energy-coordinate feedback coupling, which is
    |B* phi| of its unit M-norm lift phi; and dominant_block[j] labels it by
    its mechanical energy fraction ||u[mech]||^2, with the rule of the mode
    table.  Accurate for shifts far below the dense-eig noise floor.  A gain
    that is negative or not finite raises ValueError, and a mode whose
    damped iteration does not converge raises :class:`SecularNotConverged`.

    The eigenvectors u are the one (dim, dim) array of the call: the skew
    part is formed block by block where it splits, c = conj(g^T u) needs no
    conjugate copy of u, and u is let go before the secular solve, which
    holds TABLE_BLOCK rows of the other modes at a time.
    """
    gain = checked_gain(gain)
    ref = assembly.reference
    mech = assembly.reduction.mechanical
    theta, u = _blockwise(np.linalg.eigh, _skew_part(ref.s), len(ref.s), mech, _ascending)
    omega_all = -theta  # eigenvalues of the skew part are -i*theta
    c = np.conj(ref.coupling @ u)  # u^H g, without a conjugate copy of u
    c2 = np.abs(c) ** 2

    pos = np.where(omega_all > ZERO_MODE_REL_TOL * np.max(np.abs(omega_all)))[0]
    pos = pos[np.argsort(omega_all[pos])]
    mech_fraction = np.linalg.norm(u[np.ix_(mech, pos)], axis=0) ** 2
    del u  # the secular solve needs only the frequencies and couplings
    return (omega_all[pos], _secular_roots(omega_all, c2, pos, gain),
            np.abs(c[pos]), _dominant_block(mech_fraction))


def _secular_roots(omega_all: np.ndarray, c2: np.ndarray, pos: np.ndarray,
                   gain: float) -> np.ndarray:
    """The root i omega + delta near each mode pos[j], by one damped iteration.

    The modes are solved TABLE_BLOCK rows at a time.  Row j holds the other
    modes of pos[j] as one contiguous row, so each row's sum is the pairwise
    sum a loop over the modes would take, whatever rows share its chunk.  A
    mode leaves the iteration once its step is below SECULAR_RTOL relative;
    every chunk runs before a mode that has not converged raises, so the
    error names the first such mode and counts them all.
    """
    roots = np.empty(len(pos), dtype=complex)
    failed = []
    for start in range(0, len(pos), TABLE_BLOCK):
        rows = slice(start, start + TABLE_BLOCK)
        left = _secular_chunk(omega_all, c2, pos[rows], gain, roots[rows])
        failed.extend(start + left)
    if failed:
        j = int(failed[0])
        raise SecularNotConverged(
            f"secular equation of mode {j} (omega = {omega_all[pos[j]]:.6g}) did "
            f"not converge in {SECULAR_MAX_ITER} iterations; {len(failed)} of "
            f"{len(pos)} modes did not")
    return roots


def _secular_chunk(omega_all: np.ndarray, c2: np.ndarray, pos: np.ndarray,
                   gain: float, roots: np.ndarray) -> np.ndarray:
    """Write the roots of the modes pos into ``roots``; return the rows left over."""
    cols = np.arange(len(omega_all) - 1)
    others = cols + (cols >= pos[:, None])  # row j: every mode but pos[j]
    i_omega = 1j * omega_all[others]
    c2_others = c2[others]
    del others
    lam0 = 1j * omega_all[pos]
    push = -gain * c2[pos]
    rows = np.arange(len(pos))
    delta = np.zeros(len(pos), dtype=complex)
    for _ in range(SECULAR_MAX_ITER):
        terms = (lam0 + delta)[:, None] - i_omega
        np.divide(c2_others, terms, out=terms)
        new_delta = push / (1.0 + gain * np.sum(terms, axis=1))
        done = np.abs(new_delta - delta) <= SECULAR_RTOL * np.abs(new_delta) + 1e-300
        roots[rows[done]] = lam0[done] + new_delta[done]
        if done.all():
            return rows[:0]
        if done.any():
            left = ~done
            rows, i_omega, c2_others = rows[left], i_omega[left], c2_others[left]
            lam0, push = lam0[left], push[left]
            delta, new_delta = delta[left], new_delta[left]
        delta = 0.5 * (delta + new_delta)
    return rows


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
