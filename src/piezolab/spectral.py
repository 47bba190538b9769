"""Eigenstructure in the energy inner product and stabilizability analysis.

All spectra are computed on the gauge-constrained subspace, where the Gram
matrix is positive definite: with M_red = R^T R (Cholesky), the matrix
S = R G_red R^{-1} is similar to the reduced generator and skew-symmetric up
to rounding, so an honest dense eigensolve of S measures how imaginary the
spectrum really is.  Closed-loop spectra perturb S by the rank-one collocated
feedback -k g g^T, whose symmetric negative-semidefinite structure forces
Re(lambda) <= 0; g = R M_red^{-1} T^T M b is formed where it is used.

For the high-frequency tail the dense solver's noise floor (about
machine epsilon times ||S||) swamps the true decay rates, which shrink like
1/omega^2; ``closed_loop_mode_shifts`` therefore also solves the exact
rank-one secular equation in the eigenbasis of the skew part, giving each
mode's shift with small relative error.  The two routes agree wherever the
dense solver can resolve the shift, which the test suite checks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DegenerateWindow
from .generator import GeneratorAssembly

DENSE_DIM_GUARD = 6 * 1024
ZERO_MODE_REL_TOL = 1e-10
TABLE_BLOCK = 128
SECULAR_MAX_ITER = 60   # damped iterations per mode of the secular equation
SECULAR_RTOL = 1e-12    # relative step at which a mode's shift has converged


@dataclass(frozen=True)
class ModeRecord:
    """Per-mode summary used for stabilizability classification."""

    eigenvalue: complex
    bstar_abs: float
    norm_m: float
    stabilizable: bool
    dominant_block: str  # mechanical | electromagnetic | mixed


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of one assembly, sorted by |Im|, positive imaginary part first."""

    eigenvalues: np.ndarray
    max_abs_real: float
    kernel_dimension: int
    mode_table: list = field(repr=False)
    g_norm: float = 0.0          # spectral radius, the scale for tolerances

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re", "im", "bstar_abs", "stabilizable", "dominant_block"])
            for rec in self.mode_table:
                writer.writerow([f"{rec.eigenvalue.real:.17g}",
                                 f"{rec.eigenvalue.imag:.17g}",
                                 f"{rec.bstar_abs:.17g}",
                                 int(rec.stabilizable), rec.dominant_block])


def _energy_similarity(assembly: GeneratorAssembly):
    """R (upper Cholesky of M_red) and S = R G_red R^{-1}."""
    from .operators import mass_cholesky

    if assembly.dim > DENSE_DIM_GUARD:
        raise ValueError(
            f"state dimension {assembly.dim} exceeds the dense eigensolve guard "
            f"({DENSE_DIM_GUARD})")
    red = assembly.reduction
    r = mass_cholesky(red.m_red)
    z = r @ red.g_red
    s = scipy.linalg.solve_triangular(r.T, z.T, lower=True).T
    return r, s


def _coupling(assembly: GeneratorAssembly, r: np.ndarray) -> np.ndarray:
    """The feedback coupling g = R M_red^{-1} T^T M b: b in energy coordinates."""
    rhs = assembly.reduction.t_map.T @ assembly.b_dual
    return r @ scipy.linalg.cho_solve((r, False), rhs)


def _sort_order(values: np.ndarray) -> np.ndarray:
    # |Im| ascending, positive imaginary part first among a conjugate pair
    return np.lexsort((values.real, -np.sign(values.imag), np.abs(values.imag)))


def _mode_table(assembly: GeneratorAssembly, w: np.ndarray, norms: np.ndarray,
                phi_red: np.ndarray, eig_tol: float) -> list:
    """Per-mode records from the reduced eigenvectors, which are never lifted.

    B* phi is (T^T b_dual) phi_red, the M-norm of phi is the norm of its
    energy coordinates (``norms``) and the mechanical energy is taken on the
    mechanical block of M_red.  That block's products run over blocks of
    TABLE_BLOCK eigenvectors.
    """
    red = assembly.reduction
    bstar = (red.t_map.T @ assembly.b_dual) @ phi_red
    mech = red.mechanical
    m_mech = red.m_red[np.ix_(mech, mech)]
    table = []
    for start in range(0, len(w), TABLE_BLOCK):
        cols = slice(start, start + TABLE_BLOCK)
        pm = phi_red[mech, cols]
        mech_energy = np.einsum("ij,ij->j", pm.conj(), m_mech @ pm).real
        frac = mech_energy / norms[cols] ** 2
        for j, k in enumerate(range(start, start + pm.shape[1])):
            bstar_abs = abs(complex(bstar[k]))
            block = ("mechanical" if frac[j] >= 0.9
                     else "electromagnetic" if frac[j] <= 0.1 else "mixed")
            table.append(ModeRecord(eigenvalue=complex(w[k]), bstar_abs=bstar_abs,
                                    norm_m=float(norms[k]),
                                    stabilizable=bool(bstar_abs > eig_tol * norms[k]),
                                    dominant_block=block))
    return table


def _eigenpairs(s_matrix: np.ndarray, r: np.ndarray) -> tuple:
    """Sorted eigenvalues of S, and the M-norms and reduced lifts of its eigenvectors.

    The lifts phi_red = R^{-1} v have unit M-norm up to rounding; their
    M-norms are the 2-norms of the eigenvectors v, which are not kept.
    """
    w, v = scipy.linalg.eig(s_matrix)
    order = _sort_order(w)
    w = w[order]
    v = v[:, order]
    return w, np.linalg.norm(v, axis=0), scipy.linalg.solve_triangular(r, v)


def open_loop_modes(assembly: GeneratorAssembly) -> tuple:
    """Eigenvalues and unit M-norm reduced eigenvectors, in spectrum order.

    The eigenpairs of :func:`compute_spectrum` without its mode table.
    """
    r, s = _energy_similarity(assembly)
    w, _, phi_red = _eigenpairs(s, r)
    return w, phi_red


def _build_report(assembly: GeneratorAssembly, s_matrix: np.ndarray, r: np.ndarray,
                  eig_tol: float) -> SpectrumReport:
    w, norms, phi_red = _eigenpairs(s_matrix, r)
    g_norm = float(np.max(np.abs(w))) if len(w) else 0.0
    kernel_dim = int(np.count_nonzero(np.abs(w) <= ZERO_MODE_REL_TOL * g_norm))
    table = _mode_table(assembly, w, norms, phi_red, eig_tol)
    return SpectrumReport(eigenvalues=w, max_abs_real=float(np.max(np.abs(w.real))),
                          kernel_dimension=kernel_dim, mode_table=table,
                          g_norm=g_norm)


def compute_spectrum(assembly: GeneratorAssembly, eig_tol: float = 1e-8) -> SpectrumReport:
    """Dense spectrum of the generator on the constrained subspace."""
    r, s = _energy_similarity(assembly)
    return _build_report(assembly, s, r, eig_tol)


def closed_loop_spectrum(assembly: GeneratorAssembly, gain: float,
                         eig_tol: float = 1e-8) -> SpectrumReport:
    """Spectrum of the collocated-feedback generator G - gain * b (b^T M).

    Collocated feedback keeps the spectrum in the closed left half plane;
    the eigenvalues are returned unchecked, so a caller can report a
    crossing.
    """
    if gain < 0:
        raise ValueError(f"gain must be nonnegative, got {gain}")
    r, s = _energy_similarity(assembly)
    g_vec = _coupling(assembly, r)
    s_cl = s - gain * np.outer(g_vec, g_vec)
    return _build_report(assembly, s_cl, r, eig_tol)


def closed_loop_mode_shifts(assembly: GeneratorAssembly, gain: float):
    """Per-mode closed-loop eigenvalues from the rank-one secular equation.

    Returns (omega, lam, coupling) for the open-loop modes with omega > 0,
    sorted by omega: lam[j] solves 1 + gain * sum_l |c_l|^2/(lam - i w_l) = 0
    near i*omega[j], and coupling[j] = |c_j| is the energy-coordinate feedback
    coupling of the mode.  Accurate for shifts far below the dense-eig noise
    floor; falls back to simple iteration with damping.
    """
    r, s = _energy_similarity(assembly)
    a_skew = 0.5 * (s - s.T)
    theta, u = np.linalg.eigh(1j * a_skew)
    omega_all = -theta  # eigenvalues of the skew part are -i*theta
    c = u.conj().T @ _coupling(assembly, r)
    c2 = np.abs(c) ** 2

    pos = np.where(omega_all > 0)[0]
    pos = pos[np.argsort(omega_all[pos])]
    omegas = omega_all[pos]
    lams = np.empty(len(pos), dtype=complex)
    for out_idx, j in enumerate(pos):
        others = np.arange(len(omega_all)) != j
        lam0 = 1j * omega_all[j]
        delta = 0.0 + 0.0j
        for _ in range(SECULAR_MAX_ITER):
            denom_terms = (lam0 + delta) - 1j * omega_all[others]
            corr = 1.0 + gain * np.sum(c2[others] / denom_terms)
            new_delta = -gain * c2[j] / corr
            if abs(new_delta - delta) <= SECULAR_RTOL * abs(new_delta) + 1e-300:
                delta = new_delta
                break
            delta = 0.5 * (delta + new_delta)
        lams[out_idx] = lam0 + delta
    return omegas, lams, np.abs(c[pos])


def kernel_basis(assembly: GeneratorAssembly):
    """M-orthonormal basis of the kernel of G on the constrained subspace.

    Returns an array of full-state columns; contains the rigid translation
    (constant y4).  Computed from the singular values of the energy-coordinate
    similarity of G_red that lie below ZERO_MODE_REL_TOL times the largest.
    """
    r, s = _energy_similarity(assembly)
    u_svd, sing, vt = np.linalg.svd(s)
    scale = sing[0] if len(sing) else 0.0
    null_mask = sing <= ZERO_MODE_REL_TOL * scale
    vecs = vt[null_mask].T  # orthonormal in energy coordinates = M-orthonormal
    phi_red = scipy.linalg.solve_triangular(r, vecs)
    return assembly.reduction.t_map @ phi_red


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
