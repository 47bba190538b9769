"""Eigenstructure in the energy inner product and stabilizability reports."""

import numpy as np
import pytest

from piezolab.dynamics import default_dt, run
from piezolab.errors import DegenerateWindow
from piezolab.generator import assemble_generator
from piezolab.model import build_grid, toy_parameters
from piezolab.spectral import (closed_loop_mode_shifts, closed_loop_spectrum,
                               compute_spectrum, decay_rate_fit, kernel_basis,
                               open_loop_modes)

TOY = toy_parameters()


def _report(n=64, gamma=1.0):
    params = toy_parameters(gamma=gamma)
    asm = assemble_generator(params, build_grid(params.L, n))
    return asm, compute_spectrum(asm)


def _positive_branch(report, block):
    lams = [rec.eigenvalue.imag for rec in report.mode_table
            if rec.dominant_block == block and rec.eigenvalue.imag > 1e-8]
    return np.sort(np.array(lams))


class TestOpenLoopSpectrum:
    def test_imaginary_axis(self):
        asm, report = _report(64)
        assert report.max_abs_real <= 1e-10 * report.g_norm

    def test_conjugate_closure(self):
        asm, report = _report(32)
        lams = report.eigenvalues
        conj_sorted = np.sort_complex(np.conj(lams))
        np.testing.assert_allclose(np.sort_complex(lams), conj_sorted,
                                   rtol=0, atol=1e-8 * report.g_norm)

    def test_eigenpair_residual(self):
        asm, report = _report(32)
        w, vectors_reduced = open_loop_modes(asm)
        np.testing.assert_array_equal(w, report.eigenvalues)
        t = asm.reduction.t_map
        m = asm.m
        for j in range(0, len(report.eigenvalues), 37):
            lam = report.eigenvalues[j]
            phi = t @ vectors_reduced[:, j]
            res = asm.g @ phi - lam * phi
            num = np.sqrt(abs(np.vdot(res, m @ res).real))
            den = np.sqrt(abs(np.vdot(phi, m @ phi).real))
            assert num <= 1e-8 * report.g_norm * den

    def test_mechanical_dispersion_gamma0(self):
        asm, report = _report(128, gamma=0.0)
        omegas = _positive_branch(report, "mechanical")[:5]
        k = np.arange(1, 6)
        exact = k * np.pi * np.sqrt(TOY.alpha / TOY.rho) / TOY.L
        np.testing.assert_allclose(omegas, exact, rtol=1e-2)

    def test_electromagnetic_dispersion_gamma0(self):
        asm, report = _report(128, gamma=0.0)
        omegas = _positive_branch(report, "electromagnetic")[:5]
        k = np.arange(1, 6)
        p = toy_parameters(gamma=0.0)
        exact = np.sqrt(p.mu * (1.0 + p.xi * (k * np.pi / p.L) ** 2)
                        / (p.eps1 * p.h ** 2 / 12.0))
        np.testing.assert_allclose(omegas, exact, rtol=1e-2)


class TestKernel:
    def test_contains_rigid_translation(self):
        from piezolab.model import block_slices
        asm, _ = _report(32)
        basis = kernel_basis(asm)
        assert basis.shape[1] == 1
        # M-projection of the translation onto the kernel recovers it
        sl = block_slices(asm.grid)["y4"]
        tr = np.zeros(asm.dim)
        tr[sl] = 1.0
        coeffs = basis.T @ (asm.m @ tr)
        recon = basis @ coeffs
        assert np.linalg.norm(recon - tr) <= 1e-8 * np.linalg.norm(tr)
        assert abs(asm.b_dual @ basis[:, 0]) <= 1e-10

    def test_dimension_stable_under_alpha(self):
        from piezolab.model import validate_parameters
        p2 = validate_parameters(dict(rho=1, alpha=2, gamma=1, eps1=1,
                                      eps3=1, mu=1, h=1, L=1))
        asm2 = assemble_generator(p2, build_grid(1.0, 32))
        assert compute_spectrum(asm2).kernel_dimension == 1


class TestStabilizability:
    def test_gamma0_parity_split(self):
        # theta-profile sin(k pi x/L): the integral of phi5 vanishes for even
        # k and equals 2L/(k pi) times the amplitude for odd k
        asm, report = _report(64, gamma=0.0)
        em = sorted((rec for rec in report.mode_table
                     if rec.dominant_block == "electromagnetic"
                     and rec.eigenvalue.imag > 1e-8),
                    key=lambda rec: rec.eigenvalue.imag)
        for idx, rec in enumerate(em[:12]):
            k = idx + 1
            if k % 2 == 0:
                assert not rec.stabilizable
                assert rec.bstar_abs <= 1e-8 * rec.norm_m
            else:
                assert rec.stabilizable

    def test_flag_is_scale_invariant(self):
        # the flag compares |B* phi| against eig_tol * ||phi||_M, so it cannot
        # depend on the eigenvector normalization
        asm, report = _report(32)
        for rec in report.mode_table[:20]:
            assert rec.stabilizable == (rec.bstar_abs > 1e-8 * rec.norm_m)


class TestClosedLoop:
    def test_zero_gain_matches_open_loop(self):
        asm, report = _report(32)
        cl = closed_loop_spectrum(asm, 0.0)
        np.testing.assert_allclose(np.sort_complex(cl.eigenvalues),
                                   np.sort_complex(report.eigenvalues),
                                   rtol=0, atol=1e-10 * report.g_norm)

    def test_left_half_plane(self):
        asm, _ = _report(64)
        cl = closed_loop_spectrum(asm, 1.0)
        assert cl.eigenvalues.real.max() <= 1e-12 * cl.g_norm

    def test_secular_shifts_match_dense_eigensolve(self):
        # per-mode shifts from the rank-1 secular equation against the dense
        # closed-loop spectrum, matched by frequency
        asm, report = _report(32)
        omega, lam, _ = closed_loop_mode_shifts(asm, 1e-2)
        cl = closed_loop_spectrum(asm, 1e-2)
        pos = cl.eigenvalues[cl.eigenvalues.imag > 1e-8]
        for j in range(0, len(omega), 11):
            if omega[j] <= 1e-8:
                continue  # kernel entry has no positive-frequency partner
            match = pos[np.argmin(np.abs(pos.imag - omega[j]))]
            assert abs(match - lam[j]) <= 1e-8 * report.g_norm


class TestDecayFit:
    def test_conservative_run_has_zero_rate(self):
        asm = assemble_generator(TOY, build_grid(1.0, 32))
        rng = np.random.default_rng(13)
        y0 = np.zeros(asm.dim)
        for name in ("y1", "y2", "y4", "y5"):
            block = asm.blocks[name]
            y0[block] = rng.standard_normal(block.stop - block.start)
        y0 = asm.lift(y0)
        series = run(asm, y0, n_steps=2000, dt=default_dt(TOY, asm.grid),
                     record_stride=20)
        fit = decay_rate_fit(series, (0.0, series.times[-1]))
        assert abs(fit.rate) <= 1e-9

    def test_degenerate_window(self):
        asm = assemble_generator(TOY, build_grid(1.0, 16))
        series = run(asm, np.zeros(asm.dim), n_steps=5, dt=1e-3)
        with pytest.raises(DegenerateWindow):
            decay_rate_fit(series, (0.0, 1e-9))

    def test_synthetic_exponential(self):
        # duck-typed series: exact exponential must be fitted exactly
        class Fake:
            times = np.linspace(0.0, 2.0, 100)

            def total_energy(self):
                return 3.0 * np.exp(-1.7 * self.times)

        fit = decay_rate_fit(Fake(), (0.0, 2.0))
        assert fit.rate == pytest.approx(1.7, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
