"""Eigenstructure in the energy inner product and stabilizability reports."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import scipy.linalg
from scipy import sparse

from piezolab import acceptance, cli, generator, spectral
from piezolab.config import toy_config_dict
from piezolab.dynamics import default_dt, modal_state, run
from piezolab.errors import DegenerateWindow, FreeBlockCoupling, SecularNotConverged
from piezolab.generator import HelmholtzInverse, assemble_generator, gram
from piezolab.model import block_slices, build_grid, toy_parameters, validate_parameters
from piezolab.spectral import (closed_loop_mode_shifts, closed_loop_spectrum,
                               compute_spectrum, decay_rate_fit, kernel_basis,
                               open_loop_modes)
from piezolab.variants import assemble_charge_magnetic, assemble_electrostatic
from test_generator import BOX_CORNER, _dense_g

TOY = toy_parameters()
NON_UNIT = validate_parameters(dict(rho=1.3, alpha=0.8, gamma=-0.7, eps1=1.7,
                                    eps3=0.9, mu=1.2, h=0.6, L=1.4))


def _report(n=64, gamma=1.0):
    params = toy_parameters(gamma=gamma)
    asm = assemble_generator(params, build_grid(params.L, n))
    return asm, compute_spectrum(asm)


def _system(system, n):
    """The six-field model at gamma = 0, the electrostatic one or, for
    "coupled", the six-field model at gamma = 1, on n cells."""
    if system == "electrostatic":
        return assemble_electrostatic(TOY, build_grid(TOY.L, n))
    params = TOY if system == "coupled" else toy_parameters(gamma=0.0)
    return assemble_generator(params, build_grid(params.L, n))


def _column_norms(v, mech):
    """(||x||, ||x[mech]||) of each column x of v."""
    return np.linalg.norm(v, axis=0), np.linalg.norm(v[mech], axis=0)


def _set_distance(a, b):
    """Largest distance from a point of either set to the other set."""
    dist = np.abs(a[:, None] - b[None, :])
    return max(dist.min(axis=1).max(), dist.min(axis=0).max())


def _all_modes(asm):
    """The spectrum's eigenvalues, and every eigenvector open_loop_modes
    builds, as the columns of v."""
    solve = open_loop_modes(asm)
    return (compute_spectrum(asm).eigenvalues,
            np.column_stack([solve.mode(j) for j in range(len(solve.omega))]))


def _positive_branch(report, block):
    im = report.eigenvalues.imag
    return np.sort(im[(report.dominant_block == block) & (im > 1e-8)])


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
        solve = open_loop_modes(asm)
        np.testing.assert_array_equal(solve.omega, report.eigenvalues.imag)
        m, g = gram(asm.energy_parts, asm.dim), _dense_g(asm)
        for j in range(0, len(report.eigenvalues), 37):
            lam = report.eigenvalues[j]
            phi = spectral.lift_modes(asm, solve.mode(j))
            res = g @ phi - lam * phi
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
        coeffs = basis.T @ (gram(asm.energy_parts, asm.dim) @ tr)
        recon = basis @ coeffs
        assert np.linalg.norm(recon - tr) <= 1e-8 * np.linalg.norm(tr)
        assert abs(asm.b_dual @ basis[:, 0]) <= 1e-10

    def test_dimension_stable_under_alpha(self):
        from piezolab.model import validate_parameters
        p2 = validate_parameters(dict(rho=1, alpha=2, gamma=1, eps1=1,
                                      eps3=1, mu=1, h=1, L=1))
        asm2 = assemble_generator(p2, build_grid(1.0, 32))
        assert compute_spectrum(asm2).kernel_dimension == 1

    @pytest.mark.parametrize("n", (16, 64))
    @pytest.mark.parametrize("gamma", (0.0, 1.0, -1.3))
    @pytest.mark.parametrize("build", (assemble_generator, assemble_charge_magnetic,
                                       assemble_electrostatic),
                             ids=("current", "charge_magnetic", "electrostatic"))
    def test_matches_the_svd_of_s(self, build, gamma, n):
        # the oracle is the kernel of a full SVD of S: the right singular
        # vectors whose values are at most ZERO_MODE_REL_TOL times the
        # largest, lifted; the basis spans the same space, with real
        # M-orthonormal columns
        params = toy_parameters(gamma=gamma)
        asm = build(params, build_grid(params.L, n))
        ref = asm.reference
        _, sing, vt = np.linalg.svd(ref.s)
        want = spectral.lift_modes(asm, vt[sing <= spectral.ZERO_MODE_REL_TOL * sing[0]].T)
        basis = kernel_basis(asm)
        dim = compute_spectrum(asm).kernel_dimension
        assert basis.shape == want.shape == (asm.dim, dim)
        assert dim == (0 if build is assemble_electrostatic else 1)
        assert basis.dtype == np.float64
        m = gram(asm.energy_parts, asm.dim)
        np.testing.assert_allclose(basis.T @ m @ basis, np.eye(dim), rtol=0, atol=1e-13)
        np.testing.assert_allclose(basis @ (basis.T @ m), want @ (want.T @ m),
                                   rtol=0, atol=1e-13)

    def test_a_zero_pair_raises(self):
        # a row of 1e-300 in the square field block of Bs at gamma = 0 puts a
        # pair at +- i sigma, sigma far below the threshold: both members are
        # zero modes, none is in pairs, and their vectors are not real, so
        # the real parts alone would span half of the kernel
        asm = _system("gamma0", 16)
        ref, red = asm.reference, asm.reduction
        _, (p, q) = spectral._plan(ref, red.mechanical)
        s = ref.s.copy()
        s[p[4], q] = 1e-300
        s[q, p[4]] = -1e-300
        asm.__dict__["reference"] = dataclasses.replace(ref, s=s)
        solve = open_loop_modes(asm)
        assert len(solve.kernel) == 3 and np.count_nonzero(solve.omega[solve.kernel] > 0) == 1
        assert len(solve.pairs) == (len(solve.omega) - 3) // 2
        with pytest.raises(ValueError, match="a zero mode of S is not real"):
            kernel_basis(asm)


class TestStabilizability:
    def test_gamma0_parity_split(self):
        # theta-profile sin(k pi x/L): the integral of phi5 vanishes for even
        # k and equals 2L/(k pi) times the amplitude for odd k
        asm, report = _report(64, gamma=0.0)
        norms = np.linalg.norm(_all_modes(asm)[1], axis=0)
        im = report.eigenvalues.imag
        em = np.flatnonzero((report.dominant_block == "electromagnetic") & (im > 1e-8))
        em = em[np.argsort(im[em], kind="stable")]
        for idx, j in enumerate(em[:12]):
            k = idx + 1
            if k % 2 == 0:
                assert not report.stabilizable[j]
                assert report.bstar_abs[j] <= 1e-8 * norms[j]
            else:
                assert report.stabilizable[j]

    def test_flag_is_scale_invariant(self):
        # the flag compares |B* phi| against STABILIZABLE_TOL * ||phi||_M, so
        # it cannot depend on the eigenvector normalization
        asm, report = _report(32)
        norms = np.linalg.norm(_all_modes(asm)[1], axis=0)
        np.testing.assert_array_equal(report.stabilizable[:20],
                                      report.bstar_abs[:20] > 1e-8 * norms[:20])


def _scalar_secular_loop(omega_all, c2, pos, gain, max_iter=60, rtol=1e-12):
    """The per-mode damped iteration that the closed-loop root solve replaced."""
    lams = np.empty(len(pos), dtype=complex)
    for out_idx, j in enumerate(pos):
        others = np.arange(len(omega_all)) != j
        lam0 = 1j * omega_all[j]
        delta = 0.0 + 0.0j
        for _ in range(max_iter):
            denom_terms = (lam0 + delta) - 1j * omega_all[others]
            corr = 1.0 + gain * np.sum(c2[others] / denom_terms)
            new_delta = -gain * c2[j] / corr
            if abs(new_delta - delta) <= rtol * abs(new_delta) + 1e-300:
                delta = new_delta
                break
            delta = 0.5 * (delta + new_delta)
        lams[out_idx] = lam0 + delta
    return lams


def _modes(asm):
    """(omega, |c|^2) of every open-loop mode the shifts read, the kernel included."""
    solve = spectral._blockwise(asm.reference, asm.reduction.mechanical)
    return solve.omega, solve.facts[0] ** 2


def _all_roots(asm, gain):
    """(omega, roots) of every mode of the shifts' solve, the kernel included."""
    omega, c2 = _modes(asm)
    return omega, spectral._closed_loop_roots(omega, c2, gain)


def _count_solves(monkeypatch):
    """The dense block solves made from now on, "svd" each; eig raises."""
    calls = []
    svd = spectral._svd_block

    def no_eig(*args, **kwargs):
        raise AssertionError("scipy.linalg.eig was called")

    monkeypatch.setattr(scipy.linalg, "eig", no_eig)
    monkeypatch.setattr(spectral, "_svd_block",
                        lambda *args: calls.append("svd") or svd(*args))
    return calls


def _dense_closed_loop(asm, gain):
    """The oracle: (eigenvalues, eigenvectors) of the dense S - gain g g^T by eig."""
    ref = asm.reference
    return scipy.linalg.eig(ref.s - gain * np.outer(ref.coupling, ref.coupling))


def _dense_distance(asm, roots, gain):
    """Largest distance, both ways, from the roots to the dense closed-loop
    eigenvalues, relative to their spectral radius."""
    dense = _dense_closed_loop(asm, gain)[0]
    return _set_distance(roots, dense) / np.abs(dense).max()


class TestClosedLoop:
    def test_zero_gain_matches_open_loop(self):
        asm, report = _report(32)
        cl = closed_loop_spectrum(asm, 0.0)
        # sorted by Im: the real parts are rounding, eig's and the open
        # loop's Rayleigh quotients, so they cannot order the two alike
        by_im = [lam[np.argsort(lam.imag, kind="stable")]
                 for lam in (cl.eigenvalues, report.eigenvalues)]
        np.testing.assert_allclose(*by_im, rtol=0, atol=1e-10 * report.g_norm)

    def test_left_half_plane(self):
        asm, _ = _report(64)
        cl = closed_loop_spectrum(asm, 1.0)
        assert cl.eigenvalues.real.max() <= 1e-12 * cl.g_norm

    def test_secular_shifts_match_dense_eigensolve(self):
        # per-mode shifts from the rank-1 secular equation against eig of
        # the dense closed loop, matched by frequency
        asm, report = _report(32)
        omega, lam, _, _ = closed_loop_mode_shifts(asm, 1e-2)
        dense = _dense_closed_loop(asm, 1e-2)[0]
        pos = dense[dense.imag > 1e-8]
        for j in range(0, len(omega), 11):
            if omega[j] <= 1e-8:
                continue  # kernel entry has no positive-frequency partner
            match = pos[np.argmin(np.abs(pos.imag - omega[j]))]
            assert abs(match - lam[j]) <= 1e-8 * report.g_norm

    @pytest.mark.parametrize("gain", (1e-2, 1.0))
    def test_vectorized_shifts_equal_scalar_loop(self, gain):
        asm, _ = _report(32)
        omega_all, c2 = _modes(asm)
        pos = np.where(omega_all > spectral.ZERO_MODE_REL_TOL
                       * np.max(np.abs(omega_all)))[0]
        pos = pos[np.argsort(omega_all[pos])]
        omega, lam, _, _ = closed_loop_mode_shifts(asm, gain)
        np.testing.assert_array_equal(omega, omega_all[pos])
        want = _scalar_secular_loop(omega_all, c2, pos, gain)
        np.testing.assert_allclose(lam.real, want.real, rtol=1e-9, atol=0)
        np.testing.assert_allclose(lam.imag, want.imag, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n, gamma", ((32, 1.0), (64, 0.0), (64, 1.0)))
    def test_shifts_leave_out_the_kernel(self, n, gamma):
        # 4N - 1 reduced modes: the one-dimensional kernel and 2N - 1
        # conjugate pairs; the kernel mode is left out whatever the sign of
        # its rounded frequency
        params = toy_parameters(gamma=gamma)
        asm = assemble_generator(params, build_grid(params.L, n))
        omega, lam, coupling, block = closed_loop_mode_shifts(asm, 1.0)
        assert len(omega) == len(lam) == len(coupling) == len(block) == 2 * n - 1
        assert omega[0] > 1e-8

    def test_unconverged_mode_raises(self, monkeypatch):
        # 62 of the 63 modes are coupled: the kernel's null vector (0; v)
        # lies on Q, where g is exactly 0
        asm, _ = _report(16)
        monkeypatch.setattr(spectral, "ABERTH_MAX_SWEEPS", 2)
        with pytest.raises(SecularNotConverged,
                           match=r"of 62 closed-loop roots still moved after 2 "
                                 r"sweeps, the lowest from the mode at \|omega\| = "):
            closed_loop_mode_shifts(asm, 1.0)

    def test_strong_charge_coupling_solves(self):
        # the boundary charge coupling of the charge-magnetic model at
        # N = 64, gamma = 1 and gain 1 moves roots far from their poles (one
        # pair becomes two real roots), where a per-mode iteration fails
        asm = assemble_charge_magnetic(TOY, build_grid(TOY.L, 64))
        omega, lam, _, _ = closed_loop_mode_shifts(asm, 1.0)
        assert len(lam) == 127
        omega_all, roots = _all_roots(asm, 1.0)
        pos = [int(np.flatnonzero(omega_all == w)[0]) for w in omega]
        assert lam.tobytes() == roots[pos].tobytes()
        assert _dense_distance(asm, roots, 1.0) <= 1e-12

    @pytest.mark.parametrize("gain", (1e-3, 1e-2, 1.0))
    @pytest.mark.parametrize("gamma", (0.0, 1.0))
    @pytest.mark.parametrize("n", (32, 64))
    @pytest.mark.parametrize("build", (assemble_generator, assemble_charge_magnetic,
                                       assemble_electrostatic),
                             ids=("current", "charge_magnetic", "electrostatic"))
    def test_roots_match_dense_eig(self, build, n, gamma, gain):
        # the coupled roots and the uncoupled poles against the dense
        # closed-loop eigenvalues, each set within 1e-12 of the spectral
        # radius of the other
        params = toy_parameters(gamma=gamma)
        asm = build(params, build_grid(params.L, n))
        _, roots = _all_roots(asm, gain)
        assert _dense_distance(asm, roots, gain) <= 1e-12

    @pytest.mark.parametrize("gain", (1e-3, 1e-2, 1.0))
    @pytest.mark.parametrize("gamma", (0.0, 1.0))
    @pytest.mark.parametrize("n", (32, 64))
    @pytest.mark.parametrize("build", (assemble_generator, assemble_charge_magnetic,
                                       assemble_electrostatic),
                             ids=("current", "charge_magnetic", "electrostatic"))
    def test_spectrum_matches_dense_eig(self, build, n, gamma, gain):
        # the closed-loop report, read from the open-loop solve, against eig
        # of the dense S - gain g g^T, both in spectrum order: the values
        # within 1e-12 of the spectral radius both ways and row by row (real
        # roots exactly real, conjugate pairs exact, as eig's), the same
        # flags and labels, and |B* phi| of the stabilizable modes within
        # 1e-6 relative, the noise of eig's vectors (3.7e-7 at worst here,
        # on the current model at N = 64, gamma = 0)
        params = toy_parameters(gamma=gamma)
        asm = build(params, build_grid(params.L, n))
        report = closed_loop_spectrum(asm, gain)
        w, v = _dense_closed_loop(asm, gain)
        order = spectral._sort_order(w)
        w, v = w[order], v[:, order]
        assert _set_distance(report.eigenvalues, w) <= 1e-12 * np.abs(w).max()
        np.testing.assert_allclose(report.eigenvalues, w, rtol=0, atol=1e-12 * np.abs(w).max())
        bstar_abs = np.abs(asm.reference.coupling @ v)
        stabilizable, block = spectral._mode_table(
            bstar_abs, *_column_norms(v, asm.reduction.mechanical))
        np.testing.assert_array_equal(report.stabilizable, stabilizable)
        np.testing.assert_array_equal(report.dominant_block, block)
        np.testing.assert_allclose(report.bstar_abs[stabilizable], bstar_abs[stabilizable],
                                   rtol=1e-6, atol=0)
        assert np.isfinite(report.eigenvalues).all() and np.isfinite(report.bstar_abs).all()

    @pytest.mark.parametrize("gamma, solves", ((1.0, ["svd"]), (0.0, ["svd", "svd"])))
    def test_closed_loop_run_solves_once_without_eig(self, gamma, solves, tmp_path,
                                                      monkeypatch, capsys):
        # `spectrum --closed-loop` reads both spectra from one open-loop
        # solve: one SVD of the whole S at gamma = 1, one per block at
        # gamma = 0, and no eig
        calls = _count_solves(monkeypatch)
        doc = toy_config_dict(n_cells=16, t_final=0.1)
        doc["params"]["gamma"] = gamma
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["spectrum", "--config", str(cfg), "--closed-loop", "1.0",
                         "--out", str(tmp_path / "o")]) == 0, capsys.readouterr().err
        assert calls == solves

    def test_gain_perturbation_check_shares_one_solve(self, monkeypatch):
        # check 8 reads the shifts at two gains on one assembly
        acceptance._assembly.cache_clear()
        calls = _count_solves(monkeypatch)
        assert acceptance.check_gain_perturbation().passed
        assert calls == ["svd"]

    def test_unconverged_closed_loop_run_writes_nothing(self, tmp_path, monkeypatch,
                                                        capsys):
        # the root solve runs inside `spectrum --closed-loop`: a root still
        # moving after its sweeps stops the run before --out is made
        monkeypatch.setattr(spectral, "ABERTH_MAX_SWEEPS", 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(toy_config_dict(n_cells=16, t_final=0.1)),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["spectrum", "--config", str(cfg), "--variant", "charge_magnetic",
                         "--closed-loop", "1.0", "--out", str(out)]) == 1
        assert ("closed-loop roots still moved after 2 sweeps"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("fault", ("root_on_its_pole", "nan_root"))
    def test_non_finite_closed_loop_is_never_written(self, fault, tmp_path,
                                                     monkeypatch, capsys):
        # a coupled root on its own pole makes its z = c / 0 infinite; a NaN
        # root is not finite itself: either raises, and no file is written
        roots = spectral._closed_loop_roots

        def faulty(omega, weight, gain):
            lam = roots(omega, weight, gain)
            j = int(np.argmax(weight))
            lam[j] = 1j * omega[j] if fault == "root_on_its_pole" else np.nan
            return lam

        monkeypatch.setattr(spectral, "_closed_loop_roots", faulty)
        asm, _ = _report(16)
        with pytest.raises(ValueError, match="closed-loop root or eigenvector is not finite"):
            closed_loop_spectrum(asm, 1.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(toy_config_dict(n_cells=16, t_final=0.1)),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["spectrum", "--config", str(cfg), "--closed-loop", "1.0",
                         "--out", str(out)]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gain", (np.nan, np.inf, -1.0))
    def test_bad_gain_rejected(self, gain):
        asm = assemble_generator(TOY, build_grid(1.0, 8))
        for closed_loop in (closed_loop_spectrum, closed_loop_mode_shifts):
            with pytest.raises(ValueError, match="gain"):
                closed_loop(asm, gain)


class TestShiftModes:
    """The shifts' per-mode facts against the dense spectrum's mode table."""

    @pytest.mark.parametrize("n, rtol", ((64, 1e-10), (256, 1e-8)))
    def test_modes_match_dense_table(self, n, rtol, monkeypatch):
        # pair each shift mode with the dense mode of the nearest frequency;
        # the dense table's M-norms are captured as compute_spectrum forms them.
        # Both read g from one triangular solve, and at gamma = 0 both read
        # their vectors from the same SVD of each bipartite block
        table_of = spectral._mode_table
        seen = {}

        def capturing(bstar_abs, norms, mech_norms):
            seen["norms"] = norms
            return table_of(bstar_abs, norms, mech_norms)

        monkeypatch.setattr(spectral, "_mode_table", capturing)
        asm, report = _report(n, gamma=0.0)
        omega, _, coupling, block = closed_loop_mode_shifts(asm, 1.0)
        positive = np.flatnonzero(report.eigenvalues.imag > 1e-8)
        freqs = report.eigenvalues.imag[positive]
        assert len(positive) == len(omega)
        matched = [int(np.argmin(np.abs(freqs - w))) for w in omega]
        assert len(set(matched)) == len(omega)
        stabilizable = 0
        for j, idx in enumerate(matched):
            k = positive[idx]
            assert abs(freqs[idx] - omega[j]) <= 1e-9 * omega[j]
            assert report.dominant_block[k] == block[j]
            if report.stabilizable[k]:
                stabilizable += 1
                want = report.bstar_abs[k] / seen["norms"][k]
                assert abs(coupling[j] - want) <= rtol * want
        assert stabilizable == n // 2  # the odd electromagnetic modes

    def test_gamma_zero_labels_are_exact(self):
        # the eigh runs per block at gamma = 0, so every mode lies in one
        # block and every stabilizable mode is electromagnetic
        asm, _ = _report(64, gamma=0.0)
        _, _, coupling, block = closed_loop_mode_shifts(asm, 1.0)
        assert set(block) == {"mechanical", "electromagnetic"}
        assert np.count_nonzero(block == "mechanical") == 64
        assert np.all(coupling[block == "mechanical"] == 0.0)


class TestDiagonalBlocks:
    @pytest.mark.parametrize("system", ("toy", "non_unit", "electrostatic"))
    def test_coupled_systems_are_one_block(self, system):
        # gamma != 0 couples the mechanics to the fields; the electrostatic
        # model has no field coordinate at all
        params = NON_UNIT if system == "non_unit" else TOY
        grid = build_grid(params.L, 32)
        asm = (assemble_electrostatic(params, grid) if system == "electrostatic"
               else assemble_generator(params, grid))
        s = asm.reference.s
        blocks = spectral._decoupled_blocks(s, asm.reduction.mechanical)
        assert len(blocks) == 1
        np.testing.assert_array_equal(blocks[0], np.arange(len(s)))

    def test_gamma_zero_splits_mechanics_from_fields(self):
        asm, _ = _report(32, gamma=0.0)
        s = asm.reference.s
        blocks = spectral._decoupled_blocks(s, asm.reduction.mechanical)
        sl = block_slices(asm.grid)
        keep = asm.reduction.keep
        in_blocks = [np.isin(keep, np.r_[sl[a], sl[b]])
                     for a, b in (("y1", "y4"), ("y2", "y5"))]
        assert len(blocks) == 2
        for block, mask in zip(blocks, in_blocks):
            np.testing.assert_array_equal(block, np.flatnonzero(mask))
        np.testing.assert_array_equal(blocks[0], asm.reduction.mechanical)

    def test_tiny_cross_entry_couples(self):
        # one 1e-300 entry on either side of the diagonal keeps one block,
        # which is not bipartite on the colouring: the entry joins two
        # free blocks of one colour, so the solve refuses it
        asm, _ = _report(32, gamma=0.0)
        ref, red = asm.reference, asm.reduction
        mech, em = spectral._decoupled_blocks(ref.s, red.mechanical)
        for row, col in ((em[3], mech[5]), (mech[5], em[3])):
            s = ref.s.copy()
            s[row, col] = 1e-300
            blocks = spectral._decoupled_blocks(s, red.mechanical)
            assert len(blocks) == 1
            np.testing.assert_array_equal(blocks[0], np.arange(len(s)))
            with pytest.raises(ValueError, match="the whole block of S is not bipartite"):
                spectral._plan(dataclasses.replace(ref, s=s), red.mechanical)

    @pytest.mark.parametrize("gamma", (0.0, 1.0))
    @pytest.mark.parametrize("build", (assemble_generator, assemble_charge_magnetic,
                                       assemble_electrostatic),
                             ids=("current", "charge_magnetic", "electrostatic"))
    def test_one_svd_per_block(self, build, gamma, monkeypatch):
        # the closed loop, which eig once solved block by block, reads the
        # open-loop solve: one SVD per block of its plan
        params = toy_parameters(gamma=gamma)
        asm = build(params, build_grid(params.L, 32))
        calls = _count_solves(monkeypatch)
        closed_loop_spectrum(asm, 1.0)
        plan = spectral._plan(asm.reference, asm.reduction.mechanical)
        assert calls == ["svd"] * len(plan)
        assert len(plan) == (2 if gamma == 0.0 and build is not assemble_electrostatic
                             else 1)

    @pytest.mark.parametrize("n", (32, 64))
    def test_gamma_zero_spectrum_matches_full_eig(self, n):
        asm, report = _report(n, gamma=0.0)
        ref = asm.reference
        w, v = scipy.linalg.eig(ref.s)
        order = spectral._sort_order(w)
        w, v = w[order], v[:, order]
        stabilizable, block = spectral._mode_table(
            np.abs(ref.coupling @ v), *_column_norms(v, asm.reduction.mechanical))
        np.testing.assert_allclose(report.eigenvalues, w, rtol=0,
                                   atol=1e-12 * report.g_norm)
        np.testing.assert_array_equal(report.dominant_block, block)
        np.testing.assert_array_equal(report.stabilizable, stabilizable)


def _block_names(asm):
    """The name of the free block of each reduced coordinate."""
    keep, names = asm.reduction.keep, np.full(len(asm.reduction.keep), "", dtype="<U2")
    for name in ("y1", "y2", "y4", "y5"):
        if name in asm.blocks:
            names[np.isin(keep, np.arange(asm.dim)[asm.blocks[name]])] = name
    return names


class TestColouring:
    """The halves of every open-loop solve come from the 2-colouring of the free blocks."""

    @pytest.mark.parametrize("gamma", (0.0, 1.0, -1.3))
    @pytest.mark.parametrize("build", (assemble_generator, assemble_charge_magnetic,
                                       assemble_electrostatic),
                             ids=("current", "charge_magnetic", "electrostatic"))
    def test_colours_of_the_free_blocks(self, build, gamma):
        # positions against velocities at gamma = 0, and s against w on the
        # electrostatic model at any gamma; gamma != 0 links y4 and y5, so
        # the six-field halves become {y1, y5} and {y2, y4}
        params = toy_parameters(gamma=gamma)
        asm = build(params, build_grid(params.L, 16))
        colour, names = asm.reference.colour, _block_names(asm)
        assert colour.dtype == bool and colour.shape == names.shape
        if build is assemble_electrostatic:
            np.testing.assert_array_equal(colour, np.isin(names, ("y4",)))
            np.testing.assert_array_equal(colour[:16], False)  # s
            np.testing.assert_array_equal(colour[16:], True)   # w
        elif gamma == 0.0:
            np.testing.assert_array_equal(colour, np.isin(names, ("y4", "y5")))
        else:
            np.testing.assert_array_equal(colour, np.isin(names, ("y2", "y4")))
        assert not colour.flags.writeable

    @pytest.mark.parametrize("system", ("gamma0", "electrostatic"))
    def test_gamma_zero_halves_are_positions_and_velocities(self, system):
        # the former halves, the velocity blocks y4 and y5, are those of the
        # colouring, so the solves are the same
        asm = _system(system, 16)
        names = _block_names(asm)
        for p, q in spectral._plan(asm.reference, asm.reduction.mechanical):
            assert set(names[p]) <= {"y1", "y2"} and set(names[q]) <= {"y4", "y5"}

    def test_coupled_halves(self):
        # one block at gamma != 0: |P| = 2N - 1 against |Q| = 2N, so Bs has
        # one null vector (0; v), the kernel
        asm = _system("coupled", 16)
        (p, q), = spectral._plan(asm.reference, asm.reduction.mechanical)
        assert (len(p), len(q)) == (31, 32)
        names = _block_names(asm)
        assert set(names[p]) == {"y1", "y5"} and set(names[q]) == {"y2", "y4"}
        solve = open_loop_modes(asm)
        kernel, = solve.kernel
        v = solve.mode(kernel)
        assert np.all(v[p] == 0.0) and np.all(v.imag == 0.0)
        assert solve.facts[0][kernel] == 0.0  # g is exactly 0 on Q

    def test_odd_cycle_leaves_an_entry_in_one_colour(self):
        # a triangle of free blocks cannot be 2-coloured; the edge whose ends
        # share a colour stays, for the spectral solve to refuse
        colour = generator._two_colours([{1, 2}, {0, 2}, {0, 1}])
        np.testing.assert_array_equal(colour, (False, True, True))
        np.testing.assert_array_equal(generator._two_colours([{1}, {0, 2}, {1}, set()]),
                                      (False, True, False, False))


class TestBipartiteRoute:
    """Bipartite blocks, solved by one SVD, against eig and eigh of the same S."""

    CASES = ([("electrostatic", n) for n in (16, 64, 256)]
             + [("gamma0", n) for n in (16, 64, 128)] + [("coupled", n) for n in (32, 64)])

    @pytest.mark.parametrize("system, n", CASES[:6])
    def test_matches_dense_solvers(self, system, n):
        asm = _system(system, n)
        ref = asm.reference
        plan = spectral._plan(ref, asm.reduction.mechanical)
        assert len(plan) == (1 if system == "electrostatic" else 2)
        report = compute_spectrum(asm)
        rho = report.g_norm
        w, v = scipy.linalg.eig(ref.s)
        assert _set_distance(report.eigenvalues, w) <= 1e-12 * rho
        theta = np.sort(-report.eigenvalues.imag)  # the skew part's eigenvalues
        want = np.linalg.eigvalsh(0.5j * (ref.s - ref.s.T))
        assert np.max(np.abs(theta - want)) <= 1e-12 * rho
        # on the imaginary axis by structure, not by tolerance
        assert report.max_abs_real == 0.0
        order = spectral._sort_order(w)
        w, v = w[order], v[:, order]
        stabilizable, block = spectral._mode_table(
            np.abs(ref.coupling @ v), *_column_norms(v, asm.reduction.mechanical))
        np.testing.assert_array_equal(report.stabilizable, stabilizable)
        np.testing.assert_array_equal(report.dominant_block, block)

    @pytest.mark.parametrize("system, n", CASES)
    def test_eigenpair_residual(self, system, n):
        # the residual of every built vector (within 1e-12 of the spectral
        # radius on the coupled block), and the real parts: exactly 0, where
        # the Rayleigh quotients of S on the built vectors are 0 to rounding
        asm = _system(system, n)
        s = asm.reference.s
        w, v = _all_modes(asm)
        rho = np.max(np.abs(w))
        tol = 1e-12 if system == "coupled" else 1e-10
        for start in range(0, len(w), spectral.TABLE_BLOCK):
            cols = slice(start, start + spectral.TABLE_BLOCK)
            res = np.linalg.norm(s @ v[:, cols] - v[:, cols] * w[cols], axis=0)
            assert np.max(res) <= tol * rho
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0, atol=1e-14)
        assert np.all(w.real == 0.0)
        rayleigh = np.einsum("ij,ij->j", v.conj(), s @ v).real
        assert np.max(np.abs(rayleigh)) <= 1e-13 * rho

    @pytest.mark.parametrize("system", ("gamma0", "electrostatic", "coupled"))
    @pytest.mark.parametrize("part", ("positions", "velocities"))
    def test_tiny_diagonal_entry_raises(self, system, part):
        # one 1e-300 entry in S_PP or S_QQ of a block leaves it not
        # bipartite: the spectrum and the closed loop refuse it, naming the
        # block, as there is no other route
        asm = _system(system, 32)
        ref = asm.reference
        s = ref.s.copy()
        p, q = spectral._plan(ref, asm.reduction.mechanical)[-1]  # the last block
        idx = p if part == "positions" else q
        s[idx[3], idx[5]] = 1e-300
        asm.__dict__["reference"] = dataclasses.replace(ref, s=s)
        name = {"gamma0": "field", "electrostatic": "whole", "coupled": "whole"}[system]
        for call in (lambda: compute_spectrum(asm), lambda: closed_loop_spectrum(asm, 1.0)):
            with pytest.raises(ValueError, match=f"the {name} block of S is not bipartite"):
                call()

    def test_rectangular_block_has_the_translation_kernel(self):
        # at gamma = 0 the mechanical Bs maps the N + 1 velocities y4 to the
        # N strains y1; its null vector is the rigid translation
        asm = _system("gamma0", 32)
        (p, q), (p_em, q_em) = spectral._plan(asm.reference, asm.reduction.mechanical)
        assert (len(p), len(q)) == (32, 33) and len(p_em) == len(q_em) == 31
        report = compute_spectrum(asm)
        assert report.kernel_dimension == 1
        assert report.eigenvalues[0] == 0.0
        assert report.dominant_block[0] == "mechanical"
        v = open_loop_modes(asm).mode(0)
        assert np.all(v[p] == 0.0) and np.all(v.imag == 0.0)

    def test_eig_is_never_called(self, monkeypatch):
        # the solver is looked up per call, so a wrapper on scipy.linalg.eig
        # sees every dense eig: none for any open-loop call and none for a
        # closed-loop spectrum, which reads the same solve; one SVD per block
        calls = _count_solves(monkeypatch)
        systems = (_system("electrostatic", 16), _system("gamma0", 16),
                   assemble_generator(TOY, build_grid(TOY.L, 16)),
                   assemble_charge_magnetic(TOY, build_grid(TOY.L, 16)))
        for asm in systems:
            compute_spectrum(asm)
            closed_loop_mode_shifts(asm, 1.0)
            open_loop_modes(asm).mode(0)
            closed_loop_spectrum(asm, 1.0)
        assert calls == ["svd"] * 5


class TestCoupledRoute:
    """The open loop at gamma != 0, one bipartite block, against eig and eigh
    of the same S: on the halves {y1, y5} and {y2, y4} for the six-field
    models, {y1} and {y4} for the electrostatic one."""

    @pytest.mark.parametrize("params", (TOY, toy_parameters(gamma=0.5),
                                        toy_parameters(gamma=-1.3), NON_UNIT),
                             ids=("gamma1", "gamma0.5", "gamma-1.3", "non_unit"))
    @pytest.mark.parametrize("n", (32, 64, 128))
    @pytest.mark.parametrize("build", (assemble_generator, assemble_charge_magnetic,
                                       assemble_electrostatic),
                             ids=("current", "charge_magnetic", "electrostatic"))
    def test_matches_dense_solvers(self, build, n, params):
        asm = build(params, build_grid(params.L, n))
        ref, red = asm.reference, asm.reduction
        (p, q), = spectral._plan(ref, red.mechanical)
        static = build is assemble_electrostatic
        assert (len(p), len(q)) == ((n, n) if static else (2 * n - 1, 2 * n))
        report = compute_spectrum(asm)
        rho = report.g_norm
        w, v = scipy.linalg.eig(ref.s)
        order = spectral._sort_order(w)
        w, v = w[order], v[:, order]
        assert np.max(np.abs(report.eigenvalues - w)) <= 1e-13 * rho
        # |B* phi| against the vectors of eigh of the skew part, which eig's
        # own vectors miss by up to 2e-10 where modes are close
        theta, u = np.linalg.eigh(0.5j * (ref.s - ref.s.T))
        want = np.abs(ref.coupling @ u[:, spectral._sort_order(-1j * theta)])
        assert np.max(np.abs(report.bstar_abs - want)) <= 1e-11
        stabilizable, block = spectral._mode_table(
            np.abs(ref.coupling @ v), *_column_norms(v, red.mechanical))
        np.testing.assert_array_equal(report.stabilizable, stabilizable)
        np.testing.assert_array_equal(report.dominant_block, block)
        kernel = np.count_nonzero(np.abs(w) <= spectral.ZERO_MODE_REL_TOL * rho)
        assert report.kernel_dimension == kernel == (0 if static else 1)
        # exact conjugate pairs after the kernel, on the imaginary axis
        pairs = report.eigenvalues[report.kernel_dimension:]
        np.testing.assert_array_equal(pairs[0::2], np.conj(pairs[1::2]))
        assert report.max_abs_real == 0.0

    def test_symmetric_part_norm(self):
        # ||sym S||_2 read on the halves against the dense 2-norm of sym S
        for asm in (_system("coupled", 32), _system("gamma0", 32),
                    _system("electrostatic", 32)):
            s = asm.reference.s
            want = np.linalg.norm(0.5 * (s + s.T), 2)
            got = spectral.symmetric_part_norm(asm)
            assert abs(got - want) <= 1e-14 * np.abs(s).max()
            assert got <= 1e-11 * compute_spectrum(asm).g_norm

    def test_real_parts_are_zero_on_bipartite_blocks(self):
        # every real part is exactly 0, on the split blocks at gamma = 0 as
        # on the whole S at gamma = 1; a 1e-300 entry in the field block's
        # S_PP leaves it not bipartite, and the solve refuses it
        for system in ("gamma0", "coupled"):
            asm = _system(system, 32)
            solve = open_loop_modes(asm)
            assert np.all(solve.values.real == 0.0) and not solve.values.flags.writeable
        asm = _system("gamma0", 32)
        ref, red = asm.reference, asm.reduction
        s = ref.s.copy()
        _, (p, _) = spectral._plan(ref, red.mechanical)
        s[p[3], p[5]] = 1e-300
        with pytest.raises(ValueError, match="the field block of S is not bipartite"):
            spectral._blockwise(dataclasses.replace(ref, s=s), red.mechanical)

    @pytest.mark.parametrize("value", (np.nan, np.inf))
    @pytest.mark.parametrize("system", ("coupled", "gamma0"))
    @pytest.mark.parametrize("block", ("positions", "coupling"))
    def test_non_finite_entry_raises(self, system, block, value):
        # one NaN or Inf in S raises ValueError: in S_PP it leaves the block
        # not bipartite, and between the halves the SVD refuses it, for the
        # spectrum, the shifts and the closed loop alike
        asm = _system(system, 16)
        ref, red = asm.reference, asm.reduction
        p, q = spectral._plan(ref, red.mechanical)[-1]
        s = ref.s.copy()
        s[p[2], (p if block == "positions" else q)[3]] = value
        ref = asm.__dict__["reference"] = dataclasses.replace(ref, s=s)
        match = ("must not contain infs or NaNs" if block == "coupling"
                 else "block of S is not bipartite")
        for call in (lambda: spectral._blockwise(ref, red.mechanical),
                     lambda: compute_spectrum(asm),
                     lambda: closed_loop_mode_shifts(asm, 1.0),
                     lambda: closed_loop_spectrum(asm, 1.0),
                     lambda: open_loop_modes(asm)):
            with pytest.raises(ValueError, match=match):
                call()


class TestSortedSolves:
    """Each sorted eigenvector a ``mode`` getter builds is the former sorted column."""

    @pytest.mark.parametrize("system", ("gamma0", "electrostatic", "coupled"))
    def test_bipartite_placement_equals_factors_then_sort(self, system):
        # each bipartite block's vectors (u; -+ i v)/sqrt(2), and its null
        # vectors, placed block-diagonally from the SVD of its Bs and then
        # sorted, are the getter's vectors bit for bit
        asm = _system(system, 32)
        s, red = asm.reference.s, asm.reduction
        values, columns = [], []
        for p, q in spectral._plan(asm.reference, red.mechanical):
            # Bs formed as the solve forms it, down to the signs of its zeros,
            # which the SVD's Householder reflections read
            u, sigma, vt = scipy.linalg.svd((-0.5 * (s[np.ix_(q, p)] - s[np.ix_(p, q)].T)).T)
            r, half = len(sigma), np.sqrt(0.5)
            block = np.zeros((len(s), len(p) + len(q)), dtype=complex)
            block.real[p, :r] = block.real[p, r:2 * r] = half * u[:, :r]
            block.imag[q, :r] = -(half * vt[:r].T)
            block.imag[q, r:2 * r] = half * vt[:r].T
            if len(p) > len(q):
                block.real[p, 2 * r:] = u[:, r:]
            else:
                block.real[q, 2 * r:] = vt[r:].T
            theta = np.concatenate((sigma, -sigma, np.zeros(len(p) + len(q) - 2 * r)))
            values.append(-1j * theta)
            columns.append(block)
        w = np.concatenate(values)
        order = spectral._sort_order(w)
        solve = spectral._blockwise(asm.reference, red.mechanical)
        np.testing.assert_array_equal(solve.values, w[order])
        want_v = np.hstack(columns)[:, order]
        for j in range(len(w)):
            assert solve.mode(j).tobytes() == want_v[:, j].tobytes()
        # the facts read from the factors are those of the built vectors
        want = (np.abs(asm.reference.coupling @ want_v),
                *_column_norms(want_v, red.mechanical))
        for got, fact in zip(solve.facts, want):
            np.testing.assert_allclose(got, fact, rtol=1e-13, atol=1e-13 * np.max(fact))

    def test_mode_is_a_new_vector(self):
        # the getter builds each vector anew, so changing one leaves the next
        # call alone, on the one coupled block as on the electrostatic one
        for asm in (_report(16)[0], _system("electrostatic", 16)):
            mode = open_loop_modes(asm).mode
            x = mode(3)
            want = x.copy()
            x[:] = 0.0
            assert mode(3).tobytes() == want.tobytes()

    def test_chunked_shifts_equal_one_chunk(self, monkeypatch):
        # 510 coupled modes at N = 128 (the kernel's null vector (0; v) lies
        # on Q, where g is exactly 0): four chunks of TABLE_BLOCK roots
        # against one, on the same modes
        asm, _ = _report(128, gamma=1.0)
        omega, c2 = _modes(asm)
        chunked = spectral._closed_loop_roots(omega, c2, 1.0)
        assert np.count_nonzero(c2) == 510 > 3 * spectral.TABLE_BLOCK
        monkeypatch.setattr(spectral, "TABLE_BLOCK", 511)
        assert chunked.tobytes() == spectral._closed_loop_roots(omega, c2, 1.0).tobytes()

    def test_chunked_failure_names_the_same_mode(self, monkeypatch):
        # four sweeps leave the strong charge coupling at N = 64 with roots
        # still moving in more than one chunk of 16 rows
        asm = assemble_charge_magnetic(TOY, build_grid(TOY.L, 64))
        monkeypatch.setattr(spectral, "ABERTH_MAX_SWEEPS", 4)
        messages = []
        for rows in (spectral.TABLE_BLOCK, 16):
            monkeypatch.setattr(spectral, "TABLE_BLOCK", rows)
            with pytest.raises(SecularNotConverged) as err:
                closed_loop_mode_shifts(asm, 1.0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert int(messages[0].split()[0]) > 16
        # every mode of nonzero weight enters the solve
        coupled = np.count_nonzero(_modes(asm)[1])
        assert f"of {coupled} closed-loop roots still moved after 4 sweeps" in messages[0]


class TestDenseMemoryScript:
    def test_smoke_at_n16(self, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "dense_memory.py"
        spec = importlib.util.spec_from_file_location("dense_memory", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--n-cells", "16"]) == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()
                 if not line.startswith("#")]
        header = [cell for c in script.COLUMNS
                  for cell in ((c, "s") if c in script.SOLVED
                               else (c, "ref_s") if c == "ref_peak"
                               else (c, "pxi_s") if c == "pxi" else (c,))]
        assert lines[0] == ["model", "gamma", "dim", "halves", *header]
        rows = lines[1:]
        # |P|x|Q| of each block of the solve: the mechanical and the field
        # block at gamma = 0, the whole S at gamma = 1
        assert [row[:4] for row in rows] == [
            [model, gamma, dim, halves]
            for model, dim, halves in (("current", "63", ("16x17+15x15", "31x32")),
                                       ("charge_magnetic", "63", ("16x17+15x15", "31x32")),
                                       ("electrostatic", "32", ("16x16", "16x16")))
            for gamma, halves in zip(("0", "1"), halves)]
        for row in rows:
            assert len(row) == 4 + len(header)
            values = [float(cell.rstrip("*")) for cell, name in zip(row[4:], header)
                      if name not in ("s", "ref_s", "pxi_s")]
            assert len(values) == len(script.COLUMNS) and min(values) >= 0.0
            seconds = [float(cell) for cell, name in zip(row[4:], header)
                       if name in ("s", "ref_s", "pxi_s")]
            assert len(seconds) == 2 + len(script.SOLVED) and min(seconds) >= 0.0


class TestEnergyReference:
    """Every spectral path reads one dense reference per assembly."""

    def test_one_cholesky_for_every_spectral_call(self, monkeypatch):
        # one Cholesky factorization per free block, all made on the first
        # spectral call, and one open-loop solve (one SVD per block of its
        # plan) serve every spectral call, and no call factors M_red or
        # S again; only y1, where c P_xi lives (c != 0 at gamma = 1), is
        # factored dense, the banded and diagonal blocks by cholesky_banded
        calls = []

        def counting(kind, factor):
            def call(a, *args, **kwargs):
                calls.append((kind, a.shape[-1]))
                return factor(a, *args, **kwargs)
            return call

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        monkeypatch.setattr(generator, "cholesky", counting("dense", scipy.linalg.cholesky))
        monkeypatch.setattr(generator, "cholesky_banded",
                            counting("banded", scipy.linalg.cholesky_banded))
        solves = _count_solves(monkeypatch)  # scipy.linalg.eig raises too
        for name in ("svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, refused(name))
        for gamma, route, dense in ((0.0, ["svd", "svd"], ()), (1.0, ["svd"], ("y1",))):
            calls.clear()
            solves.clear()
            params = toy_parameters(gamma=gamma)
            asm = assemble_generator(params, build_grid(1.0, 16))
            compute_spectrum(asm)
            first = list(calls)
            closed_loop_spectrum(asm, 0.5)
            closed_loop_mode_shifts(asm, 0.5)
            open_loop_modes(asm)
            kernel_basis(asm)
            modal_state(asm, 1)
            assert calls == first
            free = {name: asm.blocks[name] for name in ("y1", "y2", "y4", "y5")}
            want = [("dense" if name in dense else "banded", sl.stop - sl.start)
                    for name, sl in free.items()]
            assert sorted(first) == sorted(want)
            assert solves == route
            assert len(route) == len(spectral._plan(asm.reference, asm.reduction.mechanical))

    @pytest.mark.parametrize("n", (16, 32, 64))
    @pytest.mark.parametrize("params", (toy_parameters(gamma=0.0), TOY,
                                        toy_parameters(gamma=-1.3), NON_UNIT),
                             ids=("gamma0", "gamma1", "gamma-1.3", "non_unit"))
    @pytest.mark.parametrize("build", (assemble_generator, assemble_charge_magnetic,
                                       assemble_electrostatic),
                             ids=("current", "charge_magnetic", "electrostatic"))
    def test_blocks_match_the_whole_matrix_oracle(self, build, params, n):
        # the reference formed by free blocks against the whole-matrix
        # route: the dense M_red = T^T M T, its one Cholesky factor R,
        # S = R G_red R^{-1} and g = R^{-T} T^T M b
        asm = build(params, build_grid(params.L, n))
        ref, red = asm.reference, asm.reduction
        t = red.t_map
        m_red = (t.T @ (gram(asm.energy_parts, asm.dim) @ t)).toarray()
        m_red = 0.5 * (m_red + m_red.T)
        r = scipy.linalg.cholesky(m_red, lower=False)
        g_red = (_dense_g(asm) @ t)[red.keep]
        s = scipy.linalg.solve_triangular(r.T, (r @ g_red).T, lower=True).T
        g = scipy.linalg.solve_triangular(r, t.T @ asm.b_dual, trans="T")
        assert np.max(np.abs(ref.r.T @ ref.r - m_red)) <= 1e-13 * np.max(np.abs(m_red))
        assert np.max(np.abs(ref.s - s)) <= 1e-12 * np.max(np.abs(s))
        assert np.max(np.abs(ref.coupling - g)) <= 1e-13 * np.max(np.abs(g))
        # the oracle's S is bipartite on the same halves
        oracle = dataclasses.replace(ref, s=s)
        for (p, q), want in zip(spectral._plan(ref, red.mechanical),
                                spectral._plan(oracle, red.mechanical), strict=True):
            np.testing.assert_array_equal(np.concatenate((p, q)), np.concatenate(want))
        # R is exactly zero off its free blocks, S on S_PP and S_QQ of the
        # colouring and, at gamma = 0, on the mechanical/field cross blocks
        block = np.full(len(red.keep), -1)
        for i, name in enumerate(("y1", "y2", "y4", "y5")):
            if name in asm.blocks:
                block[np.isin(red.keep, np.arange(asm.dim)[asm.blocks[name]])] = i
        assert np.all(block >= 0)
        assert not np.any(ref.r[block[:, None] != block[None, :]])
        for half in (~ref.colour, ref.colour):
            assert not np.any(ref.s[np.ix_(half, half)])
        if params.gamma == 0.0:
            fields = np.setdiff1d(np.arange(len(red.keep)), red.mechanical)
            assert not np.any(ref.s[np.ix_(red.mechanical, fields)])
            assert not np.any(ref.s[np.ix_(fields, red.mechanical)])

    def test_refuses_a_coupling_between_free_blocks(self):
        # an energy part that couples y4 and y5 puts an entry of M_red
        # between two free blocks, and a nonlocal part on the bound block y6
        # is no free block: either is refused before any factor is formed
        asm = assemble_generator(TOY, build_grid(TOY.L, 16))
        y4, y5 = asm.blocks["y4"], asm.blocks["y5"]
        span, k = slice(y4.start, y5.stop), y5.start - y4.start
        size = span.stop - span.start
        coupling = sparse.csr_array((np.full(4, 1e-3), ([0, 0, k, k], [0, k, 0, k])),
                                    shape=(size, size))
        for name, part, match in (
                ("coupling", (span, coupling), "between two free blocks"),
                ("nonlocal_y6", (asm.blocks["y6"], HelmholtzInverse(1.0, asm.ops)),
                 "'nonlocal_y6' is not one free block")):
            bad = dataclasses.replace(asm, energy_parts={**asm.energy_parts, name: part})
            with pytest.raises(FreeBlockCoupling, match=match):
                bad.reference

    @pytest.mark.parametrize("params", (TOY, NON_UNIT, toy_parameters(gamma=0.0),
                                        BOX_CORNER),
                             ids=("toy", "non_unit", "gamma0", "stiff_corner"))
    def test_cholesky_has_no_field_rows_in_mechanical_columns(self, params):
        # M_red couples no mechanical coordinate to a field one, and Cholesky
        # fill-in stays inside each block, so both mechanical/field blocks of
        # R are exactly zero and a mode's mechanical energy is ||v[mech]||^2
        # of its energy coordinates v
        asm = assemble_generator(params, build_grid(params.L, 32))
        r = asm.reference.r
        mech = asm.reduction.mechanical
        em = np.setdiff1d(np.arange(r.shape[0]), mech)
        assert len(mech) and len(em)
        assert np.count_nonzero(r[np.ix_(em, mech)]) == 0
        assert np.count_nonzero(r[np.ix_(mech, em)]) == 0

    def test_spectra_lift_no_eigenvectors(self, monkeypatch):
        # once the reference is formed, neither spectrum makes a triangular
        # solve with more than one right-hand side
        asm = assemble_generator(TOY, build_grid(1.0, 16))
        assert asm.reference is not None  # R, S and g are formed before the spy
        widths = []

        def spying(a, b, *args, **kwargs):
            widths.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
            return solve(a, b, *args, **kwargs)

        solve = scipy.linalg.solve_triangular
        monkeypatch.setattr(scipy.linalg, "solve_triangular", spying)
        monkeypatch.setattr(generator, "solve_triangular", spying)
        compute_spectrum(asm)
        closed_loop_spectrum(asm, 0.5)
        assert max(widths, default=1) == 1
        kernel_basis(asm)  # the spy sees the spectral module's one lift
        assert widths == [1]

    def test_coupling_matches_long_double_solve(self):
        # g = R^{-T} T^T M b, checked against forward substitution in long
        # double on the same R: at N = 256, gamma = 0 g is within 6e-16 of
        # it and every mode with |c| > 1e-8 within 1e-11 relative
        # (g = R cho_solve(M_red, .) read 1.4e-14, and 2.4e-9 on the
        # highest mode's |c|)
        asm, _ = _report(256, gamma=0.0)
        ref = asm.reference
        rhs = (asm.reduction.t_map.T @ asm.b_dual).astype(np.longdouble)
        r = ref.r.astype(np.longdouble)
        g = np.zeros_like(rhs)
        for i in range(len(rhs)):  # R^T g = rhs, R^T lower triangular
            g[i] = (rhs[i] - r[:i, i] @ g[:i]) / r[i, i]
        assert np.max(np.abs(ref.coupling - g)) <= 1e-14 * np.max(np.abs(g))
        # the shifts' own |c| = |g^T u|, read from the real products of g
        # with the SVD factors of each bipartite block, against the long
        # double product with their eigenvectors
        omega, _, coupling, _ = closed_loop_mode_shifts(asm, 1.0)
        solve = spectral._blockwise(ref, asm.reduction.mechanical)
        u = np.column_stack([solve.mode(int(np.flatnonzero(solve.omega == w)[0]))
                             for w in omega])
        want = np.abs(u.conj().T.astype(np.clongdouble) @ g).astype(float)
        big = want > 1e-8
        assert np.count_nonzero(big) == 128  # the positive members of the odd EM pairs
        assert np.max(np.abs(coupling[big] - want[big]) / want[big]) <= 1e-11


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
