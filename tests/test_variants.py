"""Comparison systems: electrostatic clamped-free beam, boundary charge forcing."""

import numpy as np
import pytest

from piezolab.dynamics import default_dt, modal_state, run
from piezolab.generator import assemble_generator
from piezolab.model import block_slices, build_grid, toy_parameters
from piezolab.spectral import compute_spectrum, decay_rate_fit
from piezolab.variants import (assemble_charge_magnetic, assemble_electrostatic,
                               charge_influence_norm, charge_magnetic_influence)

TOY = toy_parameters()


def _es(n=64, gamma=0.0):
    params = toy_parameters(gamma=gamma)
    return assemble_electrostatic(params, build_grid(params.L, n))


def _omegas(es):
    lams = compute_spectrum(es).eigenvalues
    return np.sort(lams.imag[lams.imag > 1e-10])


def _es_run(es, gain, y0, t_final, record_stride=1):
    dt = default_dt(es.params, es.grid)
    return run(es, y0, max(1, int(round(t_final / dt))), dt, gain=gain,
               record_stride=record_stride)


class TestElectrostaticAssembly:
    def test_skewness_exact(self):
        assert _es(32).skew_defect == 0.0
        assert _es(32, gamma=1.0).skew_defect <= 1e-12

    def test_gamma0_discrete_dispersion_exact(self):
        # the clamped-free staggered stencil has a closed-form spectrum:
        # omega_k = (2/dx) sqrt(alpha/rho) sin((k+1/2) pi / (2N))
        n = 64
        omegas = _omegas(_es(n))
        k = np.arange(n)
        dx = 1.0 / n
        exact = (2.0 / dx) * np.sin((k + 0.5) * np.pi / (2 * n))
        np.testing.assert_allclose(omegas, exact, rtol=1e-13, atol=1e-10)

    def test_gamma0_continuum_convergence(self):
        # lowest five modes approach (k+1/2) pi sqrt(alpha/rho)/L at O(dx^2)
        errs = []
        for n in (64, 128):
            omegas = _omegas(_es(n))[:5]
            exact = (np.arange(5) + 0.5) * np.pi
            errs.append(np.max(np.abs(omegas - exact) / exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)

    def test_pxi_term_stiffens(self):
        assert _omegas(_es(64, gamma=1.0))[0] > _omegas(_es(64))[0]

    def test_output_is_scaled_bstar(self):
        # the free-end velocity trace is (eps3 h / gamma) B*
        params = toy_parameters(gamma=0.7)
        es = assemble_electrostatic(params, build_grid(params.L, 32))
        coeff = params.gamma / (params.eps3 * params.h)
        np.testing.assert_allclose(es.b_dual, coeff * es.output, rtol=1e-15)
        assert not es.bstar_feedback

    def test_reduction_is_exact(self):
        # no gauge: T is the identity and the reduction copies M and G
        es = _es(32, gamma=1.0)
        red = es.reduction
        np.testing.assert_array_equal(red.m_red, es.m.toarray())
        np.testing.assert_array_equal(red.g_red, es.g)
        np.testing.assert_array_equal(red.keep, np.arange(es.dim))
        np.testing.assert_array_equal(red.mechanical, np.arange(es.dim))
        assert red.bound == ()
        assert es.gauge_defect == 0.0


class TestBoundaryFeedback:
    def test_zero_gain_conserves(self):
        es = _es(64, gamma=1.0)
        series = _es_run(es, 0.0, modal_state(es, 0), t_final=2.0)
        e = series.total_energy()
        assert np.max(np.abs(e - e[0])) <= 1e-9 * e[0]

    def test_zero_state_stays_zero(self):
        es = _es(32, gamma=1.0)
        series = _es_run(es, 1.0, np.zeros(es.dim), t_final=0.5)
        assert np.all(series.total_energy() == 0.0)

    def test_negative_gain_rejected(self):
        es = _es(16, gamma=1.0)
        with pytest.raises(ValueError):
            _es_run(es, -1.0, np.zeros(es.dim), t_final=0.1)

    def test_negative_gamma_dissipates(self):
        # the output row carries sign(gamma), so u = -k v^T y is collocated
        # for either poling direction: the energy never rises and every
        # step's power (v^T y_mid)(B* y_mid) is nonnegative
        es = _es(64, gamma=-1.0)
        dt = default_dt(es.params, es.grid)
        series = run(es, modal_state(es, 0), int(round(4.0 / dt)), dt,
                     gain=1.0, keep_states=True)
        e = series.total_energy()
        assert np.all(np.diff(e) <= 1e-12 * e[0])
        for y, y_next in zip(series.states, series.states[1:]):
            y_mid = 0.5 * (y + y_next)
            assert (es.output @ y_mid) * (es.b_dual @ y_mid) >= 0.0

    def test_decay_rate(self):
        es = _es(64, gamma=1.0)
        series = _es_run(es, 1.0, modal_state(es, 0), t_final=8.0,
                         record_stride=4)
        e = series.total_energy()
        assert np.all(np.diff(e) <= 1e-12 * e[0])     # monotone decay
        assert e[-1] > 0.0                            # no finite-time extinction
        fit = decay_rate_fit(series, (0.5, 7.5))
        assert fit.rate > 0.0
        assert fit.r_squared >= 0.99


class TestChargeMagnetic:
    def test_influence_support_and_values(self):
        grid = build_grid(1.0, 32)
        b = charge_magnetic_influence(TOY, grid)
        sl = block_slices(grid)["y4"]
        nz = np.flatnonzero(b)
        assert list(nz) == [sl.start, sl.stop - 1]
        coeff = (TOY.gamma / (TOY.rho * TOY.eps3 * TOY.h)) * (2.0 / grid.dx)
        assert b[sl.start] == pytest.approx(coeff, rel=1e-15)
        assert b[sl.stop - 1] == pytest.approx(-coeff, rel=1e-15)

    def test_same_interior_generator(self):
        grid = build_grid(1.0, 16)
        cm = assemble_charge_magnetic(TOY, grid)
        np.testing.assert_array_equal(cm.g, assemble_generator(TOY, grid).g)
        assert cm.influence == "boundary_charge"

    def test_norm_grows_without_bound(self):
        # ||b||_M = (2|gamma|/(eps3 h)) / sqrt(rho dx): doubling N scales by sqrt(2)
        norms = []
        for n in (32, 64, 128, 256):
            norms.append(charge_influence_norm(TOY, build_grid(1.0, n)))
        assert all(a < b for a, b in zip(norms, norms[1:]))
        np.testing.assert_allclose(norms, [2.0 * np.sqrt(n) for n in (32, 64, 128, 256)],
                                   rtol=1e-12)

    def test_step_response_antisymmetric(self):
        # +delta at x=0 and -delta at x=L from rest: y4 stays antisymmetric
        # about the midpoint for symmetric parameters
        grid = build_grid(1.0, 64)
        cm = assemble_charge_magnetic(TOY, grid)
        series = run(cm, np.zeros(cm.dim), n_steps=400, dt=1e-3,
                     input_fn=lambda t: 1.0, keep_states=True,
                     record_stride=100)
        sl = block_slices(grid)["y4"]
        y4 = series.states[-1][sl]
        defect = np.linalg.norm(y4 + y4[::-1]) / max(np.linalg.norm(y4), 1e-30)
        assert defect <= 1e-10
