"""Difference operators, the Helmholtz inverse, the Gram matrix, and energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piezolab.errors import GaugeViolation
from piezolab.model import (StateVector, block_slices, build_grid,
                            toy_parameters, validate_parameters)
from piezolab.operators import (apply_p_xi, assemble_mass, build_operators,
                                energy, p_xi_identity_check)

TOY = toy_parameters()


def _ops(n=32, params=TOY):
    grid = build_grid(params.L, n)
    return grid, build_operators(params, grid)


class TestAdjointStructure:
    """grad (interior nodes -> cells) and -div must be mutual adjoints."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_summation_by_parts(self, seed):
        grid, ops = _ops(24)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(24)        # cell field
        w = rng.standard_normal(23)        # interior-node field, zero boundary
        lhs = grid.dx * np.dot(ops.grad_nc @ w, u)
        rhs = -grid.dx * np.dot(w, ops.div_int @ u)
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)

    def test_constants_in_laplacian_kernel(self):
        # Neumann ghost mirroring: zero flux at both faces
        grid, ops = _ops(16)
        np.testing.assert_allclose(ops.lap_cc @ np.ones(16), 0.0, atol=1e-13)

    def test_laplacian_symmetric(self):
        grid, ops = _ops(16)
        assert np.linalg.norm(ops.lap_cc - ops.lap_cc.T) == 0.0


class TestApplyPXi:
    def test_constant_fixed_point(self):
        grid, ops = _ops(16)
        np.testing.assert_allclose(apply_p_xi(3.7 * np.ones(16), ops),
                                   3.7, rtol=1e-13)

    def test_cosine_eigenfunction(self):
        # cos(pi x / L) is a Neumann eigenfunction; discrete error is O(dx^2)
        errs = []
        for n in (64, 128):
            grid, ops = _ops(n)
            z = np.cos(np.pi * grid.cell_coords / grid.L)
            exact = z / (1.0 + TOY.xi * np.pi**2 / grid.L**2)
            errs.append(np.linalg.norm(apply_p_xi(z, ops) - exact)
                        / np.linalg.norm(exact))
        assert errs[0] <= 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)

    def test_forward_residual(self):
        grid, ops = _ops(64)
        z = np.random.default_rng(5).standard_normal(64)
        w = apply_p_xi(z, ops, solver_tol=1e-12)
        assert np.linalg.norm(w - TOY.xi * (ops.lap_cc @ w) - z) \
            <= 1e-12 * np.linalg.norm(z)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_self_adjoint_and_nonnegative(self, seed):
        grid, ops = _ops(24)
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal(24), rng.standard_normal(24)
        pu, pv = apply_p_xi(u, ops), apply_p_xi(v, ops)
        scale = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(np.dot(pu, v) - np.dot(u, pv)) <= 1e-12 * scale
        assert np.dot(pu, u) >= -1e-13 * np.dot(u, u)
        # (P - I)/xi is non-positive
        assert np.dot(pu - u, u) / ops.xi <= 1e-13 * np.dot(u, u)


class TestPXiIdentity:
    def test_residual_small(self):
        unit_xi = validate_parameters(dict(rho=1, alpha=1, gamma=1, eps1=12,
                                           eps3=1, mu=1, h=1, L=1))
        for n, params in ((16, TOY), (64, TOY), (16, unit_xi)):
            grid, ops = _ops(n, params)
            assert p_xi_identity_check(ops) <= 1e-12

    def test_unit_xi_backward_error(self):
        # At xi=1 the rhs-relative defect sits on the u*||lap|| rounding floor
        # (1.6e-11 at N=64), so the identity is pinned product-scaled instead.
        grid, ops = _ops(64, validate_parameters(
            dict(rho=1, alpha=1, gamma=1, eps1=12, eps3=1, mu=1, h=1, L=1)))
        defect = np.linalg.norm(ops.lap_cc @ ops.p_dense
                                - (ops.p_dense - np.eye(64)) / ops.xi)
        scale = np.linalg.norm(ops.lap_cc) * np.linalg.norm(ops.p_dense)
        assert defect <= 1e-13 * scale

    def test_spectrum_in_unit_interval(self):
        grid, ops = _ops(48)
        lams = np.linalg.eigvalsh(0.5 * (ops.p_dense + ops.p_dense.T))
        assert lams[0] > 0.0
        assert lams[-1] <= 1.0 + 1e-12

    def test_constant_probe_annihilated(self):
        grid, ops = _ops(16)
        c = np.ones(16)
        np.testing.assert_allclose(ops.lap_cc @ apply_p_xi(c, ops), 0.0, atol=1e-12)
        np.testing.assert_allclose((apply_p_xi(c, ops) - c) / ops.xi, 0.0, atol=1e-12)


class TestMassMatrix:
    def test_symmetry_exact(self):
        grid, ops = _ops(20)
        m = assemble_mass(TOY, grid, ops)
        assert np.linalg.norm(m - m.T) == 0.0

    def test_positive_definite_on_constrained_subspace(self):
        from piezolab.generator import assemble_generator
        grid = build_grid(1.0, 32)
        asm = assemble_generator(TOY, grid)
        t = asm.reduction.t_map
        m_red = t.T @ (asm.m @ t)
        assert np.linalg.eigvalsh(0.5 * (m_red + m_red.T))[0] > 0.0

    def test_rho_block(self):
        # with the couplings switched off the y4 block is plain node quadrature
        p = validate_parameters(dict(rho=2.0, alpha=1e-30, gamma=0.0, eps1=1e-30,
                                     eps3=1e30, mu=1e-30, h=1.0, L=1.0))
        grid, ops = _ops(8, p)
        m = assemble_mass(p, grid, ops)
        sl = block_slices(grid)["y4"]
        w = np.full(9, grid.dx)
        w[0] = w[-1] = grid.dx / 2.0
        np.testing.assert_allclose(np.diag(m[sl, sl]), 2.0 * w, rtol=1e-12)


class TestEnergy:
    def test_zero_state(self):
        grid, ops = _ops(16)
        assert energy(StateVector.zero(grid), TOY, grid, ops).total == 0.0

    def test_uniform_velocity(self):
        p = validate_parameters(dict(rho=2.0, alpha=1.0, gamma=1.0, eps1=1.0,
                                     eps3=1.0, mu=1.0, h=1.0, L=1.0))
        grid, ops = _ops(16, p)
        y = StateVector.gauge_projected(np.zeros(16), np.zeros(15),
                                        np.ones(17), np.zeros(15), grid, p)
        assert energy(y, p, grid, ops).total == pytest.approx(1.0, rel=1e-12)

    def test_total_is_half_gram_quadratic(self):
        grid, ops = _ops(24)
        m = assemble_mass(TOY, grid, ops)
        rng = np.random.default_rng(9)
        y = StateVector.gauge_projected(rng.standard_normal(24),
                                        rng.standard_normal(23),
                                        rng.standard_normal(25),
                                        rng.standard_normal(23), grid, TOY)
        v = y.flat()
        assert energy(y, TOY, grid, ops).total == pytest.approx(
            0.5 * v @ (m @ v), rel=1e-12)

    def test_modal_state_matches_independent_quadrature(self):
        # y2 = sin(pi x/L) gauge-projected leaves only the magnetic term.
        # Rebuild that integral with an explicitly written trapezoid sum and,
        # separately, compare against the continuum value (1/2)mu(1+xi pi^2)^2/2.
        grid, ops = _ops(256)
        theta = np.sin(np.pi * grid.node_coords[1:-1] / grid.L)
        y = StateVector.gauge_projected(np.zeros(256), theta,
                                        np.zeros(257), np.zeros(255), grid, TOY)
        br = energy(y, TOY, grid, ops)
        theta_full = np.concatenate(([0.0], theta, [0.0]))
        eta_x = np.zeros(257)                      # flux-free at both ends
        eta_x[1:-1] = np.diff(y.y3) / grid.dx
        integrand = 0.5 * TOY.mu * (theta_full - eta_x) ** 2
        quad = np.trapezoid(integrand, dx=grid.dx)
        assert br.magnetic == pytest.approx(quad, rel=1e-10)
        exact = 0.5 * TOY.mu * (1.0 + TOY.xi * np.pi**2) ** 2 * 0.5
        assert br.total == pytest.approx(exact, rel=2e-3)

    def test_gauge_violation_rejected(self):
        grid, ops = _ops(16)
        y = StateVector.zero(grid)
        bad = StateVector(y.y1, y.y2, np.ones(16), y.y4, y.y5, y.y6, grid=grid)
        with pytest.raises(GaugeViolation):
            energy(bad, TOY, grid, ops, gauge_tol=1e-8)

    def test_components_nonnegative(self):
        grid, ops = _ops(32)
        rng = np.random.default_rng(21)
        y = StateVector.gauge_projected(rng.standard_normal(32),
                                        rng.standard_normal(31),
                                        rng.standard_normal(33),
                                        rng.standard_normal(31), grid, TOY)
        br = energy(y, TOY, grid, ops)
        for val in (br.kinetic_v, br.kinetic_theta, br.kinetic_eta,
                    br.elastic, br.nonlocal_, br.magnetic):
            assert val >= -1e-14 * br.total
