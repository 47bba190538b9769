"""Difference operators, the Helmholtz inverse, the Gram matrix, and energy."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from piezolab.generator import ENERGY_PARTS, assemble_generator, energy_parts, gram
from piezolab.model import (block_slices, build_grid, toy_parameters,
                            validate_parameters)
from piezolab.operators import _residual, build_operators, p_xi_identity_check

TOY = toy_parameters()


def _ops(n=32, params=TOY):
    grid = build_grid(params.L, n)
    return grid, build_operators(params, grid)


def _mass(params, grid, ops):
    return gram(energy_parts(params, grid, ops), grid.state_dim)


def _lifted(asm, y1, y2, y4, y5):
    """Flat state on the gauge manifold from its free blocks."""
    y = np.zeros(asm.dim)
    for name, values in (("y1", y1), ("y2", y2), ("y4", y4), ("y5", y5)):
        y[asm.blocks[name]] = values
    return asm.lift(y)


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
        lap = ops.lap_cc.toarray()
        assert np.linalg.norm(lap - lap.T) == 0.0


def _loop_stencils(grid):
    """Dense stencils filled entry by entry, the oracle for the sparse ones."""
    n, inv = grid.n_cells, 1.0 / grid.dx
    div_int = np.zeros((n - 1, n))
    for r in range(n - 1):
        div_int[r, r] = -inv
        div_int[r, r + 1] = inv
    grad_f = np.zeros((n, n + 1))
    for j in range(n):
        grad_f[j, j] = -inv
        grad_f[j, j + 1] = inv
    div_f = np.zeros((n + 1, n))
    div_f[0, 0] = 2.0 * inv
    for r in range(1, n):
        div_f[r, r - 1] = -inv
        div_f[r, r] = inv
    div_f[n, n - 1] = -2.0 * inv
    grad_nc = -div_int.T
    return {"div_int": div_int, "grad_nc": grad_nc, "grad_f": grad_f,
            "div_f": div_f, "lap_cc": grad_nc @ div_int}


class TestSparseStencils:
    """The stencils are sparse, read-only and equal to the loop-built ones."""

    @pytest.mark.parametrize("length", (1.0, 1.4))
    @pytest.mark.parametrize("n", (8, 37, 64))
    def test_match_loop_built(self, n, length):
        grid = build_grid(length, n)
        ops = build_operators(TOY, grid)
        for name, dense in _loop_stencils(grid).items():
            np.testing.assert_array_equal(getattr(ops, name).toarray(), dense)
        np.testing.assert_array_equal(
            ops.a.toarray(), np.eye(n) - TOY.xi * _loop_stencils(grid)["lap_cc"])

    @pytest.mark.parametrize("n", (8, 37, 64))
    def test_sparse_with_fixed_nnz(self, n):
        grid, ops = _ops(n)
        nnz = {"div_int": 2 * (n - 1), "grad_nc": 2 * (n - 1), "grad_f": 2 * n,
               "div_f": 2 * n, "lap_cc": 3 * n - 2, "a": 3 * n - 2}
        for name, count in nnz.items():
            stencil = getattr(ops, name)
            assert stencil.format == "csr", name
            assert stencil.nnz == count, name
            assert not stencil.data.flags.writeable, name


class TestApplyPXi:
    """P_xi as applied everywhere: the dense realization ``ops.p_dense``."""

    def test_constant_fixed_point(self):
        grid, ops = _ops(16)
        np.testing.assert_allclose(ops.p_dense @ (3.7 * np.ones(16)),
                                   3.7, rtol=1e-13)

    def test_cosine_eigenfunction(self):
        # cos(pi x / L) is a Neumann eigenfunction; discrete error is O(dx^2)
        errs = []
        for n in (64, 128):
            grid, ops = _ops(n)
            z = np.cos(np.pi * grid.cell_coords / grid.L)
            exact = z / (1.0 + TOY.xi * np.pi**2 / grid.L**2)
            errs.append(np.linalg.norm(ops.p_dense @ z - exact)
                        / np.linalg.norm(exact))
        assert errs[0] <= 1e-3
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)

    def test_forward_residual(self):
        grid, ops = _ops(64)
        z = np.random.default_rng(5).standard_normal(64)
        w = ops.p_dense @ z
        assert np.linalg.norm(w - TOY.xi * (ops.lap_cc @ w) - z) \
            <= 1e-12 * np.linalg.norm(z)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_self_adjoint_and_nonnegative(self, seed):
        grid, ops = _ops(24)
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal(24), rng.standard_normal(24)
        pu, pv = ops.p_dense @ u, ops.p_dense @ v
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
        scale = np.linalg.norm(ops.lap_cc.toarray()) * np.linalg.norm(ops.p_dense)
        assert defect <= 1e-13 * scale

    def test_spectrum_in_unit_interval(self):
        grid, ops = _ops(48)
        lams = np.linalg.eigvalsh(0.5 * (ops.p_dense + ops.p_dense.T))
        assert lams[0] > 0.0
        assert lams[-1] <= 1.0 + 1e-12

    def test_constant_probe_annihilated(self):
        grid, ops = _ops(16)
        c = np.ones(16)
        np.testing.assert_allclose(ops.lap_cc @ (ops.p_dense @ c), 0.0, atol=1e-12)
        np.testing.assert_allclose((ops.p_dense @ c - c) / ops.xi, 0.0, atol=1e-12)


def _long_double_inverse(a):
    """A^{-1} of the tridiagonal A by the Thomas algorithm in long double."""
    n = a.shape[0]
    diag = a.diagonal().astype(np.longdouble)
    off = a.diagonal(1).astype(np.longdouble)
    x = np.eye(n, dtype=np.longdouble)
    pivot = diag.copy()
    for i in range(1, n):
        factor = off[i - 1] / pivot[i - 1]
        pivot[i] -= factor * off[i - 1]
        x[i] -= factor * x[i - 1]
    x[-1] /= pivot[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (x[i] - off[i] * x[i + 1]) / pivot[i]
    return x


class TestRefinedPXi:
    """The dense P_xi: refined on the banded factor, exact in its symmetries."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("n", (16, 64, 256))
    def test_matches_long_double_inverse(self, n):
        grid, ops = _ops(n)
        exact = _long_double_inverse(ops.a)
        assert np.max(np.abs(ops.p_dense - exact) / np.abs(exact)) <= 1e-15

    def test_residual_against_exact_arithmetic(self):
        # Dot2's bound: within u |r| + gamma_4^2 sum|terms| of the exact
        # residual, where a plain evaluation errs by about u sum|terms|
        grid, ops = _ops(12)
        n, u = 12, np.finfo(float).eps / 2
        p = scipy.linalg.cho_solve_banded((ops.a_chol, False), np.eye(n, order="F"))
        got = _residual(ops.a, p)
        a = ops.a.toarray()
        for i in range(n):
            for j in range(n):
                terms = [Fraction(a[i, k]) * Fraction(p[k, j])
                         for k in range(max(i - 1, 0), min(i + 2, n))]
                exact = (i == j) - sum(terms)
                size = 1 + sum(abs(t) for t in terms)
                bound = u * abs(exact) + (4 * u / (1 - 4 * u)) ** 2 * size
                assert abs(Fraction(got[i, j]) - exact) <= bound, (i, j)

    @pytest.mark.parametrize("n", (16, 37, 64, 256))
    def test_symmetric_and_persymmetric(self, n):
        grid, ops = _ops(n)
        p = ops.p_dense
        np.testing.assert_array_equal(p, p.T)
        np.testing.assert_array_equal(p, p[::-1, ::-1])
        assert not p.flags.writeable

    def test_traced_peak(self):
        n = 512
        grid, ops = _ops(n)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ops.p_dense
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n * 8


class TestMassMatrix:
    def test_symmetry_exact(self):
        grid, ops = _ops(20)
        m = _mass(TOY, grid, ops).toarray()
        assert np.linalg.norm(m - m.T) == 0.0

    def test_positive_definite_on_constrained_subspace(self):
        grid = build_grid(1.0, 32)
        asm = assemble_generator(TOY, grid)
        t = asm.reduction.t_map
        m_red = (t.T @ (gram(asm.energy_parts, asm.dim) @ t)).toarray()
        assert np.linalg.eigvalsh(0.5 * (m_red + m_red.T))[0] > 0.0

    def test_rho_block(self):
        # with the couplings switched off the y4 block is plain node quadrature
        p = validate_parameters(dict(rho=2.0, alpha=1e-30, gamma=0.0, eps1=1e-30,
                                     eps3=1e30, mu=1e-30, h=1.0, L=1.0))
        grid, ops = _ops(8, p)
        m = _mass(p, grid, ops).toarray()
        sl = block_slices(grid)["y4"]
        w = np.full(9, grid.dx)
        w[0] = w[-1] = grid.dx / 2.0
        np.testing.assert_allclose(np.diag(m[sl, sl]), 2.0 * w, rtol=1e-12)


class TestEnergy:
    def test_zero_state(self):
        asm = assemble_generator(TOY, build_grid(TOY.L, 16))
        assert asm.energy_split(np.zeros(asm.dim))["total"] == 0.0

    def test_uniform_velocity(self):
        p = validate_parameters(dict(rho=2.0, alpha=1.0, gamma=1.0, eps1=1.0,
                                     eps3=1.0, mu=1.0, h=1.0, L=1.0))
        asm = assemble_generator(p, build_grid(p.L, 16))
        y = _lifted(asm, np.zeros(16), np.zeros(15), np.ones(17), np.zeros(15))
        assert asm.energy_split(y)["total"] == pytest.approx(1.0, rel=1e-12)

    def test_modal_state_matches_independent_quadrature(self):
        # y2 = sin(pi x/L) gauge-projected leaves only the magnetic term.
        # Rebuild that integral with an explicitly written trapezoid sum and,
        # separately, compare against the continuum value (1/2)mu(1+xi pi^2)^2/2.
        grid = build_grid(TOY.L, 256)
        asm = assemble_generator(TOY, grid)
        theta = np.sin(np.pi * grid.node_coords[1:-1] / grid.L)
        y = _lifted(asm, np.zeros(256), theta, np.zeros(257), np.zeros(255))
        br = asm.energy_split(y)
        theta_full = np.concatenate(([0.0], theta, [0.0]))
        eta_x = np.zeros(257)                      # flux-free at both ends
        eta_x[1:-1] = np.diff(y[asm.blocks["y3"]]) / grid.dx
        integrand = 0.5 * TOY.mu * (theta_full - eta_x) ** 2
        quad = np.trapezoid(integrand, dx=grid.dx)
        assert br["magnetic"] == pytest.approx(quad, rel=1e-10)
        exact = 0.5 * TOY.mu * (1.0 + TOY.xi * np.pi**2) ** 2 * 0.5
        assert br["total"] == pytest.approx(exact, rel=2e-3)

    def test_components_nonnegative(self):
        asm = assemble_generator(TOY, build_grid(TOY.L, 32))
        rng = np.random.default_rng(21)
        y = _lifted(asm, rng.standard_normal(32), rng.standard_normal(31),
                    rng.standard_normal(33), rng.standard_normal(31))
        br = asm.energy_split(y)
        for name in ENERGY_PARTS:
            assert br[name] >= -1e-14 * br["total"]
