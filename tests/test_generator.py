"""Generator assembly: skewness, gauge invariance, control influence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piezolab.generator import (assemble_control, assemble_generator, b_star,
                                with_influence)
from piezolab.model import (StateVector, block_slices, build_grid,
                            toy_parameters, validate_parameters)
from piezolab.operators import ActuationMode, build_operators, gauge_residual
from piezolab.variants import build_system

TOY = toy_parameters()


def _assembly(n=16, params=TOY):
    return assemble_generator(params, build_grid(params.L, n))


def _ops(n):
    grid = build_grid(TOY.L, n)
    return grid, build_operators(TOY, grid)


class TestSkewness:
    def test_toy_n16(self):
        assert _assembly(16).skew_defect <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_parameter_sets(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.5, 2.0, size=7)
        p = validate_parameters(dict(rho=vals[0], alpha=vals[1],
                                     gamma=rng.uniform(-2.0, 2.0),
                                     eps1=vals[2], eps3=vals[3], mu=vals[4],
                                     h=vals[5], L=vals[6]))
        assert _assembly(16, p).skew_defect <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_form_has_no_real_part(self, seed):
        asm = _assembly(16)
        y = np.random.default_rng(seed).standard_normal(asm.dim)
        norm2 = y @ (asm.m @ y)
        assert abs(y @ (asm.m @ (asm.g @ y))) <= 1e-12 * max(norm2, 1.0)


class TestSplitForm:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 48),
           actuation=st.sampled_from([ActuationMode.CURRENT,
                                      ActuationMode.CHARGE_MAGNETIC,
                                      ActuationMode.CHARGE_ELECTROSTATIC]))
    @settings(max_examples=25, deadline=None)
    def test_split_equals_dense(self, seed, n, actuation):
        # G0 + C A^{-1} K reproduces the dense reference generator
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0.5, 2.0, size=7)
        p = validate_parameters(dict(rho=vals[0], alpha=vals[1],
                                     gamma=rng.uniform(-2.0, 2.0),
                                     eps1=vals[2], eps3=vals[3], mu=vals[4],
                                     h=vals[5], L=vals[6]))
        asm = build_system(p, build_grid(p.L, n), actuation)
        split = asm.split
        assert split.shape == asm.g.shape
        g = split.g0.toarray() + split.c.toarray() @ np.linalg.solve(
            split.a.toarray(), split.k.toarray())
        assert np.linalg.norm(g - asm.g) <= 1e-12 * np.linalg.norm(asm.g)

    def test_influence_keeps_split(self):
        asm = _assembly(16)
        swapped = with_influence(asm, np.ones(asm.dim), "test")
        assert swapped.split is asm.split


class TestStructure:
    def test_gamma_zero_block_decoupling(self):
        p = toy_parameters(gamma=0.0)
        asm = _assembly(24, p)
        sl = block_slices(asm.grid)
        mech = np.r_[np.arange(sl["y1"].start, sl["y1"].stop),
                     np.arange(sl["y4"].start, sl["y4"].stop)]
        em = np.r_[np.arange(sl["y2"].start, sl["y2"].stop),
                   np.arange(sl["y3"].start, sl["y3"].stop),
                   np.arange(sl["y5"].start, sl["y5"].stop),
                   np.arange(sl["y6"].start, sl["y6"].stop)]
        assert np.all(asm.g[np.ix_(mech, em)] == 0.0)
        assert np.all(asm.g[np.ix_(em, mech)] == 0.0)

    def test_rigid_translation_in_kernel(self):
        asm = _assembly(16)
        y = StateVector.zero(asm.grid)
        vec = y.flat().copy()
        vec[block_slices(asm.grid)["y4"]] = 1.0
        np.testing.assert_allclose(asm.g @ vec, 0.0, atol=1e-14)

    def test_constraint_invariance(self):
        # G maps the gauge manifold into itself: G T = T G_red
        assert _assembly(32).gauge_defect <= 1e-12

    def test_invertible_off_the_kernel(self):
        # on the constraint-reduced subspace the kernel is one-dimensional;
        # every other singular value is bounded away from zero
        asm = _assembly(32)
        sing = np.linalg.svd(asm.reduction.g_red, compute_uv=False)
        assert sing[-1] <= 1e-10 * sing[0]
        assert sing[-2] >= 1e-6 * sing[0]


class TestControlInfluence:
    def test_unit_coefficient(self):
        p = validate_parameters(dict(rho=1, alpha=1, gamma=1, eps1=12,
                                     eps3=1, mu=1, h=1, L=1))
        grid = build_grid(1.0, 16)
        b = assemble_control(p, grid)
        sl = block_slices(grid)["y5"]
        np.testing.assert_array_equal(b[sl], 1.0)

    def test_support_is_y5_only(self):
        grid = build_grid(1.0, 16)
        b = assemble_control(TOY, grid)
        assert np.count_nonzero(b) == 15
        sl = block_slices(grid)["y5"]
        assert np.all(b[sl] != 0.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_adjoint_is_y5_quadrature(self, seed):
        # b^T M z must equal (dx/h) * sum(z5) for every state
        asm = _assembly(24)
        z = np.random.default_rng(seed).standard_normal(asm.dim)
        z5 = z[block_slices(asm.grid)["y5"]]
        expected = (asm.grid.dx / asm.params.h) * z5.sum()
        assert b_star(z, asm) == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestBStar:
    def test_constant_profile(self):
        # interior-node quadrature of 1 gives dx*(N-1) = 1 - dx, not 1
        asm = _assembly(64)
        z = StateVector.zero(asm.grid).flat().copy()
        z[block_slices(asm.grid)["y5"]] = 1.0
        val = b_star(z, asm)
        assert val == pytest.approx(1.0 - asm.grid.dx, rel=1e-12)
        assert abs(val - 1.0) <= 2.0 / 64

    def test_odd_harmonic_vanishes(self):
        asm = _assembly(64)
        x = asm.grid.node_coords[1:-1]
        z = StateVector.zero(asm.grid).flat().copy()
        z[block_slices(asm.grid)["y5"]] = np.sin(2.0 * np.pi * x)
        assert abs(b_star(z, asm)) <= 1e-12

    def test_half_sine(self):
        asm = _assembly(128)
        x = asm.grid.node_coords[1:-1]
        z = StateVector.zero(asm.grid).flat().copy()
        z[block_slices(asm.grid)["y5"]] = np.sin(np.pi * x)
        assert b_star(z, asm) == pytest.approx(2.0 / np.pi, rel=1e-4)


class TestGaugeResidual:
    def test_projection_exact(self):
        grid, ops = _ops(32)
        rng = np.random.default_rng(2)
        y = StateVector.gauge_projected(rng.standard_normal(32),
                                        rng.standard_normal(31),
                                        rng.standard_normal(33),
                                        rng.standard_normal(31),
                                        grid, TOY)
        rp, rv = gauge_residual(y, ops)
        assert rp <= 1e-14 and rv <= 1e-14

    def test_perturbation_linearity(self):
        grid, ops = _ops(32)
        rng = np.random.default_rng(4)
        y = StateVector.gauge_projected(np.zeros(32), rng.standard_normal(31),
                                        np.zeros(33), rng.standard_normal(31),
                                        grid, TOY)
        delta = 1e-3 * rng.standard_normal(32)
        bad = StateVector(y.y1, y.y2, y.y3 + delta, y.y4, y.y5, y.y6,
                          grid=grid)
        rp, _ = gauge_residual(bad, ops)
        expected = np.linalg.norm(delta) / np.linalg.norm(bad.y3)
        assert rp == pytest.approx(expected, rel=1e-10)

    def test_interior_drops_boundary_cells(self):
        grid, ops = _ops(16)
        y = StateVector.zero(grid)
        y3 = np.zeros(16)
        y3[0] = y3[-1] = 1.0
        bad = StateVector(y.y1, y.y2, y3, y.y4, y.y5, y.y6, grid=grid)
        assert gauge_residual(bad, ops)[0] == pytest.approx(1.0)
        assert gauge_residual(bad, ops, interior=True)[0] == 0.0


class TestWithInfluence:
    def test_replaces_vector_and_label(self):
        asm = _assembly(16)
        b_new = np.zeros(asm.dim)
        b_new[0] = 2.0
        alt = with_influence(asm, b_new, "probe")
        assert alt.influence == "probe"
        np.testing.assert_array_equal(alt.b, b_new)
        np.testing.assert_array_equal(alt.g, asm.g)

