"""Generator assembly: skewness, gauge invariance, control influence."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from piezolab import spectral
from piezolab.errors import AssemblyInconsistent
from piezolab.generator import (assemble, assemble_control, assemble_generator,
                                with_influence)
from piezolab.model import (block_slices, build_grid, toy_parameters,
                            validate_parameters)
from piezolab.operators import ActuationMode, build_operators
from piezolab.spectral import ModeRecord
from piezolab.variants import build_system

TOY = toy_parameters()
ALL_SYSTEMS = (ActuationMode.CURRENT, ActuationMode.CHARGE_MAGNETIC,
               ActuationMode.CHARGE_ELECTROSTATIC)


def _assembly(n=16, params=TOY):
    return assemble_generator(params, build_grid(params.L, n))


def _lifted(asm, y1, y2, y4, y5):
    """Flat state on the gauge manifold from its free blocks."""
    y = np.zeros(asm.dim)
    for name, values in (("y1", y1), ("y2", y2), ("y4", y4), ("y5", y5)):
        y[asm.blocks[name]] = values
    return asm.lift(y)


def _random_parameters(seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 2.0, size=7)
    return validate_parameters(dict(rho=vals[0], alpha=vals[1],
                                    gamma=rng.uniform(-2.0, 2.0),
                                    eps1=vals[2], eps3=vals[3], mu=vals[4],
                                    h=vals[5], L=vals[6]))


# the corner of the box _random_parameters draws from where xi/dx^2, and so
# cond(I - xi lap_cc), is largest: 12 300 at N = 48
BOX_CORNER = validate_parameters(dict(rho=1.0, alpha=1.0, gamma=2.0, eps1=2.0,
                                      eps3=0.5, mu=1.0, h=2.0, L=0.5))


# Dense reference constructions, written independently of the split form:
# every P_xi block is applied as a dense product, and I - P_xi comes from
# the identity lap_cc P_xi = (P_xi - I)/xi, so the gauge cancellation in
# the generator holds to rounding rather than to solver tolerance.

def _one_minus_p(ops):
    lp = ops.lap_cc @ ops.p_dense
    return -ops.xi * 0.5 * (lp + lp.T)


def _dense_six_field(params, grid, ops):
    """Dense generator, Gram matrix and lift T of the six-field model."""
    n = grid.n_cells
    sl = block_slices(grid)
    dim = grid.state_dim
    alpha, gamma = params.alpha, params.gamma
    eps1, eps3, mu, h, xi = params.eps1, params.eps3, params.mu, params.h, params.xi
    p = ops.p_dense
    one_minus_p = _one_minus_p(ops)

    g = np.zeros((dim, dim))
    g[sl["y1"], sl["y4"]] = ops.grad_f
    g[sl["y2"], sl["y5"]] = np.eye(n - 1)
    g[sl["y3"], sl["y6"]] = np.eye(n)
    stiff = alpha * np.eye(n) + (gamma ** 2 / eps3) * p
    g[sl["y4"], sl["y1"]] = (1.0 / params.rho) * (ops.div_f @ stiff)
    g[sl["y4"], sl["y6"]] = (gamma / params.rho) * (ops.div_f @ one_minus_p)
    g[sl["y4"], sl["y5"]] = (gamma * xi / params.rho) * (ops.div_f @ (p @ ops.grad_nc))
    c5 = 12.0 / (eps1 * h ** 2)
    g[sl["y5"], sl["y2"]] = -c5 * mu * np.eye(n - 1)
    g[sl["y5"], sl["y3"]] = c5 * mu * ops.div_int
    g[sl["y5"], sl["y4"]] = -(gamma / eps3) * (ops.div_int @ (p @ ops.grad_f))
    g[sl["y6"], sl["y3"]] = (mu / eps3) * ops.lap_cc
    g[sl["y6"], sl["y2"]] = -(mu / eps3) * ops.grad_nc
    g[sl["y6"], sl["y4"]] = (gamma / eps3) * (one_minus_p @ ops.grad_f)

    dx = grid.dx
    d = ops.div_int
    mu_dx = mu * dx
    m = np.zeros((dim, dim))
    m[sl["y1"], sl["y1"]] = dx * stiff
    m[sl["y4"], sl["y4"]] = params.rho * np.diag(ops.node_weights)
    m[sl["y5"], sl["y5"]] = (eps1 * h ** 2 / 12.0) * dx * np.eye(n - 1)
    m[sl["y6"], sl["y6"]] = eps3 * dx * np.eye(n)
    m[sl["y2"], sl["y2"]] = mu_dx * np.eye(n - 1)
    m[sl["y2"], sl["y3"]] = -mu_dx * d
    m[sl["y3"], sl["y2"]] = -mu_dx * d.T
    m[sl["y3"], sl["y3"]] = mu_dx * (d.T @ d)

    t = np.zeros((dim, 4 * n - 1))
    col = {"y1": slice(0, n), "y2": slice(n, 2 * n - 1),
           "y4": slice(2 * n - 1, 3 * n), "y5": slice(3 * n, 4 * n - 1)}
    t[sl["y1"], col["y1"]] = np.eye(n)
    t[sl["y2"], col["y2"]] = np.eye(n - 1)
    t[sl["y3"], col["y2"]] = xi * ops.grad_nc
    t[sl["y4"], col["y4"]] = np.eye(n + 1)
    t[sl["y5"], col["y5"]] = np.eye(n - 1)
    t[sl["y6"], col["y5"]] = xi * ops.grad_nc
    idx = np.arange(dim)
    keep = np.r_[idx[sl["y1"]], idx[sl["y2"]], idx[sl["y4"]], idx[sl["y5"]]]
    mech = np.r_[idx[sl["y1"]], idx[sl["y4"]]]
    return g, m, t, keep, mech


def _dense_electrostatic(params, grid, ops):
    """Dense generator and Gram matrix of the clamped-free model; T = I."""
    n = grid.n_cells
    stiff = params.alpha * np.eye(n) + (params.gamma ** 2 / params.eps3) * ops.p_dense
    g = np.zeros((2 * n, 2 * n))
    g[:n, n:] = ops.grad_f[:, 1:]
    g[n:, :n] = (1.0 / params.rho) * (ops.div_f[1:, :] @ stiff)
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = grid.dx * stiff
    m[n:, n:] = params.rho * np.diag(ops.node_weights[1:])
    idx = np.arange(2 * n)
    return g, m, np.eye(2 * n), idx, idx


def _dense_reference(asm, actuation):
    """G, M, T, M_red, G_red and b_red of an assembly's model, all dense."""
    ops = build_operators(asm.params, asm.grid)
    build = (_dense_electrostatic if actuation is ActuationMode.CHARGE_ELECTROSTATIC
             else _dense_six_field)
    g, m, t, keep, mech = build(asm.params, asm.grid, ops)
    m_red = t.T @ (m @ t)
    m_red = 0.5 * (m_red + m_red.T)
    b_red = scipy.linalg.solve(m_red, t.T @ (m @ asm.b), assume_a="pos")
    return SimpleNamespace(g=g, m=m, t=t, m_red=m_red, g_red=(g @ t)[keep],
                           b_red=b_red, mech=mech)


def _lifted_mode_table(ref, b, w, norms, phi_red, eig_tol=1e-8):
    """Mode records from eigenvectors lifted through the dense T and M."""
    phi = ref.t @ phi_red
    bstar = (ref.m @ b) @ phi
    total = np.einsum("ij,ij->j", phi.conj(), ref.m @ phi).real
    pm = phi[ref.mech]
    mech_energy = np.einsum("ij,ij->j", pm.conj(),
                            ref.m[np.ix_(ref.mech, ref.mech)] @ pm).real
    table = []
    for k in range(len(w)):
        frac = mech_energy[k] / total[k]
        block = ("mechanical" if frac >= 0.9
                 else "electromagnetic" if frac <= 0.1 else "mixed")
        table.append(ModeRecord(eigenvalue=complex(w[k]), bstar_abs=abs(bstar[k]),
                                norm_m=float(norms[k]),
                                stabilizable=bool(abs(bstar[k]) > eig_tol * norms[k]),
                                dominant_block=block))
    return table


class TestSkewness:
    def test_toy_n16(self):
        assert _assembly(16).skew_defect <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_random_parameter_sets(self, seed):
        assert _assembly(16, _random_parameters(seed)).skew_defect <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_quadratic_form_has_no_real_part(self, seed):
        asm = _assembly(16)
        y = np.random.default_rng(seed).standard_normal(asm.dim)
        norm2 = y @ (asm.m @ y)
        assert abs(y @ (asm.m @ (asm.g @ y))) <= 1e-12 * max(norm2, 1.0)


class TestSplitForm:
    @given(params=st.integers(0, 2**32 - 1).map(_random_parameters),
           n=st.integers(8, 48), actuation=st.sampled_from(ALL_SYSTEMS))
    @example(params=BOX_CORNER, n=48, actuation=ActuationMode.CURRENT)
    @example(params=BOX_CORNER, n=48, actuation=ActuationMode.CHARGE_MAGNETIC)
    @example(params=BOX_CORNER, n=48, actuation=ActuationMode.CHARGE_ELECTROSTATIC)
    @settings(max_examples=25, deadline=None)
    def test_split_equals_dense(self, params, n, actuation):
        # G0 + C A^{-1} K, with A^{-1} K from a dense solve, reproduces the
        # dense G formed with P_xi; the independent dense constructions are
        # TestDenseReference's oracle, under its cond(A) bound
        asm = build_system(params, build_grid(params.L, n), actuation)
        split = asm.split
        assert split.shape == asm.g.shape
        g = split.g0.toarray() + split.c.toarray() @ np.linalg.solve(
            split.a.toarray(), split.k.toarray())
        assert np.linalg.norm(g - asm.g) <= 1e-12 * np.linalg.norm(asm.g)

    def test_influence_keeps_split(self):
        asm = _assembly(16)
        swapped = with_influence(asm, np.ones(asm.dim), "test")
        assert swapped.split is asm.split


class TestDenseReference:
    """The assembly, built from sparse parts, against the dense constructions."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 48),
           actuation=st.sampled_from(ALL_SYSTEMS))
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_reference(self, seed, n, actuation):
        p = _random_parameters(seed)
        asm = build_system(p, build_grid(p.L, n), actuation)
        ref = _dense_reference(asm, actuation)
        red = asm.reduction
        # the feedback coupling g = R b_red, formed where spectra use it
        r, s = spectral._energy_similarity(asm)
        for got, want in ((asm.m.toarray(), ref.m), (red.m_red, ref.m_red),
                          (spectral._coupling(asm, r), r @ ref.b_red)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # the reference forms I - P_xi as -xi lap_cc P_xi, whose rounding
        # grows with the condition number of A = I - xi lap_cc; G and G_red
        # carry that block
        ops = build_operators(p, asm.grid)
        kappa = np.linalg.cond(np.eye(n) - p.xi * ops.lap_cc)
        tol = max(1e-12, 10.0 * np.finfo(float).eps * kappa)
        for got, want in ((asm.g, ref.g), (red.g_red, ref.g_red)):
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

        # the mode table in reduced coordinates against the lifted one,
        # on the same eigenpairs
        w, norms, phi_red = spectral._eigenpairs(s, r)
        table = spectral.compute_spectrum(asm).mode_table
        lifted = _lifted_mode_table(ref, asm.b, w, norms, phi_red)
        assert [(rec.stabilizable, rec.dominant_block) for rec in table] == \
            [(rec.stabilizable, rec.dominant_block) for rec in lifted]
        for rec, want in zip(table, lifted):
            if want.bstar_abs > 1e-8 * want.norm_m:
                assert rec.bstar_abs == pytest.approx(want.bstar_abs, rel=1e-6)

    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    @pytest.mark.parametrize("n", (16, 64))
    def test_gram_and_lift_stay_sparse(self, actuation, n):
        # only the y1 block of M, which carries P_xi, is dense
        asm = build_system(TOY, build_grid(TOY.L, n), actuation)
        assert sparse.issparse(asm.m) and sparse.issparse(asm.reduction.t_map)
        assert asm.m.nnz <= n * n + 20 * n


class TestAssemble:
    """The one builder refuses a declaration that breaks a certificate."""

    @staticmethod
    def _declare(asm, split=None, t=None):
        # the six-field declaration of ``asm``, with its split or lift replaced
        p = build_operators(asm.params, asm.grid).p_dense
        red = asm.reduction
        return assemble(asm.params, asm.grid, p, asm.split if split is None else split,
                        asm.energy_parts, asm.b, red.t_map if t is None else t,
                        red.bound, asm.blocks)

    def test_declaration_reassembles(self):
        asm = _assembly(16)
        again = self._declare(asm)
        np.testing.assert_array_equal(again.g, asm.g)
        np.testing.assert_array_equal(again.reduction.g_red, asm.reduction.g_red)
        np.testing.assert_array_equal(again.reduction.mechanical,
                                      asm.reduction.mechanical)

    def test_perturbed_generator_fails_skewness(self):
        asm = _assembly(16)
        g0 = asm.split.g0.copy()
        g0.data[0] *= 1.0 + 1e-6
        with pytest.raises(AssemblyInconsistent, match="skewness"):
            self._declare(asm, split=replace(asm.split, g0=g0))

    def test_wrong_lift_fails_gauge(self):
        # y3 = 2 xi grad(y2) is not a manifold that G preserves
        asm = _assembly(16)
        scale = np.ones(asm.dim)
        scale[asm.blocks["y3"]] = 2.0
        t = sparse.csr_array(sparse.diags_array(scale) @ asm.reduction.t_map)
        with pytest.raises(AssemblyInconsistent, match="gauge"):
            self._declare(asm, t=t)


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
        vec = np.zeros(asm.dim)
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
        assert asm.b_dual @ z == pytest.approx(expected, rel=1e-12, abs=1e-14)


class TestBStar:
    def test_constant_profile(self):
        # interior-node quadrature of 1 gives dx*(N-1) = 1 - dx, not 1
        asm = _assembly(64)
        z = np.zeros(asm.dim)
        z[block_slices(asm.grid)["y5"]] = 1.0
        val = asm.b_dual @ z
        assert val == pytest.approx(1.0 - asm.grid.dx, rel=1e-12)
        assert abs(val - 1.0) <= 2.0 / 64

    def test_odd_harmonic_vanishes(self):
        asm = _assembly(64)
        x = asm.grid.node_coords[1:-1]
        z = np.zeros(asm.dim)
        z[block_slices(asm.grid)["y5"]] = np.sin(2.0 * np.pi * x)
        assert abs(asm.b_dual @ z) <= 1e-12

    def test_half_sine(self):
        asm = _assembly(128)
        x = asm.grid.node_coords[1:-1]
        z = np.zeros(asm.dim)
        z[block_slices(asm.grid)["y5"]] = np.sin(np.pi * x)
        assert asm.b_dual @ z == pytest.approx(2.0 / np.pi, rel=1e-4)


class TestGaugeResidual:
    def test_projection_exact(self):
        asm = _assembly(32)
        rng = np.random.default_rng(2)
        y = _lifted(asm, rng.standard_normal(32), rng.standard_normal(31),
                    rng.standard_normal(33), rng.standard_normal(31))
        rp, rv = asm.gauge(y)
        assert rp <= 1e-14 and rv <= 1e-14

    def test_perturbation_linearity(self):
        asm = _assembly(32)
        rng = np.random.default_rng(4)
        y = _lifted(asm, np.zeros(32), rng.standard_normal(31),
                    np.zeros(33), rng.standard_normal(31))
        delta = 1e-3 * rng.standard_normal(32)
        bad = y.copy()
        bad[asm.blocks["y3"]] += delta
        rp, _ = asm.gauge(bad)
        expected = np.linalg.norm(delta) / np.linalg.norm(bad[asm.blocks["y3"]])
        assert rp == pytest.approx(expected, rel=1e-10)

    def test_interior_drops_boundary_cells(self):
        asm = _assembly(16)
        y3 = asm.blocks["y3"]
        bad = np.zeros(asm.dim)
        bad[y3.start] = bad[y3.stop - 1] = 1.0
        assert asm.gauge(bad)[0] == pytest.approx(1.0)
        assert asm.gauge(bad, interior=True)[0] == 0.0


class TestSharedModelData:
    """Lift, gauge residuals and energy split: one method each for every model."""

    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    def test_lift_is_idempotent_and_gauge_exact(self, actuation):
        asm = build_system(TOY, build_grid(TOY.L, 24), actuation)
        lifted = asm.lift(np.random.default_rng(3).standard_normal(asm.dim))
        np.testing.assert_array_equal(asm.lift(lifted), lifted)
        assert asm.gauge(lifted) == (0.0, 0.0)
        assert asm.gauge(lifted, interior=True) == (0.0, 0.0)

    def test_electrostatic_lift_is_identity(self):
        es = build_system(TOY, build_grid(TOY.L, 24),
                          ActuationMode.CHARGE_ELECTROSTATIC)
        y = np.random.default_rng(5).standard_normal(es.dim)
        np.testing.assert_array_equal(es.lift(y), y)

    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    def test_energy_split_is_half_gram_quadratic(self, actuation):
        asm = build_system(TOY, build_grid(TOY.L, 24), actuation)
        y = asm.lift(np.random.default_rng(9).standard_normal(asm.dim))
        assert asm.energy_split(y).total == pytest.approx(
            0.5 * y @ (asm.m @ y), rel=1e-12)


class TestWithInfluence:
    def test_replaces_vector_and_label(self):
        asm = _assembly(16)
        b_new = np.zeros(asm.dim)
        b_new[0] = 2.0
        alt = with_influence(asm, b_new, "probe")
        assert alt.influence == "probe"
        np.testing.assert_array_equal(alt.b, b_new)
        np.testing.assert_array_equal(alt.g, asm.g)

