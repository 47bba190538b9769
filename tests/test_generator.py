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
from piezolab.generator import (CONSTRAINT_TOL, SKEW_TOL, assemble, assemble_control,
                                assemble_generator, dense_skew_defect, gram)
from piezolab.model import (block_slices, build_grid, toy_parameters,
                            validate_parameters)
from piezolab.operators import ActuationMode, build_operators
from piezolab.variants import build_system

TOY = toy_parameters()
ALL_SYSTEMS = (ActuationMode.CURRENT, ActuationMode.CHARGE_MAGNETIC,
               ActuationMode.CHARGE_ELECTROSTATIC)


def _assembly(n=16, params=TOY):
    return assemble_generator(params, build_grid(params.L, n))


def _dense_g(asm):
    """The dense G of an assembly, from its split as :func:`assemble` forms it."""
    return asm.split.dense(build_operators(asm.params, asm.grid).p_dense)


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
    ops = replace(ops, **{name: getattr(ops, name).toarray() for name in
                          ("div_int", "grad_nc", "grad_f", "div_f", "lap_cc")})
    build = (_dense_electrostatic if actuation is ActuationMode.CHARGE_ELECTROSTATIC
             else _dense_six_field)
    g, m, t, keep, mech = build(asm.params, asm.grid, ops)
    m_red = t.T @ (m @ t)
    m_red = 0.5 * (m_red + m_red.T)
    b_red = scipy.linalg.solve(m_red, t.T @ (m @ asm.b), assume_a="pos")
    return SimpleNamespace(g=g, m=m, t=t, m_red=m_red, g_red=(g @ t)[keep],
                           b_red=b_red, mech=mech)


def _lifted_mode_table(ref, b, r, v, eig_tol=1e-8):
    """Mode-table columns from eigenvectors lifted through R, the dense T and M."""
    phi = ref.t @ scipy.linalg.solve_triangular(r, v)
    bstar = np.abs((ref.m @ b) @ phi)
    total = np.einsum("ij,ij->j", phi.conj(), ref.m @ phi).real
    pm = phi[ref.mech]
    mech_energy = np.einsum("ij,ij->j", pm.conj(),
                            ref.m[np.ix_(ref.mech, ref.mech)] @ pm).real
    frac = mech_energy / total
    block = np.where(frac >= 0.9, "mechanical",
                     np.where(frac <= 0.1, "electromagnetic", "mixed"))
    return bstar, bstar > eig_tol * np.linalg.norm(v, axis=0), block


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
        m = gram(asm.energy_parts, asm.dim)
        norm2 = y @ (m @ y)
        assert abs(y @ (m @ (_dense_g(asm) @ y))) <= 1e-12 * max(norm2, 1.0)


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
        dense = _dense_g(asm)
        assert split.shape == dense.shape
        g = split.g0.toarray() + split.c.toarray() @ np.linalg.solve(
            split.a.toarray(), split.k.toarray())
        assert np.linalg.norm(g - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("actuation", (ActuationMode.CURRENT,
                                           ActuationMode.CHARGE_ELECTROSTATIC),
                             ids=lambda a: a.value)
    @pytest.mark.parametrize("params", (TOY, BOX_CORNER), ids=("toy", "stiff_corner"))
    def test_helmholtz_blocks_are_ops_a(self, params, actuation):
        # every auxiliary field's block of A is the one Helmholtz matrix of
        # the operators, entry for entry, and A has no coupling between fields
        n = 24
        asm = build_system(params, build_grid(params.L, n), actuation)
        helmholtz = build_operators(params, asm.grid).a.toarray()
        a = asm.split.a.toarray()
        fields = a.shape[0] // n
        assert fields == (1 if actuation is ActuationMode.CHARGE_ELECTROSTATIC else 2)
        for i in range(fields):
            for j in range(fields):
                block = a[i * n:(i + 1) * n, j * n:(j + 1) * n]
                np.testing.assert_array_equal(block, helmholtz if i == j else 0.0)


class TestDenseReference:
    """The assembly, built from sparse parts, against the dense constructions."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 48),
           actuation=st.sampled_from(ALL_SYSTEMS))
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_reference(self, seed, n, actuation):
        p = _random_parameters(seed)
        asm = build_system(p, build_grid(p.L, n), actuation)
        ref = _dense_reference(asm, actuation)
        own = asm.reference
        r = own.r
        # M_red = R^T R, and the feedback coupling g = R b_red
        for got, want in ((gram(asm.energy_parts, asm.dim).toarray(), ref.m),
                          (r.T @ r, ref.m_red), (own.coupling, r @ ref.b_red)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        # the reference forms I - P_xi as -xi lap_cc P_xi, whose rounding
        # grows with the condition number of A = I - xi lap_cc; G and
        # G_red = R^{-1} S R carry that block
        kappa = np.linalg.cond(build_operators(p, asm.grid).a.toarray())
        tol = max(1e-12, 10.0 * np.finfo(float).eps * kappa)
        g_red = scipy.linalg.solve_triangular(r, own.s @ r)
        for got, want in ((_dense_g(asm), ref.g), (g_red, ref.g_red)):
            assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

        # the mode table in energy coordinates against the lifted one, on
        # the same eigenpairs
        solve = spectral._blockwise(own, asm.reduction.mechanical)
        v = np.column_stack([solve.mode(j) for j in range(len(solve.omega))])
        report = spectral.compute_spectrum(asm)
        bstar, stabilizable, block = _lifted_mode_table(ref, asm.b, r, v)
        np.testing.assert_array_equal(report.stabilizable, stabilizable)
        np.testing.assert_array_equal(report.dominant_block, block)
        np.testing.assert_allclose(report.bstar_abs[stabilizable],
                                   bstar[stabilizable], rtol=1e-6)

    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    @pytest.mark.parametrize("n", (16, 64))
    def test_gram_and_lift_stay_sparse(self, actuation, n):
        # only the y1 block of M, which carries P_xi, is dense
        asm = build_system(TOY, build_grid(TOY.L, n), actuation)
        m = gram(asm.energy_parts, asm.dim)
        assert sparse.issparse(m) and sparse.issparse(asm.reduction.t_map)
        assert m.nnz <= n * n + 20 * n


class TestAssemble:
    """The one builder refuses a declaration that breaks a certificate."""

    @staticmethod
    def _declare(asm, split=None, gauge=None):
        # the six-field declaration of ``asm``, with its split or gauge replaced
        return assemble(asm.params, asm.grid, asm.ops,
                        asm.split if split is None else split, asm.energy_parts,
                        asm.b, asm.reduction.gauge if gauge is None else gauge,
                        asm.blocks)

    def test_declaration_reassembles(self):
        asm = _assembly(16)
        again = self._declare(asm)
        assert (again.skew_defect, again.gauge_defect) == \
            (asm.skew_defect, asm.gauge_defect)
        for name in ("r", "s", "coupling"):
            np.testing.assert_array_equal(getattr(again.reference, name),
                                          getattr(asm.reference, name))
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
        gauge = {**asm.reduction.gauge,
                 "y3": ("y2", 2.0 * asm.params.xi * asm.ops.grad_nc)}
        with pytest.raises(AssemblyInconsistent, match="gauge"):
            self._declare(asm, gauge=gauge)


def _dense_gauge_defect(asm):
    """||G T - T G_red|| / max(||G||, 1) on the dense G, in Frobenius norms."""
    red = asm.reduction
    if not red.bound:
        return 0.0
    g = _dense_g(asm)
    gt = g @ red.t_map
    off = gt - red.t_map @ gt[red.keep]
    return float(np.linalg.norm(off) / max(np.linalg.norm(g), 1.0))


class TestProbeCertificates:
    """The O(N) probe gates beside the dense full-matrix certificates."""

    @pytest.mark.parametrize("n", (512, 1024))
    def test_stiff_corner_assembles(self, n):
        # the dense gauge certificate reads 1.49e-11 (N = 512) and 4.40e-11
        # (N = 1024) here, above CONSTRAINT_TOL: rounding of the dense G,
        # whose P_xi blocks carry errors of order eps cond(A)
        asm = _assembly(n, BOX_CORNER)
        assert asm.skew_defect <= SKEW_TOL == 1e-12
        assert asm.gauge_defect <= CONSTRAINT_TOL == 1e-11
        assert max(asm.skew_defect, asm.gauge_defect) <= 1e-15

    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    @pytest.mark.parametrize("params, n", ((TOY, 64), (TOY, 256), (BOX_CORNER, 256)),
                             ids=("toy-64", "toy-256", "stiff_corner-256"))
    def test_probe_beside_dense(self, actuation, params, n):
        # both certify every model; the probes sit at rounding level, while
        # the dense gauge defect grows with cond(A) = O(xi / dx^2)
        asm = build_system(params, build_grid(params.L, n), actuation)
        dense = (dense_skew_defect(asm), _dense_gauge_defect(asm))
        probe = (asm.skew_defect, asm.gauge_defect)
        assert max(dense[0], probe[0]) <= SKEW_TOL
        assert max(dense[1], probe[1]) <= CONSTRAINT_TOL
        assert max(probe) <= 1e-15
        if actuation is ActuationMode.CHARGE_ELECTROSTATIC:
            assert dense[1] == probe[1] == 0.0

    def test_assembly_forms_no_dense_array(self):
        # P_xi, M, R, S and g are formed only when the reference is read
        asm = _assembly(32)
        assert "reference" not in vars(asm) and "p_dense" not in vars(asm.ops)
        ref = asm.reference
        assert ref is asm.reference and "p_dense" in vars(asm.ops)
        assert ref.r.shape == ref.s.shape == (4 * 32 - 1,) * 2
        assert ref.coupling.shape == (4 * 32 - 1,)


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
        g = _dense_g(asm)
        assert np.all(g[np.ix_(mech, em)] == 0.0)
        assert np.all(g[np.ix_(em, mech)] == 0.0)

    def test_rigid_translation_in_kernel(self):
        asm = _assembly(16)
        vec = np.zeros(asm.dim)
        vec[block_slices(asm.grid)["y4"]] = 1.0
        np.testing.assert_allclose(_dense_g(asm) @ vec, 0.0, atol=1e-14)

    def test_constraint_invariance(self):
        # G maps the gauge manifold into itself: G T = T G_red
        assert _assembly(32).gauge_defect <= 1e-12

    def test_invertible_off_the_kernel(self):
        # on the constraint-reduced subspace the kernel is one-dimensional;
        # every other singular value is bounded away from zero
        asm = _assembly(32)
        sing = np.linalg.svd(asm.reference.s, compute_uv=False)
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
        rp, rv = asm.gauge(y)[0]
        assert rp <= 1e-14 and rv <= 1e-14

    def test_perturbation_linearity(self):
        asm = _assembly(32)
        rng = np.random.default_rng(4)
        y = _lifted(asm, np.zeros(32), rng.standard_normal(31),
                    np.zeros(33), rng.standard_normal(31))
        delta = 1e-3 * rng.standard_normal(32)
        bad = y.copy()
        bad[asm.blocks["y3"]] += delta
        rp, _ = asm.gauge(bad)[0]
        expected = np.linalg.norm(delta) / np.linalg.norm(bad[asm.blocks["y3"]])
        assert rp == pytest.approx(expected, rel=1e-10)

    def test_interior_drops_boundary_cells(self):
        asm = _assembly(16)
        y3 = asm.blocks["y3"]
        bad = np.zeros(asm.dim)
        bad[y3.start] = bad[y3.stop - 1] = 1.0
        # the full pair comes back with the interior pair, from one lift
        full, interior = asm.gauge(bad)
        assert full[0] == pytest.approx(1.0)
        assert interior[0] == 0.0


class TestSharedModelData:
    """Lift, gauge residuals and energy split: one method each for every model."""

    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    def test_lift_is_idempotent_and_gauge_exact(self, actuation):
        asm = build_system(TOY, build_grid(TOY.L, 24), actuation)
        lifted = asm.lift(np.random.default_rng(3).standard_normal(asm.dim))
        np.testing.assert_array_equal(asm.lift(lifted), lifted)
        assert asm.gauge(lifted) == ((0.0, 0.0), (0.0, 0.0))

    def test_electrostatic_lift_is_identity(self):
        es = build_system(TOY, build_grid(TOY.L, 24),
                          ActuationMode.CHARGE_ELECTROSTATIC)
        y = np.random.default_rng(5).standard_normal(es.dim)
        np.testing.assert_array_equal(es.lift(y), y)

    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    def test_energy_split_is_half_gram_quadratic(self, actuation):
        asm = build_system(TOY, build_grid(TOY.L, 24), actuation)
        y = asm.lift(np.random.default_rng(9).standard_normal(asm.dim))
        assert asm.energy_split(y)["total"] == pytest.approx(
            0.5 * y @ (gram(asm.energy_parts, asm.dim) @ y), rel=1e-12)

    @pytest.mark.parametrize("params, n", ((TOY, 24), (BOX_CORNER, 48)),
                             ids=("toy", "stiff_corner"))
    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    def test_energy_split_matches_dense_parts(self, actuation, params, n):
        # each part, the nonlocal one from the banded Cholesky factor of A
        # included, against (1/2) y[sl]^T F y[sl] with the dense matrix of
        # that part in M; the nonlocal part's rounding grows with cond(A)
        asm = build_system(params, build_grid(params.L, n), actuation)
        y = asm.lift(np.random.default_rng(11).standard_normal(asm.dim))
        split = asm.energy_split(y)
        kappa = np.linalg.cond(build_operators(params, asm.grid).a.toarray())
        for name, (sl, form) in asm.energy_parts.items():
            dense = gram({name: (sl, form)}, asm.dim).toarray()[sl, sl]
            want = 0.5 * y[sl] @ dense @ y[sl]
            tol = (max(1e-12, 10.0 * np.finfo(float).eps * kappa)
                   if name == "nonlocal" else 1e-12)
            assert split[name] == pytest.approx(want, rel=tol)
