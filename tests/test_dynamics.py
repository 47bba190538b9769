"""Midpoint integration: conservation, dissipation identity, reversibility."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf

from piezolab import dynamics, spectral
from piezolab.acceptance import skewness_parameter_sets
from piezolab.config import time_steps
from piezolab.dynamics import (BandLU, RankOneMidpoint, admissibility_constant, default_dt,
                               modal_state, run)
from piezolab.errors import (ConfigParseError, GaugeDrift, LinearSolveFailure,
                             NonFiniteState, PiezolabError)
from piezolab.generator import _split_generator, assemble_generator, gram, gram_product
from piezolab.model import build_grid, toy_parameters
from piezolab.operators import ActuationMode, build_operators
from piezolab.variants import _electrostatic_split, build_system
from test_generator import BOX_CORNER, _dense_g, _random_parameters

TOY = toy_parameters()

CHARGE_SYSTEMS = (ActuationMode.CHARGE_MAGNETIC,
                  ActuationMode.CHARGE_ELECTROSTATIC)
ALL_SYSTEMS = (ActuationMode.CURRENT,) + CHARGE_SYSTEMS


def _assembly(n=32):
    return assemble_generator(TOY, build_grid(TOY.L, n))


def _random_state(asm, seed=0):
    """Random flat state on the model's gauge manifold, drawn block by block."""
    rng = np.random.default_rng(seed)
    y = np.zeros(asm.dim)
    for name in ("y1", "y2", "y4", "y5"):
        block = asm.blocks.get(name)
        if block is not None:
            y[block] = rng.standard_normal(block.stop - block.start)
    return asm.lift(y)


def _stepper(asm, dt, gain=0.0):
    return RankOneMidpoint(asm.split, asm.b, asm.output, dt, gain=gain)


class TestStepMidpoint:
    def test_zero_fixed_point(self):
        asm = _assembly(16)
        y = _stepper(asm, 1e-3).step(np.zeros(asm.dim), 0.0)
        np.testing.assert_array_equal(y, 0.0)

    def test_single_step_conservation(self):
        asm = _assembly(32)
        y0 = _random_state(asm, seed=7)
        y1 = _stepper(asm, 1e-3).step(y0, 0.0)
        m = gram(asm.energy_parts, asm.dim)
        n0 = y0 @ (m @ y0)
        n1 = y1 @ (m @ y1)
        assert abs(n1 - n0) <= 1e-12 * n0

    def test_forced_step_dense_oracle(self):
        # y+ = dt (I - dt/2 G)^{-1} b from rest, checked against a direct solve
        asm = _assembly(8)
        dt = 1e-2
        stepped = _stepper(asm, dt).step(np.zeros(asm.dim), 1.0)
        oracle = dt * np.linalg.solve(np.eye(asm.dim) - 0.5 * dt * _dense_g(asm), asm.b)
        np.testing.assert_allclose(stepped, oracle, rtol=1e-11, atol=1e-14)

    def test_reversibility(self):
        # the backward flow is the midpoint scheme applied to -G
        asm = _assembly(32)
        dt = 5e-3
        fwd = _stepper(asm, dt)
        neg = replace(asm.split, g0=-asm.split.g0, c=-asm.split.c)
        bwd = RankOneMidpoint(neg, asm.b, asm.output, dt)
        y0 = _random_state(asm, seed=3)
        y = y0.copy()
        for _ in range(50):
            y = fwd.step(y)
        for _ in range(50):
            y = bwd.step(y)
        assert np.linalg.norm(y - y0) <= 1e-10 * np.linalg.norm(y0)


class DenseMidpoint:
    """Reference midpoint step on the dense generator.

    Solves (I - dt/2 G + c b v^T) y+ = (I + dt/2 G - c b v^T) y + dt b u,
    c = gain dt/2, directly: an LU factorization of the dense matrix with
    one refinement pass, no Sherman-Morrison and no split form.
    """

    def __init__(self, asm, dt, gain=0.0):
        eye, g = np.eye(asm.dim), _dense_g(asm)
        feedback = 0.5 * dt * gain * np.outer(asm.b, asm.output)
        self.a_minus = eye - 0.5 * dt * g + feedback
        self.a_plus = eye + 0.5 * dt * g - feedback
        self.lu = scipy.linalg.lu_factor(self.a_minus)
        self.asm, self.dt, self.gain = asm, dt, gain

    def step(self, y, u=0.0):
        rhs = self.a_plus @ y + (self.dt * u) * self.asm.b
        sol = scipy.linalg.lu_solve(self.lu, rhs)
        return sol + scipy.linalg.lu_solve(self.lu, rhs - self.a_minus @ sol)

    def step_closed(self, y):
        y_next = self.step(y)
        return y_next, -self.gain * float(self.asm.output @ (0.5 * (y + y_next)))


class TestSparseAgainstDense:
    """The sparse augmented stepper against dense solves on the same data."""

    @pytest.mark.parametrize("n", (16, 32, 64))
    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    @pytest.mark.parametrize("gain", (0.0, 0.7), ids=("open", "closed"))
    def test_thousand_steps(self, actuation, n, gain):
        asm = build_system(TOY, build_grid(TOY.L, n), actuation)
        dt = default_dt(TOY, asm.grid)
        sparse_stepper = _stepper(asm, dt, gain)
        dense = DenseMidpoint(asm, dt, gain)
        y = y_ref = _random_state(asm, seed=1)
        worst, inputs, inputs_ref = 0.0, [], []
        for j in range(1000):
            if gain > 0.0:
                y, u = sparse_stepper.step_closed(y)
                y_ref, u_ref = dense.step_closed(y_ref)
            else:
                u = u_ref = np.sin(3.0 * (j + 0.5) * dt)
                y = sparse_stepper.step(y, u)
                y_ref = dense.step(y_ref, u)
            worst = max(worst, np.linalg.norm(y - y_ref) / np.linalg.norm(y_ref))
            inputs.append(u)
            inputs_ref.append(u_ref)
        assert worst <= 1e-11
        inputs, inputs_ref = np.array(inputs), np.array(inputs_ref)
        assert np.abs(inputs - inputs_ref).max() <= 1e-11 * np.abs(inputs_ref).max()

    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    @pytest.mark.parametrize("gain", (0.0, 0.7), ids=("forced", "closed"))
    def test_dissipation_identity_per_step(self, actuation, gain):
        # E(n+1) - E(n) = dt u B* y_mid, with u = -k v^T y_mid in closed loop,
        # holds for every single step to rounding in the energy itself
        asm = build_system(TOY, build_grid(TOY.L, 32), actuation)
        dt = default_dt(TOY, asm.grid)
        stepper = _stepper(asm, dt, gain)
        m = gram(asm.energy_parts, asm.dim)
        y = _random_state(asm, seed=4)
        worst = 0.0
        for j in range(300):
            if gain > 0.0:
                y_next, u = stepper.step_closed(y)
            else:
                u = np.cos(5.0 * (j + 0.5) * dt)
                y_next = stepper.step(y, u)
            e, e_next = 0.5 * y @ (m @ y), 0.5 * y_next @ (m @ y_next)
            pred = dt * u * (asm.b_dual @ (0.5 * (y + y_next)))
            worst = max(worst, abs((e_next - e) - pred) / e)
            y = y_next
        assert worst <= 1e-13


class TestRandomStepper:
    """The banded stepper on random models, step sizes and gains."""

    @given(params=st.integers(0, 2**32 - 1).map(_random_parameters),
           n=st.integers(8, 48), actuation=st.sampled_from(ALL_SYSTEMS),
           dt_factor=st.floats(0.2, 1.0),
           gain=st.just(0.0) | st.floats(0.01, 10.0))
    @example(params=BOX_CORNER, n=48, actuation=ActuationMode.CURRENT,
             dt_factor=1.0, gain=10.0)
    @example(params=BOX_CORNER, n=48, actuation=ActuationMode.CHARGE_ELECTROSTATIC,
             dt_factor=0.2, gain=0.0)
    # u = -k v^T y_mid cancels here: its error 6.7e-15 is 1.3e-11 of |u| and
    # 2.1e-16 of k |v| |y_mid|
    @example(params=_random_parameters(310711854), n=48, actuation=ActuationMode.CURRENT,
             dt_factor=0.9375, gain=1.0)
    @settings(max_examples=30, deadline=None)
    def test_fifty_steps_against_dense(self, params, n, actuation, dt_factor, gain):
        asm = build_system(params, build_grid(params.L, n), actuation)
        dt = dt_factor * default_dt(params, asm.grid)
        m = gram(asm.energy_parts, asm.dim)
        stepper = _stepper(asm, dt, gain)
        dense = DenseMidpoint(asm, dt, gain)
        y = y_ref = _random_state(asm, seed=n)
        if gain > 0.0:
            # Sherman-Morrison against a direct solve of the modified matrix
            y_mid = np.linalg.solve(
                np.eye(asm.dim) - 0.5 * dt * _dense_g(asm)
                + 0.5 * dt * gain * np.outer(asm.b, asm.output), y)
            y_next, u = stepper.step_closed(y)
            assert np.linalg.norm(y_next - (2.0 * y_mid - y)) <= \
                1e-11 * np.linalg.norm(y_next)
            # u = -k v^T y_mid may cancel, so it is bounded as the state is:
            # against k |v| |y_mid|, not against |u|
            assert abs(u + gain * (asm.output @ y_mid)) <= \
                1e-11 * gain * np.linalg.norm(asm.output) * np.linalg.norm(y_mid)
        worst = worst_identity = 0.0
        for j in range(50):
            if gain > 0.0:
                y_next, u = stepper.step_closed(y)
                y_ref, _ = dense.step_closed(y_ref)
            else:
                u = np.sin(3.0 * (j + 0.5) * dt)
                y_next = stepper.step(y, u)
                y_ref = dense.step(y_ref, u)
            worst = max(worst, np.linalg.norm(y_next - y_ref) / np.linalg.norm(y_ref))
            e, e_next = 0.5 * y @ (m @ y), 0.5 * y_next @ (m @ y_next)
            pred = dt * u * (asm.b_dual @ (0.5 * (y + y_next)))
            worst_identity = max(worst_identity, abs((e_next - e) - pred) / e)
            y = y_next
        assert worst <= 1e-11
        assert worst_identity <= 1e-13


class TestBandedStepper:
    """The midpoint system is banded in the models' spatial order."""

    @pytest.mark.parametrize("n", (16, 64, 256))
    @pytest.mark.parametrize("actuation", ALL_SYSTEMS, ids=lambda a: a.value)
    def test_bandwidth_does_not_grow(self, actuation, n):
        # in block order the band would span O(N) and the LU would be O(N^2)
        asm = build_system(TOY, build_grid(TOY.L, n), actuation)
        stepper = _stepper(asm, default_dt(TOY, asm.grid))
        expected = (3, 3) if actuation is ActuationMode.CHARGE_ELECTROSTATIC else (9, 8)
        assert (stepper.lu.kl, stepper.lu.ku) == expected


def _random_band(seed, n=40, kl=3, ku=2):
    """A random sparse band matrix whose small diagonal forces swaps."""
    i, j = np.indices((n, n))
    band = (i - j <= kl) & (j - i <= ku)
    row, col = i[band], j[band]
    val = np.random.default_rng(seed).standard_normal(row.size)
    val[row == col] *= 1e-3
    return sparse.csr_array((val, (row, col)), shape=(n, n))


class TestSwapFreeSolve:
    """The fold of the pivots into the row order, and the two solve routes."""

    # the six-field split is shared by the current and charge-magnetic models
    # (they differ only in b), and the midpoint system holds neither b, the
    # output row nor the gain; the splits are built without assembling the
    # dense reference, whose certificates fail at BOX_CORNER for N >= 512
    @pytest.mark.parametrize("n", (16, 64, 256, 1024))
    @pytest.mark.parametrize("params", skewness_parameter_sets() + [BOX_CORNER],
                             ids=("toy", "seeded1", "seeded2", "seeded3", "corner"))
    @pytest.mark.parametrize("split", (_split_generator, _electrostatic_split),
                             ids=("six_field", "electrostatic"))
    def test_no_swaps_after_fold(self, split, params, n):
        # BandLU refuses a folded order in which dgbtrf still swaps rows
        grid = build_grid(params.L, n)
        g = split(params, grid, build_operators(params, grid))
        lu = BandLU(g.midpoint_system(default_dt(params, grid)))
        # dtbtrs sweeps a block of columns, and one column as a vector, bit
        # for bit as the two unit-triangular BLAS dtbsv sweeps of that column do
        kl, ku = lu.factored_band
        rhs = np.random.default_rng(n).standard_normal((lu.position.size, 3))
        block = lu._sweep(rhs)
        for col in range(3):
            x = dtbsv(kl, lu._lower, lu._scale * rhs[:, col], lower=1, diag=1)
            expected = dtbsv(ku, lu._upper, x, diag=1)
            np.testing.assert_array_equal(block[:, col], expected)
            np.testing.assert_array_equal(lu._sweep(rhs[:, col]), expected)

    @pytest.mark.parametrize("dt_factor", (1.0, 100.0))
    @pytest.mark.parametrize("split", (_split_generator, _electrostatic_split),
                             ids=("six_field", "electrostatic"))
    def test_folded_factor_matches_dense_solve(self, split, dt_factor):
        # the pivots folded into the row scale leave two unit triangles; the
        # solve still matches a dense one, for a vector and for a block
        grid = build_grid(TOY.L, 64)
        matrix = split(TOY, grid, build_operators(TOY, grid)).midpoint_system(
            dt_factor * default_dt(TOY, grid))
        lu = BandLU(matrix)
        rhs = np.random.default_rng(7).standard_normal((matrix.shape[0], 3))
        expected = np.linalg.solve(matrix.toarray(), rhs)
        ordered = np.empty_like(rhs)
        ordered[lu.position] = rhs
        for got, want in ((lu.solve(ordered[:, 0]), expected[:, 0]),
                          (lu.solve(ordered), expected)):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_non_finite_folded_factor_raises(self):
        # a subnormal pivot overflows the fold to inf: refused, not solved with
        with pytest.raises(LinearSolveFailure, match="not finite"):
            BandLU(sparse.csr_array(np.array([[1.0, 0.0], [1.0, 1e-310]])))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fold_of_random_band(self, seed):
        matrix = _random_band(seed)
        lu = BandLU(matrix)
        assert lu.folded_swaps > 0
        rhs = np.random.default_rng(seed).standard_normal(40)
        expected = np.linalg.solve(matrix.toarray(), rhs)
        ordered = np.empty(40)
        ordered[lu.position] = rhs
        np.testing.assert_allclose(lu.solve(ordered), expected, rtol=1e-9, atol=1e-9)

    def test_singular_band_raises(self):
        # two equal rows: eliminating one with the other leaves an exact
        # zero pivot
        dense = _random_band(5).toarray()
        dense[21] = dense[20]
        with pytest.raises(LinearSolveFailure, match="zero pivot"):
            BandLU(sparse.csr_array(dense))

    def test_swap_in_folded_order_raises(self, monkeypatch):
        # a second factorization that still swaps is refused, not solved with
        calls = []

        def swapping(*args, **kwargs):
            lu, piv, info = dgbtrf(*args, **kwargs)
            calls.append(piv)
            if len(calls) == 2:
                piv = piv.copy()
                piv[0] = 1
            return lu, piv, info

        monkeypatch.setattr(dynamics, "dgbtrf", swapping)
        with pytest.raises(LinearSolveFailure, match="folded order"):
            BandLU(_random_band(7))
        assert len(calls) == 2


def _check_open_loop_conservation_and_gauge(actuation):
    asm = build_system(TOY, build_grid(TOY.L, 32), actuation)
    series = run(asm, _random_state(asm, seed=1), n_steps=2000,
                 dt=default_dt(TOY, asm.grid), record_stride=50)
    e = series.total_energy()
    assert np.max(np.abs(e - e[0])) <= 1e-9 * e[0]
    assert series.gauge_pos.max() <= 1e-10
    assert series.gauge_vel.max() <= 1e-10


def _check_closed_loop_dissipation_identity(actuation):
    # E_{n+1} - E_n = -k dt (v^T y_mid)(B* y_mid) with v the output row,
    # which is B* itself for the six-field models; checked per step on the
    # states of a closed-loop stepper
    asm = build_system(TOY, build_grid(TOY.L, 32), actuation)
    k, dt = 0.7, 2e-3
    stepper = _stepper(asm, dt, k)
    y = modal_state(asm, 0)
    worst = 0.0
    for _ in range(200):
        y_next, _ = stepper.step_closed(y)
        e, e_next = asm.energy_split(y)["total"], asm.energy_split(y_next)["total"]
        y_mid = 0.5 * (y + y_next)
        pred = -k * dt * (asm.output @ y_mid) * (asm.b_dual @ y_mid)
        worst = max(worst, abs((e_next - e) - pred) / e)
        y = y_next
    assert worst <= 1e-10


class TestRun:
    def test_open_loop_conservation_and_gauge(self):
        _check_open_loop_conservation_and_gauge(ActuationMode.CURRENT)

    @pytest.mark.parametrize("actuation", CHARGE_SYSTEMS, ids=lambda a: a.value)
    def test_open_loop_conservation_and_gauge_charge(self, actuation):
        _check_open_loop_conservation_and_gauge(actuation)

    def test_closed_loop_dissipation_identity(self):
        _check_closed_loop_dissipation_identity(ActuationMode.CURRENT)

    @pytest.mark.parametrize("actuation", CHARGE_SYSTEMS, ids=lambda a: a.value)
    def test_closed_loop_dissipation_identity_charge(self, actuation):
        _check_closed_loop_dissipation_identity(actuation)

    def test_closed_loop_energy_monotone(self):
        asm = _assembly(32)
        series = run(asm, modal_state(asm, 0), n_steps=400, dt=2e-3, gain=1.0,
                     record_stride=10)
        increments = np.diff(series.total_energy())
        assert increments.max() <= 1e-12 * series.total_energy()[0]

    def test_driven_current_guard_is_interior(self):
        # the distributed influence has a boundary jump that leaves a layer in
        # the outermost cells of a forced run; the guard skips that layer but
        # aborts on drift in the interior rather than report it silently
        asm = _assembly(32)
        forced = run(asm, np.zeros(asm.dim), n_steps=200, dt=2e-3,
                     input_fn=lambda t: 1.0)
        assert forced.gauge_pos.max() > 1e-6  # the full residual would trip
        y0 = _random_state(asm, seed=2)
        y0[asm.blocks["y3"].start + 5] += 1e-3
        with pytest.raises(GaugeDrift):
            run(asm, y0, n_steps=10, dt=2e-3, input_fn=lambda t: 1.0)

    def test_driven_charge_guard_is_every_cell(self):
        # the boundary charge influence lies on the gauge manifold, so a
        # forced run keeps the whole-block residual at rounding level and is
        # guarded on every cell: a defect in an end cell, which the interior
        # guard of a current-driven run lets pass, aborts it
        grid = build_grid(TOY.L, 32)
        cm = build_system(TOY, grid, ActuationMode.CHARGE_MAGNETIC)
        forced = run(cm, np.zeros(cm.dim), n_steps=200, dt=2e-3,
                     input_fn=lambda t: 1.0)
        assert max(forced.gauge_pos.max(), forced.gauge_vel.max()) <= 1e-12

        def end_cell_defect(asm):
            y0 = _random_state(asm, seed=2)
            y0[asm.blocks["y3"].start] += 1e-3
            return y0

        current = _assembly(32)
        run(current, end_cell_defect(current), n_steps=10, dt=2e-3,
            input_fn=lambda t: 1.0)
        with pytest.raises(GaugeDrift):
            run(cm, end_cell_defect(cm), n_steps=10, dt=2e-3,
                input_fn=lambda t: 1.0)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_input_fails_loudly(self, bad):
        # the sparse solve does not check finiteness, so the run loop does:
        # the first non-finite input raises before it reaches the state
        asm = _assembly(16)
        with pytest.raises(NonFiniteState, match="step 3 ") as info:
            run(asm, _random_state(asm, seed=9), n_steps=20, dt=1e-3,
                input_fn=lambda t: bad if t > 2e-3 else 0.0, record_stride=5)
        assert isinstance(info.value, PiezolabError)

    def test_non_finite_start_fails_at_step_0(self):
        # the start passes the same record guards as every later state, so a
        # run of no steps cannot return a NaN energy
        asm = _assembly(16)
        y0 = _random_state(asm, seed=9)
        y0[asm.blocks["y4"].start] = np.nan
        with pytest.raises(NonFiniteState, match="step 0 "):
            run(asm, y0, n_steps=0, dt=1e-3)

    def test_off_manifold_start_fails_at_step_0(self):
        # the guard names the start, not the first stride the defect survives to
        asm = _assembly(16)
        y0 = _random_state(asm, seed=9)
        y0[asm.blocks["y3"].start + 5] += 1e-3
        with pytest.raises(GaugeDrift, match="step 0 "):
            run(asm, y0, n_steps=10, dt=1e-3, record_stride=5)

    @pytest.mark.parametrize("gain", (np.nan, np.inf, -1.0))
    def test_bad_gain_rejected(self, gain):
        # a NaN gain fails both gain < 0 and gain > 0, and once ran open loop
        asm = _assembly(16)
        with pytest.raises(ValueError, match="gain"):
            _stepper(asm, 1e-3, gain)
        with pytest.raises(ValueError, match="gain"):
            run(asm, _random_state(asm, seed=9), n_steps=20, dt=5e-3, gain=gain)

    @pytest.mark.parametrize("dt", (np.nan, np.inf, 0.0, -1e-3))
    def test_bad_dt_rejected(self, dt):
        asm = _assembly(16)
        with pytest.raises(ValueError, match="dt"):
            _stepper(asm, dt)
        with pytest.raises(ValueError, match="dt"):
            run(asm, _random_state(asm, seed=9), n_steps=20, dt=dt, gain=1.0)

    @pytest.mark.parametrize("kwargs, match", (
        (dict(n_steps=-3), "n_steps"),
        (dict(n_steps=5, record_stride=0), "record_stride"),
        (dict(n_steps=5, record_stride=-2), "record_stride"),
    ), ids=("negative_steps", "zero_stride", "negative_stride"))
    def test_bad_step_counts_rejected(self, kwargs, match):
        # a zero stride once divided by zero at the first step, and a
        # negative step count returned the initial record alone
        asm = _assembly(16)
        with pytest.raises(ValueError, match=match):
            run(asm, _random_state(asm, seed=9), dt=1e-3, **kwargs)

    def test_gain_and_input_mutually_exclusive(self):
        asm = _assembly(16)
        with pytest.raises(ValueError):
            run(asm, np.zeros(asm.dim), n_steps=1, dt=1e-3,
                input_fn=lambda t: 1.0, gain=1.0)

    @pytest.mark.parametrize("shape", [lambda d: (d - 1,), lambda d: (d + 1,),
                                       lambda d: (d, 1)],
                             ids=["short", "long", "column"])
    def test_wrong_state_shape_rejected(self, shape):
        # a state is one flat array of asm.dim coordinates, nothing else
        asm = _assembly(16)
        with pytest.raises(ValueError, match="does not match dim"):
            run(asm, np.zeros(shape(asm.dim)), n_steps=1, dt=1e-3)

    def test_csv_schema(self, tmp_path):
        asm = _assembly(16)
        series = run(asm, _random_state(asm, seed=5), n_steps=20, dt=1e-3,
                     record_stride=5)
        path = tmp_path / "traj.csv"
        series.write_csv(str(path))
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == ("time,E_total,E_kin_v,E_kin_theta,E_kin_eta,"
                          "E_elastic,E_nonlocal,E_magnetic,gauge_pos,"
                          "gauge_vel,input")

    def test_times_uniform(self):
        asm = _assembly(16)
        series = run(asm, _random_state(asm, seed=6), n_steps=40, dt=1e-3,
                     record_stride=4)
        np.testing.assert_allclose(np.diff(series.times), 4e-3, rtol=1e-12)


class TestLargeGrid:
    def test_assembly_and_steps_at_n4096_stay_small(self):
        # the assembly, its probe certificates, the banded factorization and
        # 100 steps at N = 4096 (dim 24 575, where a dense G is 4.5 GiB)
        tracemalloc.start()
        try:
            asm = _assembly(4096)
            stepper = _stepper(asm, default_dt(TOY, asm.grid))
            y = _random_state(asm, seed=3)
            for j in range(100):
                y = stepper.step(y, np.sin(0.1 * j))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(y))
        assert peak < 64 * 2 ** 20


class TestModalState:
    def test_eigenvector_without_mode_table(self, monkeypatch):
        # the start is the lift of the real part of the eigenvector from the
        # spectrum, with its largest-modulus component made real and
        # positive, bit for bit, normalized by its M-norm with M applied part
        # by part, but no per-mode table is built for it
        asm = _assembly(32)
        report = spectral.compute_spectrum(asm)
        solve = spectral.open_loop_modes(asm)
        np.testing.assert_array_equal(solve.omega, report.eigenvalues.imag)
        pos = np.flatnonzero(report.eigenvalues.imag
                             > 1e-10 * max(report.g_norm, 1.0))
        x = solve.mode(pos[2])
        k = int(np.argmax(np.abs(x)))
        x = x * (np.conj(x[k]) / abs(x[k]))
        assert x[k].real > 0.0 and abs(x[k].imag) <= 1e-16 * abs(x[k])
        y = asm.reduction.t_map @ scipy.linalg.solve_triangular(asm.reference.r,
                                                                np.real(x))
        expected = (1.5 / np.sqrt(float(y @ gram_product(asm.energy_parts, y)))) * y

        def no_table(*args):
            raise AssertionError("modal_state built a mode table")

        monkeypatch.setattr(spectral, "_mode_table", no_table)
        np.testing.assert_array_equal(modal_state(asm, 2, 1.5), expected)

    @pytest.mark.parametrize("actuation", (ActuationMode.CURRENT,
                                           ActuationMode.CHARGE_ELECTROSTATIC),
                             ids=lambda a: a.value)
    def test_sign_rule_is_the_solvers_own(self, actuation):
        # at gamma = 0 (and always for the electrostatic model) the vectors
        # come from one SVD per bipartite block; the rule gives the start of
        # the eig vectors of the same S, up to rounding
        params = toy_parameters(gamma=0.0)
        asm = build_system(params, build_grid(params.L, 32), actuation)
        w, v = scipy.linalg.eig(asm.reference.s)
        order = spectral._sort_order(w)
        w, v = w[order], v[:, order]
        pos = np.flatnonzero(w.imag > 1e-10 * np.max(np.abs(w)))
        m = gram(asm.energy_parts, asm.dim)
        for mode in range(6):
            x = v[:, pos[mode]]
            k = int(np.argmax(np.abs(x)))
            y = np.real(spectral.lift_modes(asm, x * (np.conj(x[k]) / abs(x[k]))))
            want = y / np.sqrt(float(y @ m @ y))
            got = modal_state(asm, mode)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_builds_no_eigenvector_array(self):
        # the electrostatic S is bipartite: its one vector is built from the
        # SVD factors and its real part is lifted through the real R, so with
        # the reference formed the start peaks below the spectrum's own peak
        # (a placed eigenvector array, or a complex copy of R, would not)
        asm = build_system(TOY, build_grid(TOY.L, 256), ActuationMode.CHARGE_ELECTROSTATIC)
        dim = asm.reference.s.shape[0]
        peaks = []
        tracemalloc.start()
        try:
            for call in (spectral.compute_spectrum, modal_state):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                call(asm)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert dim == 512 and peaks[1] < peaks[0]

    @pytest.mark.parametrize("mode_index", (-1, -63, 63))
    def test_mode_index_out_of_range(self, mode_index):
        # 2N - 1 = 63 oscillatory pairs at N = 32: a negative index is refused
        # like one past the last pair, not read from the end
        with pytest.raises(ConfigParseError, match=f"mode_index {mode_index} out"):
            modal_state(_assembly(32), mode_index)


class TestAdmissibility:
    def test_unforced_ratio_is_one(self):
        # with i_s = 0 the flow is unitary, so ||y(T)||^2 / ||y0||^2 = 1
        asm = _assembly(32)
        y0 = _random_state(asm, seed=8)
        stepper = _stepper(asm, 1e-3)
        y = y0.copy()
        for _ in range(500):
            y = stepper.step(y)
        m = gram(asm.energy_parts, asm.dim)
        ratio = (y @ m @ y) / (y0 @ m @ y0)
        assert ratio == pytest.approx(1.0, abs=1e-12)


def _optimal_input(asm, n, dt):
    """The real input of unit L2 norm that the n midpoint steps of dt send furthest.

    L is formed column by column in the open-loop modes: input sample m
    reaches mode j at the end as dt d_j r_j^(n-1-m).  With the input scaled
    by sqrt(dt), the L2 norm is the Euclidean one, and L^H L is real (the
    modes come in conjugate pairs), so its top eigenvector is a real input.
    """
    solve = spectral.open_loop_modes(asm)
    half = 0.5 * dt * solve.omega
    r = (1.0 + 1j * half) / (1.0 - 1j * half)
    d = solve.coupling / (1.0 - 1j * half)
    ell = np.sqrt(dt) * d[:, None] * r[:, None] ** np.arange(n - 1, -1, -1)
    top = np.linalg.eigh((ell.conj().T @ ell).real)[1][:, -1]
    return top / np.sqrt(dt)


ADMISSIBILITY_CASES = [(actuation, gamma, n)
                       for actuation in (ActuationMode.CURRENT, ActuationMode.CHARGE_MAGNETIC)
                       for gamma in (0.0, 1.0) for n in (32, 64)]


class TestAdmissibilityConstant:
    @pytest.mark.parametrize("actuation, gamma, n", ADMISSIBILITY_CASES)
    def test_matches_the_stepper_driven_by_the_optimal_input(self, actuation, gamma, n):
        # from rest, y(T) = L u, so the optimal input's energy gain is lambda_max
        params = toy_parameters(gamma)
        asm = build_system(params, build_grid(params.L, n), actuation)
        n_steps, dt = time_steps(1.0, default_dt(params, asm.grid), explicit=False)
        u = _optimal_input(asm, n_steps, dt)
        stepper = _stepper(asm, dt)
        y = np.zeros(asm.dim)
        for u_mid in u:
            y = stepper.step(y, u_mid)
        gain = (y @ gram_product(asm.energy_parts, y)) / (dt * (u @ u))
        c = admissibility_constant(asm, 1.0)
        assert c - 1.0 == pytest.approx(gain, rel=1e-12)
        # ||y(T)|| <= ||y0|| + sqrt(T) ||g|| ||u||: each step is M-unitary and
        # its input map (I - dt/2 S)^{-1} dt g has norm at most dt ||g||
        g = asm.reference.coupling
        assert 1.0 <= c <= 1.0 + g @ g

    def test_is_one_without_coupling(self):
        # the charge-magnetic influence is proportional to gamma
        params = toy_parameters(0.0)
        asm = build_system(params, build_grid(params.L, 32), ActuationMode.CHARGE_MAGNETIC)
        assert not np.any(asm.reference.coupling)
        assert admissibility_constant(asm, 1.0) == 1.0
