"""Midpoint integration: conservation, dissipation identity, reversibility."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from piezolab import spectral
from piezolab.dynamics import (RankOneMidpoint, _trial_profiles,
                               admissibility_estimate, default_dt, modal_state,
                               run)
from piezolab.errors import GaugeDrift, NonFiniteState, PiezolabError
from piezolab.generator import assemble_generator
from piezolab.model import build_grid, toy_parameters
from piezolab.operators import ActuationMode
from piezolab.variants import build_system

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
        n0 = y0 @ (asm.m @ y0)
        n1 = y1 @ (asm.m @ y1)
        assert abs(n1 - n0) <= 1e-12 * n0

    def test_forced_step_dense_oracle(self):
        # y+ = dt (I - dt/2 G)^{-1} b from rest, checked against a direct solve
        asm = _assembly(8)
        dt = 1e-2
        stepped = _stepper(asm, dt).step(np.zeros(asm.dim), 1.0)
        oracle = dt * np.linalg.solve(np.eye(asm.dim) - 0.5 * dt * asm.g, asm.b)
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
        eye = np.eye(asm.dim)
        feedback = 0.5 * dt * gain * np.outer(asm.b, asm.output)
        self.a_minus = eye - 0.5 * dt * asm.g + feedback
        self.a_plus = eye + 0.5 * dt * asm.g - feedback
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
        y = _random_state(asm, seed=4)
        worst = 0.0
        for j in range(300):
            if gain > 0.0:
                y_next, u = stepper.step_closed(y)
            else:
                u = np.cos(5.0 * (j + 0.5) * dt)
                y_next = stepper.step(y, u)
            e, e_next = 0.5 * y @ (asm.m @ y), 0.5 * y_next @ (asm.m @ y_next)
            pred = dt * u * (asm.b_dual @ (0.5 * (y + y_next)))
            worst = max(worst, abs((e_next - e) - pred) / e)
            y = y_next
        assert worst <= 1e-13


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
    # which is B* itself for the six-field models; checked per step
    # against states recorded every step
    asm = build_system(TOY, build_grid(TOY.L, 32), actuation)
    k, dt = 0.7, 2e-3
    series = run(asm, modal_state(asm, 0), n_steps=200, dt=dt, gain=k,
                 record_stride=1, keep_states=True)
    e = series.total_energy()
    worst = 0.0
    for j in range(len(e) - 1):
        y_mid = 0.5 * (series.states[j] + series.states[j + 1])
        pred = -k * dt * (asm.output @ y_mid) * (asm.b_dual @ y_mid)
        worst = max(worst, abs((e[j + 1] - e[j]) - pred) / e[j])
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

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_input_fails_loudly(self, bad):
        # the sparse solve does not check finiteness, so the run loop does:
        # the first non-finite input raises before it reaches the state
        asm = _assembly(16)
        with pytest.raises(NonFiniteState, match="step 3 ") as info:
            run(asm, _random_state(asm, seed=9), n_steps=20, dt=1e-3,
                input_fn=lambda t: bad if t > 2e-3 else 0.0, record_stride=5)
        assert isinstance(info.value, PiezolabError)

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


class TestModalState:
    def test_eigenvector_without_mode_table(self, monkeypatch):
        # the start is the real part of the lifted eigenvector from the
        # spectrum, bit for bit, but no per-mode table is built for it
        asm = _assembly(32)
        report = spectral.compute_spectrum(asm)
        w, vectors_reduced = spectral.open_loop_modes(asm)
        np.testing.assert_array_equal(w, report.eigenvalues)
        pos = np.flatnonzero(report.eigenvalues.imag
                             > 1e-10 * max(report.g_norm, 1.0))
        y = np.real(asm.reduction.t_map @ vectors_reduced[:, pos[2]])
        expected = (1.5 / np.sqrt(float(y @ asm.m @ y))) * y

        def no_table(*args):
            raise AssertionError("modal_state built a mode table")

        monkeypatch.setattr(spectral, "_mode_table", no_table)
        np.testing.assert_array_equal(modal_state(asm, 2, 1.5), expected)


class TestAdmissibility:
    def test_unforced_ratio_is_one(self):
        # with i_s = 0 the flow is unitary, so ||y(T)||^2 / ||y0||^2 = 1
        asm = _assembly(32)
        y0 = _random_state(asm, seed=8)
        stepper = _stepper(asm, 1e-3)
        y = y0.copy()
        for _ in range(500):
            y = stepper.step(y)
        ratio = (y @ asm.m @ y) / (y0 @ asm.m @ y0)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_batched_trials_match_serial(self):
        # the trials run as columns of one block; the estimate equals the
        # trials run one after another with their own scalar input loop
        asm = _assembly(16)
        T, trials = 0.5, 10
        rng = np.random.default_rng(5)
        dt = default_dt(TOY, asm.grid)
        n_steps = max(1, int(round(T / dt)))
        dt = T / n_steps
        stepper = _stepper(asm, dt)
        best = 0.0
        for _ in range(trials):
            y0 = _trial_profiles(asm, rng.standard_normal((4, 4)))
            amp = rng.standard_normal(4)
            phase = rng.uniform(0.0, 2.0 * np.pi, 4)
            y, input_sq = y0.copy(), 0.0
            for j in range(n_steps):
                t = (j + 0.5) * dt
                u = sum(amp[q] * np.sin(2.0 * np.pi * (q + 1) * t / T + phase[q])
                        for q in range(4))
                input_sq += u * u * dt
                y = stepper.step(y, u)
            best = max(best, (y @ asm.m @ y) / (y0 @ asm.m @ y0 + input_sq))
        batched = admissibility_estimate(trials, T, asm, seed=5)
        assert batched == pytest.approx(best, rel=1e-13)

    def test_deterministic_under_seed(self):
        asm = _assembly(32)
        a = admissibility_estimate(trials=10, T=0.5, assembly=asm, seed=42)
        b = admissibility_estimate(trials=10, T=0.5, assembly=asm, seed=42)
        assert a == b

    def test_rejects_few_trials(self):
        asm = _assembly(16)
        with pytest.raises(ValueError):
            admissibility_estimate(trials=3, T=0.5, assembly=asm, seed=0)
