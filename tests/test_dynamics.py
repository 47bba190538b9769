"""Midpoint integration: conservation, dissipation identity, reversibility."""

import numpy as np
import pytest

from piezolab.dynamics import (RankOneMidpoint, admissibility_estimate,
                               default_dt, modal_state, run)
from piezolab.errors import GaugeDrift
from piezolab.generator import assemble_generator, b_star
from piezolab.model import StateVector, build_grid, toy_parameters
from piezolab.operators import ActuationMode
from piezolab.variants import build_system

TOY = toy_parameters()

CHARGE_SYSTEMS = (ActuationMode.CHARGE_MAGNETIC,
                  ActuationMode.CHARGE_ELECTROSTATIC)


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
    return RankOneMidpoint(asm.g, asm.b, asm.output, dt, gain=gain)


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
        bwd = RankOneMidpoint(-asm.g, asm.b, asm.output, dt)
        y0 = _random_state(asm, seed=3)
        y = y0.copy()
        for _ in range(50):
            y = fwd.step(y)
        for _ in range(50):
            y = bwd.step(y)
        assert np.linalg.norm(y - y0) <= 1e-10 * np.linalg.norm(y0)


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
                 record_stride=1, gauge_guard="interior", keep_states=True)
    e = series.total_energy()
    worst = 0.0
    for j in range(len(e) - 1):
        y_mid = 0.5 * (series.states[j] + series.states[j + 1])
        pred = -k * dt * (asm.output @ y_mid) * b_star(y_mid, asm)
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
                     record_stride=10, gauge_guard="interior")
        increments = np.diff(series.total_energy())
        assert increments.max() <= 1e-12 * series.total_energy()[0]

    def test_forced_full_guard_trips(self):
        # the distributed influence has a boundary jump; a forced run with the
        # full-residual guard must abort rather than report silently
        asm = _assembly(32)
        with pytest.raises(GaugeDrift):
            run(asm, StateVector.zero(asm.grid), n_steps=200, dt=2e-3,
                input_fn=lambda t: 1.0, gauge_guard="full")

    def test_gain_and_input_mutually_exclusive(self):
        asm = _assembly(16)
        with pytest.raises(ValueError):
            run(asm, StateVector.zero(asm.grid), n_steps=1, dt=1e-3,
                input_fn=lambda t: 1.0, gain=1.0)

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

    def test_deterministic_under_seed(self):
        asm = _assembly(32)
        a = admissibility_estimate(trials=10, T=0.5, assembly=asm, seed=42)
        b = admissibility_estimate(trials=10, T=0.5, assembly=asm, seed=42)
        assert a == b

    def test_rejects_few_trials(self):
        asm = _assembly(16)
        with pytest.raises(ValueError):
            admissibility_estimate(trials=3, T=0.5, assembly=asm, seed=0)
