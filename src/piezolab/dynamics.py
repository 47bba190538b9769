"""Implicit-midpoint time integration and the admissibility experiment.

The midpoint step for y' = G y + b u is

    (I - dt/2 G) y+ = (I + dt/2 G) y + dt b u_mid

which conserves every quadratic invariant of the skew flow exactly (in exact
arithmetic) and is time reversible.  It is taken in the equivalent form

    (I - dt/2 G) y_mid = y + dt/2 b u_mid,    y+ = 2 y_mid - y,

which needs no product with G.  G is dense only because P_xi is, so the
stepper never forms it: it factors once a sparse augmented system in which
the fields P_xi(...) are extra unknowns tied down by tridiagonal Helmholtz
rows (see :class:`RankOneMidpoint`), and a step costs O(N).  Closed-loop runs
use u = -k v^T y evaluated at the midpoint state; the rank-one modified solve
is done with a Sherman-Morrison update of the factored shift so the per-step
dissipation identity  E(n+1) - E(n) = -k dt (v^T y_mid)(B* y_mid)  holds to
rounding.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import (ConfigParseError, GaugeDrift, GaugeViolation, LinearSolveFailure,
                     NonFiniteState)
from .generator import GeneratorAssembly, SplitGenerator
from .model import BeamParameters, StaggeredGrid, build_grid
from .spectral import open_loop_modes
from .variants import build_system

TRIAL_MODES = 4      # modal profiles per field of an admissibility trial
TRIAL_HARMONICS = 4  # harmonics of an admissibility trial's input

CSV_COLUMNS = ["time", "E_total", "E_kin_v", "E_kin_theta", "E_kin_eta",
               "E_elastic", "E_nonlocal", "E_magnetic",
               "gauge_pos", "gauge_vel", "input"]


def default_dt(params: BeamParameters, grid: StaggeredGrid) -> float:
    """dx / (10 c) with c the mechanical wave speed sqrt(alpha/rho)."""
    c = float(np.sqrt(params.alpha / params.rho))
    return grid.dx / (10.0 * c)


@dataclass(frozen=True)
class TimeSeries:
    """Recorded trajectory: energies, gauge residuals, inputs, snapshots."""

    times: np.ndarray
    energies: list = field(repr=False)           # EnergyBreakdown per record
    gauge_pos: np.ndarray = field(repr=False)
    gauge_vel: np.ndarray = field(repr=False)
    inputs: np.ndarray = field(repr=False)       # applied input per record
    states: list = field(repr=False)             # flat snapshots per record
    dt: float
    system: GeneratorAssembly = field(repr=False)  # the system that ran

    def total_energy(self) -> np.ndarray:
        return np.array([e.total for e in self.energies])

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for i, t in enumerate(self.times):
                row = [t, *self.energies[i].as_row(),
                       self.gauge_pos[i], self.gauge_vel[i], self.inputs[i]]
                writer.writerow([f"{v:.17g}" for v in row])


class RankOneMidpoint:
    """Factored midpoint stepper for y' = G y + b u, u = -gain * v^T y.

    G is given in split form G0 + C A^{-1} K (a :class:`SplitGenerator`).
    The midpoint state and the auxiliary fields z = A^{-1} K y_mid solve

        [I - dt/2 G0   -dt/2 C] [y_mid]   [y + dt/2 b u]
        [    -K           A   ] [  z  ] = [     0      ]

    whose blocks are all sparse; it is factored once with SuperLU, and a
    step is one solve, one refinement solve and y+ = 2 y_mid - y.

    ``v`` is the feedback output row (B* for collocated current feedback,
    the boundary trace for the electrostatic variant).  With gain 0 the
    stepper integrates the open-loop system with a prescribed input.
    """

    def __init__(self, g: SplitGenerator, b: np.ndarray, v: np.ndarray,
                 dt: float, gain: float = 0.0):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if gain < 0:
            raise ValueError(f"feedback gain must be nonnegative, got {gain}")
        self.dt = float(dt)
        self.gain = float(gain)
        self._dim = g.shape[0]
        self._half = 0.5 * dt
        self._aug = sparse.block_array(
            [[sparse.eye_array(self._dim) - self._half * g.g0, -self._half * g.c],
             [-g.k, g.a]], format="csc")
        try:
            self._lu = splu(self._aug)
        except RuntimeError as exc:
            raise LinearSolveFailure(
                f"shifted system factorization failed: {exc}") from exc
        self._b = b
        self._v = v
        if gain > 0.0:
            # Sherman-Morrison data for (I - dt/2 G) + (gain dt/2) b v^T
            self._w0 = self._midpoint(self._b)
            self._sm_c = self._half * gain
            self._sm_denom = 1.0 + self._sm_c * float(self._v @ self._w0)

    def _midpoint(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - dt/2 G) x = rhs through the augmented system.

        ``rhs`` may hold one right-hand side per column.  One refinement
        pass on the augmented residual keeps the per-step error at rounding
        level so the gauge constraint does not accumulate solver error over
        long runs.
        """
        full = np.zeros((self._aug.shape[0],) + rhs.shape[1:])
        full[:self._dim] = rhs
        sol = self._lu.solve(full)
        sol += self._lu.solve(full - self._aug @ sol)
        return sol[:self._dim]

    def step(self, y: np.ndarray, u_mid=0.0) -> np.ndarray:
        """One open-loop step with prescribed midpoint input.

        ``y`` may hold one state per column and ``u_mid`` one input each.
        """
        rhs = y + np.multiply.outer(self._b, self._half * u_mid)
        return 2.0 * self._midpoint(rhs) - y

    def step_closed(self, y: np.ndarray) -> tuple:
        """One closed-loop step; returns (y_next, applied midpoint input)."""
        x = self._midpoint(y)
        y_mid = x - (self._sm_c * float(self._v @ x) / self._sm_denom) * self._w0
        return 2.0 * y_mid - y, -self.gain * float(self._v @ y_mid)


def run(assembly: GeneratorAssembly, y0: np.ndarray, n_steps: int,
        dt: float, input_fn: Callable[[float], float] | None = None,
        gain: float = 0.0, record_stride: int = 1,
        gauge_tol: float = 1e-8, keep_states: bool = False) -> TimeSeries:
    """Integrate n_steps of the (possibly forced or closed-loop) system.

    ``input_fn`` is evaluated at midpoint times (j + 1/2) dt.  Aborts with
    :class:`NonFiniteState` when an input or a recorded state holds NaN or
    Inf, and with :class:`GaugeDrift` when a recorded gauge residual exceeds
    100 * gauge_tol or is not a number.  A run driven through the
    distributed current influence (by ``input_fn`` or a positive gain) is
    guarded on the interior cells only: the influence's boundary jump puts
    an expected layer in the outermost cells.  Every other run is guarded
    on all cells.
    """
    if gain > 0.0 and input_fn is not None:
        raise ValueError("closed-loop gain and an open-loop input are mutually exclusive")
    y = np.asarray(y0, dtype=float).copy()
    if y.shape != (assembly.dim,):
        raise ValueError(f"state shape {y.shape} does not match dim {assembly.dim}")
    stepper = RankOneMidpoint(assembly.split, assembly.b, assembly.output, dt,
                              gain=gain)
    interior_guard = (assembly.influence == "distributed_current"
                      and (input_fn is not None or gain > 0.0))

    times = [0.0]
    energies = [assembly.energy_split(y)]
    rp, rv = assembly.gauge(y)
    gauge_pos, gauge_vel = [rp], [rv]
    inputs = [0.0]
    states = [y.copy()] if keep_states else []

    threshold = 100.0 * gauge_tol
    for j in range(n_steps):
        if gain > 0.0:
            y, u = stepper.step_closed(y)
        else:
            u = float(input_fn((j + 0.5) * dt)) if input_fn is not None else 0.0
            if not np.isfinite(u):
                raise NonFiniteState(
                    f"input is not finite at step {j + 1} "
                    f"(t={(j + 0.5) * dt:.6g}, input {u!r})")
            y = stepper.step(y, u)
        if (j + 1) % record_stride == 0 or j == n_steps - 1:
            if not np.isfinite(y).all():
                raise NonFiniteState(
                    f"state is not finite at step {j + 1} (t={(j + 1) * dt:.6g}, "
                    f"last input {u!r})")
            times.append((j + 1) * dt)
            energies.append(assembly.energy_split(y))
            rp, rv = assembly.gauge(y)
            gauge_pos.append(rp)
            gauge_vel.append(rv)
            inputs.append(u)
            if keep_states:
                states.append(y.copy())
            if interior_guard:
                rp_g, rv_g = assembly.gauge(y, interior=True)
            else:
                rp_g, rv_g = rp, rv
            if not (rp_g <= threshold and rv_g <= threshold):
                raise GaugeDrift(
                    f"gauge residual (pos={rp_g:.3e}, vel={rv_g:.3e}) exceeded "
                    f"{threshold:.3e} at step {j + 1} (t={(j + 1) * dt:.6g})")

    return TimeSeries(times=np.array(times), energies=energies,
                      gauge_pos=np.array(gauge_pos), gauge_vel=np.array(gauge_vel),
                      inputs=np.array(inputs), states=states, dt=dt,
                      system=assembly)


def _trial_profiles(assembly: GeneratorAssembly, coeffs: np.ndarray) -> np.ndarray:
    """Smooth gauge-constrained flat state from grid-independent modal coefficients.

    coeffs has shape (4, n_modes); rows drive y1, y2, y4, y5, and the lift
    fills the gauge-bound blocks.  Profiles are analytic in x, so states on
    different grids sample the same function.
    """
    grid = assembly.grid
    L = grid.L
    xc = grid.cell_coords
    xn = grid.node_coords
    xi_nodes = xn[1:-1]
    n_modes = coeffs.shape[1]
    y = np.zeros(assembly.dim)
    # the block slices are views, so the sums below fill y in place
    y1, y2, y4, y5 = (y[assembly.blocks[name]] for name in ("y1", "y2", "y4", "y5"))
    for m in range(1, n_modes + 1):
        k = m * np.pi / L
        y1 += coeffs[0, m - 1] * np.cos(k * xc)
        y2 += coeffs[1, m - 1] * np.sin(k * xi_nodes)
        y4 += coeffs[2, m - 1] * np.cos(k * xn)
        y5 += coeffs[3, m - 1] * np.sin(k * xi_nodes)
    return assembly.lift(y)


def admissibility_estimate(trials: int, T: float, assembly: GeneratorAssembly,
                           seed: int = 42) -> float:
    """Largest observed ||y(T)||_M^2 / (||y0||_M^2 + ||i_s||_{L2}^2).

    Randomness is drawn in a grid-independent modal basis (TRIAL_MODES
    profiles per field, an input of TRIAL_HARMONICS harmonics) so estimates
    on different grids probe the same ensemble of smooth data.  Trials with
    a vanishing denominator are skipped.
    """
    if trials < 10:
        raise ValueError(f"at least 10 trials required, got {trials}")
    rng = np.random.default_rng(seed)
    params, grid = assembly.params, assembly.grid
    dt = default_dt(params, grid)
    n_steps = max(1, int(round(T / dt)))
    dt = T / n_steps
    stepper = RankOneMidpoint(assembly.split, assembly.b, assembly.output, dt)
    m = assembly.m

    # draws in the order of one trial after another; the trials then run
    # together, one state per column and one input per column
    y0, amp, phase = [], [], []
    for _ in range(trials):
        y0.append(_trial_profiles(assembly, rng.standard_normal((4, TRIAL_MODES))))
        amp.append(rng.standard_normal(TRIAL_HARMONICS))
        phase.append(rng.uniform(0.0, 2.0 * np.pi, TRIAL_HARMONICS))
    y0 = np.stack(y0, axis=1)
    amp, phase = np.array(amp), np.array(phase)
    harmonic = np.arange(1, TRIAL_HARMONICS + 1)

    y = y0.copy()
    input_sq = np.zeros(trials)
    for j in range(n_steps):
        t = (j + 0.5) * dt
        u = np.sum(amp * np.sin(2.0 * np.pi * harmonic * t / T + phase), axis=1)
        input_sq += u * u * dt
        y = stepper.step(y, u)

    denom = np.einsum("ij,ij->j", y0, m @ y0) + input_sq
    ratio = np.einsum("ij,ij->j", y, m @ y)[denom > 1e-14] / denom[denom > 1e-14]
    return float(ratio.max(initial=0.0))


def modal_state(assembly: GeneratorAssembly, mode_index: int = 0,
                amplitude: float = 1.0) -> np.ndarray:
    """Real standing-wave state from the mode_index-th oscillatory pair.

    Takes the real part of the lifted eigenvector of the positive-imaginary
    member, renormalized to M-norm ``amplitude``.  Kernel modes are skipped.
    """
    w, vectors_reduced = open_loop_modes(assembly)
    pos = np.flatnonzero(w.imag > 1e-10 * max(float(np.max(np.abs(w))), 1.0))
    if mode_index >= pos.size:
        raise ConfigParseError(f"mode_index {mode_index} out of range ({pos.size} pairs)")
    phi_red = vectors_reduced[:, pos[mode_index]]
    phi = assembly.reduction.t_map @ phi_red
    y = np.real(phi)
    nrm = np.sqrt(float(y @ assembly.m @ y))
    if nrm == 0.0:
        y = np.imag(phi)
        nrm = np.sqrt(float(y @ assembly.m @ y))
    return (amplitude / nrm) * y


def _tabulated_state(rows, assembly: GeneratorAssembly,
                     gauge_tol: float) -> np.ndarray:
    """Assemble a flat state from (field, index, value) rows.

    Fields are the blocks the assembly names.  When no gauge-bound block
    (y3, y6) is given the model's lift fills them; explicitly tabulated
    gauge-bound blocks must satisfy the constraint.
    """
    y = np.zeros(assembly.dim)
    given = set()
    for name, idx, value in rows:
        block = assembly.blocks.get(name)
        if block is None:
            raise ConfigParseError(f"unknown state field {name!r}")
        size = block.stop - block.start
        if not 0 <= idx < size:
            raise ConfigParseError(f"index {idx} out of range for field {name}")
        y[block.start + idx] = value
        given.add(name)

    if given.isdisjoint(assembly.reduction.bound):
        return assembly.lift(y)
    rp, rv = assembly.gauge(y)
    if max(rp, rv) > gauge_tol:
        raise GaugeViolation(
            f"tabulated state violates the gauge constraint "
            f"(pos={rp:.3e}, vel={rv:.3e}, tol={gauge_tol:.1e}); omit y3/y6 "
            f"rows to have them filled by projection")
    return y


def simulate(config) -> TimeSeries:
    """Run the experiment described by an ExperimentConfig.

    Builds the linear system of the configured actuation model, its initial
    state, and integrates it with the midpoint stepper.  Returns the
    recorded TimeSeries, which holds the system it ran.
    """
    params = config.params
    grid = build_grid(params.L, config.n_cells)
    dt = config.dt if config.dt is not None else default_dt(params, grid)
    n_steps = max(1, int(round(config.t_final / dt)))
    gain = config.feedback_gain
    input_fn = config.input_signal.as_function()
    spec = config.initial_state

    assembly = build_system(params, grid, config.actuation)
    if spec.kind == "zero":
        y0 = np.zeros(assembly.dim)
    elif spec.kind == "modal":
        y0 = modal_state(assembly, spec.mode_index, spec.amplitude)
    else:
        y0 = _tabulated_state(spec.rows, assembly, config.tolerances.gauge_tol)
    return run(assembly, y0, n_steps, dt, input_fn=input_fn, gain=gain,
               record_stride=config.record_stride,
               gauge_tol=config.tolerances.gauge_tol)
