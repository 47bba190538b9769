"""Implicit-midpoint time integration and the admissibility experiment.

The midpoint step for y' = G y + b u is

    (I - dt/2 G) y+ = (I + dt/2 G) y + dt b u_mid

which conserves every quadratic invariant of the skew flow exactly (in exact
arithmetic) and is time reversible.  Closed-loop runs use u = -k B* y
evaluated at the midpoint state; the rank-one modified solve is done with a
Sherman-Morrison update of the factored shift so the per-step dissipation
identity  E(n+1) - E(n) = -k dt (B* y_mid)^2  holds to rounding.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import GaugeDrift, GaugeViolation, LinearSolveFailure
from .generator import GeneratorAssembly
from .model import BeamParameters, StaggeredGrid, StateVector, build_grid
from .variants import build_system

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
    dt: float = 0.0
    stride: int = 1

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

    ``v`` is the feedback output row (B* for collocated current feedback,
    the boundary trace for the electrostatic variant).  With gain 0 the
    stepper integrates the open-loop system with a prescribed input.
    """

    def __init__(self, g: np.ndarray, b: np.ndarray, v: np.ndarray,
                 dt: float, gain: float = 0.0):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if gain < 0:
            raise ValueError(f"feedback gain must be nonnegative, got {gain}")
        self.dt = float(dt)
        self.gain = float(gain)
        n = g.shape[0]
        half = 0.5 * dt
        self._a_plus = np.eye(n) + half * g
        self._a_minus = np.eye(n) - half * g
        try:
            self._lu = scipy.linalg.lu_factor(self._a_minus)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise LinearSolveFailure(f"shifted system factorization failed: {exc}") from exc
        self._b = b
        self._v = v
        if gain > 0.0:
            # Sherman-Morrison data for (I - dt/2 G) + (gain dt/2) b v^T
            self._w0 = self._solve(self._b)
            self._sm_c = 0.5 * dt * gain
            self._sm_denom = 1.0 + self._sm_c * float(self._v @ self._w0)

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """Shifted-system solve with one refinement pass.

        The refinement keeps the per-step residual at rounding level so the
        gauge constraint does not accumulate solver error over long runs.
        """
        sol = scipy.linalg.lu_solve(self._lu, rhs)
        sol += scipy.linalg.lu_solve(self._lu, rhs - self._a_minus @ sol)
        return sol

    def step(self, y: np.ndarray, u_mid: float = 0.0) -> np.ndarray:
        """One open-loop step with prescribed midpoint input."""
        rhs = self._a_plus @ y
        if u_mid != 0.0:
            rhs = rhs + (self.dt * u_mid) * self._b
        return self._solve(rhs)

    def step_closed(self, y: np.ndarray) -> tuple:
        """One closed-loop step; returns (y_next, applied midpoint input)."""
        c = self._sm_c
        rhs = self._a_plus @ y - c * float(self._v @ y) * self._b
        sol = self._solve(rhs)
        sol = sol - (c * float(self._v @ sol) / self._sm_denom) * self._w0
        u_mid = -self.gain * 0.5 * float(self._v @ (y + sol))
        return sol, u_mid


def run(assembly: GeneratorAssembly, y0: StateVector | np.ndarray, n_steps: int,
        dt: float, input_fn: Callable[[float], float] | None = None,
        gain: float = 0.0, record_stride: int = 1,
        gauge_tol: float = 1e-8, gauge_guard: str = "full",
        keep_states: bool = False) -> TimeSeries:
    """Integrate n_steps of the (possibly forced or closed-loop) system.

    ``input_fn`` is evaluated at midpoint times (j + 1/2) dt.  ``gauge_guard``
    selects the drift diagnostic: "full" for unforced runs, "interior" for
    runs forced through the distributed current influence (whose boundary
    jump puts an expected layer in the outermost cells).
    Aborts with :class:`GaugeDrift` when the selected residual exceeds
    100 * gauge_tol.
    """
    if gain > 0.0 and input_fn is not None:
        raise ValueError("closed-loop gain and an open-loop input are mutually exclusive")
    if isinstance(y0, StateVector):
        y = y0.flat().copy()
    else:
        y = np.asarray(y0, dtype=float).copy()
    if y.shape != (assembly.dim,):
        raise ValueError(f"state shape {y.shape} does not match dim {assembly.dim}")
    stepper = RankOneMidpoint(assembly.g, assembly.b, assembly.output, dt, gain=gain)

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
            y = stepper.step(y, u)
        if (j + 1) % record_stride == 0 or j == n_steps - 1:
            times.append((j + 1) * dt)
            energies.append(assembly.energy_split(y))
            rp, rv = assembly.gauge(y)
            gauge_pos.append(rp)
            gauge_vel.append(rv)
            inputs.append(u)
            if keep_states:
                states.append(y.copy())
            if gauge_guard == "interior":
                rp_g, rv_g = assembly.gauge(y, interior=True)
            else:
                rp_g, rv_g = rp, rv
            if rp_g > threshold or rv_g > threshold:
                raise GaugeDrift(
                    f"gauge residual (pos={rp_g:.3e}, vel={rv_g:.3e}) exceeded "
                    f"{threshold:.3e} at step {j + 1} (t={(j + 1) * dt:.6g})")

    return TimeSeries(times=np.array(times), energies=energies,
                      gauge_pos=np.array(gauge_pos), gauge_vel=np.array(gauge_vel),
                      inputs=np.array(inputs), states=states, dt=dt,
                      stride=record_stride)


def _trial_profiles(grid: StaggeredGrid, params: BeamParameters,
                    coeffs: np.ndarray) -> StateVector:
    """Smooth gauge-constrained state from grid-independent modal coefficients.

    coeffs has shape (4, n_modes); rows drive y1, y2, y4, y5.  Profiles are
    analytic in x, so states on different grids sample the same function.
    """
    L = grid.L
    xc = grid.cell_coords
    xn = grid.node_coords
    xi_nodes = xn[1:-1]
    n_modes = coeffs.shape[1]
    y1 = np.zeros(grid.n_cells)
    y2 = np.zeros(grid.n_interior)
    y4 = np.zeros(grid.n_nodes)
    y5 = np.zeros(grid.n_interior)
    for m in range(1, n_modes + 1):
        k = m * np.pi / L
        y1 += coeffs[0, m - 1] * np.cos(k * xc)
        y2 += coeffs[1, m - 1] * np.sin(k * xi_nodes)
        y4 += coeffs[2, m - 1] * np.cos(k * xn)
        y5 += coeffs[3, m - 1] * np.sin(k * xi_nodes)
    return StateVector.gauge_projected(y1, y2, y4, y5, grid, params)


def admissibility_estimate(trials: int, T: float, assembly: GeneratorAssembly,
                           seed: int = 42, n_modes: int = 4,
                           n_harmonics: int = 4) -> float:
    """Largest observed ||y(T)||_M^2 / (||y0||_M^2 + ||i_s||_{L2}^2).

    Randomness is drawn in a grid-independent modal basis so estimates on
    different grids probe the same ensemble of smooth data.  Trials with a
    vanishing denominator are skipped.
    """
    if trials < 10:
        raise ValueError(f"at least 10 trials required, got {trials}")
    rng = np.random.default_rng(seed)
    params, grid = assembly.params, assembly.grid
    dt = default_dt(params, grid)
    n_steps = max(1, int(round(T / dt)))
    dt = T / n_steps
    stepper = RankOneMidpoint(assembly.g, assembly.b, assembly.output, dt)
    m = assembly.m

    best = 0.0
    for _ in range(trials):
        coeffs = rng.standard_normal((4, n_modes))
        amp = rng.standard_normal(n_harmonics)
        phase = rng.uniform(0.0, 2.0 * np.pi, n_harmonics)
        y0 = _trial_profiles(grid, params, coeffs).flat()

        def signal(t: float) -> float:
            acc = 0.0
            for q in range(n_harmonics):
                acc += amp[q] * np.sin(2.0 * np.pi * (q + 1) * t / T + phase[q])
            return acc

        y = y0.copy()
        input_sq = 0.0
        for j in range(n_steps):
            u = signal((j + 0.5) * dt)
            input_sq += u * u * dt
            y = stepper.step(y, u)

        denom = float(y0 @ m @ y0) + input_sq
        if denom <= 1e-14:
            continue
        ratio = float(y @ m @ y) / denom
        best = max(best, ratio)
    return best


def modal_state(assembly: GeneratorAssembly, mode_index: int = 0,
                amplitude: float = 1.0) -> np.ndarray:
    """Real standing-wave state from the mode_index-th oscillatory pair.

    Takes the real part of the lifted eigenvector of the positive-imaginary
    member, renormalized to M-norm ``amplitude``.  Kernel modes are skipped.
    """
    from .spectral import compute_spectrum

    report = compute_spectrum(assembly)
    pos = np.flatnonzero(report.eigenvalues.imag >
                         1e-10 * max(report.g_norm, 1.0))
    if mode_index >= pos.size:
        raise ValueError(f"mode index {mode_index} out of range ({pos.size} pairs)")
    phi_red = report.vectors_reduced[:, pos[mode_index]]
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

    Fields are the blocks the assembly names.  When no y3/y6 rows are given
    the gauge-bound blocks are filled by the model's lift; explicitly
    tabulated y3/y6 must satisfy the constraint.
    """
    y = np.zeros(assembly.dim)
    given = set()
    for name, idx, value in rows:
        block = assembly.blocks.get(name)
        if block is None:
            raise ValueError(f"unknown state field {name!r}")
        size = block.stop - block.start
        if not 0 <= idx < size:
            raise ValueError(f"index {idx} out of range for field {name}")
        y[block.start + idx] = value
        given.add(name)

    if given.isdisjoint(("y3", "y6")):
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
    recorded TimeSeries.
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

    # forcing through the distributed current influence leaves an expected
    # boundary-cell layer in the gauge residual; guard the interior only
    forced_current = (assembly.influence == "distributed_current"
                      and (input_fn is not None or gain > 0.0))
    guard = "interior" if forced_current else "full"
    return run(assembly, y0, n_steps, dt, input_fn=input_fn, gain=gain,
               record_stride=config.record_stride,
               gauge_tol=config.tolerances.gauge_tol, gauge_guard=guard)
