"""Implicit-midpoint time integration and the exact admissibility constant.

The midpoint step for y' = G y + b u is

    (I - dt/2 G) y+ = (I + dt/2 G) y + dt b u_mid

which conserves every quadratic invariant of the skew flow exactly (in exact
arithmetic) and is time reversible.  It is taken in the equivalent form

    (I - dt/2 G) y_mid = y + dt/2 b u_mid,    y+ = 2 y_mid - y,

which needs no product with G.  G is dense only because P_xi is, so the
stepper never forms it: it factors once a sparse augmented system in which
the fields P_xi(...) are extra unknowns tied down by tridiagonal Helmholtz
rows (:meth:`SplitGenerator.midpoint_system`).  With its unknowns in order
of their x-coordinate that system is banded, with a bandwidth fixed by the
model and not by N, so a step costs O(N).  :class:`BandLU` owns the banded
solve, from row scaling and the fold of the pivots to the refinement pass;
the stepper (:class:`RankOneMidpoint`) keeps only the midpoint algebra.
:func:`run` checks the start and every record the same way; a record
(:meth:`GeneratorAssembly.energy_split` and :meth:`GeneratorAssembly.gauge`)
is O(N) as well.  Closed-loop runs use
u = -k v^T y evaluated at the midpoint state; the rank-one modified solve is
done with a Sherman-Morrison update of the factored shift so the per-step
dissipation identity  E(n+1) - E(n) = -k dt (v^T y_mid)(B* y_mid)  holds to
rounding.  :func:`admissibility_constant` gives the exact input-to-state
constant of the open-loop step from the open-loop modes, with no time step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dgbtrf, dtbtrs

from .config import time_steps
from .errors import (ConfigParseError, GaugeDrift, GaugeViolation, LinearSolveFailure,
                     NonFiniteState)
from .generator import ENERGY_PARTS, GeneratorAssembly, SplitGenerator, gram_product
from .model import build_grid, default_dt
from .spectral import checked_gain, lift_modes, open_loop_modes
from .variants import build_system

# a tabulated start's y3/y6 rows must meet the gauge to GAUGE_TOL, and a run
# aborts where a gauge residual exceeds 100 * GAUGE_TOL
GAUGE_TOL = 1e-8
# relative energy drift and gauge residuals of an unforced open-loop run
# (acceptance checks 2 and 3, and the verdicts of ``piezolab simulate``)
ENERGY_DRIFT_TOL = 1e-9
GAUGE_BOUND_TOL = 1e-10

CSV_COLUMNS = ["time", *(f"E_{name}" for name in ("total", *ENERGY_PARTS)),
               "gauge_pos", "gauge_vel", "input"]


@dataclass(frozen=True)
class TimeSeries:
    """Recorded trajectory: energies, gauge residuals and inputs.

    ``energies`` has one row per record: the total energy, then each part
    of ENERGY_PARTS, the values of :meth:`GeneratorAssembly.energy_split`
    in the order of the CSV's E_* columns.  ``gauge_pos``/``gauge_vel``
    are the residuals on all cells and
    ``gauge_interior_pos``/``gauge_interior_vel`` those on the interior
    cells, the ones a run driven through an influence off the gauge
    manifold (the distributed current) guards.
    """

    times: np.ndarray
    energies: np.ndarray = field(repr=False)     # (records, 1 + parts)
    gauge_pos: np.ndarray = field(repr=False)
    gauge_vel: np.ndarray = field(repr=False)
    gauge_interior_pos: np.ndarray = field(repr=False)
    gauge_interior_vel: np.ndarray = field(repr=False)
    inputs: np.ndarray = field(repr=False)       # applied input per record
    dt: float
    system: GeneratorAssembly = field(repr=False)  # the system that ran
    factored_band: tuple          # (kl, ku) of the stepper's factored band
    folded_swaps: int             # row swaps folded into the row order

    def total_energy(self) -> np.ndarray:
        return self.energies[:, 0]

    def write_csv(self, path: str) -> None:
        table = np.column_stack([self.times, self.energies, self.gauge_pos,
                                 self.gauge_vel, self.inputs]).tolist()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows([f"{v:.17g}" for v in row] for row in table)


def _band_factor(row: np.ndarray, col: np.ndarray, val: np.ndarray,
                 size: int) -> tuple:
    """(factors, 0-based interchanges, kl, ku) of ``dgbtrf`` on ``val`` at (row, col)."""
    kl, ku = int(np.max(row - col)), int(np.max(col - row))
    # LAPACK band layout with kl extra rows for the fill-in of pivoting
    band = np.zeros((2 * kl + ku + 1, size), order="F")
    band[kl + ku + row - col, col] = val
    lu, piv, info = dgbtrf(band, kl, ku, overwrite_ab=1)
    if info != 0:
        raise LinearSolveFailure(
            f"banded factorization failed: zero pivot {info} of {size}")
    return lu, piv, kl, ku


class BandLU:
    """Banded LU of a sparse square matrix, in a row order that needs no swaps.

    Each row is scaled by 1/max|row| and the matrix, with ``kl`` sub- and
    ``ku`` superdiagonals, is factored by LAPACK ``dgbtrf`` (partial
    pivoting).  Where it swaps rows, the swaps are composed into a row order
    and the rows are factored again in that order: ``dgbtrf`` then takes the
    same pivots with the same arithmetic, all on the diagonal, since each
    still has the largest magnitude of its column and the diagonal candidate
    wins a tie.  A swap there, like a zero pivot, raises
    :class:`LinearSolveFailure`.  ``folded_swaps`` counts the swaps and
    ``factored_band`` is the (kl, ku) of the unit lower and upper bands
    that every solve sweeps.  Row i of the matrix is factored row
    ``position[i]``, the order :meth:`solve` takes.
    """

    def __init__(self, matrix: sparse.sparray):
        coo = matrix.tocoo()
        size = matrix.shape[0]
        row_max = np.zeros(size)
        np.maximum.at(row_max, coo.row, np.abs(coo.data))
        scale = 1.0 / row_max
        scaled = coo.data * scale[coo.row]
        lu, piv, self.kl, self.ku = _band_factor(coo.row, coo.col, scaled, size)
        # scipy returns the interchanges 0-based: row i with row piv[i]; in
        # turn they compose to the row order ``rows``
        rows = np.arange(size)
        swapped = np.flatnonzero(piv != rows)
        for i in swapped:
            rows[i], rows[piv[i]] = rows[piv[i]], rows[i]
        self.folded_swaps = swapped.size
        self.position = np.argsort(rows)
        kl, ku = self.kl, self.ku
        if swapped.size:
            lu, piv, kl, ku = _band_factor(self.position[coo.row], coo.col, scaled, size)
            stray = np.count_nonzero(piv != np.arange(size))
            if stray:
                raise LinearSolveFailure(f"banded factorization swapped {stray} "
                                         f"of {size} rows in the folded order")
            scale, matrix = scale[rows], matrix[rows]
        self.factored_band = (kl, ku)
        self._scale = scale
        self._matrix = matrix
        # unit lower L and upper U, in the band layout of dtbtrs
        self._lower = np.asfortranarray(lu[kl + ku:])
        self._upper = np.asfortranarray(lu[kl:kl + ku + 1])

    def _sweep(self, rhs: np.ndarray) -> np.ndarray:
        """The unrefined solution, by ``dtbtrs`` on a vector or a block."""
        # scale each row; a block's transpose product comes back in Fortran order
        x = dtbtrs(self._lower, (self._scale * rhs.T).T, uplo="L", diag="U",
                   overwrite_b=1)[0]
        return dtbtrs(self._upper, x, overwrite_b=1)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve the matrix's system for ``rhs``, given in factored row order.

        ``rhs[position[i]]`` is the right-hand side of row i, and ``rhs``
        may hold one right-hand side per column.  One refinement pass on
        the residual of the unscaled matrix follows the solve.
        """
        sol = self._sweep(rhs)
        sol += self._sweep(rhs - self._matrix @ sol)
        return sol


class RankOneMidpoint:
    """Factored midpoint stepper for y' = G y + b u, u = -gain * v^T y.

    G is given in split form G0 + C A^{-1} K (a :class:`SplitGenerator`),
    and the midpoint state is solved for through the sparse banded system
    of :meth:`SplitGenerator.midpoint_system`, factored once by
    :class:`BandLU` (``lu``).  A step is one solve with its refinement pass
    and y+ = 2 y_mid - y.

    ``v`` is the feedback output row (B* for collocated current feedback,
    the boundary trace for the electrostatic variant).  With gain 0 the
    stepper integrates the open-loop system with a prescribed input.  A
    gain that is negative or not finite, and a dt that is not finite and
    positive, raise ValueError.
    """

    def __init__(self, g: SplitGenerator, b: np.ndarray, v: np.ndarray,
                 dt: float, gain: float = 0.0):
        if not (np.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and positive, got {dt}")
        self.dt = float(dt)
        self.gain = checked_gain(gain)
        self._half = 0.5 * dt
        self.lu = BandLU(g.midpoint_system(dt))
        # where each state coordinate sits among the ordered unknowns, and
        # the factored row that holds its equation
        self._where = np.argsort(g.order)[:g.shape[0]]
        self._rows_in = self.lu.position[self._where]
        self._b = b
        self._v = v
        if self.gain > 0.0:
            # Sherman-Morrison data for (I - dt/2 G) + (gain dt/2) b v^T
            self._w0 = self._midpoint(self._b)
            self._sm_c = self._half * self.gain
            self._sm_denom = 1.0 + self._sm_c * float(self._v @ self._w0)

    def _midpoint(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (I - dt/2 G) x = rhs.

        The refinement pass of the solve keeps the per-step error at
        rounding level, so the gauge does not drift over long runs.
        """
        full = np.zeros(self.lu.position.size)
        full[self._rows_in] = rhs
        return self.lu.solve(full)[self._where]

    def step(self, y: np.ndarray, u_mid=0.0) -> np.ndarray:
        """One open-loop step with prescribed midpoint input."""
        rhs = y + (self._half * u_mid) * self._b
        return 2.0 * self._midpoint(rhs) - y

    def step_closed(self, y: np.ndarray) -> tuple:
        """One closed-loop step; returns (y_next, applied midpoint input)."""
        x = self._midpoint(y)
        y_mid = x - (self._sm_c * float(self._v @ x) / self._sm_denom) * self._w0
        return 2.0 * y_mid - y, -self.gain * float(self._v @ y_mid)


def run(assembly: GeneratorAssembly, y0: np.ndarray, n_steps: int,
        dt: float, input_fn: Callable[[float], float] | None = None,
        gain: float = 0.0, record_stride: int = 1) -> TimeSeries:
    """Integrate n_steps of the (possibly forced or closed-loop) system.

    ``input_fn`` is evaluated at midpoint times (j + 1/2) dt.  The start,
    every ``record_stride``-th state and the last pass one checked record:
    it aborts with :class:`NonFiniteState` when the state holds NaN or Inf
    (so does a non-finite input), and with :class:`GaugeDrift` when a gauge
    residual exceeds 100 * GAUGE_TOL or is not a number, so a bad start
    fails at step 0.  A run driven (by ``input_fn`` or a positive gain)
    through an influence b off the gauge manifold, lift(b) != b as for the
    distributed current, is guarded on the interior cells only: b's boundary
    jump puts an expected layer in the outermost cells.  Every other run is
    guarded on all cells.  A negative n_steps or a record_stride below 1
    raises ValueError.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    if record_stride < 1:
        raise ValueError(f"record_stride must be at least 1, got {record_stride}")
    if gain > 0.0 and input_fn is not None:
        raise ValueError("closed-loop gain and an open-loop input are mutually exclusive")
    y = np.asarray(y0, dtype=float).copy()
    if y.shape != (assembly.dim,):
        raise ValueError(f"state shape {y.shape} does not match dim {assembly.dim}")
    stepper = RankOneMidpoint(assembly.split, assembly.b, assembly.output, dt,
                              gain=gain)
    interior_guard = ((input_fn is not None or gain > 0.0)
                      and not np.array_equal(assembly.lift(assembly.b), assembly.b))
    threshold = 100.0 * GAUGE_TOL
    records = []  # time, energy split, gauge pos, vel, interior pos, vel, input

    def record(step: int, y: np.ndarray, u: float) -> None:
        """Check and keep the state after ``step`` steps, ``u`` the last input."""
        if not np.isfinite(y).all():
            raise NonFiniteState(
                f"state is not finite at step {step} (t={step * dt:.6g}, "
                f"last input {u!r})")
        (rp, rv), (ip, iv) = assembly.gauge(y)
        records.append((step * dt, [*assembly.energy_split(y).values()],
                        rp, rv, ip, iv, u))
        if interior_guard:
            rp, rv = ip, iv
        if not (rp <= threshold and rv <= threshold):
            raise GaugeDrift(
                f"gauge residual (pos={rp:.3e}, vel={rv:.3e}) exceeded "
                f"{threshold:.3e} at step {step} (t={step * dt:.6g})")

    record(0, y, 0.0)
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
            record(j + 1, y, u)

    times, energies, *gauges, inputs = zip(*records)
    return TimeSeries(times=np.array(times), energies=np.array(energies),
                      gauge_pos=np.array(gauges[0]), gauge_vel=np.array(gauges[1]),
                      gauge_interior_pos=np.array(gauges[2]),
                      gauge_interior_vel=np.array(gauges[3]),
                      inputs=np.array(inputs), dt=dt, system=assembly,
                      factored_band=stepper.lu.factored_band,
                      folded_swaps=stepper.lu.folded_swaps)


def admissibility_constant(assembly: GeneratorAssembly, T: float) -> float:
    """The input-to-state constant sup ||y(T)||_M^2 / (||y0||_M^2 + ||u||_{L2}^2).

    It is exact for the midpoint step with the n steps of dt that reach T
    from the default dt (:func:`time_steps`), read from the open-loop modes
    (:func:`~piezolab.spectral.open_loop_modes`) with no time step.  The
    step is M-unitary, so the constant is 1 + lambda_max(L L*), where L maps
    the midpoint inputs to y(T).  In the modes, with c = x^H g, mode j
    advances by r_j = exp(i theta_j), theta_j = 2 atan(omega_j dt/2), and
    takes the input through d_j = c_j / (1 - i omega_j dt/2), so

        (L L*)_jk = dt d_j conj(d_k) sum_{m<n} (r_j conj(r_k))^m
                  = dt d_j conj(d_k) exp(i (n-1) delta) sin(n delta) / sin(delta)

    with delta = (theta_j - theta_k)/2 and the limit n at delta = 0.  This
    Dirichlet-kernel form stays accurate where theta_j ~ theta_k, where
    (1 - q^n)/(1 - q) does not.  The phase exp(i (n-1) delta) is the
    similarity by diag(exp(i (n-1) theta_j / 2)), which is unitary, so it is
    left out.  Modes with c_j = 0 are dropped, so with g = 0 the constant is
    exactly 1.
    """
    solve = open_loop_modes(assembly)
    n, dt = time_steps(T, default_dt(assembly.params, assembly.grid), explicit=False)
    coupled = solve.coupling != 0.0
    half = 0.5 * dt * solve.omega[coupled]
    d = solve.coupling[coupled] / (1.0 - 1j * half)
    half_theta = np.arctan(half)
    delta = np.subtract.outer(half_theta, half_theta)
    sin_delta = np.sin(delta)
    kernel = np.divide(np.sin(n * delta), sin_delta, out=np.full(delta.shape, float(n)),
                       where=sin_delta != 0.0)
    gram = dt * np.outer(d, d.conj()) * kernel
    return 1.0 + float(np.max(np.linalg.eigvalsh(gram), initial=0.0))


def modal_state(assembly: GeneratorAssembly, mode_index: int = 0,
                amplitude: float = 1.0) -> np.ndarray:
    """Real standing-wave state from the mode_index-th oscillatory pair.

    The pair is the mode_index-th of the ``pairs`` of the modal object
    (:func:`~piezolab.spectral.open_loop_modes`), whose ``mode`` getter
    builds the one energy-coordinate eigenvector of its positive-imaginary
    member (no other vector is built), scaled so that its largest-modulus
    component (the first on a tie) is real and positive, whichever solver
    gave it; the state is the lift of its real part (the real part of its
    lift, as T R^{-1} is real), renormalized to M-norm ``amplitude``.  That
    part is never zero: the scaled vector has a nonzero real part, and the
    lift is injective.  A negative or too large mode_index raises
    :class:`ConfigParseError`, as does a state dimension above
    :data:`~piezolab.generator.DENSE_DIM_GUARD` (the eigenvectors come from
    the dense reference), before any dense array.
    """
    solve = open_loop_modes(assembly)
    pairs = solve.pairs
    if not 0 <= mode_index < pairs.size:
        raise ConfigParseError(f"mode_index {mode_index} out of range ({pairs.size} pairs)")
    x = solve.mode(pairs[mode_index])
    top = x[np.argmax(np.abs(x))]
    y = lift_modes(assembly, np.real(x * (np.conj(top) / abs(top))))
    return (amplitude / np.sqrt(float(y @ gram_product(assembly.energy_parts, y)))) * y


def _tabulated_state(rows, assembly: GeneratorAssembly) -> np.ndarray:
    """Assemble a flat state from (field, index, value) rows.

    Fields are the blocks the assembly names.  When no gauge-bound block
    (y3, y6) is given the model's lift fills them; explicitly tabulated
    gauge-bound blocks must satisfy the constraint.  A coordinate set twice,
    also through an alias (s/y1, w/y4), raises :class:`ConfigParseError`.
    """
    y = np.zeros(assembly.dim)
    given, seen = set(), set()
    for name, idx, value in rows:
        block = assembly.blocks.get(name)
        if block is None:
            raise ConfigParseError(f"unknown state field {name!r}")
        size = block.stop - block.start
        if not 0 <= idx < size:
            raise ConfigParseError(f"index {idx} out of range for field {name}")
        if block.start + idx in seen:
            raise ConfigParseError(f"state coordinate {name}[{idx}] is set twice")
        y[block.start + idx] = value
        seen.add(block.start + idx)
        given.add(name)

    if given.isdisjoint(assembly.reduction.bound):
        return assembly.lift(y)
    rp, rv = assembly.gauge(y)[0]
    if max(rp, rv) > GAUGE_TOL:
        raise GaugeViolation(
            f"tabulated state violates the gauge constraint "
            f"(pos={rp:.3e}, vel={rv:.3e}, tol={GAUGE_TOL:.1e}); omit y3/y6 "
            f"rows to have them filled by projection")
    return y


def simulate(config) -> TimeSeries:
    """Run the experiment described by an ExperimentConfig.

    Builds the linear system of the configured actuation model, its initial
    state, and integrates it with the midpoint stepper.  Returns the
    recorded TimeSeries, which holds the system it ran.  The run ends at
    t_final: an explicit dt must divide it (see :func:`time_steps`), and
    the default dt is adjusted to divide it where it does not.
    """
    params = config.params
    grid = build_grid(params.L, config.n_cells)
    n_steps, dt = time_steps(config.t_final, config.dt or default_dt(params, grid),
                             explicit=config.dt is not None)
    gain = config.feedback_gain
    input_fn = config.input_signal.as_function()
    spec = config.initial_state

    assembly = build_system(params, grid, config.actuation)
    if spec.kind == "zero":
        y0 = np.zeros(assembly.dim)
    elif spec.kind == "modal":
        y0 = modal_state(assembly, spec.mode_index, spec.amplitude)
    else:
        y0 = _tabulated_state(spec.rows, assembly)
    return run(assembly, y0, n_steps, dt, input_fn=input_fn, gain=gain,
               record_stride=config.record_stride)
