"""Comparison models: electrostatic charge actuation and boundary charge forcing.

Both are :class:`~piezolab.generator.GeneratorAssembly` systems built on the
staggered operators of the full magnetic model, and :func:`build_system`
returns the system of each actuation mode:

* electrostatic: the charge-actuated clamped-free wave system for (v_x, v_dot)
  with rho v_tt = alpha v_xx + (gamma^2/eps3) (P_xi v_x)_x, v(0) = 0, and a
  stress-free right end carrying the boundary load gamma sigma_s/(eps3 h).
  Collocated trace feedback sigma_s = -k v_dot(L) makes the closed loop
  dissipative and, unlike the magnetic model, exponentially decaying.
* charge-magnetic: the full six-field generator driven through delta loads
  at both ends of the bending-velocity momentum row.  The influence vector
  carries boundary trapezoid weights 2/dx, so its energy norm grows without
  bound under refinement; that growth is the signature of an unbounded
  control operator and is reported rather than hidden.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .generator import (GeneratorAssembly, Reduction, SplitGenerator,
                        assemble_generator, certify_skewness, sparse_blocks,
                        with_influence)
from .model import BeamParameters, StaggeredGrid
from .operators import (ActuationMode, DiscreteOperators, EnergyBreakdown,
                        assemble_mass, build_operators)


def assemble_electrostatic(params: BeamParameters,
                           grid: StaggeredGrid) -> GeneratorAssembly:
    """Build the clamped-free electrostatic system on the staggered grid.

    The state is (s, w): s = v_x on the n_cells cells (block y1, alias s)
    and w = v_dot on the nodes 1..n_cells (block y4, alias w; node 0 is
    clamped to zero and removed).  Every coordinate is mechanical, there is
    no gauge, the reduction is the identity, and the feedback output is the
    free-end velocity v_dot(L), which equals (eps3 h / gamma) B* y.

    The stiffness alpha I + (gamma^2/eps3) P_xi reuses the magnetic model's
    nonlocal solve, so the variant is an actual limit study rather than an
    independent discretization.  Raises AssemblyInconsistent when the
    energy-weighted generator fails the skewness certificate.
    """
    ops = build_operators(params, grid)
    n = grid.n_cells
    dx = grid.dx
    stiff = params.alpha * np.eye(n) + (params.gamma**2 / params.eps3) * ops.p_dense

    # the six-field stencils restricted to the nodes 1..n: the clamped
    # node 0 drops out of the gradient and the divergence keeps the
    # stress-free right end
    g = np.zeros((2 * n, 2 * n))
    g[:n, n:] = ops.grad_f[:, 1:]
    g[n:, :n] = (1.0 / params.rho) * (ops.div_f[1:, :] @ stiff)

    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = dx * stiff
    m[n:, n:] = params.rho * np.diag(ops.node_weights[1:])

    b = np.zeros(2 * n)
    b[-1] = (params.gamma / (params.rho * params.eps3 * params.h)) * (2.0 / dx)

    # the same system split as G0 + C A^{-1} K with the one field q = P_xi s
    strain, velocity = slice(0, n), slice(n, 2 * n)
    q = slice(0, n)
    split = SplitGenerator(
        g0=sparse_blocks((2 * n, 2 * n), [
            (strain, velocity, ops.grad_f[:, 1:]),
            (velocity, strain, (params.alpha / params.rho) * ops.div_f[1:, :])]),
        c=sparse_blocks((2 * n, n), [
            (velocity, q, (params.gamma**2 / (params.eps3 * params.rho))
             * ops.div_f[1:, :])]),
        k=sparse_blocks((n, 2 * n), [(q, strain, np.eye(n))]),
        a=sparse_blocks((n, n), [(q, q, np.eye(n) - params.xi * ops.lap_cc)]))

    skew = certify_skewness(m, g)
    trace = np.zeros(2 * n)
    trace[-1] = 1.0
    return GeneratorAssembly(
        params=params, grid=grid, g=g, split=split, m=m, b=b, b_dual=m @ b,
        output=trace,
        reduction=Reduction(t_map=np.eye(2 * n), m_red=m, g_red=g, b_red=b),
        blocks={"y1": strain, "y4": velocity, "s": strain, "w": velocity},
        energy_split=partial(_electrostatic_energy, params, grid, ops),
        gauge=lambda y, interior=False: (0.0, 0.0), lift=lambda y: y,
        skew_defect=skew, influence="boundary_trace")


def _electrostatic_energy(params: BeamParameters, grid: StaggeredGrid,
                          ops: DiscreteOperators, y: np.ndarray) -> EnergyBreakdown:
    """Split 0.5 y^T M y into kinetic, elastic, and nonlocal parts."""
    n = grid.n_cells
    dx = grid.dx
    s = y[:n]
    w = y[n:]
    kin = 0.5 * params.rho * float(ops.node_weights[1:] @ (w * w))
    elastic = 0.5 * params.alpha * dx * float(s @ s)
    nonloc = 0.5 * (params.gamma**2 / params.eps3) * dx * float(s @ (ops.p_dense @ s))
    return EnergyBreakdown(kinetic_v=kin, kinetic_theta=0.0, kinetic_eta=0.0,
                           elastic=elastic, nonlocal_=nonloc, magnetic=0.0)


def charge_magnetic_influence(params: BeamParameters, grid: StaggeredGrid) -> np.ndarray:
    """Influence vector for +/- delta charge loads at x = 0 and x = L."""
    dim = grid.state_dim
    n = grid.n_cells
    b = np.zeros(dim)
    weight = (params.gamma / (params.rho * params.eps3 * params.h)) * (2.0 / grid.dx)
    first_y4 = 3 * n - 1
    last_y4 = first_y4 + n
    b[first_y4] = weight
    b[last_y4] = -weight
    return b


def assemble_charge_magnetic(params: BeamParameters,
                             grid: StaggeredGrid) -> GeneratorAssembly:
    """Full magnetic generator with boundary charge forcing on the y4 rows.

    The interior dynamics are identical to the current-actuated system; only
    the influence vector changes, and its M-norm is grid-sensitive because
    the delta loads concentrate on single boundary nodes.
    """
    return with_influence(assemble_generator(params, grid),
                          charge_magnetic_influence(params, grid),
                          influence="boundary_charge")


def charge_influence_norm(params: BeamParameters, grid: StaggeredGrid) -> float:
    """Energy norm ||b||_M of the boundary charge influence.

    Only the Gram matrix is assembled; the generator is not needed.
    """
    m = assemble_mass(params, grid, build_operators(params, grid))
    b = charge_magnetic_influence(params, grid)
    return float(np.sqrt(b @ (m @ b)))


def build_system(params: BeamParameters, grid: StaggeredGrid,
                 actuation: ActuationMode) -> GeneratorAssembly:
    """The linear system of one actuation model.

    ``none`` and ``current`` share the distributed-current assembly.
    """
    if actuation is ActuationMode.CHARGE_ELECTROSTATIC:
        return assemble_electrostatic(params, grid)
    if actuation is ActuationMode.CHARGE_MAGNETIC:
        return assemble_charge_magnetic(params, grid)
    return assemble_generator(params, grid)
