"""Comparison models: electrostatic charge actuation and boundary charge forcing.

Both are :class:`~piezolab.generator.GeneratorAssembly` systems built on the
staggered operators of the full magnetic model, and :func:`build_system`
returns the system of each actuation mode:

* electrostatic: the charge-actuated clamped-free wave system for (v_x, v_dot)
  with rho v_tt = alpha v_xx + (gamma^2/eps3) (P_xi v_x)_x, v(0) = 0, and a
  stress-free right end carrying the boundary load gamma sigma_s/(eps3 h).
  Trace feedback sigma_s = -k sign(gamma) v_dot(L) is collocated for either
  poling direction, which makes the closed loop dissipative and, unlike the
  magnetic model, exponentially decaying.
* charge-magnetic: the full six-field generator driven through delta loads
  at both ends of the bending-velocity momentum row.  The influence vector
  carries boundary trapezoid weights 2/dx, so its energy norm grows without
  bound under refinement; that growth is the signature of an unbounded
  control operator and is reported rather than hidden.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .generator import (GeneratorAssembly, SplitGenerator, assemble,
                        assemble_generator, energy_parts, gram, sparse_blocks,
                        with_influence)
from .model import BeamParameters, StaggeredGrid, block_slices
from .operators import ActuationMode, build_operators


def assemble_electrostatic(params: BeamParameters,
                           grid: StaggeredGrid) -> GeneratorAssembly:
    """Build the clamped-free electrostatic system on the staggered grid.

    The state is (s, w): s = v_x on the n_cells cells (block y1, alias s)
    and w = v_dot on the nodes 1..n_cells (block y4, alias w; node 0 is
    clamped to zero and removed).  Every coordinate is mechanical, there is
    no gauge, and the reduction is the identity.  The energy has a kinetic,
    an elastic and a nonlocal part.  The feedback output is
    sign(gamma) v_dot(L), which equals (eps3 h / |gamma|) B* y, so the loop
    u = -k v^T y is collocated and dissipative for either sign of gamma.

    The stiffness alpha I + (gamma^2/eps3) P_xi reuses the magnetic model's
    nonlocal solve, so the variant is an actual limit study rather than an
    independent discretization.  Raises AssemblyInconsistent when the
    energy-weighted generator fails the skewness certificate.
    """
    ops = build_operators(params, grid)
    n = grid.n_cells
    dx = grid.dx

    # the six-field stencils restricted to the nodes 1..n: the clamped
    # node 0 drops out of the gradient and the divergence keeps the
    # stress-free right end; the one auxiliary field is q = P_xi s
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
    parts = {
        "kinetic_v": (velocity, params.rho * sparse.diags_array(ops.node_weights[1:])),
        "elastic": (strain, params.alpha * dx * sparse.eye_array(n)),
        "nonlocal_": (strain, (params.gamma**2 / params.eps3) * dx * ops.p_dense),
    }
    b = np.zeros(2 * n)
    b[-1] = (params.gamma / (params.rho * params.eps3 * params.h)) * (2.0 / dx)
    output = np.zeros(2 * n)
    output[-1] = np.copysign(1.0, params.gamma)
    return assemble(params, grid, ops.p_dense, split, parts, b,
                    sparse.eye_array(2 * n, format="csr"), (),
                    {"y1": strain, "y4": velocity, "s": strain, "w": velocity},
                    output=output, influence="boundary_trace")


def charge_magnetic_influence(params: BeamParameters, grid: StaggeredGrid) -> np.ndarray:
    """Influence vector for +/- delta charge loads at x = 0 and x = L."""
    y4 = block_slices(grid)["y4"]
    b = np.zeros(grid.state_dim)
    weight = (params.gamma / (params.rho * params.eps3 * params.h)) * (2.0 / grid.dx)
    b[y4.start] = weight
    b[y4.stop - 1] = -weight
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
    m = gram(energy_parts(params, grid, build_operators(params, grid)),
             grid.state_dim)
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
