"""Assembly of the evolution generator, the control vector, and certificates.

The generator realizes the first-order system

    y1' = grad(y4)
    y2' = y5
    y3' = y6
    rho * y4' = div(s),             s = (alpha + (gamma^2/eps3) P_xi) y1
                                        + gamma (I - P_xi) y6
                                        + gamma xi P_xi grad(y5)
    (eps1 h^2/12) * y5' = -mu y2 + mu div(y3) - gamma xi div(P_xi grad(y4))
    eps3 * y6' = mu lap(y3) - mu grad(y2) + gamma (I - P_xi) grad(y4)

with zero stress at both faces and theta clamped at both ends.  On the gauge
manifold y6 = xi*grad(y5) the stress reduces to the familiar
(alpha + (gamma^2/eps3) P_xi) y1 + gamma y6; the split form written above is
the unique extension of that row off the manifold that keeps G skew-adjoint
in the energy inner product on the whole coordinate space.  Skewness then
holds as a matrix identity (to rounding), not merely on the constrained
subspace, which is what makes the conservation and spectral certificates
sharp.

The constrained subspace is parametrized by (y1, y2, y4, y5) through the
lift T: y3 = xi*grad(y2), y6 = xi*grad(y5).  G maps the manifold into
itself, so G T = T G_red with G_red the reduced generator used for spectra.

:class:`GeneratorAssembly` is the linear system that every actuation model
builds; the run loop, the mode table and the spectra take nothing else.
The six-field models are assembled here, the electrostatic one in
:mod:`piezolab.variants`.

Every assembly carries its generator twice: dense, as the reference that
spectra, certificates and tests read, and in the sparse split form
G = G0 + C A^{-1} K (:class:`SplitGenerator`) that time stepping uses.
For the six-field models A^{-1} K produces two auxiliary cell fields,

    q = P_xi [(gamma^2/eps3) y1 - gamma y6 + gamma xi grad(y5)]
    r = P_xi grad_f(y4)

so that the stress is s = alpha y1 + gamma y6 + q, the y5 row carries
-(gamma/eps3) div(r) and the y6 row (gamma/eps3)(grad_f(y4) - r).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg
from scipy import sparse

from .errors import AssemblyInconsistent
from .model import BeamParameters, StaggeredGrid, StateVector, block_slices
from .operators import (DiscreteOperators, EnergyBreakdown, assemble_mass,
                        build_operators, energy, gauge_residual)

SKEW_TOL = 1e-12
CONSTRAINT_TOL = 1e-11


@dataclass(frozen=True)
class Reduction:
    """Coordinates in which the Gram matrix is definite.

    The six-field models eliminate the gauge-bound y3 and y6 and keep
    (y1, y2, y4, y5); a model without a gauge keeps every coordinate.
    """

    t_map: np.ndarray   # lift to the full coordinates
    m_red: np.ndarray   # SPD Gram on reduced coordinates
    g_red: np.ndarray   # reduced generator, G T = T G_red
    b_red: np.ndarray   # M-orthogonal representative of b on the manifold


@dataclass(frozen=True)
class SplitGenerator:
    """A generator in sparse split form G = G0 + C A^{-1} K.

    G0, C and K are built from the difference stencils; A = I - xi lap_cc
    is tridiagonal, one block per auxiliary field z = A^{-1} K y.  Every
    application of P_xi goes through z, so no block is dense.  ``shape`` is
    the shape of G, as for any linear operator.
    """

    g0: sparse.csr_array    # (dim, dim)
    c: sparse.csr_array     # (dim, n_aux)
    k: sparse.csr_array     # (n_aux, dim)
    a: sparse.csr_array     # (n_aux, n_aux)

    @property
    def shape(self) -> tuple:
        return self.g0.shape


def sparse_blocks(shape: tuple, parts) -> sparse.csr_array:
    """CSR matrix of the given shape from (row slice, col slice, block) parts.

    Each block is placed at its slices; its zero entries are not stored.
    """
    rows, cols, vals = [], [], []
    for rs, cs, block in parts:
        coo = sparse.coo_array(np.asarray(block, dtype=float))
        rows.append(coo.row + rs.start)
        cols.append(coo.col + cs.start)
        vals.append(coo.data)
    return sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape)


@dataclass(frozen=True)
class GeneratorAssembly:
    """One actuation model as the linear system y' = G y + b u.

    Current, charge-magnetic and electrostatic actuation differ only in the
    data held here: the generator G, the Gram matrix M of the energy, the
    influence b, the feedback output row v of the closed loop u = -k v^T y,
    and the reduction to coordinates where M is definite.  ``blocks`` names
    the slices of the flat state (the mechanical ones are y1 and y4), and
    three functions of a flat state complete the model: ``energy_split``
    gives the energy in its parts, ``gauge(y, interior=False)`` the relative
    gauge residuals (pos, vel), zero for a model without a gauge, and
    ``lift`` fills the gauge-bound blocks from the free ones.  ``split``
    is G in the sparse form the time stepper factors.

    The certificates measured while assembling are kept: ``skew_defect`` is
    ||M G + G^T M|| / ||M G|| and ``gauge_defect`` is
    ||G T - T G_red|| / max(||G||, 1), how exactly G preserves the gauge
    manifold (zero for a model without a gauge).
    """

    params: BeamParameters
    grid: StaggeredGrid
    g: np.ndarray = field(repr=False)
    split: SplitGenerator = field(repr=False)
    m: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    b_dual: np.ndarray = field(repr=False)  # M b, the row form of B*
    output: np.ndarray = field(repr=False)  # feedback output row v
    reduction: Reduction = field(repr=False)
    blocks: dict = field(repr=False)
    energy_split: Callable[[np.ndarray], EnergyBreakdown] = field(repr=False)
    gauge: Callable[..., tuple] = field(repr=False)
    lift: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    skew_defect: float = 0.0
    gauge_defect: float = 0.0
    influence: str = "distributed_current"

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @property
    def mechanical(self) -> np.ndarray:
        """Coordinates of the mechanical blocks: strain y1 and velocity y4."""
        idx = np.arange(self.dim)
        return np.r_[idx[self.blocks["y1"]], idx[self.blocks["y4"]]]

    @property
    def bstar_feedback(self) -> bool:
        """Whether the output row is B* itself.

        Closed-loop spectra act through B*, so only then does their gain
        mean the gain of a closed-loop run.
        """
        return self.output is self.b_dual


def _generator_matrix(params: BeamParameters, grid: StaggeredGrid,
                      ops: DiscreteOperators) -> np.ndarray:
    n = grid.n_cells
    sl = block_slices(grid)
    g = np.zeros((grid.state_dim, grid.state_dim))

    alpha, gamma = params.alpha, params.gamma
    eps1, eps3, mu, h = params.eps1, params.eps3, params.mu, params.h
    xi = params.xi
    p = ops.p_dense
    one_minus_p = ops.one_minus_p

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
    return g


def _split_generator(params: BeamParameters, grid: StaggeredGrid,
                     ops: DiscreteOperators) -> SplitGenerator:
    """The six-field generator as G0 + C A^{-1} K with fields z = (q, r)."""
    n = grid.n_cells
    sl = block_slices(grid)
    dim = grid.state_dim
    q, r = slice(0, n), slice(n, 2 * n)

    rho, alpha, gamma = params.rho, params.alpha, params.gamma
    eps3, mu, xi = params.eps3, params.mu, params.xi
    c5 = 12.0 / (params.eps1 * params.h ** 2)
    eye_n, eye_i = np.eye(n), np.eye(n - 1)

    g0 = sparse_blocks((dim, dim), [
        (sl["y1"], sl["y4"], ops.grad_f),
        (sl["y2"], sl["y5"], eye_i),
        (sl["y3"], sl["y6"], eye_n),
        (sl["y4"], sl["y1"], (alpha / rho) * ops.div_f),
        (sl["y4"], sl["y6"], (gamma / rho) * ops.div_f),
        (sl["y5"], sl["y2"], -c5 * mu * eye_i),
        (sl["y5"], sl["y3"], c5 * mu * ops.div_int),
        (sl["y6"], sl["y3"], (mu / eps3) * ops.lap_cc),
        (sl["y6"], sl["y2"], -(mu / eps3) * ops.grad_nc),
        (sl["y6"], sl["y4"], (gamma / eps3) * ops.grad_f),
    ])
    c = sparse_blocks((dim, 2 * n), [
        (sl["y4"], q, (1.0 / rho) * ops.div_f),
        (sl["y5"], r, -(gamma / eps3) * ops.div_int),
        (sl["y6"], r, -(gamma / eps3) * eye_n),
    ])
    k = sparse_blocks((2 * n, dim), [
        (q, sl["y1"], (gamma ** 2 / eps3) * eye_n),
        (q, sl["y5"], gamma * xi * ops.grad_nc),
        (q, sl["y6"], -gamma * eye_n),
        (r, sl["y4"], ops.grad_f),
    ])
    helmholtz = eye_n - xi * ops.lap_cc
    a = sparse_blocks((2 * n, 2 * n), [(q, q, helmholtz), (r, r, helmholtz)])
    return SplitGenerator(g0=g0, c=c, k=k, a=a)


def _reduction(params: BeamParameters, grid: StaggeredGrid, ops: DiscreteOperators,
               g: np.ndarray, m: np.ndarray, b: np.ndarray) -> tuple:
    """The reduction to (y1, y2, y4, y5) and its relative gauge defect."""
    n = grid.n_cells
    sl = block_slices(grid)
    dim = grid.state_dim
    dim_red = 4 * n - 1

    t = np.zeros((dim, dim_red))
    col = {"y1": slice(0, n), "y2": slice(n, 2 * n - 1),
           "y4": slice(2 * n - 1, 3 * n), "y5": slice(3 * n, 4 * n - 1)}
    t[sl["y1"], col["y1"]] = np.eye(n)
    t[sl["y2"], col["y2"]] = np.eye(n - 1)
    t[sl["y3"], col["y2"]] = params.xi * ops.grad_nc
    t[sl["y4"], col["y4"]] = np.eye(n + 1)
    t[sl["y5"], col["y5"]] = np.eye(n - 1)
    t[sl["y6"], col["y5"]] = params.xi * ops.grad_nc

    m_red = t.T @ (m @ t)
    m_red = 0.5 * (m_red + m_red.T)

    gt = g @ t
    keep = np.concatenate([np.arange(dim)[sl[b_]] for b_ in ("y1", "y2", "y4", "y5")])
    g_red = gt[keep, :]

    defect = float(np.linalg.norm(gt - t @ g_red) / max(np.linalg.norm(g), 1.0))
    if defect > CONSTRAINT_TOL:
        raise AssemblyInconsistent(
            f"generator does not preserve the gauge manifold: defect {defect:.3e}")

    rhs = t.T @ (m @ b)
    b_red = scipy.linalg.solve(m_red, rhs, assume_a="pos")
    return Reduction(t_map=t, m_red=m_red, g_red=g_red, b_red=b_red), defect


def certify_skewness(m: np.ndarray, g: np.ndarray) -> float:
    """||M G + G^T M|| / ||M G||; raises AssemblyInconsistent above SKEW_TOL."""
    mg = m @ g
    scale = np.linalg.norm(mg)
    skew = float(np.linalg.norm(mg + mg.T) / scale) if scale > 0 else 0.0
    if skew > SKEW_TOL:
        raise AssemblyInconsistent(f"skewness certificate failed: {skew:.3e}")
    return skew


def assemble_control(params: BeamParameters, grid: StaggeredGrid) -> np.ndarray:
    """Distributed current influence: 12/(eps1 h^3) on every y5 coordinate."""
    sl = block_slices(grid)
    b = np.zeros(grid.state_dim)
    b[sl["y5"]] = 12.0 / (params.eps1 * params.h ** 3)
    return b


def assemble_generator(params: BeamParameters, grid: StaggeredGrid) -> GeneratorAssembly:
    """Build and certify the full assembly (generator, Gram, control).

    Raises :class:`AssemblyInconsistent` if the skewness certificate
    ||M G + G^T M|| > SKEW_TOL * ||M G|| or the gauge-invariance certificate
    fails; both would signal an operator compatibility bug.
    """
    ops = build_operators(params, grid)
    g = _generator_matrix(params, grid, ops)
    m = assemble_mass(params, grid, ops)
    b = assemble_control(params, grid)

    skew = certify_skewness(m, g)
    red, gauge_defect = _reduction(params, grid, ops, g, m, b)
    for arr in (g, m, b):
        arr.setflags(write=False)
    b_dual = m @ b
    return GeneratorAssembly(
        params=params, grid=grid, g=g,
        split=_split_generator(params, grid, ops), m=m, b=b, b_dual=b_dual,
        output=b_dual, reduction=red, blocks=block_slices(grid),
        energy_split=partial(_energy_split, params, grid, ops),
        gauge=partial(_gauge, grid, ops), lift=partial(_lift, params, grid),
        skew_defect=skew, gauge_defect=gauge_defect)


def _energy_split(params, grid, ops, y: np.ndarray) -> EnergyBreakdown:
    return energy(StateVector.from_flat(y, grid), params, grid, ops)


def _gauge(grid, ops, y: np.ndarray, interior: bool = False) -> tuple:
    return gauge_residual(StateVector.from_flat(y, grid), ops, interior)


def _lift(params, grid, y: np.ndarray) -> np.ndarray:
    s = StateVector.from_flat(y, grid)
    return StateVector.gauge_projected(s.y1, s.y2, s.y4, s.y5, grid, params).flat()


def with_influence(assembly: GeneratorAssembly, b: np.ndarray,
                   influence: str) -> GeneratorAssembly:
    """Same interior dynamics with a different control influence vector."""
    b = np.asarray(b, dtype=float).copy()
    b.setflags(write=False)
    red = assembly.reduction
    rhs = red.t_map.T @ (assembly.m @ b)
    b_red = scipy.linalg.solve(red.m_red, rhs, assume_a="pos")
    b_dual = assembly.m @ b
    return replace(assembly, b=b, b_dual=b_dual, output=b_dual,
                   reduction=replace(red, b_red=b_red), influence=influence)


def b_star(z, assembly: GeneratorAssembly) -> float:
    """Adjoint output b^T M z; equals (dx/h) * sum(z5) for the current influence."""
    if isinstance(z, StateVector):
        z = z.flat()
    z = np.asarray(z)
    if z.shape != (assembly.dim,):
        raise ValueError(f"state must have {assembly.dim} coordinates, got {z.shape}")
    return float(np.dot(assembly.b_dual, z)) if np.isrealobj(z) else complex(
        np.dot(assembly.b_dual, z))

