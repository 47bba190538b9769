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
builds; the run loop, the mode table and the spectra take nothing else.  It
acts on flat state arrays whose named blocks are the slices ``blocks``, and
its row ``b_dual`` = M b is the control adjoint: B* y = b^T M y is
``b_dual @ y``, which equals (dx/h) * sum(y5) for the current influence.
A model is a declaration (split generator, energy parts, b, lift T, bound
blocks, output row) that the one builder :func:`assemble` certifies; the
six-field models are declared here, the electrostatic one in
:mod:`piezolab.variants`.

Every model is built in the sparse split form G = G0 + C A^{-1} K
(:class:`SplitGenerator`) that time stepping factors.  For the six-field
models A^{-1} K produces two auxiliary cell fields,

    q = P_xi [(gamma^2/eps3) y1 - gamma y6 + gamma xi grad(y5)]
    r = P_xi grad_f(y4)

so that the stress is s = alpha y1 + gamma y6 + q, the y5 row carries
-(gamma/eps3) div(r) and the y6 row (gamma/eps3)(grad_f(y4) - r).  The dense
G that spectra and certificates read is formed from the split, with the
dense P_xi in place of A^{-1}; it is the only dense (dim, dim) matrix.

Each model declares its energy once, as named quadratic forms on blocks of
the state (``energy_parts``): the Gram matrix M is their sum and the energy
split evaluates them one by one.  The gauge is declared once too, by the
lift T and the blocks it binds (:class:`Reduction`).  M and T are sparse
except for the nonlocal part, the one dense block of M, so the
certificates, M_red and G_red are sparse-times-dense products.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .errors import AssemblyInconsistent
from .model import BeamParameters, StaggeredGrid, block_slices
from .operators import DiscreteOperators, build_operators

SKEW_TOL = 1e-12
CONSTRAINT_TOL = 1e-11
NORM_FLOOR = 1e-30


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split into its six nonnegative quadratic contributions.

    A model without some of the parts leaves them at zero.
    """

    kinetic_v: float = 0.0
    kinetic_theta: float = 0.0
    kinetic_eta: float = 0.0
    elastic: float = 0.0
    nonlocal_: float = 0.0
    magnetic: float = 0.0

    @property
    def total(self) -> float:
        return (self.kinetic_v + self.kinetic_theta + self.kinetic_eta
                + self.elastic + self.nonlocal_ + self.magnetic)

    def as_row(self) -> list:
        return [self.total, self.kinetic_v, self.kinetic_theta, self.kinetic_eta,
                self.elastic, self.nonlocal_, self.magnetic]


@dataclass(frozen=True)
class Reduction:
    """Coordinates in which the Gram matrix is definite.

    The six-field models eliminate the gauge-bound y3 and y6 and keep
    (y1, y2, y4, y5); a model without a gauge keeps every coordinate.
    ``keep`` lists the free full coordinates, on which T is the identity,
    and ``bound`` names the blocks T fills from them (none without a gauge).
    """

    t_map: sparse.csr_array  # lift to the full coordinates
    keep: np.ndarray    # full coordinates of the reduced ones, T[keep] = I
    bound: tuple        # gauge-bound block names, (pos, vel) or empty
    m_red: np.ndarray   # SPD Gram on reduced coordinates
    g_red: np.ndarray   # reduced generator, G T = T G_red
    mechanical: np.ndarray  # reduced coordinates of the blocks y1 and y4


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

    def dense(self, p: np.ndarray) -> np.ndarray:
        """G as a dense array, given the dense P_xi ``p``.

        A is block diagonal with one Helmholtz block per auxiliary field, so
        A^{-1} K is ``p`` applied to each block of rows of K.  Every product
        is sparse times dense.
        """
        n = p.shape[0]
        pk = np.vstack([p @ self.k[i:i + n] for i in range(0, self.k.shape[0], n)])
        return self.g0 + self.c @ pk


def sparse_blocks(shape: tuple, parts) -> sparse.csr_array:
    """CSR matrix of the given shape from (row slice, col slice, block) parts.

    Each block, dense or sparse, is placed at its slices; its zero entries
    are not stored, and blocks that overlap are summed.
    """
    rows, cols, vals = [], [], []
    for rs, cs, block in parts:
        coo = sparse.coo_array(block)
        rows.append(coo.row + rs.start)
        cols.append(coo.col + cs.start)
        vals.append(coo.data)
    return sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape)


def gram(parts: dict, dim: int) -> sparse.csr_array:
    """The Gram matrix M of an energy given as named quadratic forms.

    ``parts`` maps each name to (block slice, matrix): the part's energy is
    (1/2) y[sl]^T A y[sl], and M is the sum of the parts placed on their
    diagonal blocks.
    """
    return sparse_blocks((dim, dim), [(sl, sl, a) for sl, a in parts.values()])


@dataclass(frozen=True)
class GeneratorAssembly:
    """One actuation model as the linear system y' = G y + b u.

    Current, charge-magnetic and electrostatic actuation differ only in the
    data held here: the generator G, the energy, the influence b, the
    feedback output row v of the closed loop u = -k v^T y, and the
    reduction to coordinates where the energy is definite.  ``blocks`` names
    the slices of the flat state (the mechanical ones are y1 and y4).  The
    energy is declared once, as the named quadratic forms ``energy_parts``
    (see :func:`gram`); the Gram matrix ``m`` is their sum.  ``split`` is G
    in the sparse form the time stepper factors.

    The certificates measured while assembling are kept: ``skew_defect`` is
    ||M G + G^T M|| / ||M G|| and ``gauge_defect`` is
    ||G T - T G_red|| / max(||G||, 1), how exactly G preserves the gauge
    manifold (zero for a model without a gauge).
    """

    params: BeamParameters
    grid: StaggeredGrid
    g: np.ndarray = field(repr=False)
    split: SplitGenerator = field(repr=False)
    energy_parts: dict = field(repr=False)
    m: sparse.csr_array = field(repr=False)
    b: np.ndarray = field(repr=False)
    b_dual: np.ndarray = field(repr=False)  # M b, the row form of B*
    output: np.ndarray = field(repr=False)  # feedback output row v
    reduction: Reduction = field(repr=False)
    blocks: dict = field(repr=False)
    skew_defect: float = 0.0
    gauge_defect: float = 0.0
    influence: str = "distributed_current"

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @property
    def bstar_feedback(self) -> bool:
        """Whether the output row is B* itself.

        Closed-loop spectra act through B*, so only then does their gain
        mean the gain of a closed-loop run.
        """
        return self.output is self.b_dual

    def energy_split(self, y: np.ndarray) -> EnergyBreakdown:
        """The energy (1/2) y^T M y of a flat state, part by part."""
        return EnergyBreakdown(**{name: 0.5 * float(y[sl] @ (a @ y[sl]))
                                  for name, (sl, a) in self.energy_parts.items()})

    def lift(self, y: np.ndarray) -> np.ndarray:
        """T y[keep]: the free coordinates of ``y`` lifted onto the gauge manifold."""
        red = self.reduction
        return red.t_map @ y[red.keep]

    def gauge(self, y: np.ndarray, interior: bool = False) -> tuple:
        """Relative gauge residuals (pos, vel) of a flat state.

        Each is the residual y - lift(y) on one gauge-bound block, measured
        against that block of y; both are zero for a model without a gauge.
        ``interior`` drops the first and last cell: forced trajectories with
        the distributed current influence develop a discretization layer
        there (the influence has a boundary jump that the interior-node
        gradient cannot represent), so the interior residual is the
        meaningful drift diagnostic for them.
        """
        if not self.reduction.bound:
            return 0.0, 0.0
        cells = slice(1, -1) if interior else slice(None)
        r = y - self.lift(y)
        bound = [self.blocks[name] for name in self.reduction.bound]
        return tuple(float(np.linalg.norm(r[sl][cells])
                           / max(np.linalg.norm(y[sl]), NORM_FLOOR)) for sl in bound)


def energy_parts(params: BeamParameters, grid: StaggeredGrid,
                 ops: DiscreteOperators) -> dict:
    """The six-field energy as named quadratic forms over the 6N-1 coordinates.

    Positive semidefinite on the full coordinate space, positive definite on
    the gauge-constrained subspace.  The magnetic part couples (y2, y3)
    through |y2 - div(y3)|^2 on interior nodes; boundary nodes contribute
    nothing because theta and the flux of eta vanish there.  Only the
    nonlocal part, which carries P_xi, is dense.
    """
    n = grid.n_cells
    dx = grid.dx
    sl = block_slices(grid)
    # y2 - div(y3) over the adjacent blocks (y2, y3)
    mag = sparse.hstack([sparse.eye_array(n - 1), -sparse.csr_array(ops.div_int)])
    return {
        "kinetic_v": (sl["y4"], params.rho * sparse.diags_array(ops.node_weights)),
        "kinetic_theta": (sl["y5"], (params.eps1 * params.h ** 2 / 12.0) * dx
                          * sparse.eye_array(n - 1)),
        "kinetic_eta": (sl["y6"], params.eps3 * dx * sparse.eye_array(n)),
        "elastic": (sl["y1"], params.alpha * dx * sparse.eye_array(n)),
        "nonlocal_": (sl["y1"], (params.gamma ** 2 / params.eps3) * dx * ops.p_dense),
        "magnetic": (slice(sl["y2"].start, sl["y3"].stop),
                     (params.mu * dx) * (mag.T @ mag)),
    }


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


def _lift(params: BeamParameters, grid: StaggeredGrid,
          ops: DiscreteOperators) -> sparse.csr_array:
    """The lift T of (y1, y2, y4, y5) onto y3 = xi grad(y2), y6 = xi grad(y5)."""
    n = grid.n_cells
    sl = block_slices(grid)
    col = {"y1": slice(0, n), "y2": slice(n, 2 * n - 1),
           "y4": slice(2 * n - 1, 3 * n), "y5": slice(3 * n, 4 * n - 1)}
    return sparse_blocks((grid.state_dim, 4 * n - 1), [
        (sl["y1"], col["y1"], np.eye(n)),
        (sl["y2"], col["y2"], np.eye(n - 1)),
        (sl["y3"], col["y2"], params.xi * ops.grad_nc),
        (sl["y4"], col["y4"], np.eye(n + 1)),
        (sl["y5"], col["y5"], np.eye(n - 1)),
        (sl["y6"], col["y5"], params.xi * ops.grad_nc),
    ])


def assemble(params: BeamParameters, grid: StaggeredGrid, p: np.ndarray,
             split: SplitGenerator, parts: dict, b: np.ndarray,
             t: sparse.csr_array, bound: tuple, blocks: dict,
             output: np.ndarray | None = None,
             influence: str = "distributed_current") -> GeneratorAssembly:
    """Build and certify the linear system a model declares.

    The only producer of the dense reference: G from the split with the
    dense P_xi ``p``, M as the sum of the energy parts, and the reduction to
    the coordinates outside the ``bound`` blocks.  The output row defaults
    to B* itself.  Raises :class:`AssemblyInconsistent` if the skewness
    certificate ||M G + G^T M|| > SKEW_TOL * ||M G|| or the gauge
    certificate ||G T - T G_red|| > CONSTRAINT_TOL * max(||G||, 1) fails;
    either would signal an operator compatibility bug.
    """
    g = split.dense(p)
    dim = g.shape[0]
    m = gram(parts, dim)
    # M G part by part: the dense nonlocal part goes through BLAS and the
    # sparse parts stay sparse
    mg = np.zeros_like(g)
    for sl, a in parts.values():
        mg[sl] += a @ g[sl]
    scale = np.linalg.norm(mg)
    skew = float(np.linalg.norm(mg + mg.T) / scale) if scale > 0 else 0.0
    if skew > SKEW_TOL:
        raise AssemblyInconsistent(f"skewness certificate failed: {skew:.3e}")
    del mg  # dense (dim, dim): freed before the reduction's products

    free, mechanical = np.ones(dim, dtype=bool), np.zeros(dim, dtype=bool)
    for name in bound:
        free[blocks[name]] = False
    for name in ("y1", "y4"):
        mechanical[blocks[name]] = True
    keep = np.flatnonzero(free)
    m_red = (t.T @ (m @ t)).toarray()
    m_red = 0.5 * (m_red + m_red.T)
    gt = g @ t
    g_red = gt[keep]
    gt -= t @ g_red  # G T - T G_red, in place
    gauge_defect = float(np.linalg.norm(gt) / max(np.linalg.norm(g), 1.0))
    if gauge_defect > CONSTRAINT_TOL:
        raise AssemblyInconsistent(
            f"generator does not preserve the gauge manifold: defect {gauge_defect:.3e}")
    red = Reduction(t_map=t, keep=keep, bound=bound, m_red=m_red,
                    g_red=g_red, mechanical=np.flatnonzero(mechanical[keep]))

    for arr in (g, b):
        arr.setflags(write=False)
    b_dual = m @ b
    return GeneratorAssembly(
        params=params, grid=grid, g=g, split=split, energy_parts=parts, m=m,
        b=b, b_dual=b_dual, output=b_dual if output is None else output,
        reduction=red, blocks=blocks, skew_defect=skew,
        gauge_defect=gauge_defect, influence=influence)


def assemble_control(params: BeamParameters, grid: StaggeredGrid) -> np.ndarray:
    """Distributed current influence: 12/(eps1 h^3) on every y5 coordinate."""
    sl = block_slices(grid)
    b = np.zeros(grid.state_dim)
    b[sl["y5"]] = 12.0 / (params.eps1 * params.h ** 3)
    return b


def assemble_generator(params: BeamParameters, grid: StaggeredGrid) -> GeneratorAssembly:
    """The current-actuated six-field model, built and certified by :func:`assemble`."""
    ops = build_operators(params, grid)
    return assemble(params, grid, ops.p_dense, _split_generator(params, grid, ops),
                    energy_parts(params, grid, ops), assemble_control(params, grid),
                    _lift(params, grid, ops), ("y3", "y6"), block_slices(grid))


def with_influence(assembly: GeneratorAssembly, b: np.ndarray,
                   influence: str) -> GeneratorAssembly:
    """Same interior dynamics with a different control influence vector.

    A field swap of b, b_dual = M b, the output row (B*) and the name.
    """
    b = np.asarray(b, dtype=float).copy()
    b.setflags(write=False)
    b_dual = assembly.m @ b
    return replace(assembly, b=b, b_dual=b_dual, output=b_dual, influence=influence)
