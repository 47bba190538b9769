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
A model is a declaration (split generator, energy parts, b, gauge, output
row) that the one builder :func:`assemble` certifies; the
six-field models are declared here, the electrostatic one in
:mod:`piezolab.variants`.

Every model is built in the sparse split form G = G0 + C A^{-1} K
(:class:`SplitGenerator`) that time stepping factors, together with the
order of the unknowns by x-coordinate in which that system is banded.
For the six-field models A^{-1} K produces two auxiliary cell fields,

    q = P_xi [(gamma^2/eps3) y1 - gamma y6 + gamma xi grad(y5)]
    r = P_xi grad_f(y4)

so that the stress is s = alpha y1 + gamma y6 + q, the y5 row carries
-(gamma/eps3) div(r) and the y6 row (gamma/eps3)(grad_f(y4) - r).  The
stencils and A come sparse from :func:`~piezolab.operators.build_operators`.

Each model declares its energy once, as quadratic forms on blocks of the
state (``energy_parts``), keyed by the part names of ENERGY_PARTS, which
also name a trajectory's E_* columns: the Gram matrix M is their sum, and
M y, the energy split and B* are evaluated from them part by part.  A form
is a diagonal (a 1-D array), a sparse matrix, or the nonlocal
:class:`HelmholtzInverse` c P_xi, which is applied through the banded
Cholesky factor of A at O(N).  The gauge is declared once too, as a map
from each gauge-bound block to (free block, operator), from which
:func:`assemble` derives the lift T and every gauge residual (:class:`Reduction`).

:func:`assemble` is O(N) and forms no dense array.  It gates every model
on probe certificates: for a few seeded random probes z it applies G and
G^T through the split, with banded solves of A, and M part by part, and
checks M G z + G^T (M z) = 0 and that w = G T z lies on the gauge manifold.
The dense reference is :attr:`GeneratorAssembly.reference`, formed on the
first read: the energy-space system of the spectra, S = R G_red R^{-1} and
g = R^{-T} T^T M b with M_red = R^T R.  It is formed by the free blocks of
the state, over which M_red is block diagonal: one Cholesky factor per
free block, dense only in the block that carries c P_xi and banded in the
others, and S only on the nonzero blocks of G_red, which also 2-colour the
free blocks into the halves of the spectral solve; neither M nor M_red is
formed dense.  Spectra, the kernel basis and modal starts read it, a time
step never does.  A state dimension above DENSE_DIM_GUARD is refused there,
and by the full-space skewness of :func:`dense_skew_defect`, before any
dense array is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve_banded, cholesky, cholesky_banded, solve_triangular
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dtbtrs

from .errors import (AssemblyInconsistent, ConfigParseError, FreeBlockCoupling,
                     NotPositiveDefinite)
from .model import BeamParameters, StaggeredGrid, block_slices
from .operators import DiscreteOperators, build_operators

SKEW_TOL = 1e-12
CONSTRAINT_TOL = 1e-11
NORM_FLOOR = 1e-30
PROBES = 3        # seeded random probe vectors of each certificate
PROBE_SEED = 20160
DENSE_DIM_GUARD = 6 * 1024  # largest state dimension given a dense reference
# the energy parts a model may declare, in the order of the E_* columns of
# a trajectory (after E_total)
ENERGY_PARTS = ("kin_v", "kin_theta", "kin_eta", "elastic", "nonlocal", "magnetic")


@dataclass(frozen=True)
class Reduction:
    """Coordinates in which the Gram matrix is definite.

    ``gauge`` maps each gauge-bound block to (free block, operator): the
    six-field models bind y3 = xi grad(y2) and y6 = xi grad(y5), a model
    without a gauge binds none.  :func:`assemble` derives the rest from it:
    ``keep`` lists the free full coordinates, on which the lift T is the
    identity, T fills each bound block by its operator, and ``bound`` names
    those blocks.  ``mechanical`` names the reduced coordinates of the
    mechanical blocks, so the dense solves can split where the model does
    (see :mod:`piezolab.spectral`).  The dense reference
    (:class:`DenseReference`) forms the reduced Gram matrix and generator
    only block by block, as temporaries.
    """

    t_map: sparse.csr_array  # lift to the full coordinates
    keep: np.ndarray    # full coordinates of the reduced ones, T[keep] = I
    gauge: dict         # {bound block: (free block, operator)}, or empty
    bound: tuple        # the gauge's keys: y3 and y6, or empty
    mechanical: np.ndarray  # reduced coordinates of the blocks y1 and y4


@dataclass(frozen=True)
class SplitGenerator:
    """A generator in sparse split form G = G0 + C A^{-1} K.

    G0, C and K are built from the difference stencils; A = I - xi lap_cc
    is tridiagonal, one block per auxiliary field z = A^{-1} K y.  Every
    application of P_xi goes through z, so no block is dense.  ``shape`` is
    the shape of G, as for any linear operator.

    ``order`` lists the unknowns of the midpoint system
    (:meth:`midpoint_system`), the state and then z, by their x-coordinate
    on the grid (:func:`spatial_order`).  Every block couples only
    neighbouring cells and nodes, so in that order the system is banded
    with a bandwidth that does not grow with N.
    """

    g0: sparse.csr_array    # (dim, dim)
    c: sparse.csr_array     # (dim, n_aux)
    k: sparse.csr_array     # (n_aux, dim)
    a: sparse.csr_array     # (n_aux, n_aux)
    order: np.ndarray       # (dim + n_aux,) unknowns sorted by x-coordinate

    @property
    def shape(self) -> tuple:
        return self.g0.shape

    def midpoint_system(self, dt: float) -> sparse.csr_array:
        """The matrix of a midpoint step dt, its rows and unknowns in ``order``.

        y_mid and z = A^{-1} K y_mid solve [[I - dt/2 G0, -dt/2 C], [-K, A]]
        (y_mid, z) = (y + dt/2 b u, 0).  It is banded: 9 sub- and 8
        superdiagonals for the six-field models and 3 and 3 for the
        electrostatic one, at every N.
        """
        half = 0.5 * dt
        aug = sparse.block_array(
            [[sparse.eye_array(self.shape[0]) - half * self.g0, -half * self.c],
             [-self.k, self.a]], format="csr")
        return aug[self.order][:, self.order]

    def dense(self, p: np.ndarray) -> np.ndarray:
        """G as a dense array, given the dense P_xi ``p``.

        A is block diagonal with one Helmholtz block per auxiliary field, so
        A^{-1} K is ``p`` applied to each block of rows of K.  Every product
        is sparse times dense.
        """
        n = p.shape[0]
        pk = np.vstack([p @ self.k[i:i + n] for i in range(0, self.k.shape[0], n)])
        return self.g0 + self.c @ pk

    def apply(self, ops: DiscreteOperators, z: np.ndarray) -> np.ndarray:
        """G z, with A^{-1} applied by banded Cholesky solves; z may be a block."""
        return self.g0 @ z + self.c @ _helmholtz_solve(ops, self.k @ z)

    def apply_transpose(self, ops: DiscreteOperators, y: np.ndarray) -> np.ndarray:
        """G^T y = G0^T y + K^T A^{-1} C^T y (A is symmetric); y may be a block."""
        return self.g0.T @ y + self.k.T @ _helmholtz_solve(ops, self.c.T @ y)


def _helmholtz_solve(ops: DiscreteOperators, x: np.ndarray) -> np.ndarray:
    """A^{-1} x for the block-diagonal A of a split: one solve per field's block."""
    n = ops.n_cells
    return np.concatenate([cho_solve_banded((ops.a_chol, False), x[i:i + n])
                           for i in range(0, x.shape[0], n)])


def spatial_order(*coords: np.ndarray) -> np.ndarray:
    """Indices of unknowns sorted by their x-coordinate.

    ``coords`` gives the coordinates block by block, in the order the
    unknowns are numbered; unknowns at the same point keep that order.
    """
    return np.argsort(np.concatenate(coords), kind="stable")


@dataclass(frozen=True)
class HelmholtzInverse:
    """The nonlocal energy form c P_xi of one block, with P_xi = A^{-1}.

    A = I - xi lap_cc = R^T R is held by its banded Cholesky factor R in
    ``ops``, so x^T (c P_xi) x = c |R^{-T} x|^2 costs one banded triangular
    solve and c P_xi x a banded Cholesky solve.  Only :func:`gram` and the
    dense reference's factor of its block (:func:`_block_factor`) place the
    dense c P_xi, from ``ops.p_dense``.
    """

    c: float
    ops: DiscreteOperators = field(repr=False)


def _matrix(form):
    """The matrix of a declared energy form (see :func:`gram`)."""
    if isinstance(form, HelmholtzInverse):
        return form.c * form.ops.p_dense
    if isinstance(form, np.ndarray) and form.ndim == 1:
        return sparse.diags_array(form)
    return form


def _quadratic(form, x: np.ndarray) -> float:
    """x^T F x for a declared energy form F, at O(N) for every kind of form."""
    if isinstance(form, HelmholtzInverse):
        z = dtbsv(1, form.ops.a_chol, x, trans=1)  # R^{-T} x
        return form.c * float(z @ z)
    if isinstance(form, np.ndarray) and form.ndim == 1:
        return float(x @ (form * x))
    return float(x @ (form @ x))


def _product(form, x: np.ndarray) -> np.ndarray:
    """F x for a declared energy form F, at O(N) per column of x."""
    if isinstance(form, HelmholtzInverse):
        return form.c * _helmholtz_solve(form.ops, x)
    if isinstance(form, np.ndarray) and form.ndim == 1:
        return form * x if x.ndim == 1 else form[:, None] * x
    return form @ x


def gram_product(parts: dict, y: np.ndarray) -> np.ndarray:
    """M y for the Gram matrix M of ``parts`` (see :func:`gram`), part by part.

    ``y`` is a state or a block of states, one per column; no dense block
    is formed.
    """
    out = np.zeros(y.shape)
    for sl, form in parts.values():
        out[sl] += _product(form, y[sl])
    return out


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

    ``parts`` maps each name to (block slice, form): the part's energy is
    (1/2) y[sl]^T F y[sl], and M is the sum of the parts placed on their
    diagonal blocks.  A form F is a diagonal given as a 1-D array, a sparse
    matrix, or a :class:`HelmholtzInverse`, whose dense c P_xi is placed;
    that block makes M O(N^2), so the dense reference forms M only from the
    other parts (:func:`_block_factors`).
    """
    return sparse_blocks((dim, dim), [(sl, sl, _matrix(a)) for sl, a in parts.values()])


@dataclass(frozen=True)
class DenseReference:
    """The dense reference of an assembly: its system in energy coordinates.

    ``r`` is the upper Cholesky factor of M_red = T^T M T = R^T R, block
    diagonal over the free blocks with exact zeros off them.  ``s`` =
    R G_red R^{-1} is the reduced generator G_red = (G T)[keep] in energy
    coordinates, skew-symmetric up to rounding, with exact zeros on every
    block where G_red has none, and ``coupling`` = g = R^{-T} T^T M b the
    influence there (triangular solves, not the rounding of
    R M_red^{-1} T^T M b), so the collocated closed loop is S - k g g^T and
    B* T R^{-1} v = g^T v.  ``colour`` 2-colours the free blocks over the
    nonzero blocks of G_red (:func:`_two_colours`), one bool per reduced
    coordinate: False on the colour P, True on Q.  Where G_red couples the
    colours only to each other, S_PP and S_QQ are exact zeros and S is
    bipartite, which the spectral solve reads (see :mod:`piezolab.spectral`).
    No dense M, M_red, G_red or G is formed: ``split.dense(ops.p_dense)``
    forms G where it is wanted, and :func:`gram_product` applies M.
    """

    r: np.ndarray = field(repr=False)        # upper Cholesky factor of M_red
    s: np.ndarray = field(repr=False)        # R G_red R^{-1}
    coupling: np.ndarray = field(repr=False)  # g = R^{-T} T^T M b
    colour: np.ndarray = field(repr=False)   # True on the reduced coordinates of Q


@dataclass(frozen=True)
class _BlockFactor:
    """The upper Cholesky factor R_i of one free block of M_red, in its own form.

    ``upper`` is the dense factor of a block that holds a nonlocal part, and
    otherwise the sparse banded factor, whose upper band is ``band`` in
    LAPACK storage (a diagonal is a band of width 0).  Only the dense block
    goes through BLAS-3.
    """

    upper: np.ndarray | sparse.csr_array
    band: np.ndarray | None = None

    def times(self, x) -> np.ndarray:
        """R_i x for a dense or sparse x, as a dense array."""
        out = self.upper @ x
        return out.toarray() if sparse.issparse(out) else out

    def solve_t(self, b: np.ndarray) -> np.ndarray:
        """R_i^{-T} b for a 2-D array b."""
        if self.band is None:
            return solve_triangular(self.upper, b, trans="T")
        return dtbtrs(self.band, b, trans="T")[0]  # R_i has a positive diagonal


def _free_blocks(blocks: dict, red: Reduction) -> list:
    """(full slice, reduced slice) of each distinct free block, in state order."""
    spans = sorted({(sl.start, sl.stop) for name, sl in blocks.items()
                    if name not in red.gauge})
    return [(slice(lo, hi), slice(start, start + hi - lo))
            for (lo, hi), start in ((span, int(np.searchsorted(red.keep, span[0])))
                                    for span in spans)]


def _block_factor(m_block: sparse.csr_array, forms: list) -> _BlockFactor:
    """The factor of one free block: its local part m_block plus the nonlocal forms.

    Dense (``cholesky``) with the forms' c P_xi added, else banded
    (``cholesky_banded``) at the bandwidth of m_block's stored entries.
    """
    try:
        if forms:
            dense = m_block.toarray()
            for form in forms:
                dense += form.c * form.ops.p_dense
            return _BlockFactor(cholesky(dense, lower=False))
        coo = m_block.tocoo()
        width = int(np.max(coo.col - coo.row, initial=0))
        band = np.zeros((width + 1, m_block.shape[0]))
        for k in range(width + 1):
            band[width - k, k:] = m_block.diagonal(k)
        band = cholesky_banded(band)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Gram matrix on the constrained subspace "
                                  "is not positive definite") from exc
    upper = sparse.diags_array([band[width - k, k:] for k in range(width + 1)],
                               offsets=list(range(width + 1)), format="csr")
    return _BlockFactor(upper, band)


def _block_factors(parts: dict, t: sparse.csr_array, free: list,
                   label: np.ndarray) -> list:
    """The Cholesky factor of each free block of M_red = T^T M T (:func:`_block_factor`).

    M_red's local part is formed sparse, from every part but the nonlocal
    ones; a nonlocal part c P_xi with c != 0 is added to its own free block
    only, and one with c = 0 is left out.  An entry of M_red between two
    free blocks (``label`` gives the block of each reduced coordinate, -1
    for none), or a nonlocal part that is not one free block, raises
    :class:`FreeBlockCoupling`.
    """
    local = {name: part for name, part in parts.items()
             if not isinstance(part[1], HelmholtzInverse)}
    helmholtz = [(name, sl, form) for name, (sl, form) in parts.items()
                 if isinstance(form, HelmholtzInverse) and form.c != 0.0]
    m_red = (t.T @ (gram(local, t.shape[0]) @ t)).tocsr()
    rows, cols = m_red.nonzero()
    if np.any(label < 0) or np.any(label[rows] != label[cols]):
        raise FreeBlockCoupling("M_red has an entry between two free blocks")
    full = [fs for fs, _ in free]
    for name, sl, _ in helmholtz:
        if sl not in full:
            raise FreeBlockCoupling(f"the nonlocal part {name!r} is not one free block")
    return [_block_factor(m_red[rs, rs], [form for _, sl, form in helmholtz if sl == fs])
            for fs, rs in free]


def _pairs(matrix: sparse.csr_array, row_label: np.ndarray, col_label: np.ndarray) -> set:
    """The (row label, column label) pairs of the nonzero entries of ``matrix``."""
    rows, cols = matrix.nonzero()
    return set(zip(row_label[rows].tolist(), col_label[cols].tolist()))


def _reduced_blocks(g0: sparse.csr_array, c: sparse.csr_array, kt: sparse.csr_array,
                    ops: DiscreteOperators, free: list, label: np.ndarray):
    """(i, j, G_ij) for each nonzero block of G_red = G0_red + C_red A^{-1} K_red.

    G0_red = (G0 T)[keep], C_red = C[keep] and K_red = K T; ``label`` gives
    the free block of each reduced coordinate.  A is block diagonal with one
    Helmholtz block per auxiliary field, and a field reaches the block
    (i, j) only if C_red holds a nonzero entry in (i, field) and K_red one in
    (field, j); there it adds its dense C_red P_xi K_red.  Every other
    block is G0_red's own, sparse, and a block none of them reaches is
    not formed.
    """
    n = ops.n_cells
    field = np.arange(kt.shape[0]) // n
    k_pairs = _pairs(kt, field, label)
    via = {}  # (i, j): the fields that reach the block
    for i, f in sorted(_pairs(c, label, field)):
        for j in sorted(j for h, j in k_pairs if h == f):
            via.setdefault((i, j), []).append(f)
    for i, j in sorted(_pairs(g0, label, label) | via.keys()):
        rows, cols = free[i][1], free[j][1]
        block = g0[rows, cols]
        for f in via.get((i, j), ()):
            aux = slice(f * n, (f + 1) * n)
            block = block + c[rows, aux] @ (ops.p_dense @ kt[aux, cols])
        yield i, j, block


def _two_colours(linked: list) -> np.ndarray:
    """A colour per free block, True for Q, over the graph whose edges are ``linked``.

    ``linked[i]`` holds the free blocks that block i couples to.  Each
    connected component starts from its first free block in state order,
    which takes the colour P, and every neighbour of a block takes the
    other colour.  An edge whose ends take one colour (an odd cycle, or a
    block that couples to itself) is left in place: it puts its entries
    into S_PP or S_QQ, where the spectral solve refuses them.
    """
    colour = [None] * len(linked)
    for start in range(len(linked)):
        if colour[start] is None:
            colour[start], todo = False, [start]
            while todo:
                i = todo.pop()
                for j in sorted(linked[i]):
                    if colour[j] is None:
                        colour[j] = not colour[i]
                        todo.append(j)
    return np.array(colour, dtype=bool)


@dataclass(frozen=True)
class GeneratorAssembly:
    """One actuation model as the linear system y' = G y + b u.

    Current, charge-magnetic and electrostatic actuation differ only in the
    data held here: the generator G, the energy, the influence b, the
    feedback output row v of the closed loop u = -k v^T y, and the
    reduction to coordinates where the energy is definite.  ``blocks`` names
    the slices of the flat state (the mechanical ones are y1 and y4).  The
    energy is declared once, as the named quadratic forms ``energy_parts``
    (see :func:`gram`), on the operators ``ops``.  G is held only as
    ``split``, the sparse form the time stepper factors.  Everything held
    is O(N); the dense arrays are :attr:`reference`, formed on demand.

    The probe certificates measured while assembling are kept (see
    :func:`assemble`): ``skew_defect`` is the largest
    ||M G z + G^T M z|| / ||M G z|| over the probes z, and ``gauge_defect``
    the largest relative distance of G T z from the gauge manifold (zero
    for a model without a gauge).
    """

    params: BeamParameters
    grid: StaggeredGrid
    ops: DiscreteOperators = field(repr=False)
    split: SplitGenerator = field(repr=False)
    energy_parts: dict = field(repr=False)
    b: np.ndarray = field(repr=False)
    b_dual: np.ndarray = field(repr=False)  # M b, the row form of B*
    output: np.ndarray = field(repr=False)  # feedback output row v
    reduction: Reduction = field(repr=False)
    blocks: dict = field(repr=False)
    skew_defect: float = 0.0
    gauge_defect: float = 0.0

    @property
    def dim(self) -> int:
        return self.split.shape[0]

    @property
    def bstar_feedback(self) -> bool:
        """Whether the output row is B* itself.

        Closed-loop spectra act through B*, so only then does their gain
        mean the gain of a closed-loop run.
        """
        return self.output is self.b_dual

    @cached_property
    def reference(self) -> DenseReference:
        """The dense reference, formed on the first read and kept.

        Formed block by block over the free blocks of the state (the
        blocks the gauge does not bind), over which M_red is block diagonal:
        one Cholesky factor R_i per free block, dense where a nonlocal part
        c P_xi (c != 0) lives and banded elsewhere (:class:`_BlockFactor`);
        S_ij = R_i G_ij R_j^{-1} only on the nonzero blocks of G_red
        (:func:`_reduced_blocks`), the others exact zeros; g_i =
        R_i^{-T} (T^T M b)_i.  M and M_red are never dense: M_red's local
        part is sparse, and P_xi is added to its one block.  O(N^2) memory;
        O(N^3) time in the nonlocal block only, O(N^2) in the others.  The
        same blocks (i, j) link the free blocks i and j of the 2-colouring
        ``colour`` (:func:`_two_colours`): at gamma != 0 P = {y1, y5} and
        Q = {y2, y4}, at gamma = 0 and on the electrostatic model the
        positions and the velocities.

        A state dimension above DENSE_DIM_GUARD raises
        :class:`ConfigParseError` before any dense array is formed; an M_red
        with an entry between two free blocks, or a nonlocal part that is
        not one free block, raises :class:`FreeBlockCoupling`, and one that
        is not positive definite :class:`NotPositiveDefinite`.  The arrays
        are read-only, since every caller shares them.
        """
        _guard_dense(self)
        red, split = self.reduction, self.split
        t, n_red = red.t_map, red.keep.size
        free = _free_blocks(self.blocks, red)
        label = np.full(n_red, -1)  # the free block of each reduced coordinate
        for i, (_, rs) in enumerate(free):
            label[rs] = i
        factors = _block_factors(self.energy_parts, t, free, label)

        r = np.zeros((n_red, n_red))
        for (_, rs), factor in zip(free, factors):
            r[rs, rs] = factor.times(sparse.eye_array(rs.stop - rs.start))
        g0 = (split.g0[red.keep] @ t).tocsr()
        c, kt = split.c[red.keep].tocsr(), (split.k @ t).tocsr()
        s = np.zeros((n_red, n_red))
        linked = [set() for _ in free]
        for i, j, g_ij in _reduced_blocks(g0, c, kt, self.ops, free, label):
            s[free[i][1], free[j][1]] = factors[j].solve_t(factors[i].times(g_ij).T).T
            linked[i].add(j)
            linked[j].add(i)
        rhs = t.T @ self.b_dual
        coupling = np.concatenate([factor.solve_t(rhs[rs, None])[:, 0]
                                   for (_, rs), factor in zip(free, factors)])
        colour = _two_colours(linked)[label]
        for arr in (r, s, coupling, colour):
            arr.setflags(write=False)
        return DenseReference(r=r, s=s, coupling=coupling, colour=colour)

    def energy_split(self, y: np.ndarray) -> dict:
        """The energy (1/2) y^T M y of a flat state, part by part, at O(N).

        ``{"total": ..., part: ...}`` with the parts in the order of
        ENERGY_PARTS, 0.0 for a part the model does not declare, and the
        total their sum from left to right.
        """
        split = dict.fromkeys(ENERGY_PARTS, 0.0)
        for name, (sl, form) in self.energy_parts.items():
            split[name] = 0.5 * _quadratic(form, y[sl])
        total = 0.0
        for value in split.values():
            total += value
        return {"total": total, **split}

    def lift(self, y: np.ndarray) -> np.ndarray:
        """T y[keep]: the free coordinates of ``y`` lifted onto the gauge manifold."""
        red = self.reduction
        return red.t_map @ y[red.keep]

    def gauge(self, y: np.ndarray) -> tuple:
        """Relative gauge residuals ((pos, vel), (pos_interior, vel_interior)).

        Each is the residual y - lift(y) on one gauge-bound block, measured
        against that block of y, over all its cells and over the interior
        ones, from one residual; all are zero for a model without a gauge.
        Only the bound blocks of the lift are formed.  A run driven through an
        influence off the gauge manifold develops a discretization layer in
        the first and last cell (the distributed current has a boundary jump
        that the interior-node gradient cannot represent), so the interior
        residual is the meaningful drift diagnostic for it.
        """
        gauge = self.reduction.gauge
        if not gauge:
            return (0.0, 0.0), (0.0, 0.0)
        full, inner = [], []
        for name, r in zip(gauge, _off_gauge(gauge, self.blocks, y)):
            scale = max(np.linalg.norm(y[self.blocks[name]]), NORM_FLOOR)
            full.append(float(np.linalg.norm(r) / scale))
            inner.append(float(np.linalg.norm(r[1:-1]) / scale))
        return tuple(full), tuple(inner)


def _off_gauge(gauge: dict, blocks: dict, w: np.ndarray) -> list:
    """w - lift(w) on each bound block, in order; ``w`` may be a block of states."""
    return [w[blocks[name]] - op @ w[blocks[free]] for name, (free, op) in gauge.items()]


def energy_parts(params: BeamParameters, grid: StaggeredGrid,
                 ops: DiscreteOperators) -> dict:
    """The six-field energy as named quadratic forms over the 6N-1 coordinates.

    Positive semidefinite on the full coordinate space, positive definite on
    the gauge-constrained subspace.  The magnetic part couples (y2, y3)
    through |y2 - div(y3)|^2 on interior nodes; boundary nodes contribute
    nothing because theta and the flux of eta vanish there.  The kinetic
    and elastic parts are diagonals; the nonlocal part carries P_xi.
    """
    n = grid.n_cells
    dx = grid.dx
    sl = block_slices(grid)
    # y2 - div(y3) over the adjacent blocks (y2, y3)
    mag = sparse.hstack([sparse.eye_array(n - 1), -ops.div_int])
    return {
        "kin_v": (sl["y4"], params.rho * ops.node_weights),
        "kin_theta": (sl["y5"],
                          np.full(n - 1, (params.eps1 * params.h ** 2 / 12.0) * dx)),
        "kin_eta": (sl["y6"], np.full(n, params.eps3 * dx)),
        "elastic": (sl["y1"], np.full(n, params.alpha * dx)),
        "nonlocal": (sl["y1"], HelmholtzInverse((params.gamma ** 2 / params.eps3) * dx,
                                                ops)),
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
    eye_n, eye_i = sparse.eye_array(n), sparse.eye_array(n - 1)

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
    a = sparse_blocks((2 * n, 2 * n), [(q, q, ops.a), (r, r, ops.a)])
    # y1, y2, ..., y6, then q and r
    cells, nodes = grid.cell_coords, grid.node_coords
    order = spatial_order(cells, nodes[1:-1], cells, nodes, nodes[1:-1], cells,
                          cells, cells)
    return SplitGenerator(g0=g0, c=c, k=k, a=a, order=order)


def _probe_certificates(ops: DiscreteOperators, split: SplitGenerator, parts: dict,
                        t: sparse.csr_array, gauge: dict, blocks: dict) -> tuple:
    """The skewness and gauge certificates on seeded random probes, at O(N).

    Skewness is a full-space statement: for PROBES random states z,
    ||M G z + G^T (M z)|| / ||M G z||.  The gauge certificate lifts PROBES
    random reduced vectors, w = G T z, and measures how far w is from the
    manifold, ||w - lift(w)|| / ||w|| on the bound blocks (zero for an
    empty ``gauge``).  Each is the largest over its probes.  G and G^T are
    applied through the split with banded solves of A, M part by part.
    """
    rng = np.random.default_rng(PROBE_SEED)
    z = rng.standard_normal((split.shape[0], PROBES))
    mgz = gram_product(parts, split.apply(ops, z))
    sym = mgz + split.apply_transpose(ops, gram_product(parts, z))
    scale = np.linalg.norm(mgz, axis=0)
    skew = float(np.max(np.linalg.norm(sym, axis=0) / np.maximum(scale, NORM_FLOOR)))
    if not gauge:
        return skew, 0.0
    w = split.apply(ops, t @ rng.standard_normal((t.shape[1], PROBES)))
    off = np.concatenate(_off_gauge(gauge, blocks, w))
    defect = np.linalg.norm(off, axis=0) / np.maximum(np.linalg.norm(w, axis=0),
                                                       NORM_FLOOR)
    return skew, float(np.max(defect))


def _declared(blocks: dict, names: tuple, dim: int) -> np.ndarray:
    """Mask of the coordinates in the named blocks that the model declares."""
    mask = np.zeros(dim, dtype=bool)
    for name in names:
        if name in blocks:
            mask[blocks[name]] = True
    return mask


def assemble(params: BeamParameters, grid: StaggeredGrid, ops: DiscreteOperators,
             split: SplitGenerator, parts: dict, b: np.ndarray, gauge: dict,
             blocks: dict, output: np.ndarray | None = None) -> GeneratorAssembly:
    """Build and certify the linear system a model declares, at O(N).

    ``gauge`` maps each gauge-bound block to (free block, operator); the
    kept coordinates, the lift T and every gauge residual come from it (see
    :class:`Reduction`).  B* = M b is formed part by part; no dense array
    is formed, and the output row defaults to B* itself.  Raises
    :class:`AssemblyInconsistent` if the skewness probe exceeds SKEW_TOL or
    the gauge probe exceeds CONSTRAINT_TOL (see :func:`_probe_certificates`);
    either would signal an operator compatibility bug.  A model that binds
    no block has no gauge to certify.
    """
    dim = split.shape[0]
    free = np.ones(dim, dtype=bool)
    for name in gauge:
        free[blocks[name]] = False
    mechanical = _declared(blocks, ("y1", "y4"), dim)
    keep = np.flatnonzero(free)
    column = np.cumsum(free) - 1  # the reduced column of each free coordinate
    eye = sparse.eye_array(dim, format="csr")[:, keep]  # T on the free coordinates
    t = sparse_blocks((dim, keep.size), [
        (slice(0, dim), slice(0, keep.size), eye),
        *((blocks[name], slice(int(column[blocks[src].start]), None), op)
          for name, (src, op) in gauge.items())])
    skew, gauge_defect = _probe_certificates(ops, split, parts, t, gauge, blocks)
    # "not <=" so that a defect that is not a number fails too
    if not skew <= SKEW_TOL:
        raise AssemblyInconsistent(f"skewness certificate failed: {skew:.3e}")
    if not gauge_defect <= CONSTRAINT_TOL:
        raise AssemblyInconsistent("generator does not preserve the gauge "
                                   f"manifold: defect {gauge_defect:.3e}")
    red = Reduction(t_map=t, keep=keep, gauge=gauge, bound=tuple(gauge),
                    mechanical=np.flatnonzero(mechanical[keep]))

    b.setflags(write=False)
    b_dual = gram_product(parts, b)
    return GeneratorAssembly(
        params=params, grid=grid, ops=ops, split=split, energy_parts=parts,
        b=b, b_dual=b_dual, output=b_dual if output is None else output,
        reduction=red, blocks=blocks, skew_defect=skew,
        gauge_defect=gauge_defect)


def _guard_dense(assembly: GeneratorAssembly) -> None:
    """Refuse a state dimension above DENSE_DIM_GUARD, before any dense array."""
    if assembly.dim > DENSE_DIM_GUARD:
        raise ConfigParseError(
            f"spectra and modal starts need the dense eigensolve: n_cells "
            f"{assembly.grid.n_cells} gives state dimension {assembly.dim}, above "
            f"DENSE_DIM_GUARD = {DENSE_DIM_GUARD}; a run from a zero or "
            f"tabulated start needs none")


def dense_skew_defect(assembly: GeneratorAssembly) -> float:
    """The full-space skewness ||M G + G^T M|| / ||M G|| of the dense G and M.

    Frobenius norms of the dense (dim, dim) products, formed from
    ``ops.p_dense``: O(N^2) memory and O(N^3) time, for small grids
    (acceptance check 1).  Refused above DENSE_DIM_GUARD, as the dense
    reference is.
    """
    _guard_dense(assembly)
    g = assembly.split.dense(assembly.ops.p_dense)
    # M G part by part: the dense nonlocal part goes through BLAS and the
    # sparse parts stay sparse
    mg = np.zeros_like(g)
    for sl, form in assembly.energy_parts.values():
        mg[sl] += _matrix(form) @ g[sl]
    scale = np.linalg.norm(mg)
    return float(np.linalg.norm(mg + mg.T) / scale) if scale > 0 else 0.0


def assemble_control(params: BeamParameters, grid: StaggeredGrid) -> np.ndarray:
    """Distributed current influence: 12/(eps1 h^3) on every y5 coordinate."""
    sl = block_slices(grid)
    b = np.zeros(grid.state_dim)
    b[sl["y5"]] = 12.0 / (params.eps1 * params.h ** 3)
    return b


def assemble_six_field(params: BeamParameters, grid: StaggeredGrid,
                       b: np.ndarray) -> GeneratorAssembly:
    """A six-field model with influence ``b``, built and certified by :func:`assemble`.

    The current and the charge-magnetic models declare the same split,
    energy parts and gauge; only b differs.
    """
    ops = build_operators(params, grid)
    xi_grad = params.xi * ops.grad_nc
    return assemble(params, grid, ops, _split_generator(params, grid, ops),
                    energy_parts(params, grid, ops), b,
                    {"y3": ("y2", xi_grad), "y6": ("y5", xi_grad)}, block_slices(grid))


def assemble_generator(params: BeamParameters, grid: StaggeredGrid) -> GeneratorAssembly:
    """The current-actuated six-field model (see :func:`assemble_six_field`)."""
    return assemble_six_field(params, grid, assemble_control(params, grid))
