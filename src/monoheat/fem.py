"""P1 finite elements on intervals and structured rectangles.

The boundary is partitioned into an active part (label ``GAMMA1``), which
carries the nonlinear flux, and an insulated part (``GAMMA0``).  Assembly
produces a row-sum lumped mass diagonal, the exact P1 stiffness matrix and
a lumped boundary-mass diagonal supported on the active nodes.  Lumping
diagonalizes all nodewise nonlinear terms, which is what makes the
resolvent-based per-step solves well posed.

One array code path serves intervals and triangles alike: barycentric
gradients come from the closed-form inverse of each simplex's edge
matrix (the adjugate over the determinant), and a facet
with vertices p_0..p_k has measure sqrt(det(E E^T)) for its edge matrix E.
A point facet (an interval endpoint) has an empty E and thus measure 1, so
the 1-D boundary mass is the counting measure of the active endpoints.
The element matrices are computed one block of elements at a time, so
assembly never holds those of the whole mesh.

The stiffness matrix is the only sparse matrix an operator set stores.
Lumping makes every other operator of the scheme a diagonal plus a
multiple of ``K``, so a product with one is ``d*x + c*(K @ x)``, and such a
matrix is formed only inside the call that factorizes it.  Every sparse
factorization goes through ``spd_factor``, whose inputs, those sums, are
bitwise symmetric CSR matrices that it reads as CSC without a copy.  The
factor of the h1 Gram matrix ``M + K`` is the one thing an operator set
caches: it is computed on first use and serves the dual norms and the
trace constant.  Each call of ``trace_constant`` runs Lanczos iteration
(ARPACK) on that factor, at every mesh size, for the top eigenvalue of one
symmetric operator, ``s (M + K)^-1 s`` with ``s = sqrt(Mb)``; there is no
fallback.

Both mesh families have nonnegative stiffness edge weights (intervals
trivially, rectangles because the triangles are right triangles), a fact
the energy monitors rely on.

Nothing here writes files: the mesh files of ``--dump-mesh`` come from
``cli``, which owns every output format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DegenerateElement,
    EmptyBoundary,
    InvalidArgument,
    NonConvergence,
)

INTERIOR = 0
GAMMA0 = 1
GAMMA1 = 2

# Lanczos basis size for the one extreme eigenvalue in ``trace_constant``:
# 9 solves with the h1 factor where ARPACK's default of 20 vectors takes 21
_ARPACK_NCV = 8
# SuperLU panel width in columns: its panel workspace grows with n times the
# width, and on the 96x96 h1 matrix a width of 1 factors faster than the
# default of 20, with the same fill and 1.2-1.4 MB of resident set in place
# of 4.0
_SUPERLU_PANEL = 1
# elements per block in ``assemble``: the element matrices of one block at a
# time are alive, never those of the whole mesh
_ASSEMBLY_BLOCK = 1024
# signs that turn a 2x2 matrix reversed in both axes, [[d, c], [b, a]], into
# the transposed adjugate [[d, -c], [-b, a]] of [[a, b], [c, d]]
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True)
class Mesh:
    """Simplicial mesh with a labeled boundary partition."""

    dim: int
    nodes: np.ndarray              # (n,) in 1-D, (n, 2) in 2-D
    elements: np.ndarray           # (m, dim+1) vertex indices
    boundary_labels: np.ndarray    # per node: INTERIOR / GAMMA0 / GAMMA1
    boundary_facets: np.ndarray    # (k, dim+1): vertex ids, then the label
    element_sizes: np.ndarray      # length / area per element

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def gamma1_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_labels == GAMMA1)


def spd_factor(a) -> spla.SuperLU:
    """Sparse LU factor of a symmetric positive definite matrix ``a``.

    ``a`` must be bitwise symmetric (``(a != a.T).nnz == 0``), as every sum
    of ``stiffness`` and diagonals is: the CSR arrays of such a matrix are
    its CSC arrays, so SuperLU reads them as they are and no transpose copy
    is made.  Minimum degree on the pattern of ``A + A^T`` orders for the
    symmetric matrix itself, where SuperLU's default COLAMD orders for
    ``A^T A``, and the pivots stay on the diagonal: elimination without
    pivoting is stable for SPD matrices, and a symmetric permutation keeps
    them SPD.  The panel of ``_SUPERLU_PANEL`` columns keeps the
    factorization's workspace small.  Every sparse factorization of the
    package goes through here.
    """
    a = a.tocsr()
    return spla.splu(sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape),
                     permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     panel_size=_SUPERLU_PANEL, options=dict(SymmetricMode=True))


@dataclass
class AssembledOperators:
    """Lumped mass, stiffness and boundary mass for one mesh."""

    mass: np.ndarray               # lumped diagonal, volume measure
    stiffness: sp.csr_matrix
    boundary_mass: np.ndarray      # lumped diagonal, active-boundary measure
    domain_measure: float

    @property
    def n_nodes(self) -> int:
        return self.mass.shape[0]

    @cached_property
    def h1_factor(self) -> spla.SuperLU:
        """Sparse LU factor of ``M + K``, the Gram matrix of the discrete h1
        norm, computed on first use; the matrix is formed only to be
        factorized.  ``trace_constant`` and the dual norms of the energy
        monitors share the factor."""
        return spd_factor(sp.diags(self.mass) + self.stiffness)


GAMMA1_SIDES = ("left", "right", "both", "none")


def check_gamma1(side: str) -> str:
    """``side`` if it names the active ends of an interval, else ``InvalidArgument``."""
    if side not in GAMMA1_SIDES:
        raise InvalidArgument(f"gamma1 must be one of {', '.join(GAMMA1_SIDES)}, got {side!r}")
    return side


def build_mesh_1d(length: float, n_elems: int, gamma1_side: str = "right") -> Mesh:
    """Uniform mesh of [0, L]; endpoints labeled by ``gamma1_side``.

    ``none`` labels both endpoints as insulated (pure zero-flux setup).
    """
    if not length > 0.0:
        raise InvalidArgument("interval length must be positive")
    if n_elems < 1:
        raise InvalidArgument("need at least one element")
    check_gamma1(gamma1_side)
    n = n_elems + 1
    nodes = np.linspace(0.0, length, n)
    elements = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    labels = np.zeros(n, dtype=np.int8)
    left = GAMMA1 if gamma1_side in ("left", "both") else GAMMA0
    right = GAMMA1 if gamma1_side in ("right", "both") else GAMMA0
    labels[0] = left
    labels[-1] = right
    facets = np.array([[0, left], [n - 1, right]])
    sizes = np.full(n_elems, length / n_elems)
    return Mesh(1, nodes, elements, labels, facets, sizes)


def build_mesh_rect(lx: float, ly: float, nx: int, ny: int,
                    lateral_gamma1: bool = True) -> Mesh:
    """Structured triangulation of [0,Lx] x [0,Ly].

    With ``lateral_gamma1`` the sides x=0 and x=Lx are active boundary
    (corners included); top and bottom are insulated.  Without it the whole
    boundary is insulated.
    """
    if not (lx > 0.0 and ly > 0.0):
        raise InvalidArgument("rectangle sides must be positive")
    if nx < 1 or ny < 1:
        raise InvalidArgument("need at least one subdivision per direction")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    # each cell (ix, iy) splits into (v00, v10, v11) and (v00, v11, v01)
    v00 = (np.arange(ny, dtype=np.int64)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01 = v00 + 1, v00 + nx + 1
    elements = np.column_stack([v00, v10, v01 + 1, v00, v01 + 1, v01]).reshape(-1, 3)

    labels = np.zeros(nodes.shape[0], dtype=np.int8)
    on_x = np.isin(np.arange(nodes.shape[0]) % (nx + 1), [0, nx])
    on_y = (np.arange(nodes.shape[0]) < (nx + 1)) | (np.arange(nodes.shape[0]) >= ny * (nx + 1))
    labels[on_y] = GAMMA0
    labels[on_x] = GAMMA1 if lateral_gamma1 else GAMMA0

    # per row iy the sides x=0 and x=Lx, then per column ix the bottom and top
    left = np.arange(ny) * (nx + 1)
    bottom, top = np.arange(nx), ny * (nx + 1) + np.arange(nx)
    sides = np.column_stack([left, left + nx + 1, left + nx, left + 2 * nx + 1])
    ends = np.column_stack([bottom, bottom + 1, top, top + 1])
    facets = np.column_stack([
        np.concatenate([sides.reshape(-1, 2), ends.reshape(-1, 2)]),
        np.repeat([GAMMA1 if lateral_gamma1 else GAMMA0, GAMMA0], [2 * ny, 2 * nx])])

    area = (lx / nx) * (ly / ny) / 2.0
    sizes = np.full(elements.shape[0], area)
    return Mesh(2, nodes, elements, labels, facets, sizes)


def _element_stiffness(corners: np.ndarray, sizes: np.ndarray, out: np.ndarray) -> None:
    """P1 element stiffness matrices of simplices with vertices ``corners``
    (elements, vertices, dim) into ``out`` (elements, vertices, vertices).

    The barycentric gradients are the rows of ``inv(E)^T`` for the edge
    matrix ``E``, taken in closed form as the transposed adjugate over the
    determinant for the meshes' dimensions 1 and 2: ``1/e`` for an interval,
    the same bits as a LAPACK inverse, and ``[[d, -c], [-b, a]]/(ad - bc)``
    for ``E = [[a, b], [c, d]]``, which moves a triangle's entries in their
    last bits.  A zero determinant is a ``DegenerateElement``."""
    edges = corners[:, 1:] - corners[:, :1]
    if edges.shape[1] == 1:
        det, adjugate_t = edges[:, 0, 0], np.ones_like(edges)
    else:
        det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
        adjugate_t = edges[:, ::-1, ::-1] * _ADJUGATE_SIGNS
    if np.any(np.abs(det) < 1e-300):
        raise DegenerateElement("element with zero measure")
    # row i is the gradient of barycentric coordinate i+1
    grads = adjugate_t / det[:, None, None]
    grads = np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1)
    np.matmul(sizes[:, None, None] * grads, grads.transpose(0, 2, 1), out=out)


def assemble(mesh: Mesh) -> AssembledOperators:
    """Assemble lumped mass, P1 stiffness and lumped active-boundary mass."""
    if np.any(mesh.element_sizes <= 0.0):
        raise DegenerateElement("element with nonpositive measure")
    n, d = mesh.n_nodes, mesh.dim
    pts = mesh.nodes.reshape(n, d)
    m = mesh.elements.shape[0]
    # COO entry (a, b) of element e sits at [e, a, b], in the order of one
    # whole-mesh batch, so the summed matrix does not depend on the blocking
    data = np.empty((m, d + 1, d + 1))
    rows = np.empty((m, d + 1, d + 1), dtype=np.int32)
    cols = np.empty_like(rows)
    for start in range(0, m, _ASSEMBLY_BLOCK):
        block = slice(start, start + _ASSEMBLY_BLOCK)
        elements = mesh.elements[block]
        _element_stiffness(pts[elements], mesh.element_sizes[block], out=data[block])
        rows[block] = elements[:, :, None]
        cols[block] = elements[:, None, :]
    stiffness = sp.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
    mass = np.bincount(mesh.elements.ravel(), minlength=n,
                       weights=np.repeat(mesh.element_sizes / (d + 1), d + 1))

    facets = mesh.boundary_facets[mesh.boundary_facets[:, -1] == GAMMA1, :-1]
    spans = pts[facets[:, 1:]] - pts[facets[:, :1]]
    measure = np.sqrt(np.linalg.det(spans @ spans.transpose(0, 2, 1)))
    boundary_mass = np.bincount(facets.ravel(), minlength=n,
                                weights=np.repeat(measure / d, d))

    return AssembledOperators(
        mass=mass,
        stiffness=stiffness,
        boundary_mass=boundary_mass,
        domain_measure=float(mass.sum()),
    )


def trace_constant(ops: AssembledOperators) -> float:
    """Sharp discrete constant C with ||z||_boundary <= C ||z||_h1.

    Square root of the largest generalized eigenvalue of the pair
    (boundary mass ``Mb``, mass + stiffness), which for the nonnegative
    diagonal ``Mb`` is the largest eigenvalue of the symmetric operator
    ``s (M + K)^-1 s``, ``s = sqrt(Mb)``, computed on each call.
    ARPACK finds it in standard mode with the shared ``ops.h1_factor`` and
    at most ``_ARPACK_NCV`` Lanczos vectors; its error is NonConvergence.
    """
    if not np.any(ops.boundary_mass > 0.0):
        raise EmptyBoundary("active boundary has no nodes")
    n, s, h1_solve = ops.n_nodes, np.sqrt(ops.boundary_mass), ops.h1_factor.solve
    operator = spla.LinearOperator((n, n), matvec=lambda x: s * h1_solve(s * x), dtype=float)
    try:
        w = spla.eigsh(operator, k=1, which="LA", v0=np.ones(n), ncv=min(_ARPACK_NCV, n),
                       return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise NonConvergence(f"trace constant: {exc}") from exc
    return float(np.sqrt(max(float(w[0]), 0.0)))
