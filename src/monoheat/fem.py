"""P1 finite elements on intervals and structured rectangles.

The boundary is partitioned into an active part (label ``GAMMA1``), which
carries the nonlinear flux, and an insulated part (``GAMMA0``).  Assembly
produces a row-sum lumped mass diagonal, the exact P1 stiffness matrix and
a lumped boundary-mass diagonal supported on the active nodes.  Lumping
diagonalizes all nodewise nonlinear terms, which is what makes the
resolvent-based per-step solves well posed.

One array code path serves intervals and triangles alike: barycentric
gradients come from the inverse of each simplex's edge matrix, and a facet
with vertices p_0..p_k has measure sqrt(det(E E^T)) for its edge matrix E.
A point facet (an interval endpoint) has an empty E and thus measure 1, so
the 1-D boundary mass is the counting measure of the active endpoints.

Both mesh families have nonnegative stiffness edge weights (intervals
trivially, rectangles because the triangles are right triangles), a fact
the energy monitors rely on.

Nothing here writes files: the mesh files of ``--dump-mesh`` come from
``cli``, which owns every output format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DegenerateElement,
    EmptyBoundary,
    InvalidArgument,
)

INTERIOR = 0
GAMMA0 = 1
GAMMA1 = 2

_DENSE_EIG_LIMIT = 1400
# Lanczos basis size for the one extreme eigenvalue in ``trace_constant``:
# 9 solves with the h1 factor where ARPACK's default of 20 vectors takes 21
_ARPACK_NCV = 8


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

    @property
    def gamma0_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.boundary_labels == GAMMA0)


def spd_factor(a) -> spla.SuperLU:
    """Sparse LU factor of a symmetric positive definite matrix ``a``.

    Minimum degree on the pattern of ``A + A^T`` orders for the symmetric
    matrix itself, where SuperLU's default COLAMD orders for ``A^T A``, and
    the pivots stay on the diagonal: elimination without pivoting is stable
    for SPD matrices, and a symmetric permutation keeps them SPD.  Every
    sparse factorization of the package goes through here.
    """
    return spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


@dataclass
class AssembledOperators:
    """Lumped mass, stiffness and boundary mass for one mesh."""

    mesh: Mesh
    mass: np.ndarray               # lumped diagonal, volume measure
    stiffness: sp.csr_matrix
    boundary_mass: np.ndarray      # lumped diagonal, active-boundary measure
    domain_measure: float
    _trace_cache: Optional[float] = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.mass.shape[0]

    @cached_property
    def h1_factor(self) -> spla.SuperLU:
        """Sparse LU factor of ``M + K``, the Gram matrix of the discrete h1
        norm, computed on first use.  ``trace_constant`` and the dual norms
        of the energy monitors share it."""
        return spd_factor(sp.diags(self.mass) + self.stiffness)


_GAMMA1_SIDES = ("left", "right", "both", "none")


def build_mesh_1d(length: float, n_elems: int, gamma1_side: str = "right") -> Mesh:
    """Uniform mesh of [0, L]; endpoints labeled by ``gamma1_side``.

    ``none`` labels both endpoints as insulated (pure zero-flux setup).
    """
    if not length > 0.0:
        raise InvalidArgument("interval length must be positive")
    if n_elems < 1:
        raise InvalidArgument("need at least one element")
    if gamma1_side not in _GAMMA1_SIDES:
        raise InvalidArgument(f"gamma1_side must be one of {_GAMMA1_SIDES}")
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


def assemble(mesh: Mesh) -> AssembledOperators:
    """Assemble lumped mass, P1 stiffness and lumped active-boundary mass."""
    if np.any(mesh.element_sizes <= 0.0):
        raise DegenerateElement("element with nonpositive measure")
    n, d = mesh.n_nodes, mesh.dim
    pts = mesh.nodes.reshape(n, d)
    corners = pts[mesh.elements]
    edges = corners[:, 1:] - corners[:, :1]
    if np.any(np.abs(np.linalg.det(edges)) < 1e-300):
        raise DegenerateElement("element with zero measure")
    # row i of inv(E)^T is the gradient of barycentric coordinate i+1
    grads = np.linalg.inv(edges).transpose(0, 2, 1)
    grads = np.concatenate([-grads.sum(axis=1, keepdims=True), grads], axis=1)
    local = mesh.element_sizes[:, None, None] * grads @ grads.transpose(0, 2, 1)
    rows = np.repeat(mesh.elements, d + 1, axis=1)
    cols = np.tile(mesh.elements, d + 1)
    stiffness = sp.csr_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))
    stiffness.sum_duplicates()
    mass = np.bincount(mesh.elements.ravel(), minlength=n,
                       weights=np.repeat(mesh.element_sizes / (d + 1), d + 1))

    facets = mesh.boundary_facets[mesh.boundary_facets[:, -1] == GAMMA1, :-1]
    spans = pts[facets[:, 1:]] - pts[facets[:, :1]]
    measure = np.sqrt(np.linalg.det(spans @ spans.transpose(0, 2, 1)))
    boundary_mass = np.bincount(facets.ravel(), minlength=n,
                                weights=np.repeat(measure / d, d))

    return AssembledOperators(
        mesh=mesh,
        mass=mass,
        stiffness=stiffness,
        boundary_mass=boundary_mass,
        domain_measure=float(mass.sum()),
    )


def trace_constant(ops: AssembledOperators) -> float:
    """Sharp discrete constant C with ||z||_boundary <= C ||z||_h1.

    Square root of the largest generalized eigenvalue of the pair
    (boundary mass, mass + stiffness).  Cached on the operator set.  Past
    ``_DENSE_EIG_LIMIT`` nodes ARPACK solves it in generalized mode with
    the shared factor ``ops.h1_factor`` as ``M^-1``, falling back to a
    power iteration with the same factor.
    """
    if ops._trace_cache is not None:
        return ops._trace_cache
    if not np.any(ops.boundary_mass > 0.0):
        raise EmptyBoundary("active boundary has no nodes")
    n = ops.n_nodes
    h1 = sp.diags(ops.mass) + ops.stiffness
    if n <= _DENSE_EIG_LIMIT:
        w = scipy.linalg.eigh(
            np.diag(ops.boundary_mass), h1.toarray(), eigvals_only=True)
        mu = float(w[-1])
    else:
        bm = sp.diags(ops.boundary_mass).tocsc()
        h1_solve = ops.h1_factor.solve
        v0 = np.ones(n)
        try:
            w = spla.eigsh(bm, k=1, M=h1.tocsc(),
                           Minv=spla.LinearOperator((n, n), matvec=h1_solve, dtype=float),
                           which="LA", v0=v0, ncv=_ARPACK_NCV,
                           return_eigenvectors=False)
            mu = float(w[0])
        except spla.ArpackError:
            mu = _power_iteration(ops.boundary_mass, h1, h1_solve, v0)
    ops._trace_cache = float(np.sqrt(max(mu, 0.0)))
    return ops._trace_cache


def _power_iteration(bm_diag, h1, h1_solve, v0, iters=5000, tol=1e-13):
    z = v0 / np.linalg.norm(v0)
    mu = 0.0
    for _ in range(iters):
        w = h1_solve(bm_diag * z)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        z_new = w / nrm
        mu_new = float((z_new * bm_diag * z_new).sum() / (z_new @ (h1 @ z_new)))
        if abs(mu_new - mu) <= tol * max(1.0, abs(mu_new)):
            return mu_new
        z, mu = z_new, mu_new
    return mu

