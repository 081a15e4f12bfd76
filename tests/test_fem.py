import io
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from monoheat import fem, graphs as gr
from monoheat.cli import _BLOCK_ROWS, _dump_mesh
from monoheat.errors import DegenerateElement, EmptyBoundary, InvalidArgument
from monoheat.fem import GAMMA0, GAMMA1
from monoheat.stepper import ProblemSpec, SolverConfig, _StepSolver, smooth_initial


class TestMesh1d:
    def test_three_node_layout(self):
        mesh = fem.build_mesh_1d(1.0, 2, "right")
        assert np.allclose(mesh.nodes, [0.0, 0.5, 1.0])
        assert mesh.boundary_labels[0] == GAMMA0
        assert mesh.boundary_labels[-1] == GAMMA1

    def test_both_sides_active(self):
        mesh = fem.build_mesh_1d(1.0, 1, "both")
        assert mesh.boundary_labels[0] == GAMMA1
        assert mesh.boundary_labels[-1] == GAMMA1

    def test_element_sizes(self):
        mesh = fem.build_mesh_1d(2.0, 4, "right")
        assert np.allclose(mesh.element_sizes, 0.5)

    def test_zero_elements_rejected(self):
        with pytest.raises(InvalidArgument):
            fem.build_mesh_1d(1.0, 0, "right")


class TestMeshRect:
    def test_boundary_label_counts(self):
        mesh = fem.build_mesh_rect(1.0, 1.0, 2, 2, True)
        # corners plus the two lateral midside nodes are active
        assert len(mesh.gamma1_nodes) == 6
        assert len(mesh.gamma0_nodes) == 2

    def test_minimal_rectangle(self):
        mesh = fem.build_mesh_rect(1.0, 1.0, 1, 1, True)
        assert mesh.n_nodes == 4
        assert mesh.elements.shape[0] == 2

    def test_all_insulated(self):
        mesh = fem.build_mesh_rect(1.0, 1.0, 3, 3, False)
        assert len(mesh.gamma1_nodes) == 0
        boundary = np.flatnonzero(mesh.boundary_labels != 0)
        assert len(boundary) == 12


class TestAssemble:
    def test_hand_assembled_mass_1d(self):
        ops = fem.assemble(fem.build_mesh_1d(1.0, 2, "right"))
        assert np.allclose(ops.mass, [0.25, 0.5, 0.25])

    def test_hand_assembled_stiffness_1d(self):
        ops = fem.assemble(fem.build_mesh_1d(1.0, 2, "right"))
        expected = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
        assert np.allclose(ops.stiffness.toarray(), expected)

    def test_stiffness_annihilates_constants(self):
        for ops in (fem.assemble(fem.build_mesh_1d(1.0, 7, "both")),
                    fem.assemble(fem.build_mesh_rect(1.0, 2.0, 4, 3, True))):
            c = np.full(ops.n_nodes, 3.7)
            assert np.abs(ops.stiffness @ c).max() < 1e-12

    def test_partition_of_unity(self):
        ops = fem.assemble(fem.build_mesh_rect(2.0, 1.5, 5, 4, True))
        assert ops.mass.sum() == pytest.approx(3.0, abs=1e-12)
        assert ops.boundary_mass.sum() == pytest.approx(3.0, abs=1e-12)  # 2 * Ly

    def test_boundary_mass_supported_on_active_nodes(self):
        mesh = fem.build_mesh_rect(1.0, 1.0, 4, 4, True)
        ops = fem.assemble(mesh)
        assert np.all(ops.boundary_mass[mesh.boundary_labels != GAMMA1] == 0.0)
        assert np.all(ops.boundary_mass[mesh.boundary_labels == GAMMA1] > 0.0)

    def test_nonpositive_offdiagonal_stiffness(self):
        # right-triangle meshes keep edge weights nonnegative
        ops = fem.assemble(fem.build_mesh_rect(1.0, 1.0, 3, 5, True))
        k = ops.stiffness.toarray()
        np.fill_diagonal(k, 0.0)
        assert k.max() <= 1e-14

    def test_translation_invariance(self):
        base = fem.build_mesh_rect(1.0, 1.0, 3, 3, True)
        shifted = fem.Mesh(base.dim, base.nodes + np.array([2.0, -1.0]),
                           base.elements, base.boundary_labels,
                           base.boundary_facets, base.element_sizes)
        ops_a, ops_b = fem.assemble(base), fem.assemble(shifted)
        assert np.allclose(ops_a.mass, ops_b.mass)
        assert np.allclose(ops_a.boundary_mass, ops_b.boundary_mass)
        assert abs(ops_a.stiffness - ops_b.stiffness).max() < 1e-12

    def test_non_uniform_interval_closed_form(self):
        x = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
        h = np.diff(x)
        base = fem.build_mesh_1d(1.0, 4, "both")
        mesh = fem.Mesh(1, x, base.elements, base.boundary_labels,
                        base.boundary_facets, h)
        ops = fem.assemble(mesh)
        expected = np.zeros((5, 5))
        for i, hi in enumerate(h):
            expected[i:i + 2, i:i + 2] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / hi
        assert np.allclose(ops.stiffness.toarray(), expected, rtol=1e-13, atol=0.0)
        assert np.allclose(ops.mass, np.concatenate([[0.0], h]) / 2.0
                           + np.concatenate([h, [0.0]]) / 2.0, rtol=1e-13, atol=0.0)
        assert np.array_equal(ops.boundary_mass, [1.0, 0.0, 0.0, 0.0, 1.0])
        assert ops.boundary_mass.sum() == 2.0
        assert ops.domain_measure == pytest.approx(1.0, rel=1e-13)

    def test_skewed_triangle_cotangent_formula(self):
        p = np.array([[0.0, 0.0], [2.0, 0.3], [0.5, 1.5]])
        e1, e2 = p[1] - p[0], p[2] - p[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        mesh = fem.Mesh(2, p, np.array([[0, 1, 2]]), np.array([GAMMA1, GAMMA1, GAMMA0]),
                        np.array([[0, 1, GAMMA1], [1, 2, GAMMA0], [2, 0, GAMMA0]]),
                        np.array([area]))
        ops = fem.assemble(mesh)
        expected = np.zeros((3, 3))
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            a, b = p[i] - p[k], p[j] - p[k]
            half_cot = 0.5 * (a @ b) / abs(a[0] * b[1] - a[1] * b[0])
            expected[i, j] = expected[j, i] = -half_cot
        expected -= np.diag(expected.sum(axis=1))
        assert np.allclose(ops.stiffness.toarray(), expected, rtol=1e-13, atol=1e-15)
        assert np.allclose(ops.mass, area / 3.0, rtol=1e-13, atol=0.0)
        length = math.hypot(*e1)
        assert np.allclose(ops.boundary_mass, [length / 2, length / 2, 0.0],
                           rtol=1e-13, atol=0.0)
        assert ops.boundary_mass.sum() == pytest.approx(length, rel=1e-13)
        assert ops.domain_measure == pytest.approx(area, rel=1e-13)

    def test_degenerate_elements_rejected(self):
        base = fem.build_mesh_rect(1.0, 1.0, 1, 1, True)
        flat = base.nodes.copy()
        flat[3] = [0.5, 0.0]  # triangle (0, 1, 3) collapses onto the bottom edge
        for nodes, sizes in ((base.nodes, np.array([0.5, 0.0])),
                             (flat, base.element_sizes)):
            mesh = fem.Mesh(2, nodes, base.elements, base.boundary_labels,
                            base.boundary_facets, sizes)
            with pytest.raises(DegenerateElement):
                fem.assemble(mesh)


class TestTraceConstant:
    def test_against_continuum_value(self):
        # sharp constant for point evaluation at x=1 over H1(0,1) is coth(1)^(1/2)
        ops = fem.assemble(fem.build_mesh_1d(1.0, 16, "right"))
        expected = math.sqrt(1.0 / math.tanh(1.0))
        assert fem.trace_constant(ops) == pytest.approx(expected, rel=0.02)

    def test_refinement_stability(self):
        c16 = fem.trace_constant(fem.assemble(fem.build_mesh_1d(1.0, 16, "right")))
        c32 = fem.trace_constant(fem.assemble(fem.build_mesh_1d(1.0, 32, "right")))
        assert abs(c32 - c16) / c16 < 0.01

    def test_empty_boundary_rejected(self):
        ops = fem.assemble(fem.build_mesh_1d(1.0, 4, "none"))
        with pytest.raises(EmptyBoundary):
            fem.trace_constant(ops)

    def test_trace_inequality_on_random_fields(self, rng):
        ops = fem.assemble(fem.build_mesh_rect(1.0, 1.0, 6, 6, True))
        c_sq = fem.trace_constant(ops) ** 2
        for _ in range(100):
            z = rng.normal(size=ops.n_nodes)
            lhs = float(z @ (ops.boundary_mass * z))
            rhs = float(z @ (ops.mass * z)) + float(z @ (ops.stiffness @ z))
            assert lhs <= c_sq * rhs * (1.0 + 1e-10)


def _savetxt_mesh(mesh):
    """The two mesh files through ``np.savetxt``: the reference text."""
    n, d = mesh.n_nodes, mesh.dim
    table = np.empty((n, d + 2), dtype=object)
    table[:, 0] = np.arange(n)
    table[:, 1:-1] = mesh.nodes.reshape(n, d)
    table[:, -1] = np.array(["interior", "gamma0", "gamma1"])[mesh.boundary_labels]
    nodes, elems = io.StringIO(), io.StringIO()
    np.savetxt(nodes, table, fmt=["%d"] + ["%.17g"] * d + ["%s"], delimiter=",",
               header="node_id," + ",".join("xy"[:d]) + ",label", comments="")
    np.savetxt(elems, np.column_stack([np.arange(len(mesh.elements)), mesh.elements]),
               fmt="%d", delimiter=",", comments="",
               header="element_id," + ",".join(f"v{j}" for j in range(d + 1)))
    return nodes.getvalue(), elems.getvalue()


class TestMeshDump:
    def test_round_trips_labels_and_elements(self, tmp_path):
        mesh = fem.build_mesh_rect(1.0, 1.0, 2, 2, True)
        nodes = tmp_path / "nodes.csv"
        elems = tmp_path / "elems.csv"
        _dump_mesh(mesh, nodes, elems)
        node_rows = nodes.read_text().strip().splitlines()
        assert node_rows[0] == "node_id,x,y,label"
        assert len(node_rows) == mesh.n_nodes + 1
        assert sum("gamma1" in r for r in node_rows) == 6
        elem_rows = elems.read_text().strip().splitlines()
        assert len(elem_rows) == mesh.elements.shape[0] + 1


    def test_exact_interval_text(self, tmp_path):
        nodes, elems = tmp_path / "nodes.csv", tmp_path / "elems.csv"
        _dump_mesh(fem.build_mesh_1d(0.3, 2, "right"), nodes, elems)
        assert nodes.read_text() == ("node_id,x,label\n0,0,gamma0\n"
                                     "1,0.14999999999999999,interior\n"
                                     "2,0.29999999999999999,gamma1\n")
        assert elems.read_text() == "element_id,v0,v1\n0,0,1\n1,1,2\n"

    def test_exact_rectangle_text(self, tmp_path):
        nodes, elems = tmp_path / "nodes.csv", tmp_path / "elems.csv"
        _dump_mesh(fem.build_mesh_rect(0.3, 1.0, 1, 1, True), nodes, elems)
        assert nodes.read_text() == ("node_id,x,y,label\n0,0,0,gamma1\n"
                                     "1,0.29999999999999999,0,gamma1\n"
                                     "2,0,1,gamma1\n"
                                     "3,0.29999999999999999,1,gamma1\n")
        assert elems.read_text() == "element_id,v0,v1,v2\n0,0,1,3\n1,0,3,2\n"

    @pytest.mark.parametrize("mesh", [
        fem.build_mesh_1d(0.7, 2 * _BLOCK_ROWS + 2, "both"),
        fem.build_mesh_rect(1.3, 0.9, 37, 29, False),
    ], ids=["interval", "rectangle"])
    def test_meshes_past_one_block_match_savetxt(self, tmp_path, mesh):
        assert max(mesh.n_nodes, len(mesh.elements)) > 2 * _BLOCK_ROWS
        nodes, elems = tmp_path / "nodes.csv", tmp_path / "elems.csv"
        _dump_mesh(mesh, nodes, elems)
        assert (nodes.read_text(), elems.read_text()) == _savetxt_mesh(mesh)


class TestLargeMeshTrace:
    def test_sparse_eigensolver_path(self):
        # 41x41 nodes exceeds the dense threshold
        ops = fem.assemble(fem.build_mesh_rect(1.0, 1.0, 40, 40, True))
        c_large = fem.trace_constant(ops)
        ops_small = fem.assemble(fem.build_mesh_rect(1.0, 1.0, 30, 30, True))
        c_small = fem.trace_constant(ops_small)
        assert c_large == pytest.approx(c_small, rel=0.05)

    def test_arpack_matches_dense_generalized_eigh(self):
        # the same pencil (Mb, M + K) that the dense path solves below the
        # threshold, solved densely here above it
        ops = fem.assemble(fem.build_mesh_rect(1.0, 1.0, 40, 40, True))
        assert ops.n_nodes > fem._DENSE_EIG_LIMIT
        h1 = (sp.diags(ops.mass) + ops.stiffness).toarray()
        mu = scipy.linalg.eigh(np.diag(ops.boundary_mass), h1, eigvals_only=True,
                               subset_by_index=[ops.n_nodes - 1, ops.n_nodes - 1])[0]
        assert fem.trace_constant(ops) ** 2 == pytest.approx(mu, rel=1e-12)

    def test_power_iteration_fallback_matches_arpack(self, monkeypatch):
        mesh = fem.build_mesh_rect(1.0, 1.0, 40, 40, True)
        c_arpack = fem.trace_constant(fem.assemble(mesh))
        calls = []

        def no_convergence(*args, **kwargs):
            calls.append(1)
            raise fem.spla.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(fem.spla, "eigsh", no_convergence)
        c_power = fem.trace_constant(fem.assemble(mesh))
        assert calls == [1]
        assert c_power == pytest.approx(c_arpack, rel=1e-10)


def _served_matrices(mesh):
    """Every matrix that goes through ``spd_factor``, each with the solve
    that serves it: the h1 Gram matrix, the smoothing matrix ``M + lam*K``
    and the Picard matrix at lam > 0 with linear gamma and beta, which is
    the step Jacobian, built independently of the solver."""
    ops = fem.assemble(mesh)
    mass, stiff = sp.diags(ops.mass), ops.stiffness
    c0, a_gamma, a_beta, lam, tau = 1.3, 2.0, 3.0, 0.25, 0.05
    spec = ProblemSpec(mesh=mesh, c0=c0, gamma=gr.Linear(a_gamma), beta=gr.Linear(a_beta),
                       g=0.0, h=0.0, u0=0.0, T=0.1)
    solver = _StepSolver(spec, ops, SolverConfig(tau=tau, lambda_schedule=(lam,)), lam, 0.0)
    picard = ((c0 * a_gamma + tau * lam) * mass + tau * stiff
              + tau * a_beta / (1.0 + lam * a_beta) * sp.diags(ops.boundary_mass))
    return {
        "h1": (mass + stiff, ops.h1_factor.solve),
        "smoothing": (mass + 0.5 * stiff,
                      lambda b: smooth_initial(mesh, ops, b / ops.mass, 0.5)),
        "picard": (picard, solver._picard_solve),
    }


class TestSpdFactor:
    @pytest.mark.parametrize("mesh", [fem.build_mesh_1d(2.0, 300, "both"),
                                      fem.build_mesh_rect(1.0, 0.5, 24, 12, True)],
                             ids=["1d", "2d"])
    def test_solves_every_served_matrix(self, mesh, rng):
        for name, (matrix, solve) in _served_matrices(mesh).items():
            b = matrix @ rng.normal(size=mesh.n_nodes)
            x = solve(b)
            assert np.linalg.norm(matrix @ x - b) <= 1e-12 * np.linalg.norm(b), name

    def test_less_fill_than_default_ordering(self):
        picard, _ = _served_matrices(fem.build_mesh_rect(1.0, 1.0, 32, 32, True))["picard"]
        spd = fem.spd_factor(picard)
        default = spla.splu(picard.tocsc())
        assert spd.L.nnz + spd.U.nnz < default.L.nnz + default.U.nnz
