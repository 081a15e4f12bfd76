import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from monoheat import fem, graphs as gr
from monoheat.errors import LinearSolveFailure, NonConvergence, ValidationError
from monoheat.stepper import (
    ProblemSpec,
    SolverConfig,
    _StepSolver,
    lambda_continuation,
    smooth_initial,
    solve_transient,
)
from conftest import random_problem, random_problem_2d, smooth_nodal


def steady_spec(n=8, c=1.3, gamma=None, beta=None):
    mesh = fem.build_mesh_1d(1.0, n, "right")
    beta = beta or gr.PhysicalBeta(1.0, 1.0)
    return ProblemSpec(
        mesh=mesh, c0=1.0,
        gamma=gamma or gr.SaturatingBiLipschitz(1.0, 1.0),
        beta=beta, g=None, h=float(beta.value(c)), u0=c, T=0.5)


def full_residuals(spec, ops, tau, lam, state):
    """Step residuals rebuilt on every node, the Yosida term included:
    ``(residual, rhs)`` for each accepted level."""
    for k in range(1, state.n_steps + 1):
        t = state.times[k]
        u = state.u[k]
        b = (ops.mass * state.v[k - 1]
             + tau * ops.mass * spec.g_at(t)
             + tau * ops.boundary_mass * spec.h_at(t))
        res = (ops.mass * spec.c0 * np.asarray(spec.gamma.value(u))
               + tau * (ops.stiffness @ u)
               + tau * lam * ops.mass * u
               + tau * ops.boundary_mass * np.asarray(gr.yosida(spec.beta, lam, u))
               - b)
        yield res, b


class TestSmoothInitial:
    def test_constants_are_fixed_points(self):
        mesh = fem.build_mesh_1d(1.0, 10, "right")
        ops = fem.assemble(mesh)
        for lam in (1.0, 0.1, 0.01):
            out = smooth_initial(mesh, ops, np.full(ops.n_nodes, 2.5), lam)
            assert np.abs(out - 2.5).max() < 1e-12

    def test_energy_bound(self, rng):
        mesh = fem.build_mesh_1d(1.0, 32, "right")
        ops = fem.assemble(mesh)
        u0 = rng.normal(size=ops.n_nodes)
        lam = 0.05
        out = smooth_initial(mesh, ops, u0, lam)
        lhs = 0.5 * float(out @ (ops.mass * out)) \
            + lam * float(out @ (ops.stiffness @ out))
        rhs = 0.5 * float(u0 @ (ops.mass * u0))
        assert lhs <= rhs + 1e-12

    def test_converges_to_data(self, rng):
        mesh = fem.build_mesh_1d(1.0, 32, "right")
        ops = fem.assemble(mesh)
        u0 = smooth_nodal(mesh, rng)

        def dist(lam):
            d = smooth_initial(mesh, ops, u0, lam) - u0
            return np.sqrt(float(d @ (ops.mass * d)))

        dists = [dist(l) for l in (1e-1, 1e-2, 1e-3)]
        assert dists[0] > dists[1] > dists[2]


class TestSingleStep:
    def test_steady_state_in_one_picard_sweep(self):
        spec = steady_spec()
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.0,), solver_kind="picard")
        state = solve_transient(spec, cfg, ops=ops)
        assert np.abs(state.u - spec.u0).max() < 1e-13
        assert np.all(state.iterations == 1)

    def test_steady_state_zero_newton_corrections(self):
        spec = steady_spec()
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.0,), solver_kind="newton")
        state = solve_transient(spec, cfg)
        assert np.all(state.iterations == 0)

    def test_uniform_ode_backward_euler_value(self):
        # volume graph 2*u with unit source: one step of size tau moves u by tau/2
        mesh = fem.build_mesh_1d(1.0, 4, "none")
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.Linear(2.0),
                           beta=gr.Linear(1.0), g=1.0, h=None, u0=0.0, T=0.5)
        state = solve_transient(spec, SolverConfig(tau=0.1, lambda_schedule=(0.0,)))
        assert np.allclose(state.u[1], 0.05, atol=1e-13)
        assert np.allclose(state.u[-1], 0.25, atol=1e-12)

    def test_linear_problem_single_newton_iteration(self):
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.Linear(1.5),
                           beta=gr.Linear(0.7), g=1.0, h=0.2, u0=0.0, T=0.3)
        state = solve_transient(spec, SolverConfig(tau=0.1, lambda_schedule=(0.0,)))
        assert np.all(state.iterations == 1)

    def test_picard_newton_agree_on_random_steps(self, rng):
        for _ in range(8):
            spec = random_problem(rng, n_elems=8, T=0.1)
            ops = fem.assemble(spec.mesh)
            cfg = SolverConfig(tau=0.02, lambda_schedule=(0.25,),
                               picard_tol=1e-12, newton_tol=1e-12, max_iters=500)
            solver = _StepSolver(spec, ops, cfg, 0.25, cfg.epsilon)
            b = solver.rhs(spec.v_of(spec.u0), 0.02)
            u_p, _, _ = solver.picard(spec.u0, b)
            u_n, _, _ = solver.newton(spec.u0, b)
            assert np.abs(u_p - u_n).max() < 1e-10

    def test_residual_contract_recomputed_independently(self, rng):
        spec = random_problem(rng, n_elems=12, T=0.2)
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,), newton_tol=1e-12)
        state = solve_transient(spec, cfg, ops=ops)
        for res, b in full_residuals(spec, ops, cfg.tau, 0.125, state):
            assert np.linalg.norm(res) <= cfg.newton_tol * (1 + np.linalg.norm(b))

    def test_residual_contract_2d_picard(self, rng):
        spec = random_problem_2d(rng, n=6, T=0.2)
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,), solver_kind="picard",
                           picard_tol=1e-10)
        state = solve_transient(spec, cfg, ops=ops)
        for res, b in full_residuals(spec, ops, cfg.tau, 0.125, state):
            assert np.linalg.norm(res) <= cfg.picard_tol * (1 + np.linalg.norm(b))

    def test_insulated_mesh_with_nonlinear_beta(self, rng):
        mesh = fem.build_mesh_1d(1.0, 8, "none")
        assert mesh.gamma1_nodes.size == 0
        gamma = gr.SaturatingBiLipschitz(1.0, 0.5)
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gamma,
                           beta=gr.PhysicalBeta(1.0, 0.5, inner=gamma),
                           g=smooth_nodal(mesh, rng, amp=0.5), h=1.0,
                           u0=smooth_nodal(mesh, rng, amp=0.6), T=0.2)
        ops = fem.assemble(mesh)
        for kind in ("picard", "newton"):
            cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,), solver_kind=kind)
            state = solve_transient(spec, cfg, ops=ops)
            tol = cfg.picard_tol if kind == "picard" else cfg.newton_tol
            for res, b in full_residuals(spec, ops, cfg.tau, 0.125, state):
                assert np.linalg.norm(res) <= tol * (1 + np.linalg.norm(b))
            assert state.xi.shape == (state.n_steps + 1, 0)
            assert np.all(state.xi == 0.0)

    def test_nonconvergence_reports_history_and_index(self):
        spec = steady_spec(c=2.0)
        spec = ProblemSpec(mesh=spec.mesh, c0=spec.c0, gamma=spec.gamma,
                           beta=spec.beta, g=5.0, h=None, u0=0.0, T=1.0)
        cfg = SolverConfig(tau=0.5, lambda_schedule=(0.001,), solver_kind="picard",
                           max_iters=3, picard_damping=1.0)
        with pytest.raises(NonConvergence) as info:
            solve_transient(spec, cfg)
        assert info.value.time_index == 1
        assert len(info.value.residual_history) == 3


class TestActiveBoundaryOnly:
    @pytest.mark.parametrize("kind", ["picard", "newton", "both"])
    def test_boundary_graph_evaluated_on_gamma1_only(self, rng, monkeypatch, kind):
        shapes = []
        for name in ("regularized_value", "regularized_derivative"):
            def spy(graph, lam, eps, r, real=getattr(gr, name), name=name):
                shapes.append((name, np.shape(r)))
                return real(graph, lam, eps, r)
            monkeypatch.setattr(gr, name, spy)
        for spec in (random_problem(rng, n_elems=8, T=0.2),
                     random_problem_2d(rng, n=4, T=0.2)):
            shapes.clear()
            cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,), solver_kind=kind,
                               picard_tol=1e-12, newton_tol=1e-12, max_iters=500)
            state = solve_transient(spec, cfg)
            n_g1 = len(spec.mesh.gamma1_nodes)
            assert shapes
            # every call works on the Gamma1 nodes; the one 2-D call is the
            # selection over the whole history, (levels, Gamma1 nodes)
            assert all(shape[-1] == n_g1 for _, shape in shapes), shapes
            assert [s for _, s in shapes if len(s) != 1] == [(state.n_steps + 1, n_g1)]
            if spec.mesh.dim == 2 and kind != "picard":
                assert any(name == "regularized_derivative" for name, _ in shapes)


class TestTransient:
    def test_stationary_solution_preserved(self):
        spec = steady_spec(c=0.8)
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.0,)))
        assert np.abs(state.u - 0.8).max() < 1e-12

    def test_mass_conservation_all_insulated(self):
        mesh = fem.build_mesh_1d(1.0, 16, "none")
        u0 = np.sin(np.linspace(0.0, 3.0, mesh.n_nodes))
        spec = ProblemSpec(mesh=mesh, c0=1.0,
                           gamma=gr.SaturatingBiLipschitz(1.0, 0.5),
                           beta=gr.Linear(1.0), g=None, h=None, u0=u0, T=1.0)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.0,), newton_tol=1e-14)
        state = solve_transient(spec, cfg)
        ops = fem.assemble(mesh)
        totals = state.v @ ops.mass
        assert np.abs(totals - totals[0]).max() < 1e-12

    def test_v_is_graph_image_of_u(self, rng):
        spec = random_problem(rng, n_elems=8, T=0.2)
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.125,)))
        for k in range(state.n_steps + 1):
            expected = spec.c0 * np.asarray(spec.gamma.value(state.u[k]))
            assert np.abs(state.v[k] - expected).max() == 0.0

    def test_xi_matches_regularized_boundary_value(self, rng):
        for spec in (random_problem(rng, n_elems=8, T=0.2),
                     random_problem_2d(rng, n=4, T=0.2)):
            state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.125,)))
            g1 = spec.mesh.gamma1_nodes
            assert state.xi.shape == (state.n_steps + 1, len(g1))
            for k in range(state.n_steps + 1):
                expected = np.asarray(gr.yosida(spec.beta, 0.125, state.u[k][g1]))
                assert np.abs(state.xi[k] - expected).max() < 1e-12
            assert np.any(state.xi != 0.0)

    def test_tau_must_divide_horizon(self):
        spec = steady_spec()
        with pytest.raises(ValidationError):
            solve_transient(spec, SolverConfig(tau=0.3, lambda_schedule=(0.0,)))


class TestLambdaContinuation:
    def test_zero_steady_state_gives_zero_increments(self):
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 1.0),
                           beta=gr.PhysicalBeta(1.0, 1.0), g=None, h=None, u0=0.0, T=0.5)
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.5, 0.25, 0.125))
        runs = lambda_continuation(spec, cfg)
        assert [r[2] for r in runs[1:]] == [0.0, 0.0]

    def test_linear_increments_scale_with_lambda(self):
        # with linear graphs the mass-term perturbation is the only lambda
        # dependence, so successive dyadic increments halve
        mesh = fem.build_mesh_1d(1.0, 2, "right")
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.Linear(1.0),
                           beta=gr.Linear(1.0), g=1.0, h=None, u0=0.5, T=0.4)
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.4, 0.2, 0.1, 0.05),
                           newton_tol=1e-14)
        runs = lambda_continuation(spec, cfg)
        diffs = [r[2] for r in runs[1:]]
        ratios = [b / a for a, b in zip(diffs, diffs[1:])]
        assert all(0.3 <= r <= 0.7 for r in ratios), ratios

    def test_physical_boundary_increments_decrease(self):
        mesh = fem.build_mesh_1d(1.0, 32, "right")
        beta = gr.PhysicalBeta(1.0, 1.0)
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 1.0),
                           beta=beta, g=0.4, h=float(beta.value(0.6)),
                           u0=0.2, T=0.25)
        cfg = SolverConfig(tau=0.025, lambda_schedule=tuple(2.0 ** -k for k in range(1, 7)))
        runs = lambda_continuation(spec, cfg)
        diffs = [r[2] for r in runs[1:]]
        assert all(b < a for a, b in zip(diffs, diffs[1:])), diffs

    def test_needs_two_levels(self):
        spec = steady_spec()
        with pytest.raises(ValidationError):
            lambda_continuation(spec, SolverConfig(tau=0.1, lambda_schedule=(0.5,)))

    def test_last_level_matches_single_solve(self, rng):
        spec = random_problem(rng, n_elems=8, T=0.2)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.5, 0.25, 0.125))
        lam, state, _ = lambda_continuation(spec, cfg)[-1]
        single = solve_transient(spec, cfg, lam=cfg.lambda_schedule[-1])
        assert lam == single.lam == 0.125
        for name in ("times", "u", "v", "xi", "iterations", "residuals"):
            assert np.array_equal(getattr(state, name), getattr(single, name)), name


class TestCrossSolverContracts:
    def test_both_mode_records_disagreement(self, rng):
        spec = random_problem(rng, n_elems=8, T=0.2)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.25,), solver_kind="both",
                           picard_tol=1e-12, newton_tol=1e-12, max_iters=500)
        state = solve_transient(spec, cfg)
        assert state.disagreement < 1e-10

    def test_picard_matrix_is_spd_with_lambda_mass(self, rng):
        spec = random_problem(rng, n_elems=6, T=0.1)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.5,))
        solver = _StepSolver(spec, fem.assemble(spec.mesh), cfg, 0.5, 0.0)
        mat = solver._picard_matrix.toarray()
        assert np.allclose(mat, mat.T)
        assert np.linalg.eigvalsh(mat).min() > 0.0


def direct_newton(solver, u, b):
    """Reference Newton: an exact sparse solve on the assembled Jacobian
    and the solver's own backtracking rule."""
    tol = solver.config.newton_tol * (1.0 + np.linalg.norm(b))
    r = solver.residual(u, b)
    res = np.linalg.norm(r)
    for _ in range(solver.config.max_iters):
        if res <= tol:
            return u
        diag = solver._jacobian_diagonal(np.asarray(solver.spec.gamma.derivative(u)),
                                         solver.beta_reg_deriv(u[solver.g1]))
        delta = spla.spsolve((sp.diags(diag) + solver.k_tau).tocsc(), -r)
        step = 1.0
        while True:
            r_try = solver.residual(u + step * delta, b)
            if np.linalg.norm(r_try) <= (1.0 - 1e-4 * step) * res:
                break
            step *= 0.5
            assert step > 1e-12, "reference Newton stalled"
        u, r = u + step * delta, r_try
        res = np.linalg.norm(r)
    raise AssertionError("reference Newton did not converge")


class TestNewtonLinearSolve:
    @pytest.mark.parametrize("kind", ["newton", "both"])
    def test_one_factorization_per_solver(self, rng, monkeypatch, kind):
        calls = {"factorized": 0, "spsolve": 0}
        for name in calls:
            def spy(*args, real=getattr(spla, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(spla, name, spy)
        spec = random_problem_2d(rng, n=6, T=0.2)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,), solver_kind=kind)
        state = solve_transient(spec, cfg)
        assert np.all(state.iterations >= 1)
        assert calls == {"factorized": 1, "spsolve": 0}

    def test_cg_failure_is_linear_solve_failure(self, rng, monkeypatch):
        monkeypatch.setattr(spla, "cg", lambda A, b, **kw: (np.zeros_like(b), 1))
        spec = random_problem_2d(rng, n=4, T=0.1)
        with pytest.raises(LinearSolveFailure):
            solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.125,)))

    @pytest.mark.parametrize("dim,lam", [(1, 0.0), (1, 0.125), (2, 0.0), (2, 0.125)])
    def test_matches_direct_solve_newton(self, rng, dim, lam):
        for _ in range(4):
            spec = (random_problem(rng, n_elems=12, T=0.1) if dim == 1
                    else random_problem_2d(rng, n=6, T=0.1))
            ops = fem.assemble(spec.mesh)
            cfg = SolverConfig(tau=0.05, lambda_schedule=(lam,))
            solver = _StepSolver(spec, ops, cfg, lam, cfg.epsilon)
            b = solver.rhs(spec.v_of(spec.u0), cfg.tau)
            u_cg, _, _ = solver.newton(spec.u0, b)
            u_direct = direct_newton(solver, spec.u0.copy(), b)
            # the cross-check allowance of _StepSolver.advance
            sigma_floor = (spec.c0 * spec.gamma.constants().lipschitz_lower
                           * float(np.min(ops.mass)))
            allowed = 10.0 * max(cfg.picard_tol, cfg.newton_tol) \
                * (1.0 + np.linalg.norm(b)) / min(sigma_floor, 1.0)
            assert np.linalg.norm(u_cg - u_direct) <= allowed


class TestNewtonDecay:
    def test_quadratic_residual_decay(self):
        # ratio test on the residual log: observed order near 2 away from
        # the rounding floor
        mesh = fem.build_mesh_1d(1.0, 32, "right")
        beta = gr.PhysicalBeta(1.0, 1.0)
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 1.0),
                           beta=beta, g=0.5, h=float(beta.value(1.2)), u0=2.0, T=0.1)
        cfg = SolverConfig(tau=0.01, lambda_schedule=(0.125,), newton_tol=1e-14,
                           max_iters=60)
        ops = fem.assemble(mesh)
        solver = _StepSolver(spec, ops, cfg, 0.125, 0.0)
        b = solver.rhs(spec.v_of(spec.u0), 0.01)
        solver.newton(np.full(ops.n_nodes, -3.0), b)
        hist = [r for r in solver.last_residual_history if r > 1e-13]
        assert len(hist) >= 4
        orders = [np.log(hist[k] / hist[k - 1]) / np.log(hist[k - 1] / hist[k - 2])
                  for k in range(2, len(hist))]
        assert all(o > 1.5 for o in orders[-3:]), orders
