import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from monoheat import fem, graphs as gr, stepper
from monoheat.errors import (
    InvalidArgument,
    LinearSolveFailure,
    NonConvergence,
    SingularJacobian,
    ValidationError,
)
from monoheat.stepper import (
    ProblemSpec,
    SolverConfig,
    _StepSolver,
    lambda_continuation,
    smooth_initial,
    solve_transient,
)
from conftest import (cross_validation_steps, factored_matrices, random_problem,
                      random_problem_2d, smooth_nodal)


def steady_spec(n=8, c=1.3, gamma=None, beta=None):
    mesh = fem.build_mesh_1d(1.0, n, "right")
    beta = beta or gr.PhysicalBeta(1.0, 1.0)
    return ProblemSpec(
        mesh=mesh, c0=1.0,
        gamma=gamma or gr.SaturatingBiLipschitz(1.0, 1.0),
        beta=beta, g=None, h=float(beta.value(c)), u0=c, T=0.5)


def affine_spec():
    """Linear volume and boundary graphs on an interval, Gamma1 on the right."""
    mesh = fem.build_mesh_1d(1.0, 8, "right")
    return ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.Linear(1.5),
                       beta=gr.Linear(0.7), g=1.0, h=0.2, u0=0.0, T=0.3)


def continuation_spec_8x8():
    """The continuation benchmark's data on rect(1, 1, 8, 8, lateral)."""
    return benchmark_spec(8)


def benchmark_spec(n):
    """The data of the continuation and newton-large benchmarks on
    rect(1, 1, n, n, lateral): a saturating volume graph and the
    linear-plus-fourth-power boundary law."""
    mesh = fem.build_mesh_rect(1.0, 1.0, n, n, True)
    beta = gr.CompositeSum([gr.Linear(1.0), gr.Power(4.0)])
    x = mesh.nodes[:, 0]
    return ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 1.0),
                       beta=beta, g=lambda t: np.sin(np.pi * x) * np.exp(-t),
                       h=float(beta.value(0.5)), u0=np.cos(np.pi * x / 2), T=0.05)


CONTINUATION_SCHEDULE = (0.5, 0.25, 0.125, 0.0625)


def advance_allowance(spec, ops, cfg, b):
    """The Picard/Newton cross-check allowance of ``_StepSolver.advance``."""
    sigma_floor = (spec.c0 * spec.gamma.constants().lipschitz_lower
                   * float(np.min(ops.mass)))
    return 10.0 * max(cfg.picard_tol, cfg.newton_tol) \
        * (1.0 + np.linalg.norm(b)) / min(sigma_floor, 1.0)


def full_residuals(spec, ops, tau, lam, state, eps=0.0):
    """Step residuals rebuilt on every node, the Yosida term (clamped at
    1/eps for ``eps > 0``) included: ``(residual, rhs)`` for each accepted
    level."""
    for k in range(1, state.n_steps + 1):
        t = state.times[k]
        u = state.u[k]
        b = (ops.mass * state.v[k - 1]
             + tau * ops.mass * spec.g_at(t)
             + tau * ops.boundary_mass * spec.h_at(t))
        res = (ops.mass * spec.c0 * np.asarray(spec.gamma.value(u))
               + tau * (ops.stiffness @ u)
               + tau * lam * ops.mass * u
               + tau * ops.boundary_mass * gr.regularized_value(spec.beta, lam, eps, u)
               - b)
        yield res, b


class TestSmoothInitial:
    def test_constants_are_fixed_points(self):
        mesh = fem.build_mesh_1d(1.0, 10, "right")
        ops = fem.assemble(mesh)
        for lam in (1.0, 0.1, 0.01):
            out = smooth_initial(ops, np.full(ops.n_nodes, 2.5), lam)
            assert np.abs(out - 2.5).max() < 1e-12

    def test_energy_bound(self, rng):
        mesh = fem.build_mesh_1d(1.0, 32, "right")
        ops = fem.assemble(mesh)
        u0 = rng.normal(size=ops.n_nodes)
        lam = 0.05
        out = smooth_initial(ops, u0, lam)
        lhs = 0.5 * float(out @ (ops.mass * out)) \
            + lam * float(out @ (ops.stiffness @ out))
        rhs = 0.5 * float(u0 @ (ops.mass * u0))
        assert lhs <= rhs + 1e-12

    def test_converges_to_data(self, rng):
        mesh = fem.build_mesh_1d(1.0, 32, "right")
        ops = fem.assemble(mesh)
        u0 = smooth_nodal(mesh, rng)

        def dist(lam):
            d = smooth_initial(ops, u0, lam) - u0
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
        spec = affine_spec()
        state = solve_transient(spec, SolverConfig(tau=0.1, lambda_schedule=(0.0,)))
        assert np.all(state.iterations == 1)

    @pytest.mark.parametrize("lam", [0.0, 0.125])
    def test_affine_picard_converges_in_two_sweeps(self, lam):
        # with linear graphs P is the step Jacobian, so every correction is
        # the exact Newton step: the first sweep is damped, and the second,
        # undamped one lands on the solution (plain damped sweeps took 29);
        # a RuntimeWarning fails the test (pyproject.toml)
        spec = affine_spec()
        cfg = SolverConfig(tau=0.1, lambda_schedule=(lam,), solver_kind="picard")
        state = solve_transient(spec, cfg)
        assert np.all(state.iterations <= 2), state.iterations

    def test_rank_deficient_anderson_history_stays_finite(self):
        # below the rounding floor the iterate stops moving, so the stored
        # differences are all zero: the least-squares step must stay finite
        # and the sweep must end in NonConvergence, one entry per sweep
        spec = affine_spec()
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.0,), solver_kind="picard",
                           picard_tol=1e-300, max_iters=20)
        with pytest.raises(NonConvergence) as info:
            solve_transient(spec, cfg)
        history = info.value.residual_history
        assert len(history) == 20
        assert np.all(np.isfinite(history))
        assert max(history[3:]) < 1e-15

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
                           max_iters=3)
        with pytest.raises(NonConvergence) as info:
            solve_transient(spec, cfg)
        assert info.value.time_index == 1
        assert len(info.value.residual_history) == 3

    def test_diverging_sweep_is_nonconvergence(self):
        # an undamped sweep on a steep boundary overflows power(8) within a
        # few sweeps; under the suite's error::RuntimeWarning filter that
        # must surface as NonConvergence, not as a floating-point warning
        spec = ProblemSpec(mesh=fem.build_mesh_1d(1.0, 8, "right"), c0=1.0,
                           gamma=gr.Linear(1.0),
                           beta=gr.CompositeSum([gr.Linear(1.0), gr.Power(8.0)]),
                           g=0.0, h=500.0, u0=0.0, T=0.4)
        cfg = SolverConfig(tau=0.2, lambda_schedule=(0.0,), solver_kind="picard")
        with pytest.raises(NonConvergence, match="diverged") as info:
            solve_transient(spec, cfg)
        history = info.value.residual_history
        assert info.value.time_index == 1
        assert not np.isfinite(history[-1]) and np.all(np.isfinite(history[:-1]))
        state = solve_transient(spec, dataclasses.replace(cfg, solver_kind="newton"))
        assert state.n_steps == 2 and np.all(np.isfinite(state.u))


class TestActiveBoundaryOnly:
    @pytest.mark.parametrize("kind", ["picard", "newton", "both"])
    def test_boundary_graph_evaluated_on_gamma1_only(self, rng, monkeypatch, kind):
        # every boundary evaluation the stepper makes is on the Gamma1 nodes:
        # the regularized map and its slope, the resolvent, and beta's own
        # section and slope at y on the lifted Newton iteration and the
        # lifted sweep; what those make inside (the resolvent's shrinking
        # iterates) is not the stepper's
        shapes, depth = [], [0]

        def spy(name, real):
            def call(*args):
                if depth[0] == 0:
                    shapes.append((name, np.shape(args[-1])))
                depth[0] += 1
                try:
                    return real(*args)
                finally:
                    depth[0] -= 1
            return call

        for name in ("regularized_value", "regularized_derivative", "resolvent"):
            monkeypatch.setattr(gr, name, spy(name, getattr(gr, name)))
        specs = [random_problem(rng, n_elems=8, T=0.2), random_problem_2d(rng, n=4, T=0.2)]
        # a beta with a jump, and lam = 0, where Newton's slope is the
        # centred difference of the regularized map
        jump = dataclasses.replace(specs[1], beta=gr.CompositeSum([gr.Linear(1.0),
                                                                   gr.Sign()]))
        for spec, lam in [(specs[0], 0.125), (specs[1], 0.125), (jump, 0.125),
                          (specs[1], 0.0)]:
            for name in ("section_bounds", "derivative"):
                monkeypatch.setattr(spec.beta, name, spy(name, getattr(spec.beta, name)))
            shapes.clear()
            cfg = SolverConfig(tau=0.05, lambda_schedule=(lam,), solver_kind=kind,
                               picard_tol=1e-12, newton_tol=1e-12, max_iters=500)
            state = solve_transient(spec, cfg)
            n_g1 = len(spec.mesh.gamma1_nodes)
            assert shapes
            # every call works on the Gamma1 nodes of one level: the stored
            # selection is each accepted step's own, never one over the history
            assert all(shape == (n_g1,) for _, shape in shapes), shapes
            assert state.xi.shape == (state.n_steps + 1, n_g1)
            names = {name for name, _ in shapes}
            if lam == 0.0:
                # y is u: the sweep reads the regularized map alone, Newton
                # its centred slope too
                assert names == ({"regularized_value"} if kind == "picard"
                                 else {"regularized_value", "regularized_derivative"})
            else:
                assert {"section_bounds", "derivative", "resolvent"} <= names
                assert "regularized_derivative" not in names


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

    @pytest.mark.parametrize("field", ["g", "h"])
    def test_infinite_library_data_rejected(self, field):
        # a callable datum that no config entry checked, infinite on the
        # Gamma1 node from t = 0.2 on: the step right-hand side rejects it
        def datum(t):
            out = np.zeros(9)
            out[-1] = np.inf if t > 0.15 else 1.0
            return out

        spec = dataclasses.replace(affine_spec(), **{field: datum})
        with pytest.raises(ValidationError, match=r"^step right-hand side at t = 0\.2 is not "
                                                  r"finite \(data g or h\)$"):
            solve_transient(spec, SolverConfig(tau=0.1, lambda_schedule=(0.0,)))

    @pytest.mark.parametrize("make, key", [
        (lambda: SolverConfig(tau=0.1, newton_tol=np.inf), "newton_tol"),
        (lambda: SolverConfig(tau=0.1, lambda_schedule=(np.nan,)), "lambda_schedule"),
        (lambda: SolverConfig(tau=0.1, lambda_schedule=(np.inf,)), "lambda_schedule"),
        (lambda: SolverConfig(tau=0.1, epsilon=np.nan), "epsilon"),
        (lambda: dataclasses.replace(affine_spec(), c0=np.inf), "c0"),
        (lambda: dataclasses.replace(affine_spec(), u0=1e21), "u0"),
        (lambda: dataclasses.replace(affine_spec(), g=np.full(9, -1e21)), "g"),
    ], ids=["infinite_newton_tol", "nan_lambda", "infinite_lambda", "nan_epsilon",
            "infinite_c0", "huge_u0", "huge_g"])
    def test_library_number_outside_the_working_range(self, make, key):
        # an infinite newton_tol accepted every step unsolved, a NaN or
        # infinite lambda failed in the factorization, a NaN epsilon was
        # taken, and an infinite c0 was blamed on g or h at the first step
        with pytest.raises(ValidationError, match="outside the working range") as exc:
            make()
        assert exc.value.key == key

    @pytest.mark.parametrize("make, error, message", [
        (lambda: dataclasses.replace(affine_spec(), g=np.zeros(3)),
         ValidationError, "g has shape (3,), expected (9,)"),
        (lambda: dataclasses.replace(affine_spec(), h=[0.0, 1.0]),
         ValidationError, "h must be a scalar, nodal array or callable of time"),
        (lambda: dataclasses.replace(affine_spec(), u0=np.zeros(3)),
         ValidationError, "u0 has shape (3,), expected (9,)"),
        # the radiative law around a slope-1e60 graph: at u0 = 1e20 the
        # quadrature of its potential meets an overflowing integrand
        (lambda: dataclasses.replace(
            affine_spec(), u0=1e20,
            beta=gr.PhysicalBeta(1.0, 1.0, inner=gr.SaturatingBiLipschitz(1e60, 1e50))),
         ValidationError, "boundary potential of u0 is not summable"),
        # around a graph linear by its constants (1e100 + 1 == 1e100) the
        # closed form's slope**4 overflows to inf, no Python OverflowError
        (lambda: dataclasses.replace(
            affine_spec(), u0=1e20,
            beta=gr.PhysicalBeta(1.0, 1.0, inner=gr.SaturatingBiLipschitz(1e100, 1.0))),
         ValidationError, "boundary potential of u0 is not summable"),
        (lambda: smooth_initial(fem.assemble(affine_spec().mesh), np.zeros(9), 0.0),
         InvalidArgument, "smoothing parameter must be positive"),
        (lambda: smooth_initial(fem.assemble(affine_spec().mesh), np.full(9, np.nan), 0.1),
         LinearSolveFailure, "smoothing solve produced non-finite values"),
    ], ids=["g_shape", "h_kind", "u0_shape", "u0_potential_quadrature",
            "u0_potential_closed_form", "smoothing_lambda", "smoothing_nan"])
    def test_library_input_guards(self, make, error, message):
        with pytest.raises(error) as exc:
            make()
        assert exc.type is error and str(exc.value) == message


class TestLambdaContinuation:
    def test_zero_lambda_multivalued_beta_rejected_before_marching(self, monkeypatch):
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 1.0),
                           beta=gr.Sign(), g=None, h=0.3, u0=0.0, T=0.2)
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.5, 0.125, 0.0))

        def no_step(*args):
            raise AssertionError("a level marched")

        monkeypatch.setattr(_StepSolver, "advance", no_step)
        for run in (lambda_continuation, solve_transient):
            with pytest.raises(ValidationError, match="^beta = sign is multi-valued"):
                run(spec, cfg)

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

    def test_anderson_sweeps_per_step(self):
        # plain damped sweeps took 29-30 per step on this run
        spec = continuation_spec_8x8()
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.025, lambda_schedule=CONTINUATION_SCHEDULE,
                           solver_kind="picard")
        runs = lambda_continuation(spec, cfg, ops=ops)
        assert len(runs) == len(CONTINUATION_SCHEDULE)
        for lam, state, _ in runs:
            assert np.all(state.iterations <= 12), (lam, state.iterations)
            for res, b in full_residuals(spec, ops, cfg.tau, lam, state):
                assert np.linalg.norm(res) <= cfg.picard_tol * (1 + np.linalg.norm(b))

    def test_cross_checked_continuation(self):
        spec = continuation_spec_8x8()
        cfg = SolverConfig(tau=0.025, lambda_schedule=CONTINUATION_SCHEDULE,
                           solver_kind="both")
        # advance raises SolverDisagreement when the two answers of a step sit
        # further apart than its allowance; a zero gap would mean no check ran
        runs = lambda_continuation(spec, cfg)
        assert all(state.disagreement > 0.0 for _, state, _ in runs)

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

    @pytest.mark.parametrize("lam", [0.125, 0.0625])
    @pytest.mark.parametrize("eps", [0.0, 0.7])
    def test_picard_newton_agree_2d(self, rng, lam, eps):
        specs = [random_problem_2d(rng, n=6, T=0.1) for _ in range(3)]
        specs[-1] = dataclasses.replace(
            specs[-1], beta=gr.CompositeSum([gr.Linear(1.0), gr.Sign()]))
        for spec in specs:
            ops = fem.assemble(spec.mesh)
            cfg = SolverConfig(tau=0.05, lambda_schedule=(lam,), epsilon=eps)
            solver = _StepSolver(spec, ops, cfg, lam, eps)
            b = solver.rhs(spec.v_of(spec.u0), cfg.tau)
            u_p, _, _ = solver.picard(spec.u0, b)
            u_n, _, _ = solver.newton(spec.u0, b)
            assert np.linalg.norm(u_p - u_n) <= advance_allowance(spec, ops, cfg, b)

    def test_clamped_limit_march_meets_residual_contract(self):
        # lambda = 0 with the clamp at 1/eps = 2 active on Gamma1 at every
        # level: the bath h = 3 heats the boundary past 2^(1/3), where the
        # clamped power(3) is constant and Newton takes its slope as 0
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        beta = gr.Power(3.0)
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 1.0),
                           beta=beta, g=0.0, h=3.0, u0=1.5, T=0.2)
        ops = fem.assemble(mesh)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.0,), epsilon=0.5, solver_kind="both")
        state = solve_transient(spec, cfg, ops=ops)
        assert np.all(state.xi == 2.0)
        assert np.all(np.abs(state.u[:, mesh.gamma1_nodes]) ** 3 >= 2.0)
        for k in range(1, state.n_steps + 1):
            u = state.u[k]
            b = ops.mass * state.v[k - 1] + cfg.tau * ops.boundary_mass * 3.0
            res = (ops.mass * spec.v_of(u) + cfg.tau * (ops.stiffness @ u)
                   + cfg.tau * ops.boundary_mass * np.clip(beta.value(u), -2.0, 2.0) - b)
            assert np.linalg.norm(res) <= cfg.newton_tol * (1 + np.linalg.norm(b))

    def test_picard_matrix_is_spd_with_lambda_mass(self, rng, monkeypatch):
        factored = factored_matrices(monkeypatch)
        spec = random_problem(rng, n_elems=6, T=0.1)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.5,))
        solver = _StepSolver(spec, fem.assemble(spec.mesh), cfg, 0.5, 0.0)
        solver._picard_solve
        assert len(factored) == 1
        mat = factored[0].toarray()
        assert np.allclose(mat, mat.T)
        assert np.linalg.eigvalsh(mat).min() > 0.0


def direct_newton(solver, k_tau, u, b):
    """Reference Newton: an exact sparse solve on the assembled Jacobian
    ``diag + k_tau`` and the solver's own backtracking rule."""
    tol = solver.config.newton_tol * (1.0 + np.linalg.norm(b))
    r = solver.residual(u, b)
    res = np.linalg.norm(r)
    for _ in range(solver.config.max_iters):
        if res <= tol:
            return u
        slope = gr.regularized_derivative(solver.spec.beta, solver.lam, solver.eps,
                                          u[solver.g1])
        diag = solver._jacobian_diagonal(np.asarray(solver.spec.gamma.derivative(u)), slope)
        delta = spla.spsolve((sp.diags(diag) + k_tau).tocsc(), -r)
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


def count_sparse_solves(monkeypatch):
    """Count calls of ``spla.splu`` and ``spla.spsolve`` from now on."""
    calls = {"splu": 0, "spsolve": 0}
    for name in calls:
        def spy(*args, real=getattr(spla, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(spla, name, spy)
    return calls


class TestNewtonLinearSolve:
    @pytest.mark.parametrize("kind", ["newton", "picard", "both"])
    def test_one_factorization_per_solver(self, rng, monkeypatch, kind):
        # the random 2-D problem, and linear gamma and beta, where P is the
        # Jacobian and no second matrix is factored
        for spec in (random_problem_2d(rng, n=6, T=0.2), affine_spec()):
            calls = count_sparse_solves(monkeypatch)
            cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,), solver_kind=kind)
            state = solve_transient(spec, cfg)
            assert np.all(state.iterations >= 1)
            assert calls == {"splu": 1, "spsolve": 0}

    def test_one_factorization_per_continuation_level(self, rng, monkeypatch):
        calls = count_sparse_solves(monkeypatch)
        spec = random_problem_2d(rng, n=6, T=0.2)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.5, 0.25, 0.125))
        runs = lambda_continuation(spec, cfg)
        assert len(runs) == 3
        assert calls == {"splu": 3, "spsolve": 0}

    @pytest.mark.parametrize("beta", [
        gr.Linear(0.7),
        gr.CompositeSum([gr.Linear(0.35), gr.Linear(0.35)]),
        gr.Power(1.0),
    ], ids=lambda g: g.label)
    @pytest.mark.parametrize("lam", [0.0, 0.125])
    def test_linear_problem_takes_one_cg_iteration(self, monkeypatch, lam, beta):
        # P is the Jacobian, so CG preconditioned with P stops after one
        # iteration, and that one solve lands each step on its solution;
        # P reads beta's slope from its constants, so a beta that is linear
        # by them but not of the Linear class takes the same one iteration
        cg, counts = spla.cg, []

        def counted_cg(*args, **kwargs):
            counts.append(0)

            def callback(xk):
                counts[-1] += 1
            return cg(*args, callback=callback, **kwargs)
        monkeypatch.setattr(spla, "cg", counted_cg)
        state = solve_transient(dataclasses.replace(affine_spec(), beta=beta),
                                SolverConfig(tau=0.1, lambda_schedule=(lam,)))
        assert counts == [1, 1, 1]
        assert np.all(state.iterations == 1)

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
            u_direct = direct_newton(solver, cfg.tau * ops.stiffness, spec.u0.copy(), b)
            assert np.linalg.norm(u_cg - u_direct) <= advance_allowance(spec, ops, cfg, b)


class TestForcingTerm:
    def test_cg_stops_at_the_contract(self, monkeypatch):
        # the newton-large physics on 16x16: no CG solve is asked for more
        # than the contract needs, min(0.1, 0.5*tol/merit) at the iterate's
        # merit, where the Eisenstat-Walker floor alone asks 1e-10 on the
        # last iteration of a step, and every step still meets the contract
        cg, rtols = spla.cg, []

        def spy(*args, **kwargs):
            rtols.append(kwargs["rtol"])
            return cg(*args, **kwargs)

        monkeypatch.setattr(spla, "cg", spy)
        spec = dataclasses.replace(benchmark_spec(16), T=0.125)
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.025, lambda_schedule=(0.0625,))
        solver = _StepSolver(spec, ops, cfg, 0.0625, 0.0)
        u = spec.u0
        for k in range(1, cfg.n_steps(spec.T) + 1):
            b = solver.rhs(spec.v_of(u), k * cfg.tau)
            tol = cfg.newton_tol * (1.0 + np.linalg.norm(b))
            rtols.clear()
            u, its, res = solver.newton(u, b)
            merits = solver.last_residual_history
            assert its >= 2 and len(rtols) == its
            for rtol, merit in zip(rtols, merits):
                assert rtol >= min(0.1, 0.5 * tol / merit), (k, rtols, merits)
            assert res <= tol
            assert np.linalg.norm(solver.residual(u, b)) == res

    def test_no_more_newton_iterations(self, monkeypatch):
        # over acceptance criterion 7's 50 random steps, Newton takes no more
        # iterations in all than with the Eisenstat-Walker term alone
        def newton_iterations():
            return [solver.newton(solver.spec.u0, b)[1]
                    for solver, b in cross_validation_steps()]

        with_contract = newton_iterations()
        monkeypatch.setattr(stepper, "_forcing_term", lambda merit, merit_last, tol:
                            min(0.1, max(0.9 * (merit / merit_last) ** 2, 1e-10)))
        assert sum(with_contract) <= sum(newton_iterations())


class TestNewtonFailures:
    def test_backtracking_stall(self, monkeypatch):
        # an ascent direction: no step length lowers the residual
        cg = _StepSolver._jacobian_cg
        monkeypatch.setattr(_StepSolver, "_jacobian_cg",
                            lambda self, diag, rhs, rtol: -cg(self, diag, rhs, rtol))
        with pytest.raises(NonConvergence, match="Newton backtracking stalled") as info:
            solve_transient(affine_spec(), SolverConfig(tau=0.1, lambda_schedule=(0.0,)))
        assert info.value.time_index == 1

    def test_zero_gamma_slope_is_singular(self):
        class ZeroSlope(gr.Linear):
            # declares bi-Lipschitz constants but reports no slope
            def derivative(self, x):
                return np.zeros_like(np.asarray(x, dtype=float))

        spec = dataclasses.replace(affine_spec(), gamma=ZeroSlope(1.5))
        with pytest.raises(SingularJacobian, match="gamma derivative not positive"):
            solve_transient(spec, SolverConfig(tau=0.1, lambda_schedule=(0.0,)))


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


def count_resolvents(monkeypatch):
    """Record the points of every ``ScalarGraph.resolvent`` call from now on."""
    calls = []
    real = gr.ScalarGraph.resolvent

    def counted(graph, lam, x):
        calls.append(np.size(x))
        return real(graph, lam, x)

    monkeypatch.setattr(gr.ScalarGraph, "resolvent", counted)
    return calls


class TestLiftedNewton:
    def test_one_resolvent_per_step(self, rng, monkeypatch):
        # the radiative law around a saturating gamma in 2-D: the lifted march
        # solves the resolvent once for level 0's xi and y's start, and once
        # per step to check the contract on r(u); so does the clamp
        spec = random_problem_2d(rng, n=6, T=0.25)
        ops = fem.assemble(spec.mesh)
        calls = count_resolvents(monkeypatch)
        # 1/eps = 0.125 binds (|xi| reaches 0.34 unclamped), and its zero
        # slope keeps Newton's rate: the unclamped slope there takes 9
        # iterations on the first step
        for eps in (0.0, 0.7, 8.0):
            cfg = SolverConfig(tau=0.05, lambda_schedule=(0.0625,), epsilon=eps)
            calls.clear()
            state = solve_transient(spec, cfg, ops=ops)
            assert np.all((1 <= state.iterations) & (state.iterations <= 4))
            assert len(calls) <= state.n_steps + 1, (eps, len(calls), state.iterations)
            assert np.any(np.abs(state.xi) == 0.125) == (eps == 8.0)
            for res, b in full_residuals(spec, ops, cfg.tau, 0.0625, state, eps):
                assert np.linalg.norm(res) <= cfg.newton_tol * (1 + np.linalg.norm(b))

    def test_jump_takes_fewer_resolvents_than_iterations(self, rng, monkeypatch):
        # composite(linear(1), sign) in 2-D: y leaves the jump only through
        # the resolved backtrack, and the march still solves fewer
        # resolvents than it takes Newton iterations
        spec = dataclasses.replace(random_problem_2d(rng, n=6, T=0.25), h=0.3,
                                   beta=gr.CompositeSum([gr.Linear(1.0), gr.Sign()]))
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.0625,))
        calls = count_resolvents(monkeypatch)
        state = solve_transient(spec, cfg, ops=ops)
        assert len(calls) < int(state.iterations.sum()), (len(calls), state.iterations)
        for res, b in full_residuals(spec, ops, cfg.tau, 0.0625, state):
            assert np.linalg.norm(res) <= cfg.newton_tol * (1 + np.linalg.norm(b))

    def test_lam_zero_costs_one_residual_per_trial(self, monkeypatch):
        # at lam = 0 y is u and the merit is |r(u)| itself: a step evaluates
        # one residual per trial and two regularized values per centred
        # slope, and accepts on the merit with no second residual; the
        # counts and iterations are those of the Newton iteration on r(u)
        # that the lifted one replaced (its first step backtracks)
        spec = ProblemSpec(mesh=fem.build_mesh_1d(1.0, 8, "right"), c0=1.0,
                           gamma=gr.Linear(1.0),
                           beta=gr.CompositeSum([gr.Linear(1.0), gr.Power(8.0)]),
                           g=0.0, h=500.0, u0=0.0, T=0.4)
        calls = {"residual": 0, "regularized_value": 0}
        real_residual, real_value = _StepSolver.residual, gr.regularized_value

        def residual(solver, u, b):
            calls["residual"] += 1
            return real_residual(solver, u, b)

        def regularized_value(*args):
            calls["regularized_value"] += 1
            return real_value(*args)

        monkeypatch.setattr(_StepSolver, "residual", residual)
        monkeypatch.setattr(gr, "regularized_value", regularized_value)
        per_step, real_newton = [], _StepSolver.newton

        def newton(solver, u, b):
            calls.update(residual=0, regularized_value=0)
            out = real_newton(solver, u, b)
            per_step.append((out[1], calls["residual"], calls["regularized_value"]))
            return out

        monkeypatch.setattr(_StepSolver, "newton", newton)
        solve_transient(spec, SolverConfig(tau=0.2, lambda_schedule=(0.0,)))
        assert per_step == [(6, 18, 30), (3, 4, 10)]

    @pytest.mark.parametrize("p", [0.5, 3.0])
    def test_vertical_and_flat_beta_at_zero(self, p):
        # every Gamma1 node starts at 0, where power(0.5) has an infinite
        # slope and power(3) a zero one: the lifted slopes there are 1/lam
        # and 0, not NaN, and the march meets the contract without a
        # floating-point warning
        mesh = fem.build_mesh_1d(1.0, 8, "both")
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 0.5),
                           beta=gr.Power(p), g=1.0, h=0.0, u0=0.0, T=0.2)
        ops = fem.assemble(mesh)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,))
        state = solve_transient(spec, cfg, ops=ops)
        assert np.all(state.u[1:, mesh.gamma1_nodes] > 0.0)
        for res, b in full_residuals(spec, ops, cfg.tau, 0.125, state):
            assert np.linalg.norm(res) <= cfg.newton_tol * (1 + np.linalg.norm(b))

    def test_resolvent_accuracy_adds_nothing_to_the_merit(self, rng):
        # y one ulp off J_lam(u) meets the resolvent's own test; at lam = 1e-8
        # the weight tau*Mb/lam would lift that ulp far past the contract
        spec = random_problem_2d(rng, n=6, T=0.1)
        ops = fem.assemble(spec.mesh)
        lam = 1e-8
        cfg = SolverConfig(tau=0.05, lambda_schedule=(lam,))
        solver = _StepSolver(spec, ops, cfg, lam, 0.0)
        b = solver.rhs(spec.v_of(spec.u0), cfg.tau)
        u_g1 = spec.u0[solver.g1] + 1.0
        u = spec.u0.copy()
        u[solver.g1] = u_g1
        y = np.nextafter(gr.resolvent(spec.beta, lam, u_g1), np.inf)
        _, r_u, r_y, merit = solver._lifted_residuals(u, y, b)
        assert np.any(r_y != 0.0)
        assert np.all(np.abs(r_y) <= gr.resolvent_target(u_g1))
        assert np.linalg.norm(solver.tau_bmass_g1 * r_y) / lam \
            > cfg.newton_tol * (1 + np.linalg.norm(b))
        assert merit == np.linalg.norm(r_u)

    def test_merit_never_accepts_what_the_residual_rejects(self, rng, monkeypatch):
        # a merit that reads 0 at the start claims a solved step: the check
        # on r(u) refuses it, y restarts at J_lam(u), and Newton goes on
        spec = random_problem_2d(rng, n=4, T=0.1)
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,))
        solver = _StepSolver(spec, ops, cfg, 0.125, 0.0)
        b = solver.rhs(spec.v_of(spec.u0), cfg.tau)
        real = _StepSolver._lifted_residuals
        lies = [True]

        def lying(self, u, y, b):
            w, r_u, r_y, merit = real(self, u, y, b)
            if lies:
                lies.pop()
                merit = 0.0
            return w, r_u, r_y, merit

        monkeypatch.setattr(_StepSolver, "_lifted_residuals", lying)
        calls = count_resolvents(monkeypatch)
        u, its, res = solver.newton(spec.u0, b)
        assert its >= 1 and lies == []
        # y's start, the refused check, the restart and the accepted check
        assert len(calls) == 4
        assert res <= cfg.newton_tol * (1 + np.linalg.norm(b))
        assert np.linalg.norm(solver.residual(u, b)) == res


class TestStoredSelection:
    @pytest.mark.parametrize("lam", [0.0, 0.0625])
    @pytest.mark.parametrize("kind", ["picard", "newton", "both"])
    def test_selection_is_beta_reg_of_u(self, kind, lam, monkeypatch):
        # each level's xi is beta_reg of its stored u, bit for bit, as one
        # evaluation over the whole history gives it; at lam > 0 the march
        # solves no resolvent for it beyond level 0's, which also starts the
        # y of each solver, and one check per accepted step (and per solver
        # under both)
        spec = continuation_spec_8x8()
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.025, lambda_schedule=(lam,), solver_kind=kind)
        calls = count_resolvents(monkeypatch)
        state = solve_transient(spec, cfg, ops=ops)
        g1 = spec.mesh.gamma1_nodes
        solvers = 2 if kind == "both" else 1
        assert calls == ([g1.size] * (solvers * state.n_steps + 1) if lam > 0.0 else [])
        whole = gr.regularized_value(spec.beta, lam, cfg.epsilon, state.u[:, g1])
        assert state.xi.tobytes() == whole.tobytes()


class TestLiftedPicard:
    def test_fewer_resolvents_than_sweeps(self, monkeypatch):
        # at lam > 0 the sweep carries y ~ J_lam(u) and solves a resolvent
        # only to start y, to check each accepted step on r(u), and on a
        # stall; one per residual would be more than one per sweep
        spec = continuation_spec_8x8()
        ops = fem.assemble(spec.mesh)
        calls = count_resolvents(monkeypatch)
        for lam in CONTINUATION_SCHEDULE:
            cfg = SolverConfig(tau=0.025, lambda_schedule=(lam,), solver_kind="picard")
            calls.clear()
            state = solve_transient(spec, cfg, ops=ops)
            assert len(calls) < int(state.iterations.sum()), (lam, len(calls), state.iterations)
            for res, b in full_residuals(spec, ops, cfg.tau, lam, state):
                assert np.linalg.norm(res) <= cfg.picard_tol * (1 + np.linalg.norm(b))

    def test_lam_zero_costs_one_residual_per_sweep(self, monkeypatch):
        # at lam = 0 y is u and the merit is |r(u)|: a step evaluates the
        # residual once to start and once per sweep, and no resolvent
        spec = continuation_spec_8x8()
        calls = [0]
        real_residual, real_picard = _StepSolver.residual, _StepSolver.picard

        def residual(solver, u, b):
            calls[0] += 1
            return real_residual(solver, u, b)

        per_step = []

        def picard(solver, u, b):
            calls[0] = 0
            out = real_picard(solver, u, b)
            per_step.append((out[1], calls[0]))
            return out

        monkeypatch.setattr(_StepSolver, "residual", residual)
        monkeypatch.setattr(_StepSolver, "picard", picard)
        resolvents = count_resolvents(monkeypatch)
        solve_transient(spec, SolverConfig(tau=0.025, lambda_schedule=(0.0,),
                                           solver_kind="picard"))
        assert len(per_step) == 2 and resolvents == []
        assert all(n_res == sweeps + 1 for sweeps, n_res in per_step), per_step

    @staticmethod
    def lie_inside_the_sweep(monkeypatch, resolved_state=None):
        """Make the first sweep's lifted merit read 0, and, with
        ``resolved_state``, replace the state that ``_resolved`` evaluates
        next by ``resolved_state(w, r_u, r_y, merit)``.  Returns the list
        of ``_lifted_residuals`` calls made so far."""
        real = _StepSolver._lifted_residuals
        calls = []

        def lying(self, u, y, b):
            out = real(self, u, y, b)
            calls.append(out[-1])
            if len(calls) == 2:
                return out[:-1] + (0.0,)
            if len(calls) == 3 and resolved_state is not None:
                return resolved_state(*out)
            return out

        monkeypatch.setattr(_StepSolver, "_lifted_residuals", lying)
        return calls

    def test_merit_never_accepts_what_the_residual_rejects(self, rng, monkeypatch):
        # a merit that reads 0 on the first sweep claims a solved step: the
        # check on r(u) refuses it, y is resolved at J_lam(u) through
        # _resolved, and the sweep goes on to a step that r(u) accepts
        spec = random_problem_2d(rng, n=4, T=0.05)
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,), solver_kind="picard")
        events = []
        real_resolved, real_residual = _StepSolver._resolved, _StepSolver.residual

        def resolved(solver, u, b, y=None):
            events.append(("resolved", y is None))
            return real_resolved(solver, u, b, y)

        def residual(solver, u, b):
            r = real_residual(solver, u, b)
            events.append(("residual", np.linalg.norm(r)
                           <= cfg.picard_tol * (1 + np.linalg.norm(b))))
            return r

        monkeypatch.setattr(_StepSolver, "_resolved", resolved)
        monkeypatch.setattr(_StepSolver, "residual", residual)
        merits = self.lie_inside_the_sweep(monkeypatch)
        resolvents = count_resolvents(monkeypatch)
        state = solve_transient(spec, cfg, ops=ops)
        # y's start from level 0's resolvent, the first sweep, the refused
        # check and its resolve
        assert events[:4] == [("resolved", False), ("resolved", False),
                              ("residual", False), ("resolved", True)]
        assert events[-1] == ("residual", True)
        assert state.iterations[0] > 1 and len(merits) > 3
        # level 0's xi, then every resolvent comes from _resolved or the check
        assert len(resolvents) == 1 + events.count(("resolved", True)) \
            + sum(kind == "residual" for kind, _ in events)
        for res, b in full_residuals(spec, ops, cfg.tau, 0.125, state):
            assert np.linalg.norm(res) <= cfg.picard_tol * (1 + np.linalg.norm(b))

    def test_resolved_state_that_overflows_is_nonconvergence(self, rng, monkeypatch):
        # the merit of the state resolved after a refused check is not
        # tested for finiteness: a residual that overflows there stops the
        # sweep through its Anderson differences, with every merit of the
        # history finite, and never reaches the least squares
        spec = random_problem_2d(rng, n=4, T=0.05)
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.125,), solver_kind="picard")
        self.lie_inside_the_sweep(
            monkeypatch, lambda w, r_u, r_y, merit: (w, np.full_like(r_u, np.inf), r_y, np.inf))
        with pytest.raises(NonConvergence, match="^fixed-point sweep diverged$") as info:
            solve_transient(spec, cfg)
        assert info.value.residual_history == [0.0]

    @pytest.mark.parametrize("jump", [False, True])
    def test_both_leaves_newton_alone(self, jump):
        # the sweep keeps its own y: Newton's accepted iterates under
        # solver_kind = both are those of a Newton-only march, bit for bit
        spec = continuation_spec_8x8()
        if jump:
            spec = dataclasses.replace(spec, h=0.3,
                                       beta=gr.CompositeSum([gr.Linear(1.0), gr.Sign()]))
        ops = fem.assemble(spec.mesh)
        cfg = SolverConfig(tau=0.025, lambda_schedule=(0.0625,), solver_kind="both")
        both = solve_transient(spec, cfg, ops=ops)
        alone = solve_transient(spec, dataclasses.replace(cfg, solver_kind="newton"), ops=ops)
        assert both.disagreement > 0.0
        assert np.array_equal(both.u, alone.u)


def enthalpy_defects(spec, ops, state):
    """Per step k, the enthalpy balance defect
    ``sum m (v_k - v_{k-1}) - tau (sum m g_k + sum_Gamma1 mb (h_k - xi_k)
    - lam sum m u_k)``, which is the sum of the step residual's entries
    because K annihilates constants, with its bound: ``sqrt(n)`` times the
    residual contract, plus the rounding of the sums.

    Each sum of the defect has n terms, and each residual entry at most
    ``w = (entries of a stiffness row) + 6`` operations, so the computed
    defect and the computed residual sum differ by at most
    ``gamma_(n+w) * S`` (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, eq. 3.4), with S the sum of the magnitudes of every
    term, ``tau*|K||u_k|`` included."""
    n, tau, lam = ops.n_nodes, state.tau, state.lam
    m, g1 = ops.mass, spec.mesh.gamma1_nodes
    mb = ops.boundary_mass[g1]
    w = int(np.diff(ops.stiffness.tocsr().indptr).max()) + 6
    unit = np.finfo(float).eps / 2
    gamma_nw = (n + w) * unit / (1 - (n + w) * unit)
    abs_k = abs(ops.stiffness)
    for k in range(1, state.n_steps + 1):
        t = state.times[k]
        g, h = spec.g_at(t), spec.h_at(t)
        u, v, v_prev, xi = state.u[k], state.v[k], state.v[k - 1], state.xi[k]
        defect = (m @ (v - v_prev)
                  - tau * (m @ g + mb @ (h[g1] - xi) - lam * (m @ u)))
        b = m * v_prev + tau * m * g + tau * ops.boundary_mass * h
        magnitudes = (m @ (np.abs(v) + np.abs(v_prev) + tau * np.abs(g) + tau * lam * np.abs(u))
                      + tau * (mb @ (np.abs(h[g1]) + np.abs(xi)))
                      + tau * np.sum(abs_k @ np.abs(u)))
        yield defect, np.sqrt(n), 1.0 + np.linalg.norm(b), gamma_nw * magnitudes


class TestEnthalpyBalance:
    # a single-valued beta, the clamp and a beta with a jump, on the lifted
    # Newton iteration and on the lifted sweep, each bounded by its own
    # tolerance; the stored xi is the true beta_reg(u), not the lifted
    # iterate's boundary value, and storing xi one step late breaks the
    # balance by tau*Mb*(xi_k - xi_{k-1}), far past this bound

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("route", ["lifted", "clamped", "multivalued"])
    def test_defect_within_the_residual_contract(self, rng, dim, route):
        self.check(rng, dim, route, "newton")

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("route", ["lifted", "clamped", "multivalued"])
    def test_sweep_defect_within_the_residual_contract(self, rng, dim, route):
        self.check(rng, dim, route, "picard")

    @staticmethod
    def check(rng, dim, route, kind):
        for _ in range(3):
            spec = (random_problem(rng, n_elems=12, T=0.2) if dim == 1
                    else random_problem_2d(rng, n=6, T=0.2))
            if route == "multivalued":
                spec = dataclasses.replace(
                    spec, beta=gr.CompositeSum([gr.Linear(1.0), gr.Sign()]))
            ops = fem.assemble(spec.mesh)
            eps = 0.7 if route == "clamped" else 0.0
            cfg = SolverConfig(tau=0.05, lambda_schedule=(0.0625,), epsilon=eps,
                               solver_kind=kind)
            tol = cfg.newton_tol if kind == "newton" else cfg.picard_tol
            state = solve_transient(spec, cfg, ops=ops)
            assert np.any(state.xi != 0.0)
            for defect, sqrt_n, scale, rounding in enthalpy_defects(spec, ops, state):
                assert abs(defect) <= sqrt_n * tol * scale + rounding, \
                    (defect, sqrt_n * tol * scale, rounding)
