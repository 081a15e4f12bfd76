import gc
import math
import sys
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from monoheat import fem, graphs as gr
from monoheat import stepper, verification as ver
from monoheat.errors import (
    ConfigError,
    HypothesisViolation,
    InsufficientLevels,
    InvalidArgument,
    ValidationError,
)
from monoheat.stepper import ProblemSpec, SolverConfig, solve_transient
from conftest import random_problem, random_problem_2d


def uniform_ode_setup():
    mesh = fem.build_mesh_1d(1.0, 4, "none")
    spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.Linear(2.0),
                       beta=gr.Linear(1.0), g=1.0, h=None, u0=0.0, T=0.5)
    cfg = SolverConfig(tau=0.1, lambda_schedule=(0.0,))
    return spec, cfg, fem.assemble(mesh)


class TestEnergyMonitors:
    def test_steady_state_has_no_dissipation(self):
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        beta = gr.PhysicalBeta(1.0, 1.0)
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.Linear(2.0), beta=beta,
                           g=None, h=float(beta.value(1.0)), u0=1.0, T=0.5)
        state = solve_transient(spec, SolverConfig(tau=0.1, lambda_schedule=(0.0,)))
        rep = ver.energy_monitors(state, spec, fem.assemble(mesh))
        assert np.all(rep.grad_sq_cum == 0.0)

    def test_zero_data_all_zero(self):
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.Linear(1.0),
                           beta=gr.Linear(1.0), g=None, h=None, u0=0.0, T=0.5)
        state = solve_transient(spec, SolverConfig(tau=0.1, lambda_schedule=(0.0,)))
        rep = ver.energy_monitors(state, spec, fem.assemble(mesh))
        for series in (rep.l2_u, rep.grad_sq_cum, rep.phi_star, rep.bhat_l1,
                       rep.boundary_work, rep.dual_rate):
            assert np.all(series == 0.0)

    def test_uniform_ode_conjugate_closed_form(self):
        # exact discrete solution u_k = t_k/2 gives phi_star = t^2/4 on |Omega|=1
        spec, cfg, ops = uniform_ode_setup()
        state = solve_transient(spec, cfg, ops=ops)
        rep = ver.energy_monitors(state, spec, ops)
        assert np.abs(rep.phi_star - state.times**2 / 4.0).max() < 1e-10

    def test_conjugate_matches_quadratic_formula_with_capacity(self, rng):
        # for a linear volume graph: phi_star = sum m v^2 / (2*alpha*c0)
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        alpha, c0 = 1.7, 2.0
        spec = ProblemSpec(mesh=mesh, c0=c0, gamma=gr.Linear(alpha),
                           beta=gr.Linear(1.0), g=rng.normal(size=9),
                           h=None, u0=rng.normal(size=9), T=0.2)
        ops = fem.assemble(mesh)
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.0,)), ops=ops)
        rep = ver.energy_monitors(state, spec, ops)
        for k in range(state.n_steps + 1):
            closed = float(np.sum(ops.mass * state.v[k] ** 2)) / (2 * alpha * c0)
            assert rep.phi_star[k] == pytest.approx(closed, abs=1e-10)

    def test_conjugate_matches_grid_supremum_for_saturating_gamma(self, rng):
        # phi_star = sum m * sup_s (v*s - c0*potential(s)), the supremum
        # taken over a grid that contains every u
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        gamma, c0 = gr.SaturatingBiLipschitz(1.0, 1.0), 1.5
        spec = ProblemSpec(mesh=mesh, c0=c0, gamma=gamma, beta=gr.Linear(1.0),
                           g=rng.normal(size=9), h=None, u0=2.0 * rng.normal(size=9), T=0.2)
        ops = fem.assemble(mesh)
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.0,)), ops=ops)
        rep = ver.energy_monitors(state, spec, ops)
        grid = np.linspace(-8.0, 8.0, 320001)
        assert np.abs(state.u).max() < 8.0
        pot = c0 * gamma.potential(grid)
        for k in range(state.n_steps + 1):
            sup = np.max(np.outer(state.v[k], grid) - pot, axis=1)
            assert rep.phi_star[k] == pytest.approx(float(ops.mass @ sup), abs=1e-7)


class TestAprioriBounds:
    def test_zero_data_trivial(self):
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.Linear(1.0),
                           beta=gr.Linear(1.0), g=None, h=None, u0=0.0, T=0.5)
        state = solve_transient(spec, SolverConfig(tau=0.1, lambda_schedule=(0.0,)))
        rep = ver.verify_solution(state, spec, fem.assemble(mesh))
        assert rep.all_bounds_pass

    def test_steady_preset_constants_by_hand(self):
        # gamma = 2r (c_low = c_up = 2): the conjugate floor constant is 1/2
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        beta = gr.PhysicalBeta(1.0, 1.0)
        spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.Linear(2.0), beta=beta,
                           g=None, h=float(beta.value(1.0)), u0=1.0, T=0.5)
        ops = fem.assemble(mesh)
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.0,)), ops=ops)
        rep = ver.verify_solution(state, spec, ops)
        assert rep.skip_reason is None and rep.all_bounds_pass
        assert rep.constants["C1"] == pytest.approx(0.5)
        m1 = rep.constants["M1"]
        assert m1 == pytest.approx(2.0)  # |v0| * |u0| = 2 * 1 on unit measure
        c_tr = rep.constants["C_tr"]
        h_sq = spec.T / 0.05 * 0.05 * float(beta.value(1.0)) ** 2  # sum tau h^2 on one node
        c2 = m1 + 0.0 + c_tr**2 * h_sq
        assert rep.constants["C2"] == pytest.approx(c2, rel=1e-12)
        n = 10
        growth = (1.0 - 0.05 / (2 * 0.5)) ** (-n)
        assert rep.constants["A1"] == pytest.approx(math.sqrt(c2 / 0.5 * growth), rel=1e-12)
        # monitored value: sup |u| = 1
        a1_check = [c for c in rep.bound_checks if c.name == "A1_sup_l2_u"][0]
        assert a1_check.monitored == pytest.approx(1.0)
        assert a1_check.passed

    def test_heat_capacity_scales_gamma_constants(self):
        # the chain's volume graph is c0*gamma: its Lipschitz constants are
        # c0 times gamma's own, c_low = 2*1 and c_up = 2*2, so C1 = 1/4
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        c0, gamma, beta = 2.0, gr.SaturatingBiLipschitz(1.0, 1.0), gr.PhysicalBeta(1.0, 1.0)
        spec = ProblemSpec(mesh=mesh, c0=c0, gamma=gamma, beta=beta,
                           g=0.5, h=0.5, u0=1.0, T=0.5)
        ops = fem.assemble(mesh)
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.0,)), ops=ops)
        rep = ver.verify_solution(state, spec, ops)
        assert rep.skip_reason is None and rep.all_bounds_pass
        c_low = c0 * gamma.constants().lipschitz_lower
        c_up = c0 * gamma.constants().lipschitz_upper
        const = rep.constants
        assert const["C1"] == pytest.approx(c_low**2 / (4.0 * c_up), rel=1e-15)
        assert const["C1"] == pytest.approx(0.25, rel=1e-15)
        assert const["A3"] == pytest.approx(c_up * const["A2"], rel=1e-15)
        norms = ver.data_norms(spec, ops, state)
        d1, d2 = const["D1"], const["D2"]
        a_core = (c_up * norms.initial_bpot_l1 + 0.5 * norms.m2_sq
                  + d2 * norms.omega * norms.g_l1linf)
        growth = np.prod(1.0 / (1.0 - norms.tau * d1 * norms.g_linf_steps / c_low))
        assert const["B1"] == pytest.approx(a_core / c_low * growth, rel=1e-12)

    def test_randomized_suite_no_violations(self, rng):
        for _ in range(10):
            spec = random_problem(rng, n_elems=16, T=0.5)
            cfg = SolverConfig(tau=0.025, lambda_schedule=(0.125,), newton_tol=1e-13)
            state = solve_transient(spec, cfg)
            rep = ver.verify_solution(state, spec, fem.assemble(spec.mesh))
            assert rep.all_bounds_pass

    def test_randomized_2d_radiative_no_violations(self, rng):
        # PhysicalBeta around a nonlinear gamma has no closed-form potential,
        # so B1 and B2 run through the adaptive quadrature
        for _ in range(10):
            spec = random_problem_2d(rng)
            cfg = SolverConfig(tau=0.025, lambda_schedule=(0.125,), newton_tol=1e-13)
            state = solve_transient(spec, cfg)
            rep = ver.verify_solution(state, spec, fem.assemble(spec.mesh))
            assert rep.all_bounds_pass
            assert {"B1_sup_l1_bpot", "B2_l2_boundary_flux"} <= {
                c.name for c in rep.bound_checks}

    def test_violation_reported_with_time_index(self):
        spec, cfg, ops = uniform_ode_setup()
        state = solve_transient(spec, cfg, ops=ops)
        rep = ver.energy_monitors(state, spec, ops)
        norms = ver.data_norms(spec, ops, state)
        # corrupt a monitor to force a violation
        rep.l2_u[-1] = 1e9
        rep = ver.apriori_bounds(rep, spec.c0, spec.gamma.constants(),
                                 spec.beta.constants(), norms, 1.0)
        a1_check = [c for c in rep.bound_checks if c.name == "A1_sup_l2_u"][0]
        assert not a1_check.passed
        assert a1_check.time_index == state.n_steps
        assert not rep.all_bounds_pass
        assert rep.skip_reason is None

    @pytest.mark.parametrize("c0,beta_constants,n_steps,names", [
        (1e200, None, None, "C1, C2, A1, A2, A3"),
        (1.0, gr.GraphConstants(potential_bound_d1=10.0, potential_bound_d2=1e308), None,
         "B1, B2"),
        (0.1001, None, 1000, "C1, C2, A1, A2, A3"),
    ], ids=["huge_c0", "huge_d2", "long_march"])
    def test_constants_outside_float_range_are_validation_errors(self, c0, beta_constants,
                                                                 n_steps, names):
        # c_low^2 overflows at c0 = 1e200, B1 at a declared D2 = 1e308, and
        # the Gronwall factor (1 - 0.999)^-1000 of A1; a RuntimeWarning
        # fails the test (pyproject.toml)
        spec, cfg, ops = uniform_ode_setup()
        state = solve_transient(spec, cfg, ops=ops)
        rep = ver.energy_monitors(state, spec, ops)
        norms = ver.data_norms(spec, ops, state)
        if n_steps is not None:
            norms = replace(norms, n_steps=n_steps)
        with pytest.raises(ValidationError, match=f"bound constants {names} fall outside"):
            ver.apriori_bounds(rep, c0, spec.gamma.constants(),
                               beta_constants or spec.beta.constants(), norms, 1.0)

    def test_no_active_boundary_skips_chain(self):
        spec, cfg, ops = uniform_ode_setup()
        state = solve_transient(spec, cfg, ops=ops)
        rep = ver.verify_solution(state, spec, ops)
        assert rep.skip_reason == "no active boundary"
        assert rep.bound_checks == []
        assert not rep.all_bounds_pass
        assert rep.l2_u[-1] > 0.0

    def test_dissipation_without_forcing(self, rng):
        spec = random_problem(rng, n_elems=12, T=0.5)
        spec = ProblemSpec(mesh=spec.mesh, c0=spec.c0, gamma=spec.gamma,
                           beta=spec.beta, g=None, h=None, u0=spec.u0, T=spec.T)
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.0,),
                                                   newton_tol=1e-14))
        rep = ver.energy_monitors(state, spec, fem.assemble(spec.mesh))
        diffs = np.diff(rep.phi_star)
        assert np.all(diffs <= 1e-11 * max(1.0, rep.phi_star[0]))

    def test_constants_do_not_depend_on_solver_path(self, rng):
        spec = random_problem(rng, n_elems=8, T=0.2)
        ops = fem.assemble(spec.mesh)
        reports = []
        for kind in ("picard", "newton"):
            cfg = SolverConfig(tau=0.05, lambda_schedule=(0.25,), solver_kind=kind,
                               picard_tol=1e-12, newton_tol=1e-12, max_iters=500)
            state = solve_transient(spec, cfg, ops=ops)
            reports.append(ver.verify_solution(state, spec, ops))
        for rep in reports:
            assert rep.skip_reason is None and rep.all_bounds_pass
        for key, val in reports[0].constants.items():
            assert reports[1].constants[key] == pytest.approx(val, rel=1e-12)


class TestManufacturedSource:
    def test_constant_field_reproduces_steady_data(self):
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        beta = gr.PhysicalBeta(1.0, 1.0)
        template = ver.ProblemTemplate(mesh=mesh, c0=1.0, gamma=gr.Linear(2.0),
                                       beta=beta, T=0.5)
        exact = ver.ManufacturedSolution("1.3 + 0*x + 0*t", dim=1)
        spec = ver.manufactured_source(exact, template)
        assert np.abs(spec.g_at(0.2)).max() == 0.0
        assert spec.h_at(0.2)[-1] == pytest.approx(float(beta.value(1.3)))

    @pytest.mark.parametrize("text", ["Abs(x) + t", "x + z*t", "x^2 + t", "sin(x, t)"])
    def test_text_outside_the_grammar_is_rejected(self, text):
        # the config grammar checks exact fields given to the library too;
        # without a config line the message names none
        with pytest.raises(ConfigError) as info:
            ver.ManufacturedSolution(text, dim=1)
        assert not str(info.value).startswith("line")

    def test_time_ramp_field(self):
        mesh = fem.build_mesh_1d(1.0, 8, "right")
        template = ver.ProblemTemplate(mesh=mesh, c0=1.5, gamma=gr.Linear(2.0),
                                       beta=gr.Linear(0.7), T=0.5)
        spec = ver.manufactured_source(ver.ManufacturedSolution("t + 0*x", dim=1),
                                       template)
        # spatial terms vanish: g = c0*alpha, h = beta(t)
        assert np.allclose(spec.g_at(0.3), 1.5 * 2.0)
        assert spec.h_at(0.3)[-1] == pytest.approx(0.7 * 0.3)

    def test_decaying_cosine_source_formula(self):
        # hand-derived: for unit graph and capacity, g = (pi^2 - 1) e^{-t} cos(pi x)
        mesh = fem.build_mesh_1d(1.0, 16, "right")
        template = ver.ProblemTemplate(mesh=mesh, c0=1.0, gamma=gr.Linear(1.0),
                                       beta=gr.Linear(1.0), T=0.5)
        exact = ver.ManufacturedSolution("exp(-t)*cos(pi*x)", dim=1)
        spec = ver.manufactured_source(exact, template)
        t = 0.37
        expected = (math.pi**2 - 1.0) * math.exp(-t) * np.cos(math.pi * mesh.nodes)
        assert np.abs(spec.g_at(t) - expected).max() < 1e-12

    def test_saturating_gamma_source_matches_time_difference(self):
        # gamma(x) = x + x/(1+|x|) enters through gamma'; the exact field
        # changes sign, so the kink of gamma'' at 0 is crossed
        mesh = fem.build_mesh_1d(1.0, 16, "right")
        gamma = gr.SaturatingBiLipschitz(1.0, 1.0)
        template = ver.ProblemTemplate(mesh=mesh, c0=1.5, gamma=gamma,
                                       beta=gr.PhysicalBeta(1.0, 1.0, inner=gamma), T=0.5)
        exact = ver.ManufacturedSolution("(1 + t/2)*cos(pi*x)", dim=1)
        spec = ver.manufactured_source(exact, template)
        t, dt = 0.3, 1e-5
        rate = (spec.v_of(exact.sample(mesh, t + dt))
                - spec.v_of(exact.sample(mesh, t - dt))) / (2.0 * dt)
        lap = -math.pi**2 * (1.0 + t / 2.0) * np.cos(math.pi * mesh.nodes)
        assert np.abs(spec.g_at(t) - (rate - lap)).max() < 1e-8

    def test_discrete_residual_is_consistent(self):
        # plugging the exact field into the scheme leaves only truncation error,
        # which shrinks under refinement
        exact = ver.ManufacturedSolution("exp(-t)*cos(pi*x/2)", dim=1)

        def residual_norm(n, steps):
            mesh = fem.build_mesh_1d(1.0, n, "right")
            template = ver.ProblemTemplate(mesh=mesh, c0=1.0, gamma=gr.Linear(1.0),
                                           beta=gr.Linear(1.0), T=0.25)
            spec = ver.manufactured_source(exact, template)
            ops = fem.assemble(mesh)
            tau = template.T / steps
            t0, t1 = 0.0, tau
            u_now = exact.sample(mesh, t1)
            v_prev = spec.v_of(exact.sample(mesh, t0))
            res = (ops.mass * spec.v_of(u_now) / tau
                   + ops.stiffness @ u_now
                   + ops.boundary_mass * np.asarray(spec.beta.value(u_now))
                   - ops.mass * v_prev / tau
                   - ops.mass * spec.g_at(t1)
                   - ops.boundary_mass * spec.h_at(t1))
            return float(np.linalg.norm(res))

        coarse = residual_norm(16, 8)
        fine = residual_norm(32, 16)
        assert fine < coarse

    def test_two_dimensional_boundary_data(self):
        mesh = fem.build_mesh_rect(1.0, 1.0, 4, 4, True)
        template = ver.ProblemTemplate(mesh=mesh, c0=1.0, gamma=gr.Linear(1.0),
                                       beta=gr.Linear(2.0), T=0.5)
        exact = ver.ManufacturedSolution("exp(-t)*cos(pi*x/2)*cos(pi*y)", dim=2)
        spec = ver.manufactured_source(exact, template)
        h = spec.h_at(0.0)
        for i in mesh.gamma1_nodes:
            x, y = mesh.nodes[i]
            u_star = math.cos(math.pi * x / 2) * math.cos(math.pi * y)
            flux = -math.pi / 2 * math.sin(math.pi * x / 2) * math.cos(math.pi * y)
            normal = -1.0 if x < 0.5 else 1.0
            assert h[i] == pytest.approx(2.0 * u_star + normal * flux, abs=1e-12)


class TestConvergenceOrder:
    @staticmethod
    def make_template(n):
        return ver.ProblemTemplate(mesh=fem.build_mesh_1d(1.0, n, "right"), c0=1.0,
                                   gamma=gr.Linear(2.0), beta=gr.Linear(1.0), T=0.5)

    def test_orders_for_linear_robin_heat(self):
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.0,))
        space = ver.convergence_order(
            self.make_template, ver.ManufacturedSolution("(1 + t/2)*cos(pi*x/2)", 1),
            "space", [16, 32, 64], fine=32, config=cfg)
        assert 1.9 <= space["order"] <= 2.1
        time = ver.convergence_order(
            self.make_template, ver.ManufacturedSolution("exp(-t)*cos(pi*x/2)", 1),
            "time", [8, 16, 32], fine=128, config=cfg)
        assert 0.9 <= time["order"] <= 1.1

    def test_saturation_on_representable_solution(self):
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.0,))
        for axis, levels, fine in (("space", [8, 16, 32], 16), ("time", [4, 8, 16], 32)):
            res = ver.convergence_order(
                self.make_template, ver.ManufacturedSolution("1.0 + 0*x + 0*t", 1),
                axis, levels, fine=fine, config=cfg)
            assert res["order"] == math.inf
            assert all(e < 1e-12 for _, e in res["errors"])

    def test_initial_smoothing_reaches_every_solve(self):
        exact = ver.ManufacturedSolution("(1 + t/2)*cos(pi*x/2)", 1)
        for axis, levels, fine in (("space", [4, 8, 16], 8), ("time", [2, 4, 8], 16)):
            plain, smoothed = (
                ver.convergence_order(
                    self.make_template, exact, axis, levels, fine=fine,
                    config=SolverConfig(tau=0.1, lambda_schedule=(0.0,),
                                        smooth_u0_lambda=lam))
                for lam in (0.0, 0.05))
            assert all(p[1] != s[1] for p, s in zip(plain["errors"], smoothed["errors"]))

    def test_needs_three_levels(self):
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.0,))
        with pytest.raises(InsufficientLevels):
            ver.convergence_order(self.make_template,
                                  ver.ManufacturedSolution("t + 0*x", 1),
                                  "space", [8, 16], 16, cfg)


def linear_pair(alpha=2.0, beta_slope=1.0, delta=0.0, g_shift=0.0, n=8, T=0.5):
    mesh = fem.build_mesh_1d(1.0, n, "right")
    common = dict(mesh=mesh, c0=1.0, gamma=gr.Linear(alpha),
                  beta=gr.Linear(beta_slope), T=T)
    spec1 = ProblemSpec(g=0.3, h=0.1, u0=0.5, **common)
    spec2 = ProblemSpec(g=0.3 + g_shift, h=0.1, u0=0.5 + delta, **common)
    return spec1, spec2


class TestDependence:
    def test_identical_data_zero_margin(self):
        spec1, spec2 = linear_pair()
        cfg = SolverConfig(tau=0.05, lambda_schedule=(0.0,))
        rep = ver.dependence_check(spec1, spec2, cfg)
        assert rep.lhs == 0.0
        assert rep.margin == 0.0

    def test_perturbed_source_nonnegative_margin(self):
        spec1, spec2 = linear_pair(g_shift=0.4)
        rep = ver.dependence_check(spec1, spec2,
                                   SolverConfig(tau=0.05, lambda_schedule=(0.0,)))
        assert rep.lhs > 0.0
        assert rep.margin >= 0.0

    def test_three_node_closed_form_propagator(self):
        # linear everything: the difference evolves by resolvent powers of the
        # dense operator pencil, computable independently with dense algebra
        alpha, b, delta, tau = 2.0, 1.0, 0.7, 0.05
        spec1, spec2 = linear_pair(alpha=alpha, beta_slope=b, delta=delta, n=2, T=0.5)
        ops = fem.assemble(spec1.mesh)
        cfg = SolverConfig(tau=tau, lambda_schedule=(0.0,), newton_tol=1e-14)
        rep = ver.dependence_check(spec1, spec2, cfg, ops=ops)

        m = np.diag(ops.mass)
        bmat = ops.stiffness.toarray() + b * np.diag(ops.boundary_mass)
        prop = np.linalg.solve(alpha * m + tau * bmat, alpha * m)
        e = np.full(3, -delta)
        sup_sq = float(e @ m @ e)
        grad_sq = 0.0
        n_steps = int(round(spec1.T / tau))
        for _ in range(n_steps):
            e = prop @ e
            sup_sq = max(sup_sq, float(e @ m @ e))
            grad_sq += tau * float(e @ ops.stiffness.toarray() @ e)
        lhs_closed = max(sup_sq, grad_sq)
        assert rep.lhs == pytest.approx(lhs_closed, abs=1e-8, rel=1e-8)
        assert rep.margin >= 0.0

    def test_randomized_margins(self, rng):
        for _ in range(5):
            alpha = float(rng.uniform(0.5, 2.0))
            spec1, spec2 = linear_pair(alpha=alpha,
                                       delta=float(rng.normal() * 0.3),
                                       g_shift=float(rng.normal() * 0.3))
            rep = ver.dependence_check(spec1, spec2,
                                       SolverConfig(tau=0.05, lambda_schedule=(0.0,)))
            assert rep.margin >= 0.0

    def test_nonlinear_gamma_rejected(self):
        mesh = fem.build_mesh_1d(1.0, 4, "right")
        spec1 = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 1.0),
                            beta=gr.Linear(1.0), g=None, h=None, u0=0.0, T=0.5)
        with pytest.raises(HypothesisViolation):
            ver.dependence_check(spec1, spec1, SolverConfig(tau=0.1, lambda_schedule=(0.0,)))

    def test_mesh_mismatch_rejected(self):
        spec1, _ = linear_pair(n=8)
        _, spec2 = linear_pair(n=16)
        with pytest.raises(HypothesisViolation):
            ver.dependence_check(spec1, spec2,
                                 SolverConfig(tau=0.1, lambda_schedule=(0.0,)))

    def test_mass_term_rejected(self):
        spec1, spec2 = linear_pair()
        cfg = SolverConfig(tau=0.1, lambda_schedule=(0.5,))
        with pytest.raises(HypothesisViolation):
            ver.dependence_check(spec1, spec2, cfg)


def _interior_gamma1_template():
    """rect(1, 1, 2, 2, lateral) with its centre node, off both lateral
    sides, labelled active."""
    mesh = fem.build_mesh_rect(1.0, 1.0, 2, 2, True)
    labels = mesh.boundary_labels.copy()
    labels[4] = fem.GAMMA1
    return ver.ProblemTemplate(mesh=replace(mesh, boundary_labels=labels), c0=1.0,
                               gamma=gr.Linear(1.0), beta=gr.Linear(1.0), T=0.5)


_LAM0 = SolverConfig(tau=0.1, lambda_schedule=(0.0,))


@pytest.mark.parametrize("call, error, message", [
    (lambda: ver.apriori_bounds(None, 1.0, gr.GraphConstants(), gr.GraphConstants(),
                                None, 1.0),
     ValidationError, "volume graph must declare bi-Lipschitz constants"),
    (lambda: ver.ManufacturedSolution("x", 3), ValidationError, "dimension must be 1 or 2"),
    (lambda: ver.manufactured_source(ver.ManufacturedSolution("x*y", 2),
                                     _interior_gamma1_template()),
     ValidationError, "active boundary node off the lateral sides; cannot orient the normal"),
    (lambda: ver.convergence_order(TestConvergenceOrder.make_template,
                                   ver.ManufacturedSolution("x", 1), "diagonal",
                                   [2, 4, 8], 8, _LAM0),
     InvalidArgument, "axis must be space or time"),
    (lambda: ver.dependence_check(linear_pair(alpha=2.0)[0], linear_pair(alpha=3.0)[1], _LAM0),
     HypothesisViolation, "both problems must share the volume graph"),
    (lambda: ver.dependence_check(linear_pair(T=0.5)[0], linear_pair(T=1.0)[1], _LAM0),
     HypothesisViolation, "both problems must share the time horizon"),
    (lambda: ver.dependence_check(*linear_pair(), replace(_LAM0, epsilon=0.5)),
     HypothesisViolation, "dependence check runs without truncation"),
    (lambda: ver.dependence_check(*linear_pair(), replace(_LAM0, smooth_u0_lambda=0.1)),
     HypothesisViolation, "dependence check compares raw initial data"),
    # exp(709.7) is a float and twice it is not: no OverflowError is raised
    (lambda: ver.dependence_check(*linear_pair(alpha=1.0, T=709.7), _LAM0),
     HypothesisViolation, "dependence constant overflows a float at T/alpha = 709.7"),
], ids=["apriori_gamma", "manufactured_dim", "manufactured_normal", "convergence_axis",
        "dependence_graph", "dependence_horizon", "dependence_epsilon", "dependence_smoothing",
        "dependence_constant_inf"])
def test_guards(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and str(exc.value) == message


class TestDualRate:
    def test_uniform_over_schedule(self, rng):
        spec = random_problem(rng, n_elems=12, T=0.4)
        ops = fem.assemble(spec.mesh)
        rates = []
        for lam in (0.5, 0.25, 0.125, 0.0625):
            cfg = SolverConfig(tau=0.05, lambda_schedule=(lam,))
            state = solve_transient(spec, cfg, ops=ops)
            rates.append(ver.dual_rate_l2(ver.energy_monitors(state, spec, ops)))
        assert max(rates) <= 2.0 * min(rates)

    def test_one_h1_factor_for_trace_and_monitors(self, rng, monkeypatch):
        # trace_constant's Lanczos iteration, run at every mesh size on the
        # standard-mode operator s (M + K)^-1 s, solves with the shared
        # factor of M + K and factorizes nothing of its own
        spec = random_problem_2d(rng, n=40, T=0.1)
        ops = fem.assemble(spec.mesh)
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.125,)),
                                ops=ops)
        factored = []
        arpack = sys.modules[spla.eigsh.__module__]
        for module, name in ((spla, "splu"), (spla, "factorized"), (arpack, "splu")):
            def spy(matrix, *args, real=getattr(module, name), **kwargs):
                factored.append(matrix.shape)
                return real(matrix, *args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        c_tr = fem.trace_constant(ops)
        report = ver.energy_monitors(state, spec, ops)
        assert factored == [(ops.n_nodes, ops.n_nodes)]
        assert c_tr > 0.0
        h1 = (sp.diags(ops.mass) + ops.stiffness).tocsc()
        dv = ops.mass * np.diff(state.v, axis=0) / state.tau
        direct = np.sqrt([f @ spla.spsolve(h1, f) for f in dv])
        assert np.allclose(report.dual_rate[1:], direct, rtol=1e-12, atol=0.0)


def reachable_sparse(*roots):
    """Every scipy.sparse matrix reachable from ``roots`` by references,
    not counting classes, modules and functions' globals."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if sp.issparse(obj):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


class TestStoredMatrices:
    """Lumping makes every operator a diagonal plus a multiple of K, so the
    stiffness matrix is the only sparse matrix kept between calls."""

    def test_only_the_stiffness_matrix_is_stored(self, rng, monkeypatch):
        solvers = []

        class Recorded(stepper._StepSolver):
            def __init__(self, *args):
                super().__init__(*args)
                solvers.append(self)

        monkeypatch.setattr(stepper, "_StepSolver", Recorded)
        for kind in ("newton", "picard"):
            spec = random_problem_2d(rng, n=6, T=0.1)
            ops = fem.assemble(spec.mesh)
            state = solve_transient(spec, SolverConfig(
                tau=0.05, lambda_schedule=(0.125,), solver_kind=kind,
                smooth_u0_lambda=0.01), ops=ops)
            report = ver.verify_solution(state, spec, ops)
            assert report.skip_reason is None
            assert "h1_factor" in vars(ops)
            assert "_picard_solve" in vars(solvers[-1])
            found = reachable_sparse(ops, solvers[-1])
            assert [id(m) for m in found] == [id(ops.stiffness)], kind

    def test_verify_solution_leaves_little_allocated(self, rng):
        # a cached h1 Gram matrix M + K left 0.25 MiB allocated here at
        # 48x48 (0.89 MiB at 96x96); the report and the h1 factor, which
        # SuperLU allocates outside the traced heap, leave 0.02 MiB
        spec = random_problem_2d(rng, n=48, T=0.1)
        ops = fem.assemble(spec.mesh)
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(0.125,)),
                                ops=ops)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = ver.verify_solution(state, spec, ops)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.skip_reason is None
        assert left < 0.05 * 2**20


def assert_close(actual, expected):
    """Agreement to 1e-12 relative to the series' largest entry."""
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected), initial=0.0)), 1e-300)
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


class TestWholeHistoryForms:
    """The monitors read the history as arrays; a plain loop over the time
    levels must give the same values."""

    def test_monitors_norms_and_envelope_match_per_level_loop(self, rng):
        spec = random_problem_2d(rng)
        ops = fem.assemble(spec.mesh)
        eps = 4.0
        state = solve_transient(spec, SolverConfig(
            tau=0.025, lambda_schedule=(0.125,), epsilon=eps), ops=ops)
        # the clamp at 1/eps binds on some levels but not everywhere
        assert np.any(np.abs(state.xi) == 1.0 / eps)
        assert np.any((state.xi != 0.0) & (np.abs(state.xi) < 1.0 / eps))
        rep = ver.energy_monitors(state, spec, ops)
        norms = ver.data_norms(spec, ops, state)

        m, k_mat, bm, tau = ops.mass, ops.stiffness.toarray(), ops.boundary_mass, state.tau
        h1_inv = np.linalg.inv(np.diag(m) + k_mat)
        ref = {name: [] for name in (
            "l2_u", "h1_sq_u", "grad_sq", "phi_star", "bhat_l1", "boundary_work",
            "boundary_flux_sq", "forcing_work", "h1_sq_v", "dual_rate",
            "step_slack")}
        g_l2l2_sq = m2_sq = 0.0
        g_linf = []
        g1 = spec.mesh.gamma1_nodes
        for k, t in enumerate(state.times):
            u, v, xi = state.u[k], state.v[k], state.xi[k]
            ref["l2_u"].append(math.sqrt(u @ (m * u)))
            ref["grad_sq"].append(u @ k_mat @ u)
            ref["h1_sq_u"].append(u @ (m * u) + u @ k_mat @ u)
            ref["phi_star"].append(m @ (v * u - spec.c0 * spec.gamma.potential(u)))
            ref["bhat_l1"].append(m @ gr.regularized_potential(spec.beta, 0.125, u))
            ref["boundary_work"].append(xi @ (bm[g1] * u[g1]))
            ref["boundary_flux_sq"].append(xi @ (bm[g1] * xi))
            ref["h1_sq_v"].append(v @ (m * v) + v @ k_mat @ v)
            if k == 0:
                for name in ("forcing_work", "dual_rate", "step_slack"):
                    ref[name].append(0.0)
                continue
            g, h = spec.g_at(t), spec.h_at(t)
            ref["forcing_work"].append(u @ (m * g) + u @ (bm * h))
            w = m * (v - state.v[k - 1]) / tau
            ref["dual_rate"].append(math.sqrt(w @ h1_inv @ w))
            ref["step_slack"].append(state.residuals[k - 1] * (1.0 + np.linalg.norm(u)))
            g_l2l2_sq += tau * (g @ (m * g))
            m2_sq += tau * (h @ (bm * h))
            g_linf.append(np.max(np.abs(g)))

        for name, series in ref.items():
            assert_close(getattr(rep, name), series)
        assert_close(rep.grad_sq_cum[1:], np.cumsum(tau * np.array(ref["grad_sq"][1:])))
        u0, v0 = state.u[0], state.v[0]
        assert_close(norms.m1, math.sqrt(v0 @ (m * v0)) * math.sqrt(u0 @ (m * u0)))
        assert_close(norms.g_l2l2_sq, g_l2l2_sq)
        assert_close(norms.m2_sq, m2_sq)
        assert_close(norms.g_linf_steps, g_linf)
        assert_close(norms.g_l1linf, tau * sum(g_linf))
        assert_close(norms.initial_bpot_l1, m @ spec.beta.potential(u0))
        assert (norms.n_steps, norms.T, norms.omega) == (
            state.n_steps, state.times[-1], ops.domain_measure)

    def test_dependence_matches_per_level_loop(self, rng):
        base = random_problem_2d(rng)
        spec1 = replace(base, gamma=gr.Linear(1.3), beta=gr.Linear(0.8))
        spec2 = replace(spec1, g=lambda t: 1.5 * base.g_at(t),
                        h=lambda t: 0.5 * base.h_at(t), u0=0.9 * base.u0)
        ops = fem.assemble(base.mesh)
        cfg = SolverConfig(tau=0.025, lambda_schedule=(0.0,))
        rep = ver.dependence_check(spec1, spec2, cfg, ops=ops)

        sol1 = solve_transient(spec1, cfg, ops=ops)
        sol2 = solve_transient(spec2, cfg, ops=ops)
        m, k_mat, bm, tau = ops.mass, ops.stiffness.toarray(), ops.boundary_mass, cfg.tau
        sup_sq = grad_sq = rhs_g = rhs_h = 0.0
        for k, t in enumerate(sol1.times):
            e = sol1.u[k] - sol2.u[k]
            sup_sq = max(sup_sq, e @ (m * e))
            if k == 0:
                continue
            grad_sq += tau * (e @ k_mat @ e)
            dg = spec1.g_at(t) - spec2.g_at(t)
            dh = spec1.h_at(t) - spec2.h_at(t)
            rhs_g += tau * (dg @ (m * dg))
            rhs_h += tau * (dh @ (bm * dh))
        e0 = sol1.u[0] - sol2.u[0]
        rhs_initial = 0.5 * spec1.c0 * 1.3 * (e0 @ (m * e0))
        assert_close(rep.sup_sq_l2, sup_sq)
        assert_close(rep.grad_sq_l2l2, grad_sq)
        assert_close(rep.lhs, max(sup_sq, grad_sq))
        assert_close(rep.rhs_initial, rhs_initial)
        assert_close(rep.rhs_g, rhs_g)
        assert_close(rep.rhs_h, rhs_h)
        assert_close(rep.rhs, rhs_initial + rhs_g + fem.trace_constant(ops) ** 2 * rhs_h)
        assert rep.rhs_g > 0.0 and rep.rhs_h > 0.0 and rep.rhs_initial > 0.0
