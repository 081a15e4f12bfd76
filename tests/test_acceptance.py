"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured quantities.  Tolerances are fixed here,
not tuned at runtime."""

import time

import numpy as np

from monoheat import fem, graphs as gr
from monoheat import verification as ver
from monoheat.stepper import (
    ProblemSpec,
    SolverConfig,
    lambda_continuation,
    solve_transient,
    space_time_l2,
)
from conftest import (cross_validation_steps, random_beta, random_problem, random_problem_2d,
                      smooth_nodal)


def _report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# -- 1. graph calculus suite -------------------------------------------------

def test_criterion_1_graph_calculus_suite():
    lams = [1.0, 0.5, 0.25, 0.125]
    xs = np.linspace(-3.0, 3.0, 25)
    t0 = time.perf_counter()
    failures = []
    for graph in gr.builtin_graphs():
        rep = gr.graph_property_suite(graph, lams, xs)
        failures.extend(rep.failures())
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _report("1 graph calculus", ok,
            f"5 graphs x 4 lambdas x 25 points, {len(failures)} failures, "
            f"{elapsed:.2f}s < 5s")


# -- 2. manufactured-solution convergence ------------------------------------

def test_criterion_2_convergence_orders():
    t0 = time.perf_counter()
    cfg = SolverConfig(tau=0.1, lambda_schedule=(0.0,))

    def template_1d(n):
        return ver.ProblemTemplate(mesh=fem.build_mesh_1d(1.0, n, "right"),
                                   c0=1.0, gamma=gr.Linear(2.0),
                                   beta=gr.Linear(1.0), T=0.5)

    def template_2d(n):
        return ver.ProblemTemplate(mesh=fem.build_mesh_rect(1.0, 1.0, n, n, True),
                                   c0=1.0, gamma=gr.Linear(2.0),
                                   beta=gr.Linear(1.0), T=0.5)

    space_1d = ver.convergence_order(
        template_1d, ver.ManufacturedSolution("(1 + t/2)*cos(pi*x/2)", 1),
        "space", [32, 64, 128], fine=32, config=cfg)
    time_1d = ver.convergence_order(
        template_1d, ver.ManufacturedSolution("exp(-t)*cos(pi*x/2)", 1),
        "time", [8, 16, 32], fine=256, config=cfg)
    space_2d = ver.convergence_order(
        template_2d, ver.ManufacturedSolution("(1 + t/2)*cos(pi*x/2)*cos(pi*y)", 2),
        "space", [16, 32, 64], fine=16, config=cfg)
    time_2d = ver.convergence_order(
        template_2d, ver.ManufacturedSolution("exp(-2*t)*cos(pi*x/2)*cos(pi*y)", 2),
        "time", [4, 8, 16], fine=64, config=cfg)

    # nonlinear rows: saturating gamma and a nonlinear boundary, so the
    # sources go through gamma' and the boundary graph
    gamma = gr.SaturatingBiLipschitz(1.0, 1.0)
    nonlinear = {}
    for name, beta in (("composite", gr.CompositeSum([gr.Linear(1.0), gr.Power(4.0)])),
                       ("physical", gr.PhysicalBeta(1.0, 1.0, inner=gamma))):
        def template(n, beta=beta):
            return ver.ProblemTemplate(mesh=fem.build_mesh_rect(1.0, 1.0, n, n, True),
                                       c0=1.0, gamma=gamma, beta=beta, T=0.5)

        nonlinear[f"2d_{name}_space"] = ver.convergence_order(
            template, ver.ManufacturedSolution("(1 + t/2)*cos(pi*x/2)*cos(pi*y)", 2),
            "space", [8, 16, 32], fine=128, config=cfg)["order"]
        nonlinear[f"2d_{name}_time"] = ver.convergence_order(
            template, ver.ManufacturedSolution("exp(-2*t)*cos(pi*x/2)*cos(pi*y)", 2),
            "time", [4, 8, 16], fine=32, config=cfg)["order"]
    elapsed = time.perf_counter() - t0

    orders = {"1d_space": space_1d["order"], "1d_time": time_1d["order"],
              "2d_space": space_2d["order"], "2d_time": time_2d["order"]}
    ok = (1.9 <= orders["1d_space"] <= 2.1 and 1.9 <= orders["2d_space"] <= 2.1
          and 0.9 <= orders["1d_time"] <= 1.1 and 0.9 <= orders["2d_time"] <= 1.1
          and elapsed < 120.0)
    ok = ok and all(1.9 <= v <= 2.1 if k.endswith("space") else 0.9 <= v <= 1.1
                    for k, v in nonlinear.items())
    orders.update(nonlinear)
    detail = ", ".join(f"{k}={v:.3f}" for k, v in orders.items())
    _report("2 convergence orders", ok, f"{detail}, {elapsed:.1f}s < 120s")


# -- 3. lambda continuation ---------------------------------------------------

def test_criterion_3_lambda_continuation():
    t0 = time.perf_counter()
    mesh = fem.build_mesh_1d(1.0, 64, "right")
    beta = gr.PhysicalBeta(1.0, 1.0)
    spec = ProblemSpec(mesh=mesh, c0=12.0, gamma=gr.SaturatingBiLipschitz(2.0, 1.0),
                       beta=beta, g=0.4, h=float(beta.value(0.6)), u0=0.2, T=0.0625)
    cfg = SolverConfig(tau=1.0 / 128.0,
                       lambda_schedule=tuple(2.0 ** -k for k in range(1, 7)),
                       newton_tol=1e-13)
    ops = fem.assemble(mesh)
    runs = lambda_continuation(spec, cfg, ops=ops)
    diffs = [r[2] for r in runs[1:]]
    u_norm = space_time_l2(ops, cfg.tau, runs[-1][1].u)
    elapsed = time.perf_counter() - t0
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    ok = decreasing and diffs[-1] < 1e-4 * u_norm and elapsed < 60.0
    _report("3 lambda continuation", ok,
            f"increments {['%.2e' % d for d in diffs]}, final/|u|="
            f"{diffs[-1] / u_norm:.2e} < 1e-4, {elapsed:.1f}s < 60s")


# -- 4. a-priori bound monitors ----------------------------------------------

def test_criterion_4_apriori_bounds():
    rng = np.random.default_rng(404)
    specs = [random_problem(rng, n_elems=16, T=0.5) for _ in range(10)]
    specs += [random_problem_2d(rng, n=8, T=0.5) for _ in range(4)]
    cfg = SolverConfig(tau=0.025, lambda_schedule=(0.125,), newton_tol=1e-13)
    violations, skipped, checks = 0, 0, []
    for spec in specs:
        state = solve_transient(spec, cfg)
        rep = ver.verify_solution(state, spec, fem.assemble(spec.mesh))
        # a skipped chain has no checks, so it must not count as passing
        skipped += rep.skip_reason is not None or not rep.bound_checks
        violations += sum(not c.passed for c in rep.bound_checks)
        checks.append(len(rep.bound_checks))
    _report("4 a-priori bounds", violations == 0 and skipped == 0,
            f"10 interval + 4 rect randomized data sets, {skipped} skipped, "
            f"{violations} violations, checks per case {checks}")


# -- 5. continuous dependence ------------------------------------------------

def test_criterion_5_continuous_dependence():
    rng = np.random.default_rng(505)
    margins = []
    for case in range(20):
        alpha = float(rng.uniform(0.5, 2.0))
        mesh = fem.build_mesh_1d(1.0, int(rng.integers(6, 14)), "right")
        gamma = gr.Linear(alpha)
        beta = random_beta(rng, gamma)
        common = dict(mesh=mesh, c0=1.0, gamma=gamma, beta=beta, T=0.5)
        spec1 = ProblemSpec(g=smooth_nodal(mesh, rng), h=smooth_nodal(mesh, rng),
                            u0=smooth_nodal(mesh, rng), **common)
        spec2 = ProblemSpec(g=smooth_nodal(mesh, rng), h=smooth_nodal(mesh, rng),
                            u0=smooth_nodal(mesh, rng), **common)
        cfg = SolverConfig(tau=0.025, lambda_schedule=(0.0,), newton_tol=1e-13)
        rep = ver.dependence_check(spec1, spec2, cfg)
        margins.append(rep.margin)

    # closed-form cross-check on the 3-node linear problem
    alpha, b_slope, delta, tau = 2.0, 1.0, 0.7, 0.05
    mesh3 = fem.build_mesh_1d(1.0, 2, "right")
    common = dict(mesh=mesh3, c0=1.0, gamma=gr.Linear(alpha),
                  beta=gr.Linear(b_slope), T=0.5)
    spec1 = ProblemSpec(g=0.3, h=0.1, u0=0.5, **common)
    spec2 = ProblemSpec(g=0.3, h=0.1, u0=0.5 + delta, **common)
    ops = fem.assemble(mesh3)
    rep = ver.dependence_check(
        spec1, spec2, SolverConfig(tau=tau, lambda_schedule=(0.0,), newton_tol=1e-14),
        ops=ops)
    m = np.diag(ops.mass)
    bmat = ops.stiffness.toarray() + b_slope * np.diag(ops.boundary_mass)
    prop = np.linalg.solve(alpha * m + tau * bmat, alpha * m)
    e = np.full(3, -delta)
    sup_sq, grad_sq = float(e @ m @ e), 0.0
    for _ in range(int(round(0.5 / tau))):
        e = prop @ e
        sup_sq = max(sup_sq, float(e @ m @ e))
        grad_sq += tau * float(e @ ops.stiffness.toarray() @ e)
    closed_err = abs(rep.lhs - max(sup_sq, grad_sq))

    ok = all(mg >= 0.0 for mg in margins) and closed_err < 1e-8 and rep.margin >= 0.0
    _report("5 continuous dependence", ok,
            f"20 margins all >= 0 (min {min(margins):.3e}), "
            f"3-node closed-form gap {closed_err:.1e} < 1e-8")


# -- 6. structural conservation ----------------------------------------------

def test_criterion_6_conservation_and_dissipation():
    mesh = fem.build_mesh_1d(1.0, 16, "none")
    u0 = np.sin(np.linspace(0.0, 3.0, mesh.n_nodes))
    spec = ProblemSpec(mesh=mesh, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 0.5),
                       beta=gr.Linear(1.0), g=None, h=None, u0=u0, T=1.0)
    cfg = SolverConfig(tau=0.05, lambda_schedule=(0.0,), newton_tol=1e-14)
    state = solve_transient(spec, cfg)
    ops = fem.assemble(mesh)
    totals = state.v @ ops.mass
    drift = float(np.abs(totals - totals[0]).max())

    mesh_b = fem.build_mesh_1d(1.0, 16, "right")
    spec_b = ProblemSpec(mesh=mesh_b, c0=1.0, gamma=gr.SaturatingBiLipschitz(1.0, 0.5),
                         beta=gr.PhysicalBeta(1.0, 1.0), g=None, h=None,
                         u0=smooth_nodal(mesh_b, np.random.default_rng(6)), T=1.0)
    state_b = solve_transient(spec_b, SolverConfig(tau=0.05, lambda_schedule=(0.0,),
                                                   newton_tol=1e-14))
    rep = ver.energy_monitors(state_b, spec_b, fem.assemble(mesh_b))
    worst_rise = float(np.max(np.diff(rep.phi_star)))
    scale = max(1.0, float(rep.phi_star[0]))

    ok = drift <= 1e-12 and worst_rise <= 1e-11 * scale
    _report("6 conservation and dissipation", ok,
            f"mass drift {drift:.2e} <= 1e-12, "
            f"worst conjugate-energy rise {worst_rise:.2e}")


# -- 7. solver cross-validation ----------------------------------------------

def test_criterion_7_solver_cross_validation():
    worst_gap = 0.0
    beta_kinds = set()
    for solver, b in cross_validation_steps():
        beta_kinds.add(type(solver.spec.beta).__name__)
        u_p, _, _ = solver.picard(solver.spec.u0, b)
        u_n, _, _ = solver.newton(solver.spec.u0, b)
        worst_gap = max(worst_gap, float(np.abs(u_p - u_n).max()))

    rng2 = np.random.default_rng(708)
    spec = random_problem(rng2, n_elems=12, T=0.4)
    ops = fem.assemble(spec.mesh)
    rates = []
    for lam in (0.5, 0.25, 0.125, 0.0625):
        state = solve_transient(spec, SolverConfig(tau=0.05, lambda_schedule=(lam,)),
                                ops=ops)
        rates.append(ver.dual_rate_l2(ver.energy_monitors(state, spec, ops)))
    spread = max(rates) / min(rates)

    ok = worst_gap < 1e-10 and spread <= 2.0 and len(beta_kinds) >= 5
    _report("7 solver cross-validation", ok,
            f"50 random steps, worst gap {worst_gap:.2e} < 1e-10 over "
            f"{sorted(beta_kinds)}; dual-rate spread {spread:.3f} <= 2")
