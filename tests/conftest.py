import numpy as np
import pytest

from monoheat import fem, graphs as gr, stepper
from monoheat.stepper import ProblemSpec


def smooth_nodal(mesh, rng, amp=1.0):
    """Random smooth field with sup norm at most amp (a few cosine modes)."""
    x = mesh.nodes if mesh.dim == 1 else mesh.nodes[:, 0] + mesh.nodes[:, 1]
    out = np.zeros(mesh.n_nodes)
    for k in range(1, 4):
        out += rng.normal() * np.cos(k * np.pi * x / (np.max(x) - np.min(x) + 1e-30))
    peak = float(np.abs(out).max())
    return out * (amp / max(peak, 1.0))


def random_gamma(rng):
    # slope ratio capped at 1.5 so declared growth constants stay moderate
    alpha = float(rng.uniform(0.7, 2.0))
    if rng.random() < 0.5:
        return gr.Linear(alpha)
    return gr.SaturatingBiLipschitz(alpha, alpha * float(rng.uniform(0.1, 0.5)))


def random_beta(rng, gamma):
    pick = rng.integers(0, 4)
    if pick == 0:
        return gr.Linear(float(rng.uniform(0.5, 2.0)))
    if pick == 1:
        return gr.SaturatingBiLipschitz(float(rng.uniform(0.5, 2.0)),
                                        float(rng.uniform(0.1, 1.0)))
    if pick == 2:
        return gr.PhysicalBeta(float(rng.uniform(0.2, 1.0)),
                               float(rng.uniform(0.1, 0.5)), inner=gamma)
    return gr.Power(3.0)


def random_problem(rng, n_elems=16, T=0.5, gamma1_side="right", amp=0.6):
    """Random smooth data on an interval mesh, bi-Lipschitz volume graph."""
    mesh = fem.build_mesh_1d(1.0, n_elems, gamma1_side)
    gamma = random_gamma(rng)
    return _random_data(rng, mesh, gamma, random_beta(rng, gamma), T, amp)


def random_problem_2d(rng, n=8, T=0.5, amp=0.6):
    """Random smooth data on rect(1, 1, n, n, lateral): saturating volume
    graph and the radiative boundary law around it."""
    mesh = fem.build_mesh_rect(1.0, 1.0, n, n, True)
    alpha = float(rng.uniform(0.7, 2.0))
    gamma = gr.SaturatingBiLipschitz(alpha, alpha * float(rng.uniform(0.1, 0.5)))
    beta = gr.PhysicalBeta(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.1, 0.5)),
                           inner=gamma)
    return _random_data(rng, mesh, gamma, beta, T, amp)


def _random_data(rng, mesh, gamma, beta, T, amp):
    g_amp = float(rng.uniform(0.1, amp))
    omega = float(rng.uniform(0.5, 2.0))
    g_shape = smooth_nodal(mesh, rng, amp=g_amp)
    h_level = smooth_nodal(mesh, rng, amp=amp)

    def g_fn(t, shape=g_shape, w=omega):
        return shape * np.cos(w * t)

    def h_fn(t, lvl=h_level, w=omega):
        return lvl * (1.0 + 0.5 * np.sin(w * t))

    u0 = smooth_nodal(mesh, rng, amp=amp)
    return ProblemSpec(mesh=mesh, c0=float(rng.uniform(0.8, 1.5)), gamma=gamma,
                       beta=beta, g=g_fn, h=h_fn, u0=u0, T=T)


def cross_validation_steps():
    """Acceptance criterion 7's 50 random first steps, ``(solver, b)`` each:
    1-D meshes, a random volume graph, every kind of boundary graph (a jump
    included), lam in {0.5, 0.25, 0.125}, the clamp on or off, and both
    tolerances 1e-12.  Every call draws the same cases."""
    rng = np.random.default_rng(707)
    for _ in range(50):
        n = int(rng.integers(4, 13))
        mesh = fem.build_mesh_1d(1.0, n, str(rng.choice(["right", "both"])))
        gamma = random_gamma(rng)
        pick = int(rng.integers(0, 6))
        if pick == 0:
            beta = gr.Linear(float(rng.uniform(0.5, 2.0)))
        elif pick == 1:
            beta = gr.SaturatingBiLipschitz(1.0, float(rng.uniform(0.2, 1.0)))
        elif pick == 2:
            beta = gr.PhysicalBeta(1.0, float(rng.uniform(0.2, 1.0)), inner=gamma)
        elif pick == 3:
            beta = gr.Power(3.0)
        elif pick == 4:
            beta = gr.Sign()
        else:
            beta = gr.CompositeSum([gr.Linear(1.0), gr.Sign()])
        spec = ProblemSpec(mesh=mesh, c0=float(rng.uniform(0.8, 1.5)), gamma=gamma,
                           beta=beta, g=smooth_nodal(mesh, rng),
                           h=smooth_nodal(mesh, rng), u0=smooth_nodal(mesh, rng),
                           T=1.0)
        lam = float(rng.choice([0.5, 0.25, 0.125]))
        eps = float(rng.choice([0.0, 0.7]))
        tau = float(rng.uniform(0.01, 0.04))
        cfg = stepper.SolverConfig(tau=tau, lambda_schedule=(lam,), epsilon=eps,
                                   picard_tol=1e-12, newton_tol=1e-12, max_iters=800)
        solver = stepper._StepSolver(spec, fem.assemble(mesh), cfg, lam, cfg.epsilon)
        yield solver, solver.rhs(spec.v_of(spec.u0), tau)


def factored_matrices(monkeypatch):
    """Record every matrix handed to ``fem.spd_factor`` from now on: the
    matrices it serves are formed only inside the call that factorizes
    them."""
    factored = []

    def spy(a, real=fem.spd_factor):
        factored.append(a)
        return real(a)

    monkeypatch.setattr(fem, "spd_factor", spy)
    monkeypatch.setattr(stepper, "spd_factor", spy)
    return factored


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
