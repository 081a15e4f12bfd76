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
