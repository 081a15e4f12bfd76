"""Backward Euler marching for the doubly nonlinear flow.

Each step solves the lumped nodal system

    M*c0*gamma(U) + tau*K*U + tau*lam*M*U + tau*Mb*beta_reg(U)
        = M*v_prev + tau*M*g + tau*Mb*h

where ``beta_reg`` is the Yosida approximation of the boundary graph at
the working regularization parameter (optionally hard-clamped), and the
``lam``-mass term is the coercivity correction carried by the regularized
operator.  The primary unknown relation ``v = c0*gamma(u)`` is enforced
exactly at the nodes after every accepted step.

``beta_reg`` and its slope are evaluated on the active boundary nodes
(Gamma1) only, the support of ``Mb``, and scattered into the nodal vector;
the stored boundary selection ``xi`` holds the Gamma1 columns only.

Two per-step solvers are provided: a damped fixed-point sweep
``U <- U - theta * P^{-1} r(U)``, where ``r`` is the step residual and
``P`` the SPD Picard matrix (a constant slope in place of ``gamma'``, no
boundary term) factorized once, so each sweep costs one residual and one
triangular solve; and a semismooth Newton iteration.  They satisfy the
same residual contract and are cross-checked in the tests.

Newton factorizes nothing per iteration: its SPD Jacobian differs from
``P`` only by a bounded volume slope and a Gamma1 term, so it is solved by
conjugate gradients preconditioned with the one factor of ``P``, to the
Eisenstat-Walker relative tolerance (choice 2).  Only a constant Jacobian
(linear ``gamma`` and ``beta``) is factorized itself, once per solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import graphs as gr
from .errors import (
    InvalidArgument,
    LinearSolveFailure,
    NonConvergence,
    SingularJacobian,
    SolverDisagreement,
    ValidationError,
)
from .fem import AssembledOperators, Mesh, assemble

FieldLike = Union[None, float, np.ndarray, Callable[[float], np.ndarray]]


def _as_time_field(data: FieldLike, n_nodes: int, name: str) -> Callable[[float], np.ndarray]:
    """Normalize a data field to a callable of time returning a nodal vector."""
    if data is None:
        zero = np.zeros(n_nodes)
        return lambda t: zero
    if np.isscalar(data):
        const = np.full(n_nodes, float(data))
        return lambda t: const
    if isinstance(data, np.ndarray):
        if data.shape != (n_nodes,):
            raise ValidationError(f"{name} has shape {data.shape}, expected ({n_nodes},)")
        arr = data.astype(float)
        return lambda t: arr
    if callable(data):
        return data
    raise ValidationError(f"{name} must be a scalar, nodal array or callable of time")


def check_volume_graph(gamma: gr.ScalarGraph) -> None:
    """Raise ``ValidationError`` unless ``gamma`` declares bi-Lipschitz
    constants that pass ``audit_constants``: the volume-graph hypothesis."""
    if not gamma.constants().bi_lipschitz:
        raise ValidationError(f"gamma must declare bi-Lipschitz constants, got {gamma.label}")
    gr.audit_constants(gamma)


@dataclass
class ProblemSpec:
    """Full problem data set for one transient run."""

    mesh: Mesh
    c0: float
    gamma: gr.ScalarGraph
    beta: gr.ScalarGraph
    g: FieldLike
    h: FieldLike
    u0: Union[float, np.ndarray]
    T: float

    def __post_init__(self):
        if not self.c0 > 0.0:
            raise ValidationError("c0 must be positive", key="c0")
        if not self.T > 0.0:
            raise ValidationError("final time must be positive", key="T")
        check_volume_graph(self.gamma)
        n = self.mesh.n_nodes
        if np.isscalar(self.u0):
            self.u0 = np.full(n, float(self.u0))
        else:
            self.u0 = np.asarray(self.u0, dtype=float)
            if self.u0.shape != (n,):
                raise ValidationError(f"u0 has shape {self.u0.shape}, expected ({n},)", key="u0")
        if not np.all(np.isfinite(self.gamma.value(self.u0))):
            raise ValidationError("gamma(u0) is not finite everywhere", key="u0")
        if not np.all(np.isfinite(np.asarray(self.beta.potential(self.u0)))):
            raise ValidationError("boundary potential of u0 is not summable", key="u0")
        self._g_fn = _as_time_field(self.g, n, "g")
        self._h_fn = _as_time_field(self.h, n, "h")

    def g_at(self, t: float) -> np.ndarray:
        return np.asarray(self._g_fn(t), dtype=float)

    def h_at(self, t: float) -> np.ndarray:
        return np.asarray(self._h_fn(t), dtype=float)

    def v_of(self, u: np.ndarray) -> np.ndarray:
        return self.c0 * np.asarray(self.gamma.value(u), dtype=float)


@dataclass(frozen=True)
class SolverConfig:
    """Time step, regularization schedule and iteration controls."""

    tau: float
    lambda_schedule: tuple = (0.0,)
    epsilon: float = 0.0
    picard_damping: float = 0.5
    picard_tol: float = 1e-10
    newton_tol: float = 1e-12
    max_iters: int = 200
    solver_kind: str = "newton"
    smooth_u0_lambda: float = 0.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValidationError("tau must be positive")
        sched = tuple(float(l) for l in self.lambda_schedule)
        if not sched:
            raise ValidationError("lambda schedule must be nonempty")
        if any(l < 0.0 for l in sched):
            raise ValidationError("lambda values must be nonnegative")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValidationError("lambda schedule must be strictly decreasing")
        object.__setattr__(self, "lambda_schedule", sched)
        if not 0.0 < self.picard_damping <= 1.0:
            raise ValidationError("picard damping must lie in (0, 1]")
        if not (self.picard_tol > 0.0 and self.newton_tol > 0.0):
            raise ValidationError("tolerances must be positive")
        if self.epsilon < 0.0:
            raise ValidationError("epsilon must be nonnegative")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if self.solver_kind not in ("picard", "newton", "both"):
            raise ValidationError("solver_kind must be picard, newton or both")
        if self.smooth_u0_lambda < 0.0:
            raise ValidationError("smoothing parameter must be nonnegative")

    def n_steps(self, T: float) -> int:
        n = int(round(T / self.tau))
        if n < 1 or abs(n * self.tau - T) > 1e-8 * max(1.0, T):
            raise ValidationError("tau must divide the final time")
        return n


@dataclass
class SolutionState:
    """Time history of one transient solve."""

    times: np.ndarray          # (K+1,)
    u: np.ndarray              # (K+1, n)
    v: np.ndarray              # (K+1, n)
    xi: np.ndarray             # (K+1, |Gamma1|), on mesh.gamma1_nodes
    lam: float
    tau: float
    iterations: np.ndarray     # per accepted step
    residuals: np.ndarray      # final residual per accepted step
    disagreement: float = 0.0  # picard/newton gap when cross-checked

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1


def smooth_initial(mesh: Mesh, ops: AssembledOperators, u0: np.ndarray,
                   lam: float) -> np.ndarray:
    """Elliptic mollification of the initial field: (M + lam*K) U = M u0.

    Constants are preserved exactly, the lumped l2 norm never grows, and
    the smoothed field converges back to u0 as lam goes to zero.
    """
    if not lam > 0.0:
        raise InvalidArgument("smoothing parameter must be positive")
    u0 = np.asarray(u0, dtype=float)
    a = (sp.diags(ops.mass) + lam * ops.stiffness).tocsc()
    try:
        out = spla.factorized(a)(ops.mass * u0)
    except RuntimeError as exc:  # pragma: no cover - assembly corruption guard
        raise LinearSolveFailure(f"smoothing solve failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise LinearSolveFailure("smoothing solve produced non-finite values")
    return out


class _StepSolver:
    """Per-step nonlinear solver bound to one (spec, ops, config, lam, eps)."""

    def __init__(self, spec: ProblemSpec, ops: AssembledOperators,
                 config: SolverConfig, lam: float, eps: float):
        self.spec = spec
        self.ops = ops
        self.config = config
        self.lam = float(lam)
        self.eps = float(eps)
        self.tau = config.tau
        self.mass = ops.mass
        self.bmass = ops.boundary_mass
        # Mb is supported on the Gamma1 nodes, so beta_reg is needed only there
        self.g1 = spec.mesh.gamma1_nodes
        self.tau_bmass_g1 = self.tau * self.bmass[self.g1]
        self.k_tau = (config.tau * ops.stiffness).tocsr()
        self.lam_mass = self.lam > 0.0

        consts = spec.gamma.constants()
        # SPD proxy slope for the volume nonlinearity; equals the exact slope
        # for a linear gamma, so the sweep then lags only the boundary term
        self.split_slope = 0.5 * (consts.lipschitz_lower + consts.lipschitz_upper)
        diag = spec.c0 * self.split_slope * self.mass
        if self.lam_mass:
            diag = diag + self.tau * self.lam * self.mass
        # P u - r(u) = b - M c0 (gamma(u) - split_slope u) - tau Mb beta_reg(u)
        self._picard_matrix = (sp.diags(diag) + self.k_tau).tocsc()

        cd_gamma = spec.gamma.constant_derivative()
        cd_beta = None
        if eps == 0.0:
            base_cd = spec.beta.constant_derivative()
            if base_cd is not None:
                cd_beta = base_cd / (1.0 + self.lam * base_cd) if self.lam > 0.0 else base_cd
        self._const_jacobian_solve = None
        if cd_gamma is not None and cd_beta is not None:
            diag = self._jacobian_diagonal(np.full(ops.n_nodes, cd_gamma), cd_beta)
            self._const_jacobian_solve = spla.factorized((sp.diags(diag) + self.k_tau).tocsc())

    @cached_property
    def _picard_solve(self):
        """``P^{-1}``: the Picard sweep's step and Newton's preconditioner,
        factorized on first use and shared by both."""
        return spla.factorized(self._picard_matrix)

    # -- building blocks ----------------------------------------------------

    def beta_reg(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(
            gr.regularized_value(self.spec.beta, self.lam, self.eps, u), dtype=float)

    def beta_reg_deriv(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(
            gr.regularized_derivative(self.spec.beta, self.lam, self.eps, u), dtype=float)

    def rhs(self, v_prev: np.ndarray, t_next: float) -> np.ndarray:
        b = (self.mass * v_prev
             + self.tau * self.mass * self.spec.g_at(t_next)
             + self.tau * self.bmass * self.spec.h_at(t_next))
        # the residual test tol*(1 + |b|) would pass anything for an infinite b
        if not np.all(np.isfinite(b)):
            raise ValidationError(f"step right-hand side at t = {t_next:g} is not finite "
                                  "(data g or h)")
        return b

    def boundary_term(self, u: np.ndarray) -> np.ndarray:
        """``tau*Mb*beta_reg(u)`` as a nodal vector, zero off Gamma1."""
        out = np.zeros_like(u)
        out[self.g1] = self.tau_bmass_g1 * self.beta_reg(u[self.g1])
        return out

    def residual(self, u: np.ndarray, b: np.ndarray) -> np.ndarray:
        spec = self.spec
        r = (self.mass * (spec.c0 * np.asarray(spec.gamma.value(u), dtype=float))
             + self.k_tau @ u
             + self.boundary_term(u)
             - b)
        if self.lam_mass:
            r = r + self.tau * self.lam * self.mass * u
        return r

    def _jacobian_diagonal(self, gamma_deriv, beta_deriv_g1):
        """Diagonal ``d`` of the SPD Jacobian ``diag(d) + tau*K``;
        ``beta_deriv_g1`` is the boundary slope on Gamma1."""
        diag = self.spec.c0 * self.mass * gamma_deriv
        diag[self.g1] += self.tau_bmass_g1 * beta_deriv_g1
        if self.lam_mass:
            diag = diag + self.tau * self.lam * self.mass
        return diag

    def _jacobian_cg(self, diag, rhs, rtol):
        """Solve ``(diag(diag) + tau*K) x = rhs`` to ``rtol`` relative to
        ``|rhs|`` by CG, preconditioned with the Picard factor."""
        n = rhs.shape[0]
        jac = spla.LinearOperator((n, n), matvec=lambda p: self.k_tau @ p + diag * p,
                                  dtype=float)
        precond = spla.LinearOperator((n, n), matvec=self._picard_solve, dtype=float)
        x, info = spla.cg(jac, rhs, rtol=rtol, atol=0.0, M=precond)
        if info != 0 or not np.all(np.isfinite(x)):
            raise LinearSolveFailure(
                f"Newton's conjugate gradient solve failed (info {info}, "
                f"relative tolerance {rtol:.1e})")
        return x

    # -- solvers --------------------------------------------------------------

    def picard(self, u_init: np.ndarray, b: np.ndarray):
        """Damped fixed-point sweeps ``u <- u - theta P^{-1} r(u)``; the
        residual of the convergence test drives the next sweep."""
        theta = self.config.picard_damping
        tol = self.config.picard_tol * (1.0 + np.linalg.norm(b))
        u = u_init.copy()
        r = self.residual(u, b)
        history = self.last_residual_history = []
        for it in range(1, self.config.max_iters + 1):
            u = u - theta * self._picard_solve(r)
            r = self.residual(u, b)
            res = float(np.linalg.norm(r))
            history.append(res)
            if not math.isfinite(res):
                raise NonConvergence("fixed-point sweep diverged", history)
            if res <= tol:
                return u, it, res
        raise NonConvergence(
            f"fixed-point sweeps did not reach tolerance in {self.config.max_iters} "
            "iterations (time step or damping too large)", history)

    def newton(self, u_init: np.ndarray, b: np.ndarray):
        """Semismooth Newton with backtracking; the Jacobian is SPD.  Its
        linear solves are inexact, with Eisenstat-Walker forcing terms."""
        spec = self.spec
        tol = self.config.newton_tol * (1.0 + np.linalg.norm(b))
        u = u_init.copy()
        r = self.residual(u, b)
        res = float(np.linalg.norm(r))
        history = self.last_residual_history = [res]
        if res <= tol:
            return u, 0, res
        eta = 0.1
        for it in range(1, self.config.max_iters + 1):
            if self._const_jacobian_solve is not None:
                delta = self._const_jacobian_solve(-r)
            else:
                gamma_d = np.asarray(spec.gamma.derivative(u), dtype=float)
                if not np.all(np.isfinite(gamma_d)) or np.any(gamma_d <= 0.0):
                    raise SingularJacobian(
                        "gamma derivative not positive; graph mis-declared as bi-Lipschitz")
                diag = self._jacobian_diagonal(gamma_d, self.beta_reg_deriv(u[self.g1]))
                delta = self._jacobian_cg(diag, -r, eta)
            step = 1.0
            for _ in range(40):
                u_try = u + step * delta
                r_try = self.residual(u_try, b)
                res_try = float(np.linalg.norm(r_try))
                if math.isfinite(res_try) and res_try <= (1.0 - 1e-4 * step) * res:
                    break
                step *= 0.5
            else:
                raise NonConvergence("Newton backtracking stalled", history)
            eta = min(0.1, max(0.9 * (res_try / res) ** 2, 1e-10))
            u, r, res = u_try, r_try, res_try
            history.append(res)
            if res <= tol:
                return u, it, res
        raise NonConvergence(
            f"Newton did not reach tolerance in {self.config.max_iters} iterations",
            history)

    def advance(self, u_prev: np.ndarray, v_prev: np.ndarray, t_next: float):
        b = self.rhs(v_prev, t_next)
        kind = self.config.solver_kind
        if kind == "picard":
            return self.picard(u_prev, b) + (0.0,)
        if kind == "newton":
            return self.newton(u_prev, b) + (0.0,)
        u_p, it_p, _ = self.picard(u_prev, b)
        u_n, it_n, res_n = self.newton(u_prev, b)
        gap = float(np.linalg.norm(u_p - u_n))
        # the mean-value Jacobian dominates c0*c_low*diag(mass), which bounds
        # how far two residual-accepted answers can sit apart
        sigma_floor = (self.spec.c0 * self.spec.gamma.constants().lipschitz_lower
                       * float(np.min(self.mass)))
        allowed = 10.0 * max(self.config.picard_tol, self.config.newton_tol) \
            * (1.0 + float(np.linalg.norm(b))) / min(sigma_floor, 1.0)
        if gap > allowed:
            raise SolverDisagreement(
                f"fixed-point and Newton answers differ by {gap:.3e} (allowed {allowed:.3e})")
        return u_n, max(it_p, it_n), res_n, gap


def solve_transient(spec: ProblemSpec, config: SolverConfig,
                    ops: Optional[AssembledOperators] = None,
                    lam: Optional[float] = None) -> SolutionState:
    """March the full time interval at one regularization parameter.

    ``lam`` defaults to the smallest entry of the schedule.  The state
    stores u, v = c0*gamma(u) and the boundary selection at every level;
    the selection is evaluated once after the march and stored on the
    active boundary nodes only, one column per ``mesh.gamma1_nodes``
    entry.
    """
    ops = ops if ops is not None else assemble(spec.mesh)
    lam = config.lambda_schedule[-1] if lam is None else float(lam)
    n_steps = config.n_steps(spec.T)
    try:
        times = config.tau * np.arange(n_steps + 1)
        u_hist = np.empty((n_steps + 1, ops.n_nodes))
        v_hist = np.empty_like(u_hist)
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"tau = {config.tau:g} gives {n_steps:.3g} time steps, "
                              "too many to store their history") from exc

    u0 = np.asarray(spec.u0, dtype=float)
    if config.smooth_u0_lambda > 0.0:
        u0 = smooth_initial(spec.mesh, ops, u0, config.smooth_u0_lambda)

    solver = _StepSolver(spec, ops, config, lam, config.epsilon)

    iters = np.zeros(n_steps, dtype=int)
    resids = np.zeros(n_steps)
    disagreement = 0.0

    u_hist[0] = u0
    v_hist[0] = spec.v_of(u0)

    for k in range(n_steps):
        try:
            u_next, it_k, res_k, gap = solver.advance(u_hist[k], v_hist[k], times[k + 1])
        except NonConvergence as exc:
            exc.time_index = k + 1
            raise
        u_hist[k + 1] = u_next
        v_hist[k + 1] = spec.v_of(u_next)
        iters[k] = it_k
        resids[k] = res_k
        disagreement = max(disagreement, gap)

    xi = solver.beta_reg(u_hist[:, solver.g1])
    return SolutionState(times=times, u=u_hist, v=v_hist, xi=xi,
                         lam=lam, tau=config.tau, iterations=iters,
                         residuals=resids, disagreement=disagreement)


def space_time_l2(ops: AssembledOperators, tau: float, fields: np.ndarray) -> float:
    """Discrete L2(0,T;L2) norm: trapezoid in time, lumped mass in space."""
    sq = (fields * fields) @ ops.mass
    return float(np.sqrt(max(np.trapezoid(sq, dx=tau), 0.0)))


def lambda_continuation(spec: ProblemSpec, config: SolverConfig,
                        ops: Optional[AssembledOperators] = None):
    """Solve along the decreasing regularization schedule, one level after
    another.

    Returns a list of ``(lam, state, cauchy_diff)`` where ``cauchy_diff``
    is the space-time distance to the previous (larger-lam) solution and
    ``None`` for the first entry.
    """
    if len(config.lambda_schedule) < 2:
        raise ValidationError("continuation needs at least two lambda values")
    ops = ops if ops is not None else assemble(spec.mesh)
    out = []
    prev = None
    for lam in config.lambda_schedule:
        state = solve_transient(spec, config, ops=ops, lam=lam)
        diff = None if prev is None else space_time_l2(ops, config.tau, state.u - prev.u)
        out.append((lam, state, diff))
        prev = state
    return out
