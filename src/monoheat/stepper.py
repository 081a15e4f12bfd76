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
Both solvers are lifted: for ``lam > 0`` the resolvent point
y ~ J_lam(u) on Gamma1 is an unknown of its own, so an iteration evaluates
``beta``'s section and slope at y and solves no resolvent, for every
``beta`` and every clamp; at ``lam = 0`` y is u (``_lifted_residuals``).

Two per-step solvers are provided: fixed-point sweeps on the correction
``f = -P^{-1} R_u``, where ``R_u`` is the step residual with the lifted
boundary value and ``P`` the SPD Picard matrix, factorized once,
accelerated by Anderson mixing over the last few sweeps (the first sweep,
with no history, is ``U + f``), so each sweep costs one lifted residual,
``beta``'s slope at y for y's linear update and one triangular solve, and
reads no derivative of ``gamma``; and a semismooth Newton iteration.
Each carries its own y and accepts a step only on the true residual
``r(u)``: one resolvent per accepted step, and the sweep solves one more
only when its merit stalls or that check fails.  That check's
``beta_reg(u)`` on Gamma1 is the step's stored ``xi``.  The two are
cross-checked in the tests.
``P`` takes a constant slope in place of ``gamma'`` and, on Gamma1, the
slope of ``beta_reg`` where that slope is constant (``eps = 0`` and a
``beta`` whose constants declare it linear, ``linear_slope``; no boundary
term otherwise), so with linear ``gamma`` and ``beta`` and ``eps = 0`` it
is the step Jacobian itself, and the first sweep solves the step.

Each solver factorizes exactly one matrix, ``P``.  Newton factorizes
nothing per iteration: its SPD Jacobian differs from ``P`` only by a
bounded volume slope and a Gamma1 term, so it is solved by conjugate
gradients preconditioned with the one factor of ``P``, to the
Eisenstat-Walker relative tolerance (choice 2), or half the acceptance
contract over the merit where that is larger (``_forcing_term``), so CG
asks no more than the step's acceptance needs.  ``P``'s diagonal is the Jacobian's
formula at the constant slopes, so where ``P`` is the Jacobian CG stops
after one iteration.

Both matrices factorized here (``P`` and the smoothing matrix
``M + lam*K``) are SPD, so both go through ``fem.spd_factor``: minimum
degree ordering on ``A + A^T`` with pivots kept on the diagonal, which on
a 96x96 mesh has about 40% less fill than SuperLU's default ordering and
partial pivoting.  Both are sums of ``tau*K`` or ``lam*K`` and a
diagonal, so they are bitwise symmetric CSR matrices, which
``spd_factor`` reads without a transpose copy.  Neither is stored: each is
formed inside the call that factorizes it, and the solver keeps the
assembled ``K`` and the diagonals, so a product with ``tau*K``, ``P`` or
the Jacobian is ``tau*(K @ x)`` plus a diagonal times ``x``.

At ``lam = 0`` the boundary term is ``beta``'s minimal section, which
selects no root of the step equation where a multi-valued ``beta`` jumps,
so a march at ``lam = 0`` needs a single-valued ``beta`` and is refused
before its first step otherwise.
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
    QuadratureFailure,
    SingularJacobian,
    SolverDisagreement,
    ValidationError,
)
from .fem import AssembledOperators, Mesh, assemble, spd_factor

FieldLike = Union[None, float, np.ndarray, Callable[[float], np.ndarray]]

# Anderson history length of the fixed-point sweep, and the relative cutoff
# below which singular values of its correction differences are dropped
_ANDERSON_DEPTH = 5
_ANDERSON_RCOND = 1e-12

#: the working range: every configured number, and every data value, has at
#: most this magnitude, so the squares the norms and monitors take stay finite
MAX_MAGNITUDE = 1e20


def check_range(value, what: str, key: Optional[str] = None):
    """``value``, a number or an array, when every entry lies in the working
    range ``|x| <= MAX_MAGNITUDE``; otherwise (NaN included) a
    ``ValidationError`` naming ``what``, with ``key``."""
    if not np.all(np.abs(value) <= MAX_MAGNITUDE):
        raise ValidationError(f"{what} is outside the working range |x| <= {MAX_MAGNITUDE:g}",
                              key=key)
    return value


def _as_time_field(data: FieldLike, n_nodes: int, name: str) -> Callable[[float], np.ndarray]:
    """Normalize a data field to a callable of time returning a nodal vector."""
    if data is None:
        zero = np.zeros(n_nodes)
        return lambda t: zero
    if np.isscalar(data):
        const = np.full(n_nodes, float(check_range(data, name, name)))
        return lambda t: const
    if isinstance(data, np.ndarray):
        if data.shape != (n_nodes,):
            raise ValidationError(f"{name} has shape {data.shape}, expected ({n_nodes},)")
        arr = check_range(data.astype(float), name, name)
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
    """Full problem data set for one transient run, its numbers and nodal
    data in the working range."""

    mesh: Mesh
    c0: float
    gamma: gr.ScalarGraph
    beta: gr.ScalarGraph
    g: FieldLike
    h: FieldLike
    u0: Union[float, np.ndarray]
    T: float

    def __post_init__(self):
        check_range(self.c0, "c0", "c0")
        check_range(self.T, "T", "T")
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
        check_range(self.u0, "u0", "u0")
        # an overflow here is bad data, reported below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                summable = np.all(np.isfinite(self.beta.potential(self.u0)))
            except QuadratureFailure:
                summable = False
        if not summable:
            raise ValidationError("boundary potential of u0 is not summable", key="u0")
        self._g_fn = _as_time_field(self.g, n, "g")
        self._h_fn = _as_time_field(self.h, n, "h")

    def g_at(self, t: float) -> np.ndarray:
        return np.asarray(self._g_fn(t), dtype=float)

    def h_at(self, t: float) -> np.ndarray:
        return np.asarray(self._h_fn(t), dtype=float)

    def v_of(self, u: np.ndarray) -> np.ndarray:
        return self.c0 * self.gamma.value(u)


@dataclass(frozen=True)
class SolverConfig:
    """Time step, regularization schedule and iteration controls, each in
    the working range."""

    tau: float
    lambda_schedule: tuple = (0.0,)
    epsilon: float = 0.0
    picard_tol: float = 1e-10
    newton_tol: float = 1e-12
    max_iters: int = 200
    solver_kind: str = "newton"
    smooth_u0_lambda: float = 0.0

    def __post_init__(self):
        def require(ok, message, key):
            if not ok:
                raise ValidationError(message, key=key)

        for key in ("tau", "epsilon", "picard_tol", "newton_tol", "max_iters",
                    "smooth_u0_lambda"):
            check_range(getattr(self, key), key, key)
        require(self.tau > 0.0, "tau must be positive", "tau")
        sched = tuple(float(l) for l in self.lambda_schedule)
        check_range(sched, "lambda_schedule", "lambda_schedule")
        require(sched, "lambda schedule must be nonempty", "lambda_schedule")
        require(not any(l < 0.0 for l in sched), "lambda values must be nonnegative",
                "lambda_schedule")
        require(not any(b >= a for a, b in zip(sched, sched[1:])),
                "lambda schedule must be strictly decreasing", "lambda_schedule")
        object.__setattr__(self, "lambda_schedule", sched)
        require(self.picard_tol > 0.0, "tolerances must be positive", "picard_tol")
        require(self.newton_tol > 0.0, "tolerances must be positive", "newton_tol")
        require(not self.epsilon < 0.0, "epsilon must be nonnegative", "epsilon")
        require(not self.max_iters < 1, "max_iters must be at least 1", "max_iters")
        require(self.solver_kind in ("picard", "newton", "both"),
                "solver_kind must be picard, newton or both", "solver_kind")
        require(not self.smooth_u0_lambda < 0.0, "smoothing parameter must be nonnegative",
                "smooth_u0_lambda")

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


def smooth_initial(ops: AssembledOperators, u0: np.ndarray, lam: float) -> np.ndarray:
    """Elliptic mollification of the initial field: (M + lam*K) U = M u0,
    with the lumped mass ``M`` and stiffness ``K`` of ``ops``.

    Constants are preserved exactly, the lumped l2 norm never grows, and
    the smoothed field converges back to u0 as lam goes to zero.
    """
    if not lam > 0.0:
        raise InvalidArgument("smoothing parameter must be positive")
    u0 = np.asarray(u0, dtype=float)
    try:
        out = spd_factor(sp.diags(ops.mass) + lam * ops.stiffness).solve(ops.mass * u0)
    except RuntimeError as exc:
        raise LinearSolveFailure(f"smoothing solve failed: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise LinearSolveFailure("smoothing solve produced non-finite values")
    return out


class _StepSolver:
    """Per-step nonlinear solver bound to one (spec, ops, config, lam, eps)."""

    def __init__(self, spec: ProblemSpec, ops: AssembledOperators,
                 config: SolverConfig, lam: float, eps: float):
        self.spec = spec
        self.config = config
        self.lam = float(lam)
        self.eps = float(eps)
        self.tau = config.tau
        self.mass = ops.mass
        self.bmass = ops.boundary_mass
        # Mb is supported on the Gamma1 nodes, so beta_reg is needed only there
        self.g1 = spec.mesh.gamma1_nodes
        self.tau_bmass_g1 = self.tau * self.bmass[self.g1]
        self.stiffness = ops.stiffness
        self.tau_lam_mass = self.tau * self.lam * self.mass

        consts = spec.gamma.constants()
        # SPD proxy slope for the volume nonlinearity; equals the exact slope
        # for a linear gamma
        self.split_slope = 0.5 * (consts.lipschitz_lower + consts.lipschitz_upper)
        # the slope of beta_reg where it is constant (a beta linear by its
        # constants, no clamp), else 0; with a linear gamma too, P is then
        # the Jacobian itself
        a = spec.beta.constants().linear_slope
        slope_beta = a / (1.0 + self.lam * a) if a is not None and self.eps == 0.0 else 0.0
        # P u - r(u) = b - M c0 (gamma(u) - split_slope u)
        #              - tau Mb (beta_reg(u) - slope_beta u)
        self._picard_diag = self._jacobian_diagonal(self.split_slope, slope_beta)
        # the lifted unknowns y ~ J_lam(u) on Gamma1 of Newton and of the
        # sweep, both set by ``start`` and each carried from step to step by
        # its own solver
        self._y = None
        self._picard_y = None
        self.last_boundary_value = None

    @cached_property
    def _picard_solve(self):
        """``P^{-1}``: the Picard sweep's step and Newton's preconditioner,
        factorized on first use and shared by both.  ``P`` itself is formed
        only to be factorized."""
        return spd_factor(sp.diags(self._picard_diag) + self.tau * self.stiffness).solve

    # -- building blocks ----------------------------------------------------

    def beta_reg(self, u: np.ndarray) -> np.ndarray:
        return gr.regularized_value(self.spec.beta, self.lam, self.eps, u)

    def start(self, u0: np.ndarray) -> np.ndarray:
        """Level 0's boundary selection ``beta_reg(u0)`` on Gamma1.  At
        ``lam > 0`` its one resolvent ``J_lam(u0)`` also starts the y of both
        solvers, whose first step would otherwise solve it again."""
        u_g1 = u0[self.g1]
        if self.lam == 0.0:
            return self.beta_reg(u_g1)
        self._y = self._picard_y = gr.resolvent(self.spec.beta, self.lam, u_g1)
        value = gr.yosida_from_resolvent(self.spec.beta, self.lam, u_g1, self._y)
        return np.clip(value, -1.0 / self.eps, 1.0 / self.eps) if self.eps > 0.0 else value

    def rhs(self, v_prev: np.ndarray, t_next: float) -> np.ndarray:
        b = (self.mass * v_prev
             + self.tau * self.mass * self.spec.g_at(t_next)
             + self.tau * self.bmass * self.spec.h_at(t_next))
        # the residual test tol*(1 + |b|) would pass anything for an infinite b
        if not np.all(np.isfinite(b)):
            raise ValidationError(f"step right-hand side at t = {t_next:g} is not finite "
                                  "(data g or h)")
        return b

    def residual(self, u: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The step residual, its boundary term ``tau*Mb*beta_reg(u)``.
        ``beta_reg(u)`` on Gamma1 stays as ``last_boundary_value``: both
        solvers accept a step on this residual at its u, so after a step it
        is the step's boundary selection."""
        self.last_boundary_value = self.beta_reg(u[self.g1])
        return self._residual_with(u, self.last_boundary_value, b)

    def _residual_with(self, u, beta_g1, b):
        """The step residual with the boundary values ``beta_g1`` on Gamma1."""
        spec = self.spec
        boundary = np.zeros_like(u)
        boundary[self.g1] = self.tau_bmass_g1 * beta_g1
        r = (self.mass * (spec.c0 * spec.gamma.value(u))
             + self.tau * (self.stiffness @ u)
             + boundary
             - b)
        return r + self.tau_lam_mass * u

    def _lifted_residuals(self, u, y, b):
        """``(w, R_u, R_y, merit)`` of the lifted step system at ``(u, y)``.

        For ``lam > 0``, ``w = clip((u - y)/lam, lo(y), hi(y))`` is the
        element of ``beta(y)`` nearest the Yosida quotient, ``beta(y)`` itself
        where ``beta`` is single valued, then clamped at 1/eps;
        ``R_y = y + lam*w - u`` (before the clamp) and ``R_u`` is the step
        residual with ``w`` on Gamma1.  The merit is
        ``|R_u| + |tau*Mb*R_y|/lam``: the boundary term is 1/lam-Lipschitz in
        u, so the weight puts ``R_y`` in the units of the step residual.  Each
        ``R_y`` entry counts only past the resolvent's own target, so a y
        as accurate as the resolvent makes it adds nothing: at a small lam
        the weight would lift one ulp of u past the contract.

        At ``lam = 0`` y is u: ``R_u = r(u)``, ``R_y = 0`` and the merit is
        ``|r(u)|``; ``w`` is not needed, and is None."""
        if self.lam == 0.0:
            r_u = self.residual(u, b)
            return None, r_u, 0.0, np.linalg.norm(r_u)
        u_g1 = u[self.g1]
        lo, hi = self.spec.beta.section_bounds(y)
        w = np.clip((u_g1 - y) / self.lam, lo, hi)
        r_y = y + self.lam * w - u_g1
        if self.eps > 0.0:
            w = np.clip(w, -1.0 / self.eps, 1.0 / self.eps)
        excess = np.maximum(np.abs(r_y) - gr.resolvent_target(u_g1), 0.0)
        r_u = self._residual_with(u, w, b)
        return w, r_u, r_y, (np.linalg.norm(r_u)
                             + np.linalg.norm(self.tau_bmass_g1 * excess) / self.lam)

    def _resolved(self, u, b, y=None):
        """The lifted state ``(y, w, R_u, R_y, merit)`` at ``u``, with the
        carried ``y`` when one is given and ``y = J_lam(u)`` on Gamma1 when
        none is; at ``lam = 0`` y is u.  Every resolvent either solver
        solves for y is solved here."""
        if self.lam == 0.0:
            y = u[self.g1]
        elif y is None:
            y = gr.resolvent(self.spec.beta, self.lam, u[self.g1])
        return (y,) + self._lifted_residuals(u, y, b)

    def _lifted_slopes(self, y, w):
        """``(q, s)`` at the lifted iterate: ``dy = q*(du - R_y)`` and the
        boundary slope ``s = dw/du``.  For ``lam > 0``, with
        ``d = beta'(y)``, ``q = 1/(1 + lam*d)`` and ``s = 1/(lam + 1/d)``:
        a flat ``beta`` (``power(3)`` at 0) gives ``s = 0``, a vertical one
        (``power(0.5)`` at 0, or ``sign``'s jump, where d is inf) ``q = 0``
        and ``s = 1/lam``, the dead zone's slope; only the division by 0 is
        silenced.  The clamp makes s 0 where ``|w| >= 1/eps``.  At
        ``lam = 0`` (y is u) ``q = 1`` and s is ``regularized_derivative``'s
        centred difference."""
        beta, lam = self.spec.beta, self.lam
        if lam == 0.0:
            return 1.0, gr.regularized_derivative(beta, 0.0, self.eps, y)
        beta_d = beta.derivative(y)
        with np.errstate(divide="ignore"):
            slope = 1.0 / (lam + 1.0 / beta_d)
        if self.eps > 0.0:
            slope = np.where(np.abs(w) >= 1.0 / self.eps, 0.0, slope)
        return 1.0 / (1.0 + lam * beta_d), slope

    def _jacobian_diagonal(self, gamma_deriv, beta_deriv_g1):
        """Diagonal ``d`` of the SPD Jacobian ``diag(d) + tau*K``;
        ``beta_deriv_g1`` is the boundary slope on Gamma1."""
        diag = self.spec.c0 * self.mass * gamma_deriv
        diag[self.g1] += self.tau_bmass_g1 * beta_deriv_g1
        return diag + self.tau_lam_mass

    def _jacobian_cg(self, diag, rhs, rtol):
        """Solve ``(diag(diag) + tau*K) x = rhs`` to ``rtol`` relative to
        ``|rhs|`` by CG, preconditioned with the Picard factor.  With linear
        ``gamma`` and ``beta``, ``P`` is the Jacobian and CG stops after one
        iteration."""
        n = rhs.shape[0]
        jac = spla.LinearOperator(
            (n, n), matvec=lambda p: self.tau * (self.stiffness @ p) + diag * p, dtype=float)
        precond = spla.LinearOperator((n, n), matvec=self._picard_solve, dtype=float)
        x, info = spla.cg(jac, rhs, rtol=rtol, atol=0.0, M=precond)
        if info != 0 or not np.all(np.isfinite(x)):
            raise LinearSolveFailure(
                f"Newton's conjugate gradient solve failed (info {info}, "
                f"relative tolerance {rtol:.1e})")
        return x

    # -- solvers --------------------------------------------------------------

    def picard(self, u_init: np.ndarray, b: np.ndarray):
        """Anderson-accelerated fixed-point sweeps on the correction
        ``f = -P^{-1} R_u`` of the lifted system of ``_lifted_residuals``.

        Every sweep is the Anderson step
        ``u_{k+1} = u_k + f_k - (dU + dF) gamma`` with
        ``gamma = argmin |f_k - dF gamma|`` over the last ``_ANDERSON_DEPTH``
        differences of iterates ``dU`` and corrections ``dF`` (Walker & Ni,
        SIAM J. Numer. Anal. 49, 2011); the first, with no history, is
        ``u_1 = u_0 + f_0``.  y ~ J_lam(u) on Gamma1 follows by Newton's
        linear update ``y += q*(du - R_y)`` (``_lifted_slopes``), so a sweep
        costs one lifted residual, ``beta``'s section and slope at y and one
        solve with ``P``, and no resolvent.  y restarts at ``J_lam(u)`` where
        the merit does not fall below the last sweep's (at a jump q = 0
        holds y still), and where ``r(u)``, checked once the merit meets
        ``picard_tol*(1 + |b|)``, does not meet it: only ``r(u)``, with the
        true regularized value, accepts a step.  At ``lam = 0`` y is u and
        the merit is ``|r(u)|``.  y carries over from step to step, as
        Newton's does.  Returns ``(u, sweeps, |r(u)|)``.
        """
        lam, g1 = self.lam, self.g1
        tol = self.config.picard_tol * (1.0 + np.linalg.norm(b))
        u = u_init.copy()
        y, w, r_u, r_y, merit = self._resolved(u, b, self._picard_y)
        step = f = -self._picard_solve(r_u)
        depth = _ANDERSON_DEPTH
        d_u = np.empty((depth, u.shape[0]))
        d_f = np.empty_like(d_u)
        history = self.last_residual_history = []
        # a diverging sweep overflows; the finiteness tests turn that into
        # NonConvergence instead of a floating-point warning
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(1, self.config.max_iters + 1):
                u += step
                last = merit
                if lam > 0.0:
                    y = y + self._lifted_slopes(y, w)[0] * (step[g1] - r_y)
                y, w, r_u, r_y, merit = self._resolved(u, b, y)
                if lam > 0.0 and not merit < last:
                    y, w, r_u, r_y, merit = self._resolved(u, b)
                history.append(merit)
                if not math.isfinite(merit):
                    raise NonConvergence("fixed-point sweep diverged", history)
                if merit <= tol:
                    res = merit if lam == 0.0 else np.linalg.norm(self.residual(u, b))
                    if res <= tol:
                        self._picard_y = y
                        return u, it, res
                    # y is further from J_lam(u) than the contract allows
                    y, w, r_u, r_y, merit = self._resolved(u, b)
                f_new = -self._picard_solve(r_u)
                slot = (it - 1) % depth
                d_u[slot] = step
                np.subtract(f_new, f, out=d_f[slot])
                if not np.all(np.isfinite(d_f[slot])):
                    raise NonConvergence("fixed-point sweep diverged", history)
                f = f_new
                k = min(it, depth)
                # the minimum-norm solution keeps gamma finite when dF is
                # rank-deficient, e.g. zero once the iterate stops moving
                gamma = np.linalg.lstsq(d_f[:k].T, f, rcond=_ANDERSON_RCOND)[0]
                step = f - gamma @ d_u[:k] - gamma @ d_f[:k]
        raise NonConvergence(
            f"fixed-point sweeps did not reach tolerance in {self.config.max_iters} "
            "iterations", history)

    def newton(self, u_init: np.ndarray, b: np.ndarray):
        """Semismooth Newton in (u, y) on the lifted system of
        ``_lifted_residuals``, with y ~ J_lam(u) on Gamma1 (y is u at
        ``lam = 0``).  Returns ``(u, iterations, |r(u)|)``.

        Eliminating ``dy = q*(du - R_y)`` leaves the SPD Jacobian
        ``diag(c0*M*gamma'(u) + tau*Mb*s + tau*lam*M) + tau*K`` with the
        boundary slope ``s`` of ``_lifted_slopes`` and the right-hand side
        ``-R_u + tau*Mb*s*R_y``, solved inexactly by ``_jacobian_cg`` to
        the forcing term of ``_forcing_term``: Eisenstat-Walker's, or
        ``0.5*tol/merit`` where that is larger, so the linear residual need
        not fall below half the contract ``tol``; an iteration solves no
        resolvent.
        The whole step is taken when it lowers the merit; otherwise, since
        far from the root of a steep ``beta`` the linear ``dy`` overshoots
        (and at a jump it cannot move y off it), the iteration backtracks
        along ``du`` with y the resolvent of each trial.  A step is accepted
        only when ``r(u)``, with the true regularized value, meets
        ``newton_tol*(1 + |b|)``; at ``lam = 0`` the merit is ``|r(u)|``
        itself.  y starts at ``J_lam(u_init)`` on the first call, unless
        ``start`` has set it, and carries over to the next step.
        """
        lam, g1 = self.lam, self.g1
        tol = self.config.newton_tol * (1.0 + np.linalg.norm(b))
        u = u_init.copy()
        y, w, r_u, r_y, merit = self._resolved(u, b, self._y)
        history = self.last_residual_history = [merit]
        eta = 0.1
        for it in range(self.config.max_iters + 1):
            if merit <= tol:
                res = merit if lam == 0.0 else np.linalg.norm(self.residual(u, b))
                if res <= tol:
                    self._y = y
                    return u, it, res
                # y is further from J_lam(u) than the contract allows
                y, w, r_u, r_y, merit = self._resolved(u, b)
            if it == self.config.max_iters:
                break
            q, slope = self._lifted_slopes(y, w)
            rhs = -r_u
            rhs[g1] += self.tau_bmass_g1 * slope * r_y
            du = self._jacobian_cg(self._jacobian_diagonal(self._gamma_slope(u), slope),
                                   rhs, eta)
            u_try, y_try = u + du, y + q * (du[g1] - r_y)
            with np.errstate(over="ignore", invalid="ignore"):
                out = self._resolved(u_try, b, y_try)
            if not _armijo(out[-1], merit, 1.0):
                # at lam = 0 the resolved full step is the one just refused
                u_try, out = self._backtrack(u, du, merit, b, history,
                                             1.0 if lam > 0.0 else 0.5)
            eta = _forcing_term(out[-1], merit, tol)
            u, (y, w, r_u, r_y, merit) = u_try, out
            history.append(merit)
        raise NonConvergence(
            f"Newton did not reach tolerance in {self.config.max_iters} iterations",
            history)

    def _gamma_slope(self, u):
        gamma_d = self.spec.gamma.derivative(u)
        if not np.all(np.isfinite(gamma_d)) or np.any(gamma_d <= 0.0):
            raise SingularJacobian(
                "gamma derivative not positive; graph mis-declared as bi-Lipschitz")
        return gamma_d

    def _backtrack(self, u, delta, merit, b, history, step):
        """Armijo backtracking from ``u`` along ``delta``: the first of the
        steps ``step``, ``step/2``, ... (40 of them) at which the merit of
        the lifted state resolved at ``u + step*delta`` passes ``_armijo``.
        Returns ``(u_try, self._resolved(u_try, b))``."""
        for _ in range(40):
            u_try = u + step * delta
            with np.errstate(over="ignore", invalid="ignore"):
                out = self._resolved(u_try, b)
            if _armijo(out[-1], merit, step):
                return u_try, out
            step *= 0.5
        raise NonConvergence("Newton backtracking stalled", history)

    def advance(self, u_prev: np.ndarray, v_prev: np.ndarray, t_next: float):
        b = self.rhs(v_prev, t_next)
        kind = self.config.solver_kind
        if kind == "picard":
            return self.picard(u_prev, b) + (0.0,)
        if kind == "newton":
            return self.newton(u_prev, b) + (0.0,)
        u_p, it_p, _ = self.picard(u_prev, b)
        u_n, it_n, res_n = self.newton(u_prev, b)
        gap = np.linalg.norm(u_p - u_n)
        # the mean-value Jacobian dominates c0*c_low*diag(mass), which bounds
        # how far two residual-accepted answers can sit apart
        sigma_floor = (self.spec.c0 * self.spec.gamma.constants().lipschitz_lower
                       * float(np.min(self.mass)))
        allowed = 10.0 * max(self.config.picard_tol, self.config.newton_tol) \
            * (1.0 + np.linalg.norm(b)) / min(sigma_floor, 1.0)
        if gap > allowed:
            raise SolverDisagreement(
                f"fixed-point and Newton answers differ by {gap:.3e} (allowed {allowed:.3e})")
        return u_n, max(it_p, it_n), res_n, gap


def _forcing_term(merit: float, merit_last: float, tol: float) -> float:
    """CG's relative tolerance at a Newton iterate of merit ``merit``: the
    Eisenstat-Walker choice 2 term ``0.9*(merit/merit_last)**2`` with the
    floor 1e-10, or ``0.5*tol/merit`` where that is larger, capped at 0.1.
    A linear residual of ``0.5*tol`` is half the acceptance contract ``tol``
    (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982), so CG
    stops where the step's acceptance needs no more; at ``merit = 0``,
    which meets the contract, that term is left out."""
    contract = 0.5 * tol / merit if merit > 0.0 else 0.0
    return min(0.1, max(0.9 * (merit / merit_last) ** 2, 1e-10, contract))


def _armijo(merit_try: float, merit: float, step: float) -> bool:
    """Sufficient decrease of a Newton trial of length ``step``."""
    return math.isfinite(merit_try) and merit_try <= (1.0 - 1e-4 * step) * merit


def _check_limit_problem(spec: ProblemSpec, lam: float) -> None:
    """Raise ``ValidationError`` for a march at ``lam = 0`` with a
    multi-valued ``beta``, which the step solvers cannot solve."""
    if lam == 0.0 and not spec.beta.single_valued:
        raise ValidationError(
            f"beta = {spec.beta.label} is multi-valued, and lambda = 0 has no solver "
            "for it: use a positive lambda, or continuation down to a small positive one")


def solve_transient(spec: ProblemSpec, config: SolverConfig,
                    ops: Optional[AssembledOperators] = None,
                    lam: Optional[float] = None) -> SolutionState:
    """March the full time interval at one regularization parameter.

    ``lam`` defaults to the smallest entry of the schedule.  The state
    stores u, v = c0*gamma(u) and the boundary selection ``beta_reg(u)`` at
    every level, on the active boundary nodes only, one column per
    ``mesh.gamma1_nodes`` entry: level 0's is evaluated at u0 from the
    resolvent that also starts the solvers' y (``_StepSolver.start``), and
    each step's is the one its acceptance check evaluated on the accepted
    u (``_StepSolver.residual``), so no level solves a resolvent for it
    again.  ``lam = 0`` needs a single-valued ``beta``.
    """
    lam = config.lambda_schedule[-1] if lam is None else float(lam)
    _check_limit_problem(spec, lam)
    ops = ops if ops is not None else assemble(spec.mesh)
    try:
        # a subnormal tau makes T/tau infinite, which no step count rounds to
        n_steps = config.n_steps(spec.T)
        times = config.tau * np.arange(n_steps + 1)
        u_hist = np.empty((n_steps + 1, ops.n_nodes))
        v_hist = np.empty_like(u_hist)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise ValidationError(f"tau = {config.tau:g} gives {spec.T / config.tau:.3g} time "
                              "steps, too many to store their history") from exc

    u0 = np.asarray(spec.u0, dtype=float)
    if config.smooth_u0_lambda > 0.0:
        u0 = smooth_initial(ops, u0, config.smooth_u0_lambda)

    solver = _StepSolver(spec, ops, config, lam, config.epsilon)

    iters = np.zeros(n_steps, dtype=int)
    resids = np.zeros(n_steps)
    disagreement = 0.0

    u_hist[0] = u0
    v_hist[0] = spec.v_of(u0)
    xi = np.empty((n_steps + 1, solver.g1.size))
    xi[0] = solver.start(u0)

    for k in range(n_steps):
        try:
            u_next, it_k, res_k, gap = solver.advance(u_hist[k], v_hist[k], times[k + 1])
        except NonConvergence as exc:
            exc.time_index = k + 1
            raise
        u_hist[k + 1] = u_next
        v_hist[k + 1] = spec.v_of(u_next)
        xi[k + 1] = solver.last_boundary_value
        iters[k] = it_k
        resids[k] = res_k
        disagreement = max(disagreement, gap)

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
    ``None`` for the first entry.  The whole schedule is checked before
    the first level marches.
    """
    if len(config.lambda_schedule) < 2:
        raise ValidationError("continuation needs at least two lambda values")
    for lam in config.lambda_schedule:
        _check_limit_problem(spec, lam)
    ops = ops if ops is not None else assemble(spec.mesh)
    out = []
    prev = None
    for lam in config.lambda_schedule:
        state = solve_transient(spec, config, ops=ops, lam=lam)
        diff = None if prev is None else space_time_l2(ops, config.tau, state.u - prev.u)
        out.append((lam, state, diff))
        prev = state
    return out
