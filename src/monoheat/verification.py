"""Estimate monitors, a-priori bound constants and validation studies.

The monitors evaluate, on a discrete solution, the energy functionals that
drive the well-posedness theory for the flow: the conjugate potential of
the volume nonlinearity, the cumulative gradient dissipation, the boundary
potential mass and the boundary flux.  The bound calculators then rebuild
the corresponding a-priori constants *from data and declared graph
constants only* and check that the monitored values stay below them.
Backward Euler inherits the continuous Gronwall chains verbatim, with the
exponential factor replaced by its implicit discrete analogue
``prod (1-q_k)^-1``, so a violation indicates an implementation bug,
never an unlucky data set.

Also here: manufactured sources for convergence-order studies and the
continuous-dependence check for linear volume graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from . import graphs as gr
from .config import Jet, compile_expr
from .errors import (
    EmptyBoundary,
    HypothesisViolation,
    InsufficientLevels,
    InvalidArgument,
    ValidationError,
)
from .fem import AssembledOperators, Mesh, assemble, trace_constant
from .graphs import GraphConstants
from .stepper import ProblemSpec, SolutionState, SolverConfig, solve_transient


# ---------------------------------------------------------------------------
# Monitors
# ---------------------------------------------------------------------------


@dataclass
class BoundCheck:
    name: str
    bound: float
    monitored: float
    passed: bool
    time_index: Optional[int] = None


@dataclass
class EstimateReport:
    """Per-level monitor values plus (after bounding) the computed constants."""

    times: np.ndarray
    lam: float
    tau: float
    l2_u: np.ndarray             # lumped l2 norm of u per level
    h1_sq_u: np.ndarray          # squared discrete h1 norm of u
    grad_sq: np.ndarray          # squared gradient seminorm per level
    grad_sq_cum: np.ndarray      # cumulative tau-weighted dissipation
    phi_star: np.ndarray         # conjugate potential of v, by the Fenchel equality
    bhat_l1: np.ndarray          # lumped mass of the regularized boundary potential
    boundary_work: np.ndarray    # xi' * Mb * u per level
    boundary_flux_sq: np.ndarray  # squared boundary l2 norm of xi
    forcing_work: np.ndarray     # (g,u) + (h,u)_boundary per level
    h1_sq_v: np.ndarray
    dual_rate: np.ndarray        # dual norm of (v_k - v_{k-1})/tau, k >= 1
    step_slack: np.ndarray       # per-step inexactness allowance
    constants: dict = field(default_factory=dict)
    bound_checks: list = field(default_factory=list)
    skip_reason: Optional[str] = None  # why the chain was not evaluated

    @property
    def all_bounds_pass(self) -> bool:
        return bool(self.bound_checks) and all(c.passed for c in self.bound_checks)


def _sampled(field_at: Callable[[float], np.ndarray], times) -> np.ndarray:
    """A time-dependent nodal field with one row per entry of ``times``."""
    return np.array([field_at(t) for t in times])


def _lumped(f: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-row weighted products ``sum_i f[k,i]*g[k,i]*w[i]``."""
    return (f * g) @ w


def _stiffness_form(k_mat: sp.spmatrix, f: np.ndarray) -> np.ndarray:
    """Per-row energy ``f_k' K f_k``."""
    return np.sum(f * (k_mat @ f.T).T, axis=1)


def _dual_sq(ops: AssembledOperators, f: np.ndarray) -> np.ndarray:
    """Per-row squared h1-dual norm ``f_k' (M + K)^-1 f_k``, one
    multi-column solve with the operators' shared factor for all rows."""
    return np.maximum(np.sum(f * ops.h1_factor.solve(f.T).T, axis=1), 0.0)


def energy_monitors(solution: SolutionState, spec: ProblemSpec,
                    ops: AssembledOperators) -> EstimateReport:
    """Evaluate every estimate functional at every time level.

    The march stores ``v = c0*gamma(u)`` at every level, so the conjugate
    potential of the volume graph c0*gamma, heat capacity included, is
    taken by the Fenchel equality ``Phi*(v) = v*u - c0*Phi_gamma(u)`` at
    the stored u: ``phi_star[k] = sum m*(v_k*u_k - c0*Phi_gamma(u_k))``.
    """
    m = ops.mass
    bm = ops.boundary_mass
    u, v, xi = solution.u, solution.v, solution.xi
    tau = solution.tau

    l2_sq = _lumped(u, u, m)
    g_sq = _stiffness_form(ops.stiffness, u)
    grad_sq = np.maximum(g_sq, 0.0)
    # the graph functionals run one level at a time: on the whole history
    # their resolvent and quadrature temporaries raised the peak RSS of a
    # solve by 0.5-0.7 MB (6x6 and 96x96 meshes)
    phi_star = np.array([np.sum(m * (v_k * u_k - spec.c0 * spec.gamma.potential(u_k)))
                         for u_k, v_k in zip(u, v)])
    bhat = np.array([np.sum(m * gr.regularized_potential(spec.beta, solution.lam, u_k))
                     for u_k in u])
    g1 = spec.mesh.gamma1_nodes
    bwork = _lumped(xi, u[:, g1], bm[g1])

    later = solution.times[1:]
    fwork = (_lumped(u[1:], _sampled(spec.g_at, later), m)
             + _lumped(u[1:], _sampled(spec.h_at, later), bm))
    dual_rate = np.sqrt(_dual_sq(ops, m * np.diff(v, axis=0) / tau))
    step_slack = solution.residuals * (1.0 + np.linalg.norm(u[1:], axis=1))

    def from_step_one(series):
        """Series defined for k >= 1, padded with 0 at level 0."""
        return np.concatenate([[0.0], series])

    return EstimateReport(
        times=solution.times, lam=solution.lam, tau=tau,
        l2_u=np.sqrt(np.maximum(l2_sq, 0.0)), h1_sq_u=np.maximum(l2_sq + g_sq, 0.0),
        grad_sq=grad_sq, grad_sq_cum=from_step_one(np.cumsum(tau * grad_sq[1:])),
        phi_star=phi_star, bhat_l1=bhat, boundary_work=bwork,
        boundary_flux_sq=_lumped(xi, xi, bm[g1]), forcing_work=from_step_one(fwork),
        h1_sq_v=np.maximum(_lumped(v, v, m) + _stiffness_form(ops.stiffness, v), 0.0),
        dual_rate=from_step_one(dual_rate), step_slack=from_step_one(step_slack))


# ---------------------------------------------------------------------------
# Data norms and bound constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataNorms:
    """Everything the bound formulas consume besides graph constants."""

    m1: float                 # product bound for the initial conjugate potential
    m2_sq: float              # squared boundary-data space-time norm
    g_l2l2_sq: float
    g_linf_steps: np.ndarray  # sup norm of g at each implicit sample time
    g_l1linf: float
    initial_bpot_l1: float    # lumped mass of the raw boundary potential at u(0)
    omega: float
    T: float
    tau: float
    n_steps: int


def data_norms(spec: ProblemSpec, ops: AssembledOperators,
               solution: SolutionState) -> DataNorms:
    """Norms of the problem data on the solve's own time grid."""
    tau = solution.tau
    m = ops.mass
    u0 = solution.u[0]
    v0 = solution.v[0]
    m1 = math.sqrt(float(v0 @ (m * v0))) * math.sqrt(float(u0 @ (m * u0)))
    g = _sampled(spec.g_at, solution.times[1:])
    h = _sampled(spec.h_at, solution.times[1:])
    g_linf = np.max(np.abs(g), axis=1)
    bpot = float(np.sum(m * spec.beta.potential(u0)))
    return DataNorms(
        m1=m1, m2_sq=tau * float(np.sum(_lumped(h, h, ops.boundary_mass))),
        g_l2l2_sq=tau * float(np.sum(_lumped(g, g, m))),
        g_linf_steps=g_linf, g_l1linf=float(tau * g_linf.sum()),
        initial_bpot_l1=bpot, omega=ops.domain_measure,
        T=float(solution.times[-1]), tau=tau, n_steps=solution.n_steps)


def _implicit_gronwall_factor(q: np.ndarray) -> float:
    """prod (1 - q_k)^-1 for the implicit discrete Gronwall lemma."""
    if np.any(q >= 1.0):
        raise ValidationError(
            "time step too large for the discrete Gronwall chain; reduce tau")
    return float(np.exp(-np.sum(np.log1p(-q))))


def _in_float_range(names: str, chain: Callable[[], tuple]) -> tuple:
    """The bound constants ``names`` that ``chain`` computes, or
    ``ValidationError`` when one of them is not a finite float: with ``c0``
    or a declared graph constant near the ends of the float range a square
    underflows to 0 or overflows, and a long march near the Gronwall step
    limit overflows the growth factor."""
    message = (f"bound constants {names} fall outside the float range; c0 or a "
               "declared graph constant is too small or too large")
    try:
        with np.errstate(over="ignore"):
            values = chain()
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(message) from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(message)
    return values


def apriori_bounds(report: EstimateReport, c0: float, gamma_constants: GraphConstants,
                   beta_constants: GraphConstants, norms: DataNorms,
                   c_tr: float) -> EstimateReport:
    """Compute the bound constants and test every monitor against them.

    ``gamma_constants`` are the problem's own gamma constants; the volume
    graph of the chain is c0*gamma, heat capacity included, so its
    Lipschitz constants are ``c_low = c0*lipschitz_lower`` and ``c_up =
    c0*lipschitz_upper``.  The constants depend on data and declared graph
    properties only; the solution enters solely through the monitors.
    A failed check is reported, with its ``time_index``, never raised;
    ``ValidationError`` means the chain's hypotheses fail.
    """
    if not gamma_constants.bi_lipschitz:
        raise ValidationError("volume graph must declare bi-Lipschitz constants")
    c_low = c0 * gamma_constants.lipschitz_lower
    c_up = c0 * gamma_constants.lipschitz_upper
    tau, n_steps = norms.tau, norms.n_steps

    def chain_a():
        c1 = c_low**2 / (4.0 * c_up)
        c2 = norms.m1 + norms.g_l2l2_sq + c_tr**2 * norms.m2_sq
        grow1 = _implicit_gronwall_factor(np.full(n_steps, tau / (2.0 * c1)))
        a1 = math.sqrt(c2 / c1 * grow1)
        a2 = math.sqrt(2.0 * c2 + 2.0 * norms.T * a1**2)
        return c1, c2, a1, a2, c_up * a2

    c1, c2, a1, a2, a3 = _in_float_range("C1, C2, A1, A2, A3", chain_a)

    constants = dict(C1=c1, C2=c2, A1=a1, A2=a2, A3=a3,
                     M1=norms.m1, M2=math.sqrt(norms.m2_sq),
                     L=norms.initial_bpot_l1, C_tr=c_tr)

    checks: list[BoundCheck] = []

    def add(name, bound, monitored, idx=None):
        checks.append(BoundCheck(name, float(bound), float(monitored),
                                 bool(monitored <= bound), idx))

    def add_series(name, bound, series, slack=0.0):
        excess = np.asarray(series) - bound - slack
        worst = int(np.argmax(excess))
        checks.append(BoundCheck(name, float(bound), float(np.max(series)),
                                 bool(excess[worst] <= 0.0), worst))

    add_series("A1_sup_l2_u", a1, report.l2_u)
    add("A2_l2_h1_u", a2, math.sqrt(float(tau * report.h1_sq_u[1:].sum())))
    add("A3_l2_h1_v", a3, math.sqrt(float(tau * report.h1_sq_v[1:].sum())))
    add("M1_initial_phi_star", norms.m1 * (1.0 + 1e-12) + 1e-12, report.phi_star[0])

    d1 = beta_constants.potential_bound_d1
    d2 = beta_constants.potential_bound_d2
    if d1 is not None and d2 is not None:
        def chain_b():
            a_core = (c_up * norms.initial_bpot_l1 + 0.5 * norms.m2_sq
                      + d2 * norms.omega * norms.g_l1linf)
            grow2 = _implicit_gronwall_factor(tau * d1 * norms.g_linf_steps / c_low)
            b1 = a_core / c_low * grow2
            return b1, math.sqrt(2.0 * a_core + 2.0 * d1 * norms.g_l1linf * b1)

        b1, b2 = _in_float_range("B1, B2", chain_b)
        constants.update(B1=b1, B2=b2, D1=d1, D2=d2)
        add_series("B1_sup_l1_bpot", b1, report.bhat_l1)
        add("B2_l2_boundary_flux", b2,
            math.sqrt(float(tau * report.boundary_flux_sq[1:].sum())))

    # structural inequalities the scheme satisfies step by step
    slack = report.step_slack
    lower_gap = c1 * report.l2_u**2 - report.phi_star
    add_series("conjugate_lower_bound", 0.0, lower_gap,
               slack=1e-9 * np.maximum(1.0, report.phi_star.max(initial=1.0)))
    energy_gap = (report.phi_star[1:] - report.phi_star[:-1]
                  + tau * report.grad_sq[1:] - tau * report.forcing_work[1:]
                  - slack[1:] - 1e-10 * np.maximum(1.0, np.abs(report.phi_star[1:])))
    add_series("energy_step_inequality", 0.0, energy_gap)
    add_series("boundary_sign", 0.0, -(report.boundary_work[1:] + slack[1:] + 1e-12))

    report.constants.update(constants)
    report.bound_checks = checks
    return report


def verify_solution(solution: SolutionState, spec: ProblemSpec,
                    ops: AssembledOperators) -> EstimateReport:
    """Monitors, and the bound checks where the chain applies.  Never raises
    on the report: a violated bound is a failed check, and a chain that
    cannot be evaluated leaves ``bound_checks`` empty and sets ``skip_reason``.
    That covers an empty Γ1, a time step too large for the Gronwall chain and
    any other ``ValidationError`` of its hypotheses, such as a graph whose
    declared constants are missing or inconsistent: such a graph is reported
    in ``skip_reason``, not raised.
    """
    report = energy_monitors(solution, spec, ops)
    try:
        c_tr = trace_constant(ops)
        return apriori_bounds(
            report, spec.c0, spec.gamma.constants(), spec.beta.constants(),
            data_norms(spec, ops, solution), c_tr)
    except EmptyBoundary:
        report.skip_reason = "no active boundary"
    except ValidationError as exc:
        report.skip_reason = str(exc)
    return report


def dual_rate_l2(report: EstimateReport) -> float:
    """Space-time dual norm of the discrete time derivative of v."""
    return math.sqrt(float(report.tau * np.sum(report.dual_rate[1:] ** 2)))


# ---------------------------------------------------------------------------
# Manufactured solutions
# ---------------------------------------------------------------------------


class ManufacturedSolution:
    """Closed-form space-time field ``expr`` in x (and y in 2-D) and t, in
    the ``expr(...)`` grammar of the config files (other text is a
    ``ConfigError``), with the derivatives of ``config.compile_expr``.
    Used to manufacture sources so the field solves the flow exactly, and
    to sample reference values in convergence studies."""

    def __init__(self, expr, dim: int):
        if dim not in (1, 2):
            raise ValidationError("dimension must be 1 or 2")
        self.dim = dim
        self._evaluate = compile_expr(str(expr), dim, True)

    def jet(self, mesh: Mesh, t: float, derivatives: bool = True) -> Jet:
        """The field at the nodes with ``d = (u_x, [u_y,] u_t)`` and ``dd =
        (u_xx, [u_yy])`` when ``derivatives``; a part may be a scalar."""
        coords = (mesh.nodes,) if self.dim == 1 else (mesh.nodes[:, 0], mesh.nodes[:, 1])
        return self._evaluate(coords + (t,), derivatives)

    def sample(self, mesh: Mesh, t: float) -> np.ndarray:
        return np.broadcast_to(self.jet(mesh, t, False).value, (mesh.n_nodes,)).astype(float)


@dataclass
class ProblemTemplate:
    """Problem data without sources; completed by ``manufactured_source``."""

    mesh: Mesh
    c0: float
    gamma: gr.ScalarGraph
    beta: gr.ScalarGraph
    T: float


def _lateral_normal_sign(mesh: Mesh) -> np.ndarray:
    """Outward normal direction (+-1 along x) at each active boundary node."""
    coords = mesh.nodes.reshape(mesh.n_nodes, -1)[:, 0]
    xmin, xmax = float(np.min(coords)), float(np.max(coords))
    tol = 1e-12 * max(1.0, abs(xmax))
    x = coords[mesh.gamma1_nodes]
    at_min = np.abs(x - xmin) <= tol
    at_max = np.abs(x - xmax) <= tol
    if not np.all(at_min | at_max):
        raise ValidationError(
            "active boundary node off the lateral sides; cannot orient the normal")
    sign = np.zeros(mesh.n_nodes)
    sign[mesh.gamma1_nodes] = np.where(at_min, -1.0, 1.0)
    return sign


def manufactured_source(exact: ManufacturedSolution,
                        template: ProblemTemplate) -> ProblemSpec:
    """Complete a problem so that ``exact`` is its solution.

    The volume source is ``c0 * gamma'(u*) * d/dt u* - lap(u*)`` and the
    boundary datum adds the outward normal derivative of the exact field to
    the boundary nonlinearity evaluated along it, each from one jet of the
    field.  The exact field must have zero normal derivative on the
    insulated boundary; that is the caller's choice of field, not checked
    here.
    """
    mesh, c0, gamma, beta = template.mesh, template.c0, template.gamma, template.beta
    normal_sign = _lateral_normal_sign(mesh)

    def g_fn(t: float) -> np.ndarray:
        u = exact.jet(mesh, t)
        return np.broadcast_to(c0 * gamma.derivative(u.value) * u.d[-1] - sum(u.dd),
                               (mesh.n_nodes,))

    def h_fn(t: float) -> np.ndarray:
        u = exact.jet(mesh, t)
        return np.asarray(beta.value(u.value), dtype=float) + normal_sign * u.d[0]

    return ProblemSpec(mesh=mesh, c0=c0, gamma=gamma, beta=beta, g=g_fn, h=h_fn,
                       u0=exact.sample(mesh, 0.0), T=template.T)


def convergence_order(make_template: Callable[[int], ProblemTemplate],
                      exact: ManufacturedSolution, axis: str,
                      levels: Sequence[int], fine: int,
                      config: SolverConfig) -> dict:
    """Observed convergence order of one dyadic refinement study.

    ``axis = "space"`` solves on ``make_template(n)`` for each n in
    ``levels`` with ``fine`` time steps; ``axis = "time"`` solves with m
    steps for each m in ``levels`` on ``make_template(fine)``.  Errors are
    lumped-l2 at the final time, paired with the mesh size or the time
    step, and the order is the slope of their log-log fit (``inf`` when
    every error is below 1e-12).  Needs at least three levels.
    """
    if axis not in ("space", "time"):
        raise InvalidArgument("axis must be space or time")
    if len(levels) < 3:
        raise InsufficientLevels("need at least three refinement levels")

    def run(level: int):
        n_elems, n_steps = (level, fine) if axis == "space" else (fine, level)
        spec = manufactured_source(exact, make_template(n_elems))
        cfg = replace(config, tau=spec.T / n_steps)
        ops = assemble(spec.mesh)
        sol = solve_transient(spec, cfg, ops=ops)
        err = sol.u[-1] - exact.sample(spec.mesh, spec.T)
        if axis == "time":
            size = cfg.tau
        elif spec.mesh.dim == 1:
            size = float(np.max(spec.mesh.element_sizes))
        else:
            size = math.sqrt(2.0 * float(np.max(spec.mesh.element_sizes)))
        return size, math.sqrt(float(err @ (ops.mass * err)))

    errors = [run(level) for level in levels]
    if all(e < 1e-12 for _, e in errors):
        order = math.inf
    else:
        xs = np.log([p[0] for p in errors])
        ys = np.log([max(p[1], 1e-300) for p in errors])
        order = float(np.polyfit(xs, ys, 1)[0])
    return {"order": order, "errors": errors}


# ---------------------------------------------------------------------------
# Continuous dependence
# ---------------------------------------------------------------------------


@dataclass
class DependenceReport:
    lhs: float
    rhs: float
    c_dep: float
    margin: float
    alpha_eff: float
    sup_sq_l2: float
    grad_sq_l2l2: float
    rhs_initial: float
    rhs_g: float
    rhs_h: float


def dependence_check(spec1: ProblemSpec, spec2: ProblemSpec,
                     config: SolverConfig,
                     ops: Optional[AssembledOperators] = None) -> DependenceReport:
    """Two-run stability test for a linear volume graph.

    Checks the squared distance of the two solutions (sup-in-time lumped
    l2 and cumulative gradient dissipation) against the Gronwall constant
    ``2*exp(T/alpha)/(alpha*min(1,1/alpha))`` applied to the data distance,
    with ``alpha = c0*slope``.  Requires a volume graph that is linear by
    its constants (``linear_slope``) with the same slope, and the same heat
    capacity, mesh and horizon on both problems, solved at ``lam = 0`` (no
    regularizing mass term) and without truncation.
    """
    slope1 = spec1.gamma.constants().linear_slope
    slope2 = spec2.gamma.constants().linear_slope
    if slope1 is None or slope2 is None:
        raise HypothesisViolation("dependence check needs a linear volume graph")
    if slope1 != slope2 or spec1.c0 != spec2.c0:
        raise HypothesisViolation("both problems must share the volume graph")
    m1, m2 = spec1.mesh, spec2.mesh
    if (m1.dim != m2.dim or m1.nodes.shape != m2.nodes.shape
            or not np.array_equal(m1.nodes, m2.nodes)
            or not np.array_equal(m1.boundary_labels, m2.boundary_labels)):
        raise HypothesisViolation("both problems must share the mesh")
    if spec1.T != spec2.T:
        raise HypothesisViolation("both problems must share the time horizon")
    if config.lambda_schedule[-1] > 0.0:
        raise HypothesisViolation("dependence check runs without the mass term")
    if config.epsilon != 0.0:
        raise HypothesisViolation("dependence check runs without truncation")
    if config.smooth_u0_lambda != 0.0:
        raise HypothesisViolation("dependence check compares raw initial data")
    alpha = spec1.c0 * slope1
    overflow = HypothesisViolation(
        f"dependence constant overflows a float at T/alpha = {spec1.T / alpha:g}")
    try:
        c_dep = 2.0 * math.exp(spec1.T / alpha) / (alpha * min(1.0, 1.0 / alpha))
    except OverflowError:
        raise overflow from None
    if not math.isfinite(c_dep):
        raise overflow

    ops = ops if ops is not None else assemble(m1)
    sol1 = solve_transient(spec1, config, ops=ops)
    sol2 = solve_transient(spec2, config, ops=ops)
    tau = config.tau

    e = sol1.u - sol2.u
    l2_sq = _lumped(e, e, ops.mass)
    sup_sq = float(np.max(l2_sq))
    grad_sq = tau * float(np.sum(_stiffness_form(ops.stiffness, e[1:])))
    lhs = max(sup_sq, grad_sq)

    rhs_initial = 0.5 * alpha * float(l2_sq[0])
    later = sol1.times[1:]
    dg = _sampled(spec1.g_at, later) - _sampled(spec2.g_at, later)
    dh = _sampled(spec1.h_at, later) - _sampled(spec2.h_at, later)
    rhs_g = tau * float(np.sum(_lumped(dg, dg, ops.mass)))
    rhs_h = tau * float(np.sum(_lumped(dh, dh, ops.boundary_mass)))
    # Mb vanishes off Gamma1: without a Gamma1 node rhs_h is 0 and needs no C_tr
    c_tr_sq = trace_constant(ops) ** 2 if np.any(ops.boundary_mass > 0.0) else 0.0
    rhs = rhs_initial + rhs_g + c_tr_sq * rhs_h
    return DependenceReport(
        lhs=lhs, rhs=rhs, c_dep=c_dep, margin=c_dep * rhs - lhs,
        alpha_eff=alpha, sup_sq_l2=sup_sq, grad_sq_l2l2=grad_sq,
        rhs_initial=rhs_initial, rhs_g=rhs_g, rhs_h=rhs_h)
