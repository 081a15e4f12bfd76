"""Calculus for maximal monotone graphs on the real line.

Every graph here is a (possibly set-valued) maximal monotone map on all
of R with ``0 in graph(0)``.  Its ``value`` is the minimal section, the
element of graph(x) with the smallest absolute value, and
``section_bounds`` gives the ends of graph(x).  Away from lam == 0 the
solver goes through the resolvent

    J_lam(x) = (I + lam*A)^(-1) x,

which is single valued and nonexpansive, and the Yosida approximation
``A_lam = (I - J_lam)/lam``, a monotone ``1/lam``-Lipschitz function,
formed by ``yosida_from_resolvent`` alone (``yosida`` and the Moreau
envelopes build on it).
Every graph takes one vectorized resolvent route, single- and
multi-valued alike: safeguarded Newton inside the bracket
[min(0,x), max(0,x)], which the section bounds shrink
(``_resolvent_solve``).
The module also provides convex potentials (``A = d(potential)``), the
regularized boundary map the stepper uses (``regularized_value``: Yosida
approximation or ``value``, optionally clamped at 1/eps) with its one
slope, a centred difference at every lam (``regularized_derivative``,
the stepper's Newton slope at lam = 0; for lam > 0 Newton reads
``section_bounds`` and ``derivative`` at its own resolvent point), and a
diagnostic suite that samples the standard regularization identities.
No graph is inverted: the suite takes convex conjugates as a supremum
over a grid.
The graph classes are the problem's graphs only: the heat capacity c0
enters as a number where c0*gamma is used, never as a graph of its own.

All evaluation routines take scalars or float arrays, return numpy
floats or float arrays of the input's shape, and are pure; graph objects
are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    GraphAuditError,
    InvalidArgument,
    NonConvergence,
    QuadratureFailure,
)

_BISECT_CAP = 200
_BISECT_REL_WIDTH = 1e-13
_NEWTON_REL_RESIDUAL = 1e-15
_QUADRATURE_TOL = 1e-11
_QUADRATURE_MAX_DEPTH = 48
_QUADRATURE_BLOCK = 1024
# QUADPACK's qk15 rule (Piessens et al., QUADPACK, Springer 1983): each
# nonnegative node of the 15-point Kronrod rule on [-1, 1], its Kronrod
# weight and the weight of the embedded 7-point Gauss rule (0 at a node
# that only the Kronrod rule has); the negative nodes mirror them
_QK15_HALF = np.array([
    (0.99145537112081263920, 0.02293532201052922496, 0.0),
    (0.94910791234275852452, 0.06309209262997855329, 0.12948496616886969327),
    (0.86486442335976907278, 0.10479001032225018383, 0.0),
    (0.74153118559939443986, 0.14065325971552591874, 0.27970539148927666790),
    (0.58608723546769113029, 0.16900472663926790282, 0.0),
    (0.40584515137739716690, 0.19035057806478540991, 0.38183005050511894495),
    (0.20778495500789846760, 0.20443294007529889241, 0.0),
    (0.0, 0.20948214108472782801, 0.41795918367346938775),
])
_QK15_NODES, _QK15_KRONROD, _QK15_GAUSS = np.concatenate(
    [_QK15_HALF, _QK15_HALF[-2::-1] * (-1.0, 1.0, 1.0)]).T


def _asarray(x):
    return np.asarray(x, dtype=float)


def resolvent_target(x):
    """The residual ``_NEWTON_REL_RESIDUAL*max(1,|x|)`` at which the
    inclusion ``x in y + lam*graph(y)`` counts as solved: a few ulps of x."""
    return _NEWTON_REL_RESIDUAL * np.maximum(1.0, np.abs(x))


@dataclass(frozen=True)
class GraphConstants:
    """Structural constants declared at construction and audited by sampling.

    ``lipschitz_lower``/``lipschitz_upper`` bracket difference quotients
    and ``potential_bound_d1``/``d2`` give
    ``|A0(r)| <= d1*potential(r) + d2``.  Fields are ``None`` when the
    graph does not satisfy (or does not declare) the property.  A graph
    is read through these constants, never through its class: one whose
    two Lipschitz constants agree is linear (``linear_slope``).
    """

    lipschitz_lower: Optional[float] = None
    lipschitz_upper: Optional[float] = None
    potential_bound_d1: Optional[float] = None
    potential_bound_d2: Optional[float] = None

    @property
    def bi_lipschitz(self) -> bool:
        return self.lipschitz_lower is not None and self.lipschitz_upper is not None

    @property
    def linear_slope(self) -> Optional[float]:
        """c when both Lipschitz constants are c, else None: a monotone
        graph with 0 in graph(0) and every difference quotient equal to c
        is x -> c*x."""
        if self.lipschitz_lower is not None and self.lipschitz_lower == self.lipschitz_upper:
            return self.lipschitz_lower
        return None


class ScalarGraph:
    """Base class: a maximal monotone graph on R with 0 in graph(0)."""

    label = "graph"
    #: graph(x) is one number at every x, so ``value`` is the whole graph
    single_valued = True

    # -- pointwise evaluation ------------------------------------------------

    def section_bounds(self, x):
        """Return ``(inf graph(x), sup graph(x))`` elementwise; a
        single-valued graph returns its values once, as both bounds."""
        v = self.value(x)
        return v, v

    def value(self, x):
        """The element of graph(x) with the smallest absolute value."""
        raise NotImplementedError

    def derivative(self, x):
        """Pointwise a.e. derivative, +inf where the graph is vertical
        (``sign`` at 0): Newton's lifted step reads that as ``q = 0``, a y
        held on the vertical segment."""
        raise NotImplementedError

    # -- integral quantities -------------------------------------------------

    def potential(self, r):
        """Convex potential ``int_0^r A0(s) ds``, normalized to 0 at 0: by
        the adaptive G7-K15 rule (``_adaptive_kronrod``) unless the graph
        has a closed form."""
        return _adaptive_kronrod(self.value, _asarray(r))

    # -- resolvent machinery ---------------------------------------------------

    def resolvent(self, lam, x):
        """Unique y with ``x in y + lam*graph(y)``, by ``_resolvent_solve``."""
        x = _asarray(x)
        return _resolvent_solve(self, lam, x).reshape(x.shape)

    # -- metadata --------------------------------------------------------------

    def constants(self) -> GraphConstants:
        return GraphConstants()

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


def _adaptive_kronrod(f, r):
    """Adaptive Gauss-Kronrod (G7-K15) quadrature of f over [0, r] for
    every entry of r.

    ``f`` maps 1-D arrays to arrays.  The refinement is breadth first: each
    pass evaluates f at the 15 Kronrod nodes of every open panel of every
    point, and a panel is accepted when ``|K15 - G7| <= eps`` for its
    Kronrod and embedded Gauss estimates, contributing K15; the others
    split in half.  Each point starts from
    ``eps = _QUADRATURE_TOL*max(1, |K0|)`` with K0 its whole-interval
    estimate, and eps halves at every split.  Points
    are integrated in blocks of ``_QUADRATURE_BLOCK`` to bound the memory
    of the open panels.  A non-finite integrand value raises
    QuadratureFailure at once, tested before the weighted sums (the Gauss
    weights hold zeros, and inf*0 is NaN), as does refinement that reaches
    depth ``_QUADRATURE_MAX_DEPTH``, a panel 2**-48 of its interval.
    """
    r = _asarray(r)
    flat = r.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _QUADRATURE_BLOCK):
        block = flat[start:start + _QUADRATURE_BLOCK]
        n = block.size
        lo, hi = np.minimum(block, 0.0), np.maximum(block, 0.0)
        owner = np.arange(n)
        total = np.zeros(n)
        for depth in range(_QUADRATURE_MAX_DEPTH):
            half = 0.5 * (hi - lo)
            nodes = (lo + half)[:, None] + half[:, None] * _QK15_NODES
            values = f(nodes.ravel()).reshape(nodes.shape)
            if not np.all(np.isfinite(values)):
                raise QuadratureFailure("adaptive Gauss-Kronrod met a non-finite integrand")
            kronrod = half * (values @ _QK15_KRONROD)
            gauss = half * (values @ _QK15_GAUSS)
            if depth == 0:
                eps = _QUADRATURE_TOL * np.maximum(1.0, np.abs(kronrod))
            done = np.abs(kronrod - gauss) <= eps
            total += np.bincount(owner[done], weights=kronrod[done], minlength=n)
            split = ~done
            if not np.any(split):
                break
            # open panels continue as their halves [lo, mid] and [mid, hi]
            lo, hi, eps, owner = lo[split], hi[split], eps[split] / 2.0, owner[split]
            mid = lo + half[split]
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            eps, owner = np.tile(eps, 2), np.tile(owner, 2)
        else:
            raise QuadratureFailure("adaptive Gauss-Kronrod refinement stalled")
        out[start:start + n] = np.where(block < 0.0, -total, total)
    return out.reshape(r.shape)


def _resolvent_solve(graph, lam, x):
    """Vectorized safeguarded root finder for the resolvent inclusion.

    Monotonicity and 0 in graph(0) bracket the solution y of
    ``x in y + lam*graph(y)`` in [min(0,x), max(0,x)] (``DomainError`` for
    a graph that breaks that contract).  Every graph takes one loop from
    ``y = x``; a multi-valued one starts at 0 where 0 already solves the
    inclusion, so that its dead zone gives exactly 0.
    With ``[lo(y), hi(y)]`` the section bounds, ``f = y + lam*lo(y) - x``
    and ``f_hi = y + lam*hi(y) - x``; ``f > 0`` moves the bracket's top to
    y and ``f_hi < 0`` its bottom.  A single-valued graph returns one
    array as both bounds, so ``f_hi`` is ``f``.  A point takes the Newton
    step on ``f`` and bisects instead whenever that step is not finite,
    leaves the bracket or is longer than half its previous step (the
    ``rtsafe`` rule of Press et al., Numerical Recipes: far from the root
    of a steep graph, Newton alone shrinks y by a constant factor per step
    and can exhaust the iteration cap).  An infinite slope at a kink gives
    a zero step from a bracket end, so that point bisects too.  A point
    stops once ``f <= t`` and ``f_hi >= -t`` for
    ``t = _NEWTON_REL_RESIDUAL*max(1,|x|)``, or once its bracket is
    narrower than ``_BISECT_REL_WIDTH*max(|lo|,|hi|)``, relative to the
    root rather than to x; never on the step length, which is tiny far
    from the root where the slope is infinite (``power(p)`` with p < 1 at
    0).  A NaN ``f`` or ``f_hi`` orders nothing and raises
    ``NonConvergence`` at once; an infinite one (a steep graph that
    overflows) still orders the bracket.
    """
    x = x.ravel()
    lo, hi = np.minimum(0.0, x), np.maximum(0.0, x)
    with np.errstate(over="ignore"):
        # a steep graph overflows to inf at a far x, which still orders the bracket
        flo_lo, _ = graph.section_bounds(lo)
        _, fhi_hi = graph.section_bounds(hi)
        unbracketed = (np.any(lo + lam * flo_lo - x > 0.0)
                       or np.any(hi + lam * fhi_hi - x < 0.0))
    if unbracketed:
        raise DomainError(f"resolvent of {graph.label} cannot be bracketed")

    target = resolvent_target(x)
    out = np.empty_like(x)
    todo = np.arange(x.size)
    y = np.where(x < 0.0, lo, hi)
    if not graph.single_valued:
        # the dead zone x in lam*graph(0) of a vertical segment at 0
        zero_lo, zero_hi = graph.section_bounds(np.zeros(1))
        y = np.where((lam * zero_lo <= x) & (x <= lam * zero_hi), 0.0, y)
    last_step = hi - lo
    for _ in range(_BISECT_CAP):
        with np.errstate(all="ignore"):
            sec_lo, sec_hi = graph.section_bounds(y)
            f = y + lam * sec_lo - x
            f_hi = f if sec_hi is sec_lo else y + lam * sec_hi - x
        if np.isnan(f).any() or np.isnan(f_hi).any():
            raise NonConvergence(f"resolvent iteration for {graph.label} met a NaN graph value")
        hi = np.where(f > 0.0, y, hi)
        lo = np.where(f_hi < 0.0, y, lo)
        done = ((f <= target) & (f_hi >= -target)) | _bracket_closed(lo, hi)
        out[todo[done]] = y[done]
        if np.all(done):
            return out
        keep = ~done
        todo, x, y, f, lo, hi, last_step, target = (
            v[keep] for v in (todo, x, y, f, lo, hi, last_step, target))
        with np.errstate(all="ignore"):
            # the slope only where the point goes on
            step = f / (1.0 + lam * graph.derivative(y))
            y_new = y - step
        newton = (lo < y_new) & (y_new < hi) & (np.abs(step) <= 0.5 * last_step)
        # halved ends: lo + hi overflows for a bracket near the float limit
        y = np.where(newton, y_new, 0.5 * lo + 0.5 * hi)
        last_step = np.where(newton, np.abs(step), 0.5 * (hi - lo))
    raise NonConvergence(
        f"resolvent iteration for {graph.label} exceeded {_BISECT_CAP} iterations")


def _bracket_closed(lo, hi):
    """Brackets narrower than ``_BISECT_REL_WIDTH`` relative to the larger
    endpoint magnitude, with no floor: near 0 an absolute width would leave
    J good only to 1e-13, which ``lam*graph(J)`` magnifies at a large lam."""
    return hi - lo <= _BISECT_REL_WIDTH * np.maximum(np.abs(lo), np.abs(hi))


# ---------------------------------------------------------------------------
# Built-in graphs
# ---------------------------------------------------------------------------


class Linear(ScalarGraph):
    """The graph x -> alpha*x with alpha > 0."""

    def __init__(self, alpha: float):
        if not alpha > 0.0:
            raise InvalidArgument("linear graph needs a positive slope")
        self.alpha = float(alpha)
        self.label = f"linear({self.alpha:g})"

    def value(self, x):
        return self.alpha * _asarray(x)

    def derivative(self, x):
        return np.full_like(_asarray(x), self.alpha)

    def potential(self, r):
        return 0.5 * self.alpha * _asarray(r) ** 2

    def constants(self):
        return GraphConstants(
            lipschitz_lower=self.alpha,
            lipschitz_upper=self.alpha,
            potential_bound_d1=2.0,
            potential_bound_d2=self.alpha / 4.0,
        )


class SaturatingBiLipschitz(ScalarGraph):
    """x -> alpha*x + b*x/(1+|x|); slope stays in [alpha, alpha+b].

    A strictly monotone bi-Lipschitz graph whose curvature saturates, with
    a closed-form potential.
    """

    def __init__(self, alpha: float, b: float):
        if not (alpha > 0.0 and b >= 0.0):
            raise InvalidArgument("saturating graph needs alpha > 0 and b >= 0")
        self.alpha = float(alpha)
        self.b = float(b)
        self.label = f"saturating({self.alpha:g},{self.b:g})"

    def value(self, x):
        x = _asarray(x)
        return self.alpha * x + self.b * x / (1.0 + np.abs(x))

    def derivative(self, x):
        x = _asarray(x)
        return self.alpha + self.b / (1.0 + np.abs(x)) ** 2

    def potential(self, r):
        r = _asarray(r)
        a = np.abs(r)
        return 0.5 * self.alpha * r**2 + self.b * (a - np.log1p(a))

    def constants(self):
        return GraphConstants(
            lipschitz_lower=self.alpha,
            lipschitz_upper=self.alpha + self.b,
            potential_bound_d1=2.0 * (self.alpha + self.b) / self.alpha,
            potential_bound_d2=(self.alpha + self.b) / 4.0,
        )


class Power(ScalarGraph):
    """Odd power graph x -> sign(x)*|x|^p, p > 0."""

    def __init__(self, p: float):
        if not p > 0.0:
            raise InvalidArgument("power graph needs p > 0")
        self.p = float(p)
        self.label = f"power({self.p:g})"

    def value(self, x):
        x = _asarray(x)
        return np.sign(x) * np.abs(x) ** self.p

    def derivative(self, x):
        x = _asarray(x)
        with np.errstate(divide="ignore"):
            d = self.p * np.abs(x) ** (self.p - 1.0)
        return d

    def potential(self, r):
        return np.abs(_asarray(r)) ** (self.p + 1.0) / (self.p + 1.0)

    def constants(self):
        if self.p == 1.0:
            return GraphConstants(
                lipschitz_lower=1.0, lipschitz_upper=1.0,
                potential_bound_d1=2.0, potential_bound_d2=0.25)
        return GraphConstants(potential_bound_d1=self.p + 1.0, potential_bound_d2=1.0)


class Sign(ScalarGraph):
    """Subdifferential of |x|: the sign graph, set-valued at the origin."""

    single_valued = False

    def __init__(self):
        self.label = "sign"

    def section_bounds(self, x):
        x = _asarray(x)
        lo = np.where(x > 0.0, 1.0, -1.0)
        hi = np.where(x < 0.0, -1.0, 1.0)
        return lo, hi

    def value(self, x):
        x = _asarray(x)
        return np.where(x > 0.0, 1.0, np.where(x < 0.0, -1.0, 0.0))

    def derivative(self, x):
        x = _asarray(x)
        return np.where(x == 0.0, np.inf, 0.0)

    def potential(self, r):
        return np.abs(_asarray(r))

    def constants(self):
        return GraphConstants(potential_bound_d1=1.0, potential_bound_d2=1.0)


class PhysicalBeta(ScalarGraph):
    """Boundary radiation law r -> h*w + s*|w|^3*w with w = inner(r).

    With the identity inner graph this is the linear-plus-fourth-power
    radiative flux; using the problem's own temperature graph as ``inner``
    reproduces the physical boundary nonlinearity of the heating model.
    """

    def __init__(self, h_coef: float, s_coef: float, inner: Optional[ScalarGraph] = None):
        if not (h_coef >= 0.0 and s_coef >= 0.0 and h_coef + s_coef > 0.0):
            raise InvalidArgument("physical graph needs nonnegative h, s, not both zero")
        self.h_coef = float(h_coef)
        self.s_coef = float(s_coef)
        self.inner = inner if inner is not None else Linear(1.0)
        if not self.inner.single_valued:
            raise InvalidArgument("physical graph needs a single-valued inner graph")
        self.label = f"physical(h={self.h_coef:g},s={self.s_coef:g};{self.inner.label})"

    # each s term enters only when s > 0: with s = 0 it would be 0*inf,
    # NaN, once |w|^3 overflows

    def value(self, x):
        w = self.inner.value(x)
        if self.s_coef > 0.0:
            return self.h_coef * w + self.s_coef * np.abs(w) ** 3 * w
        return self.h_coef * w

    def derivative(self, x):
        w = self.inner.value(x)
        slope = self.h_coef
        if self.s_coef > 0.0:
            slope = self.h_coef + 4.0 * self.s_coef * np.abs(w) ** 3
        return slope * self.inner.derivative(x)

    def potential(self, r):
        cd = self.inner.constants().linear_slope
        if cd is not None:
            # a numpy power: cd**4 overflows to inf past a slope of ~1e77
            cd = np.float64(cd)
            r = _asarray(r)
            val = 0.5 * self.h_coef * cd * r**2
            if self.s_coef > 0.0:
                val = val + 0.2 * self.s_coef * cd**4 * np.abs(r) ** 5
            return val
        return super().potential(r)

    def constants(self):
        inner_c = self.inner.constants()
        if not inner_c.bi_lipschitz:
            return GraphConstants()
        ci, Ci = inner_c.lipschitz_lower, inner_c.lipschitz_upper
        ratio = (Ci / ci) ** 4
        return GraphConstants(
            potential_bound_d1=5.0 * ratio,
            potential_bound_d2=self.h_coef * Ci + self.s_coef * Ci**4,
        )


class CompositeSum(ScalarGraph):
    """Pointwise sum of monotone graphs (again maximal monotone on R)."""

    def __init__(self, parts: Sequence[ScalarGraph]):
        if not parts:
            raise InvalidArgument("composite graph needs at least one part")
        self.parts = tuple(parts)
        self.label = "sum(" + ",".join(p.label for p in self.parts) + ")"

    @property
    def single_valued(self):  # type: ignore[override]
        return all(p.single_valued for p in self.parts)

    def section_bounds(self, x):
        if self.single_valued:
            return super().section_bounds(x)
        lo = hi = 0.0
        for p in self.parts:
            plo, phi = p.section_bounds(x)
            lo = lo + plo
            hi = hi + phi
        return lo, hi

    def value(self, x):
        return sum(p.value(x) for p in self.parts)

    def derivative(self, x):
        return sum(p.derivative(x) for p in self.parts)

    def potential(self, r):
        return sum(p.potential(r) for p in self.parts)

    def constants(self):
        parts = [p.constants() for p in self.parts]

        def total(attr):
            vals = [getattr(c, attr) for c in parts]
            return None if any(v is None for v in vals) else sum(vals)

        return GraphConstants(
            lipschitz_lower=total("lipschitz_lower"),
            lipschitz_upper=total("lipschitz_upper"),
        )


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def resolvent(graph: ScalarGraph, lam: float, x):
    """Resolvent ``(I + lam*graph)^(-1)`` evaluated at x, lam > 0."""
    if not lam > 0.0:
        raise InvalidArgument("resolvent needs lam > 0")
    return graph.resolvent(lam, x)


def yosida(graph: ScalarGraph, lam: float, x):
    """Yosida approximation ``(x - J_lam(x))/lam``, by ``yosida_from_resolvent``
    at the resolvent of x."""
    if not lam > 0.0:
        raise InvalidArgument("yosida needs lam > 0")
    x = _asarray(x)
    return yosida_from_resolvent(graph, lam, x, graph.resolvent(lam, x))


def yosida_from_resolvent(graph: ScalarGraph, lam: float, x, j):
    """The Yosida value at x from its resolvent ``j = J_lam(x)``: the
    quotient ``(x - j)/lam``, clipped into graph(j) where j meets the
    resolvent's residual test, so a single-valued graph gives its value at
    j, which no cancellation in ``x - j`` at a tiny lam can lose."""
    target = resolvent_target(x)
    with np.errstate(over="ignore"):
        # inf from a steep graph fails the test; an inf quotient clips back
        lo, hi = graph.section_bounds(j)
        quotient = (x - j) / lam
        solved = (j + lam * lo - x <= target) & (j + lam * hi - x >= -target)
    return np.clip(quotient, np.where(solved, lo, -np.inf), np.where(solved, hi, np.inf))


def moreau_envelope(graph: ScalarGraph, lam: float, x):
    """Quadratic inf-convolution of the potential; minimum sits at J_lam(x) = x - lam*A_lam(x)."""
    a = yosida(graph, lam, x)
    return 0.5 * lam * a**2 + graph.potential(_asarray(x) - lam * a)


def regularized_value(graph: ScalarGraph, lam: float, eps: float, r):
    """Boundary nonlinearity actually used by the stepper.

    lam > 0 selects the Yosida approximation, lam == 0 the graph's value,
    its minimal section; eps > 0 applies the hard clamp at 1/eps, eps == 0
    disables it.
    """
    r = _asarray(r)
    out = yosida(graph, lam, r) if lam > 0.0 else graph.value(r)
    if eps > 0.0:
        out = np.clip(out, -1.0 / eps, 1.0 / eps)
    return out


def regularized_derivative(graph: ScalarGraph, lam: float, eps: float, r):
    """Generalized slope of ``regularized_value``: nonnegative, and at most
    its Lipschitz bound 1/lam when lam > 0.  The stepper's Newton takes it
    at lam = 0, where y is u.

    The regularized map is only piecewise smooth (resolvent dead zones,
    clamp thresholds, kinks of the graph itself); a branch derivative picks
    the wrong branch whenever the iterate sits within rounding of a kink,
    which stalls Newton: at lam = 0, ``power(3)`` clamped at 1/eps = 2 has
    the slope 0 or 3r^2 = 4.76 at r = 2^(1/3) as one ulp of r decides.  A
    short centered difference of the map itself selects a valid element of
    the generalized Jacobian on either side of (or astride) every kink, at
    every lam >= 0 (2.38 there).
    """
    r = _asarray(r)
    delta = 1e-6 * np.maximum(1.0, np.abs(r))
    up = regularized_value(graph, lam, eps, r + delta)
    dn = regularized_value(graph, lam, eps, r - delta)
    return np.maximum((up - dn) / (2.0 * delta), 0.0)


def regularized_potential(graph: ScalarGraph, lam: float, r):
    """Potential of the working nonlinearity: Moreau envelope, or the
    potential itself when lam == 0."""
    if lam > 0.0:
        return moreau_envelope(graph, lam, r)
    return graph.potential(r)


# ---------------------------------------------------------------------------
# Constants audit and diagnostic property suite
# ---------------------------------------------------------------------------

_AUDIT_SAMPLES = np.sort(np.concatenate([
    np.linspace(-8.0, 8.0, 33),
    np.array([-0.73, -0.11, 0.07, 0.42, 1.9, 3.3]),
]))
_AUDIT_REL_SLACK = 1e-9


def audit_constants(graph: ScalarGraph) -> None:
    """Cross-check declared constants against sampled behaviour at
    ``_AUDIT_SAMPLES``, up to the relative slack ``_AUDIT_REL_SLACK``.

    Raises GraphAuditError on any violation; silence means the declared
    constants are safe to plug into bound formulas.
    """
    x, rel_slack = _AUDIT_SAMPLES, _AUDIT_REL_SLACK
    c = graph.constants()
    sec = graph.value(x)
    pot = graph.potential(x)
    slack = rel_slack * np.maximum(1.0, np.abs(sec))

    if c.lipschitz_lower is not None or c.lipschitz_upper is not None:
        dx = np.diff(x)
        dv = np.diff(sec)
        if c.lipschitz_lower is not None and np.any(dv < c.lipschitz_lower * dx * (1 - rel_slack) - rel_slack):
            raise GraphAuditError(f"{graph.label}: declared lower Lipschitz bound too large")
        if c.lipschitz_upper is not None and np.any(dv > c.lipschitz_upper * dx * (1 + rel_slack) + rel_slack):
            raise GraphAuditError(f"{graph.label}: declared upper Lipschitz bound too small")
    if c.potential_bound_d1 is not None:
        if np.any(np.abs(sec) > c.potential_bound_d1 * pot + c.potential_bound_d2 + slack):
            raise GraphAuditError(f"{graph.label}: potential growth bound violated")


@dataclass
class PropertyCheck:
    graph: str
    prop: str
    lam: Optional[float]
    x: Optional[float]
    passed: bool
    error: float


@dataclass
class PropertyReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def worst_error(self) -> float:
        return max((c.error for c in self.checks), default=0.0)


def _grid_conjugate(graph, xi, anchor):
    """Conjugate values by finite supremum over a grid plus each anchor point."""
    grid = np.linspace(-12.0, 12.0, 2001)
    on_grid = np.max(np.outer(xi, grid) - graph.potential(grid), axis=1)
    return np.maximum(on_grid, anchor * xi - graph.potential(anchor))


def graph_property_suite(graph: ScalarGraph, lam_list: Sequence[float],
                         sample_points: Sequence[float],
                         tol: float = 1e-10) -> PropertyReport:
    """Sample the standard regularization identities on a grid.

    ``lam_list`` must be positive and strictly decreasing.  Each identity produces one
    check per (lam, x) pair (pair-based identities report the worst
    partner), tagged pass/fail against ``tol``, 1e-10 by default.
    Purely diagnostic: nothing is mutated and nothing raises on failure.
    """
    lams = [float(l) for l in lam_list]
    if not lams or any(b >= a for a, b in zip(lams, lams[1:])):
        raise InvalidArgument("lam_list must be nonempty and strictly decreasing")
    if not all(l > 0.0 for l in lams):
        raise InvalidArgument("lam_list entries must be positive")
    xs = np.sort(_asarray(sample_points))
    if xs.size == 0:
        raise InvalidArgument("sample_points must be nonempty")
    rep = PropertyReport()
    name = graph.label

    def add(prop, lam, passed, error):
        """One check per sample point: passed flags and errors are arrays over xs."""
        for x, ok, e in zip(xs, passed, error):
            rep.checks.append(PropertyCheck(name, prop, lam, float(x), bool(ok), float(e)))

    a0 = np.abs(graph.value(xs))
    j_by_lam = {l: graph.resolvent(l, xs) for l in lams}
    a_by_lam = {l: yosida(graph, l, xs) for l in lams}
    env_by_lam = {l: moreau_envelope(graph, l, xs) for l in lams}
    pot = graph.potential(xs)
    scale = np.maximum(1.0, np.abs(xs))
    pot_scale = np.maximum(1.0, np.abs(pot))
    dxs = np.abs(xs[:, None] - xs[None, :])
    # a pair rounds in the units of its larger partner, not of x
    pair_scale = np.maximum(scale[:, None], scale[None, :])
    # a jump at 0 puts a kink in every envelope at each end of its dead
    # zone lam*graph(0)
    zero_lo, zero_hi = graph.section_bounds(np.zeros(1))

    def worst_partner(excess, allowed):
        """Per x: whether every partner's excess is within ``allowed``, and
        the worst excess."""
        return np.all(excess <= allowed, axis=1), np.maximum(np.max(excess, axis=1), 0.0)

    for l in lams:
        j = j_by_lam[l]
        a = a_by_lam[l]
        # resolvent nonexpansive / Yosida 1/lam-Lipschitz
        add("resolvent_nonexpansive", l,
            *worst_partner(np.abs(j[:, None] - j[None, :]) - dxs, tol * pair_scale))
        add("yosida_lipschitz", l,
            *worst_partner(np.abs(a[:, None] - a[None, :]) - dxs / l, tol * pair_scale / l))
        # A_lam(x) lands in graph(J_lam(x)), checked as the inclusion the
        # resolvent solves, x - J in lam*graph(J): in x's units, as its own
        # stopping test, since dividing by lam would scale an ulp of J by 1/lam
        lo, hi = graph.section_bounds(j)
        gap = xs - j
        e = np.maximum(np.maximum(l * lo - gap, gap - l * hi), 0.0)
        add("yosida_in_graph", l, e <= tol * scale, e)
        # dominated by the minimal section
        e = np.maximum(np.abs(a) - a0, 0.0)
        add("yosida_dominated", l, e <= tol * scale, e)
        # nested regularization collapses, (A_mu)_lam == A_{mu+lam}: at
        # mu = lam, a = A_{2 lam}(x) solves its defining relation
        # a = A_lam(x - lam*a), which rounds in the units of the Yosida
        # value where that is the larger: 1e12 for power(3) at x = 1e4
        a2 = yosida(graph, 2.0 * l, xs)
        e = np.abs(yosida(graph, l, xs - l * a2) - a2)
        add("resolvent_semigroup", l, e <= tol * np.maximum(scale, np.abs(a)), e)
        # envelope gradient matches the Yosida approximation; checked as a
        # limit: the central difference either sits at tolerance already or
        # shrinks by the expected factor when h is reduced
        def _fd_error(h):
            env_p = moreau_envelope(graph, l, xs + h)
            env_m = moreau_envelope(graph, l, xs - h)
            return np.abs((env_p - env_m) / (2.0 * h) - a)

        h1 = 1e-3 * scale
        if zero_hi[0] > zero_lo[0]:
            # astride both kinks the difference measures the zone, not the
            # gradient: h stays below half the distance to the farther kink,
            # and astride one kink the error still shrinks linearly
            far = np.maximum(np.abs(xs - l * zero_lo), np.abs(xs - l * zero_hi))
            h1 = np.minimum(h1, 0.5 * far)
        err1 = _fd_error(h1)
        err2 = _fd_error(h1 / 8.0)
        gtol = tol * np.maximum(1.0, np.abs(a))
        add("envelope_gradient", l, err2 <= np.maximum(0.35 * err1, gtol), err2)

    for la, lb in zip(lams, lams[1:]):
        # |A_lam x| cannot decrease as lam decreases
        e = np.maximum(np.abs(a_by_lam[la]) - np.abs(a_by_lam[lb]), 0.0)
        add("yosida_dominated", lb, e <= tol * scale, e)
        # envelopes increase monotonically to the potential as lam decreases
        e = np.maximum(env_by_lam[la] - env_by_lam[lb], 0.0)
        add("envelope_monotone", lb, e <= tol * pot_scale, e)
    e = np.maximum(env_by_lam[lams[-1]] - pot, 0.0)
    add("envelope_monotone", lams[-1], e <= tol * pot_scale, e)
    e = np.maximum(pot - env_by_lam[lams[-1]] - lams[-1] * a0**2, 0.0)
    add("envelope_converges", lams[-1], e <= max(tol, 1e-8) * pot_scale, e)

    # conjugate duality: potential(x) + conjugate(xi) == x*xi on the graph;
    # the grid supremum exceeds its anchor x*xi - potential(x) exactly when
    # the potential is not the primitive of the graph's values
    sec = graph.value(xs)
    e = np.abs(pot + _grid_conjugate(graph, sec, xs) - xs * sec)
    add("fenchel_young", None, e <= tol * np.maximum(1.0, np.abs(xs * sec)), e)

    return rep


#: graphs exercised by default in diagnostics and the command line front end
def builtin_graphs():
    return [
        Linear(2.0),
        SaturatingBiLipschitz(1.0, 1.0),
        PhysicalBeta(1.0, 1.0),
        Power(3.0),
        Sign(),
    ]
