import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from monoheat import fem, graphs as gr
from monoheat.errors import (
    DomainError,
    GraphAuditError,
    InvalidArgument,
    NonConvergence,
    QuadratureFailure,
    ValidationError,
)
from monoheat.stepper import check_volume_graph


def oracle_resolvent(beta_fn, lam, x, lo, hi, iters=200):
    """Independent bisection on y + lam*beta(y) - x, used as a test oracle."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid + lam * beta_fn(mid) > x:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestResolvent:
    def test_linear_closed_form(self):
        assert gr.resolvent(gr.Linear(2.0), 0.5, 4.0) == pytest.approx(2.0, abs=1e-12)

    def test_sign_dead_zone(self):
        assert gr.resolvent(gr.Sign(), 1.0, 0.3) == 0.0

    def test_physical_beta_against_bisection_oracle(self):
        # root of y^4 + 2y - 3 = 0, which is exactly 1
        beta = gr.PhysicalBeta(1.0, 1.0)
        expected = oracle_resolvent(lambda y: y + abs(y) ** 3 * y, 1.0, 3.0, 0.0, 3.0)
        assert expected == pytest.approx(1.0, abs=1e-12)
        assert gr.resolvent(beta, 1.0, 3.0) == pytest.approx(expected, abs=1e-10)

    def test_composite_linear_plus_sign(self):
        # shifted soft threshold: y(1+lam) + lam*sign(y) = x away from the dead zone
        comp = gr.CompositeSum([gr.Linear(1.0), gr.Sign()])
        lam = 0.5
        assert gr.resolvent(comp, lam, 0.4) == pytest.approx(0.0, abs=1e-12)
        x = 2.0
        expected = (x - lam) / (1.0 + lam)
        assert gr.resolvent(comp, lam, x) == pytest.approx(expected, abs=1e-10)

    def test_physical_beta_without_radiation_far_out(self):
        # s = 0 adds no s*|w|^3*w term, which is 0*inf = NaN once |w|^3
        # overflows: the graph is 1*w and y + y = x
        beta = gr.PhysicalBeta(1.0, 0.0)
        assert gr.resolvent(beta, 1.0, np.array([1e103])) == pytest.approx([5e102], rel=1e-15)
        assert beta.value(1e103) == 1e103 and beta.derivative(1e103) == 1.0
        assert beta.potential(1e103) == pytest.approx(0.5e206, rel=1e-15)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(InvalidArgument):
            gr.resolvent(gr.Linear(1.0), 0.0, 1.0)


_NEWTON_RESOLVENT_GRAPHS = [
    gr.Power(0.5),
    gr.Power(3.0),
    gr.CompositeSum([gr.Linear(1.0), gr.Power(4.0)]),
    gr.PhysicalBeta(1.0, 1.0, inner=gr.Linear(2.0)),
    gr.PhysicalBeta(1.0, 1.0, inner=gr.SaturatingBiLipschitz(1.0, 1.0)),
]


class TestSafeguardedNewtonResolvent:
    """The generic resolvent of a single-valued graph: Newton inside the
    bracket [min(0,x), max(0,x)], with bisection as the safeguard."""

    @pytest.mark.parametrize("graph", _NEWTON_RESOLVENT_GRAPHS, ids=lambda g: g.label)
    @pytest.mark.parametrize("lam", [0.0625, 1.0, 8.0])
    def test_residual_bracket_and_monotone(self, graph, lam):
        rng = np.random.default_rng(7)
        x = np.sort(np.concatenate([rng.uniform(-3.0, 3.0, 400), rng.uniform(-50.0, 50.0, 40),
                                    [-50.0, -1e-300, 0.0, 1e-300, 50.0]]))
        y = gr.resolvent(graph, lam, x)
        residual = y + lam * graph.value(y) - x
        assert np.all(np.abs(residual) <= 1e-14 * np.maximum(1.0, np.abs(x)))
        assert np.all((np.minimum(0.0, x) <= y) & (y <= np.maximum(0.0, x)))
        assert np.all(np.diff(y) >= 0.0)
        assert y[x == 0.0] == 0.0
        assert gr.resolvent(graph, lam, 0.0) == 0.0

    def test_infinite_slope_at_origin(self):
        # power(0.5): Newton's step from 0 is 0, which a step-length test
        # would accept as converged; y + sqrt(y) = 2 has the root 1
        assert gr.resolvent(gr.Power(0.5), 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)
        assert gr.resolvent(gr.Power(0.5), 1.0, -2.0) == pytest.approx(-1.0, rel=1e-15)

    def test_far_outlier_on_steep_power(self):
        # Newton alone shrinks y by 1/9 per step from x = 1e12 and would need
        # more than the iteration cap; the halving rule bisects instead, and
        # the bracket closes relative to the root (about 21.5), not to x; at
        # x = 1e40 the bracket check's graph value overflows to inf, silently
        for x in (1e12, 1e40):
            y = gr.resolvent(gr.Power(9.0), 1.0, x)
            assert y + y**9 == pytest.approx(x, rel=1e-14)

    def test_tiny_root_closes_its_bracket_relative_to_itself(self):
        # the root 1e-5/(1 + 2e10) sits near 0: a bracket closed at the
        # absolute width 1e-13 returned 7.45e-14, which lam*graph(J)
        # magnifies a millionfold
        for x in (1e-5, -1e-5):
            y = gr.resolvent(gr.Linear(2.0), 1e10, x)
            assert y == pytest.approx(x / (1.0 + 2e10), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("graph,lam,x", [
        (gr.Linear(2.0), 1.0, [1.7e308, -1.7e308]),
    ], ids=["linear-float-limit"])
    def test_root_anywhere_in_the_float_range(self, graph, lam, x):
        # near the float limit lo + hi and x + lam*graph(x) overflow,
        # silently: the bisection halves each end before it adds them
        x = np.array(x)
        y = gr.resolvent(graph, lam, x)
        lo, hi = graph.section_bounds(y)
        gap = x - y
        e = np.maximum(np.maximum(lam * lo - gap, gap - lam * hi), 0.0)
        assert np.all(e <= 1e-15 * np.abs(x))

    def test_matches_bisection_oracle(self):
        beta = gr.CompositeSum([gr.Linear(1.0), gr.Power(4.0)])
        for x in (-7.5, -0.3, 0.8, 2.0, 41.0):
            expected = oracle_resolvent(lambda y: y + abs(y) ** 3 * y, 0.25, x,
                                        min(0.0, x), max(0.0, x))
            assert gr.resolvent(beta, 0.25, x) == pytest.approx(expected, rel=1e-14)

    def test_array_shape_preserved(self):
        x = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        y = gr.resolvent(gr.Power(3.0), 0.5, x)
        assert y.shape == (3, 4)
        assert np.array_equal(y.ravel(), gr.resolvent(gr.Power(3.0), 0.5, x.ravel()))

    def test_unbracketable_root_is_domain_error(self):
        class Shifted(gr.ScalarGraph):
            # monotone, but 0 is not in graph(0): the root of y + (y + 1) = x
            # leaves the bracket [min(0,x), max(0,x)] for x < 1
            label = "shifted"

            def value(self, x):
                return np.asarray(x, dtype=float) + 1.0

            def derivative(self, x):
                return np.ones_like(np.asarray(x, dtype=float))

        assert gr.resolvent(Shifted(), 1.0, 3.0) == pytest.approx(1.0)
        with pytest.raises(DomainError, match="cannot be bracketed"):
            gr.resolvent(Shifted(), 1.0, 0.5)

    def test_undefined_graph_raises_on_nan(self):
        # a NaN graph value orders nothing, so the loop stops at once
        # instead of bisecting to the iteration cap
        with pytest.raises(NonConvergence, match="NaN"):
            gr.resolvent(_Undefined(), 1.0, 2.0)


_MULTI_VALUED_GRAPHS = [
    gr.CompositeSum([gr.Linear(1.0), gr.Sign()]),
    gr.CompositeSum([gr.Power(3.0), gr.Sign()]),
]


class TestMultiValuedResolvent:
    """The same safeguarded loop for a graph with a vertical segment
    (``sign`` inside a sum): the section bounds shrink the bracket, and
    Newton at the kink's infinite slope bisects."""

    @pytest.mark.parametrize("graph", _MULTI_VALUED_GRAPHS, ids=lambda g: g.label)
    def test_monotone_bracketed_inclusion(self, graph):
        rng = np.random.default_rng(11)
        x = np.sort(np.concatenate([rng.uniform(-4.0, 4.0, 400), rng.uniform(-60.0, 60.0, 40),
                                    [-1e-300, 0.0, 1e-300]]))
        for lam in rng.uniform(0.01, 5.0, 6):
            y = gr.resolvent(graph, lam, x)
            assert np.all(np.diff(y) >= 0.0)
            assert np.all((np.minimum(0.0, x) <= y) & (y <= np.maximum(0.0, x)))
            # graph(0) = [-1, 1]: the dead zone |x| <= lam maps to 0 exactly
            assert np.all(y[np.abs(x) <= lam] == 0.0)
            # x in y + lam*graph(y) up to the closed bracket's width w and
            # the residual target
            w = 1e-13 * np.maximum(1.0, np.abs(y))
            t = 1e-15 * np.maximum(1.0, np.abs(x))
            lo, _ = graph.section_bounds(y - w)
            _, hi = graph.section_bounds(y + w)
            assert np.all(y - w + lam * lo <= x + t)
            assert np.all(x - t <= y + w + lam * hi)

    def test_nan_section_bound_is_nonconvergence(self):
        # a NaN bound compares false both ways; read as an exact hit it
        # returned the first midpoints [0.25, 1.5, -3.5]
        graph = gr.CompositeSum([_Undefined(), gr.Sign()])
        with pytest.raises(NonConvergence, match="NaN"):
            gr.resolvent(graph, 1.0, np.array([0.5, 3.0, -7.0]))

    def test_overflowing_section_bound_still_orders(self):
        # power(9) overflows to inf at the first midpoints of x = +-1e40; an
        # infinite bound still says which half holds the root
        graph = gr.CompositeSum([gr.Power(9.0), gr.Sign()])
        x = np.array([1e40, -1e40])
        with np.errstate(over="ignore"):
            y = gr.resolvent(graph, 1.0, x)
        assert np.all(np.isfinite(y))
        assert y + y**9 + np.sign(y) == pytest.approx(x, rel=1e-12)


class _Undefined(gr.ScalarGraph):
    # zero at the origin and NaN elsewhere, so f never changes sign
    label = "undefined"

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x == 0.0, 0.0, np.nan)

    def derivative(self, x):
        return np.full_like(np.asarray(x, dtype=float), np.nan)


class TestYosida:
    def test_linear(self):
        assert gr.yosida(gr.Linear(2.0), 0.5, 4.0) == pytest.approx(4.0, abs=1e-12)

    def test_sign_clamp(self):
        assert gr.yosida(gr.Sign(), 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)
        assert gr.yosida(gr.Sign(), 0.1, 3.0) == pytest.approx(1.0, abs=1e-14)

    def test_tiny_lambda_reads_the_graph_at_the_resolvent(self):
        # x - J cancels to 0 or to rounding once lam is far below the
        # spacing of x, so the quotient (x - J)/lam alone reads 0 here
        np.testing.assert_array_equal(gr.yosida(gr.Sign(), 1e-300, [0.5, 0.3, -0.7]),
                                      [1.0, 1.0, -1.0])
        comp = gr.CompositeSum([gr.Linear(1.0), gr.Power(4.0)])
        assert gr.yosida(comp, 1e-15, 0.5) == pytest.approx(0.5625, rel=1e-14)

    def test_dead_zone_and_closed_bracket_keep_the_quotient(self):
        # J = 0 in the dead zone, where graph(0) = [-1, 1] holds x/lam
        assert gr.yosida(gr.Sign(), 1e-3, 1e-301) == pytest.approx(1e-298, rel=1e-15)
        # near 0, J = x only closes its bracket, with a residual of sqrt(x):
        # beta(J) would be 1e6 times |x|/lam and fall as x grows
        x = np.array([1e-13, 1.5e-13, 1e-12])
        a = gr.yosida(gr.Power(0.5), 1.0, x)
        assert np.all(np.diff(a) >= 0.0)
        assert np.all(np.abs(a) <= np.abs(x))

    def test_physical_beta_lands_in_graph(self):
        beta = gr.PhysicalBeta(1.0, 1.0)
        a_lam = gr.yosida(beta, 1.0, 3.0)
        j_lam = gr.resolvent(beta, 1.0, 3.0)
        assert a_lam == pytest.approx(2.0, abs=1e-9)
        assert a_lam == pytest.approx(float(beta.value(j_lam)), abs=1e-9)


class TestMinimalSection:
    def test_sign_at_origin(self):
        assert gr.Sign().value(0.0) == 0.0

    def test_single_valued(self):
        assert gr.Linear(2.0).value(3.0) == 6.0
        assert gr.PhysicalBeta(1.0, 1.0).value(1.0) == pytest.approx(2.0)

    def test_composite_interval(self):
        comp = gr.CompositeSum([gr.Linear(1.0), gr.Sign()])
        # graph(0) = [-1, 1], minimal element is 0
        assert comp.value(0.0) == 0.0


class TestPotential:
    def test_normalization_at_zero(self):
        for graph in gr.builtin_graphs():
            assert graph.potential(0.0) == 0.0

    def test_linear(self):
        assert gr.Linear(2.0).potential(3.0) == pytest.approx(9.0, abs=1e-12)

    def test_physical_beta_closed_form_vs_quadrature(self):
        beta = gr.PhysicalBeta(1.0, 1.0)
        expected, err = quad(lambda s: s + abs(s) ** 3 * s, 0.0, 1.0, epsabs=1e-13)
        assert expected == pytest.approx(0.7, abs=1e-10)
        assert beta.potential(1.0) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("inner", [
        gr.Power(1.0),
        gr.CompositeSum([gr.Linear(0.5), gr.Linear(0.5)]),
    ], ids=lambda g: g.label)
    def test_closed_form_for_an_inner_graph_linear_by_its_constants(self, monkeypatch, inner):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran around a linear inner graph")
        monkeypatch.setattr(gr, "_adaptive_kronrod", no_quadrature)
        r = np.linspace(-3.0, 3.0, 13)
        got = gr.PhysicalBeta(1.0, 1.0, inner=inner).potential(r)
        expected = gr.PhysicalBeta(1.0, 1.0, inner=gr.Linear(1.0)).potential(r)
        assert np.array_equal(got, expected)

    def test_generic_quadrature_path(self):
        # nonlinear inner graph has no closed-form potential
        beta = gr.PhysicalBeta(1.0, 1.0, inner=gr.SaturatingBiLipschitz(1.0, 1.0))
        w = lambda s: s + s / (1.0 + abs(s))
        expected, _ = quad(lambda s: w(s) + abs(w(s)) ** 3 * w(s), 0.0, 1.3,
                           epsabs=1e-13)
        assert beta.potential(1.3) == pytest.approx(expected, abs=1e-9)


class _Expm1(gr.ScalarGraph):
    label = "expm1"

    def value(self, x):
        with np.errstate(over="ignore"):
            return np.expm1(np.asarray(x, dtype=float))


class _Kinked(gr.ScalarGraph):
    """Piecewise linear: slope 1 on [-1, 1], slope 3 outside."""

    label = "kinked"

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x + 2.0 * np.sign(x) * np.maximum(np.abs(x) - 1.0, 0.0)


class TestArrayQuadrature:
    @pytest.mark.parametrize("graph", [
        gr.PhysicalBeta(1.0, 1.0, inner=gr.SaturatingBiLipschitz(1.0, 1.0)),
        gr.PhysicalBeta(1.0, 1.0, inner=gr.CompositeSum(
            [gr.Linear(1.0), gr.SaturatingBiLipschitz(1.0, 1.0)])),
        _Expm1(),
        _Kinked(),
    ], ids=lambda g: g.label)
    def test_matches_scipy_quad(self, graph):
        r = np.linspace(-8.0, 8.0, 41)
        got = graph.potential(r)
        assert got.shape == r.shape
        for ri, gi in zip(r, got):
            ref, _ = quad(lambda s: float(graph.value(s)), 0.0, ri, points=[-1.0, 1.0],
                          epsabs=0.0, epsrel=1e-13, limit=200)
            assert abs(gi - ref) <= 1e-11 * max(1.0, abs(ref)), ri

    @pytest.mark.parametrize("r", [20.0, -40.0])
    def test_relative_tolerance_at_large_arguments(self, r):
        # an absolute 1e-11 target cannot be met once the potential is ~1e6
        beta = gr.PhysicalBeta(1.0, 1.0, inner=gr.SaturatingBiLipschitz(1.0, 1.0))
        ref, _ = quad(lambda s: float(beta.value(s)), 0.0, r, epsabs=0.0, epsrel=1e-13,
                      limit=200)
        assert beta.potential(r) == pytest.approx(ref, rel=1e-13)

    def test_overflowing_integrand_fails_fast(self):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(QuadratureFailure):
                _Expm1().potential(800.0)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 10e6


_CLOSED_FORMS = [
    (gr.Linear(2.0), lambda r: r**2),
    (gr.SaturatingBiLipschitz(1.0, 1.0), lambda r: r**2 / 2 + abs(r) - mpmath.log1p(abs(r))),
    (gr.Power(1.0), lambda r: r**2 / 2),
    (gr.Power(3.0), lambda r: r**4 / 4),
    (gr.Power(4.0), lambda r: abs(r)**5 / 5),
    (gr.PhysicalBeta(1.0, 1.0, inner=gr.Linear(2.0)), lambda r: r**2 + 16 * abs(r)**5 / 5),
    (gr.CompositeSum([gr.Linear(1.0), gr.SaturatingBiLipschitz(0.5, 2.0), gr.Power(3.0)]),
     lambda r: 3 * r**2 / 4 + 2 * (abs(r) - mpmath.log1p(abs(r))) + r**4 / 4),
]


class TestGaussKronrod:
    @pytest.mark.parametrize("graph, primitive",
                             [pytest.param(g, f, id=g.label) for g, f in _CLOSED_FORMS])
    def test_matches_closed_forms(self, graph, primitive):
        # the closed forms are evaluated to 40 digits: in doubles,
        # a - log1p(a) cancels near 0 and leaves saturating's potential at
        # r = 1e-8 good to only 5e-9; the doubles agree where they are well
        # conditioned, which ties each primitive to its graph
        r = np.array([-40.0, -8.0, -1.3, -1e-8, 0.0, 1e-8, 0.42, 8.0, 40.0])
        with mpmath.workdps(40):
            exact = np.array([float(primitive(mpmath.mpf(x))) for x in r])
        got = gr._adaptive_kronrod(graph.value, r)
        assert np.all(np.abs(got - exact) <= 1e-13 * np.abs(exact)), got - exact
        wide = np.abs(r) >= 1.0
        assert np.allclose(graph.potential(r[wide]), exact[wide], rtol=1e-13, atol=0.0)

    def test_evaluations_per_point(self):
        # radiative-small's u0: the radiative law around saturating(1, 1) at
        # the 49 nodes of the 6x6 mesh, at the top of its amplitude range;
        # the rule takes about 32 evaluations per point there, and adaptive
        # Simpson at the same target about 270
        mesh = fem.build_mesh_rect(1.0, 1.0, 6, 6)
        u0 = np.cos(np.pi * mesh.nodes[:, 0] / 2.0)
        evaluations = [0]

        def counted(x):
            evaluations[0] += np.size(x)
            return _QUADRATURE_BETA.value(x)

        got = gr._adaptive_kronrod(counted, u0)
        assert u0.size == 49 and evaluations[0] <= 64 * u0.size, evaluations[0] / u0.size
        for ui, gi in zip(u0, got):
            ref, _ = quad(lambda s: float(_QUADRATURE_BETA.value(s)), 0.0, ui,
                          epsabs=0.0, epsrel=1e-13)
            assert abs(gi - ref) <= 1e-13 * max(1.0, abs(ref)), ui


class TestMoreauEnvelope:
    def test_linear_against_grid_minimization(self):
        lam, x = 0.5, 4.0
        graph = gr.Linear(2.0)
        ys = np.linspace(-1.0, 6.0, 200001)
        oracle = np.min((ys - x) ** 2 / (2 * lam) + np.asarray(graph.potential(ys)))
        assert oracle == pytest.approx(8.0, abs=1e-7)
        assert gr.moreau_envelope(graph, lam, x) == pytest.approx(8.0, abs=1e-12)

    def test_sign_huber_zone(self):
        assert gr.moreau_envelope(gr.Sign(), 1.0, 0.3) == pytest.approx(0.045, abs=1e-14)

    def test_zero_at_origin(self):
        for graph in gr.builtin_graphs():
            assert gr.moreau_envelope(graph, 0.5, 0.0) == pytest.approx(0.0, abs=1e-14)


class TestRegularizedValue:
    @pytest.mark.parametrize("x,expected", [(6.0, 2.0), (-3.6, -2.0), (1.2, 1.0)])
    def test_clamp_cases(self, x, expected):
        # Linear(5) at lam=1 has yosida value 5x/6: 5, -3 and 1 at these x,
        # clamped at 1/eps = 2
        assert gr.regularized_value(gr.Linear(5.0), 1.0, 0.5, x) == pytest.approx(expected)

    def test_clamped_slope_at_zero_lambda(self):
        # at lam = 0 the map is power(3) cut at 1/eps = 2: its slope is 0
        # where |r|^3 >= 2 and 3 r^2 below
        r = np.linspace(-2.0, 2.0, 81)
        d = gr.regularized_derivative(gr.Power(3.0), 0.0, 0.5, r)
        beyond = np.abs(r) ** 3.0 >= 2.0
        np.testing.assert_array_equal(d[beyond], 0.0)
        # the centred difference of r^3 is 3 r^2 + delta^2, 1e-12 at r = 0
        np.testing.assert_allclose(d[~beyond], 3.0 * r[~beyond] ** 2, rtol=1e-9, atol=1e-11)
        assert np.count_nonzero(d == 0.0) > 20

    def test_slope_astride_the_clamp_at_zero_lambda(self):
        # at r = +-cbrt(2) and the floats next to it, r^3 sits on the clamp
        # at 1/eps = 2: a branch slope is 0 or 3 r^2 as one ulp decides,
        # while the centred difference straddles the kink and gives a slope
        # strictly between the two
        c = np.cbrt(2.0)
        r = np.array([-c, c, np.nextafter(c, 0.0), np.nextafter(c, 2.0)])
        d = gr.regularized_derivative(gr.Power(3.0), 0.0, 0.5, r)
        assert np.all(d > 0.0)
        assert np.all(d < 3.0 * r**2)


class TestPropertySuite:
    def test_linear_all_pass(self):
        rep = gr.graph_property_suite(gr.Linear(2.0), [1.0, 0.5], [-1.0, 0.0, 3.0])
        assert rep.passed

    def test_sign_yosida_monotone_in_lambda(self):
        vals = [abs(gr.yosida(gr.Sign(), lam, 0.3)) for lam in (1.0, 0.5, 0.25)]
        assert vals == pytest.approx([0.3, 0.6, 1.0])
        assert vals[-1] <= abs(gr.Sign().value(0.3)) + 1e-14

    def test_nested_regularization_semigroup(self):
        # (A_mu)_lam == A_{mu+lam}: a = A_1(x) solves a = A_0.5(x - 0.5*a)
        beta = gr.PhysicalBeta(1.0, 1.0)
        a = gr.yosida(beta, 1.0, 3.0)
        assert gr.yosida(beta, 0.5, 3.0 - 0.5 * a) == pytest.approx(a, abs=1e-10)

    def test_all_builtins_pass(self):
        xs = np.linspace(-3.0, 3.0, 25)
        for graph in gr.builtin_graphs():
            rep = gr.graph_property_suite(graph, [1.0, 0.5, 0.25, 0.125], xs)
            assert rep.passed, rep.failures()[:3]

    @pytest.mark.parametrize("lams", [[1e-3, 1e-6, 1e-9], [1e-12]])
    def test_all_builtins_pass_at_small_lambda(self, lams):
        # yosida_in_graph tests x - J in lam*graph(J) in x's units: divided
        # by lam, an ulp of J failed it once lam fell to about 1e-6; sign's
        # envelope has kinks at +-lam, and a difference step of 1e-3 at
        # x = +-1e-5 straddled both and missed the Yosida value by 0.92
        xs = np.concatenate([np.linspace(-3.0, 3.0, 25), [-1e-5, 1e-5]])
        for graph in gr.builtin_graphs():
            rep = gr.graph_property_suite(graph, lams, xs)
            assert rep.passed, rep.failures()[:3]

    @pytest.mark.parametrize("lams", [[1e19, 1e10, 1.0], [1e15]])
    def test_all_builtins_pass_at_large_lambda(self, lams):
        # at a large lam the resolvent's root near 0 must be good relative
        # to itself: yosida_in_graph multiplies its error by lam
        xs = np.concatenate([np.linspace(-3.0, 3.0, 25), [-1e-5, 1e-5]])
        for graph in gr.builtin_graphs():
            rep = gr.graph_property_suite(graph, lams, xs)
            assert rep.passed, rep.failures()[:3]

    @pytest.mark.parametrize("lams", [[1.0, 0.5, 0.25, 0.125], [1e-3, 1e-6, 1e-9]])
    @pytest.mark.parametrize("far", [1e4, 1e12, 1e20])
    def test_all_builtins_pass_far_in_the_range(self, far, lams):
        # each check measures rounding in the units it happens in: the
        # semigroup check in those of the Yosida value (about 1e12 for
        # power(3) at x = 1e4 and lam = 1e-9), a pair check in those of the
        # larger partner (sign's resolvent at x = 1 against x = 1e12)
        xs = np.concatenate([np.linspace(-3.0, 3.0, 25), [-far, far]])
        for graph in gr.builtin_graphs():
            rep = gr.graph_property_suite(graph, lams, xs)
            assert rep.passed, rep.failures()[:3]

    def test_scaled_checks_catch_a_wrong_yosida_value(self):
        # sign's Yosida value off by a relative 1e-6*sin(x): each check whose
        # tolerance follows the larger partner or the Yosida value still
        # fails it, with a partner at 1e12 among the samples too
        class Off(gr.Sign):
            def resolvent(self, lam, x):
                x = np.asarray(x, dtype=float)
                a = (x - super().resolvent(lam, x)) / lam
                return x - lam * a * (1.0 + 1e-6 * np.sin(x))

        xs = np.concatenate([np.linspace(-3.0, 3.0, 25), [-1e12, 1e12]])
        rep = gr.graph_property_suite(Off(), [1.0, 0.5, 0.25, 0.125], xs)
        for prop in ("resolvent_nonexpansive", "yosida_lipschitz", "resolvent_semigroup"):
            assert any(not c.passed for c in rep.checks if c.prop == prop), prop

    @pytest.mark.parametrize("lam", [1.0, 1e-6])
    def test_yosida_in_graph_catches_a_wrong_resolvent(self, lam):
        # a resolvent off by 1e-8*max(1, |x|): lam*graph(J) moves with J
        # and pushes the error past the tolerance at every x (x = 0, where
        # the error is the offset alone, is left out)
        class Off(gr.Power):
            def resolvent(self, lam, x):
                x = np.asarray(x, dtype=float)
                return super().resolvent(lam, x) + 1e-8 * np.maximum(1.0, np.abs(x))

        rep = gr.graph_property_suite(Off(3.0), [lam], np.linspace(-3.0, 3.0, 25))
        checks = [c for c in rep.checks if c.prop == "yosida_in_graph"]
        assert len(checks) == 25
        assert not any(c.passed for c in checks if c.x != 0.0)

    def test_rejects_bad_lambda_list(self):
        with pytest.raises(InvalidArgument):
            gr.graph_property_suite(gr.Linear(1.0), [0.5, 1.0], [0.0])

    def test_fenchel_young_catches_a_wrong_potential(self):
        # 0.9*r^2 is not the potential of 2r: at xi = 2x the supremum of
        # xi*s - 0.9*s^2 sits at s = x/0.9, above the anchor s = x
        class WrongPotential(gr.Linear):
            def potential(self, r):
                return 0.9 * np.asarray(r, dtype=float) ** 2

        rep = gr.graph_property_suite(WrongPotential(2.0), [1.0, 0.5], [-1.0, 0.0, 3.0])
        checks = [c for c in rep.checks if c.prop == "fenchel_young"]
        assert [c.passed for c in checks] == [False, True, False]
        assert checks[2].error == pytest.approx(0.1, rel=1e-3)


class TestConstantsAudit:
    def test_builtins_pass(self):
        for graph in gr.builtin_graphs():
            gr.audit_constants(graph)

    def test_mis_declared_graph_is_rejected(self):
        class Overconfident(gr.Linear):
            def constants(self):
                return gr.GraphConstants(lipschitz_lower=self.alpha * 2.0,
                                         lipschitz_upper=self.alpha * 2.0)

        with pytest.raises(GraphAuditError):
            gr.audit_constants(Overconfident(1.0))


@settings(max_examples=80, deadline=None)
@given(x=st.floats(-20, 20), y=st.floats(-20, 20),
       lam=st.floats(1e-3, 10.0))
def test_resolvent_nonexpansive_property(x, y, lam):
    beta = gr.PhysicalBeta(1.0, 0.5)
    jx = gr.resolvent(beta, lam, x)
    jy = gr.resolvent(beta, lam, y)
    assert abs(jx - jy) <= abs(x - y) + 1e-9 * max(1.0, abs(x), abs(y))


@settings(max_examples=80, deadline=None)
@given(x=st.floats(-20, 20), lam=st.floats(1e-3, 10.0))
def test_resolvent_solves_inclusion(x, lam):
    beta = gr.SaturatingBiLipschitz(1.0, 2.0)
    j = gr.resolvent(beta, lam, x)
    assert j + lam * float(beta.value(j)) == pytest.approx(x, abs=1e-8 * max(1.0, abs(x)))


class TestCustomGraphExtension:
    def test_exponential_graph_through_generic_machinery(self):
        # graphs with first-order exponential growth are supported through
        # the generic resolvent; only closed-form constants are missing
        class ExpGraph(gr.ScalarGraph):
            label = "expm1"

            def value(self, x):
                return np.expm1(np.asarray(x, dtype=float))

            def derivative(self, x):
                return np.exp(np.asarray(x, dtype=float))

        graph = ExpGraph()
        lam, x = 0.5, 2.0
        j = gr.resolvent(graph, lam, x)
        assert j + lam * float(np.expm1(j)) == pytest.approx(x, abs=1e-11)
        from scipy.optimize import brentq
        oracle = brentq(lambda y: y + lam * np.expm1(y) - x, 0.0, x, xtol=1e-14)
        assert j == pytest.approx(oracle, abs=1e-10)
        rep = gr.graph_property_suite(graph, [1.0, 0.5], np.linspace(-2, 2, 9))
        assert rep.passed, rep.failures()[:3]


class _Declared(gr.Linear):
    """x -> alpha*x declaring the given constants."""

    def __init__(self, alpha, **constants):
        super().__init__(alpha)
        self._constants = gr.GraphConstants(**constants)

    def constants(self):
        return self._constants


_QUADRATURE_BETA = gr.PhysicalBeta(1.0, 1.0, inner=gr.SaturatingBiLipschitz(1.0, 1.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda mp: (mp.setattr(gr, "_QUADRATURE_MAX_DEPTH", 0), _QUADRATURE_BETA.potential(1.0)),
     QuadratureFailure, "adaptive Gauss-Kronrod refinement stalled"),
    (lambda mp: (mp.setattr(gr, "_BISECT_CAP", 1), gr.resolvent(gr.Power(3.0), 1.0, 5.0)),
     NonConvergence, "resolvent iteration for power(3) exceeded 1 iterations"),
    (lambda mp: gr.SaturatingBiLipschitz(0.0, 1.0),
     InvalidArgument, "saturating graph needs alpha > 0 and b >= 0"),
    (lambda mp: gr.Power(0.0), InvalidArgument, "power graph needs p > 0"),
    (lambda mp: gr.PhysicalBeta(1.0, 1.0, inner=gr.Sign()),
     InvalidArgument, "physical graph needs a single-valued inner graph"),
    # the radiative law declares no constants around an inner graph that
    # is not bi-Lipschitz, so it is no volume graph
    (lambda mp: check_volume_graph(gr.PhysicalBeta(1.0, 1.0, inner=gr.Power(3.0))),
     ValidationError, "gamma must declare bi-Lipschitz constants, got "
                      "physical(h=1,s=1;power(3))"),
    (lambda mp: gr.CompositeSum([]), InvalidArgument, "composite graph needs at least one part"),
    (lambda mp: gr.yosida(gr.Linear(1.0), 0.0, 1.0), InvalidArgument, "yosida needs lam > 0"),
    (lambda mp: gr.audit_constants(_Declared(2.0, lipschitz_upper=1.0)),
     GraphAuditError, "linear(2): declared upper Lipschitz bound too small"),
    (lambda mp: gr.audit_constants(_Declared(2.0, potential_bound_d1=1.0,
                                             potential_bound_d2=0.0)),
     GraphAuditError, "linear(2): potential growth bound violated"),
    (lambda mp: gr.graph_property_suite(gr.Linear(1.0), [1.0, -1.0], [0.0]),
     InvalidArgument, "lam_list entries must be positive"),
    (lambda mp: gr.graph_property_suite(gr.Linear(1.0), [1.0], []),
     InvalidArgument, "sample_points must be nonempty"),
], ids=["quadrature_depth", "resolvent_cap", "saturating_alpha", "power_p", "physical_inner",
        "physical_inner_constants", "composite_empty", "yosida_lam", "audit_upper",
        "audit_potential", "suite_lambda", "suite_samples"])
def test_guards(monkeypatch, call, error, message):
    with pytest.raises(error) as exc:
        call(monkeypatch)
    assert exc.type is error and str(exc.value) == message
