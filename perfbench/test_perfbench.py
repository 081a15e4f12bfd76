"""Self-tests of the benchmark's arithmetic, gate and tracer.

    python3 -m pytest perfbench
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import metrics
from workloads import VARIANTS, WORKLOADS, amplitudes

ROOT = Path(__file__).resolve().parent.parent


def span(id_, name, start, end, parent=None, layer=None, **attrs):
    out = {"id": id_, "name": name, "layer": layer or name.split(".")[0],
           "start": start, "end": end, "parent": parent}
    if attrs:
        out["attrs"] = attrs
    return out


class TestStatistics:
    def test_median_and_spread_match_statistics_quantiles(self):
        values = [1.0, 1.2, 0.9, 1.1, 1.05, 0.95, 1.3, 1.0, 0.98, 1.02]
        q1, _, q3 = statistics.quantiles(values, n=4)
        assert metrics.quartiles(values) == (q1, q3)
        assert metrics.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))

    def test_single_value_has_no_spread(self):
        assert metrics.quartiles([2.5]) == (2.5, 2.5)
        assert metrics.spread([2.5]) == 0.0

    def test_share_of_nothing_is_zero(self):
        assert metrics.share(3, 4) == 0.75
        assert metrics.share(0, 0) == 0.0


class TestRunMedians:
    def test_failed_commands_do_not_enter_the_medians(self):
        import run

        def cmd(wall, passed, traced=False):
            return {"wall_s": wall, "setup_s": wall / 4, "peak_rss_mb": 100.0,
                    "yardstick_s": run.YARDSTICK_S,
                    "passed": passed, "traced": traced}

        runs = [cmd(3.0, True), cmd(0.1, False), cmd(0.2, False), cmd(3.2, True),
                cmd(4.0, True, traced=True), cmd(0.3, False, traced=True)]
        plain, traced = run.passing(runs)
        assert [r["wall_s"] for r in plain] == [3.0, 3.2]
        assert [r["wall_s"] for r in traced] == [4.0]
        assert run.end_to_end(plain)["wall_s"]["value"] == pytest.approx(3.1)

    def test_times_are_scaled_by_the_yardstick_and_memory_is_not(self):
        import run

        # the host ran at half speed: the yardstick took twice its time
        slow = {"wall_s": 6.0, "setup_s": 1.0, "peak_rss_mb": 100.0,
                "yardstick_s": 2 * run.YARDSTICK_S, "passed": True, "traced": False}
        out = run.end_to_end([slow])
        assert out["wall_s"]["value"] == pytest.approx(3.0)
        assert out["setup_s"]["value"] == pytest.approx(0.5)
        assert out["peak_rss_mb"]["value"] == 100.0


class TestSelfTime:
    def test_union_of_overlapping_intervals(self):
        assert metrics.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
        assert metrics.covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0
        assert metrics.covered([]) == 0.0

    def test_self_time_subtracts_children_once(self):
        spans = [span(1, "stepper.lambda_continuation", 0.0, 10.0),
                 # two threads' children overlap; their union is 0..8
                 span(2, "stepper.solve_transient", 0.0, 6.0, parent=1),
                 span(3, "stepper.solve_transient", 1.0, 8.0, parent=1),
                 span(4, "graphs.regularized_value", 2.0, 3.0, parent=2)]
        ix = metrics.SpanIndex(spans)
        assert ix.self_time(spans[0]) == pytest.approx(2.0)
        assert ix.self_time(spans[1]) == pytest.approx(5.0)
        assert ix.self_time(spans[3]) == pytest.approx(1.0)

    def test_nested_calls_of_one_route_count_once(self):
        spans = [span(1, "graphs.regularized_derivative", 0.0, 4.0, points=10),
                 span(2, "graphs.regularized_value", 1.0, 2.0, parent=1, points=10),
                 span(3, "graphs.regularized_value", 5.0, 6.0, points=10)]
        ix = metrics.SpanIndex(spans)
        names = ("graphs.regularized_value", "graphs.regularized_derivative")
        assert [s["id"] for s in ix.outermost(*names)] == [1, 3]
        assert ix.time(*names) == pytest.approx(5.0)


def _march(kind, iters, residuals_per_step):
    """Spans of a two-step march: each step one solve with ``iters``
    iterations and ``residuals_per_step`` residual evaluations."""
    spans = [span(1, "stepper.solve_transient", 0.0, 10.0, steps=2,
                  iterations=2 * iters, solver_kind=kind)]
    next_id = 2
    for k in range(2):
        adv, solve = next_id, next_id + 1
        spans.append(span(adv, "stepper.advance", 4 * k, 4 * k + 3, parent=1))
        spans.append(span(solve, f"stepper.{kind}", 4 * k, 4 * k + 3, parent=adv,
                          iterations=iters))
        next_id += 2
        for r in range(residuals_per_step):
            spans.append(span(next_id, "stepper.residual", 4 * k + 0.1 * r,
                              4 * k + 0.1 * r + 0.05, parent=solve))
            next_id += 1
    return spans


class TestLayerMetrics:
    def test_line_search_share_skips_first_residual_of_each_step(self):
        # 3 accepted iterations out of 5 trials after the initial residual
        out = metrics.layer_metrics(_march("newton", 3, 6), 0, 0)
        assert out["stepper.newton_iters"] == 6
        assert out["stepper.residual_evals"] == 12
        assert out["stepper.line_search_share"] == pytest.approx(6 / 10)
        assert out["stepper.steps"] == 2

    def test_useful_share_counts_boundary_nodes_of_the_assembled_mesh(self):
        spans = [span(1, "fem.assemble", 0.0, 1.0, nodes=100, gamma1_nodes=20),
                 span(2, "graphs.regularized_value", 1.0, 2.0, points=100),
                 span(3, "graphs.regularized_derivative", 2.0, 3.0, points=100),
                 span(4, "graphs.regularized_value", 2.1, 2.2, parent=3, points=100)]
        out = metrics.layer_metrics(spans, 0, 0)
        assert out["graphs.regularized_points"] == 200
        assert out["graphs.regularized_useful_share"] == pytest.approx(0.2)

    def test_convergence_solves_counted_through_parents(self):
        spans = [span(1, "verification.convergence_order", 0.0, 10.0),
                 span(2, "stepper.solve_transient", 1.0, 2.0, parent=1, steps=1,
                      iterations=1, solver_kind="newton"),
                 span(3, "stepper.solve_transient", 3.0, 4.0, parent=1, steps=1,
                      iterations=1, solver_kind="newton"),
                 span(4, "stepper.solve_transient", 11.0, 12.0, steps=1,
                      iterations=1, solver_kind="newton")]
        out = metrics.layer_metrics(spans, 1, 0)
        assert out["verification.convergence_solves"] == 2
        assert out["verification.convergence_solves_used_share"] == 0.5

    def test_every_named_metric_is_reported(self):
        out = metrics.layer_metrics([], 0, 0)
        expected = set(metrics.PER_LAYER_UNITS) - {"trace.overhead_s"}
        assert set(out) == expected


class TestSelfCheck:
    def test_consistent_counts_pass(self):
        assert metrics.self_check(_march("picard", 4, 4), {"steps": "2"}) == []

    def test_mismatches_are_reported(self):
        spans = _march("newton", 3, 4)
        spans[0]["attrs"]["iterations"] = 5
        problems = metrics.self_check(spans, {"steps": "3"})
        assert len(problems) == 2


class TestWorkloads:
    def test_seed_changes_only_amplitudes(self):
        for w in WORKLOADS.values():
            a, b = w.config(1), w.config(2)
            assert a != b
            keep = ("domain", "T ", "tau", "lambda_schedule", "space_levels",
                    "time_levels", "fine_", "solver_kind")
            same = lambda text: [l for l in text.splitlines() if l.startswith(keep)]
            assert same(a) == same(b)

    def test_amplitudes_repeat_and_stay_admissible(self):
        assert amplitudes(3) == amplitudes(3) == amplitudes(3 + VARIANTS)
        for seed in range(VARIANTS):
            amp = amplitudes(seed)
            assert all(0.97 <= v <= 1.0 for v in vars(amp).values())


class TestGate:
    def _solve_out(self, tmp_path, u_last, bounds="true"):
        out = tmp_path / "out"
        out.mkdir()
        rows = ["k,t,node_id,u,v"]
        for k in range(2):
            rows += [f"{k},{0.1 * k},{i},{u},{u}" for i, u in enumerate(u_last)]
        (out / "solution.csv").write_text("\n".join(rows) + "\n")
        (out / "summary.txt").write_text(
            f"nodes = {len(u_last)}\nbounds.evaluated = true\nbounds.all_pass = {bounds}\n")
        return out

    def test_solution_within_tolerance_passes(self, tmp_path):
        out = self._solve_out(tmp_path, [1.0, 2.0, 3.0])
        ref = (np.array([1.0, 2.0, 3.0 + 1e-9]), np.array(1e-8))
        assert gate.check("solve", 0, out, ref) == []

    def test_solution_outside_tolerance_fails(self, tmp_path):
        out = self._solve_out(tmp_path, [1.0, 2.0, 3.0])
        ref = (np.array([1.0, 2.0, 3.1]), np.array(1e-8))
        assert len(gate.check("solve", 0, out, ref)) == 1

    def test_failed_bounds_and_exit_code_fail(self, tmp_path):
        out = self._solve_out(tmp_path, [1.0], bounds="false")
        ref = (np.array([1.0]), np.array(1e-8))
        assert gate.check("solve", 0, out, ref) == ["bounds.all_pass = false"]
        assert gate.check("solve", 1, out, ref) == ["exit code 1"]

    def test_convergence_orders_windowed(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "estimates.csv").write_text("axis,h_or_tau,error\nspace,0.1,0.01\n")
        (out / "summary.txt").write_text("order_space = 2.0\norder_time = 1.2\n")
        ref = (np.array([0.01]), np.array([1e-6]))
        assert gate.check("convergence", 0, out, ref) == [
            "order_time = 1.2 outside [0.9, 1.1]"]

    def test_recorded_references_cover_every_variant(self):
        for name in WORKLOADS:
            for variant in range(VARIANTS):
                values, tol = gate.load_reference(name, variant)
                assert values.size > 0 and np.all(np.asarray(tol) > 0.0)


TINY = """[problem]
domain = rect(1.0, 1.0, 4, 4, lateral)
gamma = saturating(1.0, 1.0)
beta = physical(h=1.0, s=1.0)
g = expr("0.5*sin(pi*x)")
h = beta_of(0.5)
u0 = expr("cos(pi*x/2)")
T = 0.02

[solver]
tau = 0.01
lambda_schedule = [0.125, 0.0625]
solver_kind = newton
"""


def test_traced_command_counts_agree_with_the_program(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY)
    out, stamps, spans_path = tmp_path / "out", tmp_path / "stamps.json", tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), str(stamps),
         str(ROOT / "src"), "--trace", str(spans_path), "--", "continuation",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "setup_end" in json.loads(stamps.read_text())
    spans = json.loads(spans_path.read_text())
    assert metrics.self_check(spans, gate.read_summary(out)) == []
    layers = metrics.layer_metrics(spans, 0, 1)
    assert layers["stepper.steps"] == 4
    assert layers["graphs.quadrature_points"] > 0
    assert layers["fem.assemble_calls"] == 1
    assert layers["stepper.continuation_s"] > 0.0
    assert layers["cli.write_s"] > 0.0
