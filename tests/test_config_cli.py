import importlib.util
import io
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import monoheat
from monoheat import cli, fem, graphs as gr
from monoheat import verification as ver
from monoheat.cli import _write_levels, _write_state_files, main
from monoheat.config import compile_expr, parse_config
from monoheat.errors import (
    DegenerateElement,
    DomainError,
    EmptyBoundary,
    InsufficientLevels,
    ParseError,
    ValidationError,
)
from monoheat.stepper import SolutionState, lambda_continuation

STEADY = """
[problem]
domain = interval(1.0, 8, gamma1=right)
c0 = 1.0
gamma = linear(2.0)
beta = physical(h=1.0, s=1.0)
g = constant(0.0)
h = beta_of(1.0)
u0 = constant(1.0)
T = 0.5

[solver]
tau = 0.1
lambda_schedule = [0.0]
solver_kind = newton
"""

DEPENDENCE = """
[problem]
domain = interval(1.0, 8, gamma1=right)
gamma = linear(2.0)
beta = linear(1.0)
g = constant(0.3)
h = constant(0.1)
u0 = constant(0.5)
T = 0.5

[problem2]
domain = interval(1.0, 8, gamma1=right)
gamma = linear(2.0)
beta = linear(1.0)
g = constant(0.6)
h = constant(0.1)
u0 = constant(0.5)
T = 0.5

[solver]
tau = 0.05
lambda_schedule = [0.0]
"""

CONVERGENCE = """
[convergence]
dim = 1
length = 1.0
gamma1 = right
c0 = 1.0
gamma = linear(2.0)
beta = linear(1.0)
T = 0.5
exact_space = "(1 + t/2)*cos(pi*x/2)"
exact_time = "exp(-t)*cos(pi*x/2)"
space_levels = [16, 32, 64]
time_levels = [8, 16, 32]
fine_space = 128
fine_time = 64

[solver]
tau = 0.1
lambda_schedule = [0.0]
"""


class TestGrammar:
    def test_graph_constructors(self):
        rc = parse_config(STEADY, command="solve")
        assert isinstance(rc.problem.gamma, gr.Linear)
        assert rc.problem.gamma.alpha == 2.0
        assert isinstance(rc.problem.beta, gr.PhysicalBeta)
        # the physical boundary law is built around the problem's own gamma
        assert rc.problem.beta.inner is rc.problem.gamma

    def test_beta_of_evaluates_boundary_graph(self):
        rc = parse_config(STEADY, command="solve")
        h = rc.problem.h_at(0.0)
        expected = float(rc.problem.beta.value(1.0))
        assert np.allclose(h, expected)

    def test_expression_fields(self):
        text = STEADY.replace("g = constant(0.0)", 'g = expr("sin(pi*x)*t")')
        rc = parse_config(text, command="solve")
        nodes = rc.problem.mesh.nodes
        assert np.allclose(rc.problem.g_at(0.5), np.sin(np.pi * nodes) * 0.5)

    def test_increasing_schedule_rejected(self):
        text = STEADY.replace("lambda_schedule = [0.0]",
                              "lambda_schedule = [0.5, 0.25, 0.125]")
        parse_config(text, command="solve")  # decreasing is fine
        bad = STEADY.replace("lambda_schedule = [0.0]",
                             "lambda_schedule = [0.125, 0.25, 0.5]")
        with pytest.raises(ValidationError):
            parse_config(bad, command="solve")

    def test_unknown_key_is_strict_error(self):
        bad = STEADY.replace("c0 = 1.0", "c0 = 1.0\nwhatever = 3")
        with pytest.raises(ValidationError):
            parse_config(bad, command="solve")

    def test_unknown_key_tolerated_without_strict(self):
        bad = STEADY.replace("c0 = 1.0", "c0 = 1.0\nwhatever = 3")
        rc = parse_config(bad, command="solve", strict=False)
        assert rc.warnings

    def test_removed_solver_key_is_unknown(self):
        # the lambda mass term is always on for lam > 0; its old switch is
        # an unknown key like any other
        text = STEADY.replace("tau = 0.1", "tau = 0.1\nlambda_mass_term = on")
        with pytest.raises(ValidationError, match="lambda_mass_term"):
            parse_config(text, command="solve")
        rc = parse_config(text, command="solve", strict=False)
        assert rc.warnings == ["unknown keys in [solver]: ['lambda_mass_term']"]
        assert rc.solver.tau == 0.1

    def test_duplicate_key_rejected(self):
        bad = STEADY.replace("c0 = 1.0", "c0 = 1.0\nc0 = 2.0")
        with pytest.raises(ParseError):
            parse_config(bad, command="solve")

    def test_parse_error_carries_line_number(self):
        bad = STEADY.replace("c0 = 1.0", "c0 = @@@")
        with pytest.raises(ParseError) as info:
            parse_config(bad, command="solve")
        assert "line" in str(info.value)

    def test_missing_section_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("[problem]\ndomain = interval(1.0, 4)\ngamma = linear(1.0)\n"
                         "beta = linear(1.0)\nT = 1.0\n", command="solve")

    def test_rect_domain(self):
        text = STEADY.replace("domain = interval(1.0, 8, gamma1=right)",
                              "domain = rect(1.0, 1.0, 3, 3, lateral)")
        rc = parse_config(text, command="solve")
        assert rc.problem.mesh.dim == 2
        assert len(rc.problem.mesh.gamma1_nodes) == 8

    @pytest.mark.parametrize("old,first,second", [
        ("beta = physical(h=1.0, s=1.0)", "physical(1.0, 1.0)", "physical(h=1.0, s=1.0)"),
        ("domain = interval(1.0, 8, gamma1=right)", "interval(1.0, 8)",
         "interval(1.0, 8, gamma1=right)"),
        ("domain = interval(1.0, 8, gamma1=right)", "rect(1, 1, 3, 3)",
         "rect(1, 1, 3, 3, lateral)"),
        ("beta = physical(h=1.0, s=1.0)", "sign", "sign()"),
    ], ids=["keywords", "gamma1_default", "boundary_default", "bare_sign"])
    def test_accepted_forms_are_equal(self, old, first, second):
        key = old.split(" = ")[0]
        configs = [parse_config(STEADY.replace(old, f"{key} = {form}"), command="solve")
                   for form in (first, second)]
        assert _fields(configs[0]) == _fields(configs[1])

    def test_signed_and_bare_decimal_numbers(self):
        text = STEADY.replace("g = constant(0.0)", "g = -1.5") \
                     .replace("c0 = 1.0", "c0 = .5").replace("T = 0.5", "T = +1")
        problem = parse_config(text, command="solve").problem
        assert (problem.g, problem.c0, problem.T) == (-1.5, 0.5, 1.0)

    @pytest.mark.parametrize("old,new", [
        ("lambda_schedule = [0.0]", "lambda_schedule = " + "[" * 3000 + "0.0" + "]" * 3000),
        ("gamma = linear(2.0)", "gamma = " + "composite(" * 3000 + "linear(2.0)" + ")" * 3000),
        ("c0 = 1.0", "c0 = " + "-" * 3000 + "1.0"),
        ("c0 = 1.0", "c0 = 1.0\x00"),
        ("g = constant(0.0)", "g = expr()"),
        ("g = constant(0.0)", "g = constant(1.0, 2.0)"),
        ("g = constant(0.0)", 'g = expr("' + "not " * 400 + 'x")'),
        ("g = constant(0.0)", 'g = expr("x' + ".a" * 400 + '")'),
        ("gamma = linear(2.0)", "gamma = saturating(on, 1.0)"),
        ("beta = physical(h=1.0, s=1.0)", "beta = physical(1.0, 1.0, 2.0)"),
        ("beta = physical(h=1.0, s=1.0)", "beta = physical(h=1.0, h=2.0, s=1.0)"),
        ("domain = interval(1.0, 8, gamma1=right)", "domain = rect(1.0, 1.0, 3, 3, lateral=maybe)"),
        ("g = constant(0.0)", "g = expr(3.0)"),
    ], ids=["deep_list", "deep_call", "deep_sign", "nul_byte", "expr_no_argument",
            "constant_two_arguments", "deep_not", "deep_attribute", "boolean_word",
            "physical_three_arguments", "repeated_keyword", "lateral_keyword", "expr_number"])
    def test_rejected_value_exit_three(self, tmp_path, capsys, old, new):
        text = STEADY.replace(old, new)
        line_no = next(i for i, line in enumerate(text.splitlines(), 1) if line == new)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line_no}: ")
        assert len(err.splitlines()) == 1


def _fields(obj):
    """A comparable view of a parsed configuration: arrays by value, other
    objects by their attributes, functions by type only."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return [_fields(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _fields(value) for key, value in obj.items()}
    if callable(obj):
        return type(obj).__name__
    if hasattr(obj, "__dict__"):
        return type(obj).__name__, _fields(vars(obj))
    return obj


ROOT = Path(__file__).resolve().parents[1]


def _readme_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"```ini\n(.*?)```", readme, re.S).group(1)


def _child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's
    ``monoheat``."""
    src = str(Path(monoheat.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _workload_configs():
    """The benchmark's generated configurations, every workload and seed."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [w.config(seed) for w in workloads.WORKLOADS.values()
            for seed in range(workloads.VARIANTS)]


# every grammar feature once: numbers, pi, the variables, + - * / **, unary
# +/- and each function
_ACCEPTED = ["sin(pi*x)*t", "-x + +y", "2.5e-1*x**2 - y/3", "tan(x/2)", "log(1 + x)",
             "sqrt(x + y)", "tanh(t - x)", "abs(x - 0.5)**1.5", "exp(-(x**2 + y**2)/t)",
             "cos(pi*x/2)*cos(pi*y)", "7", "-pi"]
# each function of an argument in every variable, so the second-order terms
# of the chain rule are not zero; abs through 0 at x = 0.5 (on the grid of the
# test below), and ** with a variable exponent, a variable base and both
_DIFFERENTIATED = ["sin(x*y + t)", "t*cos(x**2 - y)", "tan(x*t/2 + y/3)", "exp(x*y*t)",
                   "log(1 + x*t + y)", "sqrt(1 + x*y + t)", "tanh(x - y*t)",
                   "t*abs(x - 0.5) + y*abs(y - x)", "(1 + x)**(x*y + t)", "2**(x*t - y)",
                   "(x + y + 1)**-2.5/(1 + t*x)"]


def _expr_texts():
    """Every expression string of the README, these configs and the
    benchmark's workloads, plus the forms above."""
    texts = [_readme_example(), STEADY, DEPENDENCE, CONVERGENCE] + _workload_configs()
    found = set(_ACCEPTED + _DIFFERENTIATED)
    for text in texts:
        found.update(re.findall(r'expr\("([^"]*)"\)', text))
        found.update(re.findall(r'exact_(?:space|time) = "([^"]*)"', text))
    return sorted(found)


def _assert_close(got, want, what):
    """Equal non-finite entries, and finite ones within 1e-12 relative to
    the largest of them."""
    got, want = (np.broadcast_to(np.asarray(a, dtype=float), (63,)) for a in (got, want))
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True), what
    gap = np.abs(got[finite] - want[finite])
    assert np.max(gap, initial=0.0) <= 1e-12 * np.max(np.abs(want[finite]), initial=0.0), what


class TestExprGrammar:
    @pytest.mark.parametrize("text", _expr_texts())
    def test_values_match_sympy(self, text):
        # the value, and the jets against sympy.diff: d/dx, d/dt and the
        # Laplacian; real symbols make d|u|/du = sign(u), and abs'' is taken as
        # 0 where sympy writes a DiracDelta at the kink
        import sympy
        x, y, t = sympy.symbols("x y t", real=True)
        exact = sympy.sympify(text, locals={"x": x, "y": y, "t": t})
        derivatives = [sympy.diff(exact, x), sympy.diff(exact, t),
                       sympy.diff(exact, x, 2) + sympy.diff(exact, y, 2)]
        references = [sympy.lambdify((x, y, t), e.replace(sympy.DiracDelta, lambda *a: 0),
                                     "numpy") for e in [exact] + derivatives]
        evaluate = compile_expr(text, 2, True, 1)
        xs, ys = np.meshgrid(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7))
        for tv in (0.3, 1.7):
            env = (xs.ravel(), ys.ravel(), tv)
            value = evaluate(env).value
            want = np.broadcast_to(np.asarray(references[0](*env), dtype=float), xs.size)
            got = np.broadcast_to(value, xs.size)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            with np.errstate(all="ignore"):  # sqrt(x + y) is not differentiable at 0
                jet = evaluate(env, derivatives=True)
                wanted = [reference(*env) for reference in references[1:]]
            assert np.array_equal(jet.value, value)
            for what, got, want in zip(("d/dx", "d/dt", "laplacian"),
                                       (jet.d[0], jet.d[2], jet.dd[0] + jet.dd[1]), wanted):
                _assert_close(got, want, f"{what} at t = {tv}")

    @pytest.mark.parametrize("key,text", [
        ("g", "np.sin(x)"),
        ("g", "__import__('os')"),
        ("g", "eval('x')"),
        ("g", "lambda: x"),
        ("g", "sin(x=1)"),
        ("g", "x^2"),
        ("g", "z"),
        ("u0", "t*x"),
        ("g", "y*x"),
        ("g", "9**9**9"),
        ("g", "Abs(x)"),
        ("g", "x[0]"),
        ("g", "sin(x, t)"),
        ("g", "1/0"),
        ("h", "sin(pi*x"),
        ("g", "+".join(["x"] * 200)),
    ], ids=["attribute", "dunder_import", "eval", "lambda", "keyword", "caret", "unknown_name",
            "t_in_u0", "y_in_1d", "huge_power", "sympy_name", "subscript", "two_args",
            "zero_division", "unclosed", "too_deep"])
    def test_rejected_exit_three(self, tmp_path, capsys, key, text):
        old = {"g": "g = constant(0.0)", "h": "h = beta_of(1.0)", "u0": "u0 = constant(1.0)"}[key]
        config = STEADY.replace(old, f'{key} = expr("{text}")')
        line_no = next(i for i, line in enumerate(config.splitlines(), 1)
                       if line.startswith(f"{key} = expr("))
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith(f"error: line {line_no}: ")

    def test_exact_fields_use_the_dimension(self):
        # y is a variable of a 2-D exact field and unknown in 1-D
        text = CONVERGENCE.replace('"exp(-t)*cos(pi*x/2)"', '"exp(-t)*cos(pi*x/2)*cos(pi*y)"')
        parse_config(text.replace("dim = 1", "dim = 2"), command="convergence")
        with pytest.raises(ValidationError, match="unknown name 'y'"):
            parse_config(text, command="convergence")

    def test_solve_path_does_not_load_sympy(self, tmp_path):
        # no command loads sympy, convergence included: its sources come
        # from the jets of the checked expression tree
        readme, dependence, convergence, bad = (
            tmp_path / name for name in ("readme.cfg", "dep.cfg", "conv.cfg", "bad.cfg"))
        readme.write_text(_readme_example())
        dependence.write_text(DEPENDENCE)
        convergence.write_text(CONVERGENCE)
        bad.write_text(CONVERGENCE.replace('"(1 + t/2)*cos(pi*x/2)"', '"(1 + t/2)*cos(pi*x/2"'))
        runs = [("solve", readme, 0), ("dependence", dependence, 0), ("graph-check", None, 0),
                ("convergence", convergence, 0), ("convergence", bad, 3)]
        script = ["import sys", "import monoheat.cli"]
        for k, (command, cfg, code) in enumerate(runs):
            argv = [command, "--out", str(tmp_path / f"out{k}")]
            argv += [] if cfg is None else ["--config", str(cfg)]
            script.append(f"assert monoheat.cli.main({argv!r}) == {code}, {command!r}")
        script.append("print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
        result = subprocess.run([sys.executable, "-c", "\n".join(script)], env=_child_env(),
                                capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


class TestCli:
    def test_solve_steady_exit_zero(self, tmp_path):
        cfg = tmp_path / "steady.cfg"
        cfg.write_text(STEADY)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "solution.csv").read_text().strip().splitlines()
        assert rows[0] == "k,t,node_id,u,v"
        u_vals = {float(r.split(",")[3]) for r in rows[1:]}
        assert u_vals == {1.0}
        assert (out / "boundary.csv").exists()
        assert (out / "estimates.csv").exists()
        assert (out / "summary.txt").exists()

    def test_graph_check_exit_zero(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["graph-check", "--out", str(out)]) == 0
        header = (out / "estimates.csv").read_text().splitlines()[0]
        assert header == "graph,property,lambda,x,passed,error"
        assert "all_pass = true" in (out / "summary.txt").read_text()

    def test_graph_check_empty_lists_exit_three(self, tmp_path, capsys):
        for key, reason in (("lambdas", "must be nonempty and strictly decreasing"),
                            ("samples", "must be nonempty")):
            cfg = tmp_path / f"{key}.cfg"
            # the key on line 3, so the error must name the key's own line
            cfg.write_text(f"[graph_check]\ntolerance = 1e-8\n{key} = []\n")
            assert main(["graph-check", "--config", str(cfg),
                         "--out", str(tmp_path / key)]) == 3
            assert capsys.readouterr().err == f"error: line 3: {key} {reason}\n"

    def test_graph_check_zero_lambda_exit_three(self, tmp_path, capsys):
        # rejected when the config is read, before any Yosida quotient
        # divides by it; so is an increasing list
        for lambdas, reason in (("[1.0, 0.0]", "must be positive, got 0.0"),
                                ("[0.5, 1.0]", "must be nonempty and strictly decreasing")):
            cfg = tmp_path / "lambdas.cfg"
            cfg.write_text(f"[graph_check]\n\nlambdas = {lambdas}\n")
            assert main(["graph-check", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
            assert capsys.readouterr().err == f"error: line 3: lambdas {reason}\n"

    def test_readme_example_checks_bounds(self, tmp_path):
        example = _readme_example()
        assert "domain = interval(" in example
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(example)
        out = tmp_path / "readme"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert "bounds.evaluated = true" in summary
        assert "bounds.all_pass = true" in summary

    @pytest.mark.parametrize("old,new,reason", [
        ("gamma1=right", "gamma1=none", "no active boundary"),
        ("T = 0.5\n\n[solver]\ntau = 0.1", "T = 4.0\n\n[solver]\ntau = 2.0",
         "time step too large for the discrete Gronwall chain; reduce tau"),
    ], ids=["no_boundary", "large_tau"])
    def test_skipped_bound_chain_exit_zero(self, tmp_path, old, new, reason):
        text = STEADY.replace(old, new)
        assert new in text
        cfg = tmp_path / "skip.cfg"
        cfg.write_text(text)
        out = tmp_path / "skip"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert "bounds.evaluated = false" in summary
        assert f"bounds.skip_reason = {reason}" in summary
        assert not any(line.startswith("bounds.all_pass") for line in summary)
        assert (out / "estimates.csv").exists()

    def test_violated_bound_exit_two(self, tmp_path, monkeypatch):
        monitors = ver.energy_monitors

        def corrupted(solution, spec, ops):
            report = monitors(solution, spec, ops)
            report.l2_u[-1] = 1e9
            return report

        monkeypatch.setattr(ver, "energy_monitors", corrupted)
        cfg = tmp_path / "steady.cfg"
        cfg.write_text(STEADY)
        out = tmp_path / "bad"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        summary = (out / "summary.txt").read_text().splitlines()
        assert "bounds.evaluated = true" in summary
        assert "bound.A1_sup_l2_u.pass = false" in summary
        assert "bounds.all_pass = false" in summary
        assert (out / "estimates.csv").read_text().splitlines()[-1].startswith("summary,")

    def test_dependence_exit_zero(self, tmp_path):
        cfg = tmp_path / "dep.cfg"
        cfg.write_text(DEPENDENCE)
        out = tmp_path / "dep"
        assert main(["dependence", "--config", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "margin_nonnegative = true" in summary

    def test_dependence_nonlinear_gamma_exit_three(self, tmp_path):
        cfg = tmp_path / "dep.cfg"
        cfg.write_text(DEPENDENCE.replace("gamma = linear(2.0)",
                                          "gamma = saturating(1.0, 1.0)"))
        assert main(["dependence", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 3

    def test_config_error_exit_three(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[problem]\nnot_a_key = 1\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("command,old,bad", [
        ("graph-check", "samples = [0.0, 1.0]", "samples = 0.5"),
        ("graph-check", "samples = [0.0, 1.0]", "lambdas = [fast]"),
        ("graph-check", "samples = [0.0, 1.0]", "tolerance = fast"),
        ("solve", "tau = 0.1", "tau = fast"),
        ("solve", "lambda_schedule = [0.0]", "lambda_schedule = [fast]"),
        ("solve", "T = 0.5", "T = fast"),
        ("solve", "solver_kind = newton", "max_iters = 2.5"),
        ("solve", "interval(1.0, 8, gamma1=right)", "interval(1.0, 8.5, gamma1=right)"),
        ("solve", "T = 0.5", "T = 1e999"),
        ("solve", "c0 = 1.0", "c0 = 1e999"),
        ("solve", "h = beta_of(1.0)", "h = beta_of(1e999)"),
        ("solve", "g = constant(0.0)", "g = constant(1e999)"),
    ], ids=["samples", "lambdas", "tolerance", "tau", "lambda_schedule", "T", "max_iters",
            "interval", "infinite_T", "infinite_c0", "infinite_beta_of", "infinite_constant"])
    def test_bad_number_exit_three(self, tmp_path, capsys, command, old, bad):
        base = "[graph_check]\nsamples = [0.0, 1.0]\n" if command == "graph-check" else STEADY
        text = base.replace(old, bad)
        line_no = next(i for i, line in enumerate(text.splitlines(), 1) if bad in line)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert f"line {line_no}:" in capsys.readouterr().err

    def test_missing_config_exit_three(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["solve", "--config", str(missing), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == f"error: config file {missing}: No such file or directory\n"

    @pytest.mark.parametrize("case", ["out_is_file", "out_below_file", "config_is_dir",
                                      "output_file_is_dir", "config_not_utf8"])
    def test_unusable_path_exit_three(self, tmp_path, capsys, case):
        cfg = tmp_path / "steady.cfg"
        cfg.write_text(STEADY)
        afile = tmp_path / "afile"
        afile.write_text("")
        (tmp_path / "wout" / "solution.csv").mkdir(parents=True)
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(("# température\n" + STEADY).encode("latin-1"))
        config, out, named = {
            "out_is_file": (cfg, afile, afile),
            "out_below_file": (cfg, afile / "sub", afile / "sub"),
            "config_is_dir": (tmp_path, tmp_path / "x", tmp_path),
            "output_file_is_dir": (cfg, tmp_path / "wout", tmp_path / "wout" / "solution.csv"),
            "config_not_utf8": (latin1, tmp_path / "x", latin1)}[case]
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(named) in err

    def test_nonconvergence_exit_one(self, tmp_path):
        text = STEADY.replace("tau = 0.1", "tau = 0.5") \
                     .replace("solver_kind = newton", "solver_kind = picard") \
                     .replace("[solver]", "[solver]\nmax_iters = 2") \
                     .replace("g = constant(0.0)", "g = constant(8.0)") \
                     .replace("lambda_schedule = [0.0]", "lambda_schedule = [0.001]")
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_linear_solve_failure_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(spla, "cg", lambda A, b, **kw: (np.zeros_like(b), 1))
        cfg = tmp_path / "cg.cfg"
        cfg.write_text(STEADY.replace("u0 = constant(1.0)", "u0 = constant(0.0)"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("solver failure: Newton's conjugate gradient solve failed")
        assert len(err.splitlines()) == 1

    def test_infinite_step_data_exit_three(self, tmp_path, capsys):
        # log(x) is -inf at the node x = 0, so no step can meet tol*(1 + |rhs|)
        cfg = tmp_path / "log.cfg"
        cfg.write_text(STEADY.replace("g = constant(0.0)", 'g = expr("log(x)")'))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == (
            "error: step right-hand side at t = 0.1 is not finite (data g or h)\n")

    def test_tiny_tau_exit_three(self, tmp_path, capsys):
        # 5e299 steps, or infinitely many for a subnormal tau: rejected before
        # any history is allocated or marched
        for tau, steps in (("1e-300", "5e+299"), ("5e-324", "inf")):
            cfg = tmp_path / "tiny.cfg"
            cfg.write_text(STEADY.replace("tau = 0.1", f"tau = {tau}"))
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: tau = {float(tau):g} gives {steps} time steps")
            assert len(err.splitlines()) == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "steady.cfg"
        cfg.write_text(STEADY)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("solution.csv", "boundary.csv", "estimates.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("command", ["solve", "continuation"])
    def test_dump_mesh_writes_mesh_files(self, tmp_path, command):
        text = STEADY.replace("lambda_schedule = [0.0]", "lambda_schedule = [0.5, 0.25]")
        cfg = tmp_path / "steady.cfg"
        cfg.write_text(text)
        plain, dumped = tmp_path / "plain", tmp_path / "dumped"
        assert main([command, "--config", str(cfg), "--out", str(plain)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(dumped), "--dump-mesh"]) == 0
        mesh_files = ("mesh_nodes.csv", "mesh_elements.csv")
        assert not any((plain / name).exists() for name in mesh_files)
        cli._dump_mesh(parse_config(text, command=command).problem.mesh,
                       tmp_path / mesh_files[0], tmp_path / mesh_files[1])
        for name in mesh_files:
            assert (dumped / name).read_bytes() == (tmp_path / name).read_bytes()
        for path in plain.iterdir():
            assert (dumped / path.name).read_bytes() == path.read_bytes()

    def test_subprocess_matches_in_process(self, tmp_path, capsys):
        # the frozen import heap is never torn down at exit, so a process
        # that ends after main returns must have written every byte already
        text = STEADY.replace("interval(1.0, 8, gamma1=right)",
                              "rect(1.0, 1.0, 4, 4, lateral)")
        bad = text.replace("tau = 0.1", "tau = -0.1")
        assert "rect(" in text and "tau = -0.1" in bad
        for name, config, code in (("good", text, 0), ("bad", bad, 3)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(config)
            inproc, child = tmp_path / f"{name}-main", tmp_path / f"{name}-child"
            assert main(["solve", "--config", str(cfg), "--out", str(inproc)]) == code
            result = subprocess.run(
                [sys.executable, "-m", "monoheat.cli", "solve", "--config", str(cfg),
                 "--out", str(child)], env=_child_env(), capture_output=True, text=True,
                timeout=600)
            assert result.returncode == code, result.stderr
            assert result.stderr == capsys.readouterr().err
            files = sorted(path.name for path in inproc.glob("*"))
            assert files == sorted(path.name for path in child.glob("*"))
            assert len(files) == (4 if code == 0 else 0)
            for file in files:
                assert (child / file).read_bytes() == (inproc / file).read_bytes()

    def test_continuation_summary(self, tmp_path):
        text = STEADY.replace("lambda_schedule = [0.0]",
                              "lambda_schedule = [0.5, 0.25, 0.125]") \
                     .replace("u0 = constant(1.0)", "u0 = constant(0.0)") \
                     .replace("h = beta_of(1.0)", "h = constant(0.0)")
        cfg = tmp_path / "cont.cfg"
        cfg.write_text(text)
        out = tmp_path / "cont"
        assert main(["continuation", "--config", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "continuation.cauchy_diff.0.25 = 0" in summary
        assert "continuation.monotone_decreasing" in summary

        # solver lines as in `solve`, taken over all levels; no `steps` key
        text = STEADY.replace("lambda_schedule = [0.0]",
                              "lambda_schedule = [0.5, 0.25, 0.125]") \
                     .replace("solver_kind = newton", "solver_kind = both")
        cfg.write_text(text)
        assert main(["continuation", "--config", str(cfg), "--out", str(out)]) == 0
        lines = dict(line.split(" = ", 1)
                     for line in (out / "summary.txt").read_text().splitlines())
        rc = parse_config(text, command="continuation")
        states = [state for _, state, _ in lambda_continuation(rc.problem, rc.solver)]
        assert int(lines["max_iterations"]) == max(int(s.iterations.max()) for s in states) > 0
        assert float(lines["max_residual"]) == max(float(s.residuals.max()) for s in states)
        assert float(lines["solver_disagreement"]) == max(s.disagreement for s in states) > 0.0
        assert "steps" not in lines

    def test_convergence_command(self, tmp_path):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(CONVERGENCE)
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        order_space = float([l for l in summary.splitlines()
                             if l.startswith("order_space")][0].split("=")[1])
        assert 1.9 <= order_space <= 2.1

    def test_convergence_saturating_gamma_exit_zero(self, tmp_path):
        # the manufactured source takes gamma' through the kink of its |u|
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(CONVERGENCE.replace("gamma = linear(2.0)",
                                           "gamma = saturating(1.0, 1.0)"))
        out = tmp_path / "conv"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        assert "order_time = " in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("command,base,old,new,code,message", [
        ("convergence", CONVERGENCE, "space_levels = [16, 32, 64]",
         "space_levels = [8, 16]", 3, "error: line {line}: space_levels"),
        ("convergence", CONVERGENCE, "time_levels = [8, 16, 32]",
         "time_levels = [8]", 3, "error: line {line}: time_levels"),
        ("convergence", CONVERGENCE, "gamma = linear(2.0)",
         "gamma = composite(linear(2.0), sign)", 3,
         "error: line {line}: gamma must declare bi-Lipschitz constants"),
        ("convergence", CONVERGENCE, 'exact_space = "(1 + t/2)*cos(pi*x/2)"',
         'exact_space = "(1 + t/2)*cos(pi*x/2"', 3, "error: line {line}: bad expression"),
        ("dependence", DEPENDENCE, "gamma1=right", "gamma1=none", 1,
         "error: EmptyBoundary: "),
        ("solve", DEPENDENCE, "gamma = linear(2.0)", "gamma = composite(linear(2.0), sign)", 3,
         "error: line {line}: gamma must declare bi-Lipschitz constants"),
        ("solve", STEADY, "c0 = 1.0", "c0 = -1.0", 3, "error: line {line}: c0 must be positive"),
        ("solve", STEADY, "T = 0.5", "T = -0.5", 3,
         "error: line {line}: final time must be positive"),
        ("solve", STEADY, "u0 = constant(1.0)", 'u0 = expr("log(x)")', 3,
         "error: line {line}: gamma(u0) is not finite everywhere"),
    ], ids=["space_levels", "time_levels", "non_bilipschitz_gamma", "unclosed_exact",
            "empty_boundary", "problem_non_bilipschitz_gamma", "negative_c0", "negative_T",
            "infinite_u0"])
    def test_package_error_exit_code(self, tmp_path, capsys, command, base, old, new,
                                     code, message):
        text = base.replace(old, new)
        line_no = next(i for i, line in enumerate(text.splitlines(), 1) if new in line)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert err.startswith(message.format(line=line_no))
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("error", [DomainError, DegenerateElement, EmptyBoundary,
                                       InsufficientLevels])
    def test_any_package_error_exit_one(self, tmp_path, monkeypatch, capsys, error):
        def fail(rc, out):
            raise error("cannot go on")
        monkeypatch.setitem(cli._DISPATCH, "solve", fail)
        cfg = tmp_path / "steady.cfg"
        cfg.write_text(STEADY)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {error.__name__}: cannot go on\n"


def test_state_files_exact_text(tmp_path):
    # 2-element interval, active boundary on the right (node 2), one step
    mesh = fem.build_mesh_1d(1.0, 2, "right")
    u = np.array([[0.0, 0.5, 1.0], [0.1, 1.0 / 3.0, -2.0]])
    xi = np.array([[2.0], [-1e-20]])
    state = SolutionState(times=np.array([0.0, 0.1]), u=u, v=2.0 * u, xi=xi,
                          lam=0.0, tau=0.1, iterations=np.array([1]),
                          residuals=np.array([0.0]))
    _write_state_files(tmp_path, state, mesh, False)
    assert (tmp_path / "solution.csv").read_text(encoding="utf-8") == (
        "k,t,node_id,u,v\n"
        "0,0,0,0,0\n"
        "0,0,1,0.5,1\n"
        "0,0,2,1,2\n"
        "1,0.10000000000000001,0,0.10000000000000001,0.20000000000000001\n"
        "1,0.10000000000000001,1,0.33333333333333331,0.66666666666666663\n"
        "1,0.10000000000000001,2,-2,-4\n")
    assert (tmp_path / "boundary.csv").read_text(encoding="utf-8") == (
        "k,t,node_id,xi\n"
        "0,0,2,2\n"
        "1,0.10000000000000001,2,-9.9999999999999995e-21\n")


def _savetxt_levels(header, times, node_ids, fields):
    """The same table through ``np.savetxt``: the reference text."""
    n_levels, n = len(times), len(node_ids)
    columns = [np.repeat(np.arange(n_levels), n), np.repeat(times, n),
               np.tile(node_ids, n_levels)] + [f.ravel() for f in fields]
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(columns), delimiter=",", comments="",
               fmt=["%d", "%.17g", "%d"] + ["%.17g"] * len(fields), header=",".join(header))
    return buf.getvalue()


@pytest.mark.parametrize("n_nodes", [0, 1, 37, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS + 1,
                                     2 * cli._BLOCK_ROWS + 3])
def test_level_writer_matches_savetxt(tmp_path, n_nodes):
    # magnitudes from 1e-300 to 1e300 of either sign, signed zeros included
    rng = np.random.default_rng(11)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 0.3, 4))])
    node_ids = np.sort(rng.choice(10 * n_nodes + 1, n_nodes, replace=False))
    fields = [rng.choice([-1.0, 1.0], (times.size, n_nodes))
              * 10.0 ** rng.uniform(-300.0, 300.0, (times.size, n_nodes)) for _ in range(2)]
    if n_nodes:
        fields[0][0, 0], fields[1][-1, -1] = 0.0, -0.0
    header = ("k", "t", "node_id", "u", "v")
    _write_levels(tmp_path / "levels.csv", header, times, node_ids, fields)
    text = (tmp_path / "levels.csv").read_text(encoding="utf-8")
    assert text == _savetxt_levels(header, times, node_ids, fields)
    assert len(text.splitlines()) == 1 + times.size * n_nodes


def test_level_writer_memory_is_one_block(tmp_path):
    # the writer holds one block of rows, not one level: 20,000 nodes took
    # 5.1 MiB when each level was formatted as one string
    rng = np.random.default_rng(5)
    times = np.array([0.0, 0.1, 0.2])
    fields = [rng.normal(size=(times.size, 20_000)) for _ in range(2)]
    node_ids = np.arange(20_000)
    tracemalloc.start()
    try:
        _write_levels(tmp_path / "levels.csv", ("k", "t", "node_id", "u", "v"),
                      times, node_ids, fields)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
