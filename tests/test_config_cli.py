import csv
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
    QuadratureFailure,
    ValidationError,
)
from monoheat.stepper import SolutionState, _StepSolver, lambda_continuation

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

# STEADY with the README example's volume graph: beta's potential is then a
# quadrature
README_PHYSICS = STEADY.replace("gamma = linear(2.0)", "gamma = saturating(1.0, 1.0)")

#: the README example with numbers at the edge of the working range: the
#: lines each case sets (``{}`` is the number) and how the run ends at +1e20
#: and at -1e20, as the summary's bound lines or the error message
RANGE_EDGE = {
    "c0": ({"c0": "{}"}, ("pass", "c0 must be positive")),
    "T_tau": ({"T": "{}", "tau": "{}"}, ("skip", "final time must be positive")),
    "lambda": ({"lambda_schedule": "[{}]"}, ("pass", "lambda values must be nonnegative")),
    "u0": ({"u0": "{}"}, ("pass", "pass")),
    "h": ({"h": "{}"}, ("pass", "pass")),
    "g": ({"g": "{}"}, ("skip", "skip")),
    "power20": ({"beta": "power(20.0)", "u0": "10", "g": "{}"}, ("skip", "skip")),
    "samples": ({}, ("check", "check")),
}
_EDGE_BOUNDS = {
    "pass": ["bounds.evaluated = true", "bounds.all_pass = true"],
    "skip": ["bounds.evaluated = false", "bounds.skip_reason = time step too large for the "
             "discrete Gronwall chain; reduce tau"],
    "check": ["all_pass = true"],
}

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

# the convergence-2d benchmark study without its amplitude, on coarser levels
CONVERGENCE_2D = """
[convergence]
dim = 2
gamma = linear(2.0)
beta = linear(1.0)
T = 0.5
exact_space = "(1 + t/2)*cos(pi*x/2)*cos(pi*y)"
exact_time = "exp(-2*t)*cos(pi*x/2)*cos(pi*y)"
space_levels = [4, 8, 16]
time_levels = [4, 8, 16]
fine_space = 48
fine_time = 8

[solver]
tau = 0.1
lambda_schedule = [0.0]
"""

GRAPH_CHECK = "[graph_check]\nsamples = [0.0, 1.0]\n"

# the limit problem lambda = 0 with a multi-valued boundary graph: at u = 0
# the minimal section of sign is 0, so the step equation has no root there
LIMIT_PROBE = """
[problem]
domain = rect(1.0, 1.0, 16, 16, lateral)
c0 = 1.0
gamma = saturating(1.0, 1.0)
beta = sign
g = constant(0.0)
h = constant(0.3)
u0 = constant(0.0)
T = 0.25

[solver]
tau = 0.025
lambda_schedule = [0.0]
"""


@pytest.mark.parametrize("text, command, message", [
    # no lambda_schedule entry to name: the error has no line
    (STEADY.replace("lambda_schedule = [0.0]\n", ""), "continuation",
     "continuation needs at least two lambda values"),
    (STEADY, "frobnicate", "unknown command 'frobnicate'"),
], ids=["continuation_default_schedule", "unknown_command"])
def test_parse_guards(text, command, message):
    with pytest.raises(ValidationError) as exc:
        parse_config(text, command)
    assert exc.type is ValidationError and str(exc.value) == message


def test_graph_check_lambdas_are_read():
    rc = parse_config("[graph_check]\nlambdas = [0.5, 0.25]\n", "graph-check")
    assert rc.graph_check["lambdas"] == [0.5, 0.25]


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
        # the lambda mass term is always on for lam > 0 and the first
        # fixed-point sweep is undamped; their old keys are unknown keys
        # like any other
        for key, value in (("lambda_mass_term", "on"), ("picard_damping", "0.5")):
            text = STEADY.replace("tau = 0.1", f"tau = 0.1\n{key} = {value}")
            with pytest.raises(ValidationError, match=key):
                parse_config(text, command="solve")
            rc = parse_config(text, command="solve", strict=False)
            assert rc.warnings == [f"unknown keys in [solver]: ['{key}']"]
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
        evaluate = compile_expr(text, 2, True)
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
        parse_config(text.replace("dim = 1", "dim = 2").replace("gamma1 = right\n", ""),
                     command="convergence")
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

    def test_graph_check_estimates_are_valid_csv(self, tmp_path):
        # labels such as saturating(1,1) hold commas, so their fields are
        # quoted and every row parses to the six header columns
        out = tmp_path / "gc"
        assert main(["graph-check", "--out", str(out)]) == 0
        with open(out / "estimates.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert all(len(row) == 6 and None not in row for row in rows)
        assert any("," in row["graph"] for row in rows)
        semigroup = [row for row in rows if row["property"] == "resolvent_semigroup"]
        assert len(semigroup) == 500
        assert all(row["passed"] == "true" for row in semigroup)

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

    def test_graph_check_nonpositive_tolerance_exit_three(self, tmp_path, capsys):
        for tolerance in ("-1.0", "0.0"):
            cfg = tmp_path / "tolerance.cfg"
            cfg.write_text(f"[graph_check]\nsamples = [0.0, 1.0]\ntolerance = {tolerance}\n")
            assert main(["graph-check", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
            assert capsys.readouterr().err == (
                f"error: line 3: tolerance must be positive, got {float(tolerance)!r}\n")

    @pytest.mark.parametrize("command, schedule", [
        ("solve", "[0.0]"), ("continuation", "[0.5, 0.125, 0.0]")],
        ids=["solve", "continuation"])
    def test_zero_lambda_multivalued_beta_exit_three(self, tmp_path, capsys, command,
                                                     schedule):
        cfg = tmp_path / "limit.cfg"
        cfg.write_text(LIMIT_PROBE.replace("lambda_schedule = [0.0]",
                                           f"lambda_schedule = {schedule}"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: beta = sign is multi-valued")
        assert "positive lambda" in err and "continuation" in err
        assert list(out.iterdir()) == []

    def test_small_lambda_multivalued_beta_exit_zero(self, tmp_path):
        cfg = tmp_path / "yosida.cfg"
        cfg.write_text(LIMIT_PROBE.replace("lambda_schedule = [0.0]",
                                           "lambda_schedule = [0.001953125]"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert "bounds.all_pass = true" in (out / "summary.txt").read_text().splitlines()

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

    def test_tiny_lambda_reproduces_zero_lambda_march(self, tmp_path):
        # (x - J)/lam cancels in x - J at a tiny lam: read as the Yosida
        # value, it stalled Newton's backtracking at lam = 1e-13 and gave
        # xi = 0 on Gamma1 at lam = 1e-300, where the lam = 0 march reaches
        # xi = 0.745
        example = re.sub(r"^beta = .*$", "beta = composite(linear(1.0), power(4.0))",
                         _readme_example(), flags=re.M)
        xi = {}
        for lam in ("0.0", "1e-300", "1e-13"):
            text = re.sub(r"^lambda_schedule = .*$", f"lambda_schedule = [{lam}]", example,
                          flags=re.M)
            assert f"lambda_schedule = [{lam}]" in text
            cfg, out = tmp_path / f"{lam}.cfg", tmp_path / lam
            cfg.write_text(text)
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
            assert "bounds.all_pass = true" in (out / "summary.txt").read_text().splitlines()
            with open(out / "boundary.csv", newline="") as fh:
                xi[lam] = np.array([float(row["xi"]) for row in csv.DictReader(fh)])
        assert np.max(xi["0.0"]) > 0.7
        assert np.max(np.abs(xi["1e-300"] - xi["0.0"])) <= 1e-12

    @pytest.mark.parametrize("old,new,reason", [
        ("gamma1=right", "gamma1=none", "no active boundary"),
        ("T = 0.5\n\n[solver]\ntau = 0.1", "T = 4.0\n\n[solver]\ntau = 2.0",
         "time step too large for the discrete Gronwall chain; reduce tau"),
        # c_low^2 underflows to 0, which the chain divides by
        ("c0 = 1.0", "c0 = 1e-200",
         "bound constants C1, C2, A1, A2, A3 fall outside the float range; c0 or a "
         "declared graph constant is too small or too large"),
    ], ids=["no_boundary", "large_tau", "tiny_c0"])
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

    @pytest.mark.parametrize("gamma", ["saturating(2.0, 0.0)",
                                       "composite(linear(1.0), linear(1.0))"])
    def test_dependence_gamma_linear_by_its_constants(self, tmp_path, gamma):
        summaries = []
        for name, text in (("linear", DEPENDENCE),
                           ("other", DEPENDENCE.replace("gamma = linear(2.0)", f"gamma = {gamma}"))):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            out = tmp_path / name
            assert main(["dependence", "--config", str(cfg), "--out", str(out)]) == 0
            summaries.append((out / "summary.txt").read_bytes())
        assert summaries[0] == summaries[1]

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

    @pytest.mark.parametrize("argv", [["solve", "--bogus"], ["frobnicate"], []],
                             ids=["unknown_flag", "unknown_command", "no_command"])
    def test_bad_command_line_exit_three(self, capsys, argv):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: command line: ")

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: monoheat")

    def test_nonconvergence_exit_one(self, tmp_path):
        text = STEADY.replace("tau = 0.1", "tau = 0.5") \
                     .replace("solver_kind = newton", "solver_kind = picard") \
                     .replace("[solver]", "[solver]\nmax_iters = 2") \
                     .replace("g = constant(0.0)", "g = constant(8.0)") \
                     .replace("lambda_schedule = [0.0]", "lambda_schedule = [0.001]")
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1

    def test_newton_iteration_cap_exit_one(self, tmp_path, capsys):
        text = re.sub(r"^tau = .*$", "\\g<0>\nmax_iters = 1", _readme_example(), flags=re.M)
        assert "\nmax_iters = 1\n" in text
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            "solver failure: Newton did not reach tolerance in 1 iterations\n")

    @pytest.mark.parametrize("value", ["1e20", "-1e20", "1e21", "-1e21"])
    @pytest.mark.parametrize("case", list(RANGE_EDGE))
    def test_working_range_edge(self, tmp_path, capsys, case, value):
        # at +-1e20 each run ends as it did before the range was checked,
        # with no floating-point warning (pyproject.toml makes one an error);
        # at +-1e21 the first number set is an error naming its line
        edits, outcomes = RANGE_EDGE[case]
        if case == "samples":
            text, command = f"[graph_check]\nsamples = [{value}]\n", "graph-check"
        else:
            text, command = _readme_example(), "solve"
            for key, template in edits.items():
                text = re.sub(rf"^{key} = .*$", f"{key} = {template.format(value)}", text,
                              flags=re.M)
        line_no = next(i for i, line in enumerate(text.splitlines(), 1) if value in line)
        cfg, out = tmp_path / "edge.cfg", tmp_path / "edge"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if value.endswith("1e21"):
            assert code == 3
            assert err == f"error: line {line_no}: {float(value)!r} is outside the working " \
                          "range |x| <= 1e+20\n"
            return
        outcome = outcomes[value.startswith("-")]
        if outcome in _EDGE_BOUNDS:
            assert code == 0 and err == ""
            summary = (out / "summary.txt").read_text().splitlines()
            assert [line for line in summary if line.startswith("bounds.")
                    or line == "all_pass = true"] == _EDGE_BOUNDS[outcome]
        else:
            assert code == 3
            assert err == f"error: line {line_no}: {outcome}\n"

    @pytest.mark.parametrize("kind", ["newton", "picard"])
    def test_residual_past_1e154_is_finite(self, tmp_path, capsys, kind):
        # at tau = 1e160 the residual entries would pass 1e154, where their
        # squares overflow; T and tau lie past the working range, so the run
        # stops at the first of them with one error line, before any step
        text = re.sub(r"^T = .*$", "T = 1e161", _readme_example(), flags=re.M)
        text = re.sub(r"^tau = .*$", "tau = 1e160", text, flags=re.M)
        text = re.sub(r"^solver_kind = .*$", f"solver_kind = {kind}", text, flags=re.M)
        assert "T = 1e161" in text and "tau = 1e160" in text
        line_no = text.splitlines().index("T = 1e161") + 1
        cfg, out = tmp_path / "huge.cfg", tmp_path / "huge"
        cfg.write_text(text)
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: line {line_no}: 1e+161 is outside the working range |x| <= 1e+20\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "continuation"])
    @pytest.mark.parametrize("c0", ["1e200", "1e300"])
    def test_huge_heat_capacity_skips_bounds_without_warning(self, tmp_path, capsys,
                                                             command, c0):
        # v = c0*gamma(u) would pass 1e200, where the monitors' v^2 overflows;
        # c0 lies past the working range, so both commands stop at its line
        # with one error line and no floating-point warning
        text = re.sub(r"^c0 = .*$", f"c0 = {c0}", _readme_example(), flags=re.M)
        assert f"\nc0 = {c0}\n" in text
        line_no = text.splitlines().index(f"c0 = {c0}") + 1
        cfg, out = tmp_path / "huge.cfg", tmp_path / "huge"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: line {line_no}: {float(c0)!r} is outside the working range |x| <= 1e+20\n")
        assert not out.exists()

    @pytest.mark.parametrize("sample", ["1e50", "1e100"])
    def test_overflowing_graph_check_fails_without_warning(self, tmp_path, capsys, sample):
        # power(3) and physical overflow their potentials at these samples,
        # which lie past the working range: one error line naming the line,
        # before any graph is evaluated
        cfg = tmp_path / "far.cfg"
        cfg.write_text(f"[graph_check]\nsamples = [{sample}]\n")
        assert main(["graph-check", "--config", str(cfg), "--out", str(tmp_path / "far")]) == 3
        assert capsys.readouterr().err == (
            f"error: line 2: {float(sample)!r} is outside the working range |x| <= 1e+20\n")

    def test_unknown_section(self, tmp_path, capsys):
        cfg = tmp_path / "bogus.cfg"
        cfg.write_text(STEADY + "\n[bogus]\nx = 1\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == "error: unknown section [bogus]\n"
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--no-strict"]) == 0
        assert capsys.readouterr().err == "warning: unknown section [bogus]\n"

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
            "error: line 7: 'log(x)' at t = 0.1 is outside the working range |x| <= 1e+20\n")


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

    def test_convergence_2d_command(self, tmp_path):
        cfg = tmp_path / "conv2d.cfg"
        cfg.write_text(CONVERGENCE_2D)
        out = tmp_path / "conv2d"
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        summary = dict(line.split(" = ", 1)
                       for line in (out / "summary.txt").read_text().splitlines())
        assert 1.9 <= float(summary["order_space"]) <= 2.1
        assert 0.9 <= float(summary["order_time"]) <= 1.1

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
        ("convergence", CONVERGENCE, "time_levels = [8, 16, 32]",
         "time_levels = [4, 8, 0]", 3,
         "error: line {line}: time_levels must be positive and pairwise distinct"),
        ("convergence", CONVERGENCE, "time_levels = [8, 16, 32]",
         "time_levels = [4, 4, 4]", 3,
         "error: line {line}: time_levels must be positive and pairwise distinct"),
        ("convergence", CONVERGENCE, "space_levels = [16, 32, 64]",
         "space_levels = [16, -32, 64]", 3,
         "error: line {line}: space_levels must be positive and pairwise distinct"),
        ("convergence", CONVERGENCE, "fine_time = 64", "fine_time = -3", 3,
         "error: line {line}: fine_time must be positive"),
        ("convergence", CONVERGENCE, "fine_space = 128", "fine_space = 0", 3,
         "error: line {line}: fine_space must be positive"),
        ("convergence", CONVERGENCE, "length = 1.0", "length = -1.0", 3,
         "error: line {line}: length must be positive"),
        ("convergence", CONVERGENCE, "gamma1 = right", "gamma1 = top", 3,
         "error: line {line}: gamma1 must be one of left, right, both, none"),
        # a 2-D study runs on a rect with lateral Gamma1
        ("convergence", CONVERGENCE.replace("dim = 1", "dim = 2"), "gamma1 = right",
         "gamma1 = left", 3, "error: line {line}: gamma1 applies to dim = 1 only\n"),
        ("convergence", CONVERGENCE, "c0 = 1.0", "c0 = 0.0", 3,
         "error: line {line}: c0 must be positive"),
        ("convergence", CONVERGENCE, "T = 0.5", "T = -0.5", 3,
         "error: line {line}: T must be positive"),
        ("convergence", CONVERGENCE, "dim = 1", "dim = 3", 3,
         "error: line {line}: dim must be 1 or 2"),
        ("convergence", CONVERGENCE, "gamma = linear(2.0)",
         "gamma = composite(linear(2.0), sign)", 3,
         "error: line {line}: gamma must declare bi-Lipschitz constants"),
        ("convergence", CONVERGENCE, 'exact_space = "(1 + t/2)*cos(pi*x/2)"',
         'exact_space = "(1 + t/2)*cos(pi*x/2"', 3, "error: line {line}: bad expression"),
        # an insulated domain runs: with no Gamma1 node the boundary datum drops
        # out of the data distance, and the trace constant with it
        ("dependence", DEPENDENCE, "gamma1=right", "gamma1=none", 0, ""),
        # exp(T/alpha) overflows a float past T/alpha = 709.8
        ("dependence", DEPENDENCE, "gamma = linear(2.0)", "gamma = linear(0.0001)", 3,
         "error: dependence constant overflows a float at T/alpha = 5000\n"),
        ("solve", DEPENDENCE, "gamma = linear(2.0)", "gamma = composite(linear(2.0), sign)", 3,
         "error: line {line}: gamma must declare bi-Lipschitz constants"),
        ("solve", STEADY, "c0 = 1.0", "c0 = -1.0", 3, "error: line {line}: c0 must be positive"),
        ("solve", STEADY, "T = 0.5", "T = -0.5", 3,
         "error: line {line}: final time must be positive"),
        ("solve", STEADY, "u0 = constant(1.0)", 'u0 = expr("log(x)")', 3,
         "error: line {line}: u0 is outside the working range |x| <= 1e+20\n"),
        ("solve", STEADY, "tau = 0.1", "tau = -0.01", 3,
         "error: line {line}: tau must be positive"),
        ("solve", STEADY, "lambda_schedule = [0.0]", "lambda_schedule = [0.0, 0.5]", 3,
         "error: line {line}: lambda schedule must be strictly decreasing"),
        ("solve", STEADY, "lambda_schedule = [0.0]", "lambda_schedule = [-0.5]", 3,
         "error: line {line}: lambda values must be nonnegative"),
        ("solve", STEADY, "lambda_schedule = [0.0]", "epsilon = -1.0", 3,
         "error: line {line}: epsilon must be nonnegative"),
        ("solve", STEADY, "lambda_schedule = [0.0]", "newton_tol = 0.0", 3,
         "error: line {line}: tolerances must be positive"),
        ("solve", STEADY, "lambda_schedule = [0.0]", "max_iters = 0", 3,
         "error: line {line}: max_iters must be at least 1"),
        ("solve", STEADY, "lambda_schedule = [0.0]", "smooth_u0_lambda = -1.0", 3,
         "error: line {line}: smoothing parameter must be nonnegative"),
        ("solve", STEADY, "solver_kind = newton", "solver_kind = newtn", 3,
         "error: line {line}: solver_kind must be picard, newton or both"),
        # README physics: physical beta around saturating gamma, whose
        # potential is a quadrature that would overflow at u0 = 1e80, past
        # the working range
        ("solve", README_PHYSICS, "u0 = constant(1.0)", "u0 = 1e80", 3,
         "error: line {line}: 1e+80 is outside the working range |x| <= 1e+20\n"),
        ("solve", README_PHYSICS, "h = beta_of(1.0)", "h = beta_of(1e80)", 3,
         "error: line {line}: 1e+80 is outside the working range |x| <= 1e+20\n"),
        ("solve", STEADY, "u0 = constant(1.0)", "u0 = 1e80", 3,
         "error: line {line}: 1e+80 is outside the working range |x| <= 1e+20\n"),
        # in range, but beta's potential |u0|^21/21 overflows
        ("solve", STEADY.replace("beta = physical(h=1.0, s=1.0)", "beta = power(20.0)"),
         "u0 = constant(1.0)", "u0 = 1e20", 3,
         "error: line {line}: boundary potential of u0 is not summable\n"),
        ("continuation", STEADY, "lambda_schedule = [0.0]", "lambda_schedule = [0.5]", 3,
         "error: line {line}: continuation needs at least two lambda values"),
        ("solve", STEADY, "[solver]", "[solver", 3,
         "error: line {line}: unterminated section header"),
        ("solve", STEADY, "[solver]", "[ ]", 3, "error: line {line}: empty section name"),
        ("solve", STEADY, "c0 = 1.0", "c0 1.0", 3, "error: line {line}: expected 'key = value'"),
        ("solve", STEADY, "c0 = 1.0", "c-0 = 1.0", 3, "error: line {line}: bad key 'c-0'"),
        ("solve", STEADY, "gamma = linear(2.0)", "gamma = 2.0", 3,
         "error: line {line}: expected a graph constructor"),
        ("solve", STEADY, "beta = physical(h=1.0, s=1.0)", "beta = cubic(1.0)", 3,
         "error: line {line}: unknown graph kind 'cubic'"),
        ("solve", STEADY, "domain = interval(1.0, 8, gamma1=right)",
         "domain = rect(1.0, 1.0, 4, 4, top)", 3,
         "error: line {line}: rect boundary must be lateral or none"),
        ("solve", STEADY, "domain = interval(1.0, 8, gamma1=right)", "domain = disk(1.0)", 3,
         "error: line {line}: expected interval(...) or rect(...)"),
        ("solve", STEADY, "g = constant(0.0)", "g = zero", 3,
         "error: line {line}: expected constant(...), expr(...) or beta_of(...)"),
        ("solve", STEADY, "T = 0.5", "# no T", 3, "error: problem section missing keys ['T']"),
        ("solve", STEADY, "tau = 0.1", "# no tau", 3, "error: solver section must set tau"),
        ("convergence", CONVERGENCE, 'exact_time = "exp(-t)*cos(pi*x/2)"', "# no exact_time",
         3, "error: [convergence] missing key 'exact_time'"),
        # the full text of messages raised below the section that locates them
        ("convergence", CONVERGENCE, "space_levels = [16, 32, 64]", "space_levels = 16", 3,
         "error: line {line}: expected a list of numbers, got 16.0\n"),
        ("graph-check", GRAPH_CHECK, "samples = [0.0, 1.0]", "samples = 0.5", 3,
         "error: line {line}: expected a list of numbers, got 0.5\n"),
        ("solve", STEADY, "lambda_schedule = [0.0]", "max_iters = 2.5", 3,
         "error: line {line}: expected an integer, got 2.5\n"),
        ("convergence", CONVERGENCE, "dim = 1", "dim = 1.5", 3,
         "error: line {line}: expected an integer, got 1.5\n"),
        ("solve", STEADY, "h = beta_of(1.0)", "h = beta_of(fast)", 3,
         "error: line {line}: expected a finite number, got 'fast'\n"),
        ("solve", STEADY, "g = constant(0.0)", 'g = expr("' + "+".join(["x"] * 200) + '")', 3,
         "error: line {line}: expression nested more than 100 levels deep\n"),
        ("solve", STEADY, "g = constant(0.0)", 'g = expr("1/0")', 3,
         "error: line {line}: '1/0' is not a finite number\n"),
        ("convergence", CONVERGENCE, 'exact_space = "(1 + t/2)*cos(pi*x/2)"',
         'exact_space = "1/0 + x"', 3, "error: line {line}: '1/0' is not a finite number\n"),
        ("solve", STEADY, "g = constant(0.0)", 'g = expr("z")', 3,
         "error: line {line}: unknown name 'z' in expression; the variables here are x, t\n"),
        ("convergence", CONVERGENCE, 'exact_space = "(1 + t/2)*cos(pi*x/2)"',
         'exact_space = "(1 + t/2)*cos(pi*y/2)"', 3,
         "error: line {line}: unknown name 'y' in expression; the variables here are x, t\n"),
        ("solve", STEADY, "g = constant(0.0)", 'g = expr("x^2")', 3,
         "error: line {line}: 'x^2' is not allowed in an expression (the power operator is **)\n"),
        ("solve", STEADY, "g = constant(0.0)", 'g = expr("sin(pi*x")', 3,
         "error: line {line}: bad expression 'sin(pi*x': '(' was never closed\n"),
        ("solve", STEADY, "c0 = 1.0", "c0 = 1.0 + 2.0", 3,
         "error: line {line}: '1.0 + 2.0' is not allowed in a value\n"),
        ("solve", STEADY, "c0 = 1.0", "c0 = @@@", 3,
         "error: line {line}: bad value '@@@': invalid syntax\n"),
        ("solve", STEADY, "gamma = linear(2.0)", "gamma = linear(-1.0)", 3,
         "error: line {line}: bad graph linear: linear graph needs a positive slope\n"),
        ("solve", STEADY, "gamma = linear(2.0)", "gamma = composite(linear(2.0), linear(-1.0))",
         3, "error: line {line}: bad graph linear: linear graph needs a positive slope\n"),
        ("solve", STEADY, "beta = physical(h=1.0, s=1.0)", "beta = physical(h=-1.0, s=1.0)", 3,
         "error: line {line}: bad graph physical: physical graph needs nonnegative h, s, "
         "not both zero\n"),
        ("solve", STEADY, "domain = interval(1.0, 8, gamma1=right)", "domain = interval(1.0, 0)",
         3, "error: line {line}: bad domain: need at least one element\n"),
        ("solve", STEADY, "domain = interval(1.0, 8, gamma1=right)",
         "domain = interval(1.0, 8, gamma1=top)", 3,
         "error: line {line}: bad domain: gamma1 must be one of left, right, both, none, "
         "got 'top'\n"),
        ("solve", STEADY, "domain = interval(1.0, 8, gamma1=right)",
         "domain = rect(1.0, 1.0, 0, 3)", 3,
         "error: line {line}: bad domain: need at least one subdivision per direction\n"),
        ("solve", STEADY, "beta = physical(h=1.0, s=1.0)", "beta = physical(**k)", 3,
         "error: line {line}: **keywords or a repeated keyword in physical(...)\n"),
        ("solve", STEADY, "beta = physical(h=1.0, s=1.0)", "beta = physical(1.0, 1.0, 2.0)", 3,
         "error: line {line}: physical(...): too many positional arguments\n"),
        ("solve", STEADY, "g = constant(0.0)", "g = constant()", 3,
         "error: line {line}: constant(...): missing a required argument: 'c'\n"),
        ("solve", STEADY, "g = constant(0.0)", "g = expr(3.0)", 3,
         "error: line {line}: expr(...) needs a string, got 3.0\n"),
        # finite when the config is read, infinite from the first step on
        ("solve", _readme_example(), 'g = expr("sin(pi*x)*exp(-t)")',
         'g = expr("exp(100000*t)")', 3,
         "error: line {line}: 'exp(100000*t)' at t = 0.01 is outside the working range "
         "|x| <= 1e+20\n"),
        ("continuation", _readme_example(), 'g = expr("sin(pi*x)*exp(-t)")',
         'g = expr("exp(100000*t)")', 3,
         "error: line {line}: 'exp(100000*t)' at t = 0.01 is outside the working range "
         "|x| <= 1e+20\n"),
        # a number in the working range for which M + lambda*K is singular
        # in floating point: its factorization fails; past the range, at
        # 1e308, lambda*K would overflow
        ("solve", _readme_example(), "epsilon = 0.0", "smooth_u0_lambda = 1e20", 1,
         "solver failure: smoothing solve failed: Factor is exactly singular\n"),
        ("solve", _readme_example(), "epsilon = 0.0", "smooth_u0_lambda = 1e308", 3,
         "error: line {line}: 1e+308 is outside the working range |x| <= 1e+20\n"),
    ], ids=["space_levels", "time_levels", "zero_time_level", "repeated_time_levels",
            "negative_space_level", "negative_fine_time", "zero_fine_space",
            "negative_length", "unknown_gamma1", "gamma1_in_2d", "zero_c0",
            "convergence_negative_T", "dim_three",
            "non_bilipschitz_gamma", "unclosed_exact",
            "empty_boundary", "overflowing_dependence_constant",
            "problem_non_bilipschitz_gamma", "negative_c0", "negative_T",
            "infinite_u0", "negative_tau", "increasing_lambda_schedule",
            "negative_lambda", "negative_epsilon",
            "zero_newton_tol", "zero_max_iters", "negative_smoothing",
            "misspelled_solver_kind", "overflowing_u0_quadrature", "overflowing_beta_of",
            "overflowing_u0_closed_form", "unsummable_u0", "one_level_continuation",
            "unterminated_section", "empty_section", "missing_equals", "bad_key",
            "non_constructor_graph", "unknown_graph_kind", "bad_rect_boundary",
            "unknown_domain", "bad_data_field", "missing_problem_key", "missing_tau",
            "missing_convergence_key", "scalar_levels", "scalar_samples",
            "fractional_max_iters", "fractional_dim", "word_beta_of", "too_deep_expr",
            "folded_division", "folded_exact", "unknown_expr_name", "y_in_1d_exact",
            "caret_expr", "unclosed_expr", "operator_value", "bad_value", "bad_graph",
            "bad_composite_part", "bad_physical", "bad_interval", "bad_gamma1",
            "bad_rect", "star_keywords", "extra_argument", "missing_argument",
            "expr_number", "data_overflow_mid_march", "continuation_data_overflow_mid_march",
            "unfactorable_smoothing", "overflowing_smoothing"])
    def test_package_error_exit_code(self, tmp_path, capsys, command, base, old, new,
                                     code, message):
        text = base.replace(old, new)
        line_no = next(i for i, line in enumerate(text.splitlines(), 1) if new in line)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert err.startswith(message.format(line=line_no))
        assert len(err.splitlines()) == (1 if code else 0)

    def test_solver_disagreement_exits_two(self, tmp_path, monkeypatch, capsys):
        # a fixed-point answer moved by 1e-6 is past the cross-check allowance
        picard = _StepSolver.picard

        def shifted(self, u_init, b):
            u, sweeps, res = picard(self, u_init, b)
            return u + 1e-6, sweeps, res

        monkeypatch.setattr(_StepSolver, "picard", shifted)
        cfg = tmp_path / "both.cfg"
        cfg.write_text(STEADY.replace("solver_kind = newton", "solver_kind = both"))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("violation: fixed-point and Newton answers differ by ")
        assert len(err.splitlines()) == 1

    def test_no_strict_warns_once_and_runs(self, tmp_path, capsys):
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(STEADY + "colour = blue\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x"),
                     "--no-strict"]) == 0
        assert capsys.readouterr().err == "warning: unknown keys in [solver]: ['colour']\n"

    @pytest.mark.parametrize("error, line", [
        (QuadratureFailure, "solver failure: cannot go on"),
        (DomainError, "error: DomainError: cannot go on")])
    def test_parse_time_package_error_maps_as_in_run(self, tmp_path, monkeypatch, capsys,
                                                     error, line):
        def fail(text, command, strict):
            raise error("cannot go on")
        monkeypatch.setattr(cli, "parse_config", fail)
        cfg = tmp_path / "steady.cfg"
        cfg.write_text(STEADY)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == line + "\n"

    def test_solve_without_config_exits_three(self, tmp_path, capsys):
        assert main(["solve", "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == "error: --config is required for this command\n"

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
