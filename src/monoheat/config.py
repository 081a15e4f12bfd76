"""Line-oriented ``key = value`` configuration grammar.

Sections are introduced by ``[name]``.  Each value is read with Python's
``ast`` parser and must be a number (optionally signed), a bare word, a
quoted string, a bracketed list or a call like ``linear(2.0)`` and
``physical(h=1.0, s=1.0)``; a call's arguments are bound to the
constructor's parameters by ``_bind``.  Parsing is strict by default:
unknown sections or keys are errors, so silently ignored physics cannot
happen.
"""

from __future__ import annotations

import ast
import inspect
import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import graphs as gr
from .errors import ParseError, ValidationError
from .fem import GAMMA1_SIDES, Mesh, build_mesh_1d, build_mesh_rect
from .stepper import ProblemSpec, SolverConfig, check_volume_graph

COMMANDS = ("graph-check", "solve", "continuation", "convergence", "dependence")


# ---------------------------------------------------------------------------
# Value grammar
# ---------------------------------------------------------------------------


@dataclass
class Call:
    name: str
    args: list
    kwargs: dict


def _quoted(text: str, width: int = 40) -> str:
    return repr(text if len(text) <= width else text[:width - 3] + "...")


def _parse_text(text: str, line_no: int, what: str) -> ast.AST:
    """The stripped ``text`` parsed, never evaluated, as one expression; what the
    parser rejects (on 3.10 a NUL byte is a ``ValueError``, and deep nesting can
    exhaust its recursion or memory) is a ``ParseError`` naming the line."""
    try:
        return ast.parse(text, mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ParseError(f"bad {what} {_quoted(text)}: "
                         f"{getattr(exc, 'msg', None) or repr(exc)}", line_no) from exc


def _not_allowed(text: str, node: ast.AST, line_no: int, where: str, hint: str = ""):
    # quotes the node's own text: ast.unparse(node) recurses through the node
    # and can itself overflow the stack
    segment = _quoted(ast.get_source_segment(text, node))
    return ParseError(f"{segment} is not allowed in {where}{hint}", line_no)


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _value(node: ast.AST, text: str, line_no: int):
    """A parsed right-hand side as a config value: a float, a str (bare
    word or quoted string), a list or a ``Call``."""
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub))
            and _is_number(node.operand)):
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        return sign * _value(node.operand, text, line_no)
    if _is_number(node):
        # through the decimal text, so an integer beyond the float range is inf
        return float(repr(node.value))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.List):
        return [_value(item, text, line_no) for item in node.elts]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        args = [_value(arg, text, line_no) for arg in node.args]  # rejects a *starred one
        kwargs = {kw.arg: _value(kw.value, text, line_no) for kw in node.keywords}
        if None in kwargs or len(kwargs) < len(node.keywords):
            raise ParseError(f"**keywords or a repeated keyword in {node.func.id}(...)", line_no)
        return Call(node.func.id, args, kwargs)
    raise _not_allowed(text, node, line_no, "a value")


def _parse_sections(text: str):
    """Split the raw text into {section: {key: (value, line_no)}}."""
    sections = {"": {}}
    current = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", line_no)
            current = line[1:-1].strip()
            if not current:
                raise ParseError("empty section name", line_no)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line_no)
        key, _, rhs = line.partition("=")
        key = key.strip()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", key):
            raise ParseError(f"bad key {key!r}", line_no)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r}", line_no)
        rhs = rhs.strip()
        sections[current][key] = (_value(_parse_text(rhs, line_no, "value"), rhs, line_no),
                                  line_no)
    return sections


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _bind(call: Call, params, line_no: int, **defaults) -> list:
    """The arguments of ``call`` bound to ``params`` by position, then by
    keyword, then from ``defaults``, in the order of ``params``; a ``*name``
    parameter takes the other positional arguments as a tuple.  A missing,
    extra or repeated argument is a ``ValidationError`` naming the line."""
    P = inspect.Parameter
    signature = inspect.Signature([
        P(p.lstrip("*"), P.VAR_POSITIONAL if p.startswith("*") else P.POSITIONAL_OR_KEYWORD,
          default=defaults.get(p, P.empty)) for p in params])
    try:
        bound = signature.bind(*call.args, **call.kwargs)
    except TypeError as exc:
        raise ValidationError(f"line {line_no}: {call.name}(...): {exc}") from exc
    bound.apply_defaults()
    return list(bound.arguments.values())


def _number(value, line_no, kind=float, listed=False):
    """A config value as a finite ``kind`` (float or int), or a list of them
    when ``listed``; anything else is a ``ValidationError`` naming the line."""
    if listed:
        if not isinstance(value, list):
            raise ValidationError(f"line {line_no}: expected a list of numbers, got {value!r}")
        return [_number(v, line_no, kind) for v in value]
    if not isinstance(value, float) or not math.isfinite(value):
        raise ValidationError(f"line {line_no}: expected a finite number, got {value!r}")
    if kind is int:
        if not value.is_integer():
            raise ValidationError(f"line {line_no}: expected an integer, got {value!r}")
        return int(value)
    return value


def _at_line(line_no, what, build, *args):
    """``build(*args)``, with a ``ValidationError`` it raises naming the line."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise ValidationError(f"line {line_no}: {what}{exc}") from exc


#: graph constructors by name: their parameters, all numbers except
#: composite's graphs, and a builder of the problem's gamma and the arguments
_GRAPHS = {
    "linear": (("alpha",), lambda gamma, alpha: gr.Linear(alpha)),
    "saturating": (("alpha", "b"), lambda gamma, alpha, b: gr.SaturatingBiLipschitz(alpha, b)),
    "power": (("p",), lambda gamma, p: gr.Power(p)),
    "physical": (("h", "s"), lambda gamma, h, s: gr.PhysicalBeta(h, s, inner=gamma)),
    "sign": ((), lambda gamma: gr.Sign()),
    "composite": (("*graphs",), lambda gamma, *parts: gr.CompositeSum(parts)),
}


def _build_graph(value, line_no, gamma: Optional[gr.ScalarGraph] = None) -> gr.ScalarGraph:
    if value == "sign":
        value = Call("sign", [], {})
    if not isinstance(value, Call):
        raise ValidationError(f"line {line_no}: expected a graph constructor")
    if value.name not in _GRAPHS:
        raise ValidationError(f"line {line_no}: unknown graph kind {value.name!r}")
    params, build = _GRAPHS[value.name]
    args = _bind(value, params, line_no)
    if value.name == "composite":
        args = [_build_graph(part, line_no, gamma) for part in args[0]]
    else:
        args = [_number(arg, line_no) for arg in args]
    return _at_line(line_no, f"bad graph {value.name}: ", build, gamma, *args)


def _volume_graph(value, line_no) -> gr.ScalarGraph:
    """A graph built to serve as ``gamma``: bi-Lipschitz, constants audited."""
    gamma = _build_graph(value, line_no)
    _at_line(line_no, "", check_volume_graph, gamma)
    return gamma


def _build_mesh(value, line_no) -> Mesh:
    if isinstance(value, Call) and value.name == "interval":
        length, n, side = _bind(value, ("length", "n", "gamma1"), line_no, gamma1="right")
        return _at_line(line_no, "bad domain: ", build_mesh_1d, _number(length, line_no),
                        _number(n, line_no, int), side)
    if isinstance(value, Call) and value.name == "rect":
        lx, ly, nx, ny, boundary = _bind(value, ("lx", "ly", "nx", "ny", "boundary"),
                                         line_no, boundary="lateral")
        if boundary not in ("lateral", "none"):
            raise ValidationError(
                f"line {line_no}: rect boundary must be lateral or none, got {boundary!r}")
        return _at_line(line_no, "bad domain: ", build_mesh_rect, _number(lx, line_no),
                        _number(ly, line_no), _number(nx, line_no, int),
                        _number(ny, line_no, int), boundary == "lateral")
    raise ValidationError(f"line {line_no}: expected interval(...) or rect(...)")


#: an expression's value with its first derivatives ``d`` in (x, [y,] [t]) and
#: its second ``dd`` in (x, [y]); a part that is zero by structure is float 0.0
Jet = namedtuple("Jet", "value d dd")


def _zero(part) -> bool:
    return type(part) is float and part == 0.0  # numpy makes np.float64, never float


#: f with f' and f'' as functions of its argument u and value v = f(u)
_EXPR_FUNCTIONS = {
    "sin": (np.sin, lambda u, v: np.cos(u), lambda u, v: -v),
    "cos": (np.cos, lambda u, v: -np.sin(u), lambda u, v: -v),
    "tan": (np.tan, lambda u, v: 1.0 + v * v, lambda u, v: 2.0 * v * (1.0 + v * v)),
    "exp": (np.exp, lambda u, v: v, lambda u, v: v),
    "log": (np.log, lambda u, v: 1.0 / u, lambda u, v: -1.0 / (u * u)),
    "sqrt": (np.sqrt, lambda u, v: 0.5 / v, lambda u, v: -0.25 / (u * v)),
    "tanh": (np.tanh, lambda u, v: 1.0 - v * v, lambda u, v: -2.0 * v * (1.0 - v * v)),
    "abs": (np.abs, lambda u, v: np.sign(u), lambda u, v: 0.0),  # sign(0) = 0
}
#: F with its partials (F_a, F_b) and the weights (F_aa, 2 F_ab, F_bb) of
#: the second-order terms, as numbers or functions of (a, b, v = F(a, b))
_EXPR_OPERATORS = {
    ast.Add: (np.add, (1.0, 1.0), (0.0, 0.0, 0.0)),
    ast.Sub: (np.subtract, (1.0, -1.0), (0.0, 0.0, 0.0)),
    ast.Mult: (np.multiply, (lambda a, b, v: b, lambda a, b, v: a), (0.0, 2.0, 0.0)),
    ast.Div: (np.divide, (lambda a, b, v: 1.0 / b, lambda a, b, v: -v / b),
              (0.0, lambda a, b, v: -2.0 / (b * b), lambda a, b, v: 2.0 * v / (b * b))),
    ast.Pow: (np.power, (lambda a, b, v: b * a ** (b - 1.0), lambda a, b, v: v * np.log(a)),
              (lambda a, b, v: b * (b - 1.0) * a ** (b - 2.0),
               lambda a, b, v: 2.0 * a ** (b - 1.0) * (1.0 + b * np.log(a)),
               lambda a, b, v: v * np.log(a) ** 2)),
    ast.UAdd: (np.positive, (1.0,), (0.0,)),
    ast.USub: (np.negative, (-1.0,), (0.0,)),
}
#: deepest operator nesting accepted; keeps compiling and evaluating the
#: tree far from the interpreter's recursion limit
_EXPR_DEPTH = 100


def _chain(op, jets, first, second) -> Jet:
    """The jet of ``op`` of ``jets``, with the partials ``first`` and
    ``second`` of ``op``, by the chain rule.  A partial is evaluated once,
    and only where it multiplies a part that is not zero by structure, so a
    constant exponent takes no logarithm."""
    value = op(*(jet.value for jet in jets))
    args, known = [jet.value for jet in jets] + [value], {}

    def term(partial, *parts):
        if callable(partial) and not any(map(_zero, parts)) and partial not in known:
            known[partial] = partial(*args)
        partial = known.get(partial, partial)
        return 0.0 if any(map(_zero, (partial,) + parts)) else math.prod(parts, start=partial)

    def total(terms):  # 0.0 unless a term is not zero by structure
        return sum((t for t in terms if not _zero(t)), 0.0)

    pairs = list(zip(second, ((0, 0), (0, 1), (1, 1))))
    return Jet(value, tuple(total(term(p, jet.d[i]) for p, jet in zip(first, jets))
                            for i in range(len(jets[0].d))),
               tuple(total([term(p, jet.dd[i]) for p, jet in zip(first, jets)]
                           + [term(p, jets[a].d[i], jets[b].d[i]) for p, (a, b) in pairs])
                     for i in range(len(jets[0].dd))))


def compile_expr(text: str, dim: int, time_dependent: bool, line_no: Optional[int] = None):
    """Check ``text`` against the ``expr(...)`` grammar and compile it.

    The grammar is numbers, ``pi``, the variables x, y (when ``dim`` is 2)
    and t (when ``time_dependent``), ``+ - * / **``, unary ``+``/``-`` and
    one-argument calls of ``_EXPR_FUNCTIONS``; any other node is a
    ``ConfigError`` (naming ``line_no`` when given).  The text is parsed,
    never evaluated.  Returns ``evaluate(env, derivatives=False)``: one
    forward-mode walk of the tree with numpy at the variable values ``env``,
    in that order, to its ``Jet``."""
    names = ("x", "y")[:dim] + (("t",) if time_dependent else ())
    text = text.strip()
    root = _expr_node(_parse_text(text, line_no, "expression"), text, names, line_no, 0)
    n = len(names)
    # (d, dd) of each variable and, last, of a constant
    seeds = {False: [((), ())] * (n + 1),
             True: [(tuple(float(i == j) for j in range(n)), (0.0,) * dim) for i in range(n + 1)]}
    return lambda env, derivatives=False: _jet(root, env, seeds[derivatives])


def _jet(node, env, seeds) -> Jet:
    return node(env, seeds) if callable(node) else Jet(node, *seeds[-1])


def _at(line_no) -> str:
    return "" if line_no is None else f"line {line_no}: "


def _expr_node(node, text, names, line_no, depth):
    """A checked node as an ``np.float64`` when it holds no variable (so
    constants are folded here, in float64 arithmetic), else as a function
    of the variable tuple and the seeds of ``compile_expr`` to its ``Jet``."""
    if depth > _EXPR_DEPTH:
        raise ValidationError(
            f"{_at(line_no)}expression nested more than {_EXPR_DEPTH} levels deep")
    if _is_number(node):
        return _folded(lambda: node.value, node, text, line_no)
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return np.float64(np.pi)
        if node.id not in names:
            raise ValidationError(f"{_at(line_no)}unknown name {node.id!r} in expression; "
                                  f"the variables here are {', '.join(names)}")
        i = names.index(node.id)
        # numpy values, so a partial such as 1/t at t = 0 is inf, not an exception
        return lambda env, seeds: Jet(np.asarray(env[i], dtype=float), *seeds[i])
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCTIONS and len(node.args) == 1 and not node.keywords):
        op, f1, f2 = _EXPR_FUNCTIONS[node.func.id]
        first, second, parts = (f1,), (f2,), node.args
    elif isinstance(node, (ast.BinOp, ast.UnaryOp)) and type(node.op) in _EXPR_OPERATORS:
        op, first, second = _EXPR_OPERATORS[type(node.op)]
        parts = [node.left, node.right] if isinstance(node, ast.BinOp) else [node.operand]
    else:
        hint = " (the power operator is **)" if isinstance(
            getattr(node, "op", None), ast.BitXor) else ""
        raise _not_allowed(text, node, line_no, "an expression", hint)
    args = [_expr_node(part, text, names, line_no, depth + 1) for part in parts]
    if not any(callable(a) for a in args):
        return _folded(lambda: op(*args), node, text, line_no)
    return lambda env, seeds: _chain(op, [_jet(a, env, seeds) for a in args], first, second)


def _folded(compute, node, text, line_no) -> np.float64:
    try:
        with np.errstate(all="raise"):
            value = np.float64(compute())
    except (FloatingPointError, OverflowError):
        value = np.float64(np.nan)
    if not np.isfinite(value):
        segment = _quoted(ast.get_source_segment(text, node))
        raise ValidationError(f"{_at(line_no)}{segment} is not a finite number")
    return value


def _expr_field(expr_text: str, mesh: Mesh, line_no: int, time_dependent: bool):
    fn = compile_expr(expr_text, mesh.dim, time_dependent, line_no)
    coords = (mesh.nodes,) if mesh.dim == 1 else (mesh.nodes[:, 0], mesh.nodes[:, 1])

    def values(env) -> np.ndarray:
        # a non-finite value is rejected where the field is used, not warned of here
        with np.errstate(all="ignore"):
            out = fn(env).value
        return np.broadcast_to(np.asarray(out, dtype=float), (mesh.n_nodes,)).copy()

    if time_dependent:
        return lambda tv: values(coords + (tv,))
    return values(coords)


def _build_data_field(value, line_no, mesh, beta, time_dependent):
    if isinstance(value, float):
        return _number(value, line_no)
    if isinstance(value, Call):
        if value.name == "constant":
            (c,) = _bind(value, ("c",), line_no)
            return _number(c, line_no)
        if value.name == "expr":
            (text,) = _bind(value, ("text",), line_no)
            if not isinstance(text, str):
                raise ValidationError(f"line {line_no}: expr(...) needs a string, got {text!r}")
            return _expr_field(text, mesh, line_no, time_dependent)
        if value.name == "beta_of":
            (u_b,) = _bind(value, ("u",), line_no)
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected
                return _number(float(beta.value(_number(u_b, line_no))), line_no)
    raise ValidationError(f"line {line_no}: expected constant(...), expr(...) or beta_of(...)")


_PROBLEM_KEYS = {"domain", "c0", "gamma", "beta", "g", "h", "u0", "T"}
_SOLVER_KEYS = {"tau", "lambda_schedule", "epsilon", "picard_damping", "picard_tol",
                "newton_tol", "max_iters", "solver_kind", "smooth_u0_lambda"}
_GRAPH_CHECK_KEYS = {"lambdas", "samples", "tolerance"}
_CONVERGENCE_KEYS = {"dim", "length", "gamma1", "c0", "gamma", "beta", "T",
                     "exact_space", "exact_time", "space_levels", "time_levels",
                     "fine_space", "fine_time"}

_SECTION_KEYS = {
    "problem": _PROBLEM_KEYS,
    "problem2": _PROBLEM_KEYS,
    "solver": _SOLVER_KEYS,
    "graph_check": _GRAPH_CHECK_KEYS,
    "convergence": _CONVERGENCE_KEYS,
}

_REQUIRED_SECTIONS = {
    "graph-check": (),
    "solve": ("problem", "solver"),
    "continuation": ("problem", "solver"),
    "convergence": ("convergence", "solver"),
    "dependence": ("problem", "problem2", "solver"),
}


@dataclass
class RunConfig:
    command: str
    out_dir: str = "."
    dump_mesh: bool = False
    problem: Optional[ProblemSpec] = None
    problem2: Optional[ProblemSpec] = None
    solver: Optional[SolverConfig] = None
    graph_check: dict = field(default_factory=dict)
    convergence: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)


def _at_key_line(entries, build, **kwargs):
    """``build(**kwargs)``, with a ``ValidationError`` whose ``key`` is an
    entry of the section naming that entry's line."""
    try:
        return build(**kwargs)
    except ValidationError as exc:
        if exc.key not in entries:
            raise
        raise ValidationError(f"line {entries[exc.key][1]}: {exc}") from exc


def _build_problem(entries) -> ProblemSpec:
    missing = {"domain", "gamma", "beta", "T"} - set(entries)
    if missing:
        raise ValidationError(f"problem section missing keys {sorted(missing)}")
    mesh = _build_mesh(*entries["domain"])
    gamma = _volume_graph(*entries["gamma"])
    beta = _build_graph(*entries["beta"], gamma=gamma)
    c0 = _number(*entries["c0"]) if "c0" in entries else 1.0
    T = _number(*entries["T"])

    def datum(key, time_dependent=True):
        if key not in entries:
            return None
        return _build_data_field(*entries[key], mesh, beta, time_dependent)

    u0 = datum("u0", time_dependent=False)
    return _at_key_line(entries, ProblemSpec, mesh=mesh, c0=c0, gamma=gamma, beta=beta,
                        g=datum("g"), h=datum("h"), u0=0.0 if u0 is None else u0, T=T)


def _build_solver(entries) -> SolverConfig:
    kwargs = {}
    for key, (value, line_no) in entries.items():
        if key not in _SOLVER_KEYS:
            continue  # reported by parse_config; an error in strict mode
        if key == "lambda_schedule":
            sched = value if isinstance(value, list) else [value]
            kwargs["lambda_schedule"] = tuple(_number(sched, line_no, listed=True))
        elif key == "max_iters":
            kwargs[key] = _number(value, line_no, int)
        elif key == "solver_kind":
            kwargs[key] = str(value)
        else:
            kwargs[key] = _number(value, line_no)
    if "tau" not in kwargs:
        raise ValidationError("solver section must set tau")
    return _at_key_line(entries, SolverConfig, **kwargs)


def parse_config(text: str, command: str, strict: bool = True) -> RunConfig:
    """Parse and fully validate a configuration for one command."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    sections = _parse_sections(text)
    # errors in strict mode, warnings otherwise; the first one is raised
    warnings = [f"keys outside any section: {sorted(sections[''])}"] if sections[""] else []
    for name, entries in sections.items():
        if name and name not in _SECTION_KEYS:
            warnings.append(f"unknown section [{name}]")
        elif name and (unknown := set(entries) - _SECTION_KEYS[name]):
            warnings.append(f"unknown keys in [{name}]: {sorted(unknown)}")
    if strict and warnings:
        raise ValidationError(warnings[0])

    for required in _REQUIRED_SECTIONS[command]:
        if required not in sections:
            raise ValidationError(f"command {command} needs a [{required}] section")

    rc = RunConfig(command=command, warnings=warnings)
    if "problem" in sections and command != "graph-check":
        rc.problem = _build_problem(sections["problem"])
    if "problem2" in sections and command == "dependence":
        rc.problem2 = _build_problem(sections["problem2"])
    if "solver" in sections and command != "graph-check":
        rc.solver = _build_solver(sections["solver"])
    if command == "continuation" and rc.solver is not None:
        if len(rc.solver.lambda_schedule) < 2:
            _, line_no = sections["solver"].get("lambda_schedule", (None, None))
            raise ValidationError(f"{_at(line_no)}continuation needs at least two lambda values")

    if command == "graph-check":
        gc = {"lambdas": [1.0, 0.5, 0.25, 0.125],
              "samples": np.linspace(-3.0, 3.0, 25),
              "tolerance": None}
        entries = sections.get("graph_check", {})
        if "lambdas" in entries:
            lambdas, line_no = entries["lambdas"]
            lams = _number(lambdas if isinstance(lambdas, list) else [lambdas],
                           line_no, listed=True)
            if not lams or any(b >= a for a, b in zip(lams, lams[1:])):
                raise ValidationError(
                    f"line {line_no}: lambdas must be nonempty and strictly decreasing")
            if lams[-1] <= 0.0:
                raise ValidationError(
                    f"line {line_no}: lambdas must be positive, got {lams[-1]!r}")
            gc["lambdas"] = lams
        if "samples" in entries:
            samples, line_no = entries["samples"]
            gc["samples"] = np.asarray(_number(samples, line_no, listed=True))
            if not gc["samples"].size:
                raise ValidationError(f"line {line_no}: samples must be nonempty")
        if "tolerance" in entries:
            tolerance, line_no = entries["tolerance"]
            gc["tolerance"] = _number(tolerance, line_no)  # rejects inf and nan
            if gc["tolerance"] <= 0.0:
                raise ValidationError(
                    f"line {line_no}: tolerance must be positive, got {gc['tolerance']!r}")
        rc.graph_check = gc

    if command == "convergence":
        entries = sections["convergence"]

        def need(key):
            if key not in entries:
                raise ValidationError(f"[convergence] missing key {key!r}")
            return entries[key]

        def positive(key, kind=float, default=None):
            if default is not None and key not in entries:
                return default
            value, line_no = need(key)
            out = _number(value, line_no, kind)
            if not out > 0:
                raise ValidationError(f"line {line_no}: {key} must be positive, got {out!r}")
            return out

        def levels(key):
            value, line_no = need(key)
            out = _number(value, line_no, int, listed=True)
            if len(out) < 3:
                raise ValidationError(
                    f"line {line_no}: {key} needs at least three refinement levels")
            if min(out) <= 0 or len(set(out)) < len(out):
                raise ValidationError(
                    f"line {line_no}: {key} must be positive and pairwise distinct, got {out!r}")
            return out

        gamma1, line_no = entries.get("gamma1", ("right", 0))
        if gamma1 not in GAMMA1_SIDES:
            raise ValidationError(f"line {line_no}: gamma1 must be one of "
                                  f"{', '.join(GAMMA1_SIDES)}, got {gamma1!r}")

        value, line_no = need("dim")
        dim = _number(value, line_no, int)
        if dim not in (1, 2):
            raise ValidationError(f"line {line_no}: dim must be 1 or 2, got {dim!r}")
        gamma = _volume_graph(*need("gamma"))
        beta = _build_graph(*need("beta"), gamma=gamma)

        def exact(key):
            value, line_no = need(key)
            compile_expr(str(value), dim, True, line_no)
            return str(value)

        rc.convergence = {
            "dim": dim,
            "length": positive("length", default=1.0),
            "gamma1": gamma1,
            "c0": positive("c0", default=1.0),
            "gamma": gamma,
            "beta": beta,
            "T": positive("T"),
            "exact_space": exact("exact_space"),
            "exact_time": exact("exact_time"),
            "space_levels": levels("space_levels"),
            "time_levels": levels("time_levels"),
            "fine_space": positive("fine_space", int),
            "fine_time": positive("fine_time", int),
        }

    return rc
