"""Line-oriented ``key = value`` configuration grammar.

Sections are introduced by ``[name]``.  Each value is read with Python's
``ast`` parser and must be a number (optionally signed), a bare word, a
quoted string, a bracketed list or a call like ``linear(2.0)`` and
``physical(h=1.0, s=1.0)``; a call's arguments are bound to the
constructor's parameters by ``_bind``.  Parsing is strict by default:
unknown sections or keys are errors, so silently ignored physics cannot
happen.

No value builder knows its line: ``_parse_sections`` adds it to a grammar
error, ``_entry`` to any other error of the section entry it builds (a time
field's too, at each call) and ``_at_key_line`` to a cross-field check's.
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
from .fem import Mesh, build_mesh_1d, build_mesh_rect, check_gamma1
from .stepper import ProblemSpec, SolverConfig, check_range, check_volume_graph

COMMANDS = ("graph-check", "solve", "continuation", "convergence", "dependence")


# ---------------------------------------------------------------------------
# Value grammar
# ---------------------------------------------------------------------------


Call = namedtuple("Call", "name args kwargs")


def _quoted(text: str, width: int = 40) -> str:
    return repr(text if len(text) <= width else text[:width - 3] + "...")


def _parse_text(text: str, what: str) -> ast.AST:
    """The stripped ``text`` parsed, never evaluated, as one expression; what the
    parser rejects (on 3.10 a NUL byte is a ``ValueError``, and deep nesting can
    exhaust its recursion or memory) is a ``ParseError``."""
    try:
        return ast.parse(text, mode="eval").body
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ParseError(f"bad {what} {_quoted(text)}: "
                         f"{getattr(exc, 'msg', None) or repr(exc)}") from exc


def _not_allowed(text: str, node: ast.AST, where: str, hint: str = ""):
    # quotes the node's own text: ast.unparse(node) recurses through the node
    # and can itself overflow the stack
    segment = _quoted(ast.get_source_segment(text, node))
    return ParseError(f"{segment} is not allowed in {where}{hint}")


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _value(node: ast.AST, text: str):
    """A parsed right-hand side as a config value: a float, a str (bare
    word or quoted string), a list or a ``Call``."""
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub))
            and _is_number(node.operand)):
        sign = -1.0 if isinstance(node.op, ast.USub) else 1.0
        return sign * _value(node.operand, text)
    if _is_number(node):
        # through the decimal text, so an integer beyond the float range is inf
        return float(repr(node.value))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.List):
        return [_value(item, text) for item in node.elts]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        args = [_value(arg, text) for arg in node.args]  # rejects a *starred one
        kwargs = {kw.arg: _value(kw.value, text) for kw in node.keywords}
        if None in kwargs or len(kwargs) < len(node.keywords):
            raise ParseError(f"**keywords or a repeated keyword in {node.func.id}(...)")
        return Call(node.func.id, args, kwargs)
    raise _not_allowed(text, node, "a value")


def _parse_sections(text: str):
    """Split the raw text into {section: {key: (value, line_no)}}."""
    sections = {"": {}}
    current = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        try:
            if not line:
                continue
            if line.startswith("["):
                if not line.endswith("]"):
                    raise ParseError("unterminated section header")
                current = line[1:-1].strip()
                if not current:
                    raise ParseError("empty section name")
                sections.setdefault(current, {})
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'")
            key, _, rhs = line.partition("=")
            key = key.strip()
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", key):
                raise ParseError(f"bad key {key!r}")
            if key in sections[current]:
                raise ParseError(f"duplicate key {key!r}")
            rhs = rhs.strip()
            sections[current][key] = (_value(_parse_text(rhs, "value"), rhs), line_no)
        except ParseError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
    return sections


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _bind(call: Call, params, **defaults) -> list:
    """The arguments of ``call`` bound to ``params`` by position, then by
    keyword, then from ``defaults``, in the order of ``params``; a ``*name``
    parameter takes the other positional arguments as a tuple.  A missing,
    extra or repeated argument is a ``ValidationError``."""
    P = inspect.Parameter
    signature = inspect.Signature([
        P(p.lstrip("*"), P.VAR_POSITIONAL if p.startswith("*") else P.POSITIONAL_OR_KEYWORD,
          default=defaults.get(p, P.empty)) for p in params])
    try:
        bound = signature.bind(*call.args, **call.kwargs)
    except TypeError as exc:
        raise ValidationError(f"{call.name}(...): {exc}") from exc
    bound.apply_defaults()
    return list(bound.arguments.values())


def _number(value, kind=float, listed=False):
    """A config value as a ``kind`` (float or int) in the working range, or a
    list of them when ``listed``; anything else is a ``ValidationError``."""
    if listed:
        if not isinstance(value, list):
            raise ValidationError(f"expected a list of numbers, got {value!r}")
        return [_number(v, kind) for v in value]
    if not isinstance(value, float):
        raise ValidationError(f"expected a finite number, got {value!r}")
    check_range(value, repr(value))
    if kind is int:
        if not value.is_integer():
            raise ValidationError(f"expected an integer, got {value!r}")
        return int(value)
    return value


def _numbers(value) -> list:
    """A number or a list of numbers as a list of floats in the working range."""
    return _number(value if isinstance(value, list) else [value], listed=True)


def _positive(value, key, kind=float):
    out = _number(value, kind)
    if not out > 0:
        raise ValidationError(f"{key} must be positive, got {out!r}")
    return out


def _prefixed(prefix, build, *args):
    """``build(*args)``, with a config error it raises behind ``prefix``: a
    ``ParseError`` for the grammar, a ``ValidationError`` for anything else."""
    try:
        return build(*args)
    except ParseError as exc:
        raise ParseError(f"{prefix}{exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{prefix}{exc}") from exc


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


def _build_graph(value, gamma: Optional[gr.ScalarGraph] = None) -> gr.ScalarGraph:
    if value == "sign":
        value = Call("sign", [], {})
    if not isinstance(value, Call):
        raise ValidationError("expected a graph constructor")
    if value.name not in _GRAPHS:
        raise ValidationError(f"unknown graph kind {value.name!r}")
    params, build = _GRAPHS[value.name]
    args = _bind(value, params)
    if value.name == "composite":
        args = [_build_graph(part, gamma) for part in args[0]]
    else:
        args = [_number(arg) for arg in args]
    return _prefixed(f"bad graph {value.name}: ", build, gamma, *args)


def _volume_graph(value) -> gr.ScalarGraph:
    """A graph built to serve as ``gamma``: bi-Lipschitz, constants audited."""
    gamma = _build_graph(value)
    check_volume_graph(gamma)
    return gamma


def _build_mesh(value) -> Mesh:
    if isinstance(value, Call) and value.name == "interval":
        length, n, side = _bind(value, ("length", "n", "gamma1"), gamma1="right")
        return _prefixed("bad domain: ", build_mesh_1d, _number(length), _number(n, int), side)
    if isinstance(value, Call) and value.name == "rect":
        lx, ly, nx, ny, boundary = _bind(value, ("lx", "ly", "nx", "ny", "boundary"),
                                         boundary="lateral")
        if boundary not in ("lateral", "none"):
            raise ValidationError(f"rect boundary must be lateral or none, got {boundary!r}")
        return _prefixed("bad domain: ", build_mesh_rect, _number(lx), _number(ly),
                         _number(nx, int), _number(ny, int), boundary == "lateral")
    raise ValidationError("expected interval(...) or rect(...)")


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


def compile_expr(text: str, dim: int, time_dependent: bool):
    """Check ``text`` against the ``expr(...)`` grammar and compile it.

    The grammar is numbers, ``pi``, the variables x, y (when ``dim`` is 2)
    and t (when ``time_dependent``), ``+ - * / **``, unary ``+``/``-`` and
    one-argument calls of ``_EXPR_FUNCTIONS``; any other node is a
    ``ConfigError``.  The text is parsed,
    never evaluated.  Returns ``evaluate(env, derivatives=False)``: one
    forward-mode walk of the tree with numpy at the variable values ``env``,
    in that order, to its ``Jet``."""
    names = ("x", "y")[:dim] + (("t",) if time_dependent else ())
    text = text.strip()
    root = _expr_node(_parse_text(text, "expression"), text, names, 0)
    n = len(names)
    # (d, dd) of each variable and, last, of a constant
    seeds = {False: [((), ())] * (n + 1),
             True: [(tuple(float(i == j) for j in range(n)), (0.0,) * dim) for i in range(n + 1)]}
    return lambda env, derivatives=False: _jet(root, env, seeds[derivatives])


def _jet(node, env, seeds) -> Jet:
    return node(env, seeds) if callable(node) else Jet(node, *seeds[-1])


def _expr_node(node, text, names, depth):
    """A checked node as an ``np.float64`` when it holds no variable (so
    constants are folded here, in float64 arithmetic), else as a function
    of the variable tuple and the seeds of ``compile_expr`` to its ``Jet``."""
    if depth > _EXPR_DEPTH:
        raise ValidationError(f"expression nested more than {_EXPR_DEPTH} levels deep")
    if _is_number(node):
        return _folded(lambda: node.value, node, text)
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return np.float64(np.pi)
        if node.id not in names:
            raise ValidationError(f"unknown name {node.id!r} in expression; "
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
        raise _not_allowed(text, node, "an expression", hint)
    args = [_expr_node(part, text, names, depth + 1) for part in parts]
    if not any(callable(a) for a in args):
        return _folded(lambda: op(*args), node, text)
    return lambda env, seeds: _chain(op, [_jet(a, env, seeds) for a in args], first, second)


def _folded(compute, node, text) -> np.float64:
    try:
        with np.errstate(all="raise"):
            value = np.float64(compute())
    except (FloatingPointError, OverflowError):
        value = np.float64(np.nan)
    if not np.isfinite(value):
        segment = _quoted(ast.get_source_segment(text, node))
        raise ValidationError(f"{segment} is not a finite number")
    return value


def _expr_field(expr_text: str, mesh: Mesh, time_dependent: bool):
    fn = compile_expr(expr_text, mesh.dim, time_dependent)
    coords = (mesh.nodes,) if mesh.dim == 1 else (mesh.nodes[:, 0], mesh.nodes[:, 1])

    def values(*t) -> np.ndarray:
        with np.errstate(all="ignore"):  # a value out of range is rejected, not warned of
            out = np.broadcast_to(np.asarray(fn(coords + t).value, dtype=float),
                                  (mesh.n_nodes,)).copy()
        if t:  # u0 is left to ProblemSpec
            check_range(out, f"{_quoted(expr_text.strip())} at t = {t[0]:g}")
        return out

    return values if time_dependent else values()


def _build_data_field(value, mesh, beta, time_dependent):
    if isinstance(value, float):
        return _number(value)
    if isinstance(value, Call):
        if value.name == "constant":
            (c,) = _bind(value, ("c",))
            return _number(c)
        if value.name == "expr":
            (text,) = _bind(value, ("text",))
            if not isinstance(text, str):
                raise ValidationError(f"expr(...) needs a string, got {text!r}")
            return _expr_field(text, mesh, time_dependent)
        if value.name == "beta_of":
            (u_b,) = _bind(value, ("u",))
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected
                return _number(float(beta.value(_number(u_b))))
    raise ValidationError("expected constant(...), expr(...) or beta_of(...)")


def _lambdas(value) -> list:
    lams = _numbers(value)
    if not lams or any(b >= a for a, b in zip(lams, lams[1:])):
        raise ValidationError("lambdas must be nonempty and strictly decreasing")
    if lams[-1] <= 0.0:
        raise ValidationError(f"lambdas must be positive, got {lams[-1]!r}")
    return lams


def _samples(value) -> np.ndarray:
    samples = np.asarray(_number(value, listed=True))
    if not samples.size:
        raise ValidationError("samples must be nonempty")
    return samples


def _levels(value, key) -> list:
    out = _number(value, int, listed=True)
    if len(out) < 3:
        raise ValidationError(f"{key} needs at least three refinement levels")
    if min(out) <= 0 or len(set(out)) < len(out):
        raise ValidationError(f"{key} must be positive and pairwise distinct, got {out!r}")
    return out


def _gamma1(value, dim) -> str:
    # a 2-D study runs on a rect with lateral Gamma1
    if dim != 1:
        raise ValidationError("gamma1 applies to dim = 1 only")
    return check_gamma1(value)


def _dim(value) -> int:
    dim = _number(value, int)
    if dim not in (1, 2):
        raise ValidationError(f"dim must be 1 or 2, got {dim!r}")
    return dim


def _exact(value, dim) -> str:
    compile_expr(str(value), dim, True)
    return str(value)


_PROBLEM_KEYS = {"domain", "c0", "gamma", "beta", "g", "h", "u0", "T"}
#: builders of the independent entries of [solver] and [graph_check]
_SOLVER = {**dict.fromkeys(("tau", "epsilon", "picard_tol", "newton_tol", "smooth_u0_lambda"),
                           _number),
           "lambda_schedule": lambda value: tuple(_numbers(value)),
           "max_iters": lambda value: _number(value, int), "solver_kind": str}
_GRAPH_CHECK = {"lambdas": _lambdas, "samples": _samples,
                "tolerance": lambda value: _positive(value, "tolerance")}
_CONVERGENCE_KEYS = {"dim", "length", "gamma1", "c0", "gamma", "beta", "T",
                     "exact_space", "exact_time", "space_levels", "time_levels",
                     "fine_space", "fine_time"}

_SECTION_KEYS = {
    "problem": _PROBLEM_KEYS,
    "problem2": _PROBLEM_KEYS,
    "solver": _SOLVER.keys(),
    "graph_check": _GRAPH_CHECK.keys(),
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


def _entry(entries, key, build, *args, default=None):
    """``build(value, *args)`` for the ``key`` entry of a section, or ``default``
    without one.  A config error it raises names the entry's line, and so
    does one of the time field it may return, at each call."""
    if key not in entries:
        return default
    value, line_no = entries[key]
    at_line = f"line {line_no}: "
    built = _prefixed(at_line, build, value, *args)
    if callable(built):
        return lambda t: _prefixed(at_line, built, t)
    return built


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
    mesh = _entry(entries, "domain", _build_mesh)
    gamma = _entry(entries, "gamma", _volume_graph)
    beta = _entry(entries, "beta", _build_graph, gamma)
    c0 = _entry(entries, "c0", _number, default=1.0)
    T = _entry(entries, "T", _number)
    u0 = _entry(entries, "u0", _build_data_field, mesh, beta, False, default=0.0)
    g, h = (_entry(entries, key, _build_data_field, mesh, beta, True) for key in ("g", "h"))
    return _at_key_line(entries, ProblemSpec, mesh=mesh, c0=c0, gamma=gamma, beta=beta,
                        g=g, h=h, u0=u0, T=T)


def _continuation_solver(**kwargs) -> SolverConfig:
    config = SolverConfig(**kwargs)
    if len(config.lambda_schedule) < 2:
        raise ValidationError("continuation needs at least two lambda values",
                              key="lambda_schedule")
    return config


def _build_solver(entries, command) -> SolverConfig:
    # an unknown key is reported by parse_config; an error in strict mode
    kwargs = {key: _entry(entries, key, _SOLVER[key]) for key in entries if key in _SOLVER}
    if "tau" not in kwargs:
        raise ValidationError("solver section must set tau")
    build = _continuation_solver if command == "continuation" else SolverConfig
    return _at_key_line(entries, build, **kwargs)


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
        rc.solver = _build_solver(sections["solver"], command)

    if command == "graph-check":
        entries = sections.get("graph_check", {})
        rc.graph_check = {"lambdas": [1.0, 0.5, 0.25, 0.125],
                          "samples": np.linspace(-3.0, 3.0, 25), "tolerance": 1e-10}
        rc.graph_check.update({key: _entry(entries, key, build)
                               for key, build in _GRAPH_CHECK.items() if key in entries})

    if command == "convergence":
        entries = sections["convergence"]

        def entry(key, build, *args, default=None):
            if key not in entries and default is None:
                raise ValidationError(f"[convergence] missing key {key!r}")
            return _entry(entries, key, build, *args, default=default)

        conv = rc.convergence
        conv["dim"] = entry("dim", _dim)
        conv["gamma1"] = entry("gamma1", _gamma1, conv["dim"], default="right")
        conv["gamma"] = entry("gamma", _volume_graph)
        conv["beta"] = entry("beta", _build_graph, conv["gamma"])
        for key, default in (("length", 1.0), ("c0", 1.0), ("T", None)):
            conv[key] = entry(key, _positive, key, default=default)
        for key in ("exact_space", "exact_time"):
            conv[key] = entry(key, _exact, conv["dim"])
        for key in ("space_levels", "time_levels"):
            conv[key] = entry(key, _levels, key)
        for key in ("fine_space", "fine_time"):
            conv[key] = entry(key, _positive, key, int)

    return rc
