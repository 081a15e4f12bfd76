"""Line-oriented ``key = value`` configuration grammar.

Sections are introduced by ``[name]``; values are numbers, bare words,
quoted strings, bracketed lists or calls like ``linear(2.0)`` and
``physical(h=1.0, s=1.0)``.  Parsing is strict by default: unknown
sections or keys are errors, so silently ignored physics cannot happen.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import graphs as gr
from .errors import ParseError, ValidationError
from .fem import Mesh, build_mesh_1d, build_mesh_rect
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


_TOKEN_RE = re.compile(r"""
    \s*(
        -?\d+\.?\d*(?:[eE][+-]?\d+)?   # number
      | [A-Za-z_][A-Za-z0-9_\-]*       # word
      | "[^"]*"                        # string
      | [()\[\],=]                     # punctuation
    )
""", re.VERBOSE)


def _tokenize(text: str, line_no: int):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"cannot tokenize {text[pos:].strip()!r}", line_no)
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _ValueParser:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.i = 0
        self.line_no = line_no

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ParseError(f"expected {expected or 'a value'}, got {tok!r}", self.line_no)
        self.i += 1
        return tok

    def parse(self):
        value = self.value()
        if self.peek() is not None:
            raise ParseError(f"trailing input {self.peek()!r}", self.line_no)
        return value

    def value(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("missing value", self.line_no)
        if tok == "[":
            return self.list_value()
        if tok.startswith('"'):
            self.take()
            return tok[1:-1]
        if re.fullmatch(r"-?\d+\.?\d*(?:[eE][+-]?\d+)?", tok):
            self.take()
            return float(tok)
        word = self.take()
        if self.peek() == "(":
            return self.call_value(word)
        lowered = word.lower()
        if lowered in ("on", "true", "yes"):
            return True
        if lowered in ("off", "false", "no"):
            return False
        return word

    def list_value(self):
        self.take("[")
        items = []
        if self.peek() == "]":
            self.take("]")
            return items
        items.append(self.value())
        while self.peek() == ",":
            self.take(",")
            items.append(self.value())
        self.take("]")
        return items

    def call_value(self, name):
        self.take("(")
        args, kwargs = [], {}
        if self.peek() != ")":
            while True:
                tok = self.peek()
                if (tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok)
                        and self.i + 1 < len(self.tokens)
                        and self.tokens[self.i + 1] == "="):
                    key = self.take()
                    self.take("=")
                    kwargs[key] = self.value()
                else:
                    if kwargs:
                        raise ParseError("positional argument after keyword", self.line_no)
                    args.append(self.value())
                if self.peek() == ",":
                    self.take(",")
                    continue
                break
        self.take(")")
        return Call(name, args, kwargs)


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
        tokens = _tokenize(rhs.strip(), line_no)
        value = _ValueParser(tokens, line_no).parse()
        sections[current][key] = (value, line_no)
    return sections


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _number(value, line_no, kind=float, listed=False):
    """A config value as ``kind`` (float or int), or as a list of them when
    ``listed``; anything else is a ``ValidationError`` naming the line."""
    if listed:
        if not isinstance(value, list):
            raise ValidationError(f"line {line_no}: expected a list of numbers, got {value!r}")
        return [_number(v, line_no, kind) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"line {line_no}: expected a number, got {value!r}")
    if kind is int:
        if not float(value).is_integer():
            raise ValidationError(f"line {line_no}: expected an integer, got {value!r}")
        return int(value)
    return float(value)


def _build_graph(value, line_no, gamma: Optional[gr.ScalarGraph] = None) -> gr.ScalarGraph:
    if isinstance(value, str) and value == "sign":
        return gr.Sign()
    if not isinstance(value, Call):
        raise ValidationError(f"line {line_no}: expected a graph constructor")
    name = value.name
    try:
        if name == "linear":
            return gr.Linear(*value.args, **value.kwargs)
        if name == "saturating":
            return gr.SaturatingBiLipschitz(*value.args, **value.kwargs)
        if name == "power":
            return gr.Power(*value.args, **value.kwargs)
        if name == "sign":
            return gr.Sign()
        if name == "physical":
            kwargs = dict(value.kwargs)
            h_coef = kwargs.pop("h", value.args[0] if value.args else None)
            s_coef = kwargs.pop("s", value.args[1] if len(value.args) > 1 else None)
            if kwargs:
                raise ValidationError(f"unknown arguments {sorted(kwargs)}")
            if h_coef is None or s_coef is None:
                raise ValidationError("physical(...) needs h and s")
            return gr.PhysicalBeta(h_coef, s_coef, inner=gamma)
        if name == "composite":
            parts = [_build_graph(a, line_no, gamma) for a in value.args]
            return gr.CompositeSum(parts)
    except (TypeError, ValidationError) as exc:
        raise ValidationError(f"line {line_no}: bad graph {name}: {exc}") from exc
    raise ValidationError(f"line {line_no}: unknown graph kind {name!r}")


def _build_mesh(value, line_no) -> Mesh:
    if not isinstance(value, Call):
        raise ValidationError(f"line {line_no}: expected interval(...) or rect(...)")
    try:
        if value.name == "interval":
            kwargs = dict(value.kwargs)
            side = kwargs.pop("gamma1", "right")
            if kwargs:
                raise ValidationError(f"unknown arguments {sorted(kwargs)}")
            length, n = value.args
            return build_mesh_1d(_number(length, line_no), _number(n, line_no, int),
                                 str(side))
        if value.name == "rect":
            args = list(value.args)
            lateral = True
            if args and isinstance(args[-1], str):
                flag = args.pop()
                if flag not in ("lateral", "none"):
                    raise ValidationError(f"rect boundary flag must be lateral or none, got {flag!r}")
                lateral = flag == "lateral"
            if "lateral" in value.kwargs:
                lateral = bool(value.kwargs["lateral"])
            lx, ly, nx, ny = args
            return build_mesh_rect(_number(lx, line_no), _number(ly, line_no),
                                   _number(nx, line_no, int), _number(ny, line_no, int),
                                   lateral)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"line {line_no}: bad domain: {exc}") from exc
    raise ValidationError(f"line {line_no}: unknown domain kind {value.name!r}")


_EXPR_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
                   "log": np.log, "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs}
_EXPR_OPERATORS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
                   ast.Div: np.divide, ast.Pow: np.power,
                   ast.UAdd: np.positive, ast.USub: np.negative}
#: deepest operator nesting accepted; keeps compiling and evaluating the
#: tree far from the interpreter's recursion limit
_EXPR_DEPTH = 100


def _expr_names(dim: int, time_dependent: bool) -> tuple:
    return ("x",) + (("y",) if dim == 2 else ()) + (("t",) if time_dependent else ())


def _compile_expr(text: str, names: tuple, line_no: int):
    """Check ``text`` against the ``expr(...)`` grammar and compile it.

    The grammar is numbers, ``pi``, the variables ``names``, ``+ - * / **``,
    unary ``+``/``-`` and one-argument calls of ``_EXPR_FUNCTIONS``; any
    other node is a ``ValidationError`` naming the line.  The text is parsed,
    never evaluated.  Returns a function of the tuple of variable values, in
    the order of ``names``, that evaluates the checked tree with numpy.
    """
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except (SyntaxError, RecursionError) as exc:
        raise ValidationError(
            f"line {line_no}: bad expression {text!r}: {getattr(exc, 'msg', exc)}") from exc
    node = _expr_node(tree.body, names, line_no, 0)
    return node if callable(node) else (lambda env: node)


def _expr_node(node, names, line_no, depth):
    """A checked node as an ``np.float64`` when it holds no variable (so
    constants are folded here, in float64 arithmetic), else as a function
    of the variable tuple."""
    if depth > _EXPR_DEPTH:
        raise ValidationError(
            f"line {line_no}: expression nested more than {_EXPR_DEPTH} levels deep")
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return _folded(lambda: node.value, node, line_no)
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return np.float64(np.pi)
        if node.id not in names:
            raise ValidationError(f"line {line_no}: unknown name {node.id!r} in expression; "
                                  f"the variables here are {', '.join(names)}")
        i = names.index(node.id)
        return lambda env: env[i]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCTIONS and len(node.args) == 1 and not node.keywords):
        op, parts = _EXPR_FUNCTIONS[node.func.id], node.args
    elif isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPERATORS:
        op, parts = _EXPR_OPERATORS[type(node.op)], [node.left, node.right]
    elif isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPERATORS:
        op, parts = _EXPR_OPERATORS[type(node.op)], [node.operand]
    else:
        hint = " (the power operator is **)" if isinstance(
            getattr(node, "op", None), ast.BitXor) else ""
        raise ValidationError(
            f"line {line_no}: {ast.unparse(node)!r} is not allowed in an expression{hint}")
    args = [_expr_node(part, names, line_no, depth + 1) for part in parts]
    if not any(callable(a) for a in args):
        return _folded(lambda: op(*args), node, line_no)
    fns = [a if callable(a) else (lambda env, c=a: c) for a in args]
    return lambda env: op(*[f(env) for f in fns])


def _folded(compute, node, line_no) -> np.float64:
    try:
        with np.errstate(all="raise"):
            value = np.float64(compute())
    except (FloatingPointError, OverflowError):
        value = np.float64(np.nan)
    if not np.isfinite(value):
        raise ValidationError(f"line {line_no}: {ast.unparse(node)!r} is not a finite number")
    return value


def _expr_field(expr_text: str, mesh: Mesh, line_no: int, time_dependent: bool):
    fn = _compile_expr(expr_text, _expr_names(mesh.dim, time_dependent), line_no)
    coords = (mesh.nodes,) if mesh.dim == 1 else (mesh.nodes[:, 0], mesh.nodes[:, 1])

    def values(env) -> np.ndarray:
        return np.broadcast_to(np.asarray(fn(env), dtype=float), (mesh.n_nodes,)).copy()

    if time_dependent:
        return lambda tv: values(coords + (tv,))
    return values(coords)


def _build_data_field(value, mesh, line_no, beta=None, time_dependent=True):
    if isinstance(value, (int, float)):
        return _number(value, line_no)
    if isinstance(value, Call):
        if value.name == "constant":
            (c,) = value.args
            return _number(c, line_no)
        if value.name == "expr":
            (text,) = value.args
            return _expr_field(str(text), mesh, line_no, time_dependent)
        if value.name == "beta_of":
            if beta is None:
                raise ValidationError(f"line {line_no}: beta_of needs a boundary graph")
            (u_b,) = value.args
            return float(np.asarray(beta.minimal_section(_number(u_b, line_no))))
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


def _build_problem(entries) -> ProblemSpec:
    known = {k: v for k, v in entries.items() if k in _PROBLEM_KEYS}
    missing = {"domain", "gamma", "beta", "T"} - set(known)
    if missing:
        raise ValidationError(f"problem section missing keys {sorted(missing)}")
    mesh = _build_mesh(*known["domain"])
    gamma = _build_graph(*known["gamma"])
    beta = _build_graph(known["beta"][0], known["beta"][1], gamma=gamma)
    c0 = _number(*known["c0"]) if "c0" in known else 1.0
    T = _number(*known["T"])

    def datum(key, time_dependent=True):
        if key not in known:
            return None
        return _build_data_field(known[key][0], mesh, known[key][1],
                                 beta=beta, time_dependent=time_dependent)

    u0 = datum("u0", time_dependent=False)
    return ProblemSpec(mesh=mesh, c0=c0, gamma=gamma, beta=beta,
                       g=datum("g"), h=datum("h"),
                       u0=0.0 if u0 is None else u0, T=T)


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
    return SolverConfig(**kwargs)


def parse_config(text: str, command: str, strict: bool = True) -> RunConfig:
    """Parse and fully validate a configuration for one command."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    sections = _parse_sections(text)
    warnings: list = []

    stray = {k: v for k, v in sections.get("", {}).items()}
    if stray:
        msg = f"keys outside any section: {sorted(stray)}"
        if strict:
            raise ValidationError(msg)
        warnings.append(msg)
    for name, entries in sections.items():
        if not name:
            continue
        if name not in _SECTION_KEYS:
            msg = f"unknown section [{name}]"
            if strict:
                raise ValidationError(msg)
            warnings.append(msg)
            continue
        unknown = set(entries) - _SECTION_KEYS[name]
        if unknown:
            msg = f"unknown keys in [{name}]: {sorted(unknown)}"
            if strict:
                raise ValidationError(msg)
            warnings.append(msg)

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
            raise ValidationError("continuation needs at least two lambda values")

    if command == "graph-check":
        gc = {"lambdas": [1.0, 0.5, 0.25, 0.125],
              "samples": np.linspace(-3.0, 3.0, 25),
              "tolerance": None}
        entries = sections.get("graph_check", {})
        if "lambdas" in entries:
            lambdas, line_no = entries["lambdas"]
            gc["lambdas"] = _number(lambdas if isinstance(lambdas, list) else [lambdas],
                                    line_no, listed=True)
        if "samples" in entries:
            gc["samples"] = np.asarray(_number(*entries["samples"], listed=True))
        if "tolerance" in entries:
            gc["tolerance"] = _number(*entries["tolerance"])
        rc.graph_check = gc

    if command == "convergence":
        entries = sections["convergence"]

        def need(key):
            if key not in entries:
                raise ValidationError(f"[convergence] missing key {key!r}")
            return entries[key]

        def levels(key):
            value, line_no = need(key)
            out = _number(value, line_no, int, listed=True)
            if len(out) < 3:
                raise ValidationError(
                    f"line {line_no}: {key} needs at least three refinement levels")
            return out

        dim = _number(*need("dim"), int)
        if dim not in (1, 2):
            raise ValidationError("[convergence] dim must be 1 or 2")
        gamma_value, gamma_line = need("gamma")
        gamma = _build_graph(gamma_value, gamma_line)
        try:
            check_volume_graph(gamma)
        except ValidationError as exc:
            raise ValidationError(f"line {gamma_line}: {exc}") from exc
        beta = _build_graph(need("beta")[0], need("beta")[1], gamma=gamma)

        def exact(key):
            value, line_no = need(key)
            _compile_expr(str(value), _expr_names(dim, True), line_no)
            return str(value)

        conv = {
            "dim": dim,
            "length": _number(*entries.get("length", (1.0, 0))),
            "gamma1": str(entries.get("gamma1", ("right", 0))[0]),
            "c0": _number(*entries.get("c0", (1.0, 0))),
            "gamma": gamma,
            "beta": beta,
            "T": _number(*need("T")),
            "exact_space": exact("exact_space"),
            "exact_time": exact("exact_time"),
            "space_levels": levels("space_levels"),
            "time_levels": levels("time_levels"),
            "fine_space": _number(*need("fine_space"), int),
            "fine_time": _number(*need("fine_time"), int),
        }
        rc.convergence = conv

    return rc
