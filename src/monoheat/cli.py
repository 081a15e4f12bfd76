"""Command line front end.

Commands: ``graph-check``, ``solve``, ``continuation``, ``convergence``
and ``dependence``.  Diagnostics go to standard error; data goes to files
in the output directory (``solution.csv``, ``boundary.csv``,
``estimates.csv``, ``summary.txt``).  ``solution.csv`` and
``boundary.csv`` are written one time level at a time, and every
node-indexed file ``_BLOCK_ROWS`` rows per write; the ``summary.txt``
of ``solve`` and ``continuation`` reports the solver's largest iteration
count, residual and fixed-point/Newton gap over every march, and the
bound chain of ``verification.verify_solution`` on the final march (or,
with ``bounds.evaluated = false``, its ``bounds.skip_reason``).  Exit
codes: 0 success, including a skipped bound chain, 1 solver failure or
any other package error (``DomainError``, ``DegenerateElement``,
``EmptyBoundary``, ...; one ``error:`` line, no traceback), 2 violated
bound or dependence margin or graph property, 3 configuration error, a
bad command line (unknown flag or command, or none) or a config file,
output directory or output file that cannot be used (one ``error:`` line
naming the path).

Identical configuration and build produce byte-identical outputs; floats
are written with 17 significant digits so files round-trip exactly.
With ``--dump-mesh``, ``solve`` and ``continuation`` also write
``mesh_nodes.csv`` (node id, coordinates, boundary label) and
``mesh_elements.csv`` (element id, vertex ids) through the same block
writer; the other commands write no node-indexed files and ignore the
flag.

``main`` is the process entry point (the ``monoheat`` console script and
``python -m monoheat.cli``) and freezes the import-time heap on entry, so
interpreter shutdown does not tear down what numpy and scipy built at
import.  Every output file is closed by its ``with`` block before ``main``
returns, so no byte of output waits on that teardown.
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import sys
from pathlib import Path

import numpy as np

from . import graphs as gr
from . import verification as ver
from .config import COMMANDS, RunConfig, parse_config
from .errors import ConfigError, MonoheatError, SolverError, ViolationError
from .fem import assemble, build_mesh_1d, build_mesh_rect
from .stepper import lambda_continuation, solve_transient


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: Path, header, rows):
    """Write ``header`` and ``rows`` as RFC 4180 CSV: a field holding a
    comma or a double quote (a graph label such as ``saturating(1,1)``) is
    quoted, every other field is its ``_fmt`` text."""
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_summary(path: Path, items):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items:
            fh.write(f"{key} = {_fmt(value)}\n")


# rows per formatted block of a node-indexed CSV file: the writers below
# hold one block of Python numbers and row strings at a time, so their
# memory stays near 0.1 MiB at any mesh size; chosen by the peak RSS of the
# newton-large benchmark workload (it moves with the allocator's arena
# layout, not monotonically with the block size)
_BLOCK_ROWS = 512
_LABEL_NAMES = np.array(["interior", "gamma0", "gamma1"])  # indexed by fem label


def _write_rows(fh, row: str, columns) -> None:
    """Write ``row % (columns[0][i], columns[1][i], ...)`` for every ``i``,
    formatting ``_BLOCK_ROWS`` rows per ``write``.  A block is one ``%`` of
    ``row`` repeated once per row over the block's values in row order, the
    same text as one ``%`` per row, without a string per row to join."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [c[start:start + _BLOCK_ROWS].tolist() for c in columns]
        fh.write((row * len(block[0])) % tuple(itertools.chain.from_iterable(zip(*block))))


def _write_state_files(out: Path, state, mesh, with_mesh: bool):
    _write_levels(out / "solution.csv", ("k", "t", "node_id", "u", "v"),
                  state.times, np.arange(mesh.n_nodes), (state.u, state.v))
    _write_levels(out / "boundary.csv", ("k", "t", "node_id", "xi"),
                  state.times, mesh.gamma1_nodes, (state.xi,))
    if with_mesh:
        _dump_mesh(mesh, out / "mesh_nodes.csv", out / "mesh_elements.csv")


def _write_levels(path: Path, header, times, node_ids, fields):
    """Rows ``k, t, node_id, fields[0][k, i], ...`` for every level ``k`` and
    node ``node_ids[i]``, in ``_fmt``'s number format (the text
    ``np.savetxt`` writes with ``%d``/``%.17g``)."""
    rest = ",%d" + ",%.17g" * len(fields) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for k, t in enumerate(times.tolist()):
            _write_rows(fh, "%d,%.17g" % (k, t) + rest, (node_ids, *(f[k] for f in fields)))


def _dump_mesh(mesh, node_path: Path, element_path: Path) -> None:
    """Write the node list (coordinates and boundary label) and the element
    list (vertex ids) of ``mesh`` as CSV."""
    n, d = mesh.n_nodes, mesh.dim
    with open(node_path, "w", encoding="utf-8") as fh:
        fh.write("node_id," + ",".join("xy"[:d]) + ",label\n")
        _write_rows(fh, "%d" + ",%.17g" * d + ",%s\n",
                    (np.arange(n), *mesh.nodes.reshape(n, d).T,
                     _LABEL_NAMES[mesh.boundary_labels]))
    with open(element_path, "w", encoding="utf-8") as fh:
        fh.write("element_id," + ",".join(f"v{j}" for j in range(d + 1)) + "\n")
        _write_rows(fh, "%d" + ",%d" * (d + 1) + "\n",
                    (np.arange(len(mesh.elements)), *mesh.elements.T))


_CONST_COLS = ("C1", "C2", "A1", "A2", "A3", "M1", "M2", "L", "C_tr",
               "B1", "B2", "D1", "D2")


def _write_estimates(out: Path, report):
    header = ("k", "t", "l2_u", "h1_u", "grad_sq_cum", "phi_star", "bhat_l1",
              "boundary_work", "boundary_flux_sq", "dual_rate") + _CONST_COLS
    rows = []
    for k, t in enumerate(report.times):
        rows.append((k, t, report.l2_u[k], np.sqrt(report.h1_sq_u[k]),
                     report.grad_sq_cum[k], report.phi_star[k],
                     report.bhat_l1[k], report.boundary_work[k],
                     report.boundary_flux_sq[k], report.dual_rate[k])
                    + ("",) * len(_CONST_COLS))
    summary = ["summary", report.times[-1]] + [""] * 8
    for name in _CONST_COLS:
        summary.append(report.constants.get(name, ""))
    rows.append(tuple(summary))
    _write_csv(out / "estimates.csv", header, rows)


def _solver_items(states):
    """How the per-step solver behaved over every march in ``states``:
    the most iterations in a step, the largest accepted residual and the
    largest fixed-point/Newton gap."""
    return [("max_iterations", max(int(s.iterations.max(initial=0)) for s in states)),
            ("max_residual", max(float(s.residuals.max(initial=0.0)) for s in states)),
            ("solver_disagreement", max(s.disagreement for s in states))]


def _finish_march(out: Path, spec, ops, state, summary) -> int:
    """Verify the final march and write ``estimates.csv`` and ``summary.txt``;
    exit 2 only when the bound chain was evaluated and a check failed."""
    report = ver.verify_solution(state, spec, ops)
    evaluated = report.skip_reason is None
    summary.append(("bounds.evaluated", evaluated))
    if evaluated:
        summary += [(f"constant.{k}", v) for k, v in sorted(report.constants.items())]
        for check in report.bound_checks:
            summary += [(f"bound.{check.name}.value", check.bound),
                        (f"bound.{check.name}.monitored", check.monitored),
                        (f"bound.{check.name}.pass", check.passed)]
        summary.append(("bounds.all_pass", report.all_bounds_pass))
    else:
        summary.append(("bounds.skip_reason", report.skip_reason))
    _write_estimates(out, report)
    _write_summary(out / "summary.txt", summary)
    return 2 if evaluated and not report.all_bounds_pass else 0


def _cmd_graph_check(rc: RunConfig, out: Path) -> int:
    opts = rc.graph_check
    rows = []
    all_pass = True
    summary = [("command", "graph-check"), ("lambdas", len(opts["lambdas"])),
               ("samples", len(opts["samples"]))]
    for graph in gr.builtin_graphs():
        gr.audit_constants(graph)
        report = gr.graph_property_suite(graph, opts["lambdas"], opts["samples"],
                                         tol=opts["tolerance"])
        all_pass &= report.passed
        summary.append((f"graph.{graph.label}.pass", report.passed))
        summary.append((f"graph.{graph.label}.worst_error", report.worst_error()))
        for c in report.checks:
            rows.append((graph.label, c.prop,
                         "" if c.lam is None else c.lam,
                         "" if c.x is None else c.x,
                         c.passed, c.error))
    _write_csv(out / "estimates.csv",
               ("graph", "property", "lambda", "x", "passed", "error"), rows)
    summary.append(("all_pass", all_pass))
    _write_summary(out / "summary.txt", summary)
    return 0 if all_pass else 2


def _cmd_solve(rc: RunConfig, out: Path) -> int:
    spec, cfg = rc.problem, rc.solver
    ops = assemble(spec.mesh)
    state = solve_transient(spec, cfg, ops=ops)
    _write_state_files(out, state, spec.mesh, rc.dump_mesh)
    summary = [("command", "solve"), ("nodes", spec.mesh.n_nodes),
               ("steps", state.n_steps), ("lambda", state.lam),
               ("tau", state.tau)] + _solver_items([state])
    return _finish_march(out, spec, ops, state, summary)


def _cmd_continuation(rc: RunConfig, out: Path) -> int:
    spec, cfg = rc.problem, rc.solver
    ops = assemble(spec.mesh)
    runs = lambda_continuation(spec, cfg, ops=ops)
    lam_final, state, _ = runs[-1]
    _write_state_files(out, state, spec.mesh, rc.dump_mesh)
    summary = [("command", "continuation"), ("nodes", spec.mesh.n_nodes),
               ("levels", len(runs)), ("lambda_final", lam_final)]
    summary += _solver_items([level_state for _, level_state, _ in runs])
    diffs = []
    for lam, _, diff in runs:
        if diff is not None:
            summary.append((f"continuation.cauchy_diff.{_fmt(lam)}", diff))
            diffs.append(diff)
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    summary.append(("continuation.monotone_decreasing", decreasing))
    return _finish_march(out, spec, ops, state, summary)


def _cmd_convergence(rc: RunConfig, out: Path) -> int:
    conv = rc.convergence
    dim = conv["dim"]
    length = conv["length"]

    def make_template(n):
        m = (build_mesh_1d(length, n, conv["gamma1"]) if dim == 1
             else build_mesh_rect(length, length, n, n, True))
        return ver.ProblemTemplate(mesh=m, c0=conv["c0"], gamma=conv["gamma"],
                                   beta=conv["beta"], T=conv["T"])

    # one study per axis, on the exact field built for it; the space study
    # takes the fine time level and the time study the fine mesh
    axes = (("space", "fine_time"), ("time", "fine_space"))
    studies = {axis: ver.convergence_order(
        make_template, ver.ManufacturedSolution(conv[f"exact_{axis}"], dim), axis,
        conv[f"{axis}_levels"], conv[fine], rc.solver) for axis, fine in axes}
    _write_csv(out / "estimates.csv", ("axis", "h_or_tau", "error"),
               [(axis, x, e) for axis, _ in axes for x, e in studies[axis]["errors"]])
    _write_summary(out / "summary.txt", [("command", "convergence")] + [
        (f"order_{axis}", studies[axis]["order"]) for axis, _ in axes])
    return 0


def _cmd_dependence(rc: RunConfig, out: Path) -> int:
    ops = assemble(rc.problem.mesh)
    report = ver.dependence_check(rc.problem, rc.problem2, rc.solver, ops=ops)
    _write_csv(out / "estimates.csv",
               ("name", "value"),
               [("lhs", report.lhs), ("rhs", report.rhs),
                ("c_dep", report.c_dep), ("margin", report.margin)])
    _write_summary(out / "summary.txt", [
        ("command", "dependence"),
        ("alpha_eff", report.alpha_eff),
        ("lhs", report.lhs),
        ("lhs.sup_sq_l2", report.sup_sq_l2),
        ("lhs.grad_sq_l2l2", report.grad_sq_l2l2),
        ("rhs", report.rhs),
        ("rhs.initial", report.rhs_initial),
        ("rhs.g", report.rhs_g),
        ("rhs.h", report.rhs_h),
        ("c_dep", report.c_dep),
        ("margin", report.margin),
        ("margin_nonnegative", report.margin >= 0.0),
    ])
    return 0 if report.margin >= 0.0 else 2


_DISPATCH = {
    "graph-check": _cmd_graph_check,
    "solve": _cmd_solve,
    "continuation": _cmd_continuation,
    "convergence": _cmd_convergence,
    "dependence": _cmd_dependence,
}


def run(rc: RunConfig) -> int:
    """Execute one parsed command, mapping errors to exit codes."""
    out = Path(rc.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: output directory {out}: {exc.strerror or exc}", file=sys.stderr)
        return 3
    for warning in rc.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    try:
        return _DISPATCH[rc.command](rc, out)
    except OSError as exc:  # an output file that cannot be written
        print(f"error: output file {exc.filename or out}: {exc.strerror or exc}", file=sys.stderr)
        return 3
    except MonoheatError as exc:
        return _report(exc)


#: stderr prefix and exit code of each error branch of ``errors``
_ERROR_EXITS = ((ConfigError, "error: ", 3), (SolverError, "solver failure: ", 1),
                (ViolationError, "violation: ", 2))


def _report(exc: MonoheatError) -> int:
    """Print the one stderr line of a package error and return its exit
    code; an error of no branch names its class and exits 1."""
    prefix, code = next(((prefix, code) for cls, prefix, code in _ERROR_EXITS
                         if isinstance(exc, cls)), (f"error: {type(exc).__name__}: ", 1))
    print(f"{prefix}{exc}", file=sys.stderr)
    return code


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors are configuration errors, exit 3:
    argparse itself prints its usage and exits 2, the code of a violated
    bound."""

    def error(self, message):
        raise ConfigError(f"command line: {message}")


def _parse_args(argv):
    parser = _ArgumentParser(
        prog="monoheat",
        description="doubly nonlinear heat flow solver and estimate checker")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="configuration file (key = value grammar)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--dump-mesh", action="store_true",
                        help="also write mesh_nodes.csv and mesh_elements.csv")
    strict = parser.add_mutually_exclusive_group()
    strict.add_argument("--strict", dest="strict", action="store_true", default=True)
    strict.add_argument("--no-strict", dest="strict", action="store_false")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one ``monoheat`` command and return its exit code.

    ``main`` owns the process: it freezes every object alive on entry into
    the collector's permanent generation (``gc.freeze``), so no later
    collection, and no collection at interpreter shutdown, traverses or
    frees the import-time heap.  Call it from a process entry point;
    library code calls ``run`` or the solver functions instead.  In a
    process that calls it more than once, each call also freezes whatever
    cyclic garbage is uncollected at that moment, until exit.
    """
    gc.freeze()
    try:
        args = _parse_args(argv)
    except ConfigError as exc:
        return _report(exc)
    text = ""
    if args.config is not None:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: config file {path}: {getattr(exc, 'strerror', None) or exc}",
                  file=sys.stderr)
            return 3
    elif args.command != "graph-check":
        print("error: --config is required for this command", file=sys.stderr)
        return 3
    try:
        rc = parse_config(text, command=args.command, strict=args.strict)
    except MonoheatError as exc:
        return _report(exc)
    rc.out_dir = args.out
    rc.dump_mesh = getattr(args, "dump_mesh", False)
    return run(rc)


if __name__ == "__main__":
    sys.exit(main())
