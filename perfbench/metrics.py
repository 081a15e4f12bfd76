"""Arithmetic of the benchmark: medians, spreads, self time and the
per-layer metrics derived from a traced run's spans.

Spans are dicts as written by ``tracer.Tracer``: ``id``, ``name``,
``layer``, ``start``, ``end``, ``parent`` and optional ``attrs``.
"""

from __future__ import annotations

import statistics

LAYERS = ("config", "fem", "graphs", "stepper", "verification", "cli")

#: every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "fem.build_mesh_s": "s",
    "fem.build_mesh_calls": "count",
    "fem.assemble_s": "s",
    "fem.assemble_calls": "count",
    "fem.trace_constant_s": "s",
    "graphs.quadrature_s": "s",
    "graphs.quadrature_points": "count",
    "graphs.resolvent_s": "s",
    "graphs.resolvent_points": "count",
    "graphs.regularized_points": "count",
    "graphs.regularized_useful_share": "ratio",
    "stepper.march_s": "s",
    "stepper.steps": "count",
    "stepper.newton_iters": "count",
    "stepper.picard_sweeps": "count",
    "stepper.residual_evals": "count",
    "stepper.residual_s": "s",
    "stepper.line_search_share": "ratio",
    "stepper.linear_solves": "count",
    "stepper.linear_solve_s": "s",
    "stepper.factorizations": "count",
    "stepper.continuation_s": "s",
    "verification.monitors_s": "s",
    "verification.data_norms_s": "s",
    "verification.bounds_s": "s",
    "verification.convergence_s": "s",
    "verification.manufactured_source_s": "s",
    "verification.convergence_solves": "count",
    "verification.convergence_solves_used_share": "ratio",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

_LINEAR_ALGEBRA = ("stepper.spsolve", "stepper.factorize", "stepper.lu_solve")


def quartiles(values):
    """First and third quartile as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def share(part, whole):
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, *names):
        return [s for s in self.spans if s["name"] in names]

    def has_ancestor(self, span, names):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] in names:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def outermost(self, *names):
        """Spans with one of ``names`` and no ancestor with one of them, so
        nested calls (a route calling itself or its sibling) count once."""
        return [s for s in self.named(*names) if not self.has_ancestor(s, names)]

    def time(self, *names):
        return sum((s["end"] - s["start"] for s in self.outermost(*names)), 0.0)

    def self_time(self, span):
        """Duration minus the part of it that child spans cover."""
        start, end = span["start"], span["end"]
        inner = [(max(c["start"], start), min(c["end"], end))
                 for c in self.children.get(span["id"], ())]
        return (end - start) - covered([iv for iv in inner if iv[1] > iv[0]])

    def attr_sum(self, spans, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in spans)


def layer_metrics(spans, used_solves, output_bytes):
    """Per-layer metrics of one traced command, without ``trace.overhead_s``.

    ``used_solves`` is the number of solves whose error the command
    reported (rows of its convergence table); ``output_bytes`` the size of
    what it wrote.  Times are busy time summed over threads.  A
    regularized call counts its points on the active boundary of the
    assembled mesh with that many nodes; a call on a vector of any other
    length counts every point as useful.
    """
    ix = SpanIndex(spans)
    meshes = {s["attrs"]["nodes"]: s["attrs"]["gamma1_nodes"]
              for s in ix.named("fem.assemble")}
    regularized = ix.outermost("graphs.regularized_value",
                               "graphs.regularized_derivative")
    reg_points = ix.attr_sum(regularized, "points")
    useful = sum(meshes.get(s["attrs"]["points"], s["attrs"]["points"])
                 for s in regularized)
    newton = ix.named("stepper.newton")
    newton_iters = ix.attr_sum(newton, "iterations")
    newton_residuals = [s for s in ix.named("stepper.residual")
                        if ix.has_ancestor(s, ("stepper.newton",))]
    conv_solves = [s for s in ix.named("stepper.solve_transient")
                   if ix.has_ancestor(s, ("verification.convergence_order",))]
    out = {
        "config.parse_s": ix.time("config.parse_config"),
        "fem.build_mesh_s": ix.time("fem.build_mesh"),
        "fem.build_mesh_calls": len(ix.named("fem.build_mesh")),
        "fem.assemble_s": ix.time("fem.assemble"),
        "fem.assemble_calls": len(ix.named("fem.assemble")),
        "fem.trace_constant_s": ix.time("fem.trace_constant"),
        "graphs.quadrature_s": ix.time("graphs.quadrature"),
        "graphs.quadrature_points": ix.attr_sum(ix.outermost("graphs.quadrature"),
                                                "points"),
        "graphs.resolvent_s": ix.time("graphs.resolvent"),
        "graphs.resolvent_points": ix.attr_sum(ix.outermost("graphs.resolvent"),
                                               "points"),
        "graphs.regularized_points": reg_points,
        "graphs.regularized_useful_share": share(useful, reg_points),
        "stepper.march_s": ix.time("stepper.solve_transient"),
        "stepper.steps": len(ix.named("stepper.advance")),
        "stepper.newton_iters": newton_iters,
        "stepper.picard_sweeps": ix.attr_sum(ix.named("stepper.picard"), "iterations"),
        "stepper.residual_evals": len(ix.named("stepper.residual")),
        "stepper.residual_s": ix.time("stepper.residual"),
        # the first residual of each Newton solve is not a line-search trial
        "stepper.line_search_share": share(newton_iters,
                                           len(newton_residuals) - len(newton)),
        "stepper.linear_solves": len(ix.named("stepper.spsolve", "stepper.lu_solve")),
        "stepper.linear_solve_s": ix.time(*_LINEAR_ALGEBRA),
        "stepper.factorizations": len(ix.named("stepper.spsolve", "stepper.factorize")),
        "stepper.continuation_s": ix.time("stepper.lambda_continuation"),
        "verification.monitors_s": ix.time("verification.energy_monitors"),
        "verification.data_norms_s": ix.time("verification.data_norms"),
        "verification.bounds_s": ix.time("verification.apriori_bounds"),
        "verification.convergence_s": ix.time("verification.convergence_order"),
        "verification.manufactured_source_s": ix.time("verification.manufactured_source"),
        "verification.convergence_solves": len(conv_solves),
        "verification.convergence_solves_used_share": share(used_solves,
                                                            len(conv_solves)),
        "cli.write_s": ix.time("cli.write"),
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((ix.self_time(s) for s in spans
                                      if s["layer"] == layer), 0.0)
    return out


def self_check(spans, summary):
    """Problems where the traced counts disagree with what the program
    reports itself (its returned states and ``summary.txt``)."""
    ix = SpanIndex(spans)
    states = ix.named("stepper.solve_transient")
    problems = []
    steps = len(ix.named("stepper.advance"))
    if steps != ix.attr_sum(states, "steps"):
        problems.append(f"traced steps {steps} != states' steps "
                        f"{ix.attr_sum(states, 'steps')}")
    if "steps" in summary and steps != int(summary["steps"]):
        problems.append(f"traced steps {steps} != summary steps {summary['steps']}")
    for kind, name in (("newton", "stepper.newton"), ("picard", "stepper.picard")):
        traced = ix.attr_sum(ix.named(name), "iterations")
        reported = ix.attr_sum([s for s in states
                                if s["attrs"]["solver_kind"] == kind], "iterations")
        if traced != reported:
            problems.append(f"traced {kind} iterations {traced} != "
                            f"SolutionState.iterations sum {reported}")
    return problems
