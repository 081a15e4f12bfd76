"""Record the correctness gate's references from the current source tree.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root at the commit whose results are the
reference (the seed commit for the files checked in).  For every
workload and amplitude set it runs the CLI command exactly as the
benchmark does, keeps the final-level result (``u`` of the last level, or
the convergence error table) and computes the tolerance of
``gate.check`` from the solver contract with the library itself.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np

import gate
import run
from workloads import VARIANTS, WORKLOADS


def _solve_tolerance(rc, out: Path) -> float:
    from monoheat.fem import assemble
    from monoheat.stepper import _StepSolver

    spec, cfg = rc.problem, rc.solver
    ops = assemble(spec.mesh)
    n, steps = ops.n_nodes, cfg.n_steps(spec.T)
    rows = (out / "solution.csv").read_text().splitlines()[-2 * n:-n]
    v_prev = np.array([float(r.split(",")[4]) for r in rows])
    solver = _StepSolver(spec, ops, cfg, cfg.lambda_schedule[-1], cfg.epsilon)
    b = solver.rhs(v_prev, cfg.tau * np.arange(steps + 1)[-1])
    return steps * gate.step_allowance(spec, cfg, ops, b)


def _convergence_tolerances(rc) -> np.ndarray:
    """Per reported error: the lumped-norm image of the step allowance,
    for the same solves (and order) as ``monoheat convergence`` reports."""
    from monoheat import verification as ver
    from monoheat.fem import assemble, build_mesh_rect
    from monoheat.stepper import _StepSolver, solve_transient

    conv, base = rc.convergence, rc.solver
    solves = ([(conv["exact_space"], n, conv["fine_time"]) for n in conv["space_levels"]]
              + [(conv["exact_time"], conv["fine_space"], m) for m in conv["time_levels"]])
    tols = []
    for expr, n, steps in solves:
        template = ver.ProblemTemplate(
            mesh=build_mesh_rect(conv["length"], conv["length"], n, n, True),
            c0=conv["c0"], gamma=conv["gamma"], beta=conv["beta"], T=conv["T"])
        spec = ver.manufactured_source(ver.ManufacturedSolution(expr, 2), template)
        cfg = dataclasses.replace(base, tau=conv["T"] / steps)
        ops = assemble(spec.mesh)
        state = solve_transient(spec, cfg, ops=ops)
        solver = _StepSolver(spec, ops, cfg, cfg.lambda_schedule[-1], cfg.epsilon)
        b = solver.rhs(state.v[-2], state.times[-1])
        tols.append(gate.lumped_norm_allowance(
            ops, steps * gate.step_allowance(spec, cfg, ops, b)))
    return np.array(tols)


def record(workload, root: Path) -> dict:
    src = root / "src"
    sys.path.insert(0, str(src))
    from monoheat.config import parse_config

    env = run.command_env(workload, src)
    arrays = {}
    for variant in range(VARIANTS):
        workdir = root / ".perfbench_runs" / f"reference-{workload.name}-{variant}"
        shutil.rmtree(workdir, ignore_errors=True)
        result = run.execute(workload, variant, src, workdir, env, False, 600.0)
        out = workdir / "out"
        if result["code"] != 0:
            raise SystemExit(f"{workload.name} variant {variant} exited "
                             f"{result['code']}:\n{result['stderr']}")
        rc = parse_config(workload.config(variant), command=workload.command)
        if workload.command == "convergence":
            values, tol = gate.convergence_errors(out), _convergence_tolerances(rc)
        else:
            summary = gate.read_summary(out)
            values = gate.final_u(out, int(summary["nodes"]))
            tol = np.array(_solve_tolerance(rc, out))
        problems = gate.check(workload.command, 0, out, (values, tol))
        if problems:
            raise SystemExit(f"{workload.name} variant {variant}: {problems}")
        arrays[f"values_{variant}"] = values
        arrays[f"tol_{variant}"] = tol
        print(f"{workload.name} variant {variant}: {values.size} values, "
              f"tolerance {np.max(tol):.3e}, {result['wall_s']:.2f} s")
        shutil.rmtree(workdir)
    return arrays


def main(names) -> int:
    root = Path.cwd()
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        arrays = record(WORKLOADS[name], root)
        np.savez_compressed(gate.REFERENCE_DIR / f"{name}.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
