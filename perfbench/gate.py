"""Correctness gate applied to every benchmark command.

A command passes when it exits with 0, its ``summary.txt`` reports what
the workload promises (bounds evaluated and passed, or convergence orders
inside the acceptance windows), and its final-level result matches the
reference recorded from the seed commit in ``perfbench/reference/``.

The reference tolerance is not byte equality.  ``_StepSolver.advance``
allows two residual-accepted answers of one step to differ by
``10*max(tol)*(1+|b|)/min(c0*c_low*min(mass), 1)``; the recorded
tolerance is that allowance for the last step times the number of steps,
so any answer the solver contract accepts at every step passes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ORDER_WINDOWS = {"order_space": (1.9, 2.1), "order_time": (0.9, 1.1)}


def read_summary(out: Path) -> dict:
    items = {}
    for line in (out / "summary.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        items[key] = value
    return items


def final_u(out: Path, n_nodes: int) -> np.ndarray:
    """``u`` at the last level of ``solution.csv`` (its last n rows)."""
    lines = (out / "solution.csv").read_text(encoding="utf-8").splitlines()
    rows = lines[-n_nodes:]
    if len(lines) <= n_nodes or len({r.split(",", 1)[0] for r in rows}) != 1:
        raise ValueError("solution.csv does not end with one full level")
    return np.array([float(r.split(",")[3]) for r in rows])


def convergence_errors(out: Path) -> np.ndarray:
    """Error column of a convergence command's ``estimates.csv``."""
    lines = (out / "estimates.csv").read_text(encoding="utf-8").splitlines()[1:]
    return np.array([float(r.split(",")[2]) for r in lines])


def load_reference(workload: str, variant: int):
    """``(values, tolerance)`` recorded for one workload and amplitude set."""
    with np.load(REFERENCE_DIR / f"{workload}.npz") as data:
        return data[f"values_{variant}"], data[f"tol_{variant}"]


def check(command: str, code: int, out: Path, reference) -> list:
    """Problems with one command's outputs; empty when it passes."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        summary = read_summary(out)
        values, tol = reference
        problems = []
        if command == "convergence":
            for key, (lo, hi) in ORDER_WINDOWS.items():
                order = float(summary[key])
                if not lo <= order <= hi:
                    problems.append(f"{key} = {order} outside [{lo}, {hi}]")
            got = convergence_errors(out)
            if got.shape != values.shape:
                return problems + [f"{got.size} errors, reference has {values.size}"]
            for e, ref, t in zip(got, values, tol):
                if not abs(e - ref) <= t:
                    problems.append(f"error {e!r} differs from reference {ref!r} "
                                    f"by more than {t:.3e}")
            return problems
        for key in ("bounds.evaluated", "bounds.all_pass"):
            if summary.get(key) != "true":
                problems.append(f"{key} = {summary.get(key)}")
        u = final_u(out, int(summary["nodes"]))
        if u.shape != values.shape:
            return problems + [f"{u.size} nodes, reference has {values.size}"]
        gap = float(np.linalg.norm(u - values))
        if not gap <= float(tol):
            problems.append(f"final u differs from reference by {gap:.3e} "
                            f"(allowed {float(tol):.3e})")
        return problems
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def step_allowance(spec, config, ops, b) -> float:
    """The gap ``_StepSolver.advance`` allows between two accepted answers
    of a step with right-hand side ``b``."""
    sigma_floor = (spec.c0 * spec.gamma.constants().lipschitz_lower
                   * float(np.min(ops.mass)))
    return (10.0 * max(config.picard_tol, config.newton_tol)
            * (1.0 + float(np.linalg.norm(b))) / min(sigma_floor, 1.0))


def lumped_norm_allowance(ops, allowance: float) -> float:
    """Bound on the change of a lumped-l2 norm when the nodal vector moves
    by at most ``allowance`` in the Euclidean norm."""
    return math.sqrt(float(np.max(ops.mass))) * allowance
