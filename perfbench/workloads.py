"""The benchmark's workloads: one ``monoheat`` CLI command each.

Every workload is a 2-D configuration that puts most of its time in a
different layer (its ``why`` in ``BENCHMARK.json`` says which).  The
workload seed perturbs only data amplitudes (u0, g and h); mesh size, step
count and the lambda schedule never change with the seed.  Seeds map onto
``VARIANTS`` amplitude sets so that each set has a final-level solution
recorded from the seed commit in ``perfbench/reference/`` for the
correctness gate.

Sizes are chosen so that one command takes 2-5 s on a 2-vCPU machine.
Single commands there vary by about 15% from run to run, so the runner
repeats each command, with a yardstick after each, four to six times per
run and reports medians.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: number of distinct amplitude sets a seed can select
VARIANTS = 8


@dataclass(frozen=True)
class Amplitudes:
    u0: float
    g: float
    h: float


def amplitudes(seed: int) -> Amplitudes:
    """Amplitude multipliers in [0.97, 1.0] for u0, g and h.

    The upper end keeps ``|g|inf <= 1`` on ``radiative-small``, so its
    discrete Gronwall factor stays admissible and the bounds are checked.
    The range is narrow because the adaptive quadrature's work grows with
    the amplitude of u0 (about 7% more evaluations from 0.91 to 1.0).
    """
    rng = random.Random(seed % VARIANTS)
    return Amplitudes(*(0.97 + 0.03 * rng.random() for _ in range(3)))


def _solve_config(w, amp):
    return f"""[problem]
domain = rect(1.0, 1.0, {w.n}, {w.n}, lateral)
c0 = 1.0
gamma = saturating(1.0, 1.0)
beta = {w.beta}
g = expr("{amp.g!r}*sin(pi*x)*exp(-t)")
h = beta_of({0.5 * amp.h!r})
u0 = expr("{amp.u0!r}*cos(pi*x/2)")
T = {w.T!r}

[solver]
tau = {w.tau!r}
lambda_schedule = [{", ".join(repr(l) for l in w.schedule)}]
solver_kind = {w.solver_kind}
"""


def _convergence_config(amp):
    # the exact field carries the amplitude, so u0, g and h scale with it
    a = repr(amp.u0)
    return f"""[convergence]
dim = 2
gamma = linear(2.0)
beta = linear(1.0)
T = 0.5
exact_space = "{a}*(1 + t/2)*cos(pi*x/2)*cos(pi*y)"
exact_time = "{a}*exp(-2*t)*cos(pi*x/2)*cos(pi*y)"
space_levels = [16, 32, 64]
time_levels = [8, 16, 32]
fine_space = 64
fine_time = 32

[solver]
tau = 0.1
lambda_schedule = [0.0]
"""


_RADIATIVE = "composite(linear(1.0), power(4.0))"


@dataclass(frozen=True)
class Workload:
    """One CLI command.  ``solve`` and ``continuation`` run on
    ``rect(1.0, 1.0, n, n, lateral)`` with the other fields as config
    values; the ``convergence`` study is fixed and ignores them."""

    name: str
    command: str
    threads: int
    n: int = 0
    beta: str = ""
    T: float = 0.0
    tau: float = 0.0
    schedule: tuple = ()
    solver_kind: str = "newton"

    def config(self, seed: int) -> str:
        amp = amplitudes(seed)
        if self.command == "convergence":
            return _convergence_config(amp)
        return _solve_config(self, amp)


WORKLOADS = {w.name: w for w in (
    Workload("radiative-small", "solve", 1, n=6, beta="physical(h=1.0, s=1.0)",
             T=0.025, tau=0.005, schedule=(0.0625,)),
    Workload("newton-large", "solve", 1, n=96, beta=_RADIATIVE,
             T=0.125, tau=0.025, schedule=(0.0625,)),
    Workload("continuation-picard", "continuation", 2, n=64, beta=_RADIATIVE,
             T=0.05, tau=0.025, schedule=(0.5, 0.25, 0.125, 0.0625),
             solver_kind="picard"),
    Workload("convergence-2d", "convergence", 1),
)}
