"""Yardstick: a fixed program the runner times next to every command.

    python3 perfbench/yardstick.py OUTDIR

The host the benchmark runs on is shared, and its speed drifts by up to
1.5x over tens of seconds.  The yardstick does the kinds of work a
``monoheat`` command does -- interpreter start, imports of numpy, scipy
and sympy, a Python loop over mesh elements, sparse factorisations and
solves, vectorised bisection and writing a CSV file -- but never changes
with the code under test.  Its time, taken just before and just after a
command, says how fast the host was while the command ran.  It exits with
1 if its own answer is wrong.
"""

import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import sympy

N = 96          # mesh cells per side
SOLVES = 8      # factorisations of the shifted stiffness matrix
BISECTIONS = 60


def stiffness(n):
    """P1 stiffness matrix of the unit square on an n x n grid of
    triangles, assembled element by element."""
    nodes = (n + 1) * (n + 1)
    local = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    rows, cols, vals = [], [], []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            for tri in ((a, a + 1, a + n + 1), (a + n + 2, a + n + 1, a + 1)):
                for r in range(3):
                    for c in range(3):
                        rows.append(tri[r])
                        cols.append(tri[c])
                        vals.append(local[r, c])
    return sp.csc_matrix((vals, (rows, cols)), shape=(nodes, nodes))


def main(argv):
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    x, t = sympy.symbols("x t")
    field = sympy.lambdify((x, t), sympy.sin(sympy.pi * x) * sympy.exp(-t), "numpy")
    K = stiffness(N)
    grid = np.linspace(0.0, 1.0, N + 1)
    xs = np.tile(grid, N + 1)
    u = np.zeros(K.shape[0])
    for step in range(SOLVES):
        b = field(xs, 0.1 * step) + u
        u = spla.spsolve(K + sp.identity(K.shape[0], format="csc"), b)
    # the root of v + v**3 = u for every node, by bisection
    lo, hi = np.full_like(u, -2.0), np.full_like(u, 2.0)
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        above = mid + mid ** 3 > u
        hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
    v = 0.5 * (lo + hi)
    rows = [f"{k},{xs[k]!r},{u[k]!r},{v[k]!r}" for k in range(u.size)] * 4
    (out / "yardstick.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0 if np.max(np.abs(v + v ** 3 - u)) < 1e-12 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
