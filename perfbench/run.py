"""monoheat benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/monoheat`` must exist).  Each
measured command is one ``monoheat`` CLI command in a fresh process; the
runner repeats it until ``--seconds`` are used and gates every output for
correctness.  With ``--trace 0`` it also times the yardstick
(``yardstick.py``) before the first command and after each one, and
reports the end-to-end metrics as medians over the commands, with the
times scaled to the host speed the yardstick measured around each
command; with ``--trace 1`` it alternates untraced and traced commands
and reports the per-layer metrics of the traced ones plus the tracing
overhead.  The last line of standard output is the result as
one JSON object; the lines before it record the environment, every
command's measurements and the spread of each metric.  Medians are taken
over the commands that pass the correctness gate; when none passes, the
runner prints no result and exits with 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import gate
import metrics
from workloads import VARIANTS, WORKLOADS, amplitudes

HERE = Path(__file__).resolve().parent
#: a run must end within this many seconds of its start
HARD_LIMIT_S = 170.0
#: about the yardstick's median time on the 2-vCPU Xeon host the benchmark
#: was built on.  ``wall_s`` and ``setup_s`` are a command's measured times
#: multiplied by this and divided by the yardstick's time around the
#: command, so they read as seconds on that host at its usual speed.
YARDSTICK_S = 1.5


def monotonic() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the child's set-up
    # stamp and the parent's start time share one clock
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def command_cpus(workload) -> set:
    """CPUs the commands run on, with one yardstick on each.  The host's
    CPUs drift in speed independently of each other, so a single-threaded
    workload shares one CPU with its yardstick; a multi-threaded one gets
    them all."""
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus if workload.threads > 1 else cpus[-1:])


def pinned_env(workload) -> dict:
    """Variables every command runs with, whatever the caller's shell has."""
    return {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "MONOHEAT_THREADS": str(min(workload.threads, nproc())),
        # a fixed hash seed keeps sympy's set and dict orders, and so its
        # work, the same in every command
        "PYTHONHASHSEED": "0",
    }


def command_env(workload, src: Path) -> dict:
    env = dict(os.environ)
    # byte-code caches on, as for a user; the warm-up fills them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(pinned_env(workload))
    env["PYTHONPATH"] = str(src)
    return env


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "monoheat").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root: Path, src: Path, workload, seed: int, cpus: set) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "variant": seed % VARIANTS,
        "amplitudes": vars(amplitudes(seed)),
        "commit": git_commit(root),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "cpus": sorted(cpus),
        "env": pinned_env(workload),
    }


def execute(workload, seed: int, src: Path, workdir: Path, env: dict,
            trace: bool, timeout: float) -> dict:
    """Run one CLI command in a fresh process and measure it."""
    workdir.mkdir(parents=True)
    cfg, out = workdir / "run.cfg", workdir / "out"
    cfg.write_text(workload.config(seed), encoding="utf-8")
    stamps, spans = workdir / "stamps.json", workdir / "spans.json"
    argv = [sys.executable, str(HERE / "launch.py"), str(stamps), str(src)]
    if trace:
        argv += ["--trace", str(spans)]
    argv += ["--", workload.command, "--config", str(cfg), "--out", str(out)]
    with open(workdir / "stderr.txt", "wb") as err:
        start = monotonic()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    result = {"code": code, "traced": trace, "wall_s": end - start,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        setup_end = json.loads(stamps.read_text()).get("setup_end")
    except (OSError, ValueError):
        setup_end = None
    result["setup_s"] = None if setup_end is None else setup_end - start
    result["stderr"] = (workdir / "stderr.txt").read_text(errors="replace")[-2000:]
    if trace and spans.exists():
        result["spans"] = json.loads(spans.read_text())
    result["output_bytes"] = sum(p.stat().st_size for p in out.glob("*")) \
        if out.exists() else 0
    return result


def yardstick(workdir: Path, env: dict, cpus: set, timeout: float) -> float:
    """Mean wall time of ``yardstick.py`` run at once on each of ``cpus``,
    one fresh process pinned to each CPU."""
    workdir.mkdir(parents=True)
    running = {}
    for cpu in sorted(cpus):
        with open(workdir / f"stderr{cpu}.txt", "wb") as err:
            start = monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "yardstick.py"),
                                     str(workdir / f"out{cpu}")], env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        os.sched_setaffinity(proc.pid, {cpu})
        running[proc.pid] = (proc, cpu, start)
    killers = [threading.Timer(timeout, proc.kill) for proc, _, _ in running.values()]
    for killer in killers:
        killer.start()
    times, failed = [], []
    try:
        # the yardsticks are the runner's only children now; os.wait takes
        # each as it ends, so none is timed by another's end
        while running:
            pid, status = os.wait()
            end = monotonic()
            proc, cpu, start = running.pop(pid)
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            times.append(end - start)
            if code != 0:
                err = (workdir / f"stderr{cpu}.txt").read_text(errors="replace")
                failed.append(f"exit {code} on CPU {cpu}:\n{err}")
    finally:
        for killer in killers:
            killer.cancel()
    shutil.rmtree(workdir, ignore_errors=True)
    if failed:
        raise SystemExit("yardstick failed:\n" + "\n".join(failed))
    return statistics.mean(times)


def warm_up(src: Path, env: dict) -> None:
    """Import the package once so byte-code caches exist before timing."""
    proc = subprocess.run([sys.executable, "-c", "import monoheat.cli"], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"cannot import monoheat from {src}:\n"
                         f"{proc.stderr.decode(errors='replace')}")


def bounds() -> dict:
    """Regression bound of each end-to-end metric in ``BENCHMARK.json``."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def summarize(name: str, values, unit: str, bound: float) -> str:
    """One metric's spread over the commands of a run.  A run whose
    commands spread by more than a third of the bound is marked
    ``unresolved``: its median cannot tell a change of bound size from
    the host's own variation."""
    q1, q3 = metrics.quartiles(values)
    spread = metrics.spread(values)
    verdict = "resolved" if spread <= bound / 3 else "unresolved"
    return (f"{name}: min={min(values)!r} median={statistics.median(values)!r} "
            f"q1={q1!r} q3={q3!r} spread={spread:.4f} n={len(values)} "
            f"unit={unit} bound/3={bound / 3:.4f} {verdict}")


def check_command(workload, run: dict, out: Path, reference) -> list:
    """Gate one command; for a traced one also derive its layer metrics."""
    problems = gate.check(workload.command, run["code"], out, reference)
    if run["setup_s"] is None:
        problems.append("parse_config never returned")
    if run["traced"] and not problems:
        spans = run.pop("spans", [])
        problems = metrics.self_check(spans, gate.read_summary(out))
        used = (len(gate.convergence_errors(out))
                if workload.command == "convergence" else 0)
        run["layers"] = metrics.layer_metrics(spans, used, run["output_bytes"])
    return problems


def passing(runs):
    """The untraced and the traced commands that passed the gate."""
    passed = [r for r in runs if r["passed"]]
    return ([r for r in passed if not r["traced"]],
            [r for r in passed if r["traced"]])


def scaled(run: dict, name: str) -> float:
    """A command's time at the host speed ``YARDSTICK_S`` stands for."""
    return run[name] * YARDSTICK_S / run["yardstick_s"]


def end_to_end(plain) -> dict:
    """Medians over the untraced commands that passed the gate.  Times
    are scaled by the yardstick; memory is as measured."""
    out, bound = {}, bounds()
    for name in ("wall_s", "setup_s", "yardstick_s"):
        print(summarize(f"measured {name}", [r[name] for r in plain], "s",
                        bound["wall_s"]))
    for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
        values = [scaled(r, name) if unit == "s" else r[name] for r in plain]
        print(summarize(name, values, unit, bound[name]))
        out[name] = {"value": statistics.median(values), "unit": unit}
    return out


def per_layer(plain, traced) -> dict:
    """Medians over the traced commands that passed the gate, and the
    traced minus the untraced median wall time."""
    out = {}
    for name, unit in metrics.PER_LAYER_UNITS.items():
        if name != "trace.overhead_s":
            value = statistics.median([r["layers"][name] for r in traced])
            out[name] = {"value": value, "unit": unit}
    overhead = (statistics.median([r["wall_s"] for r in traced])
                - statistics.median([r["wall_s"] for r in plain]))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "monoheat" / "cli.py").is_file():
        print(f"error: no monoheat sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = gate.load_reference(workload.name, args.seed % VARIANTS)
    env = command_env(workload, src)
    warm_up(src, env)
    cpus = command_cpus(workload)
    print("env: " + json.dumps(environment(root, src, workload, args.seed, cpus)))
    # the commands and yardsticks inherit this; nproc() is read before it
    os.sched_setaffinity(0, cpus)

    rundir = root / ".perfbench_runs" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    runs, failed, traced = [], 0, bool(args.trace)
    start = monotonic()
    try:
        if not traced:
            # the host's speed during a command is taken from the mean of
            # the yardstick's times just before and just after it
            before = yardstick(rundir / "yardstick", env, cpus, HARD_LIMIT_S)
        while True:
            # a traced run alternates untraced and traced commands, so the
            # overhead is measured against commands of the same run
            trace_this = traced and len(runs) % 2 == 1
            cmd_dir = rundir / f"cmd{len(runs)}"
            timeout = max(1.0, HARD_LIMIT_S - (monotonic() - began))
            run = execute(workload, args.seed, src, cmd_dir, env, trace_this, timeout)
            problems = check_command(workload, run, cmd_dir / "out", reference)
            shutil.rmtree(cmd_dir, ignore_errors=True)
            last = run["wall_s"]
            if not traced:
                timeout = max(1.0, HARD_LIMIT_S - (monotonic() - began))
                after = yardstick(rundir / "yardstick", env, cpus, timeout)
                run["yardstick_s"] = (before + after) / 2
                before = after
                last += after
            print(f"command {len(runs)}: traced={int(trace_this)} code={run['code']} "
                  f"wall_s={run['wall_s']!r} setup_s={run['setup_s']!r} "
                  f"peak_rss_mb={run['peak_rss_mb']!r} "
                  f"yardstick_s={run.get('yardstick_s')!r}", flush=True)
            run["passed"] = not problems
            if problems:
                failed += 1
                print(f"command {len(runs)} failed: {problems}\n{run['stderr']}",
                      file=sys.stderr)
            runs.append(run)
            enough = not traced or len(runs) >= 2
            if enough and (monotonic() - start + last > args.seconds
                           or monotonic() - began + 2.0 * last > HARD_LIMIT_S):
                break
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    print(f"failed_share: {failed}/{len(runs)} = {metrics.share(failed, len(runs))!r}")
    plain, traced_ok = passing(runs)
    if not plain or (traced and not traced_ok):
        print("error: no command passed the correctness gate", file=sys.stderr)
        return 1
    out = per_layer(plain, traced_ok) if traced else end_to_end(plain)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
