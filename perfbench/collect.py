"""Repeat the benchmark over seeds and keep the result in the trajectory.

    python3 perfbench/collect.py [--append LABEL]

Run from the repository root.  For each workload it runs the command of
``BENCHMARK.json`` once per seed 1..10 with tracing off, prints each
end-to-end metric's median, quartiles and spread (interquartile distance
over median) next to a third of its bound, then makes one traced run.
With ``--append`` the numbers are added as a new entry to
``perfbench/results/BENCH_<workload>.json``; earlier entries are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def bench_run(spec, workload, seed, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(l[5:]) for l in lines if l.startswith("env: ")), {})
    return env, json.loads(lines[-1])


def collect(spec, workload):
    results, env = [], {}
    for seed in SEEDS:
        env, result = bench_run(spec, workload, seed, 0)
        results.append(result)
        print(f"  seed {seed}: " + " ".join(
            f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
    entry = {
        "commit": env.get("commit"),
        "environment": {k: env.get(k) for k in
                        ("source_sha256", "python", "numpy", "scipy", "nproc", "cpus",
                         "env")},
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {},
    }
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, q3 = metrics.quartiles(values)
        median, spread = statistics.median(values), metrics.spread(values)
        entry["end_to_end"][m["name"]] = {
            "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": spread, "n": len(values), "values": values}
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"  {m['name']}: median={median:.4f} {m['unit']} "
              f"spread={spread:.4f} bound/3={m['bound'] / 3:.4f} {flag}", flush=True)
    _, result = bench_run(spec, workload, SEEDS[0], 1)
    entry["per_layer"] = {"seed": SEEDS[0], "metrics": {
        k: v["value"] for k, v in result["metrics"].items()}}
    entry["attempted"] += result["attempted"]
    entry["failed"] += result["failed"]
    entry["failed_share"] = metrics.share(entry["failed"], entry["attempted"])
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--append", metavar="LABEL")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for name in (w["name"] for w in spec["workloads"]):
        print(f"{name}:", flush=True)
        entry = collect(spec, name)
        if args.append:
            path = HERE / "results" / f"BENCH_{name}.json"
            path.parent.mkdir(exist_ok=True)
            history = json.loads(path.read_text()) if path.exists() else []
            history.append({"label": args.append, **entry})
            path.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
