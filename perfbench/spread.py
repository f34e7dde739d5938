"""Repeat the benchmark across seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads batch --seeds 1-10
    python3 perfbench/spread.py --selfcheck --workloads dse_sweep --seeds 5

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a
share of their median; the bounds in ``BENCHMARK.json`` are compared
against it.  ``--out FILE`` writes every run, the environment
fingerprint and the summary as JSON.  Runs go seed by seed, each seed
over every workload in turn.

``--selfcheck`` runs each seed twice with ``--trace 1`` and requires the
deterministic counts (simulated ns/pJ, IR op counts, rows written,
searches and, where they are fixed, plan traces) to match exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (env, detail, result), with the run's
    wall time in the detail."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    lines = [json.loads(x) for x in proc.stdout.strip().splitlines()]
    lines[1]["detail"]["wall_s"] = time.perf_counter() - start
    return lines[0]["env"], lines[1]["detail"], lines[-1]


def deterministic(run):
    """The counts of a traced run that must repeat exactly for a seed: the
    workload's own ``counts`` and the IR op counts after each pass."""
    _env, detail, result = run
    counts = dict(detail["traced"]["counts"])
    counts.update({
        name: m["value"] for name, m in result["metrics"].items()
        if name.startswith("ir.ops_after_")
    })
    return counts


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="dse_sweep,batch,serve_mutate")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    workloads = args.workloads.split(",")
    runs = {workload: [] for workload in workloads}
    ok = True
    # Seeds outside, workloads inside: a drift of the host over the
    # proof spreads across every workload instead of piling onto one.
    for seed in seeds_of(args.seeds):
        for workload in workloads:
            if args.selfcheck:
                first, second = (
                    deterministic(run_once(workload, seed, seconds, 1))
                    for _ in range(2)
                )
                same = first == second
                ok &= same
                report["workloads"].setdefault(workload, {})[seed] = {
                    "counts": first, "repeated": same,
                }
                for name, value in first.items():
                    other = second.get(name)
                    diff = "" if value == other else f" != {other}"
                    print(f"{workload} seed {seed} {name}: {value}{diff}")
                continue
            env, detail, result = run_once(workload, seed, seconds, 0)
            report["env"] = env
            runs[workload].append(
                {"seed": seed, "result": result, "detail": detail})
            ok &= result["correct"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ) + f" (failed {result['failed']}/{result['attempted']})",
                flush=True)
    for workload in workloads:
        if not runs[workload]:
            continue
        summary = {}
        for name in runs[workload][0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"]
                      for r in runs[workload]]
            s = spread(values)
            bound = bounds.get(name)
            summary[name] = {
                "median": statistics.median(values), "spread": s,
                "bound": bound,
            }
            flag = ""
            if bound is not None:
                flag = "ok" if s <= bound / 3 else (
                    "within bound" if s <= bound else "OVER BOUND")
                ok &= s <= bound
            print(f"  {workload} {name}: median {summary[name]['median']:.6g}"
                  f" spread {s:.3f} {flag}")
        report["workloads"][workload] = {
            "runs": runs[workload], "summary": summary,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, default=float)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
