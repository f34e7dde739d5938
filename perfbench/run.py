"""The repository benchmark: C4CAM's compiler, simulator and serving stack
timed end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
carry the environment fingerprint (``{"env": ...}``) and the full
per-run detail (``{"detail": ...}``).  Nothing here sets a BLAS or
OpenMP thread variable: the program runs under the host's defaults,
which the fingerprint records.

Workloads (the seed makes every input; the program sees only those):

``dse_sweep``
    The paper's Fig. 8 sweep, closed loop: the HDC store (10 × 8192,
    bipolar) and the KNN store (1024 × 1024, k = 5) on N × N subarrays,
    N ∈ {16..256}, for each optimisation target: 40 configs, each
    compiled, programmed and asked one query.  Time goes to programming
    and plan tracing.
``batch``
    Two programmed stores answer 64-query batches in a closed loop from
    one caller, alternating: the KNN store on an analog CAM (real
    Euclidean, per-slice scorer) and a 256 × 256 bipolar dot store
    (exact-BLAS rewrite).  Set-up is paid once; time goes to the fused
    plan, the scorers and the top-k.
``serve_mutate``
    A four-tenant ``Cluster`` (256 × 256 dot stores, Zipf weights 1,
    0.25, 0.1, 0.0625; the hot tenant sharded over two machines;
    ``autoscale_max_lanes=2``) under open-loop Poisson traffic of
    1–4-row requests from this thread, about 2 % of them mutations of
    the hot tenant.  Two fifths of the run are at 500 req/s; then a
    rate ladder climbs and stops at the first step that misses the
    25 ms p99 limit, lets a backlog build or lets the generator fall
    behind; the rest is a closed loop of 16 clients whose median
    completion rate over 1 s windows is the cluster's capacity.

End-to-end metrics, reported by every workload (``--trace 0``):

``setup_s``
    Median of eleven set-ups: build inputs, compile, program, open the
    cluster, up to the first timed operation.
``throughput_per_s``
    Configs per second (dse_sweep), the geometric mean over the two
    stores of 64 queries per median batch time (batch), or the capacity
    of the closed loop (serve_mutate).
``latency_p50_ms``
    Median config time (dse_sweep), the geometric mean of the two
    stores' median batch times (batch), or the median read latency at
    500 req/s timed from each request's due time (serve_mutate).  On
    batch the two gates read the same medians; the mean-based
    ``qps_knn``/``qps_dot`` readings of ``--trace 1`` keep the stalls.
``peak_rss_mb``
    Peak resident memory of the process.

``--trace 1`` runs the workload three times, each for a third of the
seconds: unwrapped to warm the process, with spans around every layer
boundary (:mod:`tracing`) for each layer's self time and counters, and
unwrapped again for the workload readings (``qps_knn``,
``served_p99_ms``, ...) and the tracing overhead.  Spans are
written to ``perfbench/out/``.  A metric a workload does not exercise
reads 0.  Layer times (``*_s``) are self times summed over the traced
pass, set-ups included.  The counts that must repeat exactly for one
seed (``sim_*``, ``ir.ops_after_*``, ``session.rows_written``,
``simulator.searches``, ``fused.traces``) cover one fixed unit of work:
the first sweep (dse_sweep), the first set-up and one batch per store
(batch; ``fused.traces`` counts re-traces in the timed loop, expected
0), or the set-up (serve_mutate, where ``fused.traces`` counts every
trace in the traced pass and depends on timing).  ``perfbench/spread.py``
repeats runs across seeds and checks those counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

READINGS = (
    "dse_configs_per_s", "qps_knn", "qps_dot", "served_p50_ms",
    "served_p99_ms", "sustained_rps", "mutation_p50_ms", "mutation_p99_ms",
    "sim_ns_per_query", "sim_pj_per_query",
)
SERVE_LAYERS = tuple(
    f"serving.{name}_ms_{q}"
    for name in ("queue", "coalesce", "run", "merge") for q in ("p50", "p99")
) + (
    "serving.rows_per_batch", "serving.zero_copy_ratio",
    "cluster.lanes_peak", "cluster.autoscale_events",
    "cluster.defrag_count", "session.compactions",
)
#: Span name -> self-time metric (pass spans are added from tracing.PASSES).
SELF_TIMES = {
    "frontend.import": "frontend.import_s",
    "session.open": "session.open_s",
    "session.run": "session.run_s",
    "session.mutation": "session.mutation_s",
    "fused.trace": "fused.trace_s",
    "fused.execute.knn": "fused.execute_s.knn",
    "fused.execute.dot": "fused.execute_s.dot",
    "simulator.compute_scores": "simulator.compute_scores_s",
    "simulator.topk": "simulator.topk_s",
    "sharding.run": "sharding.merge_s",
    "cluster.admit": "cluster.admit_s",
    "cluster.submit": "cluster.submit_s",
}


def fingerprint():
    """Where the numbers come from: cores, versions, BLAS and threads."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
        "commit": _git_commit(),
    }


def _git_commit():
    """HEAD's commit, or None outside a git checkout (git does not look
    above the benchmark's own root)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def per_layer(untraced, traced, tracer):
    """Per-layer metrics from the traced run, readings from the other."""
    import tracing

    totals, calls = tracer.self_times()
    metrics = {name: untraced["readings"].get(name, 0.0) for name in READINGS}
    for span, name in SELF_TIMES.items():
        metrics[name] = totals.get(span, 0.0)
    for stem in tracing.PASSES.values():
        metrics[f"passes.{stem}_s"] = totals.get(f"passes.{stem}", 0.0)
        metrics[f"ir.ops_after_{stem}"] = tracer.ops_after.get(stem, 0)
    counts = traced["counts"]
    metrics["session.rows_written"] = counts.get("session.rows_written", 0)
    metrics["simulator.searches"] = counts.get("simulator.searches", 0)
    metrics["fused.traces"] = counts.get("fused.traces",
                                         calls.get("fused.trace", 0))
    executes = calls.get("fused.execute.knn", 0) + calls.get(
        "fused.execute.dot", 0)
    runs = calls.get("session.run", 0)
    metrics["fused.hit_ratio"] = executes / runs if runs else 0.0
    metrics["simulator.compute_scores_calls"] = calls.get(
        "simulator.compute_scores", 0)
    layers = traced.get("layers", {})
    for name in SERVE_LAYERS:
        metrics[name] = layers.get(name, 0.0)
    metrics["bench.gen_lag_p99_ms"] = untraced["readings"].get(
        "bench.gen_lag_p99_ms", 0.0)
    metrics["bench.trace_overhead"] = (
        untraced["throughput_per_s"] / traced["throughput_per_s"] - 1.0
        if traced["throughput_per_s"] else 0.0
    )
    metrics["bench.spans"] = len(tracer.spans)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        print(f"error: unknown workload {args.workload!r} (one of "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    print(json.dumps({"env": fingerprint()}), flush=True)

    if not args.trace:
        result = run(args.seed, args.seconds, tracing.Tracer())
        metrics = {
            "setup_s": result["setup_s"],
            "throughput_per_s": result["throughput_per_s"],
            "latency_p50_ms": result["latency_p50_ms"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail = result
    else:
        # A first unwrapped pass warms the process, so that the traced
        # pass and the unwrapped pass after it compare warm with warm.
        warmup = run(args.seed, args.seconds / 3, tracing.Tracer())
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True
        try:
            traced = run(args.seed, args.seconds / 3, tracer)
        finally:
            tracer.enabled = False
            tracer.uninstall()
        untraced = run(args.seed, args.seconds / 3, tracing.Tracer())
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        result = {
            "attempted": sum(r["attempted"]
                             for r in (warmup, traced, untraced)),
            "failed": sum(r["failed"] for r in (warmup, traced, untraced)),
        }
        metrics = per_layer(untraced, traced, tracer)
        metrics["error_rate"] = result["failed"] / result["attempted"]
        detail = {"untraced": untraced, "traced": traced}
    print(json.dumps({"detail": detail}, default=float), flush=True)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
