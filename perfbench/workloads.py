"""The three benchmark workloads.

Each workload builds its inputs from the seed, sets up ``SETUPS`` times
(the median is ``setup_s``), measures for the given number of seconds,
then checks every answer it timed against a brute-force reference.

Each returns a dict with the end-to-end figures every workload reports
(``setup_s``, ``throughput_per_s``, ``latency_p50_ms``), the
workload-specific ``readings`` and per-layer ``layers`` (see ``run.py``),
the deterministic ``counts`` and the ``attempted``/``failed`` operation
counts.
"""

from __future__ import annotations

import collections
import math
import statistics
import threading
import time

import numpy as np

import reference

SETUPS = 11
SIZES = (16, 32, 64, 128, 256)
TARGETS = ("latency", "power", "density", "power+density")
LIMIT_MS = 25.0          # served p99 limit of the rate ladder
LAG_LIMIT_MS = 5.0       # generator lag p99 allowed on a valid step


def _median_setup(build, tracer):
    """Set up ``SETUPS`` times; returns (median seconds, last state)."""
    times, state = [], None
    for _ in range(SETUPS):
        if state is not None and hasattr(state, "close"):
            state.close()
        state = None
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
        tracer.count_ops = False
    return statistics.median(times), state


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _pct(values, q):
    """Percentile ``q`` of ``values``; 0 when there are none."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _dot_model(stored):
    import repro.frontend.torch_api as torch

    class DotSimilarity(torch.Module):
        def __init__(self):
            self.weight = torch.tensor(stored)

        def forward(self, input):
            others = self.weight.transpose(-2, -1)
            matmul = torch.matmul(input, others)
            return torch.ops.aten.topk(matmul, 1, largest=True)

    return DotSimilarity()


def _rtol(metric):
    return 1e-6 if metric == "euclidean" else 0.0


# ------------------------------------------------------------------ dse_sweep
class _DseInputs:
    def __init__(self, seed):
        from repro.apps import (
            build_knn, pad_features, synthetic_mnist, synthetic_pneumonia,
            train_hdc,
        )

        mnist = synthetic_mnist(n_train=256, n_test=8, seed=seed)
        hdc = train_hdc(mnist, dimensions=8192, bits=1, seed=seed + 1)
        pneumonia = synthetic_pneumonia(n_train=1016, n_test=8, seed=seed + 2)
        knn = build_knn(
            pneumonia, k=5, feature_multiple=1024, row_multiple=1024
        )
        self.stores = {"hdc": hdc.prototypes, "knn": knn.train_x}
        self.queries = {
            "hdc": hdc.encode_queries(mnist.test_x),
            "knn": pad_features(pneumonia.test_x, 1024),
        }
        self.models = {"hdc": hdc.kernel(n_queries=1), "knn": knn.kernel()}


def dse_sweep(seed, seconds, tracer):
    """Fig. 8: HDC and KNN stores × N ∈ SIZES × TARGETS, closed loop.

    The first sweep is untimed: it pays the process's one-time costs of
    a first compile per config, which a user pays once, not per config.
    It is checked like the rest and yields the deterministic counts.
    """
    from repro.arch import dse_spec
    from repro.compiler import C4CAMCompiler

    setup_s, inputs = _median_setup(lambda: _DseInputs(seed), tracer)
    configs = [
        (store, n, target)
        for store in ("hdc", "knn") for n in SIZES for target in TARGETS
    ]
    answers, config_ms = [], []
    sim_ns, sim_pj, searches, rows_written = [], [], 0, 0

    def sweep(number, timed):
        for index, (store, n, target) in enumerate(configs):
            tracer.tag = "knn" if store == "knn" else "dot"
            tracer.request = f"s{number}c{index}"
            model, example = inputs.models[store]
            pool = inputs.queries[store]
            query = pool[(number * len(configs) + index) % len(pool)]
            t0 = time.perf_counter()
            kernel = C4CAMCompiler(dse_spec(n, target)).compile(model, example)
            values, indices = kernel(query)
            if timed:
                config_ms.append((time.perf_counter() - t0) * 1e3)
            answers.append((index, query, values, indices))
            yield kernel.last_report

    tracer.count_ops = True
    traces0 = tracer.count("fused.trace")
    for report in sweep(0, timed=False):
        sim_ns.append(report.query_latency_ns)
        sim_pj.append(report.energy.query_total)
        searches += report.searches
        rows_written += report.rows_written
    tracer.count_ops = False
    traces = tracer.count("fused.trace") - traces0

    sweeps = 1
    t_start = time.perf_counter()
    while sweeps == 1 or time.perf_counter() - t_start < seconds:
        for _report in sweep(sweeps, timed=True):
            pass
        sweeps += 1
    elapsed = time.perf_counter() - t_start
    tracer.tag = tracer.request = None

    # Two checks per answer: brute force in the lowered metric, and
    # bitwise equality with an unfused compile of the same config.  The
    # KNN configs store real values on a TCAM, which lowers Euclidean to
    # Hamming, so every row ties and only the second check can tell a
    # wrong row or tile offset apart.
    by_config = collections.defaultdict(list)
    for answer in answers:
        by_config[answer[0]].append(answer[1:])
    failed = 0
    was_enabled, tracer.enabled = tracer.enabled, False
    for index, checks in sorted(by_config.items()):
        store, n, target = configs[index]
        oracle = C4CAMCompiler(dse_spec(n, target)).compile(
            *inputs.models[store], fused=False)
        program = oracle.query_programs[0]
        for query, values, indices in checks:
            want_v, want_i = oracle(query)
            ref = reference.scores(program.metric, inputs.stores[store],
                                   query)
            if not (np.array_equal(values, want_v)
                    and np.array_equal(indices, want_i)
                    and reference.topk_ok(ref, values, indices,
                                          program.largest,
                                          _rtol(program.metric)).all()):
                failed += 1
    tracer.enabled = was_enabled
    done = len(config_ms)
    return {
        "setup_s": setup_s,
        "throughput_per_s": done / elapsed,
        "latency_p50_ms": _pct(config_ms, 50),
        "readings": {
            "dse_configs_per_s": done / elapsed,
            "sim_ns_per_query": _geomean(sim_ns),
            "sim_pj_per_query": _geomean(sim_pj),
        },
        "counts": {
            "sim_ns_per_query": _geomean(sim_ns),
            "sim_pj_per_query": _geomean(sim_pj),
            "session.rows_written": rows_written,
            "simulator.searches": searches,
            "fused.traces": traces,
        },
        "attempted": len(answers),
        "failed": failed,
    }


# ---------------------------------------------------------------------- batch
BATCH = 64
POOL = 2
ENERGY_RTOL = 1e-9


class _BatchStores:
    """The paper's KNN store and the 256×256 bipolar dot store, programmed
    and traced (one warm-up query each: the plan does not depend on the
    batch size, so the timed batches replay it)."""

    def __init__(self, seed, tracer, fused=True):
        from repro.apps import build_knn, pad_features, synthetic_pneumonia
        from repro.arch import paper_spec
        from repro.compiler import C4CAMCompiler
        from repro.frontend import placeholder

        pneumonia = synthetic_pneumonia(
            n_train=1016, n_test=POOL * BATCH, seed=seed
        )
        knn = build_knn(
            pneumonia, k=5, feature_multiple=1024, row_multiple=1024
        )
        rng = np.random.default_rng(seed)
        dot_store = rng.choice([-1.0, 1.0], (256, 256)).astype(np.float32)
        self.stores = {"knn": knn.train_x, "dot": dot_store}
        self.queries = {
            "knn": pad_features(pneumonia.test_x, 1024).reshape(
                POOL, BATCH, 1024
            ),
            "dot": rng.choice([-1.0, 1.0], (POOL, BATCH, 256)).astype(
                np.float32
            ),
        }
        # Real-valued Euclidean needs the analog CAM; on a TCAM it would
        # legalize to Hamming and every row would tie.
        self.kernels = {
            "knn": C4CAMCompiler(paper_spec(cam_type="acam")).compile(
                *knn.kernel(), fused=fused
            ),
            "dot": C4CAMCompiler(paper_spec()).compile(
                _dot_model(dot_store), [placeholder((1, 256))], fused=fused
            ),
        }
        for name, kernel in self.kernels.items():
            tracer.tag = name
            kernel.run_batch(self.queries[name][0][:1])
        tracer.tag = None


def batch(seed, seconds, tracer):
    """Two programmed stores answer 64-query batches, alternating."""
    setup_s, stores = _median_setup(lambda: _BatchStores(seed, tracer), tracer)
    traces0 = tracer.count("fused.trace")
    batch_ms = {"knn": [], "dot": []}
    outputs = []
    t_start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t_start < seconds:
        p = r % POOL
        for name in ("knn", "dot"):
            tracer.tag, tracer.request = name, f"b{r}{name}"
            kernel = stores.kernels[name]
            t0 = time.perf_counter()
            result = kernel.run_batch(stores.queries[name][p])
            batch_ms[name].append((time.perf_counter() - t0) * 1e3)
            report = kernel.last_report
            outputs.append((name, p, result, (
                report.query_latency_ns, report.energy.query_total,
                report.searches,
            )))
        r += 1
    tracer.tag = tracer.request = None
    traces = tracer.count("fused.trace") - traces0

    # Oracle: the unfused session walk on the same stores.  Report energy
    # is a difference of cumulative float counters, so its last bits
    # depend on the machine's history: the first POOL rounds replay the
    # oracle's history exactly and must match bitwise.  Later rounds add
    # into larger counters and may differ by rounding, under 1e-11 of a
    # batch's energy over a run; a wrong charge moves it by at least one
    # tile's share, about 1e-3.  Latency and search counts must match
    # exactly.
    was_enabled, tracer.enabled = tracer.enabled, False
    oracle = _BatchStores(seed, tracer, fused=False)
    expected = {}
    for name, kernel in oracle.kernels.items():
        program = kernel.query_programs[0]
        for p in range(POOL):
            queries = stores.queries[name][p]
            values, indices = kernel.run_batch(queries)
            report = kernel.last_report
            ref = reference.scores(program.metric, stores.stores[name],
                                   queries)
            expected[name, p] = (values, indices, (
                report.query_latency_ns, report.energy.query_total,
                report.searches,
            ), reference.topk_ok(ref, values, indices, program.largest,
                                 _rtol(program.metric)).all())
    tracer.enabled = was_enabled
    why = collections.Counter()
    for i, (name, p, (values, indices), sim) in enumerate(outputs):
        want_v, want_i, want_sim, brute_ok = expected[name, p]
        same_energy = sim[1] == want_sim[1] if i < 2 * POOL else (
            abs(sim[1] - want_sim[1]) <= ENERGY_RTOL * abs(want_sim[1])
        )
        checks = {
            "brute force": brute_ok,
            "values": np.array_equal(values, want_v),
            "indices": np.array_equal(indices, want_i),
            "sim ns": sim[0] == want_sim[0],
            "sim pJ": same_energy,
            "searches": sim[2] == want_sim[2],
        }
        bad = [k for k, ok in checks.items() if not ok]
        if bad:
            why[f"{name}: " + ", ".join(bad)] += 1
    failed = sum(why.values())

    per_query = {
        name: (expected[name, 0][2][0] / BATCH, expected[name, 0][2][1] / BATCH)
        for name in ("knn", "dot")
    }
    sim_ns = _geomean([v[0] for v in per_query.values()])
    sim_pj = _geomean([v[1] for v in per_query.values()])
    # A KNN batch takes 25-500x as long as a dot batch (the ratio moves
    # with BLAS threading); the geometric means weight the two stores
    # equally, so that either scorer path moves the gated figures.  They
    # rest on each store's median batch time: under threaded OpenBLAS a
    # varying share of dot batches stalls for ~30 ms (ROADMAP item 1),
    # which the mean-based qps readings show and the gates do not follow.
    p50_ms = [_pct(ms, 50) for ms in batch_ms.values()]
    qps = {name: BATCH * len(ms) / (sum(ms) / 1e3)
           for name, ms in batch_ms.items()}
    return {
        "setup_s": setup_s,
        "throughput_per_s": _geomean([BATCH * 1e3 / ms for ms in p50_ms]),
        "latency_p50_ms": _geomean(p50_ms),
        "readings": {
            "qps_knn": qps["knn"],
            "qps_dot": qps["dot"],
            "sim_ns_per_query": sim_ns,
            "sim_pj_per_query": sim_pj,
        },
        "counts": {
            "sim_ns_per_query": sim_ns,
            "sim_pj_per_query": sim_pj,
            "simulator.searches": sum(
                expected[name, 0][2][2] for name in ("knn", "dot")
            ),
            "session.rows_written": sum(
                k.session().rows_written for k in stores.kernels.values()
            ),
            "fused.traces": traces,
        },
        "failures": dict(why),
        "attempted": len(outputs),
        "failed": failed,
    }


# --------------------------------------------------------------- serve_mutate
ZIPF = (1.0, 0.25, 0.1, 0.0625)
TENANTS = ("hot", "t1", "t2", "t3")
# 500 req/s leaves headroom when a 2-core host slows to half speed; on a
# 2-vCPU VM, 1,000 req/s then saturated the cluster (p50 3 ms -> 240 ms).
FIXED_RATE = 500.0
LADDER = (750.0, 1000.0, 1250.0, 1500.0, 2000.0, 2500.0)
MUTATION_SHARE = 0.02
WINDOW_S = 3.5          # trace_summary keeps the newest 4,096 requests
FIXED_SHARE = 0.4       # of the run at FIXED_RATE
LADDER_SHARE = 0.15     # of the run on the ladder; the rest saturated
SATURATION = 16         # reads kept in flight by the closed loop
CAPACITY_WINDOW_S = 1.0
DIMS = 256


class _ServeSetup:
    """Four compiled dot tenants admitted to a cluster; the hot one is
    row-sharded over two machines."""

    def __init__(self, seed):
        from repro.arch import paper_spec
        from repro.compiler import C4CAMCompiler
        from repro.frontend import placeholder
        from repro.runtime import Cluster

        rng = np.random.default_rng(seed)
        spec = paper_spec()
        compiler = C4CAMCompiler(spec)
        self.stores = {
            tid: rng.choice([-1.0, 1.0], (DIMS, DIMS)).astype(np.float32)
            for tid in TENANTS
        }
        self.cluster = Cluster(spec, autoscale_max_lanes=2)
        for tid in TENANTS:
            kernel = compiler.compile(
                _dot_model(self.stores[tid]), [placeholder((1, DIMS))],
                num_shards=2 if tid == "hot" else None,
            )
            self.cluster.admit(kernel, tenant_id=tid)
        # The dot kernel lowers to the metric the CAM realises (Hamming
        # on a TCAM); answers are checked in that metric.
        self.metric = kernel.query_programs[0].metric
        self.largest = kernel.query_programs[0].largest
        self.rows_written = self.cluster.setup_report().rows_written
        self.probe = rng.choice([-1.0, 1.0], (1, DIMS)).astype(np.float32)
        self.sim = []
        for tid in TENANTS:     # plan trace + first report per tenant
            self.cluster.run_batch(self.probe, tenant=tid)
            report = self.cluster.last_report
            self.sim.append((report.query_latency_ns,
                             report.energy.query_total, report.searches))

    def close(self):
        self.cluster.shutdown()


class _HotStore:
    """The generator's own model of the hot tenant's store: every
    version the mutations produce, as row-buffer indices in rank order
    (live rows in ascending id)."""

    def __init__(self, rows):
        self.buffer = [np.asarray(r, dtype=np.float32) for r in rows]
        self.live = {i: i for i in range(len(rows))}   # id -> buffer index
        self.versions = [np.arange(len(rows))]
        self.started = 0       # mutations begun
        self.completed = 0     # mutations returned
        self._cache = {}

    def commit(self):
        self.versions.append(
            np.array([self.live[i] for i in sorted(self.live)])
        )
        self.completed += 1

    def matrix(self, version):
        cache = self._cache
        if version not in cache:
            if len(cache) >= 16:
                del cache[min(cache)]
            cache[version] = np.stack(
                [self.buffer[b] for b in self.versions[version]]
            )
        return cache[version]


def _schedule(rng, rate, duration):
    """Poisson arrivals: (due, kind, tenant, rows) per operation."""
    n = int(rate * duration * 1.5) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, n))
    due = due[due < duration]
    return [(float(d),) + op for d, op in zip(due, _ops(rng, due.size))]


def _ops(rng, n):
    """The operation mix: (kind, tenant, rows) per operation."""
    kinds = rng.random(n) < MUTATION_SHARE
    weights = np.asarray(ZIPF) / sum(ZIPF)
    tenants = rng.choice(len(TENANTS), n, p=weights)
    rows = rng.integers(1, 5, n)
    return [
        ("mutate" if m else "read", TENANTS[t], int(k))
        for m, t, k in zip(kinds, tenants, rows)
    ]


class _Segment:
    """The operations of one stretch of traffic and their outcomes."""

    def __init__(self):
        self.reads = []        # [tenant, queries, lo, (hi, end), future, due]
        self.read_ms = []
        self.mutation_ms = []
        self.lag_ms = []
        self.failed = 0
        self.attempted = 0
        self.elapsed = 0.0
        self.start = time.perf_counter()
        self.last_done = None
        self.why = collections.Counter()   # failure reason -> count

    def fail(self, why):
        self.failed += 1
        self.why[why] += 1


class _Traffic:
    """Issues reads and mutations from this thread and checks answers.

    Reads are checked against every hot-store version that existed while
    they were in flight: from the last mutation completed before the
    submit to the last one started before the answer arrived.
    """

    def __init__(self, setup, seed, tracer):
        self.setup = setup
        self.tracer = tracer
        self.issued = 0
        self.cluster = setup.cluster
        self.rng = np.random.default_rng(seed)
        self.hot = _HotStore(setup.stores["hot"])
        self.pools = {
            tid: self.rng.choice([-1.0, 1.0], (4096, DIMS)).astype(np.float32)
            for tid in TENANTS
        }
        self.cursors = dict.fromkeys(TENANTS, 0)
        self.verbs = ("insert", "update", "delete")
        self.mutations = 0

    def issue(self, seg, kind, tenant, rows, due, on_done=None):
        seg.attempted += 1
        self.tracer.request = f"op{self.issued}"
        self.issued += 1
        if kind == "read":
            self._read(seg, tenant, rows, due, on_done)
        else:
            self._mutate(seg, due)

    def _read(self, seg, tenant, rows, due, on_done):
        pool = self.pools[tenant]
        c = self.cursors[tenant]
        if c + rows > len(pool):
            c = 0
        queries = pool[c:c + rows]
        self.cursors[tenant] = c + rows
        entry = [tenant, queries, self.hot.completed, None, None, due]
        try:
            future = self.cluster.submit(queries, tenant=tenant)
        except Exception as exc:
            seg.fail(f"submit: {type(exc).__name__}")
            if on_done is not None:
                on_done(None)
            return
        entry[4] = future
        hot = self.hot

        def done(f, entry=entry):
            entry[3] = (hot.started, time.perf_counter())
            if on_done is not None:
                on_done(f)

        future.add_done_callback(done)
        seg.reads.append(entry)

    def _mutate(self, seg, due):
        hot, rng, cluster = self.hot, self.rng, self.cluster
        verb = self.verbs[self.mutations % 3]
        self.mutations += 1
        ids = sorted(hot.live)
        hot.started += 1
        try:
            if verb == "insert" or len(ids) <= 1:
                row = rng.choice([-1.0, 1.0], DIMS).astype(np.float32)
                new = cluster.insert(row[None, :], tenant="hot")
                hot.buffer.append(row)
                hot.live[int(new[0])] = len(hot.buffer) - 1
            elif verb == "update":
                victim = int(ids[rng.integers(len(ids))])
                row = rng.choice([-1.0, 1.0], DIMS).astype(np.float32)
                cluster.update(victim, row, tenant="hot")
                hot.buffer.append(row)
                hot.live[victim] = len(hot.buffer) - 1
            else:
                victim = int(ids[rng.integers(len(ids))])
                cluster.delete([victim], tenant="hot")
                del hot.live[victim]
        except Exception as exc:
            # Counted as failed; the model keeps the old rows, so a
            # store the call changed anyway fails the later read checks.
            seg.fail(f"{verb}: {type(exc).__name__}")
            hot.commit()
            return
        seg.mutation_ms.append((time.perf_counter() - due) * 1e3)
        hot.commit()

    def open_loop(self, rate, duration):
        """Poisson arrivals at ``rate``, each timed from its due time."""
        seg = _Segment()
        start = time.perf_counter() + 0.002
        for due, kind, tenant, rows in _schedule(self.rng, rate, duration):
            target = start + due
            now = time.perf_counter()
            if target > now:
                time.sleep(target - now)
                now = time.perf_counter()
            seg.lag_ms.append((now - target) * 1e3)
            self.issue(seg, kind, tenant, rows, target)
        seg.elapsed = time.perf_counter() - start
        return seg

    def closed_loop(self, outstanding, duration):
        """Keep ``outstanding`` reads in flight for ``duration`` seconds."""
        seg = _Segment()
        slots = threading.Semaphore(outstanding)
        for kind, tenant, rows in _ops(self.rng, int(duration * 20_000)):
            slots.acquire()
            if time.perf_counter() - seg.start >= duration:
                break
            if kind == "read":
                self.issue(seg, kind, tenant, rows, time.perf_counter(),
                           lambda _f: slots.release())
            else:
                self.issue(seg, kind, tenant, rows, time.perf_counter())
                slots.release()
        seg.elapsed = time.perf_counter() - seg.start
        return seg

    def _check(self, tenant, version, entries):
        """Per entry: is its answer correct on that store version?"""
        setup = self.setup
        stored = (
            setup.stores[tenant] if version is None
            else self.hot.matrix(version)
        )
        queries = np.concatenate([e[1] for e in entries])
        values, indices = (
            np.concatenate([e[4].result()[j] for e in entries])
            for j in (0, 1)
        )
        rows = reference.topk_ok(
            reference.scores(setup.metric, stored, queries),
            values, indices, setup.largest,
        )
        bounds = np.cumsum([0] + [len(e[1]) for e in entries])
        return [bool(rows[a:b].all()) for a, b in zip(bounds, bounds[1:])]

    def finish(self, seg, timeout=60.0):
        """Wait for every answer, then check each against brute force.
        Returns how many reads were still in flight when it was called."""
        backlog = sum(1 for e in seg.reads if not e[4].done())
        deadline = time.perf_counter() + timeout
        for entry in seg.reads:
            try:
                entry[4].result(
                    timeout=max(0.0, deadline - time.perf_counter())
                )
            except Exception:
                pass
        answered = []
        for entry in seg.reads:
            future, done = entry[4], entry[3]
            if not future.done() or done is None:
                seg.fail("read: unanswered")
            elif future.exception() is not None:
                seg.fail(f"read: {type(future.exception()).__name__}")
            else:
                seg.read_ms.append((done[1] - entry[5]) * 1e3)
                answered.append(entry)
        # Check every read against the version its submit followed (one
        # vectorised pass per version); a read that overlapped a
        # mutation may match any later version up to its answer.
        by_version = collections.defaultdict(list)
        for entry in answered:
            version = entry[2] if entry[0] == "hot" else None
            by_version[entry[0], version].append(entry)
        for (tenant, version), entries in by_version.items():
            ok = self._check(tenant, version, entries)
            for entry, good in zip(entries, ok):
                hi = entry[3][0]
                if not good and tenant == "hot" and hi > version:
                    good = any(
                        self._check(tenant, v, [entry])[0]
                        for v in range(version + 1, hi + 1)
                    )
                if not good:
                    seg.fail(f"read: wrong answer ({tenant})")
        seg.last_done = max(
            (e[3][1] for e in seg.reads if e[3] is not None), default=None
        )
        seg.reads = []      # checked; keep memory flat across the run
        return backlog


def serve_mutate(seed, seconds, tracer):
    """Open-loop Zipf traffic with live mutations on a four-tenant cluster.

    Two fifths of the run are at FIXED_RATE, in windows the engine's trace
    (newest 4,096 requests) holds whole; then a rate ladder; then a
    closed loop that keeps ``SATURATION`` reads in flight, whose
    completion rate is the cluster's capacity.
    """
    setup_s, setup = _median_setup(lambda: _ServeSetup(seed), tracer)
    traffic = _Traffic(setup, seed + 7, tracer)
    cluster = setup.cluster
    compactions0 = tracer.count("session.compact")

    fixed, phases = [], []
    windows = max(1, math.ceil(seconds * FIXED_SHARE / WINDOW_S))
    stats0 = cluster.stats()
    for _ in range(windows):
        seg = traffic.open_loop(FIXED_RATE, seconds * FIXED_SHARE / windows)
        traffic.finish(seg)
        phases.append(cluster.trace_summary())
        fixed.append(seg)
    stats1 = cluster.stats()

    # Ladder: the highest rate whose step meets the p99 limit with no
    # backlog left at its end and the generator on time.
    ladder, sustained = [], 0.0
    step_s = seconds * LADDER_SHARE / len(LADDER)
    for rate in LADDER:
        seg = traffic.open_loop(rate, step_s)
        backlog = traffic.finish(seg)
        ladder.append(seg)
        if not (seg.failed == 0 and seg.read_ms
                and _pct(seg.read_ms, 99) <= LIMIT_MS
                and _pct(seg.lag_ms, 99) <= LAG_LIMIT_MS
                and backlog <= rate * LIMIT_MS / 1e3):
            break
        sustained = seg.attempted / seg.elapsed

    # Capacity: a closed loop of SATURATION clients, in windows; the
    # median window rate, so that a host stall in one window does not
    # set the figure.
    saturated, rates = [], []
    windows = max(1, int(seconds * (1 - FIXED_SHARE - LADDER_SHARE)
                         / CAPACITY_WINDOW_S))
    for _ in range(windows):
        seg = traffic.closed_loop(SATURATION, CAPACITY_WINDOW_S)
        traffic.finish(seg)
        if seg.last_done is not None:
            rates.append(len(seg.read_ms) / (seg.last_done - seg.start))
        saturated.append(seg)
    capacity = statistics.median(rates) if rates else 0.0
    setup.close()

    read_ms = [x for s in fixed for x in s.read_ms]
    mutation_ms = [x for s in fixed for x in s.mutation_ms]
    lag_ms = [x for s in fixed for x in s.lag_ms]
    segments = fixed + ladder + saturated
    events = list(cluster.autoscale_events)
    batches = stats1["batches_dispatched"] - stats0["batches_dispatched"]
    rows = sum(stats1["rows_dispatched"]) - sum(stats0["rows_dispatched"])
    zero_copy = stats1["zero_copy_batches"] - stats0.get(
        "zero_copy_batches", 0)

    def phase(name, q):
        values = [
            p["phases"][name][q] * 1e3 for p in phases
            if name in p.get("phases", {})
        ]
        return statistics.median(values) if values else 0.0

    sim = setup.sim
    sim_ns = _geomean([s[0] for s in sim])
    sim_pj = _geomean([s[1] for s in sim])
    return {
        "setup_s": setup_s,
        "throughput_per_s": capacity,
        "latency_p50_ms": _pct(read_ms, 50),
        "readings": {
            "served_p50_ms": _pct(read_ms, 50),
            "served_p99_ms": _pct(read_ms, 99),
            "sustained_rps": sustained,
            "mutation_p50_ms": _pct(mutation_ms, 50),
            "mutation_p99_ms": _pct(mutation_ms, 99),
            "mutations": len(mutation_ms),
            "sim_ns_per_query": sim_ns,
            "sim_pj_per_query": sim_pj,
            "bench.gen_lag_p99_ms": _pct(lag_ms, 99),
            "failures": dict(sum((s.why for s in segments),
                                 collections.Counter())),
            "ladder": [
                (rate, _pct(s.read_ms, 99), _pct(s.lag_ms, 99))
                for rate, s in zip(LADDER, ladder)
            ],
        },
        "layers": {
            **{
                f"serving.{name}_ms_{q}": phase(name, q)
                for name in ("queue", "coalesce", "run", "merge")
                for q in ("p50", "p99")
            },
            "serving.rows_per_batch": rows / batches if batches else 0.0,
            "serving.zero_copy_ratio": zero_copy / batches if batches else 0.0,
            "cluster.lanes_peak": max([1] + [e["lanes"] for e in events]),
            "cluster.autoscale_events": len(events),
            "cluster.defrag_count": cluster.defrag_count,
            "session.compactions": tracer.count("session.compact")
            - compactions0,
        },
        "counts": {
            "sim_ns_per_query": sim_ns,
            "sim_pj_per_query": sim_pj,
            "simulator.searches": sum(s[2] for s in sim),
            "session.rows_written": setup.rows_written,
        },
        "attempted": sum(s.attempted for s in segments),
        "failed": sum(s.failed for s in segments),
    }


WORKLOADS = {
    "dse_sweep": dse_sweep,
    "batch": batch,
    "serve_mutate": serve_mutate,
}
