"""Spans around calls into the program's layers, recorded from outside.

:class:`Tracer` wraps public functions of ``repro`` (module attributes
and class methods) so that every call records a span: name, start, end,
parent span and request id.  Spans stay in memory and are written out
when the run ends.  A layer's *self time* is its span's duration minus
the part of that interval its child spans cover.

Only the traced run installs the wrappers; the end-to-end runs call the
program unwrapped.  :meth:`Tracer.uninstall` restores every attribute.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, request, tag)
        self.enabled = False
        self.request = None      # request id stamped on spans of this thread
        self.tag = None          # "knn" while the KNN store runs, else "dot"
        self.ops_after = defaultdict(int)
        self.count_ops = True    # ops are counted over one deterministic unit
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched = []

    # ------------------------------------------------------------ recording
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(args, result)`` runs after the span closed (outside the
        timed interval), for counters read at the same boundary.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            main = threading.current_thread() is threading.main_thread()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record = (
                    span_id, name, start, end, parent,
                    tracer.request if main else None,
                    (tracer.tag or "dot") if main else "dot",
                )
                with tracer._lock:
                    tracer.spans.append(record)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count(self, name):
        """Spans recorded so far under ``name``."""
        with self._lock:
            return sum(1 for span in self.spans if span[1] == name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- analysis
    def self_times(self):
        """Per span name: (total self seconds, call count)."""
        children = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        totals = defaultdict(float)
        calls = defaultdict(int)
        for span_id, name, start, end, _p, _r, tag in self.spans:
            covered, cursor = 0.0, start
            for c0, c1 in sorted(children.get(span_id, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            key = f"{name}.{tag}" if name == "fused.execute" else name
            totals[key] += (end - start) - covered
            calls[key] += 1
        return totals, calls

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, request, tag in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "tag": tag,
                }) + "\n")


def _count_ops(module):
    return sum(1 for _ in module.walk())


#: Pass class name -> per-layer metric stem.
PASSES = {
    "TorchToCimPass": "torch_to_cim",
    "CimFuseOpsPass": "cim_fuse",
    "SimilarityMatchingPass": "similarity_matching",
    "CimPartitionPass": "partition",
    "CimToCamPass": "cim_to_cam",
}


def install(tracer):
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.compiler as compiler
    import repro.runtime.cluster as cluster
    import repro.runtime.fused as fused
    import repro.runtime.session as session
    import repro.runtime.sharding as sharding
    import repro.simulator.machine as machine
    import repro.simulator.subarray as subarray
    import repro.transforms as transforms

    tracer.wrap(compiler.C4CAMCompiler, "import_torchscript", "frontend.import")
    for cls_name, stem in PASSES.items():
        def after(args, _result, stem=stem):
            if tracer.count_ops:
                tracer.ops_after[stem] += _count_ops(args[1])
        tracer.wrap(getattr(transforms, cls_name), "run", f"passes.{stem}",
                    after=after)
    tracer.wrap(compiler.CompiledKernel, "session", "session.open")
    tracer.wrap(session, "build_fused_plan", "fused.trace")
    tracer.wrap(fused.FusedPlan, "execute", "fused.execute")
    tracer.wrap(session.QuerySession, "run_batch", "session.run")
    tracer.wrap(sharding.ShardedSession, "run_batch", "sharding.run")
    tracer.wrap(fused, "compute_scores", "simulator.compute_scores")
    tracer.wrap(subarray, "compute_scores", "simulator.compute_scores")
    tracer.wrap(fused, "best_match_batch", "simulator.topk")
    tracer.wrap(machine, "best_match_batch", "simulator.topk")
    for verb in ("insert", "update", "delete"):
        tracer.wrap(cluster.Cluster, verb, "session.mutation")
    tracer.wrap(session.QuerySession, "compact", "session.compact")
    tracer.wrap(cluster.Cluster, "admit", "cluster.admit")
    tracer.wrap(cluster.Cluster, "submit", "cluster.submit")
