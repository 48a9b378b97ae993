"""In-memory span tracer that instruments the program from outside.

:func:`install` wraps the public entry points of each layer (kernel cost
models, the SM-schedule simulator, the serving engine, the paged-KV pool,
the batch state and the live-observability bundle) with a function that
records one span per call: name, start, end, parent span and request id.
Nothing inside ``src/`` changes; the wrappers are installed on the classes
before any engine is built, so pool construction is traced too.

Spans stay in a list until :meth:`Tracer.write` dumps them once at exit.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# Span record layout (a list, mutated in place while the call runs).
NAME, START, END, PARENT, RID, CHILD_S, CHILDREN, VALUE = range(8)

#: Parameter names whose argument identifies the request a span serves.
_RID_PARAMS = ("request_id", "seq_id")


class Tracer:
    """Collects spans from every wrapped callable in this process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, value=None) -> None:
        """Replace ``owner.attr`` with a traced version.

        ``owner`` is a class (its own attribute is wrapped, not an
        inherited one) or a module.  ``value(args, result)``, when given,
        stores one number per span (a tile count, a block count...).
        """
        fn = vars(owner)[attr]
        params = list(inspect.signature(fn).parameters)
        rid_at = next(
            (i for i, p in enumerate(params) if p in _RID_PARAMS), None
        )
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rid = args[rid_at] if rid_at is not None and rid_at < len(args) else -1
            rec = [name, 0.0, 0.0, parent, rid, 0.0, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[START] = start
                rec[END] = end
                if parent >= 0:
                    spans[parent][CHILD_S] += end - start
                    spans[parent][CHILDREN] += 1
            if value is not None:
                rec[VALUE] = value(args, out)
            return out

        setattr(owner, attr, traced)

    def wrap_public(self, cls, prefix: str) -> None:
        """Trace every public plain method ``cls`` itself defines."""
        for attr, member in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(member):
                self.wrap(cls, attr, f"{prefix}.{attr}")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, summed value,
        and leaf calls (spans with no child span)."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                     "value": 0.0, "leaves": 0}
        )
        for rec in self.spans:
            row = out[rec[NAME]]
            dur = rec[END] - rec[START]
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += dur - rec[CHILD_S]
            row["value"] += rec[VALUE]
            row["leaves"] += rec[CHILDREN] == 0
        return out

    def outermost_seconds(self, names) -> float:
        """Inclusive seconds of spans matching ``names`` (a predicate on
        the span name) that are not nested in another matching span."""
        spans = self.spans
        total = 0.0
        for rec in spans:
            if not names(rec[NAME]):
                continue
            parent = rec[PARENT]
            while parent >= 0 and not names(spans[parent][NAME]):
                parent = spans[parent][PARENT]
            if parent < 0:
                total += rec[END] - rec[START]
        return total

    def write(self, path: str) -> None:
        """Dump every span as ``[name, start, end, parent, request_id]``."""
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request_id"],
                 "spans": [rec[:RID + 1] for rec in self.spans]},
                fh,
            )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.kernels.base as kernel_base
    from repro.kernels.attention import DECODE_ATTENTION, PREFILL_ATTENTION
    from repro.obs.attrib import CostLedger
    from repro.obs.live import FlightRecorder, LiveObs, SLOMonitor
    from repro.serving.batchstate import BatchState
    from repro.serving.engine import ServingEngine
    from repro.serving.paged_kv import PagedKVManager

    # kernels: the GEMM cost model and the attention roofline models.
    tracer.wrap(kernel_base.GEMMKernel, "latency", "kernels.latency",
                value=lambda args, out: out.num_tiles)
    for cls in {*DECODE_ATTENTION.values(), *PREFILL_ATTENTION.values()}:
        tracer.wrap(cls, "latency", "kernels.attention")
    # gpu: the SM-schedule simulator, at the name the kernels call it by.
    tracer.wrap(kernel_base, "simulate_schedule", "gpu.schedule",
                value=lambda args, out: len(args[0]))
    # serving: the engine loop and its per-m linear-stack cost cache.
    tracer.wrap(ServingEngine, "run", "serving.engine")
    tracer.wrap(ServingEngine, "linear_stack_latency", "serving.engine.stack")
    tracer.wrap(BatchState, "rebuild", "serving.batchstate.rebuild")
    tracer.wrap(PagedKVManager, "__init__", "serving.paged_kv.init",
                value=lambda args, out: args[0].num_blocks)
    for attr in ("allocate", "fork", "append_token", "append_token_many",
                 "free"):
        tracer.wrap(PagedKVManager, attr, "serving.paged_kv.op")
    tracer.wrap(PagedKVManager, "freelist_fragmentation",
                "serving.paged_kv.fragmentation")
    # obs: the live bundle (heartbeats, flight recorder, SLO monitor) and
    # the per-request cost ledger.
    tracer.wrap(LiveObs, "heartbeat", "obs.live.heartbeat")
    tracer.wrap(LiveObs, "heartbeat_batch", "obs.live.heartbeat")
    tracer.wrap(LiveObs, "sample", "obs.live.sample")
    tracer.wrap_public(FlightRecorder, "obs.live.flights")
    tracer.wrap_public(SLOMonitor, "obs.live.slo")
    tracer.wrap_public(CostLedger, "obs.attrib")
