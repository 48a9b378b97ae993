"""Per-request latency attribution and KV-cache economics (the cost ledger).

COMET's end-to-end claim is that W4A4KV4 turns *memory* savings into batch
size and throughput.  The live layer (PR 5/6) can say that p99 moved; this
module says **why**: every request's e2e latency is attributed across

* ``queue``     — waiting before (re-)admission, including retry backoff,
* ``prefill.*`` — steps taken before the request's first token, and
* ``decode.*``  — steps taken after it,

where each in-flight step is split into kernel-level components:

* ``gemm``       — the linear-stack pass the request shared,
* ``attention``  — the attention pass (minus the KV-streaming carve-out),
* ``kv_dequant`` — the KV4-history streaming/dequant portion of decode
  attention (COMET Figure 2's memory-bound term — the part W4A4KV4 shrinks),
* ``overhead``   — framework overhead + straggler stall of the step,
* ``stall``      — time the request sat admitted but not computing (e.g.
  a chunked-prefill request waiting for its chunk turn, or decoders parked
  behind a serialized whole-prompt prefill: the paper's decode gap).

Accounting discipline (how the sum-to-e2e invariant holds):

* The engine charges the ledger **before** advancing request state, so every
  lifecycle transition (finish, preemption, retry, mid-flight expiry) is a
  settle-at-current-clock operation with zero residual.
* A step costs O(1): it adds its components to run-level running sums, one
  set per class of admitted row.  Every decoding row of a non-serialized
  step shares the step's components; every other admitted row stalls for
  ``dt``.  Only the prefill owner, one row per step, is charged directly.
* A row keeps the sums as they stood at its last transition (admission,
  prefill done, first token, requeue, close) and settles the difference
  into its prefill or decode bucket at the next one.  Queue time settles
  the same way, at admission and close.
* While admitted, every clock advance lands exactly once per request —
  either as a compute component or as ``stall`` — so for every completed
  request ``queue + sum(components) == e2e`` up to float accumulation.

The ledger also tracks per-request **KV economics** (blocks held over time,
peak, shared-vs-exclusive blocks under prefix forking), settled at the pool
events that change a row's blocks: admission, block crossing and release.
Its rows belong to the records of :class:`repro.obs.live.FlightRecorder`,
the one per-request store: a record's queue/prefill/decode seconds *are*
its ledger buckets.

Everything here is duck-typed over plain floats/ints and numpy — no
serving imports (layering) and no wall clock or RNG (determinism: this
file is in the staticcheck DET scope).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "COMPONENTS",
    "CostLedger",
    "LedgerRow",
    "row_account",
    "aggregate",
    "critical_path",
    "tail_explainer",
    "compare_baseline",
    "analyze_trace",
    "analyze_snapshot",
    "render_analysis",
]

#: Kernel-level components a step is split into, per phase bucket.
COMPONENTS = ("gemm", "attention", "kv_dequant", "overhead", "stall")

#: Attribution keys of a completed-request record, flattened.
ATTRIBUTION_KEYS = ("queue",) + COMPONENTS

# Column layout of a row's component list: queue, then the five components
# for the prefill bucket, then the five for decode.
_QUEUE = 0
_PF_BASE = 1
_DEC_BASE = 6
_N_COLS = 11
_STALL_OFF = 4  # offset of "stall" within a bucket

# Run-level running sums: the four compute components shared by the
# decoding rows of non-serialized steps, then the seconds of serialized
# steps (decoding rows stall through them) and of every step (rows that
# are not decoding stall through them, unless they own the prefill).
_SERIALIZED = 4
_ALL = 5
_N_SUMS = 6


class LedgerRow:
    """One request's account while it is in flight: the handle
    :meth:`CostLedger.open` returns and every other ledger call takes."""

    __slots__ = (
        "comp", "since", "admitted", "decoding", "first_tokened",
        "inactive_since", "kv_row", "kv_admit", "kv_peak", "kv_last",
        "kv_shared", "kv_held", "kv_held_since", "block_sec",
    )

    def __init__(self, arrival_time: float) -> None:
        self.comp = [0.0] * _N_COLS
        self.since = [0.0] * _N_SUMS  # the run-level sums at the last transition
        self.admitted = False  # holds KV and takes its share of every step
        self.decoding = False
        self.first_tokened = False
        self.inactive_since = arrival_time
        self.kv_row = -1
        self.kv_admit = self.kv_peak = self.kv_last = self.kv_shared = 0
        self.kv_held = 0
        self.kv_held_since = 0.0
        self.block_sec = 0.0


class CostLedger:
    """Latency + KV-economics accounts, one :class:`LedgerRow` per request
    in flight.

    The record store (:class:`repro.obs.live.FlightRecorder`) owns the
    rows: it opens one when it first sees a request, passes it to every
    lifecycle call and settles it at close.  :meth:`step` adds one step to
    the run-level sums in O(1); a row settles its share at its own
    transitions.  KV block-seconds settle at the pool events that change a
    row's blocks: admission, :meth:`kv_grown` and release.  The ledger
    holds no lock; the store serializes every call under its own.
    """

    def __init__(self) -> None:
        self._sums = [0.0] * _N_SUMS
        self._of_kv_row: dict[int, LedgerRow] = {}  # pool row -> its account

    # ------------------------------------------------------------------
    # settling

    def _add_due(self, row: LedgerRow, comp: list[float]) -> None:
        """Add an admitted row's unsettled share since its last transition
        to the bucket columns of ``comp``: the four compute components of
        the steps it decoded in, then its stall."""
        sums, since = self._sums, row.since
        base = _DEC_BASE if row.first_tokened else _PF_BASE
        if row.decoding:
            comp[base] += sums[0] - since[0]
            comp[base + 1] += sums[1] - since[1]
            comp[base + 2] += sums[2] - since[2]
            comp[base + 3] += sums[3] - since[3]
            comp[base + _STALL_OFF] += sums[_SERIALIZED] - since[_SERIALIZED]
        else:
            comp[base + _STALL_OFF] += sums[_ALL] - since[_ALL]

    def _settle(self, row: LedgerRow) -> None:
        """Move an admitted row's share into its bucket and restart it."""
        self._add_due(row, row.comp)
        row.since = self._sums.copy()

    def _release(self, row: LedgerRow, ts: float) -> None:
        """An admitted row gives its KV back at ``ts``: its share and its
        block-seconds settle, and its last holding is its final count."""
        self._settle(row)
        row.block_sec += row.kv_held * (ts - row.kv_held_since)
        row.kv_last = row.kv_held
        row.kv_held = 0
        row.admitted = False
        if self._of_kv_row.get(row.kv_row) is row:
            del self._of_kv_row[row.kv_row]
        row.kv_row = -1

    # ------------------------------------------------------------------
    # lifecycle (engine transitions)

    def open(self, arrival_time: float) -> LedgerRow:
        """A fresh row for a request that arrived at ``arrival_time``: it
        accrues queue time until admitted."""
        return LedgerRow(arrival_time)

    def admitted(
        self,
        row: LedgerRow,
        ts: float,
        kv_row: int = -1,
        kv_blocks: int = 0,
        shared_blocks: int = 0,
    ) -> None:
        """Settle queue time and activate the row: from ``ts`` it holds
        ``kv_blocks`` blocks at pool row ``kv_row``, whose crossings
        :meth:`kv_grown` reports."""
        if not row.admitted:
            row.comp[_QUEUE] += ts - row.inactive_since
        row.admitted = True
        row.since = self._sums.copy()
        if kv_row >= 0:
            self._of_kv_row[kv_row] = row
            row.kv_row = kv_row
        if row.kv_admit == 0:
            row.kv_admit = kv_blocks
        row.kv_held = row.kv_last = kv_blocks
        row.kv_held_since = ts
        row.kv_peak = max(row.kv_peak, kv_blocks)
        row.kv_shared = max(row.kv_shared, shared_blocks)

    def prefill_done(self, row: LedgerRow) -> None:
        """The request finished its prompt: it decodes from the next step."""
        self._settle(row)
        row.decoding = True

    def first_token(self, row: LedgerRow) -> None:
        """First output token landed: later charges go to the decode
        bucket.  Sticky across retries (recompute re-runs prefill, but the
        user already saw a token)."""
        self._settle(row)
        row.first_tokened = True

    def requeued(self, row: LedgerRow, ts: float) -> None:
        """Back to the queue (retry backoff / preemption): KV released,
        prefill restarts; time until re-admission accrues as queue."""
        self._release(row, ts)
        row.decoding = False
        row.inactive_since = ts

    def kv_grown(self, kv_rows: np.ndarray, ts: float) -> None:
        """Each pool row in ``kv_rows`` took one more block at ``ts``."""
        of_kv_row = self._of_kv_row
        for kv_row in kv_rows.tolist():
            row = of_kv_row[kv_row]
            row.block_sec += row.kv_held * (ts - row.kv_held_since)
            row.kv_held_since = ts
            held = row.kv_held = row.kv_last = row.kv_held + 1
            if held > row.kv_peak:
                row.kv_peak = held

    def account(self, row: LedgerRow) -> dict:
        """The row's totals (:func:`row_account`), an admitted row's
        unsettled share included."""
        comp = row.comp
        if row.admitted:
            comp = comp.copy()
            self._add_due(row, comp)
        return row_account(row, comp)

    def close(self, row: LedgerRow, ts: float) -> None:
        """Settle the row at ``ts``: its account is final, and
        :func:`row_account` reads it from the row alone."""
        if row.admitted:
            self._release(row, ts)
        else:
            row.comp[_QUEUE] += ts - row.inactive_since

    # ------------------------------------------------------------------
    # step charges (called once per engine iteration, pre-advancement)

    def step(
        self,
        dt: float,
        gemm: float,
        attention: float,
        kv_dequant: float,
        overhead: float,
        prefill_row: LedgerRow | None = None,
        serialized: bool = False,
    ) -> None:
        """Charge one engine iteration in O(1).  Its participants share the
        step's kernel components in full (they ride the same fused pass);
        every other admitted row stalls for ``dt``.  The participants are
        the prefill owner ``prefill_row`` (a row still in its prompt) plus,
        unless the step is a ``serialized`` whole-prompt prefill (the
        decode gap chunked prefill exists to close), every decoding row."""
        sums = self._sums
        if serialized:
            sums[_SERIALIZED] += dt
        else:
            sums[0] += gemm
            sums[1] += attention
            sums[2] += kv_dequant
            sums[3] += overhead
        sums[_ALL] += dt
        if prefill_row is not None:
            base = _DEC_BASE if prefill_row.first_tokened else _PF_BASE
            comp = prefill_row.comp
            comp[base] += gemm
            comp[base + 1] += attention
            comp[base + 2] += kv_dequant
            comp[base + 3] += overhead
            prefill_row.since[_ALL] += dt  # computing, not stalled


def row_account(row: LedgerRow, comp: list[float] | None = None) -> dict:
    """A row's totals: queue seconds, the per-bucket components (``comp``,
    the row's settled ones by default) and the KV economics (block-seconds
    up to the row's last KV event)."""
    if comp is None:
        comp = row.comp
    return {
        "queue_seconds": comp[_QUEUE],
        "prefill": dict(zip(COMPONENTS, comp[_PF_BASE:_DEC_BASE])),
        "decode": dict(zip(COMPONENTS, comp[_DEC_BASE:])),
        "kv": {
            "blocks_admitted": row.kv_admit,
            "blocks_peak": row.kv_peak,
            "blocks_final": row.kv_last,
            "shared_blocks": row.kv_shared,
            "block_seconds": row.block_sec,
        },
    }


def aggregate(records: list[dict]) -> dict:
    """Fleet-level attribution over completed-request records: the
    fraction of total attributed time spent in each component (the
    ``attribution`` column of ``BENCH_serving.json`` rows)."""
    fractions = {name: 0.0 for name in ATTRIBUTION_KEYS}
    if not records:
        return {
            "requests": 0,
            "e2e_mean_s": 0.0,
            "fractions": fractions,
            "phase_fractions": {
                "queue": 0.0, "prefill": 0.0, "decode": 0.0
            },
            "dominant": "",
        }
    totals = dict(fractions)
    phase_totals = {"queue": 0.0, "prefill": 0.0, "decode": 0.0}
    e2e = 0.0
    for record in records:
        e2e += record["e2e_seconds"]
        totals["queue"] += record["queue_seconds"]
        phase_totals["queue"] += record["queue_seconds"]
        for bucket in ("prefill", "decode"):
            for name, value in record[bucket].items():
                totals[name] += value
                phase_totals[bucket] += value
    grand = sum(totals.values())
    if grand > 0.0:
        fractions = {k: v / grand for k, v in totals.items()}
        phase_fractions = {k: v / grand for k, v in phase_totals.items()}
    else:
        phase_fractions = dict(phase_totals)
    dominant = max(fractions, key=lambda k: fractions[k])
    return {
        "requests": len(records),
        "e2e_mean_s": e2e / len(records),
        "fractions": fractions,
        "phase_fractions": phase_fractions,
        "dominant": dominant,
    }


# ----------------------------------------------------------------------
# post-hoc analysis (repro.cli analyze)


def _flatten(record: dict) -> dict[str, float]:
    """One completed record -> flat {path: seconds} over queue +
    per-bucket components (keys like ``decode.gemm``)."""
    flat = {"queue": record["queue_seconds"]}
    for bucket in ("prefill", "decode"):
        for name, value in record[bucket].items():
            flat[f"{bucket}.{name}"] = value
    return flat


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def critical_path(records: Iterable[dict]) -> dict:
    """Mean/percentile breakdown of where completed requests spent their
    time, ordered by mean seconds: the fleet's critical path."""
    records = list(records)
    if not records:
        return {"requests": 0, "path": [], "dominant": ""}
    keys = sorted(_flatten(records[0]))
    columns: dict[str, list[float]] = {k: [] for k in keys}
    e2e = []
    for record in records:
        flat = _flatten(record)
        for k in keys:
            columns[k].append(flat.get(k, 0.0))
        e2e.append(record["e2e_seconds"])
    total_mean = sum(sum(v) / len(records) for v in columns.values())
    path = []
    for k in keys:
        vals = columns[k]
        mean = sum(vals) / len(vals)
        path.append({
            "name": k,
            "mean_s": mean,
            "p50_s": _percentile(vals, 50),
            "p99_s": _percentile(vals, 99),
            "fraction": mean / total_mean if total_mean > 0 else 0.0,
        })
    path.sort(key=lambda e: e["mean_s"], reverse=True)
    return {
        "requests": len(records),
        "e2e_mean_s": sum(e2e) / len(e2e),
        "e2e_p99_s": _percentile(e2e, 99),
        "path": path,
        "dominant": path[0]["name"] if path else "",
    }


def tail_explainer(records: Iterable[dict], top: int = 5) -> dict:
    """Top-k slowest completed requests with per-phase deltas against the
    fleet's p50 profile: *which* component made the tail slow."""
    records = list(records)
    if not records:
        return {"p50_profile": {}, "slowest": []}
    keys = sorted(_flatten(records[0]))
    p50 = {
        k: _percentile([_flatten(r).get(k, 0.0) for r in records], 50)
        for k in keys
    }
    slowest = sorted(
        records, key=lambda r: r["e2e_seconds"], reverse=True
    )[:top]
    out = []
    for record in slowest:
        flat = _flatten(record)
        deltas = {k: flat.get(k, 0.0) - p50[k] for k in keys}
        blame = max(deltas, key=lambda k: deltas[k])
        out.append({
            "request_id": record["request_id"],
            "outcome": record["outcome"],
            "e2e_seconds": record["e2e_seconds"],
            "phases": flat,
            "delta_vs_p50": deltas,
            "blame": blame,
            "blame_delta_s": deltas[blame],
            "kv": record.get("kv", {}),
        })
    return {"p50_profile": p50, "slowest": out}


def compare_baseline(
    aggregate: dict, baseline_doc: dict, threshold: float = 0.10
) -> list[dict]:
    """Compare this run's attribution fractions against the committed
    ``BENCH_serving.json`` rows; a component whose share moved by more
    than ``threshold`` (absolute) is flagged as a step-phase regression."""
    current = aggregate.get("fractions", {})
    deltas = []
    benchmarks = baseline_doc.get("benchmarks", {})
    for bench_name, payload in sorted(benchmarks.items()):
        for row in payload.get("rows", []):
            attribution = row.get("attribution")
            if not isinstance(attribution, dict):
                continue
            for name in sorted(attribution):
                if name not in current:
                    continue
                delta = current[name] - attribution[name]
                deltas.append({
                    "benchmark": bench_name,
                    "system": row.get("system", ""),
                    "component": name,
                    "baseline_frac": attribution[name],
                    "current_frac": current[name],
                    "delta": delta,
                    "regressed": abs(delta) > threshold,
                })
    return deltas


def analyze_trace(trace_doc: dict) -> dict:
    """Group a chrome-trace export's simulated engine steps (category
    ``engine.step``) by step kind: count and simulated seconds per kind,
    the step-mix view of the run."""
    kinds: dict[str, dict[str, float]] = {}
    for event in trace_doc.get("traceEvents", []):
        if event.get("cat") != "engine.step" or "dur" not in event:
            continue
        kind = str(event.get("args", {}).get("kind", "unknown"))
        slot = kinds.setdefault(kind, {"count": 0, "seconds": 0.0})
        slot["count"] += 1
        slot["seconds"] += event["dur"] / 1e6  # chrome traces are in µs
    return {"step_kinds": kinds}


def analyze_snapshot(
    doc: dict,
    top: int = 5,
    baseline_doc: dict | None = None,
    threshold: float = 0.10,
    trace_doc: dict | None = None,
) -> dict:
    """Full post-hoc analysis of one ``obs.write_snapshot`` JSON document
    (its ``live.attrib`` key must be present and hold completed records)."""
    attrib = doc.get("live", {}).get("attrib")
    if not attrib:
        raise ValueError(
            "snapshot has no live.attrib section - was the run recorded "
            "with the live observability layer attached?"
        )
    records = attrib.get("records", [])
    if not records:
        raise ValueError(
            "snapshot's cost ledger holds no completed requests"
        )
    result = {
        "requests": len(records),
        "evicted": attrib.get("evicted", 0),
        "aggregate": attrib.get("aggregate", {}),
        "critical_path": critical_path(records),
        "tail": tail_explainer(records, top=top),
        "pool": attrib.get("pool", {}),
    }
    if baseline_doc is not None:
        result["baseline_deltas"] = compare_baseline(
            result["aggregate"], baseline_doc, threshold=threshold
        )
    if trace_doc is not None:
        result["trace"] = analyze_trace(trace_doc)
    return result


def render_analysis(result: dict) -> str:
    """Human-readable report of :func:`analyze_snapshot`'s output."""
    lines = []
    cp = result["critical_path"]
    lines.append(
        f"critical path over {cp['requests']} requests "
        f"(e2e mean {cp['e2e_mean_s'] * 1e3:.1f} ms, "
        f"p99 {cp['e2e_p99_s'] * 1e3:.1f} ms)"
    )
    header = (
        f"  {'component':18s} {'mean ms':>10s} {'p50 ms':>10s} "
        f"{'p99 ms':>10s} {'share':>7s}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for entry in cp["path"]:
        lines.append(
            f"  {entry['name']:18s} {entry['mean_s'] * 1e3:>10.3f} "
            f"{entry['p50_s'] * 1e3:>10.3f} {entry['p99_s'] * 1e3:>10.3f} "
            f"{entry['fraction']:>6.1%}"
        )
    lines.append(f"  dominant: {cp['dominant']}")
    tail = result.get("tail", {})
    if tail.get("slowest"):
        lines.append("")
        lines.append(f"tail latency: top {len(tail['slowest'])} slowest")
        for entry in tail["slowest"]:
            lines.append(
                f"  req {entry['request_id']:>5d} [{entry['outcome']}] "
                f"e2e {entry['e2e_seconds'] * 1e3:.1f} ms - blame "
                f"{entry['blame']} (+{entry['blame_delta_s'] * 1e3:.1f} ms "
                f"vs p50)"
            )
    pool = result.get("pool") or {}
    if pool:
        lines.append("")
        lines.append(
            "kv pool: "
            + ", ".join(f"{k}={pool[k]}" for k in sorted(pool))
        )
    deltas = result.get("baseline_deltas")
    if deltas is not None:
        regressed = [d for d in deltas if d["regressed"]]
        lines.append("")
        if regressed:
            lines.append(
                f"baseline comparison: {len(regressed)} component "
                "share(s) moved beyond threshold"
            )
            for d in regressed:
                lines.append(
                    f"  {d['benchmark']}/{d['system']} {d['component']}: "
                    f"{d['baseline_frac']:.1%} -> {d['current_frac']:.1%} "
                    f"({d['delta']:+.1%})"
                )
        else:
            lines.append(
                "baseline comparison: no component share moved beyond "
                "threshold"
            )
    trace = result.get("trace")
    if trace:
        lines.append("")
        lines.append("step mix (from chrome trace):")
        for kind in sorted(trace["step_kinds"]):
            slot = trace["step_kinds"][kind]
            lines.append(
                f"  {kind:8s} {int(slot['count']):>6d} steps "
                f"{slot['seconds'] * 1e3:>10.1f} ms"
            )
    return "\n".join(lines)
