"""Serving latency metrics: TTFT, TPOT, end-to-end latency percentiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.request import Phase, Request

__all__ = ["LatencyReport"]


@dataclass(frozen=True)
class LatencyReport:
    """Per-request latency statistics over a finished trace.

    Attributes:
        ttft_*: time to first token (prefill completion - arrival).
        tpot_*: time per output token during decode.
        e2e_*: full request latency.

    Each family carries mean / p50 / p95 / p99 / max — the tail fields
    (p99, max) are what SLO dashboards and the live-observability windows
    report, so the post-hoc report exposes the same columns.
    """

    num_requests: int
    ttft_mean: float
    ttft_p50: float
    ttft_p95: float
    ttft_p99: float
    ttft_max: float
    tpot_mean: float
    tpot_p50: float
    tpot_p95: float
    tpot_p99: float
    tpot_max: float
    e2e_mean: float
    e2e_p50: float
    e2e_p95: float
    e2e_p99: float
    e2e_max: float

    @classmethod
    def zero(cls) -> "LatencyReport":
        """The well-defined empty report (``num_requests == 0``, all 0.0)."""
        return cls(
            num_requests=0,
            ttft_mean=0.0, ttft_p50=0.0, ttft_p95=0.0,
            ttft_p99=0.0, ttft_max=0.0,
            tpot_mean=0.0, tpot_p50=0.0, tpot_p95=0.0,
            tpot_p99=0.0, tpot_max=0.0,
            e2e_mean=0.0, e2e_p50=0.0, e2e_p95=0.0,
            e2e_p99=0.0, e2e_max=0.0,
        )

    @classmethod
    def from_requests(cls, requests: list[Request]) -> "LatencyReport":
        """Compute metrics from finished requests (others are skipped).

        An empty or all-unfinished list yields :meth:`zero` rather than
        raising, so callers summarizing partial runs need no special case.
        """
        done = [r for r in requests if r.phase is Phase.FINISHED]
        if not done:
            return cls.zero()
        # One pass over the requests into preallocated arrays, then one
        # vectorized np.percentile call per family — same interpolation,
        # bit-identical values to per-quantile calls.
        n = len(done)
        ttft = np.empty(n, dtype=np.float64)
        e2e = np.empty(n, dtype=np.float64)
        tpot = np.empty(n, dtype=np.float64)
        for i, r in enumerate(done):
            ttft[i] = r.ttft
            e2e[i] = r.e2e
            tpot[i] = r.tpot
        q = np.array([50.0, 95.0, 99.0], dtype=np.float64)
        ttft_q = np.percentile(ttft, q)
        tpot_q = np.percentile(tpot, q)
        e2e_q = np.percentile(e2e, q)
        return cls(
            num_requests=n,
            ttft_mean=float(ttft.mean()),
            ttft_p50=float(ttft_q[0]),
            ttft_p95=float(ttft_q[1]),
            ttft_p99=float(ttft_q[2]),
            ttft_max=float(ttft.max()),
            tpot_mean=float(tpot.mean()),
            tpot_p50=float(tpot_q[0]),
            tpot_p95=float(tpot_q[1]),
            tpot_p99=float(tpot_q[2]),
            tpot_max=float(tpot.max()),
            e2e_mean=float(e2e.mean()),
            e2e_p50=float(e2e_q[0]),
            e2e_p95=float(e2e_q[1]),
            e2e_p99=float(e2e_q[2]),
            e2e_max=float(e2e.max()),
        )

    def summary(self) -> str:
        return (
            f"{self.num_requests} requests | "
            f"TTFT p50/p95/p99 {self.ttft_p50 * 1e3:.1f}/"
            f"{self.ttft_p95 * 1e3:.1f}/{self.ttft_p99 * 1e3:.1f} ms "
            f"(max {self.ttft_max * 1e3:.1f}) | "
            f"TPOT p50/p95/p99 {self.tpot_p50 * 1e3:.1f}/"
            f"{self.tpot_p95 * 1e3:.1f}/{self.tpot_p99 * 1e3:.1f} ms | "
            f"e2e p50/p95/p99 {self.e2e_p50:.2f}/{self.e2e_p95:.2f}/"
            f"{self.e2e_p99:.2f} s (max {self.e2e_max:.2f})"
        )
