"""The benchmark's Fig. 10 workload reproduces the committed Fig. 10 table.

Run with ``python3 -m pytest perfbench/test_fidelity.py`` (about 20 s).
The table is what ``benchmarks/bench_fig10_e2e_throughput.py`` wrote; the
benchmark must compute the same COMET means, and its fidelity metrics must
be their relative error against the paper's figures.
"""

from __future__ import annotations

import os
import re

import pytest

import worker

TABLE = os.path.join(worker.ROOT, "benchmarks", "results",
                     "fig10_e2e_1024_512.txt")
COLUMNS = ("trtllm-fp16", "trtllm-w4a16", "trtllm-w8a8", "qserve", "comet")


def read_table() -> tuple[dict[str, dict[str, float]], float]:
    """Per-model normalized throughput and the 'mean COMET' row."""
    rows, mean = {}, None
    with open(TABLE) as fh:
        for line in fh:
            cells = line.split()
            if cells[:1] and cells[0] in worker.FIG10_MODELS:
                rows[cells[0]] = {
                    col: float(v) for col, v in zip(COLUMNS, cells[1:])
                    if re.fullmatch(r"[0-9.]+", v)
                }
            elif line.startswith("mean COMET"):
                mean = float(cells[-1])
    return rows, mean


@pytest.fixture(scope="module")
def ratios():
    jobs = worker.build_fig10(seed=0)
    reports = [job.engine.run(job.requests) for job in jobs]
    out, errors = worker.fig10_ratios(jobs, reports)
    assert errors == []
    return out


def test_w4a16_mean_matches_committed_table(ratios):
    _, committed = read_table()
    mean = sum(ratios["w4a16"].values()) / len(ratios["w4a16"])
    assert mean == pytest.approx(committed, abs=5e-4)  # 2.965
    err = worker.fidelity(ratios)["fig10_w4a16_err"]
    assert err == pytest.approx(abs(committed - 2.02) / 2.02, abs=5e-4)  # 0.468


def test_qserve_mean_matches_committed_table(ratios):
    rows, _ = read_table()
    table_mean = sum(r["comet"] / r["qserve"] for r in rows.values()) / len(rows)
    mean = sum(ratios["qserve"].values()) / len(ratios["qserve"])
    # The table rounds each cell to 3 decimals.
    assert mean == pytest.approx(table_mean, abs=5e-3)
    err = worker.fidelity(ratios)["fig10_qserve_err"]
    assert err == pytest.approx(abs(mean - 1.17) / 1.17)

