"""Kernel self-verification harness.

``verify_kernels`` cross-checks the three implementations of the W4Ax
numerics on randomized configurations:

1. the reference block-wise integer GEMM
   (:func:`repro.core.fmpq.mixed_precision_matmul`);
2. the packed-storage execution through the fast-conversion bit tricks
   (:class:`repro.kernels.functional.PackedW4AxGEMM`);
3. the float GEMM the quantization approximates (error-bound check).

It also sanity-checks the timing models (positivity, precision ordering).
Exposed as ``python -m repro.cli selfcheck`` so users can validate an
installation in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.blockwise import BlockConfig, BlockPrecisionPlan, quantize_activation_blocks
from repro.core.fmpq import mixed_precision_matmul
from repro.core.weightquant import quantize_weight
from repro.gpu.spec import A100_80G_SXM4, GPUSpec
from repro.kernels.baselines import CuBLASW16A16, OracleW4A4, TRTLLMW8A8
from repro.kernels.functional import PackedW4AxGEMM
from repro.kernels.tiling import GEMMShape
from repro.kernels.w4ax import W4AxKernel

__all__ = ["VerificationReport", "verify_kernels"]


@dataclass
class VerificationReport:
    """Outcome of the self-check."""

    numerics_cases: int = 0
    timing_cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        lines = [
            f"kernel self-check: {status} "
            f"({self.numerics_cases} numerics cases, "
            f"{self.timing_cases} timing cases)"
        ]
        lines.extend(f"  FAIL: {f}" for f in self.failures)
        return "\n".join(lines)


def _check_numerics(report: VerificationReport, rng: np.random.Generator) -> None:
    tokens = int(rng.integers(1, 12))
    nblocks = int(rng.integers(1, 5))
    block = int(rng.choice([16, 32]))
    out_f = int(rng.integers(4, 24))
    in_f = nblocks * block
    w = rng.normal(size=(out_f, in_f)).astype(np.float32) * 0.2
    x = rng.normal(size=(tokens, in_f)).astype(np.float32)
    qw = quantize_weight(w, group_size=block)
    plan = BlockPrecisionPlan(
        config=BlockConfig(block_size=block),
        is_high=rng.random(nblocks) < 0.5,
    )
    qact = quantize_activation_blocks(x, plan)
    ref = mixed_precision_matmul(qact, qw)
    packed = PackedW4AxGEMM(qw).run(qact)
    case = f"numerics m={tokens} blocks={nblocks} block={block}"
    if not np.allclose(packed, ref, rtol=1e-5, atol=1e-5):
        report.failures.append(f"{case}: packed != reference")
    denom = float(np.linalg.norm(x @ w.T)) + 1e-9
    rel = float(np.linalg.norm(ref - x @ w.T)) / denom
    if rel > 0.6:
        report.failures.append(f"{case}: quantization error {rel:.2f} > 0.6")
    report.numerics_cases += 1


def _check_timing(report: VerificationReport, spec: GPUSpec,
                  oracle: OracleW4A4, rng: np.random.Generator) -> None:
    m = int(rng.choice([2, 16, 64, 256]))
    n = int(rng.choice([2048, 5120, 8192]))
    k = int(rng.choice([2048, 5120, 8192]))
    shape = GEMMShape(m, n, k)
    case = f"timing {shape}"
    comet = W4AxKernel(spec=spec).latency(shape).seconds
    w4a8 = W4AxKernel(spec=spec, int8_fraction=1.0).latency(shape).seconds
    oracle = oracle.latency(shape).seconds
    cublas = CuBLASW16A16(spec=spec).latency(shape).seconds
    w8a8 = TRTLLMW8A8(spec=spec).latency(shape).seconds
    for name, v in (("comet", comet), ("cublas", cublas), ("w8a8", w8a8)):
        if not (0 < v < 1):
            report.failures.append(f"{case}: {name} latency {v} out of range")
    if not oracle <= comet * 1.0001:
        report.failures.append(f"{case}: oracle slower than mixed kernel")
    if not comet <= w4a8 * 1.0001:
        report.failures.append(f"{case}: mixed kernel slower than all-W4A8")
    report.timing_cases += 1


def verify_kernels(
    cases: int = 20, seed: int = 0, spec: GPUSpec = A100_80G_SXM4
) -> VerificationReport:
    """Run the randomized self-check.

    Args:
        cases: numerics cases (timing runs ``cases // 4 + 1``).
        seed: RNG seed.
        spec: GPU to check the timing models on.  The timing checks bound
            the mixed kernel by the all-INT4 oracle, so a GPU without INT4
            tensor cores is refused with the oracle's ``ValueError``
            before any case runs.
    """
    if cases < 1:
        raise ValueError("cases must be positive")
    oracle = OracleW4A4(spec=spec)
    rng = np.random.default_rng(seed)
    report = VerificationReport()
    for _ in range(cases):
        _check_numerics(report, rng)
    for _ in range(cases // 4 + 1):
        _check_timing(report, spec, oracle, rng)
    return report
