"""Memory-system models: shared-memory bank conflicts and bandwidth timing.

The bank-conflict model is the mechanism behind the paper's weight
interleaving optimization (Section 4.3, Figure 6): when threads of a warp
read INT4 weights stored in an INT8-oriented layout, two threads touch the
same 32-bit bank word and the hardware serializes the accesses.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.spec import GPUSpec

__all__ = [
    "bank_conflict_degree",
    "warp_smem_access_cycles",
    "global_load_time",
    "smem_load_time",
]

_BANK_WORD_BYTES = 4


def bank_conflict_degree(byte_addresses: np.ndarray, num_banks: int = 32) -> int:
    """Worst-case serialization factor for one warp's shared-memory access.

    Each 4-byte word belongs to bank ``(addr // 4) % num_banks``.  Accesses
    by different threads to *different words in the same bank* serialize;
    accesses to the *same word* broadcast for free.

    Args:
        byte_addresses: one address per thread in the warp.
        num_banks: shared memory bank count.

    Returns:
        the number of serialized passes (1 = conflict-free).
    """
    addrs = np.asarray(byte_addresses, dtype=np.int64)
    if addrs.size == 0:
        return 1
    words = addrs // _BANK_WORD_BYTES
    banks = words % num_banks
    degree = 1
    # ``return_counts`` keeps np.unique from importing numpy.ma.
    for bank in np.unique(banks, return_counts=True)[0]:
        distinct_words = len(np.unique(words[banks == bank], return_counts=True)[0])
        degree = max(degree, distinct_words)
    return int(degree)


def warp_smem_access_cycles(
    byte_addresses: np.ndarray, num_banks: int = 32
) -> int:
    """Cycles for one warp-wide shared-memory access (1 if conflict-free)."""
    return bank_conflict_degree(byte_addresses, num_banks)


def global_load_time(spec: GPUSpec, nbytes: float, active_sms: int | None = None) -> float:
    """Seconds to stream ``nbytes`` from HBM into one SM's shared memory.

    Bandwidth is shared fairly among the SMs concurrently streaming; with
    fewer active SMs each one sees a larger share (up to the whole chip).
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    active = spec.num_sms if active_sms is None else max(1, min(active_sms, spec.num_sms))
    per_sm_bw = spec.hbm_bandwidth / active
    return nbytes / per_sm_bw


def smem_load_time(spec: GPUSpec, nbytes: float, conflict_factor: float = 1.0) -> float:
    """Seconds for one SM to move ``nbytes`` shared-memory -> registers.

    ``conflict_factor`` multiplies the cost when the access pattern causes
    bank conflicts (from :func:`bank_conflict_degree`).
    """
    if conflict_factor < 1.0:
        raise ValueError("conflict_factor must be >= 1")
    return nbytes * conflict_factor / spec.smem_bw_per_sm
