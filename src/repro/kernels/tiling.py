"""Tile decomposition of mixed-precision GEMMs (paper Figure 5a, Section 4.4).

A GEMM of shape ``(m, n, k)`` (``m`` = tokens, ``n`` = output channels,
``k`` = input channels) is cut into 128x128 output tiles.  Along ``k`` the
FMPQ block structure partitions the reduction dimension into slices of
uniform precision — ``int8`` slices first (the outlier-clustering
permutation packs high-precision blocks at the front), then ``int4``.

A thread block processes one output tile over one contiguous uniform-
precision *k-run*; mixed-precision GEMMs therefore have (at least) two
thread blocks per output tile whose partial sums are combined by a
reduction, exactly the "reduction operator ... across multiple TBs" of
Figure 5(a).  When the natural tile count underfills the GPU, k-runs are
split further (split-k) to raise occupancy, as vendor kernels do.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

__all__ = [
    "GEMMShape",
    "TileShape",
    "TileClass",
    "TileGrid",
    "k_slice_precisions",
    "precision_runs",
    "tile_grid",
    "clear_grid_memo",
]

#: Process-wide memos of the two pieces of a grid that a cold cost-model
#: call would otherwise rebuild per candidate tile: the split-k runs and
#: their distinct runs with repeat counts, keyed ``(k, tk, precision
#: source, output tiles, target_tiles)``, and the block-order class ids,
#: keyed ``(row_counts, col_counts, runs)``.
_RUNS_MEMO: dict[tuple, tuple[tuple, tuple]] = {}
_CLASS_IDS_MEMO: dict[tuple, np.ndarray] = {}


def clear_grid_memo() -> None:
    """Forget the memoized split-k runs and class ids."""
    _RUNS_MEMO.clear()
    _CLASS_IDS_MEMO.clear()


@dataclass(frozen=True)
class GEMMShape:
    """Problem size of one GEMM: ``out[m, n] = act[m, k] @ weight[n, k].T``."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {self}")

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k

    def __str__(self) -> str:
        return f"{self.m}x{self.n}x{self.k}"


@dataclass(frozen=True)
class TileShape:
    """Thread-block tile extents; the paper fixes 128x128x128."""

    tm: int = 128
    tn: int = 128
    tk: int = 128

    def __post_init__(self) -> None:
        if min(self.tm, self.tn, self.tk) <= 0:
            raise ValueError("tile dims must be positive")


def k_slice_precisions(
    num_k_slices: int,
    int8_fraction: float | None = None,
    is_high: np.ndarray | None = None,
) -> list[str]:
    """Precision of every k-slice (one slice per FMPQ block).

    Either derive from an FMPQ block plan (``is_high``) or synthesize from
    an ``int8_fraction`` — the benchmark convention (the paper evaluates a
    25% INT8 / 75% INT4 mix as "the lower bound of kernel performance").
    INT8 slices come first, matching the outlier-clustering permutation.
    """
    if (int8_fraction is None) == (is_high is None):
        raise ValueError("provide exactly one of int8_fraction / is_high")
    if is_high is not None:
        flags = np.asarray(is_high, dtype=bool)
        if flags.shape[0] != num_k_slices:
            raise ValueError(
                f"is_high has {flags.shape[0]} entries for {num_k_slices} k-slices"
            )
        n_int8 = int(flags.sum())
    else:
        if not 0.0 <= int8_fraction <= 1.0:
            raise ValueError("int8_fraction must be in [0, 1]")
        n_int8 = round(int8_fraction * num_k_slices)
    return ["int8"] * n_int8 + ["int4"] * (num_k_slices - n_int8)


def precision_runs(
    shape_k: int, tile_k: int, precisions: list[str]
) -> list[tuple[str, int]]:
    """Collapse per-slice precisions into contiguous ``(precision, depth)``
    runs, where depth is in reduction elements."""
    runs: list[tuple[str, int]] = []
    start = 0
    for prec, group in groupby(precisions):
        stop = start + len(list(group))
        # Every slice is tile_k deep except a ragged last one.
        runs.append((prec, min(stop * tile_k, shape_k) - start * tile_k))
        start = stop
    return runs


def _edge_extents(size: int, tile: int) -> list[tuple[int, int]]:
    """``(extent, count)`` of the full tiles, then the ragged edge tile."""
    return [(e, n) for e, n in ((tile, size // tile), (size % tile, 1)) if e and n]


class TileClass(NamedTuple):
    """``count`` identical thread blocks: a ``rows x cols`` output tile
    (ragged at the edges) over a k-run ``depth`` deep at ``precision``.
    Its first four fields are the tile geometry a cost depends on."""

    rows: int
    cols: int
    depth: int
    precision: str
    count: int


@dataclass(frozen=True, eq=False)
class TileGrid:
    """The thread blocks of one GEMM, as tile classes.

    Block ``(mi, ni, run)`` covers output tile ``(mi, ni)`` over k-run
    ``runs[run]``.  Blocks with the same row extent, column extent and run
    do identical work, and split-k repeats equal runs, so there are at
    most four classes per distinct run; ``class_ids`` holds every block's
    class in ``(mi, ni, run)`` order.  It is built on first use: costing
    a grid per class never needs it.
    """

    m_tiles: int
    n_tiles: int
    runs: tuple[tuple[str, int], ...]
    classes: tuple[TileClass, ...]
    #: Tiles per row extent and per column extent (full, then ragged).
    row_counts: tuple[int, ...]
    col_counts: tuple[int, ...]

    @property
    def num_tiles(self) -> int:
        return self.m_tiles * self.n_tiles * len(self.runs)

    @cached_property
    def class_ids(self) -> np.ndarray:
        """Every block's class, in block order (read-only: grids with the
        same extents and runs share one array)."""
        key = (self.row_counts, self.col_counts, self.runs)
        ids = _CLASS_IDS_MEMO.get(key)
        if ids is None:
            # Class (r * len(col_counts) + c) * len(kinds) + j has row
            # extent r, column extent c and the j-th distinct run, in
            # order of first appearance (as tile_grid lists them).
            kinds = list(dict.fromkeys(self.runs))
            kind = np.array([kinds.index(run) for run in self.runs])
            r = np.repeat(np.arange(len(self.row_counts)), self.row_counts)
            c = np.repeat(np.arange(len(self.col_counts)), self.col_counts)
            tiles = r[:, None] * len(self.col_counts) + c[None, :]
            ids = (tiles[:, :, None] * len(kinds) + kind).ravel()
            ids.flags.writeable = False
            _CLASS_IDS_MEMO[key] = ids
        return ids

    def expand(self, per_class) -> np.ndarray:
        """One float64 value per block, in block order; a sequence of
        per-class rows gives one row of per-block values each."""
        values = np.asarray(per_class, dtype=np.float64)  # staticcheck: ignore[NUM003]
        return values.take(self.class_ids, axis=-1)


def tile_grid(
    shape: GEMMShape,
    tile: TileShape = TileShape(),
    int8_fraction: float | None = None,
    is_high: np.ndarray | None = None,
    target_tiles: int | None = None,
) -> TileGrid:
    """Cut a (mixed-precision) GEMM into thread blocks.

    Args:
        shape: GEMM problem size.
        tile: thread-block tile extents.
        int8_fraction / is_high: precision source (see
            :func:`k_slice_precisions`); uniform kernels pass 0.0 or 1.0.
        target_tiles: if given and the natural block count is smaller,
            k-runs are split (split-k) until the count reaches the target or
            runs can no longer be divided — the occupancy heuristic real
            kernels apply for small-batch GEMMs.
    """
    m_tiles = -(-shape.m // tile.tm)
    n_tiles = -(-shape.n // tile.tn)
    source = None if is_high is None else np.asarray(is_high, dtype=bool).tobytes()
    key = (shape.k, tile.tk, int8_fraction, source, m_tiles * n_tiles, target_tiles)
    entry = _RUNS_MEMO.get(key)
    if entry is None:
        runs = _split_runs(
            shape.k, tile.tk, m_tiles * n_tiles, int8_fraction, is_high,
            target_tiles,
        )
        entry = _RUNS_MEMO[key] = runs, tuple(Counter(runs).items())
    runs, kinds = entry
    row_ext = _edge_extents(shape.m, tile.tm)
    col_ext = _edge_extents(shape.n, tile.tn)
    classes = tuple(
        TileClass(rows, cols, depth, prec, row_count * col_count * repeats)
        for rows, row_count in row_ext
        for cols, col_count in col_ext
        for (prec, depth), repeats in kinds
    )
    return TileGrid(
        m_tiles, n_tiles, runs, classes,
        tuple(n for _, n in row_ext), tuple(n for _, n in col_ext),
    )


def _split_runs(
    k: int,
    tk: int,
    outputs: int,
    int8_fraction: float | None,
    is_high: np.ndarray | None,
    target_tiles: int | None,
) -> tuple[tuple[str, int], ...]:
    """The k-runs of :func:`tile_grid`, split-k applied, for ``outputs``
    output tiles."""
    precisions = k_slice_precisions(-(-k // tk), int8_fraction, is_high)
    runs = precision_runs(k, tk, precisions)
    if target_tiles is not None and target_tiles > 0:
        # Split the deepest run (the first of equal depth) in half, at
        # tk granularity, until the tile count reaches the target or
        # no run is deeper than one slice.  A heap of (-depth, key) finds
        # that run; splitting the run keyed ``p`` makes ``p + (0,)`` and
        # ``p + (1,)``, so keys sort in run order.
        heap = [(-depth, (i,), prec) for i, (prec, depth) in enumerate(runs)]
        heapq.heapify(heap)
        while outputs * len(heap) < target_tiles and -heap[0][0] > tk:
            neg, key, prec = heapq.heappop(heap)
            left = (-neg // tk // 2) * tk
            heapq.heappush(heap, (-left, key + (0,), prec))
            heapq.heappush(heap, (neg + left, key + (1,), prec))
        runs = [(prec, -neg) for neg, _, prec in sorted(heap, key=lambda e: e[1])]
    return tuple(runs)
