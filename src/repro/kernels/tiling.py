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

from dataclasses import dataclass
from itertools import groupby

import numpy as np

__all__ = [
    "GEMMShape",
    "TileShape",
    "TileClass",
    "TileGrid",
    "k_slice_precisions",
    "precision_runs",
    "tile_grid",
]


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


@dataclass(frozen=True)
class TileClass:
    """``count`` identical thread blocks: a ``rows x cols`` output tile
    (ragged at the edges) over a k-run ``depth`` deep at ``precision``."""

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
    do identical work, so there are at most ``4 * len(runs)`` classes;
    ``class_ids`` holds every block's class in ``(mi, ni, run)`` order.
    """

    m_tiles: int
    n_tiles: int
    runs: tuple[tuple[str, int], ...]
    classes: tuple[TileClass, ...]
    class_ids: np.ndarray

    @property
    def num_tiles(self) -> int:
        return len(self.class_ids)

    def expand(self, per_class: list[float]) -> np.ndarray:
        """One float64 value per block, in block order."""
        values = np.asarray(per_class, dtype=np.float64)  # staticcheck: ignore[NUM003]
        return values[self.class_ids]


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
    k_slices = -(-shape.k // tile.tk)
    precisions = k_slice_precisions(k_slices, int8_fraction, is_high)
    runs = precision_runs(shape.k, tile.tk, precisions)

    if target_tiles is not None and target_tiles > 0:
        # Split every run into `split` equal-depth pieces (at tile.tk
        # granularity) until the tile count reaches the target.
        while True:
            count = m_tiles * n_tiles * len(runs)
            if count >= target_tiles:
                break
            splittable = [i for i, (_, d) in enumerate(runs) if d > tile.tk]
            if not splittable:
                break
            # Split the deepest run in half (rounded to slice granularity).
            i = max(splittable, key=lambda j: runs[j][1])
            prec, depth = runs[i]
            slices = depth // tile.tk
            left = (slices // 2) * tile.tk
            runs[i : i + 1] = [(prec, left), (prec, depth - left)]
    row_ext = _edge_extents(shape.m, tile.tm)
    col_ext = _edge_extents(shape.n, tile.tn)
    classes = tuple(
        TileClass(rows, cols, depth, prec, row_count * col_count)
        for rows, row_count in row_ext
        for cols, col_count in col_ext
        for prec, depth in runs
    )
    # Class (r * len(col_ext) + c) * len(runs) + k has row extent r,
    # column extent c and run k.
    r = np.repeat(np.arange(len(row_ext)), [n for _, n in row_ext])
    c = np.repeat(np.arange(len(col_ext)), [n for _, n in col_ext])
    tiles = r[:, None] * len(col_ext) + c[None, :]
    class_ids = (tiles[:, :, None] * len(runs) + np.arange(len(runs))).ravel()
    return TileGrid(m_tiles, n_tiles, tuple(runs), classes, class_ids)
