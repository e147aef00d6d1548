"""Curve-shape similarity: dynamic time warping and source ranking.

The DTW distance here is the minimum cumulative sum of squared stress
differences along a valid monotone alignment path between two curves that were
normalized and resampled onto the same strain grid. No square root and no
path-length normalization are applied, and the recurrence is unconstrained
(no warping window). One anti-diagonal sweep, :func:`_sweep`, runs that
recurrence: :func:`_dtw_many` keeps three rolling diagonals for the distances
of many pairs at once, and :func:`cumulative_cost` keeps them all for the
matrix. The tests check both against a row-by-row list DP and an oracle that
enumerates every alignment path, in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .curves import RawCurve, Dataset, grid_curves, DEFAULT_GRID_N
from .errors import DataValidationError, check_int


@dataclass(frozen=True)
class SourceRanking:
    """Average-DTW ranking of candidate source datasets, ascending.

    Ties are broken by lexicographic dataset name; ``selected`` is the first
    entry (smallest average distance).
    """

    entries: list[tuple[str, float]]

    @property
    def selected(self) -> str:
        return self.entries[0][0]

    def to_dict(self) -> dict:
        return {
            "entries": [{"source": name, "avg_dtw": float(d)} for name, d in self.entries],
            "selected": self.selected,
        }


def _check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if len(a) != len(b):
        raise ValueError(f"grid length mismatch: {len(a)} vs {len(b)}")


def local_distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of squared differences between every pair of stress values of two gridded curves."""
    _check_same_length(a, b)
    return (a[:, None] - b[None, :]) ** 2


_PAGE_BYTES = 4096


def _page_aligned(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Uninitialised float64 arrays of ``shapes``, each starting on its own 4 KiB page of one allocation.

    The DTW sweep's ufuncs write whole vector registers. numpy allocates
    through malloc, which aligns only to 16 bytes, so heap history decided
    whether an array started on a 64-byte cache line; stores into one that
    did not split across lines, and a rank op ran 10-30 % slower. One
    allocation per call, not per array, also matters: glibc raises its trim
    threshold to twice the largest block it has unmapped, and with the
    sweep's four arrays apart that threshold sat below what one ranking
    frees, so every rank op handed its 1.1 MB of buffers back to the kernel
    and faulted them in again (250-275 minor page faults per op).
    """
    spans = [-(-prod(shape) * 8 // _PAGE_BYTES) * _PAGE_BYTES for shape in shapes]
    raw = np.empty(sum(spans) + _PAGE_BYTES, dtype=np.uint8)
    start = -raw.ctypes.data % _PAGE_BYTES
    arrays = []
    for shape, span in zip(shapes, spans):
        arrays.append(raw[start : start + prod(shape) * 8].view(np.float64).reshape(shape))
        start += span
    return arrays


def _sweep(diagonals: np.ndarray, m: int, local_costs) -> np.ndarray:
    """The DTW recurrence over an (n, m) cost grid, one anti-diagonal at a time.

    Diagonal d holds the cells (k, d-k), k0 <= k < k1. It is computed in
    ``diagonals[d % len(diagonals)]``, an (n+1, ...) stack whose row k+1 holds
    cell (k, d-k); trailing axes are independent grids swept together.
    ``local_costs(d, k0, k1)`` returns the diagonal's local costs. Each cell
    adds its local cost to the minimum of its three predecessors: (k-1, d-k-1)
    on diagonal d-2, (k-1, d-k) and (k, d-k-1) on d-1. ``diagonals`` must be
    +inf on entry. The sweep writes only on-grid rows, and the off-grid rows
    it reads are row 0 and the row just below a diagonal's last cell. A
    diagonal's last row never decreases with d, so no earlier diagonal wrote
    that row and both stay +inf. Returns the last cell, (n-1, m-1).
    """
    buffers, span = list(diagonals), len(diagonals)
    n = diagonals.shape[1] - 1
    buffers[0][1:2] = local_costs(0, 0, 1)
    for d in range(1, n + m - 1):
        k0, k1 = max(0, d - m + 1), min(d, n - 1) + 1
        before, last = buffers[(d - 2) % span], buffers[(d - 1) % span]
        out = buffers[d % span][k0 + 1 : k1 + 1]
        np.minimum(before[k0:k1], last[k0:k1], out=out)
        np.minimum(out, last[k0 + 1 : k1 + 1], out=out)
        out += local_costs(d, k0, k1)
    return buffers[(n + m - 2) % span][n]


def cumulative_cost(local: np.ndarray) -> np.ndarray:
    """Cumulative-cost matrix of the DTW recurrence on an (n, m) local-cost matrix.

    The first cell copies the local cost, the first row and column are running
    sums, and each interior cell adds its local cost to the cheapest of the
    three admissible predecessors. It runs the one :func:`_sweep` that
    :func:`_dtw_many` runs, keeping every diagonal, and reads the matrix back
    off them; :func:`dtw_path` reads the path from it.
    """
    local = np.asarray(local, dtype=float)
    n, m = local.shape
    diagonals = np.full((n + m - 1, n + 1), np.inf)
    flipped = local[:, ::-1]
    _sweep(diagonals, m, lambda d, k0, k1: flipped.diagonal(m - 1 - d))
    rows, cols = np.indices((n, m))
    return diagonals[rows + cols, rows + 1]


def _dtw_many(a: np.ndarray, b_rev: np.ndarray) -> np.ndarray:
    """DTW distance of each column pair of two (N, P) stress stacks (or of one (N,) pair).

    Column p of ``b_rev`` is pair p's second curve reversed. All P cost matrices
    run through one :func:`_sweep`, cell-major: a diagonal's (N+1, P) buffer
    holds cell (k, d-k) of every pair in row k+1, whose local cost is read from
    rows k of ``a`` and N-1-d+k of ``b_rev``. So each of a diagonal's five
    ufuncs is one contiguous loop, none allocates, and three rolling buffers
    keep the memory at O(P*N). The squared differences and the three
    diagonals (one block) come from one :func:`_page_aligned` call, so the
    speed of their stores does not hang on where malloc put them;
    :func:`_mean_dtws` builds ``a`` and ``b_rev`` the same way. Every distance
    is bitwise ``cumulative_cost(local)[-1, -1]`` of its pair, wherever the
    arrays lie.
    """
    n, m = len(a), len(b_rev)
    square, diagonals = _page_aligned(a.shape, (3, n + 1) + a.shape[1:])
    diagonals.fill(np.inf)

    def local_costs(d: int, k0: int, k1: int) -> np.ndarray:
        sq = square[: k1 - k0]
        np.subtract(a[k0:k1], b_rev[m - 1 - d + k0 : m - 1 - d + k1], out=sq)
        # np.square, not ``** 2``: on the scalars of a 1-D pair ``** 2`` is libm's
        # pow, which can differ from the exact product in the last bit.
        return np.square(sq, out=sq)

    return _sweep(diagonals, m, local_costs).copy()


def dtw_path(cumulative: np.ndarray) -> list[tuple[int, int]]:
    """Optimal warping path read back from a cumulative-cost matrix.

    The path uses 0-based (row, col) indices, runs from (0, 0) to
    (n-1, m-1), and steps by (1, 0), (0, 1), or (1, 1). At equal cost the
    diagonal step wins over up, and up over left.
    """
    k, l = cumulative.shape[0] - 1, cumulative.shape[1] - 1
    path = [(k, l)]
    while k > 0 or l > 0:
        if k == 0:
            l -= 1
        elif l == 0:
            k -= 1
        else:
            diag, up, left = cumulative[k - 1, l - 1], cumulative[k - 1, l], cumulative[k, l - 1]
            if diag <= up and diag <= left:
                k, l = k - 1, l - 1
            elif up <= left:
                k -= 1
            else:
                l -= 1
        path.append((k, l))
    path.reverse()
    return path


def dtw_distance(a: np.ndarray, b: np.ndarray) -> float:
    """DTW distance between two gridded (N,) stress arrays (the last cumulative cost)."""
    _check_same_length(a, b)
    return float(_dtw_many(a, b[::-1]))


def _mean_dtws(sources: list[np.ndarray], target: np.ndarray) -> list[float]:
    """Mean DTW distance of each source's (C_s, N) curve stack to the (T, N) target stack.

    Each source's grid length is checked first; then all pairs of all sources
    run through one :func:`_dtw_many` sweep, one column per (source curve,
    target curve) pair in that order. The sweep's two (N, S*T) stacks are
    broadcast in place into one :func:`_page_aligned` call's arrays, with no
    intermediate copy: column s*T + t of ``a`` is source curve s, and of
    ``b_rev`` target curve t reversed. Each source's distances are summed one
    by one in that order, so every mean is bitwise that of a per-pair loop.
    """
    for source in sources:
        if source.shape[1] != target.shape[1]:
            raise ValueError(f"grid length mismatch: {source.shape[1]} vs {target.shape[1]}")
    stack = np.concatenate(sources)
    (n_curves, n), n_targets = stack.shape, len(target)
    shape = (n, n_curves * n_targets)
    a, b_rev = _page_aligned(shape, shape)
    a.reshape(n, n_curves, n_targets)[...] = stack.T[:, :, None]
    b_rev.reshape(n, n_curves, n_targets)[...] = target[:, ::-1].T[:, None, :]
    distances = iter(_dtw_many(a, b_rev).tolist())
    means = []
    for source in sources:
        count, total = len(source) * len(target), 0.0
        for _ in range(count):
            total += next(distances)
        means.append(total / count)
    return means


def _grid_named(curves: list[RawCurve], n: int, owner: str) -> np.ndarray:
    """``grid_curves(curves, n)``; a curve it refuses raises with ``owner`` named first."""
    try:
        return grid_curves(curves, n)
    except DataValidationError as exc:
        raise DataValidationError(f"{owner}: {exc}") from exc


def rank_sources(
    sources: list[Dataset],
    target_train: list[RawCurve],
    n: int = DEFAULT_GRID_N,
) -> SourceRanking:
    """Rank candidate source datasets by average DTW distance to the target training curves.

    Only target TRAINING curves may be passed here; using test curves would
    leak them into model selection. Each dataset is gridded in one
    :func:`~curvetransfer.curves.grid_curves` call, and the pairs of all sources
    run in one DTW sweep. A curve that cannot be gridded raises its
    ``DataValidationError`` prefixed with ``dataset '<name>': `` for a source
    and ``target training curve: `` for the target.
    """
    if not sources:
        raise ValueError("rank_sources requires at least one source dataset")
    if not target_train:
        raise ValueError("rank_sources requires at least one target training curve")
    check_int("grid size", n, 2)  # before any prefix: the size belongs to no curve
    target_grids = _grid_named(target_train, n, "target training curve")
    source_grids = []
    for dataset in sources:
        if not dataset.curves:
            raise ValueError(f"source dataset {dataset.name!r} is empty")
        source_grids.append(_grid_named(dataset.curves, n, f"dataset {dataset.name!r}"))
    means = _mean_dtws(source_grids, target_grids)
    entries = sorted(zip([ds.name for ds in sources], means), key=lambda e: (e[1], e[0]))
    return SourceRanking(entries)
