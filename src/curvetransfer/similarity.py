"""Curve-shape similarity: dynamic time warping and source ranking.

The DTW distance here is the minimum cumulative sum of squared stress
differences along a valid monotone alignment path between two curves that were
normalized and resampled onto the same strain grid. No square root and no
path-length normalization are applied, and the recurrence is unconstrained
(no warping window). The tests check the distance against an oracle that
enumerates every alignment path, in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import RawCurve, Dataset, grid_curves, DEFAULT_GRID_N


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


def cumulative_cost(local: np.ndarray) -> np.ndarray:
    """Cumulative-cost matrix of the DTW recurrence.

    The first cell copies the local cost, the first row and column are running
    sums, and each interior cell adds its local cost to the cheapest of the
    three admissible predecessors. This row-by-row list DP is the reference
    for :func:`_dtw_many` and feeds :func:`dtw_path`.
    """
    local = np.asarray(local, dtype=float)
    n, m = local.shape
    # Row-local Python lists beat numpy scalar indexing for this sequential DP.
    loc = local.tolist()
    rows = [[0.0] * m for _ in range(n)]
    rows[0][0] = loc[0][0]
    for l in range(1, m):
        rows[0][l] = loc[0][l] + rows[0][l - 1]
    for k in range(1, n):
        cur, prev, lk = rows[k], rows[k - 1], loc[k]
        cur[0] = lk[0] + prev[0]
        for l in range(1, m):
            best = prev[l - 1]
            if prev[l] < best:
                best = prev[l]
            if cur[l - 1] < best:
                best = cur[l - 1]
            cur[l] = lk[l] + best
    return np.array(rows)


def _dtw_many(a: np.ndarray, b_rev: np.ndarray) -> np.ndarray:
    """DTW distance of each column pair of two (N, P) stress stacks (or of one (N,) pair).

    Column p of ``b_rev`` is pair p's second curve reversed. All P cost matrices
    are swept together along their 2N-1 anti-diagonals, cell-major: row k+1 of a
    diagonal's (N+1, P) buffer holds cell (k, d-k) of every pair, read from rows
    k of ``a`` and N-1-d+k of ``b_rev``, so each of a diagonal's five ufuncs is
    one contiguous loop and none allocates. Row 0 and every off-grid cell a
    later diagonal reads hold +inf. (Each of the three rolling buffers is reused
    every third diagonal and, up to the middle diagonal, is written only at rows
    1..d+1, so the off-grid row d+2 it is later read at has never been written.)
    Each cell adds its local cost to the minimum of the same three predecessors
    as :func:`cumulative_cost`, so every distance is bitwise equal to that DP's
    last cell. Memory is O(P*N).
    """
    n = len(a)
    before, last, cur = (np.full((n + 1,) + a.shape[1:], np.inf) for _ in range(3))
    square = np.empty_like(a)
    # np.square, not ``** 2``: on the scalars of a 1-D pair ``** 2`` is libm's
    # pow, which can differ from the exact product in the last bit.
    last[1] = np.square(a[0] - b_rev[n - 1])
    for d in range(1, 2 * n - 1):
        k0, k1 = max(0, d - n + 1), min(d, n - 1) + 1
        out, sq = cur[k0 + 1 : k1 + 1], square[: k1 - k0]
        # Predecessors of (k, d-k): (k-1, d-k-1) on diagonal d-2, (k-1, d-k) and (k, d-k-1) on d-1.
        np.minimum(before[k0:k1], last[k0:k1], out=out)
        np.minimum(out, last[k0 + 1 : k1 + 1], out=out)
        np.subtract(a[k0:k1], b_rev[n - 1 - d + k0 : n - 1 - d + k1], out=sq)
        np.square(sq, out=sq)
        out += sq
        before, last, cur = last, cur, before
    return last[n].copy()


def dtw_path(cumulative: np.ndarray) -> list[tuple[int, int]]:
    """Optimal warping path read back from a cumulative-cost matrix.

    The path uses 0-based (row, col) indices, runs from (0, 0) to
    (N-1, N-1), and steps by (1, 0), (0, 1), or (1, 1). At equal cost the
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
    target curve) pair in that order. Each source's distances are summed one by
    one in that order, so every mean is bitwise that of a per-pair loop.
    """
    for source in sources:
        if source.shape[1] != target.shape[1]:
            raise ValueError(f"grid length mismatch: {source.shape[1]} vs {target.shape[1]}")
    a = np.repeat(np.concatenate(sources).T, len(target), axis=1)
    b_rev = np.tile(target[:, ::-1].T, (1, sum(len(source) for source in sources)))
    distances = iter(_dtw_many(a, b_rev).tolist())
    means = []
    for source in sources:
        count, total = len(source) * len(target), 0.0
        for _ in range(count):
            total += next(distances)
        means.append(total / count)
    return means


def rank_sources(
    sources: list[Dataset],
    target_train: list[RawCurve],
    n: int = DEFAULT_GRID_N,
) -> SourceRanking:
    """Rank candidate source datasets by average DTW distance to the target training curves.

    Only target TRAINING curves may be passed here; using test curves would
    leak them into model selection. Each dataset is gridded in one
    :func:`~curvetransfer.curves.grid_curves` call, and the pairs of all sources
    run in one DTW sweep.
    """
    if not sources:
        raise ValueError("rank_sources requires at least one source dataset")
    if not target_train:
        raise ValueError("rank_sources requires at least one target training curve")
    target_grids = grid_curves(target_train, n)
    source_grids = []
    for dataset in sources:
        if not dataset.curves:
            raise ValueError(f"source dataset {dataset.name!r} is empty")
        source_grids.append(grid_curves(dataset.curves, n))
    means = _mean_dtws(source_grids, target_grids)
    entries = sorted(zip([ds.name for ds in sources], means), key=lambda e: (e[1], e[0]))
    return SourceRanking(entries)
