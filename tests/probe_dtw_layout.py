"""Layer harness for the ranking sweep: how its time depends on where its arrays lie.

One rank op (suite seed 0, its first target, 120-point grids) is 200 DTW
pairs in one `_dtw_many` sweep, and that sweep is nearly all of the op. The
sweep's ufuncs write whole vector registers, so an array that does not start
on a 64-byte cache line splits its stores across lines; and buffers that the
heap hands back to the kernel after each call are faulted in again on the
next. This probe prints the median, quartiles and range of three timings,
each the best of 7 calls per state over 30 states, with the minor page
faults of a state's last call:

1. ``sweep``: ``_dtw_many`` on the stacks that ``_mean_dtws`` builds (captured
   through a stand-in for ``_dtw_many``), in 30 heap states, each shifted by
   a live spacer of a different size. Where malloc puts the arrays is left to
   the heap, so on a tree that does not fix the placement the times spread
   over the states.
2. ``means``: the whole ``_mean_dtws`` in the same 30 heap states: the stacks
   are built, swept and freed on each call, as in a rank op.
3. ``+16 B``: the sweep with every array (both stacks, the squared
   differences and the diagonals) 16 B past a 64-byte line, at 30 page
   offsets. It replaces ``similarity._page_aligned``; a tree without that
   helper prints this row as not run.

The result of every call is checked bitwise against the first call's. The
file name keeps it out of pytest's collection; run it as a script with the
tree to probe first on the path:

    PYTHONPATH=src python tests/probe_dtw_layout.py
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

from curvetransfer import similarity
from curvetransfer.curves import grid_curves
from curvetransfer.synthgen import standard_suite
from curvetransfer.transfer import select_extreme_training_samples

STATES = 30
REPEATS = 7
LINE_BYTES = 64
PAGE_BYTES = 4096


def rank_op_stacks():
    """A rank op's gridded (C, N) source stacks and (T, N) target stack, as ``rank_sources`` grids them."""
    sources, targets, _ = standard_suite(0)
    target = targets[0]
    train = [target.curve_by_id(sid) for sid in select_extreme_training_samples(target)]
    return [grid_curves(ds.curves, 120) for ds in sources], grid_curves(train, 120)


def built_stacks(sources, target):
    """The (a, b_rev) that ``_mean_dtws`` hands to ``_dtw_many``, built where it builds them."""
    captured = []

    def capture(a, b_rev):
        captured.append((a, b_rev))
        return np.zeros(a.shape[1:])

    sweep, similarity._dtw_many = similarity._dtw_many, capture
    try:
        similarity._mean_dtws(sources, target)
    finally:
        similarity._dtw_many = sweep
    return captured[0]


def placed(shape, offset):
    """An uninitialised float64 array of ``shape`` starting ``offset`` bytes past a page boundary."""
    nbytes = int(np.prod(shape)) * 8
    raw = np.empty(nbytes + offset + PAGE_BYTES, dtype=np.uint8)
    start = -raw.ctypes.data % PAGE_BYTES + offset
    return raw[start : start + nbytes].view(np.float64).reshape(shape)


def best_of(call):
    """The best time of ``REPEATS`` calls, the minor page faults of the last one, and its result."""
    times = []
    for _ in range(REPEATS):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return min(times), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, np.asarray(result)


def heap_states(call_in_state, reference):
    """Time ``call_in_state()``'s call in each state; ``call_in_state`` runs with the state's spacer live."""
    times, faults = [], []
    for state in range(STATES):
        # A live spacer moves every later heap allocation by its size; 1 KiB
        # and up is past numpy's small-block cache, so it comes from malloc.
        spacer = np.empty(1024 + 16 * state, dtype=np.uint8)
        seconds, faulted, result = best_of(call_in_state())
        assert result.tobytes() == reference.tobytes()
        times.append(seconds)
        faults.append(faulted)
        del spacer
    return times, faults


def misaligned_states(sources, target, reference):
    times, faults = [], []
    aligned = similarity._page_aligned
    for state in range(STATES):
        offset = (state * 5 % (PAGE_BYTES // LINE_BYTES)) * LINE_BYTES + 16
        similarity._page_aligned = lambda *shapes, offset=offset: [placed(shape, offset) for shape in shapes]
        try:
            a, b_rev = built_stacks(sources, target)
            seconds, faulted, distances = best_of(lambda: similarity._dtw_many(a, b_rev))
        finally:
            similarity._page_aligned = aligned
        assert distances.tobytes() == reference.tobytes()
        times.append(seconds)
        faults.append(faulted)
    return times, faults


def summary(times, faults):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return (f"median {median * 1e3:5.2f} ms  quartiles {q1 * 1e3:5.2f}-{q3 * 1e3:5.2f} ms  "
            f"range {min(times) * 1e3:5.2f}-{max(times) * 1e3:5.2f} ms  "
            f"page faults per call {statistics.median(faults):g} (max {max(faults)})")


def main():
    sources, target = rank_op_stacks()
    pairs = sum(len(s) for s in sources) * len(target)
    distances = similarity._dtw_many(*built_stacks(sources, target))  # lazy set-up and malloc's thresholds
    means = np.asarray(similarity._mean_dtws(sources, target))
    print(f"one rank op: {pairs} pairs of {target.shape[1]}-point grids; best of {REPEATS} calls per state, "
          f"{STATES} states")

    def sweep_in_state():
        a, b_rev = built_stacks(sources, target)
        return lambda: similarity._dtw_many(a, b_rev)

    print(f"sweep  | {summary(*heap_states(sweep_in_state, distances))}")
    print(f"means  | {summary(*heap_states(lambda: lambda: similarity._mean_dtws(sources, target), means))}")
    if hasattr(similarity, "_page_aligned"):
        print(f"+16 B  | {summary(*misaligned_states(sources, target, distances))}")
    else:
        print("+16 B  | not run: this tree has no similarity._page_aligned")


if __name__ == "__main__":
    main()
