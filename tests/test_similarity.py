"""DTW recurrence, path extraction, oracle equivalence, and baseline metrics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from curvetransfer.curves import Dataset, ParamField, RawCurve, validate_curve
from curvetransfer.errors import DataValidationError
from curvetransfer.metrics import pearson
from curvetransfer.similarity import (
    _dtw_many,
    _mean_dtws,
    _page_aligned,
    cumulative_cost,
    dtw_distance,
    dtw_path,
    local_distance_matrix,
    rank_sources,
)

from conftest import average_dtw, brute_force_dtw, composition, euclidean_distance, list_dp_cumulative_cost

VALID_STEPS = {(1, 0), (0, 1), (1, 1)}


def pearson_similarity(a, b):
    """Sample Pearson correlation of two gridded stress vectors."""
    return pearson(a, b)


def make_grid(stress):
    return np.asarray(stress, dtype=float)


class TestLocalDistanceMatrix:
    def test_identical_curves_zero_diagonal(self):
        a = make_grid([0.0, 0.3, 0.8, 1.0])
        local = local_distance_matrix(a, a)
        np.testing.assert_allclose(np.diag(local), 0.0)

    def test_direct_evaluation(self):
        local = local_distance_matrix(make_grid([0.0, 1.0]), make_grid([1.0, 0.0]))
        np.testing.assert_allclose(local, [[1.0, 0.0], [0.0, 1.0]])

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = make_grid(rng.random(6)), make_grid(rng.random(6))
        np.testing.assert_allclose(local_distance_matrix(a, b), local_distance_matrix(b, a).T)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            local_distance_matrix(make_grid([0.0, 1.0]), make_grid([0.0, 0.5, 1.0]))


# Small integers make many equal costs (ties); huge finite costs make sums that overflow to +inf.
cost_values = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.7e308))


@st.composite
def local_matrices(draw):
    """An (n, m) local-cost matrix, 1 <= n, m <= 30, filled by a seeded generator from a pool of up to 16 costs."""
    pool = np.array(draw(st.lists(cost_values, min_size=1, max_size=16)))
    shape = (draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(pool, shape)


class TestCumulativeCost:
    @settings(max_examples=300, deadline=None)
    @given(local_matrices())
    def test_sweep_is_list_dp_bitwise(self, local):
        expected = list_dp_cumulative_cost(local)
        with np.errstate(over="ignore"):
            got = cumulative_cost(local)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert dtw_path(got) == dtw_path(expected)

    def test_zero_propagation(self):
        np.testing.assert_allclose(cumulative_cost(np.zeros((4, 4))), 0.0)

    def test_hand_recurrence(self):
        # Verified against exhaustive path enumeration below.
        np.testing.assert_allclose(
            cumulative_cost(np.array([[1.0, 0.0], [0.0, 1.0]])), [[1.0, 1.0], [1.0, 2.0]]
        )

    def test_single_cell(self):
        np.testing.assert_allclose(cumulative_cost(np.array([[3.5]])), [[3.5]])

    def test_first_row_and_column_are_running_sums(self):
        rng = np.random.default_rng(2)
        local = rng.random((5, 7))
        cum = cumulative_cost(local)
        np.testing.assert_allclose(cum[0, :], np.cumsum(local[0, :]))
        np.testing.assert_allclose(cum[:, 0], np.cumsum(local[:, 0]))


class TestDtwDistance:
    def test_identical_curves(self):
        a = make_grid([0.0, 0.4, 0.9, 1.0, 0.8])
        assert dtw_distance(a, a) == 0.0
        assert dtw_path(cumulative_cost(local_distance_matrix(a, a))) == [(i, i) for i in range(5)]

    def test_stretched_plateau_zero_distance(self):
        # Every point finds an equal-valued match across the stretched plateau.
        a = make_grid([0.0, 1.0, 1.0, 0.0])
        b = make_grid([0.0, 1.0, 0.0, 0.0])
        assert dtw_distance(a, b) == 0.0
        assert brute_force_dtw(a, b) == 0.0

    def test_opposite_two_point_curves(self):
        a, b = make_grid([0.0, 1.0]), make_grid([1.0, 0.0])
        assert dtw_distance(a, b) == 2.0
        assert brute_force_dtw([0.0, 1.0], [1.0, 0.0]) == 2.0

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            k = int(rng.integers(2, 9))
            l = int(rng.integers(2, 9))
            a, b = make_grid(rng.random(k)), make_grid(rng.random(l))
            oracle = brute_force_dtw(a, b)
            local = local_distance_matrix_pairable(a, b)
            assert abs(float(cumulative_cost(local)[-1, -1]) - oracle) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = make_grid(rng.random(30)), make_grid(rng.random(30))
            assert abs(dtw_distance(a, b) - dtw_distance(b, a)) < 1e-12

    def test_never_exceeds_euclidean(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = make_grid(rng.random(40)), make_grid(rng.random(40))
            assert dtw_distance(a, b) <= euclidean_distance(a, b) + 1e-12

    def test_path_validity_and_cost_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b = make_grid(rng.random(25)), make_grid(rng.random(25))
            local = local_distance_matrix(a, b)
            path = dtw_path(cumulative_cost(local))
            assert path[0] == (0, 0)
            assert path[-1] == (24, 24)
            steps = {
                (k2 - k1, l2 - l1)
                for (k1, l1), (k2, l2) in zip(path, path[1:])
            }
            assert steps <= VALID_STEPS
            path_cost = sum(local[k, l] for k, l in path)
            assert abs(path_cost - dtw_distance(a, b)) < 1e-12


@st.composite
def gridded_pairs(draw):
    n = draw(st.integers(2, 30))
    values = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    return make_grid(draw(values)), make_grid(draw(values))


class TestDistanceOnlyFastPath:
    @settings(max_examples=200, deadline=None)
    @given(gridded_pairs())
    def test_distance_is_list_dp_corner_bitwise(self, pair):
        a, b = pair
        distance = dtw_distance(a, b)
        assert type(distance) is float
        assert distance == float(list_dp_cumulative_cost(local_distance_matrix(a, b))[-1, -1])

    def test_first_cell_squares_like_the_dp(self):
        # Squared through libm's pow (``** 2`` on a numpy scalar), this
        # difference rounds one ulp away from np.square's exact product.
        a, b = np.array([0.0, 0.0]), np.array([0.42672114373024106, 0.0])
        corner = float(list_dp_cumulative_cost(local_distance_matrix(a, b))[-1, -1])
        assert corner == 0.18209093450644503
        assert dtw_distance(a, b) == corner

    @settings(max_examples=200, deadline=None)
    @given(gridded_pairs())
    def test_path_is_valid_and_realizes_distance(self, pair):
        a, b = pair
        n = len(a)
        local = local_distance_matrix(a, b)
        path = dtw_path(cumulative_cost(local))
        assert path[0] == (0, 0) and path[-1] == (n - 1, n - 1)
        assert {(k2 - k1, l2 - l1) for (k1, l1), (k2, l2) in zip(path, path[1:])} <= VALID_STEPS
        assert abs(sum(local[k, l] for k, l in path) - dtw_distance(a, b)) <= 1e-12


# Either any finite floats, or small integers, which make many equal costs (ties).
stress_values = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 3).map(float),
])


@st.composite
def stress_columns(draw):
    """Two (N, P) stress stacks whose columns are paired for the all-pairs kernel.

    Cells are drawn from a pool of up to 16 values by a seeded generator: drawing
    thousands of cells one by one would make each example slow.
    """
    pool = np.array(draw(st.lists(draw(stress_values), min_size=1, max_size=16)))
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(pool, shape), rng.choice(pool, shape)


@st.composite
def curve_lists(draw):
    """1-5 source lists and one target list of equal-length grid curves, 1-4 curves each."""
    elements = draw(stress_values)
    n = draw(st.integers(1, 30))
    curves = st.lists(arrays(float, n, elements=elements).map(make_grid), min_size=1, max_size=4)
    return draw(st.lists(curves, min_size=1, max_size=5)), draw(curves)


def oracle_means(sources, target):
    """The per-source ranking path before the one-sweep kernel: per source, one loop over
    the list DP's corners, summed in (source curve, target curve) order."""
    means = []
    for source in sources:
        total = 0.0
        for s in source:
            for t in target:
                total += float(list_dp_cumulative_cost(local_distance_matrix(s, t))[-1, -1])
        means.append(total / (len(source) * len(target)))
    return means


class TestAllPairsKernel:
    @settings(max_examples=200, deadline=None)
    @given(stress_columns())
    def test_each_pair_is_list_dp_corner_bitwise(self, columns):
        a, b = columns
        # Squaring the difference of two huge finite floats overflows to inf in both implementations.
        with np.errstate(over="ignore"):
            got = _dtw_many(a, np.ascontiguousarray(b[::-1]))
            expected = np.array(
                [list_dp_cumulative_cost((a[:, p, None] - b[None, :, p]) ** 2)[-1, -1] for p in range(a.shape[1])]
            )
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(curve_lists())
    def test_average_is_sequential_mean_bitwise(self, lists):
        sources, target = lists
        with np.errstate(over="ignore"):
            expected = oracle_means(sources, target)
            got = _mean_dtws([np.stack(source) for source in sources], np.stack(target))
            first = average_dtw(sources[0], target)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert np.float64(first).tobytes() == np.float64(expected[0]).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 2))
    def test_average_rejects_length_mismatch(self, n, m, position):
        assume(n != m)
        target = [make_grid(np.zeros(n)) for _ in range(3)]
        target[position] = make_grid(np.zeros(m))
        with pytest.raises(ValueError, match="mismatch"):
            average_dtw([make_grid(np.zeros(n))], target)


def local_distance_matrix_pairable(a, b):
    # DTW between different-length sequences, for oracle comparisons only.
    return (a[:, None] - b[None, :]) ** 2


class TestBruteForce:
    def test_identical(self):
        assert brute_force_dtw([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]) == 0.0

    def test_single_cell(self):
        assert brute_force_dtw([0.25], [0.75]) == 0.25

    def test_length_cap(self):
        with pytest.raises(ValueError, match="intractable"):
            brute_force_dtw(list(range(11)), list(range(11)))


class TestAverageDtw:
    def test_one_source_two_targets(self):
        # distances 4 and 2 by construction: mean must be 3
        s = make_grid([0.0, 0.0, 0.0, 0.0])
        t1 = make_grid([1.0, 1.0, 1.0, 1.0])
        t2 = make_grid([np.sqrt(0.5)] * 4)
        assert abs(dtw_distance(s, t1) - 4.0) < 1e-12
        assert abs(dtw_distance(s, t2) - 2.0) < 1e-12
        assert abs(average_dtw([s], [t1, t2]) - 3.0) < 1e-12

    def test_identical_lists_zero(self):
        c = make_grid([0.0, 0.5, 1.0])
        assert average_dtw([c, c], [c, c]) == 0.0

    def test_mean_over_all_pairs(self):
        rng = np.random.default_rng(8)
        sources = [make_grid(rng.random(15)) for _ in range(2)]
        targets = [make_grid(rng.random(15)) for _ in range(2)]
        expected = np.mean(
            [dtw_distance(s, t) for s in sources for t in targets]
        )
        assert abs(average_dtw(sources, targets) - expected) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            average_dtw([], [make_grid([0.0, 1.0])])


def _shape_dataset(name, stress_fn, n_curves=3, points=30):
    curves = []
    for i in range(n_curves):
        strain = np.linspace(0.0, 0.1, points)
        stress = stress_fn(np.linspace(0.0, 1.0, points)) * (90.0 + 5 * i) + 1e-3
        curves.append(RawCurve(str(i + 1), strain, stress, {"p": float(i)}))
    return Dataset(name, "source", [ParamField("p")], curves)


class TestRankSources:
    def target_curves(self):
        strain = np.linspace(0.0, 0.05, 30)
        u = np.linspace(0.0, 1.0, 30)
        return [RawCurve("t1", strain, 400.0 * u**0.5 + 1e-3, {"q": 0.0})]

    def test_orders_by_distance_and_selects_min(self):
        close = _shape_dataset("close", lambda u: u**0.5)
        mid = _shape_dataset("mid", lambda u: u)
        far = _shape_dataset("far", lambda u: 1.0 - u)
        ranking = rank_sources([mid, far, close], self.target_curves(), 60)
        assert [name for name, _ in ranking.entries] == ["close", "mid", "far"]
        assert ranking.selected == "close"
        distances = [d for _, d in ranking.entries]
        assert distances == sorted(distances)

    def test_tie_broken_lexicographically(self):
        a = _shape_dataset("beta", lambda u: u)
        b = _shape_dataset("alpha", lambda u: u)
        ranking = rank_sources([a, b], self.target_curves(), 40)
        assert ranking.entries[0][0] == "alpha"
        assert abs(ranking.entries[0][1] - ranking.entries[1][1]) < 1e-15

    def test_input_order_invariance(self):
        sets = [
            _shape_dataset("a", lambda u: u),
            _shape_dataset("b", lambda u: u**2),
            _shape_dataset("c", lambda u: u**0.3),
        ]
        r1 = rank_sources(sets, self.target_curves(), 40)
        r2 = rank_sources(list(reversed(sets)), self.target_curves(), 40)
        assert r1.entries == r2.entries
        assert r1.selected == r2.selected


def oracle_rank_sources(sources, target_train, n):
    means = oracle_means([[composition(c, n) for c in ds.curves] for ds in sources],
                         [composition(c, n) for c in target_train])
    return sorted(zip([ds.name for ds in sources], means), key=lambda e: (e[1], e[0]))


def entry_bytes(entries):
    return [(name, np.float64(d).tobytes()) for name, d in entries]


@st.composite
def raw_curve(draw, sample_id):
    """A raw curve of 2-12 points with increasing strain and a positive peak stress."""
    size = draw(st.integers(2, 12))
    strain = np.cumsum(draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size)))
    values = draw(st.sampled_from([st.floats(0.0, 1e3), st.integers(0, 3).map(float)]))
    stress = draw(st.lists(values, min_size=size, max_size=size))
    stress[draw(st.integers(0, size - 1))] = draw(st.floats(1.0, 1e3))
    return RawCurve(sample_id, strain, np.array(stress))


@st.composite
def ranking_inputs(draw):
    """1-5 source datasets of 1-4 curves each, optionally one renamed copy (a tie), and 1-3 target curves."""
    sources = []
    for i in range(draw(st.integers(1, 5))):
        curves = [draw(raw_curve(str(j))) for j in range(draw(st.integers(1, 4)))]
        sources.append(Dataset(f"src{i}", "source", [], curves))
    if draw(st.booleans()):
        copied = draw(st.sampled_from(sources))
        sources.insert(draw(st.integers(0, len(sources))), Dataset("dup", "source", [], copied.curves))
    target = [draw(raw_curve(f"t{j}")) for j in range(draw(st.integers(1, 3)))]
    return sources, target, draw(st.integers(2, 30))


class TestOneSweepRankingOracle:
    @settings(max_examples=100, deadline=None)
    @given(ranking_inputs())
    def test_entries_equal_per_source_oracle_bitwise(self, inputs):
        sources, target, n = inputs
        ranking = rank_sources(sources, target, n)
        expected = oracle_rank_sources(sources, target, n)
        assert entry_bytes(ranking.entries) == entry_bytes(expected)
        assert ranking.selected == expected[0][0]

    @settings(max_examples=50, deadline=None)
    @given(ranking_inputs(), st.randoms(use_true_random=False))
    def test_unsorted_raw_curves_equal_oracle_bitwise(self, inputs, random):
        # A curve of 3+ points gets a repeated strain and the shuffle unsorts most others.
        # rank_sources takes them cleaned, as load_dataset returns them; the oracle cleans
        # the raw shuffled curves itself.
        sources, target, n = inputs

        def shuffled(curve):
            order = list(range(len(curve.strain)))
            random.shuffle(order)
            strain = curve.strain[order]
            if len(order) > 2:
                strain[order.index(1)] = curve.strain[0]
            return RawCurve(curve.sample_id, strain, curve.stress[order])

        sources = [Dataset(ds.name, "source", [], [shuffled(c) for c in ds.curves]) for ds in sources]
        target = [shuffled(c) for c in target]
        cleaned = [Dataset(ds.name, "source", [], [validate_curve(c) for c in ds.curves]) for ds in sources]
        ranking = rank_sources(cleaned, [validate_curve(c) for c in target], n)
        expected = oracle_rank_sources(sources, target, n)
        assert entry_bytes(ranking.entries) == entry_bytes(expected)
        assert ranking.selected == expected[0][0]

    @pytest.mark.parametrize("n", [2.5, "7", None, True])
    def test_non_int_grid_size_rejected(self, n):
        source = Dataset("s", "source", [], [RawCurve("1", np.array([0.0, 1.0]), np.array([0.0, 1.0]))])
        with pytest.raises(DataValidationError, match="grid size must be"):
            rank_sources([source], source.curves, n)

    def test_length_mismatch_raises_before_any_sweep(self, monkeypatch):
        def sweep(*args):
            raise AssertionError("swept before the length check")
        monkeypatch.setattr("curvetransfer.similarity._dtw_many", sweep)
        with pytest.raises(ValueError, match="grid length mismatch: 4 vs 3"):
            _mean_dtws([np.zeros((1, 3)), np.zeros((1, 4))], np.zeros((1, 3)))


class TestPageAlignedSweepArrays:
    """The sweep's arrays start on a 4 KiB page wherever the heap stands, so no store splits a cache line."""

    # A rank op's stacks, a pair count that is not a multiple of 8, a 1-D
    # pair with its diagonals, and a rank op's square with its three diagonals.
    @pytest.mark.parametrize(
        "shapes", [[(120, 200)], [(7, 75)], [(120,), (3, 121)], [(120, 200), (3, 121, 200)], [(7, 75), (7, 75)]]
    )
    def test_helper_gives_writable_float64_arrays_each_on_a_page(self, shapes):
        for k in range(4):
            spacer = np.empty(1024 + 16 * k, dtype=np.uint8)  # moves later heap allocations by 16 B
            arrays = _page_aligned(*shapes)
            del spacer
            assert [array.shape for array in arrays] == shapes
            for value, array in enumerate(arrays):
                assert (array.dtype, array.ctypes.data % 4096) == (np.float64, 0)
                assert array.flags.writeable and array.flags.c_contiguous
                array[...] = value
            assert all((array == value).all() for value, array in enumerate(arrays))

    @pytest.mark.parametrize("counts, n_targets, n", [([50, 50], 2, 120), ([3, 1, 5], 7, 11), ([1], 1, 1)])
    def test_mean_dtws_builds_the_repeat_and_tile_stacks_on_pages(self, monkeypatch, counts, n_targets, n):
        rng = np.random.default_rng(len(counts))
        sources = [rng.normal(size=(count, n)) for count in counts]
        target = rng.normal(size=(n_targets, n))
        built = []

        def capture(a, b_rev):
            built.append((a, b_rev))
            return np.zeros(a.shape[1])

        monkeypatch.setattr("curvetransfer.similarity._dtw_many", capture)
        _mean_dtws(sources, target)
        (a, b_rev), = built
        assert a.ctypes.data % 4096 == 0 and b_rev.ctypes.data % 4096 == 0
        assert a.tobytes() == np.repeat(np.concatenate(sources).T, n_targets, axis=1).tobytes()
        assert b_rev.tobytes() == np.tile(target[:, ::-1].T, (1, sum(counts))).tobytes()
        assert a.shape == b_rev.shape == (n, sum(counts) * n_targets)


class TestBaselines:
    def test_euclidean_identical(self):
        c = make_grid([0.0, 0.5, 1.0])
        assert euclidean_distance(c, c) == 0.0

    def test_euclidean_opposite(self):
        assert euclidean_distance(make_grid([0.0, 1.0]), make_grid([1.0, 0.0])) == 2.0

    def test_pearson_self(self):
        c = make_grid([0.0, 0.2, 0.9, 1.0])
        assert abs(pearson_similarity(c, c) - 1.0) < 1e-12

    def test_pearson_reflected(self):
        a = make_grid([0.0, 0.2, 0.9, 1.0])
        b = make_grid(1.0 - a)
        assert abs(pearson_similarity(a, b) + 1.0) < 1e-12

    def test_pearson_constant_rejected(self):
        a = make_grid([0.0, 0.5, 1.0])
        b = make_grid([0.4, 0.4, 0.4])
        with pytest.raises(ValueError, match="zero variance"):
            pearson_similarity(a, b)
