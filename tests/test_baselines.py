import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emco import baselines
from emco.vectorize import CsrRows, SparseVector, to_csr, to_dense


def sv(*dense):
    return SparseVector.from_dense(np.asarray(dense, dtype=float))


class TestNeighborIndex:
    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        points = rng.random((60, 7))
        index = baselines.NeighborIndex(points)
        for i in range(0, 60, 7):
            got = index.query(points[i], 5, exclude=i)
            dists = np.linalg.norm(points - points[i], axis=1)
            dists[i] = np.inf
            want = np.argsort(dists, kind="stable")[:5]
            assert np.array_equal(got, want)

    def test_tie_break_prefers_lower_index(self):
        # three reference points at identical distance from the origin
        points = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        index = baselines.NeighborIndex(points)
        assert list(index.query(np.zeros(2), 2)) == [0, 1]

    def test_csr_rows_index_as_their_dense_array(self):
        rng = np.random.default_rng(1)
        points = np.where(rng.random((40, 9)) < 0.4, rng.normal(size=(40, 9)), 0.0)
        dense = baselines.NeighborIndex(points)
        sparse = baselines.NeighborIndex(to_csr([SparseVector.from_dense(p) for p in points]), 9)
        for i in range(40):
            assert np.array_equal(sparse.query(points[i], 6, exclude=i), dense.query(points[i], 6, exclude=i))

    def test_excluded_row_is_never_returned(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        index = baselines.NeighborIndex(points)
        assert list(index.query(points[1], 5, exclude=1)) == [0, 2]
        assert list(index.query(points[1], 5, exclude=-1)) == [1, 0]

    def test_disjoint_unit_rows_order_as_the_literal_scan(self):
        # unit rows with disjoint supports, as tf-idf rows often are: every
        # distance is sqrt(2) up to rounding, and the Gram formula reads each
        # as exactly 2. Only the relative slack keeps the exact order's rows.
        supports = [
            {0: 1, 2: 1}, {5: 1}, {6: 4, 7: 3, 8: 3}, {9: 5, 10: 2, 11: 3}, {14: 1},
            {15: 1, 16: 3, 17: 2}, {18: 1, 19: 1},
        ]
        points = np.zeros((len(supports), 21))
        for row, weights in zip(points, supports):
            values = np.array(list(weights.values()), dtype=float)
            row[list(weights)] = values / np.sqrt(np.sum(values * values))
        index = baselines.NeighborIndex(points)
        for i in range(len(points)):
            assert np.array_equal(index.query(points[i], 2, exclude=i), nearest(points, i, 2))

    def test_subnormal_squares_order_as_the_literal_scan(self):
        # squares near 1e-322 keep a few bits, so the two formulas round apart:
        # from row 0, the Gram formula puts row 7 before row 2 and the exact scan
        # puts row 2 first. Only the absolute slack keeps row 2 a candidate.
        points = 1e-161 * np.array([
            [2, 1], [2, -2], [0, 1], [0, 1], [3, 1.5], [-1, -3], [-2, -1], [2, -1], [2, -1],
        ])
        index = baselines.NeighborIndex(points)
        for i in range(len(points)):
            assert np.array_equal(index.query(points[i], 2, exclude=i), nearest(points, i, 2))

    def test_rows_whose_squared_norms_overflow_order_as_the_literal_scan(self):
        # each squared norm is inf, so the Gram formula reads nan; the rows'
        # differences stay small and their exact distances finite
        points = np.array([[1e154, 1e154 + i * j * 1e140] for i in range(4) for j in (1, -1)])
        assert np.isfinite(np.linalg.norm(points - points[0], axis=1)).all()
        index = baselines.NeighborIndex(points)
        for i in range(len(points)):
            assert np.array_equal(index.query(points[i], 3, exclude=i), nearest(points, i, 3))

    @pytest.mark.parametrize("points", [np.zeros(3), np.zeros((2, 2, 2))])
    def test_points_that_are_not_two_dimensional_rejected(self, points):
        with pytest.raises(ValueError, match=r"points must be two-dimensional, got shape \("):
            baselines.NeighborIndex(points)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        points = np.array([[1.0, 0.0], [0.0, bad]])
        message = f"feature values must be finite, got {bad:g}"
        with pytest.raises(ValueError, match=message):
            baselines.NeighborIndex(points)
        with pytest.raises(ValueError, match=message):
            baselines.NeighborIndex(to_csr([sv(1, 0), SparseVector(((1, bad),))]), 2)
        with pytest.raises(ValueError, match=message):
            baselines.NeighborIndex(np.eye(2)).query(np.array([bad, 0.0]), 1)

    def test_sparse_rows_without_n_features_rejected(self):
        with pytest.raises(ValueError, match=r"^n_features must be given for sparse rows$"):
            baselines.NeighborIndex(to_csr([sv(1, 0), sv(0, 1)]))

    def test_column_outside_n_features_rejected(self):
        rows = to_csr([sv(1, 0), SparseVector(((2, 1.0),))])
        with pytest.raises(ValueError, match=r"^feature index 2 is out of range for 2 features$"):
            baselines.NeighborIndex(rows, 2)

    @pytest.mark.parametrize("target", [np.ones(2), np.ones(4), np.ones((1, 3)), np.float64(1)])
    def test_target_of_another_shape_rejected(self, target):
        message = f"target must have shape (3,), got {np.shape(target)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            baselines.NeighborIndex(np.eye(3)).query(target, 2)

    def test_columns_are_the_transposed_rows(self):
        rows = random_sparse(np.random.default_rng(5), 12, 9)
        index = baselines.NeighborIndex(to_csr(rows), 9)
        assert np.array_equal(to_dense(index._columns, 12), to_dense(rows, 9).T)

    @pytest.mark.parametrize("k", [0, 1, 3, 7, 8, 20])
    @pytest.mark.parametrize("exclude", [False, True])
    def test_nearest_returns_the_k_nearest_rows_left(self, k, exclude):
        # grid points: many distances tie, and ties go to the lower index
        points = np.random.default_rng(6).integers(0, 3, (8, 3)).astype(float)
        queries = np.arange(5)
        got = baselines.NeighborIndex(points).nearest(
            CsrRows.from_dense(points[queries]), k, queries if exclude else None
        )
        assert len(got) == len(queries)
        for q, order in zip(queries, got):
            left = np.array([r for r in range(8) if not (exclude and r == q)])
            dists = np.linalg.norm(points[left] - points[q], axis=1)
            want = left[np.argsort(dists, kind="stable")][:k]  # every row left when k >= 8
            assert len(order) == min(k, len(left)) and order.tolist() == want.tolist()


class TestRos:
    def test_copies_are_members(self):
        minority = [sv(1, 0), sv(0, 1), sv(1, 1)]
        rng = np.random.default_rng(2)
        out = baselines.ros(minority, 25, rng)
        assert len(out) == 25
        assert all(v in minority for v in out)

    def test_empty_minority_rejected(self):
        with pytest.raises(ValueError):
            baselines.ros([], 1, np.random.default_rng(0))

    def test_all_members_eventually_drawn(self):
        minority = [sv(float(i)) for i in range(4)]
        out = baselines.ros(minority, 200, np.random.default_rng(3))
        assert set(out) == set(minority)


@pytest.mark.parametrize("oversample", [
    lambda minority, count, rng: baselines.ros(minority, count, rng),
    lambda minority, count, rng: baselines.smote(minority, count, 1, rng, 2),
    lambda minority, count, rng: baselines.adasyn(
        minority, [sv(5, 5)], count, 1, rng, 2
    ),
], ids=["ros", "smote", "adasyn"])
def test_negative_count_rejected(oversample):
    minority = [sv(1, 0), sv(0, 1), sv(1, 1)]
    with pytest.raises(ValueError) as exc:
        oversample(minority, -1, np.random.default_rng(0))
    assert str(exc.value) == "count must be >= 0, got -1"


# each entry point of the neighbor search, and the position of a bad row in its input
BAD_ROW_AT = pytest.mark.parametrize("oversample, position", [
    (lambda rows, rng: baselines.smote(rows[:3], 1, 2, rng, 2), 2),
    (lambda rows, rng: baselines.adasyn(rows[:3], rows[3:], 1, 2, rng, 2), 2),
    (lambda rows, rng: baselines.adasyn(rows[:3], rows[3:], 1, 2, rng, 2), 4),
], ids=["smote", "adasyn-minority", "adasyn-majority"])


@BAD_ROW_AT
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_value_rejected(oversample, position, bad):
    rows = [sv(1, 0), sv(0, 1), sv(1, 1), sv(5, 5), sv(4, 0)]
    rows[position] = sv(bad, 1)
    with pytest.raises(ValueError, match=f"feature values must be finite, got {bad:g}"):
        oversample(rows, np.random.default_rng(0))


@BAD_ROW_AT
def test_column_outside_n_features_rejected(oversample, position):
    rows = [sv(1, 0), sv(0, 1), sv(1, 1), sv(5, 5), sv(4, 0)]
    rows[position] = SparseVector(((2, 1.0),))
    with pytest.raises(ValueError, match=r"^feature index 2 is out of range for 2 features$"):
        oversample(rows, np.random.default_rng(0))


@pytest.mark.parametrize("oversample", [
    lambda minority, rng: baselines.smote(minority, 1, 2, rng, None),
    lambda minority, rng: baselines.adasyn(minority, [sv(5, 5)], 1, 2, rng, None),
], ids=["smote", "adasyn"])
def test_missing_n_features_rejected(oversample):
    minority = [sv(1, 0), sv(0, 1), sv(1, 1)]
    with pytest.raises(ValueError, match=r"^n_features must be given for sparse rows$"):
        oversample(minority, np.random.default_rng(0))


@pytest.mark.parametrize("oversample", [
    lambda rows, rng: baselines.smote(rows[:20], 30, 3, rng, 16),
    lambda rows, rng: baselines.adasyn(rows[:8], rows[8:], 30, 3, rng, 16),
], ids=["smote", "adasyn"])
def test_dense_copies_are_bounded_by_a_block(oversample, monkeypatch):
    # a block holds a few of the 20 reference rows: each dense copy holds at
    # most one chunk of rows, never all of them
    calls = []

    def counted(vectors, n_features):
        calls.append(len(vectors))
        return to_dense(vectors, n_features)

    monkeypatch.setattr(baselines, "_BLOCK_WORK", 64)
    monkeypatch.setattr(baselines, "to_dense", counted)
    rows = random_sparse(np.random.default_rng(3), 20, 16)
    got = oversample(rows, np.random.default_rng(0))
    assert calls and max(calls) <= 64 // 16 < 20
    monkeypatch.undo()
    assert list(got) == list(oversample(rows, np.random.default_rng(0)))


class TestSmote:
    def test_points_lie_on_neighbor_segments(self):
        rng = np.random.default_rng(5)
        minority = [SparseVector.from_dense(rng.random(6)) for _ in range(10)]
        dense = to_dense(minority, 6)
        out = baselines.smote(minority, 300, k=3, rng=np.random.default_rng(9), n_features=6)
        for vec in out:
            x = vec.to_dense(6)
            on_some_segment = False
            for i in range(10):
                for j in range(10):
                    if i == j:
                        continue
                    d = dense[j] - dense[i]
                    denom = float(d @ d)
                    if denom == 0:
                        continue
                    u = float((x - dense[i]) @ d) / denom
                    if -1e-9 <= u <= 1 + 1e-9 and np.allclose(x, dense[i] + u * d, atol=1e-9):
                        on_some_segment = True
                        break
                if on_some_segment:
                    break
            assert on_some_segment

    def test_base_points_cycle_in_order(self):
        # with collinear inputs the base point is recoverable only via cycling:
        # force u=0 regions by checking counts across a big sample is fragile,
        # so instead use two distant clusters where each point's only neighbor
        # is its clustermate and outputs alternate between the two segments.
        minority = [sv(0, 0), sv(100, 100)]
        out = baselines.smote(minority, 6, k=5, rng=np.random.default_rng(1), n_features=2)
        for j, vec in enumerate(out):
            x = vec.to_dense(2)
            base = np.zeros(2) if j % 2 == 0 else np.array([100.0, 100.0])
            # both points interpolate along the same diagonal segment
            assert x[0] == pytest.approx(x[1])
            assert 0 - 1e-9 <= x[0] <= 100 + 1e-9
            u = abs(x[0] - base[0]) / 100
            assert 0 - 1e-9 <= u <= 1 + 1e-9

    def test_k_capped_at_n_minus_one(self):
        minority = [sv(0.0), sv(1.0)]
        out = baselines.smote(minority, 10, k=5, rng=np.random.default_rng(4), n_features=1)
        for vec in out:
            x = vec.to_dense(1)[0]
            assert -1e-9 <= x <= 1 + 1e-9

    def test_too_few_minority_rejected(self):
        with pytest.raises(ValueError):
            baselines.smote([sv(1.0)], 5, k=5, rng=np.random.default_rng(0), n_features=1)

    def test_no_renormalization(self):
        # unit vectors along different axes interpolate to sub-unit norm
        minority = [sv(1, 0), sv(0, 1)]
        out = baselines.smote(minority, 50, k=1, rng=np.random.default_rng(8), n_features=2)
        norms = [np.linalg.norm(v.to_dense(2)) for v in out]
        assert min(norms) < 0.999


class TestLargestRemainder:
    def test_hand_case(self):
        got = baselines.largest_remainder(np.array([0.5, 0.3, 0.2]), 7)
        assert list(got) == [4, 2, 1]

    def test_tie_goes_to_lower_index(self):
        got = baselines.largest_remainder(np.array([1.0, 1.0]), 3)
        assert list(got) == [2, 1]

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            baselines.largest_remainder(np.zeros(3), 5)

    @given(
        st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=1, max_size=12),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=100)
    def test_sums_exactly_and_stays_near_quota(self, weights, total):
        weights = np.asarray(weights)
        if weights.sum() <= 0:
            weights = weights + 1
        got = baselines.largest_remainder(weights, total)
        assert int(got.sum()) == total
        quotas = total * weights / weights.sum()
        assert np.all(got >= np.floor(quotas)) and np.all(got <= np.ceil(quotas))


class TestAdasyn:
    def test_budget_sums_exactly(self):
        rng = np.random.default_rng(10)
        minority = [SparseVector.from_dense(rng.random(4)) for _ in range(6)]
        majority = [SparseVector.from_dense(rng.random(4) + 2) for _ in range(30)]
        out = baselines.adasyn(minority, majority, 37, k=5,
                               rng=np.random.default_rng(11), n_features=4)
        assert len(out) == 37

    def test_borderline_points_get_more_budget(self):
        # one minority point sits inside the majority cloud, the rest far away
        far = [sv(0, 0), sv(0.1, 0), sv(0, 0.1), sv(0.1, 0.1)]
        borderline = [sv(10, 10)]
        minority = far + borderline
        majority = [sv(10 + dx / 10, 10 + dy / 10) for dx in range(3) for dy in range(3)]
        out = baselines.adasyn(minority, majority, 50, k=4,
                               rng=np.random.default_rng(12), n_features=2)
        # points built from a far base stay inside the tiny far cluster, so
        # anything outside it was allotted to the borderline point
        from_borderline = sum(1 for v in out if np.linalg.norm(v.to_dense(2)) > 1)
        assert from_borderline > 40

    def test_uniform_fallback_when_no_majority_neighbors(self):
        # majority placed far away so every r_i is 0 -> budget split evenly
        minority = [sv(0, 0), sv(0, 1), sv(1, 0), sv(1, 1)]
        majority = [sv(500, 500)] * 2
        out = baselines.adasyn(minority, majority, 8, k=3,
                               rng=np.random.default_rng(13), n_features=2)
        assert len(out) == 8
        for vec in out:
            x = vec.to_dense(2)
            assert np.all(x >= -1e-9) and np.all(x <= 1 + 1e-9)

    def test_interpolation_stays_among_minority(self):
        minority = [sv(0, 0), sv(1, 0), sv(0, 1)]
        majority = [sv(50, 50)] * 5
        out = baselines.adasyn(minority, majority, 30, k=2,
                               rng=np.random.default_rng(14), n_features=2)
        for vec in out:
            x = vec.to_dense(2)
            # the minority triangle is contained in the unit square; the
            # majority cluster is far outside it
            assert np.all(x <= 1 + 1e-9)

    def test_too_few_minority_rejected(self):
        with pytest.raises(ValueError):
            baselines.adasyn([sv(1.0)], [sv(0.0)], 5, k=5,
                             rng=np.random.default_rng(0), n_features=1)


# Reference: smote and adasyn on dense rows, with neighbors from a literal
# distance scan. The arithmetic per coordinate is the same, so the sparse path
# must match exactly.
def nearest(points, i, k):
    dists = np.linalg.norm(points - points[i], axis=1)
    dists[i] = np.inf
    return np.argsort(dists, kind="stable")[:k]


def dense_smote(minority, count, k, rng, n_features):
    n = len(minority)
    k_eff = min(k, n - 1)
    points = to_dense(minority, n_features)
    neighbors = [nearest(points, i, k_eff) for i in range(n)]
    out = np.empty((count, n_features))
    for j in range(count):
        i = j % n
        nn = int(neighbors[i][int(rng.integers(k_eff))])
        u = rng.random()
        out[j] = points[i] + u * (points[nn] - points[i])
    return [SparseVector.from_dense(row) for row in out]


def dense_adasyn(minority, majority, count, k, rng, n_features):
    n = len(minority)
    min_points = to_dense(minority, n_features)
    all_points = np.vstack([min_points, to_dense(majority, n_features)])
    k_all = min(k, len(all_points) - 1)
    ratios = np.array([np.count_nonzero(nearest(all_points, i, k_all) >= n) / k_all
                       for i in range(n)])
    weights = ratios if ratios.sum() > 0 else np.ones(n)
    allot = baselines.largest_remainder(weights, count)
    k_min = min(k, n - 1)
    neighbors = [nearest(min_points, i, k_min) for i in range(n)]
    out = np.empty((count, n_features))
    pos = 0
    for i in range(n):
        for _ in range(int(allot[i])):
            nn = int(neighbors[i][int(rng.integers(k_min))])
            u = rng.random()
            out[pos] = min_points[i] + u * (min_points[nn] - min_points[i])
            pos += 1
    return [SparseVector.from_dense(row) for row in out]


class HalfStep:
    """Generator stand-in whose uniform draws are all 0.5, so that opposite
    coordinates cancel to exactly 0."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self):
        return 0.5


def random_sparse(rng, n, d):
    vectors = []
    for _ in range(n):
        dense = np.where(rng.random(d) < 0.3, rng.normal(size=d), 0.0)
        vectors.append(SparseVector.from_dense(dense))
    vectors[0] = SparseVector(())  # an empty document vector
    vectors[-1] = SparseVector(tuple((i, -v) for i, v in vectors[1].entries))
    return vectors


def disjoint_units(rng, n_min, n_maj):
    """Minority and majority unit vectors with disjoint supports, each one
    entry of +-1 or four of +-0.5: any two lie exactly sqrt(2) apart, so
    every neighbor order is decided by the lower-index tie rule."""
    n = n_min + n_maj
    columns = rng.permutation(4 * n)
    vectors = []
    for i in range(n):
        size = int(rng.choice([1, 4]))
        support = sorted(int(c) for c in columns[4 * i : 4 * i + size])
        signs = rng.choice([-1.0, 1.0], size=size)
        vectors.append(SparseVector(tuple(
            (col, sign / size ** 0.5) for col, sign in zip(support, signs)
        )))
    return vectors[:n_min], vectors[n_min:], 4 * n


class TestSparseInterpolation:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("make_rng", [np.random.default_rng, HalfStep])
    def test_smote_matches_dense_loop(self, seed, make_rng):
        rng = np.random.default_rng(seed)
        minority = random_sparse(rng, int(rng.integers(3, 9)), 10)
        count = int(rng.integers(0, 40))
        got = baselines.smote(minority, count, 3, make_rng(seed + 100), 10)
        want = dense_smote(minority, count, 3, make_rng(seed + 100), 10)
        assert list(got) == want

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("make_rng", [np.random.default_rng, HalfStep])
    def test_adasyn_matches_dense_loop(self, seed, make_rng):
        rng = np.random.default_rng(seed)
        minority = random_sparse(rng, int(rng.integers(3, 9)), 10)
        majority = random_sparse(rng, int(rng.integers(3, 20)), 10)
        count = int(rng.integers(0, 40))
        got = baselines.adasyn(minority, majority, count, 4, make_rng(seed + 200), 10)
        want = dense_adasyn(minority, majority, count, 4, make_rng(seed + 200), 10)
        assert list(got) == want

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("make_rng", [np.random.default_rng, HalfStep])
    def test_ties_at_sqrt2_match_dense_loops(self, seed, make_rng):
        rng = np.random.default_rng(seed)
        minority, majority, d = disjoint_units(
            rng, int(rng.integers(3, 9)), int(rng.integers(3, 20))
        )
        count = int(rng.integers(0, 40))
        got = baselines.smote(minority, count, 3, make_rng(seed + 300), d)
        assert list(got) == dense_smote(minority, count, 3, make_rng(seed + 300), d)
        got = baselines.adasyn(minority, majority, count, 4, make_rng(seed + 400), d)
        assert list(got) == dense_adasyn(minority, majority, count, 4, make_rng(seed + 400), d)

    @pytest.mark.parametrize("seed", range(4))
    def test_csr_rows_oversample_as_their_vector_lists(self, seed):
        rng = np.random.default_rng(seed)
        minority = random_sparse(rng, 6, 10)
        majority = random_sparse(rng, 9, 10)
        rows, majority_rows = to_csr(minority), to_csr(majority)
        pairs = [
            (baselines.ros(rows, 20, np.random.default_rng(seed)),
             baselines.ros(minority, 20, np.random.default_rng(seed))),
            (baselines.smote(rows, 20, 3, np.random.default_rng(seed), 10),
             baselines.smote(minority, 20, 3, np.random.default_rng(seed), 10)),
            (baselines.adasyn(rows, majority_rows, 20, 4, np.random.default_rng(seed), 10),
             baselines.adasyn(minority, majority, 20, 4, np.random.default_rng(seed), 10)),
        ]
        for got, want in pairs:
            assert isinstance(got, CsrRows) and len(got) == 20
            assert list(got) == list(want)

    def test_cancelled_coordinates_are_dropped(self):
        minority = [sv(1, -2, 10), sv(-1, 2, 10), SparseVector(())]
        got = baselines.smote(minority, 6, 1, HalfStep(0), 3)
        assert list(got) == dense_smote(minority, 6, 1, HalfStep(0), 3)
        # 0 and 1 are each other's nearest neighbor: both midpoints keep
        # only the shared coordinate
        assert got[0] == got[1] == SparseVector(((2, 10.0),))


@st.composite
def awkward_rows(draw):
    """Minority and majority vectors with duplicate rows, empty rows, rows with
    disjoint supports (unit vectors about sqrt(2) apart, where the two distance
    formulas round differently), and rows scaled by 1e-160, 1e-161 or 1e150,
    where squares lose bits to underflow or grow huge."""
    n_min = draw(st.integers(2, 9))
    n_maj = draw(st.integers(1, 9))
    scale = draw(st.sampled_from([1.0, 1e-160, 1e-161, 1e150]))  # most rows share it
    shared = 6  # columns that random rows draw from
    fresh = iter(range(shared, shared + 4 * (n_min + n_maj)))  # one disjoint support per row
    vectors = []
    for _ in range(n_min + n_maj):
        kind = draw(st.sampled_from(["random", "duplicate", "disjoint", "empty"]))
        if kind == "duplicate" and vectors:
            vectors.append(vectors[draw(st.integers(0, len(vectors) - 1))])
            continue
        if kind == "random":
            columns = draw(st.lists(st.integers(0, shared - 1), unique=True, max_size=shared))
            values = [draw(st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0])
                           | st.floats(-4, 4).filter(lambda v: v != 0)) for _ in columns]
        elif kind == "disjoint":  # unit L2 norm, up to rounding, as tf-idf rows have
            columns = [next(fresh) for _ in range(draw(st.integers(1, 4)))]
            values = np.array([draw(st.floats(0.1, 3)) for _ in columns])
            values = list(values / np.sqrt(np.sum(values * values)))
        else:
            columns, values = [], []
        row_scale = draw(st.sampled_from([scale, scale, scale, 1.0, 1e-160, 1e-161, 1e150]))
        vectors.append(SparseVector(tuple(sorted(
            (c, v * row_scale) for c, v in zip(columns, values) if v * row_scale != 0.0
        ))))
    return vectors[:n_min], vectors[n_min:], shared + 4 * (n_min + n_maj)


@given(awkward_rows(), st.integers(1, 6), st.integers(0, 25), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_oversamplers_equal_the_literal_scan(rows, k, count, seed):
    # a block of one query row and chunks of one pair cross every boundary
    minority, majority, d = rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(baselines, "_BLOCK_WORK", 1)
        got = baselines.smote(minority, count, k, np.random.default_rng(seed), d)
        assert list(got) == dense_smote(minority, count, k, np.random.default_rng(seed), d)
        got = baselines.adasyn(minority, majority, count, k, np.random.default_rng(seed), d)
        assert list(got) == dense_adasyn(minority, majority, count, k, np.random.default_rng(seed), d)
