"""Vector-space oversampling baselines: ROS, SMOTE, and ADASYN.

These operate directly on tf-idf vectors and therefore cannot leave the
convex hull of the minority sample. Interpolated vectors are deliberately
not re-normalized to unit L2.

Each oversampler reads ``CsrRows`` or a ``SparseVector`` list and returns
``CsrRows``. SMOTE finds each minority row's nearest minority rows; ADASYN
runs the same search, and a second one over all training rows for its
density shares. ``NeighborIndex`` finds the k nearest rows in two steps. A
sparse Gram product over the transposed rows (one ``CsrRows`` row per
column) gives every squared distance as |a|^2 + |b|^2 - 2 a.b, and picks as
candidates the rows that could be among the k nearest. That formula rounds
differently from the sum of squared differences, and many tf-idf vectors
with disjoint supports lie exactly sqrt(2) apart, so it could pick another
neighbor at a tie. The candidates are therefore ordered by the exact
distance of a dense scan, on dense rows of the queries and their candidates
only, with ties going to the lower index. Interpolation needs no such care,
so it runs on the sparse entries over the union of the two supports and
gives bit-for-bit the dense result.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .vectorize import (
    CsrRows, SparseVector, check_columns, check_integer, check_real, to_csr, to_dense,
)

Rows = Sequence[SparseVector] | CsrRows

# Work of one block of the neighbor search, in float64 entries. A block of
# queries holds one Gram row per query plus one product per reference entry in
# the query's columns; one chunk of the exact step holds as many entries of
# dense difference rows. No temporary grows with the reference rows times the
# features.
_BLOCK_WORK = 1 << 17
# Each squared-distance formula errs by at most about (entries per row + log2
# of the features) units in the last place of |a|^2 + |b|^2, far below this
# relative slack for rows of up to millions of entries; the absolute floor
# covers rounding among subnormal numbers.
_RELATIVE_SLACK = 1e-9
_ABSOLUTE_SLACK = 1e-300


class NeighborIndex:
    """Exact k-nearest-neighbor search by Euclidean distance over reference
    rows, with ties going to the lower index.

    ``points`` is a dense (n, d) array, or ``CsrRows`` with their ``n_features``.
    """

    def __init__(self, points: np.ndarray | CsrRows, n_features: int | None = None):
        if not isinstance(points, CsrRows):
            points = np.asarray(points, dtype=float)
            if points.ndim != 2:
                raise ValueError(f"points must be two-dimensional, got shape {points.shape}")
            width = points.shape[1]
            if n_features not in (None, width):
                raise ValueError(f"n_features must be the dense width {width}, got {n_features!r}")
            points, n_features = CsrRows.from_dense(points), width
        if n_features is None:
            raise ValueError("n_features must be given for sparse rows")
        check_integer(n_features, "n_features")
        check_columns(points.indices, n_features)
        check_real(points.data, "feature values")
        self.rows, self.n_features = points, n_features
        self.squared_norms = points.row_sums(points.data * points.data)
        # the transposed rows: row c holds the reference rows with an entry in
        # column c. Their order within a column does not matter, as each Gram
        # entry adds its products in the query's order.
        by_column = np.argsort(points.indices)
        self._columns = CsrRows.from_entries(
            points.indices[by_column], points.entry_rows()[by_column], points.data[by_column],
            n_features,
        )
        self._column_counts = np.diff(self._columns.indptr)

    def query(self, target: np.ndarray, k: int, exclude: int | None = None) -> np.ndarray:
        """Indices of the k nearest reference points to the dense vector ``target``.

        ``exclude`` removes one reference row (the query point itself when it
        is a member of the reference set).
        """
        target = np.asarray(target, dtype=float)
        if target.shape != (self.n_features,):
            raise ValueError(f"target must have shape ({self.n_features},), got {target.shape}")
        check_real(target, "feature values")
        check_integer(k, "k")
        n, excluded = len(self.rows), None
        if exclude is not None:
            check_integer(exclude, "exclude", -n, n - 1)
            excluded = np.array([exclude % n])
        return self.nearest(CsrRows.from_dense(target[None, :]), k, excluded)[0]

    def nearest(self, queries: CsrRows, k: int, exclude: np.ndarray | None) -> list[np.ndarray]:
        """For each query row, its k nearest reference rows, nearest first, or
        every row left when fewer are.

        ``exclude`` holds one reference row per query that is never returned
        (the query itself), or is None.
        """
        if k < 1:
            return [np.empty(0, dtype=np.intp) for _ in range(len(queries))]
        work = len(self.rows) + queries.row_sums(self._column_counts[queries.indices])
        ends = np.cumsum(work)
        orders: list[np.ndarray] = []
        start = 0
        while start < len(queries):
            done = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + _BLOCK_WORK, side="right")))
            block = queries.take(np.arange(start, stop))
            keep = self._candidates(block, None if exclude is None else exclude[start:stop], k)
            at, rows = np.nonzero(keep)
            distances = self._distances(block, at, rows)
            rows = rows[np.lexsort((rows, distances, at))]  # by query, distance, row
            splits = np.cumsum(np.count_nonzero(keep, axis=1))[:-1]
            orders.extend(order[:k] for order in np.split(rows, splits))
            start = stop
        return orders

    def _candidates(self, block: CsrRows, exclude, k: int) -> np.ndarray:
        """(queries, reference rows) mask of the rows that may be among the k
        nearest."""
        n = len(self.rows)
        columns = self._columns.take(block.indices)  # one row per query entry
        counts = np.diff(columns.indptr)
        gram = np.bincount(
            np.repeat(block.entry_rows(), counts) * n + columns.indices,
            weights=np.repeat(block.data, counts) * columns.data,
            minlength=len(block) * n,
        ).reshape(len(block), n)
        with np.errstate(over="ignore", invalid="ignore"):  # handled just below
            scale = block.row_sums(block.data * block.data)[:, None] + self.squared_norms
            approx = scale - 2.0 * gram
            slack = _RELATIVE_SLACK * scale + _ABSOLUTE_SLACK
            finite = np.isfinite(approx)  # an overflow says nothing: keep the row
            lower = np.where(finite, approx - slack, -np.inf)
            upper = np.where(finite, approx + slack, np.inf)
        queries = np.arange(len(block))
        if exclude is not None:
            upper[queries, exclude] = np.inf
        kth = np.partition(upper, k - 1, axis=1)[:, k - 1 : k] if k < n else np.inf
        keep = lower <= kth
        if exclude is not None:
            keep[queries, exclude] = False
        return keep

    def _distances(self, block: CsrRows, at: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Distance from query ``at[i]`` of the block to reference row ``rows[i]``,
        as the dense scan computes it: the square root of the sum of squared
        differences over all ``n_features`` columns."""
        out = np.empty(len(rows))
        step = max(1, _BLOCK_WORK // max(self.n_features, 1))
        for s in range(0, len(rows), step):
            diff = to_dense(self.rows.take(rows[s : s + step]), self.n_features)
            queries = block.take(at[s : s + step])
            diff[queries.entry_rows(), queries.indices] -= queries.data
            out[s : s + step] = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=1))
        return out


def _minority_neighbors(name: str, minority: CsrRows, k: int, n_features: int) -> list[np.ndarray]:
    """Each minority row's k nearest other minority rows, with k capped at
    n - 1, after checking n and k."""
    n = len(minority)
    if n < 2:
        raise ValueError(f"{name} needs at least two minority vectors")
    check_integer(k, "k", 1)
    return NeighborIndex(minority, n_features).nearest(minority, min(k, n - 1), np.arange(n))


def _interpolate(minority: CsrRows, neighbors: Sequence[np.ndarray], bases, rng) -> CsrRows:
    """One synthetic row a + u (b - a) per base point a.

    The partner b is drawn uniformly from the base point's neighbors, then u
    uniformly from [0, 1). Each row holds the union of the two supports, in
    column order; coordinates that come out exactly zero are dropped.
    """
    partners, u = [], []
    for i in bases:
        partners.append(neighbors[i][int(rng.integers(len(neighbors[i])))])
        u.append(rng.random())
    a, b = minority.take(bases), minority.take(partners)
    width = int(minority.indices.max(initial=0)) + 1
    # one key per (synthetic row, column) of a or b; the union is their sorted set
    keys = [rows.entry_rows() * width + rows.indices for rows in (a, b)]
    union, slots = np.unique(np.concatenate(keys), return_inverse=True)
    x, y = np.zeros(len(union)), np.zeros(len(union))
    x[slots[: len(a.data)]], y[slots[len(a.data) :]] = a.data, b.data
    rows, columns = np.divmod(union, width)
    values = x + np.array(u)[rows] * (y - x)
    kept = values != 0.0
    return CsrRows.from_entries(rows[kept], columns[kept], values[kept], len(u))


def ros(minority: Rows, count: int, rng: np.random.Generator) -> CsrRows:
    """Random oversampling: uniform draws of whole rows, with replacement."""
    check_integer(count, "count")
    minority = to_csr(minority)
    if not len(minority):
        raise ValueError("minority set is empty")
    return minority.take(rng.integers(0, len(minority), size=count))


def smote(
    minority: Rows, count: int, k: int, rng: np.random.Generator, n_features: int
) -> CsrRows:
    """Synthetic rows as random convex combinations of neighbor pairs.

    Base points are cycled in order; the partner is drawn uniformly from the
    base point's k nearest minority neighbors (capped at n-1 when the
    minority sample is small).
    """
    check_integer(count, "count")
    minority = to_csr(minority)
    neighbors = _minority_neighbors("smote", minority, k, n_features)
    return _interpolate(minority, neighbors, np.arange(count) % len(minority), rng)


def largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Apportion ``total`` integer units proportionally to ``weights``.

    Ties in fractional remainders go to the lower index; the result always
    sums exactly to ``total``.
    """
    check_integer(total, "total")
    weights = np.asarray(weights, dtype=float)
    check_real(weights, "weights", ge=0)
    if weights.sum() <= 0:
        raise ValueError("weights must have positive sum")
    quotas = total * weights / weights.sum()
    base = np.floor(quotas).astype(int)
    leftover = total - int(base.sum())
    if leftover:
        remainders = quotas - base
        order = np.argsort(-remainders, kind="stable")
        base[order[:leftover]] += 1
    return base


def adasyn(
    minority: Rows, majority: Rows, count: int, k: int, rng: np.random.Generator, n_features: int
) -> CsrRows:
    """Density-adaptive SMOTE variant.

    Each minority point's share of the synthetic budget is proportional to
    the fraction of its k nearest neighbors (over the full training set) that
    belong to the majority class. When every share is zero the budget is
    split uniformly. Interpolation itself runs among minority neighbors as
    in SMOTE, found by the same search over the minority rows that SMOTE
    runs; a second search over the full set gives only the shares.
    """
    check_integer(count, "count")
    minority = to_csr(minority)
    n = len(minority)
    neighbors = _minority_neighbors("adasyn", minority, k, n_features)
    all_rows = minority.stack(to_csr(majority))
    k_all = min(k, len(all_rows) - 1)
    orders = NeighborIndex(all_rows, n_features).nearest(minority, k_all, np.arange(n))
    ratios = np.array([np.count_nonzero(order >= n) / k_all for order in orders])
    allot = largest_remainder(ratios if ratios.sum() > 0 else np.ones(n), count)
    return _interpolate(minority, neighbors, np.repeat(np.arange(n), allot), rng)
