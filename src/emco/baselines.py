"""Vector-space oversampling baselines: ROS, SMOTE, and ADASYN.

These operate directly on tf-idf vectors and therefore cannot leave the
convex hull of the minority sample. Interpolated vectors are deliberately
not re-normalized to unit L2. Neighbor search is a brute-force Euclidean
scan, which is plenty at desk scale; ties are broken by lower index.

Each oversampler reads ``CsrRows`` or a ``SparseVector`` list and returns ``CsrRows``.
Only ``_neighbor_orders`` makes dense rows: many tf-idf vectors with disjoint
supports lie exactly sqrt(2) apart, and a sparse distance formula rounds
those ties differently, which would change which neighbor is picked.
Interpolation needs no such care, so it runs on the sparse entries over the
union of the two supports and gives bit-for-bit the dense result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import check_count
from .vectorize import CsrRows, SparseVector, to_csr, to_dense

Rows = Sequence[SparseVector] | CsrRows


@dataclass(frozen=True)
class NeighborIndex:
    """Brute-force k-nearest-neighbor index over dense reference points."""

    points: np.ndarray  # (n, d)

    def query(self, target: np.ndarray, k: int, exclude: int | None = None) -> np.ndarray:
        """Indices of the k nearest reference points to ``target``.

        ``exclude`` removes one reference row (the query point itself when it
        is a member of the reference set).
        """
        # np.linalg.norm(diff, axis=1) bit for bit, but squared in place: the
        # second (n, d) temporary of norm made this scan about twice as slow on
        # a process's main thread, where each query grew malloc's heap again
        diff = self.points - target
        dists = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=1))
        if exclude is not None:
            dists[exclude] = np.inf
        order = np.argsort(dists, kind="stable")  # stable sort -> lower index on ties
        return order[:k]


def _minority_k(name: str, n: int, k: int) -> int:
    """Neighbors per minority point, k capped at n - 1, after checking n and k."""
    if n < 2:
        raise ValueError(f"{name} needs at least two minority vectors")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return min(k, n - 1)


def _neighbor_orders(rows: CsrRows, n_features: int, n: int) -> list[np.ndarray]:
    """For each of the first n rows, every other row from nearest to farthest."""
    points = to_dense(rows, n_features)
    index = NeighborIndex(points)
    return [index.query(points[i], len(points) - 1, exclude=i) for i in range(n)]


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
    check_count(count)
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
    check_count(count)
    minority = to_csr(minority)
    n = len(minority)
    k_min = _minority_k("smote", n, k)
    neighbors = [o[:k_min] for o in _neighbor_orders(minority, n_features, n)]
    return _interpolate(minority, neighbors, np.arange(count) % n, rng)


def largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Apportion ``total`` integer units proportionally to ``weights``.

    Ties in fractional remainders go to the lower index; the result always
    sums exactly to ``total``.
    """
    weights = np.asarray(weights, dtype=float)
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
    in SMOTE. They are the minority entries of the point's full-set order,
    which come in the minority-only order: each distance is the same in both
    sets, and ties go to the lower index in both.
    """
    check_count(count)
    minority = to_csr(minority)
    n = len(minority)
    k_min = _minority_k("adasyn", n, k)
    all_rows = minority.stack(to_csr(majority))
    k_all = min(k, len(all_rows) - 1)
    orders = _neighbor_orders(all_rows, n_features, n)
    ratios = np.array([np.count_nonzero(order[:k_all] >= n) / k_all for order in orders])
    allot = largest_remainder(ratios if ratios.sum() > 0 else np.ones(n), count)
    neighbors = [order[order < n][:k_min] for order in orders]
    return _interpolate(minority, neighbors, np.repeat(np.arange(n), allot), rng)
