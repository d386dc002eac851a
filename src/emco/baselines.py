"""Vector-space oversampling baselines: ROS, SMOTE, and ADASYN.

These operate directly on tf-idf vectors and therefore cannot leave the
convex hull of the minority sample. Interpolated vectors are deliberately
not re-normalized to unit L2. Neighbor search is a brute-force Euclidean
scan, which is plenty at desk scale; ties are broken by lower index.

Neighbor search runs on dense rows: many tf-idf vectors with disjoint
supports lie exactly sqrt(2) apart, and a sparse distance formula rounds
those ties differently, which would change which neighbor is picked.
Interpolation needs no such care, so it runs on the sparse entries over the
union of the two supports and gives bit-for-bit the dense result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vectorize import SparseVector, to_dense


@dataclass(frozen=True)
class NeighborIndex:
    """Brute-force k-nearest-neighbor index over dense reference points."""

    points: np.ndarray  # (n, d)

    def query(self, target: np.ndarray, k: int, exclude: int | None = None) -> np.ndarray:
        """Indices of the k nearest reference points to ``target``.

        ``exclude`` removes one reference row (the query point itself when it
        is a member of the reference set).
        """
        dists = np.linalg.norm(self.points - target, axis=1)
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


def _neighbor_orders(points: np.ndarray, n: int) -> list[np.ndarray]:
    """For each of the first n rows, every other row from nearest to farthest."""
    index = NeighborIndex(points)
    return [index.query(points[i], len(points) - 1, exclude=i) for i in range(n)]


def _interpolate(
    minority: Sequence[SparseVector],
    neighbors: Sequence[np.ndarray],
    bases: Sequence[int],
    rng: np.random.Generator,
) -> list[SparseVector]:
    """One synthetic vector a + u (b - a) per base point a.

    The partner b is drawn uniformly from the base point's neighbors, then u
    uniformly from [0, 1). Coordinates that come out exactly zero are dropped.
    """
    entries = [dict(vec.entries) for vec in minority]
    out = []
    for i in bases:
        nn = int(neighbors[i][int(rng.integers(len(neighbors[i])))])
        u = rng.random()
        a, b = entries[i], entries[nn]
        point = []
        for col in sorted(a.keys() | b.keys()):
            x = a.get(col, 0.0)
            value = x + u * (b.get(col, 0.0) - x)
            if value != 0.0:
                point.append((col, value))
        out.append(SparseVector(tuple(point)))
    return out


def ros(
    minority: Sequence[SparseVector], count: int, rng: np.random.Generator
) -> list[SparseVector]:
    """Random oversampling: uniform draws with replacement."""
    if not minority:
        raise ValueError("minority set is empty")
    picks = rng.integers(0, len(minority), size=count)
    return [minority[int(i)] for i in picks]


def smote(
    minority: Sequence[SparseVector],
    count: int,
    k: int,
    rng: np.random.Generator,
    n_features: int,
) -> list[SparseVector]:
    """Synthetic vectors as random convex combinations of neighbor pairs.

    Base points are cycled in order; the partner is drawn uniformly from the
    base point's k nearest minority neighbors (capped at n-1 when the
    minority sample is small).
    """
    n = len(minority)
    k_min = _minority_k("smote", n, k)
    neighbors = [o[:k_min] for o in _neighbor_orders(to_dense(minority, n_features), n)]
    return _interpolate(minority, neighbors, [j % n for j in range(count)], rng)


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
    minority: Sequence[SparseVector],
    majority: Sequence[SparseVector],
    count: int,
    k: int,
    rng: np.random.Generator,
    n_features: int,
) -> list[SparseVector]:
    """Density-adaptive SMOTE variant.

    Each minority point's share of the synthetic budget is proportional to
    the fraction of its k nearest neighbors (over the full training set) that
    belong to the majority class. When every share is zero the budget is
    split uniformly. Interpolation itself runs among minority neighbors as
    in SMOTE. They are the minority entries of the point's full-set order,
    which come in the minority-only order: each distance is the same in both
    sets, and ties go to the lower index in both.
    """
    n = len(minority)
    k_min = _minority_k("adasyn", n, k)
    all_points = to_dense([*minority, *majority], n_features)
    k_all = min(k, len(all_points) - 1)
    orders = _neighbor_orders(all_points, n)
    ratios = np.array([np.count_nonzero(order[:k_all] >= n) / k_all for order in orders])
    allot = largest_remainder(ratios if ratios.sum() > 0 else np.ones(n), count)
    neighbors = [order[order < n][:k_min] for order in orders]
    return _interpolate(minority, neighbors, np.repeat(np.arange(n), allot), rng)
