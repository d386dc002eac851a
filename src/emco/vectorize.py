"""Bag-of-words tf-idf vectorization with smoothed idf and L2 normalization.

The model is fitted once on the original training documents and the same
fitted transformation is reused for synthetic documents, so identical tokens
always map to identical columns.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse vector: (index, value) pairs, strictly increasing indices."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        indices = [i for i, _ in self.entries]
        if indices != sorted(set(indices)):
            raise ValueError("entries must be sorted by strictly increasing index")
        if indices and indices[0] < 0:
            raise ValueError(f"entries must have nonnegative indices, got {indices[0]}")
        if not {bool, np.bool_}.isdisjoint(map(type, indices)):
            raise ValueError("entries must have integer indices, got a bool")
        if any(v == 0.0 for _, v in self.entries):
            raise ValueError("entries must be nonzero")

    def norm(self) -> float:
        return _norm(self.entries)

    def to_dense(self, dim: int) -> np.ndarray:
        return to_dense([self], dim)[0]

    @staticmethod
    def from_dense(arr: np.ndarray) -> "SparseVector":
        """Every entry ``!= 0.0``: a NaN is kept for the readers' checks."""
        return SparseVector(
            tuple((int(i), float(v)) for i, v in enumerate(arr) if v != 0.0)
        )


@dataclass(frozen=True)
class TfidfModel:
    """Fitted vocabulary index, document frequencies, and training size."""

    vocabulary: dict[str, int]  # token -> column, lexicographic order
    df: dict[str, int]
    n_docs: int

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)

    def idf(self, token: str) -> float:
        return math.log((self.n_docs + 1) / (self.df[token] + 1)) + 1.0


def fit_tfidf(training_docs: Sequence[Document]) -> TfidfModel:
    """Fit vocabulary and document frequencies on the training split."""
    if not training_docs:
        raise ValueError("cannot fit tf-idf on an empty training set")
    df: Counter[str] = Counter()
    for doc in training_docs:
        df.update(set(doc.tokens))
    vocab = {tok: col for col, tok in enumerate(sorted(df))}
    return TfidfModel(vocabulary=vocab, df=dict(df), n_docs=len(training_docs))


def transform_tokens(tokens: Iterable[str], model: TfidfModel) -> SparseVector:
    """tf x idf then L2 normalization; out-of-vocabulary tokens are dropped."""
    counts = Counter(t for t in tokens if t in model.vocabulary)
    if not counts:
        return SparseVector(())
    entries = sorted(
        (model.vocabulary[t], c * model.idf(t)) for t, c in counts.items()
    )
    norm = _norm(entries)
    return SparseVector(tuple((i, v / norm) for i, v in entries))


def _norm(entries: Sequence[tuple[int, float]]) -> float:
    """L2 norm, summed left to right: builtin ``sum()`` of floats rounds
    differently from Python 3.12 on, and this norm reaches the results."""
    total = 0.0
    for _, v in entries:
        total += v * v
    return math.sqrt(total)


def transform(doc: Document, model: TfidfModel) -> SparseVector:
    return transform_tokens(doc.tokens, model)


def to_csr(vectors: Sequence[SparseVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack sparse vectors into the CSR arrays ``(indptr, indices, data)``;
    ``indptr`` and ``indices`` are ``np.intp`` arrays even when every vector
    is empty; a non-integer index, which the cast would truncate, is rejected."""
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for vec in vectors:
        for i, v in vec.entries:
            indices.append(i)
            data.append(v)
        indptr.append(len(indices))
    columns = np.array(indices)
    if columns.size and columns.dtype.kind not in "iu":
        raise ValueError(f"feature indices must be integers, got {columns.dtype} indices")
    return (
        np.array(indptr, dtype=np.intp),
        columns.astype(np.intp, copy=False),
        np.array(data, dtype=float),
    )


def to_dense(vectors: Sequence[SparseVector], n_features: int) -> np.ndarray:
    """One zero row per vector, set at its entries; an index >= ``n_features``
    raises ``IndexError``."""
    indptr, indices, data = to_csr(vectors)
    out = np.zeros((len(vectors), n_features))
    out[np.repeat(np.arange(len(vectors)), np.diff(indptr)), indices] = data
    return out
