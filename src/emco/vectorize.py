"""Bag-of-words tf-idf vectorization with smoothed idf and L2 normalization.

The model is fitted once on the original training documents and the same
fitted transformation is reused for synthetic documents, so identical tokens
always map to identical columns. Inside a run, documents are ``CsrRows`` from
``transform_rows``; a ``SparseVector`` is one document at the public edge.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
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

    def to_dense(self, dim: int) -> np.ndarray:
        return to_dense([self], dim)[0]

    @staticmethod
    def from_dense(arr: np.ndarray) -> "SparseVector":
        """The one dense row ``arr`` as ``CsrRows.from_dense`` reads it."""
        return CsrRows.from_dense(np.asarray(arr, dtype=float)[None, :])[0]


@dataclass(frozen=True, eq=False)
class CsrRows:
    """Rows in compressed sparse row form: row r holds the columns
    ``indices[indptr[r]:indptr[r + 1]]`` with the values of ``data`` at the
    same positions. ``len()`` is the row count, and ``rows[r]`` is row r as a
    ``SparseVector``. The arrays are ``np.intp``, ``np.intp`` and float64 and
    contiguous, so the compiled solver reads them as they are."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        indptr, indices, data = map(np.asarray, (self.indptr, self.indices, self.data))
        for name, array in (("indptr", indptr), ("indices", indices), ("data", data)):
            if array.ndim != 1:
                raise ValueError(f"CSR {name} must be one-dimensional, got shape {array.shape}")
        if indices.size and indices.dtype.kind not in "iu":  # the cast would truncate them
            raise ValueError(f"feature indices must be integers, got {indices.dtype} indices")
        if not (indptr.dtype.kind in "iu" and len(indptr) and indptr[0] == 0
                and indptr[-1] == len(indices) == len(data) and (np.diff(indptr) >= 0).all()):
            raise ValueError("CSR indptr must rise from 0 to the number of entries")
        for name, dtype in (("indptr", np.intp), ("indices", np.intp), ("data", float)):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype))

    @staticmethod
    def from_entries(rows: np.ndarray, indices, data, n_rows: int) -> "CsrRows":
        """``n_rows`` rows from entries sorted by their row numbers ``rows``."""
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
        return CsrRows(indptr, indices, data)

    @staticmethod
    def from_dense(points: np.ndarray) -> "CsrRows":
        """The entries ``!= 0.0`` of the dense rows ``points``: a NaN is kept
        for the readers' checks, and -0.0 is dropped."""
        rows, columns = np.nonzero(points)
        return CsrRows.from_entries(rows, columns, points[rows, columns], len(points))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, row: int) -> SparseVector:
        if not isinstance(row, (int, np.integer)):
            raise TypeError(
                f"CsrRows index must be an integer, got {type(row).__name__}; take() selects rows"
            )
        row = range(len(self))[row]  # an IndexError past the last row ends iteration
        s, e = self.indptr[row], self.indptr[row + 1]
        return SparseVector(tuple(zip(self.indices[s:e].tolist(), self.data[s:e].tolist())))

    def entry_rows(self) -> np.ndarray:
        """The row number of each entry."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Each row's sum of ``values`` (one per entry), added left to right from
        0.0 as a ``for`` loop adds; builtin ``sum()`` of floats is compensated
        from Python 3.12 on, so it would round differently there."""
        return np.bincount(self.entry_rows(), weights=values, minlength=len(self))

    def take(self, rows) -> "CsrRows":
        """The rows at the nonnegative positions ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        starts, lengths = self.indptr[rows], np.diff(self.indptr)[rows]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        entries = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CsrRows(indptr, self.indices[entries], self.data[entries])

    def stack(self, other: "CsrRows") -> "CsrRows":
        """These rows, then the rows of ``other``."""
        return CsrRows(
            np.concatenate((self.indptr, other.indptr[1:] + self.indptr[-1])),
            np.concatenate((self.indices, other.indices)),
            np.concatenate((self.data, other.data)),
        )


@dataclass(frozen=True, eq=False)
class TfidfModel:
    """Fitted vocabulary index and the smoothed idf of each column."""

    vocabulary: dict[str, int]  # token -> column, lexicographic order
    idf: np.ndarray  # float64, by column

    @property
    def n_features(self) -> int:
        return len(self.vocabulary)


def fit_tfidf(training_docs: Sequence[Document]) -> TfidfModel:
    """Fit the vocabulary and each column's smoothed idf on the training split."""
    if not training_docs:
        raise ValueError("cannot fit tf-idf on an empty training set")
    df: Counter[str] = Counter()
    for doc in training_docs:
        df.update(set(doc.tokens))
    vocab = {tok: col for col, tok in enumerate(sorted(df))}
    n = len(training_docs)
    idf = np.array([math.log((n + 1) / (df[t] + 1)) + 1.0 for t in vocab])
    return TfidfModel(vocabulary=vocab, idf=idf)


def transform_rows(documents: Iterable[Iterable[str]], model: TfidfModel) -> CsrRows:
    """One row per token list: tf x idf, then each value divided by the row's
    L2 norm; out-of-vocabulary tokens are dropped."""
    column = model.vocabulary.get
    per_row = [[column(t, -1) for t in tokens] for tokens in documents]
    n_rows = len(per_row)
    rows = np.repeat(np.arange(n_rows), [len(c) for c in per_row])
    columns = np.fromiter(itertools.chain.from_iterable(per_row), np.intp, len(rows))
    known = columns >= 0
    width = model.n_features + 1
    # sorted (row, column) pairs and their term counts
    keys, tf = np.unique(rows[known] * width + columns[known], return_counts=True)
    rows, columns = np.divmod(keys, width)
    raw = CsrRows.from_entries(rows, columns, tf * model.idf[columns], n_rows)
    norms = np.sqrt(raw.row_sums(raw.data * raw.data))
    return CsrRows(raw.indptr, raw.indices, raw.data / norms[rows])


def transform_tokens(tokens: Iterable[str], model: TfidfModel) -> SparseVector:
    """One token list as ``transform_rows`` vectorizes it."""
    return transform_rows([tokens], model)[0]


def to_csr(vectors: Sequence[SparseVector] | CsrRows) -> CsrRows:
    """``vectors`` as ``CsrRows``; ``CsrRows`` are returned as they are."""
    if isinstance(vectors, CsrRows):
        return vectors
    entries = [entry for vec in vectors for entry in vec.entries]
    indices, data = zip(*entries) if entries else ((), ())
    indptr = np.cumsum([0, *(len(vec.entries) for vec in vectors)])
    return CsrRows(indptr, np.array(indices), np.array(data, dtype=float))


def check_integer(value, name: str, low: int = 0, high: int | None = None) -> None:
    """Raise a one-line ``ValueError`` naming ``name`` unless ``value`` is an
    integer (not a bool) in [``low``, ``high``]; no ``high`` leaves it unbounded."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")


def check_real(value, name: str, ge=None, gt=None, lt=None) -> None:
    """Raise a one-line ``ValueError`` naming ``name`` unless ``value`` (a number, not a bool,
    or an array) is finite and ``>= ge``, ``> gt`` and ``< lt`` where given; ``lt`` needs ``gt``."""
    array = np.asarray(value)  # an int too wide for 64 bits is an object array: refused
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {value!r}")
    inside, rule = np.isfinite(array), "finite"
    if ge is not None:
        inside, rule = inside & (array >= ge), f"finite and >= {ge}"
    if gt is not None:
        inside, rule = inside & (array > gt), f"finite and > {gt}"
    if lt is not None:
        inside, rule = inside & (array < lt), f"in ({gt}, {lt})"
    if not inside.all():
        raise ValueError(f"{name} must be {rule}, got {array[~inside][0]}")


def check_columns(indices: np.ndarray, n_features: int) -> None:
    """Raise a one-line ``ValueError`` at the first index outside [0, ``n_features``)."""
    outside = indices[(indices < 0) | (indices >= n_features)]
    if len(outside):
        raise ValueError(f"feature index {outside[0]} is out of range for {n_features} features")


def to_dense(vectors: Sequence[SparseVector] | CsrRows, n_features: int) -> np.ndarray:
    """One zero row per vector, set at its entries; an index >= ``n_features``
    raises ``IndexError``."""
    rows = to_csr(vectors)
    out = np.zeros((len(rows), n_features))
    out[rows.entry_rows(), rows.indices] = rows.data
    return out
