"""Markov-chain minority oversampling with majority-class extrapolation.

The transition weight table is estimated from adjacent word pairs. Minority
document pairs always count; majority document pairs count with weight gamma
when the source word belongs to the minority vocabulary (the target may be a
majority-only word, which is what lets the synthetic vocabulary grow beyond
the minority training vocabulary). A sentinel stop state handles document
starts and ends; rows for majority-only words fall back to the minority
marginal word distribution. gamma=0 recovers plain Markov-chain oversampling
confined to the minority vocabulary.

Weights are stored unnormalized in per-row sparse form and normalized lazily
at draw time.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class VocabPartition:
    """Indexed split of the training vocabulary.

    Minority-vocabulary words come first (sorted), then majority-only words
    (sorted). The stop sentinel takes index ``len(words)``.
    """

    words: tuple[str, ...]
    n_min: int  # words[:n_min] is the minority vocabulary

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {w: i for i, w in enumerate(self.words)}
        )

    @classmethod
    def from_corpora(
        cls,
        minority_docs: Sequence[Sequence[str]],
        majority_docs: Sequence[Sequence[str]],
    ) -> "VocabPartition":
        v_min = sorted({w for doc in minority_docs for w in doc})
        v_maj_only = sorted({w for doc in majority_docs for w in doc}.difference(v_min))
        return cls(words=tuple(v_min + v_maj_only), n_min=len(v_min))

    @property
    def stop_index(self) -> int:
        return len(self.words)

    @property
    def v_min(self) -> tuple[str, ...]:
        return self.words[: self.n_min]

    @property
    def v_maj_only(self) -> tuple[str, ...]:
        return self.words[self.n_min :]

    def index(self, word: str) -> int:
        return self._index[word]

    def is_min(self, idx: int) -> bool:
        return idx < self.n_min


@dataclass(frozen=True)
class _Row:
    indices: np.ndarray  # column indices, int, sorted
    weights: np.ndarray  # positive weights aligned with indices
    cumsum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cumsum", np.cumsum(self.weights))

    @property
    def total(self) -> float:
        return float(self.cumsum[-1]) if len(self.cumsum) else 0.0

    def draw(self, rng: np.random.Generator) -> int:
        pos = int(np.searchsorted(self.cumsum, rng.random() * self.total, side="right"))
        return int(self.indices[min(pos, len(self.indices) - 1)])


_EMPTY_ROW = _Row(np.empty(0, dtype=np.int64), np.empty(0))


@dataclass(frozen=True)
class TransitionModel:
    """Sparse transition weight table plus empirical minority lengths."""

    partition: VocabPartition
    gamma: float
    lengths: tuple[int, ...]
    min_rows: dict[int, _Row]  # rows for minority-vocabulary words
    stop_row: _Row  # initial-word counts
    marginal_row: _Row  # minority marginal word counts

    def row(self, idx: int) -> _Row:
        """Effective sampling row for a state index.

        Majority-only rows share the minority marginal distribution, and a
        minority row with no recorded mass falls back to it as well so the
        walk can never stall.
        """
        row = self.stored_row(idx)
        return row if row.total > 0 else self.marginal_row

    def stored_row(self, idx: int) -> _Row:
        """Row as estimated, without the zero-mass fallback (for inspection)."""
        if idx == self.partition.stop_index:
            return self.stop_row
        if idx >= self.partition.n_min:  # majority-only word
            return self.marginal_row
        return self.min_rows.get(idx, _EMPTY_ROW)

    def weight(self, i: int, j: int) -> float:
        """Unnormalized stored weight from state i to state j."""
        row = self.stored_row(i)
        pos = np.searchsorted(row.indices, j)
        if pos < len(row.indices) and row.indices[pos] == j:
            return float(row.weights[pos])
        return 0.0


def _make_row(counts: dict[int, float]) -> _Row:
    items = sorted((i, w) for i, w in counts.items() if w > 0)
    if not items:
        return _EMPTY_ROW
    idx, w = zip(*items)
    return _Row(np.asarray(idx, dtype=np.int64), np.asarray(w, dtype=float))


def estimate(
    minority_docs: Sequence[Sequence[str]],
    majority_docs: Sequence[Sequence[str]],
    gamma: float,
) -> TransitionModel:
    """Estimate the transition weight table for one oversampling task."""
    if not minority_docs:
        raise ValueError("minority document set is empty")
    if not all(minority_docs):
        raise ValueError("minority documents must be nonempty")
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")

    part = VocabPartition.from_corpora(minority_docs, majority_docs)
    index, n_min = part._index, part.n_min

    # minority counts before gamma terms, in document order: fixed float sums
    transitions: defaultdict[int, Counter[int]] = defaultdict(Counter)
    initial: Counter[int] = Counter()
    marginal: Counter[int] = Counter()

    for doc in minority_docs:
        ids = [index[w] for w in doc]
        initial[ids[0]] += 1
        marginal.update(ids)
        ids.append(part.stop_index)  # the last word's pair is its end
        for a, b in zip(ids, ids[1:]):
            transitions[a][b] += 1

    if gamma > 0:
        for doc in majority_docs:
            ids = [index[w] for w in doc]
            for a, b in zip(ids, ids[1:]):
                if a < n_min:
                    transitions[a][b] += gamma

    for i, row in transitions.items():
        row.pop(i, None)  # self-transitions are zeroed

    return TransitionModel(
        partition=part,
        gamma=gamma,
        lengths=tuple(map(len, minority_docs)),
        min_rows={i: _make_row(row) for i, row in transitions.items()},
        stop_row=_make_row(initial),
        marginal_row=_make_row(marginal),
    )


def sample_document(
    model: TransitionModel,
    rng: np.random.Generator,
    length: int | None = None,
) -> list[str]:
    """Generate one synthetic document as a random walk from the stop state.

    A drawn stop token is never emitted; it just resets the current state.
    Emission continues until exactly ``length`` words have been produced.
    """
    if length is None:
        length = int(model.lengths[rng.integers(len(model.lengths))])
    part = model.partition
    stop = part.stop_index
    current = stop
    out: list[str] = []
    while len(out) < length:
        nxt = model.row(current).draw(rng)
        if nxt != stop:
            out.append(part.words[nxt])
        current = nxt
    return out


def oversample(
    model: TransitionModel, count: int, rng: np.random.Generator
) -> list[list[str]]:
    """Draw ``count`` independent synthetic documents."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    return [sample_document(model, rng) for _ in range(count)]

