"""Markov-chain minority oversampling with majority-class extrapolation.

The transition weight table is estimated from adjacent word pairs. Minority
document pairs always count; majority document pairs count with weight gamma
when the source word belongs to the minority vocabulary (the target may be a
majority-only word, which is what lets the synthetic vocabulary grow beyond
the minority training vocabulary). A sentinel stop state handles document
starts and ends; rows for majority-only words fall back to the minority
marginal word distribution. gamma=0 recovers plain Markov-chain oversampling
confined to the minority vocabulary.

Weights are stored unnormalized, one sparse row per state: a tuple of the
sorted target states, an ``array("d")`` of their weights and one of the
running sums, added left to right as ``np.cumsum`` adds them. A draw is
``bisect_right(running sums, u * total)`` for one ``rng.random()`` u, clamped
to the last target, so it picks the target that ``np.searchsorted(...,
side="right")`` picks. Rows are built with no numpy call; ``indices`` and
``weights`` are read as numpy arrays only for inspection.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .vectorize import check_integer, check_real


@dataclass(frozen=True)
class VocabPartition:
    """Indexed split of the training vocabulary.

    Minority-vocabulary words come first (sorted), then majority-only words
    (sorted). The stop sentinel takes index ``len(words)``.
    """

    words: tuple[str, ...]
    n_min: int  # words[:n_min] is the minority vocabulary

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


class _Row:
    """One sampling row: sorted target states, their positive weights and the
    running sums of those weights, all kept as Python sequences."""

    __slots__ = ("targets", "weight_values", "cumsum", "total")

    def __init__(self, targets: tuple[int, ...], weights: array):
        self.targets = targets  # state indices, sorted
        self.weight_values = weights  # array("d"), aligned with targets
        # left to right, as np.cumsum adds, so the floats are the same
        self.cumsum = array("d", accumulate(weights))
        self.total = self.cumsum[-1] if targets else 0.0

    @property
    def indices(self) -> np.ndarray:
        return np.array(self.targets, dtype=np.int64)

    @property
    def weights(self) -> np.ndarray:
        return np.frombuffer(self.weight_values)

    def draw(self, rng: np.random.Generator) -> int:
        pos = bisect_right(self.cumsum, rng.random() * self.total)
        targets = self.targets
        return targets[pos] if pos < len(targets) else targets[-1]


_EMPTY_ROW = _Row((), array("d"))


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """Sparse transition weight table plus empirical minority lengths.

    Rows are resolved once per state: majority-only words share the marginal
    row, a minority word with no row has an empty one, and for sampling a
    zero-mass row falls back to the marginal row, so the walk never stalls.
    """

    partition: VocabPartition
    gamma: float
    lengths: tuple[int, ...]
    min_rows: dict[int, _Row]  # rows for minority-vocabulary words
    stop_row: _Row  # initial-word counts
    marginal_row: _Row  # minority marginal word counts

    def __post_init__(self):
        part, marginal = self.partition, self.marginal_row
        stored = [self.min_rows.get(i, _EMPTY_ROW) for i in range(part.n_min)]
        stored += [marginal] * (part.stop_index - part.n_min) + [self.stop_row]
        object.__setattr__(self, "_stored", tuple(stored))
        sampling = tuple(row if row.total > 0 else marginal for row in stored)
        object.__setattr__(self, "_sampling", sampling)

    def _state(self, idx: int) -> int:
        """``idx`` if it is a state index, else one ``ValueError`` line."""
        check_integer(idx, "state", 0, self.partition.stop_index)
        return idx

    def row(self, idx: int) -> _Row:
        """Effective sampling row for a state index."""
        return self._sampling[self._state(idx)]

    def stored_row(self, idx: int) -> _Row:
        """Row as estimated, without the zero-mass fallback (for inspection)."""
        return self._stored[self._state(idx)]

    def weight(self, i: int, j: int) -> float:
        """Unnormalized stored weight from state i to state j."""
        row = self.stored_row(i)
        pos = bisect_left(row.targets, self._state(j))
        if pos < len(row.targets) and row.targets[pos] == j:
            return row.weight_values[pos]
        return 0.0


def _make_row(counts: dict[int, float]) -> _Row:
    targets = tuple(sorted([i for i, w in counts.items() if w > 0]))
    if not targets:
        return _EMPTY_ROW
    return _Row(targets, array("d", map(counts.__getitem__, targets)))


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
    check_real(gamma, "gamma", ge=0)

    part = VocabPartition.from_corpora(minority_docs, majority_docs)
    index = {w: i for i, w in enumerate(part.words)}
    n_min, stop = part.n_min, part.stop_index

    # minority counts before gamma terms, in document order: fixed float sums.
    # Each document opens and closes with the stop state; the opening pairs
    # count in the extra row n_min; majority-only words start no minority pair.
    # Each word occurrence starts one pair: a row's total is its word's count.
    transitions: list[dict[int, float]] = [{} for _ in range(n_min + 1)]
    for doc in minority_docs:
        ids = [n_min, *map(index.__getitem__, doc), stop]
        for a, b in zip(ids, ids[1:]):
            row = transitions[a]
            row[b] = row.get(b, 0) + 1
    stop_row = _make_row(transitions.pop())
    marginal_row = _make_row({i: sum(row.values()) for i, row in enumerate(transitions)})

    if gamma > 0:
        for doc in majority_docs:
            ids = [index[w] for w in doc]
            for a, b in zip(ids, ids[1:]):
                if a < n_min:
                    row = transitions[a]
                    row[b] = row.get(b, 0) + gamma

    min_rows = {}
    for i, row in enumerate(transitions):
        row.pop(i, None)  # self-transitions are zeroed
        min_rows[i] = _make_row(row)
        if not math.isfinite(min_rows[i].total):
            raise ValueError(
                f"gamma {gamma} overflows the transition weights of word "
                f"{part.words[i]!r} to infinity"
            )

    return TransitionModel(
        partition=part,
        gamma=gamma,
        lengths=tuple(map(len, minority_docs)),
        min_rows=min_rows,
        stop_row=stop_row,
        marginal_row=marginal_row,
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
    else:
        check_integer(length, "length")
    words, rows = model.partition.words, model._sampling
    stop = current = model.partition.stop_index
    out: list[str] = []
    while len(out) < length:
        current = rows[current].draw(rng)
        if current != stop:
            out.append(words[current])
    return out


def oversample(
    model: TransitionModel, count: int, rng: np.random.Generator
) -> list[list[str]]:
    """Draw ``count`` independent synthetic documents."""
    check_integer(count, "count")
    return [sample_document(model, rng) for _ in range(count)]
