"""Markov-chain minority oversampling with majority-class extrapolation.

The transition weight table is estimated from adjacent word pairs. Minority
document pairs always count; majority document pairs count with weight gamma
when the source word belongs to the minority vocabulary (the target may be a
majority-only word, which is what lets the synthetic vocabulary grow beyond
the minority training vocabulary). A sentinel stop state handles document
starts and ends; rows for majority-only words fall back to the minority
marginal word distribution. gamma=0 recovers plain Markov-chain oversampling
confined to the minority vocabulary.

Each corpus is mapped to state ids in one flat pass, and each adjacent pair
(a, b) becomes the key ``a * (stop + 1) + b``. One sort of both corpora's
keys orders them by source state, then target state, and gives each key's
minority count m and majority count k; each state's row is one slice of the
sorted keys. A weight is m, then gamma added k times, left to right, as a
loop over the pairs would add it (``m + k * gamma`` rounds differently).

Weights are stored unnormalized, one sparse row per state: a tuple of the
sorted target states, an ``array("d")`` of their weights and one of the
running sums, added left to right as ``np.cumsum`` adds them. A step reads
one uniform u and picks ``bisect_right(running sums, u * total)``, clamped to
the last target, so it picks the target that ``np.searchsorted(...,
side="right")`` picks. A walk draws its uniforms in batches with
``rng.random(n)``, which gives the floats and the generator state of n
single draws.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vectorize import check_documents, check_integer, check_real


@dataclass(frozen=True)
class VocabPartition:
    """Indexed split of the training vocabulary.

    Minority-vocabulary words come first (sorted), then majority-only words
    (sorted). The stop sentinel takes index ``len(words)``.
    """

    words: tuple[str, ...]
    n_min: int  # words[:n_min] is the minority vocabulary

    def __post_init__(self):
        check_integer(self.n_min, "n_min", 0, len(self.words))
        if len(set(self.words)) < len(self.words):
            repeated = next(w for w, n in Counter(self.words).items() if n > 1)
            raise ValueError(f"word {repeated!r} is repeated")

    @classmethod
    def from_corpora(
        cls,
        minority_docs: Sequence[Sequence[str]],
        majority_docs: Sequence[Sequence[str]],
    ) -> "VocabPartition":
        check_documents(minority_docs, "minority document")
        check_documents(majority_docs, "majority document")
        v_min = set(itertools.chain.from_iterable(minority_docs))
        v_maj_only = set(itertools.chain.from_iterable(majority_docs)).difference(v_min)
        v_min, v_maj_only = sorted(v_min), sorted(v_maj_only)
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
        self.cumsum = array("d", itertools.accumulate(weights))
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


def _pair_keys(docs: Sequence[Sequence[str]], index: dict) -> np.ndarray:
    """The key ``a * (stop + 1) + b`` of each adjacent pair of states (a, b) in
    ``docs`` read as one sequence, with the stop state before each document
    and after the last one; ``index`` maps each word to its state, and
    ``None`` to the stop state."""
    before_each = map(itertools.chain, itertools.repeat((None,)), docs)
    tokens = itertools.chain(itertools.chain.from_iterable(before_each), (None,))
    size = sum(map(len, docs)) + len(docs) + 1
    ids = np.fromiter(map(index.__getitem__, tokens), np.intp, size)
    keys = ids[:-1] * len(index)
    keys += ids[1:]
    return keys


def _pair_counts(
    minority_docs: Sequence[Sequence[str]],
    majority_docs: Sequence[Sequence[str]],
    index: dict,
    n_min: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted distinct pair keys, and each key's count m in the minority
    documents and k in the majority documents. Each minority document opens
    and closes with the stop state, so the stop row counts the opening words
    and each word occurrence starts one pair; a majority pair counts from a
    minority word to a word."""
    width = len(index)
    stop = width - 1
    minority = _pair_keys(minority_docs, index)
    majority = _pair_keys(majority_docs, index)
    majority = majority[(majority < n_min * width) & (majority % width != stop)]
    # the low bit of a tagged key marks a majority pair
    tagged, counts = np.unique(
        np.concatenate((minority << 1, majority << 1 | 1)), return_counts=True
    )
    keys = tagged >> 1
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # of each distinct key
    k = np.add.reduceat(counts * (tagged & 1), first)
    return keys[first], np.add.reduceat(counts, first) - k, k


def estimate(
    minority_docs: Sequence[Sequence[str]],
    majority_docs: Sequence[Sequence[str]],
    gamma: float,
) -> TransitionModel:
    """Estimate the transition weight table for one oversampling task."""
    if not minority_docs:
        raise ValueError("minority document set is empty")
    part = VocabPartition.from_corpora(minority_docs, majority_docs)  # checks the documents
    if not all(minority_docs):
        raise ValueError("minority documents must be nonempty")
    check_real(gamma, "gamma", ge=0)
    n_min, stop = part.n_min, part.stop_index
    width = stop + 1
    index = dict(zip((*part.words, None), range(width)))

    keys, m, k = _pair_counts(minority_docs, majority_docs if gamma > 0 else [], index, n_min)
    sources, targets = np.divmod(keys, width)
    # a minority word's count is the number of minority pairs it starts
    marginal = np.bincount(sources, weights=m, minlength=width)[:n_min]

    # m, then gamma added k times, left to right, as a loop over the majority
    # pairs adds it: m + k * gamma would round differently
    weights = m.astype(float)
    grow = np.flatnonzero(k)
    with np.errstate(over="ignore"):  # an infinite row is refused below
        for j in range(k.max()):
            grow = grow[k[grow] > j]
            weights[grow] += gamma
    kept = sources != targets  # self-transitions are zeroed
    # the keys are sorted, so each state's row is one slice of the kept pairs
    bounds = np.searchsorted(sources[kept], range(width + 1)).tolist()
    # one int object per state, as in the index, not one per pair
    targets = np.arange(width, dtype=object)[targets[kept]].tolist()
    weights = array("d", weights[kept].tobytes())
    rows = [
        _Row(tuple(targets[s:e]), weights[s:e]) if s < e else _EMPTY_ROW
        for s, e in zip(bounds, bounds[1:])
    ]

    min_rows = dict(enumerate(rows[:n_min]))
    for i, row in min_rows.items():
        if not math.isfinite(row.total):
            raise ValueError(
                f"gamma {gamma} overflows the transition weights of word "
                f"{part.words[i]!r} to infinity"
            )

    return TransitionModel(
        partition=part,
        gamma=gamma,
        lengths=tuple(map(len, minority_docs)),
        min_rows=min_rows,
        stop_row=rows[stop],
        marginal_row=_Row(tuple(range(n_min)), array("d", marginal.tobytes())),
    )


def sample_document(
    model: TransitionModel,
    rng: np.random.Generator,
    length: int | None = None,
) -> list[str]:
    """Generate one synthetic document as a random walk from the stop state.

    A drawn stop token is never emitted; it just resets the current state.
    Emission continues until exactly ``length`` words have been produced. Each
    step emits at most one word, so a batch of ``length - len(out)`` uniforms
    is never more than the walk takes.
    """
    if length is None:
        length = int(model.lengths[rng.integers(len(model.lengths))])
    else:
        check_integer(length, "length")
    words, rows = model.partition.words, model._sampling
    stop = current = model.partition.stop_index
    out: list[str] = []
    while len(out) < length:
        for u in rng.random(length - len(out)).tolist():
            row = rows[current]  # one step of _Row.draw, with the uniform u
            pos = bisect_right(row.cumsum, u * row.total)
            current = row.targets[pos] if pos < len(row.targets) else row.targets[-1]
            if current != stop:
                out.append(words[current])
    return out


def oversample(
    model: TransitionModel, count: int, rng: np.random.Generator
) -> list[list[str]]:
    """Draw ``count`` independent synthetic documents."""
    check_integer(count, "count")
    return [sample_document(model, rng) for _ in range(count)]
