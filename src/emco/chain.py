"""Markov-chain minority oversampling with majority-class extrapolation.

The transition weight table is estimated from adjacent word pairs. Minority
document pairs always count; majority document pairs count with weight gamma
when the source word belongs to the minority vocabulary (the target may be a
majority-only word, which is what lets the synthetic vocabulary grow beyond
the minority training vocabulary). A sentinel stop state handles document
starts and ends; rows for majority-only words fall back to the minority
marginal word distribution. gamma=0 recovers plain Markov-chain oversampling
confined to the minority vocabulary.

A table differs between gammas only in its weights, and callers estimate
each task at several gammas in a row. So ``estimate`` keeps what gamma does
not change (the partition, the word index, the lengths and the pair counts)
for the last task it saw, in one module-global ``(key, entry)`` pair that each
call reads once. The key is the documents' contents, ``(tuple(map(tuple,
minority)), tuple(map(tuple, majority)))``, compared after the documents are
checked, and the entry is built from the key's tuples alone; so a hit is
exact, a list changed in place since the last call is a new key, and a
thread or a forked worker that finds another task's entry builds its own.
Only one entry is held: a new task replaces the last. The majority pairs are
counted the first time a gamma above 0 asks for them.

Each corpus is mapped to state ids in one flat pass, and each adjacent pair
(a, b) becomes the key ``a * (stop + 1) + b``. One sort of both corpora's
keys orders them by source state, then target state, and gives each key's
minority count m and majority count k; each state's row is one slice of the
sorted keys. A weight is m, then gamma added k times, left to right, as a
loop over the pairs would add it (``m + k * gamma`` rounds differently).

A model's weights are stored unnormalized in one flat table, written
straight from the sorted pair keys. Row r is state r's row for r up to the
stop state, and the minority marginal row comes last: its targets are
``targets[indptr[r]:indptr[r + 1]]``, sorted, with their weights at the same
positions in ``weights``, their running sums in ``cumsum`` and the last sum in
``total[r]`` (0 for an empty row). Each row's running sums start from its
first weight and add the others left to right, as ``itertools.accumulate``
adds them: the kernel's ``row_cumsum`` adds them so, and where no kernel
loads, ``accumulate`` itself. A ``_Row``, a row as Python sequences, is built
only when a caller asks for one.

In state s the walk samples row ``sampling[s]``: the state's own row, or the
marginal row where that has no mass (a majority-only word's own row is
empty). A step reads one uniform u and picks ``bisect_right(cumsum, u *
total, lo, hi)`` over the row, clamped to its last target, which is the
target that ``np.searchsorted(..., side="right")`` picks. Where the kernel
loads, ``chain_walk`` walks in C and draws each step's uniform through the
Generator's ``bit_generator.ctypes`` interface; elsewhere Python walks the
same table and draws its uniforms in batches with ``rng.random(n)``. Both
give the floats and the generator state of one ``rng.random()`` per step, so
both walk the same documents.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import classifier
from .vectorize import check_documents, check_integer, check_real, check_type


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
        return cls._of_checked(minority_docs, majority_docs)

    @classmethod
    def _of_checked(
        cls,
        minority_docs: Sequence[Sequence[str]],
        majority_docs: Sequence[Sequence[str]],
    ) -> "VocabPartition":
        """``from_corpora`` of documents that ``check_documents`` has passed."""
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
        # left to right, as the table adds them, so the floats are the same
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


def _running_sums(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The running sums of each row of ``weights``, by the kernel's
    ``row_cumsum`` where it loads, else by ``itertools.accumulate``."""
    kernel = classifier.load_kernel()
    if kernel is None:
        values, bounds = weights.tolist(), indptr.tolist()
        rows = (itertools.accumulate(values[s:e]) for s, e in zip(bounds, bounds[1:]))
        return np.fromiter(itertools.chain.from_iterable(rows), float, len(values))
    cumsum = np.empty_like(weights)
    kernel.row_cumsum(indptr.ctypes.data, weights.ctypes.data, len(indptr) - 1, cumsum.ctypes.data)
    return cumsum


class _Table:
    """A model's rows as flat arrays, one row per state and the marginal row
    last (see the module docstring). ``indptr`` and ``targets`` are
    ``np.intp``, and ``weights`` float64, all contiguous."""

    def __init__(self, indptr: np.ndarray, targets: np.ndarray, weights: np.ndarray):
        self.indptr, self.targets, self.weights = indptr, targets, weights
        self.cumsum = _running_sums(indptr, weights)
        ends = indptr[1:]
        nonempty = ends > indptr[:-1]
        self.total = np.zeros(len(ends))
        self.total[nonempty] = self.cumsum[ends[nonempty] - 1]
        marginal = len(ends) - 1
        states = np.arange(marginal, dtype=np.intp)
        self.sampling = np.where(self.total[:marginal] > 0, states, marginal)

    @classmethod
    def from_rows(cls, rows: Sequence[_Row]) -> "_Table":
        """The table of ``rows``, one per state and the marginal row last.
        Every target must be a state and every state must have a row to
        sample, since the kernel's walk reads the arrays unchecked."""
        stop = len(rows) - 2
        for row in rows:
            if len(row.weight_values) != len(row.targets):
                raise ValueError("a row must have one weight per target")
            for target in row.targets:
                check_integer(target, "row target", 0, stop)
        indptr = np.cumsum([0, *(len(row.targets) for row in rows)], dtype=np.intp)
        targets = np.array([t for row in rows for t in row.targets], dtype=np.intp)
        weights = np.array([w for row in rows for w in row.weight_values], dtype=float)
        table = cls(indptr, targets, weights)
        if indptr[-1] == indptr[-2] and (table.sampling > stop).any():
            raise ValueError("a state has no row of positive mass and the marginal row is empty")
        return table

    def row(self, r: int) -> _Row:
        """Row r as a ``_Row``."""
        start, end = self.indptr[r], self.indptr[r + 1]
        if start == end:
            return _EMPTY_ROW
        weights = array("d", self.weights[start:end].tobytes())
        return _Row(tuple(self.targets[start:end].tolist()), weights)

    @functools.cached_property
    def lists(self) -> tuple[list, ...]:
        """The arrays that the walk reads, as lists, for the Python walk."""
        return tuple(a.tolist() for a in self._walked)

    @functools.cached_property
    def addresses(self) -> tuple[int, ...]:
        """The address of each array that the walk reads, for the kernel."""
        return tuple(a.ctypes.data for a in self._walked)

    @property
    def _walked(self) -> tuple[np.ndarray, ...]:
        return self.indptr, self.targets, self.cumsum, self.total, self.sampling

    def __getstate__(self) -> dict:
        # an unpickled copy holds its arrays at other addresses
        return {k: v for k, v in self.__dict__.items() if k != "addresses"}


class _TableRows(Mapping):
    """The minority words' rows of a table, by state. Each is built as a
    ``_Row`` when it is first read, and kept, so a state's row is one object."""

    def __init__(self, table: _Table, n_min: int):
        self.table, self._n_min, self._built = table, n_min, {}

    def __contains__(self, state) -> bool:
        return state in range(self._n_min)

    def __getitem__(self, state) -> _Row:
        if state not in self:
            raise KeyError(state)
        state = int(state)
        row = self._built.get(state)
        if row is None:
            row = self._built[state] = self.table.row(state)
        return row

    def __iter__(self):
        return iter(range(self._n_min))

    def __len__(self) -> int:
        return self._n_min


@dataclass(frozen=True, eq=False)
class TransitionModel:
    """Sparse transition weight table plus empirical minority lengths.

    The walk reads one flat ``_Table``. ``estimate`` writes it and gives
    ``min_rows`` as a view of it; a model built from ``_Row`` objects derives
    it from them. Majority-only words share the marginal row, a minority word
    with no row has an empty one, and for sampling a zero-mass row falls back
    to the marginal row, so the walk never stalls.
    """

    partition: VocabPartition
    gamma: float
    lengths: tuple[int, ...]
    min_rows: Mapping[int, _Row]  # rows for minority-vocabulary words
    stop_row: _Row  # initial-word counts
    marginal_row: _Row  # minority marginal word counts

    def __post_init__(self):
        if isinstance(self.min_rows, _TableRows):
            table = self.min_rows.table
        else:
            part = self.partition
            rows = [self.min_rows.get(i, _EMPTY_ROW) for i in range(part.n_min)]
            rows += [_EMPTY_ROW] * (part.stop_index - part.n_min)
            table = _Table.from_rows([*rows, self.stop_row, self.marginal_row])
        object.__setattr__(self, "_table", table)

    @functools.cached_property
    def _words(self) -> np.ndarray:
        """The words by state, as an object array for the compiled walk to index."""
        return np.array(self.partition.words, dtype=object)

    def _state(self, idx: int) -> int:
        """``idx`` if it is a state index, else one ``ValueError`` line."""
        check_integer(idx, "state", 0, self.partition.stop_index)
        return idx

    def row(self, idx: int) -> _Row:
        """Effective sampling row for a state index."""
        stored = self.stored_row(idx)
        return stored if stored.total > 0 else self.marginal_row

    def stored_row(self, idx: int) -> _Row:
        """Row as estimated, without the zero-mass fallback (for inspection)."""
        idx, part = self._state(idx), self.partition
        if idx < part.n_min:
            return self.min_rows.get(idx, _EMPTY_ROW)
        return self.stop_row if idx == part.stop_index else self.marginal_row

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
    minority: np.ndarray, majority: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted distinct keys among the pair keys ``minority`` and
    ``majority``, and each key's count m in ``minority`` and k in
    ``majority``."""
    # the low bit of a tagged key marks a majority pair
    tagged, counts = np.unique(
        np.concatenate((minority << 1, majority << 1 | 1)), return_counts=True
    )
    keys = tagged >> 1
    first = np.flatnonzero(np.diff(keys, prepend=-1))  # of each distinct key
    k = np.add.reduceat(counts * (tagged & 1), first)
    return keys[first], np.add.reduceat(counts, first) - k, k


@dataclass(frozen=True)
class _Pairs:
    """The pairs that a table keeps, self-transitions dropped: the table's
    ``indptr`` and ``targets``, marginal row included, and each kept pair's
    minority count m and majority count k. The arrays are read-only, since
    the models of a task at gamma 0, or at gammas above 0, share one."""

    indptr: np.ndarray
    targets: np.ndarray
    m: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for array_ in (self.indptr, self.targets, self.m, self.k):
            array_.flags.writeable = False


class _Task:
    """What gamma does not change in one task's estimate: the partition, the
    lengths, the minority marginal counts, and the pairs of the table at gamma
    0 and at gammas above 0, each counted the first time a gamma asks for it,
    so a gamma-0 call maps no majority document. Each minority document opens
    and closes with the stop state, so the stop row counts the opening words
    and each word occurrence starts one pair; a majority pair counts from a
    minority word to a word."""

    def __init__(self, minority_docs: tuple[tuple[str, ...], ...],
                 majority_docs: tuple[tuple[str, ...], ...]):
        part = self.partition = VocabPartition._of_checked(minority_docs, majority_docs)
        self.lengths = tuple(map(len, minority_docs))
        self._majority_docs = majority_docs
        self._index = dict(zip((*part.words, None), range(part.stop_index + 1)))
        self._minority = _pair_keys(minority_docs, self._index)
        width, n_min = len(self._index), part.n_min
        # a minority word's count is the number of minority pairs it starts
        self.marginal = np.bincount(self._minority // width, minlength=width)[:n_min].astype(float)
        self._at_zero = self._above_zero = None

    def pairs(self, gamma: float) -> _Pairs:
        """The pairs of the table at ``gamma``, counted at the first call that
        needs them."""
        if gamma > 0:
            if self._above_zero is None:
                width, stop = len(self._index), self.partition.stop_index
                majority = _pair_keys(self._majority_docs, self._index)
                from_minority = majority < self.partition.n_min * width
                self._above_zero = self._pairs(majority[from_minority & (majority % width != stop)])
            return self._above_zero
        if self._at_zero is None:
            self._at_zero = self._pairs(self._minority[:0])
        return self._at_zero

    def _pairs(self, majority: np.ndarray) -> _Pairs:
        width, n_min = len(self._index), self.partition.n_min
        keys, m, k = _pair_counts(self._minority, majority)
        sources, targets = np.divmod(keys, width)
        kept = sources != targets  # self-transitions are zeroed
        # the keys are sorted, so each state's row is one slice of the kept
        # pairs; the marginal row follows the stop state's
        indptr = np.searchsorted(sources[kept], np.arange(width + 1))
        return _Pairs(
            np.append(indptr, indptr[-1] + n_min).astype(np.intp),
            np.concatenate((targets[kept], np.arange(n_min))).astype(np.intp),
            m[kept],
            k[kept],
        )


# the last task estimated, as one (key, _Task) pair: see the module docstring
_memo: tuple = (None, None)


def estimate(
    minority_docs: Sequence[Sequence[str]],
    majority_docs: Sequence[Sequence[str]],
    gamma: float,
) -> TransitionModel:
    """Estimate the transition weight table for one oversampling task."""
    global _memo
    if not minority_docs:
        raise ValueError("minority document set is empty")
    check_documents(minority_docs, "minority document")
    check_documents(majority_docs, "majority document")
    if not all(minority_docs):
        raise ValueError("minority documents must be nonempty")
    check_real(gamma, "gamma", ge=0)
    key = (tuple(map(tuple, minority_docs)), tuple(map(tuple, majority_docs)))
    last, task = _memo  # read once: another thread may replace it
    if key != last:
        task = _Task(*key)
        _memo = key, task
    pairs, part = task.pairs(gamma), task.partition

    # m, then gamma added k times, left to right, as a loop over the majority
    # pairs adds it: m + k * gamma would round differently
    weights = pairs.m.astype(float)
    grow = np.flatnonzero(pairs.k)
    with np.errstate(over="ignore"):  # an infinite row is refused below
        for j in range(pairs.k.max()):
            grow = grow[pairs.k[grow] > j]
            weights[grow] += gamma
    table = _Table(pairs.indptr, pairs.targets, np.concatenate((weights, task.marginal)))
    infinite = np.flatnonzero(~np.isfinite(table.total[: part.n_min]))
    if len(infinite):
        raise ValueError(
            f"gamma {gamma} overflows the transition weights of word "
            f"{part.words[infinite[0]]!r} to infinity"
        )

    stop = part.stop_index
    return TransitionModel(
        partition=part,
        gamma=gamma,
        lengths=task.lengths,
        min_rows=_TableRows(table, part.n_min),
        stop_row=table.row(stop),
        marginal_row=table.row(stop + 1),
    )


def sample_document(
    model: TransitionModel,
    rng: np.random.Generator,
    length: int | None = None,
) -> list[str]:
    """Generate one synthetic document as a random walk from the stop state.

    A drawn stop token is never emitted; it just resets the current state.
    Emission continues until exactly ``length`` words have been produced;
    without a length, one is drawn from the model's lengths.
    """
    check_type(rng, "rng", np.random.Generator, "a numpy Generator")
    if length is not None:
        check_integer(length, "length")
    return _walk(model, rng, 1, length)[0]


def oversample(
    model: TransitionModel, count: int, rng: np.random.Generator
) -> list[list[str]]:
    """Draw ``count`` independent synthetic documents."""
    check_integer(count, "count")
    check_type(rng, "rng", np.random.Generator, "a numpy Generator")
    return _walk(model, rng, count)


def _walk(
    model: TransitionModel, rng: np.random.Generator, count: int, length: int | None = None
) -> list[list[str]]:
    """``count`` walked documents of ``length`` words, or each of a length
    drawn from the model's lengths right before its uniforms.

    The Python loop draws its uniforms in batches: each step emits at most one
    word, so a batch of ``n - len(doc)`` uniforms, for a document of n words,
    is never more than the walk takes."""
    if length is None:
        lengths = (int(model.lengths[rng.integers(len(model.lengths))]) for _ in range(count))
        longest = max(model.lengths, default=0)
    else:
        lengths, longest = [int(length)] * count, int(length)
    table, stop = model._table, model.partition.stop_index
    kernel = classifier.load_kernel()
    docs = []
    if kernel is None:
        indptr, targets, cumsum, total, sampling = table.lists
        words = model.partition.words
        for n in lengths:
            doc, current = [], stop
            while len(doc) < n:
                for u in rng.random(n - len(doc)).tolist():
                    r = sampling[current]
                    hi = indptr[r + 1]
                    pos = bisect_right(cumsum, u * total[r], indptr[r], hi)
                    current = targets[pos] if pos < hi else targets[hi - 1]
                    if current != stop:
                        doc.append(words[current])
            docs.append(doc)
        return docs
    import ctypes

    bits = rng.bit_generator
    draws = (ctypes.cast(bits.ctypes.next_double, ctypes.c_void_p).value,
             bits.ctypes.state_address)
    out = np.empty(longest, dtype=np.intp)
    walked = (*table.addresses, stop)
    out_p = out.ctypes.data  # taken once; out outlives the loop
    for n in lengths:
        with bits.lock:
            kernel.chain_walk(*walked, n, *draws, out_p)
        docs.append(model._words[out[:n]].tolist())
    return docs
