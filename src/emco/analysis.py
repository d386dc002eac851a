"""Vocabulary-growth curves, power-law fitting, and synthetic-vocabulary
expansion evaluation.

The power-law fit (T = k * A^theta) is ordinary least squares on the log-log
points, which is closed-form and reproducible.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .chain import VocabPartition
from .metrics import ConfusionCounts, write_rows_csv
from .vectorize import check_integer


@dataclass(frozen=True)
class GrowthPoint:
    total_words: int
    vocab_size: int
    new_words_known_in_majority: int | None = None


@dataclass(frozen=True)
class HeapsFit:
    k: float
    theta: float
    r2: float


@dataclass(frozen=True)
class VocabExpansionReport:
    """Majority-only words scored as a binary prediction problem.

    A word is an actual positive when it appears in the minority test
    documents and a predicted positive when it appears in the synthetic
    documents. Metrics are None when undefined (e.g. no actual positives).
    """

    counts: ConfusionCounts
    recall: float | None
    tnr: float | None
    ba: float | None
    new_synthetic_words: int
    empty: bool = False


def growth_curve(
    documents: Sequence[Sequence[str]],
    step: int,
    majority_vocab: set[str] | None = None,
    shuffle_seed: int | None = None,
) -> list[GrowthPoint]:
    """Cumulative word and vocabulary counts, adding ``step`` docs at a time.

    With ``majority_vocab`` given, each point also counts how many of the
    words new since the previous point already exist in that vocabulary.
    """
    check_integer(step, "step", 1)
    docs = list(documents)
    if shuffle_seed is not None:
        check_integer(shuffle_seed, "shuffle_seed")
        rng = np.random.default_rng(shuffle_seed)
        docs = [docs[i] for i in rng.permutation(len(docs))]

    points = []
    seen: set[str] = set()
    total = 0
    for start in range(0, len(docs), step):
        new_words: set[str] = set()
        for doc in docs[start : start + step]:
            total += len(doc)
            for word in doc:
                if word not in seen:
                    seen.add(word)
                    new_words.add(word)
        known = (
            len(new_words & majority_vocab) if majority_vocab is not None else None
        )
        points.append(
            GrowthPoint(
                total_words=total,
                vocab_size=len(seen),
                new_words_known_in_majority=known,
            )
        )
    return points


def fit_heaps(points: Sequence[GrowthPoint]) -> HeapsFit:
    """OLS fit of ln T on ln A; theta is the slope, k = exp(intercept)."""
    for p in points:
        check_integer(p.total_words, "total_words", 1)
        check_integer(p.vocab_size, "vocab_size", 1)
    a = np.array([p.total_words for p in points], dtype=float)
    t = np.array([p.vocab_size for p in points], dtype=float)
    if len(a) < 2 or len(set(a.tolist())) < 2:
        raise ValueError("need at least two points with distinct word counts")
    log_a = np.log(a)
    log_t = np.log(t)
    theta, intercept = np.polyfit(log_a, log_t, 1)
    fitted = theta * log_a + intercept
    ss_res = float(np.sum((log_t - fitted) ** 2))
    ss_tot = float(np.sum((log_t - log_t.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return HeapsFit(k=float(np.exp(intercept)), theta=float(theta), r2=r2)


def vocab_expansion_eval(
    synthetic_docs: Sequence[Sequence[str]],
    partition: VocabPartition,
    minority_test_docs: Sequence[Sequence[str]],
) -> VocabExpansionReport:
    """Score how well synthetic vocabulary growth predicts the true growth."""
    v_min = set(partition.v_min)
    v_maj_only = set(partition.v_maj_only)
    synthetic_vocab = {w for doc in synthetic_docs for w in doc}
    test_vocab = {w for doc in minority_test_docs for w in doc}
    new_words = len(synthetic_vocab - v_min)

    counts = ConfusionCounts.from_predictions(
        [int(word in test_vocab) for word in v_maj_only],
        [int(word in synthetic_vocab) for word in v_maj_only],
    )
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    recall = tp / (tp + fn) if tp + fn else None
    tnr = tn / (tn + fp) if tn + fp else None
    ba = (recall + tnr) / 2 if recall is not None and tnr is not None else None
    return VocabExpansionReport(
        counts=counts,
        recall=recall,
        tnr=tnr,
        ba=ba,
        new_synthetic_words=new_words,
        empty=not v_maj_only,
    )


def write_curve_csv(path: str | Path, points: Iterable[GrowthPoint]) -> None:
    """Columns A, T and new_known_in_majority; a None count is left empty."""
    columns = ("A", "T", "new_known_in_majority")
    write_rows_csv(path, (dict(zip(columns, astuple(p))) for p in points), columns)


def write_fit_json(path: str | Path, fit: HeapsFit) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"k": fit.k, "theta": fit.theta, "r2": fit.r2}, handle, indent=2)
        handle.write("\n")
