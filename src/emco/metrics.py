"""Confusion-count statistics, F-beta scores, and banded macro averaging."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .vectorize import check_integer

VERY_LOW_BAND_THRESHOLD = 0.015  # training relative frequency below this

METRIC_NAMES = ("recall", "tnr", "precision", "ba", "f1", "f2")

CSV_COLUMNS = (
    "dataset", "category", "method", "gamma", "sampling_ratio", "repetition",
    "tp", "fp", "tn", "fn", "recall", "tnr", "precision", "ba", "f1", "f2",
)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            check_integer(getattr(self, name), name)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @staticmethod
    def from_predictions(
        y_true: Sequence[int], y_pred: Sequence[int]
    ) -> "ConfusionCounts":
        if len(y_true) != len(y_pred):
            raise ValueError("length mismatch")
        truth, pred = np.asarray(y_true) == 1, np.asarray(y_pred) == 1
        if truth.ndim != 1 or pred.ndim != 1:
            raise ValueError(
                f"labels must be one-dimensional, got shapes {truth.shape} and {pred.shape}"
            )
        tp, n_true, n_pred = map(int, map(np.count_nonzero, (truth & pred, truth, pred)))
        return ConfusionCounts(
            tp=tp, fp=n_pred - tp, tn=len(truth) - n_true - n_pred + tp, fn=n_true - tp
        )


def fbeta(precision: float, recall: float, beta: float) -> float:
    """F-beta score; returns 0 when the denominator vanishes."""
    denom = beta * beta * precision + recall
    if denom == 0.0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


def compute_metrics(counts: ConfusionCounts) -> dict[str, float]:
    """Recall, tnr, precision, balanced accuracy, F1, and F2.

    Precision is defined as zero when there are no positive predictions.
    Requires at least one actual positive and one actual negative.
    """
    if counts.tp + counts.fn < 1:
        raise ValueError("no positive observations: recall undefined")
    if counts.tn + counts.fp < 1:
        raise ValueError("no negative observations: tnr undefined")
    recall = counts.tp / (counts.tp + counts.fn)
    tnr = counts.tn / (counts.tn + counts.fp)
    if counts.tp + counts.fp == 0:
        precision = 0.0
    else:
        precision = counts.tp / (counts.tp + counts.fp)
    return {
        "recall": recall,
        "tnr": tnr,
        "precision": precision,
        "ba": (recall + tnr) / 2.0,
        "f1": fbeta(precision, recall, 1.0),
        "f2": fbeta(precision, recall, 2.0),
    }


def band_of(frequency: float) -> str:
    return "very_low" if frequency < VERY_LOW_BAND_THRESHOLD else "low"


def macro_average(
    rows: Sequence[Mapping], frequencies: Mapping[str, float]
) -> dict[str, dict[str, float]]:
    """Banded macro averages over per-run metric rows.

    Rows are grouped by category and averaged over repetitions first, then
    categories are averaged unweighted within each frequency band.
    ``frequencies`` maps category name to its training relative frequency.
    """
    if not rows:
        raise ValueError("no rows to aggregate")
    per_category: dict[str, list[Mapping]] = {}
    for row in rows:
        per_category.setdefault(row["category"], []).append(row)

    band_values: dict[str, dict[str, list[float]]] = {}
    band_counts: dict[str, int] = {}
    for category, cat_rows in per_category.items():
        if category not in frequencies:
            raise ValueError(f"category {category!r} has no training frequency")
        band = band_of(frequencies[category])
        dest = band_values.setdefault(band, {m: [] for m in METRIC_NAMES})
        band_counts[band] = band_counts.get(band, 0) + 1
        for metric in METRIC_NAMES:
            dest[metric].append(_mean([r[metric] for r in cat_rows]))

    out = {}
    for band, values in band_values.items():
        out[band] = {m: _mean(vals) for m, vals in values.items()}
        out[band]["n_categories"] = band_counts[band]
    return out


def _mean(values: Sequence[float]) -> float:
    """Mean summed left to right, so it rounds the same on every Python
    (builtin ``sum()`` of floats is compensated from 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def write_rows_csv(
    path: str | Path, rows: Iterable[Mapping], columns: Sequence[str] = CSV_COLUMNS
) -> None:
    """Rows as CSV with a fixed column layout, by default the per-run one."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})


def write_aggregate_json(path: str | Path, aggregate: Mapping) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(aggregate, handle, indent=2, sort_keys=True)
        handle.write("\n")
