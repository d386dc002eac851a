import csv

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from emco import metrics
from emco.metrics import ConfusionCounts

CONTAINERS = st.sampled_from([list, tuple, np.array, lambda v: np.array(v, dtype=float)])


def reference_from_predictions(y_true, y_pred):
    """The label-by-label loop that ``from_predictions`` replaced."""
    tp = fp = tn = fn = 0
    for truth, pred in zip(y_true, y_pred):
        if truth == 1:
            if pred == 1:
                tp += 1
            else:
                fn += 1
        else:
            if pred == 1:
                fp += 1
            else:
                tn += 1
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


class TestConfusionCounts:
    def test_from_predictions(self):
        y_true = [1, 1, -1, -1, -1, 1]
        y_pred = [1, -1, -1, 1, -1, 1]
        counts = ConfusionCounts.from_predictions(y_true, y_pred)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 1, 2, 1)
        assert counts.total == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ConfusionCounts.from_predictions([1], [1, -1])

    @pytest.mark.parametrize("y_true, y_pred, shapes", [
        ([[1, 1]], [[1, -1]], "(1, 2) and (1, 2)"),
        (np.ones((2, 2)), -np.ones((2, 2)), "(2, 2) and (2, 2)"),
        (np.ones((2, 1)), [1, -1], "(2, 1) and (2,)"),
    ])
    def test_labels_that_are_not_one_dimensional_rejected(self, y_true, y_pred, shapes):
        with pytest.raises(ValueError) as exc:
            ConfusionCounts.from_predictions(y_true, y_pred)
        assert str(exc.value) == f"labels must be one-dimensional, got shapes {shapes}"

    @given(st.data(), st.sampled_from([(-1, 1), (0, 1)]), CONTAINERS, CONTAINERS)
    def test_counts_as_the_label_loop(self, data, labels, wrap_true, wrap_pred):
        y_true = data.draw(st.lists(st.sampled_from(labels), max_size=30))
        y_pred = data.draw(st.lists(st.sampled_from(labels), min_size=len(y_true), max_size=len(y_true)))
        got = ConfusionCounts.from_predictions(wrap_true(y_true), wrap_pred(y_pred))
        assert repr(got) == repr(reference_from_predictions(y_true, y_pred))

    @given(st.lists(st.sampled_from([-1, 1])), st.lists(st.sampled_from([-1, 1])), CONTAINERS, CONTAINERS)
    def test_length_mismatch_for_every_container(self, y_true, y_pred, wrap_true, wrap_pred):
        assume(len(y_true) != len(y_pred))
        with pytest.raises(ValueError, match="^length mismatch$"):
            ConfusionCounts.from_predictions(wrap_true(y_true), wrap_pred(y_pred))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


class TestComputeMetrics:
    def test_hand_oracle(self):
        # tp=1 fp=1 tn=8 fn=0: recall 1, tnr 8/9, precision 1/2
        got = metrics.compute_metrics(ConfusionCounts(1, 1, 8, 0))
        assert got["recall"] == pytest.approx(1.0)
        assert got["tnr"] == pytest.approx(8 / 9)
        assert got["precision"] == pytest.approx(0.5)
        assert got["ba"] == pytest.approx((1 + 8 / 9) / 2)
        assert got["f1"] == pytest.approx(2 * 0.5 * 1 / (0.5 + 1))
        assert got["f2"] == pytest.approx(5 * 0.5 * 1 / (4 * 0.5 + 1))

    def test_all_negative_predictions(self):
        got = metrics.compute_metrics(ConfusionCounts(0, 0, 5, 3))
        assert got["precision"] == 0.0
        assert got["recall"] == 0.0
        assert got["f1"] == 0.0
        assert got["f2"] == 0.0
        assert got["ba"] == pytest.approx(0.5)

    def test_perfect_classifier(self):
        got = metrics.compute_metrics(ConfusionCounts(4, 0, 6, 0))
        assert all(got[m] == 1.0 for m in metrics.METRIC_NAMES)

    def test_requires_both_observed_classes(self):
        with pytest.raises(ValueError):
            metrics.compute_metrics(ConfusionCounts(0, 1, 1, 0))
        with pytest.raises(ValueError):
            metrics.compute_metrics(ConfusionCounts(1, 0, 0, 0))

    @given(
        st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)
    )
    def test_all_metrics_in_unit_interval(self, tp, fp, tn, fn):
        if tp + fn == 0 or tn + fp == 0:
            return
        got = metrics.compute_metrics(ConfusionCounts(tp, fp, tn, fn))
        for name in metrics.METRIC_NAMES:
            assert 0.0 <= got[name] <= 1.0

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_f1_symmetric_in_precision_recall(self, p, r):
        assert metrics.fbeta(p, r, 1.0) == pytest.approx(metrics.fbeta(r, p, 1.0))

    def test_f2_weights_recall(self):
        high_recall = metrics.fbeta(0.2, 0.8, 2.0)
        high_precision = metrics.fbeta(0.8, 0.2, 2.0)
        assert high_recall > high_precision


class TestBands:
    def test_threshold(self):
        assert metrics.band_of(0.0149) == "very_low"
        assert metrics.band_of(0.015) == "low"
        assert metrics.band_of(0.08) == "low"


def row(category, **values):
    base = {m: 0.0 for m in metrics.METRIC_NAMES}
    base.update(values)
    base["category"] = category
    return base


class TestMacroAverage:
    def test_repetitions_before_categories(self):
        # category a has two repetitions (0.2, 0.4 -> 0.3); category b one (0.9)
        rows = [
            row("a", recall=0.2),
            row("a", recall=0.4),
            row("b", recall=0.9),
        ]
        got = metrics.macro_average(rows, {"a": 0.05, "b": 0.05})
        assert got["low"]["recall"] == pytest.approx((0.3 + 0.9) / 2)
        assert got["low"]["n_categories"] == 2

    def test_bands_are_separated(self):
        rows = [row("tiny", ba=0.6), row("small", ba=0.8)]
        got = metrics.macro_average(rows, {"tiny": 0.01, "small": 0.05})
        assert got["very_low"]["ba"] == pytest.approx(0.6)
        assert got["low"]["ba"] == pytest.approx(0.8)
        assert got["very_low"]["n_categories"] == 1

    def test_unweighted_across_categories(self):
        # category sizes (rep counts) must not weight the category average
        rows = [row("a", f1=1.0)] * 10 + [row("b", f1=0.0)]
        got = metrics.macro_average(rows, {"a": 0.05, "b": 0.05})
        assert got["low"]["f1"] == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.macro_average([], {})

    def test_category_without_frequency_is_one_line(self):
        with pytest.raises(ValueError) as exc:
            metrics.macro_average([row("a"), row("x")], {"a": 0.05})
        assert str(exc.value) == "category 'x' has no training frequency"


def test_write_rows_csv(tmp_path):
    rows = [
        {
            "dataset": "mini", "category": "low", "method": "emco(gamma=1)",
            "gamma": 1.0, "sampling_ratio": 0.2, "repetition": 0,
            "tp": 1, "fp": 1, "tn": 8, "fn": 0,
            "recall": 1.0, "tnr": 0.888888888888889, "precision": 0.5,
            "ba": 0.9444444444444444, "f1": 0.6666666666666666,
            "f2": 0.5555555555555556,
        }
    ]
    path = tmp_path / "results.csv"
    metrics.write_rows_csv(path, rows)
    with open(path, newline="") as handle:
        parsed = list(csv.DictReader(handle))
    assert parsed[0]["category"] == "low"
    assert list(parsed[0]) == list(metrics.CSV_COLUMNS)
    assert float(parsed[0]["f2"]) == pytest.approx(0.5556, abs=1e-4)


def test_write_aggregate_json(tmp_path):
    path = tmp_path / "agg.json"
    metrics.write_aggregate_json(path, {"b": 1, "a": {"x": 2.0}})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')  # stable key order
