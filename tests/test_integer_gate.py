"""Every count, index and size argument of the library goes through
``vectorize.check_integer``: a bool, a float or a string is refused with the
type message, and an integer out of range with the range message, each one
``ValueError`` line naming the argument. A new call site joins by adding a row
to ``GATED``."""

import numpy as np
import pytest

from emco import analysis, baselines, chain, classifier, harness, metrics
from emco.vectorize import CsrRows

MODEL = chain.estimate([["a", "b"], ["b", "a"]], [["b", "c", "a"]], 1.0)  # stop index 3
ROWS = CsrRows.from_dense(np.eye(4))
MAJORITY = CsrRows.from_dense(np.ones((1, 4)))
INDEX = baselines.NeighborIndex(np.eye(4))
COUNTS = {"tp": 1, "fp": 1, "tn": 1, "fn": 1}


def rng():
    return np.random.default_rng(0)


def train(**kwargs):
    classifier.train(ROWS, [1, -1, 1, -1], **kwargs)


# (argument, call with the value, an integer out of range, its message)
GATED = [
    ("chain.oversample count", lambda v: chain.oversample(MODEL, v, rng()),
     -1, "count must be >= 0, got -1"),
    ("chain.sample_document length", lambda v: chain.sample_document(MODEL, rng(), v),
     -1, "length must be >= 0, got -1"),
    ("TransitionModel.row state", lambda v: MODEL.row(v),
     4, "state must be in [0, 3], got 4"),
    ("TransitionModel.stored_row state", lambda v: MODEL.stored_row(v),
     -1, "state must be in [0, 3], got -1"),
    ("TransitionModel.weight i", lambda v: MODEL.weight(v, 0),
     4, "state must be in [0, 3], got 4"),
    ("TransitionModel.weight j", lambda v: MODEL.weight(0, v),
     4, "state must be in [0, 3], got 4"),
    ("train max_iters", lambda v: train(max_iters=v),
     0, "max_iters must be >= 1, got 0"),
    ("train n_features", lambda v: train(n_features=v),
     -1, "n_features must be >= 0, got -1"),
    ("train seed", lambda v: train(seed=v),
     -1, "seed must be >= 0, got -1"),
    ("ros count", lambda v: baselines.ros(ROWS, v, rng()),
     -1, "count must be >= 0, got -1"),
    ("smote count", lambda v: baselines.smote(ROWS, v, 2, rng(), 4),
     -1, "count must be >= 0, got -1"),
    ("smote k", lambda v: baselines.smote(ROWS, 3, v, rng(), 4),
     0, "k must be >= 1, got 0"),
    ("smote n_features", lambda v: baselines.smote(ROWS, 3, 2, rng(), v),
     -1, "n_features must be >= 0, got -1"),
    ("adasyn count", lambda v: baselines.adasyn(ROWS, MAJORITY, v, 2, rng(), 4),
     -1, "count must be >= 0, got -1"),
    ("adasyn k", lambda v: baselines.adasyn(ROWS, MAJORITY, 3, v, rng(), 4),
     0, "k must be >= 1, got 0"),
    ("NeighborIndex n_features", lambda v: baselines.NeighborIndex(ROWS, v),
     -1, "n_features must be >= 0, got -1"),
    ("NeighborIndex.query k", lambda v: INDEX.query(np.ones(4), v),
     -1, "k must be >= 0, got -1"),
    ("NeighborIndex.query exclude", lambda v: INDEX.query(np.ones(4), 2, exclude=v),
     4, "exclude must be in [-4, 3], got 4"),
    ("largest_remainder total", lambda v: baselines.largest_remainder(np.ones(3), v),
     -1, "total must be >= 0, got -1"),
    ("growth_curve step", lambda v: analysis.growth_curve([["a"]], v),
     0, "step must be >= 1, got 0"),
    ("growth_curve shuffle_seed", lambda v: analysis.growth_curve([["a"]], 1, shuffle_seed=v),
     -1, "shuffle_seed must be >= 0, got -1"),
    ("fit_heaps total_words",
     lambda v: analysis.fit_heaps([analysis.GrowthPoint(v, 1), analysis.GrowthPoint(10, 3)]),
     0, "total_words must be >= 1, got 0"),
    ("fit_heaps vocab_size",
     lambda v: analysis.fit_heaps([analysis.GrowthPoint(1, v), analysis.GrowthPoint(10, 3)]),
     0, "vocab_size must be >= 1, got 0"),
    ("synthetic_count n_train", lambda v: harness.synthetic_count(v, 0, 0.2),
     0, "training count must be >= 1, got 0"),
    ("synthetic_count m_minority", lambda v: harness.synthetic_count(5, v, 0.2),
     6, "minority count must be in [0, 5], got 6"),
    *[
        (f"ConfusionCounts {field}",
         lambda v, field=field: metrics.ConfusionCounts(**{**COUNTS, field: v}),
         -1, f"{field} must be >= 0, got -1")
        for field in COUNTS
    ],
]


GATED_ROWS = pytest.mark.parametrize(
    "call, out_of_range, range_message", [row[1:] for row in GATED], ids=[row[0] for row in GATED]
)


@GATED_ROWS
@pytest.mark.parametrize("value", [True, 2.5, "3"])
def test_non_integer_is_one_line(call, out_of_range, range_message, value):
    name = range_message.split(" must be ")[0]
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be an integer, got {value!r}"


@GATED_ROWS
def test_out_of_range_integer_is_one_line(call, out_of_range, range_message):
    with pytest.raises(ValueError) as exc:
        call(out_of_range)
    assert str(exc.value) == range_message

