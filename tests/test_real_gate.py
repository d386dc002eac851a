"""Every real-valued argument of the library goes through
``vectorize.check_real``: a bool, a string or None is refused with the type
message, and NaN or a number out of range with the range message, each one
``ValueError`` line naming the argument. Arrays of feature values and weights
are cast to float where they come in, so only their values are checked. A new
call site joins by adding a row to ``SCALARS`` or ``ARRAYS``."""

import numpy as np
import pytest

from emco import baselines, chain, classifier, corpus, harness
from emco.vectorize import CsrRows, check_real

ROWS = CsrRows.from_dense(np.eye(4))
INDEX = baselines.NeighborIndex(np.eye(4))


def train(**kwargs):
    classifier.train(ROWS, [1, -1, 1, -1], **kwargs)


def config(key, value):
    harness.ExperimentConfig(corpus_path="corpus.jsonl", **{key: value})


def gate(argument, call, out_of_range, range_message, type_message=None):
    """One row: the call with the value, a value out of range and its message.
    ``type_message`` gives the message for a value of the wrong type; by
    default it is the gate's own."""
    name = range_message.split(" must be ")[0]
    type_message = type_message or (lambda value: f"{name} must be a real number, got {value!r}")
    return pytest.param(call, out_of_range, range_message, type_message, id=argument)


def config_type(key, description):
    """``ExperimentConfig`` checks the JSON type first, in its own words."""
    return lambda value: f"config key {key!r} must be {description}, got {type(value).__name__}"


SCALARS = [
    gate("chain.estimate gamma", lambda v: chain.estimate([["a"]], [["b"]], v),
         -0.5, "gamma must be finite and >= 0, got -0.5"),
    gate("train c", lambda v: train(c=v), 0, "c must be finite and > 0, got 0"),
    gate("train tol", lambda v: train(tol=v), -1.0, "tol must be finite and > 0, got -1.0"),
    gate("synthetic_count ratio", lambda v: harness.synthetic_count(10, 1, v),
         1, "sampling ratio must be in (0, 1), got 1"),
    gate("build_ovr_tasks sampling_ratio", lambda v: corpus.build_ovr_tasks([], v),
         0.0, "sampling ratio must be in (0, 1), got 0.0"),
    gate("ExperimentConfig c", lambda v: config("c", v),
         -1, "config key 'c' must be finite and > 0, got -1", config_type("c", "a number")),
    gate("ExperimentConfig tol", lambda v: config("tol", v),
         0.0, "config key 'tol' must be finite and > 0, got 0.0", config_type("tol", "a number")),
    gate("ExperimentConfig gammas", lambda v: config("gammas", [1.0, v]),
         -2.0, "config key 'gammas' must be finite and >= 0, got -2.0",
         config_type("gammas", "a list of numbers")),
    gate("ExperimentConfig sampling_ratios", lambda v: config("sampling_ratios", [v]),
         1.5, "config key 'sampling_ratios' must be in (0, 1), got 1.5",
         config_type("sampling_ratios", "a list of numbers")),
]

ARRAYS = [
    gate("train feature values",
         lambda v: classifier.train(CsrRows([0, 1, 2], [0, 1], [1.0, v]), [1, -1]),
         np.inf, "feature values must be finite, got inf"),
    gate("NeighborIndex sparse feature values",
         lambda v: baselines.NeighborIndex(CsrRows([0, 1, 2], [0, 1], [1.0, v]), 2),
         -np.inf, "feature values must be finite, got -inf"),
    gate("NeighborIndex dense feature values",
         lambda v: baselines.NeighborIndex(np.array([[1.0, 0.0], [0.0, v]])),
         np.inf, "feature values must be finite, got inf"),
    gate("NeighborIndex.query target", lambda v: INDEX.query(np.array([0.0, v, 0.0, 0.0]), 1),
         np.inf, "feature values must be finite, got inf"),
    gate("largest_remainder weights",
         lambda v: baselines.largest_remainder(np.array([v, 2.0]), 3),
         -1.0, "weights must be finite and >= 0, got -1.0"),
]


@pytest.mark.parametrize("call, out_of_range, range_message, type_message", SCALARS)
@pytest.mark.parametrize("value", [True, "0.2", None])
def test_non_real_is_one_line(call, out_of_range, range_message, type_message, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == type_message(value)


@pytest.mark.parametrize("call, out_of_range, range_message, type_message", SCALARS + ARRAYS)
def test_nan_is_one_line(call, out_of_range, range_message, type_message):
    with pytest.raises(ValueError) as exc:
        call(float("nan"))
    assert str(exc.value) == range_message.rsplit(", got ", 1)[0] + ", got nan"


@pytest.mark.parametrize("call, out_of_range, range_message, type_message", SCALARS + ARRAYS)
def test_out_of_range_is_one_line(call, out_of_range, range_message, type_message):
    with pytest.raises(ValueError) as exc:
        call(out_of_range)
    assert str(exc.value) == range_message


@pytest.mark.parametrize("value", [1j, np.True_, np.array(["0.2"]), np.array([1 + 0j])])
def test_check_real_refuses_what_is_not_real(value):
    with pytest.raises(ValueError, match="^x must be a real number, got "):
        check_real(value, "x")


def test_check_real_takes_numpy_numbers_and_arrays():
    check_real(np.float32(0.5), "x", gt=0, lt=1)
    check_real(np.int64(3), "x", ge=0)
    check_real(np.arange(3), "x", ge=0)
    check_real(np.zeros((2, 0)), "x")
    with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got -2.0$"):
        check_real(np.array([[0.0, 1.0], [-2.0, -3.0]]), "x", ge=0)
