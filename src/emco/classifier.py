"""L2-regularized hinge-loss linear classifier (dual coordinate descent).

Objective: (1/2)(||w||^2 + b^2) + c * sum_i max(0, 1 - y_i (w.x_i + b)). The
bias acts as a constant feature of value 1 and is therefore regularized
along with the weights. The solver is the standard dual coordinate descent
for the L1-loss SVM dual; its dual objective decreases monotonically, which
is the descent property recorded per epoch. The epoch loop runs on plain
Python floats over each vector's sparse entries: rows have a few dozen
nonzeros, too few for numpy calls to pay for their overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vectorize import SparseVector, to_csr


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # per-feature weights, excluding the bias component
    bias: float
    c: float
    tol: float
    objective: float  # primal objective at termination
    dual_objective_history: tuple[float, ...] = ()
    n_epochs: int = 0


def train(
    vectors: Sequence[SparseVector],
    labels: Sequence[int],
    c: float = 1.0,
    tol: float = 1e-3,
    max_iters: int = 1000,
    n_features: int | None = None,
    seed: int = 0,
) -> LinearModel:
    """Fit the classifier; labels must be -1/+1 with both classes present."""
    y = [float(label) for label in labels]
    if not (1.0 in y and -1.0 in y):
        raise ValueError("training set must contain both classes")
    if len(vectors) != len(y):
        raise ValueError("vectors and labels length mismatch")
    if n_features is None:
        n_features = 1 + max(
            (i for vec in vectors for i, _ in vec.entries), default=-1
        )

    rows = [vec.entries for vec in vectors]
    n = len(rows)
    qii = [sum(v * v for _, v in row) + 1.0 for row in rows]  # + bias feature
    w = [0.0] * n_features
    bias = 0.0
    alpha = [0.0] * n
    rng = np.random.default_rng(seed)

    history = []
    epochs = 0
    for epoch in range(max_iters):
        epochs = epoch + 1
        max_violation = 0.0
        for i in rng.permutation(n).tolist():
            row = rows[i]
            a = alpha[i]
            g = y[i] * (sum(w[col] * v for col, v in row) + bias) - 1.0
            if a == 0.0:
                pg = min(g, 0.0)
            elif a == c:
                pg = max(g, 0.0)
            else:
                pg = g
            max_violation = max(max_violation, abs(pg))
            if pg != 0.0:
                new = min(max(a - g / qii[i], 0.0), c)
                delta = (new - a) * y[i]
                if delta != 0.0:
                    for col, v in row:
                        w[col] += delta * v
                    bias += delta
                    alpha[i] = new
        history.append(0.5 * (sum(x * x for x in w) + bias * bias) - sum(alpha))
        if max_violation <= tol:
            break

    weights = np.array(w)
    margins = to_csr(vectors, n_features) @ weights + bias
    hinge = np.maximum(0.0, 1.0 - np.array(y) * margins).sum()
    primal = 0.5 * (float(weights @ weights) + bias * bias) + c * float(hinge)

    return LinearModel(
        weights=weights,
        bias=bias,
        c=c,
        tol=tol,
        objective=primal,
        dual_objective_history=tuple(history),
        n_epochs=epochs,
    )


def decision_value(model: LinearModel, vector: SparseVector) -> float:
    dim = len(model.weights)
    total = model.bias
    for i, v in vector.entries:
        if i < dim:  # features beyond the fitted dimension contribute zero
            total += model.weights[i] * v
    return total


def predict(model: LinearModel, vector: SparseVector) -> tuple[int, float]:
    """Predicted label and decision value; an exact tie predicts +1."""
    value = decision_value(model, vector)
    return (1 if value >= 0.0 else -1), value

