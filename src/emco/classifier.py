"""L2-regularized hinge-loss linear classifier (dual coordinate descent).

Objective: (1/2)||w||^2 + c * sum_i max(0, 1 - y_i (w.x_i + b)). The bias is
handled as an augmented constant feature of value 1 and is therefore
regularized along with the weights. The solver is the standard dual
coordinate descent for the L1-loss SVM dual; its dual objective decreases
monotonically, which is the descent property recorded per epoch.
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
    labels = np.asarray(labels, dtype=float)
    if not (np.any(labels == 1) and np.any(labels == -1)):
        raise ValueError("training set must contain both classes")
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels length mismatch")
    if n_features is None:
        n_features = 1 + max(
            (i for vec in vectors for i, _ in vec.entries), default=-1
        )

    x = to_csr(vectors, n_features)
    n = x.shape[0]
    dim = n_features + 1  # augmented bias column

    qii = np.asarray(x.multiply(x).sum(axis=1)).ravel() + 1.0  # + bias feature
    w = np.zeros(dim)
    alpha = np.zeros(n)
    rng = np.random.default_rng(seed)

    indices = x.indices
    indptr = x.indptr
    data = x.data

    history = []
    epochs = 0
    for epoch in range(max_iters):
        epochs = epoch + 1
        max_violation = 0.0
        for i in rng.permutation(n):
            lo, hi = indptr[i], indptr[i + 1]
            cols = indices[lo:hi]
            vals = data[lo:hi]
            margin = float(w[cols] @ vals) + w[-1]
            g = labels[i] * margin - 1.0
            if alpha[i] == 0.0:
                pg = min(g, 0.0)
            elif alpha[i] == c:
                pg = max(g, 0.0)
            else:
                pg = g
            max_violation = max(max_violation, abs(pg))
            if pg != 0.0:
                new = min(max(alpha[i] - g / qii[i], 0.0), c)
                delta = (new - alpha[i]) * labels[i]
                if delta != 0.0:
                    w[cols] += delta * vals
                    w[-1] += delta
                    alpha[i] = new
        history.append(0.5 * float(w @ w) - float(alpha.sum()))
        if max_violation <= tol:
            break

    margins = x @ w[:-1] + w[-1]
    hinge = np.maximum(0.0, 1.0 - labels * margins).sum()
    primal = 0.5 * float(w @ w) + c * float(hinge)

    return LinearModel(
        weights=w[:-1].copy(),
        bias=float(w[-1]),
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

