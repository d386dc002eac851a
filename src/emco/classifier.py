"""L2-regularized hinge-loss linear classifier (dual coordinate descent).

Objective: (1/2)(||w||^2 + b^2) + c * sum_i max(0, 1 - y_i (w.x_i + b)). The
bias acts as a constant feature of value 1 and is therefore regularized
along with the weights. The solver is the standard dual coordinate descent
for the L1-loss SVM dual; its dual objective decreases monotonically, which
is the descent property recorded per epoch. The epoch loop runs on plain
Python floats over each vector's sparse entries: rows have a few dozen
nonzeros, too few for numpy calls to pay for their overhead.

Every sum in the loop (the margin, ``qii``, ||w||^2 and sum(alpha)) is an
explicit left-to-right ``for`` loop, and the clips are comparisons, not
``min``/``max``/``abs`` calls. Builtin ``sum()`` of floats is compensated
from Python 3.12 on, so it would round differently there; the explicit loop
rounds the same on every Python. A coordinate step then makes no generator
and no builtin call, which roughly halves the solver's time.
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
    qii = []
    for row in rows:
        q = 0.0
        for _, v in row:
            q += v * v
        qii.append(q + 1.0)  # + the bias feature
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
            yi = y[i]
            m = 0.0
            for col, v in row:
                m += w[col] * v
            g = yi * (m + bias) - 1.0
            # Projected gradient: min(g, 0) at the lower bound, max(g, 0) at c.
            a = alpha[i]
            pg = g
            if a == 0.0:
                if g > 0.0:
                    pg = 0.0
            elif a == c:
                if g < 0.0:
                    pg = 0.0
            # max_violation >= 0, so these two tests take max(it, |pg|).
            if pg > max_violation:
                max_violation = pg
            elif -pg > max_violation:
                max_violation = -pg
            if pg != 0.0:
                new = a - g / qii[i]  # then clipped to [0, c]
                if new < 0.0:
                    new = 0.0
                if new > c:
                    new = c
                delta = (new - a) * yi
                if delta != 0.0:
                    for col, v in row:
                        w[col] += delta * v
                    bias += delta
                    alpha[i] = new
        w_sq = 0.0
        for x in w:
            w_sq += x * x
        alpha_sum = 0.0
        for a in alpha:
            alpha_sum += a
        history.append(0.5 * (w_sq + bias * bias) - alpha_sum)
        if max_violation <= tol:
            break

    weights = np.array(w)
    indptr, indices, data = to_csr(vectors)
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    margins = np.bincount(row_of, weights=data * weights[indices], minlength=n) + bias
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

