"""L2-regularized hinge-loss linear classifier (dual coordinate descent).

Objective: (1/2)(||w||^2 + b^2) + c * sum_i max(0, 1 - y_i (w.x_i + b)). The
bias acts as a constant feature of value 1 and is therefore regularized
along with the weights. The solver is the standard dual coordinate descent
for the L1-loss SVM dual; its dual objective decreases monotonically, which
is the descent property recorded per epoch.

``train`` reads one ``CsrRows`` (a ``SparseVector`` list becomes one first);
``qii``, the solver and the primal all read its arrays. A training is one
call into a small C kernel, ``_dcd.c``, compiled on first use (see
``load_kernel``): the kernel runs the epochs, writes each epoch's dual value
and draws each epoch's row order from the Generator's stream itself, as
``rng.permutation`` would. Where it cannot be built, ``_python_epochs`` runs
the same loop on plain Python floats and gives the same bytes: it is the
fallback and the reference for the kernel.

Every sum in the loop (the margin, ||w||^2 and sum(alpha)) is an explicit
left-to-right ``for`` loop, and the clips are comparisons, not
``min``/``max``/``abs`` calls. Builtin ``sum()`` of floats is compensated
from Python 3.12 on, so it would round differently there; the explicit loop
rounds the same on every Python, and the kernel adds in the same order.
``qii`` is ``CsrRows.row_sums``, which adds the same way; so does
``_margins``, the one w.x + b outside the solver, with the bias first.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .vectorize import CsrRows, SparseVector, check_columns, check_integer, check_real, to_csr

log = logging.getLogger(__name__)

_KERNEL_SOURCE = Path(__file__).with_name("_dcd.c")
# -ffp-contract=off keeps a * b + c from fusing into one rounding, which
# would change the bytes; -ffast-math would too, so it is never used.
_KERNEL_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# epochs per kernel call: the default max_iters of 1000 takes one call
_DUALS_PER_CALL = 1024


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # per-feature weights, excluding the bias component
    bias: float
    objective: float  # primal objective at termination
    dual_objective_history: tuple[float, ...] = ()
    n_epochs: int = 0


def train(
    vectors: Sequence[SparseVector] | CsrRows, labels: Sequence[int], c: float = 1.0,
    tol: float = 1e-3, max_iters: int = 1000, n_features: int | None = None, seed: int = 0,
) -> LinearModel:
    """Fit the classifier; labels must be -1/+1 with both classes present,
    every feature index below ``n_features`` and every value finite."""
    check_real(c, "c", gt=0)
    check_real(tol, "tol", gt=0)
    check_integer(max_iters, "max_iters", 1)
    if n_features is not None:
        check_integer(n_features, "n_features")
    check_integer(seed, "seed")
    if not {bool, np.bool_}.isdisjoint(map(type, labels)):
        flag = next(label for label in labels if isinstance(label, (bool, np.bool_)))
        raise ValueError(f"labels must be -1 or +1, got {flag}")
    y = np.array(labels, dtype=float)  # a contiguous copy, which the kernel reads
    wrong = (y != 1.0) & (y != -1.0)
    if wrong.any():
        raise ValueError(f"labels must be -1 or +1, got {y[wrong][0]:g}")
    if not ((y == 1.0).any() and (y == -1.0).any()):
        raise ValueError("training set must contain both classes")
    if len(vectors) != len(y):
        raise ValueError("vectors and labels length mismatch")
    rows = to_csr(vectors)
    indices, data = rows.indices, rows.data
    if n_features is None:
        n_features = int(indices.max(initial=-1)) + 1
    check_columns(indices, n_features)
    check_real(data, "feature values")

    qii = rows.row_sums(data * data) + 1.0  # + the bias
    solve = _python_epochs if load_kernel() is None else _compiled_epochs
    weights, bias, history = solve(
        rows, y, qii, c, tol, max_iters, n_features, np.random.default_rng(seed)
    )

    hinge = np.maximum(0.0, 1.0 - y * _margins(rows, weights, bias)).sum()
    primal = 0.5 * (float(weights @ weights) + bias * bias) + c * float(hinge)

    return LinearModel(
        weights=weights,
        bias=bias,
        objective=primal,
        dual_objective_history=tuple(history),
        n_epochs=len(history),
    )


def _python_epochs(csr, y, qii, c, tol, max_iters, n_features, rng):
    """The epoch loop on Python floats over ``CsrRows``; returns (weights,
    bias, dual history). Each epoch visits the rows in the order of
    ``rng.permutation`` and stops once the max violation is at most ``tol``."""
    indptr, indices, data = (a.tolist() for a in (csr.indptr, csr.indices, csr.data))
    rows = [tuple(zip(indices[s:e], data[s:e])) for s, e in zip(indptr, indptr[1:])]
    y, qii = y.tolist(), qii.tolist()
    n = len(rows)
    w = [0.0] * n_features
    bias = 0.0
    alpha = [0.0] * n
    history = []
    for _ in range(max_iters):
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
    return np.array(w), bias, history


def _compiled_epochs(csr, y, qii, c, tol, max_iters, n_features, rng):
    """``_python_epochs`` as one kernel call per training, on the arrays of
    ``csr`` as they are. The kernel draws each epoch's order from ``rng``'s
    own stream, as ``rng.permutation`` would, and writes the dual values into
    a buffer of ``_DUALS_PER_CALL`` epochs; a training longer than that takes
    one more call per buffer."""
    import ctypes

    kernel = load_kernel()
    n = len(y)
    w = np.zeros(n_features)
    alpha = np.zeros(n)
    order = np.empty(n, dtype=np.intp)
    duals = np.empty(min(max_iters, _DUALS_PER_CALL))
    bias, violation = ctypes.c_double(0.0), ctypes.c_double(0.0)
    bits = rng.bit_generator
    draws = (ctypes.cast(bits.ctypes.next_uint32, ctypes.c_void_p).value,
             bits.ctypes.state_address)
    # these arrays and the caller's outlive the calls
    fixed = [a.ctypes.data for a in (csr.indptr, csr.indices, csr.data, y, qii)]
    written = [order.ctypes.data, w.ctypes.data, ctypes.byref(bias), alpha.ctypes.data,
               duals.ctypes.data, ctypes.byref(violation)]
    history = []
    while True:
        epochs = min(len(duals), max_iters - len(history))
        with bits.lock:
            ran = kernel.dcd_epochs(*fixed, n, n_features, c, tol, epochs, *draws, *written)
        history += duals[:ran].tolist()
        if violation.value <= tol or len(history) == max_iters:
            return w, bias.value, history


@functools.cache
def load_kernel():
    """The compiled kernel, a ``ctypes.CDLL`` of ``_dcd.c``, or None after one
    warning when it cannot be built or loaded. It runs the solver's epochs and
    the chain's running sums and walk (``chain.py``).

    The first call on a machine compiles the source with ``cc`` into
    ``$XDG_CACHE_HOME/emco`` (else ``~/.cache/emco``), under a name keyed by
    the sha256 of the source, the platform and the compiler flags; later
    calls load that file.
    """
    import ctypes

    try:
        build = " ".join((sys.platform, platform.machine(), *_KERNEL_FLAGS))
        key = hashlib.sha256(_KERNEL_SOURCE.read_bytes() + build.encode()).hexdigest()
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "emco"
        path = cache / f"_dcd-{key[:16]}.so"
        if not path.exists():
            _compile_kernel(path)
        kernel = ctypes.CDLL(str(path))
    except (OSError, RuntimeError) as error:
        log.warning(
            "compiled kernel unavailable, training runs the Python loop and the chain "
            "walks in Python: %s", error,
        )
        return None
    pointer, size, real = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
    out = ctypes.POINTER(real)
    kernel.dcd_epochs.argtypes = (
        [pointer] * 5 + [size, size, real, real, size] + [pointer] * 4 + [out, pointer, pointer, out]
    )
    kernel.dcd_epochs.restype = size
    kernel.row_cumsum.argtypes = [pointer, pointer, size, pointer]
    kernel.row_cumsum.restype = None
    kernel.chain_walk.argtypes = [pointer] * 5 + [size, size, pointer, pointer, pointer]
    kernel.chain_walk.restype = None
    return kernel


def _compile_kernel(path: Path) -> None:
    """Compile ``_dcd.c`` to ``path``. The library is written to a temporary
    file and renamed into place, so concurrent runs never load a partial one;
    a failed compile raises ``OSError``."""
    import subprocess  # about 0.3 MB, so imported only to compile
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    handle, partial = tempfile.mkstemp(dir=path.parent, prefix="_dcd-", suffix=".tmp")
    os.close(handle)
    try:
        result = subprocess.run(
            ["cc", *_KERNEL_FLAGS, "-o", partial, str(_KERNEL_SOURCE)],
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            detail = result.stderr.strip().splitlines()
            raise OSError(
                f"cc exited with status {result.returncode}"
                + (f": {detail[0]}" if detail else "")
            )
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def _margins(rows: CsrRows, weights: np.ndarray, bias: float) -> np.ndarray:
    """w.x + b of each row as a loop adds it: the bias first, then the row's
    products left to right; features at or beyond ``len(weights)`` add nothing."""
    n, indices = len(rows), rows.indices
    inside = indices < len(weights)
    bins = np.concatenate([np.arange(n), rows.entry_rows()[inside]])
    terms = np.concatenate([np.full(n, bias), rows.data[inside] * weights[indices[inside]]])
    return np.bincount(bins, weights=terms, minlength=n)


def score(model: LinearModel, rows: CsrRows) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and decision values of ``rows``; an exact tie
    predicts +1."""
    values = _margins(rows, model.weights, model.bias)
    return np.where(values >= 0.0, 1, -1), values


def predict(model: LinearModel, vector: SparseVector) -> tuple[int, float]:
    """Predicted label and decision value of one vector, as ``score`` gives."""
    labels, values = score(model, to_csr([vector]))
    return int(labels[0]), float(values[0])
