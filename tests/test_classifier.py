import functools
import operator
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from emco import classifier
from emco.vectorize import CsrRows, SparseVector, to_csr


def sv(*dense):
    return SparseVector.from_dense(np.asarray(dense, dtype=float))


def make_blobs(seed, n_per_class=40, gap=3.0, d=5):
    rng = np.random.default_rng(seed)
    pos = rng.normal(gap, 1.0, size=(n_per_class, d))
    neg = rng.normal(-gap, 1.0, size=(n_per_class, d))
    vectors = [SparseVector.from_dense(r) for r in np.vstack([pos, neg])]
    labels = [1] * n_per_class + [-1] * n_per_class
    return vectors, labels


class TestTrain:
    def test_separable_data_fits_exactly(self):
        vectors, labels = make_blobs(0)
        model = classifier.train(vectors, labels, n_features=5)
        correct = sum(
            classifier.predict(model, v)[0] == y for v, y in zip(vectors, labels)
        )
        assert correct == len(vectors)

    def test_dual_objective_monotone_nonincreasing(self):
        vectors, labels = make_blobs(1, gap=0.5)  # overlap forces real work
        model = classifier.train(vectors, labels, n_features=5)
        hist = model.dual_objective_history
        assert len(hist) >= 2
        assert all(b <= a + 1e-10 for a, b in zip(hist, hist[1:]))

    def test_loose_tolerance_close_to_tight(self):
        vectors, labels = make_blobs(2, gap=0.8)
        loose = classifier.train(vectors, labels, tol=1e-3, n_features=5)
        tight = classifier.train(
            vectors, labels, tol=1e-8, max_iters=20000, n_features=5
        )
        assert loose.objective == pytest.approx(tight.objective, rel=0.01)
        assert tight.n_epochs >= loose.n_epochs

    def test_against_closed_form_tiny_problem(self):
        # points +1/-1 with matching labels. With the augmented bias feature,
        # symmetry gives alpha1 = alpha2 = a, w = (2a, 0), and the dual
        # 2a - 2a^2 peaks at a = 1/2, so w = 1 and bias = 0. Primal there is
        # 0.5*1 + 0 hinge = 0.5.
        vectors = [sv(1.0), sv(-1.0)]
        labels = [1, -1]
        model = classifier.train(vectors, labels, c=1.0, tol=1e-10, max_iters=50000)
        assert model.bias == pytest.approx(0.0, abs=1e-6)
        assert model.weights[0] == pytest.approx(1.0, abs=1e-4)
        assert model.objective == pytest.approx(0.5, abs=1e-4)

    def test_c_controls_slack(self):
        # one mislabeled point; small c should tolerate it, large c fights it
        vectors = [sv(2.0), sv(2.2), sv(-2.0), sv(-2.2), sv(2.1)]
        labels = [1, 1, -1, -1, -1]
        soft = classifier.train(vectors, labels, c=0.01, tol=1e-8, max_iters=20000)
        hard = classifier.train(vectors, labels, c=100.0, tol=1e-6, max_iters=20000)
        assert abs(soft.weights[0]) < abs(hard.weights[0])

    def test_deterministic_given_seed(self):
        vectors, labels = make_blobs(3, gap=0.7)
        a = classifier.train(vectors, labels, n_features=5, seed=17)
        b = classifier.train(vectors, labels, n_features=5, seed=17)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.dual_objective_history == b.dual_objective_history

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            classifier.train([sv(1.0), sv(2.0)], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classifier.train([sv(1.0)], [1, -1])

    def test_labels_other_than_plus_minus_one_rejected(self):
        with pytest.raises(ValueError, match="labels must be -1 or \\+1, got 2"):
            classifier.train([sv(1.0), sv(-1.0), sv(2.0)], [1, -1, 2])

    def test_feature_index_out_of_range_rejected(self):
        vectors = [sv(1.0, 0.0, 1.0), sv(-1.0)]
        with pytest.raises(ValueError, match="feature index 2 is out of range for 2"):
            classifier.train(vectors, [1, -1], n_features=2)

    @pytest.mark.parametrize("solver", ["compiled", "python"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_feature_value_rejected(self, request, solver, value):
        if solver == "python":
            request.getfixturevalue("python_loop")
        vectors = [SparseVector(((0, value),)), SparseVector(((1, 1.0),)), sv(1.0)]
        with pytest.raises(ValueError, match=f"feature values must be finite, got {value:g}"):
            classifier.train(vectors, [1, -1, 1], n_features=2)

    @pytest.mark.parametrize("solver", ["compiled", "python"])
    @pytest.mark.parametrize("kwargs, message", [
        ({"c": -1.0}, "c must be finite and > 0, got -1.0"),
        ({"c": 0.0}, "c must be finite and > 0, got 0.0"),
        ({"c": float("nan")}, "c must be finite and > 0, got nan"),
        ({"c": float("inf")}, "c must be finite and > 0, got inf"),
        ({"tol": -1}, "tol must be finite and > 0, got -1"),
        ({"tol": float("nan")}, "tol must be finite and > 0, got nan"),
        ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
        ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
        ({"max_iters": True}, "max_iters must be an integer, got True"),
        ({"n_features": -1}, "n_features must be >= 0, got -1"),
        ({"n_features": 2.5}, "n_features must be an integer, got 2.5"),
        ({"n_features": True}, "n_features must be an integer, got True"),
    ])
    def test_bad_solver_setting_rejected(self, request, monkeypatch, solver, kwargs, message):
        if solver == "python":
            request.getfixturevalue("python_loop")
        # rejected before the rows are read
        monkeypatch.setattr(classifier, "to_csr", None)
        with pytest.raises(ValueError) as exc:
            classifier.train([sv(1.0), sv(-1.0), sv(2.0)], [1, -1, 1], **kwargs)
        assert str(exc.value) == message

    def test_nan_from_dense_is_rejected(self):
        # from_dense once dropped the NaN, and this trained to weights [0, 1]
        vectors = [sv(float("nan"), 1.0), sv(0.0, -1.0)]
        with pytest.raises(ValueError, match="feature values must be finite, got nan"):
            classifier.train(vectors, [1, -1])

    def test_non_integer_index_rejected(self):
        # to_csr once cast the index 0.5 to column 0
        with pytest.raises(ValueError, match="feature indices must be integers"):
            classifier.train([SparseVector(((0.5, 1.0),)), sv(-1.0)], [1, -1])

    @pytest.mark.parametrize("solver", ["compiled", "python"])
    def test_csr_rows_train_as_their_vector_list(self, request, solver):
        if solver == "python":
            request.getfixturevalue("python_loop")
        vectors, labels = random_sparse_problem(3)
        kwargs = dict(c=0.5, tol=1e-6, max_iters=200, n_features=12, seed=3)
        from_list = classifier.train(vectors, labels, **kwargs)
        from_rows = classifier.train(to_csr(vectors[:9]).stack(to_csr(vectors[9:])), labels, **kwargs)
        assert from_rows.weights.tolist() == from_list.weights.tolist()
        assert from_rows.bias == from_list.bias and from_rows.objective == from_list.objective
        assert from_rows.dual_objective_history == from_list.dual_objective_history

    @pytest.mark.parametrize("rows, labels, message", [
        (CsrRows([0, 1, 2], [5, 0], [1.0, 1.0]), [1, -1],
         "feature index 5 is out of range for 2 features"),
        (CsrRows([0, 1, 2], [0, 2], [1.0, 1.0]), [1, -1],
         "feature index 2 is out of range for 2 features"),
        (CsrRows([0, 1, 2], [0, 1], [1.0, np.inf]), [1, -1], "feature values must be finite, got inf"),
        (CsrRows([0, 1, 2], [0, 1], [1.0, 1.0]), [1, -1, 1], "vectors and labels length mismatch"),
    ])
    def test_csr_rows_get_the_checks_of_a_list(self, rows, labels, message):
        with pytest.raises(ValueError) as exc:
            classifier.train(rows, labels, n_features=2)
        assert str(exc.value) == message

    def test_zero_vectors_are_legal(self):
        vectors = [sv(1.0, 0.0), SparseVector(()), sv(-1.0, 0.0)]
        model = classifier.train(vectors, [1, -1, -1], n_features=2)
        # a zero vector is classified purely by the bias
        _, value = classifier.predict(model, SparseVector(()))
        assert value == pytest.approx(model.bias)


def reference_train(vectors, labels, c, tol, max_iters, n_features, seed):
    """The CSR/numpy epoch loop that ``classifier.train`` replaced: the bias is
    an augmented last column of ``w``. Returns (weights, bias)."""
    labels = np.asarray(labels, dtype=float)
    csr = to_csr(vectors)
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    n = len(vectors)
    rows = [slice(indptr[i], indptr[i + 1]) for i in range(n)]
    qii = np.array([float(data[r] @ data[r]) for r in rows]) + 1.0
    w = np.zeros(n_features + 1)
    alpha = np.zeros(n)
    rng = np.random.default_rng(seed)
    for _ in range(max_iters):
        max_violation = 0.0
        for i in rng.permutation(n):
            cols, vals = indices[rows[i]], data[rows[i]]
            g = labels[i] * (float(w[cols] @ vals) + w[-1]) - 1.0
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
        if max_violation <= tol:
            break
    return w[:-1], float(w[-1])


def random_sparse_problem(seed, n=40, d=12, density=0.3):
    """Overlapping classes, so the solution has bounded and free alphas."""
    rng = np.random.default_rng(seed)
    labels = [1] * (n // 4) + [-1] * (n - n // 4)
    vectors = []
    for y in labels:
        row = rng.normal(0.3 * y, 1.0, size=d) * (rng.random(d) < density)
        vectors.append(SparseVector.from_dense(row))
    return vectors, labels


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("c", [0.5, 4.0])
    def test_matches_reference_solution(self, seed, c):
        vectors, labels = random_sparse_problem(seed)
        kwargs = dict(c=c, tol=1e-9, max_iters=100000, n_features=12, seed=seed)
        model = classifier.train(vectors, labels, **kwargs)
        weights, bias = reference_train(vectors, labels, **kwargs)
        assert model.n_epochs < kwargs["max_iters"]
        # the primal is strongly convex in (w, b), so both reach one optimum
        np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-6)
        assert model.bias == pytest.approx(bias, abs=1e-6)
        # weak duality: the primal objective bounds the dual from above
        assert model.objective >= -model.dual_objective_history[-1] - 1e-9


@pytest.mark.usefixtures("python_loop")
class TestAgainstReferenceOnPythonLoop(TestAgainstReference):
    pass


def builtin_train(vectors, labels, c, tol, max_iters, n_features, seed):
    """Reference for the comparisons in ``classifier.train``: the same epoch
    loop with ``min``/``max``/``abs`` calls, and sums taken by
    ``functools.reduce``, which adds left to right on every Python.
    Returns (weights, bias, dual history)."""

    def total(values):
        return functools.reduce(operator.add, values, 0.0)

    y = [float(label) for label in labels]
    rows = [vec.entries for vec in vectors]
    qii = [total(v * v for _, v in row) + 1.0 for row in rows]
    w = [0.0] * n_features
    bias = 0.0
    alpha = [0.0] * len(rows)
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(max_iters):
        max_violation = 0.0
        for i in rng.permutation(len(rows)).tolist():
            a = alpha[i]
            g = y[i] * (total(w[col] * v for col, v in rows[i]) + bias) - 1.0
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
                    for col, v in rows[i]:
                        w[col] += delta * v
                    bias += delta
                    alpha[i] = new
        history.append(0.5 * (total(x * x for x in w) + bias * bias) - total(alpha))
        if max_violation <= tol:
            break
    return w, bias, history


# Rows over 6 features, entries in [-1, 1] as in tf-idf rows; a row may be
# empty, and drawn rows are repeated (possibly with the other label).
SPARSE_ROWS = st.lists(
    st.dictionaries(
        st.integers(0, 5),
        st.floats(-1.0, 1.0, allow_nan=False).filter(lambda v: v != 0.0),
        max_size=4,
    ),
    min_size=1,
    max_size=10,
)


@st.composite
def sparse_problems(draw):
    rows = draw(SPARSE_ROWS)
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(rows), max_size=len(rows)))
    return [SparseVector(tuple(sorted(row.items()))) for row in rows], labels


class TestTrainProperties:
    """The projected-gradient, clip and history branches of the epoch loop."""

    @given(
        sparse_problems(),
        st.sampled_from([0.001, 0.01, 0.1, 1.0, 10.0]),
        st.sampled_from([1e-1, 1e-3, 1e-9]),
        st.integers(1, 50),
        st.integers(0, 2 ** 32 - 1),
    )
    # a small c puts alpha at its upper bound: the same row with both labels
    @example(([sv(0.5, 0.5)] * 2 + [SparseVector(())], [1, -1, 1]), 0.001, 1e-9, 20, 0)
    # empty rows only: the bias is the only feature
    @example(([SparseVector(())] * 3, [1, -1, -1]), 0.01, 1e-3, 10, 1)
    # TestTrainPropertiesOnPythonLoop runs this test too, on the other solver
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    def test_dual_descends_and_bounds_the_primal(self, problem, c, tol, max_iters, seed):
        vectors, labels = problem
        assume(1 in labels and -1 in labels)
        kwargs = dict(c=c, tol=tol, max_iters=max_iters, n_features=6, seed=seed)
        model = classifier.train(vectors, labels, **kwargs)
        # the comparisons give the values of the min/max/abs calls, bit for bit
        weights, bias, history = builtin_train(vectors, labels, **kwargs)
        assert model.weights.tolist() == weights
        assert model.bias == bias
        assert list(model.dual_objective_history) == history
        hist = model.dual_objective_history
        assert all(b <= a + 1e-10 for a, b in zip(hist, hist[1:]))
        # weak duality: the primal objective bounds the dual from above
        assert model.objective >= -hist[-1] - 1e-9
        assert 1 <= model.n_epochs <= max_iters
        assert len(hist) == model.n_epochs

    def test_rows_at_the_upper_bound_converge(self):
        # the same row with both labels holds alpha at c; its projected
        # gradient is then max(g, 0) = 0, so the loop stops before max_iters
        vectors = [sv(0.5, 0.5)] * 2 + [SparseVector(())]
        model = classifier.train(vectors, [1, -1, 1], c=0.001, tol=1e-9, max_iters=1000)
        assert model.n_epochs < 1000


@pytest.mark.usefixtures("python_loop")
class TestTrainPropertiesOnPythonLoop(TestTrainProperties):
    pass


@pytest.mark.usefixtures("compiled_kernel")
class TestSolverAgreement:
    @given(
        sparse_problems(),
        st.sampled_from([0.001, 0.01, 0.1, 1.0, 10.0]),
        st.sampled_from([1e-1, 1e-3, 1e-9]),
        st.integers(1, 50),
        st.integers(0, 2 ** 32 - 1),
        st.integers(0, 20),
    )
    # the same row with both labels holds alpha at the c bound
    @example(([sv(0.5, 0.5)] * 2 + [SparseVector(())], [1, -1, 1]), 0.001, 1e-9, 20, 0, 1)
    @example(([SparseVector(())] * 3, [1, -1, -1]), 0.01, 1e-3, 10, 1, 3)  # empty rows only
    @example(([sv(1.0, -0.5), sv(0.25), sv(1.0, -0.5)], [1, -1, -1]), 1.0, 1e-9, 1, 2, 0)
    # 1100 rows: more rows than one kernel call holds epochs
    @example(
        ([sv(k % 5 * 0.25, 1.0 - k % 3 * 0.5) for k in range(1100)],
         [-1 if k % 4 == 0 else 1 for k in range(1100)]),
        1.0, 1e-3, 50, 7, 600,
    )
    # converges at epoch 1070, in the second kernel call
    @example(
        ([sv(1.5, -1.5), sv(-0.75, -1.0), sv(0.75, -0.75), sv(-1.75, -2.0)], [1, -1, -1, 1]),
        10.0, 1e-12, 2000, 0, 2,
    )
    # never within tol: stops at max_iters in the third kernel call
    @example(([sv(1.0, -0.5), sv(0.25), sv(1.0, -0.5)], [1, -1, -1]), 10.0, 1e-300, 2100, 0, 1)
    @settings(max_examples=150, deadline=None)
    def test_compiled_and_python_epochs_are_equal(self, problem, c, tol, max_iters, seed, split):
        """Both solvers give the same weights, bias and dual history, also on
        rows stacked from two ``CsrRows`` as the harness stacks them, and
        leave their Generators in the same state: the kernel draws each
        epoch's order as ``rng.permutation`` does, so a numpy release that
        changes that stream fails here."""
        vectors, labels = problem
        rows = to_csr(vectors[:split]).stack(to_csr(vectors[split:]))
        y = np.array(labels, dtype=float)
        qii = np.bincount(rows.entry_rows(), weights=rows.data ** 2, minlength=len(y)) + 1.0
        args = (rows, y, qii, c, tol, max_iters, 6)
        compiled_rng, python_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        w, b, history = classifier._compiled_epochs(*args, compiled_rng)
        want = classifier._python_epochs(*args, python_rng)
        assert (w.tolist(), b, history) == (want[0].tolist(), want[1], want[2])
        assert compiled_rng.bit_generator.state == python_rng.bit_generator.state
        assert 1 <= len(history) <= max_iters


def write_failing_cc(bin_dir, marker):
    """A ``cc`` on PATH that touches ``marker`` and fails."""
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text(f"#!/bin/sh\n: > '{marker}'\nexit 1\n")
    cc.chmod(0o755)


class TestLoadKernel:
    """``load_kernel`` unmemoized, with its cache under ``tmp_path``."""

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
    def test_second_load_reuses_the_cached_library(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        assert classifier.load_kernel.__wrapped__() is not None
        assert [p.suffix for p in (tmp_path / "cache" / "emco").iterdir()] == [".so"]
        marker = tmp_path / "cc-ran"
        write_failing_cc(tmp_path / "bin", marker)
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        assert classifier.load_kernel.__wrapped__() is not None
        assert not marker.exists()

    @pytest.mark.parametrize("failure", ["failing cc", "no cc", "cache not writable"])
    def test_unbuildable_kernel_falls_back_with_a_warning(
        self, monkeypatch, tmp_path, caplog, failure
    ):
        cache = tmp_path / "cache"
        marker = tmp_path / "cc-ran"
        if failure == "failing cc":
            write_failing_cc(tmp_path / "bin", marker)
        else:
            (tmp_path / "bin").mkdir()
        if failure == "cache not writable":
            cache.write_text("a file where the cache directory belongs")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        monkeypatch.setenv("PATH", str(tmp_path / "bin"))
        assert classifier.load_kernel.__wrapped__() is None
        assert marker.exists() == (failure == "failing cc")
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert "training runs the Python loop" in warnings[0].getMessage()
        # no partial library is left behind
        if cache.is_dir():
            assert list((cache / "emco").iterdir()) == []


class TestPredict:
    def test_tie_predicts_positive(self):
        model = classifier.LinearModel(
            weights=np.array([1.0]), bias=0.0, objective=0.0
        )
        label, value = classifier.predict(model, SparseVector(()))
        assert value == 0.0
        assert label == 1

    def test_decision_value_linear(self):
        model = classifier.LinearModel(
            weights=np.array([2.0, -1.0]), bias=0.5, objective=0.0
        )
        assert classifier.predict(model, sv(1.0, 3.0))[1] == pytest.approx(-0.5)

    def test_out_of_dimension_features_ignored(self):
        model = classifier.LinearModel(
            weights=np.array([1.0]), bias=0.0, objective=0.0
        )
        wide = SparseVector(((0, 1.0), (7, 99.0)))
        assert classifier.predict(model, wide)[1] == pytest.approx(1.0)


    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 7),
                st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v != 0.0),
                max_size=5,
            ),
            max_size=8,
        ),
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=6),
        st.floats(-1e3, 1e3, allow_nan=False),
    )
    # no rows; an empty row; a row wholly beyond the weights
    @example([], [1.0], 0.5)
    @example([{}, {0: -2.0, 7: 3.0}], [0.25], -1.0)
    @example([{3: 1.0}], [], 0.0)
    def test_score_adds_as_the_loop_does(self, rows, weights, bias):
        vectors = [SparseVector(tuple(sorted(row.items()))) for row in rows]
        expected = []
        for vec in vectors:
            total = bias  # the bias first, then each product left to right
            for i, v in vec.entries:
                if i < len(weights):
                    total += weights[i] * v
            expected.append(total)
        model = classifier.LinearModel(weights=np.array(weights), bias=bias, objective=0.0)
        csr = to_csr(vectors)
        labels, values = classifier.score(model, csr)
        assert values.tolist() == expected
        assert classifier._margins(csr, model.weights, bias).tolist() == expected
        assert labels.tolist() == [1 if m >= 0.0 else -1 for m in expected]
