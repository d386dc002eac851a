import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from emco import corpus, vectorize


def doc(tokens, id="d", split="train"):
    return corpus.Document(id, tuple(tokens), frozenset({"x"}), split)


def idf(model, token):
    return model.idf[model.vocabulary[token]]


class TestFit:
    def test_smoothed_idf_value(self):
        model = vectorize.fit_tfidf([doc(["rare", "filler"]), doc(["filler"]), doc(["filler"])])
        assert idf(model, "rare") == pytest.approx(math.log(4 / 2) + 1, abs=1e-4)
        assert idf(model, "rare") == pytest.approx(1.6931, abs=1e-4)

    def test_idf_collapses_for_ubiquitous_token(self):
        docs = [doc(["every", "other"]) for _ in range(5)]
        model = vectorize.fit_tfidf(docs)
        assert idf(model, "every") == pytest.approx(1.0)

    def test_single_doc(self):
        model = vectorize.fit_tfidf([doc(["only"])])
        assert idf(model, "only") == pytest.approx(1.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            vectorize.fit_tfidf([])

    def test_columns_are_lexicographic(self):
        model = vectorize.fit_tfidf([doc(["zeta", "alpha", "mid"])])
        assert model.vocabulary == {"alpha": 0, "mid": 1, "zeta": 2}

    @given(st.lists(st.lists(st.sampled_from(["ant", "bee", "cat", "dog"]), max_size=6),
                    min_size=1, max_size=8))
    def test_idf_is_the_smoothed_formula_by_column(self, token_lists):
        model = vectorize.fit_tfidf([doc(tokens) for tokens in token_lists])
        n = len(token_lists)
        assert model.idf.dtype == np.float64 and model.idf.shape == (model.n_features,)
        for token, column in model.vocabulary.items():
            df = sum(token in tokens for tokens in token_lists)
            assert model.idf[column] == math.log((n + 1) / (df + 1)) + 1.0


class TestTransform:
    def test_single_token_is_unit(self):
        model = vectorize.fit_tfidf([doc(["solo", "other"])])
        vec = vectorize.transform_tokens(["solo"], model)
        assert vec.entries == ((model.vocabulary["solo"], 1.0),)

    def test_hand_computed_counts(self):
        # idf == 1 for both tokens (each appears in every doc)
        docs = [doc(["aa", "bb"]) for _ in range(3)]
        model = vectorize.fit_tfidf(docs)
        vec = vectorize.transform_tokens(["aa", "aa", "bb"], model)
        values = dict(vec.entries)
        assert values[model.vocabulary["aa"]] == pytest.approx(2 / math.sqrt(5))
        assert values[model.vocabulary["bb"]] == pytest.approx(1 / math.sqrt(5))

    def test_empty_and_out_of_vocabulary(self):
        model = vectorize.fit_tfidf([doc(["known"])])
        assert vectorize.transform_tokens([], model).entries == ()
        assert vectorize.transform_tokens(["unknown"], model).entries == ()

    def test_unit_norm_invariant(self, mini_docs):
        model = vectorize.fit_tfidf(corpus.training_documents(mini_docs))
        for d in mini_docs:
            vec = vectorize.transform_tokens(d.tokens, model)
            if vec.entries:
                assert math.hypot(*(v for _, v in vec.entries)) == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.sampled_from(["ant", "bee", "cat", "dog"]), min_size=1, max_size=12))
    def test_order_independence(self, tokens):
        model = vectorize.fit_tfidf(
            [doc(["ant", "bee"]), doc(["cat", "dog"]), doc(["ant", "dog"])]
        )
        forward = vectorize.transform_tokens(tokens, model)
        assert forward == vectorize.transform_tokens(list(reversed(tokens)), model)

    def test_same_model_means_same_columns(self, mini_docs):
        model = vectorize.fit_tfidf(corpus.training_documents(mini_docs))
        synthetic = ["tokens", "are", "reused"]  # unseen tokens vanish
        first = vectorize.transform_tokens(synthetic + ["shared"], model)
        second = vectorize.transform_tokens(["shared"], model)
        assert [i for i, _ in first.entries] == [i for i, _ in second.entries]


def reference_transform(tokens, model):
    """The per-document loop that ``transform_rows`` replaced: tf x idf in
    column order, then each value over the norm summed left to right."""
    counts = Counter(t for t in tokens if t in model.vocabulary)
    entries = sorted((model.vocabulary[t], c * float(idf(model, t))) for t, c in counts.items())
    total = 0.0
    for _, v in entries:
        total += v * v
    return tuple((i, v / math.sqrt(total)) for i, v in entries)


class TestTransformRows:
    WORDS = ["ant", "bee", "cat", "dog", "eel", "fox", "gnu"]

    @given(st.lists(st.lists(st.sampled_from(WORDS + ["oov"]), max_size=30), max_size=8))
    def test_rows_equal_the_per_document_loop(self, documents):
        model = vectorize.fit_tfidf(
            [doc(self.WORDS[i::3] * (i + 1)) for i in range(3)] + [doc(["ant"])]
        )
        rows = vectorize.transform_rows(documents, model)
        assert len(rows) == len(documents)
        assert [r.entries for r in rows] == [reference_transform(d, model) for d in documents]

    def test_mini_corpus_rows_equal_the_per_document_loop(self, mini_docs):
        model = vectorize.fit_tfidf(corpus.training_documents(mini_docs))
        rows = vectorize.transform_rows((d.tokens for d in mini_docs), model)
        assert [r.entries for r in rows] == [reference_transform(d.tokens, model) for d in mini_docs]


class TestCsrRows:
    ROWS = [((0, 1.0), (2, -0.5)), (), ((1, 2.0),), ((0, 3.0), (1, 4.0), (2, 5.0))]

    def rows(self):
        return vectorize.to_csr([vectorize.SparseVector(e) for e in self.ROWS])

    def test_rows_read_as_sparse_vectors(self):
        rows = self.rows()
        assert len(rows) == 4
        assert [v.entries for v in rows] == self.ROWS
        assert rows[-1].entries == self.ROWS[-1]
        with pytest.raises(IndexError):
            rows[4]

    @pytest.mark.parametrize("row, position", [(-1, 3), (-4, 0), (np.int64(-2), 2), (np.intp(1), 1)])
    def test_negative_and_numpy_integers_read_one_row(self, row, position):
        assert self.rows()[row].entries == self.ROWS[position]

    @pytest.mark.parametrize("row, name", [
        (slice(None, 1), "slice"), (1.0, "float"), ([0, 1], "list"), (np.array([0]), "ndarray"),
        (True, "bool"), (np.True_, "bool"),
    ])
    def test_non_integer_row_rejected_with_a_pointer_to_take(self, row, name):
        message = f"CsrRows index must be an integer, got {name}; take() selects rows"
        with pytest.raises(TypeError, match=re.escape(message)):
            self.rows()[row]

    def test_to_csr_returns_csr_rows_as_they_are(self):
        rows = self.rows()
        assert vectorize.to_csr(rows) is rows

    @pytest.mark.parametrize("picks", [[3, 1, 3, 0], [], [1, 1], [2]])
    def test_take(self, picks):
        taken = self.rows().take(np.array(picks))
        assert [v.entries for v in taken] == [self.ROWS[i] for i in picks]
        assert taken.indptr.dtype == taken.indices.dtype == np.intp

    @pytest.mark.parametrize("split", range(5))
    def test_stack(self, split):
        first = vectorize.to_csr([vectorize.SparseVector(e) for e in self.ROWS[:split]])
        second = vectorize.to_csr([vectorize.SparseVector(e) for e in self.ROWS[split:]])
        stacked = first.stack(second)
        assert [v.entries for v in stacked] == self.ROWS
        assert all(a.flags.c_contiguous for a in (stacked.indptr, stacked.indices, stacked.data))

    def test_arrays_are_cast_for_the_solver(self):
        rows = vectorize.CsrRows(np.array([0, 1], dtype=np.int32), [2], np.array([1], dtype=np.int8))
        assert rows.indptr.dtype == rows.indices.dtype == np.intp
        assert rows.data.dtype == np.float64 and rows.data.tolist() == [1.0]

    @pytest.mark.parametrize("indptr, indices, data", [
        ([], [], []),
        ([1, 1], [], []),
        ([0, 2], [0], [1.0]),
        ([0, 1], [0], [1.0, 2.0]),
        ([0, 2, 1], [0, 1], [1.0, 2.0]),
        ([0.0, 1.0], [0], [1.0]),
    ])
    def test_malformed_indptr_rejected(self, indptr, indices, data):
        with pytest.raises(ValueError, match="CSR indptr must rise from 0 to the number of entries"):
            vectorize.CsrRows(indptr, indices, data)

    @pytest.mark.parametrize("indptr, indices, data, name, shape", [
        ([0, 1, 2], [[0], [1]], [[1.0], [2.0]], "indices", (2, 1)),
        ([[0], [1], [2]], [0, 1], [1.0, 2.0], "indptr", (3, 1)),
        ([0, 1], [0], [[1.0]], "data", (1, 1)),
        (0, [], [], "indptr", ()),
    ])
    def test_arrays_that_are_not_one_dimensional_rejected(self, indptr, indices, data, name, shape):
        message = f"CSR {name} must be one-dimensional, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            vectorize.CsrRows(indptr, indices, data)

    def test_non_integer_indices_rejected(self):
        with pytest.raises(ValueError, match="feature indices must be integers, got float64"):
            vectorize.CsrRows([0, 1], [0.5], [1.0])

    @pytest.mark.parametrize("indptr, indices, message", [
        ([0, 2, 3], [1, 1, 0], "entries must be sorted by strictly increasing index"),
        ([0, 2], [2, 1], "entries must be sorted by strictly increasing index"),
        ([0, 1, 3], [0, 2, 1], "entries must be sorted by strictly increasing index"),
        ([0, 2], np.array([2, 1], dtype=np.uint8), "entries must be sorted by strictly increasing index"),
        ([0, 1, 2], [0, -1], "entries must have nonnegative indices, got -1"),
        ([0, 1, 3], [4, -2, 0], "entries must have nonnegative indices, got -2"),
    ])
    def test_repeated_falling_and_negative_columns_rejected(self, indptr, indices, message):
        # the row rule, which SparseVector takes from here: before this check,
        # to_dense, the neighbor search and the solver each read such a row differently
        with pytest.raises(ValueError) as exc:
            vectorize.CsrRows(indptr, indices, np.ones(len(indices)))
        assert str(exc.value) == message

    @pytest.mark.parametrize("indptr, indices, want", [
        ([0, 2, 3], [1, 4, 0], [((1, 1.0), (4, 1.0)), ((0, 1.0),)]),  # a row starts lower
        ([0, 0, 2, 2, 3, 3], [1, 4, 0], [(), ((1, 1.0), (4, 1.0)), (), ((0, 1.0),), ()]),
        ([0, 0, 0], [], [(), ()]),
    ])
    def test_a_row_may_start_lower_and_rows_may_be_empty(self, indptr, indices, want):
        rows = vectorize.CsrRows(indptr, indices, np.ones(len(indices)))
        assert [v.entries for v in rows] == want

    @given(st.lists(st.lists(st.integers(-2, 5), max_size=4), max_size=5))
    def test_rows_follow_the_rule_of_a_sparse_vector(self, per_row):
        messages = []
        for columns in per_row:
            try:
                vectorize.SparseVector(tuple((c, 1.0) for c in columns))
            except ValueError as exc:
                messages.append(str(exc))
        args = (np.cumsum([0, *map(len, per_row)]), [c for row in per_row for c in row],
                np.ones(sum(map(len, per_row))))
        if not messages:
            assert [len(v.entries) for v in vectorize.CsrRows(*args)] == list(map(len, per_row))
        else:
            with pytest.raises(ValueError) as exc:
                vectorize.CsrRows(*args)
            assert str(exc.value) in messages

    @given(st.lists(st.lists(
        st.sampled_from([1e308, -1e308, 1.7e308, 1e-308, 5e-324])
        | st.floats(-1e3, 1e3, allow_nan=False),
        max_size=20,  # numpy's pairwise sum takes blocks of 8
    ), max_size=6))
    def test_row_sums_add_each_row_left_to_right(self, per_row):
        rows = vectorize.CsrRows(
            np.cumsum([0, *map(len, per_row)]),
            [column for values in per_row for column in range(len(values))],
            [v for values in per_row for v in values],
        )
        want = []
        for values in per_row:  # empty rows sum to 0.0
            total = 0.0
            for value in values:
                total += value
            want.append(total)
        with np.errstate(over="ignore", invalid="ignore"):
            assert rows.row_sums(rows.data).tobytes() == np.array(want, dtype=float).tobytes()

    def test_from_dense_reads_each_row_as_the_entrywise_scan(self):
        points = np.array([[0.0, -0.0, 2.5], [0.0, 0.0, 0.0], [np.nan, 1.0, -0.0], [-3.0, 0.0, 4.0]])
        rows = vectorize.CsrRows.from_dense(points)
        assert len(rows) == 4
        assert rows[2].entries[0][0] == 0 and math.isnan(rows[2].entries[0][1])
        for row, dense in zip(rows, points):
            # keeps NaN and drops -0.0; repr tells NaN and exact floats apart
            want = tuple((i, v) for i, v in enumerate(dense.tolist()) if v != 0.0)
            assert repr(row.entries) == repr(want)
            assert repr(vectorize.SparseVector.from_dense(dense).entries) == repr(want)


class TestSparseVector:
    def test_rejects_unsorted_entries(self):
        with pytest.raises(ValueError):
            vectorize.SparseVector(((2, 1.0), (1, 1.0)))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="nonnegative indices, got -1"):
            vectorize.SparseVector(((-1, 1.0),))

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError):
            vectorize.SparseVector(((0, 0.0),))

    def test_dense_roundtrip(self):
        vec = vectorize.SparseVector(((1, 0.5), (3, -2.0)))
        assert vectorize.SparseVector.from_dense(vec.to_dense(5)) == vec

    def test_from_dense_keeps_nan(self):
        vec = vectorize.SparseVector.from_dense(np.array([np.nan, 0.0, -0.0, 2.0]))
        assert [i for i, _ in vec.entries] == [0, 3]
        assert math.isnan(vec.entries[0][1]) and vec.entries[1][1] == 2.0

    @pytest.mark.parametrize("value", [np.nan, 2, np.float32(0.5), np.int8(-3)])
    def test_real_values_pass_nan_included(self, value):
        # NaN is kept, as from_dense keeps it, for the readers' check_real
        dense = vectorize.SparseVector(((1, value),)).to_dense(2)
        assert dense[0] == 0.0 and repr(dense[1]) == repr(np.float64(value))

    @pytest.mark.parametrize(
        "entries",
        [((True, 1.0),), ((np.True_, 1.0),), ((0, 1.0), (True, 2.0))],
        ids=["bool", "numpy-bool", "bool-after-int"],
    )
    def test_rejects_bool_index(self, entries):
        # numpy makes [0, True] an int64 array, so to_csr cannot see the bool
        with pytest.raises(ValueError, match="integer indices, got a bool"):
            vectorize.SparseVector(entries)

    @pytest.mark.parametrize("entries", [[((0.5, 1.0),)], [((0, 1.0),), ((1.0, 2.0),)]])
    def test_to_csr_rejects_non_integer_indices(self, entries):
        # refused as the vector is built, by the CsrRows check that to_csr makes
        with pytest.raises(ValueError, match="feature indices must be integers, got"):
            vectorize.to_csr([vectorize.SparseVector(e) for e in entries])

    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 5),
                st.floats(-1.0, 1.0, allow_nan=False).filter(lambda v: v != 0.0),
                max_size=4,
            ),
            max_size=6,
        ),
        st.integers(6, 8),
    )
    def test_to_dense_is_the_entrywise_assignment(self, rows, n_features):
        vectors = [vectorize.SparseVector(tuple(sorted(row.items()))) for row in rows]
        expected = np.zeros((len(vectors), n_features))
        for r, vec in enumerate(vectors):
            for i, v in vec.entries:
                expected[r, i] = v
        dense = vectorize.to_dense(vectors, n_features)
        assert dense.shape == expected.shape and (dense == expected).all()
        for r, vec in enumerate(vectors):
            assert (vec.to_dense(n_features) == expected[r]).all()

    def test_to_dense_edges(self):
        assert vectorize.to_dense([], 3).shape == (0, 3)
        assert vectorize.to_dense([vectorize.SparseVector(())] * 2, 3).tolist() == [[0.0] * 3] * 2
        beyond = [vectorize.SparseVector(()), vectorize.SparseVector(((3, 1.0),))]
        with pytest.raises(IndexError):
            vectorize.to_dense(beyond, 3)

    def test_to_csr_shape(self):
        vecs = [vectorize.SparseVector(((0, 1.0), (2, -0.5))), vectorize.SparseVector(())]
        full = vectorize.to_csr(vecs)
        assert full.indptr.tolist() == [0, 2, 2]
        assert full.indices.tolist() == [0, 2] and full.data.tolist() == [1.0, -0.5]
        empty = vectorize.to_csr([vectorize.SparseVector(())] * 2)
        assert empty.indptr.tolist() == [0, 0, 0]
        assert empty.indices.size == empty.data.size == 0
        assert len(full) == len(empty) == 2
        # the compiled solver reads these arrays as they are
        for indptr, indices, data in ((r.indptr, r.indices, r.data) for r in (full, empty)):
            assert indices.dtype == indptr.dtype == np.intp
            assert data.dtype == np.float64
            assert all(a.flags.c_contiguous for a in (indptr, indices, data))



class TestCheckInteger:
    def test_numpy_integers_at_the_bounds_pass(self):
        for value in (np.int64(-2), np.uint8(3), 3):
            vectorize.check_integer(value, "value", -2, 3)
        vectorize.check_integer(np.int64(10**18), "value")

    @pytest.mark.parametrize("value, message", [
        (np.bool_(True), "value must be an integer, got np.True_"),
        (np.int64(-3), "value must be in [-2, 3], got -3"),
    ])
    def test_numpy_scalars_rejected(self, value, message):
        with pytest.raises(ValueError) as exc:
            vectorize.check_integer(value, "value", -2, 3)
        assert str(exc.value) == message
