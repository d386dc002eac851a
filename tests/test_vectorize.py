import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from emco import corpus, vectorize


def doc(tokens, id="d", split="train"):
    return corpus.Document(id, tuple(tokens), frozenset({"x"}), split)


class TestFit:
    def test_smoothed_idf_value(self):
        model = vectorize.fit_tfidf([doc(["rare", "filler"]), doc(["filler"]), doc(["filler"])])
        assert model.idf("rare") == pytest.approx(math.log(4 / 2) + 1, abs=1e-4)
        assert model.idf("rare") == pytest.approx(1.6931, abs=1e-4)

    def test_idf_collapses_for_ubiquitous_token(self):
        docs = [doc(["every", "other"]) for _ in range(5)]
        model = vectorize.fit_tfidf(docs)
        assert model.idf("every") == pytest.approx(1.0)

    def test_single_doc(self):
        model = vectorize.fit_tfidf([doc(["only"])])
        assert model.idf("only") == pytest.approx(1.0)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            vectorize.fit_tfidf([])

    def test_columns_are_lexicographic(self):
        model = vectorize.fit_tfidf([doc(["zeta", "alpha", "mid"])])
        assert model.vocabulary == {"alpha": 0, "mid": 1, "zeta": 2}

    def test_df_bounds(self):
        docs = [doc(["a" * (i + 1), "shared"]) for i in range(4)]
        model = vectorize.fit_tfidf(docs)
        for token, df in model.df.items():
            assert 1 <= df <= model.n_docs


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
            vec = vectorize.transform(d, model)
            if vec.entries:
                assert vec.norm() == pytest.approx(1.0, abs=1e-9)

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
        vectors = [vectorize.SparseVector(e) for e in entries]
        with pytest.raises(ValueError, match="feature indices must be integers, got"):
            vectorize.to_csr(vectors)

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
        full = indptr, indices, data = vectorize.to_csr(vecs)
        assert indptr.tolist() == [0, 2, 2]
        assert indices.tolist() == [0, 2] and data.tolist() == [1.0, -0.5]
        empty = indptr, indices, data = vectorize.to_csr([vectorize.SparseVector(())] * 2)
        assert indptr.tolist() == [0, 0, 0]
        assert indices.size == data.size == 0
        # the compiled solver reads these arrays as they are
        for indptr, indices, data in (full, empty):
            assert indices.dtype == indptr.dtype == np.intp
            assert data.dtype == np.float64
            assert all(a.flags.c_contiguous for a in (indptr, indices, data))

