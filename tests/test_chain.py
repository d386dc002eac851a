import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emco import chain, corpus, harness

MIN_3DOC = [["a", "b"], ["b", "a"]]
MAJ_3DOC = [["b", "c", "a"]]


def w(model, src, dst):
    part = model.partition
    i = part.stop_index if src == "<stop>" else part.index(src)
    j = part.stop_index if dst == "<stop>" else part.index(dst)
    return model.weight(i, j)


class TestPartition:
    def test_three_doc_layout(self):
        part = chain.VocabPartition.from_corpora(MIN_3DOC, MAJ_3DOC)
        assert part.words == ("a", "b", "c")
        assert part.n_min == 2
        assert part.v_maj_only == ("c",)
        assert part.stop_index == 3

    def test_minority_words_never_majority_only(self):
        part = chain.VocabPartition.from_corpora([["x", "y"]], [["y", "z"]])
        assert part.v_min == ("x", "y")
        assert part.v_maj_only == ("z",)

    @given(
        st.lists(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=5), min_size=1, max_size=5),
        st.lists(st.lists(st.sampled_from("rstu"), min_size=1, max_size=5), max_size=5),
    )
    def test_partition_is_disjoint_and_sorted(self, minority, majority):
        part = chain.VocabPartition.from_corpora(minority, majority)
        assert not set(part.v_min) & set(part.v_maj_only)
        assert list(part.words) == sorted(part.v_min) + sorted(part.v_maj_only)
        for idx, word in enumerate(part.words):
            assert part.index(word) == idx


class TestEstimate:
    def test_three_doc_oracle_gamma_one(self):
        model = chain.estimate(MIN_3DOC, MAJ_3DOC, gamma=1.0)
        expected = {
            ("a", "b"): 1.0,
            ("b", "a"): 1.0,
            ("b", "c"): 1.0,
            ("a", "<stop>"): 1.0,
            ("b", "<stop>"): 1.0,
            ("<stop>", "a"): 1.0,
            ("<stop>", "b"): 1.0,
            ("c", "a"): 2.0,
            ("c", "b"): 2.0,
        }
        n = model.partition.stop_index + 1
        names = list(model.partition.words) + ["<stop>"]
        for i in range(n):
            for j in range(n):
                want = expected.get((names[i], names[j]), 0.0)
                assert w(model, names[i], names[j]) == want, (names[i], names[j])

    def test_three_doc_oracle_gamma_zero(self):
        model = chain.estimate(MIN_3DOC, MAJ_3DOC, gamma=0.0)
        assert w(model, "b", "c") == 0.0
        assert w(model, "a", "b") == 1.0
        assert w(model, "b", "a") == 1.0

    def test_gamma_scales_majority_pairs_linearly(self):
        lo = chain.estimate(MIN_3DOC, MAJ_3DOC, gamma=0.1)
        hi = chain.estimate(MIN_3DOC, MAJ_3DOC, gamma=0.4)
        assert w(hi, "b", "c") == pytest.approx(4 * w(lo, "b", "c"))
        assert w(hi, "a", "b") == w(lo, "a", "b")  # minority count unscaled

    def test_majority_pair_from_maj_only_source_ignored(self):
        # 'z' is majority-only, so z->x must not be recorded anywhere
        model = chain.estimate([["x"]], [["z", "x"]], gamma=1.0)
        part = model.partition
        assert model.stored_row(part.index("z")) is model.marginal_row

    def test_self_transitions_zeroed(self):
        model = chain.estimate([["a", "a", "b"]], [], gamma=0.0)
        assert w(model, "a", "a") == 0.0
        assert w(model, "a", "b") == 1.0

    def test_lengths_are_empirical_multiset(self):
        model = chain.estimate([["a"], ["a", "b"], ["b", "a"]], [], gamma=0.0)
        assert sorted(model.lengths) == [1, 2, 2]

    def test_rejects_empty_minority(self):
        with pytest.raises(ValueError):
            chain.estimate([], [["a"]], gamma=0.0)

    def test_rejects_empty_minority_document(self):
        with pytest.raises(ValueError):
            chain.estimate([["a"], []], [["a"]], gamma=0.0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            chain.estimate([["a"]], [], gamma=-0.5)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            chain.estimate([["a", "b"]], [["b", "a"]], gamma=gamma)

    def test_rejects_gamma_that_overflows_a_row(self):
        # row 'a' would be [1, inf, inf, 1]: every draw would pick the stop
        # state, never 'y' or 'z', which have the largest weights
        with pytest.raises(ValueError, match="gamma 1e\\+308"):
            chain.estimate(MIN_3DOC, [["a", "z", "a", "y"] * 2], gamma=1e308)

    @given(
        st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=6), min_size=1, max_size=6),
        st.lists(st.lists(st.sampled_from("cdef"), min_size=1, max_size=6), max_size=6),
        st.sampled_from([0.0, 0.01, 0.1, 1.0]),
    )
    @settings(max_examples=50)
    def test_row_structure_invariants(self, minority, majority, gamma):
        model = chain.estimate(minority, majority, gamma)
        part = model.partition
        stop = part.stop_index
        # stop column only carries minority ending counts, and the stop row
        # matches minority initial counts exactly
        endings = Counter(part.index(d[-1]) for d in minority)
        starts = Counter(part.index(d[0]) for d in minority)
        for i in range(stop):
            assert model.weight(i, stop) == endings.get(i, 0)
            assert model.weight(stop, i) == starts.get(i, 0)
        # majority-only rows alias the marginal distribution
        for i in range(part.n_min, stop):
            assert model.stored_row(i) is model.marginal_row
        # gamma=0 never reaches outside the minority vocabulary
        if gamma == 0:
            for row in model.min_rows.values():
                assert all(j == stop or part.is_min(int(j)) for j in row.indices)


class TestSampling:
    def test_forced_walk(self):
        # a->b and b->a are the only moves; stop row points at a only
        model = chain.estimate([["a", "b"]], [], gamma=0.0)
        part = model.partition
        rng = np.random.default_rng(0)
        # remove the b->stop weight so the walk is fully deterministic
        forced = chain.TransitionModel(
            partition=part,
            gamma=0.0,
            lengths=(3,),
            min_rows={
                part.index("a"): chain._make_row({part.index("b"): 1.0}),
                part.index("b"): chain._make_row({part.index("a"): 1.0}),
            },
            stop_row=chain._make_row({part.index("a"): 1.0}),
            marginal_row=chain._make_row({part.index("a"): 1.0}),
        )
        assert chain.sample_document(forced, rng, length=3) == ["a", "b", "a"]

    def test_length_exact_despite_stop_draws(self):
        model = chain.estimate([["a"], ["a"], ["a", "b"]], [], gamma=0.0)
        rng = np.random.default_rng(7)
        for target in (1, 4, 9):
            assert len(chain.sample_document(model, rng, length=target)) == target

    def test_negative_length_rejected(self):
        model = chain.estimate([["a", "b"]], [], gamma=0.0)
        with pytest.raises(ValueError) as exc:
            chain.sample_document(model, np.random.default_rng(0), length=-1)
        assert str(exc.value) == "length must be nonnegative, got -1"

    def test_lengths_drawn_from_empirical_multiset(self):
        model = chain.estimate([["a", "b"], ["b", "a", "b", "a"]], [], gamma=0.0)
        rng = np.random.default_rng(11)
        seen = {len(chain.sample_document(model, rng)) for _ in range(50)}
        assert seen <= {2, 4}
        assert seen == {2, 4}

    def test_zero_mass_minority_row_falls_back_to_marginal(self):
        part = chain.VocabPartition(words=("a", "b"), n_min=2)
        model = chain.TransitionModel(
            partition=part,
            gamma=0.0,
            lengths=(2,),
            min_rows={0: chain._make_row({1: 1.0})},  # row for b absent
            stop_row=chain._make_row({0: 1.0}),
            marginal_row=chain._make_row({0: 3.0}),
        )
        assert model.stored_row(1).total == 0.0
        assert model.row(1) is model.marginal_row
        rng = np.random.default_rng(3)
        doc = chain.sample_document(model, rng, length=5)
        assert len(doc) == 5  # the walk escaped the dead state

    def test_gamma_zero_documents_stay_in_minority_vocab(self, mini_docs):
        from emco import corpus

        train = corpus.training_documents(mini_docs)
        minority = [list(d.tokens) for d in train if "low" in d.labels]
        majority = [list(d.tokens) for d in train if "low" not in d.labels]
        model = chain.estimate(minority, majority, gamma=0.0)
        v_min = set(model.partition.v_min)
        rng = np.random.default_rng(5)
        for doc in chain.oversample(model, 200, rng):
            assert set(doc) <= v_min

    def test_oversample_count(self):
        model = chain.estimate([["a", "b"]], [], gamma=0.0)
        rng = np.random.default_rng(1)
        assert len(chain.oversample(model, 17, rng)) == 17
        assert chain.oversample(model, 0, rng) == []
        with pytest.raises(ValueError):
            chain.oversample(model, -1, rng)

    def test_empirical_transition_frequencies(self):
        # two-state chain: from a, go to b w.p. 2/3 and stop w.p. 1/3
        part = chain.VocabPartition(words=("a", "b"), n_min=2)
        model = chain.TransitionModel(
            partition=part,
            gamma=0.0,
            lengths=(1,),
            min_rows={
                0: chain._make_row({1: 2.0, 2: 1.0}),
                1: chain._make_row({0: 1.0}),
            },
            stop_row=chain._make_row({0: 1.0}),
            marginal_row=chain._make_row({0: 1.0}),
        )
        rng = np.random.default_rng(42)
        row = model.row(0)
        draws = Counter(row.draw(rng) for _ in range(30000))
        assert draws[1] / 30000 == pytest.approx(2 / 3, abs=0.01)
        assert draws[2] / 30000 == pytest.approx(1 / 3, abs=0.01)


class TestDraw:
    @given(
        st.dictionaries(
            st.integers(0, 1000),
            st.floats(min_value=5e-324, max_value=1e300, allow_subnormal=True),
            min_size=1, max_size=30,
        ),
        st.integers(0, 2 ** 32 - 1),
    )
    # a subnormal total: u * total rounds up to total for every u > 3/4, so
    # the search runs past the last running sum and the clamp picks the end
    @example({3: 5e-324, 8: 5e-324}, 0)
    @settings(max_examples=100)
    def test_draws_match_numpy_searchsorted(self, counts, seed):
        row = chain._make_row(counts)
        indices = np.array(sorted(counts))
        cumsum = np.cumsum([counts[i] for i in indices])
        total = cumsum[-1]
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(50):
            pos = np.searchsorted(cumsum, twin.random() * total, side="right")
            assert row.draw(rng) == indices[min(pos, len(indices) - 1)]


def walk_digest(docs):
    """sha256 of the documents that vocab-sweep walks on ``docs``: every
    evaluable task at ratio 0.2, with the seed of ``emco vocab-eval``."""
    n_train = len(corpus.training_documents(docs))
    walks = []
    for task in corpus.build_ovr_tasks(docs, 0.2):
        if not task.evaluable:
            continue
        minority = [d.tokens for d in task.train_minority]
        majority = [d.tokens for d in task.train_majority]
        s = harness.synthetic_count(n_train, len(minority), 0.2)
        for gamma in (0.0, 0.01, 0.1, 1.0):
            model = chain.estimate(minority, majority, gamma)
            rng = np.random.default_rng(
                harness.derive_seed(0, task.category, "vocab-eval", gamma)
            )
            walks.append(chain.oversample(model, s, rng))
    return hashlib.sha256(json.dumps(walks).encode("utf-8")).hexdigest()


def test_bundled_corpus_walks_are_pinned(mini_docs):
    assert walk_digest(mini_docs) == (
        "b1729d0a36781e77fab504d5c43f2b77892bf01ca29076bb5b49dcaa7e6a75a1"
    )


def reference_estimate(minority_docs, majority_docs, gamma):
    """The two-pass estimate the one-pass ``chain.estimate`` replaced: a
    ``VocabPartition.index`` call per token and a stop pair per document."""
    part = chain.VocabPartition.from_corpora(minority_docs, majority_docs)
    stop = part.stop_index
    transitions, initial, marginal, lengths = {}, Counter(), Counter(), []
    for doc in minority_docs:
        ids = [part.index(w) for w in doc]
        lengths.append(len(ids))
        initial[ids[0]] += 1
        for a, b in zip(ids, ids[1:]):
            transitions.setdefault(a, Counter())[b] += 1
        transitions.setdefault(ids[-1], Counter())[stop] += 1
        marginal.update(ids)
    if gamma > 0:
        for doc in majority_docs:
            ids = [part.index(w) for w in doc]
            for a, b in zip(ids, ids[1:]):
                if part.is_min(a):
                    transitions.setdefault(a, Counter())[b] += gamma
    for i, row in transitions.items():
        row.pop(i, None)
    return chain.TransitionModel(
        partition=part,
        gamma=gamma,
        lengths=tuple(lengths),
        min_rows={i: chain._make_row(row) for i, row in transitions.items()},
        stop_row=chain._make_row(initial),
        marginal_row=chain._make_row(marginal),
    )


class TestOnePassEstimate:
    @given(
        st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12),
                 min_size=1, max_size=8),
        st.lists(st.lists(st.sampled_from("defghij"), min_size=1, max_size=12),
                 max_size=8),
        st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    )
    @settings(max_examples=150)
    def test_rows_equal_the_two_pass_reference(self, minority, majority, gamma):
        got = chain.estimate(minority, majority, gamma)
        want = reference_estimate(minority, majority, gamma)
        assert got.partition == want.partition
        assert np.array_equal(got.lengths, want.lengths)
        for i in range(want.partition.stop_index + 1):
            g, w = got.stored_row(i), want.stored_row(i)
            for name in ("indices", "weights", "cumsum"):
                assert np.array_equal(getattr(g, name), getattr(w, name)), (i, name)


MINORITY_DOCS = st.lists(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=6), min_size=1, max_size=5
)
MAJORITY_DOCS = st.lists(
    st.lists(st.sampled_from("bcdefgh"), min_size=1, max_size=6), max_size=5
)


def walk_support(model, seed):
    rng = np.random.default_rng(seed)
    return {word for doc in chain.oversample(model, 20, rng) for word in doc}


class TestWalkSupport:
    @given(MINORITY_DOCS, MAJORITY_DOCS, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_gamma_zero_stays_in_minority_vocab(self, minority, majority, seed):
        model = chain.estimate(minority, majority, 0.0)
        v_min = {w for doc in minority for w in doc}
        assert walk_support(model, seed) <= v_min

    @given(
        MINORITY_DOCS, MAJORITY_DOCS, st.floats(0.001, 10.0),
        st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=60)
    def test_gamma_positive_adds_only_majority_successors_of_minority_words(
        self, minority, majority, gamma, seed
    ):
        model = chain.estimate(minority, majority, gamma)
        v_min = {w for doc in minority for w in doc}
        successors = {
            b for doc in majority for a, b in zip(doc, doc[1:])
            if a in v_min and b not in v_min
        }
        assert walk_support(model, seed) <= v_min | successors
