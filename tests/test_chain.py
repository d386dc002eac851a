import gc
import hashlib
import itertools
import json
import pickle
import sys
import threading
import weakref
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from emco import chain, classifier, corpus, harness

MIN_3DOC = [["a", "b"], ["b", "a"]]
MAJ_3DOC = [["b", "c", "a"]]


def w(model, src, dst):
    part = model.partition
    i = part.stop_index if src == "<stop>" else part.words.index(src)
    j = part.stop_index if dst == "<stop>" else part.words.index(dst)
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
            assert part.words.index(word) == idx

    def test_repeated_word_is_one_line(self):
        # a repeated word would be a minority word and a majority-only word at once
        with pytest.raises(ValueError) as exc:
            chain.VocabPartition(words=("a", "b", "c", "b", "a"), n_min=1)
        assert str(exc.value) == "word 'a' is repeated"


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
        assert model.stored_row(part.words.index("z")) is model.marginal_row

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
        endings = Counter(part.words.index(d[-1]) for d in minority)
        starts = Counter(part.words.index(d[0]) for d in minority)
        for i in range(stop):
            assert model.weight(i, stop) == endings.get(i, 0)
            assert model.weight(stop, i) == starts.get(i, 0)
        # majority-only rows alias the marginal distribution
        for i in range(part.n_min, stop):
            assert model.stored_row(i) is model.marginal_row
        # gamma=0 never reaches outside the minority vocabulary
        if gamma == 0:
            for row in model.min_rows.values():
                assert all(j == stop or j < part.n_min for j in row.indices)


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
                part.words.index("a"): chain._make_row({part.words.index("b"): 1.0}),
                part.words.index("b"): chain._make_row({part.words.index("a"): 1.0}),
            },
            stop_row=chain._make_row({part.words.index("a"): 1.0}),
            marginal_row=chain._make_row({part.words.index("a"): 1.0}),
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
        assert str(exc.value) == "length must be >= 0, got -1"

    @pytest.mark.parametrize("length", [True, False, 2.5, 3.0, "3"])
    def test_length_must_be_an_integer(self, length):
        model = chain.estimate([["a", "b"]], [], gamma=0.0)
        with pytest.raises(ValueError) as exc:
            chain.sample_document(model, np.random.default_rng(0), length=length)
        assert str(exc.value) == f"length must be an integer, got {length!r}"

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

    @pytest.mark.parametrize("count", [2.5, True, "3"])
    def test_oversample_count_must_be_an_integer(self, count):
        model = chain.estimate([["a", "b"]], [], gamma=0.0)
        with pytest.raises(ValueError) as exc:
            chain.oversample(model, count, np.random.default_rng(1))
        assert str(exc.value) == f"count must be an integer, got {count!r}"

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


@pytest.mark.usefixtures("python_loop")
def test_bundled_corpus_walks_are_pinned_on_the_python_walk(mini_docs):
    test_bundled_corpus_walks_are_pinned(mini_docs)


def reference_estimate(minority_docs, majority_docs, gamma):
    """The two-pass estimate the one-pass ``chain.estimate`` replaced: a
    ``VocabPartition.index`` call per token and a stop pair per document."""
    part = chain.VocabPartition.from_corpora(minority_docs, majority_docs)
    stop = part.stop_index
    transitions, initial, marginal, lengths = {}, Counter(), Counter(), []
    for doc in minority_docs:
        ids = [part.words.index(w) for w in doc]
        lengths.append(len(ids))
        initial[ids[0]] += 1
        for a, b in zip(ids, ids[1:]):
            transitions.setdefault(a, Counter())[b] += 1
        transitions.setdefault(ids[-1], Counter())[stop] += 1
        marginal.update(ids)
    if gamma > 0:
        for doc in majority_docs:
            ids = [part.words.index(w) for w in doc]
            for a, b in zip(ids, ids[1:]):
                if a < part.n_min:
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

    @given(
        st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12),
                 min_size=1, max_size=8),
        st.lists(st.lists(st.sampled_from("defghij"), min_size=1, max_size=12),
                 max_size=8),
        st.sampled_from([0.0, 0.3]),
    )
    def test_stop_and_marginal_rows_count_the_minority_tokens(self, minority, majority, gamma):
        model = chain.estimate(minority, majority, gamma)

        def by_word(row):
            return {model.partition.words[t]: w for t, w in zip(row.targets, row.weight_values)}

        assert by_word(model.stop_row) == Counter(doc[0] for doc in minority)
        assert by_word(model.marginal_row) == Counter(w for doc in minority for w in doc)


def test_gamma_is_added_once_per_majority_pair():
    # a -> b: counted once in the minority document, twice in the majority one
    model = chain.estimate([["a", "b"]], [["a", "b", "a", "b"]], 0.1)
    assert w(model, "a", "b") == 1.0 + 0.1 + 0.1 == 1.2000000000000002
    assert 1.0 + 2 * 0.1 == 1.2  # which a product would have stored
    assert w(model, "b", "a") == 0.1


def table_bytes(model):
    """Every array of a model's table, its lengths, partition, stop row and
    marginal row, as bytes where they are floats."""
    table = model._table
    arrays = (table.indptr, table.targets, table.weights, table.cumsum, table.total,
              table.sampling)

    def row(r):
        return r.targets, r.weight_values.tobytes(), r.cumsum.tobytes(), r.total

    return ([(a.dtype.str, a.tobytes()) for a in arrays], model.lengths, model.partition,
            row(model.stop_row), row(model.marginal_row))


def as_given(docs, as_tuples):
    return tuple(map(tuple, docs)) if as_tuples else [list(doc) for doc in docs]


TASK_DOCS = st.tuples(
    st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10),
             min_size=1, max_size=6),
    st.lists(st.lists(st.sampled_from("defghij"), min_size=1, max_size=10), max_size=6),
)


class TestTaskMemo:
    """``estimate`` keeps the gamma-free part of the last task it saw; every
    model must still be the model the two-pass reference builds. This class
    runs on the compiled path where the kernel loads, and its subclass on the
    Python path."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(chain, "_memo", (None, None))

    @given(
        st.lists(TASK_DOCS, min_size=1, max_size=2),
        st.lists(st.tuples(st.integers(0, 1), st.sampled_from([0.0, 0.01, 0.3, 1.0]),
                           st.booleans()), min_size=1, max_size=8),
    )
    @example([([["a", "b"], ["b", "a"]], [["b", "c", "a"]])],
             [(0, 1.0, False), (0, 0.0, True), (0, 1.0, True), (0, 0.0, False)])
    @settings(max_examples=80, suppress_health_check=[HealthCheck.differing_executors])
    def test_models_equal_the_reference_across_gammas_and_tasks(self, tasks, calls):
        for which, gamma, as_tuples in calls:
            minority, majority = tasks[which % len(tasks)]
            got = chain.estimate(as_given(minority, as_tuples), as_given(majority, as_tuples),
                                 gamma)
            assert table_bytes(got) == table_bytes(reference_estimate(minority, majority, gamma))

    def test_a_task_is_counted_once_across_its_gammas(self, monkeypatch):
        mapped = []
        pair_keys = chain._pair_keys
        monkeypatch.setattr(chain, "_pair_keys",
                            lambda docs, index: mapped.append(len(docs)) or pair_keys(docs, index))
        minority, majority = [["a", "b"], ["b", "a"]], [["b", "c", "a"], ["c"]]
        chain.estimate(minority, majority, 0.0)
        assert mapped == [2]  # gamma 0 maps no majority document
        for gamma in (1.0, 0.0, 0.1, 1.0):
            chain.estimate(minority, tuple(majority), gamma)
        assert mapped == [2, 2]

    def test_a_list_changed_in_place_is_a_new_task(self):
        minority, majority = [["a", "b"], ["b", "a"]], [["b", "c", "a"]]
        chain.estimate(minority, majority, 1.0)
        majority[0].append("d")
        minority[1][0] = "c"
        got = chain.estimate(minority, majority, 1.0)
        assert table_bytes(got) == table_bytes(reference_estimate(minority, majority, 1.0))
        assert got.partition.words == ("a", "b", "c", "d")
        # the majority pairs, counted at the first gamma above 0, are those
        # of the documents as they were when the task was first seen
        minority, majority = [["p", "q"]], [["q", "r", "p"]]
        chain.estimate(minority, majority, 0.0)
        before = [list(doc) for doc in majority]
        majority[0][1] = "s"
        got = chain.estimate(minority, before, 1.0)
        assert table_bytes(got) == table_bytes(reference_estimate(minority, before, 1.0))

    @pytest.mark.parametrize("minority, majority, message", [
        # "ab" reads as the document ("a", "b") once made a tuple
        (["ab", ["b", "a"]], [["b", "c", "a"]],
         "minority document must be a list of tokens, got str"),
        ([["a", "b"], ["b", "a"]], ["bca"], "majority document must be a list of tokens, got str"),
        ([["a", "b"], ["b", "a"]], [["b", "c", "a"], ["b", 1]], "word must be a string, got int"),
        ([["a", "b"], []], [["b", "c", "a"]], "minority documents must be nonempty"),
    ])
    def test_a_bad_document_beside_the_memo_key_is_refused(self, minority, majority, message):
        chain.estimate([["a", "b"], ["b", "a"]], [["b", "c", "a"]], 1.0)
        chain.estimate([["a", "b"], ["b", "a"]], [list("bca")], 1.0)  # a hit
        with pytest.raises(ValueError) as exc:
            chain.estimate(minority, majority, 1.0)
        assert str(exc.value) == message

    def test_threads_alternating_two_tasks_get_the_single_threaded_tables(self, mini_docs):
        tasks = evaluable_tasks(mini_docs)[:2]
        gammas = (0.0, 1.0, 0.1)
        want = {(t, g): table_bytes(chain.estimate(*tasks[t], g))
                for t in range(2) for g in gammas}
        got, errors = [], []

        def work(first):
            try:
                for i in range(12):
                    t = (first + i) % 2
                    for g in gammas:
                        got.append(((t, g), table_bytes(chain.estimate(*tasks[t], g))))
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(first,)) for first in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(got) == 2 * 12 * len(gammas)
        for case, tables in got:
            assert tables == want[case], case

    def test_the_memo_holds_the_last_task_only(self):
        first = chain.estimate([["a", "b"]], [["b", "c"]], 1.0)
        entry = weakref.ref(chain._memo[1])
        second = ([["x", "y"], ["y"]], [["y", "z"]])
        chain.estimate(*second, 0.0)
        gc.collect()
        assert entry() is None
        assert chain._memo[0] == tuple(tuple(map(tuple, docs)) for docs in second)
        assert chain._memo[1].partition == chain.VocabPartition(("x", "y", "z"), 2)
        assert first.partition.words == ("a", "b", "c")  # a model keeps what it read


@pytest.mark.usefixtures("python_loop")
class TestTaskMemoOnPythonPath(TestTaskMemo):
    pass


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


def reference_rows(model, state):
    """(stored row, sampling row) of ``state``, resolved by the rule the walk
    follows, one step at a time:
    - a majority-only word takes the marginal row;
    - the stop state takes the stop row;
    - a minority word with no row takes an empty row;
    - a row with zero mass samples from the marginal row."""
    part = model.partition
    if state == part.stop_index:
        stored = model.stop_row
    elif state >= part.n_min:
        stored = model.marginal_row
    else:
        stored = model.min_rows.get(state, chain._make_row({}))
    return stored, stored if stored.total > 0 else model.marginal_row


def reference_walk(model, rng, length=None):
    """``chain.sample_document`` with each step's row resolved by
    ``reference_rows`` and one ``rng.random()`` call per step."""
    if length is None:
        length = int(model.lengths[rng.integers(len(model.lengths))])
    stop = current = model.partition.stop_index
    out = []
    while len(out) < length:
        current = reference_rows(model, current)[1].draw(rng)
        if current != stop:
            out.append(model.partition.words[current])
    return out


class TestStateTable:
    def assert_follows_the_rule(self, model, seeds):
        for state in range(model.partition.stop_index + 1):
            stored, sampling = reference_rows(model, state)
            assert model.stored_row(state) is stored, state
            assert model.row(state) is sampling, state
        for seed in seeds:
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            want = [reference_walk(model, twin) for _ in range(20)]
            assert chain.oversample(model, 20, rng) == want
            assert rng.random() == twin.random()  # no uniform drawn beyond the walk's

    @given(MINORITY_DOCS, MAJORITY_DOCS, st.sampled_from([0.0, 0.01, 1.0]),
           st.integers(0, 2 ** 32 - 1))
    # TestStateTableOnPythonWalk runs this test too, on the Python walk
    @settings(max_examples=60, suppress_health_check=[HealthCheck.differing_executors])
    def test_estimated_models_walk_as_the_reference(self, minority, majority, gamma, seed):
        self.assert_follows_the_rule(chain.estimate(minority, majority, gamma), [seed])

    @given(MINORITY_DOCS, MAJORITY_DOCS, st.sampled_from([0.0, 1.0]),
           st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 12), max_size=6))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.differing_executors])
    def test_explicit_lengths_walk_as_the_reference(self, minority, majority, gamma, seed,
                                                    lengths):
        model = chain.estimate(minority, majority, gamma)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for length in [0, *lengths]:
            got = chain.sample_document(model, rng, length=length)
            assert got == reference_walk(model, twin, length) and len(got) == length
        assert rng.random() == twin.random()

    def test_missing_and_zero_mass_rows_walk_as_the_reference(self):
        # 'b' has no row, 'c' a row of zero mass, and 'd' is majority-only
        model = chain.TransitionModel(
            partition=chain.VocabPartition(words=("a", "b", "c", "d"), n_min=3),
            gamma=1.0,
            lengths=(1, 4, 7),
            min_rows={
                0: chain._make_row({1: 1.0, 3: 2.0, 4: 1.0}),
                2: chain._Row((0,), array("d", [0.0])),
            },
            stop_row=chain._make_row({0: 1.0, 1: 1.0, 2: 1.0}),
            marginal_row=chain._make_row({0: 2.0, 1: 1.0, 2: 1.0}),
        )
        assert model.stored_row(1).total == model.stored_row(2).total == 0.0
        assert model.stored_row(2).targets == (0,)
        self.assert_follows_the_rule(model, range(5))

    def test_subnormal_rows_walk_as_the_reference(self):
        # u * total rounds onto a running sum for many u, so the search must
        # take the position past equal sums, as bisect_right does
        tiny = 5e-324
        model = chain.TransitionModel(
            partition=chain.VocabPartition(words=("a", "b", "c"), n_min=3),
            gamma=0.0,
            lengths=(3, 6),
            min_rows={
                0: chain._make_row({1: tiny, 2: tiny, 3: tiny}),
                1: chain._make_row({0: tiny, 2: tiny}),
                2: chain._make_row({0: tiny, 1: tiny, 3: tiny}),
            },
            stop_row=chain._make_row({0: tiny, 1: tiny, 2: tiny}),
            marginal_row=chain._make_row({0: 1.0}),
        )
        self.assert_follows_the_rule(model, range(5))

    @pytest.mark.parametrize("state", [-1, 4, 99, True, False, 2.5, np.float64(1.0), "1", None])
    def test_out_of_range_state_rejected(self, state):
        model = chain.estimate(MIN_3DOC, MAJ_3DOC, gamma=1.0)
        message = (f"state must be in [0, 3], got {state}" if type(state) is int
                   else f"state must be an integer, got {state!r}")
        calls = (model.row, model.stored_row, lambda s: model.weight(s, 0),
                 lambda s: model.weight(0, s))
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call(state)
            assert str(exc.value) == message

    def test_every_state_index_accepted(self):
        model = chain.estimate(MIN_3DOC, MAJ_3DOC, gamma=1.0)
        assert model.row(np.int64(3)) is model.stop_row
        assert model.weight(np.int64(2), np.int64(0)) == 2.0
        assert model.weight(3, 3) == 0.0

    def test_models_compare_by_identity(self):
        model = chain.estimate(MIN_3DOC, MAJ_3DOC, gamma=1.0)
        again = chain.estimate(MIN_3DOC, MAJ_3DOC, gamma=1.0)
        assert model == model and hash(model) == hash(model)
        assert model != again
        keys = {model: "first", again: "second"}
        assert len(keys) == 2 and keys[model] == "first"


@pytest.mark.usefixtures("python_loop")
class TestStateTableOnPythonWalk(TestStateTable):
    pass


def on_the_python_walk(call):
    """``call()`` with the chain summed and walked in Python."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifier, "load_kernel", lambda: None)
        return call()


def evaluable_tasks(docs):
    """(minority, majority) token lists of each evaluable task at ratio 0.2."""
    return [
        ([d.tokens for d in task.train_minority], [d.tokens for d in task.train_majority])
        for task in corpus.build_ovr_tasks(docs, 0.2) if task.evaluable
    ]


@pytest.mark.usefixtures("compiled_kernel")
class TestCompiledTable:
    @given(MINORITY_DOCS, MAJORITY_DOCS, st.sampled_from([0.0, 0.01, 1.0]),
           st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 12), max_size=4))
    @settings(max_examples=60)
    def test_walks_leave_the_generator_as_the_python_walk(self, minority, majority, gamma,
                                                          seed, lengths):
        model = chain.estimate(minority, majority, gamma)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)

        def walk(generator):
            docs = chain.oversample(model, 10, generator)
            return docs + [chain.sample_document(model, generator, n) for n in lengths]

        assert walk(rng) == on_the_python_walk(lambda: walk(twin))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("gamma", [0.01, 0.1])
    def test_running_sums_are_the_bits_of_accumulate(self, mini_docs, gamma):
        for minority, majority in evaluable_tasks(mini_docs):
            table = chain.estimate(minority, majority, gamma)._table
            bounds, weights = table.indptr.tolist(), table.weights.tolist()
            rows = [list(itertools.accumulate(weights[s:e])) for s, e in zip(bounds, bounds[1:])]
            assert table.cumsum.tobytes() == np.array(sum(rows, []), dtype=float).tobytes()
            totals = [row[-1] if row else 0.0 for row in rows]
            assert table.total.tobytes() == np.array(totals).tobytes()
            python = on_the_python_walk(lambda: chain.estimate(minority, majority, gamma))._table
            assert python.cumsum.tobytes() == table.cumsum.tobytes()

    def test_a_pickled_model_walks_its_own_arrays(self):
        model = chain.estimate(MIN_3DOC, MAJ_3DOC, 1.0)
        chain.oversample(model, 3, np.random.default_rng(0))  # the walk takes the addresses
        copy = pickle.loads(pickle.dumps(model))
        table = copy._table
        arrays = (table.indptr, table.targets, table.cumsum, table.total, table.sampling)
        assert table.addresses == tuple(a.ctypes.data for a in arrays)
        walks = [chain.oversample(m, 20, np.random.default_rng(1)) for m in (copy, model)]
        assert walks[0] == walks[1]

    @given(st.lists(st.lists(st.floats(allow_nan=False), max_size=6), min_size=1, max_size=6))
    @example([[-0.0, 0.0], [], [5e-324, 1e308, 1e308]])  # a signed zero first, then overflow
    def test_kernel_sums_rows_as_accumulate(self, rows):
        indptr = np.cumsum([0, *map(len, rows)], dtype=np.intp)
        weights = np.array(sum(rows, []), dtype=float)
        want = on_the_python_walk(lambda: chain._running_sums(indptr, weights))
        assert chain._running_sums(indptr, weights).tobytes() == want.tobytes()


def test_estimate_builds_no_row_until_one_is_asked_for(mini_docs, monkeypatch):
    minority, majority = max(evaluable_tasks(mini_docs), key=lambda task: len(task[0]))
    built = []
    init = chain._Row.__init__
    monkeypatch.setattr(chain._Row, "__init__", lambda row, *args: built.append(row) or init(row, *args))
    model = chain.estimate(minority, majority, 1.0)
    assert built == [model.stop_row, model.marginal_row]
    chain.oversample(model, 50, np.random.default_rng(0))  # the walk reads the table only
    assert len(built) == 2
    row = model.row(5)
    assert built[2:] == [row]
    assert model.stored_row(5) is model.min_rows[5] is model.min_rows.get(5) is row
    assert len(built) == 3


class TestHandBuiltTable:
    """A model built from rows is refused where its walk could leave the table."""

    PART = chain.VocabPartition(words=("a", "b"), n_min=2)

    def model(self, rows, marginal=None):
        return chain.TransitionModel(
            partition=self.PART, gamma=0.0, lengths=(2,), min_rows=rows,
            stop_row=chain._make_row({0: 1.0}),
            marginal_row=chain._make_row({0: 1.0}) if marginal is None else marginal,
        )

    @pytest.mark.parametrize("target", [-1, 3, 99])
    def test_target_outside_the_states(self, target):
        with pytest.raises(ValueError) as exc:
            self.model({0: chain._make_row({target: 1.0}), 1: chain._make_row({0: 1.0})})
        assert str(exc.value) == f"row target must be in [0, 2], got {target}"

    def test_row_without_a_weight_per_target(self):
        with pytest.raises(ValueError, match="one weight per target"):
            self.model({0: chain._Row((1, 2), array("d", [1.0])), 1: chain._make_row({0: 1.0})})

    def test_empty_marginal_row_where_a_state_needs_it(self):
        with pytest.raises(ValueError, match="the marginal row is empty"):
            self.model({0: chain._make_row({1: 1.0})}, marginal=chain._make_row({}))
        # where every state has a row of its own, the marginal row is never read
        model = self.model({0: chain._make_row({1: 1.0}), 1: chain._make_row({2: 1.0})},
                           marginal=chain._make_row({}))
        assert chain.sample_document(model, np.random.default_rng(0), 4) == ["a", "b"] * 2
