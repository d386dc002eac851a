import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from emco import analysis, chain
from emco.metrics import ConfusionCounts

WORDS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])
DOCS = st.lists(st.lists(WORDS, max_size=6), max_size=10)


def reference_growth_curve(documents, step, majority_vocab=None, shuffle_seed=None):
    """The word-by-word loop that ``growth_curve`` replaced."""
    docs = list(documents)
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        docs = [docs[i] for i in rng.permutation(len(docs))]
    points = []
    seen = set()
    total = 0
    for start in range(0, len(docs), step):
        new_words = set()
        for doc in docs[start : start + step]:
            total += len(doc)
            for word in doc:
                if word not in seen:
                    seen.add(word)
                    new_words.add(word)
        known = len(new_words & majority_vocab) if majority_vocab is not None else None
        points.append(analysis.GrowthPoint(total, len(seen), known))
    return points


def reference_vocab_expansion_eval(synthetic_docs, partition, minority_test_docs):
    """The word-by-word count over V_maj-only that ``vocab_expansion_eval``
    replaced."""
    synthetic_vocab = {w for doc in synthetic_docs for w in doc}
    test_vocab = {w for doc in minority_test_docs for w in doc}
    tp = fp = tn = fn = 0
    for word in partition.v_maj_only:
        if word in test_vocab:
            if word in synthetic_vocab:
                tp += 1
            else:
                fn += 1
        else:
            if word in synthetic_vocab:
                fp += 1
            else:
                tn += 1
    recall = tp / (tp + fn) if tp + fn else None
    tnr = tn / (tn + fp) if tn + fp else None
    ba = (recall + tnr) / 2 if recall is not None and tnr is not None else None
    return analysis.VocabExpansionReport(
        counts=ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn),
        recall=recall,
        tnr=tnr,
        ba=ba,
        new_synthetic_words=len(synthetic_vocab - set(partition.v_min)),
        empty=not partition.v_maj_only,
    )


class TestGrowthCurve:
    def test_cumulative_counts(self):
        docs = [["a", "b"], ["b", "c"], ["c", "c", "d"]]
        points = analysis.growth_curve(docs, step=1)
        assert [(p.total_words, p.vocab_size) for p in points] == [
            (2, 2), (4, 3), (7, 4)
        ]

    def test_step_groups_documents(self):
        docs = [["a"], ["b"], ["c"], ["d"], ["e"]]
        points = analysis.growth_curve(docs, step=2)
        assert [(p.total_words, p.vocab_size) for p in points] == [
            (2, 2), (4, 4), (5, 5)
        ]

    def test_new_words_known_in_majority(self):
        docs = [["a", "m1"], ["m2", "b"]]
        points = analysis.growth_curve(docs, step=1, majority_vocab={"m1", "m2"})
        assert [p.new_words_known_in_majority for p in points] == [1, 1]

    def test_shuffle_is_deterministic_and_preserves_final_point(self):
        docs = [["a"], ["a", "b"], ["c"], ["d", "d"]]
        first = analysis.growth_curve(docs, step=1, shuffle_seed=3)
        second = analysis.growth_curve(docs, step=1, shuffle_seed=3)
        unshuffled = analysis.growth_curve(docs, step=1)
        assert first == second
        assert first[-1] == unshuffled[-1]

    def test_bad_step(self):
        with pytest.raises(ValueError):
            analysis.growth_curve([["a"]], step=0)

    def test_monotone_invariants(self):
        rng = np.random.default_rng(0)
        docs = [
            [f"w{rng.integers(40)}" for _ in range(int(rng.integers(1, 15)))]
            for _ in range(60)
        ]
        points = analysis.growth_curve(docs, step=3)
        for prev, cur in zip(points, points[1:]):
            assert cur.total_words > prev.total_words
            assert cur.vocab_size >= prev.vocab_size
            assert cur.vocab_size <= cur.total_words


    @given(DOCS, st.integers(1, 4), st.none() | st.frozensets(WORDS) | st.sets(WORDS),
           st.none() | st.integers(0, 2**32))
    def test_counts_as_the_word_loop(self, docs, step, majority_vocab, shuffle_seed):
        got = analysis.growth_curve(docs, step, majority_vocab, shuffle_seed)
        assert repr(got) == repr(reference_growth_curve(docs, step, majority_vocab, shuffle_seed))


class TestFitHeaps:
    def test_recovers_exact_power_law(self):
        # GrowthPoint stores ints, so pick (k, theta) giving integer T exactly:
        # T = 2 * sqrt(A) with A a perfect square
        squares = [4, 64, 400, 2500, 40000]
        points = [analysis.GrowthPoint(s, int(2 * math.isqrt(s))) for s in squares]
        fit = analysis.fit_heaps(points)
        assert fit.theta == pytest.approx(0.5, abs=1e-9)
        assert fit.k == pytest.approx(2.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_noisy_fit_within_tolerance(self):
        rng = np.random.default_rng(1)
        misses = 0
        for _ in range(30):
            theta = rng.uniform(0.3, 0.8)
            k = rng.uniform(5, 80)
            a = np.geomspace(200, 2e5, 12)
            t = k * a ** theta * np.exp(rng.normal(0, 0.02, size=len(a)))
            points = [
                analysis.GrowthPoint(int(ai), max(1, int(round(ti))))
                for ai, ti in zip(a, t)
            ]
            fit = analysis.fit_heaps(points)
            if abs(fit.theta - theta) > 0.05:
                misses += 1
        assert misses == 0

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            analysis.fit_heaps([analysis.GrowthPoint(10, 5)])
        with pytest.raises(ValueError):
            analysis.fit_heaps(
                [analysis.GrowthPoint(10, 5), analysis.GrowthPoint(10, 6)]
            )
        with pytest.raises(ValueError):
            analysis.fit_heaps(
                [analysis.GrowthPoint(10, 0), analysis.GrowthPoint(20, 5)]
            )


def make_partition():
    minority = [["a", "b"], ["b", "c"]]
    majority = [["a", "x"], ["y", "z", "b"]]
    return chain.VocabPartition.from_corpora(minority, majority)


class TestVocabExpansionEval:
    def test_confusion_assignment(self):
        part = make_partition()  # v_maj_only = x, y, z
        report = analysis.vocab_expansion_eval(
            synthetic_docs=[["a", "x"], ["b", "y"]],
            partition=part,
            minority_test_docs=[["x", "c"], ["z"]],
        )
        # x: actual+predicted (tp); y: predicted only (fp); z: actual only (fn)
        assert (report.counts.tp, report.counts.fp, report.counts.fn) == (1, 1, 1)
        assert report.counts.tn == 0
        assert report.recall == pytest.approx(0.5)
        assert report.tnr == pytest.approx(0.0)
        assert report.ba == pytest.approx(0.25)

    def test_new_synthetic_words_counts_beyond_v_min(self):
        part = make_partition()
        report = analysis.vocab_expansion_eval(
            synthetic_docs=[["a", "x", "x", "z"]],
            partition=part,
            minority_test_docs=[],
        )
        assert report.new_synthetic_words == 2  # x and z, a is in v_min

    def test_undefined_metrics_are_none(self):
        part = make_partition()
        report = analysis.vocab_expansion_eval(
            synthetic_docs=[["x"], ["y"], ["z"]],
            partition=part,
            minority_test_docs=[],  # no actual positives
        )
        assert report.recall is None and report.ba is None
        assert report.tnr == pytest.approx(0.0)

    def test_empty_majority_vocab(self):
        part = chain.VocabPartition.from_corpora([["a"]], [["a"]])
        report = analysis.vocab_expansion_eval([["a"]], part, [["a"]])
        assert report.empty
        assert report.counts.total == 0


    @given(DOCS, DOCS, st.lists(st.lists(WORDS | st.just("z"), max_size=6), max_size=6), DOCS)
    @example([["a"]], [["a", "b"]], [], [["b"]])  # no synthetic documents
    @example([["a"]], [["a", "b"]], [["b", "z"]], [])  # no test documents
    @example([["a", "b"]], [["a"]], [["a", "z"]], [["b"]])  # V_maj-only is empty
    def test_counts_as_the_word_loop(self, minority, majority, synthetic, test):
        partition = chain.VocabPartition.from_corpora(minority, majority)
        got = analysis.vocab_expansion_eval(synthetic, partition, test)
        assert repr(got) == repr(reference_vocab_expansion_eval(synthetic, partition, test))


def test_write_curve_csv(tmp_path):
    points = [
        analysis.GrowthPoint(10, 5, 2),
        analysis.GrowthPoint(20, 8, None),
    ]
    path = tmp_path / "curve.csv"
    analysis.write_curve_csv(path, points)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["A", "T", "new_known_in_majority"], ["10", "5", "2"], ["20", "8", ""]]
    assert path.read_bytes() == b"A,T,new_known_in_majority\r\n10,5,2\r\n20,8,\r\n"


def test_write_fit_json(tmp_path):
    path = tmp_path / "fit.json"
    analysis.write_fit_json(path, analysis.HeapsFit(k=63.0, theta=0.378, r2=0.999))
    data = json.loads(path.read_text())
    assert data == {"k": 63.0, "theta": 0.378, "r2": 0.999}
