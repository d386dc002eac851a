"""Every check that a value from outside has the right type goes through
``vectorize.check_type``: config keys, corpus fields and token documents of
the wrong type are refused with one ``ValueError`` line that names the value,
says what it must be and gives the type it has. A new call site joins by
adding a row to ``GATED``."""

import argparse
import json

import numpy as np
import pytest

from emco import analysis, chain, classifier, cli, harness, vectorize
from emco.corpus import load_corpus_jsonl
from emco.vectorize import TfidfModel, check_type

PARTITION = chain.VocabPartition(words=("a", "ef"), n_min=1)
TFIDF = TfidfModel(vocabulary={"ab": 0}, idf=np.ones(1))
ROWS = vectorize.CsrRows.from_dense(np.eye(2))
MODEL = chain.estimate([["a", "b"]], [["b", "c"]], 1.0)


def config(**values):
    return lambda tmp_path: harness.ExperimentConfig(**{"corpus_path": "c.jsonl", **values})


def corpus_line(obj):
    """Load a corpus whose one line is ``obj`` as JSON, written to ``c.jsonl``."""
    def call(tmp_path):
        (tmp_path / "c.jsonl").write_text(json.dumps(obj) + "\n")
        load_corpus_jsonl(tmp_path / "c.jsonl")
    return call


def fields(**values):
    """A valid corpus line with ``values`` in place of its fields."""
    return {"id": "1", "text": "x", "labels": [], "split": "train", **values}


def config_file(content):
    """Build the CLI's config from a config file holding ``content``."""
    def call(tmp_path):
        (tmp_path / "config.json").write_text(json.dumps(content))
        cli._build_config(argparse.Namespace(config=str(tmp_path / "config.json")))
    return call


def ignore_path(call):
    return lambda tmp_path: call()


# (call site, call with a value of the wrong type given the test's tmp_path,
# its message with {corpus} for the path of c.jsonl)
GATED = [
    ("ExperimentConfig list", config(methods="ros"),
     "config key 'methods' must be a list, got str"),
    ("ExperimentConfig string", config(corpus_path=5),
     "config key 'corpus_path' must be a string, got int"),
    ("ExperimentConfig stopwords_path", config(stopwords_path=["stop.txt"]),
     "config key 'stopwords_path' must be a string, got list"),
    ("ExperimentConfig integer", config(repetitions=2.0),
     "config key 'repetitions' must be an integer, got float"),
    ("ExperimentConfig number", config(c="1"),
     "config key 'c' must be a number, got str"),
    ("ExperimentConfig list of numbers", config(sampling_ratios=[0.2, None]),
     "config key 'sampling_ratios' must be a list of numbers, got NoneType"),
    ("load_corpus_jsonl line", corpus_line(["1", "x", [], "train"]),
     "{corpus}:1: line must be a JSON object, got list"),
    ("load_corpus_jsonl labels", corpus_line(fields(labels={})),
     "{corpus}:1: labels must be a list, got dict"),
    ("load_corpus_jsonl id", corpus_line(fields(id=False)),
     "{corpus}:1: id must be a string or an integer, got bool"),
    ("load_corpus_jsonl text", corpus_line(fields(text=3)),
     "{corpus}:1: text must be a string, got int"),
    ("load_corpus_jsonl label", corpus_line(fields(labels=["a", None])),
     "{corpus}:1: labels must be a list of strings, got NoneType"),
    ("cli config file", config_file([1, 2]),
     "config file must be a JSON object, got list"),
    ("estimate minority document", ignore_path(lambda: chain.estimate(["ab"], [], 1.0)),
     "minority document must be a list of tokens, got str"),
    ("estimate minority documents", ignore_path(lambda: chain.estimate("ab", [], 1.0)),
     "minority documents must be a list or a tuple, got str"),
    # an iterator would be consumed by the check and then read as empty
    ("estimate minority documents iterator",
     ignore_path(lambda: chain.estimate(iter([["a", "b"]]), iter([["c"]]), 1.0)),
     "minority documents must be a list or a tuple, got list_iterator"),
    ("estimate majority documents iterator",
     ignore_path(lambda: chain.estimate([["a", "b"]], iter([["c"]]), 1.0)),
     "majority documents must be a list or a tuple, got list_iterator"),
    ("estimate majority document", ignore_path(lambda: chain.estimate([["a"]], [["b"], "c"], 1.0)),
     "majority document must be a list of tokens, got str"),
    ("VocabPartition.from_corpora word", ignore_path(lambda: chain.estimate([["a", 1]], [], 1.0)),
     "word must be a string, got int"),
    ("growth_curve document", ignore_path(lambda: analysis.growth_curve("abc", 1)),
     "document must be a list of tokens, got str"),
    ("vocab_expansion_eval synthetic document",
     ignore_path(lambda: analysis.vocab_expansion_eval(["ef"], PARTITION, [["ef"]])),
     "synthetic document must be a list of tokens, got str"),
    ("vocab_expansion_eval synthetic documents iterator",
     ignore_path(lambda: analysis.vocab_expansion_eval(iter([["ef"]]), PARTITION, [["ef"]])),
     "synthetic documents must be a list or a tuple, got list_iterator"),
    ("vocab_expansion_eval minority test documents generator",
     ignore_path(lambda: analysis.vocab_expansion_eval(
         [["ef"]], PARTITION, (doc for doc in [["ef"]])
     )),
     "minority test documents must be a list or a tuple, got generator"),
    ("vocab_expansion_eval minority test document",
     ignore_path(lambda: analysis.vocab_expansion_eval([["ef"]], PARTITION, [("ef",), {"ef"}])),
     "minority test document must be a list of tokens, got set"),
    ("transform_rows document",
     ignore_path(lambda: vectorize.transform_rows(iter([("ab",), b"ab"]), TFIDF)),
     "document must be a list of tokens, got bytes"),
    ("transform_tokens tokens", ignore_path(lambda: vectorize.transform_tokens("ab", TFIDF)),
     "document must be a list of tokens, got str"),
    ("estimate minority unhashable token",
     ignore_path(lambda: chain.estimate([["a", ["b"]]], [], 1.0)),
     "word must be a string, got list"),
    ("estimate majority unhashable token",
     ignore_path(lambda: chain.estimate([["a"]], [("b", {"c"})], 1.0)),
     "word must be a string, got set"),
    ("estimate majority int token", ignore_path(lambda: chain.estimate([["a"]], [["b", 2]], 1.0)),
     "word must be a string, got int"),
    ("transform_rows unhashable token",
     ignore_path(lambda: vectorize.transform_rows([["ab", ["ab"]]], TFIDF)),
     "word must be a string, got list"),
    ("transform_rows int token", ignore_path(lambda: vectorize.transform_rows([["ab", 3]], TFIDF)),
     "word must be a string, got int"),
    ("growth_curve unhashable token",
     ignore_path(lambda: analysis.growth_curve([["a"], [["b"]]], 1)),
     "word must be a string, got list"),
    ("growth_curve int token", ignore_path(lambda: analysis.growth_curve([[1, 2]], 1)),
     "word must be a string, got int"),
    ("growth_curve majority_vocab list",
     ignore_path(lambda: analysis.growth_curve([["a"]], 1, majority_vocab=["a"])),
     "majority_vocab must be a set of words, got list"),
    ("growth_curve majority_vocab string",
     ignore_path(lambda: analysis.growth_curve([["a"]], 1, majority_vocab="a")),
     "majority_vocab must be a set of words, got str"),
    ("vocab_expansion_eval synthetic unhashable token",
     ignore_path(lambda: analysis.vocab_expansion_eval([["ef", ["ef"]]], PARTITION, [["ef"]])),
     "word must be a string, got list"),
    ("vocab_expansion_eval synthetic int token",
     ignore_path(lambda: analysis.vocab_expansion_eval([[1]], PARTITION, [["ef"]])),
     "word must be a string, got int"),
    ("vocab_expansion_eval minority test unhashable token",
     ignore_path(lambda: analysis.vocab_expansion_eval([["ef"]], PARTITION, [("ef", {"a": 1})])),
     "word must be a string, got dict"),
    ("vocab_expansion_eval minority test int token",
     ignore_path(lambda: analysis.vocab_expansion_eval([["ef"]], PARTITION, [[0]])),
     "word must be a string, got int"),
    ("SparseVector None value", ignore_path(lambda: vectorize.SparseVector(((0, None),))),
     "entry value must be a real number, got NoneType"),
    ("SparseVector str value",
     ignore_path(lambda: vectorize.SparseVector(((0, 1.0), (1, "a")))),
     "entry value must be a real number, got str"),
    ("SparseVector bool value", ignore_path(lambda: vectorize.SparseVector(((0, True),))),
     "entry value must be a real number, got bool"),
    ("SparseVector numpy bool value",
     ignore_path(lambda: vectorize.SparseVector(((0, np.True_),))),
     "entry value must be a real number, got bool"),
    ("sample_document rng None", ignore_path(lambda: chain.sample_document(MODEL, None)),
     "rng must be a numpy Generator, got NoneType"),
    ("sample_document RandomState",
     ignore_path(lambda: chain.sample_document(MODEL, np.random.RandomState(0), 3)),
     "rng must be a numpy Generator, got RandomState"),
    ("oversample rng int", ignore_path(lambda: chain.oversample(MODEL, 2, 5)),
     "rng must be a numpy Generator, got int"),
    ("oversample RandomState",
     ignore_path(lambda: chain.oversample(MODEL, 2, np.random.RandomState(0))),
     "rng must be a numpy Generator, got RandomState"),
    ("train bool label", ignore_path(lambda: classifier.train(ROWS, [True, -1])),
     "labels must be -1 or +1, got True"),
    ("train numpy bool labels",
     ignore_path(lambda: classifier.train(ROWS, np.array([True, False]))),
     "labels must be -1 or +1, got True"),
]


@pytest.mark.parametrize(
    "call, message", [row[1:] for row in GATED], ids=[row[0] for row in GATED]
)
def test_wrong_type_is_one_line(tmp_path, call, message):
    with pytest.raises(ValueError) as exc:
        call(tmp_path)
    assert str(exc.value) == message.format(corpus=tmp_path / "c.jsonl")


def test_documents_as_lists_and_tuples_pass():
    model = chain.estimate([["a", "b"], ("b", "a")], [("b", "c"), []], 1.0)
    assert model.partition.words == ("a", "b", "c")
    assert len(analysis.growth_curve([("a",), ["b"]], 1)) == 2
    assert vectorize.transform_tokens(["ab"], TFIDF).entries == ((0, 1.0),)
    # numpy strings are strings
    model = chain.estimate([[np.str_("a"), "b"]], [(np.str_("c"),)], 1.0)
    assert model.partition.words == ("a", "b", "c")
    assert analysis.growth_curve([[np.str_("a"), "a"]], 1)[0].vocab_size == 1
    assert vectorize.transform_tokens([np.str_("ab")], TFIDF).entries == ((0, 1.0),)


def test_growth_curve_and_transform_rows_take_iterables():
    # both make a list of their documents before they check it
    assert analysis.growth_curve(iter([["a"], ["b", "a"]]), 1) == analysis.growth_curve(
        [["a"], ["b", "a"]], 1
    )
    rows = vectorize.transform_rows((doc for doc in [["ab"], ["cd"]]), TFIDF)
    assert (rows[0].entries, rows[1].entries) == (((0, 1.0),), ())


@pytest.mark.parametrize("value, kinds, description", [
    (True, int, "an integer"),
    (False, (str, int), "a string or an integer"),
])
def test_check_type_never_passes_a_bool(value, kinds, description):
    with pytest.raises(ValueError) as exc:
        check_type(value, "x", kinds, description)
    assert str(exc.value) == f"x must be {description}, got {type(value).__name__}"


def test_check_type_passes_subclasses():
    check_type(np.str_("a"), "x", str, "a string")
    check_type(np.int64(3), "x", np.integer, "an integer")
