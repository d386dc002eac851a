import re

import pytest
from hypothesis import given, strategies as st

from emco import cli, corpus
from emco.stemming import PorterStemmer, identity_stemmer

from conftest import make_raw


def run_pipeline(raws, stopwords=frozenset(), stemmer=identity_stemmer):
    return corpus.preprocess(raws, stopwords=stopwords, stemmer=stemmer)


class TestTokenize:
    def test_letters_only_split(self):
        assert corpus.tokenize("U.S. trade-gap 1987") == ["u", "s", "trade", "gap"]

    def test_empty(self):
        assert corpus.tokenize("") == []

    def test_non_ascii_letters_are_separators(self):
        assert corpus.tokenize("Äiti said hi") == ["iti", "said", "hi"]

    @given(st.text())
    def test_tokens_are_lowercase_ascii_letters(self, text):
        for tok in corpus.tokenize(text):
            assert re.fullmatch(r"[a-z]+", tok)

    @given(st.text())
    def test_retokenizing_join_is_stable(self, text):
        toks = corpus.tokenize(text)
        assert corpus.tokenize(" ".join(toks)) == toks


class TestPreprocess:
    def test_rare_stem_removed_everywhere(self):
        raws = [
            make_raw("1", "xyzzq common common common"),
            make_raw("2", "xyzzq common common common"),
            make_raw("3", "common xyzzq other", split="test"),
        ]
        docs = run_pipeline(raws)
        for doc in docs:
            assert "xyzzq" not in doc.tokens
        assert "common" in docs[0].tokens

    def test_single_character_stems_removed(self):
        raws = [make_raw(str(i), "a bb bb bb cc cc cc") for i in range(3)]
        docs = run_pipeline(raws)
        for doc in docs:
            assert "a" not in doc.tokens

    def test_empty_documents_dropped(self):
        raws = [
            make_raw("keep", "word word word"),
            make_raw("drop", "loner"),
        ]
        docs = run_pipeline(raws)
        assert [d.id for d in docs] == ["keep"]

    def test_stopwords_removed_before_stemming(self):
        # "running" is not a stopword, but its stem "run" might be on a list;
        # removal matches the surface form only.
        raws = [make_raw(str(i), "running running running stopme") for i in range(3)]
        docs = run_pipeline(raws, stopwords=frozenset({"stopme", "run"}),
                            stemmer=PorterStemmer())
        assert all("stopme" not in d.tokens for d in docs)
        assert all(d.tokens == ("run", "run", "run") for d in docs)

    def test_rarity_counts_come_from_training_split_only(self):
        raws = [
            make_raw("tr1", "steady steady steady testy"),
            make_raw("te1", "testy testy testy steady", split="test"),
        ]
        docs = run_pipeline(raws)
        # testy appears once in training -> removed from both splits
        for doc in docs:
            assert "testy" not in doc.tokens

    def test_no_test_leakage(self):
        train = [make_raw(str(i), "alpha alpha alpha beta beta beta") for i in range(3)]
        test_a = [make_raw("t", "alpha gammaz", split="test")]
        test_b = [make_raw("t", "alpha deltaz deltaz deltaz", split="test")]
        vocab_a = {t for d in run_pipeline(train + test_a) if d.split == "train" for t in d.tokens}
        vocab_b = {t for d in run_pipeline(train + test_b) if d.split == "train" for t in d.tokens}
        assert vocab_a == vocab_b

    def test_idempotent_identity_stemmer(self):
        raws = [
            make_raw("1", "red fox red fox red fox"),
            make_raw("2", "blue fox blue blue"),
            make_raw("3", "red blue fox", split="test"),
        ]
        once = run_pipeline(raws)
        again = run_pipeline(
            [make_raw(d.id, " ".join(d.tokens), tuple(d.labels), d.split) for d in once]
        )
        assert once == again

    def test_idempotent_default_pipeline_on_mini_corpus(self, mini_docs):
        again = corpus.preprocess(
            [
                corpus.RawDocument(d.id, " ".join(d.tokens), d.labels, d.split)
                for d in mini_docs
            ]
        )
        assert again == mini_docs


class TestOvrTasks:
    def _docs(self, freqs, n_train=100):
        # build a corpus with given minority counts per category
        docs = []
        idx = 0
        for cat, count in freqs.items():
            for _ in range(count):
                docs.append(corpus.Document(str(idx), ("w",), frozenset({cat}), "train"))
                idx += 1
        while len(docs) < n_train:
            docs.append(corpus.Document(str(idx), ("w",), frozenset({"filler"}), "train"))
            idx += 1
        docs.append(corpus.Document("t1", ("w",), frozenset(set(freqs)), "test"))
        docs.append(corpus.Document("t2", ("w",), frozenset({"filler"}), "test"))
        return docs

    def test_threshold_selection(self):
        docs = self._docs({"five": 5, "eight": 8})
        cats = {t.category for t in corpus.build_ovr_tasks(docs, 0.10)}
        assert "five" in cats  # 0.05 < 0.075
        assert "eight" not in cats  # 0.08 >= 0.075

    def test_partition_of_training_set(self, mini_docs):
        train = set(d.id for d in corpus.training_documents(mini_docs))
        for task in corpus.build_ovr_tasks(mini_docs, 0.2):
            minority = {d.id for d in task.train_minority}
            majority = {d.id for d in task.train_majority}
            assert minority | majority == train
            assert not minority & majority
            n = len(minority) + len(majority)
            assert task.minority_train_frequency == pytest.approx(len(minority) / n)

    def test_unevaluable_task_flagged(self):
        docs = self._docs({"five": 5})
        docs = [d for d in docs if d.split == "train"]
        docs.append(corpus.Document("t", ("w",), frozenset({"filler"}), "test"))
        tasks = corpus.build_ovr_tasks(docs, 0.10)
        assert [t.evaluable for t in tasks] == [False]

    def test_no_categories_yields_no_tasks(self):
        docs = [corpus.Document("1", ("w",), frozenset(), "train")]
        assert corpus.build_ovr_tasks(docs, 0.1) == []

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            corpus.build_ovr_tasks([], 1.0)


def test_corpus_jsonl_roundtrip(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "1", "text": "Hello there", "labels": ["a"], "split": "train"}\n'
        '{"id": 2, "text": "Bye", "labels": [], "split": "test"}\n'
    )
    docs = corpus.load_corpus_jsonl(path)
    assert docs[0].id == "1" and docs[0].labels == frozenset({"a"})
    assert docs[1].split == "test" and docs[1].id == "2"


def test_corpus_jsonl_bad_split(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "1", "text": "x", "labels": [], "split": "dev"}\n')
    with pytest.raises(ValueError):
        corpus.load_corpus_jsonl(path)


@pytest.mark.parametrize("lines, message", [
    (['{"id": "1", "text": "x", "split": "train"}'], ":1: missing key 'labels'"),
    (['{"text": "x", "labels": [], "split": "train"}'], ":1: missing key 'id'"),
    (['["1", "x", [], "train"]'], ":1: expected a JSON object"),
    (['{"id": "1", "text": "x", "labels": "abc", "split": "train"}'],
     ":1: labels must be a list, got str"),
    (['{"id": "1", "text": "x", "labels": [], "split": "train"}',
      '{"id": "1", "text": "y", "labels": [], "split": "test"}'],
     ":2: duplicate document id '1'"),
    (['{"id": "1", "text": ["wheat", "grain"], "labels": [], "split": "train"}'],
     ":1: text must be a string, got list"),
    (['{"id": "1", "text": null, "labels": [], "split": "train"}'],
     ":1: text must be a string, got NoneType"),
    (['{"id": "1", "text": "x", "labels": [["a", "b"]], "split": "train"}'],
     ":1: labels must be a list of strings, got list"),
    (['{"id": "1", "text": "x", "labels": ["a", 2], "split": "train"}'],
     ":1: labels must be a list of strings, got int"),
    (['{"id": 1.5, "text": "x", "labels": [], "split": "train"}'],
     ":1: id must be a string or an integer, got float"),
    (['{"id": true, "text": "x", "labels": [], "split": "train"}'],
     ":1: id must be a string or an integer, got bool"),
])
def test_corpus_jsonl_bad_line_is_one_line_error(tmp_path, lines, message):
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        corpus.load_corpus_jsonl(path)
    assert str(info.value) == f"{path}{message}"



class TestLoadDocuments:
    TEXT = "the wheat and the grain " * 3

    def write_corpus(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            f'{{"id": "1", "text": "{self.TEXT}", "labels": ["a"], "split": "train"}}\n'
        )
        return path

    def test_stopword_file_is_applied(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("wheat\n\n")
        docs = corpus.load_documents(self.write_corpus(tmp_path), stop)
        # "the" and "and" are not on the given list; "wheat" is
        assert docs[0].tokens == ("the", "and", "the", "grain") * 3

    def test_no_path_means_the_bundled_list(self, tmp_path):
        path = self.write_corpus(tmp_path)
        docs = corpus.load_documents(path)
        assert docs[0].tokens == ("wheat", "grain") * 3
        expected = corpus.preprocess(
            corpus.load_corpus_jsonl(path), stopwords=corpus.default_stopwords()
        )
        assert docs == expected

    def test_missing_corpus_is_reported_before_missing_stopwords(self, tmp_path):
        with pytest.raises(FileNotFoundError) as info:
            corpus.load_documents(tmp_path / "no.jsonl", tmp_path / "no.txt")
        assert info.value.filename == str(tmp_path / "no.jsonl")
        with pytest.raises(FileNotFoundError) as info:
            corpus.load_documents(self.write_corpus(tmp_path), tmp_path / "no.txt")
        assert info.value.filename == str(tmp_path / "no.txt")


class TestUndecodableInput:
    """Bad bytes and paths reach the command line as one ``error:`` line."""

    LINE = b'{"id": "%d", "text": "wheat grain caf\xe9", "labels": ["a"], "split": "train"}'

    def prep(self, capsys, *args):
        rc = cli.main(["prep", *map(str, args)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return rc, captured.err

    def test_corpus_line_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_bytes(self.LINE.replace(b"\xe9", b"e") % 1 + b"\n" + self.LINE % 2 + b"\n")
        rc, err = self.prep(capsys, "--corpus", path)
        assert rc == 1
        assert err == (
            f"error: {path}:2: 'utf-8' codec can't decode byte 0xe9 in position 36: "
            "invalid continuation byte\n"
        )

    def test_lines_split_where_text_mode_splits_them(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = self.LINE.replace(b"\xe9", b"e")
        path.write_bytes(good % 1 + b"\r\n" + good % 2 + b"\r" + self.LINE % 3 + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: 'utf-8'"):
            corpus.load_corpus_jsonl(path)
        path.write_bytes(good % 1 + b"\r\n\r" + good % 2 + b"\r")
        assert [d.id for d in corpus.load_corpus_jsonl(path)] == ["1", "2"]

    def test_stopword_line_that_is_not_utf8(self, tmp_path, mini_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"the\ncaf\xe9\n")
        rc, err = self.prep(capsys, "--corpus", mini_path, "--stopwords", stop)
        assert rc == 1
        assert err == (
            f"error: {stop}:2: 'utf-8' codec can't decode byte 0xe9 in position 3: "
            "unexpected end of data\n"
        )

    def test_empty_stopwords_path_is_a_missing_file(self, mini_path, capsys):
        rc, err = self.prep(capsys, "--corpus", mini_path, "--stopwords", "")
        assert rc == 1
        assert err == "error: [Errno 2] No such file or directory: ''\n"
