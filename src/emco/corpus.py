"""Corpus ingestion, preprocessing pipeline, and one-vs-rest task building.

The pipeline applied to every document is: tokenize -> stopword removal ->
stem -> drop single-character stems -> drop stems whose total count over the
training split is at most two -> drop documents left empty. The rarity filter
is computed from training documents only and the resulting removal set is
applied to both splits, so test text can never influence the vocabulary.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .data import stopwords_path
from .stemming import PorterStemmer
from .vectorize import check_real, check_type

_TOKEN_RE = re.compile(r"[a-z]+")

Stemmer = Callable[[str], str]


@dataclass(frozen=True)
class RawDocument:
    """A labeled text document before preprocessing."""

    id: str
    text: str
    labels: frozenset[str]
    split: str  # "train" or "test"


@dataclass(frozen=True)
class Document:
    """A preprocessed document: an ordered sequence of lowercase tokens."""

    id: str
    tokens: tuple[str, ...]
    labels: frozenset[str]
    split: str


@dataclass(frozen=True)
class OvrTask:
    """One binary one-vs-rest classification task for a single category."""

    category: str
    train_minority: tuple[Document, ...]
    train_majority: tuple[Document, ...]
    test: tuple[Document, ...]
    minority_train_frequency: float
    evaluable: bool = True

    def label(self, doc: Document) -> int:
        """+1 for a document of the category, -1 otherwise."""
        return 1 if self.category in doc.labels else -1


def tokenize(raw_text: str) -> list[str]:
    """Lowercase and split on any non-ASCII-letter character.

    Non-ASCII letters act as separators, so e.g. accented characters break
    words apart rather than joining them.
    """
    return _TOKEN_RE.findall(raw_text.lower())


def _text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 file with its number, split where text mode
    splits (at \\n, \\r\\n and \\r); a line that is not UTF-8 is a
    ``path:line:`` error."""
    with open(path, "rb") as handle:
        lines = (line for chunk in handle for line in chunk.splitlines())
        for lineno, line in enumerate(lines, start=1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            yield lineno, text


def load_corpus_jsonl(path: str | Path) -> list[RawDocument]:
    """Read a JSON-lines corpus with fields id, text, labels, split."""
    docs = []
    seen: set[str] = set()
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        check_type(obj, f"{path}:{lineno}: line", dict, "a JSON object")
        for key in ("id", "text", "labels", "split"):
            if key not in obj:
                raise ValueError(f"{path}:{lineno}: missing key {key!r}")
        split = obj["split"]
        if split not in ("train", "test"):
            raise ValueError(f"{path}:{lineno}: bad split {split!r}")
        check_type(obj["labels"], f"{path}:{lineno}: labels", list, "a list")
        for key, value, kinds, description in (
            ("id", obj["id"], (str, int), "a string or an integer"),
            ("text", obj["text"], str, "a string"),
            *(("labels", x, str, "a list of strings") for x in obj["labels"]),
        ):
            check_type(value, f"{path}:{lineno}: {key}", kinds, description)
        doc_id = str(obj["id"])
        if doc_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
        seen.add(doc_id)
        docs.append(
            RawDocument(
                id=doc_id,
                text=obj["text"],
                labels=frozenset(obj["labels"]),
                split=split,
            )
        )
    return docs


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list, one word per line; blank lines ignored."""
    return frozenset(line.strip() for _, line in _text_lines(path) if line.strip())


def default_stopwords() -> frozenset[str]:
    """Bundled English stopword list."""
    return load_stopwords(stopwords_path())


def load_documents(
    path: str | Path, stopwords_path: str | Path | None = None
) -> list[Document]:
    """The corpus at ``path``, preprocessed with the stopword list at
    ``stopwords_path``, else the bundled one; a missing corpus is reported first."""
    raw = load_corpus_jsonl(path)
    stopwords = (
        default_stopwords() if stopwords_path is None
        else load_stopwords(stopwords_path)
    )
    return preprocess(raw, stopwords=stopwords)


def default_stemmer() -> Stemmer:
    return PorterStemmer()


def preprocess(
    corpus: Iterable[RawDocument],
    stopwords: frozenset[str] | None = None,
    stemmer: Stemmer | None = None,
) -> list[Document]:
    """Run the full preprocessing pipeline over a corpus.

    Stopwords are matched on unstemmed surface forms. The rare-stem filter
    drops every stem with a total count of at most two over the training
    split; the same set is removed from test documents. Documents reduced to
    zero tokens are dropped.
    """
    if stopwords is None:
        stopwords = default_stopwords()
    if stemmer is None:
        stemmer = default_stemmer()

    staged: list[tuple[RawDocument, list[str]]] = []
    train_counts: Counter[str] = Counter()
    for doc in corpus:
        stems = [
            stemmer(tok)
            for tok in tokenize(doc.text)
            if tok not in stopwords
        ]
        stems = [s for s in stems if len(s) > 1]
        staged.append((doc, stems))
        if doc.split == "train":
            train_counts.update(stems)

    out = []
    for doc, stems in staged:
        kept = tuple(s for s in stems if train_counts.get(s, 0) > 2)
        if kept:
            out.append(Document(doc.id, kept, doc.labels, doc.split))
    return out


def training_documents(corpus: Sequence[Document]) -> list[Document]:
    return [d for d in corpus if d.split == "train"]


def test_documents(corpus: Sequence[Document]) -> list[Document]:
    return [d for d in corpus if d.split == "test"]


def categories(corpus: Sequence[Document]) -> list[str]:
    """Sorted list of all category names in the corpus."""
    names: set[str] = set()
    for doc in corpus:
        names.update(doc.labels)
    return sorted(names)


def build_ovr_tasks(
    corpus: Sequence[Document], sampling_ratio: float
) -> list[OvrTask]:
    """Build one binary task per minority category.

    A category qualifies when its training relative frequency is strictly
    below 0.75 x sampling_ratio. Tasks whose test split lacks a positive or a
    negative document are flagged unevaluable rather than dropped.
    """
    check_real(sampling_ratio, "sampling ratio", gt=0, lt=1)
    train = training_documents(corpus)
    test = tuple(test_documents(corpus))
    n_train = len(train)
    tasks = []
    for cat in categories(corpus):
        minority = tuple(d for d in train if cat in d.labels)
        if not n_train:
            continue
        freq = len(minority) / n_train
        if freq >= 0.75 * sampling_ratio:
            continue
        majority = tuple(d for d in train if cat not in d.labels)
        n_pos = sum(1 for d in test if cat in d.labels)
        evaluable = 0 < n_pos < len(test)
        tasks.append(
            OvrTask(
                category=cat,
                train_minority=minority,
                train_majority=majority,
                test=test,
                minority_train_frequency=freq,
                evaluable=evaluable,
            )
        )
    return tasks
