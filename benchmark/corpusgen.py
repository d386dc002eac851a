"""Seeded generator of a Reuters-shaped corpus for the scaled workloads.

Category sizes follow a Zipf law and about a tenth of the documents carry a
second label, so most categories fall below the minority threshold at a 20%
sampling ratio. Every category owns a few "bridge" words. In training text a
bridge word only ever follows a shared connector word inside documents that
do not carry its category; some test documents of the category use them. A
bridge word is therefore majority-only for its own task, which is what
extrapolated oversampling (emco) can find and vector-space oversampling
cannot. Words are pseudo-words from ``scripts/make_mini_corpus.py`` (Porter
fixed points); some are written as plurals and stopwords are mixed in so the
preprocessing pipeline has real work.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from make_mini_corpus import WordCycle, make_words  # noqa: E402  (adds src/ to sys.path)

from emco import corpus  # noqa: E402
from emco.stemming import PorterStemmer  # noqa: E402

RATIO = 0.2  # sampling ratio the invariants are checked at


# Shape of the generated corpus, apart from its size.
ZIPF_S = 1.0  # exponent of the category sizes
MULTI_LABEL_SHARE = 0.1
TEST_SHARE = 0.3
N_CONNECTORS = 60
N_GENERAL = 900
N_TOPIC = 120  # topic words per category
N_BRIDGE = 15  # bridge words per category
PLURAL_SHARE = 0.3
STOPWORD_SHARE = 0.25
BRIDGE_HEAVY_SHARE = 0.4  # of a category's test documents


def _zipf_counts(total: int, n: int, s: float) -> list[int]:
    weights = 1.0 / np.arange(1, n + 1) ** s
    quotas = total * weights / weights.sum()
    counts = np.floor(quotas).astype(int)
    order = np.argsort(-(quotas - counts), kind="stable")
    counts[order[: total - int(counts.sum())]] += 1
    return [int(c) for c in counts]


def generate(seed: int, n_docs: int = 400, n_categories: int = 10,
             mean_length: int = 60) -> list[dict]:
    """Corpus documents (``id``, ``text``, ``labels``, ``split``) for a seed.
    The default sizes are the scaled workloads' corpus."""
    rng = np.random.default_rng(seed)
    stemmer = PorterStemmer()
    stopwords = corpus.default_stopwords()
    stopword_list = sorted(w for w in stopwords if w.isalpha())
    taken: set[str] = set()

    cats = [f"cat{i:02d}" for i in range(n_categories)]
    connectors = WordCycle(rng, make_words(rng, N_CONNECTORS, taken, stemmer, stopwords))
    general = make_words(rng, N_GENERAL, taken, stemmer, stopwords)
    topics = {c: WordCycle(rng, make_words(rng, N_TOPIC, taken, stemmer, stopwords)) for c in cats}
    bridge_words = {c: make_words(rng, N_BRIDGE, taken, stemmer, stopwords) for c in cats}
    bridges = {c: WordCycle(rng, bridge_words[c]) for c in cats}
    pluralizable = {w for w in taken if stemmer.stem(w + "s") == w}
    general_p = 1.0 / np.arange(1, len(general) + 1)
    general_p /= general_p.sum()

    def surface(word: str) -> str:
        if word in pluralizable and rng.random() < PLURAL_SHARE:
            return word + "s"
        return word

    def compose(labels: list[str], bridge_cat: str | None) -> str:
        """Repeats topic, general, topic, connector, bridge. The bridge comes
        from ``bridge_cat`` when given, else from a category not in labels."""
        length = int(rng.integers(mean_length // 2, mean_length * 3 // 2 + 1))
        others = [c for c in cats if c not in labels]
        picks = rng.choice(len(general), size=length, p=general_p)
        out: list[str] = []
        while len(out) < length:
            step = len(out)
            out.append(topics[labels[int(rng.integers(len(labels)))]].next())
            out.append(general[int(picks[step])])
            out.append(topics[labels[0]].next())
            out.append(connectors.next())
            out.append(bridges[bridge_cat or others[int(rng.integers(len(others)))]].next())
        words = [surface(w) for w in out[:length]]
        n_stop = int(round(length * STOPWORD_SHARE))
        for pos in rng.integers(0, len(words) + 1, size=n_stop):
            words.insert(int(pos), stopword_list[int(rng.integers(len(stopword_list)))])
        return " ".join(words)

    sizes = _zipf_counts(n_docs, n_categories, ZIPF_S)
    primaries = [c for c, n in zip(cats, sizes) for _ in range(n)]
    zipf_p = np.asarray(sizes, dtype=float) / sum(sizes)
    docs = []
    for cat in cats:
        members = [i for i, c in enumerate(primaries) if c == cat]
        n_test = max(2, int(round(len(members) * TEST_SHARE)))
        for k, _ in enumerate(members):
            labels = [cat]
            if rng.random() < MULTI_LABEL_SHARE:
                second = cats[int(rng.choice(len(cats), p=zipf_p))]
                if second != cat:
                    labels.append(second)
            split = "test" if k < n_test else "train"
            heavy = split == "test" and k < round(n_test * BRIDGE_HEAVY_SHARE)
            docs.append({
                "id": f"{split}-{cat}-{k:04d}",
                "text": compose(labels, cat if heavy else None),
                "labels": labels,
                "split": split,
            })
    order = rng.permutation(len(docs))
    docs = [docs[int(i)] for i in order]
    check(docs, {c: set(ws) for c, ws in bridge_words.items()})
    return docs


def check(docs: list[dict], bridge_words: dict[str, set[str]]) -> None:
    """Raise AssertionError unless the corpus gives every minority task at
    ratio 0.2 at least three training documents, a test split with both
    classes, and bridge words that are majority-only for it."""
    prepared = corpus.preprocess(
        corpus.RawDocument(d["id"], d["text"], frozenset(d["labels"]), d["split"])
        for d in docs
    )
    tasks = corpus.build_ovr_tasks(prepared, RATIO)
    if not tasks:
        raise AssertionError("no minority task at ratio 0.2")
    train_vocab = {t for d in prepared if d.split == "train" for t in d.tokens}
    for task in tasks:
        if len(task.train_minority) < 3:
            raise AssertionError(f"{task.category}: fewer than 3 minority training docs")
        if not task.evaluable:
            raise AssertionError(f"{task.category}: test split lacks a class")
        v_min = {t for d in task.train_minority for t in d.tokens}
        found = bridge_words[task.category] & train_vocab
        if not found or found & v_min:
            raise AssertionError(f"{task.category}: bridge words are not majority-only")


def write_jsonl(docs: list[dict], path: Path) -> str:
    """Write the corpus and return the sha256 of the bytes written."""
    data = "".join(json.dumps(d) + "\n" for d in docs).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
