"""Generate the bundled mini corpus (deterministic).

Five categories, ~200 short documents. One category ("rare") sits at ~2% of
the training split and one ("low") at ~9%, so both are selected as minority
tasks at a 20% sampling ratio. Majority documents contain "bridge" words that
directly follow shared connector words; those words also appear in the
minority test documents but never in the minority training documents, which
is what gives extrapolated oversampling something to find.

Run from the repository root:

    python3 scripts/make_mini_corpus.py
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
OUT = SRC / "emco" / "data" / "mini_corpus.jsonl"

CONSONANTS = "bcdfgjklmnprtvz"
VOWELS = "aeiou"


def make_words(rng, count, taken, stemmer, stopwords):
    """Pseudo-words (CVCCVC / CVCVC) that are Porter fixed points."""
    words = []
    while len(words) < count:
        pattern = rng.choice(["cvcvc", "cvccvc", "cvcvcc"])
        word = "".join(
            rng.choice(list(CONSONANTS if ch == "c" else VOWELS))
            for ch in pattern
        )
        if word in taken or word in stopwords:
            continue
        if stemmer.stem(word) != word:
            continue
        taken.add(word)
        words.append(word)
    return words


class WordCycle:
    """Endless shuffled cycle over a word list; guarantees even coverage."""

    def __init__(self, rng, words):
        self.rng = rng
        self.words = list(words)
        self.pos = len(self.words)

    def next(self):
        if self.pos >= len(self.words):
            self.rng.shuffle(self.words)
            self.pos = 0
        word = self.words[self.pos]
        self.pos += 1
        return word


def compose(rng, shared, topic, length):
    """Alternate shared connector words with topic words."""
    out = []
    while len(out) < length:
        out.append(shared.next())
        out.append(topic.next())
    return out[:length]


def compose_majority(rng, shared, topic, bridge, length):
    """Majority training document: topic words clump together and every
    shared connector word is immediately followed by a bridge word."""
    out = []
    while len(out) < length:
        out.append(topic.next())
        out.append(topic.next())
        out.append(shared.next())
        out.append(bridge.next())
    return out[:length]


def main():
    # Run as a script, this checkout's emco builds the corpus. An importer of
    # make_words or WordCycle keeps its own sys.path and its own emco.
    sys.path.insert(0, str(SRC))
    from emco.corpus import default_stopwords
    from emco.stemming import PorterStemmer

    rng = np.random.default_rng(20260826)
    stemmer = PorterStemmer()
    stopwords = default_stopwords()
    taken: set[str] = set()

    shared = make_words(rng, 20, taken, stemmer, stopwords)
    topics = {
        "alpha": make_words(rng, 20, taken, stemmer, stopwords),
        "beta": make_words(rng, 20, taken, stemmer, stopwords),
        "delta": make_words(rng, 20, taken, stemmer, stopwords),
        "low": make_words(rng, 12, taken, stemmer, stopwords),
        "rare": make_words(rng, 8, taken, stemmer, stopwords),
    }
    bridges = {
        "rare": make_words(rng, 8, taken, stemmer, stopwords),
        "low": make_words(rng, 6, taken, stemmer, stopwords),
    }
    all_bridges = bridges["rare"] + bridges["low"]

    shared_cycle = WordCycle(rng, shared)
    topic_cycles = {cat: WordCycle(rng, words) for cat, words in topics.items()}
    bridge_cycle = WordCycle(rng, all_bridges)
    test_bridge_cycles = {cat: WordCycle(rng, words) for cat, words in bridges.items()}

    train_counts = {"alpha": 44, "beta": 44, "delta": 45, "low": 14, "rare": 3}
    test_counts = {"alpha": 13, "beta": 13, "delta": 13, "low": 6, "rare": 5}

    docs = []

    def add(cat, split, tokens):
        docs.append(
            {
                "id": f"{split}-{cat}-{sum(1 for d in docs if d['labels'] == [cat] and d['split'] == split):03d}",
                "text": " ".join(tokens),
                "labels": [cat],
                "split": split,
            }
        )

    # --- training split -------------------------------------------------
    # Majority categories carry the bridge words (always after a shared word).
    for cat in ("alpha", "beta", "delta"):
        for _ in range(train_counts[cat]):
            length = int(rng.integers(8, 14))
            add(cat, "train", compose_majority(rng, shared_cycle, topic_cycles[cat],
                                              bridge_cycle, length))

    # "low" minority training docs: shared + own topic words only.
    for _ in range(train_counts["low"]):
        length = int(rng.integers(8, 14))
        add("low", "train", compose(rng, shared_cycle, topic_cycles["low"], length))

    # "rare" training docs are built by hand so every topic word clears the
    # rarity filter (count >= 3) with only three documents.
    rare_topic = topics["rare"]
    for i in range(train_counts["rare"]):
        tokens = []
        for word in rare_topic:
            tokens.append(shared_cycle.next())
            tokens.append(word)
        add("rare", "train", tokens)

    # --- test split ------------------------------------------------------
    for cat in ("alpha", "beta", "delta"):
        for _ in range(test_counts[cat]):
            length = int(rng.integers(8, 14))
            add(cat, "test", compose(rng, shared_cycle, topic_cycles[cat], length))

    for cat in ("low", "rare"):
        n_bridgeheavy = 2
        for i in range(test_counts[cat]):
            length = int(rng.integers(8, 14))
            if i < n_bridgeheavy:
                # mostly bridge words: only extrapolating methods can reach these
                tokens = compose(rng, shared_cycle, test_bridge_cycles[cat], length)
            else:
                tokens = compose(rng, shared_cycle, topic_cycles[cat], length)
            add(cat, "test", tokens)

    # --- sanity checks ---------------------------------------------------
    train_tokens = Counter(
        t for d in docs if d["split"] == "train" for t in d["text"].split()
    )
    vocab = set(train_tokens)
    for group, words in [("shared", shared)] + list(topics.items()) + list(bridges.items()):
        for word in words:
            if train_tokens[word] < 3:
                raise SystemExit(f"{group} word {word!r} occurs {train_tokens[word]}x in training")
    rare_train_vocab = {
        t for d in docs if d["split"] == "train" and d["labels"] == ["rare"]
        for t in d["text"].split()
    }
    assert not (set(bridges["rare"]) & rare_train_vocab)
    assert set(bridges["rare"]) <= vocab

    order = rng.permutation(len(docs))
    docs = [docs[int(i)] for i in order]

    with open(OUT, "w", encoding="utf-8") as handle:
        for doc in docs:
            handle.write(json.dumps(doc) + "\n")
    n_train = sum(1 for d in docs if d["split"] == "train")
    print(f"wrote {len(docs)} docs ({n_train} train) to {OUT}")
    for cat, n in train_counts.items():
        print(f"  {cat}: train freq {n / n_train:.3f}")


if __name__ == "__main__":
    main()
