import pytest

from emco import classifier, corpus
from emco.data import mini_corpus_path


@pytest.fixture(scope="session")
def mini_path():
    return str(mini_corpus_path())


@pytest.fixture(scope="session")
def mini_docs(mini_path):
    return corpus.preprocess(corpus.load_corpus_jsonl(mini_path))


def make_raw(id, text, labels=("x",), split="train"):
    return corpus.RawDocument(
        id=id, text=text, labels=frozenset(labels), split=split
    )


@pytest.fixture
def python_loop(monkeypatch):
    """Train on the Python epoch loop, and sum and walk chains in Python, as
    where the kernel cannot be built."""
    monkeypatch.setattr(classifier, "load_kernel", lambda: None)


@pytest.fixture
def compiled_kernel():
    if classifier.load_kernel() is None:
        pytest.skip("the compiled kernel cannot be built here")
