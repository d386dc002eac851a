"""Tests of the benchmark itself: generator, trace wrappers, and a smoke run.

    python3 -m pytest benchmark/tests -q
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpusgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from emco import chain, corpus  # noqa: E402
from emco.data import mini_corpus_path  # noqa: E402

TINY = {"n_docs": 200, "n_categories": 6, "mean_length": 30}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generator_is_deterministic_per_seed_and_leaves_mini_corpus_alone():
    before = _sha(mini_corpus_path())
    first = corpusgen.generate(3, **TINY)
    assert corpusgen.generate(3, **TINY) == first
    assert corpusgen.generate(4, **TINY) != first
    assert _sha(mini_corpus_path()) == before


def test_generator_rejects_a_corpus_without_majority_only_bridges():
    docs = corpusgen.generate(3, **TINY)
    every_word = {w for d in docs for w in d["text"].split()}
    with pytest.raises(AssertionError, match="bridge"):
        corpusgen.check(docs, {c: every_word for c in (f"cat{i:02d}" for i in range(6))})


def test_tracer_restores_module_attributes_even_on_error():
    targets = [(m, a) for m, a, _ in tracing.SPANNED] + [(corpus, "default_stemmer")]
    originals = [getattr(m, a) for m, a in targets]
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert all(getattr(m, a) is not o for (m, a), o in zip(targets, originals))
            chain.estimate([["a", "b", "a"]], [["a", "c"]], 1.0)
            raise RuntimeError("inside the traced block")
    assert all(getattr(m, a) is o for (m, a), o in zip(targets, originals))
    assert [s.name for s in tracer.spans] == ["chain.estimate"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["scaled-run", "vocab-sweep"])
def test_smoke_run_reports_every_named_metric(tmp_path, workload, trace):
    report = run.run_workload(workload, 5, 0.0, bool(trace), tmp_path, corpus_sizes=TINY)
    result = report["result"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert report["env"]["corpus_docs"] > 0 and len(report["env"]["corpus_sha256"]) == 64
    if trace:
        train_calls = result["metrics"]["classifier.train_calls"]["value"]
        assert (train_calls > 0) == (workload == "scaled-run")
        assert (tmp_path / "trace.json").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "mini-run", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
