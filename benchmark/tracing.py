"""Spans and counters around the calls the program makes into each layer.

``Tracer`` replaces public module attributes of ``emco`` (``classifier.train``,
``chain.oversample``, ``corpus.default_stemmer``, ...) with wrappers for the
duration of a ``with`` block and puts the originals back on exit. The program
looks these names up at call time, so its own code is traced without being
changed. Each wrapped call records a span (name, start, end, thread CPU
seconds, parent span, thread); calls too frequent for spans (stemming) only
update counters. Spans stay in memory until ``summary``/``spans_json``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass

from emco import analysis, baselines, chain, classifier, corpus, harness, metrics, vectorize

# (module, attribute, span name): every call through it becomes a span.
SPANNED = (
    (harness, "run", "harness.run"),
    (harness, "prepare", "harness.prepare"),
    (harness, "aggregate_rows", "harness.aggregate"),
    (corpus, "load_corpus_jsonl", "corpus.load"),
    (corpus, "preprocess", "corpus.preprocess"),
    (corpus, "build_ovr_tasks", "corpus.build_tasks"),
    (vectorize, "fit_tfidf", "vectorize.fit"),
    (vectorize, "transform_tokens", "vectorize.transform"),
    (classifier, "to_csr", "vectorize.to_csr"),
    (baselines, "to_dense", "vectorize.to_dense"),
    (classifier, "train", "classifier.train"),
    (classifier, "predict", "classifier.predict"),
    (baselines, "ros", "baselines.ros"),
    (baselines, "smote", "baselines.smote"),
    (baselines, "adasyn", "baselines.adasyn"),
    (chain, "estimate", "chain.estimate"),
    (chain, "oversample", "chain.walk"),
    (metrics, "compute_metrics", "metrics"),
    (metrics, "macro_average", "metrics"),
    (metrics, "write_rows_csv", "metrics"),
    (metrics, "write_aggregate_json", "metrics"),
    (analysis, "vocab_expansion_eval", "analysis"),
    (analysis, "growth_curve", "analysis"),
    (analysis, "fit_heaps", "analysis"),
)

# Per-layer metrics reported by ``summary``, with their units.
PER_LAYER_UNITS = {
    "classifier.train_calls": "count",
    "classifier.train_s": "s",
    "classifier.epochs_p50": "count",
    "classifier.epochs_max": "count",
    "classifier.unconverged": "count",
    "classifier.epoch_rows": "count",
    "classifier.predict_calls": "count",
    "classifier.predict_s": "s",
    "baselines.ros_s": "s",
    "baselines.smote_s": "s",
    "baselines.adasyn_s": "s",
    "baselines.synthetic_vectors": "count",
    "baselines.dense_mb": "MB",
    "chain.estimate_calls": "count",
    "chain.estimate_s": "s",
    "chain.walk_s": "s",
    "chain.walk_docs": "count",
    "chain.walk_tokens": "count",
    "chain.tokens_per_s": "1/s",
    "chain.maj_only_share": "share",
    "corpus.load_s": "s",
    "corpus.preprocess_s": "s",
    "corpus.tokens_kept": "count",
    "corpus.tasks": "count",
    "stemming.calls": "count",
    "stemming.s": "s",
    "stemming.distinct_ratio": "share",
    "vectorize.fit_s": "s",
    "vectorize.transform_calls": "count",
    "vectorize.transform_s": "s",
    "vectorize.to_csr_s": "s",
    "vectorize.dense_mb": "MB",
    "harness.prepare_s": "s",
    "harness.jobs_s": "s",
    "harness.busy_share": "share",
    "metrics.s": "s",
    "analysis.s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float  # perf_counter seconds
    end: float
    cpu_s: float  # CPU time of the calling thread inside the span
    parent: int | None  # index of the enclosing span in the same thread
    thread: int


def _arguments(func, args, kwargs) -> dict:
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Context manager that wraps the layer entry points of ``emco``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.epochs: list[int] = []
        self._stemmed: set[str] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # --- installing and restoring ---------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name in SPANNED:
                self._patch(module, attr, self._spanned(getattr(module, attr), name))
            self._patch(corpus, "default_stemmer", self._counting_stemmer(corpus.default_stemmer))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --- wrappers ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, func, name: str):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)  # reserved; filled in when the call ends
            stack.append(index)
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                self.spans[index] = Span(name, start, end, cpu, parent, threading.get_ident())
            if after is not None:
                after(func, args, kwargs, result)
            return result

        return wrapper

    def _counting_stemmer(self, factory):
        @functools.wraps(factory)
        def make():
            stem = factory()

            def counted(word: str) -> str:
                start = time.perf_counter()
                out = stem(word)
                elapsed = time.perf_counter() - start
                with self._lock:
                    self.counts["stemming.calls"] += 1
                    self.counts["stemming.s"] += elapsed
                    self._stemmed.add(word)
                return out

            return counted

        return make

    def _add(self, **counts) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] += value

    def _after_corpus_preprocess(self, func, args, kwargs, docs) -> None:
        self._add(tokens_kept=sum(len(d.tokens) for d in docs))

    def _after_corpus_build_tasks(self, func, args, kwargs, tasks) -> None:
        self._add(tasks=len(tasks))

    def _after_classifier_train(self, func, args, kwargs, model) -> None:
        arguments = _arguments(func, args, kwargs)
        with self._lock:
            self.epochs.append(model.n_epochs)
            self.counts["epoch_rows"] += model.n_epochs * len(arguments["vectors"])
            self.counts["unconverged"] += model.n_epochs >= arguments["max_iters"]

    def _after_baselines(self, func, args, kwargs, out) -> None:
        arguments = _arguments(func, args, kwargs)
        rows = len(out)
        if "n_features" in arguments:  # smote and adasyn interpolate densely
            dense = len(arguments["minority"]) + rows
            if "majority" in arguments:  # adasyn also densifies and stacks the majority
                dense += 2 * len(arguments["majority"]) + len(arguments["minority"])
            self._add(dense_bytes=8 * arguments["n_features"] * dense)
        self._add(synthetic_vectors=rows)

    _after_baselines_ros = _after_baselines_smote = _after_baselines_adasyn = _after_baselines

    def _after_vectorize_to_dense(self, func, args, kwargs, array) -> None:
        self._add(to_dense_bytes=array.nbytes)

    def _after_chain_walk(self, func, args, kwargs, docs) -> None:
        maj_only = set(_arguments(func, args, kwargs)["model"].partition.v_maj_only)
        self._add(
            walk_docs=len(docs),
            walk_tokens=sum(len(d) for d in docs),
            maj_only_tokens=sum(1 for d in docs for w in d if w in maj_only),
        )

    # --- results --------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def summary(self, workers: int, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric of ``PER_LAYER_UNITS``, by name."""
        c = self.counts
        walk_s = self.total("chain.walk")
        jobs_s, busy_cpu = self._jobs()
        values = {
            "classifier.train_calls": self.calls("classifier.train"),
            "classifier.train_s": self.total("classifier.train"),
            "classifier.epochs_p50": statistics.median(self.epochs) if self.epochs else 0,
            "classifier.epochs_max": max(self.epochs, default=0),
            "classifier.unconverged": c["unconverged"],
            "classifier.epoch_rows": c["epoch_rows"],
            "classifier.predict_calls": self.calls("classifier.predict"),
            "classifier.predict_s": self.total("classifier.predict"),
            "baselines.ros_s": self.total("baselines.ros"),
            "baselines.smote_s": self.total("baselines.smote"),
            "baselines.adasyn_s": self.total("baselines.adasyn"),
            "baselines.synthetic_vectors": c["synthetic_vectors"],
            "baselines.dense_mb": c["dense_bytes"] / 1e6,
            "chain.estimate_calls": self.calls("chain.estimate"),
            "chain.estimate_s": self.total("chain.estimate"),
            "chain.walk_s": walk_s,
            "chain.walk_docs": c["walk_docs"],
            "chain.walk_tokens": c["walk_tokens"],
            "chain.tokens_per_s": c["walk_tokens"] / walk_s if walk_s else 0.0,
            "chain.maj_only_share": (
                c["maj_only_tokens"] / c["walk_tokens"] if c["walk_tokens"] else 0.0
            ),
            "corpus.load_s": self.total("corpus.load"),
            "corpus.preprocess_s": self.total("corpus.preprocess"),
            "corpus.tokens_kept": c["tokens_kept"],
            "corpus.tasks": c["tasks"],
            "stemming.calls": c["stemming.calls"],
            "stemming.s": c["stemming.s"],
            "stemming.distinct_ratio": (
                len(self._stemmed) / c["stemming.calls"] if c["stemming.calls"] else 0.0
            ),
            "vectorize.fit_s": self.total("vectorize.fit"),
            "vectorize.transform_calls": self.calls("vectorize.transform"),
            "vectorize.transform_s": self.total("vectorize.transform"),
            "vectorize.to_csr_s": self.total("vectorize.to_csr"),
            "vectorize.dense_mb": c["to_dense_bytes"] / 1e6,
            "harness.prepare_s": self.total("harness.prepare"),
            "harness.jobs_s": jobs_s,
            "harness.busy_share": busy_cpu / (jobs_s * workers) if jobs_s else 0.0,
            "metrics.s": self.total("metrics"),
            "analysis.s": self.total("analysis"),
            "trace.overhead_s": overhead_s,
        }
        assert values.keys() == PER_LAYER_UNITS.keys()
        return values

    def _jobs(self) -> tuple[float, float]:
        """Seconds between the end of ``prepare`` and the start of
        ``aggregate_rows`` inside each ``harness.run``, and the CPU seconds
        of the outermost layer spans in that window, over all threads."""
        jobs_s = busy = 0.0
        for i, run in enumerate(self.spans):
            if run.name != "harness.run":
                continue
            children = {s.name: s for s in self.spans if s.parent == i}
            lo, hi = children["harness.prepare"].end, children["harness.aggregate"].start
            jobs_s += hi - lo
            busy += sum(
                s.cpu_s for s in self.spans
                if lo <= s.start and s.end <= hi and not s.name.startswith("harness.")
                and (s.parent is None or self.spans[s.parent].name == "harness.run")
            )
        return jobs_s, busy

    def spans_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "cpu_s": s.cpu_s,
             "parent": s.parent, "thread": s.thread}
            for s in self.spans
        ]
