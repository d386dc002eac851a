"""Markov-chain minority oversampling for imbalanced text classification,
with baseline oversamplers, a linear classifier, evaluation metrics, and
vocabulary-growth analysis."""

from .chain import TransitionModel, VocabPartition, estimate, oversample, sample_document
from .corpus import (
    Document, OvrTask, RawDocument, build_ovr_tasks, load_corpus_jsonl, preprocess, tokenize
)
from .harness import ExperimentConfig, gamma_sweep, run, synthetic_count
from .metrics import ConfusionCounts, compute_metrics, macro_average
from .vectorize import CsrRows, SparseVector, TfidfModel, fit_tfidf, transform_tokens

__version__ = "0.1.0"

__all__ = [
    "ConfusionCounts",
    "CsrRows",
    "Document",
    "ExperimentConfig",
    "OvrTask",
    "RawDocument",
    "SparseVector",
    "TfidfModel",
    "TransitionModel",
    "VocabPartition",
    "build_ovr_tasks",
    "compute_metrics",
    "estimate",
    "fit_tfidf",
    "gamma_sweep",
    "load_corpus_jsonl",
    "macro_average",
    "oversample",
    "preprocess",
    "run",
    "sample_document",
    "synthetic_count",
    "tokenize",
    "transform_tokens",
]
