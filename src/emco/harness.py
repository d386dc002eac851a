"""Experiment orchestration: the methods x ratios x categories x repetitions
matrix, deterministic seed derivation, and result aggregation.

Every unit of work derives its own random generator from a stable hash of
(master seed, category, method, gamma, ratio, repetition), so results do not
depend on execution order or the worker-pool size.

The plan walks each category once. Each ratio's tasks decide which categories
qualify at which ratios; then each qualifying category gets one ``_TaskState``,
built serially before any job runs: training labels by category membership,
its minority rows and majority row numbers, the test labels and one chain model
per gamma that mco and emco need. Jobs only read it. A job draws its synthetic
rows, trains one classifier on ``prepare``'s training rows stacked with them
and scores it, giving one row per ratio it serves: the unsampled ``none``
method does not depend on the ratio, so its job serves every ratio at which
the category qualifies; any other method's job serves one ratio.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import platform
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import baselines, chain, classifier, corpus, metrics, vectorize
from .vectorize import check_type

log = logging.getLogger(__name__)

KNOWN_METHODS = ("none", "ros", "smote", "adasyn", "mco", "emco")
SWEEP_METRICS = ("recall", "tnr", "precision", "n_categories")


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_path: str
    output_dir: str = "results"
    dataset: str = "corpus"
    methods: tuple[str, ...] = KNOWN_METHODS
    gammas: tuple[float, ...] = (1.0,)
    sampling_ratios: tuple[float, ...] = (0.1, 0.2)
    repetitions: int = 5
    k_neighbors: int = 5
    c: float = 1.0
    tol: float = 1e-3
    max_iters: int = 1000
    master_seed: int = 0
    workers: int = 1
    stopwords_path: str | None = None

    def __post_init__(self):
        for key in ("methods", "gammas", "sampling_ratios"):
            check_type(getattr(self, key), f"config key {key!r}", (list, tuple), "a list")
            object.__setattr__(self, key, tuple(getattr(self, key)))
        for key in ("corpus_path", "output_dir", "dataset"):
            check_type(getattr(self, key), f"config key {key!r}", str, "a string")
        if self.stopwords_path is not None:
            check_type(self.stopwords_path, "config key 'stopwords_path'", str, "a string")
        for key in ("repetitions", "k_neighbors", "max_iters", "master_seed", "workers"):
            check_type(getattr(self, key), f"config key {key!r}", numbers.Integral, "an integer")
        for key in ("c", "tol"):
            check_type(getattr(self, key), f"config key {key!r}", numbers.Real, "a number")
            vectorize.check_real(getattr(self, key), f"config key {key!r}", gt=0)
        for key in ("gammas", "sampling_ratios"):
            for value in getattr(self, key):
                check_type(value, f"config key {key!r}", numbers.Real, "a list of numbers")

        for key in ("methods", "sampling_ratios"):
            if not getattr(self, key):
                raise ValueError(f"config key {key!r} must not be empty")
        for method in self.methods:
            if method not in KNOWN_METHODS:
                raise ValueError(f"unknown method {method!r}")
            if self.methods.count(method) > 1:
                raise ValueError(f"method {method!r} is repeated")
        for key, bounds in (("gammas", {"ge": 0}), ("sampling_ratios", {"gt": 0, "lt": 1})):
            for value in getattr(self, key):
                vectorize.check_real(value, f"config key {key!r}", **bounds)
        for key in ("repetitions", "k_neighbors", "max_iters", "workers"):
            vectorize.check_integer(getattr(self, key), f"config key {key!r}", 1)
        # _run_jobs forks the workers after the first
        if self.workers > 1:
            import multiprocessing  # ~8 ms, so imported only where it is used

            if "fork" not in multiprocessing.get_all_start_methods():
                raise ValueError(
                    f"config key 'workers' must be 1 where processes cannot fork, "
                    f"got {self.workers}"
                )

        # Seeds and labels are derived from str(gamma) and f"{gamma:g}", so an
        # int gamma must become a float to give the same results as 1.0, and
        # -0.0 must become 0.0 (adding 0.0 does that).
        object.__setattr__(self, "gammas", tuple(float(g) + 0.0 for g in self.gammas))
        # rows and aggregate groups are keyed by these labels
        for key in ("gammas", "sampling_ratios"):
            labels: dict[str, float] = {}
            for value in getattr(self, key):
                label = f"{value:g}"
                if label in labels:
                    raise ValueError(
                        f"{key} {labels[label]!r} and {value!r} share the label {label!r}"
                    )
                labels[label] = value
        if "emco" in self.methods and not self.gammas:
            raise ValueError("emco requires a nonempty gamma list")

    @staticmethod
    def from_dict(obj: Mapping) -> "ExperimentConfig":
        """Config from parsed JSON; unknown keys and a missing corpus_path
        are errors."""
        known = {f.name for f in fields(ExperimentConfig)}
        for key in obj:
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
        if "corpus_path" not in obj:
            raise ValueError("a corpus path is required (--corpus or config)")
        return ExperimentConfig(**obj)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed from the master seed and any identifying parts."""
    text = "|".join([str(master_seed), *[str(p) for p in parts]])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def synthetic_count(n_train: int, m_minority: int, ratio: float) -> int:
    """Smallest s >= 0 with (m + s) / (n + s) >= ratio."""
    vectorize.check_real(ratio, "sampling ratio", gt=0, lt=1)
    vectorize.check_integer(n_train, "training count", 1)
    vectorize.check_integer(m_minority, "minority count", 0, n_train)
    s = max(0, math.ceil((ratio * n_train - m_minority) / (1.0 - ratio)))
    # guard against float rounding at the boundary
    while s > 0 and (m_minority + s - 1) / (n_train + s - 1) >= ratio:
        s -= 1
    while (m_minority + s) / (n_train + s) < ratio:
        s += 1
    return s


def method_label(method: str, gamma: str) -> str:
    """``gamma`` is the gamma label of the method's result rows."""
    if method == "emco":
        return f"emco(gamma={gamma})"
    return method


@dataclass
class _Prepared:
    """Shared immutable state for one experiment run."""

    docs: list[corpus.Document]
    tfidf: vectorize.TfidfModel
    train_docs: list[corpus.Document]
    train_csr: vectorize.CsrRows  # one row per training document, in order
    test_docs: list[corpus.Document]
    test_csr: vectorize.CsrRows


def prepare(config: ExperimentConfig) -> _Prepared:
    docs = corpus.load_documents(config.corpus_path, config.stopwords_path)
    train_docs = corpus.training_documents(docs)
    test_docs = corpus.test_documents(docs)
    if not train_docs:
        raise ValueError("corpus has no training documents after preprocessing")
    tfidf = vectorize.fit_tfidf(train_docs)
    return _Prepared(
        docs=docs,
        tfidf=tfidf,
        train_docs=train_docs,
        train_csr=vectorize.transform_rows((d.tokens for d in train_docs), tfidf),
        test_docs=test_docs,
        test_csr=vectorize.transform_rows((d.tokens for d in test_docs), tfidf),
    )


@dataclass
class _TaskState:
    """What every job of one category reads; built once, before any job runs.

    A category's split does not depend on the sampling ratio (the ratio only
    decides whether the category qualifies), so one state serves every ratio.
    """

    category: str
    train_y: list[int]  # +1 for training documents labeled with the category
    minority: vectorize.CsrRows  # the +1 rows of ``_Prepared.train_csr``
    majority: np.ndarray  # the numbers of its -1 rows
    test_y: list[int]
    chains: dict[float, chain.TransitionModel]  # keyed by gamma


def _task_state(
    prepared: _Prepared, task: corpus.OvrTask, chain_gammas: set[float]
) -> _TaskState:
    train_y = [task.label(d) for d in prepared.train_docs]
    labels = np.array(train_y)
    minority_tokens = [d.tokens for d in task.train_minority]
    majority_tokens = [d.tokens for d in task.train_majority]
    return _TaskState(
        category=task.category,
        train_y=train_y,
        minority=prepared.train_csr.take(np.flatnonzero(labels == 1)),
        majority=np.flatnonzero(labels == -1),
        test_y=[task.label(d) for d in prepared.test_docs],
        chains={
            gamma: chain.estimate(minority_tokens, majority_tokens, gamma)
            for gamma in chain_gammas
        },
    )


def _synthetic(
    prepared: _Prepared,
    state: _TaskState,
    method: str,
    gamma: float | None,
    count: int,
    rng: np.random.Generator,
    config: ExperimentConfig,
) -> vectorize.CsrRows:
    """The synthetic minority rows one method adds to the training rows."""
    n_features = prepared.tfidf.n_features
    minority = state.minority
    if method in ("smote", "adasyn") and len(minority) < 2:
        method = "ros"  # too few minority points to interpolate
    if method == "none":
        return minority.take([])
    if method == "ros":
        return baselines.ros(minority, count, rng)
    if method == "smote":
        return baselines.smote(minority, count, config.k_neighbors, rng, n_features)
    if method == "adasyn":
        majority = prepared.train_csr.take(state.majority)
        return baselines.adasyn(minority, majority, count, config.k_neighbors, rng, n_features)
    documents = chain.oversample(state.chains[gamma], count, rng)  # mco, emco
    return vectorize.transform_rows(documents, prepared.tfidf)


def _run_one(
    prepared: _Prepared,
    state: _TaskState,
    method: str,
    gamma: float | None,
    ratios: list[float],
    rep: int,
    config: ExperimentConfig,
) -> list[dict]:
    """One training, scored; one row per ratio in ``ratios`` (several only
    for ``none``, whose training does not depend on the ratio)."""
    s = synthetic_count(len(state.train_y), len(state.minority), ratios[0])
    seed_ratio = ratios[0] if method != "none" else "na"
    seed_parts = (config.master_seed, state.category, method, gamma, seed_ratio, rep)
    rng = np.random.default_rng(derive_seed(*seed_parts))
    synthetic = _synthetic(prepared, state, method, gamma, s, rng, config)

    model = classifier.train(
        prepared.train_csr.stack(synthetic),
        state.train_y + [1] * len(synthetic),
        c=config.c,
        tol=config.tol,
        max_iters=config.max_iters,
        n_features=prepared.tfidf.n_features,
        seed=derive_seed(*seed_parts, "clf"),
    )
    y_pred = classifier.score(model, prepared.test_csr)[0].tolist()
    counts = metrics.ConfusionCounts.from_predictions(state.test_y, y_pred)
    scores = {k: round(v, 10) for k, v in metrics.compute_metrics(counts).items()}
    return [
        {
            "dataset": config.dataset,
            "category": state.category,
            "method": method,
            "gamma": "" if gamma is None else f"{gamma:g}",
            "sampling_ratio": f"{ratio:g}",
            "repetition": rep,
            "tp": counts.tp,
            "fp": counts.fp,
            "tn": counts.tn,
            "fn": counts.fn,
            **scores,
        }
        for ratio in ratios
    ]


def _execute(
    config: ExperimentConfig,
) -> tuple[list[dict], dict[str, dict[str, float]], list[dict]]:
    """Prepare the corpus and run the whole matrix; returns (rows, frequencies
    per ratio label, skipped)."""
    prepared = prepare(config)

    skipped = []
    frequencies: dict[str, dict[str, float]] = {}
    # each qualifying category's task and the ratios at which it qualifies
    qualifying: dict[str, tuple[corpus.OvrTask, list[float]]] = {}
    for ratio in config.sampling_ratios:
        tasks = corpus.build_ovr_tasks(prepared.docs, ratio)
        frequencies[f"{ratio:g}"] = {t.category: t.minority_train_frequency for t in tasks}
        for task in tasks:
            if not task.evaluable:
                reason = "test split lacks a class"
            elif not task.train_minority:
                reason = "no training document"
            else:
                reason = None
            if reason:
                log.warning("skipping task %s at ratio %g: %s", task.category, ratio, reason)
                skipped.append({"category": task.category, "ratio": ratio, "reason": reason})
                continue
            qualifying.setdefault(task.category, (task, []))[1].append(ratio)

    # mco is emco at gamma 0; the other methods have no gamma
    method_gammas: dict[str, tuple[float | None, ...]] = {
        m: config.gammas if m == "emco" else (0.0,) if m == "mco" else (None,)
        for m in config.methods
    }
    chain_gammas = {
        gamma for method in ("mco", "emco") for gamma in method_gammas.get(method, ())
    }
    jobs = []
    for task, ratios in qualifying.values():
        state = _task_state(prepared, task, chain_gammas)
        for method, gammas in method_gammas.items():
            served = [ratios] if method == "none" else [[ratio] for ratio in ratios]
            for gamma in gammas:
                for job_ratios in served:
                    for rep in range(config.repetitions):
                        jobs.append((state, method, gamma, job_ratios, rep))

    def run_job(job):
        return _run_one(prepared, *job, config)

    # built or loaded here, before _run_jobs forks, so no worker compiles it
    classifier.load_kernel()
    results = _run_jobs(run_job, jobs, config.workers)
    rows = [row for job_rows in results for row in job_rows]
    rows.sort(
        key=lambda r: (
            r["sampling_ratio"], r["category"], r["method"], r["gamma"],
            r["repetition"],
        )
    )
    return rows, frequencies, skipped


def _run_jobs(run_job: Callable, jobs: list, workers: int) -> list:
    """``run_job`` of every job, in job order, on ``min(workers, len(jobs))``
    processes.

    The calling process is worker 0 and forks the others, so they inherit
    ``run_job`` and the jobs without pickling. Every worker takes the next job
    index from one shared counter. A child sends its ``(index, result)`` pairs
    back through a pipe once the counter runs out, or the exception its job
    raised, which is raised again here. One worker forks nothing and runs the
    same loop.
    """
    import multiprocessing

    n_children = min(workers, len(jobs)) - 1
    context = multiprocessing.get_context("fork" if n_children > 0 else None)
    next_index = context.Value("q", 0)

    def work() -> list:
        done = []
        while True:
            with next_index.get_lock():
                index = next_index.value
                next_index.value += 1
            if index >= len(jobs):
                return done
            done.append((index, run_job(jobs[index])))

    def report(writer) -> None:
        try:
            message = ("done", work())
        except Exception as error:
            message = ("raised", error)
        writer.send(message)

    children = []
    try:
        for _ in range(n_children):
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=report, args=(writer,), daemon=True)
            child.start()
            # closed here, the pipe reports EOF as soon as the child dies
            writer.close()
            children.append((child, reader))
        done = work()
        for child, reader in children:
            try:
                status, payload = reader.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"worker process exited with code {child.exitcode} "
                    f"before reporting its jobs"
                ) from None
            if status == "raised":
                raise payload
            done += payload
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader in children:
            child.join()
            reader.close()
    done.sort(key=lambda pair: pair[0])
    return [result for _, result in done]


def aggregate_rows(
    rows: Sequence[Mapping], frequencies: dict[str, dict[str, float]]
) -> dict[str, dict]:
    """Macro averages keyed by 'method|ratio|band'; ``frequencies`` is keyed
    by the ratio label of the rows."""
    groups: dict[tuple[str, str], list[Mapping]] = {}
    for row in rows:
        label = method_label(row["method"], row["gamma"])
        groups.setdefault((label, row["sampling_ratio"]), []).append(row)

    out = {}
    for (label, ratio), group_rows in sorted(groups.items()):
        banded = metrics.macro_average(group_rows, frequencies[ratio])
        for band, values in banded.items():
            out[f"{label}|{ratio}|{band}"] = values
    return out


def run(config: ExperimentConfig) -> dict:
    """Run the experiment matrix and write results to the output directory."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, frequencies, skipped = _execute(config)
    aggregate = aggregate_rows(rows, frequencies)

    metrics.write_rows_csv(out_dir / "results.csv", rows)
    metrics.write_aggregate_json(out_dir / "aggregate.json", aggregate)
    manifest = {
        "config": asdict(config),
        "skipped_tasks": skipped,
        "task_frequencies": frequencies,
        "n_rows": len(rows),
        # the pinned output bytes depend on numpy's Generator streams
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "solver": "python" if classifier.load_kernel() is None else "compiled",
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return {"rows": rows, "aggregate": aggregate, "manifest": manifest}


def gamma_sweep(config: ExperimentConfig) -> list[dict]:
    """Macro recall/tnr/precision of emco per (gamma, ratio, band), from one
    run of the matrix restricted to emco at ``config.gammas``."""
    rows, frequencies, _ = _execute(replace(config, methods=("emco",)))
    aggregate = aggregate_rows(rows, frequencies)
    sweep_rows = []
    for gamma in config.gammas:
        for ratio in config.sampling_ratios:
            prefix = method_label("emco", f"{gamma:g}") + f"|{ratio:g}|"
            sweep_rows += [
                {
                    "gamma": gamma,
                    "sampling_ratio": f"{ratio:g}",
                    "band": key[len(prefix):],
                    **{m: aggregate[key][m] for m in SWEEP_METRICS},
                }
                for key in sorted(aggregate) if key.startswith(prefix)
            ]
    return sweep_rows
