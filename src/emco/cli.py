"""Command-line interface.

Subcommands: prep, run, sweep, growth, vocab-eval. Each flag of run and
sweep sets the ExperimentConfig field named by its dest; --config loads a
JSON file whose keys are overridden by any explicitly passed flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, chain, corpus, harness, metrics, vectorize


def _add_config_args(parser: argparse.ArgumentParser, methods: bool) -> None:
    """Flags that set ExperimentConfig fields; each flag's dest is its field."""
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--corpus", dest="corpus_path", help="JSONL corpus path")
    parser.add_argument("--output-dir", help="directory for result files")
    parser.add_argument("--dataset", help="dataset name recorded in result rows")
    if methods:
        parser.add_argument("--methods", nargs="+", choices=harness.KNOWN_METHODS)
    parser.add_argument("--gammas", nargs="+", type=float)
    parser.add_argument("--ratios", dest="sampling_ratios", nargs="+", type=float)
    parser.add_argument("--repetitions", type=int)
    parser.add_argument("--k-neighbors", type=int)
    parser.add_argument("--c", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iters", type=int)
    parser.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    parser.add_argument("--workers", type=int)
    parser.add_argument(
        "--stopwords", dest="stopwords_path",
        help="stopword list, one word per line",
    )


def _build_config(args: argparse.Namespace, **defaults) -> harness.ExperimentConfig:
    """Config from ``defaults``, then the --config file, then explicit flags."""
    base: dict = dict(defaults)
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{args.config}: {exc}") from None
        vectorize.check_type(loaded, "config file", dict, "a JSON object")
        base.update(loaded)
    for f in fields(harness.ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            base[f.name] = value
    return harness.ExperimentConfig.from_dict(base)


def cmd_prep(args: argparse.Namespace) -> int:
    docs = corpus.load_documents(args.corpus, args.stopwords)
    train = corpus.training_documents(docs)
    test = corpus.test_documents(docs)
    vocab = {t for d in train for t in d.tokens}
    freqs = {
        cat: sum(1 for d in train if cat in d.labels) / len(train)
        for cat in corpus.categories(docs)
    } if train else {}
    stats = {
        "documents": len(docs),
        "train_documents": len(train),
        "test_documents": len(test),
        "training_vocabulary": len(vocab),
        "mean_train_length": (
            sum(len(d.tokens) for d in train) / len(train) if train else 0.0
        ),
        "category_train_frequencies": freqs,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for doc in docs:
                handle.write(json.dumps({
                    "id": doc.id,
                    "text": " ".join(doc.tokens),
                    "labels": sorted(doc.labels),
                    "split": doc.split,
                }) + "\n")
    json.dump(stats, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = harness.run(config)
    print(f"wrote {len(result['rows'])} result rows to {config.output_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _build_config(args, gammas=[0.0, 0.01, 0.1, 1.0])
    rows = harness.gamma_sweep(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    metrics.write_rows_csv(
        path, rows, ("gamma", "sampling_ratio", "band", *harness.SWEEP_METRICS)
    )
    print(f"wrote {len(rows)} sweep rows to {path}")
    return 0


def cmd_growth(args: argparse.Namespace) -> int:
    docs = corpus.load_documents(args.corpus, args.stopwords)
    train = corpus.training_documents(docs)
    if args.category:
        selected = [d.tokens for d in train if args.category in d.labels]
        reference = {t for d in train if args.category not in d.labels for t in d.tokens}
    else:
        selected = [d.tokens for d in train]
        reference = None
    if not selected:
        raise ValueError("no documents selected for the growth curve")
    points = analysis.growth_curve(
        selected, step=args.step, majority_vocab=reference,
        shuffle_seed=args.shuffle_seed,
    )
    out_dir = Path(args.output_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    analysis.write_curve_csv(out_dir / "growth.csv", points)
    try:
        fit = analysis.fit_heaps(points)
    except ValueError as exc:
        print(f"growth curve written; power-law fit skipped: {exc}")
        return 0
    analysis.write_fit_json(out_dir / "heaps_fit.json", fit)
    print(f"k={fit.k:.4g} theta={fit.theta:.4g} r2={fit.r2:.4g} ({len(points)} points)")
    return 0


def cmd_vocab_eval(args: argparse.Namespace) -> int:
    docs = corpus.load_documents(args.corpus, args.stopwords)
    tasks = corpus.build_ovr_tasks(docs, args.ratio)
    by_cat = {t.category: t for t in tasks}
    if args.category not in by_cat:
        raise ValueError(
            f"category {args.category!r} is not a minority task at "
            f"ratio {args.ratio} (available: {sorted(by_cat)})"
        )
    task = by_cat[args.category]
    if not task.train_minority:
        raise ValueError(f"category {args.category!r} has no training document")
    gamma = args.gamma + 0.0  # -0.0 becomes 0.0: the seed and report of gamma 0
    model = chain.estimate(
        [d.tokens for d in task.train_minority],
        [d.tokens for d in task.train_majority],
        gamma,
    )
    s = harness.synthetic_count(
        len(corpus.training_documents(docs)), len(task.train_minority), args.ratio
    )
    rng = np.random.default_rng(
        harness.derive_seed(args.seed, args.category, "vocab-eval", gamma)
    )
    synthetic = chain.oversample(model, s, rng)
    minority_test = [d.tokens for d in task.test if args.category in d.labels]
    report = analysis.vocab_expansion_eval(synthetic, model.partition, minority_test)
    json.dump(
        {
            "category": args.category,
            "gamma": gamma,
            "sampling_ratio": args.ratio,
            "synthetic_documents": s,
            "majority_only_words": len(model.partition.v_maj_only),
            "tp": report.counts.tp, "fp": report.counts.fp,
            "tn": report.counts.tn, "fn": report.counts.fn,
            "recall": report.recall, "tnr": report.tnr, "ba": report.ba,
            "new_synthetic_words": report.new_synthetic_words,
            "empty": report.empty,
        },
        sys.stdout, indent=2,
    )
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emco",
        description="Markov-chain text oversampling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prep = sub.add_parser("prep", help="preprocess a corpus and print stats")
    p_prep.add_argument("--corpus", required=True)
    p_prep.add_argument("--stopwords")
    p_prep.add_argument("--out", help="write the preprocessed corpus as JSONL")
    p_prep.set_defaults(func=cmd_prep)

    p_run = sub.add_parser("run", help="run the experiment matrix")
    _add_config_args(p_run, methods=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="gamma sweep for emco over --gammas (default: 0 0.01 0.1 1)"
    )
    _add_config_args(p_sweep, methods=False)  # a sweep runs emco only
    p_sweep.set_defaults(func=cmd_sweep)

    p_growth = sub.add_parser("growth", help="vocabulary growth curve and power-law fit")
    p_growth.add_argument("--corpus", required=True)
    p_growth.add_argument("--stopwords")
    p_growth.add_argument("--category", help="restrict to one category")
    p_growth.add_argument("--step", type=int, default=10)
    p_growth.add_argument("--shuffle-seed", type=int)
    p_growth.add_argument("--output-dir")
    p_growth.set_defaults(func=cmd_growth)

    p_vocab = sub.add_parser("vocab-eval", help="synthetic vocabulary expansion report")
    p_vocab.add_argument("--corpus", required=True)
    p_vocab.add_argument("--stopwords")
    p_vocab.add_argument("--category", required=True)
    p_vocab.add_argument("--gamma", type=float, default=1.0)
    p_vocab.add_argument("--ratio", type=float, default=0.2)
    p_vocab.add_argument("--seed", type=int, default=0)
    p_vocab.set_defaults(func=cmd_vocab_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
