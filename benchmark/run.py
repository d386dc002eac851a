"""emco benchmark: one workload per process, untraced or traced.

    python3 benchmark/run.py --workload mini-run --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --workload all --seed 1      # every workload, one table

A run builds its inputs (fixed per workload; --seed is only recorded), then
repeats a cycle until --seconds have passed and at least two cycles are done:
time the set-up PROBES_PER_UNIT times in fresh interpreters, then run the
workload's unit of work once, checking every output. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics of one traced unit
with --trace 1. See benchmark/README.md.
"""

from __future__ import annotations

import os

# BLAS thread pools would add threads beyond the harness's own workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

METHODS = ("none", "ros", "smote", "adasyn", "mco", "emco")
RATIO = 0.2
VOCAB_GAMMAS = (0.0, 0.01, 0.1, 1.0)
MIN_UNITS = 2  # so that a median has more than one sample
# Set-up probes are spread over the run, between the units, so that their
# median sees the same spells of a noisy host as the units do.
PROBES_PER_UNIT = 3
HARD_STOP_S = 120.0  # start no further cycle after this, whatever --seconds says

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "share",
    "ba_macro": "share",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run": harness.run over the method matrix; "vocab": chain + analysis only
    corpus: str  # "bundled" mini corpus, or "scaled": generated with SCALED_SEED
    repetitions: int = 1
    workers: int = 1

    @property
    def seed(self) -> int:
        """Master seed of the run, and the generated corpus's seed."""
        return SCALED_SEED if self.corpus == "scaled" else 0


# Every workload keeps its inputs fixed, whatever --seed says: between seeds
# the classifier's work (epochs x rows) differs by up to 2x (see README.md),
# which would swamp the changes the benchmark has to see, and fixed inputs
# give each workload an exact ba_macro reference. With seed 8 one training
# of scaled-run stops at the solver's max_iters.
SCALED_SEED = 8
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mini-run", "run", "bundled", repetitions=5),
        Workload("mini-run-w2", "run", "bundled", repetitions=5, workers=2),
        Workload("scaled-run", "run", "scaled"),
        Workload("vocab-sweep", "vocab", "scaled"),
    )
}


@dataclass(frozen=True)
class Unit:
    """Outcome of one unit of work."""

    seconds: float  # the whole unit, as a user would wait for it
    work_s: float | None  # the part after set-up, when the unit can tell
    ops: int  # result rows (run) or vocabulary reports (vocab) attempted
    failed: int
    fingerprint: str | None  # sha256 of the outputs, for determinism checks
    ba: float


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class RunBench:
    """``harness.run`` over METHODS x gamma 1 x ratio 0.2 on one corpus."""

    def __init__(self, workload: Workload, corpus_path: Path, out_dir: Path):
        from emco import corpus, harness

        self.config = harness.ExperimentConfig(
            corpus_path=str(corpus_path),
            output_dir=str(out_dir / "results"),
            methods=METHODS,
            gammas=(1.0,),
            sampling_ratios=(RATIO,),
            repetitions=workload.repetitions,
            workers=workload.workers,
            master_seed=workload.seed,
        )
        prepared = harness.prepare(self.config)
        tasks = [t for t in corpus.build_ovr_tasks(prepared.docs, RATIO) if t.evaluable]
        self.expected = len(tasks) * len(METHODS) * workload.repetitions
        self.n_test = len(prepared.test_docs)
        self.vocab_size = prepared.tfidf.n_features

    def unit(self) -> Unit:
        from emco import harness

        start = time.perf_counter()
        result = harness.run(self.config)
        seconds = time.perf_counter() - start
        rows = result["rows"]
        failed = abs(len(rows) - self.expected) + sum(
            1 for r in rows if r["tp"] + r["fp"] + r["tn"] + r["fn"] != self.n_test
        )
        csv_bytes = (Path(self.config.output_dir) / "results.csv").read_bytes()
        ba = statistics.mean(v["ba"] for v in result["aggregate"].values())
        return Unit(seconds, None, max(len(rows), self.expected), failed, _sha256(csv_bytes), ba)


def vocab_setup(corpus_path):
    """What vocab-sweep does before its first result: load, preprocess and
    the evaluable one-vs-rest tasks at RATIO."""
    from emco import corpus

    docs = corpus.preprocess(corpus.load_corpus_jsonl(corpus_path))
    return docs, [t for t in corpus.build_ovr_tasks(docs, RATIO) if t.evaluable]


class VocabBench:
    """The ``emco vocab-eval``/``growth`` path for every minority task and
    gamma in VOCAB_GAMMAS: ``chain.estimate``, ``chain.oversample``,
    ``analysis.vocab_expansion_eval``, ``growth_curve`` and ``fit_heaps``."""

    def __init__(self, corpus_path: Path, seed: int):
        from emco import corpus

        self.corpus_path = corpus_path
        self.seed = seed
        docs, tasks = vocab_setup(corpus_path)
        self.expected = len(tasks) * len(VOCAB_GAMMAS)
        self.vocab_size = len({t for d in corpus.training_documents(docs) for t in d.tokens})

    def unit(self) -> Unit:
        import numpy as np
        from emco import analysis, chain, corpus, harness

        start = time.perf_counter()
        docs, tasks = vocab_setup(self.corpus_path)
        set_up = time.perf_counter()
        n_train = len(corpus.training_documents(docs))
        outputs, bas = [], []
        failed = 0
        for task in tasks:
            minority = [d.tokens for d in task.train_minority]
            majority = [d.tokens for d in task.train_majority]
            minority_test = [d.tokens for d in task.test if task.category in d.labels]
            s = harness.synthetic_count(n_train, len(minority), RATIO)
            for gamma in VOCAB_GAMMAS:
                model = chain.estimate(minority, majority, gamma)
                rng = np.random.default_rng(
                    harness.derive_seed(self.seed, task.category, "vocab-eval", gamma)
                )
                synthetic = chain.oversample(model, s, rng)
                report = analysis.vocab_expansion_eval(synthetic, model.partition, minority_test)
                counts = report.counts
                lengths = set(model.lengths)
                ok = (
                    len(synthetic) == s
                    and all(len(doc) in lengths for doc in synthetic)
                    and counts.total == len(model.partition.v_maj_only)
                    # gamma = 0 keeps the walk inside the minority vocabulary
                    and (gamma > 0 or counts.tp + counts.fp + report.new_synthetic_words == 0)
                )
                failed += not ok
                if report.ba is not None:
                    bas.append(report.ba)
                outputs.append([task.category, gamma, counts.tp, counts.fp, counts.tn,
                                counts.fn, report.new_synthetic_words])
            points = analysis.growth_curve(
                minority, step=1, majority_vocab={w for doc in majority for w in doc}
            )
            fit = analysis.fit_heaps(points)
            outputs.append([task.category, fit.k, fit.theta, fit.r2])
        end = time.perf_counter()
        fingerprint = _sha256(json.dumps(outputs).encode("utf-8"))
        ba = statistics.mean(bas) if bas else math.nan
        return Unit(end - start, end - set_up, self.expected, failed, fingerprint, ba)


def _probe(kind: str, corpus_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), kind, str(corpus_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _guarded(bench, expected: int) -> Unit:
    """Run one unit; an exception fails all of its operations."""
    start = time.perf_counter()
    try:
        return bench.unit()
    except Exception:  # a failed unit is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        return Unit(elapsed, elapsed, expected, expected, None, math.nan)


def _git_commit() -> str:
    # the ceiling keeps git from finding a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:  # no git
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 corpus_sizes: dict | None = None) -> dict:
    """Run one workload in this process and return its report. ``seed`` is
    only recorded: the inputs are fixed.

    ``corpus_sizes`` overrides the generated corpus's sizes (used by the
    tests); the reference value of ``ba_macro`` is then not checked.
    """
    import numpy
    import scipy

    import corpusgen
    from emco.data import mini_corpus_path

    workload = WORKLOADS[name]
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)

    if workload.corpus == "scaled":
        corpus_seed = workload.seed
        docs = corpusgen.generate(corpus_seed, **(corpus_sizes or {}))
        corpus_path = out_dir / "corpus.jsonl"
        corpus_sha = corpusgen.write_jsonl(docs, corpus_path)
    else:
        corpus_seed = None
        corpus_path = mini_corpus_path()
        corpus_sha = _sha256(corpus_path.read_bytes())
    n_docs = sum(1 for line in corpus_path.read_text("utf-8").splitlines() if line.strip())

    if workload.kind == "run":
        bench = RunBench(workload, corpus_path, out_dir)
    else:
        bench = VocabBench(corpus_path, workload.seed)
    reference = None
    if corpus_sizes is None:
        reference = json.loads((BENCH / "reference.json").read_text("utf-8"))[name]

    probes: list[dict] = []
    units: list[Unit] = []
    loop_start = time.perf_counter()
    while True:
        probes += [_probe(workload.kind, corpus_path) for _ in range(PROBES_PER_UNIT)]
        units.append(_guarded(bench, bench.expected))
        elapsed = time.perf_counter() - loop_start
        if elapsed >= HARD_STOP_S or (len(units) >= MIN_UNITS and elapsed >= seconds):
            break
    tracer = None
    if trace:
        from tracing import Tracer

        with Tracer() as tracer:
            units.append(_guarded(bench, bench.expected))

    attempted = failed = 0
    for unit in units:
        attempted += unit.ops
        bad = unit.failed
        # every unit, traced or not, must reproduce the first unit's outputs
        if unit.fingerprint is None or unit.fingerprint != units[0].fingerprint:
            bad = unit.ops
        if reference is not None:
            if not abs(unit.ba - reference["ba_macro"]) <= reference["tolerance"]:
                bad = unit.ops
        failed += min(bad, unit.ops)

    untraced = units[:-1] if trace else units
    import_s = statistics.median(p["import_s"] for p in probes)
    prepare_s = statistics.median(p["prepare_s"] for p in probes)
    unit_s = statistics.median(u.seconds for u in untraced)
    if workload.kind == "run":
        work_s = unit_s - prepare_s  # harness.run prepares again before its jobs
    else:
        work_s = statistics.median(u.work_s for u in untraced)
    if trace:
        values = tracer.summary(workload.workers, units[-1].seconds - unit_s)
        from tracing import PER_LAYER_UNITS as unit_names
    else:
        values = {
            "wall_s": import_s + unit_s,
            "setup_s": statistics.median(p["import_s"] + p["prepare_s"] for p in probes),
            "rows_per_s": bench.expected / work_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
            "ba_macro": statistics.median(u.ba for u in units),
        }
        unit_names = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_names[k]} for k, v in values.items()},
    }
    env = {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "master_seed": workload.seed,
        "corpus_seed": corpus_seed,
        "corpus_sha256": corpus_sha,
        "corpus_docs": n_docs,
        "vocabulary": bench.vocab_size,
    }
    with open(out_dir / "run.json", "w", encoding="utf-8") as handle:
        json.dump({"env": env, "probes": probes,
                   "units": [u.__dict__ for u in units], "result": result},
                  handle, indent=2)
    if tracer is not None:
        with open(out_dir / "trace.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.spans_json(), handle)
    return {"env": env, "result": result}


def _run_all(args) -> int:
    """Each workload in its own process, one after another; prints a table."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"{name}: exit code {done.returncode}")
            return 1
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} error_rate={res['failed'] / res['attempted']:g}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:30s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "emco", ROOT / "scripts" / "make_mini_corpus.py") if not p.exists()]
    if missing:
        print(f"error: not an emco checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(SRC))
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          OUT / f"{args.workload}-trace{args.trace}")
    print(json.dumps({"env": report["env"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
