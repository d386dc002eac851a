import contextlib
import hashlib
import json
import multiprocessing
import os
import pickle
import platform
import signal
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emco
from emco import chain, classifier, cli, corpus, harness, vectorize
from emco.data import mini_corpus_path


def record_training(monkeypatch, tmp_path):
    """Route classifier.train through a recorder that sees the calls of every
    worker process; returns a function that reads the list of
    (vectors, labels) it was called with."""
    path = tmp_path / "train_calls.pickle"
    real = classifier.train

    def train(vectors, labels, **kwargs):
        # one unbuffered append per call, so records of two processes never
        # interleave
        with open(path, "ab", buffering=0) as handle:
            handle.write(pickle.dumps((list(vectors), list(labels))))
        return real(vectors, labels, **kwargs)

    def read_calls():
        calls = []
        if path.exists():
            with open(path, "rb") as handle:
                while handle.peek(1):
                    calls.append(pickle.load(handle))
        return calls

    monkeypatch.setattr(classifier, "train", train)
    return read_calls


def write_test_only_category_corpus(tmp_path):
    """A corpus whose category ``new`` labels a test document only."""
    c_text = "wheat grain export wheat grain export"
    x_text = "bank market price bank market price"
    docs = [{"id": f"c{i}", "text": c_text, "labels": ["c"], "split": "train"}
            for i in range(2)]
    docs += [{"id": f"x{i}", "text": x_text, "labels": ["x"], "split": "train"}
             for i in range(17)]
    docs += [{"id": "t0", "text": c_text, "labels": ["c"], "split": "test"},
             {"id": "t1", "text": x_text, "labels": ["x"], "split": "test"},
             {"id": "t2", "text": x_text, "labels": ["x", "new"], "split": "test"}]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    return path


class TestConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(corpus_path="x", methods=("bogus",))

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(corpus_path="x", sampling_ratios=(1.0,))

    def test_rejects_emco_without_gammas(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(corpus_path="x", methods=("emco",), gammas=())

    @pytest.mark.parametrize("kwargs, message", [
        ({"methods": "none"}, "config key 'methods' must be a list, got str"),
        ({"gammas": 1.0}, "config key 'gammas' must be a list, got float"),
        ({"sampling_ratios": 0.2},
         "config key 'sampling_ratios' must be a list, got float"),
    ])
    def test_direct_construction_rejects_a_non_list(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            harness.ExperimentConfig(corpus_path="x", **kwargs)
        assert str(exc.value) == message

    def test_direct_construction_makes_lists_tuples(self):
        config = harness.ExperimentConfig(
            corpus_path="x", methods=["none"], gammas=[1], sampling_ratios=[0.2]
        )
        assert config.methods == ("none",)
        assert config.gammas == (1.0,)
        assert config.sampling_ratios == (0.2,)
        assert hash(config) == hash(replace(config))

    def test_from_dict_requires_a_corpus_path(self):
        with pytest.raises(ValueError, match="^a corpus path is required"):
            harness.ExperimentConfig.from_dict({"methods": ["none"]})

    def test_from_json_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "corpus_path": "corpus.jsonl",
            "methods": ["none", "ros"],
            "gammas": [0.1, 1.0],
            "sampling_ratios": [0.2],
            "repetitions": 2,
        }))
        config = harness.ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert config.methods == ("none", "ros")
        assert config.gammas == (0.1, 1.0)
        assert config.sampling_ratios == (0.2,)

    def test_integer_gamma_gives_the_results_of_its_float(self, tmp_path):
        bodies = []
        for gamma in (1, 1.0):
            out = tmp_path / repr(gamma)
            harness.run(harness.ExperimentConfig.from_dict({
                "corpus_path": str(mini_corpus_path()),
                "output_dir": str(out),
                "methods": ["emco"],
                "gammas": [gamma],
                "sampling_ratios": [0.2],
                "repetitions": 1,
            }))
            bodies.append((out / "results.csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_negative_zero_gamma_is_gamma_zero(self, tmp_path):
        config = harness.ExperimentConfig(corpus_path="x", gammas=(-0.0,))
        assert [str(g) for g in config.gammas] == ["0.0"]  # -0.0 == 0.0 holds either way
        outputs = []
        for gamma in ("0", "-0"):
            out = tmp_path / gamma
            assert cli.main([
                "run", "--corpus", str(mini_corpus_path()), "--output-dir", str(out),
                "--methods", "emco", "--gammas", gamma, "--ratios", "0.2",
                "--repetitions", "1",
            ]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("results.csv", "aggregate.json")])
        assert outputs[0] == outputs[1]
        aggregate = json.loads(outputs[1][1])
        assert aggregate and all(key.startswith("emco(gamma=0)|") for key in aggregate)


class TestDeriveSeed:
    def test_stable(self):
        assert harness.derive_seed(0, "cat", "ros", None, 0.2, 1) == \
            harness.derive_seed(0, "cat", "ros", None, 0.2, 1)

    def test_distinct_across_parts(self):
        seeds = {
            harness.derive_seed(0, "cat", m, g, r, rep)
            for m in ("ros", "smote")
            for g in (None, 1.0)
            for r in (0.1, 0.2)
            for rep in range(3)
        }
        assert len(seeds) == 24

    def test_fits_in_64_bits(self):
        s = harness.derive_seed(12345, "anything")
        assert 0 <= s < 2 ** 64


class TestSyntheticCount:
    def test_known_cases(self):
        assert harness.synthetic_count(100, 5, 0.1) == 6
        assert harness.synthetic_count(100, 5, 0.2) == 19

    def test_already_above_ratio(self):
        assert harness.synthetic_count(100, 30, 0.2) == 0

    @pytest.mark.parametrize("n, m, message", [
        (0, 0, "training count must be >= 1, got 0"),
        (-3, 0, "training count must be >= 1, got -3"),
        (5, -1, "minority count must be in \\[0, 5\\], got -1"),
        (5, 6, "minority count must be in \\[0, 5\\], got 6"),
    ])
    def test_bad_counts_rejected(self, n, m, message):
        with pytest.raises(ValueError, match=message):
            harness.synthetic_count(n, m, 0.2)

    @given(
        st.integers(2, 2000),
        st.integers(1, 2000),
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
    )
    @settings(max_examples=300)
    def test_minimality_and_sufficiency(self, n, m, ratio_frac):
        if m > n:
            m, n = n, m
        ratio = float(ratio_frac)
        s = harness.synthetic_count(n, m, ratio)
        assert s >= 0
        assert (m + s) / (n + s) >= ratio
        if s > 0:
            assert (m + s - 1) / (n + s - 1) < ratio


class TestMethodLabel:
    def test_labels(self):
        assert harness.method_label("ros", "") == "ros"
        assert harness.method_label("mco", "0") == "mco"
        assert harness.method_label("emco", "1") == "emco(gamma=1)"
        assert harness.method_label("emco", "0.01") == "emco(gamma=0.01)"


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    return harness.ExperimentConfig(
        corpus_path=str(mini_corpus_path()),
        output_dir=str(tmp_path_factory.mktemp("run")),
        dataset="mini",
        methods=("none", "ros", "mco", "emco"),
        gammas=(1.0,),
        sampling_ratios=(0.2,),
        repetitions=2,
        master_seed=7,
    )


@pytest.fixture(scope="module")
def small_run(small_config):
    return harness.run(small_config)


class TestRun:
    def test_row_count_and_sort_order(self, small_config, small_run):
        rows = small_run["rows"]
        # 2 evaluable tasks x 4 methods x 2 reps
        assert len(rows) == 16
        keys = [
            (r["sampling_ratio"], r["category"], r["method"], r["gamma"],
             r["repetition"])
            for r in rows
        ]
        assert keys == sorted(keys)

    def test_metrics_consistent_with_counts(self, small_run):
        for row in small_run["rows"]:
            tp, fn = row["tp"], row["fn"]
            assert row["recall"] == pytest.approx(tp / (tp + fn), abs=1e-9)

    def test_none_rows_identical_across_ratios(self):
        config = harness.ExperimentConfig(
            corpus_path=str(mini_corpus_path()),
            methods=("none",),
            sampling_ratios=(0.1, 0.2),
            repetitions=2,
        )
        rows, _, _ = harness._execute(config)
        by_task = {}
        for row in rows:
            key = (row["category"], row["repetition"])
            stripped = {k: v for k, v in row.items() if k != "sampling_ratio"}
            by_task.setdefault(key, []).append(stripped)
        # the rare category qualifies at both ratios; low only at 0.2
        rare_versions = [v for (cat, _), vs in by_task.items() if cat == "rare"
                         for v in vs]
        assert len(rare_versions) == 4  # 2 reps x 2 ratios
        for versions in by_task.values():
            assert all(v == versions[0] for v in versions)

    def test_mco_equals_emco_gamma_zero(self):
        config = harness.ExperimentConfig(
            corpus_path=str(mini_corpus_path()),
            methods=("mco", "emco"),
            gammas=(0.0,),
            sampling_ratios=(0.2,),
            repetitions=2,
        )
        rows, _, _ = harness._execute(config)
        mco = {
            (r["category"], r["repetition"]): (r["tp"], r["fp"], r["tn"], r["fn"])
            for r in rows if r["method"] == "mco"
        }
        emco0 = {
            (r["category"], r["repetition"]): (r["tp"], r["fp"], r["tn"], r["fn"])
            for r in rows if r["method"] == "emco"
        }
        assert mco == emco0

    def test_output_files_written(self, small_config, small_run):
        out = Path(small_config.output_dir)
        assert (out / "results.csv").exists()
        assert (out / "aggregate.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_rows"] == 16
        assert manifest["config"]["master_seed"] == 7

    @pytest.mark.parametrize("solver", ["compiled", "python"])
    def test_manifest_records_solver_and_versions(
        self, monkeypatch, tmp_path, solver
    ):
        if solver == "python":
            monkeypatch.setattr(classifier, "load_kernel", lambda: None)
        elif classifier.load_kernel() is None:
            pytest.skip("the compiled solver cannot be built here")
        config = replace(
            two_job_config(write_test_only_category_corpus(tmp_path), 1),
            output_dir=str(tmp_path / "out"),
        )
        harness.run(config)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["solver"] == solver
        assert manifest["versions"] == {
            "python": platform.python_version(), "numpy": np.__version__,
        }

    def test_aggregate_keys(self, small_run):
        keys = set(small_run["aggregate"])
        assert "emco(gamma=1)|0.2|low" in keys
        assert "none|0.2|low" in keys
        for values in small_run["aggregate"].values():
            assert 0.0 <= values["ba"] <= 1.0
            assert values["n_categories"] >= 1


class TestTaskState:
    def test_shared_id_is_labeled_by_category(self, monkeypatch, tmp_path):
        c_text = "wheat grain export wheat grain export"
        x_text = "bank market price bank market price"
        docs = [{"id": "dup", "text": c_text, "labels": ["c"], "split": "train"},
                {"id": "dup", "text": x_text, "labels": ["x"], "split": "train"},
                {"id": "c1", "text": c_text, "labels": ["c"], "split": "train"}]
        docs += [{"id": f"x{i}", "text": x_text, "labels": ["x"], "split": "train"}
                 for i in range(17)]
        docs += [{"id": "t0", "text": c_text, "labels": ["c"], "split": "test"},
                 {"id": "t1", "text": x_text, "labels": ["x"], "split": "test"}]
        raws = [corpus.RawDocument(d["id"], d["text"], frozenset(d["labels"]), d["split"])
                for d in docs]
        # the corpus loader rejects a repeated id; documents built in code can share one
        monkeypatch.setattr(corpus, "load_corpus_jsonl", lambda path: raws)
        config = harness.ExperimentConfig(
            corpus_path="in-memory", methods=("none", "ros"),
            sampling_ratios=(0.2,), repetitions=1,
        )
        prepared = harness.prepare(config)
        expected = [1 if "c" in d.labels else -1 for d in prepared.train_docs]
        assert expected.count(1) == 2
        c_vectors = {v for y, v in zip(expected, prepared.train_csr) if y == 1}

        read_calls = record_training(monkeypatch, tmp_path)
        rows, _, _ = harness._execute(config)
        calls = read_calls()
        assert {r["category"] for r in rows} == {"c"}
        assert len(calls) == 2
        n = len(expected)
        for vectors, labels in calls:
            assert labels[:n] == expected
            assert set(vectors[n:]) <= c_vectors  # ros copies minority rows only

    def test_trainings_stack_the_prepared_rows_without_rebuilding_them(self, monkeypatch):
        config = harness.ExperimentConfig(
            corpus_path=str(mini_corpus_path()), sampling_ratios=(0.2,), repetitions=1
        )
        converted = []
        real = classifier.to_csr
        monkeypatch.setattr(classifier, "to_csr", lambda v: converted.append(v) or real(v))
        rows, _, _ = harness._execute(config)
        assert len(converted) == len(rows) > 0
        assert all(isinstance(v, vectorize.CsrRows) for v in converted)

    def test_category_without_training_document_is_skipped(self, tmp_path, caplog):
        path = write_test_only_category_corpus(tmp_path)
        result = harness.run(harness.ExperimentConfig(
            corpus_path=str(path), output_dir=str(tmp_path / "out"),
            methods=("none",), sampling_ratios=(0.2,), repetitions=1,
        ))
        assert result["manifest"]["skipped_tasks"] == [
            {"category": "new", "ratio": 0.2, "reason": "no training document"}
        ]
        assert {r["category"] for r in result["rows"]} == {"c"}
        assert "skipping task new at ratio 0.2: no training document" in caplog.text

    @pytest.mark.parametrize("workers", [1, 2])
    def test_none_trains_once_per_category_and_rep(self, monkeypatch, tmp_path, workers):
        config = harness.ExperimentConfig(
            corpus_path=str(mini_corpus_path()),
            methods=("none",),
            sampling_ratios=(0.1, 0.2),
            repetitions=2,
            workers=workers,
        )
        read_calls = record_training(monkeypatch, tmp_path)
        rows, _, _ = harness._execute(config)
        calls = read_calls()
        pairs = {(r["category"], r["repetition"]) for r in rows}
        assert len(calls) == len(pairs)
        assert len(rows) > len(pairs)  # some rows are copies at a second ratio


    @pytest.mark.parametrize("methods, gammas, chain_gammas", [
        (("none", "mco", "emco"), (0.0, 1.0), [0.0, 1.0]),  # mco shares emco(0)'s
        (("mco", "emco"), (0.1,), [0.0, 0.1]),
        (("mco",), (1.0,), [0.0]),
        (("none", "ros"), (1.0,), []),
    ])
    def test_chain_estimated_once_per_category_and_gamma(
        self, monkeypatch, methods, gammas, chain_gammas
    ):
        estimated = []
        real = chain.estimate

        def estimate(minority, majority, gamma):
            estimated.append(gamma)
            return real(minority, majority, gamma)

        monkeypatch.setattr(chain, "estimate", estimate)
        config = harness.ExperimentConfig(
            corpus_path=str(mini_corpus_path()),
            methods=methods,
            gammas=gammas,
            sampling_ratios=(0.1, 0.2),
            repetitions=1,
        )
        rows, _, _ = harness._execute(config)
        ratios_of = {}
        for row in rows:
            ratios_of.setdefault(row["category"], set()).add(row["sampling_ratio"])
        assert max(len(r) for r in ratios_of.values()) == 2  # one category at both
        assert sorted(estimated) == sorted(chain_gammas * len(ratios_of))


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="more than one worker needs the fork start method",
)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def two_job_config(path, workers):
    """The test-only-category corpus gives ``none`` one qualifying category
    at ratio 0.2, so two repetitions make two jobs."""
    return harness.ExperimentConfig(
        corpus_path=str(path), methods=("none",), sampling_ratios=(0.2,),
        repetitions=2, workers=workers,
    )


def run_one_in_child(monkeypatch, tmp_path, child_job, parent_job=None):
    """Patch harness._run_one so that a forked worker calls ``child_job``
    instead, and the parent ``parent_job`` if given. The parent's job waits
    until a child has started one, so the child is sure to get one of the
    two jobs."""
    parent = os.getpid()
    started = tmp_path / "child-started"
    real = harness._run_one

    def run_one(*args):
        if os.getpid() != parent:
            started.touch()
            return child_job()
        while not started.exists():
            time.sleep(0.01)
        return parent_job() if parent_job else real(*args)

    monkeypatch.setattr(harness, "_run_one", run_one)


def record_starts(monkeypatch):
    """The list of processes started from now on."""
    started = []
    real_start = multiprocessing.process.BaseProcess.start

    def start(process):
        started.append(process)
        real_start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return started


class TestWorkerProcesses:
    @needs_fork
    def test_job_error_in_a_child_is_raised_as_is(self, monkeypatch, tmp_path):
        def fail():
            raise ValueError("bad job in a child")

        run_one_in_child(monkeypatch, tmp_path, fail)
        config = two_job_config(write_test_only_category_corpus(tmp_path), 2)
        with deadline(60), pytest.raises(ValueError, match="^bad job in a child$"):
            harness._execute(config)

    @needs_fork
    def test_child_dying_without_report_is_child_process_error(
        self, monkeypatch, tmp_path
    ):
        run_one_in_child(monkeypatch, tmp_path, lambda: os._exit(3))
        config = two_job_config(write_test_only_category_corpus(tmp_path), 2)
        with deadline(60), pytest.raises(ChildProcessError, match="exited with code 3 "):
            harness._execute(config)

    @needs_fork
    def test_child_dying_is_one_cli_error_line(self, monkeypatch, tmp_path, capsys):
        run_one_in_child(monkeypatch, tmp_path, lambda: os._exit(9))
        path = write_test_only_category_corpus(tmp_path)
        with deadline(60):
            rc = cli.main([
                "run", "--corpus", str(path), "--methods", "none", "--ratios", "0.2",
                "--repetitions", "2", "--workers", "2",
                "--output-dir", str(tmp_path / "out"),
            ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: worker process exited with code 9 before reporting its jobs\n"
        )

    @needs_fork
    def test_parent_job_error_stops_the_children(self, monkeypatch, tmp_path):
        def fail():
            raise ValueError("bad job in the parent")

        run_one_in_child(monkeypatch, tmp_path, lambda: time.sleep(600), fail)
        started = record_starts(monkeypatch)
        config = two_job_config(write_test_only_category_corpus(tmp_path), 2)
        with deadline(60), pytest.raises(ValueError, match="^bad job in the parent$"):
            harness._execute(config)
        assert len(started) == 1 and not started[0].is_alive()

    @needs_fork
    @pytest.mark.parametrize("workers, forks", [(1, 0), (8, 1)])
    def test_forks_at_most_one_child_per_extra_job(
        self, monkeypatch, tmp_path, workers, forks
    ):
        started = record_starts(monkeypatch)
        config = two_job_config(write_test_only_category_corpus(tmp_path), workers)
        rows, _, _ = harness._execute(config)
        assert [r["repetition"] for r in rows] == [0, 1]
        assert len(started) == forks
        assert not any(process.is_alive() for process in started)

    def test_more_than_one_worker_needs_fork(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        path = write_test_only_category_corpus(tmp_path)
        rc = cli.main(["run", "--corpus", str(path), "--workers", "2",
                       "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: config key 'workers' must be 1 where processes cannot fork, got 2\n"
        )
        rows, _, _ = harness._execute(two_job_config(path, 1))
        assert len(rows) == 2


# results.csv and aggregate.json of the README quick start's matrix.
MINI_RUN_DIGESTS = {
    "results.csv": "8ea6b2f468498ad6c32209d94dad6357efa6e3ea72fbd21b2e527c8c7328aaea",
    "aggregate.json": "ac3801c436e723a14be65bd23c45e7cc1dd9282c682471ecc8ab37c8fc31fbf6",
}


def output_digests(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("results.csv", "aggregate.json")
    }


class TestDeterminism:
    def test_byte_identical_across_worker_counts(self, tmp_path):
        outputs = []
        for workers in (1, 4):
            out = tmp_path / f"w{workers}"
            config = harness.ExperimentConfig(
                corpus_path=str(mini_corpus_path()),
                output_dir=str(out),
                methods=("none", "ros", "smote", "adasyn", "mco", "emco"),
                gammas=(1.0,),
                sampling_ratios=(0.2,),
                repetitions=2,
                workers=workers,
            )
            harness.run(config)
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_mini_run_output_bytes_are_pinned(self, tmp_path):
        # The README quick start's matrix. Every float summed on the way to
        # these files is summed left to right, so each supported Python must
        # write the same bytes.
        config = harness.ExperimentConfig(
            corpus_path=str(mini_corpus_path()),
            output_dir=str(tmp_path),
            methods=("none", "ros", "smote", "adasyn", "mco", "emco"),
            gammas=(1.0,),
            sampling_ratios=(0.2,),
            repetitions=5,
            master_seed=0,
            workers=1,
        )
        harness.run(config)
        assert output_digests(tmp_path) == MINI_RUN_DIGESTS

    @pytest.mark.usefixtures("python_loop")
    def test_mini_run_output_bytes_are_pinned_on_the_python_loop(self, tmp_path):
        self.test_mini_run_output_bytes_are_pinned(tmp_path)

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_mini_run_needs_no_scipy(self, tmp_path, hash_seed):
        # The same matrix through the CLI, in an interpreter where any
        # import of scipy fails. The bytes must not depend on the string
        # hash seed (set and dict-of-str iteration order).
        script = (
            "import sys; sys.modules['scipy'] = None; "
            "from emco import cli; sys.exit(cli.main(sys.argv[1:]))"
        )
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(emco.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", script, "run", "--corpus", str(mini_corpus_path()),
             "--output-dir", str(tmp_path),
             "--methods", "none", "ros", "smote", "adasyn", "mco", "emco",
             "--gammas", "1.0", "--ratios", "0.2", "--repetitions", "5",
             "--seed", "0", "--workers", "1"],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert output_digests(tmp_path) == MINI_RUN_DIGESTS


# The README quick start's other commands: the stdout of those that print their
# result, the CSV of those that write one. heaps_fit.json is left out, since
# np.polyfit's least squares may round its last bits differently between numpy
# builds.
QUICK_START_DIGESTS = {
    "prep": "74b9289f139db4e7468caf083c0cf3bb6548655b101abc93a27c1974adcfff8d",
    "sweep.csv": "328de453ef038f5e0543121922fc9cc69ff0b0c326860774dd3c6bb2f789b6e7",
    "growth.csv": "b2bbfe702c3dddb24701894d0b3904e0053288b1935afae8bac9ff0c62cb712e",
    "low/growth.csv": "c7aed240a1a10154bf98126be9b8b279340ee9fd2db17f187bf75e9194457870",
    "vocab-eval gamma 1.0": "7cb583a7fa5ea25d88f76c4d16ece22067be4604d343846f02893b742909fa05",
    "vocab-eval gamma 0": "ade92f904215d59d111683bb0efc993733cfcdbf57529f52c506cecb72a4d5e7",
}


def test_quick_start_outputs_are_pinned(tmp_path, capsys):
    def stdout_of(*argv):
        assert cli.main([*argv, "--corpus", str(mini_corpus_path())]) == 0
        return capsys.readouterr().out.encode()

    out = str(tmp_path)
    outputs = {
        "prep": stdout_of("prep"),
        "vocab-eval gamma 1.0": stdout_of("vocab-eval", "--category", "low", "--gamma", "1.0"),
        "vocab-eval gamma 0": stdout_of("vocab-eval", "--category", "low", "--gamma", "0"),
    }
    stdout_of("sweep", "--output-dir", out, "--gammas", "0", "0.01", "0.1", "1",
              "--ratios", "0.2", "--repetitions", "3")
    stdout_of("growth", "--step", "20", "--output-dir", out)
    stdout_of("growth", "--category", "low", "--step", "5", "--output-dir", f"{out}/low")
    for name in ("sweep.csv", "growth.csv", "low/growth.csv"):
        outputs[name] = (tmp_path / name).read_bytes()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == QUICK_START_DIGESTS


# The benchmark's generated-corpus outputs: the scaled-run results.csv and the
# vocab-sweep fingerprint, as benchmark/run.py's units compute them.
SCALED_RUN_RESULTS = "f75988716c1b69c449e4cc71d7de83688f05afcc9e64b8c8c8b94842b657aa33"
VOCAB_SWEEP_FINGERPRINT = "fb26840d77666a37e4cdd1bd177925d965ae44a68fdcb0003b6e7eaa577b9a37"
# results.csv and aggregate.json of test_acceptance's test_11 matrix.
DETERMINISM_DIGESTS = {
    "results.csv": "3754bee9df2b64808779d29c1350984bc2d157527e7db1d6bdf8f0791b95ed14",
    "aggregate.json": "6e6f0f906b85a42bf1a0327b749615f0138606e8d6abafba24c16b3b4a9f80bb",
}


@pytest.fixture(scope="module")
def bench():
    """``benchmark/corpusgen.py`` and ``benchmark/run.py``, imported as
    ``benchmark/tests`` imports them; ``sys.path`` is put back afterwards,
    since ``corpusgen`` puts ``scripts/`` on it."""
    saved = sys.path[:]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
    try:
        import corpusgen
        import run
    finally:
        sys.path[:] = saved
    return corpusgen, run


def generated_corpus(bench, tmp_path, name):
    """The benchmark workload ``name`` and the path of its generated corpus."""
    corpusgen, run = bench
    workload = run.WORKLOADS[name]
    path = tmp_path / "corpus.jsonl"
    corpusgen.write_jsonl(corpusgen.generate(workload.seed), path)
    return workload, path


@pytest.mark.parametrize("solver", ["compiled", "python"])
def test_scaled_run_results_are_pinned(request, tmp_path, bench, solver):
    if solver == "python":
        request.getfixturevalue("python_loop")
    workload, path = generated_corpus(bench, tmp_path, "scaled-run")
    assert bench[1].RunBench(workload, path, tmp_path).unit().fingerprint == SCALED_RUN_RESULTS


def test_vocab_sweep_outputs_are_pinned(tmp_path, bench):
    # no classifier trains here, but the chain is summed and walked by the kernel
    workload, path = generated_corpus(bench, tmp_path, "vocab-sweep")
    assert bench[1].VocabBench(path, workload.seed).unit().fingerprint == VOCAB_SWEEP_FINGERPRINT


@pytest.mark.usefixtures("python_loop")
def test_vocab_sweep_outputs_are_pinned_on_the_python_walk(tmp_path, bench):
    test_vocab_sweep_outputs_are_pinned(tmp_path, bench)


@pytest.mark.parametrize("solver", ["compiled", "python"])
@pytest.mark.parametrize("workers", [1, 3])
def test_determinism_matrix_outputs_are_pinned(request, tmp_path, solver, workers):
    if solver == "python":
        request.getfixturevalue("python_loop")
    harness.run(harness.ExperimentConfig(
        corpus_path=str(mini_corpus_path()),
        output_dir=str(tmp_path),
        methods=("none", "ros", "smote", "adasyn", "mco", "emco"),
        gammas=(0.1, 1.0),
        sampling_ratios=(0.1, 0.2),
        repetitions=2,
        master_seed=5,
        workers=workers,
    ))
    assert output_digests(tmp_path) == DETERMINISM_DIGESTS


def test_import_and_prepare_load_neither_multiprocessing_nor_solver():
    # multiprocessing costs about 8 ms of import time; only running jobs
    # and the workers > 1 check need it. Nor may set-up build or load the
    # compiled solver, or import ctypes where numpy does not.
    script = (
        "import sys, numpy; numpy_ctypes = 'ctypes' in sys.modules; "
        "import emco; from emco import classifier, harness; "
        "from emco.data import mini_corpus_path; "
        "harness.prepare(harness.ExperimentConfig(corpus_path=str(mini_corpus_path()))); "
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'; "
        "assert ('ctypes' in sys.modules) == numpy_ctypes, 'ctypes was imported'; "
        "assert classifier.load_kernel.cache_info().currsize == 0, 'the solver was loaded'"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(emco.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    )}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


class TestGammaSweep:
    def test_sweep_shape(self):
        config = harness.ExperimentConfig(
            corpus_path=str(mini_corpus_path()),
            methods=("emco",),
            sampling_ratios=(0.2,),
            repetitions=1,
        )
        rows = harness.gamma_sweep(replace(config, gammas=(0.0, 1.0)))
        assert {r["gamma"] for r in rows} == {0.0, 1.0}
        for row in rows:
            assert 0.0 <= row["recall"] <= 1.0

    def test_runs_the_matrix_once_for_emco_only(self, monkeypatch):
        configs = []
        real = harness._execute

        def execute(config):
            configs.append(config)
            return real(config)

        monkeypatch.setattr(harness, "_execute", execute)
        config = harness.ExperimentConfig(
            corpus_path=str(mini_corpus_path()),
            methods=("none", "ros"),
            sampling_ratios=(0.1, 0.2),
            repetitions=1,
        )
        rows = harness.gamma_sweep(replace(config, gammas=(1.0, 0.0)))
        assert [(c.methods, c.gammas) for c in configs] == [(("emco",), (1.0, 0.0))]
        keys = [(r["gamma"], r["sampling_ratio"], r["band"]) for r in rows]
        assert {k[:2] for k in keys} == {(1.0, "0.1"), (1.0, "0.2"), (0.0, "0.1"), (0.0, "0.2")}
        # gamma in the order given (1 before 0), then ratio, then band
        assert keys == sorted(keys, key=lambda k: (-k[0], float(k[1]), k[2]))


class TestCli:
    def test_prep(self, capsys):
        rc = cli.main(["prep", "--corpus", str(mini_corpus_path())])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["train_documents"] > stats["test_documents"] > 0
        assert "low" in stats["category_train_frequencies"]

    def test_run_and_growth_and_vocab_eval(self, tmp_path, capsys):
        rc = cli.main([
            "run", "--corpus", str(mini_corpus_path()),
            "--output-dir", str(tmp_path / "out"),
            "--methods", "none", "ros",
            "--ratios", "0.2", "--repetitions", "1",
        ])
        assert rc == 0
        assert (tmp_path / "out" / "results.csv").exists()

        rc = cli.main([
            "growth", "--corpus", str(mini_corpus_path()),
            "--step", "20", "--output-dir", str(tmp_path / "g"),
        ])
        assert rc == 0
        assert (tmp_path / "g" / "growth.csv").exists()
        capsys.readouterr()  # drop run/growth status lines

        rc = cli.main([
            "vocab-eval", "--corpus", str(mini_corpus_path()),
            "--category", "low", "--gamma", "1.0",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["majority_only_words"] > 0

    def test_config_file_with_flag_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "corpus_path": str(mini_corpus_path()),
            "methods": ["none"],
            "sampling_ratios": [0.2],
            "repetitions": 3,
        }))
        rc = cli.main([
            "run", "--config", str(config_path),
            "--output-dir", str(tmp_path / "out"),
            "--repetitions", "1",
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["repetitions"] == 1
        assert manifest["config"]["methods"] == ["none"]

    @pytest.mark.parametrize("extra, message", [
        ({"repetitons": 2}, "error: unknown config key 'repetitons'"),
        ({"methods": "ros"}, "error: config key 'methods' must be a list, got str"),
        ({"repetitions": "5"}, "error: config key 'repetitions' must be an integer, got str"),
        ({"workers": 1.5}, "error: config key 'workers' must be an integer, got float"),
        ({"c": "1"}, "error: config key 'c' must be a number, got str"),
        ({"gammas": ["1"]}, "error: config key 'gammas' must be a list of numbers, got str"),
        ({"c": 0}, "error: config key 'c' must be finite and > 0, got 0"),
        ({"tol": -0.001}, "error: config key 'tol' must be finite and > 0, got -0.001"),
        ({"k_neighbors": 0}, "error: config key 'k_neighbors' must be >= 1, got 0"),
        ({"workers": 0}, "error: config key 'workers' must be >= 1, got 0"),
        ({"max_iters": 0}, "error: config key 'max_iters' must be >= 1, got 0"),
        ({"gammas": [float("nan")]}, "error: config key 'gammas' must be finite and >= 0, got nan"),
        ({"gammas": [-0.5]}, "error: config key 'gammas' must be finite and >= 0, got -0.5"),
        ({"gammas": [0.1234567, 0.1234568]},
         "error: gammas 0.1234567 and 0.1234568 share the label '0.123457'"),
        ({"sampling_ratios": [0.1234567, 0.1234568]},
         "error: sampling_ratios 0.1234567 and 0.1234568 share the label '0.123457'"),
        ({"sampling_ratios": [0.2, 0.2]},
         "error: sampling_ratios 0.2 and 0.2 share the label '0.2'"),
        ({"gammas": [1, 1.0]}, "error: gammas 1.0 and 1.0 share the label '1'"),
        ({"methods": ["ros", "none", "ros"]}, "error: method 'ros' is repeated"),
        ({"gammas": [0, -0.0]}, "error: gammas 0.0 and 0.0 share the label '0'"),
        ([1, 2], "error: config file must be a JSON object, got list"),
        (5, "error: config file must be a JSON object, got int"),
        (None, "error: config file must be a JSON object, got NoneType"),
        ("abc", "error: config file must be a JSON object, got str"),
        ({"c": float("inf")}, "error: config key 'c' must be finite and > 0, got inf"),
        ({"tol": float("inf")}, "error: config key 'tol' must be finite and > 0, got inf"),
        ({"methods": []}, "error: config key 'methods' must not be empty"),
        ({"sampling_ratios": []}, "error: config key 'sampling_ratios' must not be empty"),
    ])
    def test_bad_config_is_one_line_error(self, tmp_path, capsys, extra, message):
        config_path = tmp_path / "config.json"
        # a dict is merged into a valid config; anything else is the whole file
        config_path.write_text(json.dumps(
            {"corpus_path": str(mini_corpus_path()), **extra}
            if isinstance(extra, dict) else extra
        ))
        rc = cli.main([
            "run", "--config", str(config_path),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("content, reason", [
        (b'{"corpus_path": ', "Expecting value: line 1 column 17 (char 16)"),
        (b'{"dataset": "caf\xe9"}', "'utf-8' codec can't decode byte 0xe9 in position 16"),
    ], ids=["not-json", "not-utf8"])
    def test_unreadable_config_file_is_named(self, tmp_path, capsys, content, reason):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(content)
        rc = cli.main(["run", "--config", str(config_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: {reason}")
        assert err.count("\n") == 1

    def test_sweep_writes_the_gammas_flag_grid(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main([
            "sweep", "--corpus", str(mini_corpus_path()), "--output-dir", str(out),
            "--gammas", "0.5", "--ratios", "0.2", "--repetitions", "1",
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) > 1
        assert {line.split(",")[0] for line in lines[1:]} == {"0.5"}

    def test_sweep_takes_its_grid_from_the_config_file(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "corpus_path": str(mini_corpus_path()),
            "gammas": [1, 0],
            "sampling_ratios": [0.2],
            "repetitions": 1,
        }))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config_path),
                         "--output-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1.0", "0.0"]

    def test_ratio_with_a_shortened_label_completes(self, tmp_path):
        out = tmp_path / "out"
        rc = cli.main([
            "run", "--corpus", str(mini_corpus_path()), "--output-dir", str(out),
            "--methods", "none", "--ratios", "0.1234567", "--repetitions", "1",
        ])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["task_frequencies"]) == ["0.123457"]
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate and all(k.startswith("none|0.123457|") for k in aggregate)

    @pytest.mark.parametrize("flag, values, field, expected", [
        ("--corpus", ["{tmp}/corpus.jsonl"], "corpus_path", "{tmp}/corpus.jsonl"),
        ("--output-dir", ["{tmp}/elsewhere"], "output_dir", "{tmp}/elsewhere"),
        ("--dataset", ["reuters"], "dataset", "reuters"),
        ("--methods", ["ros", "none"], "methods", ["ros", "none"]),
        ("--gammas", ["0.5", "2"], "gammas", [0.5, 2.0]),
        ("--ratios", ["0.15", "0.2"], "sampling_ratios", [0.15, 0.2]),
        ("--repetitions", ["2"], "repetitions", 2),
        ("--k-neighbors", ["3"], "k_neighbors", 3),
        ("--c", ["0.5"], "c", 0.5),
        ("--tol", ["0.01"], "tol", 0.01),
        ("--max-iters", ["50"], "max_iters", 50),
        ("--seed", ["11"], "master_seed", 11),
        ("--workers", ["2"], "workers", 2),
        ("--stopwords", ["{tmp}/stop.txt"], "stopwords_path", "{tmp}/stop.txt"),
    ])
    def test_run_flag_sets_its_config_field(self, tmp_path, flag, values, field, expected):
        (tmp_path / "corpus.jsonl").write_bytes(mini_corpus_path().read_bytes())
        (tmp_path / "stop.txt").write_text("the\nof\n")
        args = {
            "--corpus": [str(mini_corpus_path())],
            "--output-dir": [str(tmp_path / "out")],
            "--methods": ["none"],
            "--ratios": ["0.2"],
            "--repetitions": ["1"],
            flag: [v.format(tmp=tmp_path) for v in values],
        }
        assert cli.main(["run", *[a for k, vs in args.items() for a in (k, *vs)]]) == 0
        out = Path(args["--output-dir"][0])
        config = json.loads((out / "manifest.json").read_text())["config"]
        if isinstance(expected, str):
            expected = expected.format(tmp=tmp_path)
        assert config[field] == expected
        default = harness.ExperimentConfig(corpus_path=str(mini_corpus_path()))
        assert getattr(default, field) != (
            tuple(expected) if isinstance(expected, list) else expected
        )

    def test_sweep_rejects_methods(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "sweep", "--corpus", str(mini_corpus_path()),
                "--output-dir", str(tmp_path / "out"), "--methods", "ros",
            ])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_vocab_eval_category_without_training_document(self, tmp_path, capsys):
        path = write_test_only_category_corpus(tmp_path)
        rc = cli.main(["vocab-eval", "--corpus", str(path), "--category", "new"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: category 'new' has no training document\n"
        )

    def test_vocab_eval_category_that_is_not_a_task(self, capsys):
        rc = cli.main([
            "vocab-eval", "--corpus", str(mini_corpus_path()), "--category", "absent",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: category 'absent' is not a minority task at ratio 0.2")
        assert err.count("\n") == 1

    def test_growth_without_selected_documents(self, tmp_path, capsys):
        rc = cli.main([
            "growth", "--corpus", str(mini_corpus_path()), "--category", "absent",
            "--output-dir", str(tmp_path / "g"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: no documents selected for the growth curve\n"
        )

    def test_growth_by_category_counts_words_known_in_majority(self, tmp_path, capsys):
        rc = cli.main([
            "growth", "--corpus", str(mini_corpus_path()), "--category", "low",
            "--step", "5", "--output-dir", str(tmp_path / "g"),
        ])
        assert rc == 0
        assert (tmp_path / "g" / "growth.csv").read_bytes() == (
            b"A,T,new_known_in_majority\r\n55,26,15\r\n107,32,5\r\n151,32,0\r\n"
        )
        assert (tmp_path / "g" / "heaps_fit.json").exists()

    def test_growth_rejects_a_negative_shuffle_seed(self, tmp_path, capsys):
        rc = cli.main([
            "growth", "--corpus", str(mini_corpus_path()), "--shuffle-seed", "-1",
            "--output-dir", str(tmp_path / "g"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "error: shuffle_seed must be >= 0, got -1\n"

    def test_missing_corpus_path_is_one_line_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: a corpus path is required (--corpus or config)\n"
        )

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_vocab_eval_rejects_non_finite_gamma(self, capsys, gamma):
        rc = cli.main([
            "vocab-eval", "--corpus", str(mini_corpus_path()),
            "--category", "low", "--gamma", gamma,
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gamma must be finite and >= 0, got {gamma}\n"

    def test_vocab_eval_rejects_gamma_that_overflows_the_weights(self, capsys):
        rc = cli.main([
            "vocab-eval", "--corpus", str(mini_corpus_path()),
            "--category", "low", "--gamma", "1e308",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: gamma 1e+308 overflows")
        assert captured.err.count("\n") == 1

    def test_vocab_eval_negative_zero_gamma_reports_gamma_zero(self, capsys):
        reports = []
        for gamma in ("0", "-0.0"):
            assert cli.main([
                "vocab-eval", "--corpus", str(mini_corpus_path()),
                "--category", "low", f"--gamma={gamma}",
            ]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert '"gamma": 0.0,' in reports[1]

    def test_missing_corpus_is_clean_error(self, tmp_path, capsys):
        rc = cli.main([
            "run", "--corpus", str(tmp_path / "absent.jsonl"),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err
