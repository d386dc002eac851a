"""One set-up of a workload in a fresh interpreter, timed.

    python3 benchmark/probe.py run|vocab CORPUS_PATH

Imports emco, then does what the workload does before its first result:
``harness.prepare`` for ``run``; load, preprocess and ``build_ovr_tasks``
for ``vocab``. Prints {"import_s": ..., "prepare_s": ...}. ``run.py`` starts
it with ``src`` on PYTHONPATH.
"""

import json
import sys
import time

from run import vocab_setup

start = time.perf_counter()
from emco import harness  # noqa: E402

imported = time.perf_counter()
kind, path = sys.argv[1:3]
if kind == "run":
    harness.prepare(harness.ExperimentConfig(corpus_path=path))
elif kind == "vocab":
    vocab_setup(path)
else:
    raise SystemExit(f"unknown probe kind {kind!r}")
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "prepare_s": done - imported}))
