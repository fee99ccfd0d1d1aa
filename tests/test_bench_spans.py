"""What the benchmark reads from the package still exists.

``bench/spans.py`` patches package functions by their dotted names, and
``bench/worker.py`` reads solver state into every report; a rename in
``src/`` would otherwise surface only when a benchmark run fails.  The
files are loaded by path and only read.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS_FILE = BENCH / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for group in spans.SPANS.values() for target in group]
    assert targets
    for target in targets:
        owner, attribute = spans._resolve(target)
        assert callable(getattr(owner, attribute))


def test_worker_environment_reads_the_backend(monkeypatch):
    # worker.py imports its sibling modules by bare name.
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert worker.environment()["lp_backend"] == "builtin"
